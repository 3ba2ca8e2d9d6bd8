//! Process CPU time and peak resident memory from Linux `/proc`.

use std::io;

/// Clock ticks per second of the `utime`/`stime` fields. Linux reports
/// them in `USER_HZ`, which is 100 on every architecture it supports.
const TICKS_PER_S: f64 = 100.0;

/// User plus system CPU time of this process (all threads), in seconds.
pub fn cpu_seconds() -> io::Result<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat")?;
    let ticks = parse_cpu_ticks(&stat)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "malformed /proc/self/stat"))?;
    Ok(ticks as f64 / TICKS_PER_S)
}

/// Peak resident set size (`VmHWM`) of this process, in MiB.
pub fn peak_rss_mib() -> io::Result<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    let kib = parse_vm_hwm_kib(&status).ok_or_else(|| {
        io::Error::new(io::ErrorKind::InvalidData, "no VmHWM in /proc/self/status")
    })?;
    Ok(kib as f64 / 1024.0)
}

/// `utime + stime` from a `/proc/<pid>/stat` line. The command name (field
/// 2) may hold spaces and parentheses, so fields are counted from the
/// last `)`: `utime` and `stime` are fields 14 and 15 of the whole line.
pub fn parse_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11); // fields 3..=13
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// The `VmHWM:` value (kB) of a `/proc/<pid>/status` file.
pub fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line["VmHWM:".len()..]
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_ticks_skip_a_command_name_with_spaces_and_parens() {
        let stat = "4242 (my (odd) cmd) R 1 2 3 4 5 6 7 8 9 10 250 17 0 0 20 0 3 0 1234";
        assert_eq!(parse_cpu_ticks(stat), Some(267));
        assert_eq!(parse_cpu_ticks("4242 (cmd) R 1 2"), None);
    }

    #[test]
    fn vm_hwm_is_read_in_kib() {
        let status =
            "Name:\tperfbench\nVmPeak:\t  99999 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 1024 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(20480));
        assert_eq!(parse_vm_hwm_kib("Name:\tx\n"), None);
    }

    #[test]
    fn live_readers_see_this_process() {
        let before = cpu_seconds().expect("readable /proc/self/stat");
        let mut x = 0u64;
        let start = std::time::Instant::now();
        while start.elapsed().as_millis() < 200 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        let after = cpu_seconds().expect("readable /proc/self/stat");
        assert!(
            after > before,
            "200 ms of spinning must register: {before} -> {after}"
        );
        let block = vec![1u8; 64 << 20];
        std::hint::black_box(&block);
        assert!(peak_rss_mib().expect("readable /proc/self/status") >= 64.0);
    }
}
