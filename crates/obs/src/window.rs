//! Windowed counters on a time wheel.
//!
//! A [`WindowedCounter`] answers "how many in the last W microseconds"
//! without locks or allocation on the write path: the window is split
//! into fixed slots arranged as a wheel, each slot tagged with the
//! epoch (slot-aligned time) it currently represents. Writers bump the
//! slot their timestamp lands in, resetting it first (one CAS) when the
//! wheel has rotated past its old epoch; readers sum the slots whose
//! epochs still fall inside the queried window.
//!
//! Timestamps are *explicit* (`now_us` parameters) so the same code is
//! exact under [`FleetSim`](../../fleet)'s virtual clocks and
//! approximate-but-cheap under live wall clocks. The one documented
//! imprecision: a reader racing a slot reset can transiently observe a
//! freshly-zeroed slot, undercounting by at most one slot's worth —
//! telemetry-grade, never control-flow-grade.

use std::sync::atomic::{AtomicU64, Ordering};

/// One wheel slot: the slot-aligned epoch it holds counts for
/// (stored +1 so 0 means "never written") and the count itself.
#[derive(Debug)]
struct Slot {
    epoch: AtomicU64,
    count: AtomicU64,
}

/// A rolling event counter over a fixed time wheel. Write path is one
/// atomic RMW (plus a CAS when the slot rotates); read path is a scan
/// of the wheel. See the module docs for the precision contract.
#[derive(Debug)]
pub struct WindowedCounter {
    slot_us: u64,
    slots: Vec<Slot>,
}

impl WindowedCounter {
    /// A wheel of `slots` slots of `slot_us` microseconds each; the
    /// maximum answerable window is `slots * slot_us`. Both are clamped
    /// to at least 1.
    pub fn new(slot_us: u64, slots: usize) -> Self {
        let slots = slots.max(1);
        Self {
            slot_us: slot_us.max(1),
            slots: (0..slots)
                .map(|_| Slot {
                    epoch: AtomicU64::new(0),
                    count: AtomicU64::new(0),
                })
                .collect(),
        }
    }

    /// Rotates the slot for `now_us` forward if stale and returns it.
    fn rotate(&self, now_us: u64) -> &Slot {
        // Stored epochs are offset by +1 so an untouched slot (0) never
        // collides with the real epoch 0.
        let epoch = now_us / self.slot_us + 1;
        let idx = (epoch % self.slots.len() as u64) as usize;
        let slot = &self.slots[idx];
        let cur = slot.epoch.load(Ordering::Acquire);
        // Only roll *forward*: a late write from before a rotation folds
        // into the new slot rather than resurrecting the old one.
        if cur < epoch
            && slot
                .epoch
                .compare_exchange(cur, epoch, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
        {
            slot.count.store(0, Ordering::Release);
        }
        slot
    }

    /// Adds `n` events at `now_us`.
    pub fn add_at(&self, now_us: u64, n: u64) {
        self.rotate(now_us).count.fetch_add(n, Ordering::Relaxed);
    }

    /// Events in the window `(now_us - window_us, now_us]`, summed from
    /// the slots whose epochs fall inside it. `window_us` is clamped to
    /// the wheel's span.
    pub fn sum_window_at(&self, now_us: u64, window_us: u64) -> u64 {
        let cur_epoch = now_us / self.slot_us + 1;
        let span_slots = window_us
            .div_ceil(self.slot_us)
            .min(self.slots.len() as u64)
            .max(1);
        let oldest = cur_epoch.saturating_sub(span_slots - 1);
        self.slots
            .iter()
            .filter(|s| {
                let e = s.epoch.load(Ordering::Acquire);
                e >= oldest && e <= cur_epoch
            })
            .map(|s| s.count.load(Ordering::Relaxed))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_inside_the_window_and_forgets_outside() {
        let c = WindowedCounter::new(1_000, 8);
        c.add_at(500, 3);
        c.add_at(1_500, 2);
        assert_eq!(c.sum_window_at(1_500, 2_000), 5);
        // 8 slots * 1ms = 8ms span; by t=10ms the first slots rotated.
        c.add_at(10_500, 1);
        assert_eq!(c.sum_window_at(10_500, 2_000), 1);
    }

    #[test]
    fn window_narrower_than_wheel_excludes_old_slots() {
        let c = WindowedCounter::new(1_000, 16);
        c.add_at(1_100, 4); // slot of epoch 1ms
        c.add_at(5_100, 6); // slot of epoch 5ms
        assert_eq!(c.sum_window_at(5_200, 1_000), 6);
        assert_eq!(c.sum_window_at(5_200, 16_000), 10);
    }

    #[test]
    fn stale_slot_resets_on_rotation() {
        let c = WindowedCounter::new(100, 4);
        c.add_at(50, 9);
        // Same wheel index, 4 slots later: must not resurrect the 9.
        c.add_at(450, 1);
        assert_eq!(c.sum_window_at(450, 100), 1);
    }

    #[test]
    fn zero_everything_is_fine() {
        let c = WindowedCounter::new(0, 0);
        c.add_at(0, 0);
        assert_eq!(c.sum_window_at(0, 0), 0);
    }
}
