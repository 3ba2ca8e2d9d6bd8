//! Deterministic fault injection for chaos-testing the serving stack.
//!
//! A [`FaultPlan`] is a *pure function* from a batch sequence number to
//! a fault decision, derived from a caller-chosen seed. Nothing in the
//! plan reads the wall clock, a global RNG, or thread identity, so a
//! chaos run is replayable: batch `n` panics (or stalls) on every run
//! with the same seed, no matter which worker picks it up or how the
//! OS schedules threads. The plan also packages the deterministic
//! corruption helper the chaos tests use against persisted schedules
//! and the burst-sizing helper for queue-overload scenarios.
//!
//! The plan type and its decision logic always compile (they are plain
//! arithmetic and are unit-tested in every build); the *injection
//! hooks* inside the server's worker loop only exist when the crate is
//! built with the `chaos` feature, so a production build carries no
//! injection sites.
//!
//! # Examples
//!
//! ```
//! use ts_serve::{Fault, FaultPlan};
//!
//! let plan = FaultPlan::from_seed(42).with_panic_on([2]);
//! assert_eq!(plan.decide(2), Some(Fault::WorkerPanic));
//! assert_eq!(plan.decide(3), None);
//! // Replayable: the same seed makes the same decisions.
//! assert_eq!(plan.decide(2), FaultPlan::from_seed(42).with_panic_on([2]).decide(2));
//! ```

use std::collections::BTreeSet;
use std::time::Duration;

/// One injected fault, decided per dispatched batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// The worker thread executing the batch panics before touching it
    /// (the batch is recovered and re-enqueued by the supervisor).
    WorkerPanic,
    /// The worker sleeps this long before executing the batch,
    /// simulating a stuck schedule or an OS-level stall.
    SlowBatch(Duration),
}

/// A seeded, deterministic fault schedule.
///
/// Faults fire either on explicitly listed batch sequence numbers
/// ([`FaultPlan::with_panic_on`] / [`FaultPlan::with_stall_on`]) or at
/// a seeded rate ([`FaultPlan::with_panic_rate`] /
/// [`FaultPlan::with_stall_rate`]). Explicit lists take precedence over
/// rates, and panics over stalls. The determinism contract: every
/// decision is a pure function of `(seed, batch seq)`, so the same
/// plan replays the same faults.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultPlan {
    seed: u64,
    panic_batches: BTreeSet<u64>,
    stall_batches: BTreeSet<u64>,
    /// Probabilities in parts per 2^32 so the plan stays `Eq`/`Hash`-able.
    panic_ppb: u32,
    stall_ppb: u32,
    stall: Duration,
}

/// SplitMix64: a single mixing round, used to derive independent
/// decision streams from (seed, sequence, salt) without shared state.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

fn rate_to_ppb(rate: f64) -> u32 {
    (rate.clamp(0.0, 1.0) * u32::MAX as f64) as u32
}

impl FaultPlan {
    /// A plan with the given seed and no faults configured.
    pub fn from_seed(seed: u64) -> Self {
        Self {
            seed,
            ..Self::default()
        }
    }

    /// Panic the worker on exactly these batch sequence numbers.
    pub fn with_panic_on(mut self, batches: impl IntoIterator<Item = u64>) -> Self {
        self.panic_batches.extend(batches);
        self
    }

    /// Stall the worker for `stall` on exactly these batch sequence
    /// numbers.
    pub fn with_stall_on(
        mut self,
        batches: impl IntoIterator<Item = u64>,
        stall: Duration,
    ) -> Self {
        self.stall_batches.extend(batches);
        self.stall = stall;
        self
    }

    /// Additionally panic on a seeded `rate` (0.0–1.0) of all batches.
    pub fn with_panic_rate(mut self, rate: f64) -> Self {
        self.panic_ppb = rate_to_ppb(rate);
        self
    }

    /// Additionally stall for `stall` on a seeded `rate` (0.0–1.0) of
    /// all batches.
    pub fn with_stall_rate(mut self, rate: f64, stall: Duration) -> Self {
        self.stall_ppb = rate_to_ppb(rate);
        self.stall = stall;
        self
    }

    /// The fault (if any) to inject on batch `seq` — a pure function of
    /// `(plan, seq)`.
    pub fn decide(&self, seq: u64) -> Option<Fault> {
        if self.panic_batches.contains(&seq) {
            return Some(Fault::WorkerPanic);
        }
        if self.stall_batches.contains(&seq) {
            return Some(Fault::SlowBatch(self.stall));
        }
        if self.panic_ppb > 0 && (mix(self.seed ^ mix(seq ^ 0x9A)) >> 32) as u32 <= self.panic_ppb {
            return Some(Fault::WorkerPanic);
        }
        if self.stall_ppb > 0 && (mix(self.seed ^ mix(seq ^ 0x57)) >> 32) as u32 <= self.stall_ppb {
            return Some(Fault::SlowBatch(self.stall));
        }
        None
    }

    /// Deterministically corrupts a JSON document, such as a schedule
    /// store's entry file, so it no longer parses: truncates at a seeded
    /// offset strictly inside the document (a prefix of a JSON object is
    /// never valid JSON). A store opened over a truncated entry skips
    /// it and records a load issue; the node then boots on the safe
    /// fallback.
    pub fn corrupt_truncate(&self, json: &str) -> String {
        if json.len() < 2 {
            return String::new();
        }
        let mut cut = 1 + (mix(self.seed ^ json.len() as u64) % (json.len() as u64 - 1)) as usize;
        while !json.is_char_boundary(cut) {
            cut -= 1;
        }
        json[..cut].to_string()
    }

    /// Deterministic burst size for a queue-overload scenario: tick `t`
    /// submits between `lo` and `hi` (inclusive) requests at once.
    /// Pure in `(plan, t)`, like [`FaultPlan::decide`].
    pub fn burst_size(&self, tick: u64, lo: usize, hi: usize) -> usize {
        let (lo, hi) = (lo.min(hi), lo.max(hi));
        lo + (mix(self.seed ^ mix(tick ^ 0xB5)) % (hi - lo + 1) as u64) as usize
    }
}

/// Injection hook called by the worker loop once per batch, before
/// execution; records the injection (so a post-mortem names it) before
/// acting on it. Compiled to a no-op unless the `chaos` feature is on.
#[cfg(feature = "chaos")]
pub(crate) fn inject(plan: Option<&FaultPlan>, seq: u64, metrics: &crate::metrics::Metrics) {
    use ts_obs::{FaultKind, ObsEvent};
    let Some(fault) = plan.and_then(|p| p.decide(seq)) else {
        return;
    };
    let kind = match fault {
        Fault::WorkerPanic => FaultKind::WorkerPanic,
        Fault::SlowBatch(_) => FaultKind::WorkerStall,
    };
    metrics.record(ObsEvent::Injected { kind, batch: seq });
    match fault {
        Fault::WorkerPanic => panic!("chaos: injected worker panic on batch {seq}"),
        Fault::SlowBatch(stall) => std::thread::sleep(stall),
    }
}

/// No-op twin of the chaos injection hook for production builds.
#[cfg(not(feature = "chaos"))]
pub(crate) fn inject(_plan: Option<&FaultPlan>, _seq: u64, _metrics: &crate::metrics::Metrics) {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explicit_batches_fire_exactly() {
        let plan = FaultPlan::from_seed(7)
            .with_panic_on([0, 5])
            .with_stall_on([3], Duration::from_millis(10));
        assert_eq!(plan.decide(0), Some(Fault::WorkerPanic));
        assert_eq!(plan.decide(5), Some(Fault::WorkerPanic));
        assert_eq!(
            plan.decide(3),
            Some(Fault::SlowBatch(Duration::from_millis(10)))
        );
        for seq in [1, 2, 4, 6, 100] {
            assert_eq!(plan.decide(seq), None);
        }
    }

    #[test]
    fn decisions_are_deterministic_across_plan_clones() {
        let a = FaultPlan::from_seed(99)
            .with_panic_rate(0.3)
            .with_stall_rate(0.3, Duration::from_millis(1));
        let b = a.clone();
        for seq in 0..500 {
            assert_eq!(a.decide(seq), b.decide(seq), "batch {seq} diverged");
        }
    }

    #[test]
    fn seeded_rates_hit_roughly_the_requested_fraction() {
        let plan = FaultPlan::from_seed(1234).with_panic_rate(0.25);
        let n = 4000;
        let hits = (0..n)
            .filter(|&s| plan.decide(s) == Some(Fault::WorkerPanic))
            .count();
        let frac = hits as f64 / n as f64;
        assert!(
            (0.18..0.32).contains(&frac),
            "hit rate {frac} far from 0.25"
        );
    }

    #[test]
    fn different_seeds_make_different_decisions() {
        let a = FaultPlan::from_seed(1).with_panic_rate(0.5);
        let b = FaultPlan::from_seed(2).with_panic_rate(0.5);
        let diverged = (0..200).any(|s| a.decide(s) != b.decide(s));
        assert!(diverged, "independent seeds should diverge somewhere");
    }

    #[test]
    fn rate_one_fires_on_every_batch() {
        let plan = FaultPlan::from_seed(3).with_panic_rate(1.0);
        for seq in 0..100 {
            assert_eq!(plan.decide(seq), Some(Fault::WorkerPanic));
        }
    }

    #[test]
    fn truncation_is_deterministic_and_strictly_shorter() {
        let json = "{\n  \"version\": 1,\n  \"configs\": {}\n}";
        let plan = FaultPlan::from_seed(11);
        let a = plan.corrupt_truncate(json);
        assert_eq!(a, plan.corrupt_truncate(json));
        assert!(!a.is_empty() && a.len() < json.len());
    }

    #[test]
    fn burst_sizes_stay_in_range_and_replay() {
        let plan = FaultPlan::from_seed(77);
        for t in 0..200 {
            let s = plan.burst_size(t, 2, 9);
            assert!((2..=9).contains(&s));
            assert_eq!(s, plan.burst_size(t, 2, 9));
        }
        // Degenerate range collapses.
        assert_eq!(plan.burst_size(0, 4, 4), 4);
    }
}
