//! Multi-window SLO burn-rate alerting.
//!
//! Following the SRE burn-rate recipe, deadline misses are judged
//! against the error budget over *two* sliding windows at once: a fast
//! window whose high threshold catches an acute outage within seconds
//! (paging severity), and a slow window whose low threshold catches a
//! sustained budget leak (warning severity). Burn rate is
//! `observed miss rate / target miss rate` — burn 1.0 spends the budget
//! exactly; burn 10 spends it ten times too fast.
//!
//! Alerts are *edge-triggered*: [`SloMonitor::evaluate_at`] emits an
//! [`Alert`] only when a window crosses its trip threshold or falls
//! back under the clear threshold (trip × [`SloPolicy::clear_fraction`]
//! hysteresis), so a report collects state transitions, not a
//! per-frame alarm stream. Every emission also bumps the matching
//! `obs.alerts.*` trace counter.

use serde::{Deserialize, Serialize};

use crate::window::Wheel;

/// Alerting policy: the SLO target plus the two burn-rate windows.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SloPolicy {
    /// Target deadline-miss rate (the error budget), e.g. `0.01`.
    pub target_miss_rate: f64,
    /// Fast window span (acute detection), microseconds.
    pub fast_window_us: u64,
    /// Slow window span (sustained-leak detection), microseconds.
    pub slow_window_us: u64,
    /// Fast-window burn rate that trips a [`AlertLevel::PageWorthy`].
    pub fast_burn: f64,
    /// Slow-window burn rate that trips a [`AlertLevel::Warning`].
    pub slow_burn: f64,
    /// An active alert clears when burn falls below
    /// `trip threshold * clear_fraction` (hysteresis against flapping).
    pub clear_fraction: f64,
    /// Minimum completions inside a window before it may trip (guards
    /// against one early miss reading as a 100% miss rate).
    pub min_samples: u64,
}

impl Default for SloPolicy {
    fn default() -> Self {
        Self {
            target_miss_rate: 0.01,
            fast_window_us: 2_000_000,
            slow_window_us: 20_000_000,
            fast_burn: 10.0,
            slow_burn: 2.0,
            clear_fraction: 0.5,
            min_samples: 10,
        }
    }
}

/// How urgent an alert is — the two SRE burn-rate severities.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AlertLevel {
    /// Fast-window burn: the SLO is failing *right now*.
    PageWorthy,
    /// Slow-window burn: the error budget is leaking.
    Warning,
}

impl AlertLevel {
    /// Short label for counters and logs.
    pub fn label(self) -> &'static str {
        match self {
            AlertLevel::PageWorthy => "page",
            AlertLevel::Warning => "warn",
        }
    }
}

/// Which edge of the alert lifecycle an [`Alert`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AlertState {
    /// Burn crossed the trip threshold.
    Tripped,
    /// Burn fell back under the clear threshold.
    Cleared,
}

/// One edge-triggered alert transition.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Alert {
    /// Severity (which window fired).
    pub level: AlertLevel,
    /// Trip or clear edge.
    pub state: AlertState,
    /// Timestamp of the evaluation that observed the edge.
    pub at_us: u64,
    /// Burn rate at the edge (`miss rate / target`).
    pub burn_rate: f64,
    /// Raw windowed miss rate at the edge.
    pub miss_rate: f64,
    /// The window the burn was computed over, microseconds.
    pub window_us: u64,
    /// Completions inside that window.
    pub samples: u64,
}

/// Burn rate over one window right now (for health snapshots).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BurnReading {
    /// `miss rate / target`.
    pub burn_rate: f64,
    /// Raw windowed miss rate.
    pub miss_rate: f64,
    /// Completions in the window.
    pub samples: u64,
    /// Whether this window's alert is currently active.
    pub active: bool,
}

struct WindowState {
    level: AlertLevel,
    window_us: u64,
    trip_burn: f64,
    active: bool,
}

/// The live monitor: feed it completions via [`observe_at`]
/// (good/missed), poll it with [`evaluate_at`]. Deterministic given
/// deterministic timestamps — [`FleetSim`](../../fleet) drives it on
/// virtual clocks so CI can assert exact trip/clear sequences.
///
/// [`observe_at`]: SloMonitor::observe_at
/// [`evaluate_at`]: SloMonitor::evaluate_at
pub struct SloMonitor {
    policy: SloPolicy,
    /// `[good, missed]` completions per slot.
    counts: Wheel<[u64; 2]>,
    windows: [WindowState; 2],
}

impl SloMonitor {
    /// Builds the monitor: one shared wheel sized so its slots resolve
    /// the fast window (quarter-slots) and its span covers the slow
    /// window.
    pub fn new(policy: SloPolicy) -> Self {
        let slot_us = (policy.fast_window_us / 4).max(1);
        let slots = policy.slow_window_us.div_ceil(slot_us) as usize + 1;
        Self {
            counts: Wheel::new(slot_us, slots),
            windows: [
                WindowState {
                    level: AlertLevel::PageWorthy,
                    window_us: policy.fast_window_us,
                    trip_burn: policy.fast_burn,
                    active: false,
                },
                WindowState {
                    level: AlertLevel::Warning,
                    window_us: policy.slow_window_us,
                    trip_burn: policy.slow_burn,
                    active: false,
                },
            ],
            policy,
        }
    }

    /// Records one completion at `now_us`.
    pub fn observe_at(&mut self, now_us: u64, missed: bool) {
        self.counts.at(now_us)[usize::from(missed)] += 1;
    }

    fn reading(&self, now_us: u64, window_us: u64, active: bool) -> BurnReading {
        let [good, bad] = self
            .counts
            .window(now_us, window_us)
            .fold([0, 0], |[g, b], [sg, sb]| [g + sg, b + sb]);
        let samples = bad + good;
        let miss_rate = if samples == 0 {
            0.0
        } else {
            bad as f64 / samples as f64
        };
        let burn_rate = if self.policy.target_miss_rate > 0.0 {
            miss_rate / self.policy.target_miss_rate
        } else if miss_rate > 0.0 {
            f64::INFINITY
        } else {
            0.0
        };
        BurnReading {
            burn_rate,
            miss_rate,
            samples,
            active,
        }
    }

    /// Current fast-window burn (PageWorthy severity).
    pub fn fast_reading(&self, now_us: u64) -> BurnReading {
        self.reading(now_us, self.windows[0].window_us, self.windows[0].active)
    }

    /// Current slow-window burn (Warning severity).
    pub fn slow_reading(&self, now_us: u64) -> BurnReading {
        self.reading(now_us, self.windows[1].window_us, self.windows[1].active)
    }

    /// Re-evaluates both windows at `now_us`, returning the alert
    /// *transitions* (0, 1 or 2 of them) and bumping the
    /// `obs.alerts.{page,warn}_{tripped,cleared}` trace counters.
    pub fn evaluate_at(&mut self, now_us: u64) -> Vec<Alert> {
        let mut out = Vec::new();
        for i in 0..self.windows.len() {
            let w = &self.windows[i];
            let r = self.reading(now_us, w.window_us, w.active);
            let w = &mut self.windows[i];
            let edge = if !w.active {
                (r.samples >= self.policy.min_samples && r.burn_rate >= w.trip_burn)
                    .then_some(AlertState::Tripped)
            } else {
                (r.burn_rate < w.trip_burn * self.policy.clear_fraction || r.samples == 0)
                    .then_some(AlertState::Cleared)
            };
            let Some(state) = edge else { continue };
            w.active = state == AlertState::Tripped;
            let verb = match state {
                AlertState::Tripped => "tripped",
                AlertState::Cleared => "cleared",
            };
            ts_trace::counter_add(&format!("obs.alerts.{}_{verb}", w.level.label()), 1);
            out.push(Alert {
                level: w.level,
                state,
                at_us: now_us,
                burn_rate: r.burn_rate,
                miss_rate: r.miss_rate,
                window_us: w.window_us,
                samples: r.samples,
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy() -> SloPolicy {
        SloPolicy {
            target_miss_rate: 0.01,
            fast_window_us: 1_000,
            slow_window_us: 10_000,
            fast_burn: 10.0,
            slow_burn: 2.0,
            clear_fraction: 0.5,
            min_samples: 5,
        }
    }

    #[test]
    fn quiet_traffic_never_alerts() {
        let mut m = SloMonitor::new(policy());
        for t in 0..200u64 {
            m.observe_at(t * 50, false);
            assert!(m.evaluate_at(t * 50).is_empty());
        }
        assert!(!m.fast_reading(0).active && !m.slow_reading(0).active);
    }

    #[test]
    fn acute_burst_trips_fast_then_clears() {
        let mut m = SloMonitor::new(policy());
        // Healthy warm-up.
        for t in 0..20u64 {
            m.observe_at(t * 100, false);
        }
        assert!(m.evaluate_at(2_000).is_empty());
        // Acute outage: everything misses for one fast window.
        for t in 0..10u64 {
            m.observe_at(2_000 + t * 100, true);
        }
        let alerts = m.evaluate_at(3_000);
        assert!(alerts
            .iter()
            .any(|a| a.level == AlertLevel::PageWorthy && a.state == AlertState::Tripped));
        assert!(m.fast_reading(3_000).active);
        // Recovery: misses age out of the fast window.
        for t in 0..40u64 {
            m.observe_at(3_100 + t * 100, false);
        }
        let alerts = m.evaluate_at(7_100);
        assert!(alerts
            .iter()
            .any(|a| a.level == AlertLevel::PageWorthy && a.state == AlertState::Cleared));
        assert!(!m.fast_reading(7_100).active);
    }

    #[test]
    fn min_samples_guards_an_early_miss() {
        let mut m = SloMonitor::new(policy());
        m.observe_at(10, true); // 100% miss rate, but only 1 sample
        assert!(m.evaluate_at(10).is_empty());
    }

    #[test]
    fn slow_leak_warns_without_paging() {
        let p = SloPolicy {
            // Fast trips only at 50x budget; slow at 2x.
            fast_burn: 50.0,
            ..policy()
        };
        let mut m = SloMonitor::new(p);
        // 4% misses sustained: burn 4 over any window.
        let mut alerts = Vec::new();
        for t in 0..500u64 {
            m.observe_at(t * 25, t % 25 == 0);
            alerts.extend(m.evaluate_at(t * 25));
        }
        assert!(alerts
            .iter()
            .any(|a| a.level == AlertLevel::Warning && a.state == AlertState::Tripped));
        assert!(!alerts.iter().any(|a| a.level == AlertLevel::PageWorthy));
    }
}
