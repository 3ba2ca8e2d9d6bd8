//! The one time wheel behind every rolling window in the crate.
//!
//! A [`Wheel`] splits a span into fixed slots arranged as a ring, each
//! tagged with the epoch (slot-aligned time) it currently holds. A
//! write lands in the slot its timestamp falls in, resetting the slot
//! first when the wheel has rotated past its old epoch; a read visits
//! the slots whose epochs fall inside the queried window. Timestamps
//! are explicit (`now_us` parameters), so the same code runs on a live
//! clock and on [`FleetSim`](../../fleet)'s virtual one. The wheel is
//! plain data: its owner serialises access (a [`ServeRecord`] sits
//! behind its server's one lock), so every read is exact.
//!
//! [`ServeRecord`]: crate::ServeRecord

/// A ring of `T` slots over time; see the module docs.
#[derive(Debug, Clone)]
pub(crate) struct Wheel<T> {
    slot_us: u64,
    /// `(epoch + 1, value)` per slot; epoch 0 marks a slot never
    /// written, so it never collides with the real epoch 0.
    slots: Vec<(u64, T)>,
}

impl<T: Default> Wheel<T> {
    /// A wheel of `slots` slots of `slot_us` microseconds each; the
    /// widest answerable window is `slots * slot_us`. Both are clamped
    /// to at least 1.
    pub(crate) fn new(slot_us: u64, slots: usize) -> Self {
        Self {
            slot_us: slot_us.max(1),
            slots: (0..slots.max(1)).map(|_| (0, T::default())).collect(),
        }
    }

    /// The slot `now_us` falls in, reset first if it still holds an
    /// older epoch. Rotation only rolls forward: a write stamped before
    /// the slot's current epoch lands in it instead of resurrecting the
    /// old one.
    pub(crate) fn at(&mut self, now_us: u64) -> &mut T {
        let epoch = now_us / self.slot_us + 1;
        let n = self.slots.len() as u64;
        let slot = &mut self.slots[(epoch % n) as usize];
        if slot.0 < epoch {
            *slot = (epoch, T::default());
        }
        &mut slot.1
    }

    /// The slots inside the window `(now_us - window_us, now_us]`, with
    /// `window_us` clamped to the wheel's span.
    pub(crate) fn window(&self, now_us: u64, window_us: u64) -> impl Iterator<Item = &T> {
        let cur = now_us / self.slot_us + 1;
        let span = window_us
            .div_ceil(self.slot_us)
            .clamp(1, self.slots.len() as u64);
        let oldest = cur.saturating_sub(span - 1);
        self.slots
            .iter()
            .filter(move |(epoch, _)| (oldest..=cur).contains(epoch))
            .map(|(_, value)| value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sum(w: &Wheel<u64>, now_us: u64, window_us: u64) -> u64 {
        w.window(now_us, window_us).sum()
    }

    #[test]
    fn counts_inside_the_window_and_forgets_outside() {
        let mut w = Wheel::<u64>::new(1_000, 8);
        *w.at(500) += 3;
        *w.at(1_500) += 2;
        assert_eq!(sum(&w, 1_500, 2_000), 5);
        // 8 slots * 1ms = 8ms span; by t=10ms the first slots rotated.
        *w.at(10_500) += 1;
        assert_eq!(sum(&w, 10_500, 2_000), 1);
    }

    #[test]
    fn window_narrower_than_wheel_excludes_old_slots() {
        let mut w = Wheel::<u64>::new(1_000, 16);
        *w.at(1_100) += 4;
        *w.at(5_100) += 6;
        assert_eq!(sum(&w, 5_200, 1_000), 6);
        assert_eq!(sum(&w, 5_200, 16_000), 10);
    }

    #[test]
    fn stale_slot_resets_on_rotation_and_late_writes_roll_forward() {
        let mut w = Wheel::<u64>::new(100, 4);
        *w.at(50) += 9;
        // Same ring index, 4 slots later: must not resurrect the 9.
        *w.at(450) += 1;
        assert_eq!(sum(&w, 450, 100), 1);
        // A write stamped before the rotation lands in the newer slot.
        *w.at(60) += 2;
        assert_eq!(sum(&w, 450, 100), 3);
    }

    #[test]
    fn zero_everything_is_fine() {
        let mut w = Wheel::<u64>::new(0, 0);
        *w.at(0) += 0;
        assert_eq!(sum(&w, 0, 0), 0);
    }
}
