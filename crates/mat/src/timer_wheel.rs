//! Hierarchical timer wheel for idle-flow eviction.
//!
//! Deadlines are ticks of the deterministic classifier packet clock — the
//! wheel is advanced at batch boundaries (the runtimes' idle-eviction
//! tick), never from a background thread, so the deterministic model and
//! the thread pool stay bit-identical.
//!
//! The wheel is *lazy*: items are scheduled once at their insertion
//! deadline and are **not** moved when the flow is touched again. Instead,
//! the flow table re-checks the slot's authoritative `touch` stamp when an
//! item pops and reschedules still-busy flows at their true deadline. The
//! invariant the flow table relies on is therefore one-sided: an item's
//! scheduled deadline is always `<=` its slot's current `touch`-derived
//! deadline, so advancing the wheel to a target pops a *superset* of the
//! truly expired slots and never misses one.
//!
//! # Levels and resolution
//!
//! Four levels of 64 buckets each ([`LEVELS`] × [`WHEEL_SLOTS`]). Level 0
//! has single-tick resolution over the next 64 ticks; each higher level
//! covers 64× the span of the one below at 64× coarser resolution, for a
//! total horizon of 64⁴ ≈ 16.8 M ticks — comfortably past the 20-bit FID
//! space's worth of packets. Deadlines beyond the horizon clamp into the
//! top level and simply cascade (and get re-checked) early. When the
//! cursor crosses a level boundary the next higher-level bucket is
//! *cascaded*: its items are redistributed into the finer levels below.

/// Number of hierarchical levels.
pub const LEVELS: usize = 4;
/// log2 of the per-level bucket count.
pub const WHEEL_SLOT_BITS: u32 = 6;
/// Buckets per level.
pub const WHEEL_SLOTS: usize = 1 << WHEEL_SLOT_BITS;

/// One scheduled entry: an opaque slab slot handle plus the deadline it
/// was scheduled at. The wheel never interprets the handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WheelItem {
    /// Slab slot handle of the flow (see `flow_table`).
    pub slot: u32,
    /// Tick the item was scheduled to fire at.
    pub deadline: u64,
}

/// A four-level hierarchical timer wheel (see module docs).
#[derive(Debug)]
pub struct TimerWheel {
    /// `buckets[level][index]` — unordered items within a bucket.
    buckets: Vec<Vec<Vec<WheelItem>>>,
    /// Items already at or behind the cursor, pulled out of a boundary
    /// bucket by [`TimerWheel::pop_earliest`] and awaiting hand-out.
    /// Always the earliest items in the wheel.
    overdue: Vec<WheelItem>,
    /// Current time: every item with `deadline <= now` has been popped
    /// (or sits in `overdue`).
    now: u64,
    /// Scheduled items not yet popped (includes `overdue`).
    len: usize,
}

impl Default for TimerWheel {
    fn default() -> Self {
        Self::new()
    }
}

impl TimerWheel {
    /// An empty wheel at tick 0.
    #[must_use]
    pub fn new() -> Self {
        Self {
            buckets: (0..LEVELS).map(|_| vec![Vec::new(); WHEEL_SLOTS]).collect(),
            overdue: Vec::new(),
            now: 0,
            len: 0,
        }
    }

    /// Scheduled items not yet popped.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Items the wheel has room for without growing.
    #[cfg(test)]
    pub(crate) fn capacity(&self) -> usize {
        self.buckets.iter().flatten().map(Vec::capacity).sum::<usize>() + self.overdue.capacity()
    }

    /// True if nothing is scheduled.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The wheel's current tick.
    #[must_use]
    pub fn now(&self) -> u64 {
        self.now
    }

    /// `WHEEL_SLOT_BITS * level` as a shift amount. `level` never exceeds
    /// [`LEVELS`] (= 4), so the cast cannot truncate.
    #[allow(clippy::cast_possible_truncation)]
    const fn level_shift(level: usize) -> u32 {
        WHEEL_SLOT_BITS * level as u32
    }

    /// Level whose span covers `delta` ticks ahead of `now`.
    fn level_for(delta: u64) -> usize {
        // Level l spans [64^l .. 64^(l+1)); delta >= 1 by construction.
        // Half-open on the right so a delta of exactly 64^(l+1) promotes:
        // at level l it would wrap onto the bucket the cursor is draining
        // this very tick and fire a full revolution early.
        let mut level = 0;
        while level + 1 < LEVELS && delta >= (1u64 << Self::level_shift(level + 1)) {
            level += 1;
        }
        level
    }

    /// Bucket index of `deadline` at `level`. Masked to the bucket count,
    /// so the narrowing cast cannot truncate.
    #[allow(clippy::cast_possible_truncation)]
    fn index_for(deadline: u64, level: usize) -> usize {
        ((deadline >> Self::level_shift(level)) & (WHEEL_SLOTS as u64 - 1)) as usize
    }

    /// Schedules `slot` to pop at `deadline`. Deadlines at or before the
    /// cursor clamp to the next tick (they pop on the next advance).
    pub fn schedule(&mut self, slot: u32, deadline: u64) {
        let deadline = deadline.max(self.now + 1);
        let delta = deadline - self.now;
        // Clamp past the horizon into the top level: the item cascades
        // down early and the truth check reschedules it.
        let level = Self::level_for(delta);
        let index = Self::index_for(deadline, level);
        self.buckets[level][index].push(WheelItem { slot, deadline });
        self.len += 1;
    }

    /// Pulls every item of `level`'s bucket for the cursor position down
    /// into the levels below (or into `out` if already due).
    fn cascade(&mut self, level: usize, out: &mut Vec<WheelItem>) {
        let index = Self::index_for(self.now, level);
        let items = std::mem::take(&mut self.buckets[level][index]);
        for item in items {
            if item.deadline <= self.now {
                out.push(item);
            } else {
                self.len -= 1;
                self.schedule(item.slot, item.deadline);
            }
        }
    }

    /// Advances the cursor one tick, draining due items into `out`.
    fn tick(&mut self, out: &mut Vec<WheelItem>) {
        self.now += 1;
        // Crossing a coarser boundary pulls the next coarse bucket down.
        for level in (1..LEVELS).rev() {
            if self.now & ((1u64 << Self::level_shift(level)) - 1) == 0 {
                self.cascade(level, out);
            }
        }
        let index = Self::index_for(self.now, 0);
        let due = std::mem::take(&mut self.buckets[0][index]);
        for item in due {
            debug_assert!(item.deadline <= self.now, "level-0 bucket holds only due items");
            out.push(item);
        }
    }

    /// Advances the cursor to `until`, appending every item scheduled at a
    /// deadline `<= until` to `out`. A target at or behind the cursor is a
    /// no-op (the flow table's one-sided lazy invariant makes regressing
    /// targets vacuous — see module docs). Amortized O(1) per clock tick
    /// over a run plus O(1) per popped item; large empty gaps are skipped
    /// a level-0 revolution at a time.
    pub fn advance(&mut self, until: u64, out: &mut Vec<WheelItem>) {
        let start = out.len();
        if !self.overdue.is_empty() {
            // Overdue items were already pulled behind the cursor by
            // `pop_earliest`; hand out the due ones in deadline order.
            self.overdue.sort_by_key(|item| item.deadline);
            let keep = self.overdue.iter().position(|item| item.deadline > until);
            let rest = self.overdue.split_off(keep.unwrap_or(self.overdue.len()));
            out.append(&mut self.overdue);
            self.overdue = rest;
        }
        while self.now < until {
            // Fast-forward over fully empty level-0 revolutions: if no
            // level-0 bucket holds anything, jump to the next coarse
            // boundary (or the target) instead of stepping tick by tick.
            if self.len == 0 {
                self.now = until;
                break;
            }
            if self.buckets[0].iter().all(Vec::is_empty) {
                let revolution = WHEEL_SLOTS as u64;
                let next_boundary = (self.now / revolution + 1) * revolution;
                if next_boundary.min(until) > self.now + 1 {
                    self.now = next_boundary.min(until) - 1;
                }
            }
            self.tick(out);
        }
        // Items moved into `out` during tick/cascade were not individually
        // decremented there.
        self.len -= out.len() - start;
        debug_assert!(
            self.buckets.iter().flatten().map(Vec::len).sum::<usize>() + self.overdue.len()
                == self.len
        );
    }

    /// Pops the single earliest-scheduled item, advancing the cursor only
    /// over empty ticks (items sharing the earliest bucket stay put).
    /// Returns `None` if the wheel is empty. Used for LRU victim selection
    /// under capacity pressure.
    pub fn pop_earliest(&mut self) -> Option<WheelItem> {
        if self.len == 0 {
            return None;
        }
        if !self.overdue.is_empty() {
            // Overdue items are behind the cursor and therefore earlier
            // than anything still in a bucket.
            let best = self
                .overdue
                .iter()
                .enumerate()
                .min_by_key(|(i, item)| (item.deadline, *i))
                .map(|(i, _)| i)
                .expect("overdue is non-empty");
            let item = self.overdue.swap_remove(best);
            self.len -= 1;
            return Some(item);
        }
        loop {
            // Find the earliest occupied level-0 bucket within the current
            // revolution, cascading coarser buckets down as needed.
            let revolution = WHEEL_SLOTS as u64;
            let rev_end = (self.now / revolution + 1) * revolution;
            let mut earliest: Option<(u64, usize)> = None;
            for t in (self.now + 1)..=rev_end {
                let idx = Self::index_for(t, 0);
                if !self.buckets[0][idx].is_empty() {
                    earliest = Some((t, idx));
                    break;
                }
            }
            if let Some((t, idx)) = earliest {
                // Take the item with the minimum deadline in the bucket so
                // ties within a bucket resolve deterministically oldest-
                // first (insertion order breaks exact ties).
                let best = self.buckets[0][idx]
                    .iter()
                    .enumerate()
                    .min_by_key(|(i, item)| (item.deadline, *i))
                    .map(|(i, _)| i)
                    .expect("bucket is non-empty");
                let item = self.buckets[0][idx].swap_remove(best);
                self.len -= 1;
                // Cursor may move up to just before the popped bucket:
                // every tick in between was observed empty.
                self.now = self.now.max(t - 1);
                return Some(item);
            }
            // Nothing at level 0 in this revolution: jump to its end and
            // tick across the boundary, cascading the next coarse bucket.
            self.now = rev_end - 1;
            let mut spill = Vec::new();
            self.tick(&mut spill);
            if !spill.is_empty() {
                // Items were already due at the boundary tick itself: hand
                // back the oldest and park the rest (deadlines intact) in
                // the overdue buffer for later pops.
                let best = spill
                    .iter()
                    .enumerate()
                    .min_by_key(|(i, item)| (item.deadline, *i))
                    .map(|(i, _)| i)
                    .expect("spill is non-empty");
                let first = spill.swap_remove(best);
                self.overdue.extend(spill);
                self.len -= 1;
                return Some(first);
            }
        }
    }

    /// Visits every scheduled item, in no particular order.
    pub fn for_each(&self, f: impl FnMut(&WheelItem)) {
        self.buckets.iter().flatten().flatten().chain(&self.overdue).for_each(f);
    }

    /// Drops every scheduled item for which `keep` returns false. The
    /// others keep their deadlines and their order within a bucket. A
    /// bucket left empty frees its storage: with nothing popping the
    /// wheel, the clock keeps moving into buckets not used before, and
    /// their storage would otherwise stay behind.
    pub fn retain(&mut self, mut keep: impl FnMut(&WheelItem) -> bool) {
        for bucket in self.buckets.iter_mut().flatten() {
            bucket.retain(&mut keep);
            if bucket.is_empty() {
                *bucket = Vec::new();
            }
        }
        self.overdue.retain(&mut keep);
        self.len = self.buckets.iter().flatten().map(Vec::len).sum::<usize>() + self.overdue.len();
    }

    /// A conservative lower bound on the next scheduled deadline, or
    /// `None` if the wheel is empty. Coarse-level buckets report their
    /// range start, so the bound may be early — callers use it as a cheap
    /// gate ("nothing can be due before this tick"), never as truth.
    #[must_use]
    pub fn next_due(&self) -> Option<u64> {
        if self.len == 0 {
            return None;
        }
        // A coarser level can hold an earlier deadline than a finer one
        // (an item scheduled far ahead long ago vs. one scheduled nearby
        // just now), so every level — and the overdue buffer — competes.
        let mut best: Option<u64> = self.overdue.iter().map(|item| item.deadline).min();
        for level in 0..LEVELS {
            let span = 1u64 << Self::level_shift(level);
            let revolution = span * WHEEL_SLOTS as u64;
            let base = (self.now / revolution) * revolution;
            for idx in 0..WHEEL_SLOTS {
                if self.buckets[level][idx].is_empty() {
                    continue;
                }
                let mut start = base + idx as u64 * span;
                if start + span <= self.now + 1 {
                    start += revolution; // wrapped: fires next revolution
                }
                best = Some(best.map_or(start, |b: u64| b.min(start)));
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use proptest::prelude::*;

    use super::*;

    /// Naive oracle: a BTreeMap of deadline -> slots, popped in order.
    #[derive(Debug, Default)]
    struct NaiveWheel {
        by_deadline: BTreeMap<u64, Vec<u32>>,
        now: u64,
    }

    impl NaiveWheel {
        fn schedule(&mut self, slot: u32, deadline: u64) {
            self.by_deadline.entry(deadline.max(self.now + 1)).or_default().push(slot);
        }

        fn advance(&mut self, until: u64) -> Vec<u32> {
            let mut out = Vec::new();
            if until <= self.now {
                return out;
            }
            let later = self.by_deadline.split_off(&(until + 1));
            for (_, slots) in std::mem::replace(&mut self.by_deadline, later) {
                out.extend(slots);
            }
            self.now = until;
            out
        }

        fn len(&self) -> usize {
            self.by_deadline.values().map(Vec::len).sum()
        }
    }

    fn drain_sorted(wheel: &mut TimerWheel, until: u64) -> Vec<u32> {
        let mut out = Vec::new();
        wheel.advance(until, &mut out);
        let mut slots: Vec<u32> = out.iter().map(|i| i.slot).collect();
        slots.sort_unstable();
        slots
    }

    #[test]
    fn pops_in_deadline_order_across_levels() {
        let mut wheel = TimerWheel::new();
        // One deadline per level span: 3 (L0), 100 (L1), 5_000 (L2),
        // 300_000 (L3) and one past the horizon.
        for (slot, deadline) in [(0, 3u64), (1, 100), (2, 5_000), (3, 300_000), (4, 20_000_000)] {
            wheel.schedule(slot, deadline);
        }
        assert_eq!(wheel.len(), 5);
        assert_eq!(drain_sorted(&mut wheel, 2), Vec::<u32>::new());
        assert_eq!(drain_sorted(&mut wheel, 3), vec![0]);
        assert_eq!(drain_sorted(&mut wheel, 4_999), vec![1]);
        assert_eq!(drain_sorted(&mut wheel, 400_000), vec![2, 3]);
        assert_eq!(drain_sorted(&mut wheel, 21_000_000), vec![4]);
        assert!(wheel.is_empty());
    }

    #[test]
    fn past_deadlines_clamp_to_next_tick() {
        let mut wheel = TimerWheel::new();
        let mut out = Vec::new();
        wheel.advance(50, &mut out);
        wheel.schedule(7, 10); // behind the cursor
        assert_eq!(drain_sorted(&mut wheel, 51), vec![7]);
    }

    #[test]
    fn pop_earliest_returns_oldest_first() {
        let mut wheel = TimerWheel::new();
        wheel.schedule(1, 500);
        wheel.schedule(2, 20);
        wheel.schedule(3, 70_000);
        assert_eq!(wheel.pop_earliest().unwrap().slot, 2);
        assert_eq!(wheel.pop_earliest().unwrap().slot, 1);
        assert_eq!(wheel.pop_earliest().unwrap().slot, 3);
        assert!(wheel.pop_earliest().is_none());
    }

    #[test]
    fn pop_earliest_leaves_later_items_poppable_by_advance() {
        let mut wheel = TimerWheel::new();
        wheel.schedule(1, 10);
        wheel.schedule(2, 10);
        wheel.schedule(3, 12);
        let first = wheel.pop_earliest().unwrap();
        assert_eq!(first.deadline, 10);
        assert_eq!(drain_sorted(&mut wheel, 12).len(), 2);
        assert!(wheel.is_empty());
    }

    #[test]
    fn next_due_is_a_lower_bound() {
        let mut wheel = TimerWheel::new();
        assert_eq!(wheel.next_due(), None);
        wheel.schedule(1, 40);
        wheel.schedule(2, 9_000);
        let bound = wheel.next_due().expect("non-empty");
        assert!(bound <= 40, "bound {bound} must not exceed the true next deadline");
        let mut out = Vec::new();
        wheel.advance(40, &mut out);
        assert_eq!(out.len(), 1);
        let bound = wheel.next_due().expect("non-empty");
        assert!(bound <= 9_000);
        assert!(bound > 40, "after advancing, the bound moves past the cursor");
    }

    proptest! {
        /// The wheel pops exactly the oracle's item multiset at every
        /// advance target, regardless of how schedules and advances
        /// interleave or which levels the deadlines land in.
        #[test]
        fn wheel_matches_btreemap_oracle(
            ops in prop::collection::vec(
                (0u32..1000, 1u64..3_000_000, 1u64..500_000), 1..120)
        ) {
            let mut wheel = TimerWheel::new();
            let mut oracle = NaiveWheel::default();
            for (slot, deadline_seed, advance_step) in ops {
                let deadline = wheel.now() + 1 + deadline_seed % 2_000_000;
                wheel.schedule(slot, deadline);
                oracle.schedule(slot, deadline);
                let until = oracle.now + advance_step % 70_000;
                let mut popped = Vec::new();
                wheel.advance(until, &mut popped);
                let mut got: Vec<u32> = popped.iter().map(|i| i.slot).collect();
                let mut want = oracle.advance(until);
                got.sort_unstable();
                want.sort_unstable();
                prop_assert_eq!(got, want);
                prop_assert_eq!(wheel.len(), oracle.len());
                if let Some(bound) = wheel.next_due() {
                    let true_next = *oracle.by_deadline.keys().next().unwrap();
                    prop_assert!(bound <= true_next);
                }
            }
            // Drain everything: both must empty together.
            let horizon = oracle.by_deadline.keys().next_back().copied().unwrap_or(0);
            let mut rest = Vec::new();
            wheel.advance(horizon, &mut rest);
            prop_assert_eq!(rest.len(), oracle.advance(horizon).len());
            prop_assert!(wheel.is_empty());
        }

        /// `pop_earliest` is a stable selection sort by deadline: popping
        /// everything yields non-decreasing deadlines and the exact
        /// scheduled multiset.
        #[test]
        fn pop_earliest_drains_in_order(
            deadlines in prop::collection::vec(1u64..1_000_000, 1..60)
        ) {
            let mut wheel = TimerWheel::new();
            for (slot, &d) in deadlines.iter().enumerate() {
                wheel.schedule(u32::try_from(slot).unwrap(), d);
            }
            let mut popped = Vec::new();
            while let Some(item) = wheel.pop_earliest() {
                popped.push(item.deadline);
            }
            prop_assert_eq!(popped.len(), deadlines.len());
            let mut sorted = deadlines.clone();
            sorted.sort_unstable();
            prop_assert_eq!(popped, sorted);
        }
    }
}
