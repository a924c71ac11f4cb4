//! Lock-free counter cells, the sharded [`Telemetry`] hub and the
//! per-lane cells its packet lanes write.
//!
//! Every counter is a relaxed [`AtomicU64`]: increments are monotone and
//! independent, so no inter-counter ordering is needed. A cell is written
//! one of two ways:
//!
//! * The hub's shards take any writer. Each event is one uncontended
//!   relaxed read-modify-write (a locked instruction on x86). Shards are
//!   cache-line padded and selected by a caller-supplied hint (typically
//!   the 20-bit FID), so concurrent writers on different flows touch
//!   different lines. Per-flow and rarer events count here: installs,
//!   rewrites, removals, events fired, flow lifecycle, pool, supervision.
//! * A lane cell ([`Telemetry::lane`]) has one writer, the
//!   [`LaneCounters`] handle that owns it, so each add is a relaxed load
//!   and store with no locked instruction. Every finished packet's facts
//!   count here: path, latency, delivery, operations, fast-path and
//!   compiled hits. Nothing is buffered, so there is nothing to flush and
//!   a snapshot is never staler than the last store.
//!
//! A snapshot drains the shards, then the lane cells, through one
//! [`CounterShard::drain_into`]: both kinds share one layout.

use crate::hist::{bump, AtomicHistogram};
use crate::snapshot::TelemetrySnapshot;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex, PoisonError};

/// Which data-plane path a packet took. Index order matches
/// `RunStats::path_counts` in the platform crate: baseline, initial,
/// subsequent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum PathClass {
    /// Unconsolidated chain traversal (baseline runs, collisions, handshakes).
    Baseline = 0,
    /// First packet of a flow: slow path + instrumentation + install.
    Initial = 1,
    /// Subsequent packet served by the consolidated fast path.
    Subsequent = 2,
}

impl PathClass {
    /// All path kinds, in `path_counts` index order.
    pub const ALL: [PathClass; 3] =
        [PathClass::Baseline, PathClass::Initial, PathClass::Subsequent];

    /// Index into per-path arrays.
    #[must_use]
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Stable lowercase label used in exposition output.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            PathClass::Baseline => "baseline",
            PathClass::Initial => "initial",
            PathClass::Subsequent => "subsequent",
        }
    }
}

/// Number of abstract-operation kinds mirrored from the MAT crate's
/// `OpCounter` (kept in lock-step by the differential test).
pub const OP_KINDS: usize = 19;

/// Exposition names for the 19 abstract-operation counters, in the same
/// order as the fields of `speedybox_mat::OpCounter`.
pub const OP_NAMES: [&str; OP_KINDS] = [
    "parses",
    "classifications",
    "acl_rules_scanned",
    "hash_lookups",
    "hash_updates",
    "field_writes",
    "checksum_fixes",
    "encaps",
    "payload_bytes_scanned",
    "sf_invocations",
    "state_updates",
    "mat_records",
    "mat_lookups",
    "consolidations",
    "event_checks",
    "ring_hops",
    "drops",
    "word_writes",
    "checksum_patches",
];

/// Plain-old-data totals for the 19 abstract-operation counters.
///
/// The MAT crate converts its `OpCounter` into this (see
/// `OpCounter::telemetry_totals`) so the telemetry crate stays
/// dependency-free.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpTotals(pub [u64; OP_KINDS]);

impl OpTotals {
    /// Folds `other` into `self`.
    pub fn merge(&mut self, other: &OpTotals) {
        for (dst, src) in self.0.iter_mut().zip(&other.0) {
            *dst += src;
        }
    }

    /// `(name, value)` pairs in exposition order.
    pub fn named(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        OP_NAMES.iter().copied().zip(self.0.iter().copied())
    }
}

/// One cache-line-padded cell of lock-free counters.
///
/// Alignment 128 covers adjacent-line prefetching on x86; the histograms
/// inside make each shard several cache lines anyway, so padding cost is
/// negligible next to the false-sharing it prevents.
#[derive(Debug, Default)]
#[repr(align(128))]
pub struct CounterShard {
    // Data-path outcomes. Each packet is counted once, by its delivery
    // outcome and its path's latency histogram; the packet and path totals
    // are derived from those at snapshot time.
    delivered: AtomicU64,
    dropped: AtomicU64,
    latency: [AtomicHistogram; 3],
    // Classifier lifecycle.
    flows_opened: AtomicU64,
    flows_closed: AtomicU64,
    flows_expired: AtomicU64,
    flows_evicted: AtomicU64,
    flows_rejected: AtomicU64,
    fid_collisions: AtomicU64,
    handshake_packets: AtomicU64,
    // Global MAT / fast path.
    fastpath_hits: AtomicU64,
    fastpath_misses: AtomicU64,
    rules_installed: AtomicU64,
    rule_rewrites: AtomicU64,
    rules_removed: AtomicU64,
    events_fired: AtomicU64,
    // Compiled fast path.
    compiled_hits: AtomicU64,
    compiled_fallbacks: AtomicU64,
    // Packet-pool substrate.
    pool_hits: AtomicU64,
    pool_misses: AtomicU64,
    pool_recycled: AtomicU64,
    pool_refills: AtomicU64,
    pool_flushes: AtomicU64,
    pool_depth: AtomicU64,
    // NF crash/restart supervision.
    snapshots_taken: AtomicU64,
    replay_depth: AtomicU64,
    quarantine_packets: AtomicU64,
    nf_kills: AtomicU64,
    nf_recoveries: AtomicU64,
    // Abstract-operation mirror of `RunStats::ops`.
    ops: [AtomicU64; OP_KINDS],
}

macro_rules! inc_methods {
    ($($(#[$doc:meta])* $name:ident => $field:ident),* $(,)?) => {
        $(
            $(#[$doc])*
            #[inline]
            pub fn $name(&self, n: u64) {
                self.$field.fetch_add(n, Relaxed);
            }
        )*
    };
}

impl CounterShard {
    inc_methods! {
        /// Counts flows newly admitted by the classifier.
        add_flows_opened => flows_opened,
        /// Counts flows explicitly torn down (FIN/RST or API removal).
        add_flows_closed => flows_closed,
        /// Counts flows reclaimed by idle expiry.
        add_flows_expired => flows_expired,
        /// Counts flows displaced by capacity-pressure LRU eviction.
        add_flows_evicted => flows_evicted,
        /// Counts flows refused admission at capacity (Reject policy).
        add_flows_rejected => flows_rejected,
        /// Counts packets steered to the slow path because their 20-bit
        /// FID collided with a live flow.
        add_fid_collisions => fid_collisions,
        /// Counts TCP handshake packets steered around the fast path.
        add_handshake_packets => handshake_packets,
        /// Counts fast-path lookups that found a consolidated rule.
        add_fastpath_hits => fastpath_hits,
        /// Counts fast-path lookups that missed (no rule installed).
        add_fastpath_misses => fastpath_misses,
        /// Counts consolidated rules installed into the Global MAT.
        add_rules_installed => rules_installed,
        /// Counts rules rewritten by Event Table firings (re-consolidation).
        add_rule_rewrites => rule_rewrites,
        /// Counts rules removed from the Global MAT.
        add_rules_removed => rules_removed,
        /// Counts Event Table conditions that fired.
        add_events_fired => events_fired,
        /// Counts fast-path packets whose header action ran as a compiled
        /// micro-op program.
        add_compiled_hits => compiled_hits,
        /// Counts fast-path packets that executed interpretively although
        /// a compiled program existed (`--interpreted` or ablation).
        add_compiled_fallbacks => compiled_fallbacks,
        /// Counts packet-pool buffer requests served from the pool.
        add_pool_hits => pool_hits,
        /// Counts pool requests that fell back to heap allocation
        /// (exhaustion — the graceful-degradation path).
        add_pool_misses => pool_misses,
        /// Counts buffers accepted back into the pool for reuse.
        add_pool_recycled => pool_recycled,
        /// Counts magazine batch refills from the pool depot.
        add_pool_refills => pool_refills,
        /// Counts magazine batch flushes back to the pool depot.
        add_pool_flushes => pool_flushes,
        /// Counts chain-consistent checkpoints taken (periodic, bound-forced
        /// or on demand).
        add_snapshots_taken => snapshots_taken,
        /// Counts in-flight log entries replayed during NF recovery.
        add_replay_depth => replay_depth,
        /// Counts packets that rode the baseline walk because a quarantine
        /// window was open.
        add_quarantine_packets => quarantine_packets,
        /// Counts NF crash (kill) events handled by the supervisor.
        add_nf_kills => nf_kills,
        /// Counts quarantine windows closed (NF recoveries).
        add_nf_recoveries => nf_recoveries,
    }

    /// Records the pool depot's current idle-buffer count (a sampled
    /// gauge, unlike the monotone counters above).
    #[inline]
    pub fn set_pool_depth(&self, depth: u64) {
        self.pool_depth.store(depth, Relaxed);
    }

    /// Records a finished packet: delivery outcome, and latency (model
    /// cycles) in its path's histogram.
    #[inline]
    pub fn record_packet(&self, path: PathClass, latency: u64, delivered: bool) {
        if delivered {
            self.delivered.fetch_add(1, Relaxed);
        } else {
            self.dropped.fetch_add(1, Relaxed);
        }
        self.latency[path.index()].record(latency);
    }

    /// Merges a packet's abstract-operation counts into the shard.
    #[inline]
    pub fn add_ops(&self, ops: &OpTotals) {
        for (cell, v) in self.ops.iter().zip(&ops.0) {
            if *v != 0 {
                cell.fetch_add(*v, Relaxed);
            }
        }
    }

    /// Folds this shard's current values into a snapshot.
    pub(crate) fn drain_into(&self, s: &mut TelemetrySnapshot) {
        let (delivered, dropped) = (self.delivered.load(Relaxed), self.dropped.load(Relaxed));
        s.packets += delivered + dropped;
        s.delivered += delivered;
        s.dropped += dropped;
        for ((path, latency), src) in s.paths.iter_mut().zip(&mut s.latency).zip(&self.latency) {
            let hist = src.snapshot();
            *path += hist.count;
            latency.merge(&hist);
        }
        s.flows_opened += self.flows_opened.load(Relaxed);
        s.flows_closed += self.flows_closed.load(Relaxed);
        s.flows_expired += self.flows_expired.load(Relaxed);
        s.flows_evicted += self.flows_evicted.load(Relaxed);
        s.flows_rejected += self.flows_rejected.load(Relaxed);
        s.fid_collisions += self.fid_collisions.load(Relaxed);
        s.handshake_packets += self.handshake_packets.load(Relaxed);
        s.fastpath_hits += self.fastpath_hits.load(Relaxed);
        s.fastpath_misses += self.fastpath_misses.load(Relaxed);
        s.rules_installed += self.rules_installed.load(Relaxed);
        s.rule_rewrites += self.rule_rewrites.load(Relaxed);
        s.rules_removed += self.rules_removed.load(Relaxed);
        s.events_fired += self.events_fired.load(Relaxed);
        s.compiled_hits += self.compiled_hits.load(Relaxed);
        s.compiled_fallbacks += self.compiled_fallbacks.load(Relaxed);
        s.pool_hits += self.pool_hits.load(Relaxed);
        s.pool_misses += self.pool_misses.load(Relaxed);
        s.pool_recycled += self.pool_recycled.load(Relaxed);
        s.pool_refills += self.pool_refills.load(Relaxed);
        s.pool_flushes += self.pool_flushes.load(Relaxed);
        s.pool_depth += self.pool_depth.load(Relaxed);
        s.snapshots_taken += self.snapshots_taken.load(Relaxed);
        s.replay_depth += self.replay_depth.load(Relaxed);
        s.quarantine_packets += self.quarantine_packets.load(Relaxed);
        s.nf_kills += self.nf_kills.load(Relaxed);
        s.nf_recoveries += self.nf_recoveries.load(Relaxed);
        for (dst, src) in s.ops.0.iter_mut().zip(&self.ops) {
            *dst += src.load(Relaxed);
        }
    }
}

/// Sharded, lock-free telemetry hub shared by the classifier, the Global
/// MAT, the Event Table and the runtimes.
///
/// Shard count is rounded up to a power of two; callers pick a shard with
/// a cheap hint (`fid & mask`), so flows that live on different MAT
/// shards also count on different telemetry lines.
///
/// Packet lanes count their per-packet facts in cells of their own
/// ([`Telemetry::lane`]); [`Telemetry::snapshot`] adds those in.
#[derive(Debug)]
pub struct Telemetry {
    shards: Box<[CounterShard]>,
    mask: u64,
    /// Every lane cell ever handed out. A cell no [`LaneCounters`] holds
    /// (the hub's is its only handle) is free for the next lane. The only
    /// update is a push, which leaves the list valid if it panics, so a
    /// poisoned lock is taken as it is.
    lanes: Mutex<Vec<Arc<CounterShard>>>,
}

impl Telemetry {
    /// Creates a hub with `shards` counter cells (rounded up to a power
    /// of two, minimum 1).
    #[must_use]
    pub fn new(shards: usize) -> Self {
        let n = shards.max(1).next_power_of_two();
        let shards: Box<[CounterShard]> = (0..n).map(|_| CounterShard::default()).collect();
        Telemetry { mask: (n - 1) as u64, shards, lanes: Mutex::default() }
    }

    /// Number of counter shards.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Selects the counter cell for a flow hint (e.g. the FID index).
    #[must_use]
    #[inline]
    // The mask is `shards.len() - 1`, so the masked value always fits usize.
    #[allow(clippy::cast_possible_truncation)]
    pub fn shard(&self, hint: u64) -> &CounterShard {
        &self.shards[(hint & self.mask) as usize]
    }

    /// A counter cell for one packet lane, which only the returned handle
    /// writes. Reuses the first registered cell no handle holds, so its
    /// counts carry on; registers a new one if every cell is held. A
    /// dropped lane's counts stay in every later snapshot.
    ///
    /// A free cell is found by [`Arc::get_mut`]: its acquire load of the
    /// reference count pairs with the release decrement of the last
    /// handle's drop, so that writer's stores happen before the new
    /// writer's loads, even across threads.
    #[must_use]
    pub fn lane(&self) -> LaneCounters {
        let mut lanes = self.lanes.lock().unwrap_or_else(PoisonError::into_inner);
        let cell =
            match lanes.iter_mut().find_map(|cell| Arc::get_mut(cell).is_some().then_some(cell)) {
                Some(free) => Arc::clone(free),
                None => {
                    let cell = Arc::new(CounterShard::default());
                    lanes.push(Arc::clone(&cell));
                    cell
                }
            };
        LaneCounters { cell }
    }

    /// Merges every shard and lane cell into one consistent snapshot.
    /// While writers are active the result is a valid lower bound; once
    /// they quiesce it is exact.
    #[must_use]
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let mut s = TelemetrySnapshot::default();
        for shard in self.shards.iter() {
            shard.drain_into(&mut s);
        }
        for cell in self.lanes.lock().unwrap_or_else(PoisonError::into_inner).iter() {
            cell.drain_into(&mut s);
        }
        s
    }
}

/// The per-packet counters of one packet lane: a cell of its hub that
/// only this handle writes ([`Telemetry::lane`]).
///
/// Each add is a relaxed load and store of the lane's own cell, with no
/// locked instruction; the writers take `&mut self`, and the handle is
/// `Send` but not `Clone`, so the cell has one writer at a time. Dropping
/// the handle frees the cell for the hub's next lane.
#[derive(Debug)]
pub struct LaneCounters {
    cell: Arc<CounterShard>,
}

macro_rules! lane_methods {
    ($($(#[$doc:meta])* $name:ident => $field:ident),* $(,)?) => {
        $(
            $(#[$doc])*
            #[inline]
            pub fn $name(&mut self, n: u64) {
                bump(&self.cell.$field, n);
            }
        )*
    };
}

impl LaneCounters {
    lane_methods! {
        /// Counts fast-path lookups that found a consolidated rule.
        add_fastpath_hits => fastpath_hits,
        /// Counts fast-path lookups that missed (no rule installed).
        add_fastpath_misses => fastpath_misses,
        /// Counts fast-path packets whose header action ran as a compiled
        /// micro-op program.
        add_compiled_hits => compiled_hits,
        /// Counts fast-path packets that executed interpretively although
        /// a compiled program existed (`--interpreted` or ablation).
        add_compiled_fallbacks => compiled_fallbacks,
    }

    /// Records a finished packet: delivery outcome, and latency (model
    /// cycles) in its path's histogram.
    #[inline]
    pub fn record_packet(&mut self, path: PathClass, latency: u64, delivered: bool) {
        let cell = &*self.cell;
        bump(if delivered { &cell.delivered } else { &cell.dropped }, 1);
        cell.latency[path.index()].record_owned(latency);
    }

    /// Merges a packet's abstract-operation counts into the lane's cell.
    #[inline]
    pub fn add_ops(&mut self, ops: &OpTotals) {
        for (cell, v) in self.cell.ops.iter().zip(&ops.0) {
            if *v != 0 {
                bump(cell, *v);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_count_rounds_to_power_of_two() {
        assert_eq!(Telemetry::new(0).shard_count(), 1);
        assert_eq!(Telemetry::new(1).shard_count(), 1);
        assert_eq!(Telemetry::new(3).shard_count(), 4);
        assert_eq!(Telemetry::new(16).shard_count(), 16);
    }

    #[test]
    fn hints_spread_across_shards() {
        let t = Telemetry::new(4);
        t.shard(0).add_fastpath_hits(1);
        t.shard(1).add_fastpath_hits(2);
        t.shard(5).add_fastpath_hits(4); // 5 & 3 == 1
        let s = t.snapshot();
        assert_eq!(s.fastpath_hits, 7);
    }

    #[test]
    fn record_packet_totals() {
        let t = Telemetry::new(2);
        t.shard(0).record_packet(PathClass::Baseline, 100, true);
        t.shard(1).record_packet(PathClass::Subsequent, 50, true);
        t.shard(1).record_packet(PathClass::Initial, 200, false);
        let s = t.snapshot();
        assert_eq!(s.packets, 3);
        assert_eq!(s.delivered, 2);
        assert_eq!(s.dropped, 1);
        assert_eq!(s.paths, [1, 1, 1]);
        assert_eq!(s.latency[2].count, 1);
        assert_eq!(s.latency[2].sum, 50);
        assert_eq!(s.latency_total().count, 3);
        assert_eq!(s.latency_total().sum, 350);
    }

    /// The number of lane cells `t` has registered.
    fn lane_cells(t: &Telemetry) -> usize {
        t.lanes.lock().unwrap().len()
    }

    /// Records `n` outcomes into `lane`, one with latency `base + i` each,
    /// cycling through the paths and dropping every fifth packet; each
    /// also counts a parse, a fast-path hit and a compiled hit.
    fn record_outcomes(lane: &mut LaneCounters, base: u64, n: u64) {
        let mut ops = OpTotals::default();
        ops.0[0] = 1; // parses
        for i in 0..n {
            lane.record_packet(PathClass::ALL[(i % 3) as usize], base + i, i % 5 != 0);
            lane.add_ops(&ops);
            lane.add_fastpath_hits(1);
            lane.add_compiled_hits(1);
        }
    }

    #[test]
    fn lanes_on_four_threads_count_exactly() {
        const N: u64 = 100_000;
        let t = Telemetry::new(2);
        // All four taken before any thread runs, so none can reuse a cell
        // another thread has finished with.
        let lanes: Vec<LaneCounters> = (0..4).map(|_| t.lane()).collect();
        std::thread::scope(|scope| {
            for (k, mut lane) in (0..4u64).zip(lanes) {
                scope.spawn(move || record_outcomes(&mut lane, 1 + k * N, N));
            }
        });
        assert_eq!(lane_cells(&t), 4, "four live lanes, four cells");
        let s = t.snapshot();
        let total = 4 * N;
        assert_eq!(s.packets, total);
        assert_eq!(s.dropped, 4 * N.div_ceil(5));
        assert_eq!(s.delivered, total - s.dropped);
        // Latencies are 1..=4N, each once.
        let latency = s.latency_total();
        assert_eq!(latency.count, total);
        assert_eq!(latency.sum, total * (total + 1) / 2);
        assert_eq!((latency.min, latency.max), (1, total));
        assert_eq!(s.paths.iter().sum::<u64>(), total);
        assert_eq!(s.ops.0[0], total);
        assert_eq!(s.ops.0[1..], [0; OP_KINDS - 1]);
        assert_eq!((s.fastpath_hits, s.compiled_hits), (total, total));
    }

    #[test]
    fn a_dropped_lane_cell_is_reused_on_another_thread() {
        let t = Telemetry::new(1);
        std::thread::scope(|scope| {
            let mut lane = t.lane();
            scope.spawn(move || record_outcomes(&mut lane, 10, 1_000)).join().unwrap();
            let mut lane = t.lane();
            scope.spawn(move || record_outcomes(&mut lane, 5, 500)).join().unwrap();
        });
        assert_eq!(lane_cells(&t), 1, "the second lane took the first one's cell");
        let s = t.snapshot();
        assert_eq!(s.packets, 1_500);
        let latency = s.latency_total();
        assert_eq!(latency.sum, (10..1_010).sum::<u64>() + (5..505).sum::<u64>());
        assert_eq!((latency.min, latency.max), (5, 1_009));
        assert_eq!(s.fastpath_hits, 1_500);
    }

    #[test]
    fn live_lanes_never_share_a_cell() {
        let t = Telemetry::new(1);
        let a = t.lane();
        let b = t.lane();
        assert!(!Arc::ptr_eq(&a.cell, &b.cell));
        drop(a);
        let c = t.lane();
        assert!(!Arc::ptr_eq(&b.cell, &c.cell));
        assert_eq!(lane_cells(&t), 2, "the third lane reused the first one's cell");
    }

    #[test]
    fn a_dropped_lanes_counts_stay_in_later_snapshots() {
        let t = Telemetry::new(1);
        let mut lane = t.lane();
        record_outcomes(&mut lane, 100, 30);
        drop(lane);
        let first = t.snapshot();
        assert_eq!(first.packets, 30);
        t.shard(0).add_rules_installed(1);
        let later = t.snapshot();
        assert_eq!((later.packets, later.fastpath_hits), (30, 30));
        assert_eq!(later.latency, first.latency);
        assert_eq!(later.rules_installed, 1);
    }

    #[test]
    fn ops_mirror_accumulates() {
        let t = Telemetry::new(1);
        let mut a = OpTotals::default();
        a.0[0] = 3; // parses
        a.0[16] = 1; // drops
        t.shard(0).add_ops(&a);
        t.shard(0).add_ops(&a);
        let s = t.snapshot();
        assert_eq!(s.ops.0[0], 6);
        assert_eq!(s.ops.0[16], 2);
        assert_eq!(s.ops.named().count(), OP_KINDS);
    }
}
