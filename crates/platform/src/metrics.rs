//! Run metrics: per-packet outcomes and aggregated statistics.

use speedybox_mat::OpCounter;
use speedybox_packet::{Packet, PacketPool, PoolStats};
use speedybox_telemetry::{PathClass, Telemetry};

use crate::cycles::CycleModel;

/// Which data path a packet took.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PathKind {
    /// Uninstrumented original chain (no SpeedyBox).
    Baseline,
    /// SpeedyBox slow path: the flow's initial packet traversing the chain
    /// while rules are recorded.
    Initial,
    /// SpeedyBox fast path: consolidated processing from the Global MAT.
    Subsequent,
}

impl PathKind {
    /// The telemetry path class with the same `path_counts` index.
    #[must_use]
    pub fn telemetry_class(self) -> PathClass {
        match self {
            PathKind::Baseline => PathClass::Baseline,
            PathKind::Initial => PathClass::Initial,
            PathKind::Subsequent => PathClass::Subsequent,
        }
    }
}

/// Records a finished packet into the telemetry hub's shard for `hint`:
/// path mix, delivery outcome, latency histogram and the
/// abstract-operation mirror, with relaxed read-modify-writes. This is
/// the shared path for callers that own no packet lane, such as
/// perfbench's traced replica of the chain; a lane counts the same facts
/// in its own cell, with no locked instruction. Both total what
/// `RunStats::record` folds in — the differential test holds the two
/// byte-for-byte equal.
pub fn observe(telemetry: &Telemetry, hint: u64, outcome: &ProcessedPacket) {
    let shard = telemetry.shard(hint);
    shard.record_packet(outcome.path.telemetry_class(), outcome.latency_cycles, outcome.survived());
    shard.add_ops(&outcome.ops.telemetry_totals());
}

/// Folds `pool`'s counter deltas since `seen` into the telemetry hub and
/// advances `seen`. Shard 0: pool traffic is chain-global, not per-flow.
/// A run over a fresh pool passes `&mut PoolStats::default()`.
pub fn sync_pool(telemetry: &Telemetry, pool: &PacketPool, seen: &mut PoolStats) {
    let now = pool.stats();
    let shard = telemetry.shard(0);
    shard.add_pool_hits(now.hits - seen.hits);
    shard.add_pool_misses(now.misses - seen.misses);
    shard.add_pool_recycled(now.recycled - seen.recycled);
    shard.add_pool_refills(now.refills - seen.refills);
    shard.add_pool_flushes(now.flushes - seen.flushes);
    shard.set_pool_depth(now.depth);
    *seen = now;
}

/// Outcome of processing one packet.
#[derive(Debug)]
pub struct ProcessedPacket {
    /// The packet if it survived, `None` if dropped.
    pub packet: Option<Packet>,
    /// CPU work spent, in model cycles (sum across all cores that touched
    /// the packet).
    pub work_cycles: u64,
    /// Wall latency, in model cycles — differs from `work_cycles` when
    /// state-function batches executed in parallel or ring hops added
    /// queueing-free transfer delay.
    pub latency_cycles: u64,
    /// Which path the packet took.
    pub path: PathKind,
    /// The operations performed.
    pub ops: OpCounter,
}

impl ProcessedPacket {
    /// True if the packet survived the chain.
    #[must_use]
    pub fn survived(&self) -> bool {
        self.packet.is_some()
    }
}

/// Aggregated statistics from a run of packets through a chain.
#[derive(Debug, Default)]
pub struct RunStats {
    /// Packets injected.
    pub sent: usize,
    /// Packets that exited the chain.
    pub delivered: usize,
    /// Packets dropped inside the chain.
    pub dropped: usize,
    /// Per-packet wall latency in model cycles (delivered and dropped).
    pub latencies_cycles: Vec<u64>,
    /// Per-packet work in model cycles.
    pub work_cycles: Vec<u64>,
    /// Aggregate operation counts.
    pub ops: OpCounter,
    /// Packets that exited, in order.
    pub outputs: Vec<Packet>,
    /// Per-stage total cycles (pipelined environments; index 0 is the
    /// manager/classifier stage, then one per NF). Empty for
    /// run-to-completion environments.
    pub stage_cycles: Vec<u64>,
    /// Packets counted per path kind: `[baseline, initial, subsequent]`.
    pub path_counts: [usize; 3],
    /// Per-worker total work cycles under FID-slice steering (index =
    /// `fid & (workers - 1)`). One entry (all work) when the chain runs a
    /// single worker or no SpeedyBox.
    pub worker_cycles: Vec<u64>,
    /// Modeled wall cycles across the symmetric workers: per batch, the
    /// busiest worker's share, summed over batches. Equals total work with
    /// one worker; with N balanced workers it approaches `total / N` — the
    /// scaling bench's throughput denominator.
    pub worker_wall_cycles: u64,
}

impl RunStats {
    /// Folds one packet outcome into the stats.
    pub fn record(&mut self, outcome: ProcessedPacket) {
        self.sent += 1;
        self.latencies_cycles.push(outcome.latency_cycles);
        self.work_cycles.push(outcome.work_cycles);
        self.ops.merge(&outcome.ops);
        match outcome.path {
            PathKind::Baseline => self.path_counts[0] += 1,
            PathKind::Initial => self.path_counts[1] += 1,
            PathKind::Subsequent => self.path_counts[2] += 1,
        }
        match outcome.packet {
            Some(p) => {
                self.delivered += 1;
                self.outputs.push(p);
            }
            None => self.dropped += 1,
        }
    }

    /// Mean work cycles per packet.
    #[must_use]
    pub fn mean_work_cycles(&self) -> f64 {
        if self.work_cycles.is_empty() {
            return 0.0;
        }
        self.work_cycles.iter().sum::<u64>() as f64 / self.work_cycles.len() as f64
    }

    /// Mean wall latency in cycles.
    #[must_use]
    pub fn mean_latency_cycles(&self) -> f64 {
        if self.latencies_cycles.is_empty() {
            return 0.0;
        }
        self.latencies_cycles.iter().sum::<u64>() as f64 / self.latencies_cycles.len() as f64
    }

    /// Mean wall latency in microseconds under `model`'s clock.
    #[must_use]
    pub fn mean_latency_us(&self, model: &CycleModel) -> f64 {
        self.mean_latency_cycles() / model.cycles_per_us as f64
    }

    /// Processing rate for a run-to-completion environment (BESS-style):
    /// the initiating core serves one packet per wall-latency interval.
    #[must_use]
    pub fn run_to_completion_rate_mpps(&self, model: &CycleModel) -> f64 {
        model.rate_mpps(self.mean_latency_cycles())
    }

    /// Processing rate for a pipelined environment (OpenNetVM-style): the
    /// bottleneck stage bounds throughput.
    #[must_use]
    pub fn pipelined_rate_mpps(&self, model: &CycleModel) -> f64 {
        if self.sent == 0 {
            return 0.0;
        }
        let bottleneck =
            self.stage_cycles.iter().map(|&c| c as f64 / self.sent as f64).fold(0.0f64, f64::max);
        model.rate_mpps(bottleneck)
    }

    /// Processing rate for the symmetric-worker runtime: per batch the
    /// busiest worker bounds wall time, so throughput is packets over the
    /// accumulated per-batch maxima ([`RunStats::worker_wall_cycles`]).
    /// Deterministic — a pure function of the cycle model and the FID
    /// partition, independent of host core count.
    #[must_use]
    pub fn worker_rate_mpps(&self, model: &CycleModel) -> f64 {
        if self.sent == 0 || self.worker_wall_cycles == 0 {
            return 0.0;
        }
        model.rate_mpps(self.worker_wall_cycles as f64 / self.sent as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(latency: u64, path: PathKind, survived: bool) -> ProcessedPacket {
        ProcessedPacket {
            packet: survived.then(|| speedybox_packet::PacketBuilder::tcp().build()),
            work_cycles: latency,
            latency_cycles: latency,
            path,
            ops: OpCounter::default(),
        }
    }

    #[test]
    fn record_accumulates() {
        let mut s = RunStats::default();
        s.record(outcome(100, PathKind::Initial, true));
        s.record(outcome(50, PathKind::Subsequent, true));
        s.record(outcome(10, PathKind::Subsequent, false));
        assert_eq!(s.sent, 3);
        assert_eq!(s.delivered, 2);
        assert_eq!(s.dropped, 1);
        assert_eq!(s.path_counts, [0, 1, 2]);
        assert_eq!(s.outputs.len(), 2);
        assert!((s.mean_latency_cycles() - (160.0 / 3.0)).abs() < 1e-9);
    }

    #[test]
    fn rates_from_model() {
        let model = CycleModel::new();
        let mut s = RunStats::default();
        s.record(outcome(2000, PathKind::Baseline, true));
        s.record(outcome(2000, PathKind::Baseline, true));
        // 2000 cycles at 2000 cycles/us = 1 us per packet -> 1 Mpps.
        assert!((s.run_to_completion_rate_mpps(&model) - 1.0).abs() < 1e-9);
        s.stage_cycles = vec![1000, 4000, 2000]; // bottleneck 4000/2 = 2000
        assert!((s.pipelined_rate_mpps(&model) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn empty_stats_are_safe() {
        let s = RunStats::default();
        let model = CycleModel::new();
        assert_eq!(s.mean_work_cycles(), 0.0);
        assert_eq!(s.run_to_completion_rate_mpps(&model), 0.0);
        assert_eq!(s.pipelined_rate_mpps(&model), 0.0);
    }
}
