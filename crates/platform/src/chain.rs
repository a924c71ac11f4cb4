//! One service chain on either NFV platform (paper §VI-A).
//!
//! The paper puts the same SpeedyBox pieces — one classifier, one Global
//! MAT, one Event Table — into BESS's service graph and into OpenNetVM's
//! NF manager; only the way packets move between NFs differs. [`Chain`]
//! does the same: its per-packet step is written once, and a [`Platform`]
//! value carries only the costs that differ (see DESIGN.md, "One packet
//! step"):
//!
//! * BESS "typically implements an entire service chain as a single
//!   process on a dedicated core": run-to-completion, one module hop per
//!   NF reached, and a rate of one packet per wall-latency interval;
//! * OpenNetVM "runs each NF on one dedicated core": one ring hop per NF
//!   reached plus one to TX, ring transit added to latency, one message
//!   hop per Local MAT on consolidation, and a rate set by the slowest
//!   stage (manager or NF core).
//!
//! [`crate::workers`] threads run the same step over one shared runtime;
//! [`crate::threaded`] is a real thread-per-NF OpenNetVM runtime.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use speedybox_mat::{Classification, ClassifyScratch, GlobalRule, OpCounter, PacketClass};
use speedybox_nf::Nf;
use speedybox_packet::{Fid, Magazine, Packet, PacketError, PacketPool, PoolStats};
use speedybox_telemetry::Telemetry;

use crate::cycles::CycleModel;
use crate::metrics::{observe, sync_pool, PathKind, ProcessedPacket, RunStats};
use crate::runtime::{
    classify, fast_path, fast_path_cached, notify_flow_closed, tag_ingress, traverse_chain,
    FastPathScratch, SboxConfig, SpeedyBox,
};
use crate::supervisor::{default_log_bound, Supervisor};

/// The NFV platform a [`Chain`] models. It owns only the costs that
/// differ between the two; everything else about a packet's step is
/// shared.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Platform {
    /// BESS-style: the whole chain in one run-to-completion process,
    /// module-graph hops between NFs.
    Bess,
    /// OpenNetVM-style: one core per NF, RX/TX rings between them,
    /// pipelined throughput.
    Onvm,
}

impl Platform {
    /// Both platforms, BESS first.
    pub const ALL: [Platform; 2] = [Platform::Bess, Platform::Onvm];

    /// Canonical lowercase name (the CLI's `--env` values, sim artifacts).
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Platform::Bess => "bess",
            Platform::Onvm => "onvm",
        }
    }

    /// Parses a name produced by [`Platform::as_str`].
    ///
    /// # Errors
    /// Unknown names.
    pub fn parse(text: &str) -> Result<Self, String> {
        match text {
            "bess" => Ok(Platform::Bess),
            "onvm" => Ok(Platform::Onvm),
            other => Err(format!("unknown environment {other:?} (expected bess|onvm)")),
        }
    }

    /// Display label matching the paper's figures.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Platform::Bess => "BESS",
            Platform::Onvm => "ONVM",
        }
    }

    /// The platform's processing rate for a run: one packet per mean
    /// wall latency on BESS, the slowest stage on ONVM.
    #[must_use]
    pub fn rate_mpps(self, stats: &RunStats, model: &CycleModel) -> f64 {
        match self {
            Platform::Bess => stats.run_to_completion_rate_mpps(model),
            Platform::Onvm => stats.pipelined_rate_mpps(model),
        }
    }
}

/// Per-batch fast-path state: rule handles prefetched with one read-lock
/// acquisition per shard, plus the FIDs whose cached handle went stale
/// (rule installed, patched or removed mid-batch — those fall back to the
/// locked lookup for the rest of the batch).
#[derive(Debug, Default)]
struct BatchState {
    cache: HashMap<Fid, Arc<GlobalRule>>,
    stale: HashSet<Fid>,
    /// Flow-affinity memo: the last fast-path FID and its rule handle.
    /// Same-flow packet runs skip the `cache` HashMap probe entirely. Only
    /// ever substitutes for the probe — event checks still run per packet —
    /// and is cleared whenever the flow's rule is rewritten or removed.
    last: Option<(Fid, Arc<GlobalRule>)>,
}

impl BatchState {
    /// Marks `fid`'s cached handle stale (rule installed, rewritten or
    /// removed) and drops the memo if it holds `fid`.
    fn invalidate(&mut self, fid: Fid) {
        self.stale.insert(fid);
        if self.last.as_ref().is_some_and(|(lf, _)| *lf == fid) {
            self.last = None;
        }
    }

    /// Forgets every cached handle.
    fn clear(&mut self) {
        self.cache.clear();
        self.stale.clear();
        self.last = None;
    }
}

/// A packet's path and price, before its buffer is handed back or
/// recycled. Its operations accumulate in the caller's `OpCounter`.
#[derive(Clone, Copy)]
struct Priced {
    survived: bool,
    work: u64,
    latency: u64,
    path: PathKind,
}

impl Priced {
    /// Adds the cycles of the entry step (classification or ingress tag)
    /// that preceded the arm.
    fn after(self, entry_cycles: u64) -> Self {
        Self { work: self.work + entry_cycles, latency: self.latency + entry_cycles, ..self }
    }
}

/// Everything one packet step mutates besides the shared SpeedyBox
/// runtime: the NFs, the cost model, the buffer magazine, fast-path
/// scratch, the supervisor, and the stage and worker cycle ledgers.
/// Borrowing it separately from the runtime lets [`crate::workers`]
/// threads share one runtime while each owns a lane.
#[derive(Debug)]
pub(crate) struct Lane {
    nfs: Vec<Box<dyn Nf>>,
    platform: Platform,
    model: CycleModel,
    mag: Magazine,
    fp_scratch: FastPathScratch,
    /// NF crash/restart supervision (checkpoints + in-flight log).
    supervisor: Option<Supervisor>,
    /// ONVM per-stage cycle totals: index 0 = manager (RX, classifier,
    /// Global MAT), 1..=N the NFs. Empty on BESS.
    stage_cycles: Vec<u64>,
    /// Per-worker work cycles under FID-slice steering
    /// (`fid & (workers - 1)`); one slot when running single-worker.
    worker_cycles: Vec<u64>,
}

impl Lane {
    /// A lane over `nfs` drawing buffers from `pool`, attributing work
    /// across `workers` (a power of two) FID slices.
    pub(crate) fn new(
        nfs: Vec<Box<dyn Nf>>,
        platform: Platform,
        pool: &Arc<PacketPool>,
        workers: usize,
        supervisor: Option<Supervisor>,
    ) -> Self {
        let mut lane = Self {
            nfs,
            platform,
            model: CycleModel::new(),
            mag: Magazine::new(Arc::clone(pool)),
            fp_scratch: FastPathScratch::default(),
            supervisor,
            stage_cycles: Vec::new(),
            worker_cycles: vec![0; workers],
        };
        lane.set_platform(platform);
        lane
    }

    fn set_platform(&mut self, platform: Platform) {
        self.platform = platform;
        self.stage_cycles = match platform {
            Platform::Bess => Vec::new(),
            Platform::Onvm => vec![0; self.nfs.len() + 1],
        };
    }

    /// Total work attributed to this lane's worker slots.
    pub(crate) fn work_cycles(&self) -> u64 {
        self.worker_cycles.iter().sum()
    }

    /// Charges `cycles` to ONVM stage `stage` (0 = manager); BESS has no
    /// stages.
    fn charge(&mut self, stage: usize, cycles: u64) {
        if self.platform == Platform::Onvm {
            self.stage_cycles[stage] += cycles;
        }
    }

    /// The original chain's packet: the ingress FID tag, then the
    /// uninstrumented walk.
    fn baseline(&mut self, telemetry: &Telemetry, mut packet: Packet) -> ProcessedPacket {
        let mut ops = OpCounter::default();
        tag_ingress(&mut packet, &mut ops);
        let entry_cycles = self.model.cycles(&ops);
        self.charge(0, entry_cycles);
        let priced = self.walk(&mut packet, None, &mut ops);
        if packet.tcp_flags().closes_flow() {
            if let Some(fid) = packet.fid() {
                notify_flow_closed(&mut self.nfs, fid);
            }
        }
        let hint = packet.fid().map_or(0, |f| f.index() as u64);
        self.finish(telemetry, hint, packet, priced.after(entry_cycles), ops)
    }

    /// A SpeedyBox packet: classification, then [`Lane::step`].
    pub(crate) fn process(&mut self, sbox: &SpeedyBox, mut packet: Packet) -> ProcessedPacket {
        let mut cls_ops = OpCounter::default();
        match classify(sbox, &mut packet, &mut cls_ops) {
            Err(_) => self.drop_unparsed(&sbox.telemetry, packet, cls_ops),
            Ok((fid, class, closes_flow)) => {
                self.step(sbox, packet, Classification { fid, class, closes_flow }, cls_ops, None)
            }
        }
    }

    /// An unparseable packet: dropped at the classifier. It carries no
    /// FID, so worker 0 owns it by convention.
    fn drop_unparsed(
        &mut self,
        telemetry: &Telemetry,
        packet: Packet,
        cls_ops: OpCounter,
    ) -> ProcessedPacket {
        let mut ops = cls_ops;
        ops.drops += 1;
        let cycles = self.model.cycles(&ops);
        self.charge(0, cycles);
        let priced =
            Priced { survived: false, work: cycles, latency: cycles, path: PathKind::Initial };
        self.finish(telemetry, 0, packet, priced, ops)
    }

    /// The packet step after classification, shared by every platform,
    /// the per-packet and batched paths, and the worker threads. One of
    /// three arms prices the packet — the uninstrumented walk, the
    /// instrumented walk plus rule install, or the fast path — then
    /// teardown, `observe` and worker attribution follow once. With
    /// `batch`, fast-path lookups are served from the batch's prefetched
    /// rule cache, and teardown skips the classifier side, which
    /// `classify_batch_into` already removed inline.
    fn step(
        &mut self,
        sbox: &SpeedyBox,
        mut packet: Packet,
        cls: Classification,
        cls_ops: OpCounter,
        mut batch: Option<&mut BatchState>,
    ) -> ProcessedPacket {
        let Classification { fid, class, closes_flow } = cls;
        let hint = fid.index() as u64;
        // FIN/RST teardown — but never on behalf of a colliding flow,
        // whose FID slot belongs to another connection.
        let teardown = closes_flow && class != PacketClass::Collision;
        // Supervision first (NF state has not mutated yet): log the frame
        // and its teardown decision for crash replay.
        if let Some(sup) = self.supervisor.as_mut() {
            if sup.note_packet(packet.as_bytes(), teardown, &self.nfs) {
                sbox.telemetry.shard(0).add_snapshots_taken(1);
            }
        }
        // Open quarantine window: would-be fast-path packets ride the
        // uninstrumented walk instead — no recording (pre-crash recordings
        // are untrusted), no install (the MAT gate refuses anyway).
        let class = if sbox.global.is_quarantined()
            && matches!(class, PacketClass::Initial | PacketClass::Subsequent)
        {
            sbox.telemetry.shard(hint).add_quarantine_packets(1);
            PacketClass::Handshake
        } else {
            class
        };
        let cls_cycles = self.model.cycles(&cls_ops);
        self.charge(0, cls_cycles);

        let mut ops = cls_ops;
        let fast = if class == PacketClass::Subsequent {
            self.fast(sbox, fid, &mut packet, batch.as_deref_mut(), &mut ops)
        } else {
            None
        };
        let priced = match (class, fast) {
            (_, Some(priced)) => priced,
            // Collision: a different flow owns this FID's rule slot, so
            // its rule must not be corrupted. Handshake (§III): the
            // connection is not established yet. Rejected: the flow table
            // is full under the Reject admission policy. None records.
            (PacketClass::Collision | PacketClass::Handshake | PacketClass::Rejected, None) => {
                self.walk(&mut packet, None, &mut ops)
            }
            // Initial packets, and subsequent packets whose rule was
            // evicted (e.g. by FID collision cleanup): record, then
            // consolidate into the Global MAT.
            (PacketClass::Initial | PacketClass::Subsequent, None) => {
                let priced = self.walk(&mut packet, Some((sbox, fid)), &mut ops);
                if let Some(bs) = batch.as_deref_mut() {
                    bs.invalidate(fid);
                }
                priced
            }
        };

        if teardown {
            match batch {
                None => sbox.remove_flow(fid),
                Some(bs) => {
                    // The classifier entry was already removed inline by
                    // `classify_batch_into`; removing it again could delete
                    // a later in-batch packet's re-claimed flow state.
                    sbox.global.remove_flow(fid);
                    bs.invalidate(fid);
                }
            }
            notify_flow_closed(&mut self.nfs, fid);
        }
        self.finish(&sbox.telemetry, hint, packet, priced.after(cls_cycles), ops)
    }

    /// The walk arms: the packet runs through the original chain,
    /// uninstrumented, or — with `record` — recording its flow's behaviour
    /// and then installing the flow's consolidated rule. The platform
    /// charges its hops per NF reached.
    fn walk(
        &mut self,
        packet: &mut Packet,
        record: Option<(&SpeedyBox, Fid)>,
        ops: &mut OpCounter,
    ) -> Priced {
        let instruments = record.map(|(sbox, _)| sbox.instruments.as_slice());
        let res = traverse_chain(&mut self.nfs, instruments, packet, &self.model);
        for (i, &c) in res.per_nf_cycles.iter().enumerate() {
            self.charge(i + 1, c);
        }
        let mut work = res.per_nf_cycles.iter().sum::<u64>();
        ops.merge(&res.ops);
        let path = match record {
            None => PathKind::Baseline,
            Some((sbox, fid)) => {
                let mut install_ops = OpCounter::default();
                sbox.global.install(fid, &mut install_ops);
                if self.platform == Platform::Onvm {
                    // Consolidation "involves inter-core communication":
                    // one message hop per Local MAT back to the manager.
                    install_ops.ring_hops += self.nfs.len() as u64;
                }
                let install_cycles = self.model.cycles(&install_ops);
                self.charge(0, install_cycles);
                work += install_cycles;
                ops.merge(&install_ops);
                PathKind::Initial
            }
        };
        let reached = res.per_nf_cycles.iter().filter(|&&c| c > 0).count() as u64;
        let latency = match self.platform {
            Platform::Bess => {
                work += reached * self.model.bess_module_hop;
                work
            }
            Platform::Onvm => {
                // One ring hop into each NF reached, plus one back to TX
                // if the packet survived; transit is latency, not work.
                let hops = reached + u64::from(res.survived);
                ops.ring_hops += hops;
                work += hops * self.model.ring_hop;
                work + hops * self.model.ring_transit
            }
        };
        Priced { survived: res.survived, work, latency, path }
    }

    /// The fast-path arm: the flow's consolidated rule, from the batch's
    /// prefetched handles when batching. `None` if the rule is gone.
    fn fast(
        &mut self,
        sbox: &SpeedyBox,
        fid: Fid,
        packet: &mut Packet,
        batch: Option<&mut BatchState>,
        ops: &mut OpCounter,
    ) -> Option<Priced> {
        let res = match batch {
            Some(bs) if !bs.stale.contains(&fid) => {
                let memo_hit = bs.last.as_ref().is_some_and(|(lf, _)| *lf == fid);
                let handle =
                    if memo_hit { bs.last.as_ref().map(|(_, r)| r) } else { bs.cache.get(&fid) };
                let (res, fired) =
                    fast_path_cached(sbox, packet, fid, &self.model, handle, &mut self.fp_scratch);
                if fired {
                    bs.invalidate(fid);
                } else if !memo_hit {
                    if let Some(r) = bs.cache.get(&fid) {
                        bs.last = Some((fid, Arc::clone(r)));
                    }
                }
                res
            }
            _ => fast_path(sbox, packet, fid, &self.model, &mut self.fp_scratch),
        }?;
        if self.platform == Platform::Onvm {
            // The control part runs on the manager core with no data-path
            // ring hops (the R4 saving); state-function batches are
            // dispatched to the owning NFs' cores, which keeps the manager
            // stage — and therefore throughput — independent of chain
            // depth.
            let mut manager = res.work_cycles;
            if sbox.config.parallelize_sf {
                for &(nf, c) in &self.fp_scratch.attr {
                    self.stage_cycles[nf.index() + 1] += c;
                    manager -= c;
                }
            }
            self.stage_cycles[0] += manager;
        }
        ops.merge(&res.ops);
        Some(Priced {
            survived: res.survived,
            work: res.work_cycles,
            latency: res.latency_cycles,
            path: PathKind::Subsequent,
        })
    }

    /// Hands the packet back if it survived (recycling its buffer
    /// otherwise), then observes it and attributes its work to the worker
    /// owning `hint`'s FID slice.
    fn finish(
        &mut self,
        telemetry: &Telemetry,
        hint: u64,
        mut packet: Packet,
        priced: Priced,
        ops: OpCounter,
    ) -> ProcessedPacket {
        let outcome = ProcessedPacket {
            packet: if priced.survived {
                packet.clear_fid();
                Some(packet)
            } else {
                self.mag.give_packet(packet);
                None
            },
            work_cycles: priced.work,
            latency_cycles: priced.latency,
            path: priced.path,
            ops,
        };
        observe(telemetry, hint, &outcome);
        // Masked by the (power-of-two) worker count, so the cast cannot
        // lose anything the mask keeps.
        #[allow(clippy::cast_possible_truncation)]
        let w = (hint as usize) & (self.worker_cycles.len() - 1);
        self.worker_cycles[w] += outcome.work_cycles;
        outcome
    }
}

/// A service chain on one [`Platform`], original or SpeedyBox-enabled.
#[derive(Debug)]
pub struct Chain {
    lane: Lane,
    sbox: Option<SpeedyBox>,
    /// Live counters. Shared with `sbox.telemetry` when SpeedyBox is on
    /// (one hub for classifier, MAT and per-packet outcomes); a private
    /// hub for original chains.
    telemetry: Arc<Telemetry>,
    /// Cumulative modeled wall cycles: per batch, the busiest worker's
    /// share (see [`RunStats::worker_wall_cycles`]).
    worker_wall: u64,
    /// The chain's packet-buffer pool. Dropped packets are recycled here;
    /// traffic sources draw pooled buffers from the same pool so the
    /// steady state allocates nothing.
    pool: Arc<PacketPool>,
    /// Pool counters as of the last telemetry sync; deltas land in
    /// `telemetry` at batch/run boundaries.
    pool_seen: PoolStats,
    /// Persistent batch scratch, reused across batches so the
    /// steady-state batch path performs no heap allocation.
    cls_scratch: ClassifyScratch,
    classified: Vec<Result<Classification, PacketError>>,
    fast_fids: Vec<Fid>,
    ops_scratch: Vec<OpCounter>,
    before_cycles: Vec<u64>,
    batch: BatchState,
}

/// [`Chain`] under its older name. perfbench, the wall-clock benchmark of
/// record, is a workspace of its own that names `BessChain`; the alias
/// keeps it building. The one-argument constructors build BESS chains, so
/// the name still says what it builds.
pub type BessChain = Chain;

impl Chain {
    fn new(nfs: Vec<Box<dyn Nf>>, sbox: Option<SpeedyBox>, pool: PacketPool) -> Self {
        let pool = Arc::new(pool);
        let (telemetry, workers, supervisor) = match &sbox {
            None => (Arc::new(Telemetry::new(1)), 1, None),
            Some(s) => {
                let interval = s.config.checkpoint_interval;
                let supervisor = (interval > 0)
                    .then(|| Supervisor::new(&nfs, interval, default_log_bound(interval)));
                (Arc::clone(&s.telemetry), s.config.worker_count(), supervisor)
            }
        };
        Self {
            lane: Lane::new(nfs, Platform::Bess, &pool, workers, supervisor),
            sbox,
            telemetry,
            worker_wall: 0,
            pool,
            pool_seen: PoolStats::default(),
            cls_scratch: ClassifyScratch::default(),
            classified: Vec::new(),
            fast_fids: Vec::new(),
            ops_scratch: Vec::new(),
            before_cycles: Vec::new(),
            batch: BatchState::default(),
        }
    }

    /// The original (uninstrumented) chain — the paper's `BESS` / `ONVM`
    /// baseline.
    #[must_use]
    pub fn original(nfs: Vec<Box<dyn Nf>>) -> Self {
        Self::new(nfs, None, PacketPool::default())
    }

    /// The chain with SpeedyBox enabled — the paper's `BESS w/ SBox` /
    /// `ONVM w/ SBox`.
    #[must_use]
    pub fn speedybox(nfs: Vec<Box<dyn Nf>>) -> Self {
        Self::speedybox_with(nfs, SboxConfig::default())
    }

    /// SpeedyBox with explicit optimization knobs (Fig 7 ablations).
    #[must_use]
    pub fn speedybox_with(nfs: Vec<Box<dyn Nf>>, config: SboxConfig) -> Self {
        let sbox = SpeedyBox::new(nfs.len(), config);
        Self::new(nfs, Some(sbox), PacketPool::bounded(2048, config.pool_buffers))
    }

    /// Moves the chain to `platform` (BESS by default). Call before
    /// processing: stage totals restart.
    #[must_use]
    pub fn with_platform(mut self, platform: Platform) -> Self {
        self.lane.set_platform(platform);
        self
    }

    /// Replaces the cycle model (calibration experiments).
    #[must_use]
    pub fn with_model(mut self, model: CycleModel) -> Self {
        self.lane.model = model;
        self
    }

    /// The cycle model in use.
    #[must_use]
    pub fn model(&self) -> &CycleModel {
        &self.lane.model
    }

    /// The platform's processing rate for a run of this chain.
    #[must_use]
    pub fn rate_mpps(&self, stats: &RunStats) -> f64 {
        self.lane.platform.rate_mpps(stats, &self.lane.model)
    }

    /// The chain's live telemetry hub.
    #[must_use]
    pub fn telemetry(&self) -> &Arc<Telemetry> {
        &self.telemetry
    }

    /// The chain's packet-buffer pool. Traffic sources should draw their
    /// buffers from here (via a [`Magazine`]) and callers should return
    /// delivered packets with [`PacketPool::free_batch`] so the steady
    /// state recycles instead of allocating.
    #[must_use]
    pub fn pool(&self) -> &Arc<PacketPool> {
        &self.pool
    }

    /// Number of NFs in the chain.
    #[must_use]
    pub fn len(&self) -> usize {
        self.lane.nfs.len()
    }

    /// True if the chain has no NFs.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.lane.nfs.is_empty()
    }

    /// The SpeedyBox runtime, if enabled (tests poke at the Global MAT).
    #[must_use]
    pub fn sbox(&self) -> Option<&SpeedyBox> {
        self.sbox.as_ref()
    }

    /// Mutable access to the SpeedyBox runtime (fault-injection harnesses
    /// flip execution modes between packets).
    pub fn sbox_mut(&mut self) -> Option<&mut SpeedyBox> {
        self.sbox.as_mut()
    }

    /// Flips the fast path between compiled and interpreted header-action
    /// execution. No-op on an original chain. Safe between packets — see
    /// [`SpeedyBox::set_compiled`].
    pub fn set_compiled(&mut self, compiled: bool) {
        if let Some(sbox) = self.sbox.as_mut() {
            sbox.set_compiled(compiled);
        }
    }

    /// Turns NF crash/restart supervision on (or re-tunes it): takes an
    /// immediate chain-consistent checkpoint and starts the bounded
    /// in-flight log. Idempotent; `interval`/`log_bound` of 0 clamp to 1.
    pub fn enable_supervision(&mut self, interval: u64, log_bound: usize) {
        self.lane.supervisor = Some(Supervisor::new(&self.lane.nfs, interval, log_bound));
    }

    /// Whether NF crash/restart supervision is active.
    #[must_use]
    pub fn supervised(&self) -> bool {
        self.lane.supervisor.is_some()
    }

    /// Takes an on-demand chain-consistent checkpoint (the sim harness's
    /// `snap@N` fault). No-op without supervision.
    pub fn checkpoint_now(&mut self) {
        if let Some(sup) = self.lane.supervisor.as_mut() {
            sup.checkpoint(&self.lane.nfs);
            self.telemetry.shard(0).add_snapshots_taken(1);
        }
    }

    /// Handles a crash of NF `nf`: quarantines its consolidated rules in
    /// the Global MAT (the fast path falls back to the original walk),
    /// sweeps all fast-path flow state, rolls the whole chain back to the
    /// last chain-consistent checkpoint, and replays the bounded in-flight
    /// log — so post-recovery NF state matches a crash-free run exactly.
    /// `replay: false` is the seeded-bug mutation (`skip-snapshot-replay`)
    /// that the sim oracle must flag. Returns the replay depth. No-op
    /// without supervision.
    pub fn kill_nf(&mut self, nf: usize, replay: bool) -> usize {
        let Some(sup) = self.lane.supervisor.as_mut() else {
            return 0;
        };
        if let Some(sbox) = self.sbox.as_ref() {
            // Mask first, then sweep: a reader that races the sweep hits
            // the mask and falls back to the original walk.
            sbox.global.quarantine_nf(nf);
            sbox.force_evict_flows(usize::MAX);
        }
        // The prefetched rule cache may hold pre-crash handles.
        self.batch.clear();
        let depth = sup.kill(&mut self.lane.nfs, replay);
        let shard = self.telemetry.shard(0);
        shard.add_nf_kills(1);
        shard.add_replay_depth(depth as u64);
        // `kill` ends with a fresh post-recovery checkpoint.
        shard.add_snapshots_taken(1);
        depth
    }

    /// Closes NF `nf`'s quarantine window: consolidated rules may be
    /// installed and served again, and quarantined flows re-record on
    /// their next packet. No-op without supervision.
    pub fn recover_nf(&mut self, nf: usize) {
        if self.lane.supervisor.is_none() {
            return;
        }
        if let Some(sbox) = self.sbox.as_ref() {
            sbox.global.unquarantine_nf(nf);
        }
        self.telemetry.shard(0).add_nf_recoveries(1);
    }

    /// Logs a non-packet NF state mutation (e.g. a backend health flip)
    /// into the in-flight log so crash replay reproduces it in order.
    /// No-op without supervision.
    pub fn log_external(&mut self, event: Arc<dyn Fn() + Send + Sync>) {
        if let Some(sup) = self.lane.supervisor.as_mut() {
            sup.log_external(event);
        }
    }

    /// Folds pool-counter deltas since the last sync into the telemetry
    /// hub.
    fn sync_pool_telemetry(&mut self) {
        sync_pool(&self.telemetry, &self.pool, &mut self.pool_seen);
    }

    /// Processes one packet through the chain.
    pub fn process(&mut self, packet: Packet) -> ProcessedPacket {
        let outcome = match &self.sbox {
            None => self.lane.baseline(&self.telemetry, packet),
            Some(sbox) => {
                let outcome = self.lane.process(sbox, packet);
                // Per-packet mode is a batch of one: the idle-eviction
                // tick runs at the same boundary. O(1) unless flows are
                // actually due.
                sbox.tick_idle_eviction();
                outcome
            }
        };
        // Per-packet mode: the owning worker is busy for the whole packet
        // while the others idle, so wall time is the packet's own work.
        self.worker_wall += outcome.work_cycles;
        outcome
    }

    /// Processes a batch of packets, classifying them with one generation
    /// load per touched shard and serving fast-path lookups from a
    /// prefetched rule cache. Per-packet results (bytes, paths, op counts,
    /// cycles) are identical to calling [`Chain::process`] in order.
    /// Each packet's work is attributed to the worker owning its FID
    /// slice; the batch's modeled wall time is the busiest worker's share.
    pub fn process_batch(&mut self, packets: Vec<Packet>) -> Vec<ProcessedPacket> {
        let mut packets = packets;
        let mut out = Vec::with_capacity(packets.len());
        self.process_batch_into(&mut packets, &mut out);
        out
    }

    /// Allocation-free variant of [`Chain::process_batch`]: drains
    /// `packets`, appends each outcome to `out` (cleared first), and keeps
    /// every piece of per-batch scratch — classifier slots, prefetched
    /// rule cache, op counters — alive inside the chain between calls. In
    /// the steady state (all capacities warmed, pool populated) a call
    /// touches the heap zero times; `tests/zero_alloc.rs` enforces this.
    /// Every call, an empty one included, folds pool counters into
    /// telemetry.
    pub fn process_batch_into(
        &mut self,
        packets: &mut Vec<Packet>,
        out: &mut Vec<ProcessedPacket>,
    ) {
        out.clear();
        let Some(sbox) = self.sbox.as_ref() else {
            for p in packets.drain(..) {
                out.push(self.process(p));
            }
            self.sync_pool_telemetry();
            return;
        };
        self.ops_scratch.clear();
        self.ops_scratch.resize(packets.len(), OpCounter::default());
        sbox.classifier.classify_batch_into(
            packets,
            &mut self.ops_scratch,
            &mut self.classified,
            &mut self.cls_scratch,
        );
        self.fast_fids.clear();
        self.fast_fids.extend(
            self.classified
                .iter()
                .filter_map(|r| r.as_ref().ok())
                .filter(|c| c.class == PacketClass::Subsequent)
                .map(|c| c.fid),
        );
        sbox.global.prefetch_into(&self.fast_fids, &mut self.batch.cache);
        self.batch.stale.clear();
        self.batch.last = None;
        self.before_cycles.clear();
        self.before_cycles.extend_from_slice(&self.lane.worker_cycles);
        for ((pkt, cls), &cls_ops) in packets.drain(..).zip(&self.classified).zip(&self.ops_scratch)
        {
            out.push(match cls {
                Err(_) => self.lane.drop_unparsed(&sbox.telemetry, pkt, cls_ops),
                Ok(c) => self.lane.step(sbox, pkt, *c, cls_ops, Some(&mut self.batch)),
            });
        }
        // Symmetric workers drain their slices of the batch concurrently;
        // the busiest worker bounds the batch's wall time.
        self.worker_wall += self
            .lane
            .worker_cycles
            .iter()
            .zip(&self.before_cycles)
            .map(|(after, before)| after - before)
            .max()
            .unwrap_or(0);
        // Batch-boundary idle eviction (control plane, not packet work).
        sbox.tick_idle_eviction();
        self.sync_pool_telemetry();
    }

    /// Runs a sequence of packets, collecting statistics (with per-stage
    /// totals on ONVM, covering only this run so warmup runs don't skew
    /// the pipelined rate). Processes in batches of the configured
    /// [`SboxConfig::batch_size`] (per-packet when 1 or when SpeedyBox is
    /// off).
    pub fn run(&mut self, packets: impl IntoIterator<Item = Packet>) -> RunStats {
        let batch_size = self.sbox.as_ref().map_or(1, |s| s.config.batch_size);
        if batch_size > 1 {
            return self.run_batched(packets, batch_size);
        }
        self.measure(|chain, stats| {
            for p in packets {
                stats.record(chain.process(p));
            }
            chain.sync_pool_telemetry();
        })
    }

    /// Runs a sequence of packets in batches of `batch_size`, collecting
    /// statistics. Results are identical to [`Chain::run`] — batching
    /// only amortizes table-lock acquisitions.
    pub fn run_batched(
        &mut self,
        packets: impl IntoIterator<Item = Packet>,
        batch_size: usize,
    ) -> RunStats {
        let batch_size = batch_size.max(1);
        self.measure(|chain, stats| {
            // One input buffer and one outcome buffer for the whole run:
            // `process_batch_into` drains the former and refills the
            // latter, so neither reallocates after the first full batch.
            let mut buf = Vec::with_capacity(batch_size);
            let mut out = Vec::with_capacity(batch_size);
            let mut packets = packets.into_iter().peekable();
            while packets.peek().is_some() {
                buf.extend(packets.by_ref().take(batch_size));
                chain.process_batch_into(&mut buf, &mut out);
                for outcome in out.drain(..) {
                    stats.record(outcome);
                }
            }
        })
    }

    /// Runs `body`, then fills in the stage, worker and wall cycle totals
    /// it accrued.
    fn measure(&mut self, body: impl FnOnce(&mut Self, &mut RunStats)) -> RunStats {
        let stages_before = self.lane.stage_cycles.clone();
        let workers_before = self.lane.worker_cycles.clone();
        let wall_before = self.worker_wall;
        let mut stats = RunStats::default();
        body(self, &mut stats);
        let delta = |now: &[u64], before: &[u64]| -> Vec<u64> {
            now.iter().zip(before).map(|(a, b)| a - b).collect()
        };
        stats.stage_cycles = delta(&self.lane.stage_cycles, &stages_before);
        stats.worker_cycles = delta(&self.lane.worker_cycles, &workers_before);
        stats.worker_wall_cycles = self.worker_wall - wall_before;
        stats
    }
}

#[cfg(test)]
mod tests {
    use speedybox_nf::ipfilter::{AclRule, IpFilter};
    use speedybox_nf::monitor::Monitor;
    use speedybox_packet::{PacketBuilder, TcpFlags};

    use super::*;

    fn packets(flow_port: u16, n: usize) -> Vec<Packet> {
        (0..n)
            .map(|i| {
                PacketBuilder::tcp()
                    .src(format!("10.0.0.1:{flow_port}").parse().unwrap())
                    .dst("10.0.0.2:80".parse().unwrap())
                    .payload(format!("packet-{i}").as_bytes())
                    .build()
            })
            .collect()
    }

    fn fw_chain(n: usize) -> Vec<Box<dyn Nf>> {
        (0..n).map(|_| Box::new(IpFilter::pass_through(30)) as Box<dyn Nf>).collect()
    }

    fn original(nfs: Vec<Box<dyn Nf>>, platform: Platform) -> Chain {
        Chain::original(nfs).with_platform(platform)
    }

    fn speedybox(nfs: Vec<Box<dyn Nf>>, platform: Platform) -> Chain {
        Chain::speedybox(nfs).with_platform(platform)
    }

    #[test]
    fn platform_names_round_trip() {
        for p in Platform::ALL {
            assert_eq!(Platform::parse(p.as_str()), Ok(p));
        }
        assert!(Platform::parse("dpdk").unwrap_err().contains("unknown environment"));
    }

    #[test]
    fn baseline_processes_everything_identically() {
        let mut chain = Chain::original(fw_chain(3));
        let stats = chain.run(packets(1000, 10));
        assert_eq!(stats.delivered, 10);
        assert_eq!(stats.path_counts, [10, 0, 0]);
        // The flow's first packet pays the ACL scans (firewall flow-cache
        // miss); every later packet costs the same as its neighbours.
        assert!(stats.work_cycles[0] > stats.work_cycles[1]);
        assert!(stats.work_cycles[1..].windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn speedybox_first_packet_slow_rest_fast() {
        let mut chain = Chain::speedybox(fw_chain(3));
        let stats = chain.run(packets(1000, 10));
        assert_eq!(stats.delivered, 10);
        assert_eq!(stats.path_counts, [0, 1, 9]);
        // Subsequent packets must be cheaper than the initial one.
        assert!(stats.work_cycles[1] < stats.work_cycles[0]);
    }

    #[test]
    fn speedybox_beats_baseline_for_long_chains() {
        let pkts = packets(1000, 100);
        let so = Chain::original(fw_chain(3)).run(pkts.clone());
        let sf = Chain::speedybox(fw_chain(3)).run(pkts);
        assert!(
            sf.mean_latency_cycles() < so.mean_latency_cycles(),
            "SpeedyBox {} must beat baseline {}",
            sf.mean_latency_cycles(),
            so.mean_latency_cycles()
        );
    }

    #[test]
    fn outputs_are_byte_identical_with_and_without_speedybox() {
        for platform in Platform::ALL {
            let pkts = packets(1000, 20);
            let so = original(fw_chain(2), platform).run(pkts.clone());
            let sf = speedybox(fw_chain(2), platform).run(pkts);
            assert_eq!(so.outputs.len(), sf.outputs.len());
            for (a, b) in so.outputs.iter().zip(&sf.outputs) {
                assert_eq!(a.as_bytes(), b.as_bytes(), "{platform:?}");
            }
        }
    }

    #[test]
    fn fin_tears_down_flow_state() {
        let mon = Monitor::new();
        let nfs: Vec<Box<dyn Nf>> = vec![Box::new(mon.clone())];
        let mut chain = Chain::speedybox(nfs);
        let mut pkts = packets(1000, 3);
        let fin = PacketBuilder::tcp()
            .src("10.0.0.1:1000".parse().unwrap())
            .dst("10.0.0.2:80".parse().unwrap())
            .flags(TcpFlags::FIN | TcpFlags::ACK)
            .build();
        pkts.push(fin);
        chain.run(pkts);
        // Flow closed: monitor state and MAT rules released.
        assert_eq!(mon.flow_count(), 0);
        let sbox = chain.sbox().unwrap();
        assert!(sbox.global.is_empty());
        assert!(sbox.classifier.is_empty());
        // A new packet on the same 5-tuple is initial again.
        let stats = chain.run(packets(1000, 1));
        assert_eq!(stats.path_counts, [0, 1, 0]);
    }

    #[test]
    fn dropped_flows_drop_early_on_fast_path() {
        let deny = IpFilter::new(vec![AclRule::deny_dst("10.0.0.2".parse().unwrap())]);
        let nfs: Vec<Box<dyn Nf>> = vec![Box::new(IpFilter::pass_through(30)), Box::new(deny)];
        let mut chain = Chain::speedybox(nfs);
        let stats = chain.run(packets(1000, 10));
        assert_eq!(stats.delivered, 0);
        assert_eq!(stats.dropped, 10);
        // Fast-path drops must cost far less than the initial traversal.
        assert!(stats.work_cycles[5] * 2 < stats.work_cycles[0]);
    }

    #[test]
    fn empty_chain_forwards_everything() {
        let mut chain = Chain::speedybox(vec![]);
        let stats = chain.run(packets(1000, 2));
        assert_eq!(stats.delivered, 2);
    }

    #[test]
    fn kill_quarantines_then_recover_republishes() {
        for platform in Platform::ALL {
            let mon = Monitor::new();
            let nfs: Vec<Box<dyn Nf>> = vec![Box::new(mon.clone())];
            let config = SboxConfig { checkpoint_interval: 4, ..SboxConfig::default() };
            let mut chain = Chain::speedybox_with(nfs, config).with_platform(platform);
            assert!(chain.supervised());
            chain.run(packets(1000, 6));
            let fid = packets(1000, 1)[0].five_tuple().unwrap().fid();
            let before = mon.counters(fid).unwrap();

            let depth = chain.kill_nf(0, true);
            assert!(depth > 0, "in-flight packets must replay");
            assert_eq!(
                mon.counters(fid).unwrap(),
                before,
                "rollback + replay reconstructs the crash-free state"
            );
            let sbox = chain.sbox().unwrap();
            assert!(sbox.global.is_quarantined());
            assert!(sbox.classifier.is_empty(), "fast-path flow state swept");

            // Open window: everything rides the uninstrumented original walk.
            let stats = chain.run(packets(1000, 3));
            assert_eq!(stats.path_counts, [3, 0, 0]);

            chain.recover_nf(0);
            assert!(!chain.sbox().unwrap().global.is_quarantined());
            // Post-window: the flow re-records organically, then rides the
            // fast path again — and the monitor saw every packet exactly once.
            let stats = chain.run(packets(1000, 4));
            assert_eq!(stats.path_counts, [0, 1, 3]);
            assert_eq!(mon.counters(fid).unwrap().packets, before.packets + 3 + 4);

            let snap = chain.telemetry().snapshot();
            assert_eq!(snap.nf_kills, 1);
            assert_eq!(snap.nf_recoveries, 1);
            assert_eq!(snap.replay_depth, depth as u64);
            assert_eq!(snap.quarantine_packets, 3);
            assert!(snap.snapshots_taken >= 2, "initial + post-recovery checkpoints");
        }
    }

    #[test]
    fn skipping_replay_diverges() {
        for platform in Platform::ALL {
            let mon = Monitor::new();
            let nfs: Vec<Box<dyn Nf>> = vec![Box::new(mon.clone())];
            let config = SboxConfig { checkpoint_interval: 100, ..SboxConfig::default() };
            let mut chain = Chain::speedybox_with(nfs, config).with_platform(platform);
            chain.run(packets(1000, 5));
            let fid = packets(1000, 1)[0].five_tuple().unwrap().fid();
            let before = mon.counters(fid).unwrap();
            chain.kill_nf(0, false);
            assert!(
                mon.counters(fid).is_none_or(|c| c.packets < before.packets),
                "the seeded recovery bug must lose in-flight state"
            );
        }
    }

    #[test]
    fn empty_batch_folds_pool_counters_into_telemetry() {
        // Per-packet processing never syncs pool counters; an empty batch
        // call does, on original and SpeedyBox chains alike.
        for mut chain in [Chain::original(fw_chain(1)), Chain::speedybox(fw_chain(1))] {
            let mut rx = Vec::new();
            chain.pool().copy_packets_into(&packets(1000, 4), &mut rx);
            for p in rx.drain(..) {
                let _ = chain.process(p);
            }
            let counts = |chain: &Chain| {
                let snap = chain.telemetry().snapshot();
                (snap.pool_hits, snap.pool_misses)
            };
            assert_eq!(counts(&chain), (0, 0));
            chain.process_batch_into(&mut rx, &mut Vec::new());
            let stats = chain.pool().stats();
            assert_eq!(counts(&chain), (stats.hits, stats.misses));
            assert_eq!(stats.hits + stats.misses, 4, "one buffer per copied packet");
        }
    }

    #[test]
    fn run_aggregates_ops() {
        let mut chain = Chain::speedybox(fw_chain(1));
        let stats = chain.run(packets(1000, 5));
        assert_eq!(stats.ops.classifications, 5);
        assert_eq!(stats.ops.consolidations, 1);
        assert_eq!(stats.ops.mat_lookups, 4);
    }

    #[test]
    fn onvm_baseline_latency_grows_with_chain_length() {
        let l3 = original(fw_chain(3), Platform::Onvm).run(packets(1000, 10));
        let l1 = original(fw_chain(1), Platform::Onvm).run(packets(1000, 10));
        let (l3, l1) = (l3.mean_latency_cycles(), l1.mean_latency_cycles());
        assert!(l3 > 2.0 * l1, "pipelined latency must grow with length: {l1} vs {l3}");
    }

    #[test]
    fn onvm_baseline_rate_is_stable_across_lengths() {
        let rate = |n| {
            let mut chain = original(fw_chain(n), Platform::Onvm);
            let stats = chain.run(packets(1000, 50));
            chain.rate_mpps(&stats)
        };
        let (r1, r5) = (rate(1), rate(5));
        // Identical NFs: bottleneck stage cost unchanged -> rate ~flat.
        assert!((r1 - r5).abs() / r1 < 0.15, "pipelined rate should be ~flat: {r1} vs {r5}");
    }

    #[test]
    fn onvm_speedybox_latency_is_flat_across_lengths() {
        let pkts = packets(1000, 100);
        let l1 = speedybox(fw_chain(1), Platform::Onvm).run(pkts.clone()).mean_latency_cycles();
        let l5 = speedybox(fw_chain(5), Platform::Onvm).run(pkts).mean_latency_cycles();
        // Subsequent packets dominate; their cost is length-independent.
        assert!(l5 < 1.6 * l1, "SpeedyBox latency must be ~flat: {l1} vs {l5}");
    }

    #[test]
    fn speedybox_cuts_onvm_latency_more_than_bess() {
        // The ring hops removed by consolidation are ONVM-only costs, so
        // the relative latency cut should be at least as large as BESS's.
        let pkts = packets(1000, 100);
        let cut = |platform| {
            let orig = original(fw_chain(3), platform).run(pkts.clone()).mean_latency_cycles();
            let sbox = speedybox(fw_chain(3), platform).run(pkts.clone()).mean_latency_cycles();
            1.0 - sbox / orig
        };
        let (onvm_cut, bess_cut) = (cut(Platform::Onvm), cut(Platform::Bess));
        assert!(onvm_cut > bess_cut, "ONVM cut {onvm_cut:.2} vs BESS cut {bess_cut:.2}");
    }

    #[test]
    fn onvm_stage_cycles_cover_all_stages() {
        let stats = original(fw_chain(3), Platform::Onvm).run(packets(1000, 5));
        assert_eq!(stats.stage_cycles.len(), 4);
        // Every NF stage did work; the baseline manager stage only tags
        // packets (cost-free harness bookkeeping).
        assert!(stats.stage_cycles[1..].iter().all(|&c| c > 0));
        let bess = Chain::original(fw_chain(3)).run(packets(1000, 5));
        assert!(bess.stage_cycles.is_empty(), "BESS has no stages");
    }

    #[test]
    fn onvm_fast_path_keeps_nf_stages_idle() {
        let stats = speedybox(fw_chain(2), Platform::Onvm).run(packets(1000, 50));
        // NF stages only saw the single initial packet.
        let manager = stats.stage_cycles[0];
        let nf_total: u64 = stats.stage_cycles[1..].iter().sum();
        assert!(manager > nf_total, "manager {manager} should dominate NF stages {nf_total}");
    }
}
