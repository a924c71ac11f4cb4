//! One service chain on either NFV platform (paper §VI-A).
//!
//! The paper puts the same SpeedyBox pieces — one classifier, one Global
//! MAT, one Event Table — into BESS's service graph and into OpenNetVM's
//! NF manager; only the way packets move between NFs differs. [`Chain`]
//! does the same: its per-packet step is written once, and a [`Platform`]
//! value carries only the costs that differ (see DESIGN.md, "One packet
//! step"). The step only counts operations; beside it, the lane's ledger
//! ([`crate::cycles`]) prices each finished packet under its platform:
//!
//! * BESS "typically implements an entire service chain as a single
//!   process on a dedicated core": run-to-completion, one module hop per
//!   NF reached, and a rate of one packet per wall-latency interval;
//! * OpenNetVM "runs each NF on one dedicated core": one ring hop per NF
//!   reached plus one to TX, ring transit added to latency, one message
//!   hop per Local MAT on consolidation, and a rate set by the slowest
//!   stage (manager or NF core).
//!
//! [`crate::workers`] threads run the same step over one shared runtime,
//! and [`crate::threaded`] runs it over real NF threads and rings.

use std::sync::Arc;

use speedybox_mat::{Classification, HeaderExec, NfInstrument, OpCounter, PacketClass};
use speedybox_nf::Nf;
use speedybox_packet::{Fid, Magazine, Packet, PacketPool, PoolStats};
use speedybox_telemetry::{LaneCounters, Telemetry};

use crate::cycles::{Counted, CycleModel, Ledger};
use crate::metrics::{sync_pool, PathKind, ProcessedPacket, RunStats};
use crate::runtime::{
    notify_flow_closed, tag_ingress, traverse_chain, SboxConfig, SlowPathResult, SpeedyBox,
};
use crate::supervisor::{default_log_bound, Supervisor};
use crate::threaded::Rings;

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

/// Where a lane's NFs run. Of the packet step, only the walk and the FIN
/// notification depend on it.
#[derive(Debug)]
pub(crate) enum Nfs {
    /// In the lane's own thread (chains, workers).
    InProcess(Vec<Box<dyn Nf>>),
    /// On the threaded runtime's NF threads, behind its rings.
    Rings(Rings),
}

impl Nfs {
    fn len(&self) -> usize {
        match self {
            Nfs::InProcess(nfs) => nfs.len(),
            Nfs::Rings(rings) => rings.len(),
        }
    }

    /// Runs `packet` through the NFs — recording with `instruments` — and
    /// returns it once it has left the chain or been dropped. An
    /// in-process walk leaves each NF's operations in `per_nf`; a ring
    /// walk, counted on the NF threads, only its totals.
    fn walk(
        &mut self,
        mut packet: Packet,
        instruments: Option<&[NfInstrument]>,
        per_nf: &mut Vec<OpCounter>,
    ) -> (Packet, SlowPathResult) {
        match self {
            Nfs::InProcess(nfs) => {
                let res = traverse_chain(nfs, instruments, &mut packet, per_nf);
                (packet, res)
            }
            Nfs::Rings(rings) => rings.walk(packet, instruments.is_some()),
        }
    }

    /// Tells every NF that `fid`'s flow closed.
    fn flow_closed(&mut self, fid: Fid) {
        match self {
            Nfs::InProcess(nfs) => notify_flow_closed(nfs, fid),
            Nfs::Rings(rings) => rings.flow_closed(fid),
        }
    }

    /// The in-process NFs. Only a [`Chain`] supervises or hands out its
    /// NFs, and its lane is always in-process.
    fn in_process(&mut self) -> &mut Vec<Box<dyn Nf>> {
        match self {
            Nfs::InProcess(nfs) => nfs,
            Nfs::Rings(_) => unreachable!("a chain's NFs run in-process"),
        }
    }
}

/// Everything one packet step mutates besides the shared SpeedyBox
/// runtime: the NFs, the ledger that prices finished packets (with the
/// platform, the count scratch and the stage and worker totals), the
/// buffer magazine, the supervisor and the lane's telemetry cell.
/// Borrowing it separately from the runtime lets [`crate::workers`]
/// threads share one runtime while each owns a lane.
#[derive(Debug)]
pub(crate) struct Lane {
    nfs: Nfs,
    ledger: Ledger,
    mag: Magazine,
    /// NF crash/restart supervision (checkpoints + in-flight log).
    supervisor: Option<Supervisor>,
    /// Every finished packet's facts, in a cell of the hub only this lane
    /// writes: no locked instruction per packet.
    counters: LaneCounters,
}

impl Lane {
    /// A lane over `nfs` drawing buffers from `pool`, attributing work
    /// across `workers` (a power of two) FID slices and counting its
    /// packets in a cell of `telemetry`.
    pub(crate) fn new(
        nfs: Nfs,
        platform: Platform,
        pool: &Arc<PacketPool>,
        workers: usize,
        supervisor: Option<Supervisor>,
        telemetry: &Telemetry,
    ) -> Self {
        Self {
            ledger: Ledger::new(platform, nfs.len(), workers),
            nfs,
            mag: Magazine::new(Arc::clone(pool)),
            supervisor,
            counters: telemetry.lane(),
        }
    }

    /// The threaded runtime's rings, for its pipelined original-chain
    /// loop.
    pub(crate) fn rings(&self) -> &Rings {
        match &self.nfs {
            Nfs::Rings(rings) => rings,
            Nfs::InProcess(_) => unreachable!("only the threaded runtime pipelines"),
        }
    }

    /// Total work attributed to this lane's worker slots.
    pub(crate) fn work_cycles(&self) -> u64 {
        self.ledger.totals().1.iter().sum()
    }

    /// The original chain's packet: the ingress FID tag, then the
    /// uninstrumented walk.
    fn baseline(&mut self, mut packet: Packet) -> ProcessedPacket {
        // Harness bookkeeping: the tag records no operations.
        tag_ingress(&mut packet, &mut OpCounter::default());
        let (packet, res) = self.nfs.walk(packet, None, &mut self.ledger.walk);
        if packet.tcp_flags().closes_flow() {
            if let Some(fid) = packet.fid() {
                self.nfs.flow_closed(fid);
            }
        }
        self.complete(packet, &res)
    }

    /// An original-chain packet back from its walk `res`, finished. The
    /// threaded runtime's pipelined original-chain loop completes each
    /// packet here as it leaves the rings.
    pub(crate) fn complete(&mut self, packet: Packet, res: &SlowPathResult) -> ProcessedPacket {
        let hint = packet.fid().map_or(0, |f| f.index() as u64);
        self.finish(hint, packet, res.counted(OpCounter::default(), false), res.ops)
    }

    /// A SpeedyBox packet: classification, then [`Lane::step`].
    pub(crate) fn process(&mut self, sbox: &SpeedyBox, mut packet: Packet) -> ProcessedPacket {
        let mut cls_ops = OpCounter::default();
        match sbox.classifier.classify(&mut packet, &mut cls_ops) {
            Err(_) => self.drop_unparsed(packet, cls_ops),
            Ok(cls) => self.step(sbox, packet, cls, cls_ops),
        }
    }

    /// A batch of SpeedyBox packets: each packet's [`Lane::process`] in
    /// order, then one idle-eviction tick. Drains `packets` into `out`
    /// (cleared first). Returns the batch's modeled wall time: the busiest
    /// worker's share of its work.
    pub(crate) fn batch(
        &mut self,
        sbox: &SpeedyBox,
        packets: &mut Vec<Packet>,
        out: &mut Vec<ProcessedPacket>,
    ) -> u64 {
        out.clear();
        self.ledger.open_batch();
        for packet in packets.drain(..) {
            out.push(self.process(sbox, packet));
        }
        // Batch-boundary idle eviction (control plane, not packet work).
        sbox.tick_idle_eviction();
        self.ledger.batch_wall()
    }

    /// An unparseable packet: dropped at the classifier. It carries no
    /// FID, so worker 0 owns it by convention.
    fn drop_unparsed(&mut self, packet: Packet, cls_ops: OpCounter) -> ProcessedPacket {
        let mut ops = cls_ops;
        ops.drops += 1;
        self.finish(0, packet, Counted::Unparsed, ops)
    }

    /// The packet step after classification, shared by every platform,
    /// every batch size, and the worker threads. One of three arms runs
    /// the packet and counts its operations — the uninstrumented walk, the
    /// instrumented walk plus rule install, or the fast path on the
    /// classified record — then teardown and [`Lane::finish`] follow once.
    fn step(
        &mut self,
        sbox: &SpeedyBox,
        mut packet: Packet,
        cls: Classification,
        cls_ops: OpCounter,
    ) -> ProcessedPacket {
        let Classification { fid, class, closes_flow, record } = cls;
        let hint = fid.index() as u64;
        // FIN/RST teardown — but never on behalf of a colliding flow,
        // whose FID slot belongs to another connection.
        let teardown = closes_flow && class != PacketClass::Collision;
        // Supervision first (NF state has not mutated yet): log the frame
        // and its teardown decision for crash replay.
        if let Some(sup) = self.supervisor.as_mut() {
            if sup.note_packet(packet.as_bytes(), teardown, self.nfs.in_process()) {
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

        let mut ops = cls_ops;
        let fast = if class == PacketClass::Subsequent {
            let exec = sbox.config.header_exec();
            let batches = &mut self.ledger.batches;
            let served = sbox.global.fast_path(fid, record.as_deref(), &mut packet, exec, batches);
            let counters = &mut self.counters;
            if served.is_none() {
                counters.add_fastpath_misses(1);
            } else {
                counters.add_fastpath_hits(1);
                if exec == HeaderExec::Compiled {
                    counters.add_compiled_hits(1);
                } else {
                    counters.add_compiled_fallbacks(1);
                }
            }
            served
        } else {
            None
        };
        let (packet, counted) = match (class, &fast) {
            (_, Some(served)) => {
                ops.merge(&served.ops);
                (packet, sbox.config.counted(served))
            }
            // Collision: a different flow owns this FID's rule slot, so
            // its rule must not be corrupted. Handshake (§III): the
            // connection is not established yet. Rejected: the flow table
            // is full under the Reject admission policy. None records.
            (PacketClass::Collision | PacketClass::Handshake | PacketClass::Rejected, None) => {
                self.walk(packet, None, &mut ops)
            }
            // Initial packets, and subsequent packets whose rule was
            // evicted (e.g. by FID collision cleanup): record, then
            // consolidate into the Global MAT.
            (PacketClass::Initial | PacketClass::Subsequent, None) => {
                self.walk(packet, Some((sbox, fid)), &mut ops)
            }
        };

        if teardown {
            sbox.remove_flow(fid);
            self.nfs.flow_closed(fid);
        }
        self.finish(hint, packet, counted, ops)
    }

    /// The walk arms: the packet runs through the original chain,
    /// uninstrumented, or — with `record` — recording its flow's behaviour
    /// and then installing the flow's consolidated rule. `ops` holds the
    /// classification's operations and gets the walk's and the install's.
    fn walk(
        &mut self,
        packet: Packet,
        record: Option<(&SpeedyBox, Fid)>,
        ops: &mut OpCounter,
    ) -> (Packet, Counted<'static>) {
        let instruments = record.map(|(sbox, _)| sbox.instruments.as_slice());
        let (packet, res) = self.nfs.walk(packet, instruments, &mut self.ledger.walk);
        // Classification and install run on the manager core.
        let mut manager = *ops;
        if let Some((sbox, fid)) = record {
            sbox.global.install(fid, &mut manager);
        }
        *ops = manager;
        ops.merge(&res.ops);
        (packet, res.counted(manager, record.is_some()))
    }

    /// Hands the packet back if it survived (recycling its buffer
    /// otherwise), has the ledger price it from its counts, and counts its
    /// path, latency, delivery and operations in the lane's cell. `hint`
    /// is the FID whose worker slice gets the packet.
    fn finish(
        &mut self,
        hint: u64,
        mut packet: Packet,
        counted: Counted<'_>,
        mut ops: OpCounter,
    ) -> ProcessedPacket {
        let (path, survived) = match counted {
            Counted::Unparsed => (PathKind::Initial, false),
            Counted::Walk { survived, installed: true, .. } => (PathKind::Initial, survived),
            Counted::Walk { survived, installed: false, .. } => (PathKind::Baseline, survived),
            Counted::Fast { survived, .. } => (PathKind::Subsequent, survived),
        };
        let (work_cycles, latency_cycles) = self.ledger.price(hint, counted, &mut ops);
        let outcome = ProcessedPacket {
            packet: if survived {
                packet.clear_fid();
                Some(packet)
            } else {
                self.mag.give_packet(packet);
                None
            },
            work_cycles,
            latency_cycles,
            path,
            ops,
        };
        self.counters.record_packet(path.telemetry_class(), latency_cycles, survived);
        self.counters.add_ops(&outcome.ops.telemetry_totals());
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
            lane: Lane::new(
                Nfs::InProcess(nfs),
                Platform::Bess,
                &pool,
                workers,
                supervisor,
                &telemetry,
            ),
            sbox,
            telemetry,
            worker_wall: 0,
            pool,
            pool_seen: PoolStats::default(),
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
    /// processing: the ledger's totals restart.
    #[must_use]
    pub fn with_platform(mut self, platform: Platform) -> Self {
        let workers = self.lane.ledger.totals().1.len();
        self.lane.ledger = Ledger::new(platform, self.lane.nfs.len(), workers);
        self
    }

    /// The cycle model in use.
    #[must_use]
    pub fn model(&self) -> &CycleModel {
        &self.lane.ledger.model
    }

    /// The platform's processing rate for a run of this chain.
    #[must_use]
    pub fn rate_mpps(&self, stats: &RunStats) -> f64 {
        self.lane.ledger.platform().rate_mpps(stats, self.model())
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
        self.lane.nfs.len() == 0
    }

    /// The SpeedyBox runtime, if enabled (tests poke at the Global MAT).
    #[must_use]
    pub fn sbox(&self) -> Option<&SpeedyBox> {
        self.sbox.as_ref()
    }

    /// Switches the fast path between compiled and interpreted
    /// header-action execution mid-run (the simulation harness's `flip@N`
    /// fault). No-op on an original chain. Safe at any packet boundary:
    /// every installed rule carries both forms, and they produce identical
    /// bytes.
    pub fn set_compiled(&mut self, compiled: bool) {
        if let Some(sbox) = self.sbox.as_mut() {
            sbox.config.compiled = compiled;
        }
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
            sup.checkpoint(self.lane.nfs.in_process());
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
        let depth = sup.kill(self.lane.nfs.in_process(), replay);
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
            None => self.lane.baseline(packet),
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

    /// Processes a batch of packets: drains `packets` and appends each
    /// outcome to `out` (cleared first). SpeedyBox classifies and steps
    /// each packet in order, as [`Chain::process`] does, so per-packet
    /// results (bytes, paths, op counts, cycles) are identical to calling
    /// it in order; the batch shares one idle-eviction tick and one pool
    /// sync. Each packet's work is attributed to the worker owning its FID
    /// slice; the batch's modeled wall time is the busiest worker's share.
    /// In the steady state (capacities warmed, pool populated) a call
    /// touches the heap zero times; `tests/zero_alloc.rs` enforces this.
    /// Every call, an empty one included, folds pool counters into
    /// telemetry.
    pub fn process_batch_into(
        &mut self,
        packets: &mut Vec<Packet>,
        out: &mut Vec<ProcessedPacket>,
    ) {
        match &self.sbox {
            None => {
                out.clear();
                for p in packets.drain(..) {
                    out.push(self.process(p));
                }
            }
            Some(sbox) => self.worker_wall += self.lane.batch(sbox, packets, out),
        }
        self.sync_pool_telemetry();
    }

    /// Runs a sequence of packets, collecting statistics (with per-stage
    /// totals on ONVM, covering only this run so warmup runs don't skew
    /// the pipelined rate). Processes in batches of the configured
    /// [`SboxConfig::batch_size`] (per-packet when 1 or when SpeedyBox is
    /// off); results are identical at any batch size.
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

    /// [`Chain::run`] in batches of `batch_size`.
    fn run_batched(
        &mut self,
        packets: impl IntoIterator<Item = Packet>,
        batch_size: usize,
    ) -> RunStats {
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
        let (stages, workers) = self.lane.ledger.totals();
        let (stages_before, workers_before) = (stages.to_vec(), workers.to_vec());
        let wall_before = self.worker_wall;
        let mut stats = RunStats::default();
        body(self, &mut stats);
        let delta = |now: &[u64], before: &[u64]| -> Vec<u64> {
            now.iter().zip(before).map(|(a, b)| a - b).collect()
        };
        let (stages, workers) = self.lane.ledger.totals();
        stats.stage_cycles = delta(stages, &stages_before);
        stats.worker_cycles = delta(workers, &workers_before);
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
