//! The SpeedyBox runtime: classifier + Global MAT + instrumentation,
//! shared by every execution environment.
//!
//! The per-packet step that strings these together lives in
//! [`crate::chain`]; the building blocks of steering, recording,
//! consolidation and fast-path execution are here. They count operations
//! and price nothing: the lane's ledger in [`crate::cycles`] prices each
//! finished packet under its [`Platform`](crate::chain::Platform)'s costs
//! (module hops vs. ring hops, pipelined vs. run-to-completion rate).

use std::borrow::Cow;
use std::sync::Arc;

use speedybox_mat::{
    AdmissionPolicy, EventTable, FlowRecord, FlowTable, GlobalMat, GlobalRule, LocalMat, NfId,
    NfInstrument, OpCounter, PacketClass, PacketClassifier, FID_SPACE,
};
use speedybox_nf::{Nf, NfContext};
use speedybox_packet::{Fid, Packet};
use speedybox_telemetry::{LaneCounters, Telemetry};

use crate::cycles::Counted;

/// Which SpeedyBox optimizations are active — the Fig 7 ablation knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SboxConfig {
    /// Consolidate header actions into one (R1-R3 elimination). When off,
    /// the fast path replays each NF's recorded header actions one by one,
    /// paying per-NF parse + checksum costs.
    pub consolidate_ha: bool,
    /// Execute state-function batches on the Table I parallel schedule.
    /// When off, batches run strictly sequentially.
    pub parallelize_sf: bool,
    /// Use the paper's §III initial-packet definition: TCP handshake
    /// packets traverse the original chain without recording, and the
    /// first post-handshake packet records the flow's rule. Off by
    /// default.
    pub handshake_aware: bool,
    /// Packets per batch: environments hand packets to the chain in groups
    /// of this many, each packet classified and stepped in order, and a
    /// batch shares one idle-eviction tick, one pool sync and one modeled
    /// worker-wall interval. `1` (the default) is a batch per packet;
    /// results are identical at any batch size.
    pub batch_size: usize,
    /// Shard count of the flow table the classifier and the Global MAT
    /// share (rounded up to a power of two). Sharding never changes
    /// results — only lock granularity under concurrency.
    pub shards: usize,
    /// Execute consolidated header actions as compiled micro-op programs
    /// (default). When off (`--interpreted`), the fast path walks the
    /// [`ConsolidatedAction`](speedybox_mat::ConsolidatedAction) vectors
    /// per packet instead — same packet bytes, higher per-packet cost.
    pub compiled: bool,
    /// Number of symmetric run-to-completion workers (rounded up to a
    /// power of two). Each worker owns the FID slice
    /// `fid & (workers - 1) == worker_index` (RSS-style steering) and
    /// drives classify → consolidated-apply → telemetry to completion for
    /// its slice of every batch. Per-flow packet order is preserved (same
    /// flow → same worker, slice order within the worker), so results are
    /// identical at any worker count — only the work partition changes.
    /// `1` (the default) is the single-path mode.
    pub workers: usize,
    /// Bound on live flow records, each holding its flow's classifier
    /// state and installed rule. `0` means unbounded; the default is the
    /// full 20-bit FID space — one slot per possible FID, i.e. never full
    /// in practice. When the table is full, [`SboxConfig::admission`]
    /// decides the newcomer's fate; a capacity eviction tears the victim's
    /// record down, with its rule, recordings and armed events.
    pub max_flows: usize,
    /// Idle-flow timeout in classifier clock ticks (one tick per
    /// classified packet). Flows with no traffic for more than this many
    /// ticks are reclaimed at batch boundaries. `0` (the default)
    /// disables timeout eviction — flows are reclaimed only by FIN/RST
    /// teardown or capacity pressure.
    pub idle_timeout: u64,
    /// What happens to a *new* flow when the table is at `max_flows`:
    /// evict the least-recently-seen flow to make room (default), or
    /// reject the newcomer (it rides the original chain, uninstrumented).
    pub admission: AdmissionPolicy,
    /// Retention bound of the chain's packet-buffer pool (idle buffers the
    /// depot keeps for reuse). Pooling never changes processing results —
    /// only where buffers come from; an exhausted pool falls back to heap
    /// allocation, counted in the `pool_misses` telemetry counter.
    pub pool_buffers: usize,
    /// Chain-consistent checkpoint interval in packets for the NF
    /// crash/restart supervisor. `0` (the default) disables supervision —
    /// no snapshots are taken, no in-flight log is kept, and the data path
    /// stays allocation-free. When non-zero, every NF's state is
    /// checkpointed at one packet boundary every this-many packets (or
    /// sooner if the in-flight log hits its bound), and `kill_nf` can roll
    /// the chain back to the checkpoint and replay the log.
    pub checkpoint_interval: u64,
}

impl Default for SboxConfig {
    fn default() -> Self {
        Self {
            consolidate_ha: true,
            parallelize_sf: true,
            handshake_aware: false,
            batch_size: 1,
            shards: speedybox_mat::classifier::DEFAULT_CLASSIFIER_SHARDS,
            compiled: true,
            workers: 1,
            max_flows: FID_SPACE,
            idle_timeout: 0,
            admission: AdmissionPolicy::EvictOldest,
            pool_buffers: speedybox_packet::DEFAULT_POOL_BUFFERS,
            checkpoint_interval: 0,
        }
    }
}

impl SboxConfig {
    /// The effective worker count: at least 1, rounded up to a power of
    /// two so a worker's FID slice is a mask.
    #[must_use]
    pub fn worker_count(&self) -> usize {
        self.workers.max(1).next_power_of_two()
    }
}

/// The per-chain SpeedyBox state.
#[derive(Debug)]
pub struct SpeedyBox {
    /// Packet classifier (FID assignment + steering). Shared (`Arc`) so
    /// concurrent harnesses — e.g. the simulation fault plan's install/
    /// remove churn thread — can hold a handle while the owning
    /// environment keeps processing packets.
    pub classifier: Arc<PacketClassifier>,
    /// Consolidated fast-path rules, kept in the flow records of the one
    /// flow table the classifier also steers from. Shared for the same
    /// reason as [`SpeedyBox::classifier`].
    pub global: Arc<GlobalMat>,
    /// One instrumentation handle per NF, chain order.
    pub instruments: Vec<NfInstrument>,
    /// Active optimizations.
    pub config: SboxConfig,
    /// Live telemetry hub. The classifier, Global MAT and Event Table all
    /// sink into this same instance; each packet lane records per-packet
    /// outcomes (path mix, latency, op totals, fast-path hits) into a
    /// cell of it that only the lane writes.
    pub telemetry: Arc<Telemetry>,
}

impl SpeedyBox {
    /// Creates SpeedyBox state for a chain of `nf_count` NFs.
    #[must_use]
    pub fn new(nf_count: usize, config: SboxConfig) -> Self {
        let locals: Vec<Arc<LocalMat>> =
            (0..nf_count).map(|i| Arc::new(LocalMat::new(NfId::new(i)))).collect();
        let telemetry = Arc::new(Telemetry::new(config.shards));
        // One flow table: the classifier steers from its records and the
        // Global MAT keeps each flow's rule in the same record.
        let flows: Arc<FlowTable<FlowRecord>> =
            Arc::new(FlowTable::new(config.shards, config.max_flows, config.admission));
        let global = Arc::new(
            GlobalMat::sharing(locals.clone(), Arc::clone(&flows))
                .with_telemetry(Arc::clone(&telemetry))
                .with_compiled(config.compiled),
        );
        let events: Arc<EventTable> = Arc::clone(global.events());
        let instruments =
            locals.iter().map(|l| NfInstrument::new(Arc::clone(l), Arc::clone(&events))).collect();
        let mut classifier =
            PacketClassifier::sharing(flows).with_telemetry(Arc::clone(&telemetry));
        // Capacity evictions must not strand fast-path state: the evicted
        // record takes the rule, recordings and armed events with it, and
        // the hook drops whatever an unfinished walk of the victim left
        // staged (NFs are not notified — the flow did not close; its state
        // simply stops being accelerated).
        classifier = classifier.with_evictor({
            let global = Arc::clone(&global);
            Arc::new(move |fid| global.forget(fid))
        });
        if config.handshake_aware {
            classifier = classifier.handshake_aware();
        }
        Self { classifier: Arc::new(classifier), global, instruments, config, telemetry }
    }

    /// Switches the fast path between compiled and interpreted
    /// header-action execution mid-run (the simulation harness's
    /// `flip@N` fault). Safe at any packet boundary: every installed rule
    /// carries both execution forms and they produce identical bytes.
    pub fn set_compiled(&mut self, compiled: bool) {
        self.config.compiled = compiled;
        self.global.set_compiled(compiled);
    }

    /// Tears down a closed flow: one record removal, which takes the
    /// flow's rule, recordings and armed events with it. Nothing of the
    /// flow is staged: the walk that recorded it installed, and install
    /// drains the staging.
    pub fn remove_flow(&self, fid: Fid) {
        self.classifier.remove_flow(fid);
    }

    /// Expires flows idle for more than `max_idle` classifier ticks and
    /// tears them down: their records, and any unfinished walk's staging.
    /// Returns how many flows were reclaimed. Call periodically (e.g.
    /// every few thousand packets) to bound table growth under UDP or
    /// half-open TCP traffic.
    pub fn expire_idle_flows(&self, max_idle: u64) -> usize {
        let expired = self.classifier.expire_idle(max_idle);
        for fid in &expired {
            self.global.forget(*fid);
        }
        expired.len()
    }

    /// Force-evicts the `k` least-recently-seen flows with full teardown
    /// (the sim harness's `evict@N` fault, and `kill_nf`'s sweep): the
    /// record with its rule, recordings and armed events, and any
    /// unfinished walk's staging — exactly what capacity-pressure LRU
    /// eviction does.
    /// Evicted flows re-record on their next packet, so packet results are
    /// unchanged. Returns how many flows were evicted.
    pub fn force_evict_flows(&self, k: usize) -> usize {
        let victims = self.classifier.evict_oldest(k);
        for fid in &victims {
            self.global.forget(*fid);
        }
        victims.len()
    }

    /// Batch-boundary idle-eviction tick: when [`SboxConfig::idle_timeout`]
    /// is enabled and the classifier clock has passed the earliest
    /// possible expiry deadline, sweeps idle flows out of every table.
    /// O(1) when nothing can be due (one atomic clock read plus the
    /// wheel's cached lower bound), so environments call it once per
    /// batch unconditionally. Returns how many flows were reclaimed.
    pub fn tick_idle_eviction(&self) -> usize {
        let max_idle = self.config.idle_timeout;
        if max_idle == 0 {
            return 0;
        }
        // An entry last touched at tick `t` expires once `now - t >
        // max_idle`; `next_expiry_due` lower-bounds the earliest touch
        // deadline, so nothing can be due before `due + max_idle + 1`.
        let now = self.classifier.clock();
        if now <= self.classifier.next_expiry_due().saturating_add(max_idle) {
            return 0;
        }
        self.expire_idle_flows(max_idle)
    }

    /// Retired (replaced but not yet reclaimed) flow records. Bounded by
    /// rule-churn frequency; see [`SpeedyBox::collect_generations`].
    #[must_use]
    pub fn pending_generations(&self) -> usize {
        self.global.pending_generations()
    }

    /// Forces a reclamation pass over retired flow records (the sim
    /// harness's `retire@N` fault); returns how many were freed. Purely a
    /// memory operation — never changes processing results.
    pub fn collect_generations(&self) -> usize {
        self.global.collect_generations()
    }
}

/// What a walk through the NFs counted (slow path or baseline).
#[derive(Debug, Clone, Copy)]
pub struct SlowPathResult {
    /// Whether the packet survived the chain.
    pub survived: bool,
    /// NFs reached that counted any operation, up to the NF that dropped
    /// the packet; each costs its platform a module or ring hop.
    pub reached: u64,
    /// Total operations performed, instrumentation included.
    pub ops: OpCounter,
}

impl SlowPathResult {
    /// A walk that has not reached any NF yet.
    pub(crate) fn new() -> Self {
        Self { survived: true, reached: 0, ops: OpCounter::default() }
    }

    /// What the ledger needs to price this walk: `manager` ran on the
    /// manager core, and the walk `installed` the flow's rule.
    pub(crate) fn counted(&self, manager: OpCounter, installed: bool) -> Counted<'static> {
        Counted::Walk { survived: self.survived, reached: self.reached, manager, installed }
    }
}

/// Runs a packet through the original chain. With `instruments` present the
/// NFs record their per-flow behaviour (SpeedyBox slow path); without, this
/// is the paper's uninstrumented baseline. `per_nf` (cleared first) gets
/// each NF's operations, in chain order, up to the NF that dropped the
/// packet.
pub fn traverse_chain(
    nfs: &mut [Box<dyn Nf>],
    instruments: Option<&[NfInstrument]>,
    packet: &mut Packet,
    per_nf: &mut Vec<OpCounter>,
) -> SlowPathResult {
    per_nf.clear();
    let mut res = SlowPathResult::new();
    for (i, nf) in nfs.iter_mut().enumerate() {
        let instrument = instruments.map(|insts| &insts[i]);
        per_nf.push(nf_step(nf.as_mut(), instrument, packet, &mut res));
        if !res.survived {
            break;
        }
    }
    res
}

/// One NF of a walk: runs `nf` on `packet` — recording through
/// `instrument` if given — adds its operations to `res`, and returns them.
/// [`traverse_chain`] takes a packet through a whole chain with it, and
/// each of the threaded runtime's NF threads through its own NF.
#[inline]
pub(crate) fn nf_step(
    nf: &mut dyn Nf,
    instrument: Option<&NfInstrument>,
    packet: &mut Packet,
    res: &mut SlowPathResult,
) -> OpCounter {
    let mut ops = OpCounter::default();
    let verdict = match instrument {
        Some(inst) => nf.process(packet, &mut NfContext::instrumented(inst, &mut ops)),
        None => nf.process(packet, &mut NfContext::baseline(&mut ops)),
    };
    if ops != OpCounter::default() {
        res.reached += 1;
    }
    res.ops.merge(&ops);
    res.survived = verdict.survives();
    ops
}

/// Result of a fast-path execution.
#[derive(Debug)]
pub struct FastPathResult<'r> {
    /// Whether the packet survived (false = early drop).
    pub survived: bool,
    /// Operations performed.
    pub ops: OpCounter,
    /// The rule served: borrowed from the caller's record, or the flow's
    /// current rule if an armed condition triggered and the record may
    /// have been republished.
    pub rule: Cow<'r, Arc<GlobalRule>>,
}

impl FastPathResult<'_> {
    /// What the ledger needs to price this packet under `config`.
    pub(crate) fn counted(&self, config: &SboxConfig) -> Counted<'_> {
        Counted::Fast {
            survived: self.survived,
            compiled: config.consolidate_ha && config.compiled,
            parallel: config.parallelize_sf,
            rule: &self.rule,
        }
    }
}

/// Executes the consolidated fast path for a subsequent packet from its
/// flow's record, as the classifier found it.
///
/// Mirrors Fig 1's subsequent-packet walkthrough: the rule's armed event
/// conditions (inside [`GlobalMat::serve`]), consolidated header action,
/// then state-function batches, each counting into its own entry of
/// `batches` (cleared first; empty after an early drop). Returns `None` if
/// no rule is installed (the caller should fall back to the slow path).
/// The lookup's hit or miss and the compiled hit or fallback count in
/// `counters`, the calling lane's own cell.
pub fn fast_path<'r>(
    sbox: &SpeedyBox,
    packet: &mut Packet,
    fid: Fid,
    record: Option<&'r FlowRecord>,
    batches: &mut Vec<OpCounter>,
    counters: &mut LaneCounters,
) -> Option<FastPathResult<'r>> {
    // Step 1: event check on the record's rule (re-consolidates if an
    // event fired).
    let mut ops = OpCounter::default();
    batches.clear();
    let Some(rule) = sbox.global.serve(fid, record, &mut ops) else {
        counters.add_fastpath_misses(1);
        return None;
    };
    counters.add_fastpath_hits(1);

    // Step 2: header actions — compiled micro-op program by default, the
    // interpreted walk under `--interpreted`, per-NF replay in the
    // consolidation ablation.
    let survived = if sbox.config.consolidate_ha {
        if sbox.config.compiled {
            counters.add_compiled_hits(1);
            rule.compiled.run(packet, &mut ops).unwrap_or(false)
        } else {
            counters.add_compiled_fallbacks(1);
            rule.interpret(packet, &mut ops).unwrap_or(false)
        }
    } else {
        counters.add_compiled_fallbacks(1);
        // Ablation: replay each NF's recorded header actions, kept in the
        // rule's template, sequentially, paying the per-NF re-parse the
        // consolidation would have removed.
        rule.replay(packet, &mut ops)
    };

    // Step 3: state-function batches, unless the packet dropped early.
    // Each batch counts apart, so its wave of the Table I schedule can be
    // priced.
    if survived {
        for batch in &rule.batches {
            let mut batch_ops = OpCounter::default();
            batch.execute(packet, fid, &mut batch_ops);
            ops.merge(&batch_ops);
            batches.push(batch_ops);
        }
    }
    Some(FastPathResult { survived, ops, rule })
}

/// Classifies a packet under SpeedyBox, returning the assigned FID, the
/// steering decision, and whether this packet closes its flow.
pub fn classify(
    sbox: &SpeedyBox,
    packet: &mut Packet,
    ops: &mut OpCounter,
) -> Result<(Fid, PacketClass, bool), speedybox_packet::PacketError> {
    let c = sbox.classifier.classify(packet, ops)?;
    Ok((c.fid, c.class, c.closes_flow))
}

/// Notifies all NFs that a flow closed.
pub fn notify_flow_closed(nfs: &mut [Box<dyn Nf>], fid: Fid) {
    for nf in nfs {
        nf.flow_closed(fid);
    }
}

/// Attaches an ingress FID for baseline runs (every environment tags packets
/// at ingress so NF per-flow state is keyed identically with and without
/// SpeedyBox; without SpeedyBox there is no steering). Cost-free: this is
/// bookkeeping of the harness, not part of the modeled baseline data path
/// (each NF already pays its own parse).
pub fn tag_ingress(packet: &mut Packet, ops: &mut OpCounter) {
    let _ = ops;
    if let Ok(t) = packet.five_tuple() {
        packet.set_fid(t.fid());
    }
}

#[cfg(test)]
mod tests {
    use speedybox_mat::HeaderAction;
    use speedybox_nf::synthetic::SyntheticNf;
    use speedybox_packet::{HeaderField, PacketBuilder};

    use super::*;
    use crate::chain::Platform;
    use crate::cycles::{CycleModel, Ledger};

    fn chain() -> Vec<Box<dyn Nf>> {
        vec![
            Box::new(
                SyntheticNf::forward("a")
                    .with_header_action(HeaderAction::modify(HeaderField::DstPort, 1111u16)),
            ),
            Box::new(
                SyntheticNf::forward("b")
                    .with_header_action(HeaderAction::modify(HeaderField::DstPort, 2222u16)),
            ),
        ]
    }

    /// A fast-path packet as a BESS ledger prices it.
    struct Fast {
        survived: bool,
        work_cycles: u64,
        latency_cycles: u64,
        /// SF batches the packet ran.
        batches: usize,
    }

    /// The fast path for `fid`'s record as the table holds it now.
    fn fast(sbox: &SpeedyBox, packet: &mut Packet, fid: Fid) -> Option<Fast> {
        let record = sbox.global.record(fid);
        let mut ledger = Ledger::new(Platform::Bess, sbox.instruments.len(), 1);
        let mut counters = sbox.telemetry.lane();
        let res =
            fast_path(sbox, packet, fid, record.as_deref(), &mut ledger.batches, &mut counters)?;
        let mut ops = res.ops;
        let (work_cycles, latency_cycles) = ledger.price(0, res.counted(&sbox.config), &mut ops);
        let batches = ledger.batches.len();
        Some(Fast { survived: res.survived, work_cycles, latency_cycles, batches })
    }

    /// Records `fid`'s flow through `nfs` with `initial` and installs its
    /// rule.
    fn record(sbox: &SpeedyBox, nfs: &mut [Box<dyn Nf>], initial: &mut Packet) -> SlowPathResult {
        let fid = initial.fid().unwrap();
        let res = traverse_chain(nfs, Some(&sbox.instruments), initial, &mut Vec::new());
        sbox.global.install(fid, &mut OpCounter::default());
        res
    }

    fn packet(src_port: u16) -> Packet {
        let mut p = PacketBuilder::tcp()
            .src(format!("10.0.0.1:{src_port}").parse().unwrap())
            .dst("10.0.0.2:80".parse().unwrap())
            .payload(b"x")
            .build();
        let fid = p.five_tuple().unwrap().fid();
        p.set_fid(fid);
        p
    }

    #[test]
    fn slow_path_records_and_fast_path_replays() {
        let sbox = SpeedyBox::new(2, SboxConfig::default());
        let mut nfs = chain();
        let mut initial = packet(1000);
        let fid = initial.fid().unwrap();
        let mut per_nf = Vec::new();
        let res = traverse_chain(&mut nfs, Some(&sbox.instruments), &mut initial, &mut per_nf);
        assert!(res.survived);
        assert_eq!((per_nf.len(), res.reached), (2, 2));
        let mut total = OpCounter::default();
        per_nf.iter().for_each(|ops| total.merge(ops));
        assert_eq!(total, res.ops, "the walk's total is its NFs' sum");
        sbox.global.install(fid, &mut OpCounter::default());

        let mut sub = packet(1000);
        let out = fast(&sbox, &mut sub, fid).unwrap();
        assert!(out.survived);
        // Latter NF's modify wins on the fast path, same as sequential.
        assert_eq!(sub.get_field(HeaderField::DstPort).unwrap().as_port(), 2222);
    }

    #[test]
    fn fast_path_without_rule_is_none() {
        let sbox = SpeedyBox::new(1, SboxConfig::default());
        let mut p = packet(1000);
        assert!(fast(&sbox, &mut p, Fid::new(7)).is_none());
    }

    #[test]
    fn ha_ablation_costs_more() {
        let fid = packet(1000).fid().unwrap();
        let consolidated = SpeedyBox::new(2, SboxConfig::default());
        record(&consolidated, &mut chain(), &mut packet(1000));
        let merged = fast(&consolidated, &mut packet(1000), fid).unwrap();

        let unconsolidated = SpeedyBox::new(
            2,
            SboxConfig { consolidate_ha: false, parallelize_sf: true, ..SboxConfig::default() },
        );
        record(&unconsolidated, &mut chain(), &mut packet(1000));
        let slow = fast(&unconsolidated, &mut packet(1000), fid).unwrap();

        assert!(
            slow.work_cycles > merged.work_cycles,
            "per-NF replay ({}) must cost more than consolidated ({})",
            slow.work_cycles,
            merged.work_cycles
        );
        // Both produce the same packet bytes.
        let mut a = packet(1000);
        let mut b = packet(1000);
        fast(&consolidated, &mut a, fid).unwrap();
        fast(&unconsolidated, &mut b, fid).unwrap();
        assert_eq!(a.as_bytes(), b.as_bytes());
    }

    #[test]
    fn drop_rule_short_circuits_fast_path() {
        let model = CycleModel::new();
        let sbox = SpeedyBox::new(1, SboxConfig::default());
        let mut nfs: Vec<Box<dyn Nf>> =
            vec![Box::new(SyntheticNf::forward("d").with_header_action(HeaderAction::Drop))];
        let mut initial = packet(1000);
        let fid = initial.fid().unwrap();
        let res = record(&sbox, &mut nfs, &mut initial);
        assert!(!res.survived);
        let out = fast(&sbox, &mut packet(1000), fid).unwrap();
        assert!(!out.survived);
        assert_eq!(out.batches, 0, "early drop runs no state-function batch");
        // Early drop must be cheaper than the forward fixed overhead path.
        assert!(out.work_cycles < model.mat_lookup + model.fastpath_forward_fixed + 500);
    }

    #[test]
    fn sf_parallelism_reduces_latency_not_work() {
        use speedybox_mat::state_fn::PayloadAccess;
        use speedybox_nf::synthetic::SyntheticSf;

        let mk_chain = || -> Vec<Box<dyn Nf>> {
            (0..3)
                .map(|i| {
                    Box::new(SyntheticNf::forward(format!("s{i}")).with_state_function(
                        SyntheticSf { access: PayloadAccess::Read, scan_passes: 50 },
                    )) as Box<dyn Nf>
                })
                .collect()
        };

        let run = |cfg: SboxConfig| {
            let sbox = SpeedyBox::new(3, cfg);
            let mut initial = packet(1000);
            let fid = initial.fid().unwrap();
            record(&sbox, &mut mk_chain(), &mut initial);
            fast(&sbox, &mut packet(1000), fid).unwrap()
        };

        let par = run(SboxConfig::default());
        let seq = run(SboxConfig {
            consolidate_ha: true,
            parallelize_sf: false,
            ..SboxConfig::default()
        });
        assert_eq!(par.work_cycles, seq.work_cycles, "parallelism is free work-wise");
        assert!(
            par.latency_cycles < seq.latency_cycles,
            "parallel latency {} must beat sequential {}",
            par.latency_cycles,
            seq.latency_cycles
        );
    }

    #[test]
    fn flow_removal_cleans_up() {
        let sbox = SpeedyBox::new(1, SboxConfig::default());
        let mut nfs: Vec<Box<dyn Nf>> = vec![Box::new(SyntheticNf::forward("a"))];
        let mut p = packet(1000);
        let fid = p.fid().unwrap();
        record(&sbox, &mut nfs, &mut p);
        assert!(sbox.global.contains(fid));
        sbox.remove_flow(fid);
        assert!(!sbox.global.contains(fid));
        notify_flow_closed(&mut nfs, fid);
    }
}
