//! The SpeedyBox runtime: classifier + Global MAT + instrumentation,
//! shared by every execution environment.
//!
//! The per-packet step that strings these together lives in
//! [`crate::chain`], whose [`Platform`](crate::chain::Platform) holds the
//! platform-specific costs (module hops vs. ring hops, pipelined vs.
//! run-to-completion rate); the building blocks of steering, recording,
//! consolidation and fast-path execution are here.

use std::sync::Arc;

use speedybox_mat::parallel::schedule_latency;
use speedybox_mat::{
    AdmissionPolicy, EventTable, GlobalMat, LocalMat, NfId, NfInstrument, OpCounter, PacketClass,
    PacketClassifier, FID_SPACE,
};
use speedybox_nf::{Nf, NfContext};
use speedybox_packet::{Fid, Packet};
use speedybox_telemetry::Telemetry;

use crate::cycles::CycleModel;

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
    /// Fast-path batch size: environments classify and process packets in
    /// groups of this many, amortizing one table-lock acquisition per
    /// shard per batch. `1` (the default) is the per-packet path; results
    /// are identical at any batch size — only lock traffic changes.
    pub batch_size: usize,
    /// Flow/rule table shard count for the classifier and the Global MAT
    /// (rounded up to a power of two). Sharding never changes results —
    /// only lock granularity under concurrency.
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
    /// Bound on live flow-table entries (classifier) and installed rules
    /// (Global MAT). `0` means unbounded; the default is the full 20-bit
    /// FID space — one slot per possible FID, i.e. never full in practice.
    /// When the classifier is full, [`SboxConfig::admission`] decides the
    /// newcomer's fate; a capacity eviction tears the victim's state down
    /// everywhere (classifier, Global MAT, Local MATs, Event Table).
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
    /// Consolidated fast-path rules. Shared for the same reason as
    /// [`SpeedyBox::classifier`].
    pub global: Arc<GlobalMat>,
    /// One instrumentation handle per NF, chain order.
    pub instruments: Vec<NfInstrument>,
    /// Active optimizations.
    pub config: SboxConfig,
    /// Live telemetry hub. The classifier, Global MAT and Event Table all
    /// sink into this same instance; environments additionally record
    /// per-packet outcomes (path mix, latency, op totals) into it.
    pub telemetry: Arc<Telemetry>,
}

impl SpeedyBox {
    /// Creates SpeedyBox state for a chain of `nf_count` NFs.
    #[must_use]
    pub fn new(nf_count: usize, config: SboxConfig) -> Self {
        let locals: Vec<Arc<LocalMat>> =
            (0..nf_count).map(|i| Arc::new(LocalMat::new(NfId::new(i)))).collect();
        let telemetry = Arc::new(Telemetry::new(config.shards));
        let global = Arc::new(
            GlobalMat::with_limits(locals.clone(), config.shards, config.max_flows)
                .with_telemetry(Arc::clone(&telemetry))
                .with_compiled(config.compiled),
        );
        let events: Arc<EventTable> = Arc::clone(global.events());
        let instruments =
            locals.iter().map(|l| NfInstrument::new(Arc::clone(l), Arc::clone(&events))).collect();
        let mut classifier =
            PacketClassifier::with_limits(config.shards, config.max_flows, config.admission)
                .with_telemetry(Arc::clone(&telemetry));
        // Capacity evictions must not strand fast-path state: the hook
        // tears the victim down across the Global MAT, Local MATs and
        // Event Table, mirroring FIN teardown (NFs are not notified — the
        // flow did not close; its state simply stops being accelerated).
        classifier = classifier.with_evictor({
            let global = Arc::clone(&global);
            Arc::new(move |fid| global.remove_flow(fid))
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

    /// Tears down a closed flow across all tables.
    pub fn remove_flow(&self, fid: Fid) {
        self.global.remove_flow(fid);
        self.classifier.remove_flow(fid);
    }

    /// Expires flows idle for more than `max_idle` classifier ticks and
    /// tears down their rules everywhere. Returns how many flows were
    /// reclaimed. Call periodically (e.g. every few thousand packets) to
    /// bound table growth under UDP or half-open TCP traffic.
    pub fn expire_idle_flows(&self, max_idle: u64) -> usize {
        let expired = self.classifier.expire_idle(max_idle);
        for fid in &expired {
            self.global.remove_flow(*fid);
        }
        expired.len()
    }

    /// Force-evicts the `k` least-recently-seen flows with full teardown
    /// (the sim harness's `evict@N` fault): classifier entry, Global MAT
    /// rule, Local MATs and Event Table — exactly what capacity-pressure
    /// LRU eviction does. Evicted flows re-record on their next packet,
    /// so packet results are unchanged. Returns how many flows were
    /// evicted.
    pub fn force_evict_flows(&self, k: usize) -> usize {
        let victims = self.classifier.evict_oldest(k);
        for fid in &victims {
            self.global.remove_flow(*fid);
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

    /// Retired (replaced but not yet reclaimed) table generations across
    /// the Global MAT and the classifier. Bounded by rule-churn frequency;
    /// see [`SpeedyBox::collect_generations`].
    #[must_use]
    pub fn pending_generations(&self) -> usize {
        self.global.pending_generations() + self.classifier.pending_generations()
    }

    /// Forces a reclamation pass over retired table generations (the sim
    /// harness's `retire@N` fault); returns how many were freed. Purely a
    /// memory operation — never changes processing results.
    pub fn collect_generations(&self) -> usize {
        self.global.collect_generations() + self.classifier.collect_generations()
    }
}

/// Result of a slow-path (or baseline) traversal.
#[derive(Debug)]
pub struct SlowPathResult {
    /// Whether the packet survived the chain.
    pub survived: bool,
    /// Model cycles spent inside each NF (instrumentation included), in
    /// chain order; NFs after a drop have zero.
    pub per_nf_cycles: Vec<u64>,
    /// Total operations performed.
    pub ops: OpCounter,
}

/// Runs a packet through the original chain. With `instruments` present the
/// NFs record their per-flow behaviour (SpeedyBox slow path); without, this
/// is the paper's uninstrumented baseline.
pub fn traverse_chain(
    nfs: &mut [Box<dyn Nf>],
    instruments: Option<&[NfInstrument]>,
    packet: &mut Packet,
    model: &CycleModel,
) -> SlowPathResult {
    let mut per_nf_cycles = Vec::with_capacity(nfs.len());
    let mut total_ops = OpCounter::default();
    let mut survived = true;
    for (i, nf) in nfs.iter_mut().enumerate() {
        if !survived {
            per_nf_cycles.push(0);
            continue;
        }
        let mut ops = OpCounter::default();
        let verdict = match instruments {
            Some(insts) => {
                let mut ctx = NfContext::instrumented(&insts[i], &mut ops);
                nf.process(packet, &mut ctx)
            }
            None => {
                let mut ctx = NfContext::baseline(&mut ops);
                nf.process(packet, &mut ctx)
            }
        };
        per_nf_cycles.push(model.cycles(&ops));
        total_ops.merge(&ops);
        survived = verdict.survives();
    }
    SlowPathResult { survived, per_nf_cycles, ops: total_ops }
}

/// Result of a fast-path execution. Per-batch cycle attribution lives in
/// the caller's [`FastPathScratch`] (`attr`), not here, so the result
/// itself is allocation-free.
#[derive(Debug)]
pub struct FastPathResult {
    /// Whether the packet survived (false = early drop).
    pub survived: bool,
    /// Total CPU work in model cycles.
    pub work_cycles: u64,
    /// Wall latency in model cycles (parallel schedule applied).
    pub latency_cycles: u64,
    /// Operations performed.
    pub ops: OpCounter,
}

/// Reusable per-worker storage for [`fast_path`] /
/// [`fast_path_cached`]: once warm, fast-path execution allocates
/// nothing per packet.
#[derive(Debug, Default)]
pub struct FastPathScratch {
    /// Per-batch modeled cycles in schedule order (internal).
    cycles: Vec<u64>,
    /// Work per state-function batch `(owning NF, cycles)` for the packet
    /// most recently executed — pipelined environments read this to
    /// attribute batch execution to worker cores. Empty after an early
    /// drop or a fast-path miss.
    pub attr: Vec<(NfId, u64)>,
}

/// Executes the consolidated fast path for a subsequent packet.
///
/// Mirrors Fig 1's subsequent-packet walkthrough: Event Table check (inside
/// `GlobalMat::prepare`), consolidated header action, then state-function
/// batches on the parallel schedule. Returns `None` if no rule is installed
/// (the caller should fall back to the slow path).
pub fn fast_path(
    sbox: &SpeedyBox,
    packet: &mut Packet,
    fid: Fid,
    model: &CycleModel,
    scratch: &mut FastPathScratch,
) -> Option<FastPathResult> {
    // Step 1: event check + rule lookup (re-consolidates if events fired).
    let mut ctl_ops = OpCounter::default();
    scratch.attr.clear();
    let rule = sbox.global.prepare(fid, &mut ctl_ops)?;
    Some(fast_path_execute(sbox, packet, fid, model, &rule, ctl_ops, scratch))
}

/// [`fast_path`] against a prefetched rule handle (see
/// [`GlobalMat::prepare_cached`](speedybox_mat::GlobalMat::prepare_cached)):
/// identical results and op accounting, but step 1's table lookups are
/// served from `cached`. Returns the result plus whether an event fired —
/// a fired event re-consolidates the rule, so the caller must treat its
/// cache entry for this FID as stale afterwards.
pub fn fast_path_cached(
    sbox: &SpeedyBox,
    packet: &mut Packet,
    fid: Fid,
    model: &CycleModel,
    cached: Option<&Arc<speedybox_mat::GlobalRule>>,
    scratch: &mut FastPathScratch,
) -> (Option<FastPathResult>, bool) {
    let mut ctl_ops = OpCounter::default();
    scratch.attr.clear();
    let (rule, fired) = sbox.global.prepare_cached(fid, cached, &mut ctl_ops);
    match rule {
        Some(rule) => {
            (Some(fast_path_execute(sbox, packet, fid, model, &rule, ctl_ops, scratch)), fired)
        }
        None => (None, fired),
    }
}

/// Steps 2-3 of the fast path, shared by the locked and cached step-1
/// variants.
#[allow(clippy::too_many_arguments)]
fn fast_path_execute(
    sbox: &SpeedyBox,
    packet: &mut Packet,
    fid: Fid,
    model: &CycleModel,
    rule: &speedybox_mat::GlobalRule,
    ctl_ops: OpCounter,
    scratch: &mut FastPathScratch,
) -> FastPathResult {
    let ctl_cycles = model.cycles(&ctl_ops);

    // Step 2: header actions — compiled micro-op program by default, the
    // interpreted walk under `--interpreted`, per-NF replay in the
    // consolidation ablation.
    let mut ha_ops = OpCounter::default();
    let cell = sbox.telemetry.shard(fid.index() as u64);
    let survived = if sbox.config.consolidate_ha {
        if sbox.config.compiled {
            cell.add_compiled_hits(1);
            rule.compiled.run(packet, &mut ha_ops).unwrap_or(false)
        } else {
            cell.add_compiled_fallbacks(1);
            rule.consolidated.apply(packet, &mut ha_ops).unwrap_or(false)
        }
    } else {
        cell.add_compiled_fallbacks(1);
        // Ablation: replay each NF's recorded header actions sequentially,
        // paying the per-NF re-parse the consolidation would have removed.
        let mut alive = true;
        for local in sbox.global.locals() {
            if !alive {
                break;
            }
            let Some(lr) = local.rule(fid) else { continue };
            for action in &lr.header_actions {
                ha_ops.parses += 1;
                if !action.apply(packet, &mut ha_ops).unwrap_or(false) {
                    alive = false;
                    break;
                }
            }
        }
        alive
    };
    let ha_cycles = model.cycles(&ha_ops);
    if !survived {
        // Early drop: short-circuits before SF dispatch and the fixed
        // forward overhead.
        let mut ops = ctl_ops;
        ops.merge(&ha_ops);
        let cycles = ctl_cycles + ha_cycles;
        return FastPathResult {
            survived: false,
            work_cycles: cycles,
            latency_cycles: cycles,
            ops,
        };
    }

    // Step 3: state-function batches, costed per batch so the Table I
    // schedule's wall latency (max per wave) can be modeled.
    scratch.cycles.clear();
    let mut sf_ops = OpCounter::default();
    for batch in &rule.batches {
        let mut ops = OpCounter::default();
        batch.execute(packet, fid, &mut ops);
        scratch.cycles.push(model.cycles(&ops));
        sf_ops.merge(&ops);
    }
    let sf_work: u64 = scratch.cycles.iter().sum();
    let sf_latency = if sbox.config.parallelize_sf {
        schedule_latency(&rule.schedule, &scratch.cycles)
    } else {
        sf_work
    };

    // Compiled dispatch is straight-line: its fixed forward overhead
    // undercuts the interpreted executor's.
    let fixed = if sbox.config.consolidate_ha && sbox.config.compiled {
        model.compiled_forward_fixed
    } else {
        model.fastpath_forward_fixed
    };
    let mut ops = ctl_ops;
    ops.merge(&ha_ops);
    ops.merge(&sf_ops);
    scratch.attr.extend(rule.batches.iter().zip(&scratch.cycles).map(|(b, &c)| (b.nf, c)));
    FastPathResult {
        survived: true,
        work_cycles: ctl_cycles + ha_cycles + sf_work + fixed,
        latency_cycles: ctl_cycles + ha_cycles + sf_latency + fixed,
        ops,
    }
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
        let model = CycleModel::new();
        let sbox = SpeedyBox::new(2, SboxConfig::default());
        let mut nfs = chain();
        let mut initial = packet(1000);
        let fid = initial.fid().unwrap();
        let res = traverse_chain(&mut nfs, Some(&sbox.instruments), &mut initial, &model);
        assert!(res.survived);
        assert_eq!(res.per_nf_cycles.len(), 2);
        let mut install_ops = OpCounter::default();
        sbox.global.install(fid, &mut install_ops);

        let mut sub = packet(1000);
        let mut scratch = FastPathScratch::default();
        let out = fast_path(&sbox, &mut sub, fid, &model, &mut scratch).unwrap();
        assert!(out.survived);
        // Latter NF's modify wins on the fast path, same as sequential.
        assert_eq!(sub.get_field(HeaderField::DstPort).unwrap().as_port(), 2222);
    }

    #[test]
    fn fast_path_without_rule_is_none() {
        let model = CycleModel::new();
        let sbox = SpeedyBox::new(1, SboxConfig::default());
        let mut p = packet(1000);
        let mut scratch = FastPathScratch::default();
        assert!(fast_path(&sbox, &mut p, Fid::new(7), &model, &mut scratch).is_none());
    }

    #[test]
    fn ha_ablation_costs_more() {
        let model = CycleModel::new();
        let mut nfs = chain();

        let consolidated = SpeedyBox::new(2, SboxConfig::default());
        let mut initial = packet(1000);
        let fid = initial.fid().unwrap();
        traverse_chain(&mut nfs, Some(&consolidated.instruments), &mut initial, &model);
        let mut ops = OpCounter::default();
        consolidated.global.install(fid, &mut ops);
        let mut scratch = FastPathScratch::default();
        let fast = fast_path(&consolidated, &mut packet(1000), fid, &model, &mut scratch).unwrap();

        let unconsolidated = SpeedyBox::new(
            2,
            SboxConfig { consolidate_ha: false, parallelize_sf: true, ..SboxConfig::default() },
        );
        let mut nfs2 = chain();
        let mut initial2 = packet(1000);
        traverse_chain(&mut nfs2, Some(&unconsolidated.instruments), &mut initial2, &model);
        let mut ops2 = OpCounter::default();
        unconsolidated.global.install(fid, &mut ops2);
        let slow =
            fast_path(&unconsolidated, &mut packet(1000), fid, &model, &mut scratch).unwrap();

        assert!(
            slow.work_cycles > fast.work_cycles,
            "per-NF replay ({}) must cost more than consolidated ({})",
            slow.work_cycles,
            fast.work_cycles
        );
        // Both produce the same packet bytes.
        let mut a = packet(1000);
        let mut b = packet(1000);
        fast_path(&consolidated, &mut a, fid, &model, &mut scratch).unwrap();
        fast_path(&unconsolidated, &mut b, fid, &model, &mut scratch).unwrap();
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
        let res = traverse_chain(&mut nfs, Some(&sbox.instruments), &mut initial, &model);
        assert!(!res.survived);
        let mut ops = OpCounter::default();
        sbox.global.install(fid, &mut ops);
        let mut scratch = FastPathScratch::default();
        let out = fast_path(&sbox, &mut packet(1000), fid, &model, &mut scratch).unwrap();
        assert!(!out.survived);
        assert!(scratch.attr.is_empty(), "early drop leaves no batch attribution");
        // Early drop must be cheaper than the forward fixed overhead path.
        assert!(out.work_cycles < model.mat_lookup + model.fastpath_forward_fixed + 500);
    }

    #[test]
    fn sf_parallelism_reduces_latency_not_work() {
        use speedybox_mat::state_fn::PayloadAccess;
        use speedybox_nf::synthetic::SyntheticSf;

        let model = CycleModel::new();
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
            let mut nfs = mk_chain();
            let mut initial = packet(1000);
            let fid = initial.fid().unwrap();
            traverse_chain(&mut nfs, Some(&sbox.instruments), &mut initial, &model);
            let mut ops = OpCounter::default();
            sbox.global.install(fid, &mut ops);
            fast_path(&sbox, &mut packet(1000), fid, &model, &mut FastPathScratch::default())
                .unwrap()
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
        let model = CycleModel::new();
        let mut nfs: Vec<Box<dyn Nf>> = vec![Box::new(SyntheticNf::forward("a"))];
        let mut p = packet(1000);
        let fid = p.fid().unwrap();
        traverse_chain(&mut nfs, Some(&sbox.instruments), &mut p, &model);
        let mut ops = OpCounter::default();
        sbox.global.install(fid, &mut ops);
        assert!(sbox.global.contains(fid));
        sbox.remove_flow(fid);
        assert!(!sbox.global.contains(fid));
        notify_flow_closed(&mut nfs, fid);
    }
}
