//! Differential execution: the consolidated runtime vs the reference
//! oracle over one scenario, with scripted faults fired at packet
//! boundaries.
//!
//! The comparison is per-packet — drop decision and exact output frame
//! bytes — plus an end-of-run sweep over the NFs' observable state
//! (monitor counters, NAT mappings, Maglev connection tracking, Snort
//! alert log). One asymmetry is *excused* rather than reported: the
//! paper's Event Table fires a condition when the **next** packet of the
//! flow is prepared, so state-dependent drops (DoS block) land one packet
//! later on the fast path than on the literal baseline. When the oracle
//! drops and the SUT forwards a fast-path packet, the runner re-probes
//! the flow's rule through `GlobalMat::prepare`; if the freshly
//! event-checked rule now drops, the mismatch is the documented
//! one-packet lag, counted in [`RunOutcome::excused_lag`] and tolerated
//! in the counter sweep. The reverse direction (oracle forwards, SUT
//! drops) is never excused.

use std::collections::HashSet;
use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use speedybox_mat::OpCounter;
use speedybox_packet::{Fid, FiveTuple, Packet, Protocol};
use speedybox_platform::chains::{build_chain_hooks, ChainHooks};
use speedybox_platform::metrics::{PathKind, ProcessedPacket};
use speedybox_platform::runtime::{SboxConfig, SpeedyBox};
use speedybox_platform::{Chain, Platform};

use crate::fault::{Fault, FaultPlan};
use crate::oracle::{Oracle, OracleVerdict};
use crate::scenario::TraceItem;

/// Deliberately seeded SUT bugs, for validating that the harness catches
/// and shrinks real defects (mutation testing of the referee itself).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BugKind {
    /// Emulate a consolidation that forgets the trailing IPv4 checksum
    /// fix-up: the checksum of every fast-path output frame is zeroed.
    SkipChecksumFix,
    /// Emulate an eviction that leaves the victim's recordings staged
    /// (the §VI-B hazard): the record goes, but the header actions and
    /// state functions its rule held stay in the Local MATs, as if install
    /// had copied them instead of moving them and the teardown skipped the
    /// staging. The flow's next packet re-records on the slow path on top
    /// of them, and the doubled recordings corrupt the re-consolidated
    /// rule.
    EvictOrdering,
    /// Emulate a recovery that rolls the chain back to its checkpoint but
    /// "forgets" to replay the in-flight log: every packet processed since
    /// the last checkpoint vanishes from NF state, which the end-of-run
    /// counter sweep must flag.
    SkipSnapshotReplay,
}

impl BugKind {
    /// Canonical name.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            BugKind::SkipChecksumFix => "skip-checksum-fix",
            BugKind::EvictOrdering => "evict-ordering",
            BugKind::SkipSnapshotReplay => "skip-snapshot-replay",
        }
    }

    /// Parses a name produced by [`BugKind::as_str`].
    ///
    /// # Errors
    /// Unknown names.
    pub fn parse(text: &str) -> Result<Self, String> {
        match text {
            "skip-checksum-fix" => Ok(BugKind::SkipChecksumFix),
            "evict-ordering" => Ok(BugKind::EvictOrdering),
            "skip-snapshot-replay" => Ok(BugKind::SkipSnapshotReplay),
            other => Err(format!(
                "unknown bug {other:?} (expected skip-checksum-fix|evict-ordering|skip-snapshot-replay)"
            )),
        }
    }
}

/// A fully self-contained, replayable simulation case.
#[derive(Debug, Clone)]
pub struct SimCase {
    /// Registry chain name.
    pub chain: String,
    /// Platform emulation.
    pub env: Platform,
    /// Start in compiled (micro-op) or interpreted rule execution.
    pub compiled: bool,
    /// Packets per `process_batch_into` call; 1 means the per-packet path.
    pub batch: usize,
    /// Symmetric run-to-completion workers (rounded up to a power of two
    /// by the runtime); 1 is the single-path default. Results must be
    /// identical at any count — the worker sweep proves it.
    pub workers: usize,
    /// Scenario seed (informational once `items` are materialized).
    pub seed: u64,
    /// Flow-table bound for the SUT (`SboxConfig::max_flows`); 0 means
    /// unbounded. Small values put the run under constant capacity-evict
    /// pressure: installs displace the least-recently-used flow, which
    /// must stay byte-equivalent (the displaced flow re-records through
    /// the slow path).
    pub max_flows: usize,
    /// Seeded SUT bug, if any.
    pub bug: Option<BugKind>,
    /// The packet trace.
    pub items: Vec<TraceItem>,
    /// The fault plan.
    pub faults: FaultPlan,
}

/// What kind of disagreement was observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DivergenceKind {
    /// One side dropped (or rejected) a packet the other forwarded.
    Verdict,
    /// Both forwarded, but the output frames differ.
    Bytes,
    /// Per-packet behaviour matched but end-of-run NF state did not.
    Counters,
}

impl DivergenceKind {
    /// Canonical name.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            DivergenceKind::Verdict => "verdict",
            DivergenceKind::Bytes => "bytes",
            DivergenceKind::Counters => "counters",
        }
    }
}

/// A reported divergence.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// Index into the (possibly shrunk) `items` of the offending packet;
    /// for counter divergences, the last packet index.
    pub index: usize,
    /// Original-trace index of that packet.
    pub orig: usize,
    /// Category.
    pub kind: DivergenceKind,
    /// Human-readable evidence (verdicts, hex frames, counter values).
    pub detail: String,
}

/// The outcome of one differential run.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// First divergence, if any.
    pub divergence: Option<Divergence>,
    /// Packets both sides delivered.
    pub delivered: usize,
    /// Packets both sides dropped.
    pub dropped: usize,
    /// Frames both sides rejected at parse.
    pub rejected: usize,
    /// Oracle-dropped packets the SUT forwarded under the documented
    /// one-packet Event Table lag.
    pub excused_lag: usize,
    /// FNV-1a hash over the SUT's verdict/output stream (stable across
    /// runs of the same case).
    pub output_hash: u64,
}

/// The install/remove churn thread: hammers the Global MAT from a second
/// thread on FIDs provably disjoint from the trace, exercising shard
/// locking and rule-handle lifetime without perturbing packet semantics.
struct Churn {
    stop: Arc<AtomicBool>,
    handle: std::thread::JoinHandle<u64>,
}

impl Churn {
    fn start(sbox: &SpeedyBox, avoid: &HashSet<u32>) -> Self {
        let mut tuples = Vec::new();
        'search: for x in 0..=255u8 {
            for y in 1..=254u8 {
                let t = FiveTuple::new(
                    Ipv4Addr::new(10, 250, x, y),
                    7777,
                    Ipv4Addr::new(10, 250, 255, 254),
                    9999,
                    Protocol::Tcp,
                );
                if !avoid.contains(&t.fid().value()) {
                    tuples.push(t);
                    if tuples.len() == 8 {
                        break 'search;
                    }
                }
            }
        }
        let global = Arc::clone(&sbox.global);
        let stop = Arc::new(AtomicBool::new(false));
        let thread_stop = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let mut ops = OpCounter::default();
            let mut rounds = 0u64;
            while !thread_stop.load(Ordering::Relaxed) {
                for t in &tuples {
                    let fid = t.fid();
                    global.install(fid, &mut ops);
                    let _ = global.rule(fid);
                    global.remove_flow(fid);
                }
                rounds += 1;
                std::thread::yield_now();
            }
            rounds
        });
        Self { stop, handle }
    }

    fn stop(self) -> u64 {
        self.stop.store(true, Ordering::Relaxed);
        self.handle.join().unwrap_or(0)
    }
}

/// Mutable per-run state threaded through the fault/flush machinery.
struct RunState {
    delivered: usize,
    dropped: usize,
    rejected: usize,
    excused: usize,
    hash: u64,
    compiled_now: bool,
    pending_remove: bool,
    churn: Option<Churn>,
}

impl RunState {
    fn hash_byte(&mut self, b: u8) {
        self.hash ^= u64::from(b);
        self.hash = self.hash.wrapping_mul(0x0100_0000_01b3);
    }

    fn hash_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.hash_byte(b);
        }
    }
}

/// Renders bytes as lowercase hex.
#[must_use]
pub fn hex_encode(bytes: &[u8]) -> String {
    let mut s = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        s.push_str(&format!("{b:02x}"));
    }
    s
}

/// Parses lowercase/uppercase hex back to bytes.
///
/// # Errors
/// Odd length or non-hex characters.
pub fn hex_decode(text: &str) -> Result<Vec<u8>, String> {
    if !text.len().is_multiple_of(2) {
        return Err("odd-length hex".into());
    }
    (0..text.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&text[i..i + 2], 16).map_err(|e| e.to_string()))
        .collect()
}

/// Runs one case to completion (or first divergence).
///
/// # Errors
/// Unknown chain name.
#[allow(clippy::too_many_lines)]
pub fn run_case(case: &SimCase) -> Result<RunOutcome, String> {
    let (oracle_nfs, oracle_hooks) = build_chain_hooks(&case.chain)?;
    let mut oracle = Oracle::new(oracle_nfs);
    let (sut_nfs, sut_hooks) = build_chain_hooks(&case.chain)?;
    let batch_cap = case.batch.max(1);
    let mut config = SboxConfig {
        compiled: case.compiled,
        batch_size: batch_cap,
        workers: case.workers.max(1),
        ..SboxConfig::default()
    };
    if case.max_flows > 0 {
        config.max_flows = case.max_flows;
    }
    // NF crash/restart verbs need supervision: a small interval keeps the
    // in-flight log (and therefore every kill's replay) non-trivial.
    let has_nf_faults = case
        .faults
        .faults
        .iter()
        .any(|f| matches!(f.fault, Fault::KillNf(_) | Fault::RecoverNf(_) | Fault::Snapshot));
    if has_nf_faults {
        config.checkpoint_interval = 32;
    }
    let mut sut = Chain::speedybox_with(sut_nfs, config).with_platform(case.env);

    // Every FID the trace can touch, so churn provably stays disjoint.
    let used_fids: HashSet<u32> = case
        .items
        .iter()
        .filter_map(|i| Packet::from_frame(&i.frame).ok())
        .filter_map(|p| p.five_tuple().ok().map(|t| t.fid().value()))
        .collect();

    let mut st = RunState {
        delivered: 0,
        dropped: 0,
        rejected: 0,
        excused: 0,
        hash: 0xcbf2_9ce4_8422_2325,
        compiled_now: case.compiled,
        pending_remove: false,
        churn: None,
    };

    let mut divergence: Option<Divergence> = None;
    let mut pending: Vec<(usize, TraceItem)> = Vec::new();
    let mut fault_cursor = 0usize;
    let faults = &case.faults.faults;

    for (idx, item) in case.items.iter().enumerate() {
        while fault_cursor < faults.len() && faults[fault_cursor].at <= item.orig {
            if divergence.is_none() {
                divergence = flush(&mut pending, &mut sut, &mut oracle, &mut st, case, batch_cap);
            }
            apply_fault(
                &faults[fault_cursor].fault,
                &mut sut,
                &oracle_hooks,
                &sut_hooks,
                &mut st,
                &used_fids,
                case.bug,
            );
            fault_cursor += 1;
        }
        if divergence.is_some() {
            break;
        }
        pending.push((idx, item.clone()));
        if pending.len() >= batch_cap {
            divergence = flush(&mut pending, &mut sut, &mut oracle, &mut st, case, batch_cap);
            if divergence.is_some() {
                break;
            }
        }
    }
    if divergence.is_none() {
        divergence = flush(&mut pending, &mut sut, &mut oracle, &mut st, case, batch_cap);
    }
    // Remaining faults past the last packet (e.g. the churn window's end).
    while fault_cursor < faults.len() {
        apply_fault(
            &faults[fault_cursor].fault,
            &mut sut,
            &oracle_hooks,
            &sut_hooks,
            &mut st,
            &used_fids,
            case.bug,
        );
        fault_cursor += 1;
    }
    if let Some(churn) = st.churn.take() {
        churn.stop();
    }

    if divergence.is_none() {
        divergence = compare_hooks(&oracle_hooks, &sut_hooks, &st, case.items.len());
    }

    Ok(RunOutcome {
        divergence,
        delivered: st.delivered,
        dropped: st.dropped,
        rejected: st.rejected,
        excused_lag: st.excused,
        output_hash: st.hash,
    })
}

/// Applies one fault at a packet boundary (the pending batch has already
/// been flushed).
fn apply_fault(
    fault: &Fault,
    sut: &mut Chain,
    oracle_hooks: &ChainHooks,
    sut_hooks: &ChainHooks,
    st: &mut RunState,
    used_fids: &HashSet<u32>,
    bug: Option<BugKind>,
) {
    match fault {
        Fault::KillBackend(name) => {
            if let Some(m) = &oracle_hooks.maglev {
                m.fail_backend(name);
            }
            if let Some(m) = &sut_hooks.maglev {
                m.fail_backend(name);
                // Health flips mutate NF state outside the packet stream:
                // log them so a crash replay reproduces the flip in order.
                if sut.supervised() {
                    let (m, name) = (m.clone(), name.clone());
                    sut.log_external(Arc::new(move || m.fail_backend(&name)));
                }
            }
        }
        Fault::RecoverBackend(name) => {
            if let Some(m) = &oracle_hooks.maglev {
                m.recover_backend(name);
            }
            if let Some(m) = &sut_hooks.maglev {
                m.recover_backend(name);
                if sut.supervised() {
                    let (m, name) = (m.clone(), name.clone());
                    sut.log_external(Arc::new(move || m.recover_backend(&name)));
                }
            }
        }
        Fault::FlipMode => {
            st.compiled_now = !st.compiled_now;
            sut.set_compiled(st.compiled_now);
        }
        Fault::ExpireIdle(max_idle) => {
            if let Some(sbox) = sut.sbox() {
                sbox.expire_idle_flows(*max_idle);
            }
        }
        Fault::RemoveNextFlowRule => {
            st.pending_remove = true;
        }
        Fault::ChurnStart => {
            if st.churn.is_none() {
                if let Some(sbox) = sut.sbox() {
                    st.churn = Some(Churn::start(sbox, used_fids));
                }
            }
        }
        Fault::ChurnStop => {
            if let Some(churn) = st.churn.take() {
                churn.stop();
            }
        }
        Fault::RetireGenerations => {
            if let Some(sbox) = sut.sbox() {
                sbox.collect_generations();
            }
        }
        Fault::EvictOldest(k) => {
            if let Some(sbox) = sut.sbox() {
                let k = usize::try_from(*k).unwrap_or(usize::MAX);
                if bug == Some(BugKind::EvictOrdering) {
                    // Seeded bug: evict the records but leave the victims'
                    // recordings staged. Their next packets re-record as
                    // initial on top of them, and the recordings double.
                    let rules: Vec<_> = used_fids
                        .iter()
                        .filter_map(|&fid| sbox.global.rule(Fid::new(fid)).map(|r| (fid, r)))
                        .collect();
                    let mut ops = OpCounter::default();
                    for fid in sbox.classifier.evict_oldest(k) {
                        let Some((_, rule)) = rules.iter().find(|(f, _)| *f == fid.value()) else {
                            continue;
                        };
                        for (nf, action) in rule.header_actions() {
                            sbox.instruments[nf.index()].add_header_action(fid, action, &mut ops);
                        }
                        for batch in &rule.batches {
                            for func in &batch.funcs {
                                let inst = &sbox.instruments[batch.nf.index()];
                                inst.add_state_function_handle(fid, func.clone(), &mut ops);
                            }
                        }
                    }
                } else {
                    sbox.force_evict_flows(k);
                }
            }
        }
        Fault::PoolPressure(cap) => {
            // SUT-only memory pressure: clamp the buffer pool's retention
            // capacity. Subsequent takes beyond the clamp fall back to the
            // heap (counted as pool misses) — packet bytes must not change.
            sut.pool().set_capacity(usize::try_from(*cap).unwrap_or(usize::MAX));
        }
        Fault::KillNf(nf) => {
            // SUT-only crash: rollback + replay + quarantine window. With
            // the seeded recovery bug, the replay half is "forgotten".
            let replay = bug != Some(BugKind::SkipSnapshotReplay);
            sut.kill_nf(*nf, replay);
        }
        Fault::RecoverNf(nf) => {
            sut.recover_nf(*nf);
        }
        Fault::Snapshot => {
            sut.checkpoint_now();
        }
    }
}

/// Processes the pending batch through both sides and compares.
fn flush(
    pending: &mut Vec<(usize, TraceItem)>,
    sut: &mut Chain,
    oracle: &mut Oracle,
    st: &mut RunState,
    case: &SimCase,
    batch_cap: usize,
) -> Option<Divergence> {
    if pending.is_empty() {
        return None;
    }
    let batch: Vec<(usize, TraceItem)> = std::mem::take(pending);

    // A scripted rule eviction targets the first parseable packet of this
    // batch — the "next packet" at the time the fault fired.
    if st.pending_remove {
        for (_, item) in &batch {
            if let Ok(p) = Packet::from_frame(&item.frame) {
                if let Ok(t) = p.five_tuple() {
                    if let Some(sbox) = sut.sbox() {
                        sbox.remove_flow(t.fid());
                    }
                    st.pending_remove = false;
                    break;
                }
            }
        }
    }

    // SUT side first (batched or per-packet), results in input order.
    let parsed: Vec<Option<Packet>> =
        batch.iter().map(|(_, item)| Packet::from_frame(&item.frame).ok()).collect();
    let mut sut_results: Vec<Option<ProcessedPacket>> = Vec::with_capacity(batch.len());
    if batch_cap == 1 {
        for p in parsed {
            sut_results.push(p.map(|p| sut.process(p)));
        }
    } else {
        let mut live: Vec<Packet> = parsed.iter().flatten().cloned().collect();
        let mut processed = Vec::with_capacity(live.len());
        sut.process_batch_into(&mut live, &mut processed);
        let mut processed = processed.into_iter();
        for p in &parsed {
            sut_results.push(if p.is_some() { processed.next() } else { None });
        }
    }

    for ((idx, item), sut_out) in batch.iter().zip(sut_results) {
        let oracle_verdict = oracle.process_frame(&item.frame);
        if let Some(d) = compare_one(*idx, item, &oracle_verdict, sut_out, sut, st, case) {
            return Some(d);
        }
    }
    None
}

/// Compares one packet's fate on both sides, updating counters and the
/// output hash.
fn compare_one(
    idx: usize,
    item: &TraceItem,
    oracle_verdict: &OracleVerdict,
    sut_out: Option<ProcessedPacket>,
    sut: &Chain,
    st: &mut RunState,
    case: &SimCase,
) -> Option<Divergence> {
    let mk = |kind: DivergenceKind, detail: String| {
        Some(Divergence { index: idx, orig: item.orig, kind, detail })
    };
    match (oracle_verdict, sut_out) {
        (OracleVerdict::Rejected, None) => {
            st.rejected += 1;
            st.hash_byte(0);
            None
        }
        (OracleVerdict::Rejected, Some(_)) | (_, None) => {
            // Both sides parse the same frame with the same parser; this
            // arm is unreachable unless parsing itself is nondeterministic.
            mk(
                DivergenceKind::Verdict,
                format!("parse disagreement on frame {}", hex_encode(&item.frame)),
            )
        }
        (OracleVerdict::Dropped { nf }, Some(out)) => {
            match out.packet {
                None => {
                    st.dropped += 1;
                    st.hash_byte(1);
                    None
                }
                Some(pkt) => {
                    // Fast-path forward of a packet the baseline dropped:
                    // excusable only as the documented one-packet Event
                    // Table lag, proven by re-probing the rule.
                    let lagged = out.path == PathKind::Subsequent
                        && sut.sbox().is_some_and(|sbox| probes_as_drop(sbox, &item.frame));
                    if lagged {
                        st.excused += 1;
                        st.delivered += 1;
                        st.hash_byte(2);
                        st.hash_bytes(pkt.as_bytes());
                        None
                    } else {
                        mk(
                            DivergenceKind::Verdict,
                            format!(
                                "oracle dropped at NF {nf}, SUT forwarded ({:?} path): {}",
                                out.path,
                                hex_encode(pkt.as_bytes())
                            ),
                        )
                    }
                }
            }
        }
        (OracleVerdict::Delivered(expected), Some(out)) => match out.packet {
            None => mk(
                DivergenceKind::Verdict,
                format!(
                    "oracle forwarded, SUT dropped ({:?} path); input {}",
                    out.path,
                    hex_encode(&item.frame)
                ),
            ),
            Some(pkt) => {
                let mut got = pkt.as_bytes().to_vec();
                if case.bug == Some(BugKind::SkipChecksumFix) && out.path == PathKind::Subsequent {
                    zero_ip_checksum(&mut got);
                }
                if got == *expected {
                    st.delivered += 1;
                    st.hash_byte(2);
                    st.hash_bytes(&got);
                    None
                } else {
                    mk(
                        DivergenceKind::Bytes,
                        format!(
                            "output frames differ ({:?} path)\n  oracle: {}\n  sut:    {}",
                            out.path,
                            hex_encode(expected),
                            hex_encode(&got)
                        ),
                    )
                }
            }
        },
    }
}

/// Re-checks a flow's rule through `prepare` (Event Table conditions
/// first, as the next packet would) and asks whether the — possibly
/// freshly patched — consolidated action now drops.
fn probes_as_drop(sbox: &SpeedyBox, frame: &[u8]) -> bool {
    let Ok(mut probe) = Packet::from_frame(frame) else {
        return false;
    };
    let Ok(tuple) = probe.five_tuple() else {
        return false;
    };
    let fid = tuple.fid();
    probe.set_fid(fid);
    let mut ops = OpCounter::default();
    let Some(rule) = sbox.global.prepare(fid, &mut ops) else {
        return false;
    };
    matches!(rule.interpret(&mut probe, &mut ops), Ok(false))
}

/// Emulates the seeded "forgot the trailing checksum fix-up" bug by
/// zeroing the IPv4 header checksum of a fast-path output frame.
fn zero_ip_checksum(bytes: &mut [u8]) {
    let l3 = if bytes.len() > 14 && bytes[12] == 0x81 && bytes[13] == 0x00 { 18 } else { 14 };
    if bytes.len() >= l3 + 12 {
        bytes[l3 + 10] = 0;
        bytes[l3 + 11] = 0;
    }
}

/// End-of-run comparison of every observable NF-state hook present on
/// the chain. With excused Event Table lag, monitor totals get a
/// per-excused-packet allowance; everything else stays exact (excused
/// packets belong to already-established flows, so they cannot mint NAT
/// mappings or Maglev connections).
fn compare_hooks(
    oracle_hooks: &ChainHooks,
    sut_hooks: &ChainHooks,
    st: &RunState,
    n_items: usize,
) -> Option<Divergence> {
    let last = n_items.saturating_sub(1);
    let mk = |detail: String| {
        Some(Divergence { index: last, orig: last, kind: DivergenceKind::Counters, detail })
    };
    let excused = st.excused as u64;
    if let (Some(om), Some(sm)) = (&oracle_hooks.monitor, &sut_hooks.monitor) {
        if excused == 0 {
            if om.snapshot() != sm.snapshot() {
                return mk(format!(
                    "monitor counters differ: oracle {:?} vs sut {:?}",
                    sorted(om.snapshot()),
                    sorted(sm.snapshot())
                ));
            }
        } else {
            let ot: u64 = om.snapshot().values().map(|c| c.packets).sum();
            let stt: u64 = sm.snapshot().values().map(|c| c.packets).sum();
            if stt.abs_diff(ot) > excused {
                return mk(format!(
                    "monitor packet totals differ beyond excused lag: oracle {ot}, sut {stt}, excused {excused}"
                ));
            }
        }
    }
    if let (Some(on), Some(sn)) = (&oracle_hooks.nat, &sut_hooks.nat) {
        if on.mapping_count() != sn.mapping_count() {
            return mk(format!(
                "NAT mapping counts differ: oracle {}, sut {}",
                on.mapping_count(),
                sn.mapping_count()
            ));
        }
    }
    if let (Some(om), Some(sm)) = (&oracle_hooks.maglev, &sut_hooks.maglev) {
        if om.connection_count() != sm.connection_count() {
            return mk(format!(
                "Maglev connection counts differ: oracle {}, sut {}",
                om.connection_count(),
                sm.connection_count()
            ));
        }
    }
    if let (Some(os), Some(ss)) = (&oracle_hooks.snort, &sut_hooks.snort) {
        let (ol, sl) = (os.log().len() as u64, ss.log().len() as u64);
        if sl.abs_diff(ol) > excused {
            return mk(format!(
                "Snort alert counts differ: oracle {ol}, sut {sl}, excused {excused}"
            ));
        }
    }
    None
}

/// Deterministic rendering of a counter snapshot for error messages.
fn sorted(
    map: std::collections::HashMap<speedybox_packet::Fid, speedybox_nf::monitor::FlowCounters>,
) -> Vec<(u32, u64, u64)> {
    let mut v: Vec<(u32, u64, u64)> =
        map.into_iter().map(|(fid, c)| (fid.value(), c.packets, c.bytes)).collect();
    v.sort_unstable();
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{generate, ScenarioConfig};

    fn case(chain: &str, env: Platform, batch: usize, faults: bool) -> SimCase {
        let s = generate(&ScenarioConfig {
            seed: 11,
            chain: chain.into(),
            with_faults: faults,
            nf_faults: false,
        });
        SimCase {
            chain: chain.into(),
            env,
            compiled: true,
            batch,
            workers: 1,
            seed: 11,
            max_flows: 0,
            bug: None,
            items: s.items,
            faults: s.faults,
        }
    }

    #[test]
    fn clean_run_has_no_divergence() {
        let out = run_case(&case("snort-monitor", Platform::Bess, 1, false)).unwrap();
        assert!(out.divergence.is_none(), "{:?}", out.divergence);
        assert!(out.delivered > 0);
        assert!(out.rejected > 0, "malformed frames should be rejected");
    }

    #[test]
    fn same_case_same_hash() {
        let a = run_case(&case("chain2", Platform::Onvm, 8, false)).unwrap();
        let b = run_case(&case("chain2", Platform::Onvm, 8, false)).unwrap();
        assert_eq!(a.output_hash, b.output_hash);
        assert!(a.divergence.is_none(), "{:?}", a.divergence);
    }

    #[test]
    fn seeded_bug_is_caught() {
        let mut c = case("ipfilter:3", Platform::Bess, 1, false);
        c.bug = Some(BugKind::SkipChecksumFix);
        let out = run_case(&c).unwrap();
        let d = out.divergence.expect("seeded checksum bug must diverge");
        assert_eq!(d.kind, DivergenceKind::Bytes);
    }

    #[test]
    fn faulted_run_stays_equivalent() {
        let out = run_case(&case("maglev-failover", Platform::Bess, 1, true)).unwrap();
        assert!(out.divergence.is_none(), "{:?}", out.divergence);
    }

    #[test]
    fn retire_fault_is_equivalence_preserving() {
        let mut c = case("chain2", Platform::Bess, 4, false);
        c.faults = FaultPlan::parse("churn@0..40;retire@20;retire@41").unwrap();
        let out = run_case(&c).unwrap();
        assert!(out.divergence.is_none(), "{:?}", out.divergence);
    }

    #[test]
    fn evict_fault_is_equivalence_preserving() {
        // Heavy eviction pressure: force out up to 8 LRU flows at several
        // points; victims must transparently re-record on their next
        // packet with identical bytes and end-of-run NF state.
        for batch in [1usize, 4] {
            let mut c = case("chain2", Platform::Bess, batch, false);
            c.faults = FaultPlan::parse("evict@5=8;evict@20=2;evict@40=8").unwrap();
            let out = run_case(&c).unwrap();
            assert!(out.divergence.is_none(), "batch={batch}: {:?}", out.divergence);
        }
    }

    #[test]
    fn evict_ordering_bug_is_caught() {
        // The seeded eviction leaves the victims' recordings staged;
        // re-recording doubles them up, which the referee must notice.
        let mut c = case("chain2", Platform::Bess, 1, false);
        c.bug = Some(BugKind::EvictOrdering);
        c.faults = FaultPlan::parse("evict@5=8;evict@20=8").unwrap();
        let out = run_case(&c).unwrap();
        assert!(out.divergence.is_some(), "half-done eviction teardown must diverge");
    }

    #[test]
    fn nf_crash_recovery_is_equivalence_preserving() {
        for env in Platform::ALL {
            let mut c = case("chain2", env, 1, false);
            c.faults = FaultPlan::parse("snap@5;nfkill@15=1;nfrecover@30=1;nfkill@45=0").unwrap();
            let out = run_case(&c).unwrap();
            assert!(out.divergence.is_none(), "{}: {:?}", env.as_str(), out.divergence);
        }
    }

    #[test]
    fn skip_snapshot_replay_bug_is_caught() {
        // The seeded recovery bug restores the checkpoint but "forgets"
        // the in-flight log: every packet since the last checkpoint
        // vanishes from NF state — the counter sweep must notice.
        let mut c = case("snort-monitor", Platform::Bess, 1, false);
        c.bug = Some(BugKind::SkipSnapshotReplay);
        c.faults = FaultPlan::parse("nfkill@25=0").unwrap();
        let out = run_case(&c).unwrap();
        let d = out.divergence.expect("skipped replay must diverge");
        assert_eq!(d.kind, DivergenceKind::Counters);
    }

    #[test]
    fn nf_faults_scenario_stays_equivalent() {
        // Generator-produced NF fault plans (kills layered over backend
        // churn and the usual perturbations) on the full chain1 stack.
        let s = generate(&ScenarioConfig {
            seed: 4,
            chain: "chain1".into(),
            with_faults: true,
            nf_faults: true,
        });
        assert!(s.faults.faults.iter().any(|f| matches!(f.fault, Fault::KillNf(_))));
        let c = SimCase {
            chain: "chain1".into(),
            env: Platform::Bess,
            compiled: true,
            batch: 1,
            workers: 1,
            seed: 4,
            max_flows: 0,
            bug: None,
            items: s.items,
            faults: s.faults,
        };
        let out = run_case(&c).unwrap();
        assert!(out.divergence.is_none(), "{:?}", out.divergence);
    }

    #[test]
    fn worker_counts_share_one_output_hash() {
        let base = run_case(&case("chain1", Platform::Bess, 8, false)).unwrap();
        assert!(base.divergence.is_none(), "{:?}", base.divergence);
        for workers in [2, 4, 8] {
            let mut c = case("chain1", Platform::Bess, 8, false);
            c.workers = workers;
            let out = run_case(&c).unwrap();
            assert!(out.divergence.is_none(), "workers={workers}: {:?}", out.divergence);
            assert_eq!(out.output_hash, base.output_hash, "workers={workers}");
        }
    }

    #[test]
    fn hex_round_trip() {
        let bytes = vec![0x00, 0xff, 0x10, 0xab];
        assert_eq!(hex_decode(&hex_encode(&bytes)).unwrap(), bytes);
        assert!(hex_decode("zz").is_err());
        assert!(hex_decode("abc").is_err());
    }
}
