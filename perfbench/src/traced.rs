//! The traced run: a per-packet replica rebuilt from the product's public
//! calls times each layer on 1 packet in [`SAMPLE_EVERY`], next to the
//! same replica with its tracer off and the untraced `BessChain`s on the
//! same trace.
//!
//! The replica mirrors `BessChain::process` for the original chain and for
//! SpeedyBox at batch 1 (no supervision, no quarantine — neither is on in
//! the default configuration). Its outputs are checked byte for byte
//! against the real chains' before anything is timed, so the
//! decomposition cannot drift away from the runtime.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::sync::Arc;
use std::time::Instant;

use speedybox_mat::{OpCounter, PacketClass};
use speedybox_nf::{Nf, NfContext};
use speedybox_packet::{Magazine, Packet, PacketPool};
use speedybox_platform::chains::{build_chain_hooks, ChainHooks};
use speedybox_platform::metrics::observe;
use speedybox_platform::runtime::{classify, notify_flow_closed, tag_ingress};
use speedybox_platform::{CycleModel, PathKind, ProcessedPacket, SboxConfig, SpeedyBox};
use speedybox_stats::Summary;
use speedybox_telemetry::TelemetrySnapshot;

use crate::report::Outcome;
use crate::timed::{bytes, Arm, Kind, CHUNK, SLICE};

/// One packet in this many is traced.
pub const SAMPLE_EVERY: u64 = 512;

/// One RX chunk in this many has its pool calls traced.
const CHUNK_SAMPLE_EVERY: u64 = 32;

/// Spans kept in memory; later spans are counted but not stored.
const SPAN_CAPACITY: usize = 1 << 19;

/// What a span timed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// The whole per-packet step (the parent of the spans below).
    Packet,
    /// `PacketPool::copy_packets_into` for one chunk.
    PoolCopy,
    /// `PacketPool::free_batch` for one chunk.
    PoolFree,
    /// `runtime::classify`.
    Classify,
    /// `GlobalMat::prepare`.
    Prepare,
    /// `GlobalMat::install`.
    Install,
    /// `SpeedyBox::remove_flow` + `notify_flow_closed`.
    Teardown,
    /// `CompiledProgram::run`.
    Compiled,
    /// One `SfBatch::execute`.
    StateFn,
    /// `Nf::process` in the instrumented (slow-path) context; the chain
    /// position is the span's `nf` field.
    NfSlow,
    /// `Nf::process` in the baseline context.
    NfOrig,
    /// `metrics::observe`.
    Observe,
    /// Two back-to-back timer reads: the per-span timer cost, measured in
    /// place once per sampled packet.
    Empty,
}

/// One timed call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Packet id: pass × trace length + trace position (the chunk's first
    /// packet for pool spans).
    pub pkt: u64,
    /// What was timed.
    pub layer: Layer,
    /// Chain position for NF spans.
    pub nf: u8,
    /// Index of the parent span, `u32::MAX` for none.
    pub parent: u32,
    /// Start, nanoseconds since the tracer's epoch.
    pub start: u64,
    /// End, nanoseconds since the tracer's epoch.
    pub end: u64,
}

/// In-memory span recorder. Off for unsampled packets, where each call
/// costs one branch.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    on: bool,
    pkt: u64,
    root: u32,
    /// Recorded spans.
    pub spans: Vec<Span>,
    /// Spans dropped because the buffer was full.
    pub overflow: u64,
}

impl Tracer {
    /// A tracer; a disabled one records nothing and allocates nothing.
    pub fn new(enabled: bool) -> Self {
        let spans = if enabled { Vec::with_capacity(SPAN_CAPACITY) } else { Vec::new() };
        Self {
            epoch: Instant::now(),
            enabled,
            on: false,
            pkt: 0,
            root: u32::MAX,
            spans,
            overflow: 0,
        }
    }

    /// Whether item `id` falls in the 1-in-`every` sample (a hash, so the
    /// sample does not alias with the trace's structure).
    fn sampled(id: u64, every: u64) -> bool {
        id.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17).is_multiple_of(every)
    }

    #[inline]
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Starts a span if the current item is sampled.
    #[inline]
    pub fn begin(&self) -> u64 {
        if self.on {
            self.now()
        } else {
            0
        }
    }

    /// Ends a span started by [`Tracer::begin`].
    #[inline]
    pub fn end(&mut self, start: u64, layer: Layer, nf: u8) {
        if self.on {
            let end = self.now();
            self.push(Span { pkt: self.pkt, layer, nf, parent: self.root, start, end });
        }
    }

    fn push(&mut self, span: Span) {
        if self.spans.len() < SPAN_CAPACITY {
            self.spans.push(span);
        } else {
            self.overflow += 1;
        }
    }

    /// Opens the per-packet root span if packet `pkt` is sampled.
    #[inline]
    fn open_packet(&mut self, pkt: u64) -> u64 {
        self.pkt = pkt;
        self.on = self.enabled && Self::sampled(pkt, SAMPLE_EVERY);
        if !self.on {
            return 0;
        }
        self.push(Span { pkt, layer: Layer::Packet, nf: 0, parent: u32::MAX, start: 0, end: 0 });
        self.root = (self.spans.len() - 1) as u32;
        let start = self.now();
        let s = self.begin();
        self.end(s, Layer::Empty, 0);
        start
    }

    /// Closes the root span opened by [`Tracer::open_packet`].
    #[inline]
    fn close_packet(&mut self, start: u64) {
        if self.on {
            let end = self.now();
            if let Some(root) = self.spans.get_mut(self.root as usize) {
                root.start = start;
                root.end = end;
            }
        }
        self.on = false;
        self.root = u32::MAX;
    }

    /// Turns sampling on for the pool calls of chunk `first_pkt`.
    #[inline]
    fn open_chunk(&mut self, first_pkt: u64) {
        self.pkt = first_pkt;
        self.on = self.enabled && Self::sampled(first_pkt / CHUNK as u64, CHUNK_SAMPLE_EVERY);
        self.root = u32::MAX;
    }
}

/// The benchmark's own per-packet replica over a registry chain: with
/// `sbox` it is SpeedyBox at batch 1, without it the original chain.
pub struct Replica {
    /// The SpeedyBox state (classifier, Global MAT, instruments).
    pub sbox: Option<SpeedyBox>,
    nfs: Vec<Box<dyn Nf>>,
    hooks: ChainHooks,
    baseline_telemetry: Arc<speedybox_telemetry::Telemetry>,
    model: CycleModel,
    pool: Arc<PacketPool>,
    mag: Magazine,
    rx: Vec<Packet>,
    /// Outputs of the last chunk, one per input (`None` = dropped).
    pub out: Vec<Option<Packet>>,
    /// `SfBatch::execute` calls, over every packet.
    pub sf_batches: u64,
    /// Packets served by a fast-path rule, over every packet.
    pub fast_pkts: u64,
    /// Timed nanoseconds and packets.
    pub nanos: u64,
    /// Packets processed inside timed slices.
    pub pkts: u64,
}

impl Replica {
    /// A replica over a fresh instance of registry chain `chain`, with the
    /// same pool and telemetry set-up as the matching `BessChain`.
    pub fn new(chain: &str, speedybox: bool) -> Self {
        let (nfs, hooks) = build_chain_hooks(chain).expect("registry chain");
        let config = SboxConfig::default();
        let (sbox, pool) = if speedybox {
            let pool = Arc::new(PacketPool::bounded(2048, config.pool_buffers));
            (Some(SpeedyBox::new(nfs.len(), config)), pool)
        } else {
            (None, Arc::new(PacketPool::default()))
        };
        Self {
            sbox,
            nfs,
            hooks,
            baseline_telemetry: Arc::new(speedybox_telemetry::Telemetry::new(1)),
            model: CycleModel::new(),
            mag: Magazine::new(Arc::clone(&pool)),
            pool,
            rx: Vec::with_capacity(CHUNK),
            out: Vec::with_capacity(CHUNK),
            sf_batches: 0,
            fast_pkts: 0,
            nanos: 0,
            pkts: 0,
        }
    }

    /// The NF names in chain order.
    pub fn nf_names(&self) -> Vec<String> {
        self.nfs.iter().map(|nf| nf.name().to_string()).collect()
    }

    /// The telemetry hub the replica reports into.
    pub fn telemetry(&self) -> &speedybox_telemetry::Telemetry {
        self.sbox.as_ref().map_or(&self.baseline_telemetry, |s| &s.telemetry)
    }

    /// Clears the IDS log, as [`Arm::drain_logs`] does.
    pub fn drain_logs(&self) {
        if let Some(snort) = &self.hooks.snort {
            snort.clear_log();
        }
    }

    /// Pool misses so far.
    pub fn pool_misses(&self) -> u64 {
        self.pool.stats().misses
    }

    /// RX copy, then one step per packet. Outputs stay in `self.out`.
    pub fn process(&mut self, chunk: &[Packet], first_pkt: u64, tr: &mut Tracer) {
        tr.open_chunk(first_pkt);
        let s = tr.begin();
        self.pool.copy_packets_into(chunk, &mut self.rx);
        tr.end(s, Layer::PoolCopy, 0);
        let mut rx = std::mem::take(&mut self.rx);
        for (i, p) in rx.drain(..).enumerate() {
            let root = tr.open_packet(first_pkt + i as u64);
            let out =
                if self.sbox.is_some() { self.step_sbox(p, tr) } else { self.step_orig(p, tr) };
            tr.close_packet(root);
            self.out.push(out);
        }
        self.rx = rx;
    }

    /// Frees the delivered packets of the last chunk back to the pool.
    pub fn release(&mut self, first_pkt: u64, tr: &mut Tracer) {
        tr.open_chunk(first_pkt);
        let s = tr.begin();
        self.pool.free_batch(self.out.drain(..).flatten());
        tr.end(s, Layer::PoolFree, 0);
        tr.on = false;
    }

    /// Processes `packets` (starting at trace position `first_pkt`) chunk
    /// by chunk, timing the whole slice.
    pub fn timed_slice(&mut self, packets: &[Packet], first_pkt: u64, tr: &mut Tracer) {
        let t = Instant::now();
        for (k, chunk) in packets.chunks(CHUNK).enumerate() {
            let id = first_pkt + (k * CHUNK) as u64;
            self.process(chunk, id, tr);
            self.release(id, tr);
        }
        self.nanos += t.elapsed().as_nanos() as u64;
        self.pkts += packets.len() as u64;
    }

    /// Runs the chain's NFs in order, as `runtime::traverse_chain` does.
    fn traverse(
        &mut self,
        packet: &mut Packet,
        instrumented: bool,
        ops: &mut OpCounter,
        tr: &mut Tracer,
    ) -> bool {
        let layer = if instrumented { Layer::NfSlow } else { Layer::NfOrig };
        for (i, nf) in self.nfs.iter_mut().enumerate() {
            let mut nf_ops = OpCounter::default();
            let s = tr.begin();
            let verdict = match self.sbox.as_ref().filter(|_| instrumented) {
                Some(sbox) => nf.process(
                    packet,
                    &mut NfContext::instrumented(&sbox.instruments[i], &mut nf_ops),
                ),
                None => nf.process(packet, &mut NfContext::baseline(&mut nf_ops)),
            };
            tr.end(s, layer, i as u8);
            ops.merge(&nf_ops);
            if !verdict.survives() {
                return false;
            }
        }
        true
    }

    /// Records the outcome into telemetry and hands the packet back if it
    /// survived, recycling its buffer otherwise.
    fn finish(
        &mut self,
        mut packet: Packet,
        survived: bool,
        path: PathKind,
        ops: OpCounter,
        hint: u64,
        tr: &mut Tracer,
    ) -> Option<Packet> {
        let packet = if survived {
            packet.clear_fid();
            Some(packet)
        } else {
            self.mag.give_packet(packet);
            None
        };
        let cycles = self.model.cycles(&ops);
        let outcome =
            ProcessedPacket { packet, work_cycles: cycles, latency_cycles: cycles, path, ops };
        let s = tr.begin();
        observe(self.telemetry(), hint, &outcome);
        tr.end(s, Layer::Observe, 0);
        outcome.packet
    }

    /// `BessChain::process` on the original chain.
    fn step_orig(&mut self, mut packet: Packet, tr: &mut Tracer) -> Option<Packet> {
        let mut ops = OpCounter::default();
        tag_ingress(&mut packet, &mut ops);
        let survived = self.traverse(&mut packet, false, &mut ops, tr);
        let fid = packet.fid();
        if packet.tcp_flags().closes_flow() {
            if let Some(fid) = fid {
                notify_flow_closed(&mut self.nfs, fid);
            }
        }
        let hint = fid.map_or(0, |f| f.index() as u64);
        self.finish(packet, survived, PathKind::Baseline, ops, hint, tr)
    }

    /// The instrumented walk plus rule install: a flow's initial packet,
    /// or a fast-path miss falling back.
    fn slow_path(
        &mut self,
        packet: &mut Packet,
        fid: speedybox_packet::Fid,
        ops: &mut OpCounter,
        tr: &mut Tracer,
    ) -> bool {
        let survived = self.traverse(packet, true, ops, tr);
        let sbox = self.sbox.as_ref().expect("speedybox replica");
        let s = tr.begin();
        sbox.global.install(fid, ops);
        tr.end(s, Layer::Install, 0);
        survived
    }

    /// `BessChain::process` with SpeedyBox on, batch 1.
    fn step_sbox(&mut self, mut packet: Packet, tr: &mut Tracer) -> Option<Packet> {
        let mut ops = OpCounter::default();
        let sbox = self.sbox.as_ref().expect("speedybox replica");
        let s = tr.begin();
        let classified = classify(sbox, &mut packet, &mut ops);
        tr.end(s, Layer::Classify, 0);
        let Ok((fid, class, closes_flow)) = classified else {
            ops.drops += 1;
            return self.finish(packet, false, PathKind::Initial, ops, 0, tr);
        };
        let (survived, path) = match class {
            PacketClass::Initial => {
                (self.slow_path(&mut packet, fid, &mut ops, tr), PathKind::Initial)
            }
            PacketClass::Collision | PacketClass::Handshake | PacketClass::Rejected => {
                (self.traverse(&mut packet, false, &mut ops, tr), PathKind::Baseline)
            }
            PacketClass::Subsequent => {
                let s = tr.begin();
                let rule = sbox.global.prepare(fid, &mut ops);
                tr.end(s, Layer::Prepare, 0);
                match rule {
                    Some(rule) => {
                        sbox.telemetry.shard(fid.index() as u64).add_compiled_hits(1);
                        let s = tr.begin();
                        let alive = rule.compiled.run(&mut packet, &mut ops).unwrap_or(false);
                        tr.end(s, Layer::Compiled, 0);
                        if alive {
                            for batch in &rule.batches {
                                let s = tr.begin();
                                batch.execute(&mut packet, fid, &mut ops);
                                tr.end(s, Layer::StateFn, 0);
                            }
                            self.sf_batches += rule.batches.len() as u64;
                        }
                        self.fast_pkts += 1;
                        (alive, PathKind::Subsequent)
                    }
                    None => (self.slow_path(&mut packet, fid, &mut ops, tr), PathKind::Initial),
                }
            }
        };
        if closes_flow && class != PacketClass::Collision {
            let s = tr.begin();
            self.sbox.as_ref().expect("speedybox replica").remove_flow(fid);
            notify_flow_closed(&mut self.nfs, fid);
            tr.end(s, Layer::Teardown, 0);
        }
        let out = self.finish(packet, survived, path, ops, fid.index() as u64, tr);
        self.sbox.as_ref().expect("speedybox replica").tick_idle_eviction();
        out
    }
}

/// One untimed pass comparing both replicas with the real chains, packet
/// by packet. Returns the packets where either replica differs.
pub fn check_pass(
    sbox: &mut Replica,
    b1: &mut Arm,
    orig: &mut Replica,
    orig_chain: &mut Arm,
    trace: &[Packet],
) -> u64 {
    let mut off = Tracer::new(false);
    let mut failed = 0;
    for (k, chunk) in trace.chunks(CHUNK).enumerate() {
        let id = (k * CHUNK) as u64;
        sbox.process(chunk, id, &mut off);
        b1.process(chunk);
        orig.process(chunk, id, &mut off);
        orig_chain.process(chunk);
        for i in 0..chunk.len() {
            if bytes(&sbox.out[i]) != bytes(&b1.out[i].packet)
                || bytes(&orig.out[i]) != bytes(&orig_chain.out[i].packet)
            {
                failed += 1;
            }
        }
        sbox.release(id, &mut off);
        b1.release();
        orig.release(id, &mut off);
        orig_chain.release();
    }
    failed
}

fn drain_all(sbox: &Replica, b1: &Arm, orig: &Replica, orig_chain: &Arm) {
    sbox.drain_logs();
    b1.drain_logs();
    orig.drain_logs();
    orig_chain.drain_logs();
}

/// A span longer than this many times its layer's 99th percentile is a
/// host interruption (preemption, page-fault storm), not work of the
/// layer; it counts as the mean of the layer's other spans instead. The
/// percentile, not the median, keeps legitimately bimodal layers whole
/// (Snort scanning a 1500-B frame takes ~20× a 64-B one).
const OUTLIER: f64 = 20.0;

/// Per-layer self times folded from one replica's spans.
#[derive(Debug, Default)]
struct Sums {
    /// (total self ns, calls) per layer key.
    by_key: BTreeMap<String, (f64, u64)>,
    /// Sampled packets.
    packets: u64,
    /// Packets covered by sampled pool chunks.
    pool_pkts: u64,
    /// Median in-place timer cost, subtracted from every span.
    timer_ns: f64,
}

impl Sums {
    fn mean(&self, key: &str) -> f64 {
        self.by_key.get(key).map_or(0.0, |&(t, n)| t / n as f64)
    }

    fn total(&self, key: &str) -> f64 {
        self.by_key.get(key).map_or(0.0, |&(t, _)| t)
    }

    fn calls(&self, key: &str) -> u64 {
        self.by_key.get(key).map_or(0, |&(_, n)| n)
    }

    /// Self time per sampled packet over `keys`.
    fn per_packet(&self, keys: &[&str]) -> f64 {
        keys.iter().map(|k| self.total(k)).sum::<f64>() / self.packets.max(1) as f64
    }

    /// Total self time of every NF's `kind` ("slow" or "orig") spans.
    fn nf_total(&self, kind: &str) -> f64 {
        let suffix = format!(".{kind}");
        self.by_key
            .iter()
            .filter(|(k, _)| k.starts_with("nf.") && k.ends_with(&suffix))
            .map(|(_, &(t, _))| t)
            .sum()
    }
}

/// The key a span's time is summed under, and its label in the spans file.
fn key(s: &Span, names: &[String]) -> String {
    match s.layer {
        Layer::NfSlow => format!("nf.{}.slow", names[s.nf as usize]),
        Layer::NfOrig => format!("nf.{}.orig", names[s.nf as usize]),
        other => format!("{other:?}"),
    }
}

/// Folds one replica's spans into per-layer self times.
fn fold(spans: &[Span], names: &[String], trace_len: u64) -> Sums {
    let mut sums = Sums::default();
    let mut raw: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for s in spans {
        match s.layer {
            Layer::Packet => {
                sums.packets += 1;
                continue;
            }
            Layer::PoolCopy => sums.pool_pkts += (trace_len - s.pkt % trace_len).min(CHUNK as u64),
            _ => {}
        }
        let key = key(s, names);
        raw.entry(key).or_default().push(s.end.saturating_sub(s.start) as f64);
    }
    sums.timer_ns = raw.get("Empty").map_or(0.0, |v| Summary::new(v.iter().copied()).median());
    for (key, v) in raw {
        let mut sorted = v.clone();
        sorted.sort_by(f64::total_cmp);
        let cut = OUTLIER * sorted[(sorted.len() * 99 / 100).min(sorted.len() - 1)];
        let kept: Vec<f64> = v.iter().copied().filter(|&ns| ns <= cut).collect();
        let typical = kept.iter().sum::<f64>() / kept.len() as f64;
        let total = v
            .iter()
            .map(|&ns| if ns > cut { typical } else { ns })
            .map(|ns| (ns - sums.timer_ns).max(0.0))
            .sum();
        sums.by_key.insert(key, (total, v.len() as u64));
    }
    sums
}

/// Runs the check pass, then traced passes for `seconds`, and computes
/// every per-layer metric. Spans are written to `spans_path`.
pub fn run(chain: &str, trace: &[Packet], seconds: f64, spans_path: &std::path::Path) -> Outcome {
    let mut sbox = Replica::new(chain, true);
    let mut orig = Replica::new(chain, false);
    let mut b1 = Arm::new(Kind::SboxB1, chain);
    let mut orig_chain = Arm::new(Kind::Orig, chain);
    let names = sbox.nf_names();

    let failed = check_pass(&mut sbox, &mut b1, &mut orig, &mut orig_chain, trace);
    drain_all(&sbox, &b1, &orig, &orig_chain);
    // The same SpeedyBox replica with its tracer off: the denominator of
    // `trace.overhead_ratio`. Its cold pass is untimed, as the others'.
    let mut plain = Replica::new(chain, true);
    let mut tr_off = Tracer::new(false);
    plain.timed_slice(trace, 0, &mut tr_off);
    plain.drain_logs();
    plain.nanos = 0;
    plain.pkts = 0;

    let mut tr_sbox = Tracer::new(true);
    let mut tr_orig = Tracer::new(true);
    let snap0 = sbox.telemetry().snapshot();
    let misses0 = sbox.pool_misses();
    let (batches0, fast0) = (sbox.sf_batches, sbox.fast_pkts);
    let start = Instant::now();
    let mut passes = 0u64;
    let mut turn = 0usize;
    while passes == 0 || start.elapsed().as_secs_f64() < seconds {
        for (k, slice) in trace.chunks(SLICE).enumerate() {
            // Packet ids run on across passes, so each pass samples
            // different packets.
            let id = passes * trace.len() as u64 + (k * SLICE) as u64;
            for j in 0..5 {
                match (turn + j) % 5 {
                    0 => sbox.timed_slice(slice, id, &mut tr_sbox),
                    1 => plain.timed_slice(slice, id, &mut tr_off),
                    2 => b1.timed_slice(slice),
                    3 => orig.timed_slice(slice, id, &mut tr_orig),
                    _ => orig_chain.timed_slice(slice),
                }
            }
            turn += 1;
        }
        drain_all(&sbox, &b1, &orig, &orig_chain);
        plain.drain_logs();
        passes += 1;
    }
    let snap = sbox.telemetry().snapshot();
    let misses = sbox.pool_misses() - misses0;
    let checks_ok = misses == 0
        && snap.fid_collisions == snap0.fid_collisions
        && tr_sbox.overflow == 0
        && tr_orig.overflow == 0;
    println!("# traced: {passes} passes of {} packets", trace.len());
    println!("#   sbox replica {}", crate::timed::counts(&snap, &snap0));
    println!(
        "#   spans: sbox {} orig {} (1 packet in {SAMPLE_EVERY})",
        tr_sbox.spans.len(),
        tr_orig.spans.len()
    );

    let sb = fold(&tr_sbox.spans, &names, trace.len() as u64);
    let or = fold(&tr_orig.spans, &names, trace.len() as u64);
    println!(
        "#   in-place timer cost: sbox {:.1} ns, orig {:.1} ns per span",
        sb.timer_ns, or.timer_ns
    );

    let b1_ns = b1.nanos as f64 / b1.pkts as f64;
    let pool_ns = (sb.total("PoolCopy") + sb.total("PoolFree")) / sb.pool_pkts.max(1) as f64;
    let per_packet = sb.packets.max(1) as f64;
    let layer_pp = [
        ("pool.share", pool_ns),
        ("classifier.share", sb.per_packet(&["Classify"])),
        ("global.share", sb.per_packet(&["Prepare", "Install", "Teardown"])),
        ("compiled.share", sb.per_packet(&["Compiled"])),
        ("state_fn.share", sb.per_packet(&["StateFn"])),
        ("nf.share", sb.nf_total("slow") / per_packet),
        ("telemetry.share", sb.per_packet(&["Observe"])),
    ];
    let platform_ns = b1_ns - layer_pp.iter().map(|(_, v)| v).sum::<f64>();

    let passes_f = passes as f64;
    let delta = |f: fn(&TelemetrySnapshot) -> u64| (f(&snap) - f(&snap0)) as f64 / passes_f;
    let hits = delta(|s| s.fastpath_hits);
    let lookups = hits + delta(|s| s.fastpath_misses);
    let installed = delta(|s| s.rules_installed);
    let fast = (sbox.fast_pkts - fast0) as f64;

    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    m.insert("pool.ns_per_pkt", pool_ns);
    m.insert("pool.misses", misses as f64);
    m.insert("classifier.ns_per_pkt", sb.mean("Classify"));
    m.insert("classifier.flows_opened", delta(|s| s.flows_opened));
    m.insert("classifier.fid_collisions", delta(|s| s.fid_collisions));
    m.insert("global.prepare_ns", sb.mean("Prepare"));
    m.insert("global.hit_ratio", if lookups > 0.0 { hits / lookups } else { 0.0 });
    m.insert("global.events_fired", delta(|s| s.events_fired));
    m.insert("global.install_ns", sb.mean("Install"));
    m.insert("global.rules_installed", installed);
    m.insert("global.pkts_per_rule", if installed > 0.0 { hits / installed } else { 0.0 });
    m.insert("global.teardown_ns", sb.mean("Teardown"));
    m.insert("global.rules_removed", delta(|s| s.rules_removed));
    m.insert("compiled.ns_per_call", sb.mean("Compiled"));
    let fast_sampled = sb.calls("Compiled") as f64;
    m.insert(
        "state_fn.ns_per_pkt",
        if fast_sampled > 0.0 { sb.total("StateFn") / fast_sampled } else { 0.0 },
    );
    m.insert(
        "state_fn.batches_per_pkt",
        if fast > 0.0 { (sbox.sf_batches - batches0) as f64 / fast } else { 0.0 },
    );
    // The chain's NFs one by one, as diagnostics; the metrics carry the
    // totals, which every workload has.
    for n in &names {
        let (slow, orig_ns) = (sb.mean(&format!("nf.{n}.slow")), or.mean(&format!("nf.{n}.orig")));
        println!(
            "#   nf.{n}: {slow:.1} ns per slow-path call, {orig_ns:.1} ns per original-chain call"
        );
    }
    let slow_pkts = sb.calls("Install") as f64;
    m.insert("nf.slow_ns", if slow_pkts > 0.0 { sb.nf_total("slow") / slow_pkts } else { 0.0 });
    m.insert("nf.orig_ns", or.nf_total("orig") / or.packets.max(1) as f64);
    m.insert("telemetry.ns_per_pkt", sb.mean("Observe"));
    m.insert("platform.self_ns_per_pkt", platform_ns);
    for (share, ns) in layer_pp.into_iter().chain([("platform.share", platform_ns)]) {
        m.insert(share, ns / b1_ns);
    }
    let traced_ns = sbox.nanos as f64 / sbox.pkts as f64;
    let plain_ns = plain.nanos as f64 / plain.pkts as f64;
    m.insert("trace.overhead_ratio", traced_ns / plain_ns);
    println!(
        "# ns/pkt: replica traced {traced_ns:.1}, untraced {plain_ns:.1}; BessChain sbox_b1 {b1_ns:.1}, orig {:.1}",
        orig_chain.nanos as f64 / orig_chain.pkts as f64
    );
    if let Err(e) =
        write_spans(spans_path, &[("sbox", &tr_sbox.spans), ("orig", &tr_orig.spans)], &names)
    {
        println!("# could not write spans to {}: {e}", spans_path.display());
    }
    Outcome { metrics: m, attempted: trace.len() as u64, failed, checks_ok }
}

/// Writes spans as tab-separated lines: replica, span index, packet,
/// layer, parent, start, end.
fn write_spans(
    path: &std::path::Path,
    sets: &[(&str, &Vec<Span>)],
    names: &[String],
) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "replica\tspan\tpacket\tlayer\tparent\tstart_ns\tend_ns")?;
    for (who, spans) in sets {
        for (i, s) in spans.iter().enumerate() {
            let layer = key(s, names);
            let parent = if s.parent == u32::MAX { "-".to_string() } else { s.parent.to_string() };
            writeln!(w, "{who}\t{i}\t{}\t{layer}\t{parent}\t{}\t{}", s.pkt, s.start, s.end)?;
        }
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{generate_shape, Workload};

    fn small_trace(w: Workload) -> Vec<Packet> {
        let shape = w.shape();
        generate_shape(crate::workload::Shape { flows: 300, live: 64, ..shape }, 5).packets
    }

    #[test]
    fn replica_outputs_equal_bess_chain_outputs() {
        for w in Workload::ALL {
            let trace = small_trace(w);
            let mut sbox = Replica::new(w.chain(), true);
            let mut orig = Replica::new(w.chain(), false);
            let mut b1 = Arm::new(Kind::SboxB1, w.chain());
            let mut orig_chain = Arm::new(Kind::Orig, w.chain());
            // Two passes: the second replays every flow after full teardown.
            for _ in 0..2 {
                assert_eq!(
                    check_pass(&mut sbox, &mut b1, &mut orig, &mut orig_chain, &trace),
                    0,
                    "{}",
                    w.name()
                );
            }
            let (a, b) = (sbox.telemetry().snapshot(), b1.chain.telemetry().snapshot());
            assert_eq!(
                (
                    a.packets,
                    a.fastpath_hits,
                    a.rules_installed,
                    a.rules_removed,
                    a.flows_opened,
                    a.flows_closed
                ),
                (
                    b.packets,
                    b.fastpath_hits,
                    b.rules_installed,
                    b.rules_removed,
                    b.flows_opened,
                    b.flows_closed
                ),
                "{}: replica and chain telemetry counts differ",
                w.name()
            );
        }
    }

    #[test]
    fn traced_spans_cover_every_layer_the_workload_uses() {
        let trace = small_trace(Workload::IdsImix);
        let mut sbox = Replica::new("chain2", true);
        let mut tr = Tracer::new(true);
        for pass in 0..3 {
            for (k, chunk) in trace.chunks(CHUNK).enumerate() {
                let id = (pass * trace.len() + k * CHUNK) as u64;
                sbox.process(chunk, id, &mut tr);
                sbox.release(id, &mut tr);
            }
        }
        let names = sbox.nf_names();
        let sums = fold(&tr.spans, &names, trace.len() as u64);
        for key in [
            "PoolCopy",
            "PoolFree",
            "Classify",
            "Prepare",
            "Compiled",
            "StateFn",
            "Observe",
            "Install",
            "Teardown",
            "nf.snort.slow",
        ] {
            assert!(sums.calls(key) > 0, "no {key} spans");
        }
        assert!(sums.packets > 0 && sums.timer_ns > 0.0);
        // Every non-root span of a sampled packet points at its root.
        for s in tr
            .spans
            .iter()
            .filter(|s| !matches!(s.layer, Layer::Packet | Layer::PoolCopy | Layer::PoolFree))
        {
            let root = &tr.spans[s.parent as usize];
            assert_eq!((root.layer, root.pkt), (Layer::Packet, s.pkt));
            assert!(root.start <= s.start && s.end <= root.end);
        }
    }
}
