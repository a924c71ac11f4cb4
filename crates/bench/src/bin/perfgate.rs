//! `perfgate` — the CI performance-regression gate.
//!
//! Runs the two paper chains (chain1 on BESS, chain2 on ONVM) with
//! SpeedyBox enabled over a fixed-seed workload, takes the runtime
//! telemetry snapshot, and compares two headline metrics per scenario
//! against a checked-in baseline:
//!
//! * **fast-path hit rate** — fraction of packets served by the
//!   consolidated Global-MAT path (`paths[subsequent] / packets`);
//! * **p50 fast-path latency** — median wall latency of subsequent-path
//!   packets, in deterministic model cycles.
//!
//! The cycle model is deterministic, so the gate is stable across
//! machines: a change in either metric means the code changed, not the
//! hardware. The gate fails only on *regressions* beyond the tolerance
//! (hit rate falling, latency rising); improvements beyond tolerance are
//! reported as a hint to refresh the baseline with `--write-baseline`.
//!
//! A third, absolute gate covers worker scaling: chain1 over an
//! interleaved trace with concurrent rule churn must show at least a 3x
//! modeled-throughput gain at 8 symmetric workers versus 1, and the
//! 8-worker compiled fast-path p50 may not exceed the single-worker p50
//! (worker steering redistributes work; it must never add latency).
//!
//! A fourth gate covers the pooled packet substrate: after one warm run
//! of chain1 seeds the buffer pool, pooled reruns of the same trace must
//! record **zero** pool misses (the steady state never falls back to the
//! heap), and the reruns' wall-clock throughput is gated against the
//! baseline with a deliberately generous tolerance — the deterministic
//! cycle gates catch per-packet work regressions; the wall gate only
//! catches order-of-magnitude collapses.
//!
//! ```text
//! perfgate --baseline crates/bench/baseline.json            # CI gate
//! perfgate --write-baseline crates/bench/baseline.json      # refresh
//! perfgate --baseline ... --out /tmp/perfgate-report.json   # keep artifacts
//! ```

use std::collections::HashMap;
use std::collections::HashSet;
use std::net::Ipv4Addr;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use speedybox_mat::{AdmissionPolicy, FlowTable, OpCounter, FID_SPACE};
use speedybox_packet::{Fid, FiveTuple, Packet, Protocol};
use speedybox_platform::chains;
use speedybox_platform::runtime::SboxConfig;
use speedybox_platform::{Chain, Platform};
use speedybox_telemetry::json::{escape, Json};
use speedybox_telemetry::TelemetrySnapshot;
use speedybox_traffic::{Workload, WorkloadConfig};

/// Default tolerance: a metric may regress by up to this fraction.
const DEFAULT_TOLERANCE: f64 = 0.10;
/// Fixed workload parameters — the gate's numbers are only comparable
/// against baselines produced with the same traffic.
const FLOWS: usize = 200;
const SEED: u64 = 7;

/// One gated scenario's measured numbers.
struct Measurement {
    name: &'static str,
    hit_rate: f64,
    /// p50 fast-path latency with the default compiled rule programs.
    p50_subsequent_cycles: u64,
    /// p50 fast-path latency with `SboxConfig::compiled` off — the
    /// interpreter the compiled path must strictly beat.
    p50_interpreted_cycles: u64,
    snapshot: TelemetrySnapshot,
}

fn p50_with(
    env: Platform,
    nfs: Vec<Box<dyn speedybox_nf::Nf>>,
    compiled: bool,
) -> (u64, TelemetrySnapshot) {
    let packets = Workload::generate(&WorkloadConfig {
        flows: FLOWS,
        seed: SEED,
        ..WorkloadConfig::default()
    })
    .packets();
    let config = SboxConfig { compiled, ..SboxConfig::default() };
    let mut chain = Chain::speedybox_with(nfs, config).with_platform(env);
    let _ = chain.run(packets);
    let snapshot = chain.telemetry().snapshot();
    (snapshot.latency[2].quantile(0.5), snapshot)
}

fn run_scenario(
    name: &'static str,
    env: Platform,
    build: impl Fn() -> Vec<Box<dyn speedybox_nf::Nf>>,
) -> Measurement {
    let (p50_compiled, snapshot) = p50_with(env, build(), true);
    let (p50_interpreted, _) = p50_with(env, build(), false);
    Measurement {
        name,
        hit_rate: snapshot.fastpath_hit_rate(),
        p50_subsequent_cycles: p50_compiled,
        p50_interpreted_cycles: p50_interpreted,
        snapshot,
    }
}

fn measure() -> Vec<Measurement> {
    vec![
        run_scenario("chain1-bess", Platform::Bess, || chains::chain1(8).0),
        run_scenario("chain2-onvm", Platform::Onvm, || chains::chain2().0),
    ]
}

/// Pooled reruns of the chain1 trace after the warm run.
const POOL_RERUNS: usize = 8;
/// Wall-clock throughput may regress by up to this fraction against the
/// baseline. Wall time on a shared CI runner is noisy, so this is
/// deliberately generous: the deterministic cycle-model gates above catch
/// real per-packet work regressions, while this bound only catches
/// collapses like an accidental per-packet allocation or copy creeping
/// back into the steady state.
const WALL_TOLERANCE: f64 = 0.5;

/// Steady-state numbers for the pooled packet substrate on chain1.
struct PoolSteadyState {
    /// Pool misses across all pooled reruns — the steady state must never
    /// fall back to the heap, so this gates at exactly zero.
    steady_misses: u64,
    /// Pool hits across the reruns (reported for context).
    steady_hits: u64,
    /// Best-of-reruns wall-clock throughput of `chain.run` alone (trace
    /// copies and recycling happen outside the timed window).
    wall_mpps: f64,
}

/// One warm run of chain1 installs every flow's rules and seeds the pool
/// with recycled buffers; then each rerun copies the trace through the
/// pool, runs the chain, and recycles every output buffer.
fn pool_steady_state() -> PoolSteadyState {
    use std::time::Instant;
    let packets = Workload::generate(&WorkloadConfig {
        flows: FLOWS,
        seed: SEED,
        ..WorkloadConfig::default()
    })
    .packets();
    let config = SboxConfig { batch_size: 32, ..SboxConfig::default() };
    let mut chain = Chain::speedybox_with(chains::chain1(8).0, config);
    let pool = Arc::clone(chain.pool());
    let warm = chain.run(pool.copy_packets(&packets));
    pool.free_batch(warm.outputs);

    let before = pool.stats();
    let mut best_mpps = 0.0f64;
    for _ in 0..POOL_RERUNS {
        let trace = pool.copy_packets(&packets);
        let n = trace.len();
        let t = Instant::now();
        let mut stats = chain.run(trace);
        let secs = t.elapsed().as_secs_f64();
        pool.free_batch(stats.outputs.drain(..));
        if secs > 0.0 {
            best_mpps = best_mpps.max(n as f64 / secs / 1e6);
        }
    }
    let after = pool.stats();
    PoolSteadyState {
        steady_misses: after.misses - before.misses,
        steady_hits: after.hits - before.hits,
        wall_mpps: best_mpps,
    }
}

/// Gates the pooled substrate. Returns the number of failures.
fn gate_pool(ps: &PoolSteadyState, baseline_wall_mpps: Option<f64>) -> usize {
    let mut failures = 0;
    if ps.steady_misses == 0 {
        println!(
            "PASS pool: 0 steady-state misses across {POOL_RERUNS} pooled reruns ({} hits)",
            ps.steady_hits
        );
    } else {
        println!(
            "FAIL pool: {} steady-state pool misses (heap fallbacks) — the warm data path must \
             be served entirely by the pool",
            ps.steady_misses
        );
        failures += 1;
    }
    match baseline_wall_mpps {
        Some(base) => {
            let floor = base * (1.0 - WALL_TOLERANCE);
            if ps.wall_mpps < floor {
                println!(
                    "FAIL pool: wall throughput {:.3} Mpps fell below {floor:.3} (baseline {base:.3} - {:.0}%)",
                    ps.wall_mpps,
                    WALL_TOLERANCE * 100.0
                );
                failures += 1;
            } else {
                println!(
                    "PASS pool: wall throughput {:.3} Mpps (baseline {base:.3})",
                    ps.wall_mpps
                );
            }
        }
        None => {
            println!("FAIL pool: baseline has no \"pool\" entry (refresh with --write-baseline)");
            failures += 1;
        }
    }
    failures
}

/// Required modeled speedup at 8 workers over 1 worker. Absolute, not
/// baseline-relative: if symmetric scaling stops paying, the runtime broke.
const MIN_SPEEDUP_8W: f64 = 3.0;
/// Scaling trace: enough flows to spread across every FID slice, long
/// enough that steady-state fast-path traffic dominates.
const SCALING_FLOWS: usize = 256;

/// The worker-scaling scenario's numbers at one worker count.
struct ScalingPoint {
    workers: usize,
    /// Modeled throughput over the busiest-worker wall clock.
    rate_mpps: f64,
    /// Compiled fast-path p50 — must not move with the worker count.
    p50_subsequent_cycles: u64,
    /// Install/remove rounds the churn thread completed during the run.
    churn_rounds: u64,
}

/// Round-robin interleave: keep each flow's packet order, merge flows one
/// packet at a time so every batch spans many FID slices (what an RSS NIC
/// delivers to a symmetric worker pool).
fn interleave(packets: Vec<Packet>) -> Vec<Packet> {
    let mut flows: Vec<Vec<Packet>> = Vec::new();
    let mut index: HashMap<u32, usize> = HashMap::new();
    for p in packets {
        let fid = p.five_tuple().expect("tcp workload").fid().value();
        let slot = *index.entry(fid).or_insert_with(|| {
            flows.push(Vec::new());
            flows.len() - 1
        });
        flows[slot].push(p);
    }
    let mut out = Vec::new();
    let mut cursor = vec![0usize; flows.len()];
    loop {
        let mut emitted = false;
        for (f, c) in flows.iter().zip(cursor.iter_mut()) {
            if *c < f.len() {
                out.push(f[*c].clone());
                *c += 1;
                emitted = true;
            }
        }
        if !emitted {
            return out;
        }
    }
}

/// Runs chain1 on BESS at `workers` symmetric workers, batch 32, with a
/// churn thread hammering install/remove on off-trace FIDs for the whole
/// run — the differential-scaling setup, measured instead of checked.
fn scaling_point(workers: usize) -> ScalingPoint {
    let packets = interleave(
        Workload::generate(&WorkloadConfig {
            flows: SCALING_FLOWS,
            median_packets: 16.0,
            seed: SEED,
            ..WorkloadConfig::default()
        })
        .packets(),
    );
    let avoid: HashSet<u32> =
        packets.iter().filter_map(|p| p.five_tuple().ok()).map(|t| t.fid().value()).collect();
    let config = SboxConfig { workers, batch_size: 32, ..SboxConfig::default() };
    let mut chain = Chain::speedybox_with(chains::chain1(8).0, config);
    let global = Arc::clone(&chain.sbox().expect("speedybox enabled").global);

    // Churn rules the trace never touches: publication races with the
    // measured readers, but the modeled per-packet work stays deterministic.
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
    let stop = Arc::new(AtomicBool::new(false));
    let churn_stop = Arc::clone(&stop);
    let churn = std::thread::spawn(move || {
        let mut ops = OpCounter::default();
        let mut rounds = 0u64;
        while !churn_stop.load(Ordering::Relaxed) {
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
    let stats = chain.run(packets);
    stop.store(true, Ordering::Relaxed);
    let churn_rounds = churn.join().unwrap_or(0);
    ScalingPoint {
        workers,
        rate_mpps: stats.worker_rate_mpps(chain.model()),
        p50_subsequent_cycles: chain.telemetry().snapshot().latency[2].quantile(0.5),
        churn_rounds,
    }
}

/// Gates the scaling scenario absolutely. Returns the number of failures.
fn gate_scaling(points: &[ScalingPoint]) -> usize {
    let one = points.iter().find(|p| p.workers == 1).expect("1-worker point");
    let eight = points.iter().find(|p| p.workers == 8).expect("8-worker point");
    let mut failures = 0;
    let speedup = if one.rate_mpps > 0.0 { eight.rate_mpps / one.rate_mpps } else { 0.0 };
    if speedup >= MIN_SPEEDUP_8W {
        println!(
            "PASS scaling: {:.2} -> {:.2} Mpps modeled, {speedup:.2}x at 8 workers (>= {MIN_SPEEDUP_8W}x)",
            one.rate_mpps, eight.rate_mpps
        );
    } else {
        println!(
            "FAIL scaling: {speedup:.2}x at 8 workers is below the {MIN_SPEEDUP_8W}x floor ({:.2} -> {:.2} Mpps)",
            one.rate_mpps, eight.rate_mpps
        );
        failures += 1;
    }
    if eight.p50_subsequent_cycles <= one.p50_subsequent_cycles {
        println!(
            "PASS scaling: 8-worker compiled p50 {} <= single-worker p50 {}",
            eight.p50_subsequent_cycles, one.p50_subsequent_cycles
        );
    } else {
        println!(
            "FAIL scaling: 8-worker compiled p50 {} exceeds single-worker p50 {}",
            eight.p50_subsequent_cycles, one.p50_subsequent_cycles
        );
        failures += 1;
    }
    failures
}

/// Live flows the bounded store must sustain in `--flow-scale` mode. The
/// 20-bit FID space tops out at 1,048,576, so one million live flows is
/// a ~95%-full slab.
const FLOW_SCALE_FLOWS: u32 = 1_000_000;
/// Hard resident-memory ceiling (peak, `VmHWM`) for the whole 1M-flow
/// exercise, MiB. Absolute, like the scaling gate: the slab + timer wheel
/// cost ~150 B/flow, so a breach means a per-entry memory regression, not
/// noise.
const FLOW_RSS_CEILING_MIB: u64 = 512;
/// Absolute sanity ceiling on the slab lookup p99, nanoseconds. A slab
/// lookup is two array index loads and an RCU guard — generous enough for
/// a noisy shared runner, tight enough to catch an accidental O(n) path.
const FLOW_LOOKUP_P99_CEILING_NS: u64 = 20_000;

/// `--flow-scale` measurements: install → lookup → idle-evict → re-install
/// over one million flows.
struct FlowScale {
    install_rate_mpps: f64,
    reinstall_rate_mpps: f64,
    lookup_p99_ns: u64,
    evict_rate_mpps: f64,
    evicted: usize,
    live_flows: usize,
    pending_generations: usize,
    /// Peak resident set (`VmHWM`), MiB — `None` off Linux.
    peak_rss_mib: Option<u64>,
}

/// Peak resident set size in MiB from `/proc/self/status` (Linux only).
fn peak_rss_mib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib.div_ceil(1024))
}

/// The 1M-flow smoke: fill the slab, sample lookups, idle-evict the whole
/// population through the timer wheel, then refill into the recycled
/// slots. Clocks are synthetic ticks — one per install — so the wheel
/// cascade is exercised deterministically; only the rates are wall-clock.
fn flow_scale() -> FlowScale {
    use std::time::Instant;
    let n = FLOW_SCALE_FLOWS;
    let table: FlowTable<u64> = FlowTable::new(64, FID_SPACE, AdmissionPolicy::EvictOldest);

    let start = Instant::now();
    for i in 0..n {
        table.insert(Fid::new(i), Arc::new(u64::from(i)), u64::from(i));
    }
    let install_rate_mpps = f64::from(n) / start.elapsed().as_secs_f64() / 1e6;
    assert_eq!(table.len(), n as usize, "every install must take a slab slot");

    // Lookup p99 over a strided sweep of the live table (200k samples).
    let mut samples: Vec<u64> = Vec::with_capacity(n as usize / 5 + 1);
    for i in (0..n).step_by(5) {
        let t = Instant::now();
        let hit = table.lookup(Fid::new(i));
        #[allow(clippy::cast_possible_truncation)] // sub-second interval fits u64 ns
        let ns = t.elapsed().as_nanos() as u64;
        assert!(hit.is_some(), "installed fid {i} must resolve");
        samples.push(ns);
    }
    samples.sort_unstable();
    let lookup_p99_ns = samples[samples.len() * 99 / 100];

    // Idle-evict the entire population: newest touch is n-1, so a clock of
    // n + 2000 with max_idle 1000 expires every flow through the wheel.
    let start = Instant::now();
    let evicted = table.expire_idle(u64::from(n) + 2_000, 1_000);
    let evict_rate_mpps = evicted.len() as f64 / start.elapsed().as_secs_f64() / 1e6;
    let evicted_count = evicted.len();
    drop(evicted);
    table.collect_generations();

    // Re-install: the freed slots must be recycled off the free list — the
    // arena's high-water mark cannot grow, so neither can peak memory.
    let start = Instant::now();
    for i in 0..n {
        table.insert(Fid::new(i), Arc::new(u64::from(i)), u64::from(n) + 3_000 + u64::from(i));
    }
    let reinstall_rate_mpps = f64::from(n) / start.elapsed().as_secs_f64() / 1e6;
    table.collect_generations();

    FlowScale {
        install_rate_mpps,
        reinstall_rate_mpps,
        lookup_p99_ns,
        evict_rate_mpps,
        evicted: evicted_count,
        live_flows: table.len(),
        pending_generations: table.pending_generations(),
        peak_rss_mib: peak_rss_mib(),
    }
}

/// Gates the flow-scale run absolutely. Returns the number of failures.
fn gate_flow_scale(fs: &FlowScale) -> usize {
    let mut failures = 0;
    if fs.live_flows >= FLOW_SCALE_FLOWS as usize {
        println!("PASS flow-scale: {} live flows sustained (>= {FLOW_SCALE_FLOWS})", fs.live_flows);
    } else {
        println!(
            "FAIL flow-scale: only {} live flows after re-install (need {FLOW_SCALE_FLOWS})",
            fs.live_flows
        );
        failures += 1;
    }
    if fs.evicted == FLOW_SCALE_FLOWS as usize {
        println!("PASS flow-scale: idle eviction reclaimed all {} flows", fs.evicted);
    } else {
        println!(
            "FAIL flow-scale: idle eviction reclaimed {} of {FLOW_SCALE_FLOWS} flows",
            fs.evicted
        );
        failures += 1;
    }
    if fs.lookup_p99_ns <= FLOW_LOOKUP_P99_CEILING_NS {
        println!(
            "PASS flow-scale: lookup p99 {} ns (ceiling {FLOW_LOOKUP_P99_CEILING_NS} ns)",
            fs.lookup_p99_ns
        );
    } else {
        println!(
            "FAIL flow-scale: lookup p99 {} ns exceeds the {FLOW_LOOKUP_P99_CEILING_NS} ns ceiling",
            fs.lookup_p99_ns
        );
        failures += 1;
    }
    match fs.peak_rss_mib {
        Some(mib) if mib <= FLOW_RSS_CEILING_MIB => {
            println!("PASS flow-scale: peak RSS {mib} MiB (ceiling {FLOW_RSS_CEILING_MIB} MiB)");
        }
        Some(mib) => {
            println!(
                "FAIL flow-scale: peak RSS {mib} MiB exceeds the {FLOW_RSS_CEILING_MIB} MiB ceiling"
            );
            failures += 1;
        }
        None => {
            println!("WARN flow-scale: /proc/self/status unavailable, memory ceiling not gated");
        }
    }
    if fs.pending_generations == 0 {
        println!("PASS flow-scale: retired generations drained to zero");
    } else {
        println!("FAIL flow-scale: {} retired generations leaked", fs.pending_generations);
        failures += 1;
    }
    failures
}

fn flow_scale_json(fs: &FlowScale) -> String {
    format!(
        "{{\n  \"flow_scale\": {{\"live_flows\": {}, \"install_rate_mpps\": {:.3}, \"reinstall_rate_mpps\": {:.3}, \"lookup_p99_ns\": {}, \"evict_rate_mpps\": {:.3}, \"evicted\": {}, \"peak_rss_mib\": {}, \"rss_ceiling_mib\": {}, \"pending_generations\": {}}}\n}}\n",
        fs.live_flows,
        fs.install_rate_mpps,
        fs.reinstall_rate_mpps,
        fs.lookup_p99_ns,
        fs.evict_rate_mpps,
        fs.evicted,
        fs.peak_rss_mib.map_or_else(|| "null".to_owned(), |v| v.to_string()),
        FLOW_RSS_CEILING_MIB,
        fs.pending_generations
    )
}

fn baseline_json(measurements: &[Measurement], flow: &FlowScale, pool: &PoolSteadyState) -> String {
    let mut out = String::from("{\n  \"scenarios\": [\n");
    for (i, m) in measurements.iter().enumerate() {
        let sep = if i + 1 == measurements.len() { "" } else { "," };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"fastpath_hit_rate\": {:.6}, \"p50_subsequent_cycles\": {}}}{sep}\n",
            escape(m.name),
            m.hit_rate,
            m.p50_subsequent_cycles
        ));
    }
    // Reference numbers for the bounded flow-state store. The flow-scale
    // gates are absolute (ceilings baked into perfgate), so these are a
    // recorded point of comparison, not gated thresholds.
    out.push_str(&format!(
        "  ],\n  \"flow_scale\": {{\"live_flows\": {}, \"lookup_p99_ns\": {}, \"peak_rss_mib\": {}, \"rss_ceiling_mib\": {}}},\n",
        flow.live_flows,
        flow.lookup_p99_ns,
        flow.peak_rss_mib.map_or_else(|| "null".to_owned(), |v| v.to_string()),
        FLOW_RSS_CEILING_MIB
    ));
    // The pooled substrate's wall-clock reference point (gated with the
    // generous WALL_TOLERANCE); the zero-miss gate is absolute.
    out.push_str(&format!(
        "  \"pool\": {{\"wall_mpps\": {:.6}, \"steady_misses\": {}}}\n}}\n",
        pool.wall_mpps, pool.steady_misses
    ));
    out
}

fn report_json(
    measurements: &[Measurement],
    scaling: &[ScalingPoint],
    pool: &PoolSteadyState,
) -> String {
    let mut out = String::from("{\n  \"scenarios\": [\n");
    for (i, m) in measurements.iter().enumerate() {
        let sep = if i + 1 == measurements.len() { "" } else { "," };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"fastpath_hit_rate\": {:.6}, \"p50_subsequent_cycles\": {}, \"p50_interpreted_cycles\": {}, \"snapshot\": {}}}{sep}\n",
            escape(m.name),
            m.hit_rate,
            m.p50_subsequent_cycles,
            m.p50_interpreted_cycles,
            m.snapshot.to_json()
        ));
    }
    out.push_str("  ],\n  \"scaling\": [\n");
    for (i, p) in scaling.iter().enumerate() {
        let sep = if i + 1 == scaling.len() { "" } else { "," };
        out.push_str(&format!(
            "    {{\"workers\": {}, \"rate_mpps\": {:.6}, \"p50_subsequent_cycles\": {}, \"churn_rounds\": {}}}{sep}\n",
            p.workers, p.rate_mpps, p.p50_subsequent_cycles, p.churn_rounds
        ));
    }
    out.push_str(&format!(
        "  ],\n  \"pool\": {{\"wall_mpps\": {:.6}, \"steady_misses\": {}, \"steady_hits\": {}}}\n}}\n",
        pool.wall_mpps, pool.steady_misses, pool.steady_hits
    ));
    out
}

/// A baseline entry parsed back from disk.
struct BaselineEntry {
    name: String,
    hit_rate: f64,
    p50_subsequent_cycles: f64,
}

fn parse_baseline(text: &str) -> Result<Vec<BaselineEntry>, String> {
    let root = Json::parse(text).map_err(|e| format!("baseline is not valid JSON: {e}"))?;
    let scenarios = root
        .get("scenarios")
        .and_then(Json::as_array)
        .ok_or("baseline is missing the \"scenarios\" array")?;
    scenarios
        .iter()
        .map(|s| {
            let name =
                s.get("name").and_then(Json::as_str).ok_or("scenario missing \"name\"")?.to_owned();
            let hit_rate = s
                .get("fastpath_hit_rate")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("scenario {name} missing \"fastpath_hit_rate\""))?;
            let p50 = s
                .get("p50_subsequent_cycles")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("scenario {name} missing \"p50_subsequent_cycles\""))?;
            Ok(BaselineEntry { name, hit_rate, p50_subsequent_cycles: p50 })
        })
        .collect()
}

/// The baseline's pool wall-clock reference, if the file has one (older
/// baselines predate the pooled substrate).
fn parse_baseline_pool_wall(text: &str) -> Option<f64> {
    let root = Json::parse(text).ok()?;
    root.get("pool").and_then(|p| p.get("wall_mpps")).and_then(Json::as_f64)
}

/// Gates `cur` against `base`. Returns the number of failures.
fn gate(measurements: &[Measurement], baseline: &[BaselineEntry], tolerance: f64) -> usize {
    let mut failures = 0;
    for m in measurements {
        // The compiled fast path must strictly beat the interpreter — no
        // tolerance: if lowering stops paying for itself, the default mode
        // is wrong.
        if m.p50_subsequent_cycles < m.p50_interpreted_cycles {
            println!(
                "PASS {}: compiled p50 {} < interpreted p50 {}",
                m.name, m.p50_subsequent_cycles, m.p50_interpreted_cycles
            );
        } else {
            println!(
                "FAIL {}: compiled p50 {} must be strictly below interpreted p50 {}",
                m.name, m.p50_subsequent_cycles, m.p50_interpreted_cycles
            );
            failures += 1;
        }
        let Some(base) = baseline.iter().find(|b| b.name == m.name) else {
            println!("FAIL {}: no baseline entry (refresh with --write-baseline)", m.name);
            failures += 1;
            continue;
        };
        // Hit rate: lower is a regression.
        let floor = base.hit_rate * (1.0 - tolerance);
        if m.hit_rate < floor {
            println!(
                "FAIL {}: fastpath_hit_rate {:.4} fell below {:.4} (baseline {:.4} - {:.0}%)",
                m.name,
                m.hit_rate,
                floor,
                base.hit_rate,
                tolerance * 100.0
            );
            failures += 1;
        } else {
            println!(
                "PASS {}: fastpath_hit_rate {:.4} (baseline {:.4})",
                m.name, m.hit_rate, base.hit_rate
            );
        }
        // p50 latency: higher is a regression.
        let ceiling = base.p50_subsequent_cycles * (1.0 + tolerance);
        let p50 = m.p50_subsequent_cycles as f64;
        if p50 > ceiling {
            println!(
                "FAIL {}: p50_subsequent_cycles {} rose above {:.0} (baseline {:.0} + {:.0}%)",
                m.name,
                m.p50_subsequent_cycles,
                ceiling,
                base.p50_subsequent_cycles,
                tolerance * 100.0
            );
            failures += 1;
        } else {
            println!(
                "PASS {}: p50_subsequent_cycles {} (baseline {:.0})",
                m.name, m.p50_subsequent_cycles, base.p50_subsequent_cycles
            );
            if p50 < base.p50_subsequent_cycles * (1.0 - tolerance) {
                println!(
                    "  note: p50 improved by more than {:.0}% — consider refreshing the baseline",
                    tolerance * 100.0
                );
            }
        }
    }
    failures
}

fn value_of<'a>(argv: &'a [String], name: &str) -> Option<&'a str> {
    argv.iter().position(|a| a == name).and_then(|i| argv.get(i + 1)).map(String::as_str)
}

fn run() -> Result<bool, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let tolerance = match value_of(&argv, "--tolerance") {
        None => DEFAULT_TOLERANCE,
        Some(v) => {
            let pct: f64 = v.parse().map_err(|_| format!("bad --tolerance: {v}"))?;
            pct / 100.0
        }
    };

    if argv.iter().any(|a| a == "--flow-scale") {
        println!("perfgate --flow-scale: {FLOW_SCALE_FLOWS} flows, {} slab slots", FID_SPACE);
        let fs = flow_scale();
        println!(
            "  install {:.2} M/s, re-install {:.2} M/s, lookup p99 {} ns, evict {:.2} M/s, peak RSS {}",
            fs.install_rate_mpps,
            fs.reinstall_rate_mpps,
            fs.lookup_p99_ns,
            fs.evict_rate_mpps,
            fs.peak_rss_mib.map_or_else(|| "n/a".to_owned(), |v| format!("{v} MiB")),
        );
        if let Some(path) = value_of(&argv, "--out") {
            std::fs::write(path, flow_scale_json(&fs)).map_err(|e| format!("write {path}: {e}"))?;
            println!("flow report written to {path}");
        }
        let failures = gate_flow_scale(&fs);
        if failures == 0 {
            println!("perfgate: flow-scale within bounds");
        } else {
            println!("perfgate: {failures} flow-scale gate(s) failed");
        }
        return Ok(failures == 0);
    }

    println!("perfgate: {FLOWS} flows, seed {SEED}, tolerance {:.0}%", tolerance * 100.0);
    let measurements = measure();
    for m in &measurements {
        println!(
            "  {}: {} packets, hit rate {:.4}, p50 fast-path {} cycles",
            m.name, m.snapshot.packets, m.hit_rate, m.p50_subsequent_cycles
        );
    }
    let scaling: Vec<ScalingPoint> = [1usize, 2, 4, 8].iter().map(|&w| scaling_point(w)).collect();
    for p in &scaling {
        println!(
            "  scaling w={}: {:.2} Mpps modeled, p50 {} cycles, {} churn rounds",
            p.workers, p.rate_mpps, p.p50_subsequent_cycles, p.churn_rounds
        );
    }
    let pool_ss = pool_steady_state();
    println!(
        "  pool: {} steady-state misses, {} hits, {:.3} Mpps wall over {POOL_RERUNS} reruns",
        pool_ss.steady_misses, pool_ss.steady_hits, pool_ss.wall_mpps
    );

    if let Some(path) = value_of(&argv, "--out") {
        std::fs::write(path, report_json(&measurements, &scaling, &pool_ss))
            .map_err(|e| format!("write {path}: {e}"))?;
        println!("report written to {path}");
    }

    if let Some(path) = value_of(&argv, "--write-baseline") {
        let flow = flow_scale();
        std::fs::write(path, baseline_json(&measurements, &flow, &pool_ss))
            .map_err(|e| format!("write {path}: {e}"))?;
        println!("baseline written to {path}");
        return Ok(true);
    }

    let baseline_path = value_of(&argv, "--baseline").unwrap_or("crates/bench/baseline.json");
    let text = std::fs::read_to_string(baseline_path)
        .map_err(|e| format!("read {baseline_path}: {e} (seed one with --write-baseline)"))?;
    let baseline = parse_baseline(&text)?;
    let failures = gate(&measurements, &baseline, tolerance)
        + gate_scaling(&scaling)
        + gate_pool(&pool_ss, parse_baseline_pool_wall(&text));
    if failures == 0 {
        println!("perfgate: all metrics within tolerance");
    } else {
        println!("perfgate: {failures} metric(s) regressed");
    }
    Ok(failures == 0)
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfgate error: {e}");
            ExitCode::from(2)
        }
    }
}
