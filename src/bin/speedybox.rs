//! `speedybox` — run service chains over synthetic workloads or captured
//! traces from the command line.
//!
//! ```text
//! speedybox run --chain chain1 --speedybox --flows 200
//! speedybox run --chain ipfilter:5 --env onvm --compare
//! speedybox lint --all
//! speedybox run --chain chain2 --verify --speedybox
//! speedybox gen-trace --flows 50 --out /tmp/workload.trace
//! ```

use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::process::ExitCode;

use speedybox::lint::{build_chain, lint_chain, CHAIN_REGISTRY, LINT_ALL};
use speedybox::mat::AdmissionPolicy;
use speedybox::packet::trace::Trace;
use speedybox::packet::Packet;
use speedybox::platform::runtime::SboxConfig;
use speedybox::platform::{Chain, Platform, RunStats};
use speedybox::sim;
use speedybox::stats::Summary;
use speedybox::telemetry::TelemetrySnapshot;
use speedybox::traffic::{Workload, WorkloadConfig};

const USAGE: &str = "\
speedybox — SpeedyBox NFV service chains (ICDCS 2019 reproduction)

USAGE:
  speedybox run [OPTIONS]        process a workload through a chain
  speedybox lint <CHAIN>|--all   statically verify a chain (SBX0xx lints)
  speedybox sim [OPTIONS]        differential simulation vs the reference
                                 oracle, with scripted fault injection
  speedybox gen-trace [OPTIONS]  synthesize a workload trace file
  speedybox chains               list available chain names

RUN OPTIONS:
  --chain <NAME>      any name from `speedybox chains` (default: chain1)
  --env <ENV>         bess | onvm (default: bess)
  --speedybox         enable SpeedyBox (default: original chain)
  --interpreted       apply consolidated rules through the interpreter
                      instead of compiled micro-op programs (escape hatch;
                      compiled is the default)
  --verify            lint a fresh instance of the chain first; refuse to
                      run if any Error-level finding is reported
  --compare           run both original and SpeedyBox, report the delta
  --flows <N>         synthetic workload flows (default: 100)
  --seed <N>          workload seed (default: 1)
  --trace <FILE>      replay a trace file instead of synthesizing
  --batch-size <N>    fast-path packets per batch (default: 1 = per-packet)
  --workers <N>       symmetric run-to-completion workers; must be a power
                      of two; each owns the FID slice fid & (N-1)
                      (default: 1 = single-path)
  --shards <N>        classifier/Global-MAT table shards, power of two (default: 16)
  --max-flows <N>     bound on live flow-table entries / installed rules
                      (default: 1048576 = the full 20-bit FID space)
  --idle-timeout <N>  reclaim flows idle for more than N classifier ticks,
                      swept at batch boundaries (default: 0 = disabled)
  --admission <P>     evict | reject — what happens to a new flow when the
                      table is at --max-flows: evict the least-recently-seen
                      flow (default) or reject the newcomer (it rides the
                      original chain uninstrumented)
  --checkpoint-interval <N>
                      snapshot every NF's state every N packets and keep a
                      bounded in-flight log, enabling chain-consistent
                      crash/restart recovery (default: 0 = disabled; the
                      data path stays allocation-free when off)
  --dump-mat          print the Global MAT after the run (implies --speedybox)
  --metrics <FILE>    write the run's telemetry snapshot; *.prom gets
                      Prometheus text exposition, anything else JSON
                      (with --compare, the SpeedyBox run is exported)

LINT OPTIONS:
  --all               lint every registry chain; exit non-zero on Errors
  --json              emit findings as JSON instead of rendered text

SIM OPTIONS:
  --seeds <N>         sweep seeds 0..N (default: 8)
  --seed <N>          run one specific seed instead of a sweep
  --all               sweep every registry chain on both environments,
                      both execution modes, batch sizes 1 and 8, worker
                      counts 1, 2, 4 and 8
  --chain <NAME>      one chain (default: chain1; ignored with --all)
  --env <ENV>         bess | onvm (default: bess; ignored with --all)
  --batch <N>         packets per batch (default: 1; ignored with --all)
  --workers <N>       symmetric workers for the SUT (default: 1; ignored
                      with --all)
  --interpreted       start in interpreted rule execution
  --no-faults         disable the scripted fault plans
  --nf-faults         add NF crash/restart verbs (nfkill/nfrecover/snap) to
                      the fault plans; the runner auto-enables
                      checkpointing and the recovery protocol under test
  --evict-pressure    bound the SUT flow table at 64 entries so installs
                      continuously displace LRU flows mid-trace — the
                      capacity-eviction path under byte-equivalence check
  --inject-bug <B>    seed a deliberate SUT bug to validate the harness
                      (skip-checksum-fix | evict-ordering |
                      skip-snapshot-replay)
  --artifact-dir <D>  write shrunk divergence reproducers here as JSON
  --replay <FILE>     re-run a divergence artifact byte-for-byte
  exit code: 0 = equivalent, 1 = divergence found (or, in a build with
             debug assertions, an event condition held with no signal
             raise), 2 = usage error

GEN-TRACE OPTIONS:
  --flows <N>         flows to synthesize (default: 100)
  --seed <N>          RNG seed (default: 1)
  --out <FILE>        output path (required)
  --format <FMT>      lines | pcap (default: lines; pcap opens in Wireshark)
";

struct Args {
    flags: Vec<String>,
}

impl Args {
    fn flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }

    fn value(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .position(|f| f == name)
            .and_then(|i| self.flags.get(i + 1))
            .map(String::as_str)
    }

    fn usize_value(&self, name: &str, default: usize) -> Result<usize, String> {
        match self.value(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("bad value for {name}: {v}")),
        }
    }

    /// `--workers`, validated: the flag must carry a value, and the value
    /// must be a power of two (worker steering masks the FID with
    /// `workers - 1`, so anything else would silently misroute flows).
    fn workers_value(&self, default: usize) -> Result<usize, String> {
        if self.flag("--workers") && self.value("--workers").is_none() {
            return Err("--workers requires a value".to_owned());
        }
        let w = self.usize_value("--workers", default)?;
        if w == 0 || !w.is_power_of_two() {
            return Err(format!("bad value for --workers: {w} (must be a power of two >= 1)"));
        }
        Ok(w)
    }
}

fn load_packets(args: &Args) -> Result<Vec<Packet>, String> {
    if let Some(path) = args.value("--trace") {
        let file = File::open(path).map_err(|e| format!("open {path}: {e}"))?;
        let trace = if path.ends_with(".pcap") {
            speedybox::packet::pcap::read_pcap(BufReader::new(file))
                .map_err(|e| format!("parse {path}: {e}"))?
        } else {
            Trace::read_lines(BufReader::new(file)).map_err(|e| format!("parse {path}: {e}"))?
        };
        return trace.packets().map_err(|e| format!("trace packet invalid: {e}"));
    }
    let flows = args.usize_value("--flows", 100)?;
    let seed = args.usize_value("--seed", 1)? as u64;
    Ok(Workload::generate(&WorkloadConfig { flows, seed, ..WorkloadConfig::default() }).packets())
}

fn write_metrics(path: &str, snap: &TelemetrySnapshot) -> Result<(), String> {
    let text = if path.ends_with(".prom") { snap.to_prometheus() } else { snap.to_json() };
    std::fs::write(path, text).map_err(|e| format!("write {path}: {e}"))?;
    println!(
        "\nmetrics: wrote {path} ({} packets, {:.1}% fast-path)",
        snap.packets,
        snap.fastpath_hit_rate() * 100.0
    );
    Ok(())
}

fn print_run(label: &str, chain: &Chain, stats: &RunStats) {
    let cycles = stats.mean_work_cycles();
    let latency = stats.mean_latency_us(chain.model());
    let rate = chain.rate_mpps(stats);
    let lat = Summary::from_u64(&stats.latencies_cycles);
    println!("{label}");
    println!(
        "  packets: {} in, {} delivered, {} dropped",
        stats.sent, stats.delivered, stats.dropped
    );
    println!(
        "  paths:   {} baseline, {} initial, {} fast-path",
        stats.path_counts[0], stats.path_counts[1], stats.path_counts[2]
    );
    println!("  cost:    {cycles:.0} cycles/packet, {latency:.2} us mean latency, {rate:.2} Mpps");
    println!(
        "  latency: p50 {:.0} / p90 {:.0} / p99 {:.0} cycles",
        lat.median(),
        lat.quantile(0.9),
        lat.p99()
    );
    if stats.worker_cycles.len() > 1 {
        let total: u64 = stats.worker_cycles.iter().sum();
        let busiest = stats.worker_cycles.iter().copied().max().unwrap_or(0);
        let share = if total > 0 { busiest as f64 / total as f64 * 100.0 } else { 0.0 };
        println!(
            "  workers: {} symmetric, busiest carries {share:.1}% of work, {:.2} Mpps modeled",
            stats.worker_cycles.len(),
            stats.worker_rate_mpps(chain.model())
        );
    }
}

fn cmd_run(args: &Args) -> Result<(), String> {
    let chain_name = args.value("--chain").unwrap_or("chain1");
    let env = Platform::parse(args.value("--env").unwrap_or("bess"))?;
    let dump = args.flag("--dump-mat");
    let speedybox = args.flag("--speedybox") || dump;
    let default_cfg = SboxConfig::default();
    let admission = match args.value("--admission") {
        None | Some("evict") => AdmissionPolicy::EvictOldest,
        Some("reject") => AdmissionPolicy::Reject,
        Some(other) => return Err(format!("bad value for --admission: {other} (evict | reject)")),
    };
    let config = SboxConfig {
        batch_size: args.usize_value("--batch-size", default_cfg.batch_size)?,
        shards: args.usize_value("--shards", default_cfg.shards)?,
        workers: args.workers_value(default_cfg.workers)?,
        compiled: !args.flag("--interpreted"),
        max_flows: args.usize_value("--max-flows", default_cfg.max_flows)?,
        idle_timeout: args.usize_value("--idle-timeout", 0)? as u64,
        admission,
        checkpoint_interval: args.usize_value("--checkpoint-interval", 0)? as u64,
        ..default_cfg
    };
    let build = |speedybox: bool| -> Result<Chain, String> {
        let nfs = build_chain(chain_name)?;
        let chain =
            if speedybox { Chain::speedybox_with(nfs, config) } else { Chain::original(nfs) };
        Ok(chain.with_platform(env))
    };
    if args.flag("--verify") {
        // Preflight on a fresh instance: pass 2 statically invokes event
        // update handlers, which may mutate NF state, so the linted chain
        // must never be the one that processes traffic.
        let report = lint_chain(chain_name)?;
        if report.has_errors() {
            return Err(format!(
                "chain {chain_name} failed verification:\n{}",
                report.render_text()
            ));
        }
        println!("verify: {chain_name} passed ({} warning(s))\n", report.warn_count());
    }
    let packets = load_packets(args)?;
    println!("chain: {chain_name} on {}, {} packets\n", env.as_str(), packets.len());

    if args.flag("--compare") {
        let mut orig = build(false)?;
        let so = orig.run(packets.clone());
        print_run("original", &orig, &so);
        let mut fast = build(true)?;
        let sf = fast.run(packets);
        print_run("\nspeedybox", &fast, &sf);
        let cut = 1.0 - sf.mean_latency_cycles() / so.mean_latency_cycles();
        println!("\nlatency reduction: {:.1}%", cut * 100.0);
        if let Some(path) = args.value("--metrics") {
            write_metrics(path, &fast.telemetry().snapshot())?;
        }
        return Ok(());
    }

    let mut chain = build(speedybox)?;
    let stats = chain.run(packets);
    print_run(if speedybox { "speedybox" } else { "original" }, &chain, &stats);
    if dump {
        println!("\n{}", chain.sbox().expect("speedybox enabled").global.dump());
    }
    if let Some(path) = args.value("--metrics") {
        write_metrics(path, &chain.telemetry().snapshot())?;
    }
    Ok(())
}

fn cmd_lint(args: &Args) -> Result<(), String> {
    let json = args.flag("--json");
    let names: Vec<&str> = if args.flag("--all") {
        LINT_ALL.to_vec()
    } else {
        let name = args
            .flags
            .iter()
            .find(|f| !f.starts_with("--"))
            .ok_or("usage: speedybox lint <CHAIN> | --all [--json]")?;
        vec![name.as_str()]
    };
    let mut errors = 0usize;
    for name in names {
        let report = lint_chain(name)?;
        errors += report.error_count();
        if json {
            println!("{}", report.to_json());
        } else {
            print!("{}", report.render_text());
        }
    }
    if errors > 0 {
        return Err(format!("{errors} error-level finding(s)"));
    }
    Ok(())
}

/// One configuration axis of the sim sweep.
struct SimConfig {
    chain: String,
    env: Platform,
    compiled: bool,
    batch: usize,
    workers: usize,
}

fn sim_configs(args: &Args) -> Result<Vec<SimConfig>, String> {
    if args.flag("--all") {
        let mut configs = Vec::new();
        for chain in LINT_ALL {
            for env in Platform::ALL {
                for compiled in [true, false] {
                    for batch in [1usize, 8] {
                        for workers in [1usize, 2, 4, 8] {
                            configs.push(SimConfig {
                                chain: (*chain).to_string(),
                                env,
                                compiled,
                                batch,
                                workers,
                            });
                        }
                    }
                }
            }
        }
        return Ok(configs);
    }
    Ok(vec![SimConfig {
        chain: args.value("--chain").unwrap_or("chain1").to_string(),
        env: Platform::parse(args.value("--env").unwrap_or("bess"))?,
        compiled: !args.flag("--interpreted"),
        batch: args.usize_value("--batch", 1)?.max(1),
        workers: args.workers_value(1)?,
    }])
}

fn sim_report_divergence(case: &sim::SimCase, out: &sim::RunOutcome) {
    let Some(d) = &out.divergence else { return };
    println!(
        "DIVERGENCE chain={} env={} mode={} batch={} workers={} seed={}: {} at packet {} (orig {})",
        case.chain,
        case.env.as_str(),
        if case.compiled { "compiled" } else { "interpreted" },
        case.batch,
        case.workers,
        case.seed,
        d.kind.as_str(),
        d.index,
        d.orig
    );
    println!("  {}", d.detail.replace('\n', "\n  "));
}

fn cmd_sim(args: &Args) -> Result<ExitCode, String> {
    if let Some(path) = args.value("--replay") {
        let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
        let case = sim::artifact::from_json(&text)?;
        let out = sim::run_case(&case)?;
        println!(
            "replay {path}: {} packets, {} delivered, {} dropped, {} rejected, {} excused-lag, hash {:016x}",
            case.items.len(),
            out.delivered,
            out.dropped,
            out.rejected,
            out.excused_lag,
            out.output_hash
        );
        return Ok(if out.divergence.is_some() {
            sim_report_divergence(&case, &out);
            ExitCode::from(1)
        } else {
            println!("replay: equivalent (no divergence)");
            ExitCode::SUCCESS
        });
    }

    let seeds: Vec<u64> = match args.value("--seed") {
        Some(s) => vec![s.parse().map_err(|_| format!("bad value for --seed: {s}"))?],
        None => (0..args.usize_value("--seeds", 8)? as u64).collect(),
    };
    let with_faults = !args.flag("--no-faults");
    let nf_faults = args.flag("--nf-faults");
    let bug = args.value("--inject-bug").map(sim::BugKind::parse).transpose()?;
    let artifact_dir = args.value("--artifact-dir");
    // Pressure mode: a tiny flow-table bound keeps every case under
    // constant capacity-evict churn (installs displace LRU flows, which
    // re-record through the slow path — byte equivalence must survive).
    let max_flows = if args.flag("--evict-pressure") { 64 } else { 0 };
    let configs = sim_configs(args)?;
    // Debug builds log every armed event whose condition held with no
    // signal raise; the sweep must end with that log empty.
    let _ = speedybox::mat::track::take_missed_raises();

    let mut cases = 0usize;
    let mut divergent = 0usize;
    let mut totals = (0usize, 0usize, 0usize, 0usize);
    let mut sweep_hash = 0xcbf2_9ce4_8422_2325u64;
    for config in &configs {
        for &seed in &seeds {
            let scenario = sim::generate(&sim::ScenarioConfig {
                seed,
                chain: config.chain.clone(),
                with_faults,
                nf_faults,
            });
            let case = sim::SimCase {
                chain: config.chain.clone(),
                env: config.env,
                compiled: config.compiled,
                batch: config.batch,
                workers: config.workers,
                seed,
                max_flows,
                bug,
                items: scenario.items,
                faults: scenario.faults,
            };
            let out = sim::run_case(&case)?;
            cases += 1;
            totals.0 += out.delivered;
            totals.1 += out.dropped;
            totals.2 += out.rejected;
            totals.3 += out.excused_lag;
            for b in out.output_hash.to_be_bytes() {
                sweep_hash ^= u64::from(b);
                sweep_hash = sweep_hash.wrapping_mul(0x0100_0000_01b3);
            }
            if out.divergence.is_some() {
                divergent += 1;
                sim_report_divergence(&case, &out);
                let (small, spent) = sim::shrink(&case, 256);
                let small_out = sim::run_case(&small)?;
                println!(
                    "  shrunk to {} packet(s), {} fault clause(s) in {spent} run(s)",
                    small.items.len(),
                    small.faults.faults.len()
                );
                if let Some(dir) = artifact_dir {
                    std::fs::create_dir_all(dir).map_err(|e| format!("mkdir {dir}: {e}"))?;
                    let file = format!(
                        "{dir}/sim-{}-{}-{}-b{}-w{}-s{}.json",
                        small.chain,
                        small.env.as_str(),
                        if small.compiled { "compiled" } else { "interpreted" },
                        small.batch,
                        small.workers,
                        small.seed
                    );
                    std::fs::write(
                        &file,
                        sim::artifact::to_json(&small, small_out.divergence.as_ref()),
                    )
                    .map_err(|e| format!("write {file}: {e}"))?;
                    println!("  artifact: {file}");
                }
            }
        }
    }
    println!(
        "sim: {cases} case(s) over {} config(s) x {} seed(s); {} delivered, {} dropped, {} rejected, {} excused-lag; sweep hash {sweep_hash:016x}",
        configs.len(),
        seeds.len(),
        totals.0,
        totals.1,
        totals.2,
        totals.3
    );
    let missed = speedybox::mat::track::take_missed_raises();
    for m in &missed {
        println!("sim: missed raise: event `{}` held with no signal raise ({}x)", m.event, m.count);
    }
    if divergent > 0 {
        println!("sim: {divergent} divergent case(s)");
        Ok(ExitCode::from(1))
    } else if !missed.is_empty() {
        Ok(ExitCode::from(1))
    } else {
        println!("sim: zero divergences");
        Ok(ExitCode::SUCCESS)
    }
}

fn cmd_gen_trace(args: &Args) -> Result<(), String> {
    let out = args.value("--out").ok_or("--out <FILE> is required")?;
    let flows = args.usize_value("--flows", 100)?;
    let seed = args.usize_value("--seed", 1)? as u64;
    let workload = Workload::generate(&WorkloadConfig { flows, seed, ..WorkloadConfig::default() });
    let file = File::create(out).map_err(|e| format!("create {out}: {e}"))?;
    let format =
        args.value("--format").unwrap_or(if out.ends_with(".pcap") { "pcap" } else { "lines" });
    match format {
        "lines" => {
            workload.to_trace().write_lines(BufWriter::new(file)).map_err(|e| e.to_string())?
        }
        "pcap" => speedybox::packet::pcap::write_pcap(&workload.to_trace(), BufWriter::new(file))
            .map_err(|e| e.to_string())?,
        other => return Err(format!("unknown trace format: {other}")),
    }
    println!("wrote {} packets ({} flows) to {out} ({format})", workload.len(), flows);
    print!("{}", speedybox::traffic::WorkloadStats::of(&workload));
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = argv.split_first() else {
        eprint!("{USAGE}");
        return ExitCode::from(2);
    };
    let args = Args { flags: rest.to_vec() };
    if cmd == "sim" {
        return match cmd_sim(&args) {
            Ok(code) => code,
            Err(e) => {
                eprintln!("error: {e}");
                eprint!("{USAGE}");
                ExitCode::from(2)
            }
        };
    }
    let result = match cmd.as_str() {
        "run" => cmd_run(&args),
        "lint" => cmd_lint(&args),
        "gen-trace" => cmd_gen_trace(&args),
        "chains" => {
            for (name, desc) in CHAIN_REGISTRY {
                println!("{name:<16}{desc}");
            }
            Ok(())
        }
        "--help" | "-h" | "help" => {
            print!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command: {other}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            eprint!("{USAGE}");
            ExitCode::from(2)
        }
    }
}
