//! Wall-clock benchmark of record for the SpeedyBox reproduction.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --noise <runs> [--sets <k>] --workload <name> --seconds <s> --trace <0|1> [--seed <first>]
//! ```
//!
//! The first form generates the workload's trace from the seed, checks the
//! chains' outputs and prints the end-to-end metrics (`--trace 0`) or the
//! per-layer metrics (`--trace 1`); its last line is one JSON object. The
//! second form runs the first `runs` times per set, each in a fresh
//! process with its own seed, and prints each metric's median, quartile
//! spread and max/min spread. See `perfbench/README.md`.

mod report;
mod timed;
mod traced;
mod workload;

use std::collections::BTreeMap;
use std::process::{Command, ExitCode};

use speedybox_telemetry::json::Json;
use workload::Workload;

/// Resident-set figures from `/proc/self/status`.
mod rss {
    fn field_kib(name: &str) -> u64 {
        let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
        status
            .lines()
            .find_map(|l| l.strip_prefix(name))
            .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
            .unwrap_or(0)
    }

    /// Current resident set, KiB.
    pub fn now_kib() -> u64 {
        field_kib("VmRSS:")
    }

    /// Peak resident set (high-water mark), KiB.
    pub fn peak_kib() -> u64 {
        field_kib("VmHWM:")
    }
}

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    noise: Option<usize>,
    sets: usize,
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut it = args.into_iter();
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut noise, mut sets) =
        (1u64, 10.0f64, false, None, 1usize);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload =
                    Some(Workload::parse(&v).ok_or_else(|| format!("unknown workload {v}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|_| "bad --seed")?,
            "--seconds" => seconds = value()?.parse().map_err(|_| "bad --seconds")?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--noise" => noise = Some(value()?.parse().map_err(|_| "bad --noise")?),
            "--sets" => sets = value()?.parse().map_err(|_| "bad --sets")?,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
    let workload =
        workload.ok_or_else(|| format!("--workload is required ({})", names.join(", ")))?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    if noise.is_some_and(|runs| runs < 2) {
        return Err("--noise needs at least 2 runs to give quartiles".into());
    }
    if sets == 0 {
        return Err("--sets must be at least 1".into());
    }
    Ok(Args { workload, seed, seconds, trace, noise, sets })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match args.noise {
        Some(runs) => noise(&args, runs),
        None => one_run(&args),
    }
}

/// One measured run; prints the metrics and the result line.
fn one_run(args: &Args) -> ExitCode {
    let w = args.workload;
    let trace = workload::generate(w, args.seed);
    let rss_base = rss::now_kib();
    println!(
        "# workload {} on {}: seed {}, {} packets, {} flows ({} candidates skipped), {} B/pkt",
        w.name(),
        w.chain(),
        args.seed,
        trace.packets.len(),
        trace.flows,
        trace.skipped,
        trace.packets.iter().map(|p| p.len()).sum::<usize>() / trace.packets.len()
    );
    let (table, o) = if args.trace {
        let spans = std::path::PathBuf::from(format!(
            "perfbench/out/spans-{}-seed{}.tsv",
            w.name(),
            args.seed
        ));
        let o = traced::run(w.chain(), &trace.packets, args.seconds, &spans);
        println!("# spans written to {}", spans.display());
        (report::PER_LAYER, o)
    } else {
        let o = timed::run(w.chain(), &trace.packets, args.seconds, rss_base);
        println!(
            "#{:>27} {:>14} count (packets whose output differs from the original chain's)",
            "failed_pkts", o.failed
        );
        (report::END_TO_END, o)
    };
    if !o.checks_ok {
        println!("# CHECK FAILED: pool misses in timed passes, FID collisions, IDS logs or span overflow");
    }
    report::print_result(table, &o.metrics, o.checks_ok && o.failed == 0, o.attempted, o.failed);
    ExitCode::SUCCESS
}

/// Runs `runs` fresh processes per set and prints each metric's spread.
fn noise(args: &Args, runs: usize) -> ExitCode {
    let exe = std::env::current_exe().expect("own executable path");
    let bounds = read_bounds();
    let table = if args.trace { report::PER_LAYER } else { report::END_TO_END };
    let mut sets: Vec<BTreeMap<String, Vec<f64>>> = Vec::new();
    let mut all_correct = true;
    for set in 0..args.sets {
        let mut values: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        for r in 0..runs {
            let seed = args.seed + (set * runs + r) as u64;
            let out = Command::new(&exe)
                .args(["--workload", args.workload.name(), "--seed", &seed.to_string()])
                .args([
                    "--seconds",
                    &args.seconds.to_string(),
                    "--trace",
                    if args.trace { "1" } else { "0" },
                ])
                .output()
                .expect("run the benchmark");
            let stdout = String::from_utf8_lossy(&out.stdout);
            let line = stdout.lines().last().unwrap_or("");
            let Ok(json) = Json::parse(line) else {
                eprintln!("run with seed {seed} printed no result (exit {:?})", out.status.code());
                return ExitCode::FAILURE;
            };
            all_correct &= json.get("correct") == Some(&Json::Bool(true));
            for (name, _) in table {
                let v = json.get("metrics").and_then(|m| m.get(name)).and_then(|m| m.get("value"));
                values
                    .entry((*name).to_string())
                    .or_default()
                    .push(v.and_then(Json::as_f64).unwrap_or(f64::NAN));
            }
            eprintln!("set {set} run {r} seed {seed} done");
        }
        sets.push(values);
    }
    println!(
        "# {} x {runs} runs of {} at {} s, trace {}",
        args.sets,
        args.workload.name(),
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "{:>28} {:>6} {:>12} {:>12} {:>12} {:>9} {:>9} {:>7} {:>9}",
        "metric", "set", "median", "q1", "q3", "iqr/med", "max/min", "bound", "shift"
    );
    let mut ok = all_correct;
    for (name, unit) in table {
        let bound = bounds.get(*name);
        for (i, set) in sets.iter().enumerate() {
            let v = &set[*name];
            let [q1, med, q3] = report::quartiles(v);
            let spread = (q3 - q1) / med.abs();
            let maxmin = v.iter().copied().fold(f64::MIN, f64::max)
                / v.iter().copied().fold(f64::MAX, f64::min);
            // Shift: how much worse this set's median is than the first's.
            let shift = bound.map(|&(better_higher, _)| {
                let first = report::quartiles(&sets[0][*name])[1];
                if better_higher {
                    (first - med) / first
                } else {
                    (med - first) / first
                }
            });
            let mut flag = String::new();
            if let Some(&(_, b)) = bound {
                if spread.is_nan() || spread > b {
                    flag.push_str(" SPREAD>BOUND");
                    ok = false;
                } else if spread > b / 3.0 {
                    flag.push_str(" spread>bound/3");
                }
                // The speedups are to repeat within a tenth (README.md).
                if name.ends_with("_speedup") && maxmin > 1.1 {
                    flag.push_str(" max/min>1.1");
                }
                if shift.is_some_and(|s| s > b) {
                    flag.push_str(" SHIFT>BOUND");
                    ok = false;
                }
            }
            println!(
                "{name:>28} {i:>6} {med:>12.4} {q1:>12.4} {q3:>12.4} {spread:>9.4} {maxmin:>9.4} {:>7} {:>9} {unit}{flag}",
                bound.map_or("-".into(), |b| format!("{:.3}", b.1)),
                shift.map_or("-".into(), |s| format!("{s:.4}")),
            );
        }
    }
    for (name, _) in table {
        for (i, set) in sets.iter().enumerate() {
            let v: Vec<String> = set[*name].iter().map(|x| format!("{x:.4}")).collect();
            println!("# {name} set {i}: {}", v.join(" "));
        }
    }
    println!("# every run correct: {all_correct}");
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `(better is higher, bound)` per end-to-end metric, from
/// `BENCHMARK.json` in the working directory when it is there.
fn read_bounds() -> BTreeMap<String, (bool, f64)> {
    let Ok(text) = std::fs::read_to_string("BENCHMARK.json") else { return BTreeMap::new() };
    let Ok(json) = Json::parse(&text) else { return BTreeMap::new() };
    let Some(items) = json.get("end_to_end").and_then(Json::as_array) else {
        return BTreeMap::new();
    };
    items
        .iter()
        .filter_map(|m| {
            let name = m.get("name")?.as_str()?.to_string();
            let higher = m.get("better")?.as_str()? == "higher";
            Some((name, (higher, m.get("bound")?.as_f64()?)))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        parse_args(line.split_whitespace().map(String::from))
    }

    #[test]
    fn noise_needs_two_runs_and_a_set() {
        assert!(parse("--workload ids-imix --noise 0").is_err());
        assert!(parse("--workload ids-imix --noise 1").is_err());
        assert!(parse("--workload ids-imix --noise 2 --sets 0").is_err());
        let args = parse("--workload ids-imix --noise 2 --sets 3").expect("valid");
        assert_eq!((args.noise, args.sets), (Some(2), 3));
    }

    #[test]
    fn the_contract_flags_parse() {
        let args = parse("--workload mice-churn --seed 7 --seconds 2.5 --trace 1").expect("valid");
        assert_eq!(args.workload, Workload::MiceChurn);
        assert_eq!((args.seed, args.seconds, args.trace, args.noise), (7, 2.5, true, None));
        assert!(parse("--seed 7").is_err(), "the workload is required");
        assert!(parse("--workload mice-churn --trace 2").is_err());
        assert!(parse("--workload mice-churn --seconds 0").is_err());
    }
}
