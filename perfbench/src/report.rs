//! Metric names, the result line, and the quartiles the noise report
//! needs.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics printed with `--trace 0`, with their units. The
/// batch-32 service-time percentiles and the failed-packet count are
/// printed beside them as diagnostics (see README.md).
pub const END_TO_END: &[(&str, &str)] = &[
    ("orig_mpps", "Mpps"),
    ("sbox_b1_mpps", "Mpps"),
    ("sbox_b32_mpps", "Mpps"),
    ("sbox_b1_speedup", "ratio"),
    ("sbox_b32_speedup", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics printed with `--trace 1`, with their units.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("pool.ns_per_pkt", "ns"),
    ("pool.misses", "count"),
    ("pool.share", "ratio"),
    ("classifier.ns_per_pkt", "ns"),
    ("classifier.flows_opened", "count"),
    ("classifier.fid_collisions", "count"),
    ("classifier.share", "ratio"),
    ("global.prepare_ns", "ns"),
    ("global.hit_ratio", "ratio"),
    ("global.events_fired", "count"),
    ("global.install_ns", "ns"),
    ("global.rules_installed", "count"),
    ("global.pkts_per_rule", "pkt/rule"),
    ("global.teardown_ns", "ns"),
    ("global.rules_removed", "count"),
    ("global.share", "ratio"),
    ("compiled.ns_per_call", "ns"),
    ("compiled.share", "ratio"),
    ("state_fn.ns_per_pkt", "ns"),
    ("state_fn.batches_per_pkt", "batch/pkt"),
    ("state_fn.share", "ratio"),
    ("nf.slow_ns", "ns"),
    ("nf.orig_ns", "ns"),
    ("nf.share", "ratio"),
    ("telemetry.ns_per_pkt", "ns"),
    ("telemetry.share", "ratio"),
    ("platform.self_ns_per_pkt", "ns"),
    ("platform.share", "ratio"),
    ("trace.overhead_ratio", "ratio"),
];

/// The result of one run, timed or traced.
#[derive(Debug)]
pub struct Outcome {
    /// Metrics by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Packets compared in the check pass.
    pub attempted: u64,
    /// Packets whose output differed from the reference chain's.
    pub failed: u64,
    /// Whether every other check held (IDS logs, pool misses, FID
    /// collisions, span buffer).
    pub checks_ok: bool,
}

/// Prints every metric of `table` as `name value unit`, then the result
/// line the benchmark contract asks for.
pub fn print_result(
    table: &[(&str, &str)],
    values: &BTreeMap<&'static str, f64>,
    correct: bool,
    attempted: u64,
    failed: u64,
) {
    let line = result_line(table, values, correct, attempted, failed);
    for (name, unit) in table {
        println!("{name:>28} {:>14.4} {unit}", values[name]);
    }
    println!("{line}");
}

/// The result line: one JSON object with `correct`, `attempted`, `failed`
/// and every metric of `table`. Panics if a metric is missing or not
/// finite: that is a bug in this program, not a measurement.
pub fn result_line(
    table: &[(&str, &str)],
    values: &BTreeMap<&'static str, f64>,
    correct: bool,
    attempted: u64,
    failed: u64,
) -> String {
    let mut json = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, unit)) in table.iter().enumerate() {
        let v = *values.get(name).unwrap_or_else(|| panic!("metric {name} was not measured"));
        assert!(v.is_finite(), "metric {name} is not finite: {v}");
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(json, "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}");
    }
    json.push_str("}}");
    json
}

/// First quartile, median and third quartile, as Python's
/// `statistics.quantiles(values, n=4)` computes them (the default
/// "exclusive" method). Needs at least two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let m = n + 1;
    [1, 2, 3].map(|i| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use speedybox_telemetry::json::Json;

    fn bench_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repo root");
        Json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn listed<'a>(json: &'a Json, key: &str, field: &str) -> Vec<&'a str> {
        let items = json.get(key).and_then(Json::as_array).expect(key);
        items.iter().map(|m| m.get(field).and_then(Json::as_str).expect(field)).collect()
    }

    #[test]
    fn metric_names_and_units_match_benchmark_json() {
        let json = bench_json();
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let names: Vec<&str> = table.iter().map(|(n, _)| *n).collect();
            let units: Vec<&str> = table.iter().map(|(_, u)| *u).collect();
            assert_eq!(listed(&json, key, "name"), names, "{key}");
            assert_eq!(listed(&json, key, "unit"), units, "{key}");
        }
    }

    #[test]
    fn workloads_match_benchmark_json() {
        let ours: Vec<&str> = crate::workload::Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(listed(&bench_json(), "workloads", "name"), ours);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), [1.5, 4.0, 12.0]);
        assert_eq!(quartiles(&[3.0, 1.0, 2.0, 10.0])[1], 2.5);
    }

    #[test]
    fn result_line_parses_and_carries_every_metric() {
        let values = BTreeMap::from([("orig_mpps", 1.25), ("setup_s", 0.5)]);
        let table = [("orig_mpps", "Mpps"), ("setup_s", "s")];
        let line = result_line(&table, &values, true, 3, 0);
        let j = Json::parse(&line).expect("result line is JSON");
        assert_eq!(j.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(j.get("attempted").and_then(Json::as_u64), Some(3));
        assert_eq!(j.get("failed").and_then(Json::as_u64), Some(0));
        let metric = |name: &str, field: &str| j.get("metrics")?.get(name)?.get(field).cloned();
        assert_eq!(metric("orig_mpps", "value").and_then(|v| v.as_f64()), Some(1.25));
        assert_eq!(metric("setup_s", "unit"), Some(Json::Str("s".into())));
    }
}
