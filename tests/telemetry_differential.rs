//! Differential test: the lock-free telemetry snapshot must agree with the
//! ground-truth [`RunStats`] aggregate, field for field, on every chain,
//! environment and batching mode. `RunStats` folds each
//! `ProcessedPacket` into plain (unsynchronized) counters after the run;
//! telemetry counts the same events live through relaxed atomics. Any
//! divergence means a counting site is missing, doubled, or misattributed.

#![allow(clippy::cast_possible_truncation)] // test data built from loop indices

use speedybox::nf::Nf;
use speedybox::packet::Packet;
use speedybox::platform::chains;
use speedybox::platform::runtime::SboxConfig;
use speedybox::platform::RunStats;
use speedybox::platform::{Chain, Platform};
use speedybox::telemetry::{TelemetrySnapshot, OP_NAMES};
use speedybox::traffic::{Workload, WorkloadConfig};

fn workload(flows: usize, seed: u64) -> Vec<Packet> {
    Workload::generate(&WorkloadConfig { flows, seed, ..WorkloadConfig::default() }).packets()
}

fn op_index(name: &str) -> usize {
    OP_NAMES.iter().position(|&n| n == name).expect("known op name")
}

/// The full snapshot-vs-stats contract.
fn assert_matches(stats: &RunStats, snap: &TelemetrySnapshot, label: &str) {
    assert_eq!(snap.packets as usize, stats.sent, "{label}: packets != sent");
    assert_eq!(snap.delivered as usize, stats.delivered, "{label}: delivered");
    assert_eq!(snap.dropped as usize, stats.dropped, "{label}: dropped");
    for (i, path) in ["baseline", "initial", "subsequent"].iter().enumerate() {
        assert_eq!(snap.paths[i] as usize, stats.path_counts[i], "{label}: paths[{path}]");
        assert_eq!(
            snap.latency[i].count as usize, stats.path_counts[i],
            "{label}: latency[{path}].count"
        );
    }
    let total = snap.latency_total();
    assert_eq!(total.count as usize, stats.sent, "{label}: latency count");
    assert_eq!(total.sum, stats.latencies_cycles.iter().sum::<u64>(), "{label}: latency sum");
    if stats.sent > 0 {
        assert_eq!(
            total.max,
            stats.latencies_cycles.iter().copied().max().unwrap(),
            "{label}: latency max"
        );
        assert_eq!(
            total.display_min(),
            stats.latencies_cycles.iter().copied().min().unwrap(),
            "{label}: latency min"
        );
    }
    // The abstract-operation mirror must be exact for all 19 kinds.
    let expected = stats.ops.telemetry_totals();
    for (i, name) in OP_NAMES.iter().enumerate() {
        assert_eq!(snap.ops.0[i], expected.0[i], "{label}: op {name}");
    }
    // Structural invariants tying the MAT counters to the path mix.
    assert_eq!(
        snap.fastpath_hits, snap.paths[2],
        "{label}: every subsequent-path packet is exactly one Global MAT hit"
    );
    assert_eq!(
        snap.rules_installed,
        snap.ops.0[op_index("consolidations")],
        "{label}: one rule install per consolidation"
    );
    assert_eq!(
        snap.events_fired,
        snap.ops.0[op_index("event_checks")].min(snap.events_fired),
        "{label}: events fired are a subset of event checks"
    );
}

fn build(name: &str) -> Vec<Box<dyn Nf>> {
    match name {
        "chain1" => chains::chain1(8).0,
        "chain2" => chains::chain2().0,
        other => panic!("unknown chain {other}"),
    }
}

fn check_bess(chain: &str, speedybox: bool, batch_size: usize) {
    let label = format!("bess/{chain}/sbox={speedybox}/batch={batch_size}");
    let config = SboxConfig { batch_size, shards: 4, ..SboxConfig::default() };
    let mut c = if speedybox {
        Chain::speedybox_with(build(chain), config)
    } else {
        Chain::original(build(chain))
    };
    let stats = c.run(workload(60, 3));
    assert_matches(&stats, &c.telemetry().snapshot(), &label);
}

fn check_onvm(chain: &str, speedybox: bool, batch_size: usize) {
    let label = format!("onvm/{chain}/sbox={speedybox}/batch={batch_size}");
    let config = SboxConfig { batch_size, shards: 4, ..SboxConfig::default() };
    let mut c = if speedybox {
        Chain::speedybox_with(build(chain), config).with_platform(Platform::Onvm)
    } else {
        Chain::original(build(chain)).with_platform(Platform::Onvm)
    };
    let stats = c.run(workload(60, 3));
    assert_matches(&stats, &c.telemetry().snapshot(), &label);
}

#[test]
fn bess_chain1_matches_run_stats() {
    for batch in [1, 8] {
        check_bess("chain1", true, batch);
    }
    check_bess("chain1", false, 1);
}

#[test]
fn bess_chain2_matches_run_stats() {
    for batch in [1, 8] {
        check_bess("chain2", true, batch);
    }
    check_bess("chain2", false, 1);
}

#[test]
fn onvm_chain1_matches_run_stats() {
    for batch in [1, 8] {
        check_onvm("chain1", true, batch);
    }
    check_onvm("chain1", false, 1);
}

#[test]
fn onvm_chain2_matches_run_stats() {
    for batch in [1, 8] {
        check_onvm("chain2", true, batch);
    }
    check_onvm("chain2", false, 1);
}

/// Two separate runs merged through `TelemetrySnapshot::merge` must equal
/// the combined `RunStats` of both — the property CI relies on when
/// aggregating per-scenario reports.
#[test]
fn merged_snapshots_match_merged_stats() {
    let config = SboxConfig { shards: 4, ..SboxConfig::default() };
    let mut a = Chain::speedybox_with(build("chain1"), config);
    let mut b = Chain::speedybox_with(build("chain1"), config);
    let sa = a.run(workload(40, 1));
    let sb = b.run(workload(40, 2));

    let mut combined = RunStats {
        sent: sa.sent + sb.sent,
        delivered: sa.delivered + sb.delivered,
        dropped: sa.dropped + sb.dropped,
        latencies_cycles: sa.latencies_cycles.iter().chain(&sb.latencies_cycles).copied().collect(),
        ..RunStats::default()
    };
    combined.ops.merge(&sa.ops);
    combined.ops.merge(&sb.ops);
    for i in 0..3 {
        combined.path_counts[i] = sa.path_counts[i] + sb.path_counts[i];
    }

    let mut snap = a.telemetry().snapshot();
    snap.merge(&b.telemetry().snapshot());
    assert_matches(&combined, &snap, "merged");
}

/// The fast path's header mode is read at every packet and counted in the
/// lane's cell. Compiled, interpreted and per-NF replay give the same
/// bytes; every fast-path hit counts as either a compiled hit or a
/// fallback; and switching to interpreted mid-run moves every later hit to
/// the fallbacks.
#[test]
fn header_modes_count_on_the_lane() {
    let packets = workload(60, 3);
    let interpreted = SboxConfig { compiled: false, ..SboxConfig::default() };
    let replay = SboxConfig { consolidate_ha: false, ..SboxConfig::default() };
    let mut outputs = Vec::new();
    for (label, config) in
        [("compiled", SboxConfig::default()), ("interpreted", interpreted), ("replay", replay)]
    {
        let mut chain = Chain::speedybox_with(build("chain1"), config);
        let stats = chain.run(packets.iter().cloned());
        let snap = chain.telemetry().snapshot();
        assert!(snap.fastpath_hits > 0, "{label}: the run reaches the fast path");
        assert_eq!(snap.fastpath_hits, snap.paths[2], "{label}: one hit per fast-path packet");
        assert_eq!(
            snap.fastpath_hits,
            snap.compiled_hits + snap.compiled_fallbacks,
            "{label}: every hit runs one header mode"
        );
        let compiled = if label == "compiled" { snap.fastpath_hits } else { 0 };
        assert_eq!(snap.compiled_hits, compiled, "{label}: compiled hits");
        outputs.push(stats.outputs.iter().map(|p| p.as_bytes().to_vec()).collect::<Vec<_>>());
    }
    assert!(outputs.windows(2).all(|w| w[0] == w[1]), "the header mode changes no byte");

    let (first, second) = packets.split_at(packets.len() / 2);
    let mut chain = Chain::speedybox(build("chain1"));
    let _ = chain.run(first.iter().cloned());
    let before = chain.telemetry().snapshot();
    chain.set_compiled(false);
    let _ = chain.run(second.iter().cloned());
    let after = chain.telemetry().snapshot();
    let hits = after.fastpath_hits - before.fastpath_hits;
    assert!(before.compiled_hits > 0 && hits > 0, "both halves reach the fast path");
    assert_eq!(after.compiled_hits, before.compiled_hits, "no compiled hit after the switch");
    assert_eq!(after.compiled_fallbacks - before.compiled_fallbacks, hits, "every later hit");
}

/// The exposition formats must round-trip the differential-grade numbers
/// exactly: a snapshot serialized to JSON and parsed back is the snapshot.
#[test]
fn snapshot_json_round_trips_after_real_run() {
    let mut c =
        Chain::speedybox_with(build("chain2"), SboxConfig { shards: 4, ..SboxConfig::default() });
    let _ = c.run(workload(50, 9));
    let snap = c.telemetry().snapshot();
    let back = TelemetrySnapshot::from_json(&snap.to_json()).expect("parse own JSON");
    assert_eq!(snap, back);
}

/// The evicted-rule fallback: a live flow whose Global MAT rule is gone
/// (`remove_flow` while the classifier still knows the flow) re-records on
/// its next packet. That packet is an initial packet, so it is priced and
/// counted as one on both platforms: its rule install shows up in the op
/// totals (one install per consolidation), and on ONVM it pays the same
/// ring hops as the flow's first walk.
#[test]
fn evicted_rule_fallback_counts_as_an_initial_packet() {
    use speedybox::packet::PacketBuilder;
    let flow: Vec<Packet> = (0..4u8)
        .map(|i| {
            PacketBuilder::tcp()
                .src("10.0.0.1:4000".parse().unwrap())
                .dst("10.0.0.2:80".parse().unwrap())
                .payload(&[i; 16])
                .build()
        })
        .collect();
    let fid = flow[0].five_tuple().unwrap().fid();
    for platform in Platform::ALL {
        let label = format!("{}/evicted-rule fallback", platform.as_str());
        let config = SboxConfig { shards: 4, ..SboxConfig::default() };
        let mut c =
            Chain::speedybox_with(chains::ipfilter_chain(3, 30), config).with_platform(platform);
        let mut stats = RunStats::default();
        let mut ring_hops = Vec::new();
        for (i, packet) in flow.iter().cloned().enumerate() {
            if i == 2 {
                c.sbox().expect("speedybox enabled").global.remove_flow(fid);
            }
            let outcome = c.process(packet);
            ring_hops.push(outcome.ops.ring_hops);
            stats.record(outcome);
        }
        assert_eq!(stats.path_counts, [0, 2, 2], "{label}: the fallback is an initial packet");
        assert_eq!(ring_hops[2], ring_hops[0], "{label}: fallback ring hops = initial walk's");
        assert_matches(&stats, &c.telemetry().snapshot(), &label);
    }
}
