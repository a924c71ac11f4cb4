//! Cross-crate integration: the threaded OpenNetVM runtime, cross-
//! environment output equality, and trace capture/replay.

use speedybox::nf::monitor::Monitor;
use speedybox::nf::Nf;
use speedybox::packet::trace::Trace;
use speedybox::packet::{Packet, PacketBuilder};
use speedybox::platform::chains::{chain1, chain2, ipfilter_chain, snort_monitor_chain};
use speedybox::platform::{run_threaded, run_threaded_on};
use speedybox::platform::{Chain, Platform, SboxConfig, SpeedyBox};
use speedybox::telemetry::TelemetrySnapshot;
use speedybox::traffic::{Workload, WorkloadConfig};

fn workload(flows: usize, seed: u64) -> Vec<Packet> {
    Workload::generate(&WorkloadConfig {
        flows,
        median_packets: 5.0,
        payload_len: 100,
        suspicious_fraction: 0.2,
        seed,
        ..WorkloadConfig::default()
    })
    .packets()
}

#[test]
fn bess_and_onvm_produce_identical_outputs() {
    let pkts = workload(30, 1);
    let bess = Chain::speedybox(ipfilter_chain(3, 20)).run(pkts.clone());
    let onvm = Chain::speedybox(ipfilter_chain(3, 20)).with_platform(Platform::Onvm).run(pkts);
    assert_eq!(bess.outputs.len(), onvm.outputs.len());
    for (a, b) in bess.outputs.iter().zip(&onvm.outputs) {
        assert_eq!(a.as_bytes(), b.as_bytes());
    }
}

#[test]
fn threaded_onvm_matches_modeled_onvm_outputs() {
    let pkts = workload(20, 2);
    let modeled =
        Chain::speedybox(ipfilter_chain(2, 20)).with_platform(Platform::Onvm).run(pkts.clone());
    let threaded = run_threaded(ipfilter_chain(2, 20), pkts, true, 1);
    assert_eq!(modeled.outputs.len(), threaded.delivered.len());
    for (a, b) in modeled.outputs.iter().zip(&threaded.delivered) {
        assert_eq!(a.as_bytes(), b.as_bytes());
    }
}

#[test]
fn threaded_onvm_snort_monitor_equivalence() {
    // The Fig 6 chain under true concurrency: logs and counters match the
    // single-threaded baseline.
    let pkts = workload(25, 3);

    let (nfs_base, h_base) = snort_monitor_chain();
    Chain::original(nfs_base).run(pkts.clone());

    let (nfs_thr, h_thr) = snort_monitor_chain();
    let report = run_threaded(nfs_thr, pkts, true, 1);
    assert!(report.dropped == 0);

    let logs_base: Vec<String> = h_base.snort.log().iter().map(|e| e.msg.clone()).collect();
    let logs_thr: Vec<String> = h_thr.snort.log().iter().map(|e| e.msg.clone()).collect();
    assert_eq!(logs_base, logs_thr, "IDS output identical under concurrency");
    assert_eq!(h_base.monitor.snapshot(), h_thr.monitor.snapshot());
}

#[test]
fn trace_capture_and_replay_is_faithful() {
    let w = Workload::generate(&WorkloadConfig { flows: 10, seed: 4, ..WorkloadConfig::default() });
    let trace = w.to_trace();
    let mut buf = Vec::new();
    trace.write_lines(&mut buf).unwrap();
    let reloaded = Trace::read_lines(&buf[..]).unwrap();
    let replayed = reloaded.packets().unwrap();

    // Replaying the reloaded trace produces the same chain results.
    let direct = Chain::speedybox(ipfilter_chain(2, 10)).run(w.packets());
    let viatrace = Chain::speedybox(ipfilter_chain(2, 10)).run(replayed);
    assert_eq!(direct.delivered, viatrace.delivered);
    assert_eq!(direct.outputs.len(), viatrace.outputs.len());
    for (a, b) in direct.outputs.iter().zip(&viatrace.outputs) {
        assert_eq!(a.as_bytes(), b.as_bytes());
    }
}

#[test]
fn many_flows_interleaved_keep_rules_apart() {
    // 200 interleaved flows: every flow's first packet is slow-path, all
    // others fast-path, and nothing cross-contaminates.
    let pkts = workload(200, 5);
    let mut chain = Chain::speedybox(ipfilter_chain(2, 10));
    let stats = chain.run(pkts);
    assert_eq!(stats.path_counts[1], 200, "one initial packet per flow");
    assert_eq!(stats.dropped, 0);
    // All flows closed via FIN: tables drained.
    let sbox = chain.sbox().unwrap();
    assert!(sbox.global.is_empty());
}

#[test]
fn chain2_runs_on_threaded_runtime() {
    let pkts = workload(15, 6);
    let (nfs, handles) = chain2();
    let report = run_threaded(nfs, pkts, true, 1);
    assert!(report.dropped == 0);
    assert!(!report.delivered.is_empty());
    // Suspicious flows exist in this workload, so the IDS spoke.
    assert!(!handles.snort.log().is_empty());
}

#[test]
fn baseline_threaded_latency_exceeds_fast_path_latency() {
    use speedybox::stats::Summary;
    // Wall-clock sanity on the real pipeline: with SpeedyBox, subsequent
    // packets skip the rings, so mean latency should not be higher than
    // the all-rings baseline. (Generous margin: CI machines are noisy.)
    let pkts = workload(10, 7);
    let base = run_threaded(ipfilter_chain(4, 200), pkts.clone(), false, 1);
    let fast = run_threaded(ipfilter_chain(4, 200), pkts, true, 1);
    let b = Summary::new(base.latencies_ns.iter().map(|&x| x as f64)).median();
    let f = Summary::new(fast.latencies_ns.iter().map(|&x| x as f64)).median();
    assert!(f <= b * 3.0, "fast-path median {f}ns should not be far above baseline {b}ns");
}

/// A snapshot without its pool counters: they count where buffers came
/// from, which differs between the runtimes, not what the chain did.
fn chain_counters(mut s: TelemetrySnapshot) -> TelemetrySnapshot {
    s.pool_hits = 0;
    s.pool_misses = 0;
    s.pool_recycled = 0;
    s.pool_refills = 0;
    s.pool_flushes = 0;
    s.pool_depth = 0;
    s
}

fn assert_same_bytes(modeled: &[Packet], threaded: &[Packet], label: &str) {
    assert_eq!(modeled.len(), threaded.len(), "{label}");
    for (a, b) in modeled.iter().zip(threaded) {
        assert_eq!(a.as_bytes(), b.as_bytes(), "{label}");
    }
}

#[test]
fn threaded_onvm_runs_the_modeled_onvm_step() {
    // The threaded runtime drives the ONVM chain's packet step, so its
    // telemetry is the modeled chain's: paths, every op kind (ring hops
    // included), latency histograms in model cycles, flow and rule
    // counters, hits and misses, events fired.
    let build = |name: &str| if name == "chain1" { chain1(4).0 } else { chain2().0 };
    for (name, seed) in [("chain1", 11), ("chain2", 12)] {
        let pkts = workload(40, seed);
        for speedybox in [false, true] {
            for batch_size in [1, 32] {
                let label = format!("{name} speedybox={speedybox} batch={batch_size}");
                let config = SboxConfig { batch_size, ..SboxConfig::default() };
                let mut modeled = if speedybox {
                    Chain::speedybox_with(build(name), config)
                } else {
                    Chain::original(build(name))
                }
                .with_platform(Platform::Onvm);
                let stats = modeled.run(pkts.clone());
                let threaded = run_threaded(build(name), pkts.clone(), speedybox, batch_size);
                assert_same_bytes(&stats.outputs, &threaded.delivered, &label);
                assert_eq!(threaded.dropped, stats.dropped, "{label}");
                assert_eq!(
                    chain_counters(threaded.snapshot),
                    chain_counters(modeled.telemetry().snapshot()),
                    "{label}"
                );
            }
        }
    }
}

/// `n` TCP packets over `flows` flows, round robin.
fn round_robin(n: usize, flows: u16) -> Vec<Packet> {
    (0..n)
        .map(|i| {
            let port = 1000 + u16::try_from(i).unwrap() % flows;
            PacketBuilder::tcp()
                .src(format!("10.0.0.1:{port}").parse().unwrap())
                .dst("10.0.0.2:80".parse().unwrap())
                .payload(format!("p{i}").as_bytes())
                .build()
        })
        .collect()
}

#[test]
fn threaded_quarantine_window_closes_with_unquarantine_alone() {
    // A crash window on the threaded runtime and on the modeled ONVM
    // chain: mask and sweep to open it, `unquarantine_nf` alone to close
    // it. Window-era flows keep records without rules; once the window
    // closes, their next packets re-record, so nothing is lost.
    let mon = Monitor::new();
    let chain = || vec![Box::new(mon.clone()) as Box<dyn Nf>];
    let sbox = SpeedyBox::new(1, SboxConfig::default());
    let mut modeled =
        Chain::speedybox(vec![Box::new(Monitor::new())]).with_platform(Platform::Onvm);
    let run = |sbox: &SpeedyBox, modeled: &mut Chain| {
        let report = run_threaded_on(Some(sbox), chain(), round_robin(12, 2), 0, |_| {});
        let stats = modeled.run(round_robin(12, 2));
        assert_same_bytes(&stats.outputs, &report.delivered, "one window phase");
        assert_eq!(
            chain_counters(report.snapshot.clone()),
            chain_counters(modeled.telemetry().snapshot())
        );
        report.snapshot
    };
    let warm = run(&sbox, &mut modeled);
    for global in [&sbox.global, &modeled.sbox().unwrap().global] {
        global.quarantine_nf(0);
    }
    sbox.force_evict_flows(usize::MAX);
    modeled.sbox().unwrap().force_evict_flows(usize::MAX);
    let open = run(&sbox, &mut modeled);
    assert_eq!(open.paths[0] - warm.paths[0], 12, "the open window rides the rings");
    assert_eq!(open.quarantine_packets - warm.quarantine_packets, 12);
    for global in [&sbox.global, &modeled.sbox().unwrap().global] {
        global.unquarantine_nf(0);
    }
    let closed = run(&sbox, &mut modeled);
    assert_eq!(closed.delivered - open.delivered, 12, "closing the window loses nothing");
    assert_eq!(closed.paths[1] - open.paths[1], 2, "window-era flows re-record");
    assert_eq!(closed.paths[2] - open.paths[2], 10);
    assert_eq!(closed.fastpath_misses - open.fastpath_misses, 2, "a miss, then the fallback walk");
    assert_eq!(mon.snapshot().values().map(|c| c.packets).sum::<u64>(), 36);
}

#[test]
fn threaded_idle_timeout_expires_flows() {
    // 60 one-packet UDP flows, then one long flow that keeps the clock
    // running: every idle flow expires at a batch boundary, as on the
    // modeled chain.
    let mut pkts: Vec<Packet> = (0..60u16)
        .map(|f| {
            PacketBuilder::udp()
                .src(format!("10.0.1.{}:53", f + 1).parse().unwrap())
                .dst("10.9.0.1:5353".parse().unwrap())
                .payload(b"udp")
                .build()
        })
        .collect();
    pkts.extend(round_robin(200, 1));
    let config = SboxConfig { idle_timeout: 100, ..SboxConfig::default() };
    for batch_size in [1, 32] {
        let config = SboxConfig { batch_size, ..config };
        let sbox = SpeedyBox::new(2, config);
        let report = run_threaded_on(Some(&sbox), ipfilter_chain(2, 10), pkts.clone(), 0, |_| {});
        assert_eq!(report.snapshot.flows_expired, 60, "batch {batch_size}");
        assert_eq!(sbox.classifier.len(), 1, "only the live flow is left");
        let mut modeled =
            Chain::speedybox_with(ipfilter_chain(2, 10), config).with_platform(Platform::Onvm);
        modeled.run(pkts.clone());
        assert_eq!(chain_counters(report.snapshot), chain_counters(modeled.telemetry().snapshot()));
    }
}
