//! Cross-crate integration: the threaded OpenNetVM runtime, cross-
//! environment output equality, and trace capture/replay.

use speedybox::packet::trace::Trace;
use speedybox::packet::Packet;
use speedybox::platform::chains::{chain2, ipfilter_chain, snort_monitor_chain};
use speedybox::platform::run_threaded;
use speedybox::platform::{Chain, Platform};
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
