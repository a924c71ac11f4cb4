//! §VII-C3: "Testing real world chains (comprehensive test)".
//!
//! "In the first chain's Maglev NF, we set events for 20% flows during
//! mid-stream. We find that there is no difference between the packet
//! output for both chains. Further, we compare the per-flow counters of
//! the Monitor and the log outputs of Snort. Results show that the value
//! of all counters and the Snort logs are all identical with and without
//! SpeedyBox."

use speedybox::packet::Packet;
use speedybox::platform::chains::{chain1, chain2, Chain1Handles, Chain2Handles};
use speedybox::platform::{Chain, Platform};
use speedybox::traffic::{Workload, WorkloadConfig};

fn workload(flows: usize, seed: u64) -> Workload {
    Workload::generate(&WorkloadConfig {
        flows,
        median_packets: 6.0,
        payload_len: 120,
        suspicious_fraction: 0.25,
        seed,
        ..WorkloadConfig::default()
    })
}

struct Chain1Run {
    outputs: Vec<Packet>,
    handles: Chain1Handles,
    monitor_totals: (u64, u64),
}

/// Runs chain 1 over the workload, failing one Maglev backend mid-stream
/// (affecting ~20-25% of flows on a 4-backend pool).
fn run_chain1(packets: &[Packet], speedybox: bool) -> Chain1Run {
    let (nfs, handles) = chain1(4);
    let mut chain = if speedybox { Chain::speedybox(nfs) } else { Chain::original(nfs) };
    let mut outputs = Vec::new();
    let midpoint = packets.len() / 2;
    for (i, p) in packets.iter().enumerate() {
        if i == midpoint {
            handles.maglev.fail_backend("backend-0");
        }
        // Monitor counters are sampled before FIN cleanup wipes them.
        if let Some(out) = chain.process(p.clone()).packet {
            outputs.push(out);
        }
    }
    let snapshot = handles.monitor.snapshot();
    let totals =
        snapshot.values().fold((0u64, 0u64), |acc, c| (acc.0 + c.packets, acc.1 + c.bytes));
    Chain1Run { outputs, handles, monitor_totals: totals }
}

#[test]
fn chain1_outputs_and_state_identical() {
    let w = workload(60, 11);
    let packets = w.packets();
    let orig = run_chain1(&packets, false);
    let fast = run_chain1(&packets, true);

    assert_eq!(orig.outputs.len(), fast.outputs.len(), "same delivery count");
    for (a, b) in orig.outputs.iter().zip(&fast.outputs) {
        assert_eq!(a.as_bytes(), b.as_bytes(), "byte-identical packet output");
    }
    // NAT mappings drained identically (flows closed by FIN).
    assert_eq!(orig.handles.nat.mapping_count(), fast.handles.nat.mapping_count());
    assert_eq!(orig.monitor_totals, fast.monitor_totals);
}

#[test]
fn chain2_outputs_logs_and_counters_identical() {
    let w = workload(60, 22);
    let packets = w.packets();

    let run = |speedybox: bool| -> (Vec<Vec<u8>>, Vec<String>, usize) {
        let (nfs, Chain2Handles { snort, monitor }) = chain2();
        let mut chain = if speedybox { Chain::speedybox(nfs) } else { Chain::original(nfs) };
        let stats = chain.run(packets.iter().cloned());
        let outputs = stats.outputs.iter().map(|p| p.as_bytes().to_vec()).collect();
        let logs = snort.log().into_iter().map(|e| format!("{:?} {}", e.action, e.msg)).collect();
        (outputs, logs, monitor.flow_count())
    };

    let (out_a, logs_a, mon_a) = run(false);
    let (out_b, logs_b, mon_b) = run(true);
    assert!(!logs_a.is_empty(), "suspicious flows must trigger the IDS");
    assert_eq!(out_a, out_b);
    assert_eq!(logs_a, logs_b);
    assert_eq!(mon_a, mon_b);
}

#[test]
fn chain1_equivalence_holds_on_onvm_too() {
    let w = workload(40, 33);
    let packets = w.packets();

    let run = |speedybox: bool| -> Vec<Vec<u8>> {
        let (nfs, handles) = chain1(4);
        let mut chain = if speedybox {
            Chain::speedybox(nfs).with_platform(Platform::Onvm)
        } else {
            Chain::original(nfs).with_platform(Platform::Onvm)
        };
        let midpoint = packets.len() / 2;
        let mut outputs = Vec::new();
        for (i, p) in packets.iter().enumerate() {
            if i == midpoint {
                handles.maglev.fail_backend("backend-1");
            }
            if let Some(out) = chain.process(p.clone()).packet {
                outputs.push(out.as_bytes().to_vec());
            }
        }
        outputs
    };
    assert_eq!(run(false), run(true));
}

#[test]
fn chain1_speedybox_reduces_median_flow_time() {
    // The headline Fig 9 claim at test scale: p50 flow processing time
    // drops by roughly the paper's 35-45% band.
    use std::collections::HashMap;

    use speedybox::packet::Fid;
    use speedybox::stats::Summary;

    let w = workload(80, 44);
    let flow_times = |speedybox: bool| -> Summary {
        let (nfs, _) = chain1(4);
        let mut chain = if speedybox { Chain::speedybox(nfs) } else { Chain::original(nfs) };
        let mut per_flow: HashMap<Fid, u64> = HashMap::new();
        for (_, p) in &w.arrivals {
            let fid = p.five_tuple().unwrap().fid();
            let out = chain.process(p.clone());
            *per_flow.entry(fid).or_insert(0) += out.latency_cycles;
        }
        Summary::new(per_flow.values().map(|&c| c as f64))
    };
    let orig = flow_times(false);
    let fast = flow_times(true);
    let reduction = 1.0 - fast.median() / orig.median();
    assert!(
        (0.20..=0.60).contains(&reduction),
        "p50 reduction {reduction:.2} out of the plausible band (paper: 0.396)"
    );
}
