//! An operator's view of a running SpeedyBox chain: workload composition,
//! per-packet latency distribution, and the live Global MAT.
//!
//! Run with: `cargo run --example ops_dashboard`

use speedybox::platform::chains::chain2;
use speedybox::platform::Chain;
use speedybox::traffic::{ReplaySchedule, Workload, WorkloadConfig, WorkloadStats};

fn main() {
    // An IMIX workload with a UDP component (UDP flows never FIN — watch
    // the idle-flow aging reclaim them at the end).
    let workload = Workload::generate(&WorkloadConfig {
        flows: 150,
        median_packets: 6.0,
        imix: true,
        udp_fraction: 0.2,
        suspicious_fraction: 0.15,
        seed: 77,
        ..WorkloadConfig::default()
    });

    println!("=== workload ===");
    print!("{}", WorkloadStats::of(&workload));
    let schedule = ReplaySchedule::new(&workload, 1.0);
    println!(
        "replay: {:.2} ms, offered load {:.0} kpps\n",
        schedule.duration_ns() as f64 / 1e6,
        schedule.offered_pps() / 1e3
    );

    let (nfs, handles) = chain2();
    let mut chain = Chain::speedybox(nfs);
    for sched in schedule.iter() {
        chain.process(sched.packet.clone());
    }

    println!("=== per-packet latency (model cycles, log2 buckets) ===");
    let latency = chain.telemetry().snapshot().latency_total();
    let peak = latency.buckets.iter().copied().max().unwrap_or(0).max(1);
    for (i, &n) in latency.buckets.iter().enumerate().filter(|(_, &n)| n > 0) {
        let lower = if i == 0 { 0 } else { 1u64 << i };
        #[allow(clippy::cast_possible_truncation)] // bar length <= 40
        let bar = "#".repeat((n * 40 / peak).max(1) as usize);
        println!("{lower:>12} | {bar} {n}");
    }
    println!(
        "mean {:.0} cycles, p50 ≈ {}, p99 ≈ {}, max {}\n",
        latency.mean(),
        latency.quantile(0.5),
        latency.quantile(0.99),
        latency.max
    );

    let sbox = chain.sbox().expect("speedybox enabled");
    println!("=== fast path ===");
    println!(
        "{} rules live before aging ({} flows tracked); IDS fired {} times",
        sbox.global.len(),
        sbox.classifier.len(),
        handles.snort.log().len()
    );
    // TCP flows FIN'd themselves away; reclaim the idle UDP leftovers.
    let reclaimed = sbox.expire_idle_flows(0);
    println!("idle aging reclaimed {reclaimed} UDP flows");
    print!("{}", sbox.global.dump());

    assert!(handles.monitor.flow_count() == 0 || reclaimed > 0);
    println!("\ndashboard complete ✓");
}
