//! An operator's view of a running SpeedyBox chain: workload composition,
//! per-packet latency distribution, and the live Global MAT.
//!
//! Run with: `cargo run --example ops_dashboard`

use speedybox::platform::chains::chain2;
use speedybox::platform::Chain;
use speedybox::stats::Histogram;
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
    let mut latency = Histogram::new();
    for sched in schedule.iter() {
        let out = chain.process(sched.packet.clone());
        latency.record(out.latency_cycles);
    }

    println!("=== per-packet latency (model cycles, log2 buckets) ===");
    print!("{}", latency.render());
    println!(
        "mean {:.0} cycles, p50 ≈ {}, p99 ≈ {}, max {}\n",
        latency.mean(),
        latency.quantile(0.5),
        latency.quantile(0.99),
        latency.max()
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
