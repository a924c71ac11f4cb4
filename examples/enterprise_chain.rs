//! The paper's real-world Chain 1 (MazuNAT → Maglev → Monitor → IPFilter)
//! on a synthetic datacenter workload, comparing flow processing time with
//! and without SpeedyBox — the §VII-B3 experiment at example scale.
//!
//! Run with: `cargo run --example enterprise_chain`

use std::collections::HashMap;

use speedybox::packet::Fid;
use speedybox::platform::chains::chain1;
use speedybox::platform::Chain;
use speedybox::stats::Summary;
use speedybox::traffic::{Workload, WorkloadConfig};

fn flow_times_us(chain: &mut Chain, workload: &Workload) -> Vec<f64> {
    // Flow processing time = sum of per-packet latencies of the flow
    // (paper §VII-B3).
    let mut per_flow: HashMap<Fid, u64> = HashMap::new();
    for (_, pkt) in &workload.arrivals {
        let fid = pkt.five_tuple().unwrap().fid();
        let outcome = chain.process(pkt.clone());
        *per_flow.entry(fid).or_insert(0) += outcome.latency_cycles;
    }
    let model = *chain.model();
    per_flow.values().map(|&c| model.micros(c)).collect()
}

fn main() {
    let config = WorkloadConfig {
        flows: 300,
        median_packets: 8.0,
        payload_len: 200,
        ..WorkloadConfig::default()
    };
    let workload = Workload::generate(&config);
    println!(
        "workload: {} flows, {} packets (log-normal sizes, {}% suspicious)\n",
        config.flows,
        workload.len(),
        {
            #[allow(clippy::cast_possible_truncation)] // fraction in [0, 1]
            let pct = (config.suspicious_fraction * 100.0) as u32;
            pct
        }
    );

    let (nfs, _handles) = chain1(8);
    let mut original = Chain::original(nfs);
    let orig = Summary::new(flow_times_us(&mut original, &workload));

    let (nfs, handles) = chain1(8);
    let mut speedy = Chain::speedybox(nfs);
    let fast = Summary::new(flow_times_us(&mut speedy, &workload));

    println!("flow processing time (us), chain: MazuNAT -> Maglev -> Monitor -> IPFilter");
    println!("              p50        p90        p99       mean");
    println!(
        "original   {:>8.1}   {:>8.1}   {:>8.1}   {:>8.1}",
        orig.median(),
        orig.quantile(0.9),
        orig.p99(),
        orig.mean()
    );
    println!(
        "speedybox  {:>8.1}   {:>8.1}   {:>8.1}   {:>8.1}",
        fast.median(),
        fast.quantile(0.9),
        fast.p99(),
        fast.mean()
    );
    println!(
        "p50 reduction: {:.1}%  (paper Fig 9(a): -39.6% on BESS)",
        (1.0 - fast.median() / orig.median()) * 100.0
    );

    println!(
        "\nNAT mappings live: {}, Maglev connections: {}, monitored flows: {}",
        handles.nat.mapping_count(),
        handles.maglev.connection_count(),
        handles.monitor.flow_count()
    );
    println!("(all zero: every flow closed with FIN and was garbage-collected)");
}
