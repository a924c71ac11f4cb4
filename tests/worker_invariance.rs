//! Worker-count invariance for the symmetric run-to-completion runtime.
//!
//! Two layers are proven here, mirroring the shard-invariance suite:
//!
//! 1. **Deterministic model** (`SboxConfig::workers` on `Chain`, BESS and
//!    ONVM): the worker count only redistributes *attribution* of
//!    work across FID slices — outputs, drop decisions, path mix, NF
//!    counters, and Event Table firings must be exactly identical at
//!    1/2/4/8 workers, and per-worker cycle totals must conserve the
//!    overall work.
//! 2. **Real threads** (`run_workers`): N OS threads share one classifier
//!    and Global MAT via wait-free generation loads. Flows are partitioned
//!    by FID slice, so per-flow packet order is preserved; outputs are
//!    compared as sorted multisets and per-flow sequences, the way a
//!    multi-queue NIC deployment would be validated.

use std::collections::HashMap;
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use proptest::prelude::*;
use speedybox::mat::{Event, NfId, RulePatch, Signal};
use speedybox::nf::ipfilter::IpFilter;
use speedybox::nf::monitor::Monitor;
use speedybox::nf::Nf;
use speedybox::packet::{Fid, Packet};
use speedybox::platform::chains::{chain1, chain2, Chain2Handles};
use speedybox::platform::runtime::SboxConfig;
use speedybox::platform::workers::run_workers;
use speedybox::platform::{Chain, Platform};
use speedybox::traffic::{Workload, WorkloadConfig};

fn workload(flows: usize, seed: u64) -> Vec<Packet> {
    Workload::generate(&WorkloadConfig {
        flows,
        median_packets: 6.0,
        payload_len: 96,
        suspicious_fraction: 0.25,
        seed,
        ..WorkloadConfig::default()
    })
    .packets()
}

fn sbox_config(workers: usize, batch_size: usize) -> SboxConfig {
    SboxConfig { workers, batch_size, ..SboxConfig::default() }
}

/// Same one-shot counting events as the shard-invariance suite: fire on
/// every 3rd distinct flow's first fast-path packet, forcing mid-stream
/// re-consolidations whose timing must not depend on the worker count.
fn register_counting_events(
    events: &speedybox::mat::EventTable,
    packets: &[Packet],
    nf: NfId,
) -> Arc<AtomicU64> {
    let fires = Arc::new(AtomicU64::new(0));
    let mut seen: HashSet<Fid> = HashSet::new();
    for p in packets {
        let fid = p.five_tuple().expect("tcp workload").fid();
        if seen.insert(fid) && seen.len().is_multiple_of(3) {
            let fires = Arc::clone(&fires);
            events.register(Event::new(
                fid,
                nf,
                "count-fire",
                Signal::new(),
                |_| true,
                move |_| {
                    fires.fetch_add(1, Ordering::Relaxed);
                    RulePatch::default()
                },
            ));
        }
    }
    fires
}

/// Everything compared between worker counts on the deterministic model.
#[derive(Debug, PartialEq, Eq)]
struct Observation {
    outputs: Vec<Vec<u8>>,
    delivered: usize,
    dropped: usize,
    path_counts: [usize; 3],
    monitor_totals: (u64, u64),
    nat_mappings: usize,
    event_fires: u64,
    event_checks: u64,
}

/// Work-conservation facts about a run, checked separately from the
/// equality comparison (they legitimately vary with the worker count).
struct WorkerFacts {
    worker_cycles: Vec<u64>,
    worker_wall: u64,
    total_work: u64,
}

fn run_chain1(packets: &[Packet], workers: usize, batch: usize) -> (Observation, WorkerFacts) {
    let (nfs, handles) = chain1(4);
    let mut chain = Chain::speedybox_with(nfs, sbox_config(workers, batch));
    let fires = register_counting_events(
        chain.sbox().expect("speedybox enabled").global.events(),
        packets,
        NfId::new(1),
    );
    let stats = chain.run(packets.iter().cloned());
    let snapshot = handles.monitor.snapshot();
    let totals = snapshot.values().fold((0u64, 0u64), |a, c| (a.0 + c.packets, a.1 + c.bytes));
    let obs = Observation {
        outputs: stats.outputs.iter().map(|p| p.as_bytes().to_vec()).collect(),
        delivered: stats.delivered,
        dropped: stats.dropped,
        path_counts: stats.path_counts,
        monitor_totals: totals,
        nat_mappings: handles.nat.mapping_count(),
        event_fires: fires.load(Ordering::Relaxed),
        event_checks: stats.ops.event_checks,
    };
    let facts = WorkerFacts {
        worker_cycles: stats.worker_cycles.clone(),
        worker_wall: stats.worker_wall_cycles,
        total_work: stats.work_cycles.iter().sum(),
    };
    (obs, facts)
}

fn run_chain2(packets: &[Packet], workers: usize, batch: usize) -> (Observation, Vec<String>) {
    let (nfs, Chain2Handles { snort, monitor }) = chain2();
    let mut chain =
        Chain::speedybox_with(nfs, sbox_config(workers, batch)).with_platform(Platform::Onvm);
    let fires = register_counting_events(
        chain.sbox().expect("speedybox enabled").global.events(),
        packets,
        NfId::new(0),
    );
    let stats = chain.run(packets.iter().cloned());
    let snapshot = monitor.snapshot();
    let totals = snapshot.values().fold((0u64, 0u64), |a, c| (a.0 + c.packets, a.1 + c.bytes));
    let logs = snort.log().into_iter().map(|e| format!("{:?} {}", e.action, e.msg)).collect();
    let obs = Observation {
        outputs: stats.outputs.iter().map(|p| p.as_bytes().to_vec()).collect(),
        delivered: stats.delivered,
        dropped: stats.dropped,
        path_counts: stats.path_counts,
        monitor_totals: totals,
        nat_mappings: 0,
        event_fires: fires.load(Ordering::Relaxed),
        event_checks: stats.ops.event_checks,
    };
    (obs, logs)
}

/// Checks the work ledger: per-worker totals sum to the overall work, and
/// the modeled wall time never exceeds total work nor undercuts a perfect
/// split across the worker slots.
fn assert_conservation(facts: &WorkerFacts, workers: usize, label: &str) {
    assert_eq!(facts.worker_cycles.len(), workers.next_power_of_two(), "{label}: slot count");
    assert_eq!(
        facts.worker_cycles.iter().sum::<u64>(),
        facts.total_work,
        "{label}: per-worker cycles must conserve total work"
    );
    assert!(facts.worker_wall <= facts.total_work, "{label}: wall exceeds total work");
    let slots = facts.worker_cycles.len() as u64;
    assert!(
        facts.worker_wall >= facts.total_work / slots,
        "{label}: wall beats a perfect {slots}-way split"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Chain 1 (MazuNAT → Maglev → Monitor → IPFilter): every observable
    /// is exactly identical across worker counts on the deterministic
    /// model, and each run's worker ledger conserves total work.
    #[test]
    fn chain1_workers_are_invariant(
        flows in 8usize..40,
        seed in 1u64..10_000,
        batch in prop_oneof![Just(1usize), Just(8usize), Just(32usize)],
    ) {
        let packets = workload(flows, seed);
        let (base, base_facts) = run_chain1(&packets, 1, batch);
        prop_assert!(base.event_fires > 0, "events must actually fire");
        assert_conservation(&base_facts, 1, "workers=1");
        for workers in [2usize, 4, 8] {
            let (obs, facts) = run_chain1(&packets, workers, batch);
            prop_assert_eq!(&base, &obs, "workers={}", workers);
            assert_conservation(&facts, workers, &format!("workers={workers}"));
        }
    }

    /// Chain 2 (IPFilter → Snort → Monitor, OpenNetVM-style): identical
    /// outputs, Snort logs, counters and event firings at any worker count.
    #[test]
    fn chain2_workers_are_invariant(
        flows in 8usize..40,
        seed in 1u64..10_000,
        batch in prop_oneof![Just(1usize), Just(8usize), Just(32usize)],
    ) {
        let packets = workload(flows, seed);
        let (base, logs_base) = run_chain2(&packets, 1, batch);
        prop_assert!(base.event_fires > 0, "events must actually fire");
        for workers in [2usize, 4, 8] {
            let (obs, logs) = run_chain2(&packets, workers, batch);
            prop_assert_eq!(&base, &obs, "workers={}", workers);
            prop_assert_eq!(&logs_base, &logs, "workers={}", workers);
        }
    }

    /// Real threads: N workers over a shared classifier + Global MAT
    /// deliver the same packet multiset with the same per-flow sequences
    /// as a single worker, for per-flow-ordered traffic through a chain
    /// with per-flow NF state.
    #[test]
    fn threaded_pool_is_invariant(
        flows in 4usize..24,
        seed in 1u64..10_000,
        workers in prop_oneof![Just(2usize), Just(4usize), Just(8usize)],
    ) {
        let packets = workload(flows, seed);
        let base = pool_run(&packets, 1);
        let multi = pool_run(&packets, workers);
        prop_assert_eq!(base.sorted_outputs, multi.sorted_outputs, "workers={}", workers);
        prop_assert_eq!(base.dropped, multi.dropped);
        prop_assert_eq!(base.per_flow, multi.per_flow, "per-flow order must survive steering");
        prop_assert_eq!(base.flows_opened, multi.flows_opened);
        prop_assert_eq!(base.monitor_union, multi.monitor_union);
    }
}

/// Summary of one real-thread pool run, in worker-count-comparable form.
#[derive(Debug, PartialEq, Eq)]
struct PoolObservation {
    sorted_outputs: Vec<Vec<u8>>,
    dropped: usize,
    per_flow: HashMap<u32, Vec<Vec<u8>>>,
    flows_opened: u64,
    monitor_union: Vec<(u32, u64, u64)>,
}

fn pool_run(packets: &[Packet], workers: usize) -> PoolObservation {
    let monitors: Vec<Monitor> = (0..workers.next_power_of_two()).map(|_| Monitor::new()).collect();
    let nf_sets: Vec<Vec<Box<dyn Nf>>> = monitors
        .iter()
        .map(|m| {
            vec![
                Box::new(IpFilter::pass_through(20)) as Box<dyn Nf>,
                Box::new(m.clone()) as Box<dyn Nf>,
            ]
        })
        .collect();
    let report =
        run_workers(nf_sets, packets.to_vec(), SboxConfig { workers, ..SboxConfig::default() });
    let mut sorted_outputs: Vec<Vec<u8>> =
        report.delivered.iter().map(|p| p.as_bytes().to_vec()).collect();
    sorted_outputs.sort();
    let mut per_flow: HashMap<u32, Vec<Vec<u8>>> = HashMap::new();
    for p in &report.delivered {
        let fid = p.five_tuple().expect("tcp workload").fid().value();
        per_flow.entry(fid).or_default().push(p.as_bytes().to_vec());
    }
    // Flows are partitioned, so the union of per-worker monitor maps is
    // the global per-flow counter table.
    let mut monitor_union: Vec<(u32, u64, u64)> = monitors
        .iter()
        .flat_map(|m| m.snapshot().into_iter().map(|(fid, c)| (fid.value(), c.packets, c.bytes)))
        .collect();
    monitor_union.sort_unstable();
    PoolObservation {
        sorted_outputs,
        dropped: report.dropped,
        per_flow,
        flows_opened: report.snapshot.flows_opened,
        monitor_union,
    }
}

/// Deterministic spot-check, easy to bisect without the proptest harness:
/// one workload, every worker count, both chains and both batch modes —
/// plus the wall-time monotonicity fact the scaling bench relies on: at 8
/// balanced workers the modeled wall is well under the single-worker wall.
#[test]
fn worker_sweep_is_invariant() {
    let packets = workload(24, 7);
    let (base1, facts1) = run_chain1(&packets, 1, 8);
    let (base2, logs2) = run_chain2(&packets, 1, 8);
    let mut wall8 = None;
    for workers in [2, 4, 8] {
        let (obs, facts) = run_chain1(&packets, workers, 8);
        assert_eq!(base1, obs, "chain1 workers {workers}");
        assert_conservation(&facts, workers, "chain1");
        if workers == 8 {
            wall8 = Some(facts.worker_wall);
        }
        let (obs2, logs) = run_chain2(&packets, workers, 8);
        assert_eq!(base2, obs2, "chain2 workers {workers}");
        assert_eq!(logs2, logs, "chain2 logs workers {workers}");
    }
    // The generated workload is flow-bursty, so batches skew onto few
    // workers; the scaling bench uses an interleaved trace to show the full
    // speedup. Here we only require strict improvement.
    let wall8 = wall8.expect("8-worker run present");
    assert!(
        wall8 < facts1.worker_wall,
        "8 workers must beat one worker on modeled wall: {wall8} vs {}",
        facts1.worker_wall
    );
}

/// One worker thread runs the same packet step as the per-packet chain,
/// priced as BESS: a one-worker `run_workers` reports the same paths,
/// latencies, op totals, fast-path hits and rule installs as `Chain` on
/// the same trace. Pool counters are left out: the two runs use different
/// pools.
#[test]
fn one_worker_matches_the_per_packet_chain() {
    let packets = workload(24, 7);
    let mut chain = Chain::speedybox(chain1(4).0);
    let _ = chain.run(packets.iter().cloned());
    let report = run_workers(vec![chain1(4).0], packets, SboxConfig::default());
    let (a, b) = (chain.telemetry().snapshot(), report.snapshot);
    let (la, lb) = (a.latency_total(), b.latency_total());
    assert_eq!(a.paths, b.paths, "paths");
    assert_eq!(la.count, lb.count, "latency count");
    assert_eq!(la.sum, lb.sum, "latency sum");
    assert_eq!(a.ops, b.ops, "op totals");
    assert_eq!(a.fastpath_hits, b.fastpath_hits, "fast-path hits");
    assert_eq!(a.rules_installed, b.rules_installed, "rule installs");
}
