//! Differential suite for the sharded/batched fast path.
//!
//! The sharded classifier + Global MAT and the batched entry points
//! (`classify_batch` / `process_batch`) are pure lock-granularity
//! optimizations: for any workload they must produce **byte-identical
//! packet outputs**, identical per-NF counters (Monitor totals, Snort
//! logs, NAT mappings), and identical Event Table firings compared to the
//! per-packet path (`batch_size == 1`, which is the seed code path).
//! These properties are fuzzed here over the paper's two real-world
//! chains with randomized flow mixes, batch sizes, and shard counts.

use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use proptest::prelude::*;
use speedybox::mat::{Event, NfId, RulePatch};
use speedybox::packet::{Fid, Packet};
use speedybox::platform::chains::{chain1, chain2, Chain2Handles};
use speedybox::platform::runtime::SboxConfig;
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

fn sbox_config(batch_size: usize, shards: usize) -> SboxConfig {
    SboxConfig { batch_size, shards, ..SboxConfig::default() }
}

/// Registers a one-shot counting event on every 3rd distinct flow of the
/// workload. The condition is always true, so each event fires on its
/// flow's first fast-path packet and forces a mid-stream re-consolidation
/// and rule reinstall — exactly the path where a stale cached rule handle
/// in the batched fast path would become observable.
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

/// Everything we compare between the per-packet and batched runs.
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

fn run_chain1(packets: &[Packet], batch_size: usize, shards: usize) -> Observation {
    let (nfs, handles) = chain1(4);
    let mut chain = Chain::speedybox_with(nfs, sbox_config(batch_size, shards));
    let fires = register_counting_events(
        chain.sbox().expect("speedybox enabled").global.events(),
        packets,
        NfId::new(1), // Maglev — the NF the paper registers events for
    );
    let stats = chain.run(packets.iter().cloned());
    let snapshot = handles.monitor.snapshot();
    let totals = snapshot.values().fold((0u64, 0u64), |a, c| (a.0 + c.packets, a.1 + c.bytes));
    Observation {
        outputs: stats.outputs.iter().map(|p| p.as_bytes().to_vec()).collect(),
        delivered: stats.delivered,
        dropped: stats.dropped,
        path_counts: stats.path_counts,
        monitor_totals: totals,
        nat_mappings: handles.nat.mapping_count(),
        event_fires: fires.load(Ordering::Relaxed),
        event_checks: stats.ops.event_checks,
    }
}

/// Chain 2 runs on the OpenNetVM-style environment so both batched
/// platforms are covered; Snort logs stand in for the NAT observation.
fn run_chain2(packets: &[Packet], batch_size: usize, shards: usize) -> (Observation, Vec<String>) {
    let (nfs, Chain2Handles { snort, monitor }) = chain2();
    let mut chain =
        Chain::speedybox_with(nfs, sbox_config(batch_size, shards)).with_platform(Platform::Onvm);
    let fires = register_counting_events(
        chain.sbox().expect("speedybox enabled").global.events(),
        packets,
        NfId::new(0), // IPFilter
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Chain 1 (MazuNAT → Maglev → Monitor → IPFilter, BESS-style):
    /// batched + sharded runs are observably identical to per-packet.
    #[test]
    fn chain1_batched_matches_per_packet(
        flows in 8usize..40,
        seed in 1u64..10_000,
        batch in 2usize..48,
        shards in prop_oneof![Just(1usize), Just(4usize), Just(16usize)],
    ) {
        let packets = workload(flows, seed);
        let base = run_chain1(&packets, 1, 16);
        let sharded = run_chain1(&packets, batch, shards);
        prop_assert!(base.event_fires > 0, "events must actually fire");
        prop_assert_eq!(base, sharded);
    }

    /// Chain 2 (IPFilter → Snort → Monitor, OpenNetVM-style): identical
    /// outputs, Snort logs, Monitor counters, and event firings.
    #[test]
    fn chain2_batched_matches_per_packet(
        flows in 8usize..40,
        seed in 1u64..10_000,
        batch in 2usize..48,
        shards in prop_oneof![Just(1usize), Just(4usize), Just(16usize)],
    ) {
        let packets = workload(flows, seed);
        let (base, logs_base) = run_chain2(&packets, 1, 16);
        let (sharded, logs_sharded) = run_chain2(&packets, batch, shards);
        prop_assert!(base.event_fires > 0, "events must actually fire");
        prop_assert_eq!(base, sharded);
        prop_assert_eq!(logs_base, logs_sharded);
    }
}

/// Deterministic spot-check so a failure here is easy to bisect without
/// the proptest harness: one mid-size workload, every batch size in a
/// sweep, both chains.
#[test]
fn batch_size_sweep_is_invariant() {
    let packets = workload(24, 7);
    let base1 = run_chain1(&packets, 1, 16);
    let (base2, logs2) = run_chain2(&packets, 1, 16);
    for batch in [2, 3, 8, 17, 32, 256] {
        assert_eq!(base1, run_chain1(&packets, batch, 4), "chain1 batch {batch}");
        let (obs, logs) = run_chain2(&packets, batch, 4);
        assert_eq!(base2, obs, "chain2 batch {batch}");
        assert_eq!(logs2, logs, "chain2 logs batch {batch}");
    }
}
