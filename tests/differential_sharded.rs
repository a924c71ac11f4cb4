//! Differential suite for the sharded/batched fast path.
//!
//! The flow table's shard count sets only lock granularity, and the
//! batched entry point (`Chain::process_batch_into`) runs each packet's
//! per-packet classify-and-step in order, sharing only the idle-eviction
//! tick, the pool sync and the modeled wall interval. For any workload
//! both must produce **byte-identical packet outputs**, identical per-NF
//! counters (Monitor totals, Snort logs, NAT mappings), identical Event
//! Table firings and identical telemetry counters compared to the
//! per-packet path (`batch_size == 1`).
//! These properties are fuzzed here over the paper's two real-world
//! chains with randomized flow mixes, batch sizes, and shard counts.

use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use proptest::prelude::*;
use speedybox::mat::{Event, NfId, RulePatch, Signal, FID_SPACE};
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

fn sbox_config(batch_size: usize, shards: usize, max_flows: usize) -> SboxConfig {
    SboxConfig { batch_size, shards, max_flows, ..SboxConfig::default() }
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
    /// The telemetry hub's scalar counters: flow lifecycle, fast-path
    /// hits and misses, rule installs and removals, pool traffic.
    telemetry: Vec<(&'static str, u64)>,
}

fn run_chain1(
    packets: &[Packet],
    batch_size: usize,
    shards: usize,
    max_flows: usize,
) -> Observation {
    let (nfs, handles) = chain1(4);
    let mut chain = Chain::speedybox_with(nfs, sbox_config(batch_size, shards, max_flows));
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
        telemetry: chain.telemetry().snapshot().scalars().to_vec(),
    }
}

/// Chain 2 runs on the OpenNetVM-style environment so both batched
/// platforms are covered; Snort logs stand in for the NAT observation.
fn run_chain2(packets: &[Packet], batch_size: usize, shards: usize) -> (Observation, Vec<String>) {
    let (nfs, Chain2Handles { snort, monitor }) = chain2();
    let mut chain = Chain::speedybox_with(nfs, sbox_config(batch_size, shards, FID_SPACE))
        .with_platform(Platform::Onvm);
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
        telemetry: chain.telemetry().snapshot().scalars().to_vec(),
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
        let base = run_chain1(&packets, 1, 16, FID_SPACE);
        let sharded = run_chain1(&packets, batch, shards, FID_SPACE);
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
    let base1 = run_chain1(&packets, 1, 16, FID_SPACE);
    let (base2, logs2) = run_chain2(&packets, 1, 16);
    for batch in [2, 3, 8, 17, 32, 256] {
        assert_eq!(base1, run_chain1(&packets, batch, 4, FID_SPACE), "chain1 batch {batch}");
        let (obs, logs) = run_chain2(&packets, batch, 4);
        assert_eq!(base2, obs, "chain2 batch {batch}");
        assert_eq!(logs2, logs, "chain2 logs batch {batch}");
    }
}

/// A flow's FIN, then a SYN and data on the same 5-tuple, all inside one
/// batch: the FIN rides the flow's rule before its teardown, the SYN
/// re-opens the flow as initial and the data rides the new rule — the
/// per-packet sequence, in paths, bytes, op counts and telemetry counters,
/// on both platforms.
#[test]
fn fin_then_reopen_inside_one_batch_matches_per_packet() {
    use speedybox::packet::{PacketBuilder, TcpFlags};

    let packet = |flags: u8, seq: u32| {
        PacketBuilder::tcp()
            .src("10.3.0.1:4000".parse().unwrap())
            .dst("10.3.0.2:80".parse().unwrap())
            .flags(flags)
            .seq(seq)
            .payload(b"abc")
            .build()
    };
    let (syn, ack, fin) = (TcpFlags::SYN, TcpFlags::ACK, TcpFlags::FIN | TcpFlags::ACK);
    let trace: Vec<Packet> = [syn, ack, ack, fin, syn, ack, ack]
        .into_iter()
        .zip(0..)
        .map(|(flags, seq)| packet(flags, seq))
        .collect();
    for platform in Platform::ALL {
        let run = |batch: usize| {
            let (nfs, _) = chain1(4);
            let mut chain = Chain::speedybox_with(nfs, sbox_config(batch, 16, FID_SPACE))
                .with_platform(platform);
            let stats = chain.run(trace.iter().cloned());
            let outputs: Vec<Vec<u8>> =
                stats.outputs.iter().map(|p| p.as_bytes().to_vec()).collect();
            (outputs, stats.path_counts, stats.ops, chain.telemetry().snapshot().scalars())
        };
        let per_packet = run(1);
        assert_eq!(per_packet.1, [0, 2, 5], "{platform:?}: two initial packets, five fast");
        for batch in [trace.len(), 32] {
            assert_eq!(run(batch), per_packet, "{platform:?} batch {batch}");
        }
    }
}

/// Forty flows through a four-flow table on one shard, so capacity
/// eviction displaces flows mid-batch: a flow evicted by an earlier packet
/// of the batch records again, and a closing flow's teardown frees a slot
/// that a later packet of the batch opens. Batch 32 must take the
/// per-packet sequence of opens, evictions, installs and teardowns, in
/// outputs, paths, NF state and every telemetry counter.
#[test]
fn batched_matches_per_packet_under_capacity_pressure() {
    let (mut evicting, mut diverged) = (0, Vec::new());
    for seed in 1..=20 {
        let packets = workload(40, seed);
        let per_packet = run_chain1(&packets, 1, 1, 4);
        if !per_packet.telemetry.contains(&("flows_evicted", 0)) {
            evicting += 1;
        }
        if run_chain1(&packets, 32, 1, 4) != per_packet {
            diverged.push(seed);
        }
    }
    assert!(evicting >= 10, "only {evicting} of 20 seeds evicted a flow");
    assert!(diverged.is_empty(), "batch 32 diverged from per-packet on seeds {diverged:?}");
}
