//! Stress and soak tests: long chains, many flows, churn, event storms.

#![allow(clippy::cast_possible_truncation)] // test data built from loop indices

use speedybox::nf::dosguard::DosGuard;
use speedybox::nf::maglev::Maglev;
use speedybox::nf::monitor::Monitor;
use speedybox::nf::Nf;
use speedybox::packet::PacketBuilder;
use speedybox::platform::chains::ipfilter_chain;
use speedybox::platform::Chain;
use speedybox::traffic::{Workload, WorkloadConfig};

#[test]
fn nine_nf_chain_with_heavy_flow_churn() {
    // 500 flows with FIN-based churn through the paper's longest chain.
    let w = Workload::generate(&WorkloadConfig {
        flows: 500,
        median_packets: 4.0,
        payload_len: 64,
        seed: 0xdead,
        ..WorkloadConfig::default()
    });
    let mut chain = Chain::speedybox(ipfilter_chain(9, 50));
    let stats = chain.run(w.packets());
    assert_eq!(stats.dropped, 0);
    assert_eq!(stats.path_counts[1], 500, "one slow-path packet per flow");
    // All flows FIN'd: every table drained.
    let sbox = chain.sbox().unwrap();
    assert!(sbox.global.is_empty());
    assert!(sbox.classifier.is_empty());
    assert!(sbox.global.locals().iter().all(|l| l.is_empty()));
}

#[test]
fn reopened_flows_get_fresh_rules() {
    // The same 5-tuple opens, closes and reopens 50 times; each connection
    // must re-record (the classifier forgets it on FIN).
    let mut chain = Chain::speedybox(ipfilter_chain(3, 20));
    let mut initial_count = 0;
    for round in 0..50u32 {
        let mut b = PacketBuilder::tcp();
        b.src("10.0.0.1:4444".parse().unwrap()).dst("10.0.0.2:80".parse().unwrap());
        let syn = b.flags(speedybox::packet::TcpFlags::SYN).seq(round * 3).build();
        let dat = b.flags(speedybox::packet::TcpFlags::ACK).payload(b"x").build();
        let fin = b
            .flags(speedybox::packet::TcpFlags::FIN | speedybox::packet::TcpFlags::ACK)
            .payload(&[])
            .build();
        for p in [syn, dat, fin] {
            let out = chain.process(p);
            if out.path == speedybox::platform::PathKind::Initial {
                initial_count += 1;
            }
        }
    }
    assert_eq!(initial_count, 50, "every reopened connection re-records");
    assert!(chain.sbox().unwrap().global.is_empty());
}

#[test]
fn event_storm_under_backend_flapping() {
    // Maglev with a backend that flaps every 40 packets while 60 flows
    // stream: every packet must still be delivered to a live backend, and
    // the chain must never wedge.
    let maglev = Maglev::new(
        (0..4)
            .map(|i| (format!("backend-{i}"), format!("10.1.0.{}:8080", i + 1).parse().unwrap()))
            .collect::<Vec<(String, _)>>(),
        251,
    );
    let mon = Monitor::new();
    let nfs: Vec<Box<dyn Nf>> = vec![Box::new(maglev.clone()), Box::new(mon)];
    let mut chain = Chain::speedybox(nfs);

    let mut delivered = 0;
    for i in 0..2000u32 {
        if i % 80 == 40 {
            maglev.fail_backend("backend-0");
        }
        if i % 80 == 79 {
            maglev.recover_backend("backend-0");
        }
        let p = PacketBuilder::tcp()
            .src(format!("10.0.0.1:{}", 3000 + (i % 60) as u16).parse().unwrap())
            .dst("10.99.99.99:80".parse().unwrap())
            .seq(i)
            .payload(b"stream")
            .build();
        let out = chain.process(p);
        if let Some(pkt) = out.packet {
            delivered += 1;
            let dst = pkt.get_field(speedybox::packet::HeaderField::DstIp).unwrap().as_ipv4();
            assert_eq!(dst.octets()[..3], [10, 1, 0], "always a backend address");
        }
    }
    assert_eq!(delivered, 2000, "no packet lost to flapping");
}

#[test]
fn dos_guard_blocks_attackers_not_bystanders_at_scale() {
    let guard = DosGuard::new(10);
    let nfs: Vec<Box<dyn Nf>> = vec![Box::new(guard)];
    let mut chain = Chain::speedybox(nfs);
    let mut dropped_attacker = 0;
    let mut delivered_legit = 0;
    for i in 0..1500u32 {
        // One SYN-flooding flow interleaved with 20 normal flows.
        let attacker = PacketBuilder::tcp()
            .src("203.0.113.1:6666".parse().unwrap())
            .dst("10.0.0.2:80".parse().unwrap())
            .flags(speedybox::packet::TcpFlags::SYN)
            .seq(i)
            .build();
        if !chain.process(attacker).survived() {
            dropped_attacker += 1;
        }
        let legit = PacketBuilder::tcp()
            .src(format!("10.0.0.1:{}", 2000 + (i % 20) as u16).parse().unwrap())
            .dst("10.0.0.2:80".parse().unwrap())
            .seq(i)
            .payload(b"ok")
            .build();
        if chain.process(legit).survived() {
            delivered_legit += 1;
        }
    }
    assert_eq!(delivered_legit, 1500, "no collateral damage");
    assert!(dropped_attacker >= 1500 - 12, "attacker blocked after threshold");
}

#[test]
fn large_flow_population_with_aging_stays_bounded() {
    // 4000 UDP flows with periodic aging: table sizes stay bounded by the
    // active set, not the total population.
    let mut chain = Chain::speedybox(ipfilter_chain(2, 10));
    let mut max_rules = 0usize;
    for wave in 0..8u16 {
        for f in 0..500u16 {
            let p = PacketBuilder::udp()
                .src(format!("10.0.{}.{}:53", wave, (f % 250) + 1).parse().unwrap())
                .dst(format!("10.9.0.1:{}", 10000 + f).parse().unwrap())
                .payload(b"udp")
                .build();
            chain.process(p);
        }
        chain.sbox().unwrap().expire_idle_flows(600);
        max_rules = max_rules.max(chain.sbox().unwrap().global.len());
    }
    assert!(max_rules <= 1100, "rule table should track the active window, got {max_rules}");
}

#[test]
fn telemetry_stays_consistent_under_threaded_churn() {
    // The heavy-churn workload from above, but on the real thread-per-NF
    // runtime: NF threads record op counters concurrently with the
    // manager's packet records, and the final merged snapshot must still
    // account for every packet exactly once.
    use speedybox::platform::threaded::run_threaded;
    let w = Workload::generate(&WorkloadConfig {
        flows: 300,
        median_packets: 4.0,
        payload_len: 64,
        seed: 0xbeef,
        ..WorkloadConfig::default()
    });
    let packets = w.packets();
    let total = packets.len();
    let report = run_threaded(ipfilter_chain(4, 50), packets, true, 16);
    let s = &report.snapshot;
    assert_eq!(s.packets as usize, total, "every packet counted once");
    assert_eq!(s.delivered as usize, report.delivered.len());
    assert_eq!(s.dropped as usize, report.dropped);
    assert_eq!(s.delivered + s.dropped, s.packets);
    let lat = s.latency_total();
    assert_eq!(lat.count as usize, total);
    assert_eq!(lat.sum, report.latencies_ns.iter().sum::<u64>());
    assert_eq!(s.fastpath_hits, s.paths[2], "one MAT hit per fast-pathed packet");
    assert_eq!(s.flows_opened, 300);
    assert_eq!(s.rules_installed, 300, "one consolidation per flow");
}

#[test]
fn concurrent_snapshots_are_monotone_and_exact_at_quiescence() {
    // Periodic snapshots taken while NF threads are still writing their
    // shards: totals may lag but can never go backwards, and the final
    // quiescent snapshot is exact.
    use speedybox::platform::run_threaded_on;
    use speedybox::platform::runtime::{SboxConfig, SpeedyBox};
    let w = Workload::generate(&WorkloadConfig {
        flows: 200,
        median_packets: 5.0,
        seed: 77,
        ..WorkloadConfig::default()
    });
    let packets = w.packets();
    let total = packets.len();
    let mut last_packets = 0u64;
    let mut last_ops = 0u64;
    let mut fired = 0usize;
    let sbox = SpeedyBox::new(3, SboxConfig { batch_size: 8, ..SboxConfig::default() });
    let report = run_threaded_on(Some(&sbox), ipfilter_chain(3, 50), packets, 8, 40, |snap| {
        fired += 1;
        assert!(snap.packets >= last_packets, "packet count went backwards");
        let ops_sum: u64 = snap.ops.0.iter().sum();
        assert!(ops_sum >= last_ops, "op totals went backwards");
        // Packet records happen on the manager thread (the same
        // thread snapshotting), so delivery accounting is exact even
        // mid-run.
        assert_eq!(snap.delivered + snap.dropped, snap.packets);
        last_packets = snap.packets;
        last_ops = ops_sum;
    });
    assert!(fired >= 2, "periodic hook fired {fired} times");
    assert_eq!(report.snapshot.packets as usize, total);
    assert_eq!(report.snapshot.delivered as usize, report.delivered.len());
}
