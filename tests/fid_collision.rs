//! End-to-end FID-collision handling.
//!
//! The paper's 20-bit FID space means distinct flows can hash to the same
//! rule slot (§VI-B). The prototype shares the slot silently; this
//! reproduction detects the 5-tuple mismatch at the classifier and routes
//! the colliding flow down the original chain uninstrumented, so both
//! flows observe exactly the baseline behaviour.

use std::collections::HashMap;
use std::net::{Ipv4Addr, SocketAddrV4};

use speedybox::mat::PacketClass;
use speedybox::nf::monitor::Monitor;
use speedybox::nf::Nf;
use speedybox::packet::{Fid, FiveTuple, Packet, PacketBuilder, Protocol};
use speedybox::platform::chains::ipfilter_chain;
use speedybox::platform::Chain;
use speedybox::platform::PathKind;

fn colliding_tuples() -> (FiveTuple, FiveTuple) {
    let mut seen: HashMap<Fid, FiveTuple> = HashMap::new();
    for a in 0..=255u8 {
        for b in 0..=255u8 {
            for port in [1000u16, 2000, 3000, 4000] {
                let t = FiveTuple::new(
                    Ipv4Addr::new(10, 5, a, b),
                    port,
                    Ipv4Addr::new(10, 0, 0, 2),
                    80,
                    Protocol::Tcp,
                );
                if let Some(prev) = seen.insert(t.fid(), t) {
                    if prev != t {
                        return (prev, t);
                    }
                }
            }
        }
    }
    panic!("no collision found");
}

fn packet(t: &FiveTuple, i: u32) -> Packet {
    let mut b = PacketBuilder::tcp();
    b.src(SocketAddrV4::new(t.src_ip, t.src_port))
        .dst(SocketAddrV4::new(t.dst_ip, t.dst_port))
        .seq(i)
        .payload(format!("pkt-{i}").as_bytes());
    b.build()
}

#[test]
fn colliding_flow_takes_original_path() {
    let (ta, tb) = colliding_tuples();
    let mut chain = Chain::speedybox(ipfilter_chain(2, 20));
    // Owner flow takes slow-then-fast path.
    assert_eq!(chain.process(packet(&ta, 0)).path, PathKind::Initial);
    assert_eq!(chain.process(packet(&ta, 1)).path, PathKind::Subsequent);
    // The colliding flow is never fast-pathed and never corrupts the
    // owner's rule.
    for i in 0..4 {
        let out = chain.process(packet(&tb, i));
        assert_eq!(out.path, PathKind::Baseline, "collision packets ride the original chain");
        assert!(out.survived());
    }
    // Owner still fast-paths.
    assert_eq!(chain.process(packet(&ta, 2)).path, PathKind::Subsequent);
    // Exactly one rule installed (the owner's).
    assert_eq!(chain.sbox().unwrap().global.len(), 1);
}

#[test]
fn collision_outputs_match_baseline() {
    let (ta, tb) = colliding_tuples();
    let mut pkts = Vec::new();
    for i in 0..6u32 {
        pkts.push(packet(&ta, i));
        pkts.push(packet(&tb, i));
    }
    let base = Chain::original(ipfilter_chain(2, 20)).run(pkts.clone());
    let fast = Chain::speedybox(ipfilter_chain(2, 20)).run(pkts);
    assert_eq!(base.outputs.len(), fast.outputs.len());
    for (a, b) in base.outputs.iter().zip(&fast.outputs) {
        assert_eq!(a.as_bytes(), b.as_bytes());
    }
}

#[test]
fn collision_fin_does_not_tear_down_owner_rule() {
    let (ta, tb) = colliding_tuples();
    let mut chain = Chain::speedybox(ipfilter_chain(1, 10));
    chain.process(packet(&ta, 0));
    assert_eq!(chain.sbox().unwrap().global.len(), 1);
    // Colliding flow sends a FIN: the owner's rule must survive.
    let mut fin = PacketBuilder::tcp();
    fin.src(SocketAddrV4::new(tb.src_ip, tb.src_port))
        .dst(SocketAddrV4::new(tb.dst_ip, tb.dst_port))
        .flags(speedybox::packet::TcpFlags::FIN | speedybox::packet::TcpFlags::ACK);
    chain.process(fin.build());
    assert_eq!(chain.sbox().unwrap().global.len(), 1, "owner rule survives foreign FIN");
    assert_eq!(chain.process(packet(&ta, 1)).path, PathKind::Subsequent);
}

#[test]
fn monitor_state_shared_across_collision_matches_baseline() {
    // NFs key per-flow state by FID, so colliding flows share counters —
    // in SpeedyBox *and* in the baseline (which keys by the same ingress
    // hash). The equivalence contract is "same as baseline", not
    // "collision-free".
    let (ta, tb) = colliding_tuples();
    let mk_run = |speedybox: bool| -> u64 {
        let mon = Monitor::new();
        let nfs: Vec<Box<dyn Nf>> = vec![Box::new(mon.clone())];
        let mut chain = if speedybox { Chain::speedybox(nfs) } else { Chain::original(nfs) };
        for i in 0..5 {
            chain.process(packet(&ta, i));
            chain.process(packet(&tb, i));
        }
        mon.counters(ta.fid()).map(|c| c.packets).unwrap_or(0)
    };
    assert_eq!(mk_run(false), mk_run(true));
}

#[test]
fn classifier_reports_collision_class() {
    let (ta, tb) = colliding_tuples();
    let chain = Chain::speedybox(ipfilter_chain(1, 10));
    let sbox = chain.sbox().unwrap();
    let mut ops = speedybox::mat::OpCounter::default();
    let mut pa = packet(&ta, 0);
    sbox.classifier.classify(&mut pa, &mut ops).unwrap();
    assert_eq!(sbox.classifier.peek(&tb), PacketClass::Collision);
}
