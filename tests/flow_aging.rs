//! Idle-flow aging: UDP flows never send FIN/RST, so the paper's
//! FIN-triggered garbage collection (§VI-B) leaves their rules behind
//! forever. The reproduction adds deterministic idle expiry
//! (`SpeedyBox::expire_idle_flows`) driven by the classifier's packet
//! clock.

use speedybox::nf::monitor::Monitor;
use speedybox::nf::Nf;
use speedybox::packet::{Packet, PacketBuilder};
use speedybox::platform::chains::ipfilter_chain;
use speedybox::platform::Chain;
use speedybox::platform::PathKind;

fn udp_packet(src_port: u16, i: u32) -> Packet {
    PacketBuilder::udp()
        .src(format!("10.0.0.1:{src_port}").parse().unwrap())
        .dst("10.0.0.2:53".parse().unwrap())
        .payload(format!("q{i}").as_bytes())
        .build()
}

#[test]
fn udp_rules_linger_without_aging() {
    let mut chain = Chain::speedybox(ipfilter_chain(2, 20));
    for flow in 0..10 {
        for i in 0..3 {
            chain.process(udp_packet(5000 + flow, i));
        }
    }
    // No FIN ever arrives: every flow still owns a rule.
    let sbox = chain.sbox().unwrap();
    assert_eq!(sbox.global.len(), 10);
    assert_eq!(sbox.classifier.len(), 10);
}

#[test]
fn idle_udp_flows_are_reclaimed() {
    let mut chain = Chain::speedybox(ipfilter_chain(2, 20));
    // Ten UDP flows, then one flow keeps talking while the others idle.
    for flow in 0..10 {
        chain.process(udp_packet(5000 + flow, 0));
    }
    for i in 1..=50 {
        chain.process(udp_packet(5000, i));
    }
    let reclaimed = chain.sbox().unwrap().expire_idle_flows(30);
    assert_eq!(reclaimed, 9, "all idle flows reclaimed, the busy one kept");
    let sbox = chain.sbox().unwrap();
    assert_eq!(sbox.global.len(), 1);
    assert_eq!(sbox.classifier.len(), 1);
    // The busy flow still fast-paths; an expired flow re-records.
    assert_eq!(chain.process(udp_packet(5000, 99)).path, PathKind::Subsequent);
    assert_eq!(chain.process(udp_packet(5003, 99)).path, PathKind::Initial);
    assert_eq!(chain.process(udp_packet(5003, 100)).path, PathKind::Subsequent);
}

#[test]
fn expiry_tears_down_nf_mat_state() {
    let mon = Monitor::new();
    let nfs: Vec<Box<dyn Nf>> = vec![Box::new(mon)];
    let mut chain = Chain::speedybox(nfs);
    chain.process(udp_packet(6000, 0));
    let fid = udp_packet(6000, 0).five_tuple().unwrap().fid();
    assert!(chain.sbox().unwrap().global.contains(fid));
    // Install moved the monitor's recording into the flow's record.
    let rule = chain.sbox().unwrap().global.rule(fid).unwrap();
    assert_eq!(rule.header_actions().len(), 1);
    assert_eq!(rule.batches.len(), 1);
    drop(rule);
    for i in 0..20 {
        chain.process(udp_packet(6001, i));
    }
    assert_eq!(chain.sbox().unwrap().expire_idle_flows(10), 1);
    // Global MAT and Local MATs are clean for the expired flow.
    let sbox = chain.sbox().unwrap();
    assert!(!sbox.global.contains(fid));
    assert!(sbox.global.locals().iter().all(|l| l.rule(fid).is_none()));
    // The record held the flow's recordings, and it is gone.
    assert!(sbox.global.record(fid).is_none(), "no recording survives the expiry");
}

#[test]
fn aging_preserves_output_equivalence() {
    // Expiring a flow mid-stream only moves later packets back through the
    // slow path once — the bytes that come out are unchanged.
    let pkts: Vec<Packet> = (0..30).map(|i| udp_packet(7000, i)).collect();
    let baseline = Chain::original(ipfilter_chain(2, 20)).run(pkts.clone());

    let mut chain = Chain::speedybox(ipfilter_chain(2, 20));
    let mut outputs = Vec::new();
    for (i, p) in pkts.into_iter().enumerate() {
        if i == 15 {
            // Force-expire everything (idle threshold zero).
            chain.sbox().unwrap().expire_idle_flows(0);
        }
        if let Some(out) = chain.process(p).packet {
            outputs.push(out);
        }
    }
    assert_eq!(baseline.outputs.len(), outputs.len());
    for (a, b) in baseline.outputs.iter().zip(&outputs) {
        assert_eq!(a.as_bytes(), b.as_bytes());
    }
}
