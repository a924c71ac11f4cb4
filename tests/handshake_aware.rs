//! The paper's §III initial-packet definition: "the first packet after a
//! connection is established (e.g., after the 3-way TCP handshake)". In
//! handshake-aware mode, SYN packets traverse the original chain without
//! recording; the first data packet records and installs the rule.

use speedybox::nf::mazunat::MazuNat;
use speedybox::nf::Nf;
use speedybox::packet::{Packet, PacketBuilder, TcpFlags};
use speedybox::platform::chains::ipfilter_chain;
use speedybox::platform::Chain;
use speedybox::platform::{PathKind, SboxConfig};

fn cfg() -> SboxConfig {
    SboxConfig { handshake_aware: true, ..SboxConfig::default() }
}

fn pkt(flags: u8, payload: &[u8], seq: u32) -> Packet {
    PacketBuilder::tcp()
        .src("10.0.0.1:4321".parse().unwrap())
        .dst("10.0.0.2:80".parse().unwrap())
        .flags(flags)
        .seq(seq)
        .payload(payload)
        .build()
}

#[test]
fn syn_rides_original_chain_first_data_packet_records() {
    let mut chain = Chain::speedybox_with(ipfilter_chain(2, 20), cfg());
    // SYN and a retransmitted SYN: both pre-handshake.
    assert_eq!(chain.process(pkt(TcpFlags::SYN, b"", 0)).path, PathKind::Baseline);
    assert_eq!(chain.process(pkt(TcpFlags::SYN, b"", 0)).path, PathKind::Baseline);
    assert!(chain.sbox().unwrap().global.is_empty(), "no rule from handshake packets");
    // First data packet is the paper's "initial packet".
    assert_eq!(chain.process(pkt(TcpFlags::ACK, b"data-1", 1)).path, PathKind::Initial);
    assert_eq!(chain.sbox().unwrap().global.len(), 1);
    // From then on: fast path.
    assert_eq!(chain.process(pkt(TcpFlags::ACK, b"data-2", 2)).path, PathKind::Subsequent);
}

#[test]
fn default_mode_records_from_first_packet() {
    let mut chain = Chain::speedybox(ipfilter_chain(2, 20));
    assert_eq!(chain.process(pkt(TcpFlags::SYN, b"", 0)).path, PathKind::Initial);
    assert_eq!(chain.process(pkt(TcpFlags::ACK, b"data", 1)).path, PathKind::Subsequent);
}

#[test]
fn pure_syn_flood_never_installs_rules() {
    let mut chain = Chain::speedybox_with(ipfilter_chain(1, 10), cfg());
    for i in 0..50 {
        let out = chain.process(pkt(TcpFlags::SYN, b"", i));
        assert_eq!(out.path, PathKind::Baseline);
        assert!(out.survived());
    }
    assert!(chain.sbox().unwrap().global.is_empty());
}

#[test]
fn udp_flows_are_unaffected_by_handshake_mode() {
    let mut chain = Chain::speedybox_with(ipfilter_chain(1, 10), cfg());
    let udp = |i: u32| {
        PacketBuilder::udp()
            .src("10.0.0.1:5353".parse().unwrap())
            .dst("10.0.0.2:53".parse().unwrap())
            .payload(format!("q{i}").as_bytes())
            .build()
    };
    assert_eq!(chain.process(udp(0)).path, PathKind::Initial);
    assert_eq!(chain.process(udp(1)).path, PathKind::Subsequent);
}

#[test]
fn nat_allocates_during_handshake_and_rule_matches() {
    // The NAT allocates its mapping while processing the SYN (original
    // path); the rule recorded later by the data packet must reuse that
    // same mapping — the consolidated path stays consistent with the
    // connection the peer observed during the handshake.
    let nat = MazuNat::new("198.51.100.1".parse().unwrap(), (50000, 51000));
    let nfs: Vec<Box<dyn Nf>> = vec![Box::new(nat)];
    let mut chain = Chain::speedybox_with(nfs, cfg());

    let syn_out = chain.process(pkt(TcpFlags::SYN, b"", 0)).packet.unwrap();
    let syn_port = syn_out.get_field(speedybox::packet::HeaderField::SrcPort).unwrap().as_port();
    let data_out = chain.process(pkt(TcpFlags::ACK, b"hello", 1)).packet.unwrap();
    let data_port = data_out.get_field(speedybox::packet::HeaderField::SrcPort).unwrap().as_port();
    assert_eq!(syn_port, data_port, "fast-path rule reuses the handshake-time mapping");
    let fast_out = chain.process(pkt(TcpFlags::ACK, b"again", 2)).packet.unwrap();
    assert_eq!(
        fast_out.get_field(speedybox::packet::HeaderField::SrcPort).unwrap().as_port(),
        syn_port
    );
}

#[test]
fn outputs_identical_to_baseline_in_handshake_mode() {
    let pkts: Vec<Packet> = {
        let mut v = vec![pkt(TcpFlags::SYN, b"", 0)];
        for i in 1..10 {
            v.push(pkt(TcpFlags::ACK | TcpFlags::PSH, format!("d{i}").as_bytes(), i));
        }
        v.push(pkt(TcpFlags::FIN | TcpFlags::ACK, b"", 10));
        v
    };
    let base = Chain::original(ipfilter_chain(3, 20)).run(pkts.clone());
    let fast = Chain::speedybox_with(ipfilter_chain(3, 20), cfg()).run(pkts);
    assert_eq!(base.outputs.len(), fast.outputs.len());
    for (a, b) in base.outputs.iter().zip(&fast.outputs) {
        assert_eq!(a.as_bytes(), b.as_bytes());
    }
}
