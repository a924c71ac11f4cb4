//! VLAN-tagged traffic through SpeedyBox chains: tags must survive both
//! paths, flow identity must ignore the tag, and tagged captures must
//! round-trip through pcap.

use speedybox::packet::pcap::{read_pcap, write_pcap};
use speedybox::packet::trace::{Trace, TraceRecord};
use speedybox::packet::{HeaderField, Packet, PacketBuilder};
use speedybox::platform::chains::{chain1, ipfilter_chain};
use speedybox::platform::Chain;
use speedybox::platform::PathKind;

fn tagged(vlan: u16, src_port: u16, i: u32) -> Packet {
    PacketBuilder::tcp()
        .src(format!("10.0.0.1:{src_port}").parse().unwrap())
        .dst("10.0.0.2:80".parse().unwrap())
        .vlan(vlan)
        .seq(i)
        .payload(format!("vlan-pkt-{i}").as_bytes())
        .build()
}

#[test]
fn tags_survive_fast_path() {
    let mut chain = Chain::speedybox(ipfilter_chain(2, 20));
    for i in 0..5 {
        let out = chain.process(tagged(100, 4000, i));
        let pkt = out.packet.expect("delivered");
        assert_eq!(pkt.vlan_id(), Some(100), "tag intact on packet {i}");
        assert_eq!(pkt.payload().unwrap(), format!("vlan-pkt-{i}").as_bytes());
    }
}

#[test]
fn tagged_and_untagged_same_tuple_share_a_flow() {
    // The 5-tuple (not the tag) is flow identity, as in the paper's
    // classifier; a tagged packet on an established untagged flow is
    // subsequent traffic.
    let mut chain = Chain::speedybox(ipfilter_chain(1, 10));
    let untagged = PacketBuilder::tcp()
        .src("10.0.0.1:4100".parse().unwrap())
        .dst("10.0.0.2:80".parse().unwrap())
        .payload(b"first")
        .build();
    assert_eq!(chain.process(untagged).path, PathKind::Initial);
    let out = chain.process(tagged(5, 4100, 1));
    assert_eq!(out.path, PathKind::Subsequent);
    assert_eq!(out.packet.unwrap().vlan_id(), Some(5));
}

#[test]
fn vlan_outputs_match_baseline_through_chain1() {
    let pkts: Vec<Packet> = (0..12).map(|i| tagged(200, 4200 + (i % 3) as u16, i)).collect();
    let base = Chain::original(chain1(4).0).run(pkts.clone());
    let fast = Chain::speedybox(chain1(4).0).run(pkts);
    assert_eq!(base.outputs.len(), fast.outputs.len());
    for (a, b) in base.outputs.iter().zip(&fast.outputs) {
        assert_eq!(a.as_bytes(), b.as_bytes());
        assert_eq!(a.vlan_id(), Some(200));
    }
}

#[test]
fn nat_rewrites_through_the_tag() {
    let (nfs, handles) = chain1(4);
    let mut chain = Chain::speedybox(nfs);
    let out = chain.process(tagged(300, 4300, 0)).packet.unwrap();
    // MazuNAT rewrote the source behind the VLAN tag.
    assert_eq!(
        out.get_field(HeaderField::SrcIp).unwrap().as_ipv4(),
        "198.51.100.1".parse::<std::net::Ipv4Addr>().unwrap()
    );
    assert_eq!(out.vlan_id(), Some(300));
    assert!(out.verify_checksums().unwrap());
    assert_eq!(handles.nat.mapping_count(), 1);
}

#[test]
fn tagged_capture_round_trips_pcap() {
    let t: Trace = (0..4u32)
        .map(|i| TraceRecord::capture(u64::from(i) * 1_000, &tagged(7, 4400, i)))
        .collect();
    let mut buf = Vec::new();
    write_pcap(&t, &mut buf).unwrap();
    let t2 = read_pcap(&buf[..]).unwrap();
    assert_eq!(t, t2);
    for p in t2.packets().unwrap() {
        assert_eq!(p.vlan_id(), Some(7));
    }
}
