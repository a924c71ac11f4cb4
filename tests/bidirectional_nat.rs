//! Bidirectional traffic through a NAT'd chain: outbound flows establish
//! mappings, reply traffic is translated back, and both directions ride
//! their own consolidated fast-path rules.

use speedybox::nf::ipfilter::IpFilter;
use speedybox::nf::mazunat::MazuNat;
use speedybox::nf::monitor::Monitor;
use speedybox::nf::Nf;
use speedybox::packet::{HeaderField, Packet, PacketBuilder};
use speedybox::platform::Chain;
use speedybox::platform::PathKind;

fn outbound(src_port: u16, i: u32) -> Packet {
    PacketBuilder::tcp()
        .src(format!("192.168.1.5:{src_port}").parse().unwrap())
        .dst("93.184.216.34:443".parse().unwrap())
        .seq(i)
        .payload(format!("req-{i}").as_bytes())
        .build()
}

fn reply(ext_port: u16, i: u32) -> Packet {
    PacketBuilder::tcp()
        .src("93.184.216.34:443".parse().unwrap())
        .dst(format!("198.51.100.1:{ext_port}").parse().unwrap())
        .seq(i)
        .payload(format!("resp-{i}").as_bytes())
        .build()
}

fn chain(nat: &MazuNat, mon: &Monitor) -> Vec<Box<dyn Nf>> {
    vec![Box::new(nat.clone()), Box::new(mon.clone()), Box::new(IpFilter::pass_through(20))]
}

#[test]
fn both_directions_fast_path_independently() {
    let nat = MazuNat::new("198.51.100.1".parse().unwrap(), (50000, 51000));
    let mon = Monitor::new();
    let mut c = Chain::speedybox(chain(&nat, &mon));

    // Outbound: initial then fast.
    let out1 = c.process(outbound(4000, 0));
    assert_eq!(out1.path, PathKind::Initial);
    let ext_port = out1.packet.as_ref().unwrap().get_field(HeaderField::SrcPort).unwrap().as_port();
    assert_eq!(c.process(outbound(4000, 1)).path, PathKind::Subsequent);

    // Reply direction: its own rule, also initial then fast.
    let back1 = c.process(reply(ext_port, 0));
    assert_eq!(back1.path, PathKind::Initial);
    let delivered = back1.packet.unwrap();
    assert_eq!(
        delivered.get_field(HeaderField::DstIp).unwrap().as_ipv4(),
        "192.168.1.5".parse::<std::net::Ipv4Addr>().unwrap()
    );
    assert_eq!(delivered.get_field(HeaderField::DstPort).unwrap().as_port(), 4000);
    let back2 = c.process(reply(ext_port, 1));
    assert_eq!(back2.path, PathKind::Subsequent);
    assert_eq!(back2.packet.unwrap().get_field(HeaderField::DstPort).unwrap().as_port(), 4000);
    // Two rules installed: one per direction.
    assert_eq!(c.sbox().unwrap().global.len(), 2);
}

#[test]
fn bidirectional_outputs_match_baseline() {
    let mk = || {
        let nat = MazuNat::new("198.51.100.1".parse().unwrap(), (50000, 51000));
        let mon = Monitor::new();
        chain(&nat, &mon)
    };
    // Interleave requests and replies; external port is deterministic
    // (first allocation from the pool).
    let mut pkts = Vec::new();
    for i in 0..8u32 {
        pkts.push(outbound(4000, i));
        if i > 0 {
            pkts.push(reply(50000, i));
        }
    }
    let base = Chain::original(mk()).run(pkts.clone());
    let fast = Chain::speedybox(mk()).run(pkts);
    assert_eq!(base.delivered, fast.delivered);
    assert_eq!(base.dropped, fast.dropped);
    for (a, b) in base.outputs.iter().zip(&fast.outputs) {
        assert_eq!(a.as_bytes(), b.as_bytes());
    }
}

#[test]
fn unsolicited_inbound_early_drops_on_fast_path() {
    let nat = MazuNat::new("198.51.100.1".parse().unwrap(), (50000, 51000));
    let mon = Monitor::new();
    let mut c = Chain::speedybox(chain(&nat, &mon));
    // No outbound flow exists: stray inbound gets a drop rule.
    let first = c.process(reply(50123, 0));
    assert!(first.packet.is_none());
    let second = c.process(reply(50123, 1));
    assert!(second.packet.is_none());
    assert_eq!(second.path, PathKind::Subsequent, "drop consolidated onto the fast path");
    assert!(second.work_cycles < first.work_cycles, "early drop is cheaper");
}
