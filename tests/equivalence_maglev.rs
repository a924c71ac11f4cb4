//! §VII-C2: "Testing Maglev (containing events)".
//!
//! "We inject a flow with 10 packets into Maglev, and set the associated
//! event condition as 'change the destination IP from ip1 to ip2, from the
//! sixth packet' ... We check the packet outputs and find the destination
//! IP of pkt1-pkt5 is ip1, and the destination IP of pkt6-pkt10 is ip2.
//! The remaining headers and packet payloads going to ip2 are verified to
//! be true."

use std::net::Ipv4Addr;

use speedybox::nf::maglev::Maglev;
use speedybox::nf::Nf;
use speedybox::packet::{HeaderField, Packet, PacketBuilder};
use speedybox::platform::Chain;

fn lb(backends: usize) -> Maglev {
    Maglev::new(
        (0..backends)
            .map(|i| (format!("backend-{i}"), format!("10.1.0.{}:8080", i + 1).parse().unwrap()))
            .collect::<Vec<(String, _)>>(),
        251,
    )
}

fn flow_packet(i: u32) -> Packet {
    PacketBuilder::tcp()
        .src("10.0.0.7:6000".parse().unwrap())
        .dst("10.99.99.99:80".parse().unwrap())
        .seq(i)
        .payload(format!("segment-{i}").as_bytes())
        .build()
}

fn backend_name(_maglev: &Maglev, ip: Ipv4Addr) -> String {
    format!("backend-{}", ip.octets()[3] - 1)
}

#[test]
fn destination_flips_exactly_at_packet_six() {
    let maglev = lb(4);
    let nfs: Vec<Box<dyn Nf>> = vec![Box::new(maglev.clone())];
    let mut chain = Chain::speedybox(nfs);

    let mut outputs = Vec::new();
    for i in 1..=10u32 {
        if i == 6 {
            let fid = flow_packet(0).five_tuple().unwrap().fid();
            let addr = maglev.assigned_backend(fid).expect("tracked");
            maglev.fail_backend(&backend_name(&maglev, *addr.ip()));
        }
        let out = chain.process(flow_packet(i));
        outputs.push(out.packet.expect("all packets delivered"));
    }
    let ip1 = outputs[0].get_field(HeaderField::DstIp).unwrap().as_ipv4();
    let ip2 = outputs[9].get_field(HeaderField::DstIp).unwrap().as_ipv4();
    assert_ne!(ip1, ip2);
    for (i, p) in outputs.iter().enumerate() {
        let dst = p.get_field(HeaderField::DstIp).unwrap().as_ipv4();
        if i < 5 {
            assert_eq!(dst, ip1, "pkt{} must go to ip1", i + 1);
        } else {
            assert_eq!(dst, ip2, "pkt{} must go to ip2", i + 1);
        }
    }
}

#[test]
fn remaining_headers_and_payloads_intact_after_event() {
    let maglev = lb(4);
    let nfs: Vec<Box<dyn Nf>> = vec![Box::new(maglev.clone())];
    let mut chain = Chain::speedybox(nfs);
    for i in 1..=5u32 {
        chain.process(flow_packet(i));
    }
    let fid = flow_packet(0).five_tuple().unwrap().fid();
    let addr = maglev.assigned_backend(fid).unwrap();
    maglev.fail_backend(&backend_name(&maglev, *addr.ip()));
    let out = chain.process(flow_packet(6)).packet.unwrap();
    // Payload untouched, source fields untouched, checksums valid.
    assert_eq!(out.payload().unwrap(), b"segment-6");
    assert_eq!(out.get_field(HeaderField::SrcIp).unwrap().as_ipv4(), Ipv4Addr::new(10, 0, 0, 7));
    assert_eq!(out.get_field(HeaderField::SrcPort).unwrap().as_port(), 6000);
    assert!(out.verify_checksums().unwrap());
}

#[test]
fn fast_path_and_slow_path_reroute_identically() {
    // The same failure injected into an uninstrumented chain must steer
    // packets 6-10 to the same backend the fast path picks (consistent
    // hashing is deterministic).
    let run = |speedybox: bool| -> Vec<Ipv4Addr> {
        let maglev = lb(4);
        let nfs: Vec<Box<dyn Nf>> = vec![Box::new(maglev.clone())];
        let mut chain = if speedybox { Chain::speedybox(nfs) } else { Chain::original(nfs) };
        let mut dsts = Vec::new();
        for i in 1..=10u32 {
            if i == 6 {
                let fid = flow_packet(0).five_tuple().unwrap().fid();
                let addr = maglev.assigned_backend(fid).expect("tracked");
                maglev.fail_backend(&backend_name(&maglev, *addr.ip()));
            }
            let out = chain.process(flow_packet(i)).packet.unwrap();
            dsts.push(out.get_field(HeaderField::DstIp).unwrap().as_ipv4());
        }
        dsts
    };
    assert_eq!(run(false), run(true));
}

#[test]
fn double_failure_reroutes_twice() {
    // The Maglev event is recurring: if the re-routed backend also dies,
    // the flow moves again.
    let maglev = lb(4);
    let nfs: Vec<Box<dyn Nf>> = vec![Box::new(maglev.clone())];
    let mut chain = Chain::speedybox(nfs);
    let fid = flow_packet(0).five_tuple().unwrap().fid();

    chain.process(flow_packet(1));
    let first = *maglev.assigned_backend(fid).unwrap().ip();
    maglev.fail_backend(&backend_name(&maglev, first));
    let out2 = chain.process(flow_packet(2)).packet.unwrap();
    let second = out2.get_field(HeaderField::DstIp).unwrap().as_ipv4();
    assert_ne!(second, first);
    maglev.fail_backend(&backend_name(&maglev, second));
    let out3 = chain.process(flow_packet(3)).packet.unwrap();
    let third = out3.get_field(HeaderField::DstIp).unwrap().as_ipv4();
    assert_ne!(third, second);
    assert_ne!(third, first);
}

#[test]
fn all_backends_dead_drops_on_fast_path() {
    let maglev = lb(2);
    let nfs: Vec<Box<dyn Nf>> = vec![Box::new(maglev.clone())];
    let mut chain = Chain::speedybox(nfs);
    chain.process(flow_packet(1));
    maglev.fail_backend("backend-0");
    maglev.fail_backend("backend-1");
    let out = chain.process(flow_packet(2));
    assert!(out.packet.is_none(), "no healthy backend: drop");
}
