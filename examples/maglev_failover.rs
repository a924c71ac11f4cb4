//! The Event Table in action: a Maglev backend fails mid-flow and the
//! consolidated fast path re-routes the flow's subsequent packets — the
//! paper's §VII-C2 equivalence scenario ("change the destination IP from
//! ip1 to ip2, from the sixth packet").
//!
//! Run with: `cargo run --example maglev_failover`

use speedybox::nf::maglev::Maglev;
use speedybox::nf::Nf;
use speedybox::packet::{HeaderField, PacketBuilder};
use speedybox::platform::Chain;

fn main() {
    let maglev = Maglev::new(
        (0..4)
            .map(|i| (format!("backend-{i}"), format!("10.1.0.{}:8080", i + 1).parse().unwrap()))
            .collect::<Vec<(String, _)>>(),
        251,
    );
    let nfs: Vec<Box<dyn Nf>> = vec![Box::new(maglev.clone())];
    let mut chain = Chain::speedybox(nfs);

    let pkt = |i: u32| {
        PacketBuilder::tcp()
            .src("10.0.0.1:5000".parse().unwrap())
            .dst("10.99.99.99:80".parse().unwrap()) // the VIP
            .seq(i)
            .payload(format!("segment {i}").as_bytes())
            .build()
    };

    println!("flow of 10 packets through Maglev (4 backends); backend fails after packet 5\n");
    let mut first_backend = None;
    for i in 1..=10u32 {
        if i == 6 {
            // Kill the backend serving this flow right before packet 6.
            let fid = pkt(0).five_tuple().unwrap().fid();
            let addr = maglev.assigned_backend(fid).expect("flow tracked");
            let name = format!("backend-{}", addr.ip().octets()[3] - 1);
            maglev.fail_backend(&name);
            println!("  !! {name} ({addr}) fails");
        }
        let out = chain.process(pkt(i));
        let delivered = out.packet.expect("packet survives");
        let dst = delivered.get_field(HeaderField::DstIp).unwrap().as_ipv4();
        let path = match out.path {
            speedybox::platform::PathKind::Initial => "slow path",
            speedybox::platform::PathKind::Subsequent => "fast path",
            speedybox::platform::PathKind::Baseline => "baseline",
        };
        println!("  pkt{i:<2} -> {dst}  ({path})");
        if i <= 5 {
            let fb = *first_backend.get_or_insert(dst);
            assert_eq!(dst, fb, "packets 1-5 stick to the original backend");
        } else {
            assert_ne!(Some(dst), first_backend, "packets 6-10 must go to the re-routed backend");
        }
    }
    println!("\nevent fired exactly at packet 6; flow re-routed without leaving the fast path ✓");
}
