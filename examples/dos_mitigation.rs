//! The paper's Fig 3 workflow end to end: a DoS-prevention NF counts TCP
//! SYNs per flow through a recorded state function; when a flow crosses
//! the threshold, its registered event fires and the Event Table rewrites
//! the flow's consolidated rule from `modify` to `drop` — all without the
//! packet ever leaving the fast path.
//!
//! Run with: `cargo run --example dos_mitigation`

use speedybox::nf::dosguard::DosGuard;
use speedybox::nf::mazunat::MazuNat;
use speedybox::nf::Nf;
use speedybox::packet::{PacketBuilder, TcpFlags};
use speedybox::platform::Chain;
use speedybox::platform::PathKind;

fn main() {
    // Chain: MazuNAT (modify action, as in Fig 3's global MAT) followed by
    // the DoS guard (threshold: 5 SYNs per flow).
    let guard = DosGuard::new(5);
    let nat = MazuNat::new("198.51.100.1".parse().unwrap(), (40000, 60000));
    let nfs: Vec<Box<dyn Nf>> = vec![Box::new(nat), Box::new(guard.clone())];
    let mut chain = Chain::speedybox(nfs);

    let syn_flood = |i: u32| {
        PacketBuilder::tcp()
            .src("203.0.113.66:6666".parse().unwrap())
            .dst("10.0.0.2:80".parse().unwrap())
            .flags(TcpFlags::SYN)
            .seq(i)
            .payload(b"syn flood")
            .build()
    };
    let legit = |i: u32| {
        PacketBuilder::tcp()
            .src("10.0.0.9:5000".parse().unwrap())
            .dst("10.0.0.2:80".parse().unwrap())
            .flags(TcpFlags::ACK)
            .seq(i)
            .payload(b"legit data")
            .build()
    };

    println!("DoS guard: drop a flow after 5 SYNs (paper Fig 3)\n");
    let mut flood_fid = None;
    for i in 1..=10u32 {
        let out = chain.process(syn_flood(i));
        let verdict = if out.survived() { "forwarded" } else { "DROPPED" };
        let path = match out.path {
            PathKind::Initial => "slow path",
            PathKind::Subsequent => "fast path",
            PathKind::Baseline => "baseline",
        };
        if flood_fid.is_none() {
            flood_fid = syn_flood(i).five_tuple().ok().map(|t| t.fid());
        }
        println!(
            "  attacker SYN {i:>2}: {verdict:<9} ({path}, SYN count = {})",
            guard.syn_count(flood_fid.unwrap())
        );
        // Legitimate traffic flows uninterrupted alongside.
        let ok = chain.process(legit(i));
        assert!(ok.survived(), "legitimate flow must never be collateral damage");
    }

    let fid = flood_fid.unwrap();
    println!("\nfinal SYN count for the attacking flow: {}", guard.syn_count(fid));
    assert!(guard.is_blocked(fid));
    // Counting stopped once the event flipped the rule to drop: packets
    // 7-10 were freed at the head of the chain without touching the NF.
    assert_eq!(guard.syn_count(fid), 6);
    println!("events rewrote the rule to `drop` after the 6th SYN;");
    println!("subsequent flood packets were freed at the classifier — the NAT and the");
    println!("guard never saw them (early drop on the consolidated fast path) ✓");
}
