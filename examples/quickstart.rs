//! Quickstart: build a service chain, enable SpeedyBox, and watch the
//! consolidated fast path cut per-packet cost.
//!
//! Run with: `cargo run --example quickstart`

use speedybox::packet::PacketBuilder;
use speedybox::platform::chains::ipfilter_chain;
use speedybox::platform::Chain;

fn main() {
    // A chain of three IPFilter firewalls, each linearly scanning a 30-rule
    // ACL — the paper's Fig 4 workload.
    let packets: Vec<_> = (0..1000)
        .map(|i| {
            PacketBuilder::tcp()
                .src("10.0.0.1:4000".parse().unwrap())
                .dst("10.0.0.2:80".parse().unwrap())
                .payload(format!("packet {i}").as_bytes())
                .pad_to(64)
                .build()
        })
        .collect();

    // Original chain: every packet traverses every NF.
    let mut original = Chain::original(ipfilter_chain(3, 30));
    let orig = original.run(packets.clone());

    // SpeedyBox: the first packet of the flow records each NF's behaviour;
    // the other 999 take the consolidated fast path.
    let mut speedy = Chain::speedybox(ipfilter_chain(3, 30));
    let fast = speedy.run(packets);

    println!("chain: IPFilter x3 (30 ACL rules each), 1000 packets, 1 flow\n");
    println!(
        "original : {:>8.0} cycles/packet   ({} baseline packets)",
        orig.mean_work_cycles(),
        orig.path_counts[0]
    );
    println!(
        "speedybox: {:>8.0} cycles/packet   ({} initial + {} fast-path packets)",
        fast.mean_work_cycles(),
        fast.path_counts[1],
        fast.path_counts[2]
    );
    let saving = 1.0 - fast.mean_work_cycles() / orig.mean_work_cycles();
    println!("saving   : {:.1}%", saving * 100.0);

    assert_eq!(orig.delivered, fast.delivered);
    for (a, b) in orig.outputs.iter().zip(&fast.outputs) {
        assert_eq!(a.as_bytes(), b.as_bytes(), "outputs must be byte-identical");
    }
    println!("\noutputs verified byte-identical with and without SpeedyBox ✓");
}
