//! Encap/decap consolidation: a chain that tunnels packets into an IPsec
//! AH on ingress and strips it on egress (paper §IV-A1's VPN example).
//! The consolidated fast path recognizes that the encap and decap
//! annihilate — subsequent packets skip the header surgery entirely.
//!
//! Run with: `cargo run --example vpn_tunnel`

use speedybox::nf::monitor::Monitor;
use speedybox::nf::vpn::VpnGateway;
use speedybox::nf::Nf;
use speedybox::packet::PacketBuilder;
use speedybox::platform::Chain;

fn main() {
    // Chain: VPN ingress -> monitored core -> VPN egress. On the original
    // path every packet is encapsulated, counted, and decapsulated; the
    // consolidated rule reduces to "count" alone.
    let monitor = Monitor::new();
    let nfs: Vec<Box<dyn Nf>> = vec![
        Box::new(VpnGateway::encap(0x1001)),
        Box::new(monitor.clone()),
        Box::new(VpnGateway::decap(0x1001)),
    ];
    let mut speedy = Chain::speedybox(nfs);

    let packets: Vec<_> = (0..500)
        .map(|i| {
            PacketBuilder::tcp()
                .src("10.0.0.1:7000".parse().unwrap())
                .dst("10.8.0.1:443".parse().unwrap())
                .seq(i)
                .payload(b"inner traffic")
                .build()
        })
        .collect();

    let original_stats = {
        let mon = Monitor::new();
        let nfs: Vec<Box<dyn Nf>> = vec![
            Box::new(VpnGateway::encap(0x1001)),
            Box::new(mon),
            Box::new(VpnGateway::decap(0x1001)),
        ];
        Chain::original(nfs).run(packets.clone())
    };
    let speedy_stats = speedy.run(packets);

    println!("chain: VPN-encap -> Monitor -> VPN-decap, 500 packets, 1 flow\n");
    println!(
        "original : {:>6.0} cycles/packet ({} encap/decap ops performed)",
        original_stats.mean_work_cycles(),
        original_stats.ops.encaps
    );
    println!(
        "speedybox: {:>6.0} cycles/packet ({} encap/decap ops performed)",
        speedy_stats.mean_work_cycles(),
        speedy_stats.ops.encaps
    );

    // The consolidated rule performed encap/decap only for the single
    // initial packet; 499 fast-path packets did none at all.
    assert_eq!(speedy_stats.ops.encaps, 2, "only the initial packet tunnels");
    assert_eq!(original_stats.ops.encaps, 1000, "original tunnels every packet");

    // And the outputs are still byte-identical.
    for (a, b) in original_stats.outputs.iter().zip(&speedy_stats.outputs) {
        assert_eq!(a.as_bytes(), b.as_bytes());
    }
    // The monitor still counted every packet (its state function kept
    // running on the fast path).
    let fid = speedy_stats.outputs[0].five_tuple().unwrap().fid();
    println!(
        "\nmonitor counted {} packets on the consolidated path ✓",
        monitor.counters(fid).map(|c| c.packets).unwrap_or(0)
    );
    println!("encap+decap annihilated: the fast path does zero header surgery ✓");
    println!(
        "saving: {:.1}%",
        (1.0 - speedy_stats.mean_work_cycles() / original_stats.mean_work_cycles()) * 100.0
    );
}
