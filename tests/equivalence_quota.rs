//! The quota limiter end to end: original and SpeedyBox chains must agree
//! packet by packet while a flow's quota runs out on the fast path — with
//! the limiter alone, and inside a VPN encap/decap window, where
//! consolidation annihilates the tunnel so the fast-path frame is shorter
//! than the one the limiter meters on the original path.
//!
//! One packet is excused, as in the sim oracle (DESIGN.md §11.4): the
//! Event Table checks a flow's armed events before the packet's state
//! functions run, so the packet whose metering exhausts the quota still
//! rides the old rule — SpeedyBox forwards it where the original chain
//! drops it — and the raise it makes turns the rule to drop from the next
//! packet on. A missed raise never turns it; metering the egress frame
//! inside the window turns it packets late.

use speedybox::nf::ratelimiter::QuotaLimiter;
use speedybox::nf::vpn::VpnGateway;
use speedybox::nf::Nf;
use speedybox::packet::headers::AH_LEN;
use speedybox::packet::{Packet, PacketBuilder};
use speedybox::platform::{Chain, PathKind, Platform, SboxConfig};

/// Packets in the flow.
const PACKETS: u32 = 30;
/// The packet that exhausts the quota on the original chain (1-based).
const EXHAUSTING: usize = 20;

fn flow_packet(i: u32) -> Packet {
    PacketBuilder::tcp()
        .src("10.0.0.9:7000".parse().unwrap())
        .dst("10.0.0.10:443".parse().unwrap())
        .seq(i)
        .payload(&[0x5a; 100])
        .build()
}

/// A quota the flow exhausts on its [`EXHAUSTING`]th packet, given the
/// frame length at the limiter's position.
fn quota(frame_at_limiter: usize) -> u64 {
    (EXHAUSTING * frame_at_limiter) as u64 - 1
}

fn limiter_alone() -> Vec<Box<dyn Nf>> {
    vec![Box::new(QuotaLimiter::new(quota(flow_packet(0).len())))]
}

fn limiter_in_vpn_window() -> Vec<Box<dyn Nf>> {
    vec![
        Box::new(VpnGateway::encap(7)),
        Box::new(QuotaLimiter::new(quota(flow_packet(0).len() + AH_LEN))),
        Box::new(VpnGateway::decap(7)),
    ]
}

/// Each packet's output bytes (`None` if dropped) and path.
type Outputs = Vec<(Option<Vec<u8>>, PathKind)>;

fn original(nfs: Vec<Box<dyn Nf>>, platform: Platform) -> Outputs {
    let mut chain = Chain::original(nfs).with_platform(platform);
    (1..=PACKETS)
        .map(|i| {
            let out = chain.process(flow_packet(i));
            (out.packet.map(|p| p.as_bytes().to_vec()), out.path)
        })
        .collect()
}

fn speedybox(nfs: Vec<Box<dyn Nf>>, platform: Platform, batch: usize) -> Outputs {
    let config = SboxConfig { batch_size: batch, ..SboxConfig::default() };
    let mut chain = Chain::speedybox_with(nfs, config).with_platform(platform);
    let mut packets: Vec<Packet> = (1..=PACKETS).map(flow_packet).collect();
    let mut outputs = Vec::new();
    let (mut buf, mut out) = (Vec::new(), Vec::new());
    while !packets.is_empty() {
        buf.extend(packets.drain(..batch.min(packets.len())));
        chain.process_batch_into(&mut buf, &mut out);
        outputs.extend(out.drain(..).map(|o| (o.packet.map(|p| p.as_bytes().to_vec()), o.path)));
    }
    outputs
}

/// Asserts SpeedyBox matches the original chain packet by packet, but
/// for the one excused packet: the fast-path packet that exhausts the
/// quota, forwarded under the old rule.
fn assert_equivalent(build: fn() -> Vec<Box<dyn Nf>>, label: &str) {
    for platform in [Platform::Bess, Platform::Onvm] {
        let orig = original(build(), platform);
        let exhausting = EXHAUSTING - 1;
        assert!(orig[..exhausting].iter().all(|(p, _)| p.is_some()), "{label}: original forwards");
        assert!(orig[exhausting..].iter().all(|(p, _)| p.is_none()), "{label}: original drops");
        for batch in [1, 32] {
            let sbox = speedybox(build(), platform, batch);
            let at = format!("{label} on {platform:?} at batch {batch}");
            assert_eq!(sbox[0].1, PathKind::Initial, "{at}: the first packet records");
            assert_eq!(
                sbox[exhausting].1,
                PathKind::Subsequent,
                "{at}: quota crossed on the fast path"
            );
            assert!(sbox[exhausting].0.is_some(), "{at}: the exhausting packet rides the old rule");
            for (i, ((o, _), (s, _))) in orig.iter().zip(&sbox).enumerate() {
                if i != exhausting {
                    assert_eq!(o, s, "{at}: packet {} diverged", i + 1);
                }
            }
        }
    }
}

#[test]
fn limiter_alone_drops_where_the_original_does() {
    assert_equivalent(limiter_alone, "limiter alone");
}

#[test]
fn limiter_inside_annihilated_vpn_window_meters_the_tunnel_frame() {
    assert_equivalent(limiter_in_vpn_window, "limiter inside the VPN window");
}
