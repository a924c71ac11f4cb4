//! Property-based tests for the rule-compilation layer: a rule's compiled
//! micro-op program must be observationally identical to interpreting its
//! consolidated action — across random modify/encap/decap/drop chains,
//! across L4 protocols, and across Event-Table rewrites — and a run of
//! fast-path packets must never be served a rewritten or removed rule's
//! predecessor.

#![allow(clippy::cast_possible_truncation)] // test data built from loop indices

use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use proptest::prelude::*;
use speedybox_mat::action::{EncapSpec, HeaderAction};
use speedybox_mat::compile;
use speedybox_mat::consolidate::consolidate;
use speedybox_mat::event::{Event, RulePatch, Signal};
use speedybox_mat::global::{FastPathOutcome, GlobalMat, GlobalRule};
use speedybox_mat::local::{LocalMat, NfId};
use speedybox_mat::ops::OpCounter;
use speedybox_mat::state_fn::{PayloadAccess, StateFunction};
use speedybox_packet::{Fid, HeaderField, Packet, PacketBuilder};

fn arb_field() -> impl Strategy<Value = HeaderField> {
    prop::sample::select(vec![
        HeaderField::SrcIp,
        HeaderField::DstIp,
        HeaderField::SrcPort,
        HeaderField::DstPort,
        HeaderField::Ttl,
        HeaderField::Tos,
        HeaderField::SrcMac,
        HeaderField::DstMac,
    ])
}

fn arb_modify() -> impl Strategy<Value = HeaderAction> {
    (arb_field(), any::<u64>()).prop_map(|(f, v)| {
        let value = match f {
            HeaderField::SrcIp | HeaderField::DstIp => {
                Ipv4Addr::from((v & 0xFFFF_FFFF) as u32).into()
            }
            HeaderField::SrcPort | HeaderField::DstPort => ((v & 0xFFFF) as u16).into(),
            HeaderField::SrcMac | HeaderField::DstMac => (v & 0xFFFF_FFFF_FFFF).into(),
            _ => ((v & 0xFF) as u8).into(),
        };
        HeaderAction::Modify(vec![(f, value)])
    })
}

fn arb_action() -> impl Strategy<Value = HeaderAction> {
    prop_oneof![
        Just(HeaderAction::Forward),
        arb_modify(),
        (0u32..16).prop_map(|spi| HeaderAction::Encap(EncapSpec::new(spi))),
    ]
}

fn tcp_packet() -> Packet {
    PacketBuilder::tcp()
        .src("10.1.2.3:5555".parse().unwrap())
        .dst("10.4.5.6:80".parse().unwrap())
        .payload(b"compiled-vs-interpreted")
        .build()
}

fn udp_packet() -> Packet {
    PacketBuilder::udp()
        .src("10.1.2.3:5555".parse().unwrap())
        .dst("10.4.5.6:53".parse().unwrap())
        .payload(b"compiled-vs-interpreted")
        .build()
}

/// Runs both execution paths over `base` and asserts byte-identical output
/// and identical forward/drop verdicts: the action interpreted, and its
/// template's program run over its values.
fn assert_equivalent(actions: &[HeaderAction], base: &Packet) {
    let consolidated = consolidate(actions);
    let program = GlobalRule::new(consolidated.clone(), vec![], vec![]).compiled;
    let mut interpreted = base.clone();
    let mut compiled = base.clone();
    let mut iops = OpCounter::default();
    let mut cops = OpCounter::default();
    let isurv = consolidated.apply(&mut interpreted, &mut iops).unwrap();
    let csurv = program.run(&mut compiled, &mut cops).unwrap();
    assert_eq!(isurv, csurv, "verdict diverged for {actions:?}");
    assert_eq!(interpreted.as_bytes(), compiled.as_bytes(), "bytes diverged for {actions:?}");
    if isurv {
        assert!(compiled.verify_checksums().unwrap(), "bad checksums for {actions:?}");
    }
}

proptest! {
    /// The tentpole claim: for any chain of modifies/encaps the lowered
    /// program and the interpreter agree byte-for-byte on TCP and UDP.
    #[test]
    fn compiled_equals_interpreted(actions in prop::collection::vec(arb_action(), 0..6)) {
        assert_equivalent(&actions, &tcp_packet());
        assert_equivalent(&actions, &udp_packet());
    }

    /// A drop anywhere makes both paths drop, regardless of surroundings.
    #[test]
    fn compiled_drop_equals_interpreted(
        before in prop::collection::vec(arb_action(), 0..3),
        after in prop::collection::vec(arb_action(), 0..3),
    ) {
        let mut actions = before;
        actions.push(HeaderAction::Drop);
        actions.extend(after);
        assert_equivalent(&actions, &tcp_packet());
    }

    /// Net decaps: a chain that strips pre-existing tunnel headers lowers
    /// to `PopDecap` ops that match the interpreter on pre-encapsulated
    /// packets.
    #[test]
    fn compiled_decaps_equal_interpreted(
        layers in 1usize..3,
        modifies in prop::collection::vec(arb_modify(), 0..3),
    ) {
        let mut actions: Vec<HeaderAction> =
            (0..layers).map(|i| HeaderAction::Decap(EncapSpec::new(i as u32))).collect();
        actions.extend(modifies);
        for base in [tcp_packet(), udp_packet()] {
            let mut encapped = base;
            for i in 0..layers {
                encapped.encap_ah(i as u32, 0).unwrap();
            }
            assert_equivalent(&actions, &encapped);
        }
    }

    /// Event-Table rewrites rebuild the rule through `GlobalRule::new`, so
    /// the stored program always matches the patched consolidated action —
    /// and the post-rewrite fast path still equals interpretation.
    #[test]
    fn event_rewritten_rules_recompile(
        original_port in 1024u16..u16::MAX,
        patched in arb_modify(),
    ) {
        let local = Arc::new(LocalMat::new(NfId::new(0)));
        let gm = GlobalMat::new(vec![local.clone()]);
        let (mut first, fid) = fid_packet();
        let mut ops = OpCounter::default();
        local.add_header_action(
            fid,
            HeaderAction::modify(HeaderField::DstPort, original_port),
            &mut ops,
        );
        let patch_action = patched.clone();
        gm.events().register(Event::new(
            fid,
            NfId::new(0),
            "rewrite-once",
            Signal::new(),
            |_| true,
            move |_| RulePatch::set_action(patch_action.clone()),
        ));
        gm.install(fid, &mut ops);
        // First fast-path packet fires the event and re-consolidates.
        gm.process(&mut first, &mut ops).unwrap();
        let rule = gm.rule(fid).expect("rule still installed");
        prop_assert_eq!(&compile(rule.action()), rule.program());
        assert_equivalent(std::slice::from_ref(&patched), &tcp_packet());
        // The live table now applies the patched action.
        let (mut next, _) = fid_packet();
        let mut expect = next.clone();
        let mut eops = OpCounter::default();
        let survived = rule.consolidated().apply(&mut expect, &mut eops).unwrap();
        let outcome = gm.process(&mut next, &mut ops).unwrap();
        match outcome {
            FastPathOutcome::Forwarded => {
                prop_assert!(survived);
                prop_assert_eq!(next.as_bytes(), expect.as_bytes());
            }
            FastPathOutcome::Dropped => prop_assert!(!survived),
            FastPathOutcome::NoRule => prop_assert!(false, "rule disappeared"),
        }
    }
}

fn fid_packet() -> (Packet, Fid) {
    let mut p = tcp_packet();
    let fid = p.five_tuple().unwrap().fid();
    p.set_fid(fid);
    (p, fid)
}

fn batch_of(n: usize) -> Vec<Packet> {
    (0..n).map(|_| fid_packet().0).collect()
}

/// One fast-path [`GlobalMat::process`] per packet, in order.
fn process_each(
    gm: &GlobalMat,
    packets: &mut [Packet],
    ops: &mut [OpCounter],
) -> Vec<FastPathOutcome> {
    packets.iter_mut().zip(ops).map(|(p, ops)| gm.process(p, ops).unwrap()).collect()
}

/// An event rewrite that lands in the middle of a batch takes effect from
/// the packet that fires it: processing the batch stays byte-identical to
/// one-at-a-time processing.
#[test]
fn affinity_memo_invalidated_by_mid_batch_rewrite() {
    let build = || {
        let local = Arc::new(LocalMat::new(NfId::new(0)));
        let gm = GlobalMat::new(vec![local.clone()]);
        let (_, fid) = fid_packet();
        let mut ops = OpCounter::default();
        local.add_header_action(fid, HeaderAction::modify(HeaderField::DstPort, 8080u16), &mut ops);
        // Conditions are pure reads: a state function counts the flow's
        // packets and raises the signal as the count reaches 2.
        let count = Arc::new(AtomicU64::new(0));
        let signal = Signal::new();
        let (c, s) = (Arc::clone(&count), signal.clone());
        local.add_state_function(
            fid,
            StateFunction::new("count", PayloadAccess::Ignore, move |_| {
                if c.fetch_add(1, Ordering::Relaxed) + 1 == 2 {
                    s.raise();
                }
            }),
            &mut ops,
        );
        gm.events().register(Event::new(
            fid,
            NfId::new(0),
            "rewrite-after-3",
            signal,
            move |_| count.load(Ordering::Relaxed) >= 2,
            |_| RulePatch::set_action(HeaderAction::modify(HeaderField::DstPort, 9999u16)),
        ));
        gm.install(fid, &mut ops);
        (gm, fid)
    };

    let (batched_gm, _) = build();
    let mut batched = batch_of(8);
    let mut bops = vec![OpCounter::default(); batched.len()];
    let batched_out = process_each(&batched_gm, &mut batched, &mut bops);

    let (single_gm, _) = build();
    let mut singles = batch_of(8);
    let mut single_out = Vec::new();
    for p in &mut singles {
        let mut ops = OpCounter::default();
        single_out.push(single_gm.process(p, &mut ops).unwrap());
    }

    assert_eq!(batched_out, single_out);
    for (b, s) in batched.iter().zip(&singles) {
        assert_eq!(b.as_bytes(), s.as_bytes());
    }
    // The rewrite actually took effect mid-batch: early packets carry the
    // original port, late packets the patched one (the second packet's
    // count raises, so the event fires on the third fast-path packet,
    // before its rule is applied).
    assert_eq!(batched[0].get_field(HeaderField::DstPort).unwrap().as_port(), 8080);
    assert_eq!(batched[1].get_field(HeaderField::DstPort).unwrap().as_port(), 8080);
    assert_eq!(batched[2].get_field(HeaderField::DstPort).unwrap().as_port(), 9999);
    assert_eq!(batched[7].get_field(HeaderField::DstPort).unwrap().as_port(), 9999);
}

/// A removed rule leaves the flow's record for good: every packet of the
/// next batch reports `NoRule`.
#[test]
fn affinity_memo_does_not_survive_rule_removal() {
    let local = Arc::new(LocalMat::new(NfId::new(0)));
    let gm = GlobalMat::new(vec![local.clone()]);
    let (_, fid) = fid_packet();
    let mut ops = OpCounter::default();
    local.add_header_action(fid, HeaderAction::modify(HeaderField::DstPort, 8080u16), &mut ops);
    gm.install(fid, &mut ops);

    let mut warm = batch_of(4);
    let mut wops = vec![OpCounter::default(); warm.len()];
    let out = process_each(&gm, &mut warm, &mut wops);
    assert!(out.iter().all(|o| *o == FastPathOutcome::Forwarded));

    gm.remove_flow(fid);
    let mut cold = batch_of(4);
    let mut cops = vec![OpCounter::default(); cold.len()];
    let out = process_each(&gm, &mut cold, &mut cops);
    assert!(out.iter().all(|o| *o == FastPathOutcome::NoRule), "{out:?}");
}

/// Re-installing a flow's rule between batches (the expiry-then-reinstall
/// lifecycle) must take effect immediately; no batch-to-batch cache exists.
#[test]
fn reinstalled_rule_takes_effect_next_batch() {
    let local = Arc::new(LocalMat::new(NfId::new(0)));
    let gm = GlobalMat::new(vec![local.clone()]);
    let (_, fid) = fid_packet();
    let mut ops = OpCounter::default();
    local.add_header_action(fid, HeaderAction::modify(HeaderField::DstPort, 8080u16), &mut ops);
    gm.install(fid, &mut ops);

    let mut first = batch_of(3);
    let mut fops = vec![OpCounter::default(); first.len()];
    process_each(&gm, &mut first, &mut fops);
    assert!(first.iter().all(|p| p.get_field(HeaderField::DstPort).unwrap().as_port() == 8080));

    // Expire and re-learn the flow with a different rewrite.
    gm.remove_flow(fid);
    local.set_header_actions(fid, vec![HeaderAction::modify(HeaderField::DstPort, 4433u16)]);
    gm.install(fid, &mut ops);

    let mut second = batch_of(3);
    let mut sops = vec![OpCounter::default(); second.len()];
    process_each(&gm, &mut second, &mut sops);
    assert!(second.iter().all(|p| p.get_field(HeaderField::DstPort).unwrap().as_port() == 4433));
}
