//! Property tests for rule templates: a flow served through its shape's
//! shared template and its own operands must match consolidating and
//! compiling that flow's recordings on their own — bytes, verdict and op
//! counts, compiled and interpreted — also when the template was built
//! from another flow's values, and after an event patch rebinds the flow
//! to another shape.

#![allow(clippy::cast_possible_truncation)] // test data built from random words

use std::net::Ipv4Addr;
use std::sync::Arc;

use proptest::prelude::*;
use speedybox_mat::action::{EncapSpec, HeaderAction};
use speedybox_mat::compile;
use speedybox_mat::consolidate::{consolidate, ConsolidatedAction};
use speedybox_mat::event::{Event, RulePatch, Signal};
use speedybox_mat::global::{GlobalMat, GlobalRule};
use speedybox_mat::local::{LocalMat, NfId};
use speedybox_mat::ops::OpCounter;
use speedybox_mat::state_fn::{PayloadAccess, StateFunction};
use speedybox_packet::{Fid, FieldValue, HeaderField, Packet, PacketBuilder};

/// NFs in the generated chains.
const NFS: usize = 3;

/// One flow's recordings: each NF's header actions, in chain order.
type Recordings = Vec<Vec<HeaderAction>>;

/// A value of `field`'s width drawn from `word`.
fn value_for(field: HeaderField, word: u64) -> FieldValue {
    match field {
        HeaderField::SrcIp | HeaderField::DstIp => Ipv4Addr::from(word as u32).into(),
        HeaderField::SrcPort | HeaderField::DstPort => (word as u16).into(),
        HeaderField::SrcMac | HeaderField::DstMac => (word & 0xFFFF_FFFF_FFFF).into(),
        HeaderField::Ttl | HeaderField::Tos => (word as u8).into(),
    }
}

fn arb_modify() -> impl Strategy<Value = HeaderAction> {
    let write = (prop::sample::select(HeaderField::ALL.to_vec()), any::<u64>())
        .prop_map(|(field, word)| (field, value_for(field, word)));
    prop::collection::vec(write, 1..3).prop_map(HeaderAction::Modify)
}

fn arb_action() -> impl Strategy<Value = HeaderAction> {
    prop_oneof![
        Just(HeaderAction::Forward),
        arb_modify(),
        arb_modify(),
        (0u32..4).prop_map(|spi| HeaderAction::Encap(EncapSpec::new(spi))),
        (0u32..4).prop_map(|spi| HeaderAction::Decap(EncapSpec::new(spi))),
        Just(HeaderAction::Drop),
    ]
}

fn arb_recordings() -> impl Strategy<Value = Recordings> {
    prop::collection::vec(prop::collection::vec(arb_action(), 0..3), NFS)
}

/// `recordings` with every modify value redrawn from `words`: the same
/// shape, another flow's values.
fn revalued(recordings: &Recordings, words: &[u64]) -> Recordings {
    let mut words = words.iter().cycle();
    recordings
        .iter()
        .map(|actions| {
            actions
                .iter()
                .map(|action| match action {
                    HeaderAction::Modify(writes) => HeaderAction::Modify(
                        writes
                            .iter()
                            .map(|&(field, _)| (field, value_for(field, *words.next().unwrap())))
                            .collect(),
                    ),
                    other => other.clone(),
                })
                .collect()
        })
        .collect()
}

/// `recordings` tagged with their NFs, flattened in chain order.
fn tagged(recordings: &Recordings) -> Vec<(NfId, HeaderAction)> {
    let nfs = recordings.iter().enumerate();
    nfs.flat_map(|(nf, actions)| actions.iter().map(move |a| (NfId::new(nf), a.clone()))).collect()
}

/// A Global MAT over `NFS` Local MATs, and the state function its
/// middle NF records for every flow.
struct Chain {
    gm: GlobalMat,
    locals: Vec<Arc<LocalMat>>,
    counter: StateFunction,
}

impl Chain {
    fn new() -> Self {
        let locals: Vec<Arc<LocalMat>> =
            (0..NFS).map(|i| Arc::new(LocalMat::new(NfId::new(i)))).collect();
        let counter = StateFunction::new("count", PayloadAccess::Ignore, |_| {});
        Self { gm: GlobalMat::new(locals.clone()), locals, counter }
    }

    /// Records `recordings` and the counter as flow `fid`'s walk and
    /// installs its rule.
    fn install(&self, fid: Fid, recordings: &Recordings) {
        let mut ops = OpCounter::default();
        for (local, actions) in self.locals.iter().zip(recordings) {
            for action in actions {
                local.add_header_action(fid, action.clone(), &mut ops);
            }
        }
        self.locals[1].add_state_function(fid, self.counter.clone(), &mut ops);
        self.gm.install(fid, &mut ops);
    }
}

/// TCP and UDP probes carrying enough AH layers for most decaps.
fn probes(recordings: &Recordings) -> Vec<Packet> {
    let decaps = recordings.iter().flatten().filter(|a| matches!(a, HeaderAction::Decap(_)));
    let layers = decaps.count().min(3);
    [PacketBuilder::tcp(), PacketBuilder::udp()]
        .into_iter()
        .map(|mut builder| {
            let mut p = builder
                .src("10.1.2.3:5555".parse().unwrap())
                .dst("10.4.5.6:80".parse().unwrap())
                .payload(b"template-vs-per-flow")
                .build();
            for spi in 0..layers {
                p.encap_ah(spi as u32, 0).unwrap();
            }
            p
        })
        .collect()
}

/// Runs `serve` and `reference` on clones of `base`; asserts the same
/// result, the same bytes and the same op counts.
fn assert_runs_agree(
    base: &Packet,
    serve: impl FnOnce(&mut Packet, &mut OpCounter) -> speedybox_mat::Result<bool>,
    reference: impl FnOnce(&mut Packet, &mut OpCounter) -> speedybox_mat::Result<bool>,
) {
    let (mut served, mut expected) = (base.clone(), base.clone());
    let (mut sops, mut eops) = (OpCounter::default(), OpCounter::default());
    let got = serve(&mut served, &mut sops);
    let want = reference(&mut expected, &mut eops);
    assert_eq!(got, want, "verdict");
    assert_eq!(sops, eops, "op counts");
    if want == Ok(true) {
        assert_eq!(served.as_bytes(), expected.as_bytes(), "bytes");
    }
}

/// Asserts that `rule` serves every probe as consolidating and compiling
/// `recordings` on their own does, compiled and interpreted.
fn assert_serves_like_its_own(rule: &GlobalRule, recordings: &Recordings) {
    let flat: Vec<HeaderAction> = recordings.iter().flatten().cloned().collect();
    let consolidated: ConsolidatedAction = consolidate(&flat);
    let mut operands = Vec::new();
    let program = compile(&consolidated.clone().map_values(|value| {
        operands.push(value);
        FieldValue::new(operands.len() as u64 - 1)
    }));
    for base in probes(recordings) {
        assert_runs_agree(
            &base,
            |p, ops| rule.compiled.run(p, ops),
            |p, ops| program.run(&operands, p, ops),
        );
        assert_runs_agree(
            &base,
            |p, ops| rule.interpret(p, ops),
            |p, ops| consolidated.apply(p, ops),
        );
    }
    assert_eq!(rule.consolidated(), consolidated);
    assert_eq!(rule.header_actions(), tagged(recordings));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Two flows of one shape share the first one's template, and each is
    /// served its own values.
    #[test]
    fn a_shared_template_serves_each_flow_its_own_values(
        recordings in arb_recordings(),
        words in prop::collection::vec(any::<u64>(), 1..8),
    ) {
        let chain = Chain::new();
        let gm = &chain.gm;
        let second = revalued(&recordings, &words);
        chain.install(Fid::new(1), &recordings);
        chain.install(Fid::new(2), &second);
        prop_assert_eq!(gm.templates(), 1);
        let (first_rule, second_rule) = (gm.rule(Fid::new(1)).unwrap(), gm.rule(Fid::new(2)).unwrap());
        prop_assert!(Arc::ptr_eq(first_rule.template(), second_rule.template()));
        assert_serves_like_its_own(&first_rule, &recordings);
        assert_serves_like_its_own(&second_rule, &second);
    }

    /// An event patch re-keys the flow from its recovered actions plus the
    /// patch: the rewritten rule serves as the patched recordings would.
    #[test]
    fn an_event_patched_rule_serves_its_patched_recordings(
        recordings in arb_recordings(),
        patch in prop::collection::vec(arb_action(), 0..3),
        nf in 0..NFS,
    ) {
        let chain = Chain::new();
        let gm = &chain.gm;
        let fid = Fid::new(7);
        let update = patch.clone();
        gm.events().register(Event::new(
            fid,
            NfId::new(nf),
            "patch",
            Signal::new(),
            |_| true,
            move |_| RulePatch { header_actions: Some(update.clone()), state_functions: None },
        ));
        chain.install(fid, &recordings);
        // The event is armed raised: the first fast-path packet fires it.
        let mut probe = probes(&recordings).remove(0);
        probe.set_fid(fid);
        let _ = gm.process(&mut probe, &mut OpCounter::default());
        let rule = gm.rule(fid).expect("the rewrite keeps the flow's rule");
        prop_assert!(rule.armed().is_empty(), "the one-shot event fired");
        let mut patched = recordings;
        patched[nf] = patch;
        assert_serves_like_its_own(&rule, &patched);
    }
}
