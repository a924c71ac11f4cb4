//! The raise contract, end to end: an NF whose event condition turns true
//! on the fast path without a raise of the event's signal must surface as
//! an `SBX014` finding when its chain is linted — the debug-build tracker
//! evaluates every armed condition whose signal did not move. The same NF
//! raising its signal gets none. This file is its own test process, so
//! the deliberate missed raises here can never leak into
//! `lint_chains.rs`'s clean-chain assertions; its two lints hold
//! [`SERIAL`], because the tracker's log is process-global.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, PoisonError};

use speedybox::lint::lint_nfs;
use speedybox::mat::state_fn::PayloadAccess;
use speedybox::mat::{HeaderAction, RulePatch, Signal};
use speedybox::nf::{Nf, NfContext, NfVerdict};
use speedybox::packet::{Fid, Packet};
use speedybox::verify::LintCode;

/// Packets after which a flow's rule is rewritten to drop.
const LIMIT: u64 = 3;

/// Keeps one lint's missed raises from landing in the other's report.
static SERIAL: Mutex<()> = Mutex::new(());

/// Counts each flow's packets on both paths and asks for a drop rule once
/// a flow reaches [`LIMIT`]; `raises` selects whether reaching it raises
/// the event's signal.
struct PacketCap {
    counts: Arc<Mutex<HashMap<Fid, u64>>>,
    signal: Signal,
    raises: bool,
}

impl PacketCap {
    fn new(raises: bool) -> Self {
        Self { counts: Arc::default(), signal: Signal::new(), raises }
    }

    fn count(counts: &Mutex<HashMap<Fid, u64>>, fid: Fid, signal: &Signal, raises: bool) {
        let mut counts = counts.lock().unwrap();
        let count = counts.entry(fid).or_insert(0);
        *count += 1;
        if raises && *count == LIMIT {
            signal.raise();
        }
    }
}

impl Nf for PacketCap {
    fn name(&self) -> &str {
        "packet-cap"
    }

    fn process(&mut self, packet: &mut Packet, ctx: &mut NfContext<'_>) -> NfVerdict {
        let Some(fid) = packet.fid() else { return NfVerdict::Forward };
        Self::count(&self.counts, fid, &self.signal, self.raises);
        if let Some(inst) = ctx.instrument {
            inst.add_header_action(fid, HeaderAction::Forward, ctx.ops);
            let (counts, signal, raises) =
                (Arc::clone(&self.counts), self.signal.clone(), self.raises);
            inst.add_state_function(
                fid,
                "cap.count",
                PayloadAccess::Ignore,
                move |sf| Self::count(&counts, sf.fid, &signal, raises),
                ctx.ops,
            );
            let counts = Arc::clone(&self.counts);
            inst.register_event(
                fid,
                "cap.reached",
                self.signal.clone(),
                move |fid| counts.lock().unwrap().get(&fid).is_some_and(|&c| c >= LIMIT),
                |_| RulePatch::set_action(HeaderAction::Drop),
            );
        }
        NfVerdict::Forward
    }
}

#[test]
fn condition_flipping_without_a_raise_is_caught_as_sbx014() {
    if !speedybox::mat::track::enabled() {
        // Release builds compile the tracker out; CI runs this test with
        // debug assertions on.
        return;
    }
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let report = lint_nfs("silent-chain", vec![Box::new(PacketCap::new(false))]);
    assert!(report.has_code(LintCode::MissedRaise), "expected SBX014:\n{}", report.render_text());
    assert!(report.has_errors());
    let text = report.render_text();
    assert!(text.contains("error[SBX014]: event `cap.reached`"), "{text}");
}

#[test]
fn raising_nf_produces_no_sbx014() {
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let report = lint_nfs("raising-chain", vec![Box::new(PacketCap::new(true))]);
    assert!(!report.has_code(LintCode::MissedRaise), "false positive:\n{}", report.render_text());
    assert!(!report.has_errors(), "{}", report.render_text());
}
