//! The `speedybox lint` driver: chain registry plus the harness that runs
//! every static-verifier pass over a named chain.
//!
//! Linting a chain means exercising it the way the runtime would — a small
//! deterministic workload records each flow's rule through the instrumented
//! slow path, the rule is installed, and fast-path packets run over it with
//! the debug-build payload-access and missed-raise trackers armed — then
//! handing what was recorded to `speedybox-verify`:
//!
//! * per-flow recorded header actions, read from the flow's record →
//!   pass 1 (consolidation soundness);
//! * every event armed in the flow's record → pass 2 (rewrite safety);
//! * the installed rule's precomputed wavefront schedule → pass 3
//!   (Table I schedule safety);
//! * the access tracker's observed-write log → `SBX010`;
//! * the missed-raise tracker's log (an armed condition that held with no
//!   signal raise) → `SBX014`;
//! * each NF's flow-state declaration vs its snapshot support → pass 6
//!   (`SBX013`, recovery-snapshot coverage).
//!
//! The driver always builds a **fresh** chain instance: pass 2 invokes
//! update handlers statically, and a handler is allowed to mutate its NF's
//! state (Maglev's reroute does), so linting must never run against a chain
//! about to process traffic.

use std::collections::BTreeSet;
use std::sync::Arc;

use speedybox_mat::{track, GlobalRule};
use speedybox_nf::Nf;
use speedybox_packet::Fid;
use speedybox_platform::chains;
use speedybox_platform::metrics::PathKind;
use speedybox_platform::{Chain, SpeedyBox};
use speedybox_traffic::{Workload, WorkloadConfig};
use speedybox_verify::{
    check_access_log, check_raise_log, check_snapshots, verify_flow, EventSpec, NfActions,
    NfStateSpec, Report,
};

/// The concrete chain names `lint --all` verifies (parameterized entries
/// pinned to representative sizes).
pub use chains::ALL_CHAINS as LINT_ALL;
/// The chain registry (moved to [`speedybox_platform::chains`] so harness
/// crates can use it without depending on the CLI crate), re-exported here
/// for compatibility.
pub use chains::{build_chain, build_chain_hooks, ChainHooks, CHAIN_REGISTRY};

/// Lints a chain by registry name on a fresh instance.
///
/// # Errors
/// Returns a message if the name is unknown.
pub fn lint_chain(name: &str) -> Result<Report, String> {
    Ok(lint_nfs(name, build_chain(name)?))
}

/// Lints an already-built chain: records per-flow rules through a small
/// deterministic workload, then runs every verify pass over what was
/// recorded. The chain instance is consumed conceptually — pass 2 may have
/// mutated NF state — so callers must not run traffic through it afterwards.
#[must_use]
pub fn lint_nfs(chain_name: &str, nfs: Vec<Box<dyn Nf>>) -> Report {
    // Drain stale tracker records so SBX010 and SBX014 findings are
    // attributable to this chain's fast-path packets alone.
    let _ = track::take_violations();
    let _ = track::take_missed_raises();

    let names: Vec<String> = nfs.iter().map(|nf| nf.name().to_string()).collect();

    // Pass 6 input, taken before traffic flows: the declaration triple is
    // a property of the NF type, not of accumulated state.
    let state_specs: Vec<NfStateSpec> = nfs
        .iter()
        .map(|nf| NfStateSpec::new(nf.name(), nf.has_flow_state(), nf.snapshot_state().is_some()))
        .collect();

    let (chain, fids) = record_flows(nfs);
    let sbox = chain.sbox().expect("speedybox enabled");

    let mut report = Report::new(chain_name);
    for fid in fids {
        let flow = flow_inputs(sbox, &names, fid);
        report.merge(verify_flow(chain_name, &flow.nf_actions, &flow.events, flow.rule.as_deref()));
    }

    // Close the declared-vs-observed loop: any state function the debug
    // build caught writing the payload under a Read/Ignore declaration,
    // and any armed event whose condition held with no raise.
    report.merge(check_access_log(chain_name, &track::take_violations()));
    report.merge(check_raise_log(chain_name, &track::take_missed_raises()));
    // And the recovery contract: declared flow state must be recoverable.
    report.merge(check_snapshots(chain_name, &state_specs));
    report
}

/// Runs lint's deterministic workload through a SpeedyBox chain over
/// `nfs`, returning the chain and the flows that recorded a rule.
#[must_use]
pub fn record_flows(nfs: Vec<Box<dyn Nf>>) -> (Chain, BTreeSet<Fid>) {
    // Deterministic workload: enough flows to hit every NF code path
    // (suspicious payloads included for Snort-bearing chains), enough
    // packets per flow to exercise the fast path and the access tracker.
    // Flow-closing packets are left out: the chain would tear the flow's
    // record down, and the passes read it after the run. They carry no
    // payload, so the access tracker loses nothing.
    let packets = Workload::generate(&WorkloadConfig {
        flows: 12,
        seed: 7,
        suspicious_fraction: 0.25,
        ..WorkloadConfig::default()
    })
    .packets();

    let mut chain = Chain::speedybox(nfs);
    let mut fids = BTreeSet::new();
    for packet in packets.into_iter().filter(|p| !p.tcp_flags().closes_flow()) {
        let fid = packet.five_tuple().map(|t| t.fid());
        if chain.process(packet).path == PathKind::Initial {
            fids.extend(fid);
        }
    }
    (chain, fids)
}

/// One flow's inputs to the verify passes.
#[derive(Debug)]
pub struct FlowInputs {
    /// Each NF's recorded header actions, in chain order (pass 1).
    pub nf_actions: Vec<NfActions>,
    /// The events armed in the flow's rule, in registration order
    /// (pass 2).
    pub events: Vec<EventSpec>,
    /// The flow's installed rule (passes 1 and 3).
    pub rule: Option<Arc<GlobalRule>>,
}

/// The verify passes' inputs for `fid`, read from its record, where the
/// flow's recordings and armed events live once installed. `names` are
/// the chain's NF names, in chain order.
#[must_use]
pub fn flow_inputs(sbox: &SpeedyBox, names: &[String], fid: Fid) -> FlowInputs {
    let rule = sbox.global.rule(fid);
    let recorded = rule.as_deref().map(GlobalRule::header_actions).unwrap_or_default();
    let nf_actions = names
        .iter()
        .enumerate()
        .map(|(i, name)| {
            let actions = recorded.iter().filter(|(nf, _)| nf.index() == i).map(|(_, a)| a.clone());
            NfActions::new(name, actions.collect())
        })
        .collect();
    let armed = rule.as_deref().map_or(&[][..], GlobalRule::armed);
    let events = armed.iter().map(EventSpec::from_event).collect();
    FlowInputs { nf_actions, events, rule }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_build() {
        for name in LINT_ALL {
            assert!(build_chain(name).is_ok(), "{name} failed to build");
        }
    }

    #[test]
    fn unknown_chain_is_rejected() {
        assert!(build_chain("nope").is_err());
        assert!(build_chain("ipfilter:x").is_err());
        assert!(lint_chain("nope").is_err());
    }

    #[test]
    fn lint_vpn_tunnel_is_clean() {
        let report = lint_chain("vpn-tunnel").unwrap();
        assert!(!report.has_errors(), "{}", report.render_text());
    }

    #[test]
    fn stateful_nf_without_snapshot_gets_sbx013() {
        use speedybox_nf::{NfContext, NfVerdict};
        use speedybox_packet::Packet;
        use speedybox_verify::LintCode;

        /// Counts packets (per-flow state) but cannot snapshot them.
        struct Amnesiac {
            count: u64,
        }

        impl Nf for Amnesiac {
            fn name(&self) -> &str {
                "amnesiac"
            }

            fn process(&mut self, _packet: &mut Packet, _ctx: &mut NfContext<'_>) -> NfVerdict {
                self.count += 1;
                NfVerdict::Forward
            }

            fn has_flow_state(&self) -> bool {
                true
            }
        }

        let report = lint_nfs("amnesiac-chain", vec![Box::new(Amnesiac { count: 0 })]);
        assert!(report.has_code(LintCode::SnapshotMissing), "{}", report.render_text());
        assert!(!report.has_errors(), "SBX013 must stay a warning");

        // Every registry chain keeps its recovery contract.
        for name in LINT_ALL {
            let report = lint_chain(name).unwrap();
            assert!(
                !report.has_code(LintCode::SnapshotMissing),
                "{name} has unrecoverable flow state:\n{}",
                report.render_text()
            );
        }
    }
}
