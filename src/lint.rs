//! The `speedybox lint` driver: chain registry plus the harness that runs
//! every static-verifier pass over a named chain.
//!
//! Linting a chain means exercising it the way the runtime would — a small
//! deterministic workload records each flow's rule through the instrumented
//! slow path, the rule is installed, and fast-path packets run over it with
//! the debug-build payload-access tracker armed — then handing what was
//! recorded to `speedybox-verify`:
//!
//! * per-flow recorded header actions → pass 1 (consolidation soundness);
//! * every registered Event Table entry → pass 2 (rewrite safety);
//! * the installed rule's precomputed wavefront schedule → pass 3
//!   (Table I schedule safety);
//! * the access tracker's observed-write log → `SBX010`;
//! * each NF's flow-state declaration vs its snapshot support → pass 6
//!   (`SBX013`, recovery-snapshot coverage).
//!
//! The driver always builds a **fresh** chain instance: pass 2 invokes
//! update handlers statically, and a handler is allowed to mutate its NF's
//! state (Maglev's reroute does), so linting must never run against a chain
//! about to process traffic.

use speedybox_mat::track;
use speedybox_nf::Nf;
use speedybox_platform::chains;
use speedybox_platform::metrics::PathKind;
use speedybox_platform::Chain;
use speedybox_traffic::{Workload, WorkloadConfig};
use speedybox_verify::{
    check_access_log, check_snapshots, verify_flow, EventSpec, NfActions, NfStateSpec, Report,
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
    // Drain stale tracker records so SBX010 findings are attributable to
    // this chain's fast-path packets alone.
    let _ = track::take_violations();

    let names: Vec<String> = nfs.iter().map(|nf| nf.name().to_string()).collect();

    // Pass 6 input, taken before traffic flows: the declaration triple is
    // a property of the NF type, not of accumulated state.
    let state_specs: Vec<NfStateSpec> = nfs
        .iter()
        .map(|nf| NfStateSpec::new(nf.name(), nf.has_flow_state(), nf.snapshot_state().is_some()))
        .collect();

    // Deterministic workload: enough flows to hit every NF code path
    // (suspicious payloads included for Snort-bearing chains), enough
    // packets per flow to exercise the fast path and the access tracker.
    // Flow-closing packets are left out: the chain would tear the flow's
    // rules down, and the passes below read them after the run. They
    // carry no payload, so the access tracker loses nothing.
    let packets = Workload::generate(&WorkloadConfig {
        flows: 12,
        seed: 7,
        suspicious_fraction: 0.25,
        ..WorkloadConfig::default()
    })
    .packets();

    let mut chain = Chain::speedybox(nfs);
    let mut fids = std::collections::BTreeSet::new();
    for packet in packets.into_iter().filter(|p| !p.tcp_flags().closes_flow()) {
        let fid = packet.five_tuple().map(|t| t.fid());
        if chain.process(packet).path == PathKind::Initial {
            fids.extend(fid);
        }
    }
    let sbox = chain.sbox().expect("speedybox enabled");

    let mut report = Report::new(chain_name);
    for fid in fids {
        let nf_actions: Vec<NfActions> = sbox
            .global
            .locals()
            .iter()
            .enumerate()
            .map(|(i, local)| {
                NfActions::new(
                    &names[i],
                    local.rule(fid).map(|r| r.header_actions).unwrap_or_default(),
                )
            })
            .collect();
        let events: Vec<EventSpec> =
            sbox.global.events().events_for(fid).iter().map(EventSpec::from_event).collect();
        let rule = sbox.global.rule(fid);
        report.merge(verify_flow(chain_name, &nf_actions, &events, rule.as_deref()));
    }

    // Close the declared-vs-observed loop: any state function the debug
    // build caught writing the payload under a Read/Ignore declaration.
    report.merge(check_access_log(chain_name, &track::take_violations()));
    // And the recovery contract: declared flow state must be recoverable.
    report.merge(check_snapshots(chain_name, &state_specs));
    report
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
