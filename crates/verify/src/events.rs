//! Pass 2: event-rewrite safety.
//!
//! An Event Table entry is a `(condition, update)` pair; when the condition
//! fires, the update's [`RulePatch`](speedybox_mat::RulePatch) replaces the
//! owning NF's per-flow rule and the chain re-consolidates (paper Fig 3).
//! The rewritten rule is installed at runtime with no human in the loop, so
//! this pass checks it *before* any condition ever fires: each registered
//! patch is spliced into the chain's recorded actions and the full
//! consolidation-soundness pass (pass 1) plus the Table I schedule check
//! rerun on the result. Error findings in the spliced chain surface as
//! `SBX007`, naming the event.
//!
//! The rewrite only happens if the NF raises the event's signal when the
//! condition's inputs change. [`check_raise_log`] renders the debug-build
//! tracker's missed raises ([`MissedRaise`]) as `SBX014`.

use speedybox_mat::state_fn::PayloadAccess;
use speedybox_mat::track::MissedRaise;
use speedybox_mat::Event;

use crate::diag::{LintCode, Report, Severity, Span};
use crate::schedule::check_schedule;
use crate::symbolic::{check_consolidation, NfActions};

/// A registered event reduced to what the verifier needs: whose rule it
/// patches and what the patch installs. Built from a live
/// [`Event`] with [`EventSpec::from_event`] (the update handler is invoked
/// statically to compute the patch).
#[derive(Debug, Clone)]
pub struct EventSpec {
    /// Chain position of the NF whose rule the patch replaces.
    pub nf: usize,
    /// The event's diagnostic name.
    pub name: String,
    /// Replacement header actions, if the patch sets any.
    pub patch_actions: Option<Vec<speedybox_mat::HeaderAction>>,
    /// Declared payload accesses of the replacement state functions, if the
    /// patch sets any.
    pub patch_accesses: Option<Vec<PayloadAccess>>,
}

impl EventSpec {
    /// Reduces a live event by statically invoking its update handler.
    ///
    /// The handler runs against whatever NF state exists at verification
    /// time — the same closure the runtime would call at trigger time — so
    /// the computed patch is the rule the rewrite would install *now*.
    #[must_use]
    pub fn from_event(event: &Event) -> Self {
        let patch = event.compute_patch();
        EventSpec {
            nf: event.nf.index(),
            name: event.name.to_string(),
            patch_actions: patch.header_actions,
            patch_accesses: patch
                .state_functions
                .map(|funcs| funcs.iter().map(speedybox_mat::StateFunction::access).collect()),
        }
    }
}

/// Checks every event's rewritten rule: header-action patches are spliced
/// into `nfs` and re-verified with pass 1; state-function patches are
/// spliced into `accesses` (the chain's per-NF batch accesses, by NF
/// position) and the regenerated wavefront schedule re-verified with
/// pass 3. Inner Error findings become SBX007.
#[must_use]
pub fn check_event_rewrites(
    chain: &str,
    nfs: &[NfActions],
    accesses: &[(usize, PayloadAccess)],
    events: &[EventSpec],
) -> Report {
    let mut report = Report::new(chain);
    for event in events {
        if event.nf >= nfs.len() {
            report.push(
                LintCode::EventRewriteUnsound,
                Span::chain(),
                format!(
                    "event `{}` patches nf{} but the chain has only {} NFs",
                    event.name,
                    event.nf,
                    nfs.len()
                ),
            );
            continue;
        }

        if let Some(patch_actions) = &event.patch_actions {
            let mut spliced = nfs.to_vec();
            spliced[event.nf].actions = patch_actions.clone();
            let inner = check_consolidation(chain, &spliced);
            wrap_errors(&mut report, event, &inner, "rewritten rule");
        }

        if let Some(patch_accesses) = &event.patch_accesses {
            // Rebuild the chain's batch-access vector with the patched NF's
            // batch replaced by the patch's effective (max-priority) access,
            // then re-derive and re-verify the wavefront schedule the
            // runtime would precompute at re-install.
            let patched_batch =
                patch_accesses.iter().copied().max().unwrap_or(PayloadAccess::Ignore);
            let mut seen = false;
            let mut rewritten: Vec<PayloadAccess> = Vec::with_capacity(accesses.len() + 1);
            for &(nf, access) in accesses {
                if nf == event.nf {
                    seen = true;
                    if !patch_accesses.is_empty() {
                        rewritten.push(patched_batch);
                    }
                } else {
                    rewritten.push(access);
                }
            }
            if !seen && !patch_accesses.is_empty() {
                // The NF had no batch before the rewrite; it gains one at
                // its chain position.
                let mut with_new: Vec<(usize, PayloadAccess)> = accesses.to_vec();
                with_new.push((event.nf, patched_batch));
                with_new.sort_by_key(|&(nf, _)| nf);
                rewritten = with_new.into_iter().map(|(_, a)| a).collect();
            }
            let waves = speedybox_mat::parallel::schedule_batches(&rewritten);
            let inner = check_schedule(chain, &rewritten, &waves);
            wrap_errors(&mut report, event, &inner, "rewritten schedule");
        }
    }
    report
}

/// Surfaces the spliced chain's Error findings as SBX007, naming the event.
fn wrap_errors(report: &mut Report, event: &EventSpec, inner: &Report, what: &str) {
    for d in &inner.diagnostics {
        if d.severity == Severity::Error {
            report.push(
                LintCode::EventRewriteUnsound,
                d.span.clone(),
                format!(
                    "event `{}` (nf{}) installs a {what} that fails verification: \
                     {}[{}] {}",
                    event.name, event.nf, d.severity, d.code, d.message
                ),
            );
        }
    }
}

/// Renders missed-raise tracker findings as SBX014 errors: an event whose
/// condition held with no raise is never re-checked, so its rewrite never
/// reaches the fast path.
#[must_use]
pub fn check_raise_log(chain: &str, missed: &[MissedRaise]) -> Report {
    let mut report = Report::new(chain);
    for m in missed {
        report.push(
            LintCode::MissedRaise,
            Span::chain(),
            format!(
                "event `{}` found its condition holding on {} fast-path check(s) although its \
                 NF never raised the event's signal; the fast path keeps serving the rule the \
                 event should rewrite",
                m.event, m.count
            ),
        );
    }
    report
}

#[cfg(test)]
mod tests {
    use speedybox_mat::{HeaderAction, RulePatch};
    use speedybox_packet::HeaderField;
    use PayloadAccess::{Ignore, Read};

    use super::*;

    fn base_chain() -> Vec<NfActions> {
        vec![
            NfActions::new("guard", vec![HeaderAction::modify(HeaderField::DstPort, 8080u16)]),
            NfActions::new("mon", vec![HeaderAction::Forward]),
        ]
    }

    #[test]
    fn sound_rewrite_passes() {
        let events = [EventSpec {
            nf: 0,
            name: "dos-threshold".into(),
            patch_actions: Some(vec![HeaderAction::Drop]),
            patch_accesses: None,
        }];
        let report = check_event_rewrites("c", &base_chain(), &[], &events);
        assert!(report.diagnostics.is_empty(), "{}", report.render_text());
    }

    #[test]
    fn rewrite_installing_dead_actions_is_unsound() {
        // Patching nf0 to drop is fine on its own; patching it to drop when
        // a later NF still records a modify makes that modify dead.
        let mut nfs = base_chain();
        nfs[1].actions =
            vec![HeaderAction::modify(HeaderField::DstIp, std::net::Ipv4Addr::new(10, 0, 0, 1))];
        let events = [EventSpec {
            nf: 0,
            name: "flip-to-drop".into(),
            patch_actions: Some(vec![HeaderAction::Drop]),
            patch_accesses: None,
        }];
        let report = check_event_rewrites("c", &nfs, &[], &events);
        assert!(report.has_code(LintCode::EventRewriteUnsound), "{}", report.render_text());
        assert!(report.has_errors());
        assert!(report.diagnostics[0].message.contains("flip-to-drop"));
        assert!(report.diagnostics[0].message.contains("SBX001"));
    }

    #[test]
    fn rewrite_warnings_do_not_become_errors() {
        // An arrival-decap patch is only a Warn (SBX003) — it must not be
        // escalated to SBX007.
        let events = [EventSpec {
            nf: 0,
            name: "tunnel-egress".into(),
            patch_actions: Some(vec![HeaderAction::Decap(speedybox_mat::EncapSpec::new(5))]),
            patch_accesses: None,
        }];
        let report = check_event_rewrites("c", &base_chain(), &[], &events);
        assert!(report.diagnostics.is_empty(), "{}", report.render_text());
    }

    #[test]
    fn out_of_range_nf_is_unsound() {
        let events = [EventSpec {
            nf: 9,
            name: "ghost".into(),
            patch_actions: Some(vec![HeaderAction::Drop]),
            patch_accesses: None,
        }];
        let report = check_event_rewrites("c", &base_chain(), &[], &events);
        assert!(report.has_code(LintCode::EventRewriteUnsound));
    }

    #[test]
    fn state_function_patch_reverifies_schedule() {
        // Patching nf0's batch from Ignore to Read keeps the regenerated
        // schedule sound — schedule_batches is correct by construction, so
        // a clean result is expected.
        let events = [EventSpec {
            nf: 0,
            name: "enable-dpi".into(),
            patch_actions: None,
            patch_accesses: Some(vec![Read, Ignore]),
        }];
        let report = check_event_rewrites("c", &base_chain(), &[(0, Ignore), (1, Read)], &events);
        assert!(report.diagnostics.is_empty(), "{}", report.render_text());
    }

    #[test]
    fn from_event_invokes_update_statically() {
        use speedybox_mat::{NfId, Signal};
        use speedybox_packet::Fid;

        let event = Event::new(
            Fid::new(3),
            NfId::new(1),
            "threshold",
            Signal::new(),
            |_| false,
            |_| RulePatch::set_action(HeaderAction::Drop),
        );
        let spec = EventSpec::from_event(&event);
        assert_eq!(spec.nf, 1);
        assert_eq!(spec.name, "threshold");
        assert_eq!(spec.patch_actions, Some(vec![HeaderAction::Drop]));
        assert!(spec.patch_accesses.is_none());
    }
}
