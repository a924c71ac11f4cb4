//! `speedybox-verify`: static chain verifier and lint passes.
//!
//! SpeedyBox's fast path executes a *derived* artifact — the consolidated
//! Global-MAT rule — instead of the NFs themselves, so a consolidation bug,
//! an unsound Event-Table rewrite or a lying `PayloadAccess` declaration
//! silently changes packet processing. This crate proves the derivations
//! sound before (and, for access declarations, while) traffic flows:
//!
//! * **Pass 1 — consolidation soundness** ([`symbolic`]): a symbolic
//!   abstract interpreter applies the chain's recorded header actions
//!   sequentially and proves `consolidate()`'s one-shot output equivalent,
//!   flagging dead actions after a drop, unbalanced or mismatched
//!   encap/decap, conflicting modifies and early trailing-field writes.
//! * **Pass 2 — event-rewrite safety** ([`events`]): every Event Table
//!   `(condition, update)` pair is checked by splicing the update's patch
//!   into the chain and re-running pass 1 (and the schedule check), before
//!   any condition ever fires; the debug-build missed-raise tracker's
//!   findings are rendered as diagnostics (SBX014).
//! * **Pass 3 — schedule safety** ([`schedule`]): the precomputed wavefront
//!   schedule is validated against the paper's Table I conflict matrix and
//!   must be an order-preserving partition; the debug-build payload-access
//!   tracker's findings are rendered as diagnostics.
//! * **Pass 4 — compiled equivalence** ([`compiled`]): the rule's compiled
//!   micro-op program is executed next to the interpreted consolidated
//!   action on concrete sample packets and must match byte-for-byte
//!   (SBX011).
//! * **Pass 5 — micro-op bounds proof** ([`bounds`]): every compiled write
//!   window is proven in-frame by exhaustive enumeration of the admissible
//!   header geometries — VLAN tagging, IPv4/TCP options, AH depth, minimal
//!   payloads (SBX012).
//! * **Pass 6 — recovery-snapshot coverage** ([`snapshots`]): every NF
//!   that declares per-flow state must produce a state snapshot, or crash
//!   recovery silently loses its history (SBX013).
//!
//! Findings carry stable `SBX0xx` codes ([`diag::LintCode`]) with fixed
//! severities; `speedybox lint <chain>` renders them as text or JSON and
//! `speedybox run --verify` refuses chains with Error findings. See
//! DESIGN.md §7 for the full lint-code table.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod bounds;
pub mod compiled;
pub mod diag;
pub mod events;
pub mod schedule;
pub mod snapshots;
pub mod symbolic;

pub use bounds::{check_bounds, check_program_bounds};
pub use compiled::{check_compiled, check_template};
pub use diag::{Diagnostic, LintCode, Report, Severity, Span};
pub use events::{check_event_rewrites, check_raise_log, EventSpec};
pub use schedule::{check_access_log, check_rule_schedule, check_schedule};
pub use snapshots::{check_snapshots, NfStateSpec};
pub use symbolic::{check_consolidation, interpret, NfActions, SymbolicState};

/// Runs every applicable pass over one flow's recorded rule: pass 1 on the
/// per-NF actions, pass 2 on the registered events, pass 3 on the
/// installed rule's schedule. The pieces are also callable individually.
#[must_use]
pub fn verify_flow(
    chain: &str,
    nfs: &[NfActions],
    events: &[EventSpec],
    rule: Option<&speedybox_mat::GlobalRule>,
) -> Report {
    let mut report = check_consolidation(chain, nfs);
    let accesses: Vec<(usize, speedybox_mat::PayloadAccess)> = rule
        .map(|r| r.batches.iter().map(|b| (b.nf.index(), b.access())).collect())
        .unwrap_or_default();
    report.merge(check_event_rewrites(chain, nfs, &accesses, events));
    if let Some(rule) = rule {
        report.merge(check_rule_schedule(chain, rule));
        report.merge(check_compiled(chain, rule));
        report.merge(check_bounds(chain, rule));
    }
    report
}

#[cfg(test)]
mod tests {
    use speedybox_mat::{consolidate, HeaderAction};
    use speedybox_packet::HeaderField;

    use super::*;

    #[test]
    fn verify_flow_composes_all_passes() {
        let nfs = [
            NfActions::new("fw", vec![HeaderAction::Drop]),
            NfActions::new("nat", vec![HeaderAction::modify(HeaderField::DstPort, 80u16)]),
        ];
        let flat: Vec<HeaderAction> =
            nfs.iter().flat_map(|nf| nf.actions.iter().cloned()).collect();
        let rule = speedybox_mat::GlobalRule::new(consolidate(&flat), vec![], vec![]);
        let report = verify_flow("composite", &nfs, &[], Some(&rule));
        assert!(report.has_code(LintCode::DeadActionAfterDrop));
        assert!(report.has_errors());
    }

    #[test]
    fn clean_flow_produces_empty_report() {
        let nfs = [NfActions::new("nat", vec![HeaderAction::modify(HeaderField::DstPort, 80u16)])];
        let flat: Vec<HeaderAction> =
            nfs.iter().flat_map(|nf| nf.actions.iter().cloned()).collect();
        let rule = speedybox_mat::GlobalRule::new(consolidate(&flat), vec![], vec![]);
        let report = verify_flow("clean", &nfs, &[], Some(&rule));
        assert!(report.diagnostics.is_empty(), "{}", report.render_text());
    }
}
