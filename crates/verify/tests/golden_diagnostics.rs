//! Golden-diagnostic tests: each known-bad chain shape must produce
//! exactly its SBX code — no more, no less — so lint output is stable
//! enough to gate CI on.

use speedybox_mat::action::{EncapSpec, HeaderAction};
use speedybox_mat::state_fn::PayloadAccess;
use speedybox_mat::track::{AccessViolation, MissedRaise};
use speedybox_packet::HeaderField;
use speedybox_verify::{
    check_access_log, check_consolidation, check_event_rewrites, check_raise_log, check_schedule,
    EventSpec, LintCode, NfActions, Severity,
};

/// Asserts a report holds exactly `expected` codes (order-insensitive).
fn assert_codes(report: &speedybox_verify::Report, expected: &[LintCode]) {
    let mut got = report.codes();
    let mut want = expected.to_vec();
    got.sort_by_key(|c| c.code());
    want.sort_by_key(|c| c.code());
    assert_eq!(got, want, "codes diverge:\n{}", report.render_text());
}

#[test]
fn drop_then_modify_is_sbx001() {
    let nfs = [
        NfActions::new("fw", vec![HeaderAction::Drop]),
        NfActions::new("nat", vec![HeaderAction::modify(HeaderField::DstPort, 8080u16)]),
    ];
    let report = check_consolidation("drop-then-modify", &nfs);
    assert_codes(&report, &[LintCode::DeadActionAfterDrop]);
    assert_eq!(report.diagnostics[0].severity, Severity::Error);
    let text = report.render_text();
    assert!(text.contains("error[SBX001]"), "{text}");
    assert!(text.contains("nf1 (nat) action 0"), "{text}");
}

#[test]
fn mismatched_tunnel_egress_is_sbx002() {
    let nfs = [
        NfActions::new("ingress", vec![HeaderAction::Encap(EncapSpec::new(0x1001))]),
        NfActions::new("egress", vec![HeaderAction::Decap(EncapSpec::new(0x2002))]),
    ];
    let report = check_consolidation("mismatched-tunnel", &nfs);
    assert_codes(&report, &[LintCode::DecapSpecMismatch]);
    assert!(report.has_errors());
    assert!(report.render_text().contains("error[SBX002]"), "{}", report.render_text());
}

#[test]
fn unbalanced_decap_is_sbx003_warn_only() {
    let nfs = [NfActions::new("egress", vec![HeaderAction::Decap(EncapSpec::new(0x1001))])];
    let report = check_consolidation("unbalanced-decap", &nfs);
    assert_codes(&report, &[LintCode::DecapUnderflow]);
    assert!(!report.has_errors(), "arrival decap is a warning, not an error");
    assert!(report.render_text().contains("warning[SBX003]"), "{}", report.render_text());
}

#[test]
fn cross_nf_conflicting_modify_is_sbx004() {
    let nfs = [
        NfActions::new("lb-a", vec![HeaderAction::modify(HeaderField::DstPort, 8080u16)]),
        NfActions::new("lb-b", vec![HeaderAction::modify(HeaderField::DstPort, 9090u16)]),
    ];
    let report = check_consolidation("conflicting-modify", &nfs);
    assert_codes(&report, &[LintCode::ConflictingModify]);
    assert!(!report.has_errors(), "latter-wins is well-defined; this is a warning");
}

#[test]
fn early_trailing_write_is_sbx005() {
    let nfs = [
        NfActions::new("shaper", vec![HeaderAction::modify(HeaderField::Ttl, 32u8)]),
        NfActions::new("tunnel", vec![HeaderAction::Encap(EncapSpec::new(9))]),
    ];
    let report = check_consolidation("early-trailing", &nfs);
    assert_codes(&report, &[LintCode::EarlyTrailingWrite]);
    assert!(!report.has_errors());
}

#[test]
fn event_installing_dead_action_is_sbx007() {
    let nfs = [
        NfActions::new("guard", vec![HeaderAction::Forward]),
        NfActions::new("nat", vec![HeaderAction::modify(HeaderField::DstPort, 80u16)]),
    ];
    let events = [EventSpec {
        nf: 0,
        name: "flip-to-drop".into(),
        patch_actions: Some(vec![HeaderAction::Drop]),
        patch_accesses: None,
    }];
    let report = check_event_rewrites("unsound-rewrite", &nfs, &[], &events);
    assert_codes(&report, &[LintCode::EventRewriteUnsound]);
    let text = report.render_text();
    assert!(text.contains("error[SBX007]"), "{text}");
    assert!(text.contains("flip-to-drop"), "{text}");
    assert!(text.contains("SBX001"), "inner code must be named: {text}");
}

#[test]
fn write_write_wave_is_sbx008() {
    let report =
        check_schedule("write-write", &[PayloadAccess::Write, PayloadAccess::Write], &[vec![0, 1]]);
    assert_codes(&report, &[LintCode::ScheduleConflict]);
    let text = report.render_text();
    assert!(text.contains("error[SBX008]"), "{text}");
    assert!(text.contains("WRITE x WRITE"), "{text}");
}

#[test]
fn reordered_schedule_is_sbx009() {
    let report = check_schedule(
        "reordered",
        &[PayloadAccess::Ignore, PayloadAccess::Ignore],
        &[vec![1], vec![0]],
    );
    assert_codes(&report, &[LintCode::ScheduleOrder]);
    assert!(report.render_text().contains("error[SBX009]"), "{}", report.render_text());
}

#[test]
fn lying_payload_access_is_sbx010() {
    let violations = [AccessViolation {
        function: "stealth-scrubber".into(),
        declared: PayloadAccess::Read,
        observed: PayloadAccess::Write,
        count: 4,
    }];
    let report = check_access_log("liar", &violations);
    assert_codes(&report, &[LintCode::AccessViolation]);
    let text = report.render_text();
    assert!(text.contains("error[SBX010]"), "{text}");
    assert!(text.contains("`stealth-scrubber`"), "{text}");
}

#[test]
fn condition_holding_without_a_raise_is_sbx014() {
    let missed = [MissedRaise { event: "quota.exhausted".into(), count: 3 }];
    let report = check_raise_log("silent-nf", &missed);
    assert_codes(&report, &[LintCode::MissedRaise]);
    assert_eq!(report.diagnostics[0].severity, Severity::Error);
    assert_eq!(
        report.render_text(),
        "silent-nf: error[SBX014]: event `quota.exhausted` found its condition holding on 3 \
         fast-path check(s) although its NF never raised the event's signal; the fast path \
         keeps serving the rule the event should rewrite\n  --> chain\n\
         silent-nf: 1 error(s), 0 warning(s)\n"
    );
    assert!(check_raise_log("clean", &[]).diagnostics.is_empty());
}

#[test]
fn clean_chain_has_no_codes() {
    let nfs = [
        NfActions::new("nat", vec![HeaderAction::modify(HeaderField::SrcPort, 40001u16)]),
        NfActions::new("tunnel-in", vec![HeaderAction::Encap(EncapSpec::new(7))]),
        NfActions::new("tunnel-out", vec![HeaderAction::Decap(EncapSpec::new(7))]),
        NfActions::new("fw", vec![HeaderAction::Forward]),
    ];
    let report = check_consolidation("clean", &nfs);
    assert_codes(&report, &[]);
}
