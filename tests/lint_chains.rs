//! Acceptance gate for the static verifier: every registry chain must lint
//! with zero Error-level diagnostics. CI runs this test; a chain change
//! that introduces an Error finding fails the build.
//!
//! All chains are linted inside ONE test function: the payload-access
//! tracker behind `SBX010` is process-global, and serializing the lints
//! keeps each chain's findings attributable.

use speedybox::lint::{build_chain, flow_inputs, lint_chain, record_flows, LINT_ALL};
use speedybox::mat::{consolidate, HeaderAction};

#[test]
fn all_registry_chains_lint_clean() {
    for name in LINT_ALL {
        let report = lint_chain(name).unwrap_or_else(|e| panic!("lint {name}: {e}"));
        assert!(
            !report.has_errors(),
            "chain {name} has Error-level findings:\n{}",
            report.render_text()
        );
        // Parameterized sizes beyond the registry defaults stay clean too.
        if name.starts_with("ipfilter") || name.starts_with("synthetic") {
            let bigger = name.replace(":3", ":6");
            let report = lint_chain(&bigger).unwrap();
            assert!(!report.has_errors(), "{bigger}:\n{}", report.render_text());
        }
    }
}

#[test]
fn lint_reports_render_both_formats() {
    let report = lint_chain("vpn-tunnel").unwrap();
    let text = report.render_text();
    assert!(text.contains("vpn-tunnel:"), "{text}");
    assert!(text.ends_with('\n'), "text rendering must be newline-terminated");
    let json = report.to_json();
    assert!(json.contains("\"chain\":\"vpn-tunnel\""), "{json}");
    assert!(json.contains("\"diagnostics\":["), "{json}");
}

/// Lint verifies what it reads: each flow's recordings and armed events,
/// taken from the flow's record. An empty read would verify nothing and
/// still report clean, so pin the inputs themselves on chain1, where every
/// NF records a header action and Maglev arms its reroute event.
#[test]
fn lint_reads_what_the_walk_recorded() {
    let nfs = build_chain("chain1").unwrap();
    let names: Vec<String> = nfs.iter().map(|nf| nf.name().to_string()).collect();
    let (chain, fids) = record_flows(nfs);
    let sbox = chain.sbox().expect("speedybox enabled");
    assert!(!fids.is_empty(), "lint's workload records flows");
    for fid in fids {
        let flow = flow_inputs(sbox, &names, fid);
        let rule = flow.rule.as_ref().expect("the flow's rule is installed");
        assert_eq!(flow.nf_actions.len(), names.len());
        for nf in &flow.nf_actions {
            assert!(!nf.actions.is_empty(), "{fid}: {} recorded no header action", nf.name);
        }
        let recorded: Vec<HeaderAction> =
            flow.nf_actions.iter().flat_map(|nf| nf.actions.iter().cloned()).collect();
        assert_eq!(
            consolidate(&recorded),
            rule.consolidated(),
            "{fid}: recordings and rule disagree"
        );
        assert!(
            flow.events.iter().any(|event| event.name == "maglev.reroute"),
            "{fid}: Maglev's reroute event is not armed"
        );
    }
}
