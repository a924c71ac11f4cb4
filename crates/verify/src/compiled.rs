//! Pass 4 — compiled-program equivalence (SBX011).
//!
//! The fast path executes a [`speedybox_mat::CompiledProgram`] — straight-line
//! masked word writes with incremental checksum patches — lowered from the
//! rule template's [`speedybox_mat::ConsolidatedAction`] and run over the
//! flow's operands. A lowering bug would make the compiled and interpreted
//! paths disagree at runtime, so this pass runs both, each with the flow's
//! operands, over concrete sample packets (TCP and UDP; pre-encapsulated
//! when the rule nets out to a decap) and demands byte-identical output
//! and identical forward/drop verdicts.

use speedybox_mat::{CompiledProgram, ConsolidatedAction, GlobalRule, OpCounter};
use speedybox_packet::{FieldValue, Packet, PacketBuilder};

use crate::diag::{LintCode, Report, Span};

/// Sample packets covering both L4 protocols the lowering special-cases
/// (TCP checksums vs UDP's zero-means-none rule), with enough AH layers
/// pushed for the action's net decaps to succeed.
fn sample_packets(action: &ConsolidatedAction) -> Vec<Packet> {
    let mut samples = vec![
        PacketBuilder::tcp()
            .src("192.168.7.21:4321".parse().unwrap())
            .dst("10.1.2.3:443".parse().unwrap())
            .payload(b"sbx011-probe")
            .build(),
        PacketBuilder::udp()
            .src("192.168.7.21:4321".parse().unwrap())
            .dst("10.1.2.3:53".parse().unwrap())
            .payload(b"sbx011-probe")
            .build(),
    ];
    let decaps = action.net_decaps();
    for pkt in &mut samples {
        for layer in 0..decaps {
            let spi = 0x5b0 + u32::try_from(layer).expect("decap depth fits u32");
            pkt.encap_ah(spi, 0).expect("sample encap");
        }
    }
    samples
}

/// Checks that the rule's compiled program and its interpreted
/// consolidated action agree on every sample packet, each run with the
/// flow's operands; divergences are reported as SBX011 errors.
#[must_use]
pub fn check_compiled(chain: &str, rule: &GlobalRule) -> Report {
    check_template(chain, rule.action(), rule.program(), rule.operands())
}

/// SBX011 over a template's parts: `program` against interpreting
/// `action`, both in template form and both reading `operands`.
#[must_use]
pub fn check_template(
    chain: &str,
    action: &ConsolidatedAction,
    program: &CompiledProgram,
    operands: &[FieldValue],
) -> Report {
    let mut report = Report::new(chain);
    let slot = |value: FieldValue| usize::try_from(value.raw()).expect("operand slot fits usize");
    let bound = action.clone().map_values(|value| operands[slot(value)]);
    for (i, sample) in sample_packets(action).into_iter().enumerate() {
        let mut interpreted = sample.clone();
        let mut compiled = sample;
        let mut iops = OpCounter::default();
        let mut cops = OpCounter::default();
        let ires = bound.apply(&mut interpreted, &mut iops);
        let cres = program.run(operands, &mut compiled, &mut cops);
        match (ires, cres) {
            (Ok(isurv), Ok(csurv)) if isurv != csurv => report.push(
                LintCode::CompiledDivergence,
                Span::chain(),
                format!(
                    "sample packet {i}: interpreted verdict {} but compiled verdict {}",
                    verdict(isurv),
                    verdict(csurv)
                ),
            ),
            (Ok(true), Ok(true)) if interpreted.as_bytes() != compiled.as_bytes() => report.push(
                LintCode::CompiledDivergence,
                Span::chain(),
                format!(
                    "sample packet {i}: compiled output differs from interpreted at byte {}",
                    first_diff(interpreted.as_bytes(), compiled.as_bytes())
                ),
            ),
            (Ok(_), Err(e)) => report.push(
                LintCode::CompiledDivergence,
                Span::chain(),
                format!("sample packet {i}: interpreted succeeded but compiled failed: {e}"),
            ),
            (Err(e), Ok(_)) => report.push(
                LintCode::CompiledDivergence,
                Span::chain(),
                format!("sample packet {i}: compiled succeeded but interpreted failed: {e}"),
            ),
            // Both succeeded and agreed, or both failed (same verdict on a
            // packet neither path can process).
            _ => {}
        }
    }
    report
}

fn verdict(survived: bool) -> &'static str {
    if survived {
        "forward"
    } else {
        "drop"
    }
}

fn first_diff(a: &[u8], b: &[u8]) -> usize {
    a.iter().zip(b).position(|(x, y)| x != y).unwrap_or_else(|| a.len().min(b.len()))
}

#[cfg(test)]
mod tests {
    use speedybox_mat::{consolidate, EncapSpec, HeaderAction};
    use speedybox_packet::HeaderField;

    use super::*;

    fn rule_of(actions: &[HeaderAction]) -> GlobalRule {
        GlobalRule::new(consolidate(actions), vec![], vec![])
    }

    #[test]
    fn sound_rules_pass() {
        for actions in [
            vec![HeaderAction::Forward],
            vec![HeaderAction::modify(HeaderField::DstIp, std::net::Ipv4Addr::new(10, 0, 0, 9))],
            vec![HeaderAction::modify(HeaderField::SrcPort, 9999u16), HeaderAction::Drop],
            vec![HeaderAction::Encap(EncapSpec::new(7))],
            vec![HeaderAction::Decap(EncapSpec::new(7))],
        ] {
            let report = check_compiled("t", &rule_of(&actions));
            assert!(report.diagnostics.is_empty(), "{:?}\n{}", actions, report.render_text());
        }
    }

    #[test]
    fn corrupted_program_is_flagged() {
        let rule = rule_of(&[HeaderAction::modify(HeaderField::DstPort, 8080u16)]);
        // Sabotage the compiled side: swap in the program for a different
        // consolidated action, which writes its operand to another field.
        let other = rule_of(&[HeaderAction::modify(HeaderField::SrcPort, 9999u16)]);
        let report = check_template("t", rule.action(), other.program(), rule.operands());
        assert!(report.has_code(LintCode::CompiledDivergence), "{}", report.render_text());
        assert!(report.has_errors());
    }

    #[test]
    fn verdict_divergence_is_flagged() {
        let rule = rule_of(&[HeaderAction::Drop]);
        let empty = CompiledProgram::default();
        let report = check_template("t", rule.action(), &empty, rule.operands());
        assert!(report.has_code(LintCode::CompiledDivergence), "{}", report.render_text());
    }
}
