//! Pass 5 — micro-op bounds proof (SBX012).
//!
//! A [`MicroOp::WriteWord`] rewrites an 8-byte window at an anchor-relative
//! offset resolved per packet, so whether the window stays inside the frame
//! depends on the packet's header geometry: VLAN tag or not, IPv4 options,
//! TCP options, how many AH layers arrived, and how short the payload is.
//! SBX011 samples two concrete packets; a window that escapes only on, say,
//! a minimal UDP frame behind a VLAN tag would slip through sampling.
//!
//! This pass instead *enumerates the whole admissible geometry domain* —
//! every combination the packet substrate can parse:
//!
//! * VLAN tag: absent or one 802.1Q tag (4 bytes),
//! * IPv4 header: 20..=60 bytes in 4-byte option steps,
//! * L4 header: UDP (8 bytes) or TCP with 20..=60-byte header,
//! * arrival AH depth: 0..=[`MAX_AH_DEPTH`] layers,
//! * payload: zero bytes (the worst case — a window in bounds on the empty
//!   payload is in bounds on every longer frame),
//!
//! and symbolically executes the program over each geometry, mirroring
//! [`CompiledProgram::run`]'s semantics exactly: encaps/decaps move the L4
//! anchor and frame end, `Drop` and a failing decap halt the program, and
//! the anchor table is frozen at the first `WriteWord` (as `run` caches
//! [`Packet::layout`](speedybox_packet::Packet::layout)). Any window that
//! can cross the frame end on any geometry is an SBX012 error naming the
//! op, the window, and the offending geometry. The domain is finite (2 x
//! 11 x 12 x 6 = 1584 geometries), so a clean report is an exhaustive
//! proof, not a statistical claim.

use std::fmt;

use speedybox_mat::{CompiledProgram, GlobalRule, MicroOp};
use speedybox_packet::headers::{AH_LEN, ETHERNET_LEN};

use crate::diag::{LintCode, Report, Span};

/// Deepest AH nesting the proof considers. Matches the headroom budget:
/// [`speedybox_packet::HEADROOM`] (128 bytes) admits five 24-byte layers.
pub const MAX_AH_DEPTH: usize = 5;

/// One point of the header-geometry domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Geometry {
    /// Bytes of 802.1Q tagging after the Ethernet header (0 or 4).
    pub vlan: usize,
    /// IPv4 header length including options (20..=60, step 4).
    pub ip_hdr: usize,
    /// Innermost L4 header length (UDP 8, or TCP 20..=60 step 4).
    pub l4_hdr: usize,
    /// AH layers present when the packet arrives.
    pub ah_depth: usize,
}

impl fmt::Display for Geometry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "vlan={} ip_hdr={} l4_hdr={} ah_depth={}",
            self.vlan, self.ip_hdr, self.l4_hdr, self.ah_depth
        )
    }
}

/// Every admissible geometry, worst-case (zero-payload) frames only.
fn geometries() -> impl Iterator<Item = Geometry> {
    [0usize, 4].into_iter().flat_map(|vlan| {
        (20..=60).step_by(4).flat_map(move |ip_hdr| {
            std::iter::once(8).chain((20..=60).step_by(4)).flat_map(move |l4_hdr| {
                (0..=MAX_AH_DEPTH).map(move |ah_depth| Geometry { vlan, ip_hdr, l4_hdr, ah_depth })
            })
        })
    })
}

/// Symbolically executes `program` over one geometry; returns the first
/// out-of-bounds window as `(op index, window end, frame len)`.
fn check_geometry(program: &CompiledProgram, g: Geometry) -> Option<(usize, usize, usize)> {
    let l3 = ETHERNET_LEN + g.vlan;
    let mut depth = g.ah_depth;
    // `run` resolves the anchor table once, at the first WriteWord; an
    // encap/decap after that point moves bytes but not the cached anchors,
    // and the proof must judge the program `run` actually executes.
    let mut frozen: Option<(usize, usize)> = None; // (l3, l4) at first write
    for (i, op) in program.ops().iter().enumerate() {
        match op {
            MicroOp::Drop => return None,
            MicroOp::PopDecap => {
                if depth == 0 {
                    // decap_ah errors and run() propagates it before any
                    // later op executes: no write can go out of bounds.
                    return None;
                }
                depth -= 1;
            }
            MicroOp::PushEncap { .. } => depth += 1,
            MicroOp::WriteWord { anchor, offset, .. } => {
                let (l3a, l4a) = *frozen.get_or_insert((l3, l3 + g.ip_hdr + depth * AH_LEN));
                let base = match anchor {
                    speedybox_mat::Anchor::Frame => 0,
                    speedybox_mat::Anchor::L3 => l3a,
                    speedybox_mat::Anchor::L4 => l4a,
                };
                let end = base + offset + 8;
                let frame_len = l3 + g.ip_hdr + depth * AH_LEN + g.l4_hdr;
                if end > frame_len {
                    return Some((i, end, frame_len));
                }
            }
            // Checksum fields sit inside the (parsed) IPv4 and L4 headers,
            // which every admissible geometry contains in full.
            MicroOp::AdjustTrailing { .. } => {}
        }
    }
    None
}

/// Proves every write window of `program` in-bounds over the whole
/// geometry domain. Each offending op is reported once, with the first
/// geometry that breaks it.
#[must_use]
pub fn check_program_bounds(chain: &str, program: &CompiledProgram) -> Report {
    let mut report = Report::new(chain);
    let mut flagged: Vec<usize> = Vec::new();
    for g in geometries() {
        if let Some((op, end, frame_len)) = check_geometry(program, g) {
            if !flagged.contains(&op) {
                flagged.push(op);
                report.push(
                    LintCode::MicroOpOutOfBounds,
                    Span::chain(),
                    format!(
                        "micro-op {op} ({:?}) writes bytes ..{end} of a {frame_len}-byte \
                         frame on geometry [{g}]",
                        program.ops()[op]
                    ),
                );
            }
        }
    }
    report
}

/// SBX012 over a rule template's compiled program (the windows depend on
/// the shape alone, not on the flow's operands).
#[must_use]
pub fn check_bounds(chain: &str, rule: &GlobalRule) -> Report {
    check_program_bounds(chain, rule.program())
}

#[cfg(test)]
mod tests {
    use std::net::Ipv4Addr;

    use speedybox_mat::{compile, consolidate, Anchor, EncapSpec, HeaderAction};
    use speedybox_packet::HeaderField;

    use super::*;

    #[test]
    fn domain_is_the_documented_size() {
        assert_eq!(geometries().count(), 2 * 11 * 12 * (MAX_AH_DEPTH + 1));
    }

    #[test]
    fn every_lowerable_field_is_in_bounds_everywhere() {
        // The claim in `lower_field`'s doc comment, proven exhaustively.
        let values: [(HeaderField, speedybox_packet::FieldValue); 8] = [
            (HeaderField::SrcMac, [2u8, 0, 0, 0, 0, 1].into()),
            (HeaderField::DstMac, [2u8, 0, 0, 0, 0, 2].into()),
            (HeaderField::SrcIp, Ipv4Addr::new(10, 0, 0, 1).into()),
            (HeaderField::DstIp, Ipv4Addr::new(10, 0, 0, 2).into()),
            (HeaderField::SrcPort, 1u16.into()),
            (HeaderField::DstPort, 65535u16.into()),
            (HeaderField::Ttl, 1u8.into()),
            (HeaderField::Tos, 0xffu8.into()),
        ];
        for (field, value) in values {
            let program = compile(&consolidate(&[HeaderAction::Modify(vec![(field, value)])]));
            let report = check_program_bounds("t", &program);
            assert!(report.diagnostics.is_empty(), "{field:?}: {}", report.render_text());
        }
    }

    #[test]
    fn composite_rules_with_encap_decap_are_in_bounds() {
        for actions in [
            vec![
                HeaderAction::Decap(EncapSpec::new(7)),
                HeaderAction::Encap(EncapSpec::new(8)),
                HeaderAction::modify(HeaderField::DstPort, 80u16),
            ],
            vec![
                HeaderAction::Encap(EncapSpec::new(1)),
                HeaderAction::modify(HeaderField::SrcIp, Ipv4Addr::new(10, 1, 1, 1)),
                HeaderAction::modify(HeaderField::Ttl, 9u8),
            ],
            vec![HeaderAction::Drop],
            vec![HeaderAction::Forward],
        ] {
            let program = compile(&consolidate(&actions));
            let report = check_program_bounds("t", &program);
            assert!(report.diagnostics.is_empty(), "{actions:?}: {}", report.render_text());
        }
    }

    #[test]
    fn synthetic_escape_is_caught_with_its_geometry() {
        // A 10-byte-offset L4 write escapes a minimal UDP frame (l4_hdr=8)
        // but is fine on any TCP geometry — exactly the window sampling
        // can miss.
        let program = CompiledProgram::from_ops(vec![speedybox_mat::MicroOp::WriteWord {
            anchor: Anchor::L4,
            offset: 10,
            mask: 0xFFFF_0000_0000_0000,
            shift: 0,
            slot: 0,
            ip_csum: false,
            l4_csum: true,
        }]);
        let report = check_program_bounds("t", &program);
        assert!(report.has_code(LintCode::MicroOpOutOfBounds), "{}", report.render_text());
        assert!(report.has_errors());
        let msg = &report.diagnostics[0].message;
        assert!(msg.contains("l4_hdr=8"), "{msg}");
        assert!(msg.contains("micro-op 0"), "{msg}");
    }

    #[test]
    fn escape_behind_a_drop_or_failing_decap_is_unreachable() {
        let oob = speedybox_mat::MicroOp::WriteWord {
            anchor: Anchor::L4,
            offset: 4096,
            mask: 0,
            shift: 0,
            slot: 0,
            ip_csum: false,
            l4_csum: false,
        };
        let dropped = CompiledProgram::from_ops(vec![speedybox_mat::MicroOp::Drop, oob.clone()]);
        assert!(check_program_bounds("t", &dropped).diagnostics.is_empty());
        // MAX_AH_DEPTH + 1 pops fail on every geometry before the write.
        let mut ops = vec![speedybox_mat::MicroOp::PopDecap; MAX_AH_DEPTH + 1];
        ops.push(oob);
        let undecappable = CompiledProgram::from_ops(ops);
        assert!(check_program_bounds("t", &undecappable).diagnostics.is_empty());
    }

    #[test]
    fn frozen_anchor_semantics_match_run() {
        // A write, then an encap, then another L4-anchored write: run()
        // resolves the layout at the first write, so the second write uses
        // the pre-encap L4 anchor while the frame has grown by AH_LEN —
        // strictly more slack. The proof must model that, not re-anchor.
        let program = CompiledProgram::from_ops(vec![
            speedybox_mat::MicroOp::WriteWord {
                anchor: Anchor::L4,
                offset: 0,
                mask: 0xFFFF_0000_0000_0000,
                shift: 0,
                slot: 0,
                ip_csum: false,
                l4_csum: true,
            },
            speedybox_mat::MicroOp::PushEncap { template: [0u8; AH_LEN] },
            speedybox_mat::MicroOp::WriteWord {
                anchor: Anchor::L4,
                offset: 0,
                mask: 0x0000_FFFF_0000_0000,
                shift: 0,
                slot: 0,
                ip_csum: false,
                l4_csum: true,
            },
        ]);
        let report = check_program_bounds("t", &program);
        assert!(report.diagnostics.is_empty(), "{}", report.render_text());
    }
}
