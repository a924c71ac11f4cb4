//! Rule compilation: lowering a [`ConsolidatedAction`] to a straight-line
//! micro-op program at install/rewrite time.
//!
//! The interpreted fast path walks the consolidated action's vectors per
//! packet — branching over field kinds, resolving offsets through
//! `set_field`, and finishing with a full checksum recompute. This module
//! moves all of that to rule-install time: [`compile`] lowers the action
//! into a [`CompiledProgram`], a flat `Vec` of [`MicroOp`]s the per-packet
//! [`CompiledProgram::run`] replays as masked 8-byte word writes plus O(1)
//! incremental checksum patches (RFC 1624). Encapsulation headers are
//! precomputed into byte templates so the hot path copies instead of
//! serializing.
//!
//! A program holds no field values. Each word write reads an operand
//! slot, so one program serves every flow of a rule shape, each with its
//! own operands ([`crate::template`]). [`compile`] lowers an action in
//! template form, whose modify values are those slots.
//!
//! Byte-identity contract: `run` produces the same frame bytes as
//! [`ConsolidatedAction::apply`] for any packet whose *ingress* checksums
//! are valid (the incremental patch extends a correct checksum; a full
//! recompute would also repair a corrupt one). All workload generators in
//! this repository emit valid checksums, and the static verifier's SBX011
//! pass cross-checks the two paths per rule. The `--interpreted` runtime
//! flag remains as an escape hatch.

use speedybox_packet::headers::{AuthHeader, AH_LEN};
use speedybox_packet::{FieldValue, HeaderField, HeaderLayout, Packet, PacketError};

use crate::consolidate::ConsolidatedAction;
use crate::ops::OpCounter;
use crate::Result;

/// Base a [`MicroOp::WriteWord`] offset is relative to.
///
/// Offsets cannot be fully resolved at compile time because VLAN tags and
/// AH layers shift L3/L4; instead each write names its anchor and `run`
/// resolves the anchor table once per packet ([`Packet::layout`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Anchor {
    /// Frame start (Ethernet header) — MAC rewrites.
    Frame,
    /// IPv4 header start — ToS/TTL/address rewrites.
    L3,
    /// Innermost L4 header start (past AH layers) — port rewrites.
    L4,
}

/// One straight-line instruction of a compiled rule program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MicroOp {
    /// Release the packet (early drop; always the sole op).
    Drop,
    /// Pop the outermost AH layer that arrived on the packet.
    PopDecap,
    /// Push one AH layer from a precomputed byte template (SPI/seq/ICV
    /// serialized at compile time; only the next-header byte is patched
    /// from the packet's current protocol at push time).
    PushEncap {
        /// The serialized AH bytes to copy into the packet.
        template: [u8; AH_LEN],
    },
    /// Masked big-endian write of one aligned 8-byte window:
    /// `new = (old & !mask) | ((operands[slot] << shift) & mask)`.
    WriteWord {
        /// Which header the offset is relative to.
        anchor: Anchor,
        /// Even byte offset from the anchor (16-bit word aligned, so the
        /// window's words line up with checksum coverage words).
        offset: usize,
        /// Bits to replace (big-endian window order).
        mask: u64,
        /// Left shift that moves the operand into window position.
        shift: u32,
        /// The operand holding the field value.
        slot: usize,
        /// Whether the rewritten bytes are covered by the IPv4 header
        /// checksum.
        ip_csum: bool,
        /// Whether the rewritten bytes are covered by the L4 checksum
        /// (directly or via the pseudo-header).
        l4_csum: bool,
    },
    /// Patch the trailing checksums incrementally from the word sums
    /// accumulated by the preceding `WriteWord`s.
    AdjustTrailing {
        /// Patch the IPv4 header checksum.
        ip: bool,
        /// Patch the TCP/UDP checksum.
        l4: bool,
    },
}

/// A consolidated action lowered to straight-line micro-ops.
///
/// Built once per rule shape ([`crate::template`]); executed per packet
/// by [`CompiledProgram::run`] over a flow's operands.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CompiledProgram {
    ops: Vec<MicroOp>,
}

impl CompiledProgram {
    /// Builds a program directly from micro-ops.
    ///
    /// [`compile`] is the production entry point; this constructor exists
    /// for the static verifier's SBX012 bounds pass and for tests that
    /// need programs `compile` would never emit.
    #[must_use]
    pub fn from_ops(ops: Vec<MicroOp>) -> Self {
        CompiledProgram { ops }
    }

    /// The lowered instruction sequence.
    #[must_use]
    pub fn ops(&self) -> &[MicroOp] {
        &self.ops
    }

    /// True if running this program leaves the packet untouched.
    #[must_use]
    pub fn is_noop(&self) -> bool {
        self.ops.is_empty()
    }

    /// Executes the program against a packet, each word write taking its
    /// value from `operands`.
    ///
    /// Returns `false` if the packet is dropped. Semantically equivalent to
    /// [`ConsolidatedAction::apply`] (see the module docs for the ingress
    /// checksum caveat) but counts `word_writes`/`checksum_patches` instead
    /// of `field_writes`/`checksum_fixes`.
    ///
    /// # Errors
    /// Propagates packet manipulation failures exactly as the interpreted
    /// path does (e.g. decap of a packet carrying no AH).
    ///
    /// # Panics
    /// Panics if a word write's slot is past the end of `operands`.
    pub fn run(
        &self,
        operands: &[FieldValue],
        packet: &mut Packet,
        ops: &mut OpCounter,
    ) -> Result<bool> {
        // Anchor table, resolved lazily at the first WriteWord so it sees
        // the post-encap/decap layout.
        let mut layout: Option<HeaderLayout> = None;
        // Accumulated 16-bit word sums over rewritten windows, old and new,
        // per checksum domain. Unchanged words appear in both sums and
        // cancel under the end-around fold; overlapping windows telescope.
        let (mut ip_old, mut ip_new) = (0u32, 0u32);
        let (mut l4_old, mut l4_new) = (0u32, 0u32);
        for op in &self.ops {
            match op {
                MicroOp::Drop => {
                    ops.drops += 1;
                    return Ok(false);
                }
                MicroOp::PopDecap => {
                    packet.decap_ah()?;
                    ops.encaps += 1;
                }
                MicroOp::PushEncap { template } => {
                    packet.encap_ah_template(template)?;
                    ops.encaps += 1;
                }
                MicroOp::WriteWord { anchor, offset, mask, shift, slot, ip_csum, l4_csum } => {
                    let lay = match layout {
                        Some(l) => l,
                        None => {
                            let l = packet.layout()?;
                            layout = Some(l);
                            l
                        }
                    };
                    let base = match anchor {
                        Anchor::Frame => 0,
                        Anchor::L3 => lay.l3,
                        Anchor::L4 => lay.l4,
                    };
                    let off = base + offset;
                    let frame = packet.frame_mut();
                    let Some(window) = frame.get_mut(off..off + 8) else {
                        return Err(
                            PacketError::Truncated { needed: off + 8, have: frame.len() }.into()
                        );
                    };
                    let mut bytes = [0u8; 8];
                    bytes.copy_from_slice(window);
                    let old = u64::from_be_bytes(bytes);
                    let new = (old & !mask) | ((operands[*slot].raw() << shift) & mask);
                    window.copy_from_slice(&new.to_be_bytes());
                    if *ip_csum {
                        ip_old += word_sum(old);
                        ip_new += word_sum(new);
                    }
                    if *l4_csum {
                        l4_old += word_sum(old);
                        l4_new += word_sum(new);
                    }
                    ops.word_writes += 1;
                }
                MicroOp::AdjustTrailing { ip, l4 } => {
                    if *ip {
                        packet.patch_ipv4_checksum_incremental(ip_old, ip_new);
                    }
                    if *l4 {
                        packet.patch_l4_checksum_incremental(l4_old, l4_new)?;
                    }
                    ops.checksum_patches += 1;
                }
            }
        }
        Ok(true)
    }
}

/// Sum of the four big-endian 16-bit words of an 8-byte window.
#[must_use]
#[allow(clippy::cast_possible_truncation)]
pub fn word_sum(window: u64) -> u32 {
    ((window >> 48) as u16 as u32)
        + ((window >> 32) as u16 as u32)
        + ((window >> 16) as u16 as u32)
        + (window as u16 as u32)
}

/// Which checksums cover a header field: `(ipv4_header, l4)`.
///
/// Shared by [`compile`] and the interpreted
/// [`ConsolidatedAction::apply`]'s incremental trailing fix so the two
/// paths can never disagree about coverage.
pub(crate) fn checksum_domains(field: HeaderField) -> (bool, bool) {
    match field {
        HeaderField::SrcMac | HeaderField::DstMac => (false, false),
        // Addresses sit in the IPv4 header and the L4 pseudo-header.
        HeaderField::SrcIp | HeaderField::DstIp => (true, true),
        HeaderField::SrcPort | HeaderField::DstPort => (false, true),
        HeaderField::Ttl | HeaderField::Tos => (true, false),
    }
}

/// A field value's contribution to its covering checksums, expressed as a
/// sum of the 16-bit words it occupies on the wire (position-correct for
/// odd-offset single-byte fields).
#[allow(clippy::cast_possible_truncation)]
pub(crate) fn word_contribution(field: HeaderField, value: FieldValue) -> u32 {
    let raw = value.raw();
    match field {
        // MACs are outside both checksum domains; the value is never used.
        HeaderField::SrcMac | HeaderField::DstMac => 0,
        HeaderField::SrcIp | HeaderField::DstIp => {
            let ip = raw as u32;
            (ip >> 16) + (ip & 0xFFFF)
        }
        HeaderField::SrcPort | HeaderField::DstPort => (raw as u16).into(),
        // TTL is the high byte of the word at L3+8.
        HeaderField::Ttl => u32::from(raw as u8) << 8,
        // ToS is the low byte of the word at L3+0.
        HeaderField::Tos => u32::from(raw as u8),
    }
}

/// Lowers one merged field write, of the operand in `slot`, to a masked
/// word write.
///
/// Every window is 8 bytes at an even anchor-relative offset, so its four
/// 16-bit words line up with IPv4-header and pseudo-header checksum words,
/// and all windows stay in-bounds for the minimal 42-byte UDP frame.
fn lower_field(field: HeaderField, slot: usize) -> MicroOp {
    let (ip_csum, l4_csum) = checksum_domains(field);
    let (anchor, offset, mask, shift) = match field {
        // Bytes 0..6 of the frame; window tail overlaps the source MAC.
        HeaderField::DstMac => (Anchor::Frame, 0, 0xFFFF_FFFF_FFFF_0000, 16),
        // Bytes 6..12 of the frame; window tail overlaps the ethertype.
        HeaderField::SrcMac => (Anchor::Frame, 6, 0xFFFF_FFFF_FFFF_0000, 16),
        HeaderField::Tos => (Anchor::L3, 0, 0x00FF_0000_0000_0000, 48),
        HeaderField::Ttl => (Anchor::L3, 8, 0xFF00_0000_0000_0000, 56),
        HeaderField::SrcIp => (Anchor::L3, 12, 0xFFFF_FFFF_0000_0000, 32),
        HeaderField::DstIp => (Anchor::L3, 16, 0xFFFF_FFFF_0000_0000, 32),
        HeaderField::SrcPort => (Anchor::L4, 0, 0xFFFF_0000_0000_0000, 48),
        HeaderField::DstPort => (Anchor::L4, 0, 0x0000_FFFF_0000_0000, 32),
    };
    MicroOp::WriteWord { anchor, offset, mask, shift, slot, ip_csum, l4_csum }
}

/// Lowers a consolidated action in template form — each modify's value is
/// the operand slot it reads — into a compiled program (paper §V-B, done
/// once per rule shape instead of per packet).
#[must_use]
pub fn compile(action: &ConsolidatedAction) -> CompiledProgram {
    if action.is_drop() {
        return CompiledProgram { ops: vec![MicroOp::Drop] };
    }
    // Sized up front, a trailing adjustment included: no regrowth.
    let modifies = action.modifies().len();
    let len =
        action.net_decaps() + action.net_encaps().len() + modifies + usize::from(modifies > 0);
    let mut ops = Vec::with_capacity(len);
    for _ in 0..action.net_decaps() {
        ops.push(MicroOp::PopDecap);
    }
    for spec in action.net_encaps() {
        let mut template = [0u8; AH_LEN];
        // Next-header is a placeholder: `encap_ah_template` patches it from
        // the packet's current protocol, mirroring `encap_ah`.
        AuthHeader::new(spec.spi, 0, 0).write(&mut template);
        ops.push(MicroOp::PushEncap { template });
    }
    let (mut ip, mut l4) = (false, false);
    for &(field, slot) in action.modifies() {
        let op = lower_field(field, usize::try_from(slot.raw()).unwrap_or(usize::MAX));
        if let MicroOp::WriteWord { ip_csum, l4_csum, .. } = op {
            ip |= ip_csum;
            l4 |= l4_csum;
        }
        ops.push(op);
    }
    if ip || l4 {
        ops.push(MicroOp::AdjustTrailing { ip, l4 });
    }
    CompiledProgram { ops }
}

#[cfg(test)]
mod tests {
    use std::net::Ipv4Addr;

    use speedybox_packet::PacketBuilder;

    use super::*;
    use crate::action::{EncapSpec, HeaderAction};
    use crate::consolidate::consolidate;

    fn tcp_pkt() -> Packet {
        PacketBuilder::tcp()
            .src("10.0.0.1:1000".parse().unwrap())
            .dst("10.0.0.2:80".parse().unwrap())
            .payload(b"compiled")
            .build()
    }

    fn udp_pkt() -> Packet {
        PacketBuilder::udp()
            .src("10.0.0.1:53".parse().unwrap())
            .dst("10.0.0.2:5353".parse().unwrap())
            .payload(b"dns")
            .build()
    }

    /// `action` lowered in template form, with its own values as the
    /// operands.
    fn lowered(action: &ConsolidatedAction) -> (CompiledProgram, Vec<FieldValue>) {
        let mut operands = Vec::new();
        let slotted = action.clone().map_values(|value| {
            operands.push(value);
            FieldValue::new(operands.len() as u64 - 1)
        });
        (compile(&slotted), operands)
    }

    /// Runs both paths on clones of `pkt` and asserts byte identity.
    fn assert_paths_agree(action: &ConsolidatedAction, pkt: &Packet) {
        let (program, operands) = lowered(action);
        let mut interpreted = pkt.clone();
        let mut compiled = pkt.clone();
        let mut iops = OpCounter::default();
        let mut cops = OpCounter::default();
        let a = action.apply(&mut interpreted, &mut iops).unwrap();
        let b = program.run(&operands, &mut compiled, &mut cops).unwrap();
        assert_eq!(a, b);
        assert_eq!(interpreted.as_bytes(), compiled.as_bytes());
        // The compiled path never counts interpreted op kinds and vice
        // versa.
        assert_eq!(cops.field_writes, 0);
        assert_eq!(cops.checksum_fixes, 0);
        assert_eq!(iops.word_writes, 0);
        assert_eq!(iops.checksum_patches, 0);
    }

    #[test]
    fn noop_compiles_to_empty_program() {
        let program = compile(&consolidate(&[HeaderAction::Forward]));
        assert!(program.is_noop());
        let mut p = tcp_pkt();
        let before = p.as_bytes().to_vec();
        let mut ops = OpCounter::default();
        assert!(program.run(&[], &mut p, &mut ops).unwrap());
        assert_eq!(p.as_bytes(), &before[..]);
        assert_eq!(ops, OpCounter::default());
    }

    #[test]
    fn drop_compiles_to_single_op() {
        let program = compile(&consolidate(&[HeaderAction::Drop]));
        assert_eq!(program.ops(), &[MicroOp::Drop]);
        let mut p = tcp_pkt();
        let mut ops = OpCounter::default();
        assert!(!program.run(&[], &mut p, &mut ops).unwrap());
        assert_eq!(ops.drops, 1);
    }

    #[test]
    fn every_field_matches_interpreted_on_tcp_and_udp() {
        let values: [(HeaderField, FieldValue); 8] = [
            (HeaderField::SrcMac, [0x02, 0xaa, 0xbb, 0xcc, 0xdd, 0x01].into()),
            (HeaderField::DstMac, [0x02, 0x11, 0x22, 0x33, 0x44, 0x55].into()),
            (HeaderField::SrcIp, Ipv4Addr::new(172, 16, 0, 9).into()),
            (HeaderField::DstIp, Ipv4Addr::new(192, 168, 7, 7).into()),
            (HeaderField::SrcPort, 4242u16.into()),
            (HeaderField::DstPort, 8080u16.into()),
            (HeaderField::Ttl, 17u8.into()),
            (HeaderField::Tos, 0xb8u8.into()),
        ];
        for (field, value) in values {
            let action = consolidate(&[HeaderAction::Modify(vec![(field, value)])]);
            assert_paths_agree(&action, &tcp_pkt());
            assert_paths_agree(&action, &udp_pkt());
        }
    }

    #[test]
    fn overlapping_port_writes_telescope() {
        // SrcPort and DstPort share the L4+0 window; the second write must
        // see the first one's output as its "old" bytes and the accumulated
        // sums must telescope to the exact L4 delta.
        let action = consolidate(&[
            HeaderAction::modify(HeaderField::SrcPort, 1u16),
            HeaderAction::modify(HeaderField::DstPort, 65535u16),
        ]);
        assert_paths_agree(&action, &tcp_pkt());
        assert_paths_agree(&action, &udp_pkt());
    }

    #[test]
    fn full_rewrite_matches_interpreted() {
        let action = consolidate(&[
            HeaderAction::modify(HeaderField::DstIp, Ipv4Addr::new(10, 9, 9, 9)),
            HeaderAction::modify(HeaderField::DstPort, 8080u16),
            HeaderAction::modify(HeaderField::SrcIp, Ipv4Addr::new(10, 8, 8, 8)),
            HeaderAction::modify(HeaderField::Ttl, 63u8),
        ]);
        assert_paths_agree(&action, &tcp_pkt());
        assert_paths_agree(&action, &udp_pkt());
    }

    #[test]
    fn encap_decap_match_interpreted() {
        let encap = consolidate(&[HeaderAction::Encap(EncapSpec::new(0xbeef))]);
        assert_paths_agree(&encap, &tcp_pkt());

        let mut wrapped = tcp_pkt();
        wrapped.encap_ah(7, 0).unwrap();
        let decap = consolidate(&[HeaderAction::Decap(EncapSpec::new(7))]);
        assert_paths_agree(&decap, &wrapped);

        let swap = consolidate(&[
            HeaderAction::Decap(EncapSpec::new(7)),
            HeaderAction::Encap(EncapSpec::new(0x1001)),
            HeaderAction::modify(HeaderField::DstIp, Ipv4Addr::new(10, 1, 2, 3)),
        ]);
        assert_paths_agree(&swap, &wrapped);
    }

    #[test]
    fn decap_error_matches_interpreted() {
        let decap = consolidate(&[HeaderAction::Decap(EncapSpec::new(1))]);
        let program = compile(&decap);
        let mut ops = OpCounter::default();
        // No AH on the packet: both paths must fail identically.
        let interpreted = decap.apply(&mut tcp_pkt(), &mut ops).unwrap_err();
        let compiled = program.run(&[], &mut tcp_pkt(), &mut ops).unwrap_err();
        assert_eq!(interpreted, compiled);
    }

    #[test]
    fn op_accounting_counts_compiled_kinds() {
        let action = consolidate(&[
            HeaderAction::modify(HeaderField::DstIp, Ipv4Addr::new(10, 0, 0, 1)),
            HeaderAction::modify(HeaderField::DstPort, 80u16),
            HeaderAction::Encap(EncapSpec::new(3)),
        ]);
        let (program, operands) = lowered(&action);
        let mut p = tcp_pkt();
        let mut ops = OpCounter::default();
        assert!(program.run(&operands, &mut p, &mut ops).unwrap());
        assert_eq!(ops.word_writes, 2);
        assert_eq!(ops.checksum_patches, 1);
        assert_eq!(ops.encaps, 1);
        assert_eq!(ops.field_writes, 0);
        assert_eq!(ops.checksum_fixes, 0);
    }

    #[test]
    fn checksums_stay_verifiable_after_run() {
        let action = consolidate(&[
            HeaderAction::modify(HeaderField::SrcIp, Ipv4Addr::new(203, 0, 113, 1)),
            HeaderAction::modify(HeaderField::SrcPort, 1u16),
        ]);
        for pkt in [tcp_pkt(), udp_pkt()] {
            let mut p = pkt;
            let mut ops = OpCounter::default();
            let (program, operands) = lowered(&action);
            assert!(program.run(&operands, &mut p, &mut ops).unwrap());
            assert!(p.verify_checksums().unwrap());
        }
    }

    #[test]
    fn word_sum_sums_be_words() {
        assert_eq!(word_sum(0x0001_0002_0003_0004), 10);
        assert_eq!(word_sum(0xFFFF_0000_0000_0001), 0x1_0000);
        assert_eq!(word_sum(0), 0);
    }
}
