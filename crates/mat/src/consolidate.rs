//! Header-action consolidation (paper §V-B).
//!
//! The input is the sequence of header actions the chain's NFs recorded for
//! a flow; the output is a single [`ConsolidatedAction`] the fast path
//! applies in one step:
//!
//! * **drop** short-circuits everything ("as long as the list contains at
//!   least one drop action, the final action should be drop") — this is
//!   what enables the paper's *early packet drop* (Table III);
//! * **encap/decap** are simulated on a header stack; adjacent pairs on the
//!   same header annihilate;
//! * **modify** actions merge — same field: the latter wins; different
//!   fields: combined into one composite write (the paper expresses this
//!   as the XOR/OR composition `P0 ⊕ [(P0⊕P1) | (P0⊕P2)]`, reproduced
//!   bit-exactly by [`xor_compose`]);
//! * trailing fields (TTL/ToS/MAC) are applied at the very end, and
//!   checksums are fixed exactly once.

use speedybox_packet::{FieldValue, HeaderField, Packet};

use crate::action::{EncapSpec, HeaderAction};
use crate::ops::OpCounter;
use crate::Result;

/// The single action equivalent to a whole chain's header actions.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ConsolidatedAction {
    drop: bool,
    /// Final value per modified field, in first-write order (one entry per
    /// field; later writes overwrote earlier values during consolidation).
    modifies: Vec<(HeaderField, FieldValue)>,
    /// Net decapsulations of headers that arrived on the packet.
    net_decaps: usize,
    /// Net encapsulations to push, bottom-to-top.
    net_encaps: Vec<EncapSpec>,
}

impl ConsolidatedAction {
    /// True if the flow's packets are dropped (at the head of the chain).
    #[must_use]
    pub fn is_drop(&self) -> bool {
        self.drop
    }

    /// The merged field writes, one entry per field.
    #[must_use]
    pub fn modifies(&self) -> &[(HeaderField, FieldValue)] {
        &self.modifies
    }

    /// Net decapsulation count.
    #[must_use]
    pub fn net_decaps(&self) -> usize {
        self.net_decaps
    }

    /// Net encapsulations to apply, bottom-to-top.
    #[must_use]
    pub fn net_encaps(&self) -> &[EncapSpec] {
        &self.net_encaps
    }

    /// This action with each merged write's value replaced by
    /// `f(value)`, in order.
    #[must_use]
    pub fn map_values(mut self, mut f: impl FnMut(FieldValue) -> FieldValue) -> Self {
        for (_, value) in &mut self.modifies {
            *value = f(*value);
        }
        self
    }

    /// True if applying this action would leave the packet untouched.
    #[must_use]
    pub fn is_noop(&self) -> bool {
        !self.drop && self.modifies.is_empty() && self.net_decaps == 0 && self.net_encaps.is_empty()
    }

    /// Applies the consolidated action on the fast path.
    ///
    /// Returns `false` if the packet is dropped (early drop: before any
    /// further processing). All header surgery happens here, and checksums
    /// are fixed exactly once — this one-shot application is where the R1
    /// (repeated parse), R2 (late drop) and R3 (overwrite) savings come
    /// from. The trailing fix is an O(1) incremental patch (RFC 1624) over
    /// the field deltas rather than a full recompute; the two agree
    /// whenever the ingress checksums were valid.
    ///
    /// # Errors
    /// Propagates packet manipulation failures.
    pub fn apply(&self, packet: &mut Packet, ops: &mut OpCounter) -> Result<bool> {
        self.apply_with(packet, ops, |value| value)
    }

    /// [`ConsolidatedAction::apply`] writing `bind(value)` for each
    /// modify's value: how a template's action, whose values are operand
    /// slots, runs with a flow's operands ([`crate::template`]).
    pub(crate) fn apply_with(
        &self,
        packet: &mut Packet,
        ops: &mut OpCounter,
        bind: impl Fn(FieldValue) -> FieldValue,
    ) -> Result<bool> {
        if self.drop {
            ops.drops += 1;
            return Ok(false);
        }
        for _ in 0..self.net_decaps {
            packet.decap_ah()?;
            ops.encaps += 1;
        }
        for spec in &self.net_encaps {
            packet.encap_ah(spec.spi, 0)?;
            ops.encaps += 1;
        }
        let (mut ip_old, mut ip_new) = (0u32, 0u32);
        let (mut l4_old, mut l4_new) = (0u32, 0u32);
        for &(field, value) in &self.modifies {
            let value = bind(value);
            let old = packet.get_field(field)?;
            let (ip, l4) = crate::compiled::checksum_domains(field);
            if ip {
                ip_old += crate::compiled::word_contribution(field, old);
                ip_new += crate::compiled::word_contribution(field, value);
            }
            if l4 {
                l4_old += crate::compiled::word_contribution(field, old);
                l4_new += crate::compiled::word_contribution(field, value);
            }
            packet.set_field(field, value)?;
            ops.field_writes += 1;
        }
        if !self.is_noop() {
            packet.patch_ipv4_checksum_incremental(ip_old, ip_new);
            packet.patch_l4_checksum_incremental(l4_old, l4_new)?;
            ops.checksum_fixes += 1;
        }
        Ok(true)
    }
}

/// Consolidates a chain's header actions into one (paper §V-B).
///
/// `forward` contributes nothing ("we set it as the default action if no
/// other action is provided"). The result is order-equivalent to applying
/// the input actions sequentially (property-tested in this crate's test
/// suite), except that a drop anywhere becomes a drop at the head.
///
/// ```
/// use speedybox_mat::{consolidate, HeaderAction};
///
/// // A firewall's late drop consolidates into an early drop (Table III).
/// let merged = consolidate(&[HeaderAction::Forward, HeaderAction::Drop]);
/// assert!(merged.is_drop());
/// ```
#[must_use]
pub fn consolidate<'a>(actions: impl IntoIterator<Item = &'a HeaderAction>) -> ConsolidatedAction {
    let mut out = ConsolidatedAction::default();
    // Stack of headers pushed *within* this chain.
    let mut pushed: Vec<EncapSpec> = Vec::new();
    for action in actions {
        match action {
            HeaderAction::Forward => {}
            HeaderAction::Drop => {
                // Short-circuit: nothing downstream matters.
                return ConsolidatedAction { drop: true, ..ConsolidatedAction::default() };
            }
            HeaderAction::Modify(writes) => {
                for (field, value) in writes {
                    match out.modifies.iter_mut().find(|(f, _)| f == field) {
                        // "If two modify actions change the same field but
                        // with different values, we select the value of the
                        // latter modify."
                        Some((_, v)) => *v = *value,
                        None => out.modifies.push((*field, *value)),
                    }
                }
            }
            HeaderAction::Encap(spec) => pushed.push(*spec),
            HeaderAction::Decap(_) => {
                // "Encapsulation is pushing a new header to the (packet)
                // stack, and decapsulation is popping an existing header
                // from the stack."
                if pushed.pop().is_none() {
                    // Decap of a header that arrived on the packet.
                    out.net_decaps += 1;
                }
                // An encap pushed earlier in this chain annihilates with
                // this decap: both vanish from the consolidated action.
            }
        }
    }
    out.net_encaps = pushed;
    out
}

/// The paper's bit-level modify composition:
/// `P0 ⊕ [(P0 ⊕ P1) | (P0 ⊕ P2)]` (§V-B).
///
/// `p0` is the original packet bytes, `p1`/`p2` the outputs of two modify
/// actions that touch *different* fields. Returns the composed packet. All
/// three slices must have equal length.
///
/// This function exists to mirror the paper's formulation; the production
/// path merges at the field level ([`consolidate`]), and the two are
/// equivalent for disjoint modifies (property-tested).
///
/// # Panics
/// Panics if the slices differ in length.
#[must_use]
pub fn xor_compose(p0: &[u8], p1: &[u8], p2: &[u8]) -> Vec<u8> {
    assert_eq!(p0.len(), p1.len(), "modify outputs must preserve length");
    assert_eq!(p0.len(), p2.len(), "modify outputs must preserve length");
    p0.iter().zip(p1.iter().zip(p2)).map(|(&b0, (&b1, &b2))| b0 ^ ((b0 ^ b1) | (b0 ^ b2))).collect()
}

/// Iterated XOR composition over any number of modify outputs, applying
/// the paper's "we iterate the process incrementally" rule.
///
/// # Panics
/// Panics if any output length differs from `p0`'s.
#[must_use]
pub fn xor_compose_all(p0: &[u8], outputs: &[&[u8]]) -> Vec<u8> {
    match outputs {
        [] => p0.to_vec(),
        [only] => only.to_vec(),
        [first, rest @ ..] => {
            let mut acc = first.to_vec();
            for next in rest {
                acc = xor_compose(p0, &acc, next);
            }
            acc
        }
    }
}

#[cfg(test)]
mod tests {
    use std::net::Ipv4Addr;

    use speedybox_packet::PacketBuilder;

    use super::*;

    fn pkt() -> Packet {
        PacketBuilder::tcp()
            .src("10.0.0.1:1000".parse().unwrap())
            .dst("10.0.0.2:80".parse().unwrap())
            .payload(b"data")
            .build()
    }

    fn ip(a: u8) -> Ipv4Addr {
        Ipv4Addr::new(10, 9, 9, a)
    }

    #[test]
    fn empty_chain_is_noop() {
        let c = consolidate(&[]);
        assert!(c.is_noop());
        let mut p = pkt();
        let before = p.as_bytes().to_vec();
        let mut ops = OpCounter::default();
        assert!(c.apply(&mut p, &mut ops).unwrap());
        assert_eq!(p.as_bytes(), &before[..]);
        assert_eq!(ops.checksum_fixes, 0);
    }

    #[test]
    fn forwards_are_ignored() {
        let c = consolidate(&[HeaderAction::Forward, HeaderAction::Forward]);
        assert!(c.is_noop());
    }

    #[test]
    fn any_drop_wins() {
        let c = consolidate(&[
            HeaderAction::modify(HeaderField::DstIp, ip(1)),
            HeaderAction::Drop,
            HeaderAction::Encap(EncapSpec::new(1)),
        ]);
        assert!(c.is_drop());
        // Drop leaves no residual modifies/encaps.
        assert!(c.modifies().is_empty());
        assert!(c.net_encaps().is_empty());
    }

    #[test]
    fn same_field_latter_wins() {
        let c = consolidate(&[
            HeaderAction::modify(HeaderField::DstIp, ip(1)),
            HeaderAction::modify(HeaderField::DstIp, ip(2)),
        ]);
        assert_eq!(c.modifies(), &[(HeaderField::DstIp, ip(2).into())]);
    }

    #[test]
    fn different_fields_merge() {
        let c = consolidate(&[
            HeaderAction::modify(HeaderField::DstIp, ip(1)),
            HeaderAction::modify(HeaderField::DstPort, 8080u16),
        ]);
        assert_eq!(c.modifies().len(), 2);
    }

    #[test]
    fn adjacent_encap_decap_annihilate() {
        let c = consolidate(&[
            HeaderAction::Encap(EncapSpec::new(1)),
            HeaderAction::Decap(EncapSpec::new(1)),
        ]);
        assert!(c.is_noop());
    }

    #[test]
    fn nested_encap_decap_annihilate() {
        let c = consolidate(&[
            HeaderAction::Encap(EncapSpec::new(1)),
            HeaderAction::Encap(EncapSpec::new(2)),
            HeaderAction::Decap(EncapSpec::new(2)),
            HeaderAction::Decap(EncapSpec::new(1)),
        ]);
        assert!(c.is_noop());
    }

    #[test]
    fn unmatched_encap_survives() {
        let c = consolidate(&[HeaderAction::Encap(EncapSpec::new(5))]);
        assert_eq!(c.net_encaps(), &[EncapSpec::new(5)]);
        assert_eq!(c.net_decaps(), 0);
    }

    #[test]
    fn unmatched_decap_survives() {
        let c = consolidate(&[HeaderAction::Decap(EncapSpec::new(5))]);
        assert_eq!(c.net_decaps(), 1);
        assert!(c.net_encaps().is_empty());
    }

    #[test]
    fn encap_then_own_decap_is_true_noop_and_skips_checksum() {
        // Regression: an encap immediately undone by its own decap must
        // cancel to a *true* no-op — `is_noop()` true, zero residual
        // decaps/encaps — so `apply` skips header surgery and the checksum
        // fix entirely.
        let c = consolidate(&[
            HeaderAction::Encap(EncapSpec::new(0x1001)),
            HeaderAction::Decap(EncapSpec::new(0x1001)),
        ]);
        assert!(c.is_noop());
        assert_eq!(c.net_decaps(), 0);
        assert!(c.net_encaps().is_empty());
        let mut p = pkt();
        let before = p.as_bytes().to_vec();
        let mut ops = OpCounter::default();
        assert!(c.apply(&mut p, &mut ops).unwrap());
        assert_eq!(p.as_bytes(), &before[..]);
        assert_eq!(ops.checksum_fixes, 0);
        assert_eq!(ops.encaps, 0);
    }

    #[test]
    fn encap_own_decap_cancels_between_other_actions() {
        // The cancelled pair must not disturb surrounding modifies, and an
        // extra decap after the pair pops an *arrival* header, not the
        // already-annihilated in-chain one.
        let c = consolidate(&[
            HeaderAction::modify(HeaderField::DstIp, ip(4)),
            HeaderAction::Encap(EncapSpec::new(7)),
            HeaderAction::Decap(EncapSpec::new(7)),
            HeaderAction::Decap(EncapSpec::new(1)),
        ]);
        assert!(!c.is_noop());
        assert_eq!(c.modifies(), &[(HeaderField::DstIp, ip(4).into())]);
        assert_eq!(c.net_decaps(), 1);
        assert!(c.net_encaps().is_empty());
    }

    #[test]
    fn mismatched_spec_decap_still_pops_in_chain_encap() {
        // Decap pops the outermost header regardless of the spec it names
        // (mirroring `Packet::decap_ah`), so a mismatched spec still
        // annihilates the in-chain encap and the pair is byte-equivalent to
        // doing nothing. The static verifier flags the spec mismatch as
        // SBX002 — the consolidation itself stays sound.
        let actions =
            [HeaderAction::Encap(EncapSpec::new(1)), HeaderAction::Decap(EncapSpec::new(2))];
        let c = consolidate(&actions);
        assert!(c.is_noop());
        let mut seq = pkt();
        let mut ops = OpCounter::default();
        for a in &actions {
            a.apply(&mut seq, &mut ops).unwrap();
        }
        let mut fast = pkt();
        c.apply(&mut fast, &mut ops).unwrap();
        assert_eq!(seq.as_bytes(), fast.as_bytes());
    }

    #[test]
    fn decap_then_encap_does_not_annihilate() {
        // Popping an arriving header then pushing a new one is NOT a no-op.
        let c = consolidate(&[
            HeaderAction::Decap(EncapSpec::new(1)),
            HeaderAction::Encap(EncapSpec::new(2)),
        ]);
        assert_eq!(c.net_decaps(), 1);
        assert_eq!(c.net_encaps(), &[EncapSpec::new(2)]);
    }

    #[test]
    fn consolidated_equals_sequential_for_modify_chain() {
        let actions = [
            HeaderAction::modify(HeaderField::DstIp, ip(1)),
            HeaderAction::modify2(
                (HeaderField::DstIp, ip(2).into()),
                (HeaderField::DstPort, 8080u16.into()),
            ),
            HeaderAction::modify(HeaderField::SrcPort, 4242u16),
        ];
        // Sequential (original chain).
        let mut seq = pkt();
        let mut ops = OpCounter::default();
        for a in &actions {
            assert!(a.apply(&mut seq, &mut ops).unwrap());
        }
        // Consolidated (fast path).
        let mut fast = pkt();
        let c = consolidate(&actions);
        assert!(c.apply(&mut fast, &mut ops).unwrap());
        assert_eq!(seq.as_bytes(), fast.as_bytes());
        // One checksum fix on the fast path vs three on the original.
        let mut fast_ops = OpCounter::default();
        let mut p = pkt();
        c.apply(&mut p, &mut fast_ops).unwrap();
        assert_eq!(fast_ops.checksum_fixes, 1);
    }

    #[test]
    fn consolidated_equals_sequential_with_encap() {
        let actions = [
            HeaderAction::modify(HeaderField::DstIp, ip(3)),
            HeaderAction::Encap(EncapSpec::new(9)),
        ];
        let mut seq = pkt();
        let mut ops = OpCounter::default();
        for a in &actions {
            a.apply(&mut seq, &mut ops).unwrap();
        }
        let mut fast = pkt();
        consolidate(&actions).apply(&mut fast, &mut ops).unwrap();
        assert_eq!(seq.as_bytes(), fast.as_bytes());
    }

    #[test]
    fn xor_compose_matches_paper_formula() {
        // Two modifies touching different bytes.
        let p0 = vec![0xAA, 0xBB, 0xCC, 0xDD];
        let mut p1 = p0.clone();
        p1[0] = 0x11; // modify1 touches byte 0
        let mut p2 = p0.clone();
        p2[3] = 0x22; // modify2 touches byte 3
        let out = xor_compose(&p0, &p1, &p2);
        assert_eq!(out, vec![0x11, 0xBB, 0xCC, 0x22]);
    }

    #[test]
    fn xor_compose_all_iterates() {
        let p0 = vec![0u8, 0, 0];
        let p1 = vec![7u8, 0, 0];
        let p2 = vec![0u8, 8, 0];
        let p3 = vec![0u8, 0, 9];
        let out = xor_compose_all(&p0, &[&p1, &p2, &p3]);
        assert_eq!(out, vec![7, 8, 9]);
        assert_eq!(xor_compose_all(&p0, &[]), p0);
        assert_eq!(xor_compose_all(&p0, &[&p1]), p1);
    }

    #[test]
    #[should_panic(expected = "preserve length")]
    fn xor_compose_rejects_length_mismatch() {
        let _ = xor_compose(&[0, 1], &[0], &[0, 1]);
    }

    #[test]
    fn field_level_merge_equals_xor_composition() {
        // The production field-level merge and the paper's byte-level XOR
        // composition agree for disjoint-field modifies.
        let base = pkt();
        let m1 = HeaderAction::modify(HeaderField::DstIp, ip(7));
        let m2 = HeaderAction::modify(HeaderField::SrcPort, 999u16);
        let mut ops = OpCounter::default();

        let mut out1 = base.clone();
        m1.apply(&mut out1, &mut ops).unwrap();
        let mut out2 = base.clone();
        m2.apply(&mut out2, &mut ops).unwrap();
        // XOR-compose the raw frames (skip checksum bytes: the per-branch
        // checksums differ; compose pre-checksum states instead).
        let mut pre1 = base.clone();
        pre1.set_field(HeaderField::DstIp, ip(7)).unwrap();
        let mut pre2 = base.clone();
        pre2.set_field(HeaderField::SrcPort, 999u16).unwrap();
        let composed = xor_compose(base.as_bytes(), pre1.as_bytes(), pre2.as_bytes());

        let mut fast = base;
        consolidate(&[m1, m2]).apply(&mut fast, &mut ops).unwrap();
        let mut composed_pkt = Packet::from_frame(&composed).unwrap();
        composed_pkt.fix_checksums().unwrap();
        assert_eq!(fast.as_bytes(), composed_pkt.as_bytes());
    }
}
