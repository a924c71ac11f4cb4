//! The five standardized header actions (paper §IV-A1).
//!
//! An NF's per-flow behaviour on the packet *header* is one of:
//! `forward`, `drop`, `modify`, `encap`, `decap`. These are the atoms the
//! Global MAT consolidates.

use std::fmt;

use speedybox_packet::{FieldValue, HeaderField, Packet};

use crate::ops::OpCounter;
use crate::Result;

/// Parameters of an encapsulation (we model the IPsec Authentication
/// Header, the paper's VPN example).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EncapSpec {
    /// Security Parameters Index identifying the tunnel.
    pub spi: u32,
}

impl EncapSpec {
    /// Creates an encap spec for the given SPI.
    #[must_use]
    pub fn new(spi: u32) -> Self {
        Self { spi }
    }
}

impl fmt::Display for EncapSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "spi={:#x}", self.spi)
    }
}

/// One NF's per-flow header action, as recorded in its Local MAT.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HeaderAction {
    /// Pass the packet through unmodified (monitors, IDSes).
    Forward,
    /// Discard the packet (firewalls). The paper: "set the associated
    /// packet descriptor to nil".
    Drop,
    /// Rewrite one or more header fields (NATs, load balancers, gateways).
    /// Pairs are applied in order; later writes to the same field win.
    Modify(Vec<(HeaderField, FieldValue)>),
    /// Push an authentication header (VPN ingress).
    Encap(EncapSpec),
    /// Pop the outermost authentication header (VPN egress). The spec
    /// identifies which tunnel's header is expected.
    Decap(EncapSpec),
}

impl HeaderAction {
    /// Convenience constructor for a single-field modify.
    #[must_use]
    pub fn modify(field: HeaderField, value: impl Into<FieldValue>) -> Self {
        HeaderAction::Modify(vec![(field, value.into())])
    }

    /// Convenience constructor for a two-field modify (e.g. DIP+DPort).
    #[must_use]
    pub fn modify2(a: (HeaderField, FieldValue), b: (HeaderField, FieldValue)) -> Self {
        HeaderAction::Modify(vec![a, b])
    }

    /// True for [`HeaderAction::Drop`].
    #[must_use]
    pub fn is_drop(&self) -> bool {
        matches!(self, HeaderAction::Drop)
    }

    /// True for [`HeaderAction::Forward`] (the default, no-op action).
    #[must_use]
    pub fn is_forward(&self) -> bool {
        matches!(self, HeaderAction::Forward)
    }

    /// Frame-length delta this action applies when executed: `+AH_LEN`
    /// for encap, `-AH_LEN` for decap, zero otherwise. Consolidation uses
    /// this to give each state-function batch a positionally exact frame
    /// length even when an encap/decap pair annihilates (§V-B).
    #[must_use]
    pub fn len_delta(&self) -> i64 {
        match self {
            HeaderAction::Encap(_) => speedybox_packet::headers::AH_LEN as i64,
            HeaderAction::Decap(_) => -(speedybox_packet::headers::AH_LEN as i64),
            _ => 0,
        }
    }

    /// This action with each modify's value replaced by `f(value)`, in
    /// write order; other kinds carry no value.
    #[must_use]
    pub(crate) fn map_values(mut self, mut f: impl FnMut(FieldValue) -> FieldValue) -> Self {
        if let HeaderAction::Modify(writes) = &mut self {
            for (_, value) in writes {
                *value = f(*value);
            }
        }
        self
    }

    /// The modify's values, in write order (none for other kinds).
    pub(crate) fn values(&self) -> impl Iterator<Item = FieldValue> + '_ {
        let writes = match self {
            HeaderAction::Modify(writes) => writes.as_slice(),
            _ => &[],
        };
        writes.iter().map(|&(_, value)| value)
    }

    /// Applies this action to a packet the way the *original* (slow-path)
    /// chain would: immediately and in isolation.
    ///
    /// Returns `false` if the packet was logically dropped (the caller
    /// releases it). Operation counts are added to `ops` for cost
    /// accounting.
    ///
    /// # Errors
    /// Propagates packet manipulation failures (e.g. decap with no AH).
    pub fn apply(&self, packet: &mut Packet, ops: &mut OpCounter) -> Result<bool> {
        self.apply_with(packet, ops, |value| value)
    }

    /// [`HeaderAction::apply`] writing `bind(value)` for each modify's
    /// value: how a template's action, whose values are operand slots,
    /// runs with a flow's operands ([`crate::template`]).
    pub(crate) fn apply_with(
        &self,
        packet: &mut Packet,
        ops: &mut OpCounter,
        bind: impl Fn(FieldValue) -> FieldValue,
    ) -> Result<bool> {
        match self {
            HeaderAction::Forward => Ok(true),
            HeaderAction::Drop => {
                ops.drops += 1;
                Ok(false)
            }
            HeaderAction::Modify(writes) => {
                for (field, value) in writes {
                    packet.set_field(*field, bind(*value))?;
                    ops.field_writes += 1;
                }
                // Each NF on the original path leaves a valid packet
                // behind, so it fixes checksums itself (this is exactly
                // the per-NF redundancy R3/R1 SpeedyBox removes).
                packet.fix_checksums()?;
                ops.checksum_fixes += 1;
                Ok(true)
            }
            HeaderAction::Encap(spec) => {
                packet.encap_ah(spec.spi, 0)?;
                ops.encaps += 1;
                packet.fix_checksums()?;
                ops.checksum_fixes += 1;
                Ok(true)
            }
            HeaderAction::Decap(_) => {
                packet.decap_ah()?;
                ops.encaps += 1;
                packet.fix_checksums()?;
                ops.checksum_fixes += 1;
                Ok(true)
            }
        }
    }
}

impl Default for HeaderAction {
    /// The paper omits `forward` from consolidation input "because we set
    /// it as the default action if no other action is provided".
    fn default() -> Self {
        HeaderAction::Forward
    }
}

impl fmt::Display for HeaderAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HeaderAction::Forward => f.write_str("forward"),
            HeaderAction::Drop => f.write_str("drop"),
            HeaderAction::Modify(writes) => {
                f.write_str("modify(")?;
                for (i, (field, _)) in writes.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{field}")?;
                }
                f.write_str(")")
            }
            HeaderAction::Encap(s) => write!(f, "encap({s})"),
            HeaderAction::Decap(s) => write!(f, "decap({s})"),
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

    #[test]
    fn forward_is_noop() {
        let mut p = pkt();
        let before = p.as_bytes().to_vec();
        let mut ops = OpCounter::default();
        assert!(HeaderAction::Forward.apply(&mut p, &mut ops).unwrap());
        assert_eq!(p.as_bytes(), &before[..]);
        assert_eq!(ops.total(), 0);
    }

    #[test]
    fn drop_signals_discard() {
        let mut p = pkt();
        let mut ops = OpCounter::default();
        assert!(!HeaderAction::Drop.apply(&mut p, &mut ops).unwrap());
        assert_eq!(ops.drops, 1);
    }

    #[test]
    fn modify_rewrites_and_fixes_checksums() {
        let mut p = pkt();
        let mut ops = OpCounter::default();
        let act = HeaderAction::modify(HeaderField::DstIp, Ipv4Addr::new(9, 9, 9, 9));
        assert!(act.apply(&mut p, &mut ops).unwrap());
        assert_eq!(p.get_field(HeaderField::DstIp).unwrap().as_ipv4(), Ipv4Addr::new(9, 9, 9, 9));
        assert!(p.verify_checksums().unwrap());
        assert_eq!(ops.field_writes, 1);
        assert_eq!(ops.checksum_fixes, 1);
    }

    #[test]
    fn modify_applies_in_order_latter_wins() {
        let mut p = pkt();
        let mut ops = OpCounter::default();
        let act = HeaderAction::Modify(vec![
            (HeaderField::DstPort, 1u16.into()),
            (HeaderField::DstPort, 2u16.into()),
        ]);
        act.apply(&mut p, &mut ops).unwrap();
        assert_eq!(p.get_field(HeaderField::DstPort).unwrap().as_port(), 2);
    }

    #[test]
    fn encap_then_decap_restores() {
        let mut p = pkt();
        let before = p.as_bytes().to_vec();
        let mut ops = OpCounter::default();
        HeaderAction::Encap(EncapSpec::new(7)).apply(&mut p, &mut ops).unwrap();
        assert_eq!(p.ah_depth(), 1);
        HeaderAction::Decap(EncapSpec::new(7)).apply(&mut p, &mut ops).unwrap();
        assert_eq!(p.ah_depth(), 0);
        assert_eq!(p.as_bytes(), &before[..]);
        assert_eq!(ops.encaps, 2);
    }

    #[test]
    fn decap_without_encap_errors() {
        let mut p = pkt();
        let mut ops = OpCounter::default();
        assert!(HeaderAction::Decap(EncapSpec::new(7)).apply(&mut p, &mut ops).is_err());
    }

    #[test]
    fn default_is_forward() {
        assert!(HeaderAction::default().is_forward());
    }

    #[test]
    fn display_formats() {
        assert_eq!(HeaderAction::Forward.to_string(), "forward");
        assert_eq!(HeaderAction::Drop.to_string(), "drop");
        let m = HeaderAction::modify2(
            (HeaderField::DstIp, Ipv4Addr::new(1, 1, 1, 1).into()),
            (HeaderField::DstPort, 80u16.into()),
        );
        assert_eq!(m.to_string(), "modify(DIP,DPort)");
        assert_eq!(HeaderAction::Encap(EncapSpec::new(16)).to_string(), "encap(spi=0x10)");
    }
}
