//! Synthetic NFs for micro-benchmarking (paper §VII-A).
//!
//! Fig 5 uses "a chain of 1-3 identical synthetic NFs ... The synthetic NF
//! has no header action, and has one state function that is equivalent to
//! the Snort packet inspection (does not modify payload)". [`SyntheticNf`]
//! generalizes that: any header action, plus an optional state function of
//! configurable payload access and work amount, so every cell of Table I
//! and every micro-benchmark axis can be exercised.

use std::hint::black_box;

use speedybox_mat::state_fn::PayloadAccess;
use speedybox_mat::{HeaderAction, StateFunction};
use speedybox_packet::Packet;

use crate::nf::{Nf, NfContext, NfVerdict};

/// Configuration of a synthetic state function.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SyntheticSf {
    /// Declared (and actual) payload access.
    pub access: PayloadAccess,
    /// How many passes over the payload the function makes — the knob that
    /// scales per-packet work (1 pass ≈ one Snort inspection).
    pub scan_passes: u32,
}

impl SyntheticSf {
    /// A Snort-inspection-equivalent function: one READ pass.
    #[must_use]
    pub fn snort_like() -> Self {
        Self { access: PayloadAccess::Read, scan_passes: 1 }
    }
}

/// Performs the synthetic work on a payload; returns a value derived from
/// the bytes so the optimizer cannot discard the scan.
fn scan(payload: &mut [u8], sf: SyntheticSf) -> u64 {
    let mut acc = 0u64;
    for _ in 0..sf.scan_passes {
        match sf.access {
            PayloadAccess::Ignore => {
                // Fixed work independent of the payload.
                for i in 0..64u64 {
                    acc = acc.wrapping_mul(31).wrapping_add(black_box(i));
                }
            }
            PayloadAccess::Read => {
                for &b in payload.iter() {
                    acc = acc.wrapping_mul(31).wrapping_add(u64::from(b));
                }
            }
            PayloadAccess::Write => {
                for b in payload.iter_mut() {
                    *b = b.wrapping_add(1);
                    acc = acc.wrapping_add(u64::from(*b));
                }
            }
        }
    }
    black_box(acc)
}

/// A configurable synthetic network function.
#[derive(Debug, Clone)]
pub struct SyntheticNf {
    name: String,
    header_action: HeaderAction,
    state_function: Option<SyntheticSf>,
    // SPEEDYBOX-INTEGRATION-BEGIN (synthetic/handler: 1 line)
    /// `state_function` as recorded, built once for all flows.
    recorded_sf: Option<StateFunction>,
    // SPEEDYBOX-INTEGRATION-END
}

impl SyntheticNf {
    /// A pure-forward NF with no state function.
    #[must_use]
    pub fn forward(name: impl Into<String>) -> Self {
        let name = name.into();
        Self { name, header_action: HeaderAction::Forward, state_function: None, recorded_sf: None }
    }

    /// Sets the header action.
    #[must_use]
    pub fn with_header_action(mut self, action: HeaderAction) -> Self {
        self.header_action = action;
        self
    }

    /// Attaches a state function.
    #[must_use]
    pub fn with_state_function(mut self, sf: SyntheticSf) -> Self {
        self.state_function = Some(sf);
        // SPEEDYBOX-INTEGRATION-BEGIN (synthetic/handler: 4 lines)
        let name = format!("{}.sf", self.name);
        self.recorded_sf = Some(StateFunction::new(name, sf.access, move |sfctx| {
            Self::run_sf(sfctx.packet, sf, sfctx.ops);
        }));
        // SPEEDYBOX-INTEGRATION-END
        self
    }

    /// The paper's Fig 5 NF: no header action, one Snort-like READ state
    /// function.
    #[must_use]
    pub fn snort_like(name: impl Into<String>) -> Self {
        Self::forward(name).with_state_function(SyntheticSf::snort_like())
    }

    fn run_sf(packet: &mut Packet, sf: SyntheticSf, ops: &mut speedybox_mat::OpCounter) {
        let payload_len = packet.payload().map(<[u8]>::len).unwrap_or(0);
        if let Ok(payload) = packet.payload_mut() {
            scan(payload, sf);
        }
        match sf.access {
            PayloadAccess::Ignore => ops.state_updates += u64::from(sf.scan_passes),
            PayloadAccess::Read => {
                ops.payload_bytes_scanned += payload_len as u64 * u64::from(sf.scan_passes);
            }
            PayloadAccess::Write => {
                ops.payload_bytes_scanned += payload_len as u64 * u64::from(sf.scan_passes);
                // A payload-writing NF must leave valid checksums behind —
                // the contract every WRITE state function upholds so the
                // consolidated path stays byte-equivalent.
                if packet.fix_checksums().is_ok() {
                    ops.checksum_fixes += 1;
                }
            }
        }
    }
}

impl Nf for SyntheticNf {
    fn name(&self) -> &str {
        &self.name
    }

    fn process(&mut self, packet: &mut Packet, ctx: &mut NfContext<'_>) -> NfVerdict {
        let survived = self.header_action.apply(packet, ctx.ops).unwrap_or(false);
        if survived {
            if let Some(sf) = self.state_function {
                Self::run_sf(packet, sf, ctx.ops);
            }
        }
        // SPEEDYBOX-INTEGRATION-BEGIN (synthetic: 7 lines)
        if let Some(inst) = ctx.instrument {
            let fid = inst.extract_fid(packet).unwrap_or_default();
            inst.add_header_action(fid, self.header_action.clone(), ctx.ops);
            if let Some(sf) = &self.recorded_sf {
                inst.add_state_function_handle(fid, sf.clone(), ctx.ops);
            }
        }
        // SPEEDYBOX-INTEGRATION-END
        if survived {
            NfVerdict::Forward
        } else {
            NfVerdict::Drop
        }
    }
}

/// Builds the Fig 5 chain: `n` identical Snort-like synthetic NFs.
#[must_use]
pub fn snort_like_chain(n: usize) -> Vec<SyntheticNf> {
    (0..n).map(|i| SyntheticNf::snort_like(format!("synthetic-{i}"))).collect()
}

/// Needed by chain constructors that want `Box<dyn Nf>` elements.
impl From<SyntheticNf> for Box<dyn Nf> {
    fn from(nf: SyntheticNf) -> Self {
        Box::new(nf)
    }
}

#[cfg(test)]
mod tests {
    use speedybox_mat::OpCounter;
    use speedybox_packet::{HeaderField, PacketBuilder};

    use super::*;

    fn packet() -> Packet {
        let mut p = PacketBuilder::tcp().payload(b"0123456789").build();
        let fid = p.five_tuple().unwrap().fid();
        p.set_fid(fid);
        p
    }

    #[test]
    fn forward_passes_through() {
        let mut nf = SyntheticNf::forward("s");
        let mut ops = OpCounter::default();
        let mut ctx = NfContext::baseline(&mut ops);
        let mut p = packet();
        let before = p.as_bytes().to_vec();
        assert_eq!(nf.process(&mut p, &mut ctx), NfVerdict::Forward);
        assert_eq!(p.as_bytes(), &before[..]);
    }

    #[test]
    fn drop_action_drops() {
        let mut nf = SyntheticNf::forward("s").with_header_action(HeaderAction::Drop);
        let mut ops = OpCounter::default();
        let mut ctx = NfContext::baseline(&mut ops);
        assert_eq!(nf.process(&mut packet(), &mut ctx), NfVerdict::Drop);
    }

    #[test]
    fn modify_action_applies() {
        let mut nf = SyntheticNf::forward("s")
            .with_header_action(HeaderAction::modify(HeaderField::DstPort, 999u16));
        let mut ops = OpCounter::default();
        let mut ctx = NfContext::baseline(&mut ops);
        let mut p = packet();
        nf.process(&mut p, &mut ctx);
        assert_eq!(p.get_field(HeaderField::DstPort).unwrap().as_port(), 999);
    }

    #[test]
    fn read_sf_does_not_modify_payload() {
        let mut nf = SyntheticNf::snort_like("s");
        let mut ops = OpCounter::default();
        let mut ctx = NfContext::baseline(&mut ops);
        let mut p = packet();
        nf.process(&mut p, &mut ctx);
        assert_eq!(p.payload().unwrap(), b"0123456789");
        assert_eq!(ops.payload_bytes_scanned, 10);
    }

    #[test]
    fn write_sf_modifies_payload() {
        let mut nf = SyntheticNf::forward("s")
            .with_state_function(SyntheticSf { access: PayloadAccess::Write, scan_passes: 1 });
        let mut ops = OpCounter::default();
        let mut ctx = NfContext::baseline(&mut ops);
        let mut p = packet();
        nf.process(&mut p, &mut ctx);
        assert_eq!(p.payload().unwrap()[0], b'0' + 1);
    }

    #[test]
    fn scan_passes_scale_work() {
        let mut nf = SyntheticNf::forward("s")
            .with_state_function(SyntheticSf { access: PayloadAccess::Read, scan_passes: 3 });
        let mut ops = OpCounter::default();
        let mut ctx = NfContext::baseline(&mut ops);
        nf.process(&mut packet(), &mut ctx);
        assert_eq!(ops.payload_bytes_scanned, 30);
    }

    #[test]
    fn instrumented_records_matching_sf_access() {
        use std::sync::Arc as StdArc;

        use speedybox_mat::{EventTable, LocalMat, NfId, NfInstrument};

        let mut nf = SyntheticNf::snort_like("s");
        let inst = NfInstrument::new(
            StdArc::new(LocalMat::new(NfId::new(0))),
            StdArc::new(EventTable::new()),
        );
        let mut ops = OpCounter::default();
        let mut p = packet();
        let mut ctx = NfContext::instrumented(&inst, &mut ops);
        nf.process(&mut p, &mut ctx);
        let rule = inst.local_mat().rule(p.fid().unwrap()).unwrap();
        assert_eq!(rule.state_functions[0].access(), PayloadAccess::Read);
    }

    #[test]
    fn chain_helper_builds_n() {
        let chain = snort_like_chain(3);
        assert_eq!(chain.len(), 3);
        assert_eq!(chain[2].name(), "synthetic-2");
    }
}
