//! The reference oracle: a deliberately naive single-threaded interpreter
//! of a service chain.
//!
//! No consolidation, no sharding, no compiled programs, no MATs — every
//! packet is parsed from its frame and walked through every NF's
//! `process` literally, exactly as the uninstrumented baseline chain
//! would. Its simplicity is the point: the oracle is small enough to
//! audit by eye, so a divergence indicts the consolidated runtime, not
//! the referee.
//!
//! Semantics mirrored from the platform baselines (`Chain::original` on
//! either platform), minus cycle accounting:
//!
//! * frames that fail `Packet::from_frame` are rejected before any NF
//!   sees them (the "NIC discard" path);
//! * the FID is tagged from the 5-tuple when parseable — FID collisions
//!   therefore alias per-flow NF state here exactly as they do on the
//!   baseline path;
//! * a `Drop` verdict stops the walk at that NF;
//! * FIN/RST notifies **every** NF's `flow_closed`, even when the packet
//!   itself was dropped mid-chain.

use speedybox_mat::OpCounter;
use speedybox_nf::{Nf, NfContext};
use speedybox_packet::Packet;

/// What the oracle decided for one input frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OracleVerdict {
    /// The frame did not parse as Ethernet/IPv4/L4; no NF ran.
    Rejected,
    /// The packet survived the whole chain; these are its output frame
    /// bytes.
    Delivered(Vec<u8>),
    /// The packet was dropped by the NF at this chain index.
    Dropped {
        /// Index of the dropping NF in the chain.
        nf: usize,
    },
}

/// A reference chain instance: owns the NFs and walks packets through
/// them one at a time.
pub struct Oracle {
    nfs: Vec<Box<dyn Nf>>,
    ops: OpCounter,
}

impl Oracle {
    /// Wraps a freshly built chain.
    #[must_use]
    pub fn new(nfs: Vec<Box<dyn Nf>>) -> Self {
        Self { nfs, ops: OpCounter::default() }
    }

    /// Processes one raw frame through the chain and returns the verdict.
    pub fn process_frame(&mut self, frame: &[u8]) -> OracleVerdict {
        let Ok(mut packet) = Packet::from_frame(frame) else {
            return OracleVerdict::Rejected;
        };
        // Ingress FID tagging, as the platform runtimes do; parse failures
        // here (non-IP payloads that still framed) leave the FID unset.
        if let Ok(tuple) = packet.five_tuple() {
            packet.set_fid(tuple.fid());
        }
        let mut dropped_at = None;
        for (i, nf) in self.nfs.iter_mut().enumerate() {
            let mut ctx = NfContext::baseline(&mut self.ops);
            if !nf.process(&mut packet, &mut ctx).survives() {
                dropped_at = Some(i);
                break;
            }
        }
        // Teardown fires regardless of the drop verdict — the baseline
        // platforms notify on FIN/RST even for packets dropped mid-chain.
        if packet.tcp_flags().closes_flow() {
            if let Some(fid) = packet.fid() {
                for nf in &mut self.nfs {
                    nf.flow_closed(fid);
                }
            }
        }
        match dropped_at {
            Some(nf) => OracleVerdict::Dropped { nf },
            None => OracleVerdict::Delivered(packet.as_bytes().to_vec()),
        }
    }
}

impl std::fmt::Debug for Oracle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Oracle").field("nfs", &self.nfs.len()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use speedybox_platform::chains::build_chain;

    #[test]
    fn rejects_unparseable_frames() {
        let mut oracle = Oracle::new(build_chain("snort").unwrap());
        assert_eq!(oracle.process_frame(&[0u8; 9]), OracleVerdict::Rejected);
    }

    #[test]
    fn forwards_a_clean_packet_through_snort() {
        let mut oracle = Oracle::new(build_chain("snort").unwrap());
        let p = speedybox_packet::PacketBuilder::tcp().payload(b"hello").build();
        match oracle.process_frame(p.as_bytes()) {
            OracleVerdict::Delivered(bytes) => assert_eq!(bytes, p.as_bytes()),
            other => panic!("expected delivery, got {other:?}"),
        }
    }
}
