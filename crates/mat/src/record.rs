//! The flow record: one per flow-table slot, shared by the Packet
//! Classifier and the Global MAT (DESIGN.md, "One flow record").
//!
//! The classifier steers a packet from its flow's record and hands the
//! record on, so the fast path reads the flow's consolidated rule, and the
//! events armed in it, with no second table walk and no Event Table lock.
//! The record is the only home of an installed flow's per-flow state: its
//! rule holds what the walk recorded — each NF's header actions and state
//! functions — and the armed events, so teardown is one record removal.
//! A published record never changes except for its `recorded` flag and
//! its events' remembered signal values: claims, installs and event
//! rewrites publish a new record under the shard writer lock, and readers
//! holding the old one keep a consistent snapshot until they let it go.

use std::sync::atomic::{AtomicBool, Ordering::Relaxed};
use std::sync::Arc;

use speedybox_packet::FiveTuple;
use speedybox_telemetry::CounterShard;

use crate::flow_table::FlowTable;
use crate::global::GlobalRule;

/// The flow table the classifier and the Global MAT share.
pub type FlowRecords = FlowTable<FlowRecord>;

/// One flow's state: who owns the FID, whether its rule was recorded, and
/// the rule itself once installed.
#[derive(Debug)]
pub struct FlowRecord {
    /// The 5-tuple that claimed this FID (collision detection). `None` for
    /// a record the control plane installed before any packet classified
    /// to it; the first packet to arrive claims it.
    pub(crate) owner: Option<FiveTuple>,
    /// The flow's initial packet has been steered (in handshake-aware
    /// mode, the post-handshake packet that records the rule).
    pub(crate) recorded: AtomicBool,
    /// The flow's consolidated fast-path rule, with its recordings and
    /// armed events.
    pub(crate) rule: Option<Arc<GlobalRule>>,
}

impl FlowRecord {
    pub(crate) fn new(
        owner: Option<FiveTuple>,
        recorded: bool,
        rule: Option<Arc<GlobalRule>>,
    ) -> Self {
        Self { owner, recorded: AtomicBool::new(recorded), rule }
    }

    /// This record with `rule` in its place; owner and recorded flag carry
    /// over.
    pub(crate) fn with_rule(&self, rule: Option<Arc<GlobalRule>>) -> Self {
        Self::new(self.owner, self.recorded.load(Relaxed), rule)
    }

    /// The flow's installed rule, if any.
    #[must_use]
    pub fn rule(&self) -> Option<&Arc<GlobalRule>> {
        self.rule.as_ref()
    }

    /// Counts this record leaving the table: `gone` (closed, evicted or
    /// expired) for a packet-owned flow, and a removed rule if it held
    /// one.
    pub(crate) fn count_departure(
        &self,
        cell: Option<&CounterShard>,
        gone: fn(&CounterShard, u64),
    ) {
        if let Some(cell) = cell {
            if self.owner.is_some() {
                gone(cell, 1);
            }
            if self.rule.is_some() {
                cell.add_rules_removed(1);
            }
        }
    }
}
