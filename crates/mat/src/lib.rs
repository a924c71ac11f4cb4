//! SpeedyBox core: Match-Action Tables and cross-NF runtime consolidation.
//!
//! This crate implements the primary contribution of *"SpeedyBox:
//! Low-Latency NFV Service Chains with Cross-NF Runtime Consolidation"*
//! (ICDCS 2019):
//!
//! * the five standardized **header actions** and the consolidation
//!   algorithm that merges a whole service chain's actions into one
//!   ([`action`], [`mod@consolidate`]),
//! * **state functions** — typed callbacks (payload WRITE/READ/IGNORE)
//!   recorded per flow ([`state_fn`]), with the Table I dependency analysis
//!   and wavefront scheduling for cross-NF parallelism ([`parallel`]),
//! * the per-NF **Local MAT** populated through the paper's four
//!   instrumentation APIs ([`local`], [`api`]),
//! * the **Global MAT** holding the consolidated fast-path rules, each a
//!   shared rule template plus the flow's own operands ([`global`],
//!   [`template`]),
//! * the **Event Table** and the NF-raised **signals** that keep stateful
//!   NF behaviour correct on the fast path ([`event`]),
//! * the **Packet Classifier** that assigns 20-bit FIDs and steers
//!   initial vs. subsequent packets ([`classifier`]), and
//! * the **flow record** the classifier and the Global MAT share, one per
//!   flow-table slot and the only home of an installed flow's recordings
//!   and armed events ([`record`], [`flow_table`]).
//!
//! Execution environments (BESS-style and OpenNetVM-style) live in
//! `speedybox-platform`; concrete NFs live in `speedybox-nf`.
//!
//! # Quickstart
//!
//! ```
//! use speedybox_mat::action::HeaderAction;
//! use speedybox_mat::consolidate::consolidate;
//! use speedybox_packet::HeaderField;
//! use std::net::Ipv4Addr;
//!
//! // A NAT rewrites the destination IP; a load balancer rewrites it again
//! // and also the port; a firewall forwards. Consolidation folds the three
//! // NFs' actions into one (latter modify wins).
//! let chain = [
//!     HeaderAction::modify(HeaderField::DstIp, Ipv4Addr::new(10, 0, 0, 1)),
//!     HeaderAction::modify2(
//!         (HeaderField::DstIp, Ipv4Addr::new(10, 9, 9, 9).into()),
//!         (HeaderField::DstPort, 8080u16.into()),
//!     ),
//!     HeaderAction::Forward,
//! ];
//! let merged = consolidate(&chain);
//! assert!(!merged.is_drop());
//! assert_eq!(merged.modifies().len(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod action;
pub mod api;
pub mod classifier;
pub mod compiled;
pub mod consolidate;
pub mod error;
pub mod event;
pub mod flow_table;
pub mod global;
pub mod local;
#[cfg(feature = "model")]
pub mod model;
pub mod ops;
pub mod parallel;
pub mod record;
pub mod state_fn;
pub mod template;
pub mod timer_wheel;
pub mod track;

pub use action::{EncapSpec, HeaderAction};
pub use api::NfInstrument;
pub use classifier::{Classification, PacketClass, PacketClassifier};
pub use compiled::{compile, Anchor, CompiledProgram, MicroOp};
pub use consolidate::{consolidate, ConsolidatedAction};
pub use error::MatError;
pub use event::{Event, EventHandlers, EventTable, RulePatch, Signal};
pub use flow_table::{
    Admission, AdmissionPolicy, Evicted, FlowHandle, FlowTable, Opened, Pinned, FID_SPACE,
};
pub use global::{FastPathOutcome, GlobalMat, GlobalRule, HeaderExec, Served};
pub use local::{LocalMat, LocalRule, NfId};
pub use ops::OpCounter;
pub use parallel::{can_parallelize, schedule_batches};
pub use record::{FlowRecord, FlowRecords};
pub use state_fn::{PayloadAccess, SfContext, StateFunction};
pub use template::{BoundProgram, RuleTemplate};
pub use timer_wheel::{TimerWheel, WheelItem};
pub use track::{AccessViolation, MissedRaise};

/// Result alias for MAT operations.
pub type Result<T, E = MatError> = core::result::Result<T, E>;
