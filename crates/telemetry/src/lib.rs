//! Lock-free live telemetry for the SpeedyBox data plane.
//!
//! `RunStats` (in the platform crate) is a *post-run* aggregate: it only
//! exists after a workload finishes, so nothing can observe rule churn,
//! event firings or path mix while traffic is flowing, and CI has nothing
//! to gate on. This crate adds the live layer:
//!
//! * [`Telemetry`] — a sharded hub of cache-padded, relaxed-atomic
//!   counter cells ([`CounterShard`]), plus one cell per packet lane
//!   ([`LaneCounters`]). A lane's per-packet facts (path, latency,
//!   delivery, operations, fast-path hits) go to its own cell with a
//!   relaxed load and store, no locked instruction; per-flow and rarer
//!   events pay one uncontended RMW on a shard. Neither takes a lock.
//! * [`AtomicHistogram`] — fixed-bucket log2 latency histograms, one per
//!   path kind ([`PathClass`]: baseline / initial / subsequent).
//! * [`TelemetrySnapshot`] — a mergeable point-in-time copy with
//!   Prometheus text exposition and an exact-round-trip JSON dump
//!   (numbers stay `u64`; no `serde` needed).
//!
//! The crate is intentionally dependency-free so the classifier, Global
//! MAT and Event Table (in `speedybox-mat`) can sink into it without a
//! cycle. A differential test in the workspace root proves snapshot
//! totals equal the `RunStats` aggregates byte-for-byte.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod counters;
pub mod hist;
pub mod json;
pub mod snapshot;

pub use counters::{
    CounterShard, LaneCounters, OpTotals, PathClass, Telemetry, OP_KINDS, OP_NAMES,
};
pub use hist::{AtomicHistogram, HistogramSnapshot, BUCKETS};
pub use snapshot::TelemetrySnapshot;
