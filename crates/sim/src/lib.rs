#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! Deterministic simulation harness for the SpeedyBox runtime.
//!
//! The harness pits the consolidated runtime (sharded classifier, Global
//! MAT, compiled micro-op programs, Event Table) against a deliberately
//! naive **reference oracle** that executes every NF's header actions and
//! state functions literally, packet by packet, with none of the paper's
//! machinery. Both sides consume the same seeded packet trace; any
//! difference in output bytes, drop decisions, or end-of-run NF counters
//! is a **divergence**.
//!
//! Three layers:
//!
//! * [`oracle`] — the reference interpreter (baseline chain semantics);
//! * [`scenario`] + [`fault`] — seeded trace generation (malformed
//!   frames, FID collisions, mid-stream RST, SYN storms) and a scripted
//!   fault plan DSL (backend kills, compiled↔interpreted flips, flow
//!   eviction, install/remove churn from a second thread);
//! * [`runner`] + [`shrink`] + [`artifact`] — differential execution over
//!   both platform emulations, binary-search shrinking of any divergence
//!   to a minimal reproducer, and replayable JSON artifacts.
//!
//! Everything is deterministic given a seed: no wall-clock, no ambient
//! randomness. The only scheduled nondeterminism is the optional churn
//! thread, whose interference is equivalence-preserving by design (it
//! exercises shard locking and affinity-memo invalidation, not packet
//! semantics).

pub mod artifact;
pub mod fault;
pub mod json;
pub mod oracle;
pub mod runner;
pub mod scenario;
pub mod shrink;

pub use fault::{Fault, FaultAt, FaultPlan};
pub use oracle::{Oracle, OracleVerdict};
pub use runner::{run_case, BugKind, Divergence, DivergenceKind, RunOutcome, SimCase};
pub use scenario::{generate, ScenarioConfig, TraceItem};
pub use shrink::shrink;
/// The platform a [`SimCase`] runs on.
pub use speedybox_platform::Platform;
