//! Execution environments for SpeedyBox service chains.
//!
//! The paper prototypes SpeedyBox on two NFV platforms; this crate
//! reproduces both as laptop-scale runtimes with a calibrated cycle model
//! (see DESIGN.md for the substitution argument):
//!
//! * [`chain::Chain`] — one service chain on either [`chain::Platform`]:
//!   BESS-style (the whole chain in one run-to-completion process, module
//!   hops) or OpenNetVM-style (one core per NF, ring hops, pipelined
//!   throughput), both a deterministic cycle model whose per-packet step
//!   is written once;
//! * [`workers`] — N symmetric run-to-completion worker threads sharing
//!   one classifier + Global MAT via wait-free generation loads, each
//!   owning a FID slice (RSS-style steering) and running the same step;
//! * [`threaded`] — a real thread-per-NF OpenNetVM runtime over crossbeam
//!   rings, for wall-clock measurements and concurrency tests;
//! * [`runtime::SpeedyBox`] — the classifier + Global MAT + instrumentation
//!   bundle every runtime shares, with the Fig 7 ablation knobs
//!   ([`runtime::SboxConfig`]);
//! * [`supervisor`] — NF crash/restart checkpoints and replay;
//! * [`parallel_exec`] — real-threads execution of the Table I
//!   state-function schedule;
//! * [`cycles::CycleModel`] — abstract-operation → cycle calibration;
//! * [`chains`] — the paper's evaluation chains, prebuilt.
//!
//! # Quickstart
//!
//! ```
//! use speedybox_platform::chains::ipfilter_chain;
//! use speedybox_platform::Chain;
//! use speedybox_packet::PacketBuilder;
//!
//! let mut chain = Chain::speedybox(ipfilter_chain(3, 30));
//! let packets: Vec<_> = (0..10)
//!     .map(|i| {
//!         PacketBuilder::tcp()
//!             .src("10.0.0.1:4000".parse().unwrap())
//!             .dst("10.0.0.2:80".parse().unwrap())
//!             .payload(format!("payload {i}").as_bytes())
//!             .build()
//!     })
//!     .collect();
//! let stats = chain.run(packets);
//! assert_eq!(stats.delivered, 10);
//! // First packet took the slow path, the rest the consolidated fast path.
//! assert_eq!(stats.path_counts[1], 1);
//! assert_eq!(stats.path_counts[2], 9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod chain;
pub mod chains;
pub mod cycles;
pub mod metrics;
pub mod parallel_exec;
pub mod runtime;
pub mod supervisor;
pub mod threaded;
pub mod workers;

pub use chain::{BessChain, Chain, Platform};
pub use cycles::CycleModel;
pub use metrics::{PathKind, ProcessedPacket, RunStats};
pub use runtime::{SboxConfig, SpeedyBox};
pub use supervisor::{ReplayEntry, Supervisor};
pub use threaded::{run_threaded, run_threaded_on, ThreadedReport};
pub use workers::{run_workers, run_workers_on, WorkerReport};
