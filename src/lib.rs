//! SpeedyBox: low-latency NFV service chains with cross-NF runtime
//! consolidation — a Rust reproduction of the ICDCS 2019 paper.
//!
//! This meta-crate re-exports the workspace:
//!
//! * [`packet`] — the packet substrate (headers, buffers, flow identity);
//! * [`mat`] — the paper's core: Local/Global MATs, Event Table,
//!   consolidation, parallelism analysis;
//! * [`nf`] — the evaluated network functions (Snort-lite, Maglev,
//!   IPFilter, Monitor, MazuNAT, …);
//! * [`platform`] — BESS-style and OpenNetVM-style execution environments
//!   with a calibrated cycle model;
//! * [`telemetry`] — lock-free runtime counters and latency histograms
//!   with Prometheus/JSON exposition;
//! * [`traffic`] — deterministic datacenter-style workload synthesis;
//! * [`stats`] — CDFs, percentiles and table rendering;
//! * [`verify`] — the static chain verifier behind `speedybox lint`
//!   (consolidation soundness, event-rewrite safety, schedule safety);
//!   the [`lint`] module holds the chain registry and lint driver.
//!
//! See the `examples/` directory for runnable walkthroughs and
//! `crates/bench` for the harness regenerating every table and figure of
//! the paper.
//!
//! ```
//! use speedybox::platform::Chain;
//! use speedybox::platform::chains::ipfilter_chain;
//! use speedybox::packet::PacketBuilder;
//!
//! let mut chain = Chain::speedybox(ipfilter_chain(3, 30));
//! let pkt = PacketBuilder::tcp().payload(b"hello").build();
//! let out = chain.process(pkt);
//! assert!(out.survived());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod lint;

pub use speedybox_mat as mat;
pub use speedybox_nf as nf;
pub use speedybox_packet as packet;
pub use speedybox_platform as platform;
pub use speedybox_sim as sim;
pub use speedybox_stats as stats;
pub use speedybox_telemetry as telemetry;
pub use speedybox_traffic as traffic;
pub use speedybox_verify as verify;
