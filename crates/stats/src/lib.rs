//! Measurement utilities for the SpeedyBox reproduction: percentiles,
//! CDFs and plain-text table rendering for the figure harness. Latency
//! histograms are telemetry's (`speedybox_telemetry::HistogramSnapshot`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cdf;
pub mod summary;
pub mod table;

pub use cdf::Cdf;
pub use summary::Summary;
pub use table::Table;
