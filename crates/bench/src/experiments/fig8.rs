//! Fig 8: long service chains.
//!
//! "We use a chain with 1-9 IPFilters ... Note that in OpenNetVM, we can
//! only support a maximum chain length of 5, limited by the number of
//! cores on our testbed; for BESS, there is no such limit."
//!
//! Paper anchors: SpeedyBox latency is "nearly irrelevant to the chain
//! length"; original latency grows linearly; BESS rate collapses with
//! length while SpeedyBox holds it; ONVM rate is flat either way.

use std::fmt;

use speedybox_platform::chains::ipfilter_chain;
use speedybox_platform::Platform;
use speedybox_stats::Table;

use crate::harness::{chain_on, flow_packets, steady_state};

/// ACL rules per IPFilter.
pub const ACL_RULES: usize = 200;
/// Packets measured per configuration.
pub const PACKETS: usize = 200;
/// Maximum ONVM chain length (core-count limit on the paper's testbed).
pub const ONVM_MAX: usize = 5;
/// Maximum BESS chain length.
pub const BESS_MAX: usize = 9;

/// One point.
#[derive(Debug, Clone, Copy)]
pub struct Fig8Point {
    /// Chain length.
    pub n: usize,
    /// Latency, µs.
    pub latency_us: f64,
    /// Rate, Mpps.
    pub rate_mpps: f64,
}

/// One series.
#[derive(Debug, Clone)]
pub struct Fig8Series {
    /// Environment.
    pub env: Platform,
    /// SpeedyBox enabled?
    pub speedybox: bool,
    /// Points for the lengths this environment supports.
    pub points: Vec<Fig8Point>,
}

/// The full figure.
#[derive(Debug, Clone)]
pub struct Fig8 {
    /// All four series.
    pub series: Vec<Fig8Series>,
}

fn series(env: Platform, speedybox: bool) -> Fig8Series {
    let max = match env {
        Platform::Bess => BESS_MAX,
        Platform::Onvm => ONVM_MAX,
    };
    let points = (1..=max)
        .map(|n| {
            let mut chain = chain_on(env, ipfilter_chain(n, ACL_RULES), speedybox);
            let model = *chain.model();
            let pkts = flow_packets(PACKETS + 1, 2300, 10);
            let mut iter = pkts.into_iter();
            let _warmup = chain.process(iter.next().expect("nonempty"));
            let stats = chain.run(iter);
            let ss = steady_state(&stats, &model);
            Fig8Point { n, latency_us: ss.latency_us, rate_mpps: chain.rate_mpps(&stats) }
        })
        .collect();
    Fig8Series { env, speedybox, points }
}

/// Runs the experiment.
#[must_use]
pub fn run() -> Fig8 {
    let mut all = Vec::new();
    for env in Platform::ALL {
        for sbox in [false, true] {
            all.push(series(env, sbox));
        }
    }
    Fig8 { series: all }
}

impl Fig8 {
    /// Finds a series.
    #[must_use]
    pub fn get(&self, env: Platform, speedybox: bool) -> &Fig8Series {
        self.series
            .iter()
            .find(|s| s.env == env && s.speedybox == speedybox)
            .expect("all four series present")
    }
}

impl fmt::Display for Fig8 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Fig 8 — service chains of length 1-9 (ONVM capped at 5 by core count)\n")?;
        let cell = |s: &Fig8Series, n: usize, rate: bool| -> String {
            s.points
                .iter()
                .find(|p| p.n == n)
                .map(|p| {
                    if rate {
                        format!("{:.2}", p.rate_mpps)
                    } else {
                        format!("{:.2}", p.latency_us)
                    }
                })
                .unwrap_or_else(|| "—".to_owned())
        };
        for (title, rate) in [("processing latency (us)", false), ("processing rate (Mpps)", true)]
        {
            writeln!(f, "{title}")?;
            let mut t = Table::new(vec!["len", "BESS", "BESS w/ SBox", "ONVM", "ONVM w/ SBox"]);
            for n in 1..=BESS_MAX {
                t.row(vec![
                    n.to_string(),
                    cell(self.get(Platform::Bess, false), n, rate),
                    cell(self.get(Platform::Bess, true), n, rate),
                    cell(self.get(Platform::Onvm, false), n, rate),
                    cell(self.get(Platform::Onvm, true), n, rate),
                ]);
            }
            writeln!(f, "{t}")?;
        }
        writeln!(
            f,
            "paper: SpeedyBox latency ~flat in chain length; original grows; ONVM rate flat"
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_matches_paper() {
        let fig = run();
        let bess_orig = fig.get(Platform::Bess, false);
        let bess_sbox = fig.get(Platform::Bess, true);
        let onvm_orig = fig.get(Platform::Onvm, false);
        let onvm_sbox = fig.get(Platform::Onvm, true);

        // Original latency grows roughly linearly with length.
        let l1 = bess_orig.points[0].latency_us;
        let l9 = bess_orig.points[8].latency_us;
        assert!(l9 > 6.0 * l1, "BESS original latency must grow: {l1} -> {l9}");

        // SpeedyBox latency is ~flat (within 20% from 1 to 9 NFs).
        let s1 = bess_sbox.points[0].latency_us;
        let s9 = bess_sbox.points[8].latency_us;
        assert!(s9 < 1.2 * s1, "SpeedyBox latency must stay flat: {s1} -> {s9}");

        // At length 9 the gap is large.
        assert!(l9 > 4.0 * s9, "long chains: SpeedyBox wins big ({l9} vs {s9})");

        // ONVM rates ~flat for both (pipelined).
        let r1 = onvm_orig.points[0].rate_mpps;
        let r5 = onvm_orig.points[4].rate_mpps;
        assert!((r5 - r1).abs() / r1 < 0.2, "ONVM original rate flat: {r1} vs {r5}");
        let sr1 = onvm_sbox.points[0].rate_mpps;
        let sr5 = onvm_sbox.points[4].rate_mpps;
        assert!((sr5 - sr1).abs() / sr1 < 0.2, "ONVM SBox rate flat: {sr1} vs {sr5}");

        // BESS with SpeedyBox maintains rate while the original collapses.
        let br1 = fig.get(Platform::Bess, false).points[0].rate_mpps;
        let br9 = fig.get(Platform::Bess, false).points[8].rate_mpps;
        assert!(br9 < 0.3 * br1, "BESS original rate collapses with length");
        let bs1 = fig.get(Platform::Bess, true).points[0].rate_mpps;
        let bs9 = fig.get(Platform::Bess, true).points[8].rate_mpps;
        assert!(bs9 > 0.8 * bs1, "BESS SBox rate holds with length");

        // ONVM stops at 5.
        assert_eq!(onvm_orig.points.len(), ONVM_MAX);
        assert_eq!(bess_orig.points.len(), BESS_MAX);
    }
}
