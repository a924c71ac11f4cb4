//! Fig 5: effect of state-function parallelism.
//!
//! "We use a chain of 1-3 identical synthetic NFs ... The synthetic NF has
//! no header action, and has one state function that is equivalent to the
//! Snort packet inspection (does not modify payload)."
//!
//! Paper anchors: BESS rate decays with chain length while SpeedyBox keeps
//! it ~flat (2.1× at 3 NFs); ONVM rate is flat either way (pipelining);
//! SpeedyBox cuts latency by 59 % at three state functions (bound
//! (N−1)/N) and *adds* a little overhead at one.

use std::fmt;

use speedybox_platform::chains::synthetic_sf_chain;
use speedybox_platform::Platform;
use speedybox_stats::{table::pct_change, table::ratio, Table};

use crate::harness::{chain_on, flow_packets, steady_state};

/// Scan passes per synthetic state function: calibrated so one SF costs
/// about what a Snort inspection costs (~2400 cycles on a 64 B packet).
pub const SCAN_PASSES: u32 = 80;
/// Packets measured per configuration.
pub const PACKETS: usize = 300;

/// One measurement point.
#[derive(Debug, Clone, Copy)]
pub struct Fig5Point {
    /// Number of state functions (chain length).
    pub n: usize,
    /// Processing rate, Mpps.
    pub rate_mpps: f64,
    /// Per-packet latency, µs.
    pub latency_us: f64,
}

/// One series (environment × original/SpeedyBox).
#[derive(Debug, Clone)]
pub struct Fig5Series {
    /// Environment.
    pub env: Platform,
    /// SpeedyBox enabled?
    pub speedybox: bool,
    /// Points for n = 1..=3.
    pub points: Vec<Fig5Point>,
}

/// The full figure.
#[derive(Debug, Clone)]
pub struct Fig5 {
    /// All four series.
    pub series: Vec<Fig5Series>,
}

fn series(env: Platform, speedybox: bool) -> Fig5Series {
    let points = (1..=3)
        .map(|n| {
            let mut chain = chain_on(env, synthetic_sf_chain(n, SCAN_PASSES), speedybox);
            let model = *chain.model();
            let pkts = flow_packets(PACKETS + 1, 2200, 10);
            let mut iter = pkts.into_iter();
            let _warmup = chain.process(iter.next().expect("nonempty"));
            let stats = chain.run(iter);
            let ss = steady_state(&stats, &model);
            Fig5Point { n, rate_mpps: chain.rate_mpps(&stats), latency_us: ss.latency_us }
        })
        .collect();
    Fig5Series { env, speedybox, points }
}

/// Runs the experiment.
#[must_use]
pub fn run() -> Fig5 {
    let mut all = Vec::new();
    for env in Platform::ALL {
        for sbox in [false, true] {
            all.push(series(env, sbox));
        }
    }
    Fig5 { series: all }
}

impl Fig5 {
    /// Finds a series.
    #[must_use]
    pub fn get(&self, env: Platform, speedybox: bool) -> &Fig5Series {
        self.series
            .iter()
            .find(|s| s.env == env && s.speedybox == speedybox)
            .expect("all four series present")
    }
}

impl fmt::Display for Fig5 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Fig 5 — state-function parallelism")?;
        writeln!(
            f,
            "chain: 1-3 synthetic NFs, one Snort-equivalent payload-READ SF each, 64 B packets\n"
        )?;
        writeln!(f, "(a) processing rate (Mpps)")?;
        let mut t = Table::new(vec!["#SF", "BESS", "BESS w/ SBox", "ONVM", "ONVM w/ SBox"]);
        for i in 0..3 {
            t.row(vec![
                (i + 1).to_string(),
                format!("{:.2}", self.get(Platform::Bess, false).points[i].rate_mpps),
                format!("{:.2}", self.get(Platform::Bess, true).points[i].rate_mpps),
                format!("{:.2}", self.get(Platform::Onvm, false).points[i].rate_mpps),
                format!("{:.2}", self.get(Platform::Onvm, true).points[i].rate_mpps),
            ]);
        }
        writeln!(f, "{t}")?;
        let b3 = self.get(Platform::Bess, true).points[2].rate_mpps;
        let o3 = self.get(Platform::Bess, false).points[2].rate_mpps;
        writeln!(f, "BESS speedup at 3 SFs: {} (paper: 2.1x)\n", ratio(b3, o3))?;

        writeln!(f, "(b) processing latency (us)")?;
        let mut t = Table::new(vec!["#SF", "BESS", "BESS w/ SBox", "ONVM", "ONVM w/ SBox"]);
        for i in 0..3 {
            t.row(vec![
                (i + 1).to_string(),
                format!("{:.2}", self.get(Platform::Bess, false).points[i].latency_us),
                format!("{:.2}", self.get(Platform::Bess, true).points[i].latency_us),
                format!("{:.2}", self.get(Platform::Onvm, false).points[i].latency_us),
                format!("{:.2}", self.get(Platform::Onvm, true).points[i].latency_us),
            ]);
        }
        writeln!(f, "{t}")?;
        let red = pct_change(
            self.get(Platform::Bess, false).points[2].latency_us,
            self.get(Platform::Bess, true).points[2].latency_us,
        );
        writeln!(f, "BESS latency change at 3 SFs: {red} (paper: -59%)")
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

        // BESS original rate decays ~1/N; SpeedyBox keeps it ~flat.
        assert!(bess_orig.points[2].rate_mpps < 0.45 * bess_orig.points[0].rate_mpps);
        assert!(bess_sbox.points[2].rate_mpps > 0.85 * bess_sbox.points[0].rate_mpps);
        // Speedup at 3 SFs in the paper's band around 2.1x.
        let speedup = bess_sbox.points[2].rate_mpps / bess_orig.points[2].rate_mpps;
        assert!((1.6..=3.2).contains(&speedup), "speedup {speedup:.2} (paper 2.1)");

        // ONVM rate ~flat with and without SpeedyBox (pipelining).
        assert!(onvm_orig.points[2].rate_mpps > 0.8 * onvm_orig.points[0].rate_mpps);
        assert!(onvm_sbox.points[2].rate_mpps > 0.8 * onvm_sbox.points[0].rate_mpps);

        // Latency: SpeedyBox ~flat and far below the originals at 3 SFs;
        // slight overhead at 1 SF.
        let red_bess = 1.0 - bess_sbox.points[2].latency_us / bess_orig.points[2].latency_us;
        assert!((0.45..=0.72).contains(&red_bess), "reduction {red_bess:.2} (paper 0.59)");
        assert!(bess_sbox.points[0].latency_us > bess_orig.points[0].latency_us);
        // ONVM latency with SpeedyBox also ~flat and lower at 3 SFs.
        assert!(onvm_sbox.points[2].latency_us < onvm_orig.points[2].latency_us);
        // The optimal bound (N-1)/N is respected: the SF portion cannot
        // shrink by more than 2/3 at N=3.
        assert!(red_bess < 2.0 / 3.0 + 0.05);
    }
}
