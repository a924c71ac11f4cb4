//! Fig 4: effect of header-action consolidation.
//!
//! "We vary the number of header actions ... We use a chain with 1-3
//! IPFilter NFs." Reported: CPU cycles per packet for initial and
//! subsequent packets, original chain vs SpeedyBox, on BESS (a) and
//! OpenNetVM (b).
//!
//! Paper anchors: initial packets cost thousands of cycles (new-flow ACL
//! linear match); for subsequent packets SpeedyBox costs *more* at one
//! header action (Local MAT/fast-path overhead) and saves 40.9 % / 57.7 %
//! at two / three.

use std::fmt;

use speedybox_platform::chains::ipfilter_chain;
use speedybox_platform::runtime::SboxConfig;
use speedybox_platform::{Chain, Platform};
use speedybox_stats::{table::pct_change, Table};

use crate::harness::{chain_on, flow_packets, steady_state};

/// ACL size per IPFilter (a realistic enterprise blacklist; the linear
/// scan on flow setup is the dominant initial-packet cost).
pub const ACL_RULES: usize = 200;
/// Subsequent packets measured per configuration.
pub const PACKETS: usize = 200;

/// One row: chain of `n` IPFilters.
#[derive(Debug, Clone, Copy)]
pub struct Fig4Row {
    /// Number of header actions (chain length).
    pub n: usize,
    /// Original chain, initial packet (cycles).
    pub orig_init: f64,
    /// Original chain, subsequent packets (cycles).
    pub orig_sub: f64,
    /// SpeedyBox, initial packet (cycles).
    pub sbox_init: f64,
    /// SpeedyBox, subsequent packets (cycles).
    pub sbox_sub: f64,
}

/// The full figure: one row set per environment.
#[derive(Debug, Clone)]
pub struct Fig4 {
    /// Fig 4(a).
    pub bess: Vec<Fig4Row>,
    /// Fig 4(b).
    pub onvm: Vec<Fig4Row>,
}

fn measure(env: Platform, n: usize, speedybox: bool) -> (f64, f64) {
    // Fig 4 reproduces the *published* system, whose fast path interprets
    // the consolidated action per packet — the 1-HA overhead anchor only
    // exists there. The compiled micro-op programs (DESIGN.md §8) are an
    // extension measured by the `compiled_fastpath` bench and perfgate.
    let mut chain = if speedybox {
        let config = SboxConfig { compiled: false, ..SboxConfig::default() };
        Chain::speedybox_with(ipfilter_chain(n, ACL_RULES), config).with_platform(env)
    } else {
        chain_on(env, ipfilter_chain(n, ACL_RULES), false)
    };
    let model = *chain.model();
    let pkts = flow_packets(PACKETS + 1, 2000, 10);
    let mut iter = pkts.into_iter();
    let first = chain.process(iter.next().expect("nonempty"));
    let init = first.work_cycles as f64;
    let stats = chain.run(iter);
    let sub = steady_state(&stats, &model).work_cycles;
    let _ = model;
    (init, sub)
}

fn rows(env: Platform) -> Vec<Fig4Row> {
    (1..=3)
        .map(|n| {
            let (orig_init, orig_sub) = measure(env, n, false);
            let (sbox_init, sbox_sub) = measure(env, n, true);
            Fig4Row { n, orig_init, orig_sub, sbox_init, sbox_sub }
        })
        .collect()
}

/// Runs the experiment.
#[must_use]
pub fn run() -> Fig4 {
    Fig4 { bess: rows(Platform::Bess), onvm: rows(Platform::Onvm) }
}

impl fmt::Display for Fig4 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Fig 4 — header-action consolidation (CPU cycles per packet)")?;
        writeln!(f, "chain: 1-3 IPFilters ({ACL_RULES} ACL rules each), 64 B packets\n")?;
        for (label, rows) in [("(a) BESS", &self.bess), ("(b) OpenNetVM", &self.onvm)] {
            writeln!(f, "{label}")?;
            let mut t = Table::new(vec![
                "#HA",
                "Original-init",
                "SBox-init",
                "Original-sub",
                "SBox-sub",
                "sub saving",
            ]);
            for r in rows {
                t.row(vec![
                    r.n.to_string(),
                    format!("{:.0}", r.orig_init),
                    format!("{:.0}", r.sbox_init),
                    format!("{:.0}", r.orig_sub),
                    format!("{:.0}", r.sbox_sub),
                    pct_change(r.orig_sub, r.sbox_sub),
                ]);
            }
            writeln!(f, "{t}")?;
        }
        writeln!(
            f,
            "paper: SBox-sub > Original-sub at 1 HA; -40.9% at 2 HAs, -57.7% at 3 HAs (BESS)"
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_matches_paper() {
        let fig = run();
        for rows in [&fig.bess, &fig.onvm] {
            // Initial packets are far more expensive than subsequent ones.
            for r in rows {
                assert!(r.orig_init > 3.0 * r.orig_sub, "init {} sub {}", r.orig_init, r.orig_sub);
                assert!(r.sbox_init >= r.orig_init, "recording adds init cost");
            }
            // SpeedyBox loses at 1 HA, wins at 2 and 3.
            assert!(rows[0].sbox_sub > rows[0].orig_sub);
            assert!(rows[1].sbox_sub < rows[1].orig_sub);
            assert!(rows[2].sbox_sub < rows[2].orig_sub);
            // Reductions in the paper's band (±12 points).
            let red2 = 1.0 - rows[1].sbox_sub / rows[1].orig_sub;
            let red3 = 1.0 - rows[2].sbox_sub / rows[2].orig_sub;
            assert!((0.28..=0.53).contains(&red2), "2-HA reduction {red2:.2} (paper 0.409)");
            assert!((0.45..=0.70).contains(&red3), "3-HA reduction {red3:.2} (paper 0.577)");
            // SpeedyBox sub cost is flat in N; the original grows ~linearly.
            assert!(rows[2].sbox_sub < 1.15 * rows[0].sbox_sub);
            assert!(rows[2].orig_sub > 2.5 * rows[0].orig_sub);
        }
    }
}
