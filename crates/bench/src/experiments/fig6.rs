//! Fig 6: both optimizations on the Snort+Monitor chain.
//!
//! "Figure 6 shows the CPU cycle reduction and processing rate improvement
//! of the Snort+Monitor chain. SpeedyBox reduces CPU cycles of per packet
//! processing by 46.3% and 47.4% for BESS and OpenNetVM ... improves the
//! processing rate of BESS by 32.1% ... does not improve the processing
//! rate of OpenNetVM" (pipelining already hides chain depth there).

use std::fmt;

use speedybox_platform::chains::snort_monitor_chain;
use speedybox_platform::Platform;
use speedybox_stats::{table::pct_change, Table};

use crate::harness::{chain_on, steady_state};
use speedybox_packet::{Packet, PacketBuilder};

/// Flows in the measurement workload.
pub const FLOWS: usize = 20;
/// Packets per flow.
pub const PACKETS_PER_FLOW: usize = 30;

/// One environment's numbers.
#[derive(Debug, Clone, Copy)]
pub struct Fig6Env {
    /// Environment.
    pub env: Platform,
    /// Original chain cycles per packet.
    pub orig_cycles: f64,
    /// SpeedyBox cycles per packet.
    pub sbox_cycles: f64,
    /// Original rate (Mpps).
    pub orig_rate: f64,
    /// SpeedyBox rate (Mpps).
    pub sbox_rate: f64,
}

/// The full figure.
#[derive(Debug, Clone)]
pub struct Fig6 {
    /// BESS and ONVM.
    pub envs: Vec<Fig6Env>,
}

/// 64 B packets across several flows; payloads kept clean so the numbers
/// measure steady inspection cost, not alert formatting.
fn workload() -> Vec<Packet> {
    let mut out = Vec::new();
    for round in 0..PACKETS_PER_FLOW {
        for flow in 0..FLOWS {
            out.push(
                PacketBuilder::tcp()
                    .src(format!("10.0.0.1:{}", 3000 + flow).parse().unwrap())
                    .dst("10.0.0.2:80".parse().unwrap())
                    .seq(u32::try_from(round).unwrap())
                    .payload(b"benignbody")
                    .pad_to(64)
                    .build(),
            );
        }
    }
    out
}

fn measure(env: Platform, speedybox: bool) -> (f64, f64) {
    let (nfs, _handles) = snort_monitor_chain();
    let mut chain = chain_on(env, nfs, speedybox);
    let model = *chain.model();
    // Warm up: one packet per flow fills caches and installs rules.
    let all = workload();
    let (warmup, measured) = all.split_at(FLOWS);
    chain.run(warmup.to_vec());
    let stats = chain.run(measured.to_vec());
    (steady_state(&stats, &model).work_cycles, chain.rate_mpps(&stats))
}

/// Runs the experiment.
#[must_use]
pub fn run() -> Fig6 {
    let envs = Platform::ALL
        .into_iter()
        .map(|env| {
            let (orig_cycles, orig_rate) = measure(env, false);
            let (sbox_cycles, sbox_rate) = measure(env, true);
            Fig6Env { env, orig_cycles, sbox_cycles, orig_rate, sbox_rate }
        })
        .collect();
    Fig6 { envs }
}

impl fmt::Display for Fig6 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Fig 6 — consolidation + parallelism on the Snort+Monitor chain\n")?;
        writeln!(f, "(a) CPU cycles per packet")?;
        let mut t = Table::new(vec!["", "Original", "w/ SBox", "change"]);
        for e in &self.envs {
            t.row(vec![
                e.env.label().to_owned(),
                format!("{:.0}", e.orig_cycles),
                format!("{:.0}", e.sbox_cycles),
                pct_change(e.orig_cycles, e.sbox_cycles),
            ]);
        }
        writeln!(f, "{t}")?;
        writeln!(f, "paper: -46.3% (BESS), -47.4% (ONVM)\n")?;
        writeln!(f, "(b) processing rate (Mpps)")?;
        let mut t = Table::new(vec!["", "Original", "w/ SBox", "change"]);
        for e in &self.envs {
            t.row(vec![
                e.env.label().to_owned(),
                format!("{:.2}", e.orig_rate),
                format!("{:.2}", e.sbox_rate),
                pct_change(e.orig_rate, e.sbox_rate),
            ]);
        }
        writeln!(f, "{t}")?;
        writeln!(f, "paper: +32.1% (BESS); ~unchanged (ONVM, already pipelined)")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_matches_paper() {
        let fig = run();
        let bess = fig.envs.iter().find(|e| e.env == Platform::Bess).unwrap();
        let onvm = fig.envs.iter().find(|e| e.env == Platform::Onvm).unwrap();

        // Substantial per-packet cycle reduction on both platforms.
        let red_bess = 1.0 - bess.sbox_cycles / bess.orig_cycles;
        let red_onvm = 1.0 - onvm.sbox_cycles / onvm.orig_cycles;
        assert!((0.25..=0.60).contains(&red_bess), "BESS cycle cut {red_bess:.2} (paper 0.463)");
        assert!((0.25..=0.60).contains(&red_onvm), "ONVM cycle cut {red_onvm:.2} (paper 0.474)");

        // BESS rate improves noticeably; ONVM rate does not degrade and
        // improves far less in relative terms... or not at all.
        let bess_gain = bess.sbox_rate / bess.orig_rate;
        assert!(bess_gain > 1.15, "BESS rate gain {bess_gain:.2} (paper 1.32)");
        assert!(onvm.sbox_rate > 0.9 * onvm.orig_rate, "ONVM rate must not collapse");
    }
}
