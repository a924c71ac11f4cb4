//! Table III: early packet drop saves CPU cycles.
//!
//! "We use a chain with three IPFilters (NF1, NF2, NF3) and set the
//! corresponding actions as {forward, forward, drop} for all flows ...
//! With SpeedyBox, however, subsequent packets can be dropped early when
//! they arrive at the chain." Paper: −65.0 % (BESS) / −64.8 % (ONVM)
//! aggregate cycles.

use std::fmt;

use speedybox_mat::OpCounter;
use speedybox_nf::ipfilter::{AclRule, IpFilter};
use speedybox_nf::{Nf, NfContext};
use speedybox_platform::cycles::CycleModel;
use speedybox_platform::Platform;
use speedybox_stats::{table::pct_change, Table};

use crate::harness::{chain_on, flow_packets};

/// ACL size per IPFilter.
pub const ACL_RULES: usize = 200;
/// Subsequent packets measured.
pub const PACKETS: usize = 200;

/// Per-environment results.
#[derive(Debug, Clone)]
pub struct Table3Env {
    /// The environment.
    pub env: Platform,
    /// Original chain: steady per-NF processing cycles (NF1, NF2, NF3).
    pub per_nf: [f64; 3],
    /// Original aggregate cycles per packet.
    pub original: f64,
    /// SpeedyBox aggregate cycles per packet (early drop).
    pub speedybox: f64,
}

/// The full table.
#[derive(Debug, Clone)]
pub struct Table3 {
    /// BESS and ONVM rows.
    pub envs: Vec<Table3Env>,
}

fn forward_forward_drop() -> Vec<Box<dyn Nf>> {
    let deny = IpFilter::new(vec![AclRule::deny_dst("10.0.0.2".parse().unwrap())]);
    vec![
        Box::new(IpFilter::pass_through(ACL_RULES)),
        Box::new(IpFilter::pass_through(ACL_RULES)),
        Box::new(deny),
    ]
}

/// Steady-state per-NF processing cycles on the original chain (measured
/// by driving the NFs directly, as the paper's per-NF cycle counters do).
fn per_nf_cycles(model: &CycleModel) -> [f64; 3] {
    let mut nfs = forward_forward_drop();
    let pkts = flow_packets(PACKETS + 1, 2100, 10);
    let mut totals = [0u64; 3];
    for (i, pkt) in pkts.into_iter().enumerate() {
        let mut p = pkt;
        let fid = p.five_tuple().unwrap().fid();
        p.set_fid(fid);
        for (j, nf) in nfs.iter_mut().enumerate() {
            let mut ops = OpCounter::default();
            let mut ctx = NfContext::baseline(&mut ops);
            let verdict = nf.process(&mut p, &mut ctx);
            if i > 0 {
                totals[j] += model.cycles(&ops);
            }
            if !verdict.survives() {
                break;
            }
        }
    }
    totals.map(|t| t as f64 / PACKETS as f64)
}

fn aggregate(env: Platform, speedybox: bool) -> f64 {
    let mut chain = chain_on(env, forward_forward_drop(), speedybox);
    let model = *chain.model();
    let pkts = flow_packets(PACKETS + 1, 2100, 10);
    let mut iter = pkts.into_iter();
    let _warmup = chain.process(iter.next().expect("nonempty"));
    let stats = chain.run(iter);
    crate::harness::steady_state(&stats, &model).work_cycles
}

/// Runs the experiment.
#[must_use]
pub fn run() -> Table3 {
    let envs = Platform::ALL
        .into_iter()
        .map(|env| {
            let model = CycleModel::new();
            Table3Env {
                env,
                per_nf: per_nf_cycles(&model),
                original: aggregate(env, false),
                speedybox: aggregate(env, true),
            }
        })
        .collect();
    Table3 { envs }
}

impl fmt::Display for Table3 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Table III — early packet drop saves CPU cycles")?;
        writeln!(f, "chain: IPFilter x3 with actions {{forward, forward, drop}}\n")?;
        let mut t = Table::new(vec!["(CPU cycle)", "NF1", "NF2", "NF3", "Aggregate", "saving"]);
        for e in &self.envs {
            t.row(vec![
                e.env.label().to_owned(),
                format!("{:.0}", e.per_nf[0]),
                format!("{:.0}", e.per_nf[1]),
                format!("{:.0}", e.per_nf[2]),
                format!("{:.0}", e.original),
                "—".to_owned(),
            ]);
            t.row(vec![
                format!("{} w/ SBox", e.env.label()),
                "—".to_owned(),
                "—".to_owned(),
                "—".to_owned(),
                format!("{:.0}", e.speedybox),
                pct_change(e.original, e.speedybox),
            ]);
        }
        writeln!(f, "{t}")?;
        writeln!(f, "paper: 1689 -> 591 (-65.0%) on BESS; 1620 -> 570 (-64.8%) on ONVM")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_matches_paper() {
        let t = run();
        for e in &t.envs {
            // Early drop saves roughly two of the three NF traversals.
            let saving = 1.0 - e.speedybox / e.original;
            assert!(
                (0.55..=0.75).contains(&saving),
                "{}: saving {saving:.2} (paper ~0.65)",
                e.env.label()
            );
            // Per-NF steady costs are in the same band as the aggregate/3.
            for c in e.per_nf {
                assert!(c > 0.0);
                assert!(c < e.original, "per-NF {c} below aggregate {}", e.original);
            }
        }
    }
}
