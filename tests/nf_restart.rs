//! Tier-1 NF crash/restart sweep: every registry chain survives scripted
//! NF kills with chain-consistent recovery — snapshot restore plus
//! in-flight log replay — and stays byte- and counter-identical to the
//! naive reference oracle.
//!
//! One `#[test]` per chain so the sweep parallelizes across the harness's
//! worker threads. Each test runs 32 seeds x {bess,onvm} x batch {1,8}
//! with a generated NF fault plan (kills, recoveries, explicit snapshots)
//! layered over the usual backend-churn faults, and requires zero
//! divergences. A mutation twin seeds the skip-snapshot-replay recovery
//! bug and requires the referee to flag it.

#![allow(clippy::cast_possible_truncation)] // seed counts fit any usize

use speedybox::sim::{
    generate, run_case, BugKind, Fault, FaultPlan, Platform, ScenarioConfig, SimCase,
};

const SEEDS: u64 = 32;

fn sweep_chain(chain: &str) {
    let mut cases = 0usize;
    let mut kills = 0usize;
    for seed in 0..SEEDS {
        let scenario = generate(&ScenarioConfig {
            seed,
            chain: chain.to_owned(),
            with_faults: true,
            nf_faults: true,
        });
        kills +=
            scenario.faults.faults.iter().filter(|f| matches!(f.fault, Fault::KillNf(_))).count();
        for env in [Platform::Bess, Platform::Onvm] {
            for batch in [1usize, 8] {
                let case = SimCase {
                    chain: chain.to_owned(),
                    env,
                    compiled: true,
                    batch,
                    workers: 1,
                    seed,
                    max_flows: 0,
                    bug: None,
                    items: scenario.items.clone(),
                    faults: scenario.faults.clone(),
                };
                let out = run_case(&case).unwrap_or_else(|e| {
                    panic!("chain={chain} env={} seed={seed}: {e}", env.as_str())
                });
                assert!(
                    out.divergence.is_none(),
                    "chain={chain} env={} batch={batch} seed={seed}: {:?}",
                    env.as_str(),
                    out.divergence
                );
                cases += 1;
            }
        }
    }
    assert_eq!(cases, (SEEDS as usize) * 4);
    assert!(kills >= SEEDS as usize, "every seed's plan must kill at least one NF");
}

#[test]
fn nf_restart_chain1() {
    sweep_chain("chain1");
}

#[test]
fn nf_restart_chain2() {
    sweep_chain("chain2");
}

#[test]
fn nf_restart_snort_monitor() {
    sweep_chain("snort-monitor");
}

#[test]
fn nf_restart_ipfilter3() {
    sweep_chain("ipfilter:3");
}

#[test]
fn nf_restart_synthetic3() {
    sweep_chain("synthetic:3");
}

#[test]
fn nf_restart_vpn_tunnel() {
    sweep_chain("vpn-tunnel");
}

#[test]
fn nf_restart_dos_mitigation() {
    sweep_chain("dos-mitigation");
}

#[test]
fn nf_restart_maglev_failover() {
    sweep_chain("maglev-failover");
}

#[test]
fn nf_restart_snort() {
    sweep_chain("snort");
}

/// Mutation twin: a recovery path that restores the checkpoint but skips
/// the in-flight log replay silently loses every packet since the last
/// snapshot. The counter cross-check must flag it on a stateful chain.
#[test]
fn skip_snapshot_replay_twin_is_flagged() {
    for chain in ["snort-monitor", "chain2"] {
        let mut flagged = 0usize;
        for seed in 0..8u64 {
            let scenario = generate(&ScenarioConfig {
                seed,
                chain: chain.to_owned(),
                with_faults: false,
                nf_faults: false,
            });
            let case = SimCase {
                chain: chain.to_owned(),
                env: Platform::Bess,
                compiled: true,
                batch: 1,
                workers: 1,
                seed,
                max_flows: 0,
                bug: Some(BugKind::SkipSnapshotReplay),
                items: scenario.items,
                faults: FaultPlan::parse("nfkill@25=0;nfrecover@40=0").unwrap(),
            };
            let out = run_case(&case).unwrap();
            if out.divergence.is_some() {
                flagged += 1;
            }
        }
        assert_eq!(flagged, 8, "chain={chain}: every seeded-bug run must diverge");
    }
}
