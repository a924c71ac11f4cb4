//! Tier-1 differential simulation: the consolidated runtime vs the naive
//! reference oracle, over every registry chain, both platform emulations,
//! both header-action execution modes, per-packet and batched processing —
//! with scripted fault injection enabled throughout.
//!
//! One `#[test]` per chain so the sweep parallelizes across the harness's
//! worker threads. Each test runs 32 seeds x {bess,onvm} x
//! {compiled,interpreted} x batch {1,8} = 256 differential cases and
//! requires zero divergences. A separate worker sweep re-runs every chain
//! at worker counts {1,2,4,8} and requires the output hash to be
//! worker-count invariant.

#![allow(clippy::cast_possible_truncation)] // test data built from loop indices

use speedybox::sim::{
    generate, run_case, shrink, BugKind, DivergenceKind, Fault, FaultAt, FaultPlan, Platform,
    ScenarioConfig, SimCase,
};

const SEEDS: u64 = 32;

fn sweep_chain(chain: &str) {
    let mut cases = 0usize;
    let mut delivered = 0usize;
    for seed in 0..SEEDS {
        let scenario = generate(&ScenarioConfig {
            seed,
            chain: chain.to_owned(),
            with_faults: true,
            nf_faults: false,
        });
        for env in [Platform::Bess, Platform::Onvm] {
            for compiled in [true, false] {
                for batch in [1usize, 8] {
                    let case = SimCase {
                        chain: chain.to_owned(),
                        env,
                        compiled,
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
                        "chain={chain} env={} mode={} batch={batch} seed={seed}: {:?}",
                        env.as_str(),
                        if compiled { "compiled" } else { "interpreted" },
                        out.divergence
                    );
                    cases += 1;
                    delivered += out.delivered;
                }
            }
        }
    }
    assert_eq!(cases, (SEEDS as usize) * 8);
    assert!(delivered > 0, "sweep must exercise the delivery path");
}

#[test]
fn sim_oracle_chain1() {
    sweep_chain("chain1");
}

#[test]
fn sim_oracle_chain2() {
    sweep_chain("chain2");
}

#[test]
fn sim_oracle_snort_monitor() {
    sweep_chain("snort-monitor");
}

#[test]
fn sim_oracle_ipfilter() {
    sweep_chain("ipfilter:3");
}

#[test]
fn sim_oracle_synthetic() {
    sweep_chain("synthetic:3");
}

#[test]
fn sim_oracle_vpn_tunnel() {
    sweep_chain("vpn-tunnel");
}

#[test]
fn sim_oracle_dos_mitigation() {
    sweep_chain("dos-mitigation");
}

#[test]
fn sim_oracle_maglev_failover() {
    sweep_chain("maglev-failover");
}

#[test]
fn sim_oracle_snort() {
    sweep_chain("snort");
}

/// Mutation test of the referee itself: a deliberately seeded SUT bug
/// (consolidation "forgets" the trailing checksum fix) must be caught as a
/// byte divergence and shrink to a minimal reproducer of at most 20
/// packets that still diverges.
#[test]
fn seeded_bug_is_caught_and_shrunk() {
    let chain = "ipfilter:3";
    let mut caught = None;
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
            bug: Some(BugKind::SkipChecksumFix),
            items: scenario.items,
            faults: scenario.faults,
        };
        let out = run_case(&case).unwrap();
        if let Some(d) = out.divergence {
            assert_eq!(d.kind, DivergenceKind::Bytes, "checksum bug shows up in output bytes");
            caught = Some(case);
            break;
        }
    }
    let case = caught.expect("seeded bug must diverge within 8 seeds");
    let (minimal, runs) = shrink(&case, 256);
    assert!(
        minimal.items.len() <= 20,
        "shrunk reproducer has {} packets (> 20) after {runs} runs",
        minimal.items.len()
    );
    let re = run_case(&minimal).unwrap();
    assert!(re.divergence.is_some(), "shrunk case must still diverge");
}

/// Differential scaling sweep: every registry chain x worker counts
/// {1, 2, 4, 8} over 32 seeds, faults on. Requires zero divergences AND a
/// worker-count-invariant output hash: the symmetric-worker runtime may
/// only redistribute work, never change what happens to a packet.
#[test]
fn worker_sweep_is_divergence_free_and_hash_stable() {
    let chains = [
        "chain1",
        "chain2",
        "snort-monitor",
        "ipfilter:3",
        "synthetic:3",
        "vpn-tunnel",
        "dos-mitigation",
        "maglev-failover",
        "snort",
    ];
    let mut cases = 0usize;
    for chain in chains {
        for seed in 0..SEEDS {
            let scenario = generate(&ScenarioConfig {
                seed,
                chain: chain.to_owned(),
                with_faults: true,
                nf_faults: false,
            });
            let mut base_hash = None;
            for workers in [1usize, 2, 4, 8] {
                let case = SimCase {
                    chain: chain.to_owned(),
                    env: Platform::Bess,
                    compiled: true,
                    batch: 8,
                    workers,
                    seed,
                    max_flows: 0,
                    bug: None,
                    items: scenario.items.clone(),
                    faults: scenario.faults.clone(),
                };
                let out = run_case(&case)
                    .unwrap_or_else(|e| panic!("chain={chain} workers={workers} seed={seed}: {e}"));
                assert!(
                    out.divergence.is_none(),
                    "chain={chain} workers={workers} seed={seed}: {:?}",
                    out.divergence
                );
                match base_hash {
                    None => base_hash = Some(out.output_hash),
                    Some(h) => assert_eq!(
                        out.output_hash, h,
                        "chain={chain} seed={seed}: hash differs at workers={workers}"
                    ),
                }
                cases += 1;
            }
        }
    }
    assert_eq!(cases, chains.len() * (SEEDS as usize) * 4);
}

/// Capacity-evict pressure: with the flow table bounded far below the
/// trace's flow count, installs continuously LRU-evict live flows — each
/// displaced flow must re-record through the slow path with identical
/// bytes, on top of the fault plans' forced `evict@N=k` clauses.
#[test]
fn bounded_table_sweep_is_equivalent() {
    for chain in ["chain1", "chain2", "maglev-failover"] {
        for seed in 0..8u64 {
            let scenario = generate(&ScenarioConfig {
                seed,
                chain: chain.to_owned(),
                with_faults: true,
                nf_faults: false,
            });
            for batch in [1usize, 8] {
                let case = SimCase {
                    chain: chain.to_owned(),
                    env: Platform::Bess,
                    compiled: true,
                    batch,
                    workers: 1,
                    seed,
                    max_flows: 48,
                    bug: None,
                    items: scenario.items.clone(),
                    faults: scenario.faults.clone(),
                };
                let out = run_case(&case).unwrap();
                assert!(
                    out.divergence.is_none(),
                    "chain={chain} seed={seed} batch={batch} under evict pressure: {:?}",
                    out.divergence
                );
            }
        }
    }
}

/// Pool-pressure sweep: the `pool=N` fault clamps the SUT's packet-buffer
/// pool to a starvation capacity at packet 0 and lifts it mid-trace. Every
/// take beyond the clamp falls back to the heap — a pure memory-management
/// event, so the oracle comparison must see zero divergences on top of
/// each scenario's regular fault plan.
#[test]
fn pool_pressure_sweep_is_equivalent() {
    for chain in ["chain1", "chain2", "maglev-failover"] {
        for seed in 0..6u64 {
            let scenario = generate(&ScenarioConfig {
                seed,
                chain: chain.to_owned(),
                with_faults: true,
                nf_faults: false,
            });
            let mid = scenario.items.len() / 2;
            for cap in [0u64, 2] {
                let mut faults = scenario.faults.faults.clone();
                faults.push(FaultAt { at: 0, fault: Fault::PoolPressure(cap) });
                faults.push(FaultAt { at: mid, fault: Fault::PoolPressure(4096) });
                for batch in [1usize, 8] {
                    let case = SimCase {
                        chain: chain.to_owned(),
                        env: Platform::Bess,
                        compiled: true,
                        batch,
                        workers: 1,
                        seed,
                        max_flows: 0,
                        bug: None,
                        items: scenario.items.clone(),
                        faults: FaultPlan::new(faults.clone()),
                    };
                    let out = run_case(&case).unwrap();
                    assert!(
                        out.divergence.is_none(),
                        "chain={chain} seed={seed} cap={cap} batch={batch} under pool pressure: {:?}",
                        out.divergence
                    );
                }
            }
        }
    }
}

/// The same case always produces the same outcome stream — the determinism
/// guarantee replay artifacts rely on.
#[test]
fn run_case_is_deterministic() {
    let scenario = generate(&ScenarioConfig {
        seed: 11,
        chain: "chain2".to_owned(),
        with_faults: true,
        nf_faults: false,
    });
    let case = SimCase {
        chain: "chain2".to_owned(),
        env: Platform::Onvm,
        compiled: true,
        batch: 8,
        workers: 1,
        seed: 11,
        max_flows: 0,
        bug: None,
        items: scenario.items,
        faults: scenario.faults,
    };
    let a = run_case(&case).unwrap();
    let b = run_case(&case).unwrap();
    assert_eq!(a.output_hash, b.output_hash);
    assert_eq!(a.delivered, b.delivered);
    assert_eq!(a.dropped, b.dropped);
    assert_eq!(a.rejected, b.rejected);
}
