//! Divergence shrinking: reduce a failing case to a minimal reproducer.
//!
//! Strategy, in order, under a global candidate-run budget:
//!
//! 1. **truncate** — a divergence at packet `i` cannot depend on later
//!    packets, so cut the trace there (monotone, free);
//! 2. **fault minimization** — drop each fault clause that isn't needed
//!    to reproduce (churn goes first: a fault-free reproducer is worth
//!    more than a small one);
//! 3. **head binary search** — find the longest prefix that can be
//!    removed wholesale;
//! 4. **ddmin-style chunk removal** — remove interior chunks at
//!    decreasing granularity, re-truncating after every success.
//!
//! Items keep their original-trace indices, so fault plans stay pinned to
//! the same boundaries while packets disappear around them.

use crate::fault::{Fault, FaultPlan};
use crate::runner::{run_case, SimCase};

/// Shrinks `case` (which must diverge) to a smaller case that still
/// diverges, running at most `budget` candidate executions.
///
/// Returns the shrunk case and the number of candidate runs spent. If
/// `case` does not actually diverge it is returned unchanged.
#[must_use]
pub fn shrink(case: &SimCase, budget: usize) -> (SimCase, usize) {
    let mut spent = 0usize;
    let mut best = case.clone();

    let Some(d) = diverges(&best, &mut spent) else {
        return (best, spent);
    };
    truncate_at(&mut best, d);

    // Drop faults greedily. Churn goes first and wholesale: its thread
    // interleaving is the only nondeterminism in a run, so a churn-free
    // reproducer is worth more than a small one.
    if best.faults.faults.iter().any(|f| matches!(f.fault, Fault::ChurnStart | Fault::ChurnStop))
        && spent < budget
    {
        let mut candidate = best.clone();
        candidate.faults = FaultPlan::new(
            candidate
                .faults
                .faults
                .into_iter()
                .filter(|f| !matches!(f.fault, Fault::ChurnStart | Fault::ChurnStop))
                .collect(),
        );
        if let Some(d) = diverges(&candidate, &mut spent) {
            truncate_at(&mut candidate, d);
            best = candidate;
        }
    }
    // Then each remaining clause individually, scanning from the back so
    // removals don't shift unvisited positions.
    let mut pos = best.faults.faults.len();
    while pos > 0 && spent < budget {
        pos -= 1;
        if pos >= best.faults.faults.len() {
            continue;
        }
        let mut candidate = best.clone();
        candidate.faults.faults.remove(pos);
        if let Some(d) = diverges(&candidate, &mut spent) {
            truncate_at(&mut candidate, d);
            best = candidate;
        }
    }

    // Head trim: binary-search the largest removable prefix.
    let mut lo = 0usize;
    let mut hi = best.items.len().saturating_sub(1);
    while lo < hi && spent < budget {
        let mid = usize::midpoint(lo, hi + 1);
        let mut candidate = best.clone();
        candidate.items.drain(..mid);
        if let Some(d) = diverges(&candidate, &mut spent) {
            truncate_at(&mut candidate, d);
            best = candidate;
            hi = best.items.len().saturating_sub(1);
            lo = 0;
        } else {
            hi = mid - 1;
        }
    }

    // ddmin-style interior chunk removal.
    let mut chunk = best.items.len() / 2;
    while chunk >= 1 && spent < budget {
        let mut start = 0;
        while start < best.items.len() && spent < budget {
            // Never remove the final (diverging) packet on its own.
            if start + chunk >= best.items.len() && chunk == 1 {
                break;
            }
            let end = (start + chunk).min(best.items.len());
            let mut candidate = best.clone();
            candidate.items.drain(start..end);
            if candidate.items.is_empty() {
                start += chunk;
                continue;
            }
            if let Some(d) = diverges(&candidate, &mut spent) {
                truncate_at(&mut candidate, d);
                best = candidate;
                // Same start again: the next chunk slid into place.
            } else {
                start += chunk;
            }
        }
        chunk /= 2;
    }

    (best, spent)
}

/// Runs a candidate, returning the divergence index if it still fails.
fn diverges(case: &SimCase, spent: &mut usize) -> Option<usize> {
    *spent += 1;
    run_case(case).ok().and_then(|o| o.divergence.map(|d| d.index))
}

/// Keeps items up to and including the diverging index.
fn truncate_at(case: &mut SimCase, index: usize) {
    case.items.truncate(index + 1);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::BugKind;
    use crate::scenario::{generate, ScenarioConfig};
    use crate::Platform;

    #[test]
    fn shrinks_seeded_bug_to_a_handful_of_packets() {
        let s = generate(&ScenarioConfig {
            seed: 5,
            chain: "ipfilter:3".into(),
            with_faults: false,
            nf_faults: false,
        });
        let case = SimCase {
            chain: "ipfilter:3".into(),
            env: Platform::Bess,
            compiled: true,
            batch: 1,
            workers: 1,
            seed: 5,
            max_flows: 0,
            bug: Some(BugKind::SkipChecksumFix),
            items: s.items,
            faults: s.faults,
        };
        let (small, spent) = shrink(&case, 200);
        assert!(spent <= 200);
        assert!(small.items.len() <= 20, "reproducer still has {} packets", small.items.len());
        let out = run_case(&small).unwrap();
        assert!(out.divergence.is_some(), "shrunk case must still diverge");
    }
}
