//! Cross-NF state-function parallelism (paper §V-C2, Table I).
//!
//! Whole per-NF batches can execute in parallel when neither depends on the
//! other's payload effects. Header dependencies never arise here because
//! header actions were already consolidated by the Global MAT ("there is no
//! packet header dependency because such dependency is already eliminated
//! by the Global MAT").

use crate::state_fn::{PayloadAccess, SfBatch};

/// Table I of the paper: can `batch2` run in parallel with the *earlier*
/// `batch1`?
///
/// The text's rule: "if batch1 writes the payload, they cannot be
/// parallelized unless batch2 ignores the payload" — and symmetrically a
/// later writer cannot overlap an earlier reader (Table I row
/// `Payload Write` × column `Payload Read` = N).
#[must_use]
pub fn can_parallelize(batch1: PayloadAccess, batch2: PayloadAccess) -> bool {
    use PayloadAccess::{Ignore, Write};
    match (batch1, batch2) {
        // Earlier writer: only an ignoring later batch may overlap.
        (Write, b2) => b2 == Ignore,
        // Later writer: only overlap an earlier ignorer.
        (b1, Write) => b1 == Ignore,
        // Read/Read, Read/Ignore, Ignore/* are all safe.
        _ => true,
    }
}

/// Greedy wavefront schedule over a chain's batches.
///
/// Returns waves of batch indices; all batches within a wave execute in
/// parallel, waves execute in chain order. A batch joins the current wave
/// only if it is pairwise-parallelizable with *every* batch already in the
/// wave (they run simultaneously), preserving the sequential semantics for
/// every conflicting pair.
///
/// ```
/// use speedybox_mat::parallel::schedule_batches;
/// use speedybox_mat::PayloadAccess::{Ignore, Read, Write};
///
/// // Snort (READ) + Monitor (IGNORE) share a wave; a payload writer
/// // downstream must wait for both.
/// assert_eq!(
///     schedule_batches(&[Read, Ignore, Write]),
///     vec![vec![0, 1], vec![2]],
/// );
/// ```
#[must_use]
pub fn schedule_batches(accesses: &[PayloadAccess]) -> Vec<Vec<usize>> {
    waves_of(accesses.len(), |i| accesses[i])
}

/// Convenience: schedule from full batches.
#[must_use]
pub fn schedule(batches: &[SfBatch]) -> Vec<Vec<usize>> {
    waves_of(batches.len(), |i| batches[i].access())
}

/// The greedy wavefront schedule of `n` batches whose accesses `access`
/// reports, allocating only the waves themselves.
fn waves_of(n: usize, access: impl Fn(usize) -> PayloadAccess) -> Vec<Vec<usize>> {
    let mut waves: Vec<Vec<usize>> = Vec::new();
    let mut current: Vec<usize> = Vec::new();
    for i in 0..n {
        let acc = access(i);
        if !current.is_empty() && !current.iter().all(|&j| can_parallelize(access(j), acc)) {
            waves.push(std::mem::take(&mut current));
        }
        current.push(i);
    }
    if !current.is_empty() {
        waves.push(current);
    }
    waves
}

/// The theoretical latency of a schedule assuming each batch costs
/// `costs[i]`: the sum over waves of each wave's maximum batch cost.
///
/// Used by the simulators and the Fig 5 benchmark — the paper's "optimal
/// latency reduction can be (N-1)/N" for N identical parallelizable
/// batches falls out of this.
#[must_use]
pub fn schedule_latency(waves: &[Vec<usize>], costs: &[u64]) -> u64 {
    waves.iter().map(|wave| wave.iter().map(|&i| costs[i]).max().unwrap_or(0)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use PayloadAccess::{Ignore, Read, Write};

    #[test]
    fn table_one_exact() {
        // Rows: batch2; Columns: batch1.  (paper Table I)
        //              Write  Read  Ignore   (batch1)
        // Write          N     N      Y
        // Read           Y     Y      Y
        // Ignore         Y     Y      Y
        assert!(!can_parallelize(Write, Write));
        assert!(!can_parallelize(Read, Write));
        assert!(can_parallelize(Ignore, Write));
        assert!(!can_parallelize(Write, Read));
        assert!(can_parallelize(Read, Read));
        assert!(can_parallelize(Ignore, Read));
        assert!(can_parallelize(Write, Ignore));
        assert!(can_parallelize(Read, Ignore));
        assert!(can_parallelize(Ignore, Ignore));
    }

    #[test]
    fn all_readers_form_one_wave() {
        let waves = schedule_batches(&[Read, Read, Read]);
        assert_eq!(waves, vec![vec![0, 1, 2]]);
    }

    #[test]
    fn writers_serialize() {
        let waves = schedule_batches(&[Write, Write, Write]);
        assert_eq!(waves, vec![vec![0], vec![1], vec![2]]);
    }

    #[test]
    fn writer_between_readers_splits_waves() {
        let waves = schedule_batches(&[Read, Write, Read]);
        assert_eq!(waves, vec![vec![0], vec![1], vec![2]]);
    }

    #[test]
    fn writer_then_ignorers_share_wave() {
        let waves = schedule_batches(&[Write, Ignore, Ignore]);
        assert_eq!(waves, vec![vec![0, 1, 2]]);
    }

    #[test]
    fn empty_schedule() {
        assert!(schedule_batches(&[]).is_empty());
    }

    #[test]
    fn snort_plus_monitor_parallelizes() {
        // The paper's Fig 6 chain: Snort (payload READ) + Monitor (IGNORE).
        let waves = schedule_batches(&[Read, Ignore]);
        assert_eq!(waves, vec![vec![0, 1]]);
    }

    #[test]
    fn latency_of_parallel_wave_is_max() {
        let waves = schedule_batches(&[Read, Read, Read]);
        assert_eq!(schedule_latency(&waves, &[100, 100, 100]), 100);
        let serial = schedule_batches(&[Write, Write, Write]);
        assert_eq!(schedule_latency(&serial, &[100, 100, 100]), 300);
        // (N-1)/N reduction for N identical parallelizable batches.
        let n = 3u64;
        let reduction = 1.0 - (100.0 / (100.0 * n as f64));
        assert!((reduction - (n - 1) as f64 / n as f64).abs() < 1e-9);
    }

    #[test]
    fn schedule_preserves_order_within_and_across_waves() {
        let accesses = [Read, Ignore, Write, Ignore, Read];
        let waves = schedule_batches(&accesses);
        // Flattened schedule is the original order.
        let flat: Vec<usize> = waves.iter().flatten().copied().collect();
        assert_eq!(flat, vec![0, 1, 2, 3, 4]);
        // No wave holds a conflicting pair.
        for wave in &waves {
            for (x, &i) in wave.iter().enumerate() {
                for &j in &wave[x + 1..] {
                    assert!(can_parallelize(accesses[i], accesses[j]));
                }
            }
        }
    }
}
