//! Symmetric run-to-completion workers over a shared SpeedyBox runtime.
//!
//! Where [`crate::threaded`] builds the OpenNetVM pipeline (one thread per
//! NF, ring hops between them), this module builds the paper's other
//! scaling axis: N identical workers, each owning a FID slice of the
//! traffic (RSS-style steering, `fid & (workers - 1)`), each driving
//! classify → consolidated fast path → telemetry to completion on its own
//! thread. Every worker runs the same packet step as [`crate::chain`]'s
//! chains, priced as BESS. The classifier and Global MAT are *shared* —
//! workers read rule generations wait-free (one atomic load, see
//! DESIGN.md §12) while the control plane churns installs and removals
//! concurrently.
//!
//! Per-flow packet order is preserved by construction: a flow's FID maps
//! to exactly one worker, and each worker processes its slice in arrival
//! order. Cross-flow order across workers is not defined — callers that
//! compare outputs across worker counts must compare per-flow sequences
//! or sorted multisets, exactly like a real multi-queue NIC deployment.

use std::sync::Arc;
use std::thread;

use speedybox_nf::Nf;
use speedybox_packet::{Packet, PacketPool, PoolStats};
use speedybox_telemetry::TelemetrySnapshot;

use crate::chain::{Lane, Nfs, Platform};
use crate::metrics::sync_pool;
use crate::runtime::{SboxConfig, SpeedyBox};

/// Result of a worker-pool run.
#[derive(Debug)]
pub struct WorkerReport {
    /// Surviving packets: worker 0's slice first, then worker 1's, and so
    /// on — per-flow order intact, cross-flow order worker-local.
    pub delivered: Vec<Packet>,
    /// Count of dropped packets across all workers.
    pub dropped: usize,
    /// Packets steered to each worker (delivered + dropped).
    pub per_worker: Vec<usize>,
    /// Model cycles of work performed by each worker.
    pub per_worker_cycles: Vec<u64>,
    /// Final telemetry snapshot merged across all shards.
    pub snapshot: TelemetrySnapshot,
}

/// Steers a packet to its owning worker: `fid & (workers - 1)`, the same
/// slice rule the deterministic environments use for work attribution.
/// Unparseable packets belong to worker 0 by convention. `workers` must be
/// a power of two.
#[must_use]
pub fn steer(packet: &Packet, workers: usize) -> usize {
    debug_assert!(workers.is_power_of_two());
    match packet.five_tuple() {
        Ok(t) => t.fid().index() & (workers - 1),
        Err(_) => 0,
    }
}

/// Runs `packets` through `config.worker_count()` symmetric workers, one
/// OS thread each. `nf_sets` provides one NF chain instance per worker
/// (flows are partitioned, so per-flow NF state lives with its owning
/// worker — the per-core-state arrangement of a real RSS deployment); all
/// sets must have the same length.
///
/// The SpeedyBox runtime — classifier, Global MAT, Event Table, telemetry
/// — is shared across workers. Fast-path lookups load the current rule
/// generation with a single atomic operation and never block; slow-path
/// installs and flow teardowns serialize only against other writers of the
/// same table shard.
///
/// # Panics
/// Panics if `nf_sets.len() != config.worker_count()`, if chain lengths
/// differ, or if a worker thread panics.
#[must_use]
pub fn run_workers(
    nf_sets: Vec<Vec<Box<dyn Nf>>>,
    packets: Vec<Packet>,
    config: SboxConfig,
) -> WorkerReport {
    let nf_count = nf_sets.first().map_or(0, Vec::len);
    let sbox = Arc::new(SpeedyBox::new(nf_count, config));
    run_workers_on(&sbox, nf_sets, packets)
}

/// Like [`run_workers`], but over a caller-owned runtime, so state — rules,
/// flow tables, telemetry, a quarantine window opened by a crash handler —
/// carries across runs. The worker count and pool size come from
/// `sbox.config`.
///
/// # Panics
/// Panics if `nf_sets.len() != sbox.config.worker_count()`, if chain
/// lengths differ, or if a worker thread panics.
#[must_use]
pub fn run_workers_on(
    sbox: &Arc<SpeedyBox>,
    nf_sets: Vec<Vec<Box<dyn Nf>>>,
    packets: Vec<Packet>,
) -> WorkerReport {
    let config = &sbox.config;
    let workers = config.worker_count();
    assert_eq!(nf_sets.len(), workers, "need one NF chain per worker");
    let nf_count = nf_sets.first().map_or(0, Vec::len);
    assert!(nf_sets.iter().all(|s| s.len() == nf_count), "uneven NF chains");

    // One shared buffer pool; each worker's lane fronts it with a private
    // magazine so depot-lock traffic stays off the per-packet path.
    let pool = Arc::new(PacketPool::bounded(2048, config.pool_buffers));

    // RSS steering: partition the trace by FID slice, preserving arrival
    // order within each slice (and therefore within each flow).
    let mut slices: Vec<Vec<Packet>> = (0..workers).map(|_| Vec::new()).collect();
    for pkt in packets {
        let w = steer(&pkt, workers);
        slices[w].push(pkt);
    }

    let sbox: &SpeedyBox = sbox;
    let lanes: Vec<(Vec<Packet>, usize, u64)> = thread::scope(|scope| {
        let handles: Vec<_> = nf_sets
            .into_iter()
            .zip(slices)
            .map(|(nfs, slice)| {
                let lane = Lane::new(Nfs::InProcess(nfs), Platform::Bess, &pool, 1, None);
                scope.spawn(move || worker_loop(sbox, lane, slice))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("worker thread panicked")).collect()
    });
    // Idle-eviction tick at the run boundary: the threaded harness has no
    // deterministic mid-run batch boundary, so idle flows are reclaimed
    // once all lanes drain. O(1) when nothing is due.
    sbox.tick_idle_eviction();
    // Fold pool counters into the shared hub before snapshotting.
    sync_pool(&sbox.telemetry, &pool, &mut PoolStats::default());

    let mut delivered = Vec::new();
    let mut per_worker = Vec::with_capacity(workers);
    let mut per_worker_cycles = Vec::with_capacity(workers);
    for (out, processed, cycles) in lanes {
        per_worker.push(processed);
        per_worker_cycles.push(cycles);
        delivered.extend(out);
    }
    WorkerReport {
        dropped: per_worker.iter().sum::<usize>() - delivered.len(),
        delivered,
        per_worker,
        per_worker_cycles,
        snapshot: sbox.telemetry.snapshot(),
    }
}

/// One worker's run-to-completion loop over its FID slice: every packet
/// runs the shared packet step to completion before the next begins.
/// Returns the delivered packets, the packets processed and the work.
fn worker_loop(sbox: &SpeedyBox, mut lane: Lane, slice: Vec<Packet>) -> (Vec<Packet>, usize, u64) {
    let processed = slice.len();
    let mut delivered = Vec::with_capacity(processed);
    for pkt in slice {
        delivered.extend(lane.process(sbox, pkt).packet);
    }
    (delivered, processed, lane.work_cycles())
}

#[cfg(test)]
mod tests {
    #![allow(clippy::cast_possible_truncation)] // test data built from loop indices
    use std::collections::HashMap;

    use speedybox_nf::ipfilter::IpFilter;
    use speedybox_nf::monitor::Monitor;
    use speedybox_packet::{PacketBuilder, TcpFlags};

    use super::*;

    fn packets(n: usize, flows: u16) -> Vec<Packet> {
        (0..n)
            .map(|i| {
                PacketBuilder::tcp()
                    .src(format!("10.0.0.1:{}", 1000 + (i as u16 % flows)).parse().unwrap())
                    .dst("10.0.0.2:80".parse().unwrap())
                    .payload(format!("p{i}").as_bytes())
                    .build()
            })
            .collect()
    }

    fn fw_sets(workers: usize, chain_len: usize) -> Vec<Vec<Box<dyn Nf>>> {
        (0..workers)
            .map(|_| {
                (0..chain_len)
                    .map(|_| Box::new(IpFilter::pass_through(10)) as Box<dyn Nf>)
                    .collect()
            })
            .collect()
    }

    fn config(workers: usize) -> SboxConfig {
        SboxConfig { workers, ..SboxConfig::default() }
    }

    fn sorted_bytes(pkts: &[Packet]) -> Vec<Vec<u8>> {
        let mut v: Vec<Vec<u8>> = pkts.iter().map(|p| p.as_bytes().to_vec()).collect();
        v.sort();
        v
    }

    #[test]
    fn pool_delivers_everything() {
        for workers in [1, 2, 4, 8] {
            let report = run_workers(fw_sets(workers, 3), packets(80, 8), config(workers));
            assert_eq!(report.delivered.len(), 80, "workers={workers}");
            assert_eq!(report.dropped, 0, "workers={workers}");
            assert_eq!(report.per_worker.iter().sum::<usize>(), 80);
            assert_eq!(report.per_worker.len(), workers);
        }
    }

    #[test]
    fn outputs_invariant_across_worker_counts() {
        let pkts = packets(60, 6);
        let single = run_workers(fw_sets(1, 2), pkts.clone(), config(1));
        let base = sorted_bytes(&single.delivered);
        for workers in [2, 4, 8] {
            let multi = run_workers(fw_sets(workers, 2), pkts.clone(), config(workers));
            assert_eq!(sorted_bytes(&multi.delivered), base, "workers={workers}");
            assert_eq!(multi.dropped, single.dropped, "workers={workers}");
        }
    }

    #[test]
    fn per_flow_order_is_preserved() {
        let pkts = packets(64, 4);
        let report = run_workers(fw_sets(4, 2), pkts.clone(), config(4));
        // Group expected payloads per source port (flow), in input order.
        let mut expected: HashMap<u16, Vec<Vec<u8>>> = HashMap::new();
        for p in &pkts {
            expected
                .entry(p.five_tuple().unwrap().src_port)
                .or_default()
                .push(p.payload().unwrap().to_vec());
        }
        let mut got: HashMap<u16, Vec<Vec<u8>>> = HashMap::new();
        for p in &report.delivered {
            got.entry(p.five_tuple().unwrap().src_port)
                .or_default()
                .push(p.payload().unwrap().to_vec());
        }
        assert_eq!(got, expected);
    }

    #[test]
    fn steering_partitions_all_flows() {
        let pkts = packets(32, 8);
        for workers in [1, 2, 4] {
            for p in &pkts {
                assert!(steer(p, workers) < workers);
            }
        }
        // A flow always lands on the same worker.
        let a = steer(&pkts[0], 4);
        assert_eq!(steer(&pkts[8], 4), a);
    }

    #[test]
    fn fin_tears_down_everywhere() {
        let monitors: Vec<Monitor> = (0..2).map(|_| Monitor::new()).collect();
        let nf_sets: Vec<Vec<Box<dyn Nf>>> =
            monitors.iter().map(|m| vec![Box::new(m.clone()) as Box<dyn Nf>]).collect();
        let mut pkts = packets(8, 2);
        for port in [1000u16, 1001] {
            pkts.push(
                PacketBuilder::tcp()
                    .src(format!("10.0.0.1:{port}").parse().unwrap())
                    .dst("10.0.0.2:80".parse().unwrap())
                    .flags(TcpFlags::FIN | TcpFlags::ACK)
                    .build(),
            );
        }
        let report = run_workers(nf_sets, pkts, config(2));
        assert_eq!(report.dropped, 0);
        assert_eq!(monitors.iter().map(Monitor::flow_count).sum::<usize>(), 0);
    }

    #[test]
    fn quarantine_window_rides_the_original_walk() {
        let sbox = Arc::new(SpeedyBox::new(1, config(2)));
        // Warm run: flows record and ride the consolidated fast path.
        let warm = run_workers_on(&sbox, fw_sets(2, 1), packets(16, 2));
        assert_eq!(warm.delivered.len(), 16);
        assert!(warm.snapshot.paths[2] > 0, "expected fast-path traffic");

        // Crash handling: mask first, then sweep (same order as kill_nf).
        sbox.global.quarantine_nf(0);
        sbox.force_evict_flows(usize::MAX);
        let quarantined = run_workers_on(&sbox, fw_sets(2, 1), packets(16, 2));
        assert_eq!(quarantined.delivered.len(), 16, "window must be loss-free");
        assert_eq!(
            quarantined.snapshot.paths[0] - warm.snapshot.paths[0],
            16,
            "open window: everything on the uninstrumented original walk"
        );
        assert_eq!(quarantined.snapshot.paths[1], warm.snapshot.paths[1]);
        assert_eq!(quarantined.snapshot.paths[2], warm.snapshot.paths[2]);
        assert_eq!(quarantined.snapshot.quarantine_packets - warm.snapshot.quarantine_packets, 16);

        // Window closes: both flows re-record, then fast path again.
        sbox.global.unquarantine_nf(0);
        let recovered = run_workers_on(&sbox, fw_sets(2, 1), packets(16, 2));
        assert_eq!(recovered.snapshot.paths[1] - quarantined.snapshot.paths[1], 2);
        assert_eq!(recovered.snapshot.paths[2] - quarantined.snapshot.paths[2], 14);
    }

    #[test]
    fn snapshot_covers_every_packet() {
        let report = run_workers(fw_sets(4, 2), packets(40, 8), config(4));
        assert_eq!(report.snapshot.packets, 40);
        assert_eq!(report.snapshot.flows_opened, 8);
        assert!(report.snapshot.paths[2] > 0, "expected fast-path traffic");
    }
}
