//! Symmetric-worker scaling: the run-to-completion worker pool over the
//! wait-free classifier/Global-MAT generations.
//!
//! Three groups:
//!
//! * `worker_pool` — real OS threads through `run_workers` at 1/2/4/8
//!   workers, wall-clock (expect real speedup only up to the core count);
//! * `worker_pool_churn` — the same pool with an installer/remover thread
//!   churning off-trace rules for the whole run: publication must not slow
//!   the readers down;
//! * `modeled_wall` — the deterministic model's busiest-worker wall cycles
//!   at each worker count, reported as wall time per whole-workload run
//!   (this is the machine-independent number perfgate gates at >= 3x).
//!
//! The trace interleaves flows round-robin so every batch spans many FID
//! slices — what RSS hands a symmetric pool.

#![allow(clippy::cast_possible_truncation)] // bench data built from loop indices

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion, Throughput};
use speedybox_mat::OpCounter;
use speedybox_nf::ipfilter::IpFilter;
use speedybox_nf::monitor::Monitor;
use speedybox_nf::Nf;
use speedybox_packet::{FiveTuple, Packet, PacketBuilder, Protocol};
use speedybox_platform::chains::ipfilter_chain;
use speedybox_platform::runtime::SboxConfig;
use speedybox_platform::workers::run_workers;
use speedybox_platform::Chain;
use std::hint::black_box;
use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

const FLOWS: u16 = 64;
const PACKETS_PER_FLOW: usize = 16;

/// Round-robin over `FLOWS` distinct flows: packet `i` belongs to flow
/// `i % FLOWS`, so consecutive packets land on different FID slices.
fn workload() -> Vec<Packet> {
    (0..FLOWS as usize * PACKETS_PER_FLOW)
        .map(|i| {
            PacketBuilder::tcp()
                .src(format!("10.1.0.1:{}", 1000 + (i as u16 % FLOWS)).parse().unwrap())
                .dst("10.1.0.2:80".parse().unwrap())
                .seq((i / FLOWS as usize) as u32)
                .payload(b"scaling bench payload")
                .build()
        })
        .collect()
}

fn nf_sets(workers: usize) -> Vec<Vec<Box<dyn Nf>>> {
    (0..workers.next_power_of_two())
        .map(|_| {
            vec![
                Box::new(IpFilter::pass_through(20)) as Box<dyn Nf>,
                Box::new(Monitor::new()) as Box<dyn Nf>,
            ]
        })
        .collect()
}

/// Real threads, quiet tables.
fn bench_worker_pool(c: &mut Criterion) {
    let packets = workload();
    let mut g = c.benchmark_group("worker_pool");
    g.throughput(Throughput::Elements(packets.len() as u64));
    g.sample_size(10);
    for workers in [1usize, 2, 4, 8] {
        g.bench_with_input(BenchmarkId::from_parameter(workers), &workers, |b, &workers| {
            // Input construction (NF sets, the trace clone) happens in the
            // setup closure, outside the timed region: the measurement is
            // the pool run, not the allocator warming up the inputs.
            b.iter_batched(
                || (nf_sets(workers), packets.clone()),
                |(sets, trace)| {
                    black_box(run_workers(
                        sets,
                        trace,
                        SboxConfig { workers, ..SboxConfig::default() },
                    ))
                },
                BatchSize::LargeInput,
            );
        });
    }
    g.finish();
}

/// Real threads with concurrent rule churn: wait-free generation loads
/// mean the churner costs the readers nothing but memory bandwidth.
fn bench_worker_pool_churn(c: &mut Criterion) {
    let packets = workload();
    let mut g = c.benchmark_group("worker_pool_churn");
    g.throughput(Throughput::Elements(packets.len() as u64));
    g.sample_size(10);
    // The churner targets FIDs the trace never produces (10.250.0.0/16
    // sources); the tuple list is input data, built once outside the loop.
    let tuples: Vec<FiveTuple> = (1..=8u8)
        .map(|y| {
            FiveTuple::new(
                Ipv4Addr::new(10, 250, 0, y),
                7777,
                Ipv4Addr::new(10, 250, 255, 254),
                9999,
                Protocol::Tcp,
            )
        })
        .collect();
    for workers in [1usize, 8] {
        g.bench_with_input(BenchmarkId::from_parameter(workers), &workers, |b, &workers| {
            // A fresh worker pool per iteration; NF sets, the trace clone
            // and the churn tuple list are setup work, excluded from the
            // measurement.
            b.iter_batched(
                || (nf_sets(workers), packets.clone(), tuples.clone()),
                |(sets, trace, churn_tuples)| {
                    let stop = Arc::new(AtomicBool::new(false));
                    std::thread::scope(|s| {
                        // run_workers builds its own SpeedyBox, so the
                        // churner hammers a sibling table set: same code
                        // paths, same allocator pressure, measured
                        // interference only.
                        let churn_stop = Arc::clone(&stop);
                        s.spawn(move || {
                            let local =
                                Arc::new(speedybox_mat::LocalMat::new(speedybox_mat::NfId::new(0)));
                            let gm = speedybox_mat::GlobalMat::with_shards(vec![local], 8);
                            let mut ops = OpCounter::default();
                            while !churn_stop.load(Ordering::Relaxed) {
                                for t in &churn_tuples {
                                    gm.install(t.fid(), &mut ops);
                                    let _ = gm.rule(t.fid());
                                    gm.remove_flow(t.fid());
                                }
                                std::thread::yield_now();
                            }
                        });
                        let report = black_box(run_workers(
                            sets,
                            trace,
                            SboxConfig { workers, ..SboxConfig::default() },
                        ));
                        stop.store(true, Ordering::Relaxed);
                        report
                    })
                },
                BatchSize::LargeInput,
            );
        });
    }
    g.finish();
}

/// Deterministic model: whole-workload busiest-worker wall cycles. The
/// per-iteration wall time here tracks `worker_wall_cycles`, the number
/// perfgate's >= 3x scaling gate is computed from.
fn bench_modeled_wall(c: &mut Criterion) {
    let packets = workload();
    let mut g = c.benchmark_group("modeled_wall");
    g.throughput(Throughput::Elements(packets.len() as u64));
    for workers in [1usize, 2, 4, 8] {
        g.bench_with_input(BenchmarkId::from_parameter(workers), &workers, |b, &workers| {
            let config = SboxConfig { workers, batch_size: 32, ..SboxConfig::default() };
            let mut chain = Chain::speedybox_with(ipfilter_chain(3, 200), config);
            let pool = Arc::clone(chain.pool());
            let warm = chain.run(pool.copy_packets(&packets));
            pool.free_batch(warm.outputs);
            // The warm run seeded the pool with recycled buffers, so the
            // pooled trace copy in setup is allocation-free and the timed
            // region measures the chain (run + recycle), not
            // clone-per-packet.
            b.iter_batched(
                || pool.copy_packets(&packets),
                |trace| {
                    let mut stats = chain.run(trace);
                    pool.free_batch(stats.outputs.drain(..));
                    black_box(stats)
                },
                BatchSize::LargeInput,
            );
        });
    }
    g.finish();
}

criterion_group!(benches, bench_worker_pool, bench_worker_pool_churn, bench_modeled_wall);
criterion_main!(benches);
