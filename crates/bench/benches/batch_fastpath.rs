//! Batched fast-path throughput: single-packet processing vs the batched
//! entry points (`classify_batch` + `process_batch`), plus the shard-count
//! ablation for the classifier/Global-MAT lock tables.
//!
//! The claim under test: at batch 32 the batched fast path is at least as
//! fast as per-packet processing (it amortizes one lock acquisition per
//! shard per batch and one clock update per batch), and shard count is a
//! pure scalability knob with no single-threaded penalty.

#![allow(clippy::cast_possible_truncation)] // bench data built from loop indices

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion, Throughput};
use speedybox_packet::{Packet, PacketBuilder};
use speedybox_platform::chains::ipfilter_chain;
use speedybox_platform::runtime::SboxConfig;
use speedybox_platform::threaded::run_threaded;
use speedybox_platform::Chain;
use std::hint::black_box;
use std::sync::Arc;

const PACKETS: usize = 512;
const FLOWS: u16 = 16;

fn workload() -> Vec<Packet> {
    (0..PACKETS)
        .map(|i| {
            PacketBuilder::tcp()
                .src(format!("10.0.0.1:{}", 1000 + (i as u16 % FLOWS)).parse().unwrap())
                .dst("10.0.0.2:80".parse().unwrap())
                .seq(i as u32)
                .payload(b"batch bench payload")
                .build()
        })
        .collect()
}

fn config(batch_size: usize, shards: usize) -> SboxConfig {
    SboxConfig { batch_size, shards, ..SboxConfig::default() }
}

/// Run-to-completion environment: whole-workload cost per batch size.
/// Batch 1 is the seed's per-packet path.
fn bench_bess_batch(c: &mut Criterion) {
    let packets = workload();
    let mut g = c.benchmark_group("bess_batch_fastpath");
    g.throughput(Throughput::Elements(PACKETS as u64));
    for batch in [1usize, 8, 32, 128] {
        g.bench_with_input(BenchmarkId::from_parameter(batch), &batch, |b, &batch| {
            let mut chain = Chain::speedybox_with(ipfilter_chain(3, 200), config(batch, 16));
            // Warm: install every flow's rule and seed the buffer pool so
            // iterations measure the steady-state fast path; the pooled
            // trace copy happens in setup, outside the timed region.
            let pool = Arc::clone(chain.pool());
            let warm = chain.run(pool.copy_packets(&packets));
            pool.free_batch(warm.outputs);
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

/// Threaded (OpenNetVM-style) runtime: manager thread classifies and
/// fast-paths, NF threads serve the slow path. This is where the batched
/// path must be >= the per-packet path at batch 32 (the acceptance bar).
fn bench_threaded_batch(c: &mut Criterion) {
    let packets = workload();
    let mut g = c.benchmark_group("threaded_batch_fastpath");
    g.throughput(Throughput::Elements(PACKETS as u64));
    g.sample_size(10);
    for batch in [1usize, 8, 32, 128] {
        g.bench_with_input(BenchmarkId::from_parameter(batch), &batch, |b, &batch| {
            // NF construction and the trace clone are setup work; the timed
            // region is the threaded run alone.
            b.iter_batched(
                || (ipfilter_chain(3, 200), packets.clone()),
                |(nfs, trace)| black_box(run_threaded(nfs, trace, true, batch)),
                BatchSize::LargeInput,
            );
        });
    }
    g.finish();
}

/// Shard ablation at a fixed batch size: single-threaded cost must be flat
/// across shard counts (sharding only pays off under contention, but must
/// never hurt).
fn bench_shard_ablation(c: &mut Criterion) {
    let packets = workload();
    let mut g = c.benchmark_group("shard_ablation_batch32");
    g.throughput(Throughput::Elements(PACKETS as u64));
    for shards in [1usize, 4, 16] {
        g.bench_with_input(BenchmarkId::from_parameter(shards), &shards, |b, &shards| {
            let mut chain = Chain::speedybox_with(ipfilter_chain(3, 200), config(32, shards));
            let pool = Arc::clone(chain.pool());
            let warm = chain.run(pool.copy_packets(&packets));
            pool.free_batch(warm.outputs);
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

criterion_group!(benches, bench_bess_batch, bench_threaded_batch, bench_shard_ablation);
criterion_main!(benches);
