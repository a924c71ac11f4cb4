//! The bounded flow-state store at scale: install rate into the slab,
//! wait-free lookup latency against a 1M-entry table, LRU eviction churn
//! at capacity, and timer-wheel idle expiry — the micro counterparts of
//! `perfgate --flow-scale`'s gated end-to-end run.
//!
//! Clocks are synthetic ticks (one per operation), so the timer-wheel
//! cascade depth is deterministic per iteration; only the measured wall
//! time varies with the machine.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use speedybox_mat::{AdmissionPolicy, FlowTable, FID_SPACE};
use speedybox_packet::Fid;
use std::hint::black_box;

/// Flows per install/expiry iteration — large enough to spill the wheel's
/// first level and touch many index chunks, small enough to keep
/// criterion's sample count honest.
const BATCH: u32 = 65_536;
/// Live table size for the lookup benchmarks.
const LIVE: u32 = 1_000_000;

fn bench_install(c: &mut Criterion) {
    let mut g = c.benchmark_group("flow_install");
    g.throughput(Throughput::Elements(u64::from(BATCH)));
    // Fresh arena: every insert allocates a never-used slot chunk.
    g.bench_function("fresh_slab", |b| {
        b.iter_batched(
            || FlowTable::<u64>::new(64, FID_SPACE, AdmissionPolicy::EvictOldest),
            |table| {
                for i in 0..BATCH {
                    table.insert(Fid::new(i), u64::from(i), u64::from(i));
                }
                table
            },
            criterion::BatchSize::LargeInput,
        );
    });
    // Recycled arena: the same FIDs re-installed after a full idle sweep,
    // so every insert pops the free list instead of growing the arena.
    g.bench_function("recycled_slots", |b| {
        b.iter_batched(
            || {
                let table = FlowTable::<u64>::new(64, FID_SPACE, AdmissionPolicy::EvictOldest);
                for i in 0..BATCH {
                    table.insert(Fid::new(i), u64::from(i), u64::from(i));
                }
                table.expire_idle(u64::from(BATCH) + 2_000, 1_000);
                table.collect_generations();
                table
            },
            |table| {
                let base = u64::from(BATCH) + 3_000;
                for i in 0..BATCH {
                    table.insert(Fid::new(i), u64::from(i), base + u64::from(i));
                }
                table
            },
            criterion::BatchSize::LargeInput,
        );
    });
    g.finish();
}

fn bench_lookup(c: &mut Criterion) {
    let table = FlowTable::<u64>::new(64, FID_SPACE, AdmissionPolicy::EvictOldest);
    for i in 0..LIVE {
        table.insert(Fid::new(i), u64::from(i), u64::from(i));
    }
    let mut g = c.benchmark_group("flow_lookup_1m_live");
    for stride in [1u32, 4093] {
        // Stride 1 is cache-friendly; 4093 (prime) defeats the prefetcher
        // and spreads across shards — the worst-case pointer chase.
        g.bench_with_input(BenchmarkId::new("stride", stride), &stride, |b, &stride| {
            let mut i = 0u32;
            b.iter(|| {
                i = (i + stride) % LIVE;
                black_box(table.lookup(Fid::new(i)))
            });
        });
    }
    g.finish();
}

fn bench_eviction_churn(c: &mut Criterion) {
    let mut g = c.benchmark_group("flow_eviction");
    g.throughput(Throughput::Elements(u64::from(BATCH)));
    // At capacity, every insert of a fresh FID must LRU-evict a victim:
    // wheel pop, truth check, slot retire, free-list push, re-allocate.
    g.bench_function("churn_at_capacity", |b| {
        b.iter_batched(
            || {
                let table = FlowTable::<u64>::new(64, BATCH as usize, AdmissionPolicy::EvictOldest);
                for i in 0..BATCH {
                    table.insert(Fid::new(i), u64::from(i), u64::from(i));
                }
                table
            },
            |table| {
                let base = u64::from(BATCH);
                for i in 0..BATCH {
                    // A disjoint FID range, so every insert displaces.
                    table.insert(Fid::new(BATCH + i), 0, base + u64::from(i));
                }
                table
            },
            criterion::BatchSize::LargeInput,
        );
    });
    // Bulk idle expiry through the wheel: cascade + truth check per entry.
    g.bench_function("idle_expiry_sweep", |b| {
        b.iter_batched(
            || {
                let table = FlowTable::<u64>::new(64, FID_SPACE, AdmissionPolicy::EvictOldest);
                for i in 0..BATCH {
                    table.insert(Fid::new(i), u64::from(i), u64::from(i));
                }
                table
            },
            |table| {
                let evicted = table.expire_idle(u64::from(BATCH) + 2_000, 1_000);
                assert_eq!(evicted.len(), BATCH as usize);
                table
            },
            criterion::BatchSize::LargeInput,
        );
    });
    g.finish();
}

criterion_group!(benches, bench_install, bench_lookup, bench_eviction_churn);
criterion_main!(benches);
