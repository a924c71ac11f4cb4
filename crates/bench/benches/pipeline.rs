//! Wall-clock end-to-end throughput of the *real* thread-per-NF pipeline
//! (`platform::threaded`): baseline rings-all-the-way vs SpeedyBox
//! manager-side fast path.

#![allow(clippy::cast_possible_truncation)] // bench data built from loop indices

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use speedybox_packet::{Packet, PacketBuilder};
use speedybox_platform::chains::ipfilter_chain;
use speedybox_platform::run_threaded;
use std::hint::black_box;

const PACKETS: usize = 400;
const FLOWS: u16 = 8;

fn workload() -> Vec<Packet> {
    (0..PACKETS)
        .map(|i| {
            PacketBuilder::tcp()
                .src(format!("10.0.0.1:{}", 4000 + (i as u16 % FLOWS)).parse().unwrap())
                .dst("10.0.0.2:80".parse().unwrap())
                .seq(i as u32)
                .payload(b"pipeline bench payload")
                .build()
        })
        .collect()
}

fn bench_threaded_pipeline(c: &mut Criterion) {
    let mut g = c.benchmark_group("threaded_onvm");
    g.sample_size(10);
    g.throughput(Throughput::Elements(PACKETS as u64));
    for n in [2usize, 4] {
        g.bench_with_input(BenchmarkId::new("baseline", n), &n, |b, &n| {
            b.iter_batched(
                || (ipfilter_chain(n, 200), workload()),
                |(nfs, pkts)| black_box(run_threaded(nfs, pkts, false, 1).delivered.len()),
                criterion::BatchSize::PerIteration,
            );
        });
        g.bench_with_input(BenchmarkId::new("speedybox", n), &n, |b, &n| {
            b.iter_batched(
                || (ipfilter_chain(n, 200), workload()),
                |(nfs, pkts)| black_box(run_threaded(nfs, pkts, true, 1).delivered.len()),
                criterion::BatchSize::PerIteration,
            );
        });
    }
    g.finish();
}

criterion_group!(benches, bench_threaded_pipeline);
criterion_main!(benches);
