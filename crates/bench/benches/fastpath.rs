//! Wall-clock per-packet cost of the whole chain: baseline vs SpeedyBox
//! fast path, across chain lengths — the real-time counterpart of Fig 8.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use speedybox_packet::{Packet, PacketBuilder};
use speedybox_platform::chains::ipfilter_chain;
use speedybox_platform::Chain;
use std::hint::black_box;

fn packet(i: u32) -> Packet {
    PacketBuilder::tcp()
        .src("10.0.0.1:4242".parse().unwrap())
        .dst("10.0.0.2:80".parse().unwrap())
        .seq(i)
        .payload(b"bench payload")
        .build()
}

fn bench_chain(c: &mut Criterion) {
    let mut g = c.benchmark_group("bess_chain_per_packet");
    for n in [1usize, 3, 6, 9] {
        g.bench_with_input(BenchmarkId::new("original", n), &n, |b, &n| {
            let mut chain = Chain::original(ipfilter_chain(n, 200));
            chain.process(packet(0)); // warm the firewall flow caches
            let mut i = 1;
            b.iter(|| {
                i += 1;
                black_box(chain.process(packet(i)))
            });
        });
        g.bench_with_input(BenchmarkId::new("speedybox", n), &n, |b, &n| {
            let mut chain = Chain::speedybox(ipfilter_chain(n, 200));
            chain.process(packet(0)); // install the fast-path rule
            let mut i = 1;
            b.iter(|| {
                i += 1;
                black_box(chain.process(packet(i)))
            });
        });
    }
    g.finish();
}

fn bench_classifier(c: &mut Criterion) {
    use speedybox_mat::{OpCounter, PacketClassifier};
    let classifier = PacketClassifier::new();
    let mut p = packet(0);
    c.bench_function("classifier_per_packet", |b| {
        b.iter(|| {
            let mut ops = OpCounter::default();
            black_box(classifier.classify(&mut p, &mut ops).unwrap())
        });
    });
}

fn bench_global_mat_lookup(c: &mut Criterion) {
    use speedybox_mat::OpCounter;
    let mut chain = Chain::speedybox(ipfilter_chain(3, 50));
    let mut first = packet(0);
    let fid = first.five_tuple().unwrap().fid();
    chain.process(first.clone());
    let sbox = chain.sbox().unwrap();
    c.bench_function("global_mat_prepare", |b| {
        b.iter(|| {
            let mut ops = OpCounter::default();
            black_box(sbox.global.prepare(fid, &mut ops))
        });
    });
    let _ = &mut first;
}

/// Records per timed iteration in `telemetry_per_packet`: the harness
/// reads the clock once per iteration, which would swamp one record.
const RECORDS: u64 = 64;

/// The per-packet telemetry of one chain1 fast-path packet, two ways: the
/// hub's shared shards (`metrics::observe` plus the fast-path and compiled
/// hit, as perfbench's traced replica records), and the lane's own cell,
/// as every `Chain` and worker lane records. The lane's figure is the
/// per-packet telemetry cost of SpeedyBox's own runtimes.
fn bench_telemetry(c: &mut Criterion) {
    use speedybox_platform::chains::chain1;
    use speedybox_platform::metrics::observe;
    use speedybox_platform::{PathKind, SboxConfig};
    use speedybox_telemetry::Telemetry;

    let mut chain = Chain::speedybox(chain1(4).0);
    chain.process(packet(0)); // install the fast-path rule
    let outcome = chain.process(packet(1));
    assert_eq!(outcome.path, PathKind::Subsequent, "a fast-path packet");
    let hint = packet(1).five_tuple().unwrap().fid().index() as u64;
    let telemetry = Telemetry::new(SboxConfig::default().shards);
    let mut g = c.benchmark_group("telemetry_per_packet");
    g.throughput(Throughput::Elements(RECORDS));
    g.bench_function("observe", |b| {
        b.iter(|| {
            for _ in 0..RECORDS {
                let outcome = black_box(&outcome);
                let shard = telemetry.shard(hint);
                shard.add_fastpath_hits(1);
                shard.add_compiled_hits(1);
                observe(&telemetry, hint, outcome);
            }
        });
    });
    let mut lane = telemetry.lane();
    g.bench_function("lane", |b| {
        b.iter(|| {
            for _ in 0..RECORDS {
                let outcome = black_box(&outcome);
                lane.add_fastpath_hits(1);
                lane.add_compiled_hits(1);
                lane.record_packet(
                    outcome.path.telemetry_class(),
                    outcome.latency_cycles,
                    outcome.survived(),
                );
                lane.add_ops(&outcome.ops.telemetry_totals());
            }
        });
    });
    g.finish();
}

criterion_group!(benches, bench_chain, bench_classifier, bench_global_mat_lookup, bench_telemetry);
criterion_main!(benches);
