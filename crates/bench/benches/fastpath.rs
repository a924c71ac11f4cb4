//! Wall-clock per-packet cost of the whole chain: baseline vs SpeedyBox
//! fast path, across chain lengths — the real-time counterpart of Fig 8.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
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

criterion_group!(benches, bench_chain, bench_classifier, bench_global_mat_lookup);
criterion_main!(benches);
