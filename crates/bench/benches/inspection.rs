//! Wall-clock payload-inspection throughput: the Aho–Corasick engine and
//! the full SnortLite NF.
//!
//! The payloads are letters, so roughly one byte in five leaves the
//! automaton's root: this covers the side of the root skip that a
//! letter-free filler (as perfbench's ids-imix sends) never reaches.

#![allow(clippy::cast_possible_truncation)] // bench data built from loop indices

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use speedybox_nf::snort::SnortLite;
use speedybox_nf::{AhoCorasick, Nf, NfContext};
use speedybox_packet::PacketBuilder;
use std::hint::black_box;
use std::ops::ControlFlow;

const RULES: &str = r#"
alert tcp any any -> any 80 (msg:"evil"; content:"evil";)
alert tcp any any -> any any (msg:"exfil"; content:"XFIL";)
log tcp any any -> any any (msg:"probe"; content:"probe";)
log tcp any any -> any any (msg:"beacon"; content:"beacon";)
pass tcp any any -> any any (content:"healthcheck";)
"#;

fn payload(len: usize, hit: bool) -> Vec<u8> {
    let mut out: Vec<u8> = (0..len).map(|i| b'a' + (i % 23) as u8).collect();
    if hit && len >= 8 {
        let mid = len / 2;
        out[mid..mid + 4].copy_from_slice(b"evil");
    }
    out
}

fn bench_aho_corasick(c: &mut Criterion) {
    let patterns: Vec<Vec<u8>> = ["evil", "XFIL", "probe", "beacon", "healthcheck"]
        .iter()
        .map(|p| p.as_bytes().to_vec())
        .collect();
    let ac = AhoCorasick::new(&patterns);
    let mut g = c.benchmark_group("aho_corasick_scan");
    for len in [64usize, 256, 1024] {
        let clean = payload(len, false);
        g.throughput(Throughput::Bytes(len as u64));
        g.bench_with_input(BenchmarkId::new("miss", len), &clean, |b, data| {
            b.iter(|| black_box(ac.find_all(data)));
        });
        let dirty = payload(len, true);
        g.bench_with_input(BenchmarkId::new("hit", len), &dirty, |b, data| {
            b.iter(|| black_box(ac.find_all(data)));
        });
        // The allocation-free search SnortLite inspects with.
        g.bench_with_input(BenchmarkId::new("count_hit", len), &dirty, |b, data| {
            b.iter(|| {
                let mut hits = 0u32;
                ac.for_each_match(data, |_| {
                    hits += 1;
                    ControlFlow::<()>::Continue(())
                });
                black_box(hits)
            });
        });
    }
    g.finish();
}

/// The original NF per packet at IMIX frame sizes, clean and with an
/// alerting content; the log is cleared as it grows.
fn bench_snort_process(c: &mut Criterion) {
    let mut g = c.benchmark_group("snort_process");
    for len in [64usize, 576, 1500] {
        g.throughput(Throughput::Bytes(len as u64));
        for (kind, hit) in [("miss", false), ("hit", true)] {
            g.bench_with_input(BenchmarkId::new(kind, len), &len, |b, &len| {
                let mut ids = SnortLite::from_rules_text(RULES).unwrap();
                let mut p = PacketBuilder::tcp()
                    .src("10.0.0.1:1000".parse().unwrap())
                    .dst("10.0.0.2:80".parse().unwrap())
                    .payload(&payload(len, hit))
                    .build();
                let fid = p.five_tuple().unwrap().fid();
                p.set_fid(fid);
                let mut n = 0u32;
                b.iter(|| {
                    n += 1;
                    if n.is_multiple_of(1024) {
                        ids.clear_log();
                    }
                    let mut ops = speedybox_mat::OpCounter::default();
                    let mut ctx = NfContext::baseline(&mut ops);
                    black_box(ids.process(&mut p, &mut ctx))
                });
            });
        }
    }
    g.finish();
}

criterion_group!(benches, bench_aho_corasick, bench_snort_process);
criterion_main!(benches);
