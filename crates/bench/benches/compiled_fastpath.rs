//! Wall-clock cost of the compiled fast path vs the interpreter: the same
//! chain, the same rule, executed once as straight-line micro-ops with
//! incremental checksum patches and once by interpreting the consolidated
//! action with full trailing recomputes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use speedybox_mat::{compile, consolidate, HeaderAction, OpCounter};
use speedybox_packet::{HeaderField, Packet, PacketBuilder};
use speedybox_platform::chains::ipfilter_chain;
use speedybox_platform::runtime::SboxConfig;
use speedybox_platform::Chain;
use std::hint::black_box;
use std::net::Ipv4Addr;

fn packet(i: u32) -> Packet {
    PacketBuilder::tcp()
        .src("10.0.0.1:4242".parse().unwrap())
        .dst("10.0.0.2:80".parse().unwrap())
        .seq(i)
        .payload(b"bench payload")
        .build()
}

/// Whole-chain per-packet cost with the rule executed compiled vs
/// interpreted — the knob the `--interpreted` CLI flag flips.
fn bench_chain_modes(c: &mut Criterion) {
    let mut g = c.benchmark_group("bess_fastpath_mode");
    for (mode, compiled) in [("compiled", true), ("interpreted", false)] {
        g.bench_with_input(BenchmarkId::new(mode, 3usize), &compiled, |b, &compiled| {
            let config = SboxConfig { compiled, ..SboxConfig::default() };
            let mut chain = Chain::speedybox_with(ipfilter_chain(3, 200), config);
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

/// The header-action step in isolation: `CompiledProgram::run` vs
/// `ConsolidatedAction::apply` on a representative NAT+LB rewrite.
fn bench_rule_apply(c: &mut Criterion) {
    let action = consolidate(&[
        HeaderAction::modify(HeaderField::DstIp, Ipv4Addr::new(10, 9, 9, 9)),
        HeaderAction::modify(HeaderField::DstPort, 8080u16),
        HeaderAction::modify(HeaderField::SrcIp, Ipv4Addr::new(172, 16, 0, 1)),
        HeaderAction::Forward,
    ]);
    let program = compile(&action);
    let template = packet(0);
    c.bench_function("rule_apply/compiled", |b| {
        b.iter(|| {
            let mut p = template.clone();
            let mut ops = OpCounter::default();
            black_box(program.run(&mut p, &mut ops).unwrap())
        });
    });
    c.bench_function("rule_apply/interpreted", |b| {
        b.iter(|| {
            let mut p = template.clone();
            let mut ops = OpCounter::default();
            black_box(action.apply(&mut p, &mut ops).unwrap())
        });
    });
}

criterion_group!(benches, bench_chain_modes, bench_rule_apply);
criterion_main!(benches);
