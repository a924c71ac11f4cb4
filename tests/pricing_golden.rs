//! Pricing fence: every packet's modeled price must stay put.
//!
//! `tests/golden/pricing.txt` pins, for each run below, an FNV-1a hash of
//! every packet's `(path, work_cycles, latency_cycles)` in order, plus the
//! run's stage, worker and wall cycle totals. `repro_golden` prints rates
//! and latencies rounded to two decimals, and the telemetry and worker
//! differential tests compare two outputs of the same pricing; this file
//! is what holds the prices themselves.
//!
//! The trace mixes seeded TCP and UDP flows (SYN, data, FIN), an
//! unparseable frame, a pair of flows whose FIDs collide, and flows an NF
//! drops: one to the NAT's external address (chain1's MazuNAT drops it)
//! and one into the IPFilters' deny prefix (chain2's first NF drops it).
//! Each run processes the trace in two halves; between them the four
//! least-recently-seen flows are force-evicted and three flows that span
//! the boundary lose their rule, so the second half prices re-recorded
//! flows and the evicted-rule fallback.
//!
//! Runs: chain1 and chain2 on BESS and ONVM, original and SpeedyBox at
//! batch 1 and 32 (the original chain has no batch size), plus SpeedyBox
//! chain2 on ONVM with each ablation knob off and chain1 on BESS at batch
//! 32 over four workers. A change that means to move a price regenerates
//! the file from this test's `--nocapture` output and says why.

use std::collections::HashSet;
use std::fmt::Write as _;
use std::net::{Ipv4Addr, SocketAddrV4};

use speedybox::nf::Nf;
use speedybox::packet::{Fid, FiveTuple, Packet, PacketBuilder, Protocol, TcpFlags};
use speedybox::platform::chains;
use speedybox::platform::runtime::SboxConfig;
use speedybox::platform::{Chain, PathKind, Platform};
use speedybox::traffic::{Workload, WorkloadConfig};

const GOLDEN: &str = include_str!("golden/pricing.txt");

/// Two TCP flows to 10.0.0.2:80 whose FIDs collide (as in
/// `tests/fid_collision.rs`).
fn colliding_tuples() -> (FiveTuple, FiveTuple) {
    let mut seen = std::collections::HashMap::new();
    for a in 0..=255u8 {
        for b in 0..=255u8 {
            for port in [1000u16, 2000, 3000, 4000] {
                let t = FiveTuple::new(
                    Ipv4Addr::new(10, 5, a, b),
                    port,
                    Ipv4Addr::new(10, 0, 0, 2),
                    80,
                    Protocol::Tcp,
                );
                if let Some(prev) = seen.insert(t.fid(), t) {
                    if prev != t {
                        return (prev, t);
                    }
                }
            }
        }
    }
    panic!("no collision found");
}

/// A SYN, `data` data segments and a FIN of the flow `src` → `dst`.
fn tcp_flow(src: SocketAddrV4, dst: SocketAddrV4, data: u8) -> Vec<Packet> {
    let mut b = PacketBuilder::tcp();
    b.src(src).dst(dst);
    let mut out = vec![b.flags(TcpFlags::SYN).payload(b"").build()];
    for i in 0..data {
        out.push(b.flags(TcpFlags::ACK).seq(u32::from(i) + 1).payload(&[b'a' + i; 48]).build());
    }
    out.push(b.flags(TcpFlags::FIN | TcpFlags::ACK).payload(b"").build());
    out
}

/// The seeded workload with the special packets woven in.
fn trace() -> Vec<Packet> {
    let config = WorkloadConfig {
        flows: 48,
        median_packets: 6.0,
        payload_len: 96,
        udp_fraction: 0.15,
        suspicious_fraction: 0.25,
        seed: 18,
        ..WorkloadConfig::default()
    };
    let mut trace = Workload::generate(&config).packets();
    let (a, b) = colliding_tuples();
    let addr = |t: &FiveTuple| {
        (SocketAddrV4::new(t.src_ip, t.src_port), SocketAddrV4::new(t.dst_ip, t.dst_port))
    };
    let (a_src, a_dst) = addr(&a);
    let (b_src, b_dst) = addr(&b);
    let nat_external = SocketAddrV4::new(Ipv4Addr::new(198, 51, 100, 1), 9999);
    let denied = SocketAddrV4::new(Ipv4Addr::new(203, 0, 113, 7), 80);
    let client = |port| SocketAddrV4::new(Ipv4Addr::new(10, 3, 0, 1), port);
    let extras = [
        (10, tcp_flow(a_src, a_dst, 4)),
        (14, tcp_flow(b_src, b_dst, 3)),
        (30, tcp_flow(client(5000), nat_external, 3)),
        (50, tcp_flow(client(5001), denied, 3)),
    ];
    // Weave each extra flow in every fifth packet from its offset.
    for (offset, flow) in extras.into_iter().rev() {
        for (k, p) in flow.into_iter().enumerate() {
            let at = (offset + 5 * k).min(trace.len());
            trace.insert(at, p);
        }
    }
    // IP protocol 1 (ICMP): no 5-tuple, so the classifier drops it.
    let mut garbage = trace[3].clone();
    garbage.frame_mut()[23] = 1;
    assert!(garbage.five_tuple().is_err(), "the corrupted frame must not parse");
    trace.insert(20, garbage);
    trace
}

fn build(chain: &str) -> Vec<Box<dyn Nf>> {
    match chain {
        "chain1" => chains::chain1(8).0,
        "chain2" => chains::chain2().0,
        other => panic!("unknown chain {other}"),
    }
}

fn fnv(hash: &mut u64, value: u64) {
    for byte in value.to_le_bytes() {
        *hash ^= u64::from(byte);
        *hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
}

/// The index of `path` in `RunStats::path_counts`.
fn path_index(path: PathKind) -> u64 {
    match path {
        PathKind::Baseline => 0,
        PathKind::Initial => 1,
        PathKind::Subsequent => 2,
    }
}

/// The mid-run faults: force-evicts the four least-recently-seen flows
/// and takes the rule of each flow in `spanning`.
fn evict(chain: &Chain, spanning: &[Fid]) {
    if let Some(sbox) = chain.sbox() {
        sbox.force_evict_flows(4);
        for &fid in spanning {
            sbox.global.remove_flow(fid);
        }
    }
}

/// Runs `trace` in two halves with the mid-run faults between them, on
/// two chains `make` builds alike: one driven packet by packet (or
/// `batch` packets at a time) as `Chain::run` drives it, for each
/// packet's path and price, and its twin through `Chain::run`, for the
/// stage, worker and wall totals. Renders one line per half.
fn run(label: &str, make: &dyn Fn() -> Chain, batch: usize, trace: &[Packet]) -> String {
    let (first, second) = trace.split_at(trace.len() / 2);
    let fid = |p: &Packet| p.five_tuple().ok().map(|t| t.fid());
    let before: HashSet<Fid> = first.iter().filter_map(fid).collect();
    let mut spanning: Vec<Fid> = Vec::new();
    for f in second.iter().filter_map(fid) {
        if before.contains(&f) && !spanning.contains(&f) && spanning.len() < 3 {
            spanning.push(f);
        }
    }
    let (mut driven, mut twin) = (make(), make());
    let mut out = String::new();
    let mut dropped = 0;
    for (half, packets) in [first, second].into_iter().enumerate() {
        if half == 1 {
            evict(&driven, &spanning);
            evict(&twin, &spanning);
        }
        let mut outcomes = Vec::with_capacity(packets.len());
        for chunk in packets.chunks(batch) {
            if batch == 1 {
                outcomes.push(driven.process(chunk[0].clone()));
            } else {
                let mut out = Vec::new();
                driven.process_batch_into(&mut chunk.to_vec(), &mut out);
                outcomes.extend(out);
            }
        }
        let stats = twin.run(packets.to_vec());
        dropped += stats.dropped;
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for (i, o) in outcomes.iter().enumerate() {
            assert_eq!(
                (o.work_cycles, o.latency_cycles),
                (stats.work_cycles[i], stats.latencies_cycles[i]),
                "{label}: packet {i} priced differently by its twin"
            );
            fnv(&mut hash, path_index(o.path));
            fnv(&mut hash, o.work_cycles);
            fnv(&mut hash, o.latency_cycles);
        }
        let _ = writeln!(
            out,
            "{label} half{half}: paths={:?} packets={hash:016x} stages={:?} workers={:?} wall={}",
            stats.path_counts, stats.stage_cycles, stats.worker_cycles, stats.worker_wall_cycles
        );
    }
    // The trace reaches what it is meant to price.
    assert!(dropped > 0, "{label}: no packet dropped");
    if let Some(sbox) = driven.sbox() {
        let snap = sbox.telemetry.snapshot();
        assert!(snap.fid_collisions > 0, "{label}: no FID collision");
        assert!(snap.fastpath_misses > 0, "{label}: no evicted-rule fallback");
        assert!(snap.flows_evicted > 0, "{label}: no forced eviction");
    }
    out
}

/// Every run's rendering, in golden order.
fn rendering() -> String {
    let trace = trace();
    let mut out = String::new();
    for chain in ["chain1", "chain2"] {
        for platform in Platform::ALL {
            let env = platform.as_str();
            let original = || Chain::original(build(chain)).with_platform(platform);
            out.push_str(&run(&format!("{chain} {env} original"), &original, 1, &trace));
            for batch_size in [1, 32] {
                let config = SboxConfig { batch_size, ..SboxConfig::default() };
                let sbox = || Chain::speedybox_with(build(chain), config).with_platform(platform);
                let label = format!("{chain} {env} sbox b{batch_size}");
                out.push_str(&run(&label, &sbox, batch_size, &trace));
            }
        }
    }
    let base = SboxConfig::default();
    let ablations = [
        ("consolidate_ha=false", SboxConfig { consolidate_ha: false, ..base }),
        ("parallelize_sf=false", SboxConfig { parallelize_sf: false, ..base }),
        ("compiled=false", SboxConfig { compiled: false, ..base }),
    ];
    for (knob, config) in ablations {
        let chain = || Chain::speedybox_with(build("chain2"), config).with_platform(Platform::Onvm);
        out.push_str(&run(&format!("chain2 onvm sbox b1 {knob}"), &chain, 1, &trace));
    }
    let workers = SboxConfig { workers: 4, batch_size: 32, ..base };
    let chain = || Chain::speedybox_with(build("chain1"), workers);
    out.push_str(&run("chain1 bess sbox b32 workers=4", &chain, 32, &trace));
    out
}

#[test]
fn every_packet_is_priced_as_the_golden_file_says() {
    let rendered = rendering();
    println!("{rendered}");
    let golden: Vec<&str> = GOLDEN.lines().collect();
    let now: Vec<&str> = rendered.lines().collect();
    assert_eq!(now.len(), golden.len(), "one golden line per run half");
    let mut drift = String::new();
    for (g, n) in golden.iter().zip(&now) {
        if g != n {
            let _ = writeln!(drift, "golden: {g}\n   now: {n}");
        }
    }
    assert!(drift.is_empty(), "prices drifted from tests/golden/pricing.txt:\n{drift}");
}
