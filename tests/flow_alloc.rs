//! Per-flow allocation gate (DESIGN.md §15.4).
//!
//! Installs a counting global allocator and meters what one short flow
//! costs the heap on the paper's chain1 (MazuNAT → Maglev → Monitor →
//! IPFilter): a SYN, three data segments and a FIN, so each flow is
//! classified, recorded, installed, served on the fast path and torn
//! down. Both chains are gated: SpeedyBox at batch 1 and batch 32, the
//! original chain beside it. A walk allocates nothing, so what is left
//! is the NFs' own per-flow state and, on SpeedyBox, the flow's record
//! and rule. Every flow of the trace has one rule shape, so all share one
//! rule template, built in the warm-up pass: a flow's rule is its
//! operands, its armed event and its hit count.
//!
//! `allocmeter` counts every `realloc` as an allocation with no matching
//! free, so the gate is on allocations, never on allocations minus frees.
//!
//! Like `tests/zero_alloc.rs`, this lives in its own integration-test
//! binary because the global allocator is process-wide: keep this file to
//! a single `#[test]`.

#![forbid(unsafe_code)]

use std::sync::Arc;

use allocmeter::CountingAlloc;
use speedybox_packet::{Magazine, Packet, PacketBuilder, TcpFlags};
use speedybox_platform::chains::chain1;
use speedybox_platform::metrics::ProcessedPacket;
use speedybox_platform::runtime::SboxConfig;
use speedybox_platform::Chain;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// Flows per pass.
const FLOWS: u16 = 256;
/// SpeedyBox's bound, in heap allocations per short flow (6.74 when set).
const MAX_ALLOCS_PER_FLOW: f64 = 7.0;
/// The original chain's bound (10.00 when set: the two-field header
/// actions MazuNAT and Maglev build for every packet, two per packet).
const MAX_ORIGINAL_ALLOCS_PER_FLOW: f64 = 10.0;

/// The trace: each flow's SYN, three data segments and FIN, flow after
/// flow, so at most one flow is live at a time.
fn trace() -> Vec<Packet> {
    let mut packets = Vec::with_capacity(usize::from(FLOWS) * 5);
    for f in 0..FLOWS {
        let segment = |flags: u8, payload: &[u8]| {
            PacketBuilder::tcp()
                .src(format!("10.0.{}.1:{}", f / 200, 1024 + f).parse().unwrap())
                .dst("10.0.0.2:80".parse().unwrap())
                .flags(flags)
                .payload(payload)
                .build()
        };
        packets.push(segment(TcpFlags::SYN, b""));
        for i in 0..3u8 {
            packets.push(segment(TcpFlags::ACK, &[b'a' + i; 64]));
        }
        packets.push(segment(TcpFlags::FIN | TcpFlags::ACK, b""));
    }
    packets
}

/// The harness's own buffers: allocated before the metered pass, so the
/// count is the chain's alone.
struct Buffers {
    mag: Magazine,
    input: Vec<Packet>,
    out: Vec<ProcessedPacket>,
}

/// One pass of `trace` through `chain`, `batch` packets at a time, with
/// pooled copy-in and every survivor recycled.
fn pass(chain: &mut Chain, bufs: &mut Buffers, trace: &[Packet], batch: usize) {
    let Buffers { mag, input, out } = bufs;
    for chunk in trace.chunks(batch) {
        input.extend(chunk.iter().map(|p| mag.copy_packet(p)));
        if batch == 1 {
            out.push(chain.process(input.pop().expect("one packet")));
        } else {
            chain.process_batch_into(input, out);
        }
        for o in out.drain(..) {
            if let Some(packet) = o.packet {
                mag.give_packet(packet);
            }
        }
    }
}

/// Heap allocations per flow of `chain` over one pass after a warm-up
/// pass, and the rule templates SpeedyBox cached by its end.
fn allocs_per_flow(mut chain: Chain, trace: &[Packet], batch: usize) -> (f64, usize) {
    let mut bufs = Buffers {
        mag: Magazine::new(Arc::clone(chain.pool())),
        input: Vec::with_capacity(batch),
        out: Vec::with_capacity(batch),
    };
    pass(&mut chain, &mut bufs, trace, batch);
    let before = ALLOC.snapshot();
    pass(&mut chain, &mut bufs, trace, batch);
    let allocs = ALLOC.snapshot().allocs - before.allocs;
    let templates = chain.sbox().map_or(0, |sbox| sbox.global.templates());
    (allocs as f64 / f64::from(FLOWS), templates)
}

#[test]
fn short_flows_stay_within_the_allocation_bound() {
    let trace = trace();
    let (original, _) = allocs_per_flow(Chain::original(chain1(8).0), &trace, 1);
    assert!(
        original <= MAX_ORIGINAL_ALLOCS_PER_FLOW,
        "original chain: {original:.2} allocations per short flow exceed \
         {MAX_ORIGINAL_ALLOCS_PER_FLOW}"
    );
    for batch in [1usize, 32] {
        let config = SboxConfig { batch_size: batch, ..SboxConfig::default() };
        let (sbox, templates) =
            allocs_per_flow(Chain::speedybox_with(chain1(8).0, config), &trace, batch);
        println!(
            "flow_alloc batch {batch}: speedybox {sbox:.2} allocations per flow, \
             original {original:.2}, {templates} rule template(s) cached"
        );
        assert!(
            sbox <= MAX_ALLOCS_PER_FLOW,
            "batch {batch}: {sbox:.2} allocations per short flow exceed {MAX_ALLOCS_PER_FLOW}"
        );
    }
}
