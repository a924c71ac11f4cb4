//! Zero-allocation gate for payload inspection (DESIGN.md §15.4).
//!
//! Installs a counting global allocator and proves that, once warm,
//! chain2 (IPFilter → Snort → Monitor) performs **zero** heap allocations
//! per batch on both arms: SpeedyBox at batch 32, whose fast path runs
//! Snort's recorded inspection state function, and the original chain,
//! which selects Snort's candidate rules and inspects on every packet. It
//! holds for clean payloads and for payloads that hit the default rules
//! (`evil`, `XFIL`, `probe`), whose firings the IDS logs. As perfbench
//! does at pass boundaries, the log is cleared between batches, so its
//! buffer keeps the capacity the warm-up grew.
//!
//! Like `tests/zero_alloc.rs`, this lives in its own integration-test
//! binary because the global allocator is process-wide: keep this file to
//! a single `#[test]`.

#![forbid(unsafe_code)]

use std::sync::Arc;

use allocmeter::CountingAlloc;
use speedybox_nf::snort::SnortLite;
use speedybox_packet::{Magazine, Packet, PacketBuilder};
use speedybox_platform::chains::chain2;
use speedybox_platform::metrics::ProcessedPacket;
use speedybox_platform::runtime::SboxConfig;
use speedybox_platform::Chain;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

const BATCH: usize = 32;
const FLOWS: usize = 8;
const WARMUP: usize = 16;
const MEASURED: usize = 16;

/// Payloads without a rule's content, in letter-free filler as perfbench
/// builds them.
const CLEAN: [&[u8]; 2] = [b"0123456789 /:.-_+=#0123456789", b"42"];
/// Payloads that alert (`evil` to port 80, `XFIL`) or log (`probe`).
const SUSPICIOUS: [&[u8]; 3] = [b"GET /evil HTTP/1.1", b"0123 XFIL 4567", b"-- probe --"];

/// A heap-built template batch: FLOWS flows to port 80, BATCH/FLOWS data
/// segments each, the flow's payload drawn from `payloads` in turn.
fn template(payloads: &[&[u8]]) -> Vec<Packet> {
    (0..BATCH)
        .map(|i| {
            let flow = i % FLOWS;
            PacketBuilder::tcp()
                .src(format!("10.0.0.1:{}", 1000 + flow).parse().unwrap())
                .dst("10.0.0.2:80".parse().unwrap())
                .payload(payloads[flow % payloads.len()])
                .build()
        })
        .collect()
}

/// Runs `batches` copies of `template` through `chain` with pooled copy-in
/// and every survivor recycled, clearing the IDS log before each batch.
fn run(
    chain: &mut Chain,
    snort: &SnortLite,
    (mag, input, out): &mut (Magazine, Vec<Packet>, Vec<ProcessedPacket>),
    template: &[Packet],
    batches: usize,
) {
    for _ in 0..batches {
        snort.clear_log();
        input.extend(template.iter().map(|p| mag.copy_packet(p)));
        chain.process_batch_into(input, out);
        for o in out.drain(..) {
            if let Some(pkt) = o.packet {
                mag.give_packet(pkt);
            }
        }
    }
}

#[test]
fn warm_chain2_batches_allocate_nothing_on_either_arm() {
    for (kind, payloads, logged) in
        [("clean", &CLEAN[..], 0), ("suspicious", &SUSPICIOUS[..], BATCH)]
    {
        for speedybox in [true, false] {
            let (nfs, handles) = chain2();
            let mut chain = if speedybox {
                Chain::speedybox_with(
                    nfs,
                    SboxConfig { batch_size: BATCH, ..SboxConfig::default() },
                )
            } else {
                Chain::original(nfs)
            };
            let arm = if speedybox { "SpeedyBox batch 32" } else { "original" };
            let template = template(payloads);
            let mut bufs = (
                Magazine::new(Arc::clone(chain.pool())),
                Vec::with_capacity(BATCH),
                Vec::with_capacity(BATCH),
            );

            // Warm-up: the first batch records and installs each flow's
            // rule; later ones grow every scratch buffer, the IDS log and
            // the inspecting thread's bitset, and seed the pool.
            run(&mut chain, &handles.snort, &mut bufs, &template, WARMUP);
            if speedybox {
                let warm = chain.telemetry().snapshot();
                assert!(
                    warm.paths[2] >= warm.packets - BATCH as u64,
                    "{arm}, {kind}: every batch after the first must ride the fast path"
                );
            }

            let before = ALLOC.snapshot();
            run(&mut chain, &handles.snort, &mut bufs, &template, MEASURED);
            let after = ALLOC.snapshot();
            let allocs = after.allocs - before.allocs;
            assert_eq!(
                allocs,
                0,
                "{arm}, {kind} payloads: warm chain2 batches hit the heap: {allocs} allocations \
                 ({} bytes) across {MEASURED} batches of {BATCH}",
                after.bytes - before.bytes
            );
            // The last batch's firings are still in the log: every
            // suspicious packet fired a logging rule, no clean one did.
            assert_eq!(handles.snort.log().len(), logged, "{arm}, {kind}: IDS log");
        }
    }
}
