//! Threaded regression tests for the generation-drain edge the model
//! checker proves in miniature (`rcu_drain_deferred` in
//! `vendor/arcswap/src/model.rs`, run by `tests/model_rcu.rs`): a reader
//! in flight defers reclamation of retired slot generations, and an
//! explicit [`FlowTable::collect_generations`] after quiescence must drain
//! the backlog to zero — deferred forever is a leak, drained early is a
//! use-after-free. The model checker explores every interleaving of a
//! 3-thread distillation; these tests hammer the real slab/ArcSwap table
//! with OS threads to keep the distillation honest.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;

use speedybox_mat::{AdmissionPolicy, FlowTable};
use speedybox_packet::Fid;

const FLOWS: u32 = 64;

fn filled_table() -> Arc<FlowTable<u64>> {
    let table = Arc::new(FlowTable::new(4, 4096, AdmissionPolicy::EvictOldest));
    for n in 0..FLOWS {
        table.insert(Fid::new(n), u64::from(n), 0);
    }
    table
}

/// Writer churn retires generations while readers race the reclamation
/// window; after every thread quiesces, one explicit collect must leave
/// zero pending generations and the latest values visible.
#[test]
fn drain_completes_after_reader_quiescence() {
    let table = filled_table();
    let stop = Arc::new(AtomicBool::new(false));
    const ROUNDS: u64 = 400;

    let readers: Vec<_> = (0..4)
        .map(|r| {
            let table = Arc::clone(&table);
            let stop = Arc::clone(&stop);
            thread::spawn(move || {
                let mut held = Vec::new();
                while !stop.load(Ordering::Relaxed) {
                    for n in 0..FLOWS {
                        let value = table.get(Fid::new(n)).expect("flow stays present");
                        // Every observed generation encodes its flow: a
                        // freed-too-early value would read garbage here.
                        assert_eq!(*value % u64::from(FLOWS), u64::from(n));
                        // Pin a few generations past their retirement so
                        // the drain really is deferred, not just racing.
                        if n % 16 == r {
                            held.push(value);
                        }
                    }
                    if held.len() > 1024 {
                        held.clear();
                    }
                }
            })
        })
        .collect();

    for round in 1..=ROUNDS {
        for n in 0..FLOWS {
            let v = round * u64::from(FLOWS) + u64::from(n);
            assert!(table.republish(Fid::new(n), |_| Some(v)).is_some(), "flow {n} present");
        }
    }
    stop.store(true, Ordering::Relaxed);
    for r in readers {
        r.join().unwrap();
    }

    // Quiescent now: one collect drains every retired generation.
    table.collect_generations();
    assert_eq!(table.pending_generations(), 0, "deferred generations must drain at quiescence");
    for n in 0..FLOWS {
        assert_eq!(*table.get(Fid::new(n)).unwrap(), ROUNDS * u64::from(FLOWS) + u64::from(n));
    }
}

/// Slot recycling (remove, then a different flow re-using the slab slot)
/// retires the shared-empty generation too; the backlog must still drain
/// to zero and recycled slots must serve the new owner only.
#[test]
fn recycling_slots_drains_fully() {
    let table = filled_table();
    let stop = Arc::new(AtomicBool::new(false));

    let reader = {
        let table = Arc::clone(&table);
        let stop = Arc::clone(&stop);
        thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                for n in 0..(2 * FLOWS) {
                    if let Some(value) = table.get(Fid::new(n)) {
                        assert_eq!(*value % u64::from(2 * FLOWS), u64::from(n));
                    }
                }
            }
        })
    };

    for round in 0..200u64 {
        // Evict the even flows, re-admit odd-offset flows into the freed
        // slots, then restore — every round recycles half the slab twice.
        for n in (0..FLOWS).step_by(2) {
            table.remove(Fid::new(n));
        }
        for n in (0..FLOWS).step_by(2) {
            let fid = FLOWS + n; // different flow, recycled slot
            table.insert(Fid::new(fid), u64::from(fid), round);
        }
        for n in (0..FLOWS).step_by(2) {
            table.remove(Fid::new(FLOWS + n));
            table.insert(Fid::new(n), u64::from(n), round);
        }
    }
    stop.store(true, Ordering::Relaxed);
    reader.join().unwrap();

    table.collect_generations();
    assert_eq!(table.pending_generations(), 0, "recycled-slot generations must drain");
    for n in 0..FLOWS {
        if n % 2 == 0 {
            assert_eq!(*table.get(Fid::new(n)).unwrap(), u64::from(n));
        }
        assert!(table.get(Fid::new(FLOWS + n)).is_none(), "recycled owner evicted");
    }
}
