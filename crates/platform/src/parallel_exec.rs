//! Real-threads execution of a fast-path rule's state-function schedule.
//!
//! The deterministic cycle model in [`crate::cycles`] *accounts* for
//! parallelism; this executor *performs* it, for wall-clock benchmarks and
//! as evidence the Table I schedule is actually safe to run concurrently.
//!
//! Safety argument: a wave never contains two batches that conflict under
//! Table I, so at most one batch in a wave WRITEs the payload (and then
//! every other batch in the wave IGNOREs it). The writer gets the real
//! packet; readers and ignorers get clones — their payload view is
//! guaranteed identical to the sequential execution's because no
//! same-wave batch writes. NF-internal state updates go through each NF's
//! own shared state (`Arc<Mutex<...>>`), exactly as on the slow path.

use speedybox_mat::state_fn::PayloadAccess;
use speedybox_mat::{GlobalRule, OpCounter};
use speedybox_packet::{Fid, Packet};

/// Executes a rule's state-function batches wave by wave, batches within a
/// wave on scoped threads. Returns the merged operation counts.
///
/// Functionally equivalent to [`GlobalRule::execute_batches`] (verified by
/// the equivalence test suite); use this when wall-clock parallel speedup
/// is the point.
#[must_use]
pub fn execute_parallel(rule: &GlobalRule, packet: &mut Packet, fid: Fid) -> OpCounter {
    let mut total = OpCounter::default();
    for wave in &rule.schedule {
        match wave.as_slice() {
            [] => {}
            [only] => {
                let mut ops = OpCounter::default();
                rule.batches[*only].execute(packet, fid, &mut ops);
                total.merge(&ops);
            }
            many => {
                // At most one writer per wave (Table I invariant).
                let writer = many
                    .iter()
                    .copied()
                    .find(|&i| rule.batches[i].access() == PayloadAccess::Write);
                let ops_list = std::thread::scope(|scope| {
                    let mut join = Vec::new();
                    for &i in many {
                        if Some(i) == writer {
                            continue;
                        }
                        let batch = &rule.batches[i];
                        let mut clone = packet.clone();
                        join.push(scope.spawn(move || {
                            let mut ops = OpCounter::default();
                            batch.execute(&mut clone, fid, &mut ops);
                            ops
                        }));
                    }
                    // The writer (or nothing) runs on this thread against
                    // the real packet, concurrently with the clones.
                    let mut writer_ops = OpCounter::default();
                    if let Some(w) = writer {
                        rule.batches[w].execute(packet, fid, &mut writer_ops);
                    }
                    let mut all = vec![writer_ops];
                    for h in join {
                        all.push(h.join().expect("state-function batch panicked"));
                    }
                    all
                });
                for ops in ops_list {
                    total.merge(&ops);
                }
            }
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use parking_lot::Mutex;
    use speedybox_mat::state_fn::{SfBatch, StateFunction};
    use speedybox_mat::{parallel, NfId};
    use speedybox_packet::PacketBuilder;

    use super::*;

    fn rule_from(batches: Vec<SfBatch>) -> GlobalRule {
        let schedule = parallel::schedule(&batches);
        GlobalRule::new(speedybox_mat::ConsolidatedAction::default(), batches, schedule)
    }

    fn packet() -> (Packet, Fid) {
        let mut p = PacketBuilder::tcp().payload(b"0123456789").build();
        let fid = p.five_tuple().unwrap().fid();
        p.set_fid(fid);
        (p, fid)
    }

    #[test]
    fn parallel_readers_see_payload() {
        let seen = Arc::new(Mutex::new(Vec::new()));
        let batches: Vec<SfBatch> = (0..4)
            .map(|i| {
                let seen = seen.clone();
                SfBatch::new(
                    NfId::new(i),
                    vec![StateFunction::new("read", PayloadAccess::Read, move |ctx| {
                        seen.lock().push(ctx.packet.payload().unwrap().to_vec());
                    })],
                )
            })
            .collect();
        let rule = rule_from(batches);
        assert_eq!(rule.schedule.len(), 1, "all readers share one wave");
        let (mut p, fid) = packet();
        let ops = execute_parallel(&rule, &mut p, fid);
        assert_eq!(ops.sf_invocations, 4);
        let seen = seen.lock();
        assert_eq!(seen.len(), 4);
        assert!(seen.iter().all(|s| s == b"0123456789"));
    }

    #[test]
    fn writer_mutates_real_packet() {
        let batches = vec![
            SfBatch::new(
                NfId::new(0),
                vec![StateFunction::new("write", PayloadAccess::Write, |ctx| {
                    if let Ok(p) = ctx.packet.payload_mut() {
                        p[0] = b'X';
                    }
                })],
            ),
            SfBatch::new(
                NfId::new(1),
                vec![StateFunction::new("ignore", PayloadAccess::Ignore, |ctx| {
                    ctx.ops.state_updates += 1;
                })],
            ),
        ];
        let rule = rule_from(batches);
        assert_eq!(rule.schedule.len(), 1, "write+ignore share a wave");
        let (mut p, fid) = packet();
        let ops = execute_parallel(&rule, &mut p, fid);
        assert_eq!(p.payload().unwrap()[0], b'X');
        assert_eq!(ops.state_updates, 1);
    }

    #[test]
    fn sequential_waves_preserve_write_order() {
        let batches = vec![
            SfBatch::new(
                NfId::new(0),
                vec![StateFunction::new("w1", PayloadAccess::Write, |ctx| {
                    ctx.packet.payload_mut().unwrap()[0] = b'A';
                })],
            ),
            SfBatch::new(
                NfId::new(1),
                vec![StateFunction::new("w2", PayloadAccess::Write, |ctx| {
                    ctx.packet.payload_mut().unwrap()[0] = b'B';
                })],
            ),
        ];
        let rule = rule_from(batches);
        assert_eq!(rule.schedule.len(), 2, "writers serialize");
        let (mut p, fid) = packet();
        let _ = execute_parallel(&rule, &mut p, fid);
        assert_eq!(p.payload().unwrap()[0], b'B');
    }

    #[test]
    fn matches_sequential_execution() {
        // Same batches, run sequentially vs in parallel: identical packet
        // and identical shared-state effects.
        let counter = Arc::new(Mutex::new(0u64));
        let mk_batches = |counter: Arc<Mutex<u64>>| {
            vec![
                SfBatch::new(
                    NfId::new(0),
                    vec![StateFunction::new("count", PayloadAccess::Ignore, move |_| {
                        *counter.lock() += 1;
                    })],
                ),
                SfBatch::new(
                    NfId::new(1),
                    vec![StateFunction::new("read", PayloadAccess::Read, |ctx| {
                        let _ = ctx.packet.payload().unwrap();
                    })],
                ),
            ]
        };
        let rule = rule_from(mk_batches(counter.clone()));
        let (mut par, fid) = packet();
        let _ = execute_parallel(&rule, &mut par, fid);
        let par_count = *counter.lock();

        *counter.lock() = 0;
        let rule2 = rule_from(mk_batches(counter.clone()));
        let (mut seq, fid2) = packet();
        let mut ops = OpCounter::default();
        rule2.execute_batches(&mut seq, fid2, &mut ops);
        assert_eq!(par.as_bytes(), seq.as_bytes());
        assert_eq!(par_count, *counter.lock());
    }

    #[test]
    fn empty_rule_is_noop() {
        let rule = rule_from(vec![]);
        let (mut p, fid) = packet();
        let before = p.as_bytes().to_vec();
        let ops = execute_parallel(&rule, &mut p, fid);
        assert_eq!(ops.sf_invocations, 0);
        assert_eq!(p.as_bytes(), &before[..]);
    }
}
