//! Concurrency stress for the sharded Packet Classifier and Global MAT.
//!
//! The sharded tables claim to support concurrent manager threads: writers
//! block only their own shard, readers of different shards never contend,
//! and rule handles (`Arc<GlobalRule>`) stay valid across concurrent
//! installs/removals. These tests hammer `install` / `rule` /
//! `remove_flow` / `expire_idle` from ≥4 threads and assert the
//! linearizable outcomes: no lost or duplicated rules, hit counters that
//! sum exactly, and FID-collision detection that still routes colliding
//! flows to the slow path under contention.

#![allow(clippy::cast_possible_truncation)] // test data built from loop indices

use std::collections::{HashMap, HashSet};
use std::net::{Ipv4Addr, SocketAddrV4};
use std::sync::Arc;

use speedybox::mat::{
    FastPathOutcome, GlobalMat, HeaderAction, LocalMat, NfId, OpCounter, PacketClass,
    PacketClassifier,
};
use speedybox::packet::{Fid, FiveTuple, Packet, PacketBuilder, Protocol};

const THREADS: usize = 4;
const FLOWS_PER_THREAD: u32 = 256;

/// One fast-path `GlobalMat::process` per packet, in order.
fn process_each(
    gm: &GlobalMat,
    packets: &mut [Packet],
    ops: &mut [OpCounter],
) -> Vec<FastPathOutcome> {
    packets.iter_mut().zip(ops).map(|(p, ops)| gm.process(p, ops).unwrap()).collect()
}

/// A Global MAT over one Local MAT pre-seeded with a Forward rule for the
/// first `flows` FIDs, so `install` consolidates real content.
fn mat_with_locals(flows: u32, shards: usize) -> GlobalMat {
    let local = Arc::new(LocalMat::new(NfId::new(0)));
    for i in 0..flows {
        local.set_header_actions(Fid::new(i), vec![HeaderAction::Forward]);
    }
    GlobalMat::with_shards(vec![local], shards)
}

#[test]
fn concurrent_installs_lose_nothing() {
    let total = THREADS as u32 * FLOWS_PER_THREAD;
    let gm = mat_with_locals(total, 8);
    std::thread::scope(|s| {
        for t in 0..THREADS as u32 {
            let gm = &gm;
            s.spawn(move || {
                let mut ops = OpCounter::default();
                for i in 0..FLOWS_PER_THREAD {
                    let fid = Fid::new(t * FLOWS_PER_THREAD + i);
                    gm.install(fid, &mut ops);
                    assert!(gm.contains(fid), "own install visible immediately");
                }
            });
        }
        // Concurrent readers sweeping the whole FID range must never see
        // torn state (they may see a rule or not, but must not panic or
        // observe len exceeding the final total).
        for _ in 0..2 {
            let gm = &gm;
            s.spawn(move || {
                for round in 0..20 {
                    let len = gm.len();
                    assert!(len <= total as usize, "len {len} exceeds installs (round {round})");
                    for i in (0..total).step_by(17) {
                        let _ = gm.rule(Fid::new(i));
                    }
                }
            });
        }
    });
    assert_eq!(gm.len(), total as usize, "every install retained exactly once");
    for i in 0..total {
        assert!(gm.contains(Fid::new(i)), "fid {i} lost");
    }
}

/// Installs of one rule shape racing on four threads share one template:
/// each flow keeps only its own operands. After settling, the cache holds
/// exactly the template the live rules use, and nothing once they are
/// torn down.
#[test]
fn racing_installs_of_one_shape_share_one_template() {
    use speedybox::mat::state_fn::PayloadAccess;
    use speedybox::mat::StateFunction;
    use speedybox::packet::HeaderField;

    let total = THREADS as u32 * FLOWS_PER_THREAD;
    let locals: Vec<Arc<LocalMat>> =
        (0..2).map(|i| Arc::new(LocalMat::new(NfId::new(i)))).collect();
    let gm = GlobalMat::with_shards(locals.clone(), 8);
    let count = StateFunction::new("count", PayloadAccess::Ignore, |_| {});
    let port = |fid: u32| 1024 + fid as u16;
    std::thread::scope(|s| {
        for t in 0..THREADS as u32 {
            let (gm, locals, count) = (&gm, &locals, &count);
            s.spawn(move || {
                let mut ops = OpCounter::default();
                for i in 0..FLOWS_PER_THREAD {
                    let fid = t * FLOWS_PER_THREAD + i;
                    let rewrite = HeaderAction::modify(HeaderField::DstPort, port(fid));
                    locals[0].add_header_action(Fid::new(fid), rewrite, &mut ops);
                    locals[1].add_state_function(Fid::new(fid), count.clone(), &mut ops);
                    gm.install(Fid::new(fid), &mut ops);
                }
            });
        }
    });
    gm.collect_generations();
    assert_eq!(gm.len(), total as usize, "every install retained exactly once");
    assert_eq!(gm.templates(), 1, "one shape, one template");
    let template = gm.rule(Fid::new(0)).expect("installed").template().clone();
    for fid in 0..total {
        let rule = gm.rule(Fid::new(fid)).expect("installed");
        assert!(Arc::ptr_eq(rule.template(), &template), "fid {fid} has a template of its own");
        assert_eq!(rule.operands(), [port(fid).into()], "fid {fid} keeps its own operand");
    }
    drop(template);
    for fid in 0..total {
        gm.remove_flow(Fid::new(fid));
    }
    gm.collect_generations();
    assert!(gm.is_empty() && gm.pending_generations() == 0);
    assert_eq!(gm.templates(), 0, "no template outlives the rules that used it");
}

#[test]
fn concurrent_install_remove_partition() {
    // FIDs [0, total) start installed and get removed concurrently while
    // FIDs [total, 2*total) are installed concurrently — from interleaved
    // threads hitting shared shards.
    let total = THREADS as u32 * FLOWS_PER_THREAD;
    let gm = mat_with_locals(2 * total, 8);
    let mut ops = OpCounter::default();
    for i in 0..total {
        gm.install(Fid::new(i), &mut ops);
    }
    std::thread::scope(|s| {
        for t in 0..THREADS as u32 {
            let gm = &gm;
            s.spawn(move || {
                for i in 0..FLOWS_PER_THREAD {
                    gm.remove_flow(Fid::new(t * FLOWS_PER_THREAD + i));
                }
            });
            s.spawn(move || {
                let mut ops = OpCounter::default();
                for i in 0..FLOWS_PER_THREAD {
                    gm.install(Fid::new(total + t * FLOWS_PER_THREAD + i), &mut ops);
                }
            });
        }
    });
    assert_eq!(gm.len(), total as usize);
    for i in 0..total {
        assert!(!gm.contains(Fid::new(i)), "removed fid {i} resurrected");
        assert!(gm.contains(Fid::new(total + i)), "installed fid {} lost", total + i);
    }
}

#[test]
fn hit_counters_sum_exactly_across_threads() {
    const FLOWS: u32 = 64;
    const HITS_PER_THREAD: u64 = 200;
    let gm = mat_with_locals(FLOWS, 4);
    let mut ops = OpCounter::default();
    for i in 0..FLOWS {
        gm.install(Fid::new(i), &mut ops);
    }
    let thread_ops: Vec<OpCounter> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let gm = &gm;
                s.spawn(move || {
                    let mut ops = OpCounter::default();
                    for _ in 0..HITS_PER_THREAD {
                        for i in 0..FLOWS {
                            let rule = gm.prepare(Fid::new(i), &mut ops);
                            assert!(rule.is_some(), "installed rule must be found");
                        }
                    }
                    ops
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    // Every fast-path hit landed on exactly one rule's counter.
    for i in 0..FLOWS {
        let rule = gm.rule(Fid::new(i)).expect("rule installed");
        assert_eq!(rule.hits(), THREADS as u64 * HITS_PER_THREAD, "fid {i}");
    }
    // And every thread accounted one MAT lookup per prepare.
    let lookups: u64 = thread_ops.iter().map(|o| o.mat_lookups).sum();
    assert_eq!(lookups, THREADS as u64 * HITS_PER_THREAD * u64::from(FLOWS));
}

/// Two distinct 5-tuples hashing to the same 20-bit FID (borrowed from the
/// fid_collision suite's search).
fn colliding_tuples() -> (FiveTuple, FiveTuple) {
    let mut seen: HashMap<Fid, FiveTuple> = HashMap::new();
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

fn packet_for(t: &FiveTuple, i: u32) -> Packet {
    let mut b = PacketBuilder::tcp();
    b.src(SocketAddrV4::new(t.src_ip, t.src_port))
        .dst(SocketAddrV4::new(t.dst_ip, t.dst_port))
        .seq(i)
        .payload(format!("pkt-{i}").as_bytes());
    b.build()
}

#[test]
fn collision_detected_under_concurrent_classification() {
    let (ta, tb) = colliding_tuples();
    let classifier = PacketClassifier::with_shards(8);
    // The owner flow claims the FID slot first.
    let mut ops = OpCounter::default();
    let mut first = packet_for(&ta, 0);
    let c = classifier.classify(&mut first, &mut ops).unwrap();
    assert_eq!(c.class, PacketClass::Initial);
    std::thread::scope(|s| {
        // Owner traffic and colliding traffic classified concurrently.
        for _ in 0..THREADS / 2 {
            let classifier = &classifier;
            s.spawn(move || {
                let mut ops = OpCounter::default();
                for i in 1..100u32 {
                    let mut p = packet_for(&ta, i);
                    let c = classifier.classify(&mut p, &mut ops).unwrap();
                    assert_eq!(c.class, PacketClass::Subsequent, "owner stays on fast path");
                }
            });
        }
        for _ in 0..THREADS / 2 {
            let classifier = &classifier;
            s.spawn(move || {
                let mut ops = OpCounter::default();
                for i in 0..100u32 {
                    let mut p = packet_for(&tb, i);
                    let c = classifier.classify(&mut p, &mut ops).unwrap();
                    assert_eq!(
                        c.class,
                        PacketClass::Collision,
                        "colliding flow must ride the slow path"
                    );
                }
            });
        }
    });
    // The slot still belongs to the owner, never the colliding tuple.
    assert_eq!(classifier.peek(&ta), PacketClass::Subsequent);
    assert_eq!(classifier.peek(&tb), PacketClass::Collision);
    assert_eq!(classifier.len(), 1, "collision never created a second slot");
}

#[test]
fn affinity_memo_invalidated_by_event_under_churn() {
    // An Event Table entry that fires in the middle of a run of same-flow
    // packets re-consolidates the flow's rule, and every later packet must
    // be served the rewritten rule, not the one it replaced. The state
    // function raises the event's signal as its count crosses the
    // threshold, so the next packet's check fires the event. Install/
    // remove churn on disjoint FIDs runs concurrently, so the shard
    // locks and record republication are exercised while the rewrite
    // lands (the sim harness's `churn@` fault clause, pinned as a
    // deterministic test).
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

    use speedybox::mat::state_fn::PayloadAccess;
    use speedybox::mat::{Event, RulePatch, Signal, StateFunction};

    const CHURN_FIDS: u32 = 256;
    const BATCH: usize = 64;
    const THRESHOLD: u64 = 5;

    let local = Arc::new(LocalMat::new(NfId::new(0)));
    for i in 0..CHURN_FIDS {
        local.set_header_actions(Fid::new(i), vec![HeaderAction::Forward]);
    }
    let flow = Fid::new(2000);
    local.set_header_actions(flow, vec![HeaderAction::Forward]);
    let counter = Arc::new(AtomicU64::new(0));
    let signal = Signal::new();
    let (c, s) = (Arc::clone(&counter), signal.clone());
    let mut ops = OpCounter::default();
    local.add_state_function(
        flow,
        StateFunction::new("count", PayloadAccess::Ignore, move |ctx| {
            if c.fetch_add(1, Ordering::Relaxed) + 1 == THRESHOLD + 1 {
                s.raise();
            }
            ctx.ops.state_updates += 1;
        }),
        &mut ops,
    );
    let gm = GlobalMat::with_shards(vec![local], 8);
    let c2 = Arc::clone(&counter);
    gm.events().register(Event::new(
        flow,
        NfId::new(0),
        "threshold",
        signal,
        move |_| c2.load(Ordering::Relaxed) > THRESHOLD,
        |_| RulePatch::set_action(HeaderAction::Drop),
    ));
    gm.install(flow, &mut ops);

    let stop = AtomicBool::new(false);
    let outcomes = std::thread::scope(|s| {
        for t in 0..THREADS as u32 {
            let gm = &gm;
            let stop = &stop;
            s.spawn(move || {
                let mut ops = OpCounter::default();
                let mut i = t;
                while !stop.load(Ordering::Relaxed) {
                    let fid = Fid::new(i % CHURN_FIDS);
                    gm.install(fid, &mut ops);
                    gm.remove_flow(fid);
                    i = i.wrapping_add(THREADS as u32);
                    std::thread::yield_now();
                }
            });
        }
        // A run of same-flow packets: the event fires on the packet after
        // the one whose count crosses the threshold.
        let mut packets: Vec<Packet> = (0..BATCH as u32)
            .map(|i| {
                let mut p = packet_for(
                    &FiveTuple::new(
                        Ipv4Addr::new(10, 6, 0, 1),
                        5000,
                        Ipv4Addr::new(10, 0, 0, 2),
                        80,
                        Protocol::Tcp,
                    ),
                    i,
                );
                p.set_fid(flow);
                p
            })
            .collect();
        let mut per_ops: Vec<OpCounter> = vec![OpCounter::default(); BATCH];
        let outcomes = process_each(&gm, &mut packets, &mut per_ops);
        stop.store(true, Ordering::Relaxed);
        outcomes
    });

    // The state function runs per forwarded packet and the armed event is
    // checked before each packet's header action: packet THRESHOLD's count
    // crosses the threshold and raises, so packets 0..=THRESHOLD forward
    // and every later packet must hit the patched Drop rule — serving the
    // replaced rule would keep forwarding them.
    for (i, o) in outcomes.iter().enumerate() {
        let expected = if (i as u64) <= THRESHOLD {
            FastPathOutcome::Forwarded
        } else {
            FastPathOutcome::Dropped
        };
        assert_eq!(*o, expected, "packet {i}");
    }
    assert_eq!(counter.load(std::sync::atomic::Ordering::Relaxed), THRESHOLD + 1);
    // Churned FIDs settled: either state is fine, but the flow's own rule
    // must still be installed (remove_flow was never called for it).
    assert!(gm.contains(flow));
}

/// Publication-race stress for the wait-free generation swap: four
/// installer/remover threads churn a disjoint FID range at full tilt while
/// reader threads run fast-path batches over a stable rule set.
///
/// Two contracts are enforced:
///
/// * **stale-but-consistent** — the stable rules are in *every* published
///   generation, so a reader observing `NoRule` for one has seen a
///   partially built table;
/// * **wait-free reads** — a timed watchdog asserts the readers keep
///   completing batches while installers hold the writer lock; a lookup
///   that blocked on an installer would stall the progress counter.
///
/// Once churn stops and the readers are gone, the retired-generation
/// backlog must drain to zero — publication may not leak old tables.
#[test]
fn publication_race_readers_never_block_or_tear() {
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::time::{Duration, Instant};

    const STABLE: u32 = 64;
    const CHURN_FIDS: u32 = 512;
    const STABLE_BASE: u32 = 10_000;

    let local = Arc::new(LocalMat::new(NfId::new(0)));
    for i in 0..CHURN_FIDS {
        local.set_header_actions(Fid::new(i), vec![HeaderAction::Forward]);
    }
    for i in 0..STABLE {
        local.set_header_actions(Fid::new(STABLE_BASE + i), vec![HeaderAction::Forward]);
    }
    let gm = GlobalMat::with_shards(vec![local], 8);
    let mut ops = OpCounter::default();
    for i in 0..STABLE {
        gm.install(Fid::new(STABLE_BASE + i), &mut ops);
    }

    let stop = AtomicBool::new(false);
    let progress = AtomicU64::new(0);
    std::thread::scope(|s| {
        for t in 0..THREADS as u32 {
            let gm = &gm;
            let stop = &stop;
            s.spawn(move || {
                let mut ops = OpCounter::default();
                let mut i = t;
                while !stop.load(Ordering::Relaxed) {
                    let fid = Fid::new(i % CHURN_FIDS);
                    gm.install(fid, &mut ops);
                    gm.remove_flow(fid);
                    i = i.wrapping_add(THREADS as u32);
                }
            });
        }
        for _ in 0..2 {
            let gm = &gm;
            let stop = &stop;
            let progress = &progress;
            s.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let mut batch: Vec<Packet> = (0..STABLE)
                        .map(|i| {
                            let mut p = packet_for(
                                &FiveTuple::new(
                                    Ipv4Addr::new(10, 7, 0, 1),
                                    6000,
                                    Ipv4Addr::new(10, 0, 0, 2),
                                    80,
                                    Protocol::Tcp,
                                ),
                                i,
                            );
                            p.set_fid(Fid::new(STABLE_BASE + i));
                            p
                        })
                        .collect();
                    let mut per_ops = vec![OpCounter::default(); batch.len()];
                    let outcomes = process_each(gm, &mut batch, &mut per_ops);
                    for (i, o) in outcomes.iter().enumerate() {
                        assert_eq!(
                            *o,
                            FastPathOutcome::Forwarded,
                            "stable fid {} vanished mid-churn: reader saw a torn generation",
                            STABLE_BASE + i as u32
                        );
                    }
                    progress.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
        // Watchdog: five windows; in each, the readers must complete at
        // least one more batch within the deadline. Generous bound so only
        // genuine blocking (a reader parked on the writer lock) trips it.
        let mut last = 0u64;
        for window in 0..5 {
            let deadline = Instant::now() + Duration::from_secs(5);
            loop {
                let now = progress.load(Ordering::Relaxed);
                if now > last {
                    last = now;
                    break;
                }
                assert!(
                    Instant::now() < deadline,
                    "readers stalled for 5s during churn (window {window}): lookups blocked"
                );
                std::thread::yield_now();
            }
        }
        stop.store(true, Ordering::Relaxed);
    });

    // All threads joined: every retired generation is reclaimable now, and
    // the backlog must drain completely — bounded memory under churn.
    gm.collect_generations();
    assert_eq!(gm.pending_generations(), 0, "retired generations leak after churn settles");
    for i in 0..STABLE {
        assert!(gm.contains(Fid::new(STABLE_BASE + i)), "stable rule {i} lost");
    }
}

/// Classifier-side generation retirement: expiring idle flows republishes
/// the flow table; once no reader is active the retired generations must
/// be collectable down to zero.
#[test]
fn classifier_generations_drain_after_expiry() {
    let classifier = PacketClassifier::with_shards(4);
    let mut ops = OpCounter::default();
    for f in 0..128u16 {
        let mut p = PacketBuilder::tcp()
            .src(format!("10.8.0.1:{}", 1024 + f).parse().unwrap())
            .dst("10.8.0.2:80".parse().unwrap())
            .build();
        classifier.classify(&mut p, &mut ops).unwrap();
    }
    // Advance the clock, expire everything, then prove the old table
    // generations are actually freed rather than retained forever.
    for _ in 0..64 {
        let mut p = PacketBuilder::tcp()
            .src("10.8.9.9:4000".parse().unwrap())
            .dst("10.8.0.2:80".parse().unwrap())
            .build();
        classifier.classify(&mut p, &mut ops).unwrap();
    }
    let expired = classifier.expire_idle(32);
    assert!(!expired.is_empty());
    classifier.collect_generations();
    assert_eq!(classifier.pending_generations(), 0, "flow-table generations leak");
}

/// Eviction racing rewrite racing install: a capacity-bounded Global MAT
/// under four threads — an installer driving safety-net LRU evictions, a
/// remover tearing flows down (including the event flow), an event thread
/// whose recurring event rewrites its rule on every `prepare`, and a
/// reader sweeping lookups while draining retired generations.
///
/// The contract under test is the eviction-vs-rewrite atomicity guarantee:
/// a rewrite that loses to a concurrent removal must be abandoned whole —
/// `prepare` returns `None` and the rule is **not** resurrected in the
/// table. After churn settles, the capacity bound has held throughout and
/// the retired-generation backlog drains to exactly zero.
#[test]
fn evict_vs_install_vs_event_fire_settles_with_zero_leak() {
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

    use speedybox::mat::{Event, RulePatch, Signal};

    const CAPACITY: usize = 64;
    const CHURN_FIDS: u32 = 256;
    const INSTALLS: u32 = 20_000;
    let event_fid = Fid::new(9000);

    let local = Arc::new(LocalMat::new(NfId::new(0)));
    for i in 0..CHURN_FIDS {
        local.set_header_actions(Fid::new(i), vec![HeaderAction::Forward]);
    }
    local.set_header_actions(event_fid, vec![HeaderAction::Forward]);
    let gm = GlobalMat::with_limits(vec![Arc::clone(&local)], 8, CAPACITY);
    let signal = Signal::new();
    let register_event = |gm: &GlobalMat| {
        gm.events().register(
            Event::new(
                event_fid,
                NfId::new(0),
                "always",
                signal.clone(),
                |_| true,
                |_| RulePatch::set_action(HeaderAction::Forward),
            )
            .recurring(),
        );
    };
    register_event(&gm);
    let mut ops = OpCounter::default();
    gm.install(event_fid, &mut ops);

    let stop = AtomicBool::new(false);
    let rewrites = AtomicU64::new(0);
    let lost_races = AtomicU64::new(0);
    std::thread::scope(|s| {
        // Installer: pounds the bounded table far past capacity, so every
        // insert once full evicts the LRU victim with full teardown.
        {
            let gm = &gm;
            let stop = &stop;
            s.spawn(move || {
                let mut ops = OpCounter::default();
                for i in 0..INSTALLS {
                    gm.install(Fid::new(i % CHURN_FIDS), &mut ops);
                }
                stop.store(true, Ordering::Relaxed);
            });
        }
        // Remover: tears down churn flows, and periodically the event flow
        // itself — the direct eviction-vs-rewrite collision.
        {
            let gm = &gm;
            let stop = &stop;
            s.spawn(move || {
                let mut i = 0u32;
                while !stop.load(Ordering::Relaxed) {
                    gm.remove_flow(Fid::new(i % CHURN_FIDS));
                    if i.is_multiple_of(64) {
                        gm.remove_flow(event_fid);
                    }
                    i = i.wrapping_add(1);
                }
            });
        }
        // Event thread: raises the event's signal, so every successful
        // prepare fires the recurring event and republishes the rule. A
        // None means the removal won — the rewrite was abandoned whole,
        // so re-seed and start over.
        {
            let gm = &gm;
            let local = &local;
            let stop = &stop;
            let rewrites = &rewrites;
            let lost_races = &lost_races;
            let signal = &signal;
            s.spawn(move || {
                let mut ops = OpCounter::default();
                while !stop.load(Ordering::Relaxed) {
                    signal.raise();
                    match gm.prepare(event_fid, &mut ops) {
                        Some(_) => {
                            rewrites.fetch_add(1, Ordering::Relaxed);
                        }
                        None => {
                            // The losing rewrite must not have resurrected
                            // the table entry.
                            assert!(
                                !gm.contains(event_fid),
                                "abandoned rewrite left the rule installed"
                            );
                            lost_races.fetch_add(1, Ordering::Relaxed);
                            local.set_header_actions(event_fid, vec![HeaderAction::Forward]);
                            register_event(gm);
                            gm.install(event_fid, &mut ops);
                        }
                    }
                }
            });
        }
        // Reader: sweeps wait-free lookups, checks the capacity bound
        // continuously, and drains retired generations opportunistically
        // so the backlog stays bounded mid-churn.
        {
            let gm = &gm;
            let stop = &stop;
            s.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let len = gm.len();
                    assert!(len <= CAPACITY, "table grew past its bound: {len} > {CAPACITY}");
                    for i in (0..CHURN_FIDS).step_by(19) {
                        let _ = gm.rule(Fid::new(i));
                    }
                    gm.collect_generations();
                }
            });
        }
    });

    // The stress actually exercised both sides of the race.
    assert!(rewrites.load(Ordering::Relaxed) > 0, "no event rewrite ever fired");
    assert!(lost_races.load(Ordering::Relaxed) > 0, "no rewrite ever lost to a removal");
    assert!(gm.len() <= CAPACITY);
    // Zero generation leak after settle: with all threads joined, every
    // retired rule slot is provably unreferenced and must be reclaimed.
    gm.collect_generations();
    assert_eq!(gm.pending_generations(), 0, "retired generations leak after evict churn");
    // The event flow finished in a coherent state: either fully installed
    // (rule resolvable) or fully gone (no table entry).
    if gm.contains(event_fid) {
        assert!(gm.rule(event_fid).is_some());
    } else {
        assert!(gm.rule(event_fid).is_none());
    }
}

/// Quarantine-flip racing install/remove churn: the crash-recovery
/// protocol flips the Global MAT's quarantine mask while manager threads
/// are mid-install and readers are mid-batch. The mask is a pure
/// fast-path *gate* — it must never perturb table contents, block a
/// wait-free reader, or leak a generation.
///
/// Contracts enforced:
///
/// * installed rules keep executing while quarantined — masking is the
///   platform's classification decision, not a table mutation;
/// * the mask itself is exact: after every flipper finishes its
///   balanced quarantine/unquarantine pairs, the mask reads zero;
/// * after churn settles, the stable rule set is intact, churn FIDs
///   are gone, and the retired-generation backlog drains to zero.
#[test]
fn quarantine_flip_vs_install_churn_leaks_nothing() {
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

    const STABLE: u32 = 48;
    const CHURN_FIDS: u32 = 384;
    const STABLE_BASE: u32 = 20_000;
    const FLIPS: u64 = 4_000;

    let local = Arc::new(LocalMat::new(NfId::new(0)));
    for i in 0..CHURN_FIDS {
        local.set_header_actions(Fid::new(i), vec![HeaderAction::Forward]);
    }
    for i in 0..STABLE {
        local.set_header_actions(Fid::new(STABLE_BASE + i), vec![HeaderAction::Forward]);
    }
    let gm = GlobalMat::with_shards(vec![local], 8);
    let mut ops = OpCounter::default();
    for i in 0..STABLE {
        gm.install(Fid::new(STABLE_BASE + i), &mut ops);
    }

    let stop = AtomicBool::new(false);
    let quarantined_batches = AtomicU64::new(0);
    std::thread::scope(|s| {
        // Four churn threads: install + remove over a shared FID range,
        // exactly the traffic pattern a recovery re-record storm creates.
        for t in 0..THREADS as u32 {
            let gm = &gm;
            let stop = &stop;
            s.spawn(move || {
                let mut ops = OpCounter::default();
                let mut i = t;
                while !stop.load(Ordering::Relaxed) {
                    let fid = Fid::new(i % CHURN_FIDS);
                    gm.install(fid, &mut ops);
                    gm.remove_flow(fid);
                    i = i.wrapping_add(THREADS as u32);
                }
            });
        }
        // Two flippers on distinct chain positions: balanced pairs for
        // the whole stress window, so lost updates (a fetch_and
        // clobbering a concurrent fetch_or on another bit) would leave
        // the mask non-zero at the end.
        for nf in [0usize, 1] {
            let gm = &gm;
            let stop = &stop;
            s.spawn(move || {
                let mut flips = 0u64;
                while !stop.load(Ordering::Relaxed) || flips < FLIPS {
                    gm.quarantine_nf(nf);
                    assert!(gm.is_quarantined(), "own quarantine bit visible immediately");
                    gm.unquarantine_nf(nf);
                    flips += 1;
                }
            });
        }
        // Reader: batches over the stable set; installed rules must keep
        // executing regardless of the mask state observed mid-batch.
        {
            let gm = &gm;
            let stop = &stop;
            let quarantined_batches = &quarantined_batches;
            s.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let was_quarantined = gm.is_quarantined();
                    let mut batch: Vec<Packet> = (0..STABLE)
                        .map(|i| {
                            let mut p = packet_for(
                                &FiveTuple::new(
                                    Ipv4Addr::new(10, 11, 0, 1),
                                    7000,
                                    Ipv4Addr::new(10, 0, 0, 2),
                                    80,
                                    Protocol::Tcp,
                                ),
                                i,
                            );
                            p.set_fid(Fid::new(STABLE_BASE + i));
                            p
                        })
                        .collect();
                    let mut per_ops = vec![OpCounter::default(); batch.len()];
                    let outcomes = process_each(gm, &mut batch, &mut per_ops);
                    for (i, o) in outcomes.iter().enumerate() {
                        assert_eq!(
                            *o,
                            FastPathOutcome::Forwarded,
                            "stable fid {} failed mid-flip: mask perturbed the table",
                            STABLE_BASE + i as u32
                        );
                    }
                    if was_quarantined {
                        quarantined_batches.fetch_add(1, Ordering::Relaxed);
                    }
                    gm.collect_generations();
                }
            });
        }
        // Run the churn for as long as the flippers need, plus a beat.
        std::thread::sleep(std::time::Duration::from_millis(200));
        stop.store(true, Ordering::Relaxed);
    });

    assert_eq!(gm.quarantine_mask(), 0, "balanced flips must cancel: a bit-flip was lost");
    assert!(
        quarantined_batches.load(Ordering::Relaxed) > 0,
        "no batch ever overlapped a quarantine window: stress did not interleave"
    );
    gm.collect_generations();
    assert_eq!(gm.pending_generations(), 0, "retired generations leak after quarantine churn");
    for i in 0..STABLE {
        assert!(gm.contains(Fid::new(STABLE_BASE + i)), "stable rule {i} lost");
    }
}

#[test]
fn concurrent_expire_idle_expires_each_flow_once() {
    let classifier = PacketClassifier::with_shards(4);
    const FLOWS: u16 = 200;
    let mut ops = OpCounter::default();
    for f in 0..FLOWS {
        let mut p = PacketBuilder::tcp()
            .src(format!("10.9.0.1:{}", 1024 + f).parse().unwrap())
            .dst("10.9.0.2:80".parse().unwrap())
            .build();
        classifier.classify(&mut p, &mut ops).unwrap();
    }
    let tracked = classifier.len();
    assert!(tracked > 0);
    // Advance the clock past every flow's last_seen so all are idle, then
    // race expirations against fresh classifications.
    for _ in 0..64 {
        let mut p = PacketBuilder::tcp()
            .src("10.9.9.9:4000".parse().unwrap())
            .dst("10.9.0.2:80".parse().unwrap())
            .build();
        classifier.classify(&mut p, &mut ops).unwrap();
    }
    let expired: Vec<Vec<Fid>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let classifier = &classifier;
                s.spawn(move || classifier.expire_idle(32))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let mut all: Vec<Fid> = expired.into_iter().flatten().collect();
    let unique: HashSet<Fid> = all.iter().copied().collect();
    assert_eq!(unique.len(), all.len(), "a flow was expired by two threads at once");
    all.sort_by_key(|f| f.value());
    // Exactly the idle flows went, each once; the fresh flow survives.
    assert_eq!(all.len(), tracked, "all idle flows expired exactly once");
    assert_eq!(classifier.len(), 1, "only the clock-advancing flow remains");
    for fid in all {
        assert!(classifier.record(fid).is_none(), "expired flow fully forgotten");
    }
}

/// Two readers hold the same flow's record while its one-shot event's
/// condition is already true (so arming left it raised), and a barrier
/// releases them together: both see the armed event raised without a
/// lock, and the Event Table's serialized re-check must let exactly one
/// of them fire it — one event fired, one rule rewrite, one patch
/// applied.
#[test]
fn one_shot_event_fires_once_for_racing_readers_of_one_record() {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Barrier;

    use speedybox::mat::{Event, RulePatch, Signal};
    use speedybox::telemetry::Telemetry;

    let flow = Fid::new(4242);
    let local = Arc::new(LocalMat::new(NfId::new(0)));
    local.set_header_actions(flow, vec![HeaderAction::Forward]);
    let telemetry = Arc::new(Telemetry::new(1));
    let gm = GlobalMat::with_shards(vec![local], 8).with_telemetry(Arc::clone(&telemetry));
    let patches = Arc::new(AtomicU64::new(0));
    let p = Arc::clone(&patches);
    gm.events().register(Event::new(
        flow,
        NfId::new(0),
        "drop-once",
        Signal::new(),
        |_| true,
        move |_| {
            p.fetch_add(1, Ordering::Relaxed);
            RulePatch::set_action(HeaderAction::Drop)
        },
    ));
    let mut ops = OpCounter::default();
    gm.install(flow, &mut ops);
    let record = gm.record(flow).expect("rule installed");
    assert_eq!(record.rule().expect("rule installed").armed().len(), 1);

    let barrier = Barrier::new(2);
    std::thread::scope(|s| {
        for _ in 0..2 {
            let (gm, record, barrier) = (&gm, &record, &barrier);
            s.spawn(move || {
                let mut ops = OpCounter::default();
                barrier.wait();
                assert!(gm.serve(flow, Some(record), &mut ops).is_some(), "the flow keeps a rule");
                assert_eq!(ops.event_checks, 1, "the armed event was checked");
            });
        }
    });

    let snap = telemetry.snapshot();
    assert_eq!(snap.events_fired, 1, "a one-shot event fires once");
    assert_eq!(snap.rule_rewrites, 1);
    assert_eq!(patches.load(Ordering::Relaxed), 1, "the patch was computed once");
    assert!(gm.events().is_empty(), "the fired event is deregistered");
    let rule = gm.rule(flow).expect("rewritten rule installed");
    assert!(rule.consolidated().is_drop() && rule.armed().is_empty());
    // The record is the event's only home: the rewritten rule leaves the
    // fired one-shot event out, so nothing can fire it again.
    assert!(
        rule.armed().iter().all(|event| event.name != "drop-once"),
        "the fired one-shot event is still armed"
    );
}
