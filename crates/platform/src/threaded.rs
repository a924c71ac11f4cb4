//! A real thread-per-NF OpenNetVM-style runtime.
//!
//! [`Chain`](crate::Chain) on [`Platform::Onvm`](crate::Platform::Onvm)
//! models the pipeline deterministically for the figure harness; this
//! module actually builds it: one OS thread per NF, bounded crossbeam
//! channels as the RX/TX rings, and a manager that hosts the classifier
//! and the Global MAT — the §VI-A architecture. Integration tests use it
//! to show the consolidated fast path produces byte-identical output under
//! true concurrency; wall-clock benches use it for real latency numbers.

use std::sync::Arc;
use std::thread;
use std::time::Instant;

use crossbeam::channel::{bounded, Receiver, Sender};
use speedybox_mat::{Batched, FastPathOutcome, OpCounter, PacketClass};
use speedybox_nf::{Nf, NfContext};
use speedybox_packet::{Fid, Magazine, Packet, PacketPool, PoolStats};
use speedybox_telemetry::{PathClass, Telemetry, TelemetrySnapshot};

use crate::metrics::sync_pool;
use crate::runtime::{SboxConfig, SpeedyBox};

/// Descriptor slots per NF ring.
const RING_CAPACITY: usize = 256;

/// Nanoseconds of a wall-clock interval as `u64` (584 years of headroom).
#[allow(clippy::cast_possible_truncation)]
fn elapsed_ns(since: Instant) -> u64 {
    since.elapsed().as_nanos() as u64
}

/// Message on an NF ring.
enum Msg {
    /// A packet in flight, with its injection order, send timestamp, and
    /// whether NFs should record its flow's behaviour (false for packets
    /// whose FID collides with another flow's).
    Packet { pkt: Packet, seq: usize, sent_at: Instant, record: bool },
    /// Tear down per-flow state.
    FlowClosed(Fid),
    /// Drain and exit.
    Shutdown,
}

/// Completion record returned to the manager.
enum Done {
    Delivered { pkt: Packet, seq: usize, sent_at: Instant },
    Dropped { seq: usize, sent_at: Instant },
}

/// Result of a threaded run.
#[derive(Debug)]
pub struct ThreadedReport {
    /// Surviving packets, in injection order.
    pub delivered: Vec<Packet>,
    /// Count of dropped packets.
    pub dropped: usize,
    /// Wall latency per packet (nanoseconds), indexed by injection order;
    /// dropped packets report the latency to the drop point.
    pub latencies_ns: Vec<u64>,
    /// Final telemetry snapshot for the run (latencies in nanoseconds, not
    /// model cycles). Merged across every shard, classifier and NF thread.
    pub snapshot: TelemetrySnapshot,
}

/// Runs `packets` through `nfs`, each NF on its own thread connected by
/// bounded rings of `RING_CAPACITY` (256) descriptors. With `speedybox` true
/// the manager classifies, consolidates and fast-paths subsequent packets;
/// the NF threads then only see flow-initial packets. The manager ingests
/// packets in batches of `batch_size`: each batch is classified up front,
/// and runs of consecutive fast-path packets go through
/// `GlobalMat::process_batch`. Packet outcomes are identical at any batch
/// size.
///
/// # Panics
/// Panics if an NF thread panics.
#[must_use]
pub fn run_threaded(
    nfs: Vec<Box<dyn Nf>>,
    packets: Vec<Packet>,
    speedybox: bool,
    batch_size: usize,
) -> ThreadedReport {
    let sbox = speedybox
        .then(|| SpeedyBox::new(nfs.len(), SboxConfig { batch_size, ..SboxConfig::default() }));
    run_threaded_on(sbox.as_ref(), nfs, packets, batch_size, 0, |_| {})
}

/// [`run_threaded`] over a caller-owned runtime (`None` for a baseline
/// run), so rules, flow tables, telemetry — and a quarantine window opened
/// by a crash handler — carry across runs. While the window is open,
/// would-be fast-path packets ride the NF rings uninstrumented (no
/// recording, no install), exactly like the deterministic chains'
/// original-walk fallback.
///
/// Every `snapshot_every` completed packets the manager merges all
/// counter shards and hands the snapshot to `on_snapshot` (pass `0` to
/// disable periodic snapshots — the final one is always available via
/// [`ThreadedReport::snapshot`]). Snapshots are taken from the manager
/// thread while NF threads keep running, exercising the lock-free
/// read-while-written path.
///
/// Closing the window takes two steps here: `unquarantine_nf` *and* a
/// `force_evict_flows` sweep. Window-era flows hold classifier entries
/// with no installed rule, and unlike the deterministic environments the
/// threaded fast path has no slow-path fallback for that state — the
/// sweep makes those flows re-record as flow-initial instead.
///
/// # Panics
/// Panics if an NF thread panics.
#[must_use]
pub fn run_threaded_on(
    sbox: Option<&SpeedyBox>,
    nfs: Vec<Box<dyn Nf>>,
    packets: Vec<Packet>,
    batch_size: usize,
    snapshot_every: usize,
    mut on_snapshot: impl FnMut(&TelemetrySnapshot),
) -> ThreadedReport {
    let total = packets.len();
    // Speedybox runs share the runtime's hub so classifier/MAT/Event Table
    // counters and per-packet records land in one place; baseline runs get
    // a private single-shard hub.
    let telemetry = match &sbox {
        Some(s) => Arc::clone(&s.telemetry),
        None => Arc::new(Telemetry::new(1)),
    };
    // One shared buffer pool; the manager and every NF thread front it
    // with a private magazine and recycle dropped packets into it.
    let pool = Arc::new(PacketPool::default());
    let mut mgr_mag = Magazine::new(Arc::clone(&pool));

    let (done_tx, done_rx) = bounded::<Done>(RING_CAPACITY.max(total));
    // Build the ring chain back to front.
    let mut next_tx: Option<Sender<Msg>> = None;
    let mut handles = Vec::new();
    for (i, mut nf) in nfs.into_iter().enumerate().rev() {
        let (tx, rx): (Sender<Msg>, Receiver<Msg>) = bounded(RING_CAPACITY);
        let downstream = next_tx.take();
        let done = done_tx.clone();
        let instrument = sbox.as_ref().map(|s| s.instruments[i].clone());
        let telem = Arc::clone(&telemetry);
        let mut mag = Magazine::new(Arc::clone(&pool));
        let handle = thread::spawn(move || {
            while let Ok(msg) = rx.recv() {
                match msg {
                    Msg::Packet { mut pkt, seq, sent_at, record } => {
                        let mut ops = OpCounter::default();
                        let verdict = match instrument.as_ref().filter(|_| record) {
                            Some(inst) => {
                                let mut ctx = NfContext::instrumented(inst, &mut ops);
                                nf.process(&mut pkt, &mut ctx)
                            }
                            None => {
                                let mut ctx = NfContext::baseline(&mut ops);
                                nf.process(&mut pkt, &mut ctx)
                            }
                        };
                        telem.shard(seq as u64).add_ops(&ops.telemetry_totals());
                        if !verdict.survives() {
                            mag.give_packet(pkt);
                            let _ = done.send(Done::Dropped { seq, sent_at });
                        } else {
                            match &downstream {
                                Some(next) => {
                                    let _ = next.send(Msg::Packet { pkt, seq, sent_at, record });
                                }
                                None => {
                                    let _ = done.send(Done::Delivered { pkt, seq, sent_at });
                                }
                            }
                        }
                    }
                    Msg::FlowClosed(fid) => {
                        nf.flow_closed(fid);
                        if let Some(next) = &downstream {
                            let _ = next.send(Msg::FlowClosed(fid));
                        }
                    }
                    Msg::Shutdown => {
                        if let Some(next) = &downstream {
                            let _ = next.send(Msg::Shutdown);
                        }
                        break;
                    }
                }
            }
        });
        handles.push(handle);
        next_tx = Some(tx);
    }
    drop(done_tx);
    let first_tx = next_tx;

    // Manager loop.
    let mut delivered: Vec<Option<Packet>> = (0..total).map(|_| None).collect();
    let mut latencies_ns = vec![0u64; total];
    let mut dropped = 0usize;
    let mut completed = 0usize;
    let mut in_flight = 0usize;
    // Path class per injection order, fixed at classification time so the
    // completion side knows which latency histogram to feed. Baseline runs
    // (and Collision/Handshake packets, which traverse the original chain)
    // stay at the default.
    let mut path_class = vec![PathClass::Baseline; total];
    let mut next_snap = if snapshot_every > 0 { snapshot_every } else { usize::MAX };

    let drain_one = |done: Done,
                     delivered: &mut Vec<Option<Packet>>,
                     latencies: &mut Vec<u64>,
                     dropped: &mut usize,
                     paths: &[PathClass]| {
        match done {
            Done::Delivered { mut pkt, seq, sent_at } => {
                let lat = elapsed_ns(sent_at);
                latencies[seq] = lat;
                telemetry.shard(seq as u64).record_packet(paths[seq], lat, true);
                pkt.clear_fid();
                delivered[seq] = Some(pkt);
            }
            Done::Dropped { seq, sent_at } => {
                let lat = elapsed_ns(sent_at);
                latencies[seq] = lat;
                telemetry.shard(seq as u64).record_packet(paths[seq], lat, false);
                *dropped += 1;
            }
        }
    };

    match &sbox {
        None => {
            for (seq, mut pkt) in packets.into_iter().enumerate() {
                let start = Instant::now();
                let mut ops = OpCounter::default();
                crate::runtime::tag_ingress(&mut pkt, &mut ops);
                telemetry.shard(seq as u64).add_ops(&ops.telemetry_totals());
                let closes = pkt.tcp_flags().closes_flow();
                let fid = pkt.fid();
                if let Some(tx) = &first_tx {
                    tx.send(Msg::Packet { pkt, seq, sent_at: start, record: false })
                        .expect("ring closed");
                    in_flight += 1;
                    if closes {
                        if let Some(fid) = fid {
                            tx.send(Msg::FlowClosed(fid)).expect("ring closed");
                        }
                    }
                } else {
                    pkt.clear_fid();
                    let lat = elapsed_ns(start);
                    latencies_ns[seq] = lat;
                    telemetry.shard(seq as u64).record_packet(PathClass::Baseline, lat, true);
                    delivered[seq] = Some(pkt);
                    completed += 1;
                }
                // Opportunistically drain completions to keep rings moving.
                while let Ok(done) = done_rx.try_recv() {
                    drain_one(done, &mut delivered, &mut latencies_ns, &mut dropped, &path_class);
                    completed += 1;
                    in_flight -= 1;
                }
                while completed >= next_snap {
                    on_snapshot(&telemetry.snapshot());
                    next_snap = next_snap.saturating_add(snapshot_every);
                }
            }
        }
        Some(sbox) => {
            let batch_size = batch_size.max(1);
            // Flushes a run of consecutive fast-path packets through the
            // Global MAT's batched entry point, then performs their FIN
            // teardowns in order (record, Local MATs, Event Table).
            let flush_fast = |run: &mut Vec<(usize, Packet, Fid, bool)>,
                              start: Instant,
                              delivered: &mut Vec<Option<Packet>>,
                              latencies_ns: &mut Vec<u64>,
                              dropped: &mut usize,
                              completed: &mut usize,
                              mag: &mut Magazine| {
                if run.is_empty() {
                    return;
                }
                let drained: Vec<(usize, Packet, Fid, bool)> = std::mem::take(run);
                let mut meta = Vec::with_capacity(drained.len());
                let mut pkts = Vec::with_capacity(drained.len());
                for (seq, pkt, fid, closes) in drained {
                    meta.push((seq, fid, closes));
                    pkts.push(pkt);
                }
                let mut fp_ops = vec![OpCounter::default(); pkts.len()];
                let result = sbox.global.process_batch(&mut pkts, &mut fp_ops);
                for (&(seq, _, _), op) in meta.iter().zip(&fp_ops) {
                    telemetry.shard(seq as u64).add_ops(&op.telemetry_totals());
                }
                match result {
                    Ok(outcomes) => {
                        for ((&(seq, _, _), mut pkt), outcome) in
                            meta.iter().zip(pkts).zip(outcomes)
                        {
                            let cell = telemetry.shard(seq as u64);
                            match outcome {
                                FastPathOutcome::Forwarded => {
                                    pkt.clear_fid();
                                    let lat = elapsed_ns(start);
                                    latencies_ns[seq] = lat;
                                    cell.record_packet(PathClass::Subsequent, lat, true);
                                    delivered[seq] = Some(pkt);
                                }
                                FastPathOutcome::Dropped => {
                                    let lat = elapsed_ns(start);
                                    latencies_ns[seq] = lat;
                                    cell.record_packet(PathClass::Subsequent, lat, false);
                                    mag.give_packet(pkt);
                                    *dropped += 1;
                                }
                                // Rule missing: treat as drop (does not
                                // occur with the blocking install below).
                                FastPathOutcome::NoRule => {
                                    cell.record_packet(PathClass::Subsequent, 0, false);
                                    mag.give_packet(pkt);
                                    *dropped += 1;
                                }
                            }
                            *completed += 1;
                        }
                    }
                    Err(_) => {
                        for &(seq, _, _) in &meta {
                            telemetry.shard(seq as u64).record_packet(
                                PathClass::Subsequent,
                                0,
                                false,
                            );
                        }
                        *dropped += meta.len();
                        *completed += meta.len();
                        for pkt in pkts {
                            mag.give_packet(pkt);
                        }
                    }
                }
                for (_, fid, closes) in meta {
                    if closes {
                        sbox.remove_flow(fid);
                        if let Some(tx) = &first_tx {
                            tx.send(Msg::FlowClosed(fid)).expect("ring closed");
                        }
                    }
                }
            };

            let mut iter = packets.into_iter().enumerate();
            loop {
                let mut chunk: Vec<(usize, Packet)> = Vec::with_capacity(batch_size);
                for _ in 0..batch_size {
                    match iter.next() {
                        Some(item) => chunk.push(item),
                        None => break,
                    }
                }
                if chunk.is_empty() {
                    break;
                }
                let start = Instant::now();
                let (seqs, mut pkts): (Vec<usize>, Vec<Packet>) = chunk.into_iter().unzip();
                let mut cls_ops = vec![OpCounter::default(); pkts.len()];
                let classified = sbox.classifier.classify_batch(&mut pkts, &mut cls_ops);
                for (&seq, op) in seqs.iter().zip(&cls_ops) {
                    telemetry.shard(seq as u64).add_ops(&op.telemetry_totals());
                }
                // Consecutive fast-path packets accumulate here and are
                // flushed together; any slow-path packet flushes first so
                // overall processing order is preserved.
                let mut fast_run: Vec<(usize, Packet, Fid, bool)> = Vec::new();
                for ((seq, mut pkt), cls) in seqs.into_iter().zip(pkts).zip(classified) {
                    let c = match cls {
                        Ok(Batched::Now(c)) => c,
                        Ok(Batched::Deferred(pending)) => {
                            // Steered once the teardown it waits for has
                            // run: flush the fast run, which ends with its
                            // FIN teardowns.
                            flush_fast(
                                &mut fast_run,
                                start,
                                &mut delivered,
                                &mut latencies_ns,
                                &mut dropped,
                                &mut completed,
                                &mut mgr_mag,
                            );
                            sbox.classifier.steer_pending(&pending)
                        }
                        Err(_) => {
                            flush_fast(
                                &mut fast_run,
                                start,
                                &mut delivered,
                                &mut latencies_ns,
                                &mut dropped,
                                &mut completed,
                                &mut mgr_mag,
                            );
                            path_class[seq] = PathClass::Initial;
                            telemetry.shard(seq as u64).record_packet(PathClass::Initial, 0, false);
                            mgr_mag.give_packet(pkt);
                            dropped += 1;
                            completed += 1;
                            continue;
                        }
                    };
                    // Open quarantine window: consolidated state is
                    // untrusted, so would-be fast-path packets ride the NF
                    // rings uninstrumented instead (no recording, no
                    // install — flushing a quarantined Subsequent through
                    // the swept MAT would hit `NoRule` and drop it).
                    let quarantined = sbox.global.is_quarantined()
                        && matches!(c.class, PacketClass::Initial | PacketClass::Subsequent);
                    if quarantined {
                        telemetry.shard(seq as u64).add_quarantine_packets(1);
                    }
                    if c.class == PacketClass::Subsequent && !quarantined {
                        path_class[seq] = PathClass::Subsequent;
                        fast_run.push((seq, pkt, c.fid, c.closes_flow));
                        continue;
                    }
                    flush_fast(
                        &mut fast_run,
                        start,
                        &mut delivered,
                        &mut latencies_ns,
                        &mut dropped,
                        &mut completed,
                        &mut mgr_mag,
                    );
                    let record = c.class == PacketClass::Initial && !quarantined;
                    // Collision/Handshake packets traverse the original
                    // chain without recording, mirroring the deterministic
                    // environments' `Baseline` attribution.
                    path_class[seq] = if record { PathClass::Initial } else { PathClass::Baseline };
                    match &first_tx {
                        Some(tx) => {
                            tx.send(Msg::Packet { pkt, seq, sent_at: start, record })
                                .expect("ring closed");
                            // Block until THIS packet completes so the
                            // rule is installed before any subsequent
                            // packet of the flow is fast-pathed.
                            loop {
                                let done = done_rx.recv().expect("NF threads alive");
                                let done_seq = match &done {
                                    Done::Delivered { seq, .. } | Done::Dropped { seq, .. } => *seq,
                                };
                                drain_one(
                                    done,
                                    &mut delivered,
                                    &mut latencies_ns,
                                    &mut dropped,
                                    &path_class,
                                );
                                completed += 1;
                                if done_seq == seq {
                                    break;
                                }
                                in_flight -= 1;
                            }
                        }
                        None => {
                            pkt.clear_fid();
                            let lat = elapsed_ns(start);
                            latencies_ns[seq] = lat;
                            telemetry.shard(seq as u64).record_packet(path_class[seq], lat, true);
                            delivered[seq] = Some(pkt);
                            completed += 1;
                        }
                    }
                    if record {
                        let mut install_ops = OpCounter::default();
                        sbox.global.install(c.fid, &mut install_ops);
                        telemetry.shard(seq as u64).add_ops(&install_ops.telemetry_totals());
                    }
                    if c.closes_flow && c.class != PacketClass::Collision {
                        sbox.remove_flow(c.fid);
                        if let Some(tx) = &first_tx {
                            tx.send(Msg::FlowClosed(c.fid)).expect("ring closed");
                        }
                    }
                }
                flush_fast(
                    &mut fast_run,
                    start,
                    &mut delivered,
                    &mut latencies_ns,
                    &mut dropped,
                    &mut completed,
                    &mut mgr_mag,
                );
                while completed >= next_snap {
                    on_snapshot(&telemetry.snapshot());
                    next_snap = next_snap.saturating_add(snapshot_every);
                }
            }
        }
    }

    // Drain remaining in-flight packets and shut down.
    while in_flight > 0 {
        let done = done_rx.recv().expect("NF threads alive");
        drain_one(done, &mut delivered, &mut latencies_ns, &mut dropped, &path_class);
        completed += 1;
        in_flight -= 1;
        while completed >= next_snap {
            on_snapshot(&telemetry.snapshot());
            next_snap = next_snap.saturating_add(snapshot_every);
        }
    }
    let _ = completed;
    if let Some(tx) = first_tx {
        let _ = tx.send(Msg::Shutdown);
        drop(tx);
    }
    for h in handles {
        h.join().expect("NF thread panicked");
    }
    // Collect any completions that raced with shutdown.
    while let Ok(done) = done_rx.try_recv() {
        drain_one(done, &mut delivered, &mut latencies_ns, &mut dropped, &path_class);
    }

    // Fold pool counters into the hub before the final snapshot. NF-thread
    // magazines have already flushed on drop; release the manager's too so
    // the depth gauge reflects every idle buffer.
    mgr_mag.flush();
    sync_pool(&telemetry, &pool, &mut PoolStats::default());

    let snapshot = telemetry.snapshot();
    ThreadedReport {
        delivered: delivered.into_iter().flatten().collect(),
        dropped,
        latencies_ns,
        snapshot,
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::cast_possible_truncation)] // test data built from loop indices
    use speedybox_nf::ipfilter::{AclRule, IpFilter};
    use speedybox_nf::monitor::Monitor;
    use speedybox_packet::{PacketBuilder, TcpFlags};

    use super::*;

    fn packets(n: usize, flows: u16) -> Vec<Packet> {
        (0..n)
            .map(|i| {
                PacketBuilder::tcp()
                    .src(format!("10.0.0.1:{}", 1000 + (i as u16 % flows)).parse().unwrap())
                    .dst("10.0.0.2:80".parse().unwrap())
                    .payload(format!("p{i}").as_bytes())
                    .build()
            })
            .collect()
    }

    fn fw_chain(n: usize) -> Vec<Box<dyn Nf>> {
        (0..n).map(|_| Box::new(IpFilter::pass_through(10)) as Box<dyn Nf>).collect()
    }

    #[test]
    fn baseline_delivers_everything() {
        let report = run_threaded(fw_chain(3), packets(50, 4), false, 1);
        assert_eq!(report.delivered.len(), 50);
        assert_eq!(report.dropped, 0);
        assert!(report.latencies_ns.iter().all(|&l| l > 0));
    }

    #[test]
    fn speedybox_delivers_everything() {
        let report = run_threaded(fw_chain(3), packets(50, 4), true, 1);
        assert_eq!(report.delivered.len(), 50);
        assert_eq!(report.dropped, 0);
    }

    #[test]
    fn outputs_identical_with_and_without_speedybox() {
        let pkts = packets(40, 3);
        let a = run_threaded(fw_chain(2), pkts.clone(), false, 1);
        let b = run_threaded(fw_chain(2), pkts, true, 1);
        assert_eq!(a.delivered.len(), b.delivered.len());
        for (x, y) in a.delivered.iter().zip(&b.delivered) {
            assert_eq!(x.as_bytes(), y.as_bytes());
        }
    }

    #[test]
    fn drops_happen_in_both_modes() {
        let deny: Vec<Box<dyn Nf>> = vec![
            Box::new(IpFilter::pass_through(5)),
            Box::new(IpFilter::new(vec![AclRule::deny_dst("10.0.0.2".parse().unwrap())])),
        ];
        let deny2: Vec<Box<dyn Nf>> = vec![
            Box::new(IpFilter::pass_through(5)),
            Box::new(IpFilter::new(vec![AclRule::deny_dst("10.0.0.2".parse().unwrap())])),
        ];
        let a = run_threaded(deny, packets(20, 2), false, 1);
        let b = run_threaded(deny2, packets(20, 2), true, 1);
        assert_eq!(a.dropped, 20);
        assert_eq!(b.dropped, 20);
    }

    #[test]
    fn monitor_counters_match_across_modes() {
        let mon_a = Monitor::new();
        let mon_b = Monitor::new();
        let chain_a: Vec<Box<dyn Nf>> = vec![Box::new(mon_a.clone())];
        let chain_b: Vec<Box<dyn Nf>> = vec![Box::new(mon_b.clone())];
        let pkts = packets(30, 3);
        let _ = run_threaded(chain_a, pkts.clone(), false, 1);
        let _ = run_threaded(chain_b, pkts, true, 1);
        assert_eq!(mon_a.snapshot(), mon_b.snapshot());
    }

    #[test]
    fn fin_closes_flows_in_nf_threads() {
        let mon = Monitor::new();
        let chain: Vec<Box<dyn Nf>> = vec![Box::new(mon.clone())];
        let mut pkts = packets(5, 1);
        pkts.push(
            PacketBuilder::tcp()
                .src("10.0.0.1:1000".parse().unwrap())
                .dst("10.0.0.2:80".parse().unwrap())
                .flags(TcpFlags::FIN | TcpFlags::ACK)
                .build(),
        );
        let _ = run_threaded(chain, pkts, true, 1);
        assert_eq!(mon.flow_count(), 0);
    }

    #[test]
    fn empty_chain_is_passthrough() {
        let report = run_threaded(vec![], packets(10, 2), false, 1);
        assert_eq!(report.delivered.len(), 10);
    }

    #[test]
    fn batched_outputs_identical_to_single_packet() {
        let pkts = packets(60, 4);
        let single = run_threaded(fw_chain(3), pkts.clone(), true, 1);
        for batch in [2, 8, 32, 128] {
            let batched = run_threaded(fw_chain(3), pkts.clone(), true, batch);
            assert_eq!(single.delivered.len(), batched.delivered.len(), "batch {batch}");
            assert_eq!(single.dropped, batched.dropped, "batch {batch}");
            for (x, y) in single.delivered.iter().zip(&batched.delivered) {
                assert_eq!(x.as_bytes(), y.as_bytes(), "batch {batch}");
            }
        }
    }

    #[test]
    fn snapshot_accounts_for_every_packet() {
        for speedybox in [false, true] {
            let pkts = packets(40, 4);
            let expect_lat: usize = pkts.len();
            let report = run_threaded(fw_chain(2), pkts, speedybox, 1);
            let s = &report.snapshot;
            assert_eq!(s.packets, 40, "speedybox={speedybox}");
            assert_eq!(s.delivered as usize, report.delivered.len());
            assert_eq!(s.dropped as usize, report.dropped);
            let lat = s.latency_total();
            assert_eq!(lat.count as usize, expect_lat);
            assert_eq!(lat.sum, report.latencies_ns.iter().sum::<u64>());
            if speedybox {
                // Every fast-pathed packet is exactly one Global MAT hit.
                assert_eq!(s.fastpath_hits, s.paths[2]);
                assert!(s.paths[2] > 0, "expected fast-path traffic");
                assert_eq!(s.flows_opened, 4);
            } else {
                assert_eq!(s.paths, [40, 0, 0]);
            }
        }
    }

    #[test]
    fn observed_hook_fires_and_grows_monotonically() {
        let mut seen: Vec<u64> = Vec::new();
        let sbox = SpeedyBox::new(2, SboxConfig { batch_size: 8, ..SboxConfig::default() });
        let report = run_threaded_on(Some(&sbox), fw_chain(2), packets(50, 5), 8, 10, |s| {
            seen.push(s.packets)
        });
        assert!(!seen.is_empty(), "periodic hook never fired");
        assert!(seen.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(report.snapshot.packets, 50);
    }

    #[test]
    fn quarantine_window_rides_the_rings() {
        let sbox = SpeedyBox::new(1, SboxConfig::default());
        let mon = Monitor::new();
        let chain = || vec![Box::new(mon.clone()) as Box<dyn Nf>];

        // Warm run: flows record and ride the consolidated fast path.
        let warm = run_threaded_on(Some(&sbox), chain(), packets(12, 2), 1, 0, |_| {});
        assert_eq!(warm.delivered.len(), 12);
        assert!(warm.snapshot.paths[2] > 0, "expected fast-path traffic");

        // Crash handling: mask first, then sweep (same order as kill_nf).
        sbox.global.quarantine_nf(0);
        sbox.force_evict_flows(usize::MAX);
        let q = run_threaded_on(Some(&sbox), chain(), packets(12, 2), 1, 0, |_| {});
        assert_eq!(q.delivered.len(), 12, "window must be loss-free");
        assert_eq!(q.snapshot.paths[2], warm.snapshot.paths[2], "no fast path in the window");
        assert_eq!(q.snapshot.paths[1], warm.snapshot.paths[1], "no recording in the window");
        assert_eq!(q.snapshot.quarantine_packets - warm.snapshot.quarantine_packets, 12);

        // Close the window: unquarantine AND sweep (window-era flows hold
        // classifier entries with no rule — see `run_threaded_on`).
        sbox.global.unquarantine_nf(0);
        sbox.force_evict_flows(usize::MAX);
        let r = run_threaded_on(Some(&sbox), chain(), packets(12, 2), 1, 0, |_| {});
        assert_eq!(r.delivered.len(), 12);
        assert_eq!(r.snapshot.paths[1] - q.snapshot.paths[1], 2, "flows re-record");
        assert_eq!(r.snapshot.paths[2] - q.snapshot.paths[2], 10);
        // The monitor saw every packet of all three runs exactly once.
        assert_eq!(mon.snapshot().values().map(|c| c.packets).sum::<u64>(), 36);
    }

    #[test]
    fn batched_fin_closes_flows() {
        let mon = Monitor::new();
        let chain: Vec<Box<dyn Nf>> = vec![Box::new(mon.clone())];
        let mut pkts = packets(6, 1);
        pkts.push(
            PacketBuilder::tcp()
                .src("10.0.0.1:1000".parse().unwrap())
                .dst("10.0.0.2:80".parse().unwrap())
                .flags(TcpFlags::FIN | TcpFlags::ACK)
                .build(),
        );
        let _ = run_threaded(chain, pkts, true, 16);
        assert_eq!(mon.flow_count(), 0);
    }
}
