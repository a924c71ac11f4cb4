//! A real thread-per-NF OpenNetVM-style runtime.
//!
//! [`Chain`](crate::Chain) on [`Platform::Onvm`] models the pipeline
//! deterministically for the figure harness; this module builds it: one OS
//! thread per NF, bounded crossbeam channels as the RX/TX rings, and a
//! manager that hosts the classifier and the Global MAT — the §VI-A
//! architecture. The manager runs the modeled chain's packet step, priced
//! as ONVM, with each walk a trip over the rings: NF threads only count
//! their operations into the walk, and the manager's lane prices each
//! finished packet. Outputs and telemetry (in model cycles) equal the
//! modeled chain's; the wall clock is kept in
//! [`ThreadedReport::latencies_ns`].

use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Instant;

use crossbeam::channel::{bounded, Receiver, Sender};
use speedybox_mat::{NfInstrument, OpCounter};
use speedybox_nf::Nf;
use speedybox_packet::{Fid, Packet, PacketPool, PoolStats};
use speedybox_telemetry::{Telemetry, TelemetrySnapshot};

use crate::chain::{Lane, Nfs, Platform};
use crate::metrics::{sync_pool, ProcessedPacket};
use crate::runtime::{nf_step, tag_ingress, SboxConfig, SlowPathResult, SpeedyBox};

/// Descriptor slots per ring, and the most packets the pipelined original
/// chain keeps in flight (so completions always fit the TX ring).
const RING_CAPACITY: usize = 256;

/// Nanoseconds of a wall-clock interval as `u64` (584 years of headroom).
#[allow(clippy::cast_possible_truncation)]
fn elapsed_ns(since: Instant) -> u64 {
    since.elapsed().as_nanos() as u64
}

/// A packet on the rings and what the NFs did to it so far.
#[derive(Debug)]
struct Walk {
    pkt: Packet,
    /// NFs record the flow's behaviour (a SpeedyBox flow-initial packet).
    instrumented: bool,
    /// The walk's counts as [`traverse_chain`](crate::runtime::traverse_chain)
    /// reports them, filled in NF by NF.
    res: SlowPathResult,
    /// The pipelined original chain's bookkeeping, carried through.
    ticket: Option<Ticket>,
}

/// A pipelined packet's injection order and send time.
#[derive(Debug)]
struct Ticket {
    seq: usize,
    sent_at: Instant,
}

/// Message on an NF ring.
#[derive(Debug)]
// Walks are the rings' traffic; boxing them to shrink the rare teardown
// message would allocate per packet.
#[allow(clippy::large_enum_variant)]
enum Msg {
    Walk(Walk),
    /// Tear down per-flow state.
    FlowClosed(Fid),
}

/// Where the manager puts walks on the rings.
#[derive(Debug)]
enum Entry {
    /// The first NF's RX ring.
    FirstNf(Sender<Msg>),
    /// A chain without NFs loops its walks straight back to the TX ring.
    /// With NFs, only the NF threads hold sending ends of the TX ring, so
    /// their exit — after a panic in the first NF, say — closes it rather
    /// than leaving the manager blocked on it.
    Loopback(Sender<Walk>),
}

/// The manager's ends of the NF rings: the entry and the TX ring every NF
/// completes into. Dropping them shuts the NF threads down.
#[derive(Debug)]
pub(crate) struct Rings {
    entry: Entry,
    done: Receiver<Walk>,
    len: usize,
}

impl Rings {
    /// One thread per NF, chained by rings. With `instruments`, NF `i`
    /// records through `instruments[i]` when a walk asks it to.
    fn spawn(
        nfs: Vec<Box<dyn Nf>>,
        instruments: Option<&[NfInstrument]>,
    ) -> (Self, Vec<JoinHandle<()>>) {
        let len = nfs.len();
        let (done_tx, done) = bounded(RING_CAPACITY);
        let mut first: Option<Sender<Msg>> = None;
        let mut handles = Vec::with_capacity(len);
        for (i, nf) in nfs.into_iter().enumerate().rev() {
            let (tx, rx) = bounded(RING_CAPACITY);
            let instrument = instruments.map(|insts| insts[i].clone());
            let (next, done) = (first.take(), done_tx.clone());
            handles.push(thread::spawn(move || {
                nf_thread(nf, instrument.as_ref(), &rx, next.as_ref(), &done)
            }));
            first = Some(tx);
        }
        let entry = match first {
            Some(first) => Entry::FirstNf(first),
            None => Entry::Loopback(done_tx),
        };
        (Self { entry, done, len }, handles)
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    fn send(&self, pkt: Packet, instrumented: bool, ticket: Option<Ticket>) {
        let walk = Walk { pkt, instrumented, res: SlowPathResult::new(), ticket };
        match &self.entry {
            Entry::FirstNf(first) => first.send(Msg::Walk(walk)).expect("NF threads alive"),
            Entry::Loopback(tx) => tx.send(walk).expect("TX ring open"),
        }
    }

    /// The next packet to leave the chain or be dropped.
    fn done(&self) -> Walk {
        self.done.recv().expect("NF threads alive")
    }

    /// A packet that has already left the chain or been dropped, if any.
    fn try_done(&self) -> Option<Walk> {
        self.done.try_recv().ok()
    }

    /// The walk arm over the rings: sends `pkt` through the NF threads and
    /// blocks until it leaves the chain or is dropped. The step puts one
    /// packet at a time on the rings, so the next completion is this one.
    pub(crate) fn walk(&self, pkt: Packet, instrumented: bool) -> (Packet, SlowPathResult) {
        self.send(pkt, instrumented, None);
        let walk = self.done();
        (walk.pkt, walk.res)
    }

    /// Sends a FIN/RST teardown down the rings, behind every packet
    /// already on them.
    pub(crate) fn flow_closed(&self, fid: Fid) {
        if let Entry::FirstNf(first) = &self.entry {
            first.send(Msg::FlowClosed(fid)).expect("NF threads alive");
        }
    }
}

/// One NF's thread: takes each walk that reaches it one [`nf_step`]
/// further, counting its NF's operations into the walk, and passes it on,
/// to the next NF or — once it leaves the chain or is dropped — to the TX
/// ring. Exits when its RX ring closes.
fn nf_thread(
    mut nf: Box<dyn Nf>,
    instrument: Option<&NfInstrument>,
    rx: &Receiver<Msg>,
    next: Option<&Sender<Msg>>,
    done: &Sender<Walk>,
) {
    while let Ok(msg) = rx.recv() {
        match msg {
            Msg::Walk(mut walk) => {
                let instrument = instrument.filter(|_| walk.instrumented);
                nf_step(nf.as_mut(), instrument, &mut walk.pkt, &mut walk.res);
                match next.filter(|_| walk.res.survived) {
                    Some(next) => {
                        let _ = next.send(Msg::Walk(walk));
                    }
                    None => {
                        let _ = done.send(walk);
                    }
                }
            }
            Msg::FlowClosed(fid) => {
                nf.flow_closed(fid);
                if let Some(next) = next {
                    let _ = next.send(Msg::FlowClosed(fid));
                }
            }
        }
    }
}

/// Result of a threaded run.
#[derive(Debug)]
pub struct ThreadedReport {
    /// Surviving packets, in injection order.
    pub delivered: Vec<Packet>,
    /// Count of dropped packets.
    pub dropped: usize,
    /// Wall-clock latency per packet (nanoseconds), indexed by injection
    /// order; dropped packets report the latency to the drop point. Under
    /// SpeedyBox it is per batch: every packet of a batch reports the
    /// batch's time.
    pub latencies_ns: Vec<u64>,
    /// Final telemetry snapshot for the run, merged across every shard.
    /// Latencies are model cycles, as in every runtime.
    pub snapshot: TelemetrySnapshot,
}

/// The report under construction, with the periodic snapshot schedule.
struct Collected {
    delivered: Vec<Option<Packet>>,
    latencies_ns: Vec<u64>,
    dropped: usize,
    completed: usize,
    snapshot_every: usize,
    next_snap: usize,
}

impl Collected {
    fn record(&mut self, seq: usize, outcome: ProcessedPacket, latency_ns: u64) {
        self.latencies_ns[seq] = latency_ns;
        match outcome.packet {
            Some(pkt) => self.delivered[seq] = Some(pkt),
            None => self.dropped += 1,
        }
        self.completed += 1;
    }

    fn snapshots(
        &mut self,
        telemetry: &Telemetry,
        on_snapshot: &mut dyn FnMut(&TelemetrySnapshot),
    ) {
        while self.snapshot_every > 0 && self.completed >= self.next_snap {
            on_snapshot(&telemetry.snapshot());
            self.next_snap += self.snapshot_every;
        }
    }
}

/// Runs `packets` through `nfs`, each NF on its own thread connected by
/// bounded rings of `RING_CAPACITY` (256) descriptors. With `speedybox`
/// true the manager classifies, consolidates and fast-paths subsequent
/// packets in batches of `batch_size`; the NF threads then only see the
/// packets the step walks. Packet outcomes and telemetry are identical at
/// any batch size.
///
/// # Panics
/// Panics if the first NF's thread panics: the NF threads after it exit
/// in turn and close the TX ring. A panic in a later NF's thread leaves
/// the threads before it running, and the run then waits for good.
#[must_use]
pub fn run_threaded(
    nfs: Vec<Box<dyn Nf>>,
    packets: Vec<Packet>,
    speedybox: bool,
    batch_size: usize,
) -> ThreadedReport {
    let sbox = speedybox
        .then(|| SpeedyBox::new(nfs.len(), SboxConfig { batch_size, ..SboxConfig::default() }));
    run_threaded_on(sbox.as_ref(), nfs, packets, 0, |_| {})
}

/// [`run_threaded`] over a caller-owned runtime (`None` for the original
/// chain), so rules, flow tables, telemetry — and a quarantine window
/// opened by a crash handler — carry across runs. SpeedyBox packets run
/// the modeled chain's step in batches of `sbox.config.batch_size`, with
/// one idle-eviction tick per batch; a walk blocks until its packet
/// leaves the rings. The original chain pipelines: it keeps up to
/// `RING_CAPACITY` packets on the rings and completes each as it leaves.
///
/// Every `snapshot_every` completed packets the manager merges all
/// counter shards and hands the snapshot to `on_snapshot` (pass `0` to
/// disable periodic snapshots — the final one is always available via
/// [`ThreadedReport::snapshot`]).
///
/// # Panics
/// Panics if the first NF's thread panics: the NF threads after it exit
/// in turn and close the TX ring. A panic in a later NF's thread leaves
/// the threads before it running, and the run then waits for good.
#[must_use]
pub fn run_threaded_on(
    sbox: Option<&SpeedyBox>,
    nfs: Vec<Box<dyn Nf>>,
    packets: Vec<Packet>,
    snapshot_every: usize,
    mut on_snapshot: impl FnMut(&TelemetrySnapshot),
) -> ThreadedReport {
    let total = packets.len();
    // SpeedyBox runs share the runtime's hub; original-chain runs get a
    // private single-shard hub, as a modeled original chain does.
    let telemetry = sbox.map_or_else(|| Arc::new(Telemetry::new(1)), |s| Arc::clone(&s.telemetry));
    let pool = Arc::new(PacketPool::default());
    let instruments = sbox.map(|s| s.instruments.as_slice());
    let (rings, handles) = Rings::spawn(nfs, instruments);
    let mut lane = Lane::new(Nfs::Rings(rings), Platform::Onvm, &pool, 1, None, &telemetry);
    let mut got = Collected {
        delivered: (0..total).map(|_| None).collect(),
        latencies_ns: vec![0; total],
        dropped: 0,
        completed: 0,
        snapshot_every,
        next_snap: snapshot_every,
    };

    match sbox {
        Some(sbox) => {
            let batch_size = sbox.config.batch_size.max(1);
            let (mut batch, mut out) = (Vec::with_capacity(batch_size), Vec::new());
            let mut packets = packets.into_iter();
            loop {
                batch.extend(packets.by_ref().take(batch_size));
                if batch.is_empty() {
                    break;
                }
                let start = Instant::now();
                lane.batch(sbox, &mut batch, &mut out);
                let latency = elapsed_ns(start);
                for outcome in out.drain(..) {
                    got.record(got.completed, outcome, latency);
                }
                got.snapshots(&telemetry, &mut on_snapshot);
            }
        }
        None => {
            let mut in_flight = 0;
            for (seq, mut pkt) in packets.into_iter().enumerate() {
                if in_flight == RING_CAPACITY {
                    let walk = lane.rings().done();
                    complete(&mut lane, &mut got, walk);
                    in_flight -= 1;
                }
                let sent_at = Instant::now();
                tag_ingress(&mut pkt, &mut OpCounter::default());
                let closes = pkt.fid().filter(|_| pkt.tcp_flags().closes_flow());
                let rings = lane.rings();
                rings.send(pkt, false, Some(Ticket { seq, sent_at }));
                if let Some(fid) = closes {
                    rings.flow_closed(fid);
                }
                in_flight += 1;
                // Collect what has already left, to keep the rings moving.
                while let Some(walk) = lane.rings().try_done() {
                    complete(&mut lane, &mut got, walk);
                    in_flight -= 1;
                }
                got.snapshots(&telemetry, &mut on_snapshot);
            }
            for _ in 0..in_flight {
                let walk = lane.rings().done();
                complete(&mut lane, &mut got, walk);
                got.snapshots(&telemetry, &mut on_snapshot);
            }
        }
    }

    // Closing the manager's ends of the rings stops the NF threads once
    // they have drained; dropping the lane also flushes its magazine, so
    // the pool's depth gauge reflects every idle buffer.
    drop(lane);
    for handle in handles {
        handle.join().expect("NF thread panicked");
    }
    sync_pool(&telemetry, &pool, &mut PoolStats::default());
    ThreadedReport {
        delivered: got.delivered.into_iter().flatten().collect(),
        dropped: got.dropped,
        latencies_ns: got.latencies_ns,
        snapshot: telemetry.snapshot(),
    }
}

/// Finishes — prices and counts — and collects an original-chain packet
/// back from the rings.
fn complete(lane: &mut Lane, got: &mut Collected, walk: Walk) {
    let ticket = walk.ticket.expect("pipelined packets carry a ticket");
    let outcome = lane.complete(walk.pkt, &walk.res);
    got.record(ticket.seq, outcome, elapsed_ns(ticket.sent_at));
}

#[cfg(test)]
mod tests {
    #![allow(clippy::cast_possible_truncation)] // test data built from loop indices
    use speedybox_nf::ipfilter::{AclRule, IpFilter};
    use speedybox_nf::monitor::Monitor;
    use speedybox_nf::{NfContext, NfVerdict};
    use speedybox_packet::{PacketBuilder, TcpFlags};
    use std::sync::mpsc::{self, RecvTimeoutError};
    use std::time::Duration;

    use super::*;
    use crate::Chain;

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
            let mut modeled = if speedybox {
                Chain::speedybox(fw_chain(2))
            } else {
                Chain::original(fw_chain(2))
            }
            .with_platform(Platform::Onvm);
            modeled.run(pkts.clone());
            let report = run_threaded(fw_chain(2), pkts, speedybox, 1);
            let s = &report.snapshot;
            assert_eq!(s.packets, 40, "speedybox={speedybox}");
            assert_eq!(s.delivered as usize, report.delivered.len());
            assert_eq!(s.dropped as usize, report.dropped);
            let lat = s.latency_total();
            assert_eq!(lat.count as usize, expect_lat);
            assert_eq!(lat.sum, modeled.telemetry().snapshot().latency_total().sum);
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
        let report =
            run_threaded_on(Some(&sbox), fw_chain(2), packets(50, 5), 10, |s| seen.push(s.packets));
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
        let warm = run_threaded_on(Some(&sbox), chain(), packets(12, 2), 0, |_| {});
        assert_eq!(warm.delivered.len(), 12);
        assert!(warm.snapshot.paths[2] > 0, "expected fast-path traffic");

        // Crash handling: mask first, then sweep (same order as kill_nf).
        sbox.global.quarantine_nf(0);
        sbox.force_evict_flows(usize::MAX);
        let q = run_threaded_on(Some(&sbox), chain(), packets(12, 2), 0, |_| {});
        assert_eq!(q.delivered.len(), 12, "window must be loss-free");
        assert_eq!(q.snapshot.paths[2], warm.snapshot.paths[2], "no fast path in the window");
        assert_eq!(q.snapshot.paths[1], warm.snapshot.paths[1], "no recording in the window");
        assert_eq!(q.snapshot.quarantine_packets - warm.snapshot.quarantine_packets, 12);

        // Close the window. `unquarantine_nf` alone is enough; the sweep a
        // crash handler may add only means the window-era flows re-record
        // as newly classified flows rather than through the evicted-rule
        // fallback.
        sbox.global.unquarantine_nf(0);
        sbox.force_evict_flows(usize::MAX);
        let r = run_threaded_on(Some(&sbox), chain(), packets(12, 2), 0, |_| {});
        assert_eq!(r.delivered.len(), 12);
        assert_eq!(r.snapshot.paths[1] - q.snapshot.paths[1], 2, "flows re-record");
        assert_eq!(r.snapshot.paths[2] - q.snapshot.paths[2], 10);
        // The monitor saw every packet of all three runs exactly once.
        assert_eq!(mon.snapshot().values().map(|c| c.packets).sum::<u64>(), 36);
    }

    /// An NF that panics on every packet.
    struct Crashing;

    impl Nf for Crashing {
        fn name(&self) -> &'static str {
            "crashing"
        }

        fn process(&mut self, _: &mut Packet, _: &mut NfContext<'_>) -> NfVerdict {
            panic!("NF crashed");
        }
    }

    #[test]
    fn first_nf_panic_reaches_the_manager() {
        let (alive, gone) = mpsc::channel::<()>();
        let manager = thread::spawn(move || {
            let _alive = alive; // dropped when the manager returns or unwinds
            let chain: Vec<Box<dyn Nf>> = vec![Box::new(Crashing), Box::new(Monitor::new())];
            let _ = run_threaded(chain, packets(4, 1), true, 1);
        });
        // The NF threads' exit closes the TX ring; the manager must not
        // wait on it for good.
        let waited = gone.recv_timeout(Duration::from_secs(30));
        assert_eq!(waited, Err(RecvTimeoutError::Disconnected), "manager still blocked");
        let panic = manager.join().expect_err("the NF's panic reaches the manager");
        let msg = panic.downcast_ref::<String>().map_or("", String::as_str);
        assert!(msg.contains("NF threads alive"), "{msg}");
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
