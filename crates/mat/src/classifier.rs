//! The Packet Classifier (paper §III, §VI-B).
//!
//! First touch for every packet: hash the 5-tuple to the 20-bit FID, attach
//! it as metadata, and steer the packet — initial packets to the original
//! chain (slow path), subsequent packets to the Global MAT (fast path).
//! The classifier also watches TCP FIN/RST to garbage-collect rules.
//!
//! Flow state lives in the bounded flow table the classifier shares with
//! the Global MAT: one [`FlowRecord`] per slot, addressed by a direct FID
//! index (lookups are wait-free — no hashing, no generation clone), a
//! per-shard timer wheel driven by the deterministic packet clock for idle
//! expiry, and a configurable capacity with LRU eviction or admission
//! rejection when full (see [`PacketClass::Rejected`]). A classification
//! carries the flow's record on to the fast path, which reads the flow's
//! rule from it without a second lookup.

use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;

use speedybox_packet::{Fid, FiveTuple, Packet, PacketError};
use speedybox_telemetry::{CounterShard, Telemetry};

use crate::flow_table::{AdmissionPolicy, FlowTable, Opened, Pinned, FID_SPACE};
use crate::ops::OpCounter;
use crate::record::{FlowRecord, FlowRecords};

/// How the classifier steers a packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PacketClass {
    /// First packet of the flow — traverse the original chain and record
    /// rules into the Local MATs.
    Initial,
    /// Subsequent packet — take the consolidated fast path.
    Subsequent,
    /// The packet's FID collides with a *different* flow's (20-bit FID
    /// space, paper §VI-B): the packet must take the original chain
    /// uninstrumented so the colliding flow's rule is never corrupted.
    /// The paper's prototype shares the rule slot silently; detecting the
    /// 5-tuple mismatch is this reproduction's safety extension.
    Collision,
    /// TCP handshake packet of a not-yet-established flow (SYN/SYN-ACK).
    /// Only emitted in handshake-aware mode
    /// ([`PacketClassifier::handshake_aware`]), which implements the
    /// paper's §III definition — "the initial packet \[is\] the first packet
    /// after a connection is established (e.g., after the 3-way TCP
    /// handshake)". Handshake packets traverse the original chain without
    /// recording.
    Handshake,
    /// The flow table is at capacity under [`AdmissionPolicy::Reject`] and
    /// this packet's flow was not admitted: no state is tracked and no
    /// rule is recorded — the packet rides the original chain
    /// uninstrumented (graceful degradation, identical forwarding
    /// behaviour, no fast path).
    Rejected,
}

/// Default shard count for the flow table. Power of two so the shard index
/// is a mask of the (uniformly hashed) 20-bit FID.
pub const DEFAULT_CLASSIFIER_SHARDS: usize = 16;

/// Teardown hook invoked (outside all table locks) with each flow the
/// classifier evicts under capacity pressure, so the owner can drop what
/// an unfinished walk of the flow left staged and notify NFs.
pub type EvictHook = Arc<dyn Fn(Fid) + Send + Sync>;

/// The SpeedyBox Packet Classifier.
///
/// Flow state is the bounded flow table of [`FlowRecord`]s keyed by FID:
/// steering an already-tracked flow is wait-free — one direct-index
/// lookup, a recency stamp and a flag load, no lock and no locked
/// instruction — while structural changes (flow open / teardown / expiry)
/// serialize on per-shard writer mutexes that readers never touch.
/// Capacity and the when-full policy come from
/// [`PacketClassifier::with_limits`]; evictions fire the [`EvictHook`] so
/// nothing of the flow outlives its record.
///
/// ```
/// use speedybox_mat::{OpCounter, PacketClass, PacketClassifier};
/// use speedybox_packet::PacketBuilder;
///
/// let classifier = PacketClassifier::new();
/// let mut ops = OpCounter::default();
/// let mut first = PacketBuilder::tcp().build();
/// let c = classifier.classify(&mut first, &mut ops)?;
/// assert_eq!(c.class, PacketClass::Initial);
/// assert_eq!(first.fid(), Some(c.fid)); // FID attached as metadata
///
/// let mut second = PacketBuilder::tcp().build();
/// let c2 = classifier.classify(&mut second, &mut ops)?;
/// assert_eq!(c2.class, PacketClass::Subsequent);
/// # Ok::<(), speedybox_packet::PacketError>(())
/// ```
pub struct PacketClassifier {
    /// The flow table, shared with the Global MAT when both belong to one
    /// chain. Its clock is the classifier's packet clock: one tick per
    /// classified packet, the deterministic timebase for recency and idle
    /// expiry.
    flows: Arc<FlowRecords>,
    /// Implement the paper's §III initial-packet definition: TCP SYN
    /// packets of unestablished flows are steered as
    /// [`PacketClass::Handshake`] and recording starts with the first
    /// post-handshake packet. Off by default (record from the very first
    /// packet, which is what synthetic pktgen-style traffic needs).
    handshake_aware: bool,
    /// Optional telemetry sink: flow lifecycle counters (opens, closes,
    /// expiries, evictions, rejections, FID collisions, handshake
    /// packets) and the rules that leave with their records. Relaxed
    /// atomics; no effect on steering.
    sink: Option<Arc<Telemetry>>,
    /// Capacity-eviction teardown hook (see [`EvictHook`]).
    evictor: Option<EvictHook>,
}

impl std::fmt::Debug for PacketClassifier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PacketClassifier")
            .field("flows", &self.flows)
            .field("handshake_aware", &self.handshake_aware)
            .field("evictor", &self.evictor.is_some())
            .finish()
    }
}

impl Default for PacketClassifier {
    fn default() -> Self {
        Self::with_shards(DEFAULT_CLASSIFIER_SHARDS)
    }
}

/// Classifier verdict for one packet.
#[derive(Debug, Clone)]
pub struct Classification {
    /// Assigned flow ID (also attached to the packet).
    pub fid: Fid,
    /// Steering decision.
    pub class: PacketClass,
    /// True if this packet closes the flow (FIN/RST): the caller must tear
    /// down the flow's rules after processing it.
    pub closes_flow: bool,
    /// The FID's record as steering found it (`None` for a rejected
    /// flow). The fast path reads the flow's rule and armed events from
    /// here; for a collision it is the owning flow's record.
    pub record: Option<Pinned<FlowRecord>>,
}

impl PacketClassifier {
    /// Creates an empty classifier with the default shard count and an
    /// unbounded (full-FID-space) flow table.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty classifier with (at least) `shards` flow-table
    /// shards, rounded up to a power of two. Shard count never changes
    /// steering decisions — only lock granularity.
    #[must_use]
    pub fn with_shards(shards: usize) -> Self {
        Self::with_limits(shards, FID_SPACE, AdmissionPolicy::EvictOldest)
    }

    /// Creates an empty classifier with explicit flow-table bounds: at
    /// most `max_flows` live flows (0 = unbounded), handling overflow per
    /// `policy`.
    #[must_use]
    pub fn with_limits(shards: usize, max_flows: usize, policy: AdmissionPolicy) -> Self {
        Self::sharing(Arc::new(FlowTable::new(shards, max_flows, policy)))
    }

    /// A classifier over `flows`, the table it shares with a Global MAT
    /// ([`crate::GlobalMat::sharing`]).
    #[must_use]
    pub fn sharing(flows: Arc<FlowRecords>) -> Self {
        Self { flows, handshake_aware: false, sink: None, evictor: None }
    }

    /// Number of flow-table shards.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.flows.shard_count()
    }

    /// Enables the paper's §III handshake-aware initial-packet definition.
    #[must_use]
    pub fn handshake_aware(mut self) -> Self {
        self.handshake_aware = true;
        self
    }

    /// Attaches a telemetry sink for flow lifecycle counters.
    #[must_use]
    pub fn with_telemetry(mut self, sink: Arc<Telemetry>) -> Self {
        self.sink = Some(sink);
        self
    }

    /// Attaches the capacity-eviction teardown hook, called with each
    /// flow evicted to make room (after the table locks are released).
    /// Idle expiry does *not* fire the hook —
    /// [`PacketClassifier::expire_idle`] returns the FIDs to its caller
    /// instead.
    #[must_use]
    pub fn with_evictor(mut self, hook: EvictHook) -> Self {
        self.evictor = Some(hook);
        self
    }

    /// The telemetry cell for a FID, if a sink is attached.
    fn cell(&self, fid: Fid) -> Option<&CounterShard> {
        self.sink.as_ref().map(|t| t.shard(fid.index() as u64))
    }

    /// Classifies a packet: computes and attaches the FID, decides
    /// initial vs. subsequent, flags flow teardown, and hands back the
    /// flow's record. Wait-free for already-tracked flows (one
    /// direct-index lookup, a relaxed recency stamp and a flag load; the
    /// compare-and-swap runs only for a flow's first packet).
    ///
    /// The FID is derived from the packet's 5-tuple *at chain entry*; NFs
    /// downstream may rewrite headers but the metadata FID stays put.
    ///
    /// # Errors
    /// Propagates a parse failure for malformed packets.
    pub fn classify(
        &self,
        packet: &mut Packet,
        ops: &mut OpCounter,
    ) -> Result<Classification, PacketError> {
        let tuple = packet.five_tuple()?;
        let fid = tuple.fid();
        // One op covers the parse, hash, table probe and FID attach,
        // priced as a unit by the cycle model.
        ops.classifications += 1;
        packet.set_fid(fid);
        let flags = packet.tcp_flags();
        let closes_flow = flags.closes_flow();
        let cell = self.cell(fid);
        let Some(record) = self.open(fid, tuple, self.flows.tick(1), cell) else {
            let class = PacketClass::Rejected;
            return Ok(Classification { fid, class, closes_flow, record: None });
        };
        let recorded = record.recorded.load(Relaxed);
        let class = if record.owner != Some(tuple) {
            PacketClass::Collision
        } else if self.handshake_aware && flags.syn() && !recorded {
            // §III: handshake packets precede the "initial packet";
            // they ride the original chain without recording.
            PacketClass::Handshake
        } else if !recorded
            && record.recorded.compare_exchange(false, true, Relaxed, Relaxed).is_ok()
        {
            // The CAS guarantees exactly one packet is steered Initial per
            // flow record even under concurrent classification; the load
            // before it keeps every later packet off the locked
            // instruction.
            PacketClass::Initial
        } else {
            PacketClass::Subsequent
        };
        if let Some(cell) = cell {
            match class {
                PacketClass::Collision => cell.add_fid_collisions(1),
                PacketClass::Handshake => cell.add_handshake_packets(1),
                _ => {}
            }
        }
        Ok(Classification { fid, class, closes_flow, record: Some(record) })
    }

    /// The FID's record, stamped at clock tick `now`. A flow's first
    /// packet takes the table's writer path to open its record, or to
    /// claim one the control plane installed; `None` when the table
    /// rejects the flow.
    fn open(
        &self,
        fid: Fid,
        tuple: FiveTuple,
        now: u64,
        cell: Option<&CounterShard>,
    ) -> Option<Pinned<FlowRecord>> {
        loop {
            let record = match self.flows.lookup(fid) {
                Some((handle, record)) => {
                    self.flows.touch(handle, now);
                    record
                }
                None => match self
                    .flows
                    .open_with(fid, now, || FlowRecord::new(Some(tuple), false, None))
                {
                    Opened::Existing(value) => value,
                    Opened::Created(value, evicted) => {
                        if let Some(cell) = cell {
                            cell.add_flows_opened(1);
                        }
                        if let Some(victim) = evicted {
                            // Capacity pressure displaced the table-wide
                            // LRU flow, rule and all: count it and let the
                            // owner drop any staging it left (the hook
                            // runs outside table locks).
                            let vcell = self.cell(victim.fid);
                            victim.value.count_departure(vcell, CounterShard::add_flows_evicted);
                            if let Some(hook) = &self.evictor {
                                hook(victim.fid);
                            }
                        }
                        value
                    }
                    Opened::Rejected => {
                        if let Some(cell) = cell {
                            cell.add_flows_rejected(1);
                        }
                        return None;
                    }
                },
            };
            if record.owner.is_some() {
                return Some(record);
            }
            // The control plane installed this record before any packet
            // arrived: the flow's first packet claims it, as if opening it.
            let claim = |r: &FlowRecord| {
                r.owner.is_none().then(|| FlowRecord::new(Some(tuple), false, r.rule.clone()))
            };
            if let Some(claimed) = self.flows.republish(fid, claim) {
                if let Some(cell) = cell {
                    cell.add_flows_opened(1);
                }
                return Some(claimed);
            }
        }
    }

    /// Classifies by 5-tuple only (no packet mutation) — used by tests and
    /// by workload planners that need to predict steering.
    #[must_use]
    pub fn peek(&self, tuple: &FiveTuple) -> PacketClass {
        match self.flows.get(tuple.fid()) {
            Some(r) if r.owner == Some(*tuple) && r.recorded.load(Relaxed) => {
                PacketClass::Subsequent
            }
            Some(r) if r.owner.is_some_and(|owner| owner != *tuple) => PacketClass::Collision,
            _ => PacketClass::Initial,
        }
    }

    /// The FID's record, if any.
    #[must_use]
    pub fn record(&self, fid: Fid) -> Option<Pinned<FlowRecord>> {
        self.flows.get(fid)
    }

    /// Force-evicts the `k` least-recently-seen flows — the same
    /// wheel-driven LRU path capacity pressure takes — returning the
    /// victims' FIDs. Their records go, rules included; unlike automatic
    /// capacity eviction, the evictor hook does **not** fire: the caller
    /// owns the rest of the teardown (Local MATs, Event Table).
    pub fn evict_oldest(&self, k: usize) -> Vec<Fid> {
        self.flows
            .evict_oldest(k)
            .into_iter()
            .map(|victim| {
                let cell = self.cell(victim.fid);
                victim.value.count_departure(cell, CounterShard::add_flows_evicted);
                victim.fid
            })
            .collect()
    }

    /// Forgets a flow: its record goes, and its rule with it. The next
    /// packet with this FID is treated as initial again.
    pub fn remove_flow(&self, fid: Fid) {
        if let Some(record) = self.flows.remove(fid) {
            record.count_departure(self.cell(fid), CounterShard::add_flows_closed);
        }
    }

    /// Number of tracked flows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.flows.len()
    }

    /// True if no flows are tracked.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.flows.is_empty()
    }

    /// Retired flow records not yet reclaimed (removed, evicted or
    /// republished records awaiting RCU collection).
    #[must_use]
    pub fn pending_generations(&self) -> usize {
        self.flows.pending_generations()
    }

    /// Attempts to reclaim retired flow records; returns how many were
    /// freed.
    pub fn collect_generations(&self) -> usize {
        self.flows.collect_generations()
    }

    /// The classifier's monotonic packet clock (one tick per classified
    /// packet).
    #[must_use]
    pub fn clock(&self) -> u64 {
        self.flows.clock()
    }

    /// A conservative lower bound on the earliest clock tick any flow
    /// could expire at (`u64::MAX` when no flows are tracked). Lets batch
    /// loops skip [`PacketClassifier::expire_idle`] entirely while nothing
    /// can be due.
    #[must_use]
    pub fn next_expiry_due(&self) -> u64 {
        self.flows.next_due()
    }

    /// Expires flows idle for more than `max_idle` clock ticks, returning
    /// the expired FIDs so the caller can drop any staging they left
    /// (their records, with rules, recordings and events, are gone).
    ///
    /// TCP flows are normally garbage-collected on FIN/RST (§VI-B of the
    /// paper); this extension reclaims UDP flows and half-dead TCP flows
    /// that never close. The timebase is the deterministic packet clock,
    /// so tests and the simulators stay reproducible; the scan is the flow
    /// table's timer wheel — amortized O(1) per tick, not O(flows).
    pub fn expire_idle(&self, max_idle: u64) -> Vec<Fid> {
        self.flows
            .expire_idle(self.clock(), max_idle)
            .into_iter()
            .map(|victim| {
                let cell = self.cell(victim.fid);
                victim.value.count_departure(cell, CounterShard::add_flows_expired);
                victim.fid
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::AtomicUsize;

    use speedybox_packet::{PacketBuilder, TcpFlags};

    use super::*;

    fn pkt(src_port: u16, flags: u8) -> Packet {
        PacketBuilder::tcp()
            .src(format!("10.0.0.1:{src_port}").parse().unwrap())
            .dst("10.0.0.2:80".parse().unwrap())
            .flags(flags)
            .build()
    }

    #[test]
    fn first_packet_is_initial_then_subsequent() {
        let cl = PacketClassifier::new();
        let mut ops = OpCounter::default();
        let mut p1 = pkt(1000, TcpFlags::SYN);
        let c1 = cl.classify(&mut p1, &mut ops).unwrap();
        assert_eq!(c1.class, PacketClass::Initial);
        let mut p2 = pkt(1000, TcpFlags::ACK);
        let c2 = cl.classify(&mut p2, &mut ops).unwrap();
        assert_eq!(c2.class, PacketClass::Subsequent);
        assert_eq!(c1.fid, c2.fid);
    }

    #[test]
    fn fid_is_attached_to_packet() {
        let cl = PacketClassifier::new();
        let mut ops = OpCounter::default();
        let mut p = pkt(1000, TcpFlags::ACK);
        assert!(p.fid().is_none());
        let c = cl.classify(&mut p, &mut ops).unwrap();
        assert_eq!(p.fid(), Some(c.fid));
    }

    #[test]
    fn distinct_flows_get_distinct_state() {
        let cl = PacketClassifier::new();
        let mut ops = OpCounter::default();
        let mut a = pkt(1000, TcpFlags::ACK);
        let mut b = pkt(2000, TcpFlags::ACK);
        cl.classify(&mut a, &mut ops).unwrap();
        let cb = cl.classify(&mut b, &mut ops).unwrap();
        assert_eq!(cb.class, PacketClass::Initial);
        assert_eq!(cl.len(), 2);
    }

    #[test]
    fn fin_and_rst_flag_teardown() {
        let cl = PacketClassifier::new();
        let mut ops = OpCounter::default();
        let mut fin = pkt(1000, TcpFlags::FIN | TcpFlags::ACK);
        assert!(cl.classify(&mut fin, &mut ops).unwrap().closes_flow);
        let mut rst = pkt(1001, TcpFlags::RST);
        assert!(cl.classify(&mut rst, &mut ops).unwrap().closes_flow);
        let mut ack = pkt(1002, TcpFlags::ACK);
        assert!(!cl.classify(&mut ack, &mut ops).unwrap().closes_flow);
    }

    #[test]
    fn removed_flow_becomes_initial_again() {
        let cl = PacketClassifier::new();
        let mut ops = OpCounter::default();
        let mut p = pkt(1000, TcpFlags::ACK);
        let c = cl.classify(&mut p, &mut ops).unwrap();
        cl.remove_flow(c.fid);
        assert!(cl.is_empty());
        let mut p2 = pkt(1000, TcpFlags::ACK);
        assert_eq!(cl.classify(&mut p2, &mut ops).unwrap().class, PacketClass::Initial);
    }

    #[test]
    fn peek_does_not_mutate() {
        let cl = PacketClassifier::new();
        let p = pkt(1000, TcpFlags::ACK);
        let t = p.five_tuple().unwrap();
        assert_eq!(cl.peek(&t), PacketClass::Initial);
        assert_eq!(cl.peek(&t), PacketClass::Initial);
        assert!(cl.is_empty());
    }

    /// Finds two distinct 5-tuples with the same 20-bit FID (birthday
    /// search over the address space).
    fn colliding_tuples() -> (FiveTuple, FiveTuple) {
        use std::collections::HashMap;
        use std::net::Ipv4Addr;

        use speedybox_packet::Protocol;

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
        panic!("no FID collision in search space (hash badly broken?)");
    }

    #[test]
    fn fid_collision_is_detected() {
        use std::net::SocketAddrV4;

        let (ta, tb) = colliding_tuples();
        assert_eq!(ta.fid(), tb.fid());
        let cl = PacketClassifier::new();
        let mut ops = OpCounter::default();
        let mk = |t: &FiveTuple| {
            let mut b = PacketBuilder::tcp();
            b.src(SocketAddrV4::new(t.src_ip, t.src_port))
                .dst(SocketAddrV4::new(t.dst_ip, t.dst_port));
            b.build()
        };
        // First flow claims the FID.
        let mut pa = mk(&ta);
        assert_eq!(cl.classify(&mut pa, &mut ops).unwrap().class, PacketClass::Initial);
        // The colliding flow is flagged, repeatedly.
        let mut pb = mk(&tb);
        assert_eq!(cl.classify(&mut pb, &mut ops).unwrap().class, PacketClass::Collision);
        let mut pb2 = mk(&tb);
        assert_eq!(cl.classify(&mut pb2, &mut ops).unwrap().class, PacketClass::Collision);
        assert_eq!(cl.peek(&tb), PacketClass::Collision);
        // The owner keeps normal service.
        let mut pa2 = mk(&ta);
        assert_eq!(cl.classify(&mut pa2, &mut ops).unwrap().class, PacketClass::Subsequent);
        // Once the owner departs, the colliding flow can claim the slot.
        cl.remove_flow(ta.fid());
        let mut pb3 = mk(&tb);
        assert_eq!(cl.classify(&mut pb3, &mut ops).unwrap().class, PacketClass::Initial);
    }

    #[test]
    fn idle_flows_expire() {
        let cl = PacketClassifier::new();
        let mut ops = OpCounter::default();
        let mut a = pkt(1000, TcpFlags::ACK);
        let fid_a = cl.classify(&mut a, &mut ops).unwrap().fid;
        // Busy flow b keeps ticking while a goes idle.
        for _ in 0..20 {
            let mut b = pkt(2000, TcpFlags::ACK);
            cl.classify(&mut b, &mut ops).unwrap();
        }
        let expired = cl.expire_idle(10);
        assert_eq!(expired, vec![fid_a]);
        assert_eq!(cl.len(), 1, "busy flow survives");
        // The expired flow is initial again.
        let mut a2 = pkt(1000, TcpFlags::ACK);
        assert_eq!(cl.classify(&mut a2, &mut ops).unwrap().class, PacketClass::Initial);
    }

    #[test]
    fn expire_idle_with_no_idle_flows_is_noop() {
        let cl = PacketClassifier::new();
        let mut ops = OpCounter::default();
        let mut p = pkt(1000, TcpFlags::ACK);
        cl.classify(&mut p, &mut ops).unwrap();
        assert!(cl.expire_idle(1000).is_empty());
        assert_eq!(cl.len(), 1);
        assert_eq!(cl.clock(), 1);
    }

    #[test]
    fn classification_counts_ops() {
        let cl = PacketClassifier::new();
        let mut ops = OpCounter::default();
        let mut p = pkt(1000, TcpFlags::ACK);
        cl.classify(&mut p, &mut ops).unwrap();
        assert_eq!(ops.classifications, 1);
        assert_eq!(ops.parses, 0, "classification op covers its own parse");
    }

    #[test]
    fn capacity_eviction_fires_hook_and_keeps_bound() {
        let evictions = Arc::new(Mutex::new(Vec::new()));
        let log = Arc::clone(&evictions);
        let cl = PacketClassifier::with_limits(1, 3, AdmissionPolicy::EvictOldest)
            .with_evictor(Arc::new(move |fid| log.lock().push(fid)));
        let mut ops = OpCounter::default();
        let mut fids = Vec::new();
        for port in [1000u16, 2000, 3000, 4000, 5000] {
            let mut p = pkt(port, TcpFlags::ACK);
            fids.push(cl.classify(&mut p, &mut ops).unwrap().fid);
        }
        assert_eq!(cl.len(), 3, "table stays at capacity");
        // The two oldest flows were displaced, in order.
        assert_eq!(*evictions.lock(), vec![fids[0], fids[1]]);
        // An evicted flow is initial again on return (and displaces the
        // now-oldest).
        let mut back = pkt(1000, TcpFlags::ACK);
        assert_eq!(cl.classify(&mut back, &mut ops).unwrap().class, PacketClass::Initial);
        assert_eq!(cl.len(), 3);
    }

    use parking_lot::Mutex;

    #[test]
    fn reject_policy_steers_rejected_without_state() {
        let cl = PacketClassifier::with_limits(1, 2, AdmissionPolicy::Reject);
        let mut ops = OpCounter::default();
        for port in [1000u16, 2000] {
            let mut p = pkt(port, TcpFlags::ACK);
            cl.classify(&mut p, &mut ops).unwrap();
        }
        let mut p = pkt(3000, TcpFlags::ACK);
        let c = cl.classify(&mut p, &mut ops).unwrap();
        assert_eq!(c.class, PacketClass::Rejected);
        assert_eq!(cl.len(), 2, "rejected flow leaves no state");
        // Tracked flows keep normal service at capacity.
        let mut p2 = pkt(1000, TcpFlags::ACK);
        assert_eq!(cl.classify(&mut p2, &mut ops).unwrap().class, PacketClass::Subsequent);
        // A closing rejected packet must not disturb tracked state.
        let mut fin = pkt(3000, TcpFlags::FIN | TcpFlags::ACK);
        let cf = cl.classify(&mut fin, &mut ops).unwrap();
        assert_eq!(cf.class, PacketClass::Rejected);
        assert!(cf.closes_flow);
        cl.remove_flow(cf.fid); // what a teardown path would do
        assert_eq!(cl.len(), 2);
        // Capacity frees up once a tracked flow departs.
        let mut p3 = pkt(1000, TcpFlags::ACK);
        let fid1 = cl.classify(&mut p3, &mut ops).unwrap().fid;
        cl.remove_flow(fid1);
        let mut p4 = pkt(3000, TcpFlags::ACK);
        assert_eq!(cl.classify(&mut p4, &mut ops).unwrap().class, PacketClass::Initial);
    }

    #[test]
    fn eviction_and_removal_retire_through_rcu() {
        let hits = Arc::new(AtomicUsize::new(0));
        let h = Arc::clone(&hits);
        let cl = PacketClassifier::with_limits(1, 2, AdmissionPolicy::EvictOldest).with_evictor(
            Arc::new(move |_| {
                h.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            }),
        );
        let mut ops = OpCounter::default();
        for port in [1000u16, 2000, 3000] {
            let mut p = pkt(port, TcpFlags::ACK);
            cl.classify(&mut p, &mut ops).unwrap();
        }
        assert_eq!(hits.load(std::sync::atomic::Ordering::Relaxed), 1);
        // Evicted + removed entries sit in the retired backlog until
        // collected; nothing leaks after a full drain.
        cl.collect_generations();
        assert_eq!(cl.pending_generations(), 0);
    }
}
