//! Maglev: Google's consistent-hashing software load balancer (paper §VI-C).
//!
//! Maglev is closed source; like the SpeedyBox authors we "implement our
//! Maglev NF logic by closely following the consistent hashing algorithm
//! presented in Section 3.4 of Maglev's paper": each backend gets a
//! permutation of the lookup-table slots derived from two hashes
//! (`offset`/`skip`), and backends take turns claiming their next preferred
//! empty slot until the table fills. Flows hash into the table; a
//! connection-tracking map pins established flows to their backend.
//!
//! The SpeedyBox-relevant behaviour is the *event*: when a backend fails,
//! established flows tracked to it must be re-routed — the header action
//! recorded for those flows changes at runtime (Observation 2, §V-A).
//! Every flow's reroute event watches one NF-wide signal, raised by the
//! calls that change backend health or replace the whole state.

use std::collections::HashMap;
use std::fmt;
use std::net::SocketAddrV4;
use std::sync::Arc;

use parking_lot::Mutex;
use speedybox_mat::event::RulePatch;
use speedybox_mat::{Event, EventHandlers, HeaderAction, NfInstrument, Signal};
use speedybox_packet::{Fid, HeaderField, Packet};

use crate::nf::{Nf, NfContext, NfVerdict, StateSnapshot};

/// A load-balancer backend.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Backend {
    /// Stable name used for permutation hashing.
    pub name: String,
    /// Address traffic is steered to.
    pub addr: SocketAddrV4,
    /// Health flag; unhealthy backends receive no new or existing flows.
    pub healthy: bool,
}

fn hash_str(s: &str, seed: u64) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[derive(Debug, Clone)]
struct State {
    backends: Vec<Backend>,
    /// Lookup table mapping hash slots to backend indices; empty when no
    /// backend is healthy.
    table: Vec<usize>,
    table_size: usize,
    /// Connection tracking: flow -> backend index.
    connections: HashMap<Fid, usize>,
    /// What the SpeedyBox fast-path rule currently encodes for each
    /// instrumented flow: `Some(backend)` for a modify, `None` for a drop
    /// (load shed while no backend was healthy). The reroute event fires
    /// whenever this diverges from what the original path would pick *now*
    /// — covering backend failure, recovery after a total outage, and
    /// flows whose very first packet arrived while every backend was dead.
    rule_target: HashMap<Fid, Option<usize>>,
}

impl State {
    /// Maglev paper §3.4: populate the lookup table from per-backend
    /// permutations so every healthy backend gets an almost-equal share and
    /// changes disrupt few entries.
    fn rebuild_table(&mut self) {
        let m = self.table_size;
        let healthy: Vec<usize> =
            (0..self.backends.len()).filter(|&i| self.backends[i].healthy).collect();
        if healthy.is_empty() {
            self.table = Vec::new();
            return;
        }
        let mut offset_skip: Vec<(usize, usize)> = Vec::with_capacity(healthy.len());
        for &i in &healthy {
            let name = &self.backends[i].name;
            // `% m` bounds both values below the (usize) table size.
            #[allow(clippy::cast_possible_truncation)]
            let offset = (hash_str(name, 1) % m as u64) as usize;
            #[allow(clippy::cast_possible_truncation)]
            let skip = (hash_str(name, 2) % (m as u64 - 1)) as usize + 1;
            offset_skip.push((offset, skip));
        }
        let mut next = vec![0usize; healthy.len()];
        let mut table = vec![usize::MAX; m];
        let mut filled = 0;
        'outer: loop {
            for (bi, &backend) in healthy.iter().enumerate() {
                let (offset, skip) = offset_skip[bi];
                // Find this backend's next preferred empty slot.
                let mut c = (offset + next[bi] * skip) % m;
                while table[c] != usize::MAX {
                    next[bi] += 1;
                    c = (offset + next[bi] * skip) % m;
                }
                table[c] = backend;
                next[bi] += 1;
                filled += 1;
                if filled == m {
                    break 'outer;
                }
            }
        }
        self.table = table;
    }

    fn lookup(&self, fid: Fid) -> Option<usize> {
        if self.table.is_empty() {
            return None;
        }
        // `% len` bounds the slot below the (usize) table size.
        #[allow(clippy::cast_possible_truncation)]
        let slot = (u64::from(fid.value()).wrapping_mul(0x9e37_79b9_7f4a_7c15)
            % self.table.len() as u64) as usize;
        Some(self.table[slot])
    }

    /// The backend for a flow: the tracked one if still healthy, otherwise
    /// a fresh table lookup (re-route), recorded in the tracker.
    fn assign(&mut self, fid: Fid) -> Option<usize> {
        if let Some(&b) = self.connections.get(&fid) {
            if self.backends[b].healthy {
                return Some(b);
            }
        }
        let b = self.lookup(fid)?;
        self.connections.insert(fid, b);
        Some(b)
    }

    /// [`State::assign`] without the tracker write: what the original path
    /// would pick for this flow right now. Used by the reroute event's
    /// condition, which must not mutate.
    fn preview(&self, fid: Fid) -> Option<usize> {
        if let Some(&b) = self.connections.get(&fid) {
            if self.backends[b].healthy {
                return Some(b);
            }
        }
        self.lookup(fid)
    }
}

/// The header rewrite that steers a flow to the backend at `addr`.
fn route(addr: SocketAddrV4) -> HeaderAction {
    HeaderAction::modify2(
        (HeaderField::DstIp, (*addr.ip()).into()),
        (HeaderField::DstPort, addr.port().into()),
    )
}

/// The Maglev load-balancer NF.
///
/// ```
/// use speedybox_nf::maglev::Maglev;
///
/// let lb = Maglev::new(
///     vec![
///         ("a".to_owned(), "10.1.0.1:80".parse().unwrap()),
///         ("b".to_owned(), "10.1.0.2:80".parse().unwrap()),
///     ],
///     53,
/// );
/// // Every lookup-table slot is owned, shares are near-equal.
/// let shares = lb.table_shares();
/// assert_eq!(shares.values().sum::<usize>(), 53);
/// assert!(shares.values().max().unwrap() - shares.values().min().unwrap() <= 2);
/// ```
#[derive(Clone)]
pub struct Maglev {
    state: Arc<Mutex<State>>,
    // SPEEDYBOX-INTEGRATION-BEGIN (maglev/event: 2 lines)
    /// Raised inside every critical section that can make a flow's
    /// recorded target differ from [`State::preview`].
    reroute: Signal,
    /// The reroute event's condition and update, built once for all flows.
    reroute_handlers: EventHandlers,
    // SPEEDYBOX-INTEGRATION-END
}

impl fmt::Debug for Maglev {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let st = self.state.lock();
        f.debug_struct("Maglev")
            .field("backends", &st.backends.len())
            .field("table_size", &st.table_size)
            .field("connections", &st.connections.len())
            .finish()
    }
}

impl Maglev {
    /// Creates a Maglev NF over `backends` with a lookup table of
    /// `table_size` slots (should be a prime ≫ backend count, per the
    /// Maglev paper; 65537 in production, smaller in tests).
    ///
    /// # Panics
    /// Panics if `backends` is empty or `table_size < 2`.
    #[must_use]
    pub fn new(backends: Vec<(impl Into<String>, SocketAddrV4)>, table_size: usize) -> Self {
        assert!(!backends.is_empty(), "Maglev needs at least one backend");
        assert!(table_size >= 2, "lookup table needs at least two slots");
        let backends = backends
            .into_iter()
            .map(|(name, addr)| Backend { name: name.into(), addr, healthy: true })
            .collect();
        let mut state = State {
            backends,
            table: Vec::new(),
            table_size,
            connections: HashMap::new(),
            rule_target: HashMap::new(),
        };
        state.rebuild_table();
        let state = Arc::new(Mutex::new(state));
        Self {
            // SPEEDYBOX-INTEGRATION-BEGIN (maglev/event: 2 lines)
            reroute: Signal::new(),
            reroute_handlers: reroute_handlers(&state),
            // SPEEDYBOX-INTEGRATION-END
            state,
        }
    }

    /// Marks a backend unhealthy and rebuilds the table. Established flows
    /// tracked to it are re-routed by the registered SpeedyBox events (or,
    /// on the original path, by the next `process` call).
    pub fn fail_backend(&self, name: &str) {
        self.set_health(name, false);
    }

    /// Marks a backend healthy again and rebuilds the table.
    pub fn recover_backend(&self, name: &str) {
        self.set_health(name, true);
    }

    fn set_health(&self, name: &str, healthy: bool) {
        let mut st = self.state.lock();
        if let Some(b) = st.backends.iter_mut().find(|b| b.name == name) {
            b.healthy = healthy;
        }
        st.rebuild_table();
        // SPEEDYBOX-INTEGRATION-BEGIN (maglev/raise: 1 line)
        self.reroute.raise();
        // SPEEDYBOX-INTEGRATION-END
    }

    /// The backend address currently assigned to a flow, if tracked.
    #[must_use]
    pub fn assigned_backend(&self, fid: Fid) -> Option<SocketAddrV4> {
        let st = self.state.lock();
        st.connections.get(&fid).map(|&b| st.backends[b].addr)
    }

    /// Number of tracked connections.
    #[must_use]
    pub fn connection_count(&self) -> usize {
        self.state.lock().connections.len()
    }

    // SPEEDYBOX-INTEGRATION-BEGIN (maglev/reroute: 6 lines)
    /// Records `target` as what `fid`'s fast-path rule encodes and
    /// registers the flow's recurring reroute event (see
    /// [`reroute_handlers`]).
    fn register_reroute_event(&self, fid: Fid, target: Option<usize>, inst: &NfInstrument) {
        self.state.lock().rule_target.insert(fid, target);
        let handlers = &self.reroute_handlers;
        let event = Event::shared(fid, inst.nf(), "maglev.reroute", &self.reroute, handlers);
        inst.register_event_full(event.recurring());
    }
    // SPEEDYBOX-INTEGRATION-END

    /// Distribution of lookup-table slots per healthy backend (for the
    /// balance tests).
    #[must_use]
    pub fn table_shares(&self) -> HashMap<String, usize> {
        let st = self.state.lock();
        let mut shares = HashMap::new();
        for &b in &st.table {
            *shares.entry(st.backends[b].name.clone()).or_insert(0) += 1;
        }
        shares
    }
}

// SPEEDYBOX-INTEGRATION-BEGIN (maglev/handlers: 13 lines)
/// The reroute event's handlers over `state`. The condition holds
/// whenever a flow's recorded target (`rule_target`) no longer matches
/// what the original path would pick for it — a failed tracked backend, a
/// recovery ending a total outage, or a recovered preferred backend for a
/// flow recorded as a load-shedding drop. All three follow a health
/// change, which raises `reroute`; the condition is re-checked then. The
/// update re-runs [`State::assign`] (the original path's choice, tracker
/// update included) so both paths converge on the same backend.
fn reroute_handlers(state: &Arc<Mutex<State>>) -> EventHandlers {
    let (cond, update) = (Arc::clone(state), Arc::clone(state));
    let condition = move |fid| {
        let st = cond.lock();
        st.rule_target.get(&fid).is_some_and(|t| *t != st.preview(fid))
    };
    EventHandlers::new(condition, move |fid| {
        let mut st = update.lock();
        let target = st.assign(fid);
        st.rule_target.insert(fid, target);
        RulePatch::set_action(target.map_or(HeaderAction::Drop, |b| route(st.backends[b].addr)))
    })
}
// SPEEDYBOX-INTEGRATION-END

impl Nf for Maglev {
    fn name(&self) -> &str {
        "maglev"
    }

    fn process(&mut self, packet: &mut Packet, ctx: &mut NfContext<'_>) -> NfVerdict {
        let fid = packet
            .fid()
            .unwrap_or_else(|| packet.five_tuple().map(|t| t.fid()).unwrap_or_default());
        ctx.ops.parses += 1;
        let backend = {
            let mut st = self.state.lock();
            ctx.ops.hash_lookups += 1;
            st.assign(fid).map(|b| {
                ctx.ops.hash_updates += 1;
                (b, st.backends[b].addr)
            })
        };
        let Some((backend_idx, backend_addr)) = backend else {
            // No healthy backend: shed load (and record the drop so the
            // fast path sheds too). The reroute event is still registered:
            // once a backend recovers, the original path resumes
            // forwarding, so the fast-path rule must be rewritten back
            // from drop to modify.
            ctx.ops.drops += 1;
            // SPEEDYBOX-INTEGRATION-BEGIN (maglev/shed: 4 lines)
            if let Some(inst) = ctx.instrument {
                inst.add_header_action(fid, HeaderAction::Drop, ctx.ops);
                self.register_reroute_event(fid, None, inst);
            }
            // SPEEDYBOX-INTEGRATION-END
            return NfVerdict::Drop;
        };
        let action = route(backend_addr);
        if !action.apply(packet, ctx.ops).unwrap_or(false) {
            return NfVerdict::Drop;
        }
        // SPEEDYBOX-INTEGRATION-BEGIN (maglev: 4 lines)
        if let Some(inst) = ctx.instrument {
            inst.add_header_action(fid, action, ctx.ops);
            self.register_reroute_event(fid, Some(backend_idx), inst);
        }
        // SPEEDYBOX-INTEGRATION-END
        NfVerdict::Forward
    }

    fn flow_closed(&mut self, fid: Fid) {
        let mut st = self.state.lock();
        st.connections.remove(&fid);
        st.rule_target.remove(&fid);
    }

    fn has_flow_state(&self) -> bool {
        true
    }

    fn snapshot_state(&self) -> Option<StateSnapshot> {
        Some(StateSnapshot::new(self.state.lock().clone()))
    }

    fn restore_state(&mut self, snapshot: &StateSnapshot) -> bool {
        let Some(captured) = snapshot.downcast::<State>() else {
            return false;
        };
        let mut st = self.state.lock();
        *st = captured.clone();
        // SPEEDYBOX-INTEGRATION-BEGIN (maglev/raise: 1 line)
        self.reroute.raise();
        // SPEEDYBOX-INTEGRATION-END
        true
    }

    fn crash(&mut self) {
        // A restarted Maglev re-reads its backend config (all healthy) and
        // rebuilds the lookup table, but connection tracking is gone.
        let mut st = self.state.lock();
        st.connections.clear();
        st.rule_target.clear();
        for b in &mut st.backends {
            b.healthy = true;
        }
        st.rebuild_table();
        // SPEEDYBOX-INTEGRATION-BEGIN (maglev/raise: 1 line)
        self.reroute.raise();
        // SPEEDYBOX-INTEGRATION-END
    }
}

#[cfg(test)]
mod tests {
    use speedybox_mat::OpCounter;
    use speedybox_packet::PacketBuilder;

    use super::*;

    fn backends(n: usize) -> Vec<(String, SocketAddrV4)> {
        (0..n)
            .map(|i| (format!("backend-{i}"), format!("10.1.0.{}:8080", i + 1).parse().unwrap()))
            .collect()
    }

    fn lb() -> Maglev {
        Maglev::new(backends(4), 251)
    }

    fn packet(src_port: u16) -> Packet {
        let mut p = PacketBuilder::tcp()
            .src(format!("10.0.0.1:{src_port}").parse().unwrap())
            .dst("10.99.99.99:80".parse().unwrap()) // VIP
            .build();
        let fid = p.five_tuple().unwrap().fid();
        p.set_fid(fid);
        p
    }

    #[test]
    fn table_is_fully_populated_and_balanced() {
        let lb = lb();
        let shares = lb.table_shares();
        assert_eq!(shares.len(), 4);
        let total: usize = shares.values().sum();
        assert_eq!(total, 251);
        // Maglev's guarantee: near-equal shares.
        let min = shares.values().min().unwrap();
        let max = shares.values().max().unwrap();
        assert!(max - min <= 2, "imbalanced table: {shares:?}");
    }

    #[test]
    fn rewrites_destination_to_backend() {
        let mut lb = lb();
        let mut ops = OpCounter::default();
        let mut ctx = NfContext::baseline(&mut ops);
        let mut p = packet(1000);
        assert_eq!(lb.process(&mut p, &mut ctx), NfVerdict::Forward);
        let dst = p.get_field(HeaderField::DstIp).unwrap().as_ipv4();
        assert_eq!(dst.octets()[..3], [10, 1, 0]);
        assert_eq!(p.get_field(HeaderField::DstPort).unwrap().as_port(), 8080);
        assert!(p.verify_checksums().unwrap());
    }

    #[test]
    fn flows_are_sticky() {
        let mut lb = lb();
        let mut ops = OpCounter::default();
        let mut first = packet(1000);
        {
            let mut ctx = NfContext::baseline(&mut ops);
            lb.process(&mut first, &mut ctx);
        }
        let d1 = first.get_field(HeaderField::DstIp).unwrap().as_ipv4();
        for _ in 0..5 {
            let mut p = packet(1000);
            let mut ctx = NfContext::baseline(&mut ops);
            lb.process(&mut p, &mut ctx);
            assert_eq!(p.get_field(HeaderField::DstIp).unwrap().as_ipv4(), d1);
        }
        assert_eq!(lb.connection_count(), 1);
    }

    #[test]
    fn failure_reroutes_established_flow() {
        let mut lb = lb();
        let mut ops = OpCounter::default();
        let mut p = packet(1000);
        {
            let mut ctx = NfContext::baseline(&mut ops);
            lb.process(&mut p, &mut ctx);
        }
        let fid = p.fid().unwrap();
        let original = lb.assigned_backend(fid).unwrap();
        // Find and fail the assigned backend.
        let name = {
            let st = lb.state.lock();
            st.backends.iter().find(|b| b.addr == original).unwrap().name.clone()
        };
        lb.fail_backend(&name);
        let mut p2 = packet(1000);
        {
            let mut ctx = NfContext::baseline(&mut ops);
            lb.process(&mut p2, &mut ctx);
        }
        let rerouted = lb.assigned_backend(fid).unwrap();
        assert_ne!(rerouted, original);
        assert_eq!(p2.get_field(HeaderField::DstIp).unwrap().as_ipv4(), *rerouted.ip());
    }

    #[test]
    fn failure_disrupts_few_other_slots() {
        let lb = lb();
        let before: Vec<SocketAddrV4> = {
            let st = lb.state.lock();
            st.table.iter().map(|&b| st.backends[b].addr).collect()
        };
        lb.fail_backend("backend-0");
        let after: Vec<SocketAddrV4> = {
            let st = lb.state.lock();
            st.table.iter().map(|&b| st.backends[b].addr).collect()
        };
        // Slots that didn't point at the failed backend should mostly be
        // unchanged (consistent hashing's whole point).
        let dead: SocketAddrV4 = "10.1.0.1:8080".parse().unwrap();
        let stable = before.iter().zip(&after).filter(|(b, a)| **b != dead && *b == *a).count();
        let unaffected_before = before.iter().filter(|b| **b != dead).count();
        assert!(
            stable as f64 >= unaffected_before as f64 * 0.8,
            "too much disruption: {stable}/{unaffected_before}"
        );
    }

    #[test]
    fn all_backends_down_drops() {
        let mut lb = Maglev::new(backends(1), 13);
        lb.fail_backend("backend-0");
        let mut ops = OpCounter::default();
        let mut ctx = NfContext::baseline(&mut ops);
        let mut p = packet(1000);
        assert_eq!(lb.process(&mut p, &mut ctx), NfVerdict::Drop);
    }

    #[test]
    fn recover_backend_restores_service() {
        let mut lb = Maglev::new(backends(1), 13);
        lb.fail_backend("backend-0");
        lb.recover_backend("backend-0");
        let mut ops = OpCounter::default();
        let mut ctx = NfContext::baseline(&mut ops);
        let mut p = packet(1000);
        assert_eq!(lb.process(&mut p, &mut ctx), NfVerdict::Forward);
    }

    #[test]
    fn flow_closed_releases_tracking() {
        let mut lb = lb();
        let mut ops = OpCounter::default();
        let mut p = packet(1000);
        {
            let mut ctx = NfContext::baseline(&mut ops);
            lb.process(&mut p, &mut ctx);
        }
        assert_eq!(lb.connection_count(), 1);
        lb.flow_closed(p.fid().unwrap());
        assert_eq!(lb.connection_count(), 0);
    }

    #[test]
    fn total_outage_then_recovery_rewrites_drop_back_to_modify() {
        use std::sync::Arc as StdArc;

        use speedybox_mat::{EventTable, LocalMat, NfId, NfInstrument};

        let mut lb = lb();
        let events = StdArc::new(EventTable::new());
        let inst = NfInstrument::new(StdArc::new(LocalMat::new(NfId::new(0))), events.clone());
        let mut ops = OpCounter::default();
        let mut p = packet(1000);
        {
            let mut ctx = NfContext::instrumented(&inst, &mut ops);
            lb.process(&mut p, &mut ctx);
        }
        let fid = p.fid().unwrap();
        // Kill every backend: the event must flip the rule to drop.
        for i in 0..4 {
            lb.fail_backend(&format!("backend-{i}"));
        }
        let fired = events.fire(fid);
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].1.header_actions, Some(vec![HeaderAction::Drop]));
        // While the outage lasts the recurring event is quiescent.
        assert!(events.fire(fid).is_empty());
        // First recovery: the rule must come back as a modify — exactly the
        // backend the original path would pick.
        lb.recover_backend("backend-2");
        let fired = events.fire(fid);
        assert_eq!(fired.len(), 1, "recovery after a total outage must re-fire");
        match &fired[0].1.header_actions.as_ref().unwrap()[0] {
            HeaderAction::Modify(writes) => {
                let (_, ip) = writes.iter().find(|(f, _)| *f == HeaderField::DstIp).unwrap();
                assert_eq!(ip.as_ipv4(), "10.1.0.3".parse::<std::net::Ipv4Addr>().unwrap());
            }
            other => panic!("expected modify after recovery, got {other}"),
        }
        assert_eq!(lb.assigned_backend(fid).unwrap(), "10.1.0.3:8080".parse().unwrap());
    }

    #[test]
    fn flow_born_during_outage_recovers_when_backends_return() {
        use std::sync::Arc as StdArc;

        use speedybox_mat::{EventTable, LocalMat, NfId, NfInstrument};

        let mut lb = lb();
        for i in 0..4 {
            lb.fail_backend(&format!("backend-{i}"));
        }
        let events = StdArc::new(EventTable::new());
        let inst = NfInstrument::new(StdArc::new(LocalMat::new(NfId::new(0))), events.clone());
        let mut ops = OpCounter::default();
        let mut p = packet(1000);
        {
            let mut ctx = NfContext::instrumented(&inst, &mut ops);
            assert_eq!(lb.process(&mut p, &mut ctx), NfVerdict::Drop, "shed during outage");
        }
        let fid = p.fid().unwrap();
        // The load-shedding drop was recorded — and so was the event.
        assert!(events.fire(fid).is_empty(), "quiescent while dead");
        lb.recover_backend("backend-1");
        let fired = events.fire(fid);
        assert_eq!(fired.len(), 1, "the shed flow must be rewritten to a live backend");
        match &fired[0].1.header_actions.as_ref().unwrap()[0] {
            HeaderAction::Modify(_) => {}
            other => panic!("expected modify after recovery, got {other}"),
        }
    }

    #[test]
    fn event_registration_fires_on_failure() {
        use std::sync::Arc as StdArc;

        use speedybox_mat::{EventTable, LocalMat, NfId, NfInstrument};

        let mut lb = lb();
        let events = StdArc::new(EventTable::new());
        let inst = NfInstrument::new(StdArc::new(LocalMat::new(NfId::new(0))), events.clone());
        let mut ops = OpCounter::default();
        let mut p = packet(1000);
        {
            let mut ctx = NfContext::instrumented(&inst, &mut ops);
            lb.process(&mut p, &mut ctx);
        }
        let fid = p.fid().unwrap();
        // Healthy: no trigger.
        assert!(events.fire(fid).is_empty());
        // Fail the assigned backend: the event fires with a new modify.
        let original = lb.assigned_backend(fid).unwrap();
        let name = {
            let st = lb.state.lock();
            st.backends.iter().find(|b| b.addr == original).unwrap().name.clone()
        };
        lb.fail_backend(&name);
        let fired = events.fire(fid);
        assert_eq!(fired.len(), 1);
        let patch = &fired[0].1;
        let actions = patch.header_actions.as_ref().unwrap();
        assert_eq!(actions.len(), 1);
        match &actions[0] {
            HeaderAction::Modify(writes) => {
                let (_, ip) = writes.iter().find(|(f, _)| *f == HeaderField::DstIp).unwrap();
                assert_ne!(ip.as_ipv4(), *original.ip());
            }
            other => panic!("expected modify, got {other}"),
        }
        // Recurring event: still registered, but quiescent after reroute.
        assert!(events.fire(fid).is_empty());
    }

    #[test]
    fn snapshot_restores_connection_tracking_and_health() {
        let mut lb = lb();
        let mut ops = OpCounter::default();
        let mut p = packet(1000);
        {
            let mut ctx = NfContext::baseline(&mut ops);
            lb.process(&mut p, &mut ctx);
        }
        let fid = p.fid().unwrap();
        let assigned = lb.assigned_backend(fid).unwrap();
        lb.fail_backend("backend-0");
        assert!(lb.has_flow_state());
        let snap = lb.snapshot_state().unwrap();
        lb.crash();
        assert_eq!(lb.connection_count(), 0, "crash loses connection tracking");
        assert_eq!(lb.table_shares().len(), 4, "restart sees all backends healthy");
        assert!(lb.restore_state(&snap));
        assert_eq!(lb.assigned_backend(fid), Some(assigned));
        assert_eq!(lb.table_shares().len(), 3, "backend-0's failure was part of the snapshot");
        assert!(!lb.restore_state(&StateSnapshot::new(0u8)));
    }
}
