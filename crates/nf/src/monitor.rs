//! Monitor: a per-flow packet/byte counter NF (paper §VI-C).
//!
//! "It maintains packet counters for each flow, and sets each flow with a
//! forward action and a state function to maintain the associated
//! counter." The counter state function ignores the payload
//! (`PayloadAccess::Ignore`), which is what lets it parallelize with
//! Snort's payload-READ inspection in the Fig 6 chain.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;
use speedybox_mat::state_fn::PayloadAccess;
use speedybox_mat::{HeaderAction, StateFunction};
use speedybox_packet::{Fid, Packet};

use crate::nf::{Nf, NfContext, NfVerdict, StateSnapshot};

/// Per-flow traffic counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlowCounters {
    /// Packets seen.
    pub packets: u64,
    /// Bytes seen (full frame length).
    pub bytes: u64,
}

/// The network-monitor NF.
#[derive(Debug, Clone)]
pub struct Monitor {
    counters: Arc<Mutex<HashMap<Fid, FlowCounters>>>,
    // SPEEDYBOX-INTEGRATION-BEGIN (monitor/handler: 1 line)
    /// The counter state function, built once and recorded for every flow.
    count: StateFunction,
    // SPEEDYBOX-INTEGRATION-END
}

impl Default for Monitor {
    fn default() -> Self {
        let counters = Arc::new(Mutex::new(HashMap::new()));
        // SPEEDYBOX-INTEGRATION-BEGIN (monitor/handler: 5 lines)
        let shared = Arc::clone(&counters);
        // `frame_len()` (not `packet.len()`): on the fast path the packet
        // is already in egress form, and the positional adjustment keeps
        // byte counts exact when the monitor sits inside an annihilated
        // encap/decap window.
        let count = StateFunction::new("monitor.count", PayloadAccess::Ignore, move |sfctx| {
            Self::count(&shared, sfctx.fid, sfctx.frame_len());
            sfctx.ops.state_updates += 1;
        });
        // SPEEDYBOX-INTEGRATION-END
        Self { counters, count }
    }
}

impl Monitor {
    /// Creates a monitor with no counters.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The counters for a flow, if any packets were seen.
    #[must_use]
    pub fn counters(&self, fid: Fid) -> Option<FlowCounters> {
        self.counters.lock().get(&fid).copied()
    }

    /// A snapshot of all counters (for the §VII-C3 equivalence comparison).
    #[must_use]
    pub fn snapshot(&self) -> HashMap<Fid, FlowCounters> {
        self.counters.lock().clone()
    }

    /// Number of tracked flows.
    #[must_use]
    pub fn flow_count(&self) -> usize {
        self.counters.lock().len()
    }

    fn count(counters: &Mutex<HashMap<Fid, FlowCounters>>, fid: Fid, frame_len: usize) {
        let mut map = counters.lock();
        let c = map.entry(fid).or_default();
        c.packets += 1;
        c.bytes += frame_len as u64;
    }
}

impl Nf for Monitor {
    fn name(&self) -> &str {
        "monitor"
    }

    fn process(&mut self, packet: &mut Packet, ctx: &mut NfContext<'_>) -> NfVerdict {
        let fid = packet
            .fid()
            .unwrap_or_else(|| packet.five_tuple().map(|t| t.fid()).unwrap_or_default());
        ctx.ops.parses += 1;
        Self::count(&self.counters, fid, packet.len());
        ctx.ops.state_updates += 1;
        // SPEEDYBOX-INTEGRATION-BEGIN (monitor: 4 lines)
        if let Some(inst) = ctx.instrument {
            inst.add_header_action(fid, HeaderAction::Forward, ctx.ops);
            inst.add_state_function_handle(fid, self.count.clone(), ctx.ops);
        }
        // SPEEDYBOX-INTEGRATION-END
        NfVerdict::Forward
    }

    fn flow_closed(&mut self, fid: Fid) {
        self.counters.lock().remove(&fid);
    }

    fn has_flow_state(&self) -> bool {
        true
    }

    fn snapshot_state(&self) -> Option<StateSnapshot> {
        Some(StateSnapshot::new(self.counters.lock().clone()))
    }

    fn restore_state(&mut self, snapshot: &StateSnapshot) -> bool {
        let Some(map) = snapshot.downcast::<HashMap<Fid, FlowCounters>>() else {
            return false;
        };
        *self.counters.lock() = map.clone();
        true
    }

    fn crash(&mut self) {
        self.counters.lock().clear();
    }
}

#[cfg(test)]
mod tests {
    use speedybox_mat::OpCounter;
    use speedybox_packet::PacketBuilder;

    use super::*;

    fn packet(src_port: u16, payload: &[u8]) -> Packet {
        let mut p = PacketBuilder::tcp()
            .src(format!("10.0.0.1:{src_port}").parse().unwrap())
            .dst("10.0.0.2:80".parse().unwrap())
            .payload(payload)
            .build();
        let fid = p.five_tuple().unwrap().fid();
        p.set_fid(fid);
        p
    }

    #[test]
    fn counts_packets_and_bytes() {
        let mut mon = Monitor::new();
        let mut ops = OpCounter::default();
        let mut ctx = NfContext::baseline(&mut ops);
        let mut p1 = packet(1000, b"aaaa");
        let mut p2 = packet(1000, b"bbbbbbbb");
        mon.process(&mut p1, &mut ctx);
        mon.process(&mut p2, &mut ctx);
        let c = mon.counters(p1.fid().unwrap()).unwrap();
        assert_eq!(c.packets, 2);
        assert_eq!(c.bytes, (p1.len() + p2.len()) as u64);
    }

    #[test]
    fn flows_counted_separately() {
        let mut mon = Monitor::new();
        let mut ops = OpCounter::default();
        let mut ctx = NfContext::baseline(&mut ops);
        let mut a = packet(1000, b"x");
        let mut b = packet(2000, b"x");
        mon.process(&mut a, &mut ctx);
        mon.process(&mut b, &mut ctx);
        assert_eq!(mon.flow_count(), 2);
        assert_eq!(mon.counters(a.fid().unwrap()).unwrap().packets, 1);
    }

    #[test]
    fn recorded_sf_counts_like_original() {
        use std::sync::Arc as StdArc;

        use speedybox_mat::state_fn::SfContext;
        use speedybox_mat::{EventTable, LocalMat, NfId, NfInstrument};

        let mut mon = Monitor::new();
        let inst = NfInstrument::new(
            StdArc::new(LocalMat::new(NfId::new(0))),
            StdArc::new(EventTable::new()),
        );
        let mut ops = OpCounter::default();
        let mut initial = packet(1000, b"init");
        {
            let mut ctx = NfContext::instrumented(&inst, &mut ops);
            mon.process(&mut initial, &mut ctx);
        }
        let fid = initial.fid().unwrap();
        let rule = inst.local_mat().rule(fid).unwrap();
        assert_eq!(rule.header_actions, vec![HeaderAction::Forward]);
        assert_eq!(rule.state_functions[0].access(), PayloadAccess::Ignore);
        // Fast-path invocation updates the same counters.
        let mut sub = packet(1000, b"sub");
        let mut sfctx = SfContext { packet: &mut sub, fid, ops: &mut ops, len_adjust: 0 };
        rule.state_functions[0].invoke(&mut sfctx);
        assert_eq!(mon.counters(fid).unwrap().packets, 2);
    }

    #[test]
    fn flow_closed_releases_state() {
        let mut mon = Monitor::new();
        let mut ops = OpCounter::default();
        let mut ctx = NfContext::baseline(&mut ops);
        let mut p = packet(1000, b"x");
        mon.process(&mut p, &mut ctx);
        mon.flow_closed(p.fid().unwrap());
        assert_eq!(mon.flow_count(), 0);
    }

    #[test]
    fn unknown_flow_has_no_counters() {
        let mon = Monitor::new();
        assert!(mon.counters(Fid::new(123)).is_none());
    }

    #[test]
    fn snapshot_restores_counters_after_crash() {
        let mut mon = Monitor::new();
        let mut ops = OpCounter::default();
        let mut ctx = NfContext::baseline(&mut ops);
        let mut p = packet(1000, b"counted");
        mon.process(&mut p, &mut ctx);
        let fid = p.fid().unwrap();
        assert!(mon.has_flow_state());
        let snap = mon.snapshot_state().unwrap();
        // More traffic after the checkpoint, then a crash wipes everything.
        let mut p2 = packet(1000, b"post-checkpoint");
        mon.process(&mut p2, &mut ctx);
        mon.crash();
        assert_eq!(mon.flow_count(), 0);
        assert!(mon.restore_state(&snap));
        let c = mon.counters(fid).unwrap();
        assert_eq!(c.packets, 1, "restored to the checkpoint, not the crash point");
        // A foreign snapshot is rejected and leaves state alone.
        assert!(!mon.restore_state(&StateSnapshot::new(42u64)));
        assert_eq!(mon.counters(fid).unwrap().packets, 1);
    }
}
