//! QuotaLimiter: a per-flow volume-quota enforcer.
//!
//! A second showcase of the paper's Observation 2 after
//! [`crate::dosguard`]: each flow gets a byte budget; an IGNORE state
//! function meters consumption, and a registered event flips the flow to
//! `drop` once the quota is exhausted — the mid-stream rule update runs
//! entirely through the Event Table while packets stay on the fast path.
//! The meter raises the flow's own signal as the quota is first exceeded.
//! Bytes are the frame at the limiter's position in the chain, on both
//! paths (the fast path's [`speedybox_mat::SfContext::frame_len`]).
//!
//! (Token-bucket *per-packet* policing is deliberately out of scope: its
//! verdict changes packet to packet, violating Observation 1, exactly the
//! kind of NF §IV-A3 excludes from consolidation. A volume quota is the
//! event-friendly variant.)

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;
use speedybox_mat::event::RulePatch;
use speedybox_mat::state_fn::PayloadAccess;
use speedybox_mat::{Event, EventHandlers, HeaderAction, StateFunction};
use speedybox_packet::{Fid, Packet};

use crate::nf::{Nf, NfContext, NfVerdict, StateSnapshot, Tally};

/// The per-flow quota-enforcement NF.
#[derive(Debug, Clone)]
pub struct QuotaLimiter {
    consumed: Arc<Mutex<HashMap<Fid, Tally>>>,
    quota_bytes: u64,
    // SPEEDYBOX-INTEGRATION-BEGIN (quota-limiter/handlers: 2 lines)
    /// The metering state function and the exhaustion event's handlers,
    /// built once for all flows.
    meter_fn: StateFunction,
    exhausted: EventHandlers,
    // SPEEDYBOX-INTEGRATION-END
}

impl QuotaLimiter {
    /// Creates a limiter allowing `quota_bytes` per flow.
    #[must_use]
    pub fn new(quota_bytes: u64) -> Self {
        let consumed = Arc::new(Mutex::new(HashMap::new()));
        // SPEEDYBOX-INTEGRATION-BEGIN (quota-limiter/handlers: 10 lines)
        let meter = Arc::clone(&consumed);
        let meter_fn = StateFunction::new("quota.meter", PayloadAccess::Ignore, move |sfctx| {
            Self::meter(&meter, sfctx.fid, sfctx.frame_len() as u64, quota_bytes);
            sfctx.ops.state_updates += 1;
        });
        let meter = Arc::clone(&consumed);
        let exhausted = EventHandlers::new(
            move |fid| meter.lock().get(&fid).map_or(0, |tally| tally.count) > quota_bytes,
            |_| RulePatch::set_action(HeaderAction::Drop),
        );
        // SPEEDYBOX-INTEGRATION-END
        Self { consumed, quota_bytes, meter_fn, exhausted }
    }

    /// Bytes a flow has consumed so far.
    #[must_use]
    pub fn consumed(&self, fid: Fid) -> u64 {
        self.consumed.lock().get(&fid).map_or(0, |tally| tally.count)
    }

    /// True once a flow's quota is exhausted.
    #[must_use]
    pub fn is_exhausted(&self, fid: Fid) -> bool {
        self.consumed(fid) > self.quota_bytes
    }

    /// Meters `bytes` against `fid`'s quota, raising the flow's signal as
    /// the total first exceeds `quota`.
    fn meter(consumed: &Mutex<HashMap<Fid, Tally>>, fid: Fid, bytes: u64, quota: u64) -> u64 {
        consumed.lock().entry(fid).or_default().add(bytes, quota)
    }
}

impl Nf for QuotaLimiter {
    fn name(&self) -> &str {
        "quota-limiter"
    }

    fn process(&mut self, packet: &mut Packet, ctx: &mut NfContext<'_>) -> NfVerdict {
        let fid = packet
            .fid()
            .unwrap_or_else(|| packet.five_tuple().map(|t| t.fid()).unwrap_or_default());
        ctx.ops.parses += 1;
        let total = Self::meter(&self.consumed, fid, packet.len() as u64, self.quota_bytes);
        ctx.ops.state_updates += 1;
        let exhausted = total > self.quota_bytes;
        // SPEEDYBOX-INTEGRATION-BEGIN (quota-limiter: 11 lines)
        if let Some(inst) = ctx.instrument {
            inst.add_header_action(
                fid,
                if exhausted { HeaderAction::Drop } else { HeaderAction::Forward },
                ctx.ops,
            );
            inst.add_state_function_handle(fid, self.meter_fn.clone(), ctx.ops);
            let signal = self.consumed.lock()[&fid].signal.clone();
            let event = Event::shared(fid, inst.nf(), "quota.exhausted", &signal, &self.exhausted);
            inst.register_event_full(event);
        }
        // SPEEDYBOX-INTEGRATION-END
        if exhausted {
            ctx.ops.drops += 1;
            NfVerdict::Drop
        } else {
            NfVerdict::Forward
        }
    }

    fn flow_closed(&mut self, fid: Fid) {
        self.consumed.lock().remove(&fid);
    }

    fn has_flow_state(&self) -> bool {
        true
    }

    fn snapshot_state(&self) -> Option<StateSnapshot> {
        Some(StateSnapshot::new(self.consumed.lock().clone()))
    }

    fn restore_state(&mut self, snapshot: &StateSnapshot) -> bool {
        let Some(map) = snapshot.downcast::<HashMap<Fid, Tally>>() else {
            return false;
        };
        *self.consumed.lock() = map.clone();
        true
    }

    fn crash(&mut self) {
        self.consumed.lock().clear();
    }
}

#[cfg(test)]
mod tests {
    use speedybox_mat::OpCounter;
    use speedybox_packet::PacketBuilder;

    use super::*;

    fn packet(payload: usize) -> Packet {
        let mut p = PacketBuilder::tcp()
            .src("10.0.0.1:1000".parse().unwrap())
            .dst("10.0.0.2:80".parse().unwrap())
            .payload(&vec![0xaa; payload])
            .build();
        let fid = p.five_tuple().unwrap().fid();
        p.set_fid(fid);
        p
    }

    #[test]
    fn meters_bytes_and_blocks_past_quota() {
        let frame = packet(100).len() as u64;
        let mut limiter = QuotaLimiter::new(frame * 3);
        let mut ops = OpCounter::default();
        let mut verdicts = Vec::new();
        for _ in 0..5 {
            let mut p = packet(100);
            let mut ctx = NfContext::baseline(&mut ops);
            verdicts.push(limiter.process(&mut p, &mut ctx));
        }
        assert_eq!(
            verdicts,
            vec![
                NfVerdict::Forward,
                NfVerdict::Forward,
                NfVerdict::Forward,
                NfVerdict::Drop,
                NfVerdict::Drop
            ]
        );
        assert!(limiter.is_exhausted(packet(0).fid().unwrap()));
    }

    #[test]
    fn flow_closed_resets_quota() {
        let mut limiter = QuotaLimiter::new(10);
        let mut ops = OpCounter::default();
        let mut p = packet(100);
        {
            let mut ctx = NfContext::baseline(&mut ops);
            limiter.process(&mut p, &mut ctx);
        }
        let fid = p.fid().unwrap();
        assert!(limiter.consumed(fid) > 0);
        limiter.flow_closed(fid);
        assert_eq!(limiter.consumed(fid), 0);
    }

    #[test]
    fn event_flips_rule_on_fast_path() {
        use std::sync::Arc as StdArc;

        use speedybox_mat::state_fn::SfContext;
        use speedybox_mat::{EventTable, LocalMat, NfId, NfInstrument};

        let frame = packet(100).len() as u64;
        let mut limiter = QuotaLimiter::new(frame * 2);
        let events = StdArc::new(EventTable::new());
        let inst = NfInstrument::new(StdArc::new(LocalMat::new(NfId::new(0))), events.clone());
        let mut ops = OpCounter::default();
        let mut initial = packet(100);
        {
            let mut ctx = NfContext::instrumented(&inst, &mut ops);
            limiter.process(&mut initial, &mut ctx);
        }
        let fid = initial.fid().unwrap();
        assert!(events.fire(fid).is_empty(), "quota not yet exhausted");
        // Burn the quota through the recorded state function (fast path).
        let rule = inst.local_mat().rule(fid).unwrap();
        for _ in 0..2 {
            let mut sub = packet(100);
            let mut sfctx = SfContext { packet: &mut sub, fid, ops: &mut ops, len_adjust: 0 };
            rule.state_functions[0].invoke(&mut sfctx);
        }
        let fired = events.fire(fid);
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].1.header_actions, Some(vec![HeaderAction::Drop]));
    }
}
