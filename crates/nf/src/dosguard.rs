//! DosGuard: the paper's Fig 3 "DOS Prevention" NF.
//!
//! "The DOS Prevention NF detects a DOS attack by monitoring the number of
//! TCP SYN flag on a per-flow basis ... If the number of SYN flags seen
//! exceeds a threshold (flow1_cnt > 100), the Event Table triggers an event
//! to replace the modify action with a drop action."
//!
//! This NF exists primarily to exercise the Event Table end to end: its
//! state function counts SYNs (payload-`IGNORE`), and its registered event
//! flips the flow's header action to `drop` once the threshold is crossed.
//! Each flow has its own signal, raised by the count's crossing, so one
//! flow's crossing sends no other flow through the Event Table's re-check.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;
use speedybox_mat::event::RulePatch;
use speedybox_mat::state_fn::PayloadAccess;
use speedybox_mat::{Event, EventHandlers, HeaderAction, StateFunction};
use speedybox_packet::{Fid, Packet};

use crate::nf::{Nf, NfContext, NfVerdict, StateSnapshot, Tally};

/// The two per-flow maps a [`DosGuard`] checkpoint captures.
type DosGuardCapture = (HashMap<Fid, Tally>, HashMap<Fid, bool>);

/// The DoS-prevention NF.
#[derive(Debug, Clone)]
pub struct DosGuard {
    syn_counts: Arc<Mutex<HashMap<Fid, Tally>>>,
    threshold: u64,
    /// Flows already blocked on the original path (the fast path blocks
    /// through the event-installed drop action instead).
    blocked: Arc<Mutex<HashMap<Fid, bool>>>,
    // SPEEDYBOX-INTEGRATION-BEGIN (dosguard/handlers: 2 lines)
    /// The SYN-counting state function and the block event's handlers,
    /// built once for all flows.
    count_fn: StateFunction,
    block: EventHandlers,
    // SPEEDYBOX-INTEGRATION-END
}

impl DosGuard {
    /// Creates a guard that blocks a flow after `threshold` SYN packets.
    #[must_use]
    pub fn new(threshold: u64) -> Self {
        let syn_counts = Arc::new(Mutex::new(HashMap::new()));
        // SPEEDYBOX-INTEGRATION-BEGIN (dosguard/handlers: 12 lines)
        let counts = Arc::clone(&syn_counts);
        let count_fn =
            StateFunction::new("dosguard.syn_count", PayloadAccess::Ignore, move |sfctx| {
                let is_syn = sfctx.packet.tcp_flags().syn();
                Self::observe(&counts, sfctx.fid, is_syn, threshold);
                sfctx.ops.state_updates += 1;
            });
        let counts = Arc::clone(&syn_counts);
        let block = EventHandlers::new(
            move |fid| counts.lock().get(&fid).map_or(0, |tally| tally.count) > threshold,
            |_| RulePatch::set_action(HeaderAction::Drop),
        );
        // SPEEDYBOX-INTEGRATION-END
        Self {
            syn_counts,
            threshold,
            blocked: Arc::new(Mutex::new(HashMap::new())),
            count_fn,
            block,
        }
    }

    /// The SYN count observed for a flow.
    #[must_use]
    pub fn syn_count(&self, fid: Fid) -> u64 {
        self.syn_counts.lock().get(&fid).map_or(0, |tally| tally.count)
    }

    /// True if the flow has crossed the threshold.
    #[must_use]
    pub fn is_blocked(&self, fid: Fid) -> bool {
        self.syn_count(fid) > self.threshold
    }

    /// Counts one packet of `fid` (a SYN adds one), raising the flow's
    /// signal as the count first passes `threshold`.
    fn observe(counts: &Mutex<HashMap<Fid, Tally>>, fid: Fid, is_syn: bool, threshold: u64) -> u64 {
        counts.lock().entry(fid).or_default().add(u64::from(is_syn), threshold)
    }
}

impl Nf for DosGuard {
    fn name(&self) -> &str {
        "dosguard"
    }

    fn process(&mut self, packet: &mut Packet, ctx: &mut NfContext<'_>) -> NfVerdict {
        let fid = packet
            .fid()
            .unwrap_or_else(|| packet.five_tuple().map(|t| t.fid()).unwrap_or_default());
        ctx.ops.parses += 1;
        let is_syn = packet.tcp_flags().syn();
        let count = Self::observe(&self.syn_counts, fid, is_syn, self.threshold);
        ctx.ops.state_updates += 1;
        let blocked = count > self.threshold;
        self.blocked.lock().insert(fid, blocked);
        // SPEEDYBOX-INTEGRATION-BEGIN (dosguard: 11 lines)
        if let Some(inst) = ctx.instrument {
            inst.add_header_action(
                fid,
                if blocked { HeaderAction::Drop } else { HeaderAction::Forward },
                ctx.ops,
            );
            inst.add_state_function_handle(fid, self.count_fn.clone(), ctx.ops);
            let signal = self.syn_counts.lock()[&fid].signal.clone();
            let event = Event::shared(fid, inst.nf(), "dosguard.block", &signal, &self.block);
            inst.register_event_full(event);
        }
        // SPEEDYBOX-INTEGRATION-END
        if blocked {
            ctx.ops.drops += 1;
            NfVerdict::Drop
        } else {
            NfVerdict::Forward
        }
    }

    fn flow_closed(&mut self, fid: Fid) {
        self.syn_counts.lock().remove(&fid);
        self.blocked.lock().remove(&fid);
    }

    fn has_flow_state(&self) -> bool {
        true
    }

    fn snapshot_state(&self) -> Option<StateSnapshot> {
        let capture: DosGuardCapture =
            (self.syn_counts.lock().clone(), self.blocked.lock().clone());
        Some(StateSnapshot::new(capture))
    }

    fn restore_state(&mut self, snapshot: &StateSnapshot) -> bool {
        let Some((counts, blocked)) = snapshot.downcast::<DosGuardCapture>() else {
            return false;
        };
        *self.syn_counts.lock() = counts.clone();
        *self.blocked.lock() = blocked.clone();
        true
    }

    fn crash(&mut self) {
        self.syn_counts.lock().clear();
        self.blocked.lock().clear();
    }
}

#[cfg(test)]
mod tests {
    use speedybox_mat::OpCounter;
    use speedybox_packet::{PacketBuilder, TcpFlags};

    use super::*;

    fn syn_packet() -> Packet {
        let mut p = PacketBuilder::tcp()
            .src("10.0.0.1:1000".parse().unwrap())
            .dst("10.0.0.2:80".parse().unwrap())
            .flags(TcpFlags::SYN)
            .build();
        let fid = p.five_tuple().unwrap().fid();
        p.set_fid(fid);
        p
    }

    fn ack_packet() -> Packet {
        let mut p = PacketBuilder::tcp()
            .src("10.0.0.1:1000".parse().unwrap())
            .dst("10.0.0.2:80".parse().unwrap())
            .flags(TcpFlags::ACK)
            .build();
        let fid = p.five_tuple().unwrap().fid();
        p.set_fid(fid);
        p
    }

    #[test]
    fn counts_only_syns() {
        let mut guard = DosGuard::new(100);
        let mut ops = OpCounter::default();
        let mut ctx = NfContext::baseline(&mut ops);
        let mut s = syn_packet();
        let mut a = ack_packet();
        guard.process(&mut s, &mut ctx);
        guard.process(&mut a, &mut ctx);
        assert_eq!(guard.syn_count(s.fid().unwrap()), 1);
    }

    #[test]
    fn blocks_after_threshold() {
        let mut guard = DosGuard::new(3);
        let mut ops = OpCounter::default();
        let mut verdicts = Vec::new();
        for _ in 0..6 {
            let mut p = syn_packet();
            let mut ctx = NfContext::baseline(&mut ops);
            verdicts.push(guard.process(&mut p, &mut ctx));
        }
        assert_eq!(
            verdicts,
            vec![
                NfVerdict::Forward,
                NfVerdict::Forward,
                NfVerdict::Forward,
                NfVerdict::Drop,
                NfVerdict::Drop,
                NfVerdict::Drop
            ]
        );
    }

    #[test]
    fn event_fires_past_threshold() {
        use std::sync::Arc as StdArc;

        use speedybox_mat::{EventTable, LocalMat, NfId, NfInstrument};

        let mut guard = DosGuard::new(2);
        let events = StdArc::new(EventTable::new());
        let inst = NfInstrument::new(StdArc::new(LocalMat::new(NfId::new(0))), events.clone());
        let mut ops = OpCounter::default();
        let mut p = syn_packet();
        {
            let mut ctx = NfContext::instrumented(&inst, &mut ops);
            guard.process(&mut p, &mut ctx);
        }
        let fid = p.fid().unwrap();
        // Below threshold: silent.
        assert!(events.fire(fid).is_empty());
        // Drive the SYN count over the threshold via the recorded SF.
        let rule = inst.local_mat().rule(fid).unwrap();
        for _ in 0..3 {
            let mut sub = syn_packet();
            let mut sfctx = speedybox_mat::state_fn::SfContext {
                packet: &mut sub,
                fid,
                ops: &mut ops,
                len_adjust: 0,
            };
            rule.state_functions[0].invoke(&mut sfctx);
        }
        let fired = events.fire(fid);
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].1.header_actions, Some(vec![HeaderAction::Drop]));
    }

    #[test]
    fn snapshot_restores_syn_counts_across_crash() {
        let mut guard = DosGuard::new(3);
        let mut ops = OpCounter::default();
        for _ in 0..2 {
            let mut p = syn_packet();
            let mut ctx = NfContext::baseline(&mut ops);
            guard.process(&mut p, &mut ctx);
        }
        let fid = syn_packet().fid().unwrap();
        let snap = guard.snapshot_state().unwrap();
        // Two more SYNs push the flow over the threshold, then the crash
        // forgets the attack entirely.
        for _ in 0..2 {
            let mut p = syn_packet();
            let mut ctx = NfContext::baseline(&mut ops);
            guard.process(&mut p, &mut ctx);
        }
        assert!(guard.is_blocked(fid));
        guard.crash();
        assert_eq!(guard.syn_count(fid), 0);
        assert!(guard.restore_state(&snap));
        assert_eq!(guard.syn_count(fid), 2, "restored to the checkpointed count");
        assert!(!guard.is_blocked(fid));
        assert!(!guard.restore_state(&StateSnapshot::new(1i64)));
    }

    #[test]
    fn flow_closed_resets() {
        let mut guard = DosGuard::new(1);
        let mut ops = OpCounter::default();
        let mut p = syn_packet();
        {
            let mut ctx = NfContext::baseline(&mut ops);
            guard.process(&mut p, &mut ctx);
        }
        let fid = p.fid().unwrap();
        guard.flow_closed(fid);
        assert_eq!(guard.syn_count(fid), 0);
    }
}
