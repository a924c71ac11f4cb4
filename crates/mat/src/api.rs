//! The NF instrumentation API (paper Fig 2).
//!
//! The paper instruments NFs with four C functions:
//!
//! ```c
//! int  nf_extract_fid(packet_descriptor*);
//! void localmat_add_HA(int FID, HA header_action, args* arg_list);
//! void localmat_add_SF(int FID, function_handler*, int function_type, args* arg_list);
//! void register_event(int FID, condition_handler*, args* arg_list,
//!                     HA update_action, update_function_handler*);
//! ```
//!
//! [`NfInstrument`] is the Rust equivalent: a per-NF handle bundling the
//! NF's Local MAT with the chain's Event Table. An NF receives one in its
//! processing context and calls these methods while handling a flow's
//! initial packet — the calls *record* behaviour, they never change it
//! (§IV-B: "the APIs seek to only record NF behaviors ... the modifications
//! do not change the original processing logic"). What they record is
//! staged until the flow's install moves it into the flow's rule
//! ([`crate::GlobalMat::install`]).
//!
//! Two deviations from Fig 2. `register_event` also takes the [`Signal`]
//! the event watches: the fast path never runs a condition; the NF raises
//! the signal when the condition's inputs change, and the event is
//! re-checked then (DESIGN.md §18.3). And names are `'static` where the NF
//! can make them so (`Cow<'static, str>`), with handlers an NF builds once
//! recorded per flow as clones ([`NfInstrument::add_state_function_handle`],
//! [`Event::shared`]), so recording a flow allocates no name and no
//! handler.

use std::borrow::Cow;
use std::sync::Arc;

use speedybox_packet::{Fid, Packet};

use crate::action::HeaderAction;
use crate::event::{Event, EventTable, RulePatch, Signal};
use crate::local::{LocalMat, NfId};
use crate::ops::OpCounter;
use crate::state_fn::{PayloadAccess, StateFunction};

/// Per-NF instrumentation handle (the paper's Fig 2 API surface).
#[derive(Debug, Clone)]
pub struct NfInstrument {
    local: Arc<LocalMat>,
    events: Arc<EventTable>,
}

impl NfInstrument {
    /// Creates a handle binding an NF's Local MAT to the chain's Event
    /// Table.
    #[must_use]
    pub fn new(local: Arc<LocalMat>, events: Arc<EventTable>) -> Self {
        Self { local, events }
    }

    /// The instrumented NF's chain position.
    #[must_use]
    pub fn nf(&self) -> NfId {
        self.local.nf()
    }

    /// The NF's Local MAT.
    #[must_use]
    pub fn local_mat(&self) -> &Arc<LocalMat> {
        &self.local
    }

    /// `nf_extract_fid`: reads the FID metadata the classifier attached.
    /// Returns `None` for packets that bypassed the classifier.
    #[must_use]
    pub fn extract_fid(&self, packet: &Packet) -> Option<Fid> {
        packet.fid()
    }

    /// `localmat_add_HA`: records the flow's header action.
    pub fn add_header_action(&self, fid: Fid, action: HeaderAction, ops: &mut OpCounter) {
        self.local.add_header_action(fid, action, ops);
    }

    /// `localmat_add_SF`: records a state function (handler + payload
    /// access type) for the flow.
    pub fn add_state_function(
        &self,
        fid: Fid,
        name: impl Into<Cow<'static, str>>,
        access: PayloadAccess,
        handler: impl Fn(&mut crate::state_fn::SfContext<'_>) + Send + Sync + 'static,
        ops: &mut OpCounter,
    ) {
        self.local.add_state_function(fid, StateFunction::new(name, access, handler), ops);
    }

    /// `localmat_add_SF` taking a pre-built [`StateFunction`]: an NF whose
    /// handler captures only NF-wide state (shared-state NFs, §IV-A2)
    /// builds it once and records a clone per flow.
    pub fn add_state_function_handle(&self, fid: Fid, func: StateFunction, ops: &mut OpCounter) {
        self.local.add_state_function(fid, func, ops);
    }

    /// `register_event`: registers a condition, the [`Signal`] the NF
    /// raises when the condition's inputs change, and the rule patch to
    /// apply when it fires. The condition is evaluated once when the
    /// flow's rule is armed and again on each raise, never per packet, so
    /// it must be a pure read of NF state. Call this without holding the
    /// NF's own state lock: arming takes the Event Table lock, then the
    /// NF's lock through the condition. One-shot by default; call
    /// `.recurring()` on the [`Event`] via
    /// [`NfInstrument::register_event_full`] for repeating events.
    pub fn register_event(
        &self,
        fid: Fid,
        name: impl Into<Cow<'static, str>>,
        signal: Signal,
        condition: impl Fn(Fid) -> bool + Send + Sync + 'static,
        update: impl Fn(Fid) -> RulePatch + Send + Sync + 'static,
    ) {
        self.events.register(Event::new(fid, self.local.nf(), name, signal, condition, update));
    }

    /// Registers a fully-built [`Event`] (must target this NF).
    ///
    /// # Panics
    /// Panics if the event's NF id differs from this handle's — an event
    /// patching another NF's rule is an instrumentation bug.
    pub fn register_event_full(&self, event: Event) {
        assert_eq!(event.nf, self.local.nf(), "event must target the registering NF");
        self.events.register(event);
    }
}

#[cfg(test)]
mod tests {
    use speedybox_packet::PacketBuilder;

    use super::*;

    fn instrument() -> NfInstrument {
        NfInstrument::new(Arc::new(LocalMat::new(NfId::new(3))), Arc::new(EventTable::new()))
    }

    #[test]
    fn extract_fid_reads_metadata() {
        let inst = instrument();
        let mut p = PacketBuilder::tcp().build();
        assert_eq!(inst.extract_fid(&p), None);
        let fid = Fid::new(42);
        p.set_fid(fid);
        assert_eq!(inst.extract_fid(&p), Some(fid));
    }

    #[test]
    fn add_header_action_lands_in_local_mat() {
        let inst = instrument();
        let mut ops = OpCounter::default();
        inst.add_header_action(Fid::new(1), HeaderAction::Drop, &mut ops);
        let rule = inst.local_mat().rule(Fid::new(1)).unwrap();
        assert_eq!(rule.header_actions, vec![HeaderAction::Drop]);
    }

    #[test]
    fn add_state_function_lands_in_local_mat() {
        let inst = instrument();
        let mut ops = OpCounter::default();
        inst.add_state_function(Fid::new(1), "f", PayloadAccess::Read, |_| {}, &mut ops);
        let rule = inst.local_mat().rule(Fid::new(1)).unwrap();
        assert_eq!(rule.state_functions.len(), 1);
        assert_eq!(rule.state_functions[0].access(), PayloadAccess::Read);
    }

    #[test]
    fn register_event_targets_own_nf() {
        let events = Arc::new(EventTable::new());
        let inst = NfInstrument::new(Arc::new(LocalMat::new(NfId::new(3))), events.clone());
        inst.register_event(Fid::new(1), "e", Signal::new(), |_| true, |_| RulePatch::default());
        let fired = events.fire(Fid::new(1));
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].0, NfId::new(3));
    }

    #[test]
    #[should_panic(expected = "event must target the registering NF")]
    fn register_event_full_rejects_foreign_nf() {
        let inst = instrument();
        let event = Event::new(
            Fid::new(1),
            NfId::new(99),
            "bad",
            Signal::new(),
            |_| true,
            |_| RulePatch::default(),
        );
        inst.register_event_full(event);
    }
}
