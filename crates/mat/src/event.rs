//! The Event Table: stateful behaviour on the fast path (paper §V-C1).
//!
//! Observation 2 of the paper: some NFs change a flow's actions at runtime
//! when internal state reaches a condition (Maglev re-routing on backend
//! failure, a DoS guard flipping to drop past a SYN threshold). NFs
//! register events through `register_event` (Fig 2); when one's condition
//! holds, the Global MAT patches the flow's rule and re-consolidates —
//! Fig 3's workflow.
//!
//! Events live where the flow's recordings do. During the walk of a
//! flow's initial packet they are staged here, beside the Local MATs
//! ([`crate::local`]); the flow's install moves them into its rule, which
//! arms them, and from then on they exist only in the flow's record
//! ([`crate::record`]) and leave with it. A registration for a flow whose
//! rule is installed re-arms the record instead.
//!
//! Conditions are not polled. Each event watches a [`Signal`], an epoch
//! counter its NF raises after changing state the condition reads. Arming
//! an event (rule install, rewrite, or a registration on an installed
//! rule) reads the signal, then evaluates the condition once and
//! remembers the value it read — or, if the condition already holds,
//! arms the event raised. The fast path compares each armed event's
//! signal with its remembered value, with no lock and no closure; only a
//! mismatch comes back here. Under the Event Table lock, the fire
//! re-checks the events armed in the flow's *current* record — reads the
//! signal, evaluates the condition, and either fires the event or
//! remembers the value it read — and republishes the record with the
//! fired patches applied, in the same critical section: two firings
//! compose, and a fired one-shot event is left out of the new rule. A
//! spurious raise costs one re-check; a missed raise is the one bug left,
//! which is why conditions must be pure reads of NF state and why debug
//! builds log any armed condition that holds without a raise
//! ([`crate::track`]).

use std::borrow::Cow;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use speedybox_packet::{Fid, FiveTuple};

use crate::action::HeaderAction;
use crate::global::GlobalRule;
use crate::local::NfId;
use crate::record::FlowRecords;
use crate::state_fn::StateFunction;

/// The rule update an event applies to the registering NF's per-flow rule.
///
/// `None` fields leave that part of the rule unchanged. Mirrors Fig 2's
/// `register_event(..., HA update_action, update_function_handler*)`: an
/// event may replace the header action, the state functions, or both.
#[derive(Clone, Default)]
pub struct RulePatch {
    /// Replacement header actions for the flow at this NF.
    pub header_actions: Option<Vec<HeaderAction>>,
    /// Replacement state functions for the flow at this NF.
    pub state_functions: Option<Vec<StateFunction>>,
}

impl RulePatch {
    /// A patch that replaces the header action.
    #[must_use]
    pub fn set_action(action: HeaderAction) -> Self {
        Self { header_actions: Some(vec![action]), state_functions: None }
    }

    /// A patch that replaces the state functions.
    #[must_use]
    pub fn set_state_functions(funcs: Vec<StateFunction>) -> Self {
        Self { header_actions: None, state_functions: Some(funcs) }
    }

    /// True if the patch changes nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.header_actions.is_none() && self.state_functions.is_none()
    }
}

impl fmt::Debug for RulePatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RulePatch")
            .field("header_actions", &self.header_actions)
            .field(
                "state_functions",
                &self
                    .state_functions
                    .as_ref()
                    .map(|v| v.iter().map(|s| s.name().to_owned()).collect::<Vec<_>>()),
            )
            .finish()
    }
}

/// Condition handler: "a general callback handler that can be implemented
/// with user-defined functions" (paper Fig 1, `state.matchCondition`).
/// Typically captures the NF's shared state and takes the flow's FID, so
/// an NF builds it once and shares it across flows ([`Event::shared`]).
pub type CondHandler = Arc<dyn Fn(Fid) -> bool + Send + Sync>;

/// Update handler: computes the rule patch when the condition fires
/// (computed at trigger time — e.g. Maglev picks the *new* backend then).
pub type UpdateHandler = Arc<dyn Fn(Fid) -> RulePatch + Send + Sync>;

/// An event's condition and update handlers. Both take the flow's FID, so
/// an NF builds them once and every flow's event shares them
/// ([`Event::shared`]): registering a flow's event allocates no handler.
#[derive(Clone)]
pub struct EventHandlers {
    condition: CondHandler,
    update: UpdateHandler,
}

impl EventHandlers {
    /// Wraps a condition and an update handler.
    pub fn new(
        condition: impl Fn(Fid) -> bool + Send + Sync + 'static,
        update: impl Fn(Fid) -> RulePatch + Send + Sync + 'static,
    ) -> Self {
        Self { condition: Arc::new(condition), update: Arc::new(update) }
    }
}

impl fmt::Debug for EventHandlers {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EventHandlers").finish_non_exhaustive()
    }
}

/// A shared epoch counter an NF raises when a condition's inputs change.
///
/// An NF raises the signal after changing state that a registered
/// condition reads, inside the same critical section, so a reader that
/// finds the condition false after reading the signal is sure to see the
/// signal move on the next change. Raising without a change is allowed
/// (it costs the watching events one re-check); changing a condition's
/// inputs without raising is a missed raise. Clones share the counter.
#[derive(Debug, Clone, Default)]
pub struct Signal(Arc<AtomicU64>);

impl Signal {
    /// A fresh signal at epoch 0.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Raises the signal: every event watching it re-checks its condition
    /// on its flow's next fast-path packet.
    pub fn raise(&self) {
        self.0.fetch_add(1, Ordering::Release);
    }

    /// The current epoch.
    #[must_use]
    pub fn value(&self) -> u64 {
        self.0.load(Ordering::Acquire)
    }
}

/// The remembered value of an event that must be re-checked: a signal
/// counts up from 0 and never reaches it.
const RAISED: u64 = u64::MAX;

/// A registered event: condition plus update, owned by one NF for one flow.
pub struct Event {
    /// Flow the event watches.
    pub fid: Fid,
    /// The NF whose rule the patch applies to.
    pub nf: NfId,
    /// Diagnostic name.
    pub name: Cow<'static, str>,
    /// If true the event is deregistered after it fires once.
    pub one_shot: bool,
    signal: Signal,
    /// The signal value read before the condition was last found false,
    /// or [`RAISED`].
    seen: AtomicU64,
    handlers: EventHandlers,
}

impl Clone for Event {
    fn clone(&self) -> Self {
        Self {
            fid: self.fid,
            nf: self.nf,
            name: self.name.clone(),
            one_shot: self.one_shot,
            signal: self.signal.clone(),
            seen: AtomicU64::new(self.seen.load(Ordering::Relaxed)),
            handlers: self.handlers.clone(),
        }
    }
}

impl Event {
    /// Creates an event whose condition is re-checked whenever `signal`
    /// is raised. The condition must be a pure read of NF state, and the
    /// NF must raise `signal` whenever that state changes so that the
    /// condition may turn true.
    pub fn new(
        fid: Fid,
        nf: NfId,
        name: impl Into<Cow<'static, str>>,
        signal: Signal,
        condition: impl Fn(Fid) -> bool + Send + Sync + 'static,
        update: impl Fn(Fid) -> RulePatch + Send + Sync + 'static,
    ) -> Self {
        Self::build(fid, nf, name.into(), signal, EventHandlers::new(condition, update))
    }

    /// [`Event::new`] over a signal and handlers the NF built once and
    /// shares across flows: an event costs its flow no allocation.
    pub fn shared(
        fid: Fid,
        nf: NfId,
        name: impl Into<Cow<'static, str>>,
        signal: &Signal,
        handlers: &EventHandlers,
    ) -> Self {
        Self::build(fid, nf, name.into(), signal.clone(), handlers.clone())
    }

    fn build(
        fid: Fid,
        nf: NfId,
        name: Cow<'static, str>,
        signal: Signal,
        handlers: EventHandlers,
    ) -> Self {
        Self { fid, nf, name, one_shot: true, signal, seen: AtomicU64::new(RAISED), handlers }
    }

    /// Makes the event persistent: it keeps firing whenever its condition
    /// holds (default is one-shot).
    #[must_use]
    pub fn recurring(mut self) -> Self {
        self.one_shot = false;
        self
    }

    /// Evaluates the condition.
    #[must_use]
    pub fn is_triggered(&self) -> bool {
        (self.handlers.condition)(self.fid)
    }

    /// The signal this event watches.
    #[must_use]
    pub fn signal(&self) -> &Signal {
        &self.signal
    }

    /// True if the signal moved since the event last found its condition
    /// false (or the condition held then): the fast path's whole check,
    /// two loads and a compare.
    #[must_use]
    pub fn is_raised(&self) -> bool {
        self.signal.value() != self.seen()
    }

    /// The remembered signal value.
    pub(crate) fn seen(&self) -> u64 {
        self.seen.load(Ordering::Relaxed)
    }

    /// The arming check and the fire re-check: reads the signal, then
    /// evaluates the condition, and remembers the value read — or, if the
    /// condition holds, leaves the event raised. Reading the signal first
    /// is what makes this safe: a change the condition did not see raises
    /// the signal past the remembered value.
    pub(crate) fn check(&self) -> bool {
        let value = self.signal.value();
        let holds = self.is_triggered();
        self.seen.store(if holds { RAISED } else { value }, Ordering::Relaxed);
        holds
    }

    /// Debug builds' missed-raise fence: logs this event if its condition
    /// holds although its signal has not moved since the condition was
    /// last found false. The second signal read keeps a raise that lands
    /// while the condition runs from being mistaken for a missed one.
    pub(crate) fn track_missed_raise(&self) {
        let seen = self.seen.load(Ordering::Relaxed);
        if self.signal.value() == seen && self.is_triggered() && self.signal.value() == seen {
            crate::track::record_missed_raise(&self.name);
        }
    }

    /// Computes the patch (call when triggered).
    #[must_use]
    pub fn compute_patch(&self) -> RulePatch {
        (self.handlers.update)(self.fid)
    }
}

impl fmt::Debug for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Event")
            .field("fid", &self.fid)
            .field("nf", &self.nf)
            .field("name", &self.name)
            .field("one_shot", &self.one_shot)
            .finish_non_exhaustive()
    }
}

/// The fire re-check of one event: evaluates it (see [`Event::check`])
/// and, if it holds, appends its `(nf, patch)` to `fired`. Returns whether
/// the event stays registered: a fired one-shot event does not.
fn recheck(event: &Event, fired: &mut Vec<(NfId, RulePatch)>) -> bool {
    if !event.check() {
        return true;
    }
    fired.push((event.nf, event.compute_patch()));
    !event.one_shot
}

/// The Event Table: the events registered during walks, staged until
/// their flow's install arms them in its rule, and the lock that
/// serializes arming and firing.
///
/// ```
/// use std::sync::atomic::{AtomicBool, Ordering};
/// use std::sync::Arc;
///
/// use speedybox_mat::{Event, EventTable, HeaderAction, NfId, RulePatch, Signal};
/// use speedybox_packet::Fid;
///
/// let table = EventTable::new();
/// let signal = Signal::new();
/// let tripped = Arc::new(AtomicBool::new(false));
/// let t = tripped.clone();
/// table.register(Event::new(
///     Fid::new(7),
///     NfId::new(0),
///     "threshold",
///     signal.clone(),
///     move |_| t.load(Ordering::Relaxed),
///     |_| RulePatch::set_action(HeaderAction::Drop),
/// ));
/// assert!(table.fire(Fid::new(7)).is_empty());
/// tripped.store(true, Ordering::Relaxed);
/// signal.raise();
/// let fired = table.fire(Fid::new(7));
/// assert_eq!(fired.len(), 1);
/// assert!(table.is_empty(), "a one-shot event fires once");
/// ```
#[derive(Debug, Default)]
pub struct EventTable {
    /// The Event Table lock, and under it the events registered for flows
    /// with no installed rule, in registration order: one flow's events
    /// per walk in progress, or every event of a stand-alone table.
    staged: Mutex<Vec<Event>>,
    /// The flow table whose installed rules arm these events. `None` for a
    /// stand-alone table.
    flows: Option<Arc<FlowRecords>>,
    /// Optional telemetry sink (events-fired counter). Set once, after
    /// construction, because the table is created inside `GlobalMat` and
    /// shared as an `Arc`.
    sink: std::sync::OnceLock<Arc<speedybox_telemetry::Telemetry>>,
}

impl EventTable {
    /// Creates an empty, stand-alone table.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty table arming its events in `flows`' rules.
    pub(crate) fn arming(flows: Arc<FlowRecords>) -> Self {
        Self { flows: Some(flows), ..Self::default() }
    }

    /// Attaches a telemetry sink. Later calls on an already-sinked table
    /// are ignored (first sink wins).
    pub fn set_telemetry(&self, sink: Arc<speedybox_telemetry::Telemetry>) {
        let _ = self.sink.set(sink);
    }

    fn count_fired(&self, fid: Fid, fired: usize) {
        if fired > 0 {
            if let Some(sink) = self.sink.get() {
                sink.shard(fid.index() as u64).add_events_fired(fired as u64);
            }
        }
    }

    /// Registers an event (the `register_event` API of Fig 2). It is
    /// staged until the flow's install arms it; if the flow's rule is
    /// already installed, the event is armed and the record republished
    /// with it, so it is checked from the flow's next packet.
    ///
    /// Takes the Event Table lock, then (arming) the NF's state lock
    /// through the condition: an NF must not register while holding its
    /// own lock.
    pub fn register(&self, event: Event) {
        let fid = event.fid;
        let mut staged = self.staged.lock();
        // Under the lock, so a concurrent install (which drains and arms
        // under it) cannot publish a rule missing the event.
        if let Some(flows) = &self.flows {
            if flows.get(fid).is_some_and(|record| record.rule.is_some()) {
                event.check();
                let mut event = Some(event);
                // A teardown since the look above drops the event with the
                // rule: the flow re-registers when it records again.
                flows.republish(fid, |record| {
                    let rule = record.rule.as_ref()?.with_event(event.take()?);
                    Some(record.with_rule(Some(Arc::new(rule))))
                });
                return;
            }
        }
        staged.push(event);
    }

    /// Install's arming: under the Event Table lock, moves `fid`'s staged
    /// events out in registration order, arms each (see
    /// [`Event::is_raised`]) and runs `publish` on them, so no
    /// registration or firing can slip between arming a rule and
    /// publishing it.
    pub(crate) fn arm<R>(&self, fid: Fid, publish: impl FnOnce(Vec<Event>) -> R) -> R {
        let mut staged = self.staged.lock();
        let mut armed = Vec::with_capacity(staged.iter().filter(|event| event.fid == fid).count());
        armed.extend(staged.extract_if(.., |event| event.fid == fid));
        for event in &armed {
            event.check();
        }
        publish(armed)
    }

    /// The fast path's fire, once an armed event's signal moved: under the
    /// Event Table lock, re-checks the events armed in `fid`'s current
    /// record — which must still be `owner`'s — and, if any fired,
    /// republishes the record with the rule `rewrite` builds from the
    /// current one, the fired `(nf, patch)` pairs in registration order,
    /// and the events still registered, all in the same critical section.
    /// Returns whether the record was rewritten.
    pub(crate) fn fire_armed(
        &self,
        fid: Fid,
        owner: Option<FiveTuple>,
        rewrite: impl FnOnce(&GlobalRule, &[(NfId, RulePatch)], Vec<Event>) -> GlobalRule,
    ) -> bool {
        let _lock = self.staged.lock();
        let Some(flows) = &self.flows else { return false };
        let Some(record) = flows.get(fid).filter(|record| record.owner == owner) else {
            return false;
        };
        let Some(current) = record.rule.as_ref() else { return false };
        let mut fired = Vec::new();
        let mut kept = Vec::with_capacity(current.armed().len());
        for event in current.armed() {
            if recheck(event, &mut fired) {
                kept.push(event.clone());
            }
        }
        self.count_fired(fid, fired.len());
        if fired.is_empty() {
            return false;
        }
        let rule = Arc::new(rewrite(current, &fired, kept));
        flows
            .republish(fid, |record| {
                let same = record.rule.as_ref().is_some_and(|r| Arc::ptr_eq(r, current));
                (same && record.owner == owner).then(|| record.with_rule(Some(rule)))
            })
            .is_some()
    }

    /// Fires the staged events of `fid` whose conditions hold, returning
    /// their `(nf, patch)` pairs in registration order: the re-check reads
    /// each event's signal, then evaluates its condition, and either fires
    /// the event — deregistering a one-shot one — or remembers the value
    /// it read. This serves events no rule has armed (a stand-alone
    /// table's); an installed flow's armed events fire through
    /// [`crate::GlobalMat::serve`].
    pub fn fire(&self, fid: Fid) -> Vec<(NfId, RulePatch)> {
        let mut fired = Vec::new();
        self.staged.lock().retain(|event| event.fid != fid || recheck(event, &mut fired));
        self.count_fired(fid, fired.len());
        fired
    }

    /// Number of staged events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.staged.lock().len()
    }

    /// True if no event is staged.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.staged.lock().is_empty()
    }

    /// Drops the events staged for a flow (an unfinished walk's
    /// leftovers).
    pub fn remove_flow(&self, fid: Fid) {
        self.staged.lock().retain(|event| event.fid != fid);
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};

    use super::*;

    fn fid(n: u32) -> Fid {
        Fid::new(n)
    }

    /// An event of NF `nf` on flow 1 whose condition is always `holds`.
    fn constant(nf: usize, name: &'static str, holds: bool) -> Event {
        let patch = |_| RulePatch::default();
        Event::new(fid(1), NfId::new(nf), name, Signal::new(), move |_| holds, patch)
    }

    #[test]
    fn untriggered_event_stays() {
        let table = EventTable::new();
        table.register(constant(0, "never", false));
        assert!(table.fire(fid(1)).is_empty());
        assert_eq!(table.len(), 1);
    }

    #[test]
    fn one_shot_event_fires_once() {
        let armed = Arc::new(AtomicBool::new(true));
        let a = armed;
        let table = EventTable::new();
        table.register(Event::new(
            fid(1),
            NfId::new(2),
            "flip",
            Signal::new(),
            move |_| a.load(Ordering::Relaxed),
            |_| RulePatch::set_action(HeaderAction::Drop),
        ));
        let fired = table.fire(fid(1));
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].0, NfId::new(2));
        assert_eq!(fired[0].1.header_actions, Some(vec![HeaderAction::Drop]));
        // Deregistered after firing.
        assert!(table.is_empty());
        assert!(table.fire(fid(1)).is_empty());
    }

    #[test]
    fn recurring_event_keeps_firing() {
        let table = EventTable::new();
        table.register(constant(0, "always", true).recurring());
        assert_eq!(table.fire(fid(1)).len(), 1);
        assert_eq!(table.fire(fid(1)).len(), 1);
        assert_eq!(table.len(), 1);
    }

    #[test]
    fn events_keyed_by_flow() {
        let table = EventTable::new();
        table.register(constant(0, "e1", true));
        assert!(table.fire(fid(2)).is_empty());
        assert_eq!(table.len(), 1);
    }

    #[test]
    fn multiple_events_fire_in_registration_order() {
        let table = EventTable::new();
        table.register(constant(0, "a", true));
        table.register(constant(1, "b", true));
        let fired = table.fire(fid(1));
        assert_eq!(fired.iter().map(|(nf, _)| nf.index()).collect::<Vec<_>>(), vec![0, 1]);
    }

    #[test]
    fn patch_computed_at_trigger_time() {
        // The update handler must observe state as of the trigger, not
        // registration (Maglev picks the new backend when the old one dies).
        let value = Arc::new(AtomicU32::new(0));
        let v = value.clone();
        let table = EventTable::new();
        table.register(Event::new(
            fid(1),
            NfId::new(0),
            "dyn",
            Signal::new(),
            |_| true,
            move |_| {
                assert_eq!(v.load(Ordering::Relaxed), 7);
                RulePatch::default()
            },
        ));
        value.store(7, Ordering::Relaxed);
        assert_eq!(table.fire(fid(1)).len(), 1);
    }

    #[test]
    fn remove_flow_clears_events() {
        let table = EventTable::new();
        table.register(constant(0, "e", true));
        table.remove_flow(fid(1));
        assert!(table.is_empty());
    }

    #[test]
    fn only_a_raise_after_arming_marks_the_event() {
        let signal = Signal::new();
        let holds = Arc::new(AtomicBool::new(false));
        let h = holds.clone();
        let event = Event::new(
            fid(1),
            NfId::new(0),
            "watch",
            signal.clone(),
            move |_| h.load(Ordering::Relaxed),
            |_| RulePatch::default(),
        );
        assert!(event.is_raised(), "an unarmed event is re-checked");
        assert!(!event.check());
        assert!(!event.is_raised(), "arming remembers the signal value");
        // A condition that turns true with no raise goes unseen: the
        // missed raise the debug tracker logs.
        holds.store(true, Ordering::Relaxed);
        assert!(!event.is_raised());
        signal.raise();
        assert!(event.is_raised());
        // The re-check finds it holding and leaves it raised.
        assert!(event.check());
        assert!(event.is_raised());
        holds.store(false, Ordering::Relaxed);
        assert!(!event.check());
        assert!(!event.is_raised());
    }

    #[test]
    fn an_always_true_event_is_armed_raised() {
        let event = constant(0, "a", true);
        assert!(event.check());
        assert!(event.is_raised(), "fires on the first fast-path packet");
        let copy = event.clone();
        drop(event);
        assert!(copy.is_raised(), "clones keep the remembered value");
    }

    #[test]
    fn patch_constructors() {
        assert!(RulePatch::default().is_empty());
        assert!(!RulePatch::set_action(HeaderAction::Drop).is_empty());
        assert!(!RulePatch::set_state_functions(vec![]).is_empty());
    }
}
