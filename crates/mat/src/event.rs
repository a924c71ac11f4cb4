//! The Event Table: stateful behaviour on the fast path (paper §V-C1).
//!
//! Observation 2 of the paper: some NFs change a flow's actions at runtime
//! when internal state reaches a condition (Maglev re-routing on backend
//! failure, a DoS guard flipping to drop past a SYN threshold). NFs
//! register events through `register_event` (Fig 2); the Global MAT checks
//! the registered conditions and, when one fires, patches the flow's rule
//! and re-consolidates — Fig 3's workflow.
//!
//! The table is the registration store. Installing a flow's rule arms its
//! events in the rule as shared handles, so the fast path evaluates them
//! from the flow record with no lock; only a triggered condition comes
//! back here, to [`EventTable::fire`], which re-checks under the write
//! lock so a one-shot event fires once.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use parking_lot::RwLock;
use speedybox_packet::Fid;

use crate::action::HeaderAction;
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
/// Typically captures the NF's shared state.
pub type CondHandler = Arc<dyn Fn(Fid) -> bool + Send + Sync>;

/// Update handler: computes the rule patch when the condition fires
/// (computed at trigger time — e.g. Maglev picks the *new* backend then).
pub type UpdateHandler = Arc<dyn Fn(Fid) -> RulePatch + Send + Sync>;

/// A registered event: condition plus update, owned by one NF for one flow.
#[derive(Clone)]
pub struct Event {
    /// Flow the event watches.
    pub fid: Fid,
    /// The NF whose rule the patch applies to.
    pub nf: NfId,
    /// Diagnostic name.
    pub name: String,
    /// If true the event is deregistered after it fires once.
    pub one_shot: bool,
    condition: CondHandler,
    update: UpdateHandler,
}

impl Event {
    /// Creates an event.
    pub fn new(
        fid: Fid,
        nf: NfId,
        name: impl Into<String>,
        condition: impl Fn(Fid) -> bool + Send + Sync + 'static,
        update: impl Fn(Fid) -> RulePatch + Send + Sync + 'static,
    ) -> Self {
        Self {
            fid,
            nf,
            name: name.into(),
            one_shot: true,
            condition: Arc::new(condition),
            update: Arc::new(update),
        }
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
        (self.condition)(self.fid)
    }

    /// Computes the patch (call when triggered).
    #[must_use]
    pub fn compute_patch(&self) -> RulePatch {
        (self.update)(self.fid)
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

/// The Event Table: per-flow registered events, armed in each flow's
/// rule and fired through here.
///
/// ```
/// use std::sync::atomic::{AtomicBool, Ordering};
/// use std::sync::Arc;
///
/// use speedybox_mat::{Event, EventTable, HeaderAction, NfId, RulePatch};
/// use speedybox_packet::Fid;
///
/// let table = EventTable::new();
/// let tripped = Arc::new(AtomicBool::new(false));
/// let t = tripped.clone();
/// table.register(Event::new(
///     Fid::new(7),
///     NfId::new(0),
///     "threshold",
///     move |_| t.load(Ordering::Relaxed),
///     |_| RulePatch::set_action(HeaderAction::Drop),
/// ));
/// assert!(table.fire(Fid::new(7)).is_empty());
/// tripped.store(true, Ordering::Relaxed);
/// let fired = table.fire(Fid::new(7));
/// assert_eq!(fired.len(), 1);
/// assert!(table.is_empty(), "a one-shot event fires once");
/// ```
#[derive(Debug, Default)]
pub struct EventTable {
    events: RwLock<HashMap<Fid, Vec<Arc<Event>>>>,
    /// The flow table whose installed rules arm these events; a
    /// registration on a flow with a rule re-arms it. `None` for a
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

    /// Registers an event (the `register_event` API of Fig 2). If the
    /// flow's rule is already installed, the rule is re-armed, so the
    /// event is checked from the flow's next packet.
    pub fn register(&self, event: Event) {
        let fid = event.fid;
        let mut events = self.events.write();
        let list = events.entry(fid).or_default();
        list.push(Arc::new(event));
        if let Some(flows) = &self.flows {
            // Under the write lock, so a concurrent install (which arms
            // under the read lock) cannot publish a rule missing it.
            flows.republish(fid, |record| {
                let rule = record.rule.as_ref()?;
                Some(record.with_rule(Some(Arc::new(rule.rearmed(list.clone())))))
            });
        }
    }

    /// Runs `f` on the events registered for `fid`, in registration
    /// order, holding the read lock so no registration can slip between
    /// arming a rule and publishing it.
    pub(crate) fn with_armed<R>(&self, fid: Fid, f: impl FnOnce(&[Arc<Event>]) -> R) -> R {
        let events = self.events.read();
        f(events.get(&fid).map_or(&[], Vec::as_slice))
    }

    /// Fires the events registered for `fid` whose conditions hold,
    /// returning their `(nf, patch)` pairs in registration order. The
    /// fast path calls this once an armed condition triggered; the
    /// re-check here, under the write lock, deregisters a triggered
    /// one-shot event, so it fires once however many packets saw it
    /// trigger.
    pub fn fire(&self, fid: Fid) -> Vec<(NfId, RulePatch)> {
        let mut events = self.events.write();
        let Some(list) = events.get_mut(&fid) else { return Vec::new() };
        let mut fired = Vec::new();
        list.retain(|event| {
            if !event.is_triggered() {
                return true;
            }
            fired.push((event.nf, event.compute_patch()));
            !event.one_shot
        });
        if list.is_empty() {
            events.remove(&fid);
        }
        if !fired.is_empty() {
            if let Some(sink) = self.sink.get() {
                sink.shard(fid.index() as u64).add_events_fired(fired.len() as u64);
            }
        }
        fired
    }

    /// Number of flows with registered events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.read().len()
    }

    /// True if no events are registered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.read().is_empty()
    }

    /// Drops all events for a flow (FIN/RST cleanup).
    pub fn remove_flow(&self, fid: Fid) {
        self.events.write().remove(&fid);
    }

    /// A snapshot of the events registered for `fid`, in registration
    /// order. Used by `speedybox-verify`'s event-rewrite pass to check the
    /// rule each registered `(condition, update)` pair would install,
    /// before any condition ever fires.
    #[must_use]
    pub fn events_for(&self, fid: Fid) -> Vec<Event> {
        self.events
            .read()
            .get(&fid)
            .map_or_else(Vec::new, |list| list.iter().map(|event| Event::clone(event)).collect())
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};

    use super::*;

    fn fid(n: u32) -> Fid {
        Fid::new(n)
    }

    #[test]
    fn untriggered_event_stays() {
        let table = EventTable::new();
        table.register(Event::new(
            fid(1),
            NfId::new(0),
            "never",
            |_| false,
            |_| RulePatch::default(),
        ));
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
        table.register(
            Event::new(fid(1), NfId::new(0), "always", |_| true, |_| RulePatch::default())
                .recurring(),
        );
        assert_eq!(table.fire(fid(1)).len(), 1);
        assert_eq!(table.fire(fid(1)).len(), 1);
        assert_eq!(table.len(), 1);
    }

    #[test]
    fn events_keyed_by_flow() {
        let table = EventTable::new();
        table.register(Event::new(fid(1), NfId::new(0), "e1", |_| true, |_| RulePatch::default()));
        assert!(table.fire(fid(2)).is_empty());
        assert_eq!(table.len(), 1);
    }

    #[test]
    fn multiple_events_fire_in_registration_order() {
        let table = EventTable::new();
        table.register(Event::new(fid(1), NfId::new(0), "a", |_| true, |_| RulePatch::default()));
        table.register(Event::new(fid(1), NfId::new(1), "b", |_| true, |_| RulePatch::default()));
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
        table.register(Event::new(fid(1), NfId::new(0), "e", |_| true, |_| RulePatch::default()));
        table.remove_flow(fid(1));
        assert!(table.is_empty());
    }

    #[test]
    fn patch_constructors() {
        assert!(RulePatch::default().is_empty());
        assert!(!RulePatch::set_action(HeaderAction::Drop).is_empty());
        assert!(!RulePatch::set_state_functions(vec![]).is_empty());
    }
}
