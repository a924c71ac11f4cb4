//! The Global MAT: the consolidated fast path (paper §V).
//!
//! After a flow's initial packet has traversed the original chain and every
//! NF has recorded into its Local MAT, the Global MAT consolidates the
//! per-NF recordings into one [`GlobalRule`]: a single
//! [`ConsolidatedAction`] for the headers plus the ordered state-function
//! batches (with a precomputed parallel schedule), with the flow's
//! registered events armed in it. What depends only on the rule's shape
//! lives in a [`RuleTemplate`] every flow of that shape shares, built
//! once per shape ([`crate::template`]); the rule itself holds the
//! template, the flow's recorded field values, its armed events and its
//! hit count. Install drains the Local MATs and the Event Table's staging,
//! so the rule is the only home of the flow's recordings and events. It
//! lives in the flow's [`FlowRecord`], in the flow table the Global MAT
//! shares with the classifier; subsequent packets are served from the
//! record the classifier found, and the armed events' signals are checked
//! first so stateful updates take effect immediately (Fig 1's workflow).

use std::borrow::Cow;
use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

use speedybox_packet::{Fid, FieldValue, Packet};
use speedybox_telemetry::{CounterShard, Telemetry};

use crate::action::HeaderAction;
use crate::consolidate::ConsolidatedAction;
use crate::event::{Event, EventTable, RulePatch, Signal};
use crate::flow_table::{Admission, AdmissionPolicy, FlowTable, Pinned, FID_SPACE};
use crate::local::{LocalMat, NfId};
use crate::ops::OpCounter;
use crate::record::{FlowRecord, FlowRecords};
use crate::state_fn::{SfBatch, StateFunction};
use crate::template::{BoundProgram, RuleTemplate, Templates};
use crate::{MatError, Result};

/// The first armed event's check, cached in the rule: the signal it
/// watches and a value it remembered. A flow with one armed event is then
/// checked without leaving the rule. Any value the event once remembered
/// is a safe comparand — the signal only moves on — so a stale cache
/// costs one look at the event, which refreshes it.
#[derive(Debug)]
struct Watch {
    signal: Signal,
    seen: AtomicU64,
}

impl Watch {
    fn of(event: &Event) -> Self {
        Self { signal: event.signal().clone(), seen: AtomicU64::new(event.seen()) }
    }
}

/// A consolidated fast-path rule for one flow: its shape's shared
/// [`RuleTemplate`], which the rule dereferences to (`rule.batches`,
/// `rule.schedule`), and what is the flow's own.
#[derive(Debug)]
pub struct GlobalRule {
    /// The template's compiled program bound to the flow's recorded field
    /// values: what the fast path runs on the headers.
    pub compiled: BoundProgram,
    /// The flow's armed events, in registration order: the fast path
    /// checks their signals before applying the rule.
    armed: Vec<Event>,
    /// `armed[0]`'s check, inline.
    watch: Option<Watch>,
    /// Fast-path hits served by this rule (operational statistics), exact
    /// under concurrent readers. Every runtime serves a flow from one
    /// thread, so the counter shares the rule's cache line rather than
    /// owning one.
    hits: AtomicU64,
}

impl Deref for GlobalRule {
    type Target = RuleTemplate;

    fn deref(&self) -> &RuleTemplate {
        &self.compiled.template
    }
}

impl Clone for GlobalRule {
    fn clone(&self) -> Self {
        Self {
            compiled: self.compiled.clone(),
            armed: self.armed.clone(),
            watch: self.armed.first().map(Watch::of),
            hits: AtomicU64::new(self.hits()),
        }
    }
}

impl GlobalRule {
    /// Builds a rule of its own, uncached template: `consolidated`
    /// compiled, `batches` on `schedule` (hit counter at zero, no events
    /// armed, no recordings kept).
    #[must_use]
    pub fn new(
        consolidated: ConsolidatedAction,
        batches: Vec<SfBatch>,
        schedule: Vec<Vec<usize>>,
    ) -> Self {
        let mut operands = Vec::new();
        let action = consolidated.map_values(|value| {
            operands.push(value);
            FieldValue::new(operands.len() as u64 - 1)
        });
        let template = RuleTemplate::new(Vec::new(), action, batches, schedule);
        Self::bound(BoundProgram::new(Arc::new(template), operands.into_iter().collect()))
    }

    /// The rule of `compiled` (no events armed).
    fn bound(compiled: BoundProgram) -> Self {
        Self { compiled, armed: Vec::new(), watch: None, hits: AtomicU64::new(0) }
    }

    /// Arms `armed` (already checked, see [`Event::is_raised`]) in this
    /// rule.
    fn arm(&mut self, armed: Vec<Event>) {
        self.watch = armed.first().map(Watch::of);
        self.armed = armed;
    }

    /// This rule with `event` (already checked) armed after its others.
    pub(crate) fn with_event(&self, event: Event) -> Self {
        let mut rule = self.clone();
        let mut armed = std::mem::take(&mut rule.armed);
        armed.push(event);
        rule.arm(armed);
        rule
    }

    /// True if an armed event's signal moved since the event last found
    /// its condition false: the fast path's event check, which runs no
    /// condition.
    fn is_raised(&self) -> bool {
        let Some(watch) = &self.watch else { return false };
        let value = watch.signal.value();
        if value != watch.seen.load(Relaxed) {
            // Raised, or a re-check has since remembered a newer value.
            let seen = self.armed[0].seen();
            if value != seen {
                return true;
            }
            watch.seen.store(seen, Relaxed);
        }
        self.armed[1..].iter().any(Event::is_raised)
    }

    /// The events armed in this rule, in registration order.
    #[must_use]
    pub fn armed(&self) -> &[Event] {
        &self.armed
    }

    /// The shared template.
    #[must_use]
    pub fn template(&self) -> &Arc<RuleTemplate> {
        &self.compiled.template
    }

    /// The flow's recorded field values, which the template's operand
    /// slots read.
    #[must_use]
    pub fn operands(&self) -> &[FieldValue] {
        &self.compiled.operands
    }

    /// The flow's consolidated action: the template's, with the flow's
    /// values.
    #[must_use]
    pub fn consolidated(&self) -> ConsolidatedAction {
        self.action().clone().map_values(|slot| self.compiled.bind(slot))
    }

    /// The header actions the walk recorded (as patched by fired events),
    /// each tagged with its NF, in chain order and then registration
    /// order, with the flow's values. Empty for a rule built with
    /// [`GlobalRule::new`].
    #[must_use]
    pub fn header_actions(&self) -> Vec<(NfId, HeaderAction)> {
        let bind = |(nf, action): &(NfId, HeaderAction)| {
            (*nf, action.clone().map_values(|slot| self.compiled.bind(slot)))
        };
        self.actions().iter().map(bind).collect()
    }

    /// Applies the flow's consolidated action, interpreted: the
    /// `--interpreted` escape hatch of [`BoundProgram::run`], with the
    /// same bytes and verdict. Returns `false` for a dropped packet.
    ///
    /// # Errors
    /// Propagates packet manipulation failures.
    pub fn interpret(&self, packet: &mut Packet, ops: &mut OpCounter) -> Result<bool> {
        self.action().apply_with(packet, ops, |slot| self.compiled.bind(slot))
    }

    /// Applies the flow's recorded header actions one at a time, as the
    /// original chain would, paying a parse for each: the consolidation
    /// ablation. Returns `false` once one drops the packet or fails.
    pub fn replay(&self, packet: &mut Packet, ops: &mut OpCounter) -> bool {
        self.actions().iter().all(|(_, action)| {
            ops.parses += 1;
            action.apply_with(packet, ops, |slot| self.compiled.bind(slot)).unwrap_or(false)
        })
    }

    /// Fast-path packets served by this rule so far.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits.load(Relaxed)
    }

    fn record_hit(&self) {
        self.hits.fetch_add(1, Relaxed);
    }

    /// Executes all state-function batches sequentially (the
    /// non-parallel execution mode; the parallel executor in
    /// `speedybox-platform` uses [`RuleTemplate::schedule`] instead).
    pub fn execute_batches(&self, packet: &mut Packet, fid: Fid, ops: &mut OpCounter) {
        for batch in &self.batches {
            batch.execute(packet, fid, ops);
        }
    }
}

/// Outcome of fast-path processing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FastPathOutcome {
    /// The packet was processed and survives.
    Forwarded,
    /// The packet was dropped (early drop at the head of the chain).
    Dropped,
    /// No rule is installed; the caller must send the packet down the
    /// original (slow) path.
    NoRule,
}

/// Default shard count for a stand-alone Global MAT's flow table. Power of
/// two so the shard index is a mask of the (uniformly hashed) 20-bit FID.
pub const DEFAULT_GLOBAL_SHARDS: usize = 16;

/// The Global MAT, shared by the classifier and all NFs of one chain.
///
/// Holds the chain's Local MATs, whose staged recordings install drains,
/// and the Event Table, under whose lock an event-triggered patch
/// re-consolidates the flow's rule from the recordings it keeps (Fig 3).
///
/// Rules live in the flow records of the bounded [`FlowTable`] the Global
/// MAT shares with the classifier ([`GlobalMat::sharing`]); a stand-alone
/// Global MAT owns its table. Lookups are **wait-free** — one
/// direct-index probe plus one RCU slot load, no lock, no hashing,
/// regardless of concurrent rule churn — and a packet the classifier
/// steered needs none: its record came with the classification. Rule
/// execution stays lock-free (rules are held as `Arc<GlobalRule>`). The
/// table's bound and admission policy are the classifier's; an install
/// for a FID no packet has classified opens an owner-less record under
/// them.
#[derive(Debug)]
pub struct GlobalMat {
    locals: Vec<Arc<LocalMat>>,
    flows: Arc<FlowRecords>,
    events: Arc<EventTable>,
    /// One rule template per recorded shape; locked by installs and
    /// rewrites only.
    templates: Templates,
    /// Optional telemetry sink: rule install/rewrite/removal counters, and
    /// the fast-path hit/miss and compiled counts of `prepare` and
    /// `process`. Relaxed atomics; no effect on processing.
    sink: Option<Arc<Telemetry>>,
    /// Whether header actions execute as compiled micro-op programs
    /// (default) or through the interpreted [`ConsolidatedAction::apply`]
    /// (`--interpreted` escape hatch / ablation). Atomic so the mode can be
    /// flipped mid-run through a shared handle (fault-injection harnesses);
    /// every rule carries both forms, so a flip is always safe.
    compiled: std::sync::atomic::AtomicBool,
    /// Bitmask of chain positions whose NF is currently dead/recovering.
    /// While any bit is set, rule publication (`install` / rewrites) is
    /// refused: a consolidated rule embeds recordings from *every* NF, so
    /// no rule derived from a half-recovered chain may reach readers.
    /// Readers are unaffected — the platform tears down installed rules at
    /// kill time and routes packets over the interpreted original walk
    /// until recovery.
    quarantine: AtomicU64,
    /// Stand-alone: no classifier ticks the table's clock, so installs do.
    owns_clock: bool,
}

impl GlobalMat {
    /// Creates a stand-alone Global MAT over the chain's Local MATs (chain
    /// order), with the default shard count.
    #[must_use]
    pub fn new(locals: Vec<Arc<LocalMat>>) -> Self {
        Self::with_shards(locals, DEFAULT_GLOBAL_SHARDS)
    }

    /// Creates a stand-alone Global MAT with (at least) `shards` flow-table
    /// shards, rounded up to a power of two. Shard count never changes
    /// processing results — only lock granularity.
    #[must_use]
    pub fn with_shards(locals: Vec<Arc<LocalMat>>, shards: usize) -> Self {
        Self::with_limits(locals, shards, FID_SPACE)
    }

    /// Creates a stand-alone Global MAT bounded at `max_flows` flow records
    /// (0 = unbounded), evicting the least-recently-installed one when
    /// full (its installs draw the table's clock ticks).
    #[must_use]
    pub fn with_limits(locals: Vec<Arc<LocalMat>>, shards: usize, max_flows: usize) -> Self {
        let flows = FlowTable::new(shards, max_flows, AdmissionPolicy::EvictOldest);
        Self { owns_clock: true, ..Self::sharing(locals, Arc::new(flows)) }
    }

    /// A Global MAT keeping its rules in `flows`, the table it shares with
    /// the chain's classifier ([`crate::PacketClassifier::sharing`]).
    #[must_use]
    pub fn sharing(locals: Vec<Arc<LocalMat>>, flows: Arc<FlowRecords>) -> Self {
        Self {
            locals,
            events: Arc::new(EventTable::arming(Arc::clone(&flows))),
            flows,
            templates: Templates::default(),
            sink: None,
            compiled: std::sync::atomic::AtomicBool::new(true),
            quarantine: AtomicU64::new(0),
            owns_clock: false,
        }
    }

    /// Attaches a telemetry sink for fast-path and rule-churn counters.
    /// The shared Event Table sinks into the same hub (events fired).
    #[must_use]
    pub fn with_telemetry(mut self, sink: Arc<Telemetry>) -> Self {
        self.events.set_telemetry(Arc::clone(&sink));
        self.sink = Some(sink);
        self
    }

    /// Selects compiled (default) or interpreted header-action execution.
    /// Never changes processing results — only which op kinds are counted
    /// (`word_writes`/`checksum_patches` vs `field_writes`/
    /// `checksum_fixes`).
    #[must_use]
    pub fn with_compiled(self, compiled: bool) -> Self {
        self.set_compiled(compiled);
        self
    }

    /// True if header actions run as compiled micro-op programs.
    #[must_use]
    pub fn is_compiled(&self) -> bool {
        self.compiled.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Switches between compiled and interpreted execution at runtime.
    /// Always safe mid-run: every rule template carries both its
    /// compiled program and its [`ConsolidatedAction`], and both produce
    /// identical packet bytes.
    pub fn set_compiled(&self, compiled: bool) {
        self.compiled.store(compiled, std::sync::atomic::Ordering::Relaxed);
    }

    /// Runs a rule's header action via the configured execution mode,
    /// counting compiled hits/fallbacks. Returns `false` for dropped
    /// packets.
    fn apply_rule(
        &self,
        rule: &GlobalRule,
        fid: Fid,
        packet: &mut Packet,
        ops: &mut OpCounter,
    ) -> Result<bool> {
        if self.is_compiled() {
            if let Some(cell) = self.cell(fid) {
                cell.add_compiled_hits(1);
            }
            rule.compiled.run(packet, ops)
        } else {
            if let Some(cell) = self.cell(fid) {
                cell.add_compiled_fallbacks(1);
            }
            rule.interpret(packet, ops)
        }
    }

    /// The telemetry cell for a FID, if a sink is attached.
    fn cell(&self, fid: Fid) -> Option<&CounterShard> {
        self.sink.as_ref().map(|t| t.shard(fid.index() as u64))
    }

    /// The chain's Local MATs, in chain order.
    #[must_use]
    pub fn locals(&self) -> &[Arc<LocalMat>] {
        &self.locals
    }

    /// The shared Event Table (NFs register events here via
    /// [`crate::api::NfInstrument`]).
    #[must_use]
    pub fn events(&self) -> &Arc<EventTable> {
        &self.events
    }

    /// Marks chain position `nf` as dead: rule publication is refused
    /// until the matching [`GlobalMat::unquarantine_nf`]. Positions ≥ 64
    /// share the top bit (the mask is a chain-wide gate, not a per-NF
    /// reader filter, so aliasing only coarsens the window).
    pub fn quarantine_nf(&self, nf: usize) {
        self.quarantine.fetch_or(1u64 << nf.min(63), std::sync::atomic::Ordering::SeqCst);
    }

    /// Clears chain position `nf`'s quarantine bit; publication resumes
    /// once every quarantined NF has recovered.
    pub fn unquarantine_nf(&self, nf: usize) {
        self.quarantine.fetch_and(!(1u64 << nf.min(63)), std::sync::atomic::Ordering::SeqCst);
    }

    /// True while any NF in the chain is dead/recovering.
    #[must_use]
    pub fn is_quarantined(&self) -> bool {
        self.quarantine_mask() != 0
    }

    /// The raw quarantine bitmask (bit *i* = chain position *i* dead).
    #[must_use]
    pub fn quarantine_mask(&self) -> u64 {
        self.quarantine.load(std::sync::atomic::Ordering::SeqCst)
    }

    /// Ends the flow's walk: drains its staged recordings from every
    /// Local MAT and binds them to their shape's template in a
    /// [`GlobalRule`], neither armed nor published. Counts the
    /// consolidation, also when the template was cached.
    fn build_rule(&self, fid: Fid, ops: &mut OpCounter) -> GlobalRule {
        let compiled = self.templates.bind(|recording| {
            for local in &self.locals {
                local.drain(fid, &mut recording.actions, &mut recording.funcs);
            }
        });
        ops.consolidations += 1;
        GlobalRule::bound(compiled)
    }

    /// `current` with the fired `(nf, patch)` pairs applied to its
    /// recordings — each NF's header actions and state functions are
    /// those of the last fired patch that sets them, else its own — and
    /// bound to the template of the patched shape, with `kept` re-armed
    /// (Fig 3: "a new consolidated global MAT is computed"). Counts the
    /// consolidation.
    fn patched(
        &self,
        current: &GlobalRule,
        fired: &[(NfId, RulePatch)],
        kept: Vec<Event>,
        ops: &mut OpCounter,
    ) -> GlobalRule {
        let recorded = current.header_actions();
        let compiled = self.templates.bind(|recording| {
            for local in &self.locals {
                let nf = local.nf();
                let patches = || fired.iter().rev().filter(|(n, _)| *n == nf).map(|(_, p)| p);
                match patches().find_map(|p| p.header_actions.as_ref()) {
                    Some(patch) => recording.actions.extend(patch.iter().map(|a| (nf, a.clone()))),
                    None => {
                        recording.actions.extend(recorded.iter().filter(|(n, _)| *n == nf).cloned())
                    }
                }
                let tag = |func: &StateFunction| (nf, func.clone());
                match patches().find_map(|p| p.state_functions.as_ref()) {
                    Some(patch) => recording.funcs.extend(patch.iter().map(tag)),
                    None => {
                        let batch = current.batches.iter().find(|b| b.nf == nf);
                        recording.funcs.extend(batch.into_iter().flat_map(|b| &b.funcs).map(tag));
                    }
                }
            }
        });
        ops.consolidations += 1;
        let mut rule = GlobalRule::bound(compiled);
        for event in &kept {
            event.check();
        }
        rule.arm(kept);
        rule
    }

    /// Consolidates the flow's recordings into a fast-path rule ("As soon
    /// as the service chain finishes processing the packet, SpeedyBox
    /// notifies the Global MAT to consolidate the rules for the FID from
    /// all Local MATs", §III), moving them out of the Local MATs, arms
    /// the events the walk registered in it (each evaluates its condition
    /// once, see [`Event::is_raised`]), and publishes it in the flow's
    /// record. The record keeps its owner, recorded flag and recency
    /// stamp.
    ///
    /// Every call drains the flow's staging, also when the quarantine
    /// gate or a full [`AdmissionPolicy::Reject`] table refuses the rule,
    /// so nothing a walk recorded outlives it.
    ///
    /// A FID no packet has classified gets an owner-less record, which
    /// the flow's first packet claims. At the table's bound that record
    /// is admitted under the table's policy: the least-recently-used
    /// record is evicted with its rule (and [`GlobalMat::forget`] drops
    /// any walk of it left unfinished), or the install is refused.
    pub fn install(&self, fid: Fid, ops: &mut OpCounter) {
        // Publication gate: while an NF is dead, freshly consolidated
        // rules would embed its pre-crash recordings. The recovery
        // protocol sets the mask *before* sweeping the table, so a racing
        // install is either refused here or landed-then-swept — never
        // left visible across the quarantine window.
        if self.is_quarantined() {
            self.forget(fid);
            return;
        }
        let mut rule = self.build_rule(fid, ops);
        let admission = self.events.arm(fid, |armed| {
            rule.arm(armed);
            let rule = Some(Arc::new(rule));
            let now = if self.owns_clock { self.flows.tick(1) } else { self.flows.clock() };
            self.flows.upsert(fid, now, |record| match record {
                Some(record) => record.with_rule(rule),
                None => FlowRecord::new(None, false, rule),
            })
        });
        match admission {
            Admission::Rejected => return,
            Admission::Inserted(Some(victim)) => {
                let cell = self.cell(victim.fid);
                victim.value.count_departure(cell, CounterShard::add_flows_evicted);
                self.forget(victim.fid);
            }
            Admission::Inserted(None) | Admission::Replaced => {}
        }
        if let Some(cell) = self.cell(fid) {
            cell.add_rules_installed(1);
        }
    }

    /// The FID's record, if any. Wait-free.
    #[must_use]
    pub fn record(&self, fid: Fid) -> Option<Pinned<FlowRecord>> {
        self.flows.get(fid)
    }

    /// The installed rule for a flow, if any. Wait-free.
    #[must_use]
    pub fn rule(&self, fid: Fid) -> Option<Arc<GlobalRule>> {
        self.flows.get(fid)?.rule.clone()
    }

    /// True if the flow has a fast-path rule. Wait-free.
    #[must_use]
    pub fn contains(&self, fid: Fid) -> bool {
        self.flows.get(fid).is_some_and(|record| record.rule.is_some())
    }

    /// Number of installed fast-path rules. Control plane: visits every
    /// record.
    #[must_use]
    pub fn len(&self) -> usize {
        let mut rules = 0;
        self.flows.for_each(|_, record, _| rules += usize::from(record.rule.is_some()));
        rules
    }

    /// True if no rules are installed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of replaced flow records not yet reclaimed. Bounded by
    /// rule-churn frequency, never by reader count: every publication
    /// retries reclamation, and [`GlobalMat::collect_generations`] forces
    /// a retry from the control plane.
    #[must_use]
    pub fn pending_generations(&self) -> usize {
        self.flows.pending_generations()
    }

    /// Attempts to reclaim retired flow records; returns how many were
    /// freed. Safe at any time — a record is freed only once provably
    /// unreferenced. Then drops the rule templates no rule holds any
    /// more.
    pub fn collect_generations(&self) -> usize {
        let freed = self.flows.collect_generations();
        self.templates.sweep();
        freed
    }

    /// Number of cached rule templates: those live rules use, and those
    /// the next sweep drops ([`GlobalMat::collect_generations`]).
    #[must_use]
    pub fn templates(&self) -> usize {
        self.templates.len()
    }

    /// Removes a flow's rule from its record, and with it the flow's
    /// recordings and armed events ("we delete the corresponding rule
    /// from the Global MAT and all Local MATs and free the associated
    /// memory space", §VI-B). A packet-owned record stays, so the flow's
    /// next packet misses the fast path and re-records; a record no packet
    /// claimed held only the rule, and goes.
    pub fn remove_flow(&self, fid: Fid) {
        let strip = |r: &FlowRecord| r.owner.and(r.rule.as_ref()).map(|_| r.with_rule(None));
        let removed = match self.flows.remove_if(fid, |record| record.owner.is_none()) {
            Some(record) => record.rule.is_some(),
            None => self.flows.republish(fid, strip).is_some(),
        };
        if let Some(cell) = self.cell(fid).filter(|_| removed) {
            cell.add_rules_removed(1);
        }
        self.forget(fid);
    }

    /// Drops what an unfinished walk of the flow left staged in the Local
    /// MATs and the Event Table. An installed flow has nothing there: its
    /// recordings and events live in its record and leave with it.
    pub fn forget(&self, fid: Fid) {
        for local in &self.locals {
            local.remove(fid);
        }
        self.events.remove_flow(fid);
    }

    /// Fast-path step 1 on the record the classifier found for `fid`:
    /// compares each armed event's signal with the value it remembered,
    /// lock-free and without running a condition; if a signal moved,
    /// fires the flow's events under the Event Table lock — re-checking
    /// the events armed in the flow's current record and republishing it
    /// with the fired patches applied and re-consolidated, in one critical
    /// section — and serves the current rule. Returns the rule to apply —
    /// borrowed from `record` unless an event republished it — or `None`
    /// if the flow has no rule installed.
    ///
    /// Counts the served rule's own hit, and a rewrite if an event fired,
    /// but not the lookup's hit or miss: the caller counts that where it
    /// counts the packet, a packet lane in its own cell
    /// (`speedybox_telemetry::LaneCounters`), [`GlobalMat::prepare`] and
    /// [`GlobalMat::process`] on the hub's shards.
    ///
    /// Debug builds also evaluate every armed condition whose signal did
    /// not move and log each that holds as a missed raise
    /// ([`crate::track::take_missed_raises`]).
    ///
    /// Split from [`GlobalMat::process`] so executors that parallelize
    /// state functions can reuse the event/lookup logic.
    pub fn serve<'r>(
        &self,
        fid: Fid,
        record: Option<&'r FlowRecord>,
        ops: &mut OpCounter,
    ) -> Option<Cow<'r, Arc<GlobalRule>>> {
        ops.mat_lookups += 1;
        let served = record.and_then(|record| {
            let rule = record.rule.as_ref()?;
            ops.event_checks += rule.armed.len() as u64;
            if crate::track::enabled() {
                rule.armed.iter().for_each(Event::track_missed_raise);
            }
            if !rule.is_raised() {
                return Some(Cow::Borrowed(rule));
            }
            // The quarantine gate refuses the rewrite; the event stays
            // armed and fires once publication resumes. A rewrite that
            // finds the flow torn down (or owned by another flow) fires
            // nothing, and the look below misses.
            let rewritten = !self.is_quarantined()
                && self.events.fire_armed(fid, record.owner, |current, fired, kept| {
                    self.patched(current, fired, kept, ops)
                });
            if rewritten {
                if let Some(cell) = self.cell(fid) {
                    cell.add_rules_installed(1);
                    cell.add_rule_rewrites(1);
                }
            }
            self.flows.get(fid)?.rule.clone().map(Cow::Owned)
        });
        if let Some(rule) = &served {
            rule.record_hit();
        }
        served
    }

    /// [`GlobalMat::serve`] for a flow by FID: one record lookup, then the
    /// armed events' signal check. Returns the up-to-date rule, or `None`
    /// if the flow has no rule installed. Counts the lookup's hit or miss
    /// on the hub's shard for `fid`: this is the entry for callers that
    /// own no packet lane (probes, tests, benchmark replicas).
    pub fn prepare(&self, fid: Fid, ops: &mut OpCounter) -> Option<Arc<GlobalRule>> {
        let record = self.flows.get(fid);
        let served = self.serve(fid, record.as_deref(), ops).map(Cow::into_owned);
        self.count_lookup(fid, served.is_some());
        served
    }

    /// Counts a fast-path lookup's hit or miss on `fid`'s shard.
    fn count_lookup(&self, fid: Fid, hit: bool) {
        if let Some(cell) = self.cell(fid) {
            if hit {
                cell.add_fastpath_hits(1);
            } else {
                cell.add_fastpath_misses(1);
            }
        }
    }

    /// A human-readable dump of every installed rule — the operator's view
    /// of the fast path (flow, consolidated action, batches, schedule,
    /// hits).
    #[must_use]
    pub fn dump(&self) -> String {
        use std::fmt::Write as _;
        let mut rules: Vec<(Fid, Arc<GlobalRule>)> = Vec::new();
        self.flows.for_each(|fid, record, _touch| {
            rules.extend(record.rule.as_ref().map(|rule| (fid, Arc::clone(rule))));
        });
        rules.sort_by_key(|(fid, _)| *fid);
        let mut out = String::new();
        let _ = writeln!(out, "global MAT: {} rule(s)", rules.len());
        for (fid, r) in &rules {
            let consolidated = r.action();
            let action = if consolidated.is_drop() {
                "drop".to_owned()
            } else if consolidated.is_noop() {
                "forward".to_owned()
            } else {
                let fields: Vec<String> =
                    consolidated.modifies().iter().map(|(f, _)| f.to_string()).collect();
                let mut a = format!("modify({})", fields.join(","));
                if consolidated.net_decaps() > 0 || !consolidated.net_encaps().is_empty() {
                    let _ = write!(
                        a,
                        " decap x{} encap x{}",
                        consolidated.net_decaps(),
                        consolidated.net_encaps().len()
                    );
                }
                a
            };
            let batch_names: Vec<String> =
                r.batches.iter().map(|b| format!("{}[{}]", b.nf, b.access())).collect();
            let _ = writeln!(
                out,
                "  {fid}: {action}; batches=[{}] waves={:?} hits={}",
                batch_names.join(", "),
                r.schedule,
                r.hits()
            );
        }
        out
    }

    /// Processes a subsequent packet entirely on the fast path: event
    /// check, consolidated header action, then sequential state-function
    /// execution. Like [`GlobalMat::prepare`], counts the lookup's hit or
    /// miss, and the compiled hit or fallback, on the hub's shards.
    ///
    /// # Errors
    /// Returns [`MatError::Packet`] if header surgery fails (should not
    /// happen for rules recorded from valid packets).
    pub fn process(&self, packet: &mut Packet, ops: &mut OpCounter) -> Result<FastPathOutcome> {
        let fid = packet.fid().ok_or(MatError::InvalidActionSequence("packet has no FID"))?;
        let record = self.flows.get(fid);
        let served = self.serve(fid, record.as_deref(), ops);
        self.count_lookup(fid, served.is_some());
        let Some(rule) = served else {
            return Ok(FastPathOutcome::NoRule);
        };
        if !self.apply_rule(&rule, fid, packet, ops)? {
            return Ok(FastPathOutcome::Dropped);
        }
        rule.execute_batches(packet, fid, ops);
        Ok(FastPathOutcome::Forwarded)
    }
}

#[cfg(test)]
mod tests {
    use std::net::Ipv4Addr;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

    use speedybox_packet::{HeaderField, PacketBuilder};

    use super::*;
    use crate::action::HeaderAction;
    use crate::event::{Event, RulePatch, Signal};
    use crate::local::NfId;
    use crate::state_fn::{PayloadAccess, StateFunction};

    fn mats(n: usize) -> Vec<Arc<LocalMat>> {
        (0..n).map(|i| Arc::new(LocalMat::new(NfId::new(i)))).collect()
    }

    fn pkt_with_fid() -> (Packet, Fid) {
        let mut p = PacketBuilder::tcp()
            .src("10.0.0.1:1000".parse().unwrap())
            .dst("10.0.0.2:80".parse().unwrap())
            .payload(b"data")
            .build();
        let fid = p.five_tuple().unwrap().fid();
        p.set_fid(fid);
        (p, fid)
    }

    #[test]
    fn no_rule_routes_to_slow_path() {
        let gm = GlobalMat::new(mats(1));
        let (mut p, _) = pkt_with_fid();
        let mut ops = OpCounter::default();
        assert_eq!(gm.process(&mut p, &mut ops).unwrap(), FastPathOutcome::NoRule);
    }

    #[test]
    fn packet_without_fid_is_an_error() {
        let gm = GlobalMat::new(mats(1));
        let mut p = PacketBuilder::tcp().build();
        let mut ops = OpCounter::default();
        assert!(gm.process(&mut p, &mut ops).is_err());
    }

    #[test]
    fn quarantine_refuses_publication_until_all_bits_clear() {
        let locals = mats(2);
        let gm = GlobalMat::new(locals.clone());
        let (_, fid) = pkt_with_fid();
        let mut ops = OpCounter::default();
        locals[0].add_header_action(fid, HeaderAction::Forward, &mut ops);
        assert!(!gm.is_quarantined());
        gm.quarantine_nf(1);
        gm.quarantine_nf(0);
        assert_eq!(gm.quarantine_mask(), 0b11);
        gm.install(fid, &mut ops);
        assert!(!gm.contains(fid), "install refused while quarantined");
        // One NF recovering is not enough — the rule embeds all NFs.
        gm.unquarantine_nf(1);
        gm.install(fid, &mut ops);
        assert!(!gm.contains(fid));
        gm.unquarantine_nf(0);
        assert!(!gm.is_quarantined());
        gm.install(fid, &mut ops);
        assert!(gm.contains(fid), "publication resumes after full recovery");
        // Out-of-range positions alias onto bit 63 rather than panicking.
        gm.quarantine_nf(200);
        assert_eq!(gm.quarantine_mask(), 1u64 << 63);
        gm.unquarantine_nf(200);
        assert!(!gm.is_quarantined());
    }

    #[test]
    fn install_consolidates_chain_order() {
        let locals = mats(2);
        let gm = GlobalMat::new(locals.clone());
        let (mut p, fid) = pkt_with_fid();
        let mut ops = OpCounter::default();
        locals[0].add_header_action(
            fid,
            HeaderAction::modify(HeaderField::DstIp, Ipv4Addr::new(1, 1, 1, 1)),
            &mut ops,
        );
        locals[1].add_header_action(
            fid,
            HeaderAction::modify(HeaderField::DstIp, Ipv4Addr::new(2, 2, 2, 2)),
            &mut ops,
        );
        gm.install(fid, &mut ops);
        assert_eq!(gm.process(&mut p, &mut ops).unwrap(), FastPathOutcome::Forwarded);
        // Latter NF's modify wins.
        assert_eq!(p.get_field(HeaderField::DstIp).unwrap().as_ipv4(), Ipv4Addr::new(2, 2, 2, 2));
        assert_eq!(ops.consolidations, 1);
    }

    #[test]
    fn drop_rule_drops_early() {
        let locals = mats(3);
        let gm = GlobalMat::new(locals.clone());
        let (mut p, fid) = pkt_with_fid();
        let mut ops = OpCounter::default();
        // {forward, forward, drop} — Table III's early-drop scenario.
        locals[0].add_header_action(fid, HeaderAction::Forward, &mut ops);
        locals[1].add_header_action(fid, HeaderAction::Forward, &mut ops);
        locals[2].add_header_action(fid, HeaderAction::Drop, &mut ops);
        // A state function that must NOT run for dropped packets.
        let ran = Arc::new(AtomicBool::new(false));
        let r = ran.clone();
        locals[0].add_state_function(
            fid,
            StateFunction::new("sf", PayloadAccess::Ignore, move |_| {
                r.store(true, Ordering::Relaxed);
            }),
            &mut ops,
        );
        gm.install(fid, &mut ops);
        assert_eq!(gm.process(&mut p, &mut ops).unwrap(), FastPathOutcome::Dropped);
        assert!(!ran.load(Ordering::Relaxed), "SFs must not run after early drop");
        assert_eq!(ops.drops, 1);
    }

    #[test]
    fn state_function_batches_execute_in_chain_order() {
        let locals = mats(2);
        let gm = GlobalMat::new(locals.clone());
        let (mut p, fid) = pkt_with_fid();
        let mut ops = OpCounter::default();
        let order = Arc::new(parking_lot::Mutex::new(Vec::new()));
        for (i, local) in locals.iter().enumerate() {
            let o = order.clone();
            local.add_state_function(
                fid,
                StateFunction::new(format!("sf{i}"), PayloadAccess::Ignore, move |_| {
                    o.lock().push(i);
                }),
                &mut ops,
            );
        }
        gm.install(fid, &mut ops);
        gm.process(&mut p, &mut ops).unwrap();
        assert_eq!(*order.lock(), vec![0, 1]);
    }

    #[test]
    fn event_patches_rule_and_reconsolidates() {
        // The paper's Fig 3 DoS-prevention workflow: modify -> drop once a
        // counter crosses its threshold.
        let locals = mats(1);
        let gm = GlobalMat::new(locals.clone());
        let (_, fid) = pkt_with_fid();
        let mut ops = OpCounter::default();
        let counter = Arc::new(AtomicU64::new(0));
        let signal = Signal::new();
        locals[0].add_header_action(
            fid,
            HeaderAction::modify(HeaderField::DstIp, Ipv4Addr::new(7, 7, 7, 7)),
            &mut ops,
        );
        let (c, s) = (counter.clone(), signal.clone());
        locals[0].add_state_function(
            fid,
            StateFunction::new("count", PayloadAccess::Ignore, move |ctx| {
                // The count crossing the threshold is the one change that
                // can turn the condition true: raise on it.
                if c.fetch_add(1, Ordering::Relaxed) + 1 == 4 {
                    s.raise();
                }
                ctx.ops.state_updates += 1;
            }),
            &mut ops,
        );
        let c2 = counter;
        gm.events().register(Event::new(
            fid,
            NfId::new(0),
            "dos-threshold",
            signal,
            move |_| c2.load(Ordering::Relaxed) > 3,
            |_| RulePatch::set_action(HeaderAction::Drop),
        ));
        gm.install(fid, &mut ops);

        let mut forwarded = 0;
        let mut dropped = 0;
        for _ in 0..10 {
            let (mut p, _) = pkt_with_fid();
            match gm.process(&mut p, &mut ops).unwrap() {
                FastPathOutcome::Forwarded => forwarded += 1,
                FastPathOutcome::Dropped => dropped += 1,
                FastPathOutcome::NoRule => panic!("rule installed"),
            }
        }
        // Counter increments only while packets are forwarded; the fourth
        // packet's increment crosses 3 and raises the signal, so the fifth
        // packet's check fires the event, which flips the rule to drop.
        assert_eq!(forwarded, 4);
        assert_eq!(dropped, 6);
        // Re-consolidation happened exactly once (one-shot event).
        assert_eq!(ops.consolidations, 2);
    }

    #[test]
    fn remove_flow_cleans_all_tables() {
        let locals = mats(2);
        let gm = GlobalMat::new(locals.clone());
        let (_, fid) = pkt_with_fid();
        let mut ops = OpCounter::default();
        locals[0].add_header_action(fid, HeaderAction::Forward, &mut ops);
        gm.events().register(Event::new(
            fid,
            NfId::new(0),
            "e",
            Signal::new(),
            |_| false,
            |_| RulePatch::default(),
        ));
        gm.install(fid, &mut ops);
        assert!(gm.contains(fid));
        // Install moved the recording and the event into the rule.
        assert!(locals[0].is_empty() && gm.events().is_empty(), "install drains the staging");
        let rule = gm.rule(fid).expect("installed");
        assert_eq!(rule.header_actions(), [(NfId::new(0), HeaderAction::Forward)]);
        assert_eq!(rule.armed().len(), 1);
        drop(rule);
        gm.remove_flow(fid);
        assert!(!gm.contains(fid));
        assert!(locals[0].rule(fid).is_none());
        assert!(gm.events().is_empty());
        assert!(gm.is_empty());
        // The record held the flow's only recordings and armed events, and
        // it is gone: nothing of the flow survives the teardown.
        assert!(gm.record(fid).is_none(), "the owner-less record leaves with its rule");
    }

    #[test]
    fn install_drains_staging_even_when_refused() {
        let locals = mats(1);
        let gm = GlobalMat::new(locals.clone());
        let (_, fid) = pkt_with_fid();
        let mut ops = OpCounter::default();
        let stage = |gm: &GlobalMat, ops: &mut OpCounter| {
            locals[0].add_header_action(fid, HeaderAction::Drop, ops);
            let event = Event::new(
                fid,
                NfId::new(0),
                "e",
                Signal::new(),
                |_| false,
                |_| RulePatch::default(),
            );
            gm.events().register(event);
        };
        stage(&gm, &mut ops);
        gm.quarantine_nf(0);
        gm.install(fid, &mut ops);
        assert!(!gm.contains(fid));
        assert!(locals[0].is_empty() && gm.events().is_empty(), "a refused install drains");
        gm.unquarantine_nf(0);
        // Nothing stale doubles up the next walk's recordings.
        stage(&gm, &mut ops);
        gm.install(fid, &mut ops);
        let rule = gm.rule(fid).expect("installed");
        assert_eq!(rule.header_actions().len(), 1);
        assert_eq!(rule.armed().len(), 1);
    }

    #[test]
    fn two_firings_compose_and_a_fired_one_shot_is_disarmed() {
        // One one-shot event per NF, each patching its own NF's recording.
        // The second firing's patch applies to the recordings the first
        // one rewrote, and each republished rule leaves its fired event
        // out.
        let locals = mats(2);
        let gm = GlobalMat::new(locals.clone());
        let (_, fid) = pkt_with_fid();
        let mut ops = OpCounter::default();
        let signal = Signal::new();
        let second = Arc::new(AtomicBool::new(false));
        for (i, local) in locals.iter().enumerate() {
            local.add_header_action(fid, HeaderAction::Forward, &mut ops);
            let port = 1000 + u16::try_from(i).expect("two NFs");
            let holds = Arc::clone(&second);
            gm.events().register(Event::new(
                fid,
                NfId::new(i),
                "flip",
                signal.clone(),
                move |_| i == 0 || holds.load(Ordering::Relaxed),
                move |_| RulePatch::set_action(HeaderAction::modify(HeaderField::DstPort, port)),
            ));
        }
        gm.install(fid, &mut ops);
        let (mut p, _) = pkt_with_fid();
        gm.process(&mut p, &mut ops).unwrap();
        let rule = gm.rule(fid).expect("rewritten");
        assert_eq!(rule.armed().len(), 1, "the fired one-shot event is not re-armed");
        assert_eq!(p.get_field(HeaderField::DstPort).unwrap().as_port(), 1000);
        second.store(true, Ordering::Relaxed);
        signal.raise();
        let (mut p, _) = pkt_with_fid();
        gm.process(&mut p, &mut ops).unwrap();
        let rule = gm.rule(fid).expect("rewritten");
        assert!(rule.armed().is_empty());
        let modify = |port: u16| HeaderAction::modify(HeaderField::DstPort, port);
        assert_eq!(
            rule.header_actions(),
            [(NfId::new(0), modify(1000)), (NfId::new(1), modify(1001))],
            "both patches hold"
        );
        assert_eq!(p.get_field(HeaderField::DstPort).unwrap().as_port(), 1001, "latter NF wins");
    }

    #[test]
    fn hits_and_dump_reflect_traffic() {
        let locals = mats(2);
        let gm = GlobalMat::new(locals.clone());
        let (_, fid) = pkt_with_fid();
        let mut ops = OpCounter::default();
        locals[0].add_header_action(
            fid,
            HeaderAction::modify(HeaderField::DstIp, Ipv4Addr::new(1, 2, 3, 4)),
            &mut ops,
        );
        locals[1].add_state_function(
            fid,
            StateFunction::new("count", PayloadAccess::Ignore, |_| {}),
            &mut ops,
        );
        gm.install(fid, &mut ops);
        assert_eq!(gm.rule(fid).unwrap().hits(), 0);
        for _ in 0..3 {
            let (mut p, _) = pkt_with_fid();
            gm.process(&mut p, &mut ops).unwrap();
        }
        assert_eq!(gm.rule(fid).unwrap().hits(), 3);
        let dump = gm.dump();
        assert!(dump.contains("1 rule(s)"), "{dump}");
        assert!(dump.contains("modify(DIP)"), "{dump}");
        assert!(dump.contains("hits=3"), "{dump}");
        assert!(dump.contains("nf1[ignore]"), "{dump}");
    }

    #[test]
    fn dump_of_empty_mat() {
        let gm = GlobalMat::new(mats(1));
        assert!(gm.dump().contains("0 rule(s)"));
    }

    #[test]
    fn sf_inside_annihilated_tunnel_sees_positional_length() {
        // vpn-encap -> length-reading SF -> vpn-decap. Consolidation
        // annihilates the encap/decap pair, so the fast-path packet never
        // carries the AH — but the SF must still observe the mid-tunnel
        // (encapsulated) frame length it would have seen on the original
        // path.
        use crate::action::EncapSpec;
        let locals = mats(3);
        let gm = GlobalMat::new(locals.clone());
        let (mut p, fid) = pkt_with_fid();
        let plain_len = p.len();
        let mut ops = OpCounter::default();
        locals[0].add_header_action(fid, HeaderAction::Encap(EncapSpec::new(7)), &mut ops);
        let seen = Arc::new(AtomicU64::new(0));
        let s = seen.clone();
        locals[1].add_state_function(
            fid,
            StateFunction::new("len", PayloadAccess::Ignore, move |ctx| {
                s.store(ctx.frame_len() as u64, Ordering::Relaxed);
            }),
            &mut ops,
        );
        locals[2].add_header_action(fid, HeaderAction::Decap(EncapSpec::new(7)), &mut ops);
        gm.install(fid, &mut ops);
        let rule = gm.rule(fid).unwrap();
        assert!(rule.consolidated().is_noop(), "encap/decap pair annihilates");
        assert_eq!(rule.batches[0].len_adjust, speedybox_packet::headers::AH_LEN as i64);
        assert_eq!(gm.process(&mut p, &mut ops).unwrap(), FastPathOutcome::Forwarded);
        assert_eq!(p.len(), plain_len, "egress frame is unencapsulated");
        assert_eq!(
            seen.load(Ordering::Relaxed),
            (plain_len + speedybox_packet::headers::AH_LEN) as u64,
            "SF observes the mid-tunnel length"
        );
    }

    #[test]
    fn sf_after_surviving_encap_needs_no_adjustment() {
        // An unmatched encap survives consolidation, so a downstream SF
        // sees the encapsulated egress frame directly: adjust = 0.
        use crate::action::EncapSpec;
        let locals = mats(2);
        let gm = GlobalMat::new(locals.clone());
        let (mut p, fid) = pkt_with_fid();
        let plain_len = p.len();
        let mut ops = OpCounter::default();
        locals[0].add_header_action(fid, HeaderAction::Encap(EncapSpec::new(9)), &mut ops);
        let seen = Arc::new(AtomicU64::new(0));
        let s = seen.clone();
        locals[1].add_state_function(
            fid,
            StateFunction::new("len", PayloadAccess::Ignore, move |ctx| {
                s.store(ctx.frame_len() as u64, Ordering::Relaxed);
            }),
            &mut ops,
        );
        gm.install(fid, &mut ops);
        let rule = gm.rule(fid).unwrap();
        assert_eq!(rule.batches[0].len_adjust, 0);
        assert_eq!(gm.process(&mut p, &mut ops).unwrap(), FastPathOutcome::Forwarded);
        assert_eq!(
            seen.load(Ordering::Relaxed),
            (plain_len + speedybox_packet::headers::AH_LEN) as u64
        );
    }

    #[test]
    fn schedule_is_precomputed() {
        let locals = mats(3);
        let gm = GlobalMat::new(locals.clone());
        let (_, fid) = pkt_with_fid();
        let mut ops = OpCounter::default();
        for local in &locals {
            local.add_state_function(
                fid,
                StateFunction::new("read", PayloadAccess::Read, |_| {}),
                &mut ops,
            );
        }
        gm.install(fid, &mut ops);
        let rule = gm.rule(fid).unwrap();
        // Three READ batches form a single parallel wave.
        assert_eq!(rule.schedule, vec![vec![0, 1, 2]]);
    }
}
