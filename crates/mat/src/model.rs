//! Model-checkable ports of the concurrency-critical MAT protocols, built
//! on `speedybox-check`'s virtual primitives so the checker can
//! exhaustively enumerate interleavings within a preemption bound.
//!
//! Four protocols are distilled here:
//!
//! * [`FlowTableModel`] — the slab slot protocol of
//!   [`crate::flow_table::FlowTable`], shrunk to one shard, two FIDs and
//!   two slots but keeping every step that matters for the races: the
//!   direct FID index (`AtomicU32` holding slot + 1), the per-slot RCU
//!   value cell, the owner check on lookup, the shared-empty store that
//!   retires cleared values, the free-list recycle, and the writer mutex
//!   that serializes all structural changes. The proved invariants are the
//!   eviction-vs-rewrite atomicity of
//!   [`crate::flow_table::FlowTable::republish`] (a rewrite that loses to
//!   an eviction must not resurrect the entry) and index/slot agreement
//!   across slab recycling under a concurrent wait-free reader.
//! * [`FireModel`] — the event-fire path of the flow record
//!   ([`crate::record::FlowRecord`]), where the record is the only home of
//!   the flow's armed events and recordings: readers check the events
//!   armed in the record they hold without a lock, and a raised one fires
//!   under the Event Table lock, which re-checks the events armed in the
//!   *current* record and republishes it with the patch applied in the
//!   same critical section ([`crate::event::EventTable`]). The proved
//!   invariants are that a one-shot event fires once however many
//!   readers of one record see it raised, and that two firings compose:
//!   neither patch is lost.
//! * [`RaiseModel`] — the signal protocol behind that check
//!   ([`crate::event::Signal`]): an NF raising its signal inside the
//!   critical section that turns a condition true, racing a re-check
//!   that reads the signal, evaluates the condition and remembers the
//!   value it read, and a fast-path reader comparing the two. The proved
//!   invariant is that no raise is lost: once the condition holds, the
//!   flow's next packet fires the event.
//! * [`QuarantineModel`] — the NF-recovery quarantine/republish
//!   handshake of [`crate::global::GlobalMat::quarantine_nf`] and the
//!   platform supervisor's kill path: quarantine → sweep → restore →
//!   replay → reopen → republish, raced by a wait-free fast-path reader
//!   and a churn install. The proved invariant is that no reader ever
//!   serves a rule consolidated from restored-but-not-replayed NF state.
//!
//! Each model carries seeded-bug mutations ([`FtMutation`],
//! [`FireMutation`], [`RaiseMutation`], [`QMutation`]) that weaken the
//! protocol the way a plausible
//! refactoring would; the checker must catch every one, which is the
//! evidence a clean run means something. The correspondence argument
//! between these distillations and the real code is written out in
//! DESIGN.md §14.

use std::sync::Arc as StdArc;

use arcswap::model::{ArcSwapModel, Mutation as CellMutation};
use speedybox_check::{fact, ModelArc, ModelAtomicU64, ModelAtomicUsize, ModelMutex, Ordering};

/// FIDs used by the distilled flow-table model.
const FIDS: usize = 2;
/// Slab slots. Two are enough to express recycling.
const SLOTS: usize = 2;

/// A slot's published state: empty, or `(owner fid, value)` — the model
/// twin of `flow_table::SlotVal`.
type SlotVal = Option<(usize, u64)>;

/// Seeded bugs for the flow-table slot protocol.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FtMutation {
    /// Faithful port of the shipped protocol.
    None,
    /// `republish` releases the writer lock between its index check and
    /// its store — the TOCTOU a "shorten the critical section"
    /// refactoring would introduce. A rewrite can then lose to an
    /// eviction yet still publish, resurrecting the entry into a freed
    /// (and recyclable) slot.
    ToctouReplace,
    /// `clear_slot` forgets to reset the FID index cell, leaving the
    /// index pointing at an empty (and soon recycled) slot.
    SkipIndexReset,
}

/// Mutable shard-writer state, serialized behind the writer mutex —
/// the model twin of `flow_table::ShardWriter` (no timer wheel: recency
/// is not part of the proved invariants).
struct Writer {
    free: Vec<usize>,
    allocated: usize,
    live: usize,
}

/// Distilled one-shard [`crate::flow_table::FlowTable`]. See module docs
/// for what is kept and what is elided.
pub struct FlowTableModel {
    /// `index[fid]` holds slot + 1, or 0 when the FID is absent — the
    /// model twin of the `AtomicU32` FID-index cells.
    index: [ModelAtomicUsize; FIDS],
    /// Slot value cells, each the model twin of `Slot::val`.
    slots: [ArcSwapModel<SlotVal>; SLOTS],
    writer: ModelMutex<Writer>,
    /// Shared empty value: clearing a slot stores a clone of this, which
    /// retires the old `(fid, value)` through the slot's RCU path —
    /// exactly like `FlowTable::empty`.
    empty: ModelArc<SlotVal>,
    mutation: FtMutation,
}

impl std::fmt::Debug for FlowTableModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlowTableModel").field("mutation", &self.mutation).finish_non_exhaustive()
    }
}

impl FlowTableModel {
    /// Creates the empty distilled table (must run inside a checker
    /// execution).
    pub fn new(mutation: FtMutation) -> Self {
        FlowTableModel {
            index: [ModelAtomicUsize::new("ft.index0", 0), ModelAtomicUsize::new("ft.index1", 0)],
            slots: [
                ArcSwapModel::new("ft.slot0.empty", None, CellMutation::None),
                ArcSwapModel::new("ft.slot1.empty", None, CellMutation::None),
            ],
            writer: ModelMutex::new(
                "ft.writer",
                Writer { free: Vec::new(), allocated: 0, live: 0 },
            ),
            empty: ModelArc::new("ft.empty", None),
            mutation,
        }
    }

    /// Mirror of `FlowTable::lookup`: index load, slot cell load, owner
    /// check. Wait-free — never touches the writer mutex.
    pub fn lookup(&self, fid: usize) -> Option<u64> {
        let slot_plus_one = self.index[fid].load(Ordering::SeqCst);
        if slot_plus_one == 0 {
            return None;
        }
        let val = self.slots[slot_plus_one - 1].load();
        match val.value() {
            // Owner check: the slot may have been recycled to a different
            // FID between the index load and the cell load; a mismatch
            // linearizes as "absent".
            Some((owner, value)) if *owner == fid => Some(*value),
            _ => None,
        }
    }

    /// Mirror of `FlowTable::insert` (fresh-entry path plus in-place
    /// replace), minus capacity/eviction policy.
    pub fn insert(&self, fid: usize, value: u64) {
        let mut w = self.writer.lock();
        let slot_plus_one = self.index[fid].load(Ordering::SeqCst);
        if slot_plus_one != 0 {
            // In-place replace: the old value retires through the slot's
            // RCU cell.
            self.slots[slot_plus_one - 1].store(ModelArc::new("ft.val", Some((fid, value))));
            return;
        }
        let slot = w.free.pop().unwrap_or_else(|| {
            let s = w.allocated;
            w.allocated += 1;
            s
        });
        // Publish order matters and matches `FlowTable::publish`: value
        // first, then the index — a reader racing the index store must
        // find either nothing or the fully published entry.
        self.slots[slot].store(ModelArc::new("ft.val", Some((fid, value))));
        self.index[fid].store(slot + 1, Ordering::SeqCst);
        w.live += 1;
    }

    /// Mirror of `FlowTable::remove` / the eviction half of `clear_slot`.
    pub fn remove(&self, fid: usize) -> bool {
        let mut w = self.writer.lock();
        let slot_plus_one = self.index[fid].load(Ordering::SeqCst);
        if slot_plus_one == 0 {
            return false;
        }
        self.clear_slot(&mut w, fid, slot_plus_one - 1);
        true
    }

    /// Mirror of `FlowTable::clear_slot`: store the shared empty (which
    /// retires the old value through the RCU path), reset the index,
    /// recycle the slot. Caller holds the writer lock.
    fn clear_slot(&self, w: &mut Writer, fid: usize, slot: usize) {
        self.slots[slot].store(self.empty.clone());
        if self.mutation != FtMutation::SkipIndexReset {
            self.index[fid].store(0, Ordering::SeqCst);
        }
        w.free.push(slot);
        w.live -= 1;
    }

    /// Mirror of `FlowTable::republish`: replace the entry only if the
    /// flow is still present, atomically with respect to evictions — the
    /// primitive that keeps a lost rewrite from resurrecting a rule whose
    /// Local MATs were already torn down.
    pub fn republish(&self, fid: usize, value: u64) -> bool {
        if self.mutation == FtMutation::ToctouReplace {
            // Seeded bug: check and store in separate critical sections.
            let slot = {
                let _w = self.writer.lock();
                let slot_plus_one = self.index[fid].load(Ordering::SeqCst);
                if slot_plus_one == 0 {
                    return false;
                }
                slot_plus_one - 1
            };
            let _w = self.writer.lock();
            self.slots[slot].store(ModelArc::new("ft.val", Some((fid, value))));
            return true;
        }
        let _w = self.writer.lock();
        let slot_plus_one = self.index[fid].load(Ordering::SeqCst);
        if slot_plus_one == 0 {
            return false;
        }
        self.slots[slot_plus_one - 1].store(ModelArc::new("ft.val", Some((fid, value))));
        true
    }

    /// Quiescent-state invariant: the index and the slots agree. Checked
    /// by scenarios after all racing threads joined, so a violation means
    /// a race left the table permanently inconsistent (not merely a
    /// transiently stale view).
    pub fn check_consistency(&self) {
        for fid in 0..FIDS {
            let slot_plus_one = self.index[fid].load(Ordering::SeqCst);
            if slot_plus_one == 0 {
                continue;
            }
            let val = self.slots[slot_plus_one - 1].load();
            match val.value() {
                Some((owner, _)) => {
                    assert_eq!(*owner, fid, "index[{fid}] points at a slot owned by fid {owner}")
                }
                None => panic!("index[{fid}] points at an empty slot"),
            }
        }
        for slot in 0..SLOTS {
            let val = self.slots[slot].load();
            if let Some((owner, _)) = val.value() {
                assert_eq!(
                    self.index[*owner].load(Ordering::SeqCst),
                    slot + 1,
                    "slot {slot} holds fid {owner} but the index does not point at it \
                     (resurrected entry)"
                );
            }
        }
    }

    /// Retired slot values not yet reclaimed, summed over the slots — the
    /// model twin of `FlowTable::pending_generations`.
    pub fn pending_generations(&self) -> usize {
        self.slots.iter().map(ArcSwapModel::pending).sum()
    }

    /// Model twin of `FlowTable::collect_generations`.
    pub fn collect_generations(&self) -> usize {
        self.slots.iter().map(ArcSwapModel::collect).sum()
    }
}

/// Seeded bugs for the flow record's event-fire path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FireMutation {
    /// Faithful port: a reader that found an armed event raised fires it
    /// under the Event Table lock, re-checking the current record and
    /// republishing it inside the critical section.
    None,
    /// The reader fires from its own record snapshot and skips the
    /// re-check — the "the condition already held, why look again"
    /// shortcut. Two readers of one record then both fire a one-shot
    /// event.
    SnapshotFire,
    /// The re-check runs under the lock, but the patch is applied to the
    /// record read there and republished after the lock is released — the
    /// "consolidation is slow, do it outside" shortcut. Of two concurrent
    /// firings, the later republication overwrites the earlier one's
    /// patch.
    PatchOutsideLock,
}

/// Distilled flow record whose armed one-shot events are raised: the model
/// twin of the record's RCU slot — a bitmask of the patches its
/// recordings carry and a bitmask of the events armed in its rule — plus
/// the Event Table lock. A reader serving event `e` models a packet whose
/// check found `e` raised and whose re-check finds `e`'s condition holding
/// (and no other armed event's).
pub struct FireModel {
    record: ArcSwapModel<(u8, u8)>,
    /// The Event Table lock.
    events: ModelMutex<()>,
    /// Patches applied: one per firing.
    fired: ModelAtomicUsize,
    mutation: FireMutation,
}

impl std::fmt::Debug for FireModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FireModel").field("mutation", &self.mutation).finish_non_exhaustive()
    }
}

impl FireModel {
    /// Creates the record with no patch applied and the events in `armed`
    /// armed (must run inside a checker execution).
    pub fn new(mutation: FireMutation, armed: u8) -> Self {
        FireModel {
            record: ArcSwapModel::new("rec.armed", (0, armed), CellMutation::None),
            events: ModelMutex::new("events", ()),
            fired: ModelAtomicUsize::new("fired", 0),
            mutation,
        }
    }

    /// Fires `event` in `record`: its patch applied and the one-shot
    /// event left out of the republished rule.
    fn fire(&self, (patched, armed): (u8, u8), event: u8) {
        self.fired.fetch_add(1, Ordering::SeqCst);
        self.record.store(ModelArc::new("rec.rewritten", (patched | event, armed & !event)));
    }

    /// Mirror of `GlobalMat::serve` for one packet: load the record, find
    /// `event` armed and raised lock-free, and fire it through
    /// `EventTable::fire_armed`.
    pub fn serve(&self, event: u8) {
        let snapshot = *self.record.load().value();
        if snapshot.1 & event == 0 {
            fact("reader held the rewritten record");
            return;
        }
        match self.mutation {
            FireMutation::None => {
                let _lock = self.events.lock();
                let current = *self.record.load().value();
                if current.1 & event == 0 {
                    fact("re-check found the event already fired");
                    return;
                }
                self.fire(current, event);
                fact("reader fired the event");
            }
            // Seeded bug: the snapshot's raised event decides alone.
            FireMutation::SnapshotFire => self.fire(snapshot, event),
            // Seeded bug: the republication leaves the critical section.
            FireMutation::PatchOutsideLock => {
                let current = {
                    let _lock = self.events.lock();
                    *self.record.load().value()
                };
                if current.1 & event != 0 {
                    self.fire(current, event);
                }
            }
        }
    }
}

/// Seeded bugs for the signal raise / re-check protocol.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RaiseMutation {
    /// Faithful port: the re-check reads the signal, then evaluates the
    /// condition, and remembers the value it read.
    None,
    /// The re-check remembers a signal value loaded after evaluating the
    /// condition — the "remember the freshest value" refactoring. A raise
    /// that lands between the two is absorbed into the remembered value,
    /// and the event never fires.
    LoadAfterCheck,
}

/// Distilled signal protocol for one flow with one armed one-shot event:
/// the model twin of an NF's [`crate::event::Signal`] and the state its
/// condition reads (behind the NF's lock), the event's remembered value,
/// and the Event Table's registration behind its write lock. The model
/// starts with a spurious raise pending — the signal one ahead of the
/// remembered value while the condition is false — so a reader is on its
/// way into the re-check when the NF turns the condition true.
pub struct RaiseModel {
    /// The signal's epoch counter.
    signal: ModelAtomicU64,
    /// The NF state the condition reads: it holds once this is true.
    nf_state: ModelMutex<bool>,
    /// The event's remembered signal value.
    seen: ModelAtomicU64,
    /// Whether the one-shot event is still registered.
    registered: ModelMutex<bool>,
    /// Patches applied: one per firing.
    fired: ModelAtomicUsize,
    mutation: RaiseMutation,
}

impl std::fmt::Debug for RaiseModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RaiseModel").field("mutation", &self.mutation).finish_non_exhaustive()
    }
}

impl RaiseModel {
    /// Creates the armed event with a spurious raise pending (must run
    /// inside a checker execution).
    pub fn new(mutation: RaiseMutation) -> Self {
        RaiseModel {
            signal: ModelAtomicU64::new("signal", 1),
            nf_state: ModelMutex::new("nf-state", false),
            seen: ModelAtomicU64::new("seen", 0),
            registered: ModelMutex::new("events", true),
            fired: ModelAtomicUsize::new("fired", 0),
            mutation,
        }
    }

    /// Mirror of an NF turning the condition true: the state change and
    /// `Signal::raise` in one critical section.
    pub fn raise(&self) {
        let mut state = self.nf_state.lock();
        *state = true;
        self.signal.fetch_add(1, Ordering::Release);
    }

    /// Mirror of `GlobalMat::serve`'s check: a lock-free compare of the
    /// signal with the remembered value; a mismatch goes to the re-check.
    pub fn serve(&self) {
        self.serve_with(Ordering::Acquire, Ordering::Relaxed);
    }

    /// [`RaiseModel::serve`] for a packet arriving once every earlier
    /// store is visible (the checker's `SeqCst` loads read the newest
    /// store): the flow's next packet after the race. A weaker load may
    /// keep reading a value from before the raise, which delays the
    /// event by packets but cannot lose it.
    pub fn serve_next(&self) {
        self.serve_with(Ordering::SeqCst, Ordering::SeqCst);
    }

    fn serve_with(&self, signal: Ordering, seen: Ordering) {
        if self.signal.load(signal) == self.seen.load(seen) {
            fact("reader saw no raise");
        } else {
            self.fire();
        }
    }

    /// Mirror of `EventTable::fire`'s re-check (`Event::check`), under
    /// the write lock.
    fn fire(&self) {
        let mut registered = self.registered.lock();
        if !*registered {
            fact("re-check found the event already fired");
            return;
        }
        let (value, holds) = match self.mutation {
            RaiseMutation::None => {
                let value = self.signal.load(Ordering::Acquire);
                (value, *self.nf_state.lock())
            }
            // Seeded bug: the value is loaded after the condition ran.
            RaiseMutation::LoadAfterCheck => {
                let holds = *self.nf_state.lock();
                (self.signal.load(Ordering::Acquire), holds)
            }
        };
        if holds {
            *registered = false;
            self.fired.fetch_add(1, Ordering::SeqCst);
            fact("re-check fired the event");
        } else {
            self.seen.store(value, Ordering::Relaxed);
            fact("re-check remembered the signal");
        }
    }
}

/// NF state epoch at the last chain-consistent checkpoint.
const EPOCH_SNAPSHOT: u64 = 3;
/// NF state epoch after the bounded in-flight log replays — the live,
/// fully recovered state.
const EPOCH_LIVE: u64 = 5;

/// Seeded bugs for the NF-recovery quarantine/republish handshake.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QMutation {
    /// Faithful port of the recovery protocol: quarantine, sweep,
    /// restore, replay, reopen publication, republish from live state.
    None,
    /// The recovery path republishes the flow's rule right after the
    /// snapshot restore, before the in-flight log replays — the "get the
    /// fast path back up early" refactoring. A reader can then serve a
    /// rule consolidated from half-recovered NF state.
    RepublishBeforeReplay,
}

/// Distilled quarantine/republish handshake for one NF and one flow: the
/// model twin of the Global MAT quarantine mask
/// ([`crate::global::GlobalMat::quarantine_nf`]) plus the supervisor's
/// kill → quarantine → replay → republish sequence. The rule cell
/// carries the NF-state *epoch* the rule was consolidated from, which is
/// all the invariant needs: a published rule is only valid if it was
/// consolidated from fully replayed (live) state.
pub struct QuarantineModel {
    /// Model twin of the quarantine bit mask (`AtomicU64` in the real
    /// MAT; one NF here, so one bit).
    mask: ModelAtomicUsize,
    /// The flow's published rule slot: `None` = swept (fast path misses),
    /// `Some(epoch)` = a rule consolidated from NF state at `epoch`.
    rule: ArcSwapModel<Option<u64>>,
    /// The NF's state, reduced to the epoch it has advanced to — guarded
    /// like the `Arc<Mutex<..>>` state containers of the real NFs.
    nf_state: ModelMutex<u64>,
    /// Shared empty value: sweeping stores a clone of this, retiring the
    /// old rule through the cell's RCU path.
    empty: ModelArc<Option<u64>>,
    mutation: QMutation,
}

impl std::fmt::Debug for QuarantineModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QuarantineModel").field("mutation", &self.mutation).finish_non_exhaustive()
    }
}

impl QuarantineModel {
    /// Creates the steady-state model: live NF state, a rule consolidated
    /// from it already published (must run inside a checker execution).
    pub fn new(mutation: QMutation) -> Self {
        QuarantineModel {
            mask: ModelAtomicUsize::new("q.mask", 0),
            rule: ArcSwapModel::new("q.rule.live", Some(EPOCH_LIVE), CellMutation::None),
            nf_state: ModelMutex::new("q.nf-state", EPOCH_LIVE),
            empty: ModelArc::new("q.empty", None),
            mutation,
        }
    }

    /// Mirror of `GlobalMat::install` under recovery: the quarantine gate
    /// refuses publication while the mask is set; otherwise a rule
    /// consolidated from `epoch` state publishes through the RCU cell.
    pub fn install(&self, epoch: u64) -> bool {
        if self.mask.load(Ordering::SeqCst) != 0 {
            return false;
        }
        self.rule.store(ModelArc::new("q.rule", Some(epoch)));
        true
    }

    /// Mirror of the worker fast path: the per-packet quarantine check
    /// routes to the baseline walk (`None`) while the mask is set;
    /// otherwise the published rule, if any, is served. Wait-free.
    pub fn serve(&self) -> Option<u64> {
        if self.mask.load(Ordering::SeqCst) != 0 {
            return None;
        }
        *self.rule.load().value()
    }

    /// Mirror of the supervisor's kill path: quarantine first, sweep the
    /// published rule, roll the NF back to the checkpoint, replay the
    /// in-flight log, reopen publication, then republish from the
    /// now-live state (the organic slow-path re-record).
    pub fn kill_and_recover(&self) {
        self.mask.store(1, Ordering::SeqCst);
        self.rule.store(self.empty.clone());
        *self.nf_state.lock() = EPOCH_SNAPSHOT;
        if self.mutation == QMutation::RepublishBeforeReplay {
            // Seeded bug: consolidate and republish from the restored
            // state before the in-flight log has replayed.
            let epoch = *self.nf_state.lock();
            self.rule.store(ModelArc::new("q.rule.stale", Some(epoch)));
        }
        *self.nf_state.lock() = EPOCH_LIVE;
        self.mask.store(0, Ordering::SeqCst);
        let epoch = *self.nf_state.lock();
        self.install(epoch);
    }

    /// Quiescent-state invariant: mask clear, state fully replayed, and
    /// the republished rule consolidated from live state.
    pub fn check_quiescent(&self) {
        assert_eq!(self.mask.load(Ordering::SeqCst), 0, "quarantine mask left set");
        assert_eq!(*self.nf_state.lock(), EPOCH_LIVE, "NF state not fully replayed");
        match self.rule.load().value() {
            Some(epoch) => {
                assert_eq!(*epoch, EPOCH_LIVE, "quiescent rule consolidated from epoch {epoch}")
            }
            None => panic!("recovered flow left with no republished rule"),
        }
    }

    /// Retired rule generations not yet reclaimed.
    pub fn pending(&self) -> usize {
        self.rule.pending()
    }

    /// Attempts to reclaim retired generations; returns how many freed.
    pub fn collect(&self) -> usize {
        self.rule.collect()
    }
}

/// Checker scenarios over the MAT models, shared by the `cargo test`
/// exhaustive tier (tests/model_flow_table.rs, tests/model_record.rs —
/// which also runs the raise model — and tests/model_quarantine.rs) and
/// the `speedybox-check` binary.
pub mod scenarios {
    use super::*;

    /// Eviction racing a conditional rewrite on the same flow. In every
    /// schedule the quiescent table must be consistent: either the
    /// rewrite won (entry present, indexed, owned by the flow) or the
    /// eviction won (entry absent, slot free) — never a resurrected
    /// entry in a freed slot. [`FtMutation::ToctouReplace`] must be
    /// caught by the consistency check.
    pub fn ft_evict_vs_rewrite(mutation: FtMutation) -> impl Fn() + Send + Sync + 'static {
        move || {
            let table = StdArc::new(FlowTableModel::new(mutation));
            table.insert(0, 10);
            let t = table.clone();
            let evictor = speedybox_check::spawn(move || {
                if t.remove(0) {
                    fact("eviction won the race");
                }
            });
            let t = table.clone();
            let rewriter = speedybox_check::spawn(move || {
                if t.republish(0, 11) {
                    fact("rewrite found the flow present");
                }
            });
            evictor.join();
            rewriter.join();
            table.check_consistency();
            // Whatever the outcome, retired values must drain now.
            table.collect_generations();
            assert_eq!(table.pending_generations(), 0, "retired backlog not drained");
        }
    }

    /// A wait-free reader racing a remove + insert that recycles the
    /// freed slot for a different flow. The reader must observe its FID's
    /// value or a miss — never the other flow's value (the owner check),
    /// and the quiescent index must agree with the slots.
    /// [`FtMutation::SkipIndexReset`] must be caught.
    pub fn ft_recycle_vs_reader(mutation: FtMutation) -> impl Fn() + Send + Sync + 'static {
        move || {
            let table = StdArc::new(FlowTableModel::new(mutation));
            table.insert(0, 10);
            let t = table.clone();
            let reader = speedybox_check::spawn(move || match t.lookup(0) {
                Some(v) => {
                    assert_eq!(v, 10, "reader observed another flow's value for fid 0");
                    fact("reader hit before the recycle");
                }
                None => fact("reader missed (evicted or mid-recycle)"),
            });
            let t = table.clone();
            let recycler = speedybox_check::spawn(move || {
                t.remove(0);
                // Recycles slot 0 for fid 1 through the free list.
                t.insert(1, 20);
            });
            reader.join();
            recycler.join();
            table.check_consistency();
            assert_eq!(table.lookup(1), Some(20), "recycled entry lost");
            if mutation == FtMutation::None {
                assert_eq!(table.lookup(0), None, "removed entry still resolves");
            }
            table.collect_generations();
            assert_eq!(table.pending_generations(), 0, "retired backlog not drained");
        }
    }

    /// Two readers holding the same flow record, whose armed one-shot
    /// event is raised and its condition holds, serve a packet each. In
    /// every schedule the event fires exactly once, and the record ends
    /// rewritten. [`FireMutation::SnapshotFire`] must be caught firing it
    /// twice.
    pub fn rec_fire_once(mutation: FireMutation) -> impl Fn() + Send + Sync + 'static {
        move || {
            let model = StdArc::new(FireModel::new(mutation, 0b01));
            let readers: Vec<_> = (0..2)
                .map(|_| {
                    let m = model.clone();
                    speedybox_check::spawn(move || m.serve(0b01))
                })
                .collect();
            for reader in readers {
                reader.join();
            }
            let fired = model.fired.load(Ordering::SeqCst);
            assert_eq!(fired, 1, "one-shot event fired {fired} times");
            assert_eq!(*model.record.load().value(), (0b01, 0), "the record ends rewritten");
            model.record.collect();
            assert_eq!(model.record.pending(), 0, "retired records not drained");
        }
    }

    /// Two readers of one flow record, each firing a different armed
    /// one-shot event. In every schedule the record ends with both
    /// patches applied and neither event armed: the second firing's
    /// patch applies to the recordings the first one rewrote.
    /// [`FireMutation::PatchOutsideLock`] must be caught losing a patch.
    pub fn rec_fires_compose(mutation: FireMutation) -> impl Fn() + Send + Sync + 'static {
        move || {
            let model = StdArc::new(FireModel::new(mutation, 0b11));
            let readers: Vec<_> = [0b01, 0b10]
                .into_iter()
                .map(|event| {
                    let m = model.clone();
                    speedybox_check::spawn(move || m.serve(event))
                })
                .collect();
            for reader in readers {
                reader.join();
            }
            let (patched, armed) = *model.record.load().value();
            assert_eq!(patched, 0b11, "a firing's patch was lost: patches {patched:#04b}");
            assert_eq!(armed, 0, "a fired one-shot event is still armed: {armed:#04b}");
            model.record.collect();
            assert_eq!(model.record.pending(), 0, "retired records not drained");
        }
    }

    /// An NF raise racing two fast-path readers, both sent into the
    /// re-check by a pending spurious raise. Once every thread is done,
    /// the flow's next packet is served: in every schedule the event has
    /// then fired exactly once. [`RaiseMutation::LoadAfterCheck`] must be
    /// caught never firing it.
    pub fn ev_raise_vs_fire(mutation: RaiseMutation) -> impl Fn() + Send + Sync + 'static {
        move || {
            let model = StdArc::new(RaiseModel::new(mutation));
            let m = model.clone();
            let nf = speedybox_check::spawn(move || m.raise());
            let readers: Vec<_> = (0..2)
                .map(|_| {
                    let m = model.clone();
                    speedybox_check::spawn(move || m.serve())
                })
                .collect();
            nf.join();
            for reader in readers {
                reader.join();
            }
            model.serve_next();
            let fired = model.fired.load(Ordering::SeqCst);
            assert_eq!(fired, 1, "the raised event fired {fired} times: a raise was lost");
        }
    }

    /// An NF kill/recovery racing a wait-free fast-path reader and a
    /// churn install. In every schedule a reader that hits the fast path
    /// must observe a rule consolidated from fully replayed (live) NF
    /// state — mid-window it falls back to the baseline walk instead —
    /// and the quiescent model must end with the mask clear and a live
    /// rule republished. [`QMutation::RepublishBeforeReplay`] must be
    /// caught: it lets the reader serve a rule consolidated from
    /// restored-but-not-replayed state.
    pub fn q_kill_vs_reader(mutation: QMutation) -> impl Fn() + Send + Sync + 'static {
        move || {
            let q = StdArc::new(QuarantineModel::new(mutation));
            let m = q.clone();
            let supervisor = speedybox_check::spawn(move || {
                m.kill_and_recover();
            });
            let m = q.clone();
            let reader = speedybox_check::spawn(move || match m.serve() {
                Some(epoch) => {
                    assert_eq!(
                        epoch, EPOCH_LIVE,
                        "fast path served a rule consolidated from un-replayed state"
                    );
                    fact("reader hit the fast path");
                }
                None => fact("reader fell back to the baseline walk"),
            });
            let m = q.clone();
            let installer = speedybox_check::spawn(move || {
                // Churn consolidating a still-valid recording (recordings
                // are made from live state; the sweep tears them down, so
                // a mid-window rebuild can only be refused by the gate).
                if m.install(EPOCH_LIVE) {
                    fact("churn install landed");
                } else {
                    fact("churn install refused by the quarantine gate");
                }
            });
            supervisor.join();
            reader.join();
            installer.join();
            q.check_quiescent();
            q.collect();
            assert_eq!(q.pending(), 0, "retired rule generations not drained");
        }
    }
}
