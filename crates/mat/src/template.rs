//! Rule templates: what a rule shares with every flow of its shape
//! (DESIGN.md §18.6).
//!
//! A chain's flows record few rule shapes. On chain1 every flow records
//! a NAT modify, a Maglev modify, a Monitor state function and an
//! IPFilter forward; only the field values differ. So a rule comes in two
//! parts. A [`RuleTemplate`] holds everything that depends only on the
//! shape: the recorded actions and their consolidation and compiled
//! program, with operand slots in place of field values, and the
//! state-function batches with their schedule. A flow's own part is its
//! operands, the values it recorded, bound to the template in a
//! [`BoundProgram`].
//!
//! The Global MAT keeps one template per shape in a cache: an install
//! consolidates, schedules and compiles only when its shape misses. The
//! key is each NF's action kinds and fields, its encap specs and the
//! identities of its state functions. A template holds those state
//! functions, so no key can outlive the handles it names.
//!
//! In template form a modify's value is the operand slot it reads: the
//! index of the write among the flow's recorded writes, in recording
//! order. Consolidating such actions keeps, for each field, the slot of
//! the write that wins, so a template's consolidated action and program
//! read exactly the operands the flow's own consolidation would.

use std::collections::HashMap;
use std::ops::Deref;
use std::sync::Arc;

use parking_lot::Mutex;
use speedybox_packet::FieldValue;

use crate::action::HeaderAction;
use crate::compiled::{compile, CompiledProgram};
use crate::consolidate::{consolidate, ConsolidatedAction};
use crate::local::NfId;
use crate::parallel::schedule;
use crate::state_fn::{SfBatch, StateFunction};

/// Operands a flow keeps inline; a flow that records more spills them.
const INLINE_OPERANDS: u8 = 4;

/// A flow's recorded field values, in recording order: the operands its
/// template's slots read. Up to four live inline in the flow's rule.
#[derive(Debug, Clone)]
pub(crate) struct Operands(Store);

#[derive(Debug, Clone)]
enum Store {
    /// The first `len` values.
    Inline(u8, [FieldValue; INLINE_OPERANDS as usize]),
    /// More values than fit inline.
    Spilled(Box<[FieldValue]>),
}

impl FromIterator<FieldValue> for Operands {
    fn from_iter<I: IntoIterator<Item = FieldValue>>(values: I) -> Self {
        let mut values = values.into_iter();
        let mut inline = [FieldValue::new(0); INLINE_OPERANDS as usize];
        for (len, slot) in (0..).zip(&mut inline) {
            match values.next() {
                Some(value) => *slot = value,
                None => return Self(Store::Inline(len, inline)),
            }
        }
        Self(match values.next() {
            None => Store::Inline(INLINE_OPERANDS, inline),
            Some(next) => {
                Store::Spilled(inline.into_iter().chain(Some(next)).chain(values).collect())
            }
        })
    }
}

impl Deref for Operands {
    type Target = [FieldValue];

    fn deref(&self) -> &[FieldValue] {
        match &self.0 {
            Store::Inline(len, values) => &values[..usize::from(*len)],
            Store::Spilled(values) => values,
        }
    }
}

/// The operand a template-form value names.
fn operand(operands: &[FieldValue], slot: FieldValue) -> FieldValue {
    operands[usize::try_from(slot.raw()).expect("operand slot fits usize")]
}

/// What every flow of one rule shape shares: built once per shape, on the
/// install that first records it.
#[derive(Debug)]
pub struct RuleTemplate {
    /// The recorded header actions, each tagged with its NF, in chain
    /// order and then registration order, in template form.
    actions: Vec<(NfId, HeaderAction)>,
    /// `actions` consolidated, in template form.
    action: ConsolidatedAction,
    /// `action` lowered to micro-ops ([`crate::compiled`]).
    program: CompiledProgram,
    /// Per-NF state-function batches, in chain order (empty batches
    /// omitted), each with its positional length correction.
    pub batches: Vec<SfBatch>,
    /// Wavefront schedule over `batches` (Table I analysis).
    pub schedule: Vec<Vec<usize>>,
}

impl RuleTemplate {
    /// The template of `recording`'s shape: consolidates, schedules and
    /// compiles it.
    fn recorded(recording: &Recording) -> Self {
        let mut slot = 0;
        let actions: Vec<(NfId, HeaderAction)> = recording
            .actions
            .iter()
            .map(|(nf, action)| {
                let slotted = action.clone().map_values(|_| {
                    slot += 1;
                    FieldValue::new(slot - 1)
                });
                (*nf, slotted)
            })
            .collect();
        let mut batches: Vec<SfBatch> = Vec::new();
        for (nf, func) in &recording.funcs {
            match batches.last_mut() {
                Some(batch) if batch.nf == *nf => batch.funcs.push(func.clone()),
                _ => batches.push(SfBatch::new(*nf, vec![func.clone()])),
            }
        }
        // An NF's state functions run against the consolidated (egress)
        // packet on the fast path, so each batch records its input length
        // minus the egress length — the negated length deltas of the
        // header actions at and after its NF. This is what keeps
        // length-reading state functions (e.g. the monitor's byte
        // counter) positionally exact when an encap/decap pair annihilates
        // around them during consolidation.
        for batch in &mut batches {
            let downstream: i64 =
                actions.iter().filter(|(nf, _)| *nf >= batch.nf).map(|(_, a)| a.len_delta()).sum();
            batch.len_adjust = -downstream;
        }
        let action = consolidate(actions.iter().map(|(_, a)| a));
        let schedule = schedule(&batches);
        Self::new(actions, action, batches, schedule)
    }

    /// A template of the given parts, compiling `action`.
    pub(crate) fn new(
        actions: Vec<(NfId, HeaderAction)>,
        action: ConsolidatedAction,
        batches: Vec<SfBatch>,
        schedule: Vec<Vec<usize>>,
    ) -> Self {
        Self { actions, program: compile(&action), action, batches, schedule }
    }

    /// The recorded header actions, NF-tagged, in template form: each
    /// modify's value is the operand slot it reads.
    pub(crate) fn actions(&self) -> &[(NfId, HeaderAction)] {
        &self.actions
    }

    /// The consolidated action, in template form.
    #[must_use]
    pub fn action(&self) -> &ConsolidatedAction {
        &self.action
    }

    /// The compiled program over the template's operand slots.
    #[must_use]
    pub fn program(&self) -> &CompiledProgram {
        &self.program
    }
}

/// A template's program bound to one flow's operands: the flow's
/// fast-path header work, and all of its rule but the armed events.
#[derive(Debug, Clone)]
pub struct BoundProgram {
    pub(crate) template: Arc<RuleTemplate>,
    pub(crate) operands: Operands,
}

impl BoundProgram {
    /// A flow's operands bound to `template`.
    pub(crate) fn new(template: Arc<RuleTemplate>, operands: Operands) -> Self {
        Self { template, operands }
    }

    /// Runs the template's compiled program with this flow's operands.
    /// Returns `false` for a dropped packet.
    ///
    /// # Errors
    /// Propagates packet manipulation failures (see
    /// [`CompiledProgram::run`]).
    pub fn run(
        &self,
        packet: &mut speedybox_packet::Packet,
        ops: &mut crate::ops::OpCounter,
    ) -> crate::Result<bool> {
        self.template.program.run(&self.operands, packet, ops)
    }

    /// The operand a template-form value names.
    pub(crate) fn bind(&self, slot: FieldValue) -> FieldValue {
        operand(&self.operands, slot)
    }
}

/// One flow's recordings gathered for a template lookup, in chain order:
/// the install's or rewrite's scratch, reused under the cache lock.
#[derive(Debug, Default)]
pub(crate) struct Recording {
    /// Header actions, NF-tagged.
    pub(crate) actions: Vec<(NfId, HeaderAction)>,
    /// State functions, NF-tagged.
    pub(crate) funcs: Vec<(NfId, StateFunction)>,
    /// The shape key of the two above.
    key: Vec<u64>,
}

impl Recording {
    /// Encodes the shape into `key`: per action its NF, kind, fields and
    /// encap spec, per state function its NF and identity. Every
    /// variable-length part is counted, so two shapes never share a key.
    fn shape(&mut self) {
        let Self { actions, funcs, key } = self;
        key.clear();
        let tag = |nf: NfId, kind: u64| ((nf.index() as u64) << 3) | kind;
        for (nf, action) in actions.iter() {
            match action {
                HeaderAction::Forward => key.push(tag(*nf, 0)),
                HeaderAction::Drop => key.push(tag(*nf, 1)),
                HeaderAction::Modify(writes) => {
                    key.extend([tag(*nf, 2), writes.len() as u64]);
                    key.extend(writes.iter().map(|(field, _)| *field as u64));
                }
                HeaderAction::Encap(spec) => key.extend([tag(*nf, 3), spec.spi.into()]),
                HeaderAction::Decap(spec) => key.extend([tag(*nf, 4), spec.spi.into()]),
            }
        }
        for (nf, func) in funcs.iter() {
            key.extend([tag(*nf, 5), func.addr() as u64]);
        }
    }

    fn clear(&mut self) {
        self.actions.clear();
        self.funcs.clear();
    }
}

/// The fewest cached templates a miss sweeps at.
const SWEEP_FLOOR: usize = 128;

/// The cache under its lock.
#[derive(Debug, Default)]
struct Cache {
    by_shape: HashMap<Box<[u64]>, Arc<RuleTemplate>>,
    recording: Recording,
    /// Templates left by the last sweep.
    swept: usize,
}

impl Cache {
    /// Drops the templates no rule holds.
    fn sweep(&mut self) {
        self.by_shape.retain(|_, template| Arc::strong_count(template) > 1);
        self.swept = self.by_shape.len();
    }
}

/// The Global MAT's template cache: one template per recorded shape.
///
/// Its lock is taken by installs and event rewrites only; the fast path
/// reads a rule's template through the rule. A template no rule holds is
/// dropped by the next sweep. A miss sweeps once the cache holds twice
/// what the last sweep left, and at least 128 templates, so the cache
/// stays within twice the templates live rules used at the last sweep,
/// or that floor, at O(1) amortized per miss. [`Templates::sweep`]
/// forces one.
#[derive(Debug, Default)]
pub(crate) struct Templates(Mutex<Cache>);

impl Templates {
    /// The rule part of a flow whose recordings `fill` gathers into the
    /// (cleared) scratch: its shape's template, built on a miss, and its
    /// operands. The scratch is cleared again before the lock is
    /// released.
    pub(crate) fn bind(&self, fill: impl FnOnce(&mut Recording)) -> BoundProgram {
        let mut cache = self.0.lock();
        let cache = &mut *cache;
        fill(&mut cache.recording);
        cache.recording.shape();
        let template = match cache.by_shape.get(cache.recording.key.as_slice()) {
            Some(template) => Arc::clone(template),
            None => {
                if cache.by_shape.len() >= (2 * cache.swept).max(SWEEP_FLOOR) {
                    cache.sweep();
                }
                let template = Arc::new(RuleTemplate::recorded(&cache.recording));
                cache.by_shape.insert(cache.recording.key.as_slice().into(), Arc::clone(&template));
                template
            }
        };
        let recording = &mut cache.recording;
        let operands = recording.actions.iter().flat_map(|(_, a)| a.values()).collect();
        recording.clear();
        BoundProgram::new(template, operands)
    }

    /// Drops the templates no rule holds.
    pub(crate) fn sweep(&self) {
        self.0.lock().sweep();
    }

    /// Number of cached templates.
    pub(crate) fn len(&self) -> usize {
        self.0.lock().by_shape.len()
    }
}
