//! State functions: the stateful half of the NF abstraction (paper §IV-A2).
//!
//! A state function is a callback an NF registers per flow — payload
//! inspection, counter updates, connection tracking. SpeedyBox records the
//! *handler* in the Local MAT, moves it into the flow's rule at install,
//! and invokes it on the fast path, so the NF's stateful logic runs
//! unchanged. Handlers take the flow's FID, so an NF whose handler
//! captures only NF-wide state builds its state function once and records
//! a clone (an `Arc` increment) per flow. Each function declares how it
//! touches the packet payload ([`PayloadAccess`]), which drives the Table I
//! parallelism analysis in [`crate::parallel`].

use std::borrow::Cow;
use std::fmt;
use std::sync::Arc;

use speedybox_packet::{Fid, Packet};

use crate::local::NfId;
use crate::ops::OpCounter;

/// How a state function interacts with the packet payload (paper §IV-A2:
/// READ / WRITE / IGNORE). Ordered by the paper's batch priority
/// `WRITE > READ > IGNORE`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PayloadAccess {
    /// Does not read or modify the payload (counters, connection state).
    Ignore,
    /// Reads the payload (deep packet inspection).
    Read,
    /// Writes the payload (payload rewriting, scrubbing). A WRITE function
    /// must leave the packet's checksums valid — the same obligation its
    /// NF has on the original path — so that execution order relative to
    /// consolidated header actions cannot change the final bytes.
    Write,
}

impl fmt::Display for PayloadAccess {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PayloadAccess::Ignore => f.write_str("ignore"),
            PayloadAccess::Read => f.write_str("read"),
            PayloadAccess::Write => f.write_str("write"),
        }
    }
}

/// Execution context handed to a state-function handler.
#[derive(Debug)]
pub struct SfContext<'a> {
    /// The packet being processed. Handlers declared `Ignore` must not
    /// touch the payload (enforced by convention and by the equivalence
    /// test suite, as in the paper's prototype).
    pub packet: &'a mut Packet,
    /// Flow the packet belongs to.
    pub fid: Fid,
    /// Operation counter for cost accounting.
    pub ops: &'a mut OpCounter,
    /// Positional frame-length correction (see [`SfContext::frame_len`]).
    /// Zero on the original path and for every batch outside an
    /// encap/decap window.
    pub len_adjust: i64,
}

impl SfContext<'_> {
    /// The frame length the owning NF would observe at its position in the
    /// *original* chain.
    ///
    /// On the fast path the consolidated header action runs before any
    /// state function, so `packet.len()` is the egress length. When an
    /// encap/decap pair annihilates during consolidation (paper §V-B), an
    /// NF that sat inside the tunnel window never sees the encapsulated
    /// frame — its recorded state functions would under-count by the
    /// header length. `len_adjust` (computed at consolidation time from
    /// the chain's per-NF length deltas) restores the positional view;
    /// length-reading handlers must use this instead of
    /// `packet.len()`.
    #[must_use]
    pub fn frame_len(&self) -> usize {
        usize::try_from(self.packet.len() as i64 + self.len_adjust).unwrap_or(0)
    }
}

/// A state function's handler, unsized.
type SfFn = dyn Fn(&mut SfContext<'_>) + Send + Sync;

/// A state function's name, access type and handler, in one allocation.
struct Sf<F: ?Sized> {
    name: Cow<'static, str>,
    access: PayloadAccess,
    handler: F,
}

/// A recorded state function: named handler plus payload-access type.
///
/// Cloning is one `Arc` increment, which is how an NF records the state
/// function it built once for every flow without an allocation.
#[derive(Clone)]
pub struct StateFunction(Arc<Sf<SfFn>>);

impl StateFunction {
    /// Wraps `handler` as a state function with the given payload-access
    /// declaration.
    pub fn new(
        name: impl Into<Cow<'static, str>>,
        access: PayloadAccess,
        handler: impl Fn(&mut SfContext<'_>) + Send + Sync + 'static,
    ) -> Self {
        Self(Arc::new(Sf { name: name.into(), access, handler }))
    }

    /// The function's diagnostic name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.0.name
    }

    /// The function's identity: the address of the handler every clone
    /// shares. Rule templates key on it ([`crate::template`]).
    pub(crate) fn addr(&self) -> usize {
        Arc::as_ptr(&self.0).cast::<()>() as usize
    }

    /// Declared payload access.
    #[must_use]
    pub fn access(&self) -> PayloadAccess {
        self.0.access
    }

    /// Invokes the handler, accounting the invocation.
    ///
    /// In debug builds, handlers declared [`PayloadAccess::Ignore`] or
    /// [`PayloadAccess::Read`] run under the payload-access tracker: the
    /// payload is snapshotted around the call and any byte change is
    /// recorded as an [`crate::track::AccessViolation`] — a lying
    /// declaration becomes a diagnostic instead of silent corruption on a
    /// parallel schedule. Release builds compile the snapshot out; debug
    /// builds snapshot into a reused thread-local buffer, so even the
    /// instrumented fast path stays allocation-free once warm (the
    /// `tests/zero_alloc.rs` gate runs with `debug_assertions` on).
    pub fn invoke(&self, ctx: &mut SfContext<'_>) {
        ctx.ops.sf_invocations += 1;
        let Sf { name, access, handler } = &*self.0;
        if crate::track::enabled() && *access != PayloadAccess::Write {
            let mut before = crate::track::snapshot_buf();
            before.clear();
            let have = match ctx.packet.payload() {
                Ok(p) => {
                    before.extend_from_slice(p);
                    true
                }
                Err(_) => false,
            };
            handler(ctx);
            if have && ctx.packet.payload().map(|p| p != &before[..]).unwrap_or(false) {
                crate::track::record_write_violation(name, *access);
            }
            crate::track::return_snapshot_buf(before);
            return;
        }
        handler(ctx);
    }
}

impl fmt::Debug for StateFunction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StateFunction")
            .field("name", &self.0.name)
            .field("access", &self.0.access)
            .finish_non_exhaustive()
    }
}

/// All state functions one NF recorded for a flow — the paper's *state
/// function batch* (§V-C1: "all state functions in a batch should be
/// executed in sequence").
#[derive(Debug, Clone, Default)]
pub struct SfBatch {
    /// The NF that owns this batch.
    pub nf: NfId,
    /// The functions, in registration order.
    pub funcs: Vec<StateFunction>,
    /// Positional frame-length correction for this batch's NF: input
    /// length at the NF's chain position minus the chain's egress length.
    /// Computed at consolidation time; exposed to handlers through
    /// [`SfContext::frame_len`].
    pub len_adjust: i64,
}

impl SfBatch {
    /// Creates a batch for one NF (no positional length correction).
    #[must_use]
    pub fn new(nf: NfId, funcs: Vec<StateFunction>) -> Self {
        Self { nf, funcs, len_adjust: 0 }
    }

    /// Sets the positional frame-length correction (consolidation time).
    #[must_use]
    pub fn with_len_adjust(mut self, len_adjust: i64) -> Self {
        self.len_adjust = len_adjust;
        self
    }

    /// The batch's effective payload access: "the action of the state
    /// function that has the highest priority in the batch (priority:
    /// WRITE > READ > IGNORE)" (paper §V-C2).
    #[must_use]
    pub fn access(&self) -> PayloadAccess {
        self.funcs.iter().map(StateFunction::access).max().unwrap_or(PayloadAccess::Ignore)
    }

    /// Runs all functions in order against the packet.
    pub fn execute(&self, packet: &mut Packet, fid: Fid, ops: &mut OpCounter) {
        let mut ctx = SfContext { packet, fid, ops, len_adjust: self.len_adjust };
        for f in &self.funcs {
            f.invoke(&mut ctx);
        }
    }

    /// True if the batch holds no functions.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.funcs.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicU64, Ordering};

    use speedybox_packet::PacketBuilder;

    use super::*;

    fn pkt() -> Packet {
        PacketBuilder::tcp().payload(b"abc").build()
    }

    #[test]
    fn priority_ordering_matches_paper() {
        assert!(PayloadAccess::Write > PayloadAccess::Read);
        assert!(PayloadAccess::Read > PayloadAccess::Ignore);
    }

    #[test]
    fn invoke_runs_handler_and_counts() {
        let hits = Arc::new(AtomicU64::new(0));
        let h = hits.clone();
        let sf = StateFunction::new("count", PayloadAccess::Ignore, move |_ctx| {
            h.fetch_add(1, Ordering::Relaxed);
        });
        let mut p = pkt();
        let mut ops = OpCounter::default();
        let fid = p.five_tuple().unwrap().fid();
        let mut ctx = SfContext { packet: &mut p, fid, ops: &mut ops, len_adjust: 0 };
        sf.invoke(&mut ctx);
        sf.invoke(&mut ctx);
        assert_eq!(hits.load(Ordering::Relaxed), 2);
        assert_eq!(ops.sf_invocations, 2);
    }

    #[test]
    fn frame_len_applies_positional_adjustment() {
        let mut p = pkt();
        let plain = p.len();
        let fid = p.five_tuple().unwrap().fid();
        let mut ops = OpCounter::default();
        let ctx = SfContext { packet: &mut p, fid, ops: &mut ops, len_adjust: 24 };
        assert_eq!(ctx.frame_len(), plain + 24);
        let ctx0 = SfContext { packet: &mut p, fid, ops: &mut ops, len_adjust: 0 };
        assert_eq!(ctx0.frame_len(), plain);
        // A pathological negative adjustment saturates at zero rather
        // than panicking.
        let neg = SfContext { packet: &mut p, fid, ops: &mut ops, len_adjust: -(plain as i64) - 8 };
        assert_eq!(neg.frame_len(), 0);
    }

    #[test]
    fn batch_len_adjust_reaches_handlers() {
        let seen = Arc::new(AtomicU64::new(0));
        let s = seen.clone();
        let sf = StateFunction::new("len", PayloadAccess::Ignore, move |ctx| {
            s.store(ctx.frame_len() as u64, Ordering::Relaxed);
        });
        let batch = SfBatch::new(NfId::new(0), vec![sf]).with_len_adjust(24);
        assert_eq!(batch.len_adjust, 24);
        let mut p = pkt();
        let plain = p.len();
        let fid = p.five_tuple().unwrap().fid();
        let mut ops = OpCounter::default();
        batch.execute(&mut p, fid, &mut ops);
        assert_eq!(seen.load(Ordering::Relaxed), (plain + 24) as u64);
    }

    #[test]
    fn batch_access_is_max_priority() {
        let mk = |a| StateFunction::new("f", a, |_| {});
        let batch = SfBatch::new(
            NfId::new(0),
            vec![mk(PayloadAccess::Read), mk(PayloadAccess::Read), mk(PayloadAccess::Write)],
        );
        assert_eq!(batch.access(), PayloadAccess::Write);
        let batch2 = SfBatch::new(NfId::new(0), vec![mk(PayloadAccess::Ignore)]);
        assert_eq!(batch2.access(), PayloadAccess::Ignore);
        let empty = SfBatch::new(NfId::new(0), vec![]);
        assert_eq!(empty.access(), PayloadAccess::Ignore);
        assert!(empty.is_empty());
    }

    #[test]
    fn batch_executes_in_registration_order() {
        let order = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let mk = |tag: u8, order: Arc<parking_lot::Mutex<Vec<u8>>>| {
            StateFunction::new(format!("f{tag}"), PayloadAccess::Ignore, move |_| {
                order.lock().push(tag);
            })
        };
        let batch = SfBatch::new(
            NfId::new(0),
            vec![mk(1, order.clone()), mk(2, order.clone()), mk(3, order.clone())],
        );
        let mut p = pkt();
        let fid = p.five_tuple().unwrap().fid();
        let mut ops = OpCounter::default();
        batch.execute(&mut p, fid, &mut ops);
        assert_eq!(*order.lock(), vec![1, 2, 3]);
        assert_eq!(ops.sf_invocations, 3);
    }

    #[test]
    fn handlers_can_mutate_payload() {
        let sf = StateFunction::new("upper", PayloadAccess::Write, |ctx| {
            if let Ok(p) = ctx.packet.payload_mut() {
                for b in p {
                    *b = b.to_ascii_uppercase();
                }
            }
        });
        let mut p = pkt();
        let fid = p.five_tuple().unwrap().fid();
        let mut ops = OpCounter::default();
        let mut ctx = SfContext { packet: &mut p, fid, ops: &mut ops, len_adjust: 0 };
        sf.invoke(&mut ctx);
        assert_eq!(p.payload().unwrap(), b"ABC");
    }

    #[test]
    fn debug_is_nonempty() {
        let sf = StateFunction::new("dbg", PayloadAccess::Read, |_| {});
        assert!(format!("{sf:?}").contains("dbg"));
    }
}
