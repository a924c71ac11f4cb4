//! The network-function trait and processing context.
//!
//! An [`Nf`] does its real packet processing in [`Nf::process`] — that is
//! the *original* data path the paper's baselines measure. When the chain
//! runs under SpeedyBox, the platform hands each NF an
//! [`speedybox_mat::NfInstrument`] and only routes *initial* packets
//! through `process`; the NF records its per-flow behaviour through the
//! instrument so subsequent packets can take the consolidated fast path.

use std::any::Any;
use std::fmt;
use std::sync::Arc;

use speedybox_mat::{NfInstrument, OpCounter, Signal};
use speedybox_packet::{Fid, Packet};

/// What the NF decided to do with the packet on the original path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NfVerdict {
    /// Pass the packet to the next NF.
    Forward,
    /// Discard the packet.
    Drop,
}

impl NfVerdict {
    /// True if the packet survives.
    #[must_use]
    pub fn survives(self) -> bool {
        matches!(self, NfVerdict::Forward)
    }
}

/// Per-invocation context handed to [`Nf::process`].
#[derive(Debug)]
pub struct NfContext<'a> {
    /// SpeedyBox instrumentation handle. `None` when the chain runs as the
    /// uninstrumented baseline ("Original" in the paper's figures); the NF
    /// must behave identically either way — recording is side-effect-free
    /// with respect to packet processing (§IV-B).
    pub instrument: Option<&'a NfInstrument>,
    /// Operation counter for cost accounting.
    pub ops: &'a mut OpCounter,
}

impl<'a> NfContext<'a> {
    /// A baseline context with no instrumentation.
    pub fn baseline(ops: &'a mut OpCounter) -> Self {
        Self { instrument: None, ops }
    }

    /// An instrumented context.
    pub fn instrumented(instrument: &'a NfInstrument, ops: &'a mut OpCounter) -> Self {
        Self { instrument: Some(instrument), ops }
    }
}

/// An opaque, immutable capture of one NF's internal state at a packet
/// boundary.
///
/// The payload is type-erased so the platform's checkpoint/recovery
/// machinery can hold a uniform `Vec<Option<StateSnapshot>>` per chain
/// without knowing any NF's concrete state type. Each NF downcasts its own
/// snapshots back in [`Nf::restore_state`]; a snapshot handed to the wrong
/// NF simply fails to downcast and restore reports `false`.
///
/// Snapshots are cheap to clone (the payload is behind an `Arc`) and must
/// be *deep* captures: an NF whose live state sits in an
/// `Arc<Mutex<...>>` clones the contents, not the handle, so later
/// processing never mutates a taken snapshot.
#[derive(Clone)]
pub struct StateSnapshot {
    payload: Arc<dyn Any + Send + Sync>,
}

impl StateSnapshot {
    /// Wraps a concrete state capture.
    pub fn new<T: Any + Send + Sync>(state: T) -> Self {
        Self { payload: Arc::new(state) }
    }

    /// The concrete capture, if this snapshot holds a `T`.
    #[must_use]
    pub fn downcast<T: Any + Send + Sync>(&self) -> Option<&T> {
        self.payload.downcast_ref::<T>()
    }
}

impl fmt::Debug for StateSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("StateSnapshot(..)")
    }
}

/// One flow's running count and the [`Signal`] its threshold event
/// watches: the DoS guard's SYNs, the quota limiter's bytes. A snapshot
/// clone shares the signal, so events keep watching it across a restore.
#[derive(Debug, Clone, Default)]
pub(crate) struct Tally {
    pub(crate) count: u64,
    pub(crate) signal: Signal,
}

impl Tally {
    /// Adds `n` and returns the new count, raising the signal when the
    /// count first passes `limit` — the one change that can turn a
    /// `count > limit` condition true. Call it under the lock guarding the
    /// tally, so the raise sits in the critical section of the change.
    pub(crate) fn add(&mut self, n: u64, limit: u64) -> u64 {
        let before = self.count;
        self.count += n;
        if before <= limit && self.count > limit {
            self.signal.raise();
        }
        self.count
    }
}

/// A network function in a service chain.
///
/// Object-safe: chains hold `Box<dyn Nf>`. Implementations live in this
/// crate's sibling modules; external NFs can implement the trait too.
pub trait Nf: Send {
    /// Short diagnostic name ("snort", "maglev", ...).
    fn name(&self) -> &str;

    /// Processes one packet on the original data path, mutating it in
    /// place, and returns the verdict. When `ctx.instrument` is present the
    /// packet is a flow-initial packet under SpeedyBox and the NF should
    /// record its per-flow header action, state functions and events.
    fn process(&mut self, packet: &mut Packet, ctx: &mut NfContext<'_>) -> NfVerdict;

    /// Notification that a flow has closed (FIN/RST seen); the NF should
    /// release per-flow state. Default: nothing to release.
    fn flow_closed(&mut self, fid: Fid) {
        let _ = fid;
    }

    /// True if this NF keeps per-flow state that a crash would lose (NAT
    /// mappings, flow counters, connection tracking, ...). Stateless NFs
    /// keep the `false` default. An NF that returns `true` here but leaves
    /// [`Nf::snapshot_state`] unimplemented is flagged by the verifier
    /// (SBX013): its state is unrecoverable after a crash.
    fn has_flow_state(&self) -> bool {
        false
    }

    /// Captures the NF's internal state at the current packet boundary.
    /// Default: `None` (nothing to capture).
    fn snapshot_state(&self) -> Option<StateSnapshot> {
        None
    }

    /// Replaces the NF's internal state with a previously captured
    /// snapshot. Returns `true` if the snapshot was recognized and
    /// applied; `false` (the default) means the payload was foreign and
    /// the state is unchanged.
    fn restore_state(&mut self, snapshot: &StateSnapshot) -> bool {
        let _ = snapshot;
        false
    }

    /// Simulates a crash-restart: drops all internal state, as a freshly
    /// exec'd NF process would start. Default: nothing to lose.
    fn crash(&mut self) {}
}

impl fmt::Debug for dyn Nf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Nf({})", self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Nop;

    impl Nf for Nop {
        fn name(&self) -> &str {
            "nop"
        }

        fn process(&mut self, _packet: &mut Packet, _ctx: &mut NfContext<'_>) -> NfVerdict {
            NfVerdict::Forward
        }
    }

    #[test]
    fn trait_is_object_safe() {
        let mut nf: Box<dyn Nf> = Box::new(Nop);
        let mut ops = OpCounter::default();
        let mut ctx = NfContext::baseline(&mut ops);
        let mut p = speedybox_packet::PacketBuilder::tcp().build();
        assert_eq!(nf.process(&mut p, &mut ctx), NfVerdict::Forward);
        assert_eq!(format!("{nf:?}"), "Nf(nop)");
        nf.flow_closed(Fid::new(1));
    }

    #[test]
    fn verdict_survival() {
        assert!(NfVerdict::Forward.survives());
        assert!(!NfVerdict::Drop.survives());
    }

    #[test]
    fn stateless_defaults_decline_snapshots() {
        let mut nf: Box<dyn Nf> = Box::new(Nop);
        assert!(!nf.has_flow_state());
        assert!(nf.snapshot_state().is_none());
        assert!(!nf.restore_state(&StateSnapshot::new(7u32)));
        nf.crash(); // must be a no-op, not a panic
    }

    #[test]
    fn snapshot_downcasts_to_its_own_type_only() {
        let snap = StateSnapshot::new(vec![1u8, 2, 3]);
        assert_eq!(snap.downcast::<Vec<u8>>(), Some(&vec![1u8, 2, 3]));
        assert!(snap.downcast::<String>().is_none());
        // Cloning shares the payload.
        let dup = snap.clone();
        assert_eq!(dup.downcast::<Vec<u8>>(), Some(&vec![1u8, 2, 3]));
        assert_eq!(format!("{snap:?}"), "StateSnapshot(..)");
    }
}
