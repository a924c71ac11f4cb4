//! Chain-consistent NF crash/restart supervision.
//!
//! The supervisor checkpoints *every* NF's state at one packet boundary
//! (a chain-consistent cut — no packet is half-reflected across NFs) and
//! keeps a bounded in-flight log of the frames processed since. On an NF
//! crash the whole chain rolls back to the checkpoint and replays the log
//! through the uninstrumented original walk, so post-recovery NF state is
//! byte-for-byte what a crash-free run would hold.
//!
//! Rolling the *whole* chain back — rather than just the dead NF — is
//! what makes the cut consistent: downstream NFs have already digested
//! packets the dead NF's restored state has not, and replaying those
//! packets into only the dead NF would double-count them everywhere else.
//! The environments pair a rollback with a Global MAT quarantine (rules
//! masked, classifier swept) so the fast path cannot serve actions
//! consolidated from pre-crash recordings while the window is open.

use std::fmt;
use std::sync::Arc;

use speedybox_mat::OpCounter;
use speedybox_nf::{Nf, StateSnapshot};
use speedybox_packet::Packet;

use crate::runtime::{notify_flow_closed, tag_ingress, traverse_chain};

/// One entry of the in-flight log: everything that mutated NF state since
/// the last checkpoint, in arrival order.
pub enum ReplayEntry {
    /// A data packet, as raw frame bytes plus whether its FIN/RST teardown
    /// fanned out to `flow_closed` when it was first processed
    /// (`closes_flow && class != Collision` at classification time). The
    /// flag is logged rather than recomputed because replay happens after
    /// the classifier was swept: the original run suppressed teardown for
    /// FID-collision packets, and that classification cannot be
    /// reconstructed from the bytes alone.
    Frame {
        /// The packet's wire bytes at ingress.
        bytes: Vec<u8>,
        /// Whether teardown fan-out ran for this frame originally.
        teardown: bool,
    },
    /// A non-packet event that mutated NF state (e.g. a backend health
    /// flip), replayed by re-invoking the closure.
    External(Arc<dyn Fn() + Send + Sync>),
}

/// Default in-flight log bound for a checkpoint interval: twice the
/// interval, so the bound only forces early checkpoints under external-
/// event pressure (frames alone trip the periodic interval first).
#[must_use]
pub fn default_log_bound(interval: u64) -> usize {
    usize::try_from(interval.saturating_mul(2)).unwrap_or(usize::MAX).max(1)
}

impl fmt::Debug for ReplayEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplayEntry::Frame { bytes, teardown } => f
                .debug_struct("Frame")
                .field("len", &bytes.len())
                .field("teardown", teardown)
                .finish(),
            ReplayEntry::External(_) => f.write_str("External(..)"),
        }
    }
}

/// Periodic chain-consistent checkpointing plus crash/rollback/replay.
///
/// Owned by an environment (one per chain instance); all methods take the
/// chain's NFs by reference because the environment owns those too.
pub struct Supervisor {
    /// Packets between periodic checkpoints.
    interval: u64,
    /// Hard bound on in-flight log entries; hitting it forces an early
    /// checkpoint, so replay depth after a crash never exceeds this.
    log_bound: usize,
    /// Packets processed since the last checkpoint.
    since: u64,
    /// Per-NF state captured at the last checkpoint (`None` for stateless
    /// NFs — nothing to restore).
    snapshot: Vec<Option<StateSnapshot>>,
    /// Frames and external events since the last checkpoint.
    log: Vec<ReplayEntry>,
}

impl fmt::Debug for Supervisor {
    // Snapshot payloads are opaque `Any`; the numbers are what matter
    // when staring at a failing sim artifact.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Supervisor")
            .field("interval", &self.interval)
            .field("log_bound", &self.log_bound)
            .field("since", &self.since)
            .field("log_depth", &self.log.len())
            .finish()
    }
}

impl Supervisor {
    /// Creates a supervisor and takes the initial checkpoint immediately,
    /// so a crash before the first periodic checkpoint rolls back to the
    /// chain's starting state.
    #[must_use]
    pub fn new(nfs: &[Box<dyn Nf>], interval: u64, log_bound: usize) -> Self {
        let mut sup = Supervisor {
            interval: interval.max(1),
            log_bound: log_bound.max(1),
            since: 0,
            snapshot: Vec::new(),
            log: Vec::new(),
        };
        sup.checkpoint(nfs);
        sup
    }

    /// Packets between periodic checkpoints.
    #[must_use]
    pub fn interval(&self) -> u64 {
        self.interval
    }

    /// Current in-flight log depth (replay cost of a crash right now).
    #[must_use]
    pub fn log_depth(&self) -> usize {
        self.log.len()
    }

    /// Takes a chain-consistent checkpoint: snapshots every NF at this
    /// packet boundary and clears the in-flight log.
    pub fn checkpoint(&mut self, nfs: &[Box<dyn Nf>]) {
        self.snapshot = nfs.iter().map(|nf| nf.snapshot_state()).collect();
        self.log.clear();
        self.since = 0;
    }

    /// Records one processed packet into the in-flight log, checkpointing
    /// first if the periodic interval elapsed or the log hit its bound.
    /// Call at the top of packet processing (before NF state mutates) with
    /// the ingress bytes; `teardown` is whether `flow_closed` fan-out will
    /// run for this frame. Returns `true` if a checkpoint was taken.
    pub fn note_packet(&mut self, frame: &[u8], teardown: bool, nfs: &[Box<dyn Nf>]) -> bool {
        let checkpointed = self.since >= self.interval || self.log.len() >= self.log_bound;
        if checkpointed {
            self.checkpoint(nfs);
        }
        self.log.push(ReplayEntry::Frame { bytes: frame.to_vec(), teardown });
        self.since += 1;
        checkpointed
    }

    /// Records a non-packet state mutation (e.g. a backend health flip)
    /// for replay in arrival order relative to the logged frames.
    pub fn log_external(&mut self, event: Arc<dyn Fn() + Send + Sync>) {
        self.log.push(ReplayEntry::External(event));
    }

    /// Handles an NF crash: crashes *all* NFs (chain-consistent rollback),
    /// restores each from the checkpoint, replays the in-flight log
    /// through the uninstrumented walk (unless `replay` is false — the
    /// seeded-bug mutation), then takes a fresh checkpoint. Returns the
    /// replay depth (log entries reprocessed).
    pub fn kill(&mut self, nfs: &mut [Box<dyn Nf>], replay: bool) -> usize {
        for nf in nfs.iter_mut() {
            nf.crash();
        }
        for (nf, snap) in nfs.iter_mut().zip(&self.snapshot) {
            if let Some(snap) = snap {
                let restored = nf.restore_state(snap);
                debug_assert!(restored, "{}: snapshot no longer restorable", nf.name());
            }
        }
        let depth = self.log.len();
        if replay {
            for entry in &self.log {
                match entry {
                    ReplayEntry::Frame { bytes, teardown } => {
                        replay_frame(nfs, bytes, *teardown);
                    }
                    ReplayEntry::External(event) => event(),
                }
            }
        }
        self.checkpoint(nfs);
        depth
    }
}

/// Replays one logged frame through the uninstrumented original walk —
/// the same NF-visible processing as the baseline path, minus recording
/// (the quarantine window re-records organically after it closes).
fn replay_frame(nfs: &mut [Box<dyn Nf>], bytes: &[u8], teardown: bool) {
    let Ok(mut packet) = Packet::from_frame(bytes) else {
        return;
    };
    tag_ingress(&mut packet, &mut OpCounter::default());
    traverse_chain(nfs, None, &mut packet, &mut Vec::new());
    if let Some(fid) = packet.fid().filter(|_| teardown) {
        notify_flow_closed(nfs, fid);
    }
}

#[cfg(test)]
mod tests {
    use speedybox_nf::monitor::Monitor;
    use speedybox_packet::PacketBuilder;

    use super::*;

    /// A one-NF chain plus a handle that sees the boxed monitor's state
    /// (the counters are `Arc`-shared across clones).
    fn chain() -> (Vec<Box<dyn Nf>>, Monitor) {
        let mon = Monitor::new();
        (vec![Box::new(mon.clone())], mon)
    }

    fn frame(src_port: u16) -> Vec<u8> {
        PacketBuilder::tcp()
            .src(format!("10.0.0.1:{src_port}").parse().unwrap())
            .dst("10.0.0.2:80".parse().unwrap())
            .payload(b"abc")
            .build()
            .as_bytes()
            .to_vec()
    }

    fn process(nfs: &mut [Box<dyn Nf>], bytes: &[u8]) {
        replay_frame(nfs, bytes, false);
    }

    fn monitor_packets(mon: &Monitor) -> u64 {
        mon.snapshot().values().map(|c| c.packets).sum()
    }

    #[test]
    fn kill_with_replay_reconstructs_state() {
        let (mut nfs, mon) = chain();
        let mut sup = Supervisor::new(&nfs, 4, 8);
        for i in 0..7u16 {
            let f = frame(1000 + i);
            sup.note_packet(&f, false, &nfs);
            process(&mut nfs, &f);
        }
        let before = monitor_packets(&mon);
        let depth = sup.kill(&mut nfs, true);
        assert!(depth > 0 && depth <= 8);
        assert_eq!(monitor_packets(&mon), before, "replay must reconstruct NF state");
        // Post-kill checkpoint is fresh: an immediate second kill replays nothing.
        assert_eq!(sup.kill(&mut nfs, true), 0);
        assert_eq!(monitor_packets(&mon), before);
    }

    #[test]
    fn skipping_replay_loses_state() {
        let (mut nfs, mon) = chain();
        let mut sup = Supervisor::new(&nfs, 100, 100);
        for i in 0..5u16 {
            let f = frame(2000 + i);
            sup.note_packet(&f, false, &nfs);
            process(&mut nfs, &f);
        }
        let before = monitor_packets(&mon);
        sup.kill(&mut nfs, false);
        assert!(monitor_packets(&mon) < before, "skipped replay must lose in-flight state");
    }

    #[test]
    fn log_bound_forces_checkpoint() {
        let (mut nfs, _mon) = chain();
        let mut sup = Supervisor::new(&nfs, 1_000_000, 3);
        let mut checkpoints = 0;
        for i in 0..10u16 {
            let f = frame(3000 + i);
            if sup.note_packet(&f, false, &nfs) {
                checkpoints += 1;
            }
            process(&mut nfs, &f);
            assert!(sup.log_depth() <= 3, "log must stay within its bound");
        }
        assert!(checkpoints >= 3, "bound must force periodic checkpoints");
    }

    #[test]
    fn external_events_replay_in_order() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let (mut nfs, _mon) = chain();
        let mut sup = Supervisor::new(&nfs, 100, 100);
        let fired = Arc::new(AtomicUsize::new(0));
        let f = frame(4000);
        sup.note_packet(&f, false, &nfs);
        process(&mut nfs, &f);
        let fired2 = Arc::clone(&fired);
        sup.log_external(Arc::new(move || {
            fired2.fetch_add(1, Ordering::Relaxed);
        }));
        sup.kill(&mut nfs, true);
        assert_eq!(fired.load(Ordering::Relaxed), 1, "external event must replay");
        sup.kill(&mut nfs, true);
        assert_eq!(fired.load(Ordering::Relaxed), 1, "fresh checkpoint clears the log");
    }
}
