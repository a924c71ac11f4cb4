//! The calibrated cycle model, and the ledger that prices packets with it.
//!
//! The paper reports absolute CPU cycles measured on an Intel Xeon E5-2660
//! v4 (2.0 GHz). We cannot reproduce that testbed; instead every component
//! counts abstract operations ([`OpCounter`]) and this model maps counts to
//! cycles with constants calibrated so the paper's *ratios* come out (see
//! EXPERIMENTS.md):
//!
//! * three pass-through IPFilters cost ≈ 3 × 560 cycles, and the early-drop
//!   fast path ≈ 0.34 × that (Table III's −65 %),
//! * the fast path with one header action is ≈ 20 % *more* expensive than
//!   one original NF, crossing to −40 %/−58 % at two/three actions (Fig 4),
//! * initial packets cost several thousand cycles (ACL linear match for new
//!   flows, Fig 4's `init` bars).
//!
//! The packet step only counts: per NF for in-process walks, per
//! state-function batch on the fast path. Each lane's [`Ledger`] prices a
//! finished packet once from those counts, as the paper reads cycles from
//! the testbed's counters without charging its packet path for it
//! (DESIGN.md §17).

use speedybox_mat::{GlobalRule, OpCounter};

use crate::chain::Platform;

/// Per-operation cycle costs.
///
/// Public fields by design: this is passive calibration data, meant to be
/// tweaked by benchmarks and ablations.
///
/// ```
/// use speedybox_mat::OpCounter;
/// use speedybox_platform::CycleModel;
///
/// let model = CycleModel::new();
/// let ops = OpCounter { parses: 2, acl_rules_scanned: 30, ..OpCounter::default() };
/// let cycles = model.cycles(&ops);
/// assert_eq!(cycles, 2 * model.parse + 30 * model.acl_rule);
/// // 2.0 GHz testbed clock: 2000 cycles per microsecond.
/// assert_eq!(model.micros(4000), 2.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CycleModel {
    /// Full header parse (Ethernet+IPv4+L4).
    pub parse: u64,
    /// Classifier work: 5-tuple hash, flow-table probe, FID attach.
    pub classification: u64,
    /// One ACL rule examined in a linear scan.
    pub acl_rule: u64,
    /// Hash-table lookup (NAT mapping, firewall flow cache, Maglev
    /// connection table).
    pub hash_lookup: u64,
    /// Hash-table insert/remove.
    pub hash_update: u64,
    /// One header-field write.
    pub field_write: u64,
    /// Recomputing IPv4 + L4 checksums.
    pub checksum_fix: u64,
    /// Encapsulating or decapsulating one header.
    pub encap: u64,
    /// One payload byte through inspection.
    pub payload_byte: u64,
    /// Dispatching one state function.
    pub sf_invocation: u64,
    /// One internal-state update (counter, connection entry).
    pub state_update: u64,
    /// Recording one Local MAT entry (instrumentation write).
    pub mat_record: u64,
    /// Global MAT fast-path rule lookup.
    pub mat_lookup: u64,
    /// One consolidation run.
    pub consolidation: u64,
    /// One armed-event check (a signal compare).
    pub event_check: u64,
    /// CPU work of one inter-core ring-buffer hop (enqueue + dequeue +
    /// cache-line transfers) — counted in per-packet *work* cycles.
    pub ring_hop: u64,
    /// Additional wall-clock transit per ring hop (the packet sits in the
    /// ring while the downstream core gets to it) — counted in *latency*
    /// only. Total per-hop latency is `ring_hop + ring_transit`.
    pub ring_transit: u64,
    /// Releasing a dropped packet.
    pub drop: u64,
    /// BESS module-graph hop between NFs (single process, cheap).
    pub bess_module_hop: u64,
    /// Fixed fast-path cost for *forwarded* packets (metadata detach,
    /// Global-MAT executor dispatch). Dropped packets skip it — early drop
    /// short-circuits before dispatch.
    pub fastpath_forward_fixed: u64,
    /// Fixed fast-path cost for forwarded packets when the header action
    /// runs as a *compiled* micro-op program: straight-line dispatch with
    /// no interpretive branching over the consolidated action's vectors,
    /// so it undercuts [`CycleModel::fastpath_forward_fixed`].
    pub compiled_forward_fixed: u64,
    /// One masked word write from a compiled program (cheaper than
    /// [`CycleModel::field_write`]: no per-field parse/offset resolution).
    pub word_write: u64,
    /// One O(1) incremental checksum patch (RFC 1624) — cheaper than the
    /// full [`CycleModel::checksum_fix`] recompute.
    pub checksum_patch: u64,
    /// CPU frequency in cycles per microsecond (2.0 GHz testbed → 2000).
    pub cycles_per_us: u64,
}

impl Default for CycleModel {
    fn default() -> Self {
        Self {
            parse: 260,
            classification: 215,
            acl_rule: 16,
            hash_lookup: 190,
            hash_update: 200,
            field_write: 55,
            checksum_fix: 130,
            encap: 180,
            payload_byte: 3,
            sf_invocation: 40,
            state_update: 60,
            mat_record: 55,
            mat_lookup: 315,
            consolidation: 800,
            event_check: 45,
            ring_hop: 100,
            ring_transit: 350,
            drop: 35,
            bess_module_hop: 110,
            fastpath_forward_fixed: 150,
            compiled_forward_fixed: 110,
            word_write: 30,
            checksum_patch: 60,
            cycles_per_us: 2000,
        }
    }
}

impl CycleModel {
    /// The calibrated default model.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Maps an operation count to CPU cycles.
    #[must_use]
    pub fn cycles(&self, ops: &OpCounter) -> u64 {
        ops.parses * self.parse
            + ops.classifications * self.classification
            + ops.acl_rules_scanned * self.acl_rule
            + ops.hash_lookups * self.hash_lookup
            + ops.hash_updates * self.hash_update
            + ops.field_writes * self.field_write
            + ops.checksum_fixes * self.checksum_fix
            + ops.encaps * self.encap
            + ops.payload_bytes_scanned * self.payload_byte
            + ops.sf_invocations * self.sf_invocation
            + ops.state_updates * self.state_update
            + ops.mat_records * self.mat_record
            + ops.mat_lookups * self.mat_lookup
            + ops.consolidations * self.consolidation
            + ops.event_checks * self.event_check
            + ops.ring_hops * self.ring_hop
            + ops.drops * self.drop
            + ops.word_writes * self.word_write
            + ops.checksum_patches * self.checksum_patch
    }

    /// Converts cycles to microseconds at the model's clock.
    #[must_use]
    pub fn micros(&self, cycles: u64) -> f64 {
        cycles as f64 / self.cycles_per_us as f64
    }

    /// Converts a per-packet cycle cost to a processing rate in Mpps
    /// (packets per microsecond = Mpps).
    #[must_use]
    pub fn rate_mpps(&self, cycles_per_packet: f64) -> f64 {
        if cycles_per_packet <= 0.0 {
            return 0.0;
        }
        self.cycles_per_us as f64 / cycles_per_packet
    }
}

/// How a finished packet's step went: what [`Ledger::price`] needs
/// besides the packet's total operations and the ledger's count scratch.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Counted<'r> {
    /// Dropped at the classifier.
    Unparsed,
    /// A walk through the NFs, with the flow's rule install if
    /// `installed`. `reached` NFs counted any operation, and so cost a
    /// hop; `manager` is what ran on the manager core: the classification
    /// and the install.
    Walk { survived: bool, reached: u64, manager: OpCounter, installed: bool },
    /// The fast path on `rule`: an early drop unless `survived`, header
    /// actions `compiled`, SF batches on the Table I schedule if
    /// `parallel`.
    Fast { survived: bool, compiled: bool, parallel: bool, rule: &'r GlobalRule },
}

/// Prices each finished packet of one lane, by the DESIGN.md §17 cost
/// table, and keeps the totals a run reports beside the packets: ONVM's
/// per-stage cycles and the work per worker. It owns the lane's count
/// scratch, which the step fills; warm, nothing here allocates.
///
/// Cycles are linear in operations, so a packet's work is one pricing of
/// its total operations plus the terms that are not operations: a BESS
/// module hop per NF reached, and the fast path's forward dispatch. Its
/// latency is its work less the Table I wave overlap, plus ONVM ring
/// transit.
#[derive(Debug)]
pub(crate) struct Ledger {
    pub(crate) model: CycleModel,
    platform: Platform,
    /// Operations of each NF an in-process walk reached. A threaded
    /// lane's stays empty: its NFs count on their own threads.
    pub(crate) walk: Vec<OpCounter>,
    /// Operations of each SF batch the fast path ran.
    pub(crate) batches: Vec<OpCounter>,
    /// ONVM per-stage totals: 0 = manager (RX, classifier, Global MAT),
    /// 1..=N the NFs. Empty on BESS.
    stages: Vec<u64>,
    /// Work per FID slice (`fid & (workers - 1)`).
    workers: Vec<u64>,
    /// `workers` when the current batch opened.
    batch_start: Vec<u64>,
}

impl Ledger {
    /// A ledger for `nfs` NFs on `platform`, attributing work across
    /// `workers` (a power of two) FID slices.
    pub(crate) fn new(platform: Platform, nfs: usize, workers: usize) -> Self {
        Self {
            model: CycleModel::new(),
            platform,
            walk: Vec::new(),
            batches: Vec::new(),
            stages: if platform == Platform::Onvm { vec![0; nfs + 1] } else { Vec::new() },
            workers: vec![0; workers],
            batch_start: Vec::new(),
        }
    }

    /// The platform whose costs the ledger charges.
    pub(crate) fn platform(&self) -> Platform {
        self.platform
    }

    /// The totals so far: ONVM's per-stage cycles, and the work per
    /// worker.
    pub(crate) fn totals(&self) -> (&[u64], &[u64]) {
        (&self.stages, &self.workers)
    }

    /// Starts a batch for [`Ledger::batch_wall`].
    pub(crate) fn open_batch(&mut self) {
        self.batch_start.clone_from(&self.workers);
    }

    /// The batch's modeled wall time since [`Ledger::open_batch`]:
    /// symmetric workers drain their slices at once, so the busiest bounds
    /// it.
    pub(crate) fn batch_wall(&self) -> u64 {
        self.workers.iter().zip(&self.batch_start).map(|(now, then)| now - then).max().unwrap_or(0)
    }

    /// Prices a finished packet of FID hint `hint` that counted `ops` and
    /// went as `counted` says, charging its stages and its worker; returns
    /// its work and latency. An ONVM walk's ring hops are the platform's
    /// operations, added to `ops` here.
    pub(crate) fn price(
        &mut self,
        hint: u64,
        counted: Counted<'_>,
        ops: &mut OpCounter,
    ) -> (u64, u64) {
        let model = self.model;
        let onvm = self.platform == Platform::Onvm;
        let (work, latency, manager) = match counted {
            Counted::Unparsed => {
                let work = model.cycles(ops);
                (work, work, work)
            }
            Counted::Walk { reached, .. } if !onvm => {
                let work = model.cycles(ops) + reached * model.bess_module_hop;
                (work, work, 0)
            }
            Counted::Walk { survived, reached, mut manager, installed } => {
                // One ring hop into each NF reached, plus one back to TX if
                // the packet survived; transit is latency, not work.
                // Consolidation "involves inter-core communication": one
                // message hop per Local MAT back to the manager.
                let hops = reached + u64::from(survived);
                let messages = if installed { self.stages.len() as u64 - 1 } else { 0 };
                manager.ring_hops += messages;
                ops.ring_hops += hops + messages;
                for (stage, nf) in self.stages[1..].iter_mut().zip(&self.walk) {
                    *stage += model.cycles(nf);
                }
                let work = model.cycles(ops);
                (work, work + hops * model.ring_transit, model.cycles(&manager))
            }
            Counted::Fast { survived, compiled, parallel, rule } => {
                let mut work = model.cycles(ops);
                if survived {
                    work += if compiled {
                        model.compiled_forward_fixed
                    } else {
                        model.fastpath_forward_fixed
                    };
                }
                // A wave's batches run at once: the wave adds only its
                // slowest batch to latency. On ONVM each batch runs on its
                // owner's core, and the rest stays with the manager.
                let waves = if survived && parallel { rule.schedule.as_slice() } else { &[] };
                let (mut dispatched, mut overlap) = (0, 0);
                for wave in waves {
                    let (mut sum, mut slowest) = (0, 0);
                    for &i in wave {
                        let cycles = model.cycles(&self.batches[i]);
                        if onvm {
                            self.stages[rule.batches[i].nf.index() + 1] += cycles;
                        }
                        sum += cycles;
                        slowest = slowest.max(cycles);
                    }
                    dispatched += sum;
                    overlap += sum - slowest;
                }
                (work, work - overlap, work - dispatched)
            }
        };
        if let Some(stage) = self.stages.first_mut() {
            *stage += manager;
        }
        // Masked by the (power-of-two) worker count, so the cast cannot
        // lose anything the mask keeps.
        #[allow(clippy::cast_possible_truncation)]
        let w = (hint as usize) & (self.workers.len() - 1);
        self.workers[w] += work;
        (work, latency)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_ops_zero_cycles() {
        let m = CycleModel::new();
        assert_eq!(m.cycles(&OpCounter::default()), 0);
    }

    #[test]
    fn cycles_are_linear_in_ops() {
        let m = CycleModel::new();
        let one = OpCounter { parses: 1, ..OpCounter::default() };
        let five = OpCounter { parses: 5, ..OpCounter::default() };
        assert_eq!(m.cycles(&five), 5 * m.cycles(&one));
    }

    #[test]
    fn micros_at_2ghz() {
        let m = CycleModel::new();
        assert!((m.micros(2000) - 1.0).abs() < 1e-12);
        assert!((m.micros(5000) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn rate_is_inverse_of_cost() {
        let m = CycleModel::new();
        assert!((m.rate_mpps(2000.0) - 1.0).abs() < 1e-12);
        assert!((m.rate_mpps(4000.0) - 0.5).abs() < 1e-12);
        assert_eq!(m.rate_mpps(0.0), 0.0);
    }

    #[test]
    fn every_op_kind_is_priced() {
        // An OpCounter with one of everything must cost the sum of all
        // per-op constants (guards against forgetting a field).
        let m = CycleModel::new();
        let ones = OpCounter {
            parses: 1,
            classifications: 1,
            acl_rules_scanned: 1,
            hash_lookups: 1,
            hash_updates: 1,
            field_writes: 1,
            checksum_fixes: 1,
            encaps: 1,
            payload_bytes_scanned: 1,
            sf_invocations: 1,
            state_updates: 1,
            mat_records: 1,
            mat_lookups: 1,
            consolidations: 1,
            event_checks: 1,
            ring_hops: 1,
            drops: 1,
            word_writes: 1,
            checksum_patches: 1,
        };
        let expected = m.parse
            + m.classification
            + m.acl_rule
            + m.hash_lookup
            + m.hash_update
            + m.field_write
            + m.checksum_fix
            + m.encap
            + m.payload_byte
            + m.sf_invocation
            + m.state_update
            + m.mat_record
            + m.mat_lookup
            + m.consolidation
            + m.event_check
            + m.ring_hop
            + m.drop
            + m.word_write
            + m.checksum_patch;
        assert_eq!(m.cycles(&ones), expected);
    }

    #[test]
    fn compiled_costs_undercut_interpreted() {
        // The compiled path's premise: straight-line masked writes and
        // O(1) checksum patches must price below their interpreted
        // counterparts, and so must the fixed forward dispatch.
        let m = CycleModel::new();
        assert!(m.word_write < m.field_write);
        assert!(m.checksum_patch < m.checksum_fix);
        assert!(m.compiled_forward_fixed < m.fastpath_forward_fixed);
    }
}
