//! Abstract operation counting for deterministic cost accounting.
//!
//! The paper reports *CPU cycles per packet* on a specific Xeon testbed.
//! Instead of chasing absolute cycle counts, every component in this
//! reproduction counts the abstract operations it performs (parses,
//! classifications, ACL rules scanned, payload bytes inspected, field
//! writes, ring hops, MAT lookups, ...). The platform crate's cycle model
//! then maps operation counts to cycles with calibrated per-op costs,
//! which makes every figure deterministic and unit-testable while keeping
//! the paper's *ratios* (the actual claims) intact.

/// Counts of abstract operations performed while processing packets.
///
/// Additive: combine counters from pipeline stages with `+`/`+=`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpCounter {
    /// Full header parses (Ethernet+IPv4+L4).
    pub parses: u64,
    /// Flow-table classifications (hash of the 5-tuple + table probe).
    pub classifications: u64,
    /// ACL rules scanned linearly (IPFilter-style matching).
    pub acl_rules_scanned: u64,
    /// Hash-table lookups (NAT mappings, Maglev connection table, ...).
    pub hash_lookups: u64,
    /// Hash-table inserts/removals.
    pub hash_updates: u64,
    /// Header fields written in place.
    pub field_writes: u64,
    /// Checksum fix-ups (IPv4 + L4 recompute).
    pub checksum_fixes: u64,
    /// Encapsulation or decapsulation operations.
    pub encaps: u64,
    /// Payload bytes run through inspection (Aho-Corasick steps).
    pub payload_bytes_scanned: u64,
    /// State-function invocations.
    pub sf_invocations: u64,
    /// Counter/state updates (monitor counters, SYN counters, ...).
    pub state_updates: u64,
    /// Local MAT record insertions (instrumentation writes).
    pub mat_records: u64,
    /// Global MAT fast-path rule lookups.
    pub mat_lookups: u64,
    /// Consolidation runs (initial packets and event re-consolidations).
    pub consolidations: u64,
    /// Armed-event checks, one per armed event per fast-path packet.
    pub event_checks: u64,
    /// Inter-core ring-buffer hops (OpenNetVM-style IO).
    pub ring_hops: u64,
    /// Packets dropped.
    pub drops: u64,
    /// Masked word writes executed by compiled fast-path programs.
    pub word_writes: u64,
    /// O(1) incremental checksum patches (RFC 1624) by compiled programs.
    pub checksum_patches: u64,
}

impl OpCounter {
    /// A zeroed counter.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Merges another counter into this one.
    pub fn merge(&mut self, other: &OpCounter) {
        self.parses += other.parses;
        self.classifications += other.classifications;
        self.acl_rules_scanned += other.acl_rules_scanned;
        self.hash_lookups += other.hash_lookups;
        self.hash_updates += other.hash_updates;
        self.field_writes += other.field_writes;
        self.checksum_fixes += other.checksum_fixes;
        self.encaps += other.encaps;
        self.payload_bytes_scanned += other.payload_bytes_scanned;
        self.sf_invocations += other.sf_invocations;
        self.state_updates += other.state_updates;
        self.mat_records += other.mat_records;
        self.mat_lookups += other.mat_lookups;
        self.consolidations += other.consolidations;
        self.event_checks += other.event_checks;
        self.ring_hops += other.ring_hops;
        self.drops += other.drops;
        self.word_writes += other.word_writes;
        self.checksum_patches += other.checksum_patches;
    }

    /// The counter as telemetry [`OpTotals`](speedybox_telemetry::OpTotals),
    /// field order matching `speedybox_telemetry::OP_NAMES`. The
    /// differential test in the workspace root keeps the two types in
    /// lock-step.
    #[must_use]
    pub fn telemetry_totals(&self) -> speedybox_telemetry::OpTotals {
        speedybox_telemetry::OpTotals([
            self.parses,
            self.classifications,
            self.acl_rules_scanned,
            self.hash_lookups,
            self.hash_updates,
            self.field_writes,
            self.checksum_fixes,
            self.encaps,
            self.payload_bytes_scanned,
            self.sf_invocations,
            self.state_updates,
            self.mat_records,
            self.mat_lookups,
            self.consolidations,
            self.event_checks,
            self.ring_hops,
            self.drops,
            self.word_writes,
            self.checksum_patches,
        ])
    }

    /// Sum of all counted operations (rough activity measure for tests).
    #[must_use]
    pub fn total(&self) -> u64 {
        self.parses
            + self.classifications
            + self.acl_rules_scanned
            + self.hash_lookups
            + self.hash_updates
            + self.field_writes
            + self.checksum_fixes
            + self.encaps
            + self.payload_bytes_scanned
            + self.sf_invocations
            + self.state_updates
            + self.mat_records
            + self.mat_lookups
            + self.consolidations
            + self.event_checks
            + self.ring_hops
            + self.drops
            + self.word_writes
            + self.checksum_patches
    }
}

impl std::ops::Add for OpCounter {
    type Output = OpCounter;

    fn add(mut self, rhs: OpCounter) -> OpCounter {
        self.merge(&rhs);
        self
    }
}

impl std::ops::AddAssign for OpCounter {
    fn add_assign(&mut self, rhs: OpCounter) {
        self.merge(&rhs);
    }
}

impl std::iter::Sum for OpCounter {
    fn sum<I: Iterator<Item = OpCounter>>(iter: I) -> Self {
        iter.fold(OpCounter::default(), |a, b| a + b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_is_additive() {
        let a = OpCounter { parses: 2, drops: 1, ..OpCounter::default() };
        let b = OpCounter { parses: 3, ring_hops: 4, ..OpCounter::default() };
        let c = a + b;
        assert_eq!(c.parses, 5);
        assert_eq!(c.drops, 1);
        assert_eq!(c.ring_hops, 4);
    }

    #[test]
    fn total_counts_everything() {
        let mut c = OpCounter::default();
        assert_eq!(c.total(), 0);
        c.parses = 1;
        c.event_checks = 2;
        assert_eq!(c.total(), 3);
    }

    #[test]
    fn sum_over_iterator() {
        let parts = vec![
            OpCounter { sf_invocations: 1, ..OpCounter::default() },
            OpCounter { sf_invocations: 2, ..OpCounter::default() },
        ];
        let total: OpCounter = parts.into_iter().sum();
        assert_eq!(total.sf_invocations, 3);
    }
}
