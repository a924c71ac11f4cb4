//! Mergeable point-in-time snapshots and their exposition formats.

use crate::counters::{OpTotals, PathClass};
use crate::hist::{bucket_upper, HistogramSnapshot};
use crate::json::{escape, Json};
use std::fmt::Write as _;

/// A consistent copy of every telemetry counter, summed across shards.
///
/// Snapshots merge associatively (`merge` is bucket-wise `+`/`min`/`max`),
/// so per-thread or per-process snapshots can be combined in any order —
/// the property the proptest suite locks in.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TelemetrySnapshot {
    /// Packets that finished processing: `delivered + dropped`.
    pub packets: u64,
    /// Packets that left the chain alive.
    pub delivered: u64,
    /// Packets dropped anywhere in the chain.
    pub dropped: u64,
    /// Per-path packet counts, indexed by [`PathClass::index`]: each
    /// path's latency count.
    pub paths: [u64; 3],
    /// Per-path latency histograms, in model cycles (every runtime).
    pub latency: [HistogramSnapshot; 3],
    /// Flows admitted by the classifier.
    pub flows_opened: u64,
    /// Flows explicitly torn down (FIN/RST or API removal).
    pub flows_closed: u64,
    /// Flows reclaimed by idle expiry.
    pub flows_expired: u64,
    /// Flows displaced by capacity-pressure LRU eviction.
    pub flows_evicted: u64,
    /// Flows refused admission at capacity (Reject policy).
    pub flows_rejected: u64,
    /// Packets steered to the slow path by a 20-bit FID collision.
    pub fid_collisions: u64,
    /// TCP handshake packets steered around the fast path.
    pub handshake_packets: u64,
    /// Fast-path lookups that found a consolidated rule.
    pub fastpath_hits: u64,
    /// Fast-path lookups that missed.
    pub fastpath_misses: u64,
    /// Consolidated rules installed into the Global MAT.
    pub rules_installed: u64,
    /// Rules rewritten by Event Table firings.
    pub rule_rewrites: u64,
    /// Rules removed from the Global MAT.
    pub rules_removed: u64,
    /// Event Table conditions that fired.
    pub events_fired: u64,
    /// Packets whose header action ran as a compiled micro-op program.
    pub compiled_hits: u64,
    /// Packets that fell back to the interpreted header action even though
    /// a compiled program was available (`--interpreted` or ablation).
    pub compiled_fallbacks: u64,
    /// Packet-pool buffer requests served from the pool.
    pub pool_hits: u64,
    /// Pool requests that fell back to heap allocation (pool exhausted).
    pub pool_misses: u64,
    /// Buffers accepted back into the pool for reuse.
    pub pool_recycled: u64,
    /// Magazine batch refills from the pool depot.
    pub pool_refills: u64,
    /// Magazine batch flushes back to the pool depot.
    pub pool_flushes: u64,
    /// Idle buffers in the pool depot at snapshot time (sampled gauge).
    pub pool_depth: u64,
    /// Chain-consistent checkpoints taken (periodic, bound-forced or on
    /// demand).
    pub snapshots_taken: u64,
    /// In-flight log entries replayed during NF recovery.
    pub replay_depth: u64,
    /// Packets steered to the baseline walk by an open quarantine window.
    pub quarantine_packets: u64,
    /// NF crash (kill) events handled by the supervisor.
    pub nf_kills: u64,
    /// Quarantine windows closed (NF recoveries).
    pub nf_recoveries: u64,
    /// Mirror of the abstract-operation counters (see `OP_NAMES`).
    pub ops: OpTotals,
}

impl TelemetrySnapshot {
    /// Folds `other` into `self`. Associative and commutative.
    pub fn merge(&mut self, other: &TelemetrySnapshot) {
        self.packets += other.packets;
        self.delivered += other.delivered;
        self.dropped += other.dropped;
        for (dst, src) in self.paths.iter_mut().zip(&other.paths) {
            *dst += src;
        }
        for (dst, src) in self.latency.iter_mut().zip(&other.latency) {
            dst.merge(src);
        }
        self.flows_opened += other.flows_opened;
        self.flows_closed += other.flows_closed;
        self.flows_expired += other.flows_expired;
        self.flows_evicted += other.flows_evicted;
        self.flows_rejected += other.flows_rejected;
        self.fid_collisions += other.fid_collisions;
        self.handshake_packets += other.handshake_packets;
        self.fastpath_hits += other.fastpath_hits;
        self.fastpath_misses += other.fastpath_misses;
        self.rules_installed += other.rules_installed;
        self.rule_rewrites += other.rule_rewrites;
        self.rules_removed += other.rules_removed;
        self.events_fired += other.events_fired;
        self.compiled_hits += other.compiled_hits;
        self.compiled_fallbacks += other.compiled_fallbacks;
        self.pool_hits += other.pool_hits;
        self.pool_misses += other.pool_misses;
        self.pool_recycled += other.pool_recycled;
        self.pool_refills += other.pool_refills;
        self.pool_flushes += other.pool_flushes;
        self.pool_depth += other.pool_depth;
        self.snapshots_taken += other.snapshots_taken;
        self.replay_depth += other.replay_depth;
        self.quarantine_packets += other.quarantine_packets;
        self.nf_kills += other.nf_kills;
        self.nf_recoveries += other.nf_recoveries;
        self.ops.merge(&other.ops);
    }

    /// All-path latency histogram (merge of the three per-path ones).
    #[must_use]
    pub fn latency_total(&self) -> HistogramSnapshot {
        let mut total = HistogramSnapshot::default();
        for h in &self.latency {
            total.merge(h);
        }
        total
    }

    /// Fraction of finished packets served by the consolidated fast path.
    #[must_use]
    pub fn fastpath_hit_rate(&self) -> f64 {
        if self.packets == 0 {
            0.0
        } else {
            self.paths[PathClass::Subsequent.index()] as f64 / self.packets as f64
        }
    }

    /// Named scalar counters in exposition order (everything except the
    /// per-path arrays, histograms and op mirror).
    #[must_use]
    pub fn scalars(&self) -> [(&'static str, u64); 29] {
        [
            ("packets", self.packets),
            ("delivered", self.delivered),
            ("dropped", self.dropped),
            ("flows_opened", self.flows_opened),
            ("flows_closed", self.flows_closed),
            ("flows_expired", self.flows_expired),
            ("flows_evicted", self.flows_evicted),
            ("flows_rejected", self.flows_rejected),
            ("fid_collisions", self.fid_collisions),
            ("handshake_packets", self.handshake_packets),
            ("fastpath_hits", self.fastpath_hits),
            ("fastpath_misses", self.fastpath_misses),
            ("rules_installed", self.rules_installed),
            ("rule_rewrites", self.rule_rewrites),
            ("rules_removed", self.rules_removed),
            ("events_fired", self.events_fired),
            ("compiled_hits", self.compiled_hits),
            ("compiled_fallbacks", self.compiled_fallbacks),
            ("pool_hits", self.pool_hits),
            ("pool_misses", self.pool_misses),
            ("pool_recycled", self.pool_recycled),
            ("pool_refills", self.pool_refills),
            ("pool_flushes", self.pool_flushes),
            ("pool_depth", self.pool_depth),
            ("snapshots_taken", self.snapshots_taken),
            ("replay_depth", self.replay_depth),
            ("quarantine_packets", self.quarantine_packets),
            ("nf_kills", self.nf_kills),
            ("nf_recoveries", self.nf_recoveries),
        ]
    }

    /// Prometheus text exposition (v0.0.4). Histogram buckets are emitted
    /// cumulatively with log2 `le` bounds, one series per path kind.
    #[must_use]
    pub fn to_prometheus(&self) -> String {
        let mut out = String::with_capacity(4096);
        for (name, value) in self.scalars() {
            let _ = writeln!(out, "# TYPE speedybox_{name}_total counter");
            let _ = writeln!(out, "speedybox_{name}_total {value}");
        }
        let _ = writeln!(out, "# TYPE speedybox_path_packets_total counter");
        for path in PathClass::ALL {
            let _ = writeln!(
                out,
                "speedybox_path_packets_total{{path=\"{}\"}} {}",
                path.label(),
                self.paths[path.index()]
            );
        }
        let _ = writeln!(out, "# TYPE speedybox_ops_total counter");
        for (name, value) in self.ops.named() {
            let _ = writeln!(out, "speedybox_ops_total{{op=\"{name}\"}} {value}");
        }
        let _ = writeln!(out, "# HELP speedybox_latency packet latency in model cycles");
        let _ = writeln!(out, "# TYPE speedybox_latency histogram");
        for path in PathClass::ALL {
            let h = &self.latency[path.index()];
            let label = path.label();
            let top = h.buckets.iter().rposition(|&n| n > 0).map_or(0, |i| i + 1);
            let mut cumulative = 0u64;
            for (i, &n) in h.buckets.iter().take(top).enumerate() {
                cumulative += n;
                let _ = writeln!(
                    out,
                    "speedybox_latency_bucket{{path=\"{label}\",le=\"{}\"}} {cumulative}",
                    bucket_upper(i)
                );
            }
            let _ = writeln!(
                out,
                "speedybox_latency_bucket{{path=\"{label}\",le=\"+Inf\"}} {}",
                h.count
            );
            let _ = writeln!(out, "speedybox_latency_sum{{path=\"{label}\"}} {}", h.sum);
            let _ = writeln!(out, "speedybox_latency_count{{path=\"{label}\"}} {}", h.count);
        }
        out
    }

    /// JSON dump. Histogram buckets are sparse `[index, count]` pairs, so
    /// the document stays small and `u64` values round-trip exactly.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(2048);
        out.push_str("{\n");
        for (name, value) in self.scalars() {
            let _ = writeln!(out, "  \"{}\": {},", escape(name), value);
        }
        let _ = writeln!(
            out,
            "  \"paths\": {{\"baseline\": {}, \"initial\": {}, \"subsequent\": {}}},",
            self.paths[0], self.paths[1], self.paths[2]
        );
        out.push_str("  \"ops\": {");
        let mut first = true;
        for (name, value) in self.ops.named() {
            if !first {
                out.push_str(", ");
            }
            first = false;
            let _ = write!(out, "\"{name}\": {value}");
        }
        out.push_str("},\n");
        out.push_str("  \"latency\": {");
        for (pi, path) in PathClass::ALL.iter().enumerate() {
            if pi > 0 {
                out.push_str(", ");
            }
            let h = &self.latency[path.index()];
            let _ = write!(
                out,
                "\"{}\": {{\"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \"buckets\": [",
                path.label(),
                h.count,
                h.sum,
                h.min,
                h.max
            );
            let mut first = true;
            for (i, &n) in h.buckets.iter().enumerate() {
                if n == 0 {
                    continue;
                }
                if !first {
                    out.push_str(", ");
                }
                first = false;
                let _ = write!(out, "[{i}, {n}]");
            }
            out.push_str("]}");
        }
        out.push_str("},\n");
        let _ = writeln!(out, "  \"fastpath_hit_rate\": {:.6}", self.fastpath_hit_rate());
        out.push_str("}\n");
        out
    }

    /// Parses a snapshot back from [`Self::to_json`] output.
    pub fn from_json(text: &str) -> Result<TelemetrySnapshot, String> {
        let doc = Json::parse(text)?;
        let field = |name: &str| -> Result<u64, String> {
            doc.get(name)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("missing or non-integer field '{name}'"))
        };
        // Recovery counters postdate the format; absent means zero so dumps
        // written before NF supervision existed still parse.
        let lenient = |name: &str| doc.get(name).and_then(Json::as_u64).unwrap_or(0);
        let mut snap = TelemetrySnapshot {
            packets: field("packets")?,
            delivered: field("delivered")?,
            dropped: field("dropped")?,
            flows_opened: field("flows_opened")?,
            flows_closed: field("flows_closed")?,
            flows_expired: field("flows_expired")?,
            flows_evicted: field("flows_evicted")?,
            flows_rejected: field("flows_rejected")?,
            fid_collisions: field("fid_collisions")?,
            handshake_packets: field("handshake_packets")?,
            fastpath_hits: field("fastpath_hits")?,
            fastpath_misses: field("fastpath_misses")?,
            rules_installed: field("rules_installed")?,
            rule_rewrites: field("rule_rewrites")?,
            rules_removed: field("rules_removed")?,
            events_fired: field("events_fired")?,
            compiled_hits: field("compiled_hits")?,
            compiled_fallbacks: field("compiled_fallbacks")?,
            pool_hits: field("pool_hits")?,
            pool_misses: field("pool_misses")?,
            pool_recycled: field("pool_recycled")?,
            pool_refills: field("pool_refills")?,
            pool_flushes: field("pool_flushes")?,
            pool_depth: field("pool_depth")?,
            snapshots_taken: lenient("snapshots_taken"),
            replay_depth: lenient("replay_depth"),
            quarantine_packets: lenient("quarantine_packets"),
            nf_kills: lenient("nf_kills"),
            nf_recoveries: lenient("nf_recoveries"),
            ..TelemetrySnapshot::default()
        };
        let paths = doc.get("paths").ok_or("missing 'paths'")?;
        for path in PathClass::ALL {
            snap.paths[path.index()] = paths
                .get(path.label())
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("missing path '{}'", path.label()))?;
        }
        let ops = doc.get("ops").ok_or("missing 'ops'")?;
        for (slot, name) in snap.ops.0.iter_mut().zip(crate::counters::OP_NAMES) {
            *slot = ops
                .get(name)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("missing op '{name}'"))?;
        }
        let latency = doc.get("latency").ok_or("missing 'latency'")?;
        for path in PathClass::ALL {
            let h = latency
                .get(path.label())
                .ok_or_else(|| format!("missing latency '{}'", path.label()))?;
            let get = |k: &str| {
                h.get(k).and_then(Json::as_u64).ok_or_else(|| format!("missing latency.{k}"))
            };
            let dst = &mut snap.latency[path.index()];
            dst.count = get("count")?;
            dst.sum = get("sum")?;
            dst.min = get("min")?;
            dst.max = get("max")?;
            for pair in h.get("buckets").and_then(Json::as_array).ok_or("missing buckets")? {
                let pair = pair.as_array().ok_or("bucket entry is not a pair")?;
                let (i, n) = match pair {
                    [i, n] => (
                        usize::try_from(i.as_u64().ok_or("bad bucket index")?)
                            .map_err(|_| "bad bucket index")?,
                        n.as_u64().ok_or("bad bucket count")?,
                    ),
                    _ => return Err("bucket entry is not a pair".into()),
                };
                *dst.buckets.get_mut(i).ok_or("bucket index out of range")? = n;
            }
        }
        Ok(snap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counters::{PathClass, Telemetry};

    fn sample() -> TelemetrySnapshot {
        let t = Telemetry::new(4);
        for i in 0..10u64 {
            t.shard(i).record_packet(PathClass::Subsequent, 40 + i, true);
        }
        t.shard(0).record_packet(PathClass::Initial, 900, true);
        t.shard(1).record_packet(PathClass::Baseline, 300, false);
        t.shard(2).add_fastpath_hits(10);
        t.shard(2).add_fastpath_misses(1);
        t.shard(3).add_rules_installed(2);
        t.shard(0).add_events_fired(1);
        t.shard(0).add_pool_hits(6);
        t.shard(0).add_pool_misses(2);
        t.shard(0).add_pool_recycled(5);
        t.shard(0).add_pool_refills(1);
        t.shard(0).add_pool_flushes(1);
        t.shard(0).set_pool_depth(4);
        t.shard(0).add_snapshots_taken(3);
        t.shard(0).add_replay_depth(7);
        t.shard(1).add_quarantine_packets(5);
        t.shard(0).add_nf_kills(1);
        t.shard(0).add_nf_recoveries(1);
        let mut ops = OpTotals::default();
        ops.0[0] = 12;
        ops.0[13] = 2;
        t.shard(1).add_ops(&ops);
        t.snapshot()
    }

    #[test]
    fn json_round_trip_is_exact() {
        let snap = sample();
        let back = TelemetrySnapshot::from_json(&snap.to_json()).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn json_round_trip_extreme_values() {
        let mut snap = TelemetrySnapshot { packets: u64::MAX, ..Default::default() };
        snap.latency[0].count = 1;
        snap.latency[0].sum = u64::MAX;
        snap.latency[0].min = u64::MAX;
        snap.latency[0].max = u64::MAX;
        snap.latency[0].buckets[63] = 1;
        let back = TelemetrySnapshot::from_json(&snap.to_json()).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn merge_sums_everything() {
        let a = sample();
        let mut m = a.clone();
        m.merge(&a);
        assert_eq!(m.packets, 2 * a.packets);
        assert_eq!(m.fastpath_hits, 2 * a.fastpath_hits);
        assert_eq!(m.ops.0[0], 2 * a.ops.0[0]);
        assert_eq!(m.latency_total().count, 2 * a.latency_total().count);
        assert_eq!(m.latency[2].min, a.latency[2].min);
    }

    #[test]
    fn hit_rate() {
        let snap = sample();
        assert!((snap.fastpath_hit_rate() - 10.0 / 12.0).abs() < 1e-9);
        assert_eq!(TelemetrySnapshot::default().fastpath_hit_rate(), 0.0);
    }

    #[test]
    fn prometheus_shape() {
        let text = sample().to_prometheus();
        assert!(text.contains("speedybox_packets_total 12"));
        assert!(text.contains("speedybox_path_packets_total{path=\"subsequent\"} 10"));
        assert!(text.contains("speedybox_ops_total{op=\"parses\"} 12"));
        assert!(text.contains("speedybox_latency_bucket{path=\"subsequent\",le=\"+Inf\"} 10"));
        assert!(text.contains("speedybox_latency_count{path=\"subsequent\"} 10"));
        // Cumulative buckets end at the total count.
        let last_sub_bucket = text
            .lines()
            .rfind(|l| l.starts_with("speedybox_latency_bucket{path=\"initial\""))
            .unwrap();
        assert!(last_sub_bucket.ends_with(" 1"));
    }

    #[test]
    fn from_json_rejects_malformed() {
        assert!(TelemetrySnapshot::from_json("{}").is_err());
        assert!(TelemetrySnapshot::from_json("not json").is_err());
    }
}
