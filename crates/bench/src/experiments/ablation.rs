//! Ablations of SpeedyBox's own design choices (beyond the paper's Fig 7):
//!
//! * **A1 — instrumentation overhead**: the paper claims recording "do\[es\]
//!   not change the original processing logic and the performance overhead
//!   can be neglected". Measured: initial-packet cost with vs. without
//!   recording (same chain, same packet).
//! * **A2 — event-check cost**: the Event Table is consulted on *every*
//!   fast-path packet; cost as a function of registered events per flow.
//! * **A3 — consolidation benefit vs. modified fields**: fast-path cost as
//!   the consolidated rule grows from 0 to 4 field writes (the marginal
//!   cost of each extra merged modify is one field write, not one NF).

use std::fmt;

use speedybox_mat::event::RulePatch;
use speedybox_mat::{Event, HeaderAction, NfId, Signal};
use speedybox_nf::synthetic::SyntheticNf;
use speedybox_nf::Nf;
use speedybox_packet::Packet;
use speedybox_platform::chains::ipfilter_chain;
use speedybox_platform::metrics::PathKind;
use speedybox_platform::{Chain, Platform};
use speedybox_stats::{table::pct_change, Table};

use crate::harness::{chain_on, flow_packets};

/// A1 results: initial-packet cycles.
#[derive(Debug, Clone, Copy)]
pub struct RecordingOverhead {
    /// Chain length measured.
    pub chain_len: usize,
    /// Uninstrumented traversal cycles.
    pub baseline: u64,
    /// Instrumented (recording) traversal cycles.
    pub recording: u64,
}

/// A2 results: fast-path cycles by number of registered (quiescent)
/// events.
#[derive(Debug, Clone)]
pub struct EventCheckCost {
    /// `(events registered, fast-path work cycles)` pairs.
    pub points: Vec<(usize, u64)>,
}

/// A3 results: fast-path cycles by number of merged field writes.
#[derive(Debug, Clone)]
pub struct ModifyWidthCost {
    /// `(fields modified, fast-path work cycles)` pairs.
    pub points: Vec<(usize, u64)>,
}

/// The full ablation set.
#[derive(Debug, Clone)]
pub struct Ablation {
    /// A1 at two chain lengths.
    pub recording: Vec<RecordingOverhead>,
    /// A2.
    pub event_checks: EventCheckCost,
    /// A3.
    pub modify_width: ModifyWidthCost,
}

fn a1(chain_len: usize) -> RecordingOverhead {
    // An ONVM chain's NF stages carry exactly the walk's per-NF cycles:
    // classification and the rule install are charged to the manager.
    let measure = |speedybox: bool| -> u64 {
        let mut chain = chain_on(Platform::Onvm, ipfilter_chain(chain_len, 200), speedybox);
        let stats = chain.run(flow_packets(1, 2600, 10));
        stats.stage_cycles[1..].iter().sum()
    };
    RecordingOverhead { chain_len, baseline: measure(false), recording: measure(true) }
}

/// The ablations' one packet, sent once to record the flow and again to
/// ride its rule.
fn packet() -> Packet {
    flow_packets(1, 2600, 10).pop().expect("one packet")
}

/// The fast path's work on `chain`'s next packet, classification
/// excluded.
fn fast_cycles(chain: &mut Chain) -> u64 {
    let out = chain.process(packet());
    assert_eq!(out.path, PathKind::Subsequent, "rule installed");
    out.work_cycles - out.ops.classifications * chain.model().classification
}

fn a2() -> EventCheckCost {
    let points = [0usize, 1, 4, 16]
        .into_iter()
        .map(|n_events| {
            let mut chain = Chain::speedybox(vec![Box::new(SyntheticNf::forward("s"))]);
            let pkt = packet();
            let fid = pkt.five_tuple().expect("valid packet").fid();
            chain.process(pkt);
            let events = chain.sbox().expect("speedybox enabled").global.events();
            for i in 0..n_events {
                events.register(
                    Event::new(
                        fid,
                        NfId::new(0),
                        format!("quiescent-{i}"),
                        Signal::new(),
                        |_| false,
                        |_| RulePatch::default(),
                    )
                    .recurring(),
                );
            }
            (n_events, fast_cycles(&mut chain))
        })
        .collect();
    EventCheckCost { points }
}

fn a3() -> ModifyWidthCost {
    use speedybox_packet::HeaderField;
    let fields =
        [HeaderField::DstIp, HeaderField::DstPort, HeaderField::SrcIp, HeaderField::SrcPort];
    let points = (0..=4usize)
        .map(|width| {
            let writes: Vec<_> = fields[..width]
                .iter()
                .map(|&f| {
                    let v: speedybox_packet::FieldValue = match f {
                        HeaderField::DstIp | HeaderField::SrcIp => {
                            std::net::Ipv4Addr::new(10, 77, 0, 1).into()
                        }
                        _ => 4242u16.into(),
                    };
                    (f, v)
                })
                .collect();
            let action = if writes.is_empty() {
                HeaderAction::Forward
            } else {
                HeaderAction::Modify(writes)
            };
            let nfs: Vec<Box<dyn Nf>> =
                vec![Box::new(SyntheticNf::forward("m").with_header_action(action))];
            let mut chain = Chain::speedybox(nfs);
            chain.process(packet());
            (width, fast_cycles(&mut chain))
        })
        .collect();
    ModifyWidthCost { points }
}

/// Runs all three ablations.
#[must_use]
pub fn run() -> Ablation {
    Ablation { recording: vec![a1(1), a1(3), a1(6)], event_checks: a2(), modify_width: a3() }
}

impl fmt::Display for Ablation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Ablations — SpeedyBox design-choice costs\n")?;
        writeln!(f, "A1: instrumentation overhead on initial packets (per-NF recording)")?;
        let mut t = Table::new(vec!["chain len", "baseline", "recording", "overhead"]);
        for r in &self.recording {
            t.row(vec![
                r.chain_len.to_string(),
                r.baseline.to_string(),
                r.recording.to_string(),
                pct_change(r.baseline as f64, r.recording as f64),
            ]);
        }
        writeln!(f, "{t}")?;
        writeln!(f, "paper §IV-B: \"the performance overhead can be neglected\" — overhead is")?;
        writeln!(f, "per-flow (initial packet only), low single-digit % of the traversal.\n")?;

        writeln!(f, "A2: fast-path cost vs registered (quiescent) events per flow")?;
        let mut t = Table::new(vec!["events", "fast-path cycles"]);
        for (n, c) in &self.event_checks.points {
            t.row(vec![n.to_string(), c.to_string()]);
        }
        writeln!(f, "{t}")?;
        writeln!(f, "linear in event count — register events only where NFs need them.\n")?;

        writeln!(f, "A3: fast-path cost vs merged modify width")?;
        let mut t = Table::new(vec!["fields modified", "fast-path cycles"]);
        for (n, c) in &self.modify_width.points {
            t.row(vec![n.to_string(), c.to_string()]);
        }
        writeln!(f, "{t}")?;
        writeln!(
            f,
            "marginal cost of an extra consolidated field is one write (~tens of cycles),\n\
             not one NF traversal (~hundreds) — the heart of the R3 saving."
        )
    }
}

#[cfg(test)]
mod tests {
    use speedybox_platform::cycles::CycleModel;

    use super::*;

    #[test]
    fn recording_overhead_is_small_and_per_flow() {
        let a = run();
        for r in &a.recording {
            assert!(r.recording > r.baseline, "recording costs something");
            let overhead = (r.recording - r.baseline) as f64 / r.baseline as f64;
            assert!(
                overhead < 0.10,
                "len {}: overhead {overhead:.3} should be 'negligible' (paper §IV-B)",
                r.chain_len
            );
        }
    }

    #[test]
    fn event_checks_scale_linearly() {
        let a = run();
        let p = &a.event_checks.points;
        assert_eq!(p[0].0, 0);
        let base = p[0].1;
        // Cost grows with event count...
        assert!(p[3].1 > p[1].1);
        // ...linearly: 16 events cost ~16x one event's marginal cost.
        let one = p[1].1 - base;
        let sixteen = p[3].1 - base;
        assert!(one > 0);
        assert!((sixteen as f64 / one as f64 - 16.0).abs() < 2.0);
    }

    #[test]
    fn modify_width_marginal_cost_is_one_word_write() {
        let a = run();
        let model = CycleModel::new();
        let p = &a.modify_width.points;
        // The default fast path runs the compiled program: going from 1 to
        // 2 fields costs exactly one extra masked word write.
        let marginal = p[2].1 - p[1].1;
        assert_eq!(marginal, model.word_write);
        // Going from 0 to 1 additionally pays the single trailing
        // incremental-checksum patch.
        assert_eq!(p[1].1 - p[0].1, model.word_write + model.checksum_patch);
    }
}
