//! The diagnostics framework: stable lint codes, severities, spans and
//! rendered reports.
//!
//! Every finding the verifier can produce has a stable `SBX0xx` code so
//! tooling (CI gates, golden tests, editors) can match on it without
//! parsing prose. Codes are never reused or renumbered; retired codes are
//! retired forever.

use std::fmt;

/// How serious a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Informational — no action needed.
    Info,
    /// Suspicious but not provably wrong; the chain still runs correctly.
    Warn,
    /// Provably unsound: the fast path would diverge from the original
    /// chain (or crash). `speedybox run --verify` refuses these chains.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Info => f.write_str("info"),
            Severity::Warn => f.write_str("warning"),
            Severity::Error => f.write_str("error"),
        }
    }
}

/// The stable lint-code table (see DESIGN.md §7 for the narrative).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LintCode {
    /// SBX001: a non-forward header action recorded after a drop. NFs
    /// downstream of a drop never see the packet on the original path, so
    /// such a rule cannot arise from honest recording.
    DeadActionAfterDrop,
    /// SBX002: a decap pops an in-chain encap whose SPI differs from the
    /// one the decap names — the tunnel egress is stripping a header that
    /// belongs to a different security association.
    DecapSpecMismatch,
    /// SBX003: a decap with no matching in-chain encap. Sound only if every
    /// packet of the flow arrives already encapsulated; otherwise the fast
    /// path errors at runtime.
    DecapUnderflow,
    /// SBX004: two NFs write the same header field with different values;
    /// the earlier write is dead (latter wins under consolidation, same as
    /// sequentially).
    ConflictingModify,
    /// SBX005: a trailing field (TTL/ToS/MAC) is written before further
    /// header surgery. Consolidation defers trailing fixes to the end;
    /// flagged so a dependence of later actions on the trailing value is
    /// visible.
    EarlyTrailingWrite,
    /// SBX006: the symbolic sequential interpretation of the chain's
    /// actions disagrees with `consolidate()`'s output — a consolidation
    /// soundness bug.
    ConsolidationMismatch,
    /// SBX007: an Event Table rewrite would install a rule that fails the
    /// consolidation-soundness pass.
    EventRewriteUnsound,
    /// SBX008: a schedule wave holds a batch pair Table I forbids
    /// (WRITE x WRITE, or WRITE ordered against a READ).
    ScheduleConflict,
    /// SBX009: the schedule is not an order-preserving partition of the
    /// batch list (an index is missing, duplicated, or out of order).
    ScheduleOrder,
    /// SBX010: the runtime payload-access tracker observed a state function
    /// writing the payload despite declaring Read or Ignore.
    AccessViolation,
    /// SBX011: the compiled micro-op program for a rule produces different
    /// bytes (or a different drop verdict) than interpreting the rule's
    /// consolidated action — a rule-compilation soundness bug.
    CompiledDivergence,
    /// SBX012: a compiled micro-op's write window can escape the frame on
    /// some admissible header geometry (VLAN tag, IPv4 options, L4 header
    /// length, AH depth) — proven by exhaustive enumeration of the
    /// geometry domain, not by sampling.
    MicroOpOutOfBounds,
    /// SBX013: an NF declares per-flow state (`has_flow_state`) but
    /// produces no snapshot, so crash recovery cannot restore it — every
    /// packet older than the in-flight log is silently lost on a kill.
    SnapshotMissing,
    /// SBX014: the debug-build missed-raise tracker found an armed event's
    /// condition holding on the fast path although its NF had not raised
    /// the event's signal — the fast path would keep serving the old rule.
    MissedRaise,
}

impl LintCode {
    /// Every code, in numeric order.
    pub const ALL: [LintCode; 14] = [
        LintCode::DeadActionAfterDrop,
        LintCode::DecapSpecMismatch,
        LintCode::DecapUnderflow,
        LintCode::ConflictingModify,
        LintCode::EarlyTrailingWrite,
        LintCode::ConsolidationMismatch,
        LintCode::EventRewriteUnsound,
        LintCode::ScheduleConflict,
        LintCode::ScheduleOrder,
        LintCode::AccessViolation,
        LintCode::CompiledDivergence,
        LintCode::MicroOpOutOfBounds,
        LintCode::SnapshotMissing,
        LintCode::MissedRaise,
    ];

    /// The stable code string (`SBX001`...).
    #[must_use]
    pub fn code(self) -> &'static str {
        match self {
            LintCode::DeadActionAfterDrop => "SBX001",
            LintCode::DecapSpecMismatch => "SBX002",
            LintCode::DecapUnderflow => "SBX003",
            LintCode::ConflictingModify => "SBX004",
            LintCode::EarlyTrailingWrite => "SBX005",
            LintCode::ConsolidationMismatch => "SBX006",
            LintCode::EventRewriteUnsound => "SBX007",
            LintCode::ScheduleConflict => "SBX008",
            LintCode::ScheduleOrder => "SBX009",
            LintCode::AccessViolation => "SBX010",
            LintCode::CompiledDivergence => "SBX011",
            LintCode::MicroOpOutOfBounds => "SBX012",
            LintCode::SnapshotMissing => "SBX013",
            LintCode::MissedRaise => "SBX014",
        }
    }

    /// Short kebab-case name for human-facing listings.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            LintCode::DeadActionAfterDrop => "dead-action-after-drop",
            LintCode::DecapSpecMismatch => "decap-spec-mismatch",
            LintCode::DecapUnderflow => "decap-underflow",
            LintCode::ConflictingModify => "conflicting-modify",
            LintCode::EarlyTrailingWrite => "early-trailing-write",
            LintCode::ConsolidationMismatch => "consolidation-mismatch",
            LintCode::EventRewriteUnsound => "event-rewrite-unsound",
            LintCode::ScheduleConflict => "schedule-conflict",
            LintCode::ScheduleOrder => "schedule-order",
            LintCode::AccessViolation => "access-violation",
            LintCode::CompiledDivergence => "compiled-divergence",
            LintCode::MicroOpOutOfBounds => "microop-out-of-bounds",
            LintCode::SnapshotMissing => "snapshot-missing",
            LintCode::MissedRaise => "missed-raise",
        }
    }

    /// The code's fixed severity.
    #[must_use]
    pub fn severity(self) -> Severity {
        match self {
            LintCode::DeadActionAfterDrop
            | LintCode::DecapSpecMismatch
            | LintCode::ConsolidationMismatch
            | LintCode::EventRewriteUnsound
            | LintCode::ScheduleConflict
            | LintCode::ScheduleOrder
            | LintCode::AccessViolation
            | LintCode::CompiledDivergence
            | LintCode::MicroOpOutOfBounds
            | LintCode::MissedRaise => Severity::Error,
            LintCode::DecapUnderflow
            | LintCode::ConflictingModify
            | LintCode::EarlyTrailingWrite
            | LintCode::SnapshotMissing => Severity::Warn,
        }
    }
}

impl fmt::Display for LintCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.code())
    }
}

/// Where in the chain a finding points: which NF (by chain position and
/// name) and which of its recorded actions.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Span {
    /// Chain position of the NF (0-based), if the finding is NF-specific.
    pub nf: Option<usize>,
    /// Diagnostic name of that NF.
    pub nf_name: Option<String>,
    /// Index into that NF's recorded action list, if action-specific.
    pub action: Option<usize>,
}

impl Span {
    /// A chain-level span (no specific NF).
    #[must_use]
    pub fn chain() -> Self {
        Span::default()
    }

    /// A span pointing at one NF.
    #[must_use]
    pub fn nf(index: usize, name: impl Into<String>) -> Self {
        Span { nf: Some(index), nf_name: Some(name.into()), action: None }
    }

    /// Narrows the span to one action of the NF.
    #[must_use]
    pub fn action(mut self, index: usize) -> Self {
        self.action = Some(index);
        self
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (self.nf, &self.nf_name) {
            (Some(i), Some(name)) => write!(f, "nf{i} ({name})")?,
            (Some(i), None) => write!(f, "nf{i}")?,
            _ => f.write_str("chain")?,
        }
        if let Some(a) = self.action {
            write!(f, " action {a}")?;
        }
        Ok(())
    }
}

/// One finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable code.
    pub code: LintCode,
    /// Severity (the code's fixed severity).
    pub severity: Severity,
    /// Where the finding points.
    pub span: Span,
    /// Human-readable explanation.
    pub message: String,
}

impl Diagnostic {
    /// Creates a finding; severity comes from the code.
    #[must_use]
    pub fn new(code: LintCode, span: Span, message: impl Into<String>) -> Self {
        Diagnostic { code, severity: code.severity(), span, message: message.into() }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]: {}\n  --> {}", self.severity, self.code, self.message, self.span)
    }
}

/// All findings for one verified chain.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Name of the verified chain.
    pub chain: String,
    /// Findings in discovery order.
    pub diagnostics: Vec<Diagnostic>,
}

impl Report {
    /// An empty report for `chain`.
    #[must_use]
    pub fn new(chain: impl Into<String>) -> Self {
        Report { chain: chain.into(), diagnostics: Vec::new() }
    }

    /// Appends a finding.
    pub fn push(&mut self, code: LintCode, span: Span, message: impl Into<String>) {
        self.diagnostics.push(Diagnostic::new(code, span, message));
    }

    /// Absorbs another report's findings (the chain name stays ours).
    pub fn merge(&mut self, other: Report) {
        self.diagnostics.extend(other.diagnostics);
    }

    /// True if any finding is [`Severity::Error`].
    #[must_use]
    pub fn has_errors(&self) -> bool {
        self.diagnostics.iter().any(|d| d.severity == Severity::Error)
    }

    /// Number of error-level findings.
    #[must_use]
    pub fn error_count(&self) -> usize {
        self.diagnostics.iter().filter(|d| d.severity == Severity::Error).count()
    }

    /// Number of warning-level findings.
    #[must_use]
    pub fn warn_count(&self) -> usize {
        self.diagnostics.iter().filter(|d| d.severity == Severity::Warn).count()
    }

    /// True if any finding carries `code`.
    #[must_use]
    pub fn has_code(&self, code: LintCode) -> bool {
        self.diagnostics.iter().any(|d| d.code == code)
    }

    /// All distinct codes present, in numeric order.
    #[must_use]
    pub fn codes(&self) -> Vec<LintCode> {
        LintCode::ALL.into_iter().filter(|c| self.has_code(*c)).collect()
    }

    /// Renders the report the way `speedybox lint` prints it.
    #[must_use]
    pub fn render_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for d in &self.diagnostics {
            let _ = writeln!(out, "{}: {d}", self.chain);
        }
        let _ = writeln!(
            out,
            "{}: {} error(s), {} warning(s)",
            self.chain,
            self.error_count(),
            self.warn_count()
        );
        out
    }

    /// Renders the report as a JSON object (stable shape; no external
    /// dependencies, so the escaping is done by hand).
    #[must_use]
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = write!(out, "{{\"chain\":{},\"diagnostics\":[", json_str(&self.chain));
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"code\":{},\"name\":{},\"severity\":{},\"message\":{}",
                json_str(d.code.code()),
                json_str(d.code.name()),
                json_str(&d.severity.to_string()),
                json_str(&d.message)
            );
            if let Some(nf) = d.span.nf {
                let _ = write!(out, ",\"nf\":{nf}");
            }
            if let Some(name) = &d.span.nf_name {
                let _ = write!(out, ",\"nf_name\":{}", json_str(name));
            }
            if let Some(a) = d.span.action {
                let _ = write!(out, ",\"action\":{a}");
            }
            out.push('}');
        }
        let _ =
            write!(out, "],\"errors\":{},\"warnings\":{}}}", self.error_count(), self.warn_count());
        out
    }
}

/// JSON string literal with escaping.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_stable_and_unique() {
        let codes: Vec<&str> = LintCode::ALL.iter().map(|c| c.code()).collect();
        assert_eq!(
            codes,
            vec![
                "SBX001", "SBX002", "SBX003", "SBX004", "SBX005", "SBX006", "SBX007", "SBX008",
                "SBX009", "SBX010", "SBX011", "SBX012", "SBX013", "SBX014"
            ]
        );
        let names: std::collections::HashSet<&str> =
            LintCode::ALL.iter().map(|c| c.name()).collect();
        assert_eq!(names.len(), LintCode::ALL.len());
    }

    #[test]
    fn severity_ordering() {
        assert!(Severity::Error > Severity::Warn);
        assert!(Severity::Warn > Severity::Info);
    }

    #[test]
    fn report_counts_and_codes() {
        let mut r = Report::new("test");
        r.push(LintCode::DeadActionAfterDrop, Span::nf(1, "fw"), "dead");
        r.push(LintCode::ConflictingModify, Span::chain(), "conflict");
        assert!(r.has_errors());
        assert_eq!(r.error_count(), 1);
        assert_eq!(r.warn_count(), 1);
        assert!(r.has_code(LintCode::DeadActionAfterDrop));
        assert!(!r.has_code(LintCode::ScheduleOrder));
        assert_eq!(r.codes(), vec![LintCode::DeadActionAfterDrop, LintCode::ConflictingModify]);
    }

    #[test]
    fn merge_absorbs_findings() {
        let mut a = Report::new("a");
        a.push(LintCode::ScheduleOrder, Span::chain(), "x");
        let mut b = Report::new("b");
        b.push(LintCode::ScheduleConflict, Span::chain(), "y");
        a.merge(b);
        assert_eq!(a.diagnostics.len(), 2);
        assert_eq!(a.chain, "a");
    }

    #[test]
    fn text_rendering_names_position() {
        let mut r = Report::new("chain1");
        r.push(LintCode::DeadActionAfterDrop, Span::nf(2, "monitor").action(0), "dead action");
        let text = r.render_text();
        assert!(text.contains("error[SBX001]"), "{text}");
        assert!(text.contains("nf2 (monitor) action 0"), "{text}");
        assert!(text.contains("1 error(s), 0 warning(s)"), "{text}");
    }

    #[test]
    fn json_rendering_escapes_and_counts() {
        let mut r = Report::new("c\"x");
        r.push(LintCode::AccessViolation, Span::nf(0, "snort"), "wrote \"payload\"\n");
        let json = r.to_json();
        assert!(json.contains("\"chain\":\"c\\\"x\""), "{json}");
        assert!(json.contains("\"code\":\"SBX010\""), "{json}");
        assert!(json.contains("\\\"payload\\\"\\n"), "{json}");
        assert!(json.contains("\"errors\":1"), "{json}");
        assert!(json.contains("\"nf\":0"), "{json}");
    }

    #[test]
    fn severity_comes_from_code() {
        let d = Diagnostic::new(LintCode::DecapUnderflow, Span::chain(), "m");
        assert_eq!(d.severity, Severity::Warn);
        assert_eq!(LintCode::ConsolidationMismatch.severity(), Severity::Error);
    }
}
