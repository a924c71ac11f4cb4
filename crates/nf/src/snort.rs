//! SnortLite: a Snort-style intrusion detection NF (paper §VI-C).
//!
//! The paper ports Snort onto DPDK and casts its packet-inspection
//! functions as SpeedyBox state functions; modifying Snort took 27 lines.
//! `SnortLite` reproduces the behaviourally relevant core: a rule language
//! subset (action, protocol, ports, `content` patterns, `msg`),
//! multi-pattern payload inspection via [`crate::AhoCorasick`], per-flow
//! rule-candidate selection on the initial packet ("Snort assigns a rule
//! matching function for each flow as initial packet arrives", Observation
//! 1), and Pass/Alert/Log outputs used by the §VII-C1 equivalence tests.
//!
//! Snort never modifies packets, so its header action is `forward` and its
//! inspection is a payload-`READ` state function.

use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::ops::ControlFlow;
use std::str::FromStr;
use std::sync::Arc;

use parking_lot::Mutex;
use speedybox_mat::state_fn::PayloadAccess;
use speedybox_mat::{HeaderAction, StateFunction};
use speedybox_packet::{Fid, Packet, Protocol};

use crate::inspect::AhoCorasick;
use crate::nf::{Nf, NfContext, NfVerdict, StateSnapshot};
use crate::regex::Regex;

/// Rule action, in Snort's classic three flavours.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RuleAction {
    /// Ignore matching traffic (stop further rule evaluation).
    Pass,
    /// Raise an alert and log.
    Alert,
    /// Log without alerting.
    Log,
}

impl fmt::Display for RuleAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuleAction::Pass => f.write_str("pass"),
            RuleAction::Alert => f.write_str("alert"),
            RuleAction::Log => f.write_str("log"),
        }
    }
}

/// A port constraint: `any` or a specific port.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PortSpec {
    /// Matches every port.
    Any,
    /// Matches exactly this port.
    Port(u16),
}

impl PortSpec {
    fn matches(self, port: u16) -> bool {
        match self {
            PortSpec::Any => true,
            PortSpec::Port(p) => p == port,
        }
    }
}

impl FromStr for PortSpec {
    type Err = RuleParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if s == "any" {
            Ok(PortSpec::Any)
        } else {
            s.parse::<u16>().map(PortSpec::Port).map_err(|_| RuleParseError::BadPort(s.to_owned()))
        }
    }
}

/// One `content` pattern with its Snort modifiers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ContentSpec {
    /// The byte pattern.
    pub pattern: Vec<u8>,
    /// `nocase`: match case-insensitively.
    pub nocase: bool,
    /// `offset:N`: the match may start no earlier than byte N.
    pub offset: usize,
    /// `depth:N`: the match must lie within N bytes starting at `offset`.
    pub depth: Option<usize>,
}

impl ContentSpec {
    /// A plain case-sensitive content with no positional constraints.
    #[must_use]
    pub fn plain(pattern: &[u8]) -> Self {
        Self { pattern: pattern.to_vec(), nocase: false, offset: 0, depth: None }
    }

    /// True if the content matches `payload` under its modifiers.
    #[must_use]
    pub fn matches(&self, payload: &[u8]) -> bool {
        if self.pattern.is_empty() {
            return true;
        }
        let end = match self.depth {
            Some(d) => self.offset.saturating_add(d).min(payload.len()),
            None => payload.len(),
        };
        let window = payload.get(self.offset..end).unwrap_or_default();
        if window.len() < self.pattern.len() {
            return false;
        }
        window.windows(self.pattern.len()).any(|w| {
            if self.nocase {
                w.eq_ignore_ascii_case(&self.pattern)
            } else {
                w == self.pattern.as_slice()
            }
        })
    }
}

/// A parsed SnortLite rule.
#[derive(Debug, Clone)]
pub struct Rule {
    /// What to do on match.
    pub action: RuleAction,
    /// Transport protocol the rule applies to.
    pub protocol: Protocol,
    /// Source-port constraint.
    pub src_port: PortSpec,
    /// Destination-port constraint.
    pub dst_port: PortSpec,
    /// All `content` specs; every one must match the payload.
    pub contents: Vec<ContentSpec>,
    /// All `pcre` patterns; every one must match the payload (the regular
    /// matching the paper highlights as beyond OVS, §II-B).
    pub pcres: Vec<Regex>,
    /// Human-readable message for alert/log output.
    pub msg: String,
}

impl Rule {
    /// True if the rule's header constraints accept this flow.
    #[must_use]
    pub fn matches_header(&self, proto: Protocol, src_port: u16, dst_port: u16) -> bool {
        self.protocol == proto && self.src_port.matches(src_port) && self.dst_port.matches(dst_port)
    }

    /// True if every content spec and every pcre matches the payload.
    #[must_use]
    pub fn matches_payload(&self, payload: &[u8]) -> bool {
        self.contents.iter().all(|c| c.matches(payload))
            && self.pcres.iter().all(|r| r.is_match(payload))
    }
}

/// Errors from parsing the rule language.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RuleParseError {
    /// The line does not have the `action proto sport -> dport (opts)` shape.
    BadShape(String),
    /// Unknown action keyword.
    BadAction(String),
    /// Unknown protocol keyword.
    BadProtocol(String),
    /// Unparseable port.
    BadPort(String),
    /// A rule without any `content` option (SnortLite requires one).
    NoContent,
    /// A `content` option with an empty pattern, which Snort refuses.
    EmptyContent,
    /// A content modifier (`nocase`/`offset`/`depth`) with no preceding
    /// `content`.
    DanglingModifier(String),
    /// A `pcre` option with an invalid pattern.
    BadPcre(crate::regex::RegexError),
}

impl fmt::Display for RuleParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuleParseError::BadShape(l) => write!(f, "malformed rule line: {l}"),
            RuleParseError::BadAction(a) => write!(f, "unknown rule action: {a}"),
            RuleParseError::BadProtocol(p) => write!(f, "unknown protocol: {p}"),
            RuleParseError::BadPort(p) => write!(f, "bad port: {p}"),
            RuleParseError::NoContent => f.write_str("rule has no content pattern"),
            RuleParseError::EmptyContent => f.write_str("content pattern is empty"),
            RuleParseError::DanglingModifier(m) => {
                write!(f, "content modifier without a content: {m}")
            }
            RuleParseError::BadPcre(e) => write!(f, "bad pcre: {e}"),
        }
    }
}

impl std::error::Error for RuleParseError {}

/// The content that `modifier` applies to: the rule's most recent one, as
/// in Snort.
fn modified<'a>(
    contents: &'a mut [ContentSpec],
    modifier: &str,
) -> Result<&'a mut ContentSpec, RuleParseError> {
    contents.last_mut().ok_or_else(|| RuleParseError::DanglingModifier(modifier.into()))
}

impl FromStr for Rule {
    type Err = RuleParseError;

    /// Parses one rule line, e.g.:
    ///
    /// ```text
    /// alert tcp any any -> any 80 (msg:"evil GET"; content:"evil";)
    /// ```
    fn from_str(line: &str) -> Result<Self, Self::Err> {
        let bad = || RuleParseError::BadShape(line.to_owned());
        let (head, opts) = line.split_once('(').ok_or_else(bad)?;
        let opts = opts.trim_end().strip_suffix(')').ok_or_else(bad)?;
        let mut parts = head.split_whitespace();
        let action = match parts.next().ok_or_else(bad)? {
            "pass" => RuleAction::Pass,
            "alert" => RuleAction::Alert,
            "log" => RuleAction::Log,
            other => return Err(RuleParseError::BadAction(other.to_owned())),
        };
        let protocol = match parts.next().ok_or_else(bad)? {
            "tcp" => Protocol::Tcp,
            "udp" => Protocol::Udp,
            other => return Err(RuleParseError::BadProtocol(other.to_owned())),
        };
        let _src_ip = parts.next().ok_or_else(bad)?; // `any` (IP constraints unsupported)
        let src_port: PortSpec = parts.next().ok_or_else(bad)?.parse()?;
        if parts.next() != Some("->") {
            return Err(bad());
        }
        let _dst_ip = parts.next().ok_or_else(bad)?;
        let dst_port: PortSpec = parts.next().ok_or_else(bad)?.parse()?;

        let mut contents: Vec<ContentSpec> = Vec::new();
        let mut pcres: Vec<Regex> = Vec::new();
        let mut msg = String::new();
        for opt in opts.split(';') {
            let opt = opt.trim();
            if opt.is_empty() {
                continue;
            }
            // Flag options (no value), then key:value options. Modifiers
            // apply to the most recent content, as in Snort.
            if opt == "nocase" {
                modified(&mut contents, "nocase")?.nocase = true;
                continue;
            }
            let (key, value) = opt.split_once(':').ok_or_else(bad)?;
            let value = value.trim().trim_matches('"');
            match key.trim() {
                "content" if value.is_empty() => return Err(RuleParseError::EmptyContent),
                "content" => contents.push(ContentSpec::plain(value.as_bytes())),
                "pcre" => pcres.push(Regex::new(value).map_err(RuleParseError::BadPcre)?),
                "msg" => msg = value.to_owned(),
                "offset" => {
                    let n = value.parse().map_err(|_| bad())?;
                    modified(&mut contents, "offset")?.offset = n;
                }
                "depth" => {
                    let n = value.parse().map_err(|_| bad())?;
                    modified(&mut contents, "depth")?.depth = Some(n);
                }
                _ => {} // unknown options tolerated, as in Snort
            }
        }
        if contents.is_empty() && pcres.is_empty() {
            return Err(RuleParseError::NoContent);
        }
        Ok(Rule { action, protocol, src_port, dst_port, contents, pcres, msg })
    }
}

/// One line of IDS output, recorded for the equivalence tests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogEntry {
    /// The action that produced the entry (Alert or Log).
    pub action: RuleAction,
    /// The rule message.
    pub msg: String,
    /// The matched flow.
    pub fid: Fid,
}

/// A logged firing in the engine's compact form: the rule's index and the
/// flow. [`SnortLite::log`] builds each [`LogEntry`] when the log is read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Firing {
    rule: usize,
    fid: Fid,
}

/// What the automaton's hits decide for one rule, precomputed.
#[derive(Debug, Clone, Copy)]
struct Prefilter {
    /// The rule has a case-sensitive content, so it cannot match unless
    /// one of its patterns hit.
    needs_hit: bool,
    /// The rule's only condition is one case-sensitive content with no
    /// position constraint, so a hit is the match.
    hit_is_match: bool,
}

thread_local! {
    /// One bit per rule: a case-sensitive pattern of the rule occurs in the
    /// payload being inspected. Per thread, because the threaded runtime
    /// inspects from an NF thread and from the fast path at once.
    static HIT_RULES: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// Shared inspection state: automaton, rules and output log.
#[derive(Debug)]
struct Engine {
    rules: Vec<Rule>,
    prefilters: Vec<Prefilter>,
    /// One automaton over all rules' case-sensitive content patterns; rule
    /// confirmation checks the rest.
    automaton: AhoCorasick,
    /// Pattern index -> rule index.
    pattern_rule: Vec<usize>,
    log: Mutex<Vec<Firing>>,
}

impl Engine {
    fn new(rules: Vec<Rule>) -> Self {
        // The Aho-Corasick prefilter covers case-sensitive contents; a
        // rule with at least one such content can be fast-rejected when
        // none of its patterns appear anywhere in the payload. Rules whose
        // contents are all `nocase` skip the prefilter and always go to
        // confirmation.
        let mut patterns = Vec::new();
        let mut pattern_rule = Vec::new();
        for (ri, rule) in rules.iter().enumerate() {
            for content in &rule.contents {
                if !content.nocase {
                    patterns.push(content.pattern.clone());
                    pattern_rule.push(ri);
                }
            }
        }
        let automaton = AhoCorasick::new(&patterns);
        let prefilters = rules
            .iter()
            .map(|r| Prefilter {
                needs_hit: r.contents.iter().any(|c| !c.nocase),
                hit_is_match: r.pcres.is_empty()
                    && matches!(
                        r.contents.as_slice(),
                        [ContentSpec { nocase: false, offset: 0, depth: None, .. }]
                    ),
            })
            .collect();
        Self { rules, prefilters, automaton, pattern_rule, log: Mutex::new(Vec::new()) }
    }

    /// Inspects a payload against the candidate rule set; returns the first
    /// matching rule index (rule order = priority, as in Snort). Allocates
    /// nothing once the thread's bitset covers the rules.
    fn inspect(&self, payload: &[u8], candidates: &[usize]) -> Option<usize> {
        HIT_RULES.with_borrow_mut(|hit| {
            hit.clear();
            hit.resize(self.rules.len().div_ceil(64), 0);
            self.automaton.for_each_match(payload, |m| {
                let ri = self.pattern_rule[m.pattern];
                hit[ri / 64] |= 1 << (ri % 64);
                ControlFlow::<()>::Continue(())
            });
            candidates.iter().copied().find(|&ri| {
                let pf = self.prefilters[ri];
                if hit[ri / 64] & (1 << (ri % 64)) != 0 {
                    pf.hit_is_match || self.rules[ri].matches_payload(payload)
                } else {
                    // Fast reject when none of its patterns appeared.
                    !pf.needs_hit && self.rules[ri].matches_payload(payload)
                }
            })
        })
    }

    fn record(&self, ri: usize, fid: Fid) {
        if self.rules[ri].action != RuleAction::Pass {
            self.log.lock().push(Firing { rule: ri, fid });
        }
    }
}

/// The Snort-style IDS network function.
#[derive(Debug, Clone)]
pub struct SnortLite {
    engine: Arc<Engine>,
    /// The current packet's candidate rules, in rule order.
    candidates: Vec<usize>,
    // SPEEDYBOX-INTEGRATION-BEGIN (snort/inspectors: 1 line)
    /// One inspection state function per candidate-rule set, built when a
    /// flow first selects the set and recorded for every flow that does.
    inspectors: HashMap<Vec<usize>, StateFunction>,
    // SPEEDYBOX-INTEGRATION-END
}

impl SnortLite {
    /// Builds the IDS from parsed rules.
    #[must_use]
    pub fn new(rules: Vec<Rule>) -> Self {
        Self {
            engine: Arc::new(Engine::new(rules)),
            candidates: Vec::new(),
            // SPEEDYBOX-INTEGRATION-BEGIN (snort/inspectors: 1 line)
            inspectors: HashMap::new(),
            // SPEEDYBOX-INTEGRATION-END
        }
    }

    /// Builds the IDS from rule text, one rule per line; `#` comments and
    /// blank lines are skipped.
    ///
    /// # Errors
    /// Returns the first parse failure.
    pub fn from_rules_text(text: &str) -> Result<Self, RuleParseError> {
        let rules = text
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .map(Rule::from_str)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self::new(rules))
    }

    /// Snapshot of the alert/log output (for the §VII-C equivalence tests).
    #[must_use]
    pub fn log(&self) -> Vec<LogEntry> {
        let rules = &self.engine.rules;
        self.engine
            .log
            .lock()
            .iter()
            .map(|f| {
                let rule = &rules[f.rule];
                LogEntry { action: rule.action, msg: rule.msg.clone(), fid: f.fid }
            })
            .collect()
    }

    /// Clears the output log.
    pub fn clear_log(&self) {
        self.engine.log.lock().clear();
    }

    /// Number of loaded rules.
    #[must_use]
    pub fn rule_count(&self) -> usize {
        self.engine.rules.len()
    }

    /// Selects the rules whose header constraints accept this flow — the
    /// per-flow "rule matching function" Snort assigns at flow setup —
    /// into `self.candidates`.
    fn select_candidates(&mut self, packet: &Packet) {
        self.candidates.clear();
        if let Ok(t) = packet.five_tuple() {
            let rules = &self.engine.rules;
            let accepts = |&i: &usize| rules[i].matches_header(t.protocol, t.src_port, t.dst_port);
            self.candidates.extend((0..rules.len()).filter(accepts));
        }
    }
}

impl Nf for SnortLite {
    fn name(&self) -> &str {
        "snort"
    }

    fn process(&mut self, packet: &mut Packet, ctx: &mut NfContext<'_>) -> NfVerdict {
        // Original Snort data path: decode, update per-flow tracking state
        // (Snort's stream/flowbits bookkeeping runs on every packet),
        // select candidate rules (header match), then inspect the payload.
        // The inspection callback is the only part the Local MAT records —
        // the per-packet scaffolding is what consolidation removes.
        ctx.ops.parses += 1;
        ctx.ops.hash_lookups += 1;
        ctx.ops.hash_updates += 1;
        ctx.ops.state_updates += 1;
        self.select_candidates(packet);
        ctx.ops.acl_rules_scanned += self.engine.rules.len() as u64;
        let payload = packet.payload().unwrap_or(&[]);
        ctx.ops.payload_bytes_scanned += payload.len() as u64;
        let fid = packet.fid().unwrap_or_default();
        if let Some(ri) = self.engine.inspect(payload, &self.candidates) {
            self.engine.record(ri, fid);
        }
        // SPEEDYBOX-INTEGRATION-BEGIN (snort: 16 lines)
        if let Some(inst) = ctx.instrument {
            let fid = inst.extract_fid(packet).unwrap_or_default();
            inst.add_header_action(fid, HeaderAction::Forward, ctx.ops);
            let (engine, set) = (&self.engine, self.candidates.clone());
            let inspect = self.inspectors.entry(set).or_insert_with_key(|candidates| {
                let (engine, candidates) = (Arc::clone(engine), candidates.clone());
                StateFunction::new("snort.inspect", PayloadAccess::Read, move |sfctx| {
                    let payload = sfctx.packet.payload().unwrap_or(&[]);
                    sfctx.ops.payload_bytes_scanned += payload.len() as u64;
                    if let Some(ri) = engine.inspect(payload, &candidates) {
                        engine.record(ri, sfctx.fid);
                    }
                })
            });
            inst.add_state_function_handle(fid, inspect.clone(), ctx.ops);
        }
        // SPEEDYBOX-INTEGRATION-END
        NfVerdict::Forward
    }

    fn has_flow_state(&self) -> bool {
        true
    }

    fn snapshot_state(&self) -> Option<StateSnapshot> {
        Some(StateSnapshot::new(self.engine.log.lock().clone()))
    }

    fn restore_state(&mut self, snapshot: &StateSnapshot) -> bool {
        let Some(log) = snapshot.downcast::<Vec<Firing>>() else {
            return false;
        };
        *self.engine.log.lock() = log.clone();
        true
    }

    fn crash(&mut self) {
        // Rules and automaton are configuration and survive a re-exec;
        // the accumulated alert/log output does not.
        self.engine.log.lock().clear();
    }
}

#[cfg(test)]
mod tests {
    use speedybox_packet::PacketBuilder;

    use super::*;

    const RULES: &str = r#"
        # SnortLite test rules
        pass tcp any any -> any any (content:"healthcheck";)
        alert tcp any any -> any 80 (msg:"evil GET"; content:"evil";)
        log udp any any -> any any (msg:"dns query"; content:"dnsq";)
        alert tcp any any -> any any (msg:"two-part"; content:"part1"; content:"part2";)
    "#;

    fn ids() -> SnortLite {
        SnortLite::from_rules_text(RULES).unwrap()
    }

    fn tcp_packet(dst_port: u16, payload: &[u8]) -> Packet {
        let mut p = PacketBuilder::tcp()
            .src("10.0.0.1:1234".parse().unwrap())
            .dst(format!("10.0.0.2:{dst_port}").parse().unwrap())
            .payload(payload)
            .build();
        let fid = p.five_tuple().unwrap().fid();
        p.set_fid(fid);
        p
    }

    #[test]
    fn parses_rules() {
        assert_eq!(ids().rule_count(), 4);
    }

    #[test]
    fn parse_errors_are_reported() {
        assert!(matches!("garbage".parse::<Rule>(), Err(RuleParseError::BadShape(_))));
        assert!(matches!(
            "explode tcp any any -> any any (content:\"x\";)".parse::<Rule>(),
            Err(RuleParseError::BadAction(_))
        ));
        assert!(matches!(
            "alert icmp any any -> any any (content:\"x\";)".parse::<Rule>(),
            Err(RuleParseError::BadProtocol(_))
        ));
        assert!(matches!(
            "alert tcp any any -> any any (msg:\"no content\";)".parse::<Rule>(),
            Err(RuleParseError::NoContent)
        ));
        assert!(matches!(
            "alert tcp any nope -> any any (content:\"x\";)".parse::<Rule>(),
            Err(RuleParseError::BadPort(_))
        ));
    }

    #[test]
    fn empty_content_is_refused() {
        let rule = "alert tcp any any -> any any (msg:\"empty\"; content:\"\";)";
        assert!(matches!(rule.parse::<Rule>(), Err(RuleParseError::EmptyContent)));
    }

    #[test]
    fn pcre_rule_matches_regular_patterns() {
        let mut nf = SnortLite::from_rules_text(
            r#"alert tcp any any -> any any (msg:"traversal"; pcre:"/(\.\./)+/";)"#,
        )
        .unwrap();
        let mut ops = speedybox_mat::OpCounter::default();
        let mut ctx = NfContext::baseline(&mut ops);
        let mut hit = tcp_packet(80, b"GET /../../etc/passwd");
        nf.process(&mut hit, &mut ctx);
        assert_eq!(nf.log().len(), 1);
        assert_eq!(nf.log()[0].msg, "traversal");
        nf.clear_log();
        let mut miss = tcp_packet(80, b"GET /index.html");
        nf.process(&mut miss, &mut ctx);
        assert!(nf.log().is_empty());
    }

    #[test]
    fn pcre_combines_with_content() {
        // content prefilters, pcre confirms.
        let mut nf = SnortLite::from_rules_text(
            r#"alert tcp any any -> any any (msg:"sqli"; content:"union"; pcre:"/union\s+select/";)"#,
        )
        .unwrap();
        let mut ops = speedybox_mat::OpCounter::default();
        let mut ctx = NfContext::baseline(&mut ops);
        let mut hit = tcp_packet(80, b"x' union  select * from users");
        nf.process(&mut hit, &mut ctx);
        assert_eq!(nf.log().len(), 1);
        nf.clear_log();
        // content present but pcre not satisfied.
        let mut miss = tcp_packet(80, b"state of the union address");
        nf.process(&mut miss, &mut ctx);
        assert!(nf.log().is_empty());
    }

    #[test]
    fn bad_pcre_is_a_parse_error() {
        assert!(matches!(
            r#"alert tcp any any -> any any (pcre:"/(unclosed/";)"#.parse::<Rule>(),
            Err(RuleParseError::BadPcre(_))
        ));
    }

    #[test]
    fn pcre_only_rule_is_accepted() {
        let rule: Rule =
            r#"log tcp any any -> any any (msg:"digits"; pcre:"/\d\d\d/";)"#.parse().unwrap();
        assert!(rule.matches_payload(b"abc123"));
        assert!(!rule.matches_payload(b"abc12"));
    }

    #[test]
    fn nocase_content_matches_any_casing() {
        let rule: Rule =
            r#"alert tcp any any -> any any (msg:"nc"; content:"EvIl"; nocase;)"#.parse().unwrap();
        assert!(rule.matches_payload(b"all evil here"));
        assert!(rule.matches_payload(b"ALL EVIL HERE"));
        assert!(rule.matches_payload(b"eViL"));
        let cs: Rule =
            r#"alert tcp any any -> any any (msg:"cs"; content:"EvIl";)"#.parse().unwrap();
        assert!(!cs.matches_payload(b"all evil here"));
        assert!(cs.matches_payload(b"EvIl"));
    }

    #[test]
    fn offset_and_depth_constrain_match_window() {
        let rule: Rule =
            r#"alert tcp any any -> any any (content:"GET"; offset:4; depth:8;)"#.parse().unwrap();
        // Match must start at byte >= 4 and lie within [4, 12).
        assert!(!rule.matches_payload(b"GET xxxxxxxx"), "match at 0 violates offset");
        assert!(rule.matches_payload(b"xxxxGETxxxxx"));
        assert!(rule.matches_payload(b"xxxxxxxxxGET"), "starts at 9, ends at 12 = offset+depth");
        assert!(!rule.matches_payload(b"xxxxxxxxxxGET"), "ends past offset+depth");
        assert!(!rule.matches_payload(b"xx"), "window shorter than pattern");
    }

    #[test]
    fn offset_plus_depth_past_usize_never_matches() {
        let text = r#"alert tcp any any -> any any (msg:"far"; content:"GET"; offset:18446744073709551610; depth:10;)"#;
        let rule: Rule = text.parse().unwrap();
        assert!(!rule.matches_payload(b"GET / HTTP/1.1"));
        assert!(!rule.matches_payload(b""));
        let mut nf = SnortLite::from_rules_text(text).unwrap();
        let mut ops = speedybox_mat::OpCounter::default();
        let mut p = tcp_packet(80, b"GET / HTTP/1.1");
        nf.process(&mut p, &mut NfContext::baseline(&mut ops));
        assert!(nf.log().is_empty());
    }

    #[test]
    fn dangling_modifier_is_rejected() {
        assert!(matches!(
            "alert tcp any any -> any any (nocase; content:\"x\";)".parse::<Rule>(),
            Err(RuleParseError::DanglingModifier(_))
        ));
        assert!(matches!(
            "alert tcp any any -> any any (offset:3; content:\"x\";)".parse::<Rule>(),
            Err(RuleParseError::DanglingModifier(_))
        ));
    }

    #[test]
    fn all_nocase_rule_still_fires_through_engine() {
        let mut nf = SnortLite::from_rules_text(
            r#"alert tcp any any -> any any (msg:"shout"; content:"ATTACK"; nocase;)"#,
        )
        .unwrap();
        let mut ops = speedybox_mat::OpCounter::default();
        let mut ctx = NfContext::baseline(&mut ops);
        let mut p = tcp_packet(80, b"a quiet attack happens");
        nf.process(&mut p, &mut ctx);
        assert_eq!(nf.log().len(), 1);
        assert_eq!(nf.log()[0].msg, "shout");
    }

    #[test]
    fn mixed_case_sensitive_and_nocase_contents() {
        let mut nf = SnortLite::from_rules_text(
            r#"alert tcp any any -> any any (msg:"mix"; content:"hdr"; content:"BODY"; nocase;)"#,
        )
        .unwrap();
        let mut ops = speedybox_mat::OpCounter::default();
        let mut ctx = NfContext::baseline(&mut ops);
        // Case-sensitive "hdr" present, nocase "BODY" matched as "body".
        let mut hit = tcp_packet(80, b"hdr then body");
        nf.process(&mut hit, &mut ctx);
        assert_eq!(nf.log().len(), 1);
        nf.clear_log();
        // "HDR" fails the case-sensitive content even though body matches.
        let mut miss = tcp_packet(80, b"HDR then body");
        nf.process(&mut miss, &mut ctx);
        assert!(nf.log().is_empty());
    }

    #[test]
    fn alert_rule_fires_on_matching_port_and_content() {
        let mut nf = ids();
        let mut ops = speedybox_mat::OpCounter::default();
        let mut ctx = NfContext::baseline(&mut ops);
        let mut p = tcp_packet(80, b"GET /evil HTTP/1.1");
        assert_eq!(nf.process(&mut p, &mut ctx), NfVerdict::Forward);
        let log = nf.log();
        assert_eq!(log.len(), 1);
        assert_eq!(log[0].action, RuleAction::Alert);
        assert_eq!(log[0].msg, "evil GET");
    }

    #[test]
    fn alert_rule_respects_port_constraint() {
        let mut nf = ids();
        let mut ops = speedybox_mat::OpCounter::default();
        let mut ctx = NfContext::baseline(&mut ops);
        let mut p = tcp_packet(8080, b"GET /evil HTTP/1.1");
        nf.process(&mut p, &mut ctx);
        assert!(nf.log().is_empty(), "port-80 rule must not fire on 8080");
    }

    #[test]
    fn pass_rule_suppresses_output() {
        let mut nf = ids();
        let mut ops = speedybox_mat::OpCounter::default();
        let mut ctx = NfContext::baseline(&mut ops);
        let mut p = tcp_packet(80, b"healthcheck evil");
        nf.process(&mut p, &mut ctx);
        // The pass rule is first and wins; no alert for "evil".
        assert!(nf.log().is_empty());
    }

    #[test]
    fn multi_content_rule_requires_all_patterns() {
        let mut nf = ids();
        let mut ops = speedybox_mat::OpCounter::default();
        let mut ctx = NfContext::baseline(&mut ops);
        let mut p = tcp_packet(9999, b"only part1 here");
        nf.process(&mut p, &mut ctx);
        assert!(nf.log().is_empty());
        let mut p2 = tcp_packet(9999, b"part1 and part2");
        nf.process(&mut p2, &mut ctx);
        assert_eq!(nf.log().len(), 1);
        assert_eq!(nf.log()[0].msg, "two-part");
    }

    #[test]
    fn udp_log_rule() {
        let mut nf = ids();
        let mut ops = speedybox_mat::OpCounter::default();
        let mut ctx = NfContext::baseline(&mut ops);
        let mut p = PacketBuilder::udp()
            .src("10.0.0.1:5000".parse().unwrap())
            .dst("10.0.0.2:53".parse().unwrap())
            .payload(b"dnsq example.com")
            .build();
        let fid = p.five_tuple().unwrap().fid();
        p.set_fid(fid);
        nf.process(&mut p, &mut ctx);
        let log = nf.log();
        assert_eq!(log.len(), 1);
        assert_eq!(log[0].action, RuleAction::Log);
    }

    #[test]
    fn instrumented_records_forward_and_read_sf() {
        use std::sync::Arc as StdArc;

        use speedybox_mat::{EventTable, LocalMat, NfId, NfInstrument};

        let mut nf = ids();
        let inst = NfInstrument::new(
            StdArc::new(LocalMat::new(NfId::new(0))),
            StdArc::new(EventTable::new()),
        );
        let mut ops = speedybox_mat::OpCounter::default();
        let mut ctx = NfContext::instrumented(&inst, &mut ops);
        let mut p = tcp_packet(80, b"clean");
        nf.process(&mut p, &mut ctx);
        let fid = p.fid().unwrap();
        let rule = inst.local_mat().rule(fid).unwrap();
        assert_eq!(rule.header_actions, vec![HeaderAction::Forward]);
        assert_eq!(rule.state_functions.len(), 1);
        assert_eq!(rule.state_functions[0].access(), PayloadAccess::Read);
    }

    #[test]
    fn flows_selecting_one_candidate_set_share_its_state_function() {
        use std::sync::Arc as StdArc;

        use speedybox_mat::{EventTable, LocalMat, NfId, NfInstrument};

        let mut nf = ids();
        let inst = NfInstrument::new(
            StdArc::new(LocalMat::new(NfId::new(0))),
            StdArc::new(EventTable::new()),
        );
        let mut ops = speedybox_mat::OpCounter::default();
        // Two port-80 flows select the same rules; a port-443 flow drops
        // the port-80 alert.
        for (src, dst) in [(1000, 80), (1001, 80), (1002, 443)] {
            let mut p = PacketBuilder::tcp()
                .src(format!("10.0.0.1:{src}").parse().unwrap())
                .dst(format!("10.0.0.2:{dst}").parse().unwrap())
                .payload(b"clean")
                .build();
            p.set_fid(p.five_tuple().unwrap().fid());
            nf.process(&mut p, &mut NfContext::instrumented(&inst, &mut ops));
        }
        assert_eq!(nf.inspectors.len(), 2, "one state function per candidate set");
        assert_eq!(inst.local_mat().len(), 3, "each flow recorded one");
    }

    #[test]
    fn recorded_sf_behaves_like_original() {
        use std::sync::Arc as StdArc;

        use speedybox_mat::state_fn::SfContext;
        use speedybox_mat::{EventTable, LocalMat, NfId, NfInstrument};

        let mut nf = ids();
        let inst = NfInstrument::new(
            StdArc::new(LocalMat::new(NfId::new(0))),
            StdArc::new(EventTable::new()),
        );
        let mut ops = speedybox_mat::OpCounter::default();
        // Initial packet: clean payload, records the SF.
        let mut initial = tcp_packet(80, b"clean");
        let mut ctx = NfContext::instrumented(&inst, &mut ops);
        nf.process(&mut initial, &mut ctx);
        nf.clear_log();
        // Subsequent packet with malicious payload, run through the
        // recorded state function only (fast path).
        let fid = initial.fid().unwrap();
        let rule = inst.local_mat().rule(fid).unwrap();
        let mut subsequent = tcp_packet(80, b"an evil payload");
        let mut sfctx = SfContext { packet: &mut subsequent, fid, ops: &mut ops, len_adjust: 0 };
        rule.state_functions[0].invoke(&mut sfctx);
        let log = nf.log();
        assert_eq!(log.len(), 1);
        assert_eq!(log[0].msg, "evil GET");
    }
}
