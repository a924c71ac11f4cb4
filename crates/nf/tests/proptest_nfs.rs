//! Property-based tests for the NF library's core data structures.

use std::collections::HashSet;
use std::net::SocketAddrV4;
use std::sync::Arc;

use proptest::prelude::*;
use speedybox_mat::state_fn::SfContext;
use speedybox_mat::OpCounter;
use speedybox_mat::{EventTable, LocalMat, NfId, NfInstrument};
use speedybox_nf::maglev::Maglev;
use speedybox_nf::mazunat::MazuNat;
use speedybox_nf::snort::{LogEntry, Rule, RuleAction, SnortLite};
use speedybox_nf::{AhoCorasick, Nf, NfContext, Regex};
use speedybox_packet::{HeaderField, Packet, PacketBuilder};

fn backends(n: usize) -> Vec<(String, SocketAddrV4)> {
    (0..n)
        .map(|i| {
            (
                format!("backend-{i}"),
                format!("10.1.{}.{}:8080", i / 250, (i % 250) + 1).parse().unwrap(),
            )
        })
        .collect()
}

/// Primes for the Maglev table size, as the Maglev paper requires.
const PRIMES: [usize; 5] = [53, 101, 211, 251, 509];

/// Checks `find_all`, `find_first` and `matching_patterns` against naive
/// substring search.
fn assert_matches_naive(patterns: &[Vec<u8>], haystack: &[u8]) {
    let ac = AhoCorasick::new(patterns);
    let mut want: Vec<(usize, usize)> = patterns
        .iter()
        .enumerate()
        .flat_map(|(i, p)| {
            haystack
                .windows(p.len())
                .enumerate()
                .filter(move |(_, w)| w == p)
                .map(move |(at, _)| (at + p.len(), i))
        })
        .collect();
    want.sort_unstable();
    let mut got: Vec<(usize, usize)> =
        ac.find_all(haystack).iter().map(|m| (m.end, m.pattern)).collect();
    got.sort_unstable();
    assert_eq!(got, want, "find_all");
    // The first match ends earliest; any pattern ending there will do.
    match ac.find_first(haystack) {
        Some(m) => {
            assert!(m.end == want[0].0 && want.contains(&(m.end, m.pattern)), "find_first {m:?}")
        }
        None => assert!(want.is_empty(), "find_first missed {:?}", want[0]),
    }
    let mut present: Vec<usize> = want.iter().map(|&(_, i)| i).collect();
    present.sort_unstable();
    present.dedup();
    assert_eq!(ac.matching_patterns(haystack), present, "matching_patterns");
}

/// A Snort rule line drawn from the language subset: an action, port
/// constraints, and one or two contents over a four-letter alphabet, each
/// case-sensitive or `nocase`, with or without `offset`/`depth`.
fn snort_rule() -> impl Strategy<Value = String> {
    let content = (
        prop::collection::vec(prop::sample::select(b"abAB".to_vec()), 1..4),
        prop::bool::ANY,
        0u8..4,
        0usize..6,
        1usize..10,
    )
        .prop_map(|(pattern, nocase, position, offset, depth)| {
            let mut opts = format!("content:\"{}\";", String::from_utf8(pattern).unwrap());
            if nocase {
                opts.push_str(" nocase;");
            }
            if position & 1 != 0 {
                opts.push_str(&format!(" offset:{offset};"));
            }
            if position & 2 != 0 {
                opts.push_str(&format!(" depth:{depth};"));
            }
            opts
        });
    (
        prop::sample::select(vec!["pass", "alert", "log"]),
        prop::sample::select(vec!["any", "1000"]),
        prop::sample::select(vec!["any", "80", "443"]),
        prop::collection::vec(content, 1..3),
    )
        .prop_map(|(action, src, dst, contents)| {
            format!("{action} tcp any {src} -> any {dst} (msg:\"m\"; {})", contents.join(" "))
        })
}

/// The packet of flow `flow` (two source ports by two destination ports)
/// carrying `payload`, with its FID set.
fn snort_packet(flow: u8, payload: &[u8]) -> Packet {
    let src = 1000 + u16::from(flow & 1);
    let dst = if flow & 2 == 0 { 80 } else { 443 };
    let mut p = PacketBuilder::tcp()
        .src(format!("10.0.0.1:{src}").parse().unwrap())
        .dst(format!("10.0.0.2:{dst}").parse().unwrap())
        .payload(payload)
        .build();
    p.set_fid(p.five_tuple().unwrap().fid());
    p
}

/// What SnortLite must log for `packets`: for each, the first rule in rule
/// order whose header and payload conditions hold, if it is not `pass`.
fn naive_snort_log(rules: &[Rule], packets: &[(u8, Vec<u8>)]) -> Vec<LogEntry> {
    packets
        .iter()
        .filter_map(|(flow, payload)| {
            let p = snort_packet(*flow, payload);
            let t = p.five_tuple().unwrap();
            let rule = rules.iter().find(|r| {
                r.matches_header(t.protocol, t.src_port, t.dst_port) && r.matches_payload(payload)
            })?;
            (rule.action != RuleAction::Pass).then(|| LogEntry {
                action: rule.action,
                msg: rule.msg.clone(),
                fid: p.fid().unwrap(),
            })
        })
        .collect()
}

proptest! {
    /// The Maglev lookup table is always fully populated and near-balanced
    /// ("almost-equal share" is Maglev's core guarantee).
    #[test]
    fn maglev_table_balanced(
        n_backends in 1usize..12,
        prime_idx in 0usize..PRIMES.len(),
    ) {
        let m = PRIMES[prime_idx];
        prop_assume!(m > n_backends * 4);
        let lb = Maglev::new(backends(n_backends), m);
        let shares = lb.table_shares();
        prop_assert_eq!(shares.len(), n_backends);
        let total: usize = shares.values().sum();
        prop_assert_eq!(total, m);
        let min = *shares.values().min().unwrap();
        let max = *shares.values().max().unwrap();
        // Maglev's populate guarantees a spread of at most ~1 slot per
        // round; allow 2 for rounding.
        prop_assert!(max - min <= 2, "spread {min}..{max} over {m} slots");
    }

    /// Failing one backend disrupts only slots that pointed at it (the
    /// consistent-hashing minimal-disruption property, within tolerance).
    #[test]
    fn maglev_failure_disruption_bounded(
        n_backends in 3usize..8,
        victim in 0usize..3,
    ) {
        let lb = Maglev::new(backends(n_backends), 251);
        let before = lb.table_shares();
        let name = format!("backend-{victim}");
        let moved_budget = before[&name];
        let lb2 = Maglev::new(backends(n_backends), 251);
        lb2.fail_backend(&name);
        let after = lb2.table_shares();
        prop_assert!(!after.contains_key(&name));
        // Every surviving backend keeps at least its previous share
        // (slots only flow *from* the victim, modulo small reshuffles).
        for (b, &share) in &after {
            let prev = before[b];
            prop_assert!(
                share + moved_budget >= prev && share >= prev.saturating_sub(moved_budget / 2),
                "{b}: {prev} -> {share} with budget {moved_budget}"
            );
        }
    }

    /// NAT port allocations are unique, in range, and the reverse map is
    /// consistent — across arbitrary interleavings of opens and closes.
    #[test]
    fn nat_mappings_bijective(ops_seq in prop::collection::vec((0u16..64, prop::bool::ANY), 1..80)) {
        let mut nat = MazuNat::new("198.51.100.1".parse().unwrap(), (50000, 50200));
        let mut open: HashSet<u16> = HashSet::new();
        for (flow, close) in ops_seq {
            let src: SocketAddrV4 = format!("192.168.0.7:{}", 1000 + flow).parse().unwrap();
            let mut p = PacketBuilder::tcp()
                .src(src)
                .dst("93.184.216.34:443".parse().unwrap())
                .build();
            let fid = p.five_tuple().unwrap().fid();
            p.set_fid(fid);
            if close {
                nat.flow_closed(fid);
                open.remove(&flow);
            } else {
                let mut counter = OpCounter::default();
                let mut ctx = NfContext::baseline(&mut counter);
                let verdict = nat.process(&mut p, &mut ctx);
                prop_assert!(verdict.survives(), "port pool is large enough");
                open.insert(flow);
                let port = p.get_field(HeaderField::SrcPort).unwrap().as_port();
                prop_assert!((50000..=50200).contains(&port));
                prop_assert_eq!(nat.flow_for_port(port), Some(fid), "reverse map consistent");
            }
        }
        prop_assert_eq!(nat.mapping_count(), open.len());
    }

    /// Aho-Corasick agrees with naive substring search on arbitrary
    /// patterns and haystacks.
    #[test]
    fn aho_corasick_matches_naive(
        patterns in prop::collection::vec(prop::collection::vec(any::<u8>(), 1..6), 1..6),
        haystack in prop::collection::vec(any::<u8>(), 0..300),
    ) {
        assert_matches_naive(&patterns, &haystack);
    }

    /// The same over a three-letter alphabet, where matches overlap and
    /// partial matches fall back through failure links often.
    #[test]
    fn aho_corasick_matches_naive_on_a_small_alphabet(
        patterns in prop::collection::vec(prop::collection::vec(prop::sample::select(b"abc".to_vec()), 1..5), 1..6),
        haystack in prop::collection::vec(prop::sample::select(b"abcx".to_vec()), 0..120),
    ) {
        assert_matches_naive(&patterns, &haystack);
    }

    /// The regex compiler is total (arbitrary patterns either compile or
    /// return an error, never panic), and matching never panics.
    #[test]
    fn regex_compile_and_match_total(pattern in ".{0,40}", hay in prop::collection::vec(any::<u8>(), 0..200)) {
        if let Ok(re) = Regex::new(&pattern) {
            let _ = re.is_match(&hay);
            let _ = re.is_match(b"");
        }
    }

    /// A regex built from escaped literal bytes matches exactly the
    /// haystacks that contain that literal.
    #[test]
    fn regex_literal_equals_substring_search(
        lit in prop::collection::vec(prop::sample::select(b"abcxyz01".to_vec()), 1..6),
        hay in prop::collection::vec(prop::sample::select(b"abcxyz01".to_vec()), 0..60),
    ) {
        let pattern: String = lit.iter().map(|&b| b as char).collect();
        let re = Regex::new(&pattern).unwrap();
        let expect = hay.windows(lit.len()).any(|w| w == lit.as_slice());
        prop_assert_eq!(re.is_match(&hay), expect);
    }

    /// Matching is linear-ish: nested quantifiers over long inputs finish
    /// fast (no catastrophic backtracking by construction).
    #[test]
    fn regex_no_blowup(n in 100usize..2000) {
        let re = Regex::new("(a|aa)+c").unwrap();
        let hay = vec![b'a'; n];
        let start = std::time::Instant::now();
        prop_assert!(!re.is_match(&hay));
        prop_assert!(start.elapsed().as_millis() < 500);
    }

    /// The rule parser never panics on arbitrary input and round-trips the
    /// rules it accepts through header matching sensibly.

    #[test]
    fn snort_rule_parser_total(line in ".{0,200}") {
        let _ = line.parse::<speedybox_nf::snort::Rule>();
    }

    /// Maglev flow assignment is sticky under arbitrary packet orders:
    /// the same flow always reaches the same backend while it is healthy.
    #[test]
    fn maglev_stickiness(ports in prop::collection::vec(1000u16..1032, 1..40)) {
        let mut lb = Maglev::new(backends(5), 251);
        let mut assigned: std::collections::HashMap<u16, std::net::Ipv4Addr> =
            std::collections::HashMap::new();
        for port in ports {
            let mut p: Packet = PacketBuilder::tcp()
                .src(format!("10.0.0.1:{port}").parse().unwrap())
                .dst("10.99.99.99:80".parse().unwrap())
                .build();
            let fid = p.five_tuple().unwrap().fid();
            p.set_fid(fid);
            let mut counter = OpCounter::default();
            let mut ctx = NfContext::baseline(&mut counter);
            prop_assert!(lb.process(&mut p, &mut ctx).survives());
            let dst = p.get_field(HeaderField::DstIp).unwrap().as_ipv4();
            if let Some(&prev) = assigned.get(&port) {
                prop_assert_eq!(dst, prev, "flow on port {} moved", port);
            } else {
                assigned.insert(port, dst);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// SnortLite's prefiltered inspection logs what naive rule evaluation
    /// logs, on the original NF and through each flow's recorded state
    /// function.
    #[test]
    fn snort_inspection_matches_naive_rule_evaluation(
        lines in prop::collection::vec(snort_rule(), 1..7),
        packets in prop::collection::vec(
            (0u8..4, prop::collection::vec(prop::sample::select(b"abABx".to_vec()), 0..24)),
            1..24,
        ),
    ) {
        let rules: Vec<Rule> = lines.iter().map(|l| l.parse().unwrap()).collect();
        let want = naive_snort_log(&rules, &packets);
        let mut nf = SnortLite::new(rules);
        let mut ops = OpCounter::default();
        for (flow, payload) in &packets {
            nf.process(&mut snort_packet(*flow, payload), &mut NfContext::baseline(&mut ops));
        }
        prop_assert_eq!(nf.log(), want, "original NF; rules {:?}", lines);

        // Record each flow's state function from an empty initial packet.
        let inst = NfInstrument::new(Arc::new(LocalMat::new(NfId::new(0))), Arc::new(EventTable::new()));
        let inspectors: Vec<_> = (0..4u8)
            .map(|flow| {
                let mut initial = snort_packet(flow, b"");
                nf.process(&mut initial, &mut NfContext::instrumented(&inst, &mut ops));
                let rule = inst.local_mat().rule(initial.fid().unwrap()).unwrap();
                rule.state_functions[0].clone()
            })
            .collect();
        nf.clear_log();
        for (flow, payload) in &packets {
            let mut p = snort_packet(*flow, payload);
            let fid = p.fid().unwrap();
            let mut sfctx = SfContext { packet: &mut p, fid, ops: &mut ops, len_adjust: 0 };
            inspectors[usize::from(*flow)].invoke(&mut sfctx);
        }
        prop_assert_eq!(nf.log(), want, "state function; rules {:?}", lines);
    }
}
