//! Multi-pattern payload inspection: a from-scratch Aho–Corasick automaton,
//! flattened into a dense DFA.
//!
//! Snort's content matching is multi-pattern string search over the packet
//! payload; this module provides the same primitive for [`crate::snort`]
//! without pulling in a third-party matcher. Construction is the classic
//! one — a byte trie plus BFS failure links, with output sets merged along
//! failure chains — but the trie and links are only temporaries: the
//! automaton keeps one transition per (state, byte) with the failure links
//! folded in, so a search makes one table load per payload byte, and it
//! skips runs of bytes that cannot leave the root.

use std::collections::VecDeque;
use std::ops::ControlFlow;

/// A match found in the haystack.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Match {
    /// Index of the matched pattern (as passed to [`AhoCorasick::new`]).
    pub pattern: usize,
    /// Byte offset one past the end of the match.
    pub end: usize,
}

/// Set on a transition whose target state has outputs.
const MATCH: u32 = 1 << 31;

/// An Aho–Corasick multi-pattern matcher over byte strings.
///
/// ```
/// use speedybox_nf::AhoCorasick;
///
/// let ac = AhoCorasick::new(&[b"evil".to_vec(), b"virus".to_vec()]);
/// let matches = ac.find_all(b"an evil virus payload");
/// assert_eq!(matches.len(), 2);
/// assert!(ac.find_first(b"clean traffic").is_none());
/// ```
#[derive(Debug, Clone)]
pub struct AhoCorasick {
    /// `table[s * 256 + byte]`: the state after `byte` in state `s`, stored
    /// as its row offset `next * 256`, with [`MATCH`] set when the next
    /// state has outputs. The root is state 0.
    table: Vec<u32>,
    /// Patterns ending at state `s`: `outputs[out_start[s]..out_start[s + 1]]`,
    /// the state's own patterns first, then those along its failure chain.
    out_start: Vec<usize>,
    outputs: Vec<usize>,
    /// Bytes on which the root moves to another state. Every other byte
    /// keeps the root, which has no outputs, so a search skips it.
    leaves_root: [bool; 256],
    pattern_count: usize,
}

impl AhoCorasick {
    /// Builds the automaton from `patterns`. Empty patterns are ignored
    /// (they would match everywhere and Snort forbids empty `content`).
    ///
    /// # Panics
    /// Panics past 2^23 states (8 GiB of table), far beyond any rule set.
    #[must_use]
    pub fn new(patterns: &[Vec<u8>]) -> Self {
        // Phase 1: the trie, one dense row per state. No trie edge enters
        // the root, so 0 marks a missing child.
        let mut table = vec![0u32; 256];
        let mut outputs: Vec<Vec<usize>> = vec![Vec::new()];
        for (id, pat) in patterns.iter().enumerate().filter(|(_, p)| !p.is_empty()) {
            let mut state = 0usize;
            for &byte in pat {
                let slot = state * 256 + usize::from(byte);
                if table[slot] == 0 {
                    table[slot] = u32::try_from(outputs.len())
                        .ok()
                        .filter(|&n| n < MATCH >> 8)
                        .expect("automaton under 2^23 states");
                    table.resize(table.len() + 256, 0);
                    outputs.push(Vec::new());
                }
                state = table[slot] as usize;
            }
            outputs[state].push(id);
        }
        // Phase 2: BFS. Popping a state completes its row: a trie child is
        // kept and gets its failure link, and a missing one takes the
        // failure state's transition, whose row (shallower) is complete.
        let mut fail = vec![0usize; outputs.len()];
        let mut queue = VecDeque::from([0usize]);
        while let Some(state) = queue.pop_front() {
            for byte in 0..256 {
                let slot = state * 256 + byte;
                let via_fail = if state == 0 { 0 } else { table[fail[state] * 256 + byte] };
                let child = table[slot] as usize;
                if child == 0 {
                    table[slot] = via_fail;
                } else {
                    fail[child] = via_fail as usize;
                    let inherited = outputs[fail[child]].clone();
                    outputs[child].extend(inherited);
                    queue.push_back(child);
                }
            }
        }
        // Flatten: row offsets, match flags and one output list.
        let leaves_root = std::array::from_fn(|byte| table[byte] != 0);
        for next in &mut table {
            let flag = if outputs[*next as usize].is_empty() { 0 } else { MATCH };
            *next = (*next << 8) | flag;
        }
        let mut out_start = Vec::with_capacity(outputs.len() + 1);
        out_start.push(0);
        for list in &outputs {
            out_start.push(out_start[out_start.len() - 1] + list.len());
        }
        let outputs = outputs.concat();
        Self { table, out_start, outputs, leaves_root, pattern_count: patterns.len() }
    }

    /// Number of patterns the automaton was built from.
    #[must_use]
    pub fn pattern_count(&self) -> usize {
        self.pattern_count
    }

    /// Calls `f` with every pattern occurrence in `haystack`, in end-offset
    /// order, without allocating; stops at the first `Break` and returns
    /// its value.
    pub fn for_each_match<B>(
        &self,
        haystack: &[u8],
        mut f: impl FnMut(Match) -> ControlFlow<B>,
    ) -> Option<B> {
        let mut row = 0usize;
        let mut i = 0;
        while i < haystack.len() {
            if row == 0 {
                i += self.root_exit(&haystack[i..])?;
            }
            let next = self.table[row + usize::from(haystack[i])];
            i += 1;
            row = (next & !MATCH) as usize;
            if next & MATCH != 0 {
                let state = row >> 8;
                for &pattern in &self.outputs[self.out_start[state]..self.out_start[state + 1]] {
                    if let ControlFlow::Break(b) = f(Match { pattern, end: i }) {
                        return Some(b);
                    }
                }
            }
        }
        None
    }

    /// The offset of the first byte in `bytes` that leaves the root. Runs
    /// at the root are short in text, where pattern-starting letters are
    /// common, and long in binary or letter-free payloads: it tests the
    /// first eight bytes one by one, then eight bytes per branch.
    fn root_exit(&self, bytes: &[u8]) -> Option<usize> {
        let leaves = |b: &u8| self.leaves_root[usize::from(*b)];
        let head = bytes.len().min(8);
        if let Some(at) = bytes[..head].iter().position(leaves) {
            return Some(at);
        }
        let mut base = head;
        for chunk in bytes[head..].chunks_exact(8) {
            if chunk.iter().fold(false, |any, b| any | leaves(b)) {
                break;
            }
            base += 8;
        }
        bytes[base..].iter().position(leaves).map(|at| base + at)
    }

    /// Finds all pattern occurrences in `haystack`, in end-offset order.
    #[must_use]
    pub fn find_all(&self, haystack: &[u8]) -> Vec<Match> {
        let mut out = Vec::new();
        self.for_each_match(haystack, |m| {
            out.push(m);
            ControlFlow::<()>::Continue(())
        });
        out
    }

    /// Finds the first match, if any (cheaper than [`AhoCorasick::find_all`]
    /// when presence is all that matters).
    #[must_use]
    pub fn find_first(&self, haystack: &[u8]) -> Option<Match> {
        self.for_each_match(haystack, ControlFlow::Break)
    }

    /// Returns the set of distinct pattern indices present in `haystack`,
    /// sorted ascending.
    #[must_use]
    pub fn matching_patterns(&self, haystack: &[u8]) -> Vec<usize> {
        let mut hits: Vec<usize> = self.find_all(haystack).into_iter().map(|m| m.pattern).collect();
        hits.sort_unstable();
        hits.dedup();
        hits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pats(ps: &[&str]) -> Vec<Vec<u8>> {
        ps.iter().map(|p| p.as_bytes().to_vec()).collect()
    }

    #[test]
    fn finds_single_pattern() {
        let ac = AhoCorasick::new(&pats(&["abc"]));
        let m = ac.find_all(b"xxabcxx");
        assert_eq!(m, vec![Match { pattern: 0, end: 5 }]);
    }

    #[test]
    fn finds_overlapping_patterns() {
        let ac = AhoCorasick::new(&pats(&["he", "she", "his", "hers"]));
        let found = ac.matching_patterns(b"ushers");
        // "ushers" contains "she", "he", "hers".
        assert_eq!(found, vec![0, 1, 3]);
    }

    #[test]
    fn suffix_pattern_found_via_failure_links() {
        let ac = AhoCorasick::new(&pats(&["bc", "abcd"]));
        let found = ac.matching_patterns(b"xabcdx");
        assert_eq!(found, vec![0, 1]);
    }

    #[test]
    fn outputs_list_own_patterns_before_inherited_ones() {
        // At "she" the state's own pattern comes first, then "he" from
        // its failure state.
        let ac = AhoCorasick::new(&pats(&["he", "she"]));
        assert_eq!(
            ac.find_all(b"she"),
            vec![Match { pattern: 1, end: 3 }, Match { pattern: 0, end: 3 }]
        );
        assert_eq!(ac.find_first(b"she"), Some(Match { pattern: 1, end: 3 }));
    }

    #[test]
    fn table_has_one_row_per_state() {
        // The five default Snort contents share no prefix: 30 bytes of
        // trie plus the root.
        let ac = AhoCorasick::new(&pats(&["evil", "XFIL", "probe", "healthcheck", "beacon"]));
        assert_eq!(ac.table.len(), 31 * 256);
        let leaving: Vec<u8> = (0..=255u8).filter(|&b| ac.leaves_root[usize::from(b)]).collect();
        assert_eq!(leaving, b"Xbehp".to_vec());
    }

    #[test]
    fn root_skip_resumes_mid_pattern_after_a_miss() {
        // A partial match falls back to the root, and the skip must not
        // pass the byte that starts the next attempt.
        let ac = AhoCorasick::new(&pats(&["abc"]));
        assert_eq!(ac.find_all(b"zzabzabcab"), vec![Match { pattern: 0, end: 8 }]);
        assert_eq!(ac.find_all(b"aabc"), vec![Match { pattern: 0, end: 4 }]);
    }

    #[test]
    fn root_skip_finds_a_match_at_every_offset() {
        // Long runs that keep the root, with the pattern on each side of
        // every eight-byte step of the skip.
        let ac = AhoCorasick::new(&pats(&["abc"]));
        for at in 0..37 {
            let mut hay = vec![b'z'; 40];
            hay[at..at + 3].copy_from_slice(b"abc");
            assert_eq!(ac.find_all(&hay), vec![Match { pattern: 0, end: at + 3 }], "at {at}");
        }
    }

    #[test]
    fn for_each_match_stops_at_break() {
        let ac = AhoCorasick::new(&pats(&["a"]));
        let mut seen = 0;
        let stopped = ac.for_each_match(b"aaaa", |m| {
            seen += 1;
            if m.end == 2 {
                ControlFlow::Break(m.end)
            } else {
                ControlFlow::Continue(())
            }
        });
        assert_eq!((stopped, seen), (Some(2), 2));
    }

    #[test]
    fn no_match_returns_empty() {
        let ac = AhoCorasick::new(&pats(&["evil", "virus"]));
        assert!(ac.find_all(b"perfectly clean payload").is_empty());
        assert!(ac.find_first(b"perfectly clean payload").is_none());
    }

    #[test]
    fn find_first_stops_early() {
        let ac = AhoCorasick::new(&pats(&["aa"]));
        let m = ac.find_first(b"aaaa").unwrap();
        assert_eq!(m.end, 2);
    }

    #[test]
    fn empty_patterns_ignored() {
        let ac = AhoCorasick::new(&pats(&["", "x"]));
        assert_eq!(ac.matching_patterns(b"x"), vec![1]);
        assert!(ac.find_all(b"yyy").is_empty());
    }

    #[test]
    fn empty_haystack() {
        let ac = AhoCorasick::new(&pats(&["a"]));
        assert!(ac.find_all(b"").is_empty());
    }

    #[test]
    fn repeated_pattern_matches_each_occurrence() {
        let ac = AhoCorasick::new(&pats(&["ab"]));
        let m = ac.find_all(b"abab");
        assert_eq!(m.len(), 2);
        assert_eq!(m[0].end, 2);
        assert_eq!(m[1].end, 4);
    }

    #[test]
    fn binary_patterns() {
        let ac = AhoCorasick::new(&[vec![0x00, 0xff, 0x00]]);
        assert!(ac.find_first(&[0x01, 0x00, 0xff, 0x00, 0x02]).is_some());
    }

    #[test]
    fn identical_patterns_both_reported() {
        let ac = AhoCorasick::new(&pats(&["dup", "dup"]));
        let found = ac.matching_patterns(b"a dup here");
        assert_eq!(found, vec![0, 1]);
    }

    #[test]
    fn matches_against_reference_naive_search() {
        // Cross-check against naive substring search on pseudo-random data.
        let patterns = pats(&["abc", "bca", "aab", "ccc", "cab"]);
        let ac = AhoCorasick::new(&patterns);
        let mut text = Vec::new();
        let mut seed = 0x12345u32;
        for _ in 0..2000 {
            seed = seed.wrapping_mul(1664525).wrapping_add(1013904223);
            #[allow(clippy::cast_possible_truncation)] // reduced mod 3 below
            let byte = (seed >> 16) as u8;
            text.push(b'a' + byte % 3);
        }
        let got = ac.matching_patterns(&text);
        let want: Vec<usize> = patterns
            .iter()
            .enumerate()
            .filter(|(_, p)| text.windows(p.len()).any(|w| w == p.as_slice()))
            .map(|(i, _)| i)
            .collect();
        assert_eq!(got, want);
    }
}
