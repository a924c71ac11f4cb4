//! The per-NF Local Match-Action Table (paper §IV).
//!
//! As a flow's initial packet traverses the chain, each NF records its
//! per-flow header actions and state functions here through the
//! instrumentation APIs ([`crate::api`]). "We use a queue data structure to
//! maintain the sequence" — registration order of state functions is
//! preserved, because reordering them could violate code dependencies
//! (§IV-B).
//!
//! As in the paper, a Local MAT is one NF's queue of one flow's
//! recordings, and consolidation consumes it: it is staging, not a table.
//! It holds only flows whose initial packet is mid-walk — one entry per
//! walk in progress, a short list searched without hashing — and every
//! [`crate::GlobalMat::install`] drains the flow's entry, moving what it
//! holds into the flow's rule. Once installed, a flow's recordings live in
//! its record ([`crate::record`]) and leave with it. The list keeps its
//! entries' buffers for the next walk. Thread-safe: in the
//! OpenNetVM-style threaded runtime each NF thread records into its own
//! Local MAT while the manager core installs.

use std::fmt;

use parking_lot::Mutex;
use speedybox_packet::Fid;

use crate::action::HeaderAction;
use crate::ops::OpCounter;
use crate::state_fn::StateFunction;

/// Identifies an NF by its position in the service chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct NfId(usize);

impl NfId {
    /// Creates an NF id for chain position `index` (0-based).
    #[must_use]
    pub fn new(index: usize) -> Self {
        NfId(index)
    }

    /// The chain position.
    #[must_use]
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for NfId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "nf{}", self.0)
    }
}

/// One NF's recorded per-flow rule: its header actions and state functions
/// in registration order.
#[derive(Debug, Clone, Default)]
pub struct LocalRule {
    /// Header actions in registration order (usually exactly one).
    pub header_actions: Vec<HeaderAction>,
    /// State functions in registration order (the paper's queue).
    pub state_functions: Vec<StateFunction>,
}

impl LocalRule {
    /// True if nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.header_actions.is_empty() && self.state_functions.is_empty()
    }
}

/// One staged walk: the flow, or `None` for an entry kept only for its
/// buffers, and what its NF recorded so far.
#[derive(Debug, Default)]
struct Staged {
    fid: Option<Fid>,
    rule: LocalRule,
}

/// The Local MAT associated with one NF: the recordings of the flows whose
/// initial packet is mid-walk (see the module docs).
#[derive(Debug)]
pub struct LocalMat {
    nf: NfId,
    staged: Mutex<Vec<Staged>>,
}

/// The staged rule of `fid`, if it is mid-walk.
fn find(staged: &mut [Staged], fid: Fid) -> Option<&mut LocalRule> {
    staged.iter_mut().find(|s| s.fid == Some(fid)).map(|s| &mut s.rule)
}

/// The staged rule of `fid`, opening an entry — a vacant one if there is
/// one — if it has none.
fn entry(staged: &mut Vec<Staged>, fid: Fid) -> &mut LocalRule {
    let at = match staged.iter().position(|s| s.fid == Some(fid)) {
        Some(at) => at,
        None => {
            let at = staged.iter().position(|s| s.fid.is_none()).unwrap_or_else(|| {
                staged.push(Staged::default());
                staged.len() - 1
            });
            staged[at].fid = Some(fid);
            at
        }
    };
    &mut staged[at].rule
}

impl LocalMat {
    /// Creates an empty Local MAT for the NF at `nf`.
    #[must_use]
    pub fn new(nf: NfId) -> Self {
        Self { nf, staged: Mutex::new(Vec::new()) }
    }

    /// The owning NF.
    #[must_use]
    pub fn nf(&self) -> NfId {
        self.nf
    }

    /// Appends a header action to the flow's rule
    /// (the `localmat_add_HA` API of Fig 2).
    pub fn add_header_action(&self, fid: Fid, action: HeaderAction, ops: &mut OpCounter) {
        entry(&mut self.staged.lock(), fid).header_actions.push(action);
        ops.mat_records += 1;
    }

    /// Appends a state function to the flow's rule
    /// (the `localmat_add_SF` API of Fig 2).
    pub fn add_state_function(&self, fid: Fid, func: StateFunction, ops: &mut OpCounter) {
        entry(&mut self.staged.lock(), fid).state_functions.push(func);
        ops.mat_records += 1;
    }

    /// Replaces the flow's staged header actions.
    pub fn set_header_actions(&self, fid: Fid, actions: Vec<HeaderAction>) {
        entry(&mut self.staged.lock(), fid).header_actions = actions;
    }

    /// Ends the flow's walk at this NF: moves its staged header actions
    /// onto `actions` and its state functions onto `funcs`, each tagged
    /// with this NF, leaving nothing staged. The entry keeps its buffers
    /// for the next walk. Install's drain.
    pub(crate) fn drain(
        &self,
        fid: Fid,
        actions: &mut Vec<(NfId, HeaderAction)>,
        funcs: &mut Vec<(NfId, StateFunction)>,
    ) {
        let mut staged = self.staged.lock();
        let Some(entry) = staged.iter_mut().find(|s| s.fid == Some(fid)) else {
            return;
        };
        entry.fid = None;
        actions.extend(entry.rule.header_actions.drain(..).map(|action| (self.nf, action)));
        funcs.extend(entry.rule.state_functions.drain(..).map(|func| (self.nf, func)));
    }

    /// A snapshot of the flow's staged rule, if it is mid-walk.
    #[must_use]
    pub fn rule(&self, fid: Fid) -> Option<LocalRule> {
        find(&mut self.staged.lock(), fid).map(|rule| rule.clone())
    }

    /// Drops the flow's staged recordings (an unfinished walk's
    /// leftovers), returning whether it had any.
    pub fn remove(&self, fid: Fid) -> bool {
        let mut staged = self.staged.lock();
        let Some(entry) = staged.iter_mut().find(|s| s.fid == Some(fid)) else {
            return false;
        };
        entry.fid = None;
        entry.rule.header_actions.clear();
        entry.rule.state_functions.clear();
        true
    }

    /// Number of flows mid-walk.
    #[must_use]
    pub fn len(&self) -> usize {
        self.staged.lock().iter().filter(|s| s.fid.is_some()).count()
    }

    /// True if no flow is mid-walk.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use speedybox_packet::HeaderField;

    use super::*;
    use crate::state_fn::PayloadAccess;

    fn fid(n: u32) -> Fid {
        Fid::new(n)
    }

    #[test]
    fn records_header_actions_in_order() {
        let mat = LocalMat::new(NfId::new(0));
        let mut ops = OpCounter::default();
        mat.add_header_action(fid(1), HeaderAction::modify(HeaderField::DstPort, 1u16), &mut ops);
        mat.add_header_action(fid(1), HeaderAction::Forward, &mut ops);
        let rule = mat.rule(fid(1)).unwrap();
        assert_eq!(rule.header_actions.len(), 2);
        assert!(rule.header_actions[1].is_forward());
        assert_eq!(ops.mat_records, 2);
    }

    #[test]
    fn records_state_functions_in_order() {
        let mat = LocalMat::new(NfId::new(1));
        let mut ops = OpCounter::default();
        for name in ["a", "b", "c"] {
            mat.add_state_function(
                fid(2),
                StateFunction::new(name, PayloadAccess::Ignore, |_| {}),
                &mut ops,
            );
        }
        let rule = mat.rule(fid(2)).unwrap();
        let names: Vec<&str> = rule.state_functions.iter().map(|f| f.name()).collect();
        assert_eq!(names, vec!["a", "b", "c"]);
    }

    #[test]
    fn flows_are_isolated() {
        let mat = LocalMat::new(NfId::new(0));
        let mut ops = OpCounter::default();
        mat.add_header_action(fid(1), HeaderAction::Drop, &mut ops);
        assert!(mat.rule(fid(1)).is_some());
        assert!(mat.rule(fid(2)).is_none());
    }

    #[test]
    fn remove_cleans_up() {
        let mat = LocalMat::new(NfId::new(0));
        let mut ops = OpCounter::default();
        mat.add_header_action(fid(1), HeaderAction::Drop, &mut ops);
        assert_eq!(mat.len(), 1);
        assert!(mat.remove(fid(1)));
        assert!(!mat.remove(fid(1)));
        assert!(mat.is_empty());
    }

    #[test]
    fn drain_empties_and_reuses_the_entry() {
        let mat = LocalMat::new(NfId::new(2));
        let mut ops = OpCounter::default();
        mat.add_header_action(fid(1), HeaderAction::Forward, &mut ops);
        let sf = StateFunction::new("f", PayloadAccess::Ignore, |_| {});
        mat.add_state_function(fid(1), sf, &mut ops);
        let (mut actions, mut funcs) = (Vec::new(), Vec::new());
        mat.drain(fid(1), &mut actions, &mut funcs);
        assert_eq!(actions, vec![(NfId::new(2), HeaderAction::Forward)]);
        assert_eq!(funcs.len(), 1);
        assert_eq!(funcs[0].0, NfId::new(2));
        assert!(mat.is_empty(), "install leaves nothing staged");
        mat.drain(fid(1), &mut actions, &mut funcs);
        assert_eq!((actions.len(), funcs.len()), (1, 1), "a second drain moves nothing");
        mat.add_header_action(fid(2), HeaderAction::Drop, &mut ops);
        let staged = mat.staged.lock();
        assert_eq!(staged.len(), 1, "the next walk reuses the vacant entry");
        assert!(staged[0].rule.state_functions.capacity() > 0, "and its buffers");
    }

    #[test]
    fn set_replaces() {
        let mat = LocalMat::new(NfId::new(0));
        let mut ops = OpCounter::default();
        mat.add_header_action(fid(1), HeaderAction::Forward, &mut ops);
        mat.set_header_actions(fid(1), vec![HeaderAction::Drop]);
        let rule = mat.rule(fid(1)).unwrap();
        assert_eq!(rule.header_actions, vec![HeaderAction::Drop]);
    }

    #[test]
    fn empty_rule_is_empty() {
        assert!(LocalRule::default().is_empty());
    }

    #[test]
    fn is_shareable_across_threads() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<LocalMat>();
    }
}
