//! Runtime payload-access and missed-raise tracking (debug builds only).
//!
//! Every state function *declares* how it touches the packet payload
//! ([`crate::state_fn::PayloadAccess`]); the Table I parallel schedule is
//! only sound if those declarations are honest. A function declared
//! `Ignore` or `Read` that actually *writes* the payload can be scheduled
//! into the same wave as a reader and silently corrupt it.
//!
//! Under `debug_assertions`, [`crate::state_fn::StateFunction::invoke`]
//! snapshots the payload around every non-`Write` handler invocation and
//! records a [`AccessViolation`] here when the bytes changed — turning a
//! lying declaration into a diagnosable fact instead of silent corruption.
//! `speedybox-verify` renders recorded violations as `SBX010` diagnostics.
//!
//! The same holds for event signals: an armed event is only re-checked
//! when its NF raises its [`crate::event::Signal`], so a condition whose
//! inputs change without a raise would go unseen. Under
//! `debug_assertions`, [`crate::global::GlobalMat::serve`] also evaluates
//! every armed condition whose signal did not move and records a
//! [`MissedRaise`] here when one holds; `speedybox-verify` renders those
//! as `SBX014`, and the `sim` sweep fails on any.
//!
//! Release builds compile both checks out entirely ([`enabled`] is a
//! `cfg!` constant); the recording functions remain callable but are never
//! reached from the hot path.

use std::cell::RefCell;
use std::sync::Mutex;

use crate::state_fn::PayloadAccess;

thread_local! {
    /// Reused payload-snapshot buffer for the debug tracker. Taking it out
    /// (instead of borrowing across the handler call) keeps a nested
    /// state-function invocation from panicking on a double borrow — the
    /// inner call just works with a fresh, empty vector.
    static SNAPSHOT: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
}

/// Hands out the thread's reusable snapshot buffer (possibly empty).
pub(crate) fn snapshot_buf() -> Vec<u8> {
    SNAPSHOT.with(|s| std::mem::take(&mut *s.borrow_mut()))
}

/// Returns a snapshot buffer, keeping the larger capacity for next time.
pub(crate) fn return_snapshot_buf(buf: Vec<u8>) {
    SNAPSHOT.with(|s| {
        let mut slot = s.borrow_mut();
        if buf.capacity() > slot.capacity() {
            *slot = buf;
        }
    });
}

/// One observed declared-vs-actual payload-access mismatch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AccessViolation {
    /// Diagnostic name of the state function (see
    /// [`crate::state_fn::StateFunction::name`]).
    pub function: String,
    /// What the function declared.
    pub declared: PayloadAccess,
    /// What was observed (always [`PayloadAccess::Write`]: byte-diffing can
    /// prove a write happened, never that a read did).
    pub observed: PayloadAccess,
    /// How many invocations exhibited the mismatch.
    pub count: u64,
}

/// Process-global violation log. Deduplicated by function name so a lying
/// handler invoked per-packet cannot grow this without bound.
static VIOLATIONS: Mutex<Vec<AccessViolation>> = Mutex::new(Vec::new());

/// True when the tracker is active (debug builds). The check is a compile
/// time constant, so release builds pay nothing for the instrumentation.
#[must_use]
pub fn enabled() -> bool {
    cfg!(debug_assertions)
}

/// Records that `function`, declared as `declared`, was observed writing
/// the payload. Called by [`crate::state_fn::StateFunction::invoke`].
pub(crate) fn record_write_violation(function: &str, declared: PayloadAccess) {
    let mut log = VIOLATIONS.lock().expect("access-tracker mutex poisoned");
    match log.iter_mut().find(|v| v.function == function) {
        Some(v) => v.count += 1,
        None => log.push(AccessViolation {
            function: function.to_owned(),
            declared,
            observed: PayloadAccess::Write,
            count: 1,
        }),
    }
}

/// A snapshot of the recorded violations (does not clear the log).
#[must_use]
pub fn violations() -> Vec<AccessViolation> {
    VIOLATIONS.lock().expect("access-tracker mutex poisoned").clone()
}

/// Drains the recorded violations, returning them and clearing the log.
/// Call between runs (or tests) to scope findings to one chain execution.
#[must_use]
pub fn take_violations() -> Vec<AccessViolation> {
    std::mem::take(&mut *VIOLATIONS.lock().expect("access-tracker mutex poisoned"))
}

/// One event whose condition held on the fast path although its signal
/// had not been raised since the condition was last found false.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MissedRaise {
    /// The event's diagnostic name (see [`crate::event::Event::name`]).
    pub event: String,
    /// How many fast-path checks found it so.
    pub count: u64,
}

/// Process-global missed-raise log, deduplicated by event name.
static MISSED_RAISES: Mutex<Vec<MissedRaise>> = Mutex::new(Vec::new());

/// Records that the event named `event` held without a raise. Called by
/// [`crate::global::GlobalMat::serve`].
pub(crate) fn record_missed_raise(event: &str) {
    let mut log = MISSED_RAISES.lock().expect("missed-raise mutex poisoned");
    match log.iter_mut().find(|m| m.event == event) {
        Some(m) => m.count += 1,
        None => log.push(MissedRaise { event: event.to_owned(), count: 1 }),
    }
}

/// Drains the recorded missed raises, returning them and clearing the
/// log.
#[must_use]
pub fn take_missed_raises() -> Vec<MissedRaise> {
    std::mem::take(&mut *MISSED_RAISES.lock().expect("missed-raise mutex poisoned"))
}

#[cfg(test)]
mod tests {
    use super::*;

    // Note: the log is process-global, so tests here only use function
    // names no other test records, and never assert global emptiness.

    #[test]
    fn record_dedupes_by_function_name() {
        record_write_violation("track-test-a", PayloadAccess::Ignore);
        record_write_violation("track-test-a", PayloadAccess::Ignore);
        let v = violations();
        let hit = v.iter().find(|v| v.function == "track-test-a").unwrap();
        assert!(hit.count >= 2);
        assert_eq!(hit.declared, PayloadAccess::Ignore);
        assert_eq!(hit.observed, PayloadAccess::Write);
    }

    #[test]
    fn missed_raises_dedupe_by_event_name() {
        record_missed_raise("track-test-event");
        record_missed_raise("track-test-event");
        let hit = take_missed_raises().into_iter().find(|m| m.event == "track-test-event").unwrap();
        assert!(hit.count >= 2);
    }

    #[test]
    fn enabled_matches_build_profile() {
        assert_eq!(enabled(), cfg!(debug_assertions));
    }
}
