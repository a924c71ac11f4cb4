//! Exhaustive model-check tier for the flow record's event-fire path
//! (runs under plain `cargo test`; CI's `model-check` job runs exactly
//! this).
//!
//! The clean runs prove that a one-shot event armed in a flow record fires
//! once when two readers of the record see it raised, that two firings of
//! different events in one record compose, and that an NF's raise racing
//! the re-check and a fast-path reader is never lost; the mutation twins
//! prove that firing from the reader's snapshot, without the Event
//! Table's serialized re-check, republishing a fired patch outside the
//! critical section, and remembering a signal value loaded after the
//! re-check are each caught with a deterministically replayable schedule.
#![cfg(feature = "model")]

use speedybox_check::{BugKind, Checker, Config};
use speedybox_mat::model::{scenarios, FireMutation, RaiseMutation};

const BOUND: usize = 2;

#[test]
fn fire_once_is_clean() {
    let out = Checker::new(Config::exhaustive(BOUND))
        .check("rec-fire-once", scenarios::rec_fire_once(FireMutation::None));
    out.assert_clean();
    // Both outcomes of the race are reachable: the second reader's
    // re-check finding the event gone, and the second reader holding the
    // already rewritten record.
    out.assert_fact("reader fired the event");
    out.assert_fact("re-check found the event already fired");
    out.assert_fact("reader held the rewritten record");
}

#[test]
fn mutation_snapshot_fire_is_caught() {
    let out = Checker::new(Config::exhaustive(BOUND))
        .check("rec-snapshot-fire", scenarios::rec_fire_once(FireMutation::SnapshotFire));
    let bug = out.expect_bug(BugKind::Panic).clone();
    assert!(bug.message.contains("fired 2 times"), "expected a double fire, got: {}", bug.message);
    let replayed = Checker::new(Config::replay(bug.schedule.parse().expect("schedule parses")))
        .check("replay", scenarios::rec_fire_once(FireMutation::SnapshotFire));
    assert!(
        replayed.bugs.iter().any(|b| b.kind == BugKind::Panic),
        "schedule `{}` did not replay to the double fire",
        bug.schedule
    );
}

#[test]
fn fires_compose_is_clean() {
    let out = Checker::new(Config::exhaustive(BOUND))
        .check("rec-fires-compose", scenarios::rec_fires_compose(FireMutation::None));
    out.assert_clean();
    // Either reader may fire first; the second fires its own event on the
    // record the first rewrote, or already held that record.
    out.assert_fact("reader fired the event");
}

#[test]
fn mutation_patch_outside_lock_is_caught() {
    let out = Checker::new(Config::exhaustive(BOUND)).check(
        "rec-patch-outside-lock",
        scenarios::rec_fires_compose(FireMutation::PatchOutsideLock),
    );
    let bug = out.expect_bug(BugKind::Panic).clone();
    assert!(bug.message.contains("patch was lost"), "expected a lost patch, got: {}", bug.message);
    let replayed = Checker::new(Config::replay(bug.schedule.parse().expect("schedule parses")))
        .check("replay", scenarios::rec_fires_compose(FireMutation::PatchOutsideLock));
    assert!(
        replayed.bugs.iter().any(|b| b.kind == BugKind::Panic),
        "schedule `{}` did not replay to the lost patch",
        bug.schedule
    );
}

#[test]
fn raise_vs_fire_is_clean() {
    let out = Checker::new(Config::exhaustive(BOUND))
        .check("ev-raise-vs-fire", scenarios::ev_raise_vs_fire(RaiseMutation::None));
    out.assert_clean();
    // The re-check either lands before the raise and remembers the
    // signal, or after it and fires; a reader may also find the signal
    // already remembered, or the event already fired.
    out.assert_fact("re-check remembered the signal");
    out.assert_fact("re-check fired the event");
    out.assert_fact("reader saw no raise");
    out.assert_fact("re-check found the event already fired");
}

#[test]
fn mutation_load_after_check_is_caught() {
    let out = Checker::new(Config::exhaustive(BOUND))
        .check("ev-load-after-check", scenarios::ev_raise_vs_fire(RaiseMutation::LoadAfterCheck));
    let bug = out.expect_bug(BugKind::Panic).clone();
    assert!(bug.message.contains("fired 0 times"), "expected a lost raise, got: {}", bug.message);
    let replayed = Checker::new(Config::replay(bug.schedule.parse().expect("schedule parses")))
        .check("replay", scenarios::ev_raise_vs_fire(RaiseMutation::LoadAfterCheck));
    assert!(
        replayed.bugs.iter().any(|b| b.kind == BugKind::Panic),
        "schedule `{}` did not replay to the lost raise",
        bug.schedule
    );
}
