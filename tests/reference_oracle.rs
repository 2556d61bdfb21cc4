//! The reference checker's own cases, pinned to the definitions by hand
//! (not to the engine): the places where Definitions 2.1/2.2/3.1 and
//! the `Lt`/`Ft` readings are easiest to get subtly wrong.

#[path = "support/mod.rs"]
mod support;

use support::reference::{Finding, Reference, Run};
use tempo_core::{ActionSet, TimedSequence, TimingCondition};
use tempo_math::{Interval, Rat};

const START: u32 = 99;
const GO: u32 = 0;
const SERVE: u32 = 1;
const OFF: u32 = 2;
const IDLE: u32 = 3;

/// Triggered by `GO` (and at start when `at_start`), served by `SERVE`,
/// disabled by `OFF`.
fn cond(lo: i64, hi: Option<i64>, at_start: bool) -> TimingCondition<u32, u32> {
    let bounds = match hi {
        Some(h) => Interval::closed(Rat::from(lo), Rat::from(h)).unwrap(),
        None => Interval::unbounded_above(Rat::from(lo)),
    };
    let c = TimingCondition::new("C", bounds)
        .triggered_by_actions(ActionSet::only(GO))
        .on_action_set(ActionSet::only(SERVE))
        .disabled_by_actions(ActionSet::only(OFF));
    if at_start {
        c.triggered_at_start(|s| *s == START)
    } else {
        c
    }
}

fn seq(events: &[(u32, i64)]) -> TimedSequence<u32, u32> {
    let mut s = TimedSequence::new(START);
    for &(a, t) in events {
        s.push(a, Rat::from(t), a);
    }
    s
}

fn run(r: Reference, c: TimingCondition<u32, u32>, events: &[(u32, i64)]) -> Run {
    r.run(&seq(events), &[c])
}

fn lower(trigger: usize, event: usize, earliest: i64) -> Finding {
    Finding::Lower {
        ci: 0,
        trigger,
        event,
        earliest: Rat::from(earliest),
    }
}

fn upper(trigger: usize, deadline: i64) -> Finding {
    Finding::Upper {
        ci: 0,
        trigger,
        deadline: Rat::from(deadline),
    }
}

#[test]
fn disabling_excuses_later_events_but_not_its_own() {
    // A serve whose own post-state disables still violates the window…
    let both = TimingCondition::new("C", Interval::unbounded_above(Rat::from(5)))
        .triggered_at_start(|s| *s == START)
        .on_action_set(ActionSet::only(SERVE))
        .disabled_in(|s| *s == SERVE);
    let r = Reference::new(true).run(&seq(&[(SERVE, 1)]), &[both]);
    assert_eq!(r.steps, [vec![lower(0, 1, 5)]]);
    // …while a disabling event ends it, excusing every later serve.
    let r = run(
        Reference::new(true),
        cond(5, None, true),
        &[(OFF, 1), (SERVE, 2)],
    );
    assert!(r.all().next().is_none(), "{r:?}");
    assert_eq!(r.open[0].len(), 1);
    assert!(
        r.open[1].is_empty(),
        "the disabling event closes the window"
    );
}

#[test]
fn definition_2_1_lower_bound_has_no_escape() {
    let def_2_1 = Reference {
        lower_escape: false,
        ..Reference::new(true)
    };
    let r = run(def_2_1, cond(5, None, true), &[(OFF, 1), (SERVE, 2)]);
    assert_eq!(r.all().cloned().collect::<Vec<_>>(), [lower(0, 2, 5)]);
    // Disabling still serves a deadline under Definition 2.1.
    let r = run(def_2_1, cond(0, Some(3), true), &[(OFF, 1), (IDLE, 9)]);
    assert!(r.all().next().is_none(), "{r:?}");
}

#[test]
fn zero_lower_bound_opens_no_window() {
    let r = run(Reference::new(true), cond(0, None, true), &[(SERVE, 0)]);
    assert!(r.all().next().is_none());
    assert!(r.open.iter().all(Vec::is_empty), "{:?}", r.open);
}

#[test]
fn infinite_upper_bound_opens_no_deadline() {
    let r = run(Reference::new(false), cond(1, None, true), &[(IDLE, 100)]);
    assert!(r.all().next().is_none(), "{r:?}");
    assert_eq!(r.min_deadline(0), None);
    // Only the window was ever open.
    assert_eq!(r.open[0], [(0, 0, false, Rat::ONE)]);
}

#[test]
fn t_end_at_the_deadline_prefix_vs_complete() {
    // Triggered at 1 with deadline 1 + 4 = 5; the sequence ends at 5.
    let events = [(GO, 1), (IDLE, 5)];
    let prefix = run(Reference::new(true), cond(0, Some(4), false), &events);
    assert!(prefix.all().next().is_none(), "excused: t_end ≤ deadline");
    assert_eq!(prefix.min_deadline(2), Some(Rat::from(5)));
    let complete = run(Reference::new(false), cond(0, Some(4), false), &events);
    assert!(complete.steps.iter().all(Vec::is_empty));
    assert_eq!(complete.finish, [upper(1, 5)]);
    // One tick later the deadline has passed during the sequence.
    let late = run(
        Reference::new(true),
        cond(0, Some(4), false),
        &[(GO, 1), (IDLE, 6)],
    );
    assert_eq!(late.steps[1], [upper(1, 5)]);
}

#[test]
fn warning_owed_at_finish_precedes_its_violation() {
    // Deadline 2 + 10 = 12, warning point 12 − 3 = 9, never passed.
    let r = run(
        Reference::new(false).horizon(Rat::from(3)),
        cond(0, Some(10), false),
        &[(GO, 2), (IDLE, 9)],
    );
    assert!(r.steps.iter().all(Vec::is_empty), "9 is not past 9");
    let warned = Finding::Warned {
        ci: 0,
        trigger: 1,
        deadline: Rat::from(12),
        warn_at: Rat::from(9),
    };
    assert_eq!(r.finish, [warned.clone(), upper(1, 12)]);
    // Under Prefix nothing is owed at the end.
    let r = run(
        Reference::new(true).horizon(Rat::from(3)),
        cond(0, Some(10), false),
        &[(GO, 2), (IDLE, 9)],
    );
    assert!(r.all().next().is_none());
    // A time jump past the deadline warns first, at the same event.
    let r = run(
        Reference::new(true).horizon(Rat::from(3)),
        cond(0, Some(10), false),
        &[(GO, 2), (IDLE, 50)],
    );
    assert_eq!(r.steps[1], [warned, upper(1, 12)]);
}

#[test]
fn forced_window_only_when_margin_covers_a_positive_horizon() {
    let forced = |lo: i64, h: i64| {
        run(
            Reference::new(true).horizon(Rat::from(h)),
            cond(lo, Some(20), true),
            &[(GO, 2)],
        )
        .steps[0]
            .clone()
    };
    assert_eq!(
        forced(5, 3),
        [Finding::Forced {
            ci: 0,
            trigger: 1,
            earliest: Rat::from(7),
            t_i: Rat::from(2),
            margin: Rat::from(5),
        }]
    );
    assert_eq!(forced(3, 3).len(), 1, "b_l = h qualifies");
    assert!(forced(2, 3).is_empty(), "b_l < h");
    assert!(forced(5, 0).is_empty(), "h = 0 reports nothing");
    // The start-state window predates the horizon: never reported.
    let r = run(
        Reference::new(true).horizon(Rat::ONE),
        cond(5, Some(20), true),
        &[(IDLE, 1)],
    );
    assert!(r.all().next().is_none());
}
