//! Integration tests for the stepper's tick domain: domain selection
//! over the Rat→u64 scaling edge cases (denominator-1 fast path, mixed
//! finite/infinite bounds, LCM overflow), the mid-stream move to `Rat`
//! when an event time leaves the tick grid, snapshot/resume round trips
//! across domains, and the shipped `.tspec` systems all running on
//! ticks. The `Rat` side of each comparison is the same conditions
//! compiled beside two off-grid ones (`support::oracle::off_grid`).

#[path = "support/mod.rs"]
mod support;

use std::sync::Arc;

use support::oracle::off_grid;
use tempo_core::engine::{CompiledConditionSet, EngineBackend};
use tempo_core::{ActionSet, SatisfactionMode, TimedSequence, TimingCondition, Violation};
use tempo_math::{Interval, Rat, TimeVal};
use tempo_monitor::Monitor;

const START: u32 = 999;
const TRIGGER: u32 = 0;
const SERVE: u32 = 1;

/// A condition triggered by action 0, served by action 1, with the
/// given bounds (`hi == None` means unbounded above).
fn cond(name: &str, lo: Rat, hi: Option<Rat>) -> TimingCondition<u32, u32> {
    let bounds = match hi {
        Some(h) => Interval::new(lo, TimeVal::from(h)).unwrap(),
        None => Interval::unbounded_above(lo),
    };
    TimingCondition::new(name, bounds)
        .triggered_by_actions(ActionSet::of([TRIGGER]))
        .on_action_set(ActionSet::of([SERVE]))
}

/// `(action, time)` pairs into a sequence whose post-states mirror the
/// actions.
fn seq(events: &[(u32, Rat)]) -> TimedSequence<u32, u32> {
    let mut s = TimedSequence::new(START);
    for &(a, t) in events {
        s.push(a, t, a);
    }
    s
}

fn sorted(vs: &[Violation]) -> Vec<String> {
    let mut keys: Vec<String> = vs.iter().map(|v| format!("{v:?}")).collect();
    keys.sort();
    keys
}

/// The same conditions, compiled off every tick grid: streams over it
/// run on exact `Rat`s from the start.
fn exact_twin(set: &CompiledConditionSet<u32, u32>) -> Arc<CompiledConditionSet<u32, u32>> {
    let exact = CompiledConditionSet::new(&off_grid(set.conditions()));
    assert_eq!(exact.backend(), EngineBackend::Exact);
    Arc::new(exact)
}

/// Runs a monitor over `events` and returns its Complete-mode
/// violations.
fn run_monitor(set: &Arc<CompiledConditionSet<u32, u32>>, events: &[(u32, Rat)]) -> Vec<Violation> {
    let mut mon = Monitor::from_compiled(Arc::clone(set), &START);
    for &(a, t) in events {
        mon.observe(&a, t, &a);
    }
    mon.finish(SatisfactionMode::Complete)
}

#[test]
fn integral_bounds_take_the_denominator_1_fast_path() {
    let set = CompiledConditionSet::new(&[cond("c", Rat::from(1), Some(Rat::from(5)))]);
    assert!(set.int_capable());
    assert_eq!(set.backend(), EngineBackend::Int);
    // All-integer bounds need no scaling at all: one tick per time unit.
    assert_eq!(set.int_scale().unwrap().denominator(), 1);

    let set = Arc::new(set);
    let auto = Monitor::from_compiled(Arc::clone(&set), &START);
    assert_eq!(auto.backend(), EngineBackend::Int);
    // One off-grid condition beside them keeps the whole set exact.
    let exact = Monitor::from_compiled(exact_twin(&set), &START);
    assert_eq!(exact.backend(), EngineBackend::Exact);
}

#[test]
fn mixed_finite_and_infinite_bounds_share_a_grid() {
    // An unbounded-above condition contributes only its lower bound to
    // the grid; the denominators 2, 4, 3 combine to 12 ticks per unit.
    let set = CompiledConditionSet::new(&[
        cond("halves", Rat::new(1, 2), Some(Rat::new(3, 4))),
        cond("open", Rat::new(1, 3), None),
    ]);
    assert_eq!(set.backend(), EngineBackend::Int);
    assert_eq!(set.int_scale().unwrap().denominator(), 12);
}

#[test]
fn unscalable_bounds_force_the_exact_backend() {
    // Denominators 2^63 and 3: their LCM overflows u64, so no common
    // tick grid exists.
    let lcm_overflow = CompiledConditionSet::new(&[
        cond("tiny", Rat::new(1, 1i128 << 63), Some(Rat::from(1))),
        cond("third", Rat::new(1, 3), Some(Rat::from(1))),
    ]);
    assert!(!lcm_overflow.int_capable());
    assert_eq!(lcm_overflow.backend(), EngineBackend::Exact);

    // The LCM (6) exists but scaling i64::MAX/2 onto it overflows the
    // u64 tick domain.
    let tick_overflow = CompiledConditionSet::new(&[
        cond("huge", Rat::from(1), Some(Rat::new(i64::MAX as i128, 2))),
        cond("third", Rat::new(1, 3), Some(Rat::from(1))),
    ]);
    assert!(!tick_overflow.int_capable());

    // The exact backend still monitors such a set: deadline 1 for
    // `third` and `tiny` passes unserved at t = 2.
    let trace = [(TRIGGER, Rat::from(0)), (SERVE + 1, Rat::from(2))];
    let fold = lcm_overflow.fold_sequence(&seq(&trace), SatisfactionMode::Complete);
    assert_eq!(fold.len(), 2);
}

#[test]
fn fold_backends_agree_on_verdicts() {
    let set = CompiledConditionSet::new(&[
        cond("tight", Rat::from(1), Some(Rat::from(5))),
        cond("open", Rat::from(2), None),
    ]);
    assert_eq!(set.backend(), EngineBackend::Int);
    // Early serve (lower-bound violation for `tight` and `open`), a
    // re-trigger, then a deadline miss at t = 10 > 5.
    let trace = seq(&[
        (TRIGGER, Rat::from(0)),
        (SERVE, Rat::new(1, 2)),
        (TRIGGER, Rat::from(3)),
        (SERVE + 1, Rat::from(10)),
    ]);
    let exact_set = exact_twin(&set);
    for mode in [SatisfactionMode::Prefix, SatisfactionMode::Complete] {
        let int = set.fold_sequence(&trace, mode);
        let exact = exact_set.fold_sequence(&trace, mode);
        assert_eq!(sorted(&int), sorted(&exact), "mode {mode:?}");
    }
}

#[test]
fn off_grid_event_time_spills_to_exact_mid_stream() {
    let set = Arc::new(CompiledConditionSet::new(&[cond(
        "c",
        Rat::from(1),
        Some(Rat::from(5)),
    )]));
    // t = 5/3 does not fit the unit grid: the monitor must hand the
    // open obligation to the exact engine and keep identical verdicts.
    let trace = [
        (TRIGGER, Rat::from(0)),
        (SERVE, Rat::new(5, 3)),
        (TRIGGER, Rat::from(2)),
        (SERVE + 1, Rat::from(9)),
    ];
    let mut mon = Monitor::from_compiled(Arc::clone(&set), &START);
    assert_eq!(mon.backend(), EngineBackend::Int);
    mon.observe(&TRIGGER, Rat::from(0), &TRIGGER);
    assert_eq!(mon.backend(), EngineBackend::Int);
    mon.observe(&SERVE, Rat::new(5, 3), &SERVE);
    assert_eq!(mon.backend(), EngineBackend::Exact, "spilled on 5/3");
    mon.observe(&TRIGGER, Rat::from(2), &TRIGGER);
    mon.observe(&(SERVE + 1), Rat::from(9), &(SERVE + 1));
    let spilled = mon.finish(SatisfactionMode::Complete);

    let oracle = run_monitor(&exact_twin(&set), &trace);
    assert_eq!(sorted(&spilled), sorted(&oracle));
    assert!(!spilled.is_empty(), "the warped trace must violate");
}

#[test]
fn overflowing_event_time_spills_to_exact() {
    let set = Arc::new(CompiledConditionSet::new(&[cond(
        "c",
        Rat::from(1),
        Some(Rat::from(5)),
    )]));
    // The time itself is integral but adding the largest bound to it
    // could overflow u64 ticks, so the step must not run on the int
    // engine.
    let huge = Rat::from(1i128 << 70);
    let trace = [(TRIGGER, Rat::from(0)), (TRIGGER, huge)];
    let mut mon = Monitor::from_compiled(Arc::clone(&set), &START);
    mon.observe(&TRIGGER, Rat::from(0), &TRIGGER);
    mon.observe(&TRIGGER, huge, &TRIGGER);
    assert_eq!(mon.backend(), EngineBackend::Exact);
    let spilled = mon.finish(SatisfactionMode::Complete);
    let oracle = run_monitor(&exact_twin(&set), &trace);
    assert_eq!(sorted(&spilled), sorted(&oracle));
}

#[test]
fn snapshot_resumes_onto_the_int_backend() {
    let set = Arc::new(CompiledConditionSet::new(&[
        cond("tight", Rat::from(1), Some(Rat::from(5))),
        cond("open", Rat::new(1, 2), None),
    ]));
    let mut prefix = Monitor::from_compiled(Arc::clone(&set), &START);
    prefix.observe(&TRIGGER, Rat::from(2), &TRIGGER);
    assert_eq!(prefix.backend(), EngineBackend::Int);
    assert_eq!(prefix.open_obligations(), 3);

    // The snapshot is domain-agnostic (exact `EngineState`), survives
    // serde, and resuming converts it back onto ticks.
    let json = serde_json::to_string(&prefix.engine_state()).unwrap();
    let state = serde_json::from_str(&json).unwrap();
    let mut resumed = Monitor::resume_compiled(Arc::clone(&set), state, &TRIGGER, None);
    assert_eq!(resumed.backend(), EngineBackend::Int);

    // Both copies then see the same suffix and agree exactly.
    for mon in [&mut prefix, &mut resumed] {
        mon.observe(&SERVE, Rat::new(5, 2), &SERVE);
        mon.observe(&(SERVE + 1), Rat::from(9), &(SERVE + 1));
    }
    let a = prefix.finish(SatisfactionMode::Complete);
    let b = resumed.finish(SatisfactionMode::Complete);
    assert_eq!(sorted(&a), sorted(&b));
}

#[test]
fn snapshot_of_spilled_state_resumes_exact() {
    let set = Arc::new(CompiledConditionSet::new(&[cond(
        "c",
        Rat::from(1),
        Some(Rat::from(5)),
    )]));
    let mut mon = Monitor::from_compiled(Arc::clone(&set), &START);
    mon.observe(&TRIGGER, Rat::new(1, 3), &TRIGGER);
    assert_eq!(mon.backend(), EngineBackend::Exact);
    // An off-grid trigger time lives in the snapshot, so the resumed
    // monitor cannot re-enter the tick domain.
    let resumed = Monitor::resume_compiled(Arc::clone(&set), mon.engine_state(), &TRIGGER, None);
    assert_eq!(resumed.backend(), EngineBackend::Exact);
}

#[test]
fn shipped_systems_auto_select_the_int_backend() {
    use tempo_systems::{
        cement_mixer, fischer, peterson, request_manager, tournament, two_event_chain,
    };

    fn assert_int<S, A: Clone + Eq + std::hash::Hash + std::fmt::Debug>(
        name: &str,
        conds: &[TimingCondition<S, A>],
    ) {
        let set = CompiledConditionSet::new(conds);
        assert_eq!(set.backend(), EngineBackend::Int, "{name}.tspec");
        assert_eq!(
            set.int_scale().unwrap().denominator(),
            1,
            "{name}.tspec: shipped bounds are integral"
        );
    }

    assert_int("fischer", &fischer::tspec_conditions());
    assert_int("peterson", &peterson::tspec_conditions());
    assert_int("tournament", &tournament::tspec_conditions());
    assert_int("cement_mixer", &cement_mixer::tspec_conditions());
    assert_int("request_manager", &request_manager::tspec_conditions());
    assert_int("two_event_chain", &two_event_chain::tspec_conditions());
}
