//! Differential property net for the obligation stepper in both of its
//! time domains, with the naive reference checker
//! (`support/reference.rs`) as the oracle: on arbitrary condition sets
//! whose bounds fit a tick grid, the engine log, the open obligations
//! and `min_deadline` after every event, the per-event monitor verdicts
//! and findings, and the offline fold all agree with the reference
//! **pointwise** — in both satisfaction modes, with and without a
//! prediction horizon.
//!
//! The `Rat` domain is reached two ways: event times shifted off the
//! unit grid after a random prefix (including prefix 0), which moves a
//! tick stream to `Rat` mid-stream, and the same conditions compiled
//! alongside two off-grid ones, which keeps the set off every tick grid
//! from the start.

#[path = "support/mod.rs"]
mod support;

use std::sync::Arc;

use proptest::prelude::*;
use support::oracle::{check_engine, check_monitor, check_violations, mode, off_grid};
use support::reference::Reference;
use tempo_core::engine::{CompiledConditionSet, EngineBackend};
use tempo_core::{ActionSet, TimedSequence, TimingCondition};
use tempo_math::{Interval, Rat};
use tempo_monitor::Monitor;

const UNIVERSE: u32 = 6;
const START: u32 = 999;

#[derive(Clone, Debug)]
struct CondSpec {
    lo: i64,
    hi: Option<i64>,
    start_trigger: bool,
    trigger: Vec<u32>,
    pi: Vec<u32>,
    disabling: Vec<u32>,
}

impl CondSpec {
    fn build(&self, name: &str) -> TimingCondition<u32, u32> {
        let bounds = match self.hi {
            Some(h) => Interval::closed(Rat::from(self.lo), Rat::from(h)).unwrap(),
            None => Interval::unbounded_above(Rat::from(self.lo)),
        };
        let mut c = TimingCondition::new(name, bounds)
            .triggered_by_actions(ActionSet::of(self.trigger.iter().copied()))
            .on_action_set(ActionSet::of(self.pi.iter().copied()))
            .disabled_by_actions(ActionSet::of(self.disabling.iter().copied()));
        if self.start_trigger {
            c = c.triggered_at_start(|s| *s == START);
        }
        c
    }
}

fn subset() -> impl Strategy<Value = Vec<u32>> {
    proptest::collection::vec(0..UNIVERSE, 0..3)
}

/// Integral bounds only — every generated set must be int-capable.
fn cond_spec() -> impl Strategy<Value = CondSpec> {
    (
        0i64..=3,
        proptest::option::of(0i64..=5),
        any::<bool>(),
        subset(),
        subset(),
        subset(),
    )
        .prop_map(
            |(lo, spread, start_trigger, trigger, pi, disabling)| CondSpec {
                lo,
                // `Interval` rejects hi == 0, so keep finite uppers ≥ 1.
                hi: spread.map(|s| (lo + s).max(1)),
                start_trigger,
                trigger,
                pi,
                disabling,
            },
        )
}

fn conditions(specs: &[CondSpec]) -> Vec<TimingCondition<u32, u32>> {
    specs
        .iter()
        .enumerate()
        .map(|(i, s)| s.build(&format!("c{i}")))
        .collect()
}

/// A trace of `(action, dt)` steps with integral `dt`.
fn trace() -> impl Strategy<Value = Vec<(u32, i64)>> {
    proptest::collection::vec(((0..UNIVERSE + 2), 0i64..=2), 0..24)
}

/// The trace as a sequence whose post-states mirror the actions. Every
/// time after the first `spill` events is shifted by 1/3, off the unit
/// grid of integral bounds: a tick stream moves to `Rat` at event
/// `spill + 1` (never, when `spill` is the trace length).
fn to_sequence(events: &[(u32, i64)], spill: usize) -> TimedSequence<u32, u32> {
    let mut s = TimedSequence::new(START);
    let mut t = 0i64;
    for (j, &(a, dt)) in events.iter().enumerate() {
        t += dt;
        let shift = if j < spill { Rat::ZERO } else { Rat::new(1, 3) };
        s.push(a, Rat::from(t) + shift, a);
    }
    s
}

/// A monitor over `set`, predicting when `horizon` is set.
fn monitor(set: &Arc<CompiledConditionSet<u32, u32>>, horizon: Option<Rat>) -> Monitor<u32, u32> {
    let mon = Monitor::from_compiled(Arc::clone(set), &START);
    match horizon {
        Some(h) => mon.with_predictor(h),
        None => mon,
    }
}

/// Engine, monitor and fold over `set` on `seq`, each held to the
/// reference; returns the domain the engine and the monitor ended in.
fn check_all(
    set: &Arc<CompiledConditionSet<u32, u32>>,
    conds: &[TimingCondition<u32, u32>],
    seq: &TimedSequence<u32, u32>,
    horizon: Option<Rat>,
) -> Result<[EngineBackend; 2], TestCaseError> {
    let mut ends = Vec::new();
    for prefix in [true, false] {
        let mut reference = Reference::new(prefix);
        reference.horizon = horizon;
        let want = reference.run(seq, conds);
        let st = set.start_engine_predictive(seq.first_state(), horizon);
        ends.push(check_engine(set, st, seq, prefix, &want)?);
        ends.push(check_monitor(monitor(set, horizon), seq, prefix, &want)?);
        if horizon.is_none() {
            check_violations(set, &set.fold_sequence(seq, mode(prefix)), &want)?;
        }
    }
    prop_assert!(ends.iter().all(|&e| e == ends[0]), "{:?}", ends);
    Ok([ends[0], ends[1]])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The tentpole invariant: on integral-bound condition sets, the
    /// tick instantiation (moving to `Rat` after a random prefix, and
    /// right away) and the `Rat` instantiation from the start both
    /// agree with the reference pointwise — engine logs, open
    /// obligations and `min_deadline` after every event, monitor
    /// verdicts and findings, fold violations — in both modes, with and
    /// without a prediction horizon.
    #[test]
    fn int_and_exact_backends_agree(
        specs in proptest::collection::vec(cond_spec(), 1..4),
        events in trace(),
        spill in 0usize..24,
        h in proptest::option::of(0i64..=3),
    ) {
        let conds = conditions(&specs);
        let set = Arc::new(CompiledConditionSet::new(&conds));
        prop_assert_eq!(set.backend(), EngineBackend::Int);
        let exact = off_grid(&conds);
        let exact_set = Arc::new(CompiledConditionSet::new(&exact));
        prop_assert_eq!(exact_set.backend(), EngineBackend::Exact);
        let horizon = h.map(Rat::from);

        for spill in [0, spill.min(events.len())] {
            let seq = to_sequence(&events, spill);
            let moved = spill < events.len();
            let ends = check_all(&set, &conds, &seq, horizon)?;
            let want = if moved { EngineBackend::Exact } else { EngineBackend::Int };
            prop_assert_eq!(ends, [want; 2], "spill at {}", spill);
            let ends = check_all(&exact_set, &exact, &seq, horizon)?;
            prop_assert_eq!(ends, [EngineBackend::Exact; 2]);
        }
    }

    /// On-grid traces never leave the tick domain, and still agree with
    /// the reference end to end.
    #[test]
    fn on_grid_traces_stay_on_the_int_backend(
        specs in proptest::collection::vec(cond_spec(), 1..4),
        events in trace(),
    ) {
        let conds = conditions(&specs);
        let set = Arc::new(CompiledConditionSet::new(&conds));
        let seq = to_sequence(&events, events.len());
        let ends = check_all(&set, &conds, &seq, None)?;
        prop_assert_eq!(ends, [EngineBackend::Int; 2], "no spill on grid times");
    }
}
