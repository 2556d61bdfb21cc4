//! Property tests for forced windows — the `Ft(U)` half of prediction.
//!
//! On random condition sets and random traces: (1) **soundness** — a
//! `Π`-event inside a reported forced window is never legally observed;
//! the first `Π`-event strictly before the window's `earliest` is
//! exactly the lower-bound violation the offline checker reports for
//! that trigger; (2) every reported window is at least the horizon wide
//! and internally consistent (`earliest = at + margin`, no duplicate
//! identity); (3) **horizon-0 silence** — with a zero horizon no forced
//! window is ever reported, on any trace; (4) every reported window,
//! warning and violation is exactly what the independent naive reference
//! checker (`support/reference.rs`) derives from the definitions.

#[path = "support/mod.rs"]
mod support;

use proptest::prelude::*;
use support::oracle::{check_predictions, check_violations};
use support::reference::Reference;
use tempo_core::engine::CompiledConditionSet;
use tempo_core::{ActionSet, SatisfactionMode, TimedSequence, TimingCondition, ViolationKind};
use tempo_math::{Interval, Rat};
use tempo_monitor::replay_predictive_full;

const UNIVERSE: u32 = 6;
const START: u32 = 999;

/// A generated condition: integral bounds, action-set trigger and `Π`,
/// **no disabling** — so the legality of a `Π`-event inside a window is
/// decided by timing alone.
#[derive(Clone, Debug)]
struct CondSpec {
    lo: i64,
    hi: i64,
    start_trigger: bool,
    trigger: Vec<u32>,
    pi: Vec<u32>,
}

impl CondSpec {
    fn build(&self, name: &str) -> TimingCondition<u32, u32> {
        let bounds = Interval::closed(Rat::from(self.lo), Rat::from(self.hi)).unwrap();
        let mut c = TimingCondition::new(name, bounds)
            .triggered_by_actions(ActionSet::of(self.trigger.iter().copied()))
            .on_action_set(ActionSet::of(self.pi.iter().copied()));
        if self.start_trigger {
            c = c.triggered_at_start(|s| *s == START);
        }
        c
    }
}

fn subset() -> impl Strategy<Value = Vec<u32>> {
    proptest::collection::vec(0..UNIVERSE, 0..3)
}

fn cond_spec() -> impl Strategy<Value = CondSpec> {
    (0i64..=5, 1i64..=5, any::<bool>(), subset(), subset()).prop_map(
        |(lo, spread, start_trigger, trigger, pi)| CondSpec {
            lo,
            hi: (lo + spread).max(1),
            start_trigger,
            trigger,
            pi,
        },
    )
}

/// Traces step in quarter units, so times mix on- and off-grid and the
/// int backend spills mid-stream under random schedules.
fn trace() -> impl Strategy<Value = Vec<(u32, i64)>> {
    proptest::collection::vec(((0..UNIVERSE + 2), 0i64..=9), 0..24)
}

fn to_sequence(events: &[(u32, i64)]) -> TimedSequence<u32, u32> {
    let mut s = TimedSequence::new(START);
    let mut t = 0i64;
    for &(a, dt) in events {
        t += dt;
        s.push(a, Rat::new(t.into(), 4), a);
    }
    s
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Soundness: no `Π`-event is legally observed inside a reported
    /// forced window. The first `Π`-event of the window's condition
    /// after its trigger, if it lands strictly before `earliest`, is
    /// reported as exactly that trigger's lower-bound violation.
    #[test]
    fn no_event_is_legal_inside_a_forced_window(
        specs in proptest::collection::vec(cond_spec(), 1..4),
        events in trace(),
        h in 0i64..=3,
    ) {
        let conds: Vec<TimingCondition<u32, u32>> = specs
            .iter()
            .enumerate()
            .map(|(i, s)| s.build(&format!("c{i}")))
            .collect();
        let seq = to_sequence(&events);
        let horizon = Rat::from(h);
        let (violations, warnings, forced) =
            replay_predictive_full(&seq, &conds, SatisfactionMode::Prefix, horizon);
        let want = Reference::new(true).horizon(horizon).run(&seq, &conds);
        check_violations(&CompiledConditionSet::new(&conds), &violations, &want)?;
        check_predictions(&warnings, &forced, &want)?;
        for fw in &forced {
            // Internal consistency of the report.
            prop_assert!(fw.margin >= horizon, "margin below horizon: {fw:?}");
            prop_assert_eq!(fw.at + fw.margin, fw.earliest, "earliest != at + margin");
            prop_assert_eq!(fw.horizon, horizon);
            // The first Π-event after the trigger resolves the window's
            // obligation: strictly inside the window it must be the
            // lower-bound violation the checker reports for this trigger.
            let spec = &specs[fw.condition_index];
            let first_pi = seq
                .step_triples()
                .enumerate()
                .map(|(i, (_, a, t, _))| (i + 1, *a, t))
                .find(|(i, a, _)| *i > fw.trigger_index && spec.pi.contains(a));
            if let Some((event_index, _, t)) = first_pi {
                if t < fw.earliest {
                    let hit = violations.iter().any(|v| {
                        *v.condition == *format!("c{}", fw.condition_index)
                            && matches!(
                                v.kind,
                                ViolationKind::LowerBound {
                                    trigger_index,
                                    event_index: ei,
                                    earliest,
                                } if trigger_index == fw.trigger_index
                                    && ei == event_index
                                    && earliest == fw.earliest
                            )
                    });
                    prop_assert!(
                        hit,
                        "Π-event {event_index} at t = {t} sits inside forced window {fw:?} \
                         but no matching lower-bound violation was reported: {violations:?}"
                    );
                }
            }
        }
        // A forced window is reported at most once per obligation.
        for (i, fw) in forced.iter().enumerate() {
            prop_assert!(!forced[..i].contains(fw), "duplicate forced window {fw:?}");
        }
    }

    /// Horizon-0 silence: with a zero horizon, no trace — violating or
    /// not — ever produces a forced window (or a warning on clean
    /// streams, which `prop_predictor` already pins down).
    #[test]
    fn horizon_zero_reports_no_forced_windows(
        specs in proptest::collection::vec(cond_spec(), 1..4),
        events in trace(),
    ) {
        let conds: Vec<TimingCondition<u32, u32>> = specs
            .iter()
            .enumerate()
            .map(|(i, s)| s.build(&format!("c{i}")))
            .collect();
        let seq = to_sequence(&events);
        for mode in [SatisfactionMode::Prefix, SatisfactionMode::Complete] {
            let (_, _, forced) = replay_predictive_full(&seq, &conds, mode, Rat::ZERO);
            prop_assert!(forced.is_empty(), "horizon 0 forced: {forced:?}");
        }
    }
}
