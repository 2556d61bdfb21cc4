//! Trace checking of timing conditions: satisfaction (Definition 2.2),
//! semi-satisfaction (Definition 3.1), and the direct timed-execution
//! definition for boundmaps (Definition 2.1).
//!
//! Every checker here is a fold of the compiled condition engine
//! ([`crate::engine`]) over the sequence under test: the engine owns the
//! per-trigger obligation bookkeeping, and these functions only collect
//! its violation events. The streaming monitor in `tempo-monitor` steps
//! the *same* engine incrementally, so offline/online agreement holds by
//! construction.

use tempo_ioa::{ClassId, Ioa};
use tempo_math::Rat;

use crate::engine::{CompiledConditionSet, EngineEvent, EnginePlan, EventClassification};
use crate::{Timed, TimedSequence, TimingCondition};

/// How to treat the (finite) sequence under test when checking upper
/// bounds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SatisfactionMode {
    /// Definition 2.2: the sequence is taken as complete — a pending upper
    /// bound with no witnessing event is a violation.
    Complete,
    /// Definition 3.1 (semi-satisfaction): a pending upper bound is excused
    /// when `t_end` has not yet passed the deadline, i.e. the prefix may
    /// still be extended in time.
    Prefix,
}

/// The way a condition was violated.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ViolationKind {
    /// No `Π`-event (or disabling state) occurred by the deadline.
    UpperBound {
        /// Index of the trigger (0 = start-state trigger, `i ≥ 1` = step
        /// trigger at event `i`).
        trigger_index: usize,
        /// The absolute deadline `t_i + b_u` that passed unserved.
        deadline: Rat,
    },
    /// A `Π`-event occurred strictly before the earliest permitted time,
    /// with no intervening disabling state.
    LowerBound {
        /// Index of the trigger (0 = start-state trigger).
        trigger_index: usize,
        /// Index of the offending early event.
        event_index: usize,
        /// The earliest permitted absolute time `t_i + b_l`.
        earliest: Rat,
    },
}

/// A recorded violation of a timing condition by a timed sequence.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// Name of the violated condition (or partition class).
    pub condition: String,
    /// What went wrong.
    pub kind: ViolationKind,
}

/// Checks Definition 2.2 — `α` *satisfies* the timing condition — treating
/// the finite sequence as complete.
///
/// # Errors
///
/// Returns the first violation found.
pub fn satisfies<S, A>(
    seq: &TimedSequence<S, A>,
    cond: &TimingCondition<S, A>,
) -> Result<(), Violation>
where
    S: Clone + std::fmt::Debug,
    A: Clone + std::fmt::Debug + Eq + std::hash::Hash,
{
    check_condition(seq, cond, SatisfactionMode::Complete)
}

/// Checks Definition 3.1 — `α` *semi-satisfies* the timing condition: the
/// safety part only, appropriate for finite prefixes.
///
/// # Errors
///
/// Returns the first violation found.
pub fn semi_satisfies<S, A>(
    seq: &TimedSequence<S, A>,
    cond: &TimingCondition<S, A>,
) -> Result<(), Violation>
where
    S: Clone + std::fmt::Debug,
    A: Clone + std::fmt::Debug + Eq + std::hash::Hash,
{
    check_condition(seq, cond, SatisfactionMode::Prefix)
}

/// Collects *every* violation of `cond` by `seq` — one per violated
/// trigger (each trigger's first lower-bound violation, or its
/// upper-bound violation), in event (discovery) order: a fold of the
/// compiled condition engine over the sequence, exactly what an online
/// monitor observing the same events reports.
///
/// [`satisfies`]/[`semi_satisfies`] report only the first of these; the
/// `tempo-monitor` crate's property tests check the online/offline
/// agreement.
pub fn violations<S, A>(
    seq: &TimedSequence<S, A>,
    cond: &TimingCondition<S, A>,
    mode: SatisfactionMode,
) -> Vec<Violation>
where
    S: Clone + std::fmt::Debug,
    A: Clone + std::fmt::Debug + Eq + std::hash::Hash,
{
    // Definition 3.1/2.2 as an engine fold: compile the one condition,
    // step each event, collect the violation log.
    CompiledConditionSet::new(std::slice::from_ref(cond)).fold_sequence(seq, mode)
}

fn check_condition<S, A>(
    seq: &TimedSequence<S, A>,
    cond: &TimingCondition<S, A>,
    mode: SatisfactionMode,
) -> Result<(), Violation>
where
    S: Clone + std::fmt::Debug,
    A: Clone + std::fmt::Debug + Eq + std::hash::Hash,
{
    match violations(seq, cond, mode).into_iter().next() {
        None => Ok(()),
        Some(v) => Err(v),
    }
}

/// Checks Definition 2.1 directly: is `seq` (whose `ord` must already be an
/// execution of the automaton) a timed execution of the timed automaton
/// `(A, b)`?
///
/// For each partition class `C` and each position where `C` fires or first
/// becomes enabled, within `b_u(C)` some `C`-action must occur or `C` must
/// become disabled (upper), and no `C`-action may occur before `b_l(C)` has
/// elapsed (lower). In [`SatisfactionMode::Prefix`] the upper bound is
/// excused while the prefix has not outlived the deadline.
///
/// Implemented as a fold of the same obligation engine as
/// [`satisfies`]/[`semi_satisfies`], with one classification slot per
/// partition class and the lower bound's disabling escape switched off
/// (Definition 2.1's lower bound has no escape clause). By Lemma 2.1
/// this agrees with checking every `cond(C)` of [`u_b`](crate::u_b) via
/// [`satisfies`]/[`semi_satisfies`] on executions of the automaton; the
/// test suite exercises that equivalence.
///
/// # Errors
///
/// Returns the first violation found, named after the offending class.
pub fn check_timed_execution<M: Ioa>(
    seq: &TimedSequence<M::State, M::Action>,
    timed: &Timed<M>,
    mode: SatisfactionMode,
) -> Result<(), Violation> {
    let aut = timed.automaton().as_ref();
    let b = timed.boundmap();
    let classes: Vec<ClassId> = aut.partition().ids().collect();
    // Definition 2.1's lower bound has no disabling escape.
    let plan = EnginePlan::new(
        classes
            .iter()
            .map(|&c| (b.lower(c), b.upper(c).finite(), false)),
    );

    let fail = |aut: &M, ev: &EngineEvent| -> Option<Violation> {
        if let EngineEvent::Violated { ci, kind } = ev {
            Some(Violation {
                condition: aut.partition().class_name(classes[*ci]).to_string(),
                kind: kind.clone(),
            })
        } else {
            None
        }
    };

    // Measurement points (the positions Definition 2.1 measures its
    // bounds from) become the engine's triggers: class `C` is triggered
    // where it fires or first becomes enabled, and at the start state
    // when enabled there. Like the condition-set checkers, the fold runs
    // on ticks when the boundmap lowers onto a grid, exact otherwise.
    let mut st = plan.start(classes.len(), |ci| {
        aut.class_enabled(seq.first_state(), classes[ci])
    });
    // Only violations are consumed here; skip the lifecycle log.
    st.set_log_lifecycle(false);
    let mut cls = EventClassification::new(classes.len());
    for (pre, a, t, post) in seq.step_triples() {
        cls.clear();
        for (ci, &class) in classes.iter().enumerate() {
            let fires = aut.partition().class_of(a) == Some(class);
            if fires {
                cls.set_pi(ci);
            }
            if aut.class_disabled(post, class) {
                cls.set_disabling(ci);
            }
            if aut.class_enabled(post, class) && (aut.class_disabled(pre, class) || fires) {
                cls.set_trigger(ci);
            }
        }
        if let Some(v) = plan
            .step(&mut st, &cls, t, false)
            .iter()
            .find_map(|ev| fail(aut, ev))
        {
            return Err(v);
        }
    }
    match plan
        .finish(&mut st, mode)
        .iter()
        .find_map(|ev| fail(aut, ev))
    {
        None => Ok(()),
        Some(v) => Err(v),
    }
}

#[cfg(feature = "serde")]
mod serde_impls {
    //! Violations as flat JSON-style maps (feature `serde`):
    //! `{"condition", "kind": "upper", "trigger_index", "deadline"}` or
    //! `{"condition", "kind": "lower", "trigger_index", "event_index",
    //! "earliest"}`, rationals in `tempo-math`'s `"num/den"` string
    //! form. This is the payload `tempo-serve` streams inside
    //! `StreamReport` egress frames.

    use serde::de::{Error as DeError, Unexpected};
    use serde::ser::Error as SerError;
    use serde::{Deserialize, Deserializer, Serialize, Serializer, ValueError};

    use super::{Violation, ViolationKind};
    use crate::serde_util::{FieldMap, MapBuilder};
    use tempo_math::Rat;

    impl Serialize for Violation {
        fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
            let encode = || -> Result<_, ValueError> {
                let mut m = MapBuilder::new();
                m.put("condition", &self.condition)?;
                match &self.kind {
                    ViolationKind::UpperBound {
                        trigger_index,
                        deadline,
                    } => {
                        m.put("kind", "upper")?;
                        m.put("trigger_index", trigger_index)?;
                        m.put("deadline", deadline)?;
                    }
                    ViolationKind::LowerBound {
                        trigger_index,
                        event_index,
                        earliest,
                    } => {
                        m.put("kind", "lower")?;
                        m.put("trigger_index", trigger_index)?;
                        m.put("event_index", event_index)?;
                        m.put("earliest", earliest)?;
                    }
                }
                Ok(m.finish())
            };
            serializer.serialize_value(encode().map_err(S::Error::custom)?)
        }
    }

    impl<'de> Deserialize<'de> for Violation {
        fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Violation, D::Error> {
            let mut m =
                FieldMap::<D::Error>::new(deserializer.deserialize_value()?, "a violation")?;
            let condition: String = m.take("condition")?;
            let tag: String = m.take("kind")?;
            let trigger_index: usize = m.take("trigger_index")?;
            let kind = match tag.as_str() {
                "upper" => ViolationKind::UpperBound {
                    trigger_index,
                    deadline: m.take::<Rat>("deadline")?,
                },
                "lower" => ViolationKind::LowerBound {
                    trigger_index,
                    event_index: m.take("event_index")?,
                    earliest: m.take::<Rat>("earliest")?,
                },
                other => {
                    return Err(D::Error::invalid_value(
                        Unexpected::Str(other),
                        &"violation kind \"upper\" or \"lower\"",
                    ))
                }
            };
            Ok(Violation { condition, kind })
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn violation_round_trips_both_kinds() {
            let upper = Violation {
                condition: "C".into(),
                kind: ViolationKind::UpperBound {
                    trigger_index: 2,
                    deadline: Rat::new(7, 2),
                },
            };
            let lower = Violation {
                condition: "D".into(),
                kind: ViolationKind::LowerBound {
                    trigger_index: 0,
                    event_index: 3,
                    earliest: Rat::from(5),
                },
            };
            for v in [upper, lower] {
                let json = serde_json::to_string(&v).unwrap();
                let back: Violation = serde_json::from_str(&json).unwrap();
                assert_eq!(back, v);
            }
            assert!(serde_json::from_str::<Violation>(
                "{\"condition\":\"C\",\"kind\":\"sideways\",\"trigger_index\":0}"
            )
            .is_err());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempo_math::Interval;

    fn iv(lo: i64, hi: i64) -> Interval {
        Interval::closed(Rat::from(lo), Rat::from(hi)).unwrap()
    }

    fn cond(lo: i64, hi: i64) -> TimingCondition<u8, &'static str> {
        TimingCondition::new("C", iv(lo, hi))
            .triggered_at_start(|s| *s == 0)
            .on_actions(|a| *a == "fire")
    }

    fn seq(events: &[(&'static str, i64, u8)]) -> TimedSequence<u8, &'static str> {
        let mut s = TimedSequence::new(0);
        for (a, t, post) in events {
            s.push(*a, Rat::from(*t), *post);
        }
        s
    }

    #[test]
    fn upper_bound_served() {
        let s = seq(&[("noise", 1, 1), ("fire", 3, 2)]);
        assert!(satisfies(&s, &cond(2, 4)).is_ok());
    }

    #[test]
    fn upper_bound_missed_complete_vs_prefix() {
        // No fire at all; deadline 4, t_end 3 → prefix excuses, complete not.
        let s = seq(&[("noise", 3, 1)]);
        let c = cond(0, 4);
        assert!(matches!(
            satisfies(&s, &c),
            Err(Violation {
                kind: ViolationKind::UpperBound {
                    trigger_index: 0,
                    ..
                },
                ..
            })
        ));
        assert!(semi_satisfies(&s, &c).is_ok());
        // Once the prefix outlives the deadline, even semi fails.
        let s2 = seq(&[("noise", 5, 1)]);
        assert!(semi_satisfies(&s2, &c).is_err());
    }

    #[test]
    fn late_fire_is_upper_violation() {
        let s = seq(&[("fire", 6, 1)]);
        let c = cond(0, 4);
        assert!(satisfies(&s, &c).is_err());
        assert!(semi_satisfies(&s, &c).is_err());
    }

    #[test]
    fn lower_bound_violation() {
        let s = seq(&[("fire", 1, 1)]);
        let c = cond(2, 10);
        let err = satisfies(&s, &c).unwrap_err();
        assert_eq!(
            err.kind,
            ViolationKind::LowerBound {
                trigger_index: 0,
                event_index: 1,
                earliest: Rat::from(2)
            }
        );
    }

    #[test]
    fn lower_bound_exactly_at_bound_is_ok() {
        let s = seq(&[("fire", 2, 1)]);
        assert!(satisfies(&s, &cond(2, 10)).is_ok());
    }

    #[test]
    fn disabling_state_excuses_lower_and_serves_upper() {
        // State 9 is disabling; reaching it at time 1 suspends the bound.
        let c = TimingCondition::new("C", iv(3, 5))
            .triggered_at_start(|s: &u8| *s == 0)
            .on_actions(|a: &&str| *a == "fire")
            .disabled_in(|s: &u8| *s == 9);
        // Early fire after passing through the disabling state: allowed.
        let s = seq(&[("noise", 1, 9), ("fire", 2, 1)]);
        assert!(satisfies(&s, &c).is_ok());
        // Early fire with no disabling state in between: violation.
        let s2 = seq(&[("noise", 1, 1), ("fire", 2, 2)]);
        assert!(satisfies(&s2, &c).is_err());
        // Upper bound served by entering the disabling set.
        let s3 = seq(&[("noise", 4, 9), ("noise", 100, 1)]);
        assert!(satisfies(&s3, &c).is_ok());
    }

    #[test]
    fn step_triggers_measure_from_step_time() {
        let c: TimingCondition<u8, &str> = TimingCondition::new("C", iv(1, 3))
            .triggered_by_step(|_, a, _| *a == "go")
            .on_actions(|a| *a == "fire");
        // go at t=5 → fire allowed in [6, 8].
        let ok = seq(&[("go", 5, 1), ("fire", 7, 2)]);
        assert!(satisfies(&ok, &c).is_ok());
        let early = seq(&[("go", 5, 1), ("fire", 5, 2)]);
        assert!(satisfies(&early, &c).is_err());
        let late = seq(&[("go", 5, 1), ("fire", 9, 2)]);
        assert!(satisfies(&late, &c).is_err());
        // Re-triggering: each go restarts the bound.
        let repeat = seq(&[("go", 5, 1), ("fire", 6, 2), ("go", 6, 1), ("fire", 8, 2)]);
        assert!(satisfies(&repeat, &c).is_ok());
    }

    #[test]
    fn infinite_upper_bound_never_violated() {
        let c: TimingCondition<u8, &str> =
            TimingCondition::new("C", Interval::unbounded_above(Rat::from(1)))
                .triggered_at_start(|_| true)
                .on_actions(|a| *a == "fire");
        let s = seq(&[("noise", 100, 1)]);
        assert!(satisfies(&s, &c).is_ok());
    }

    #[test]
    fn upper_bound_exactly_at_deadline_serves() {
        // fire at t = 4 = deadline: `t_j ≤ t_i + b_u` is inclusive.
        let s = seq(&[("fire", 4, 1)]);
        assert!(satisfies(&s, &cond(0, 4)).is_ok());
        // One instant later is a violation.
        let s2 = seq(&[("noise", 4, 1), ("fire", 5, 2)]);
        assert!(satisfies(&s2, &cond(0, 4)).is_err());
    }

    #[test]
    fn disabling_reset_mid_window() {
        // Trigger at t=0 with window [5, 10]; the disabling state appears
        // mid-window (t=2), after which an early fire (t=3 < 5) is
        // excused — the reset must apply to *later* events only.
        let c = TimingCondition::new("C", iv(5, 10))
            .triggered_at_start(|s: &u8| *s == 0)
            .on_actions(|a: &&str| *a == "fire")
            .disabled_in(|s: &u8| *s == 9);
        let s = seq(&[("noise", 1, 1), ("noise", 2, 9), ("fire", 3, 2)]);
        assert!(satisfies(&s, &c).is_ok());
        // An early fire *at* the event entering the disabling state is
        // not excused: the post-state disables later events, not its own.
        let s2 = seq(&[("noise", 1, 1), ("fire", 2, 9)]);
        assert!(matches!(
            satisfies(&s2, &c).unwrap_err().kind,
            ViolationKind::LowerBound { event_index: 2, .. }
        ));
    }

    #[test]
    fn infinite_upper_bound_excuses_complete_mode_too() {
        // upper = ∞: no deadline exists, so even a "complete" sequence
        // with no fire at all satisfies the condition.
        let c: TimingCondition<u8, &str> =
            TimingCondition::new("C", Interval::unbounded_above(Rat::ZERO))
                .triggered_at_start(|_| true)
                .on_actions(|a| *a == "fire");
        let s = seq(&[("noise", 1_000_000, 1)]);
        assert!(satisfies(&s, &c).is_ok());
        assert!(violations(&s, &c, SatisfactionMode::Complete).is_empty());
    }

    #[test]
    fn violations_lists_one_per_violated_trigger() {
        // Every `go` re-triggers; both resulting windows are violated by
        // early fires. `semi_satisfies` reports the first, `violations`
        // reports both, in discovery order.
        let c: TimingCondition<u8, &str> = TimingCondition::new("C", iv(2, 10))
            .triggered_by_step(|_, a, _| *a == "go")
            .on_actions(|a| *a == "fire");
        let s = seq(&[
            ("go", 1, 1),
            ("fire", 2, 2), // violates trigger 1 (earliest 3)
            ("go", 4, 1),
            ("fire", 5, 2), // violates trigger 3 (earliest 6)
        ]);
        let all = violations(&s, &c, SatisfactionMode::Prefix);
        assert_eq!(all.len(), 2);
        assert!(matches!(
            all[0].kind,
            ViolationKind::LowerBound {
                trigger_index: 1,
                event_index: 2,
                ..
            }
        ));
        assert!(matches!(
            all[1].kind,
            ViolationKind::LowerBound {
                trigger_index: 3,
                event_index: 4,
                ..
            }
        ));
        assert_eq!(semi_satisfies(&s, &c).unwrap_err(), all[0]);
    }

    #[test]
    fn violations_mixes_lower_and_upper() {
        // Trigger 0: early fire (lower). The same fire serves trigger 0's
        // deadline; the re-trigger's deadline then expires (upper).
        let c: TimingCondition<u8, &str> = TimingCondition::new("C", iv(2, 4))
            .triggered_at_start(|s| *s == 0)
            .triggered_by_step(|_, a, _| *a == "go")
            .on_actions(|a| *a == "fire");
        let s = seq(&[("fire", 1, 1), ("go", 2, 0), ("noise", 10, 1)]);
        let all = violations(&s, &c, SatisfactionMode::Complete);
        assert_eq!(all.len(), 2);
        assert!(matches!(
            all[0].kind,
            ViolationKind::LowerBound {
                trigger_index: 0,
                ..
            }
        ));
        assert!(matches!(
            all[1].kind,
            ViolationKind::UpperBound {
                trigger_index: 2,
                ..
            }
        ));
    }

    #[test]
    fn untriggered_condition_is_vacuous() {
        let c: TimingCondition<u8, &str> = TimingCondition::new("C", iv(1, 2))
            .triggered_at_start(|s| *s == 42)
            .on_actions(|a| *a == "fire");
        let s = seq(&[("fire", 0, 1)]);
        assert!(satisfies(&s, &c).is_ok());
    }
}
