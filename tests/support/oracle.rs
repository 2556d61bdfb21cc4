//! Glue between the code under test and the reference checker: steps
//! the engine, the monitor, or the offline fold over a sequence and
//! compares what they report with the reference [`Run`] pointwise —
//! event by event, in emission order.

use std::fmt::Debug;
use std::hash::Hash;

use proptest::prelude::*;
use tempo_core::engine::{
    CompiledConditionSet, EngineBackend, EngineEvent, EngineImpl, ObligationKind,
};
use tempo_core::{SatisfactionMode, TimedSequence, TimingCondition, Violation, ViolationKind};
use tempo_math::{Interval, Rat};
use tempo_monitor::{Forced, Monitor, Verdict, Warning};

use super::reference::{Finding, Open, Run};

/// The satisfaction mode the reference's `prefix` flag stands for.
pub fn mode(prefix: bool) -> SatisfactionMode {
    if prefix {
        SatisfactionMode::Prefix
    } else {
        SatisfactionMode::Complete
    }
}

/// `conds` plus two never-triggered conditions whose bound denominators
/// have no common `u64` multiple: the compiled set is not
/// `int_capable`, so every stream over it runs on exact `Rat`s.
pub fn off_grid<S, A: Clone>(conds: &[TimingCondition<S, A>]) -> Vec<TimingCondition<S, A>> {
    let mut out = conds.to_vec();
    for den in [(1i128 << 62) + 1, (1i128 << 62) - 1] {
        out.push(TimingCondition::new(
            format!("off-grid-{den}"),
            Interval::closed(Rat::new(1, den), Rat::ONE).unwrap(),
        ));
    }
    out
}

fn violation_kind(ci: usize, kind: &ViolationKind) -> Finding {
    match *kind {
        ViolationKind::LowerBound {
            trigger_index,
            event_index,
            earliest,
        } => Finding::Lower {
            ci,
            trigger: trigger_index,
            event: event_index,
            earliest,
        },
        ViolationKind::UpperBound {
            trigger_index,
            deadline,
        } => Finding::Upper {
            ci,
            trigger: trigger_index,
            deadline,
        },
    }
}

/// An engine log entry as a finding (lifecycle entries have none).
pub fn engine_finding(ev: &EngineEvent) -> Option<Finding> {
    Some(match ev {
        EngineEvent::Violated { ci, kind } => violation_kind(*ci, kind),
        EngineEvent::Warned {
            ci,
            trigger_index,
            deadline,
            warn_at,
        } => Finding::Warned {
            ci: *ci,
            trigger: *trigger_index,
            deadline: *deadline,
            warn_at: *warn_at,
        },
        EngineEvent::Forced {
            ci,
            trigger_index,
            earliest,
            t_i,
            margin,
        } => Finding::Forced {
            ci: *ci,
            trigger: *trigger_index,
            earliest: *earliest,
            t_i: *t_i,
            margin: *margin,
        },
        EngineEvent::Opened { .. } | EngineEvent::Discharged { .. } => return None,
    })
}

/// A reported violation as a finding (conditions are named uniquely).
pub fn violation_finding<S, A>(set: &CompiledConditionSet<S, A>, v: &Violation) -> Finding {
    violation_kind(
        set.index_of(&v.condition).expect("known condition"),
        &v.kind,
    )
}

/// A monitor warning as a finding.
pub fn warning_finding(w: &Warning) -> Finding {
    Finding::Warned {
        ci: w.condition_index,
        trigger: w.trigger_index,
        deadline: w.deadline,
        warn_at: w.at,
    }
}

/// A monitor forced window as a finding.
pub fn forced_finding(f: &Forced) -> Finding {
    Finding::Forced {
        ci: f.condition_index,
        trigger: f.trigger_index,
        earliest: f.earliest,
        t_i: f.at,
        margin: f.margin,
    }
}

/// The findings of kind `pred`, in order.
fn only(fs: &[Finding], pred: impl Fn(&Finding) -> bool) -> Vec<Finding> {
    fs.iter().filter(|f| pred(f)).cloned().collect()
}

fn is_warning(f: &Finding) -> bool {
    matches!(f, Finding::Warned { .. })
}

fn is_forced(f: &Finding) -> bool {
    matches!(f, Finding::Forced { .. })
}

/// The obligations open in `st`, as sorted reference rows.
pub fn open_rows(st: &EngineImpl) -> Vec<Open> {
    let mut rows: Vec<Open> = (0..st.conditions())
        .flat_map(|ci| {
            st.open_of(ci).into_iter().map(move |ob| match ob.kind {
                ObligationKind::Lower { earliest } => (ci, ob.trigger_index, false, earliest),
                ObligationKind::Upper { deadline } => (ci, ob.trigger_index, true, deadline),
            })
        })
        .collect();
    rows.sort();
    rows
}

/// Steps `st` over `seq` and holds it to the reference pointwise: each
/// event's log, the open obligations and `min_deadline` after each
/// event (the latter also against `open_of`), and the finish log.
/// Returns the time domain the stream ended in.
pub fn check_engine<S, A>(
    set: &CompiledConditionSet<S, A>,
    mut st: EngineImpl,
    seq: &TimedSequence<S, A>,
    prefix: bool,
    want: &Run,
) -> Result<EngineBackend, TestCaseError>
where
    S: Clone + Debug,
    A: Clone + Debug + Eq + Hash,
{
    prop_assert_eq!(open_rows(&st), want.open[0].clone(), "open at start");
    for (j, (pre, a, t, post)) in seq.step_triples().enumerate() {
        let log: Vec<Finding> = set
            .step_engine(&mut st, pre, a, post, t)
            .iter()
            .filter_map(engine_finding)
            .collect();
        prop_assert_eq!(&log, &want.steps[j], "log at event {}", j + 1);
        let open = open_rows(&st);
        let from_open = open.iter().filter(|o| o.2).map(|o| o.3).min();
        prop_assert_eq!(&open, &want.open[j + 1], "open after event {}", j + 1);
        prop_assert_eq!(
            st.min_deadline(),
            want.min_deadline(j + 1),
            "event {}",
            j + 1
        );
        prop_assert_eq!(st.min_deadline(), from_open, "min_deadline vs open_of");
    }
    let backend = st.backend();
    let log: Vec<Finding> = set
        .finish_engine(&mut st, mode(prefix))
        .iter()
        .filter_map(engine_finding)
        .collect();
    prop_assert_eq!(&log, &want.finish, "finish log");
    Ok(backend)
}

/// The finding a verdict reports, if any.
fn verdict_finding<S, A>(set: &CompiledConditionSet<S, A>, v: &Verdict) -> Option<Finding> {
    match v {
        Verdict::Ok => None,
        Verdict::Warning(w) => Some(warning_finding(w)),
        Verdict::Forced(f) => Some(forced_finding(f)),
        Verdict::LowerBoundViolation(v) | Verdict::UpperBoundViolation(v) => {
            Some(violation_finding(set, v))
        }
    }
}

/// Feeds `seq` to `mon` and holds it to the reference pointwise: each
/// event's new warnings, violations and forced windows, its verdict
/// (first violation, else first warning, else first forced window),
/// the minimum slack when predicting, and the findings at finish.
/// Returns the time domain the stream ended in.
pub fn check_monitor<S, A>(
    mut mon: Monitor<S, A>,
    seq: &TimedSequence<S, A>,
    prefix: bool,
    want: &Run,
) -> Result<EngineBackend, TestCaseError>
where
    S: Clone + Debug,
    A: Clone + Debug + Eq + Hash,
{
    let set = std::sync::Arc::clone(mon.compiled());
    for (j, (_, a, t, post)) in seq.step_triples().enumerate() {
        let (v0, w0, f0) = (
            mon.violations().len(),
            mon.warnings().len(),
            mon.forced().len(),
        );
        let verdict = mon.observe(a, t, post);
        let mut got: Vec<Finding> = mon.warnings()[w0..].iter().map(warning_finding).collect();
        got.extend(
            mon.violations()[v0..]
                .iter()
                .map(|v| violation_finding(&set, v)),
        );
        got.extend(mon.forced()[f0..].iter().map(forced_finding));
        let step = &want.steps[j];
        prop_assert_eq!(&got, step, "monitor at event {}", j + 1);
        let first = step
            .iter()
            .find(|f| f.is_violation())
            .or_else(|| step.iter().find(|f| is_warning(f)))
            .or_else(|| step.iter().find(|f| is_forced(f)))
            .cloned();
        prop_assert_eq!(verdict_finding(&set, &verdict), first, "verdict");
        if mon.horizon().is_some() {
            let slack = want.min_deadline(j + 1).map(|d| d - t);
            prop_assert_eq!(mon.min_slack(), slack, "min_slack after event {}", j + 1);
        }
    }
    let backend = mon.backend();
    let (v0, w0) = (mon.violations().len(), mon.warnings().len());
    let (violations, warnings, _) = mon.finish_full(mode(prefix));
    let got: Vec<Finding> = warnings[w0..].iter().map(warning_finding).collect();
    prop_assert_eq!(got, only(&want.finish, is_warning), "finish warnings");
    let got: Vec<Finding> = violations[v0..]
        .iter()
        .map(|v| violation_finding(&set, v))
        .collect();
    prop_assert_eq!(
        got,
        only(&want.finish, Finding::is_violation),
        "finish violations"
    );
    Ok(backend)
}

/// Holds a violation list in discovery order (an offline fold, a
/// replay) to the reference's violations.
pub fn check_violations<S, A>(
    set: &CompiledConditionSet<S, A>,
    got: &[Violation],
    want: &Run,
) -> Result<(), TestCaseError> {
    let got: Vec<Finding> = got.iter().map(|v| violation_finding(set, v)).collect();
    let want: Vec<Finding> = want.all().filter(|f| f.is_violation()).cloned().collect();
    prop_assert_eq!(got, want, "violations in discovery order");
    Ok(())
}

/// Holds warnings and forced windows (a predictive replay, in
/// discovery order) to the reference's.
pub fn check_predictions(
    warnings: &[Warning],
    forced: &[Forced],
    want: &Run,
) -> Result<(), TestCaseError> {
    let got: Vec<Finding> = warnings.iter().map(warning_finding).collect();
    let all: Vec<Finding> = want.all().cloned().collect();
    prop_assert_eq!(got, only(&all, is_warning), "warnings in discovery order");
    let got: Vec<Finding> = forced.iter().map(forced_finding).collect();
    prop_assert_eq!(
        got,
        only(&all, is_forced),
        "forced windows in discovery order"
    );
    Ok(())
}
