//! E11 — zone-based early warning on the resource manager.
//!
//! Deterministic end-to-end checks behind the E11 benchmark: on the E1
//! system (the paper's resource manager with G1/G2), the predictor warns
//! before every deadline violation with at least the configured horizon
//! of lead time, stays silent on violation-free traces at horizon 0, and
//! carries its guarantees through the monitor pool.

use tempo_core::{time_ab, SatisfactionMode, TimedSequence, ViolationKind};
use tempo_math::Rat;
use tempo_monitor::{replay, replay_predictive_full, Monitor, MonitorPool, PoolConfig, Verdict};
use tempo_sim::{predictive_audit_runs, Ensemble};
use tempo_systems::resource_manager::{self, g1, g2, Params};

fn rm_params() -> Params {
    Params::ints(3, 2, 3, 1).expect("valid")
}

fn stretch<S, A>(seq: &TimedSequence<S, A>, num: i128) -> TimedSequence<S, A>
where
    S: Clone + std::fmt::Debug,
    A: Clone + Eq + std::hash::Hash + std::fmt::Debug,
{
    let factor = Rat::new(num, 8);
    let mut out = TimedSequence::new(seq.first_state().clone());
    for (_, a, t, post) in seq.step_triples() {
        out.push(a.clone(), t * factor, post.clone());
    }
    out
}

/// Every upper-bound violation on time-stretched manager runs is
/// preceded by a warning for the same obligation, with lead time at
/// least the horizon.
#[test]
fn every_violation_is_warned_at_least_horizon_early() {
    let params = rm_params();
    let impl_aut = time_ab(&resource_manager::system(&params));
    let runs = Ensemble::new(6, 120).with_extremal(true).collect(&impl_aut);
    let conds = [g1(&params), g2(&params)];
    let horizon = Rat::ONE; // below every G1/G2 upper bound (≥ k·c1 = 6)
    let mut upper_violations = 0usize;
    for run in &runs {
        // Stretch 2×: every GRANT now lands past its deadline.
        let warped = stretch(run, 16);
        let (violations, warnings, _) =
            replay_predictive_full(&warped, &conds, SatisfactionMode::Prefix, horizon);
        for v in &violations {
            if let ViolationKind::UpperBound {
                trigger_index,
                deadline,
            } = v.kind
            {
                upper_violations += 1;
                let w = warnings
                    .iter()
                    .find(|w| {
                        *w.condition == *v.condition
                            && w.trigger_index == trigger_index
                            && w.deadline == deadline
                    })
                    .expect("violation without preceding warning");
                assert!(
                    w.deadline - w.at >= horizon,
                    "lead {} below horizon {horizon}",
                    w.deadline - w.at
                );
            }
        }
        // And the verdicts are untouched by prediction.
        assert_eq!(
            replay(&warped, &conds, SatisfactionMode::Prefix),
            violations
        );
    }
    assert!(
        upper_violations > 0,
        "2x-stretched manager runs must violate some deadline"
    );
}

/// Valid runs at horizon 0: no violations, no warnings — prediction
/// never cries wolf on a clean stream.
#[test]
fn horizon_zero_is_silent_on_valid_runs() {
    let params = rm_params();
    let impl_aut = time_ab(&resource_manager::system(&params));
    let runs = Ensemble::new(8, 120).with_extremal(true).collect(&impl_aut);
    let conds = [g1(&params), g2(&params)];
    let summary = predictive_audit_runs(&runs, &conds, Rat::ZERO);
    assert!(summary.passed(), "{summary}");
    assert!(summary.warnings.is_empty(), "{summary}");
    assert_eq!(summary.checks, runs.len() * conds.len());
}

/// Live monitoring with a predictor: slack readings decrease toward each
/// deadline, and a mildly stretched run produces a Warning verdict
/// strictly before its violation verdict.
#[test]
fn warning_verdict_precedes_violation_verdict_online() {
    let params = rm_params();
    let impl_aut = time_ab(&resource_manager::system(&params));
    let run = &Ensemble::new(1, 120).with_extremal(true).collect(&impl_aut)[0];
    let warped = stretch(run, 10); // 1.25x: late, but not instantly
    let conds = [g1(&params), g2(&params)];
    let mut mon = Monitor::new(&conds, warped.first_state()).with_predictor(Rat::ONE);
    let mut saw_warning_at = None;
    let mut saw_violation_at = None;
    for (i, (_, a, t, post)) in warped.step_triples().enumerate() {
        match mon.observe(a, t, post) {
            Verdict::Warning(_) if saw_warning_at.is_none() => saw_warning_at = Some(i),
            Verdict::UpperBoundViolation(_) if saw_violation_at.is_none() => {
                saw_violation_at = Some(i)
            }
            _ => {}
        }
        if let Some(s) = mon.min_slack() {
            // Slack is a residual of an open deadline, never beyond the
            // loosest bound in the system (G2's k·c2 + l).
            assert!(s <= Rat::from(i64::from(params.k)) * params.c2 + params.l);
        }
    }
    let (violations, warnings, _) = mon.finish_full(SatisfactionMode::Prefix);
    if let Some(v_at) = saw_violation_at {
        let w_at = saw_warning_at.expect("a violation implies a warning");
        assert!(
            w_at <= v_at,
            "warning (event {w_at}) must not follow the violation (event {v_at})"
        );
        assert!(!violations.is_empty());
        assert!(!warnings.is_empty());
    }
}

/// The pool propagates predictor warnings into stream reports and the
/// shared metrics, without changing any verdict.
#[test]
fn pooled_prediction_reports_warnings() {
    let params = rm_params();
    let impl_aut = time_ab(&resource_manager::system(&params));
    let runs = Ensemble::new(6, 100).collect(&impl_aut);
    let conds = [g1(&params), g2(&params)];
    let config = PoolConfig {
        workers: 3,
        horizon: Some(Rat::ONE),
        ..PoolConfig::default()
    };
    let mut pool = MonitorPool::new(&conds, config);
    let metrics = pool.metrics();
    for (i, run) in runs.iter().enumerate() {
        // Half the streams are stretched into violation, half are clean.
        let seq = if i % 2 == 0 {
            stretch(run, 16)
        } else {
            run.clone()
        };
        let mut stream = pool.open_stream(*seq.first_state());
        stream
            .send_batch(seq.step_triples().map(|(_, a, t, post)| (*a, t, *post)))
            .expect("block policy");
        stream.finish();
    }
    let report = pool.shutdown();
    for s in &report.streams {
        let has_upper = s
            .violations
            .iter()
            .any(|v| matches!(v.kind, ViolationKind::UpperBound { .. }));
        if s.stream % 2 == 0 {
            assert!(has_upper, "stretched stream {} must violate", s.stream);
            assert!(
                !s.warnings.is_empty(),
                "violating stream {} must be warned",
                s.stream
            );
        } else {
            assert!(
                s.violations.is_empty(),
                "clean stream {} violated",
                s.stream
            );
        }
    }
    let m = metrics.snapshot();
    assert_eq!(m.warnings as usize, report.warnings().len());
    assert!(m.batches >= runs.len() as u64);
    assert!(m.min_slack.is_some());
    let rendered = m.render();
    assert!(rendered.contains("warnings"));
    assert!(rendered.contains("batches"));
}
