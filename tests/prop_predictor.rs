//! Property tests for engine-native prediction: on random simulated
//! runs — valid and time-warped — (1) attaching a predictor never
//! changes the violation verdicts, (2) every upper-bound violation is
//! preceded by a warning whose lead time is at least the horizon, (3) a
//! violation-free stream at horizon 0 emits no warnings at all, and (4)
//! violations, warnings and forced windows agree pointwise with the
//! independent naive reference checker (`support/reference.rs`) in both
//! time domains.

#[path = "support/mod.rs"]
mod support;

use std::sync::Arc;

use proptest::prelude::*;
use support::oracle::{check_monitor, check_predictions, check_violations, off_grid};
use support::reference::Reference;
use tempo_core::engine::{CompiledConditionSet, EngineBackend};
use tempo_core::{time_ab, SatisfactionMode, TimedSequence, TimingCondition, ViolationKind};
use tempo_math::Rat;
use tempo_monitor::{replay, replay_predictive_full, Monitor};
use tempo_sim::{predictive_audit_runs, Ensemble};
use tempo_systems::resource_manager::{self, g1, g2, Params};

fn rm_params() -> impl Strategy<Value = Params> {
    (1u32..=4, 1i64..=4, 1i64..=3, 0i64..=4).prop_map(|(k, l, delta, spread)| {
        let c1 = l + delta;
        Params::ints(k, c1, c1 + spread, l).expect("constructed to be valid")
    })
}

/// Scales every event time by `factor` (> 0 keeps times nondecreasing):
/// stretching above 1 manufactures upper-bound violations, compression
/// below 1 lower-bound violations.
fn warp<S, A>(seq: &TimedSequence<S, A>, factor: Rat) -> TimedSequence<S, A>
where
    S: Clone + std::fmt::Debug,
    A: Clone + Eq + std::hash::Hash + std::fmt::Debug,
{
    let mut out = TimedSequence::new(seq.first_state().clone());
    for (_, a, t, post) in seq.step_triples() {
        out.push(a.clone(), t * factor, post.clone());
    }
    out
}

/// Asserts the two predictive guarantees on one sequence:
/// unchanged violations, and a warning with lead ≥ `horizon` before
/// every upper-bound violation. Requires `horizon ≤ b_u` for every
/// condition (otherwise the lead is clamped to `b_u`).
fn assert_predictive_guarantees<S, A>(
    seq: &TimedSequence<S, A>,
    conds: &[TimingCondition<S, A>],
    horizon: Rat,
) -> Result<(), TestCaseError>
where
    S: Clone + std::fmt::Debug,
    A: Clone + Eq + std::hash::Hash + std::fmt::Debug,
{
    for mode in [SatisfactionMode::Prefix, SatisfactionMode::Complete] {
        let plain = replay(seq, conds, mode);
        let (violations, warnings, _) = replay_predictive_full(seq, conds, mode, horizon);
        prop_assert_eq!(&plain, &violations, "mode {:?}", mode);
        for v in &violations {
            if let ViolationKind::UpperBound {
                trigger_index,
                deadline,
            } = v.kind
            {
                let w = warnings
                    .iter()
                    .find(|w| {
                        *w.condition == *v.condition
                            && w.trigger_index == trigger_index
                            && w.deadline == deadline
                    })
                    .unwrap_or_else(|| {
                        panic!("upper-bound violation without a preceding warning: {v:?}")
                    });
                prop_assert!(
                    w.deadline - w.at >= horizon,
                    "lead {} below horizon {horizon} for {v:?}",
                    w.deadline - w.at
                );
            }
        }
        // Warnings are per-obligation and at most one each: no warning
        // may repeat its (condition, trigger, deadline) identity.
        for (i, w) in warnings.iter().enumerate() {
            prop_assert!(!warnings[..i].contains(w), "duplicate warning {w:?}");
        }
        // And all of it is what the definitions say.
        let prefix = mode == SatisfactionMode::Prefix;
        let want = Reference::new(prefix).horizon(horizon).run(seq, conds);
        let (violations, warnings, forced) = replay_predictive_full(seq, conds, mode, horizon);
        check_violations(&CompiledConditionSet::new(conds), &violations, &want)?;
        check_predictions(&warnings, &forced, &want)?;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// On resource-manager traces — valid and warped both ways — the
    /// predictor adds warnings without changing verdicts, and every
    /// upper-bound violation was warned at least `horizon` early.
    #[test]
    fn predictor_guarantees_on_rm_traces(
        params in rm_params(),
        seed in 0u64..1000,
        num in 1i128..=16,
    ) {
        let impl_aut = time_ab(&resource_manager::system(&params));
        let runs = Ensemble::new(2, 60).with_seed(seed).collect(&impl_aut);
        let conds = [g1(&params), g2(&params)];
        // Every G1/G2 upper bound is ≥ c1 ≥ 2, so horizon 1/2 is below
        // every b_u and the lead-time guarantee is unclamped.
        let horizon = Rat::new(1, 2);
        let factor = Rat::new(num, 8);
        for run in &runs {
            assert_predictive_guarantees(run, &conds, horizon)?;
            assert_predictive_guarantees(&warp(run, factor), &conds, horizon)?;
        }
    }

    /// Valid simulated runs never violate, and at horizon 0 they never
    /// warn either — the predictor is silent exactly when the stream is
    /// clean.
    #[test]
    fn horizon_zero_is_silent_on_valid_runs(params in rm_params(), seed in 0u64..1000) {
        let impl_aut = time_ab(&resource_manager::system(&params));
        let runs = Ensemble::new(3, 60).with_seed(seed).collect(&impl_aut);
        let conds = [g1(&params), g2(&params)];
        let summary = predictive_audit_runs(&runs, &conds, Rat::ZERO);
        prop_assert!(summary.passed(), "{}", summary);
        prop_assert!(
            summary.warnings.is_empty(),
            "horizon 0 warned on a violation-free stream: {:?}",
            summary.warnings
        );
    }

    /// Predictive differential: with the engine armed, the tick
    /// instantiation (on grid, or moving to `Rat` when a warp puts times
    /// off grid) and the `Rat` instantiation from the start (the same
    /// conditions beside two off-grid ones) both agree with the
    /// reference *pointwise* — per-event findings and verdicts
    /// (warnings and forced windows included), minimum slack after every
    /// event, and the final violation/warning lists — so the mid-stream
    /// move carries warning state across the boundary.
    #[test]
    fn int_and_exact_prediction_agree(
        params in rm_params(),
        seed in 0u64..1000,
        num in 1i128..=16,
    ) {
        let impl_aut = time_ab(&resource_manager::system(&params));
        let runs = Ensemble::new(2, 60).with_seed(seed).collect(&impl_aut);
        let conds = [g1(&params), g2(&params)];
        let set = Arc::new(CompiledConditionSet::new(&conds));
        let exact = off_grid(&conds);
        let exact_set = Arc::new(CompiledConditionSet::new(&exact));
        prop_assert_eq!(exact_set.backend(), EngineBackend::Exact);
        let horizon = Rat::ONE; // on the unit tick grid
        for run in &runs {
            // `num = 8` keeps the run on grid; everything else warps
            // times to quarters/eighths and moves mid-stream.
            for seq in [run.clone(), warp(run, Rat::new(num, 8))] {
                let want = Reference::new(false).horizon(horizon).run(&seq, &conds);
                let int_mon =
                    Monitor::from_compiled(Arc::clone(&set), seq.first_state()).with_predictor(horizon);
                check_monitor(int_mon, &seq, false, &want)?;
                let exact_mon = Monitor::from_compiled(Arc::clone(&exact_set), seq.first_state())
                    .with_predictor(horizon);
                let end = check_monitor(exact_mon, &seq, false, &want)?;
                prop_assert_eq!(end, EngineBackend::Exact);
            }
        }
    }

    /// The predictive audit's violation set matches the plain streaming
    /// audit's at any horizon.
    #[test]
    fn predictive_audit_never_changes_violations(
        params in rm_params(),
        seed in 0u64..1000,
        num in 1i128..=16,
    ) {
        let impl_aut = time_ab(&resource_manager::system(&params));
        let runs: Vec<_> = Ensemble::new(2, 50)
            .with_seed(seed)
            .collect(&impl_aut)
            .iter()
            .map(|r| warp(r, Rat::new(num, 8)))
            .collect();
        let conds = [g1(&params), g2(&params)];
        let plain = tempo_sim::stream_audit_runs(&runs, &conds);
        let predictive = predictive_audit_runs(&runs, &conds, Rat::from(2));
        prop_assert_eq!(
            plain.violations,
            predictive.without_warnings().violations
        );
    }
}
