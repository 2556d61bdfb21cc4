//! Property tests for the compiled condition engine: the offline checker
//! (`tempo_core::violations`), the streaming [`Monitor`], and a direct
//! [`CompiledConditionSet::fold_sequence`] are three views over the same
//! engine, so on random traces — valid simulated runs and time-warped
//! (possibly violating) variants — they must report identical violation
//! sets, with and without a predictor attached. All of them are held to
//! the independent naive reference checker (`support/reference.rs`),
//! pointwise and in discovery order. A zone-graph oracle cross-check
//! closes the loop from the symbolic side: conditions the
//! [`ZoneChecker`] verifies never trip the engine on valid runs.

#[path = "support/mod.rs"]
mod support;

use proptest::prelude::*;
use support::oracle::{check_monitor, check_violations};
use support::reference::Reference;
use tempo_core::engine::CompiledConditionSet;
use tempo_core::{
    dummify, project, time_ab, undum, violations, RandomScheduler, SatisfactionMode, TimedSequence,
    TimingCondition, Violation,
};
use tempo_math::{Interval, Rat};
use tempo_monitor::Monitor;
use tempo_sim::Ensemble;
use tempo_systems::resource_manager::{self, g1, g2, Params};
use tempo_systems::signal_relay::{self, u_kn, RelayParams};
use tempo_zones::ZoneChecker;

fn rm_params() -> impl Strategy<Value = Params> {
    (1u32..=4, 1i64..=4, 1i64..=3, 0i64..=4).prop_map(|(k, l, delta, spread)| {
        let c1 = l + delta;
        Params::ints(k, c1, c1 + spread, l).expect("constructed to be valid")
    })
}

fn relay_params() -> impl Strategy<Value = RelayParams> {
    (1usize..=4, 0i64..=3, 1i64..=3)
        .prop_map(|(n, d1, spread)| RelayParams::ints(n, d1, d1 + spread).expect("valid"))
}

/// Scales every event time by `factor` (> 0 keeps times nondecreasing)
/// to manufacture lower-bound (compression) and upper-bound (stretch)
/// violations.
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

/// Order-insensitive comparison key: the per-condition offline loop
/// groups violations by condition while the engine consumers report in
/// event (discovery) order.
fn sorted(vs: &[Violation]) -> Vec<String> {
    let mut keys: Vec<String> = vs.iter().map(|v| format!("{v:?}")).collect();
    keys.sort();
    keys
}

/// The tentpole invariant: all three consumers of the engine — and the
/// monitor again with a predictor attached — agree exactly, and with the
/// reference checker.
fn assert_three_way<S, A>(
    seq: &TimedSequence<S, A>,
    conds: &[TimingCondition<S, A>],
) -> Result<(), TestCaseError>
where
    S: Clone + std::fmt::Debug,
    A: Clone + Eq + std::hash::Hash + std::fmt::Debug,
{
    let set = CompiledConditionSet::new(conds);
    for mode in [SatisfactionMode::Prefix, SatisfactionMode::Complete] {
        let offline: Vec<Violation> = conds
            .iter()
            .flat_map(|c| violations(seq, c, mode))
            .collect();
        let fold = set.fold_sequence(seq, mode);

        let mut plain = Monitor::new(conds, seq.first_state());
        let mut predictive = Monitor::new(conds, seq.first_state()).with_predictor(Rat::ONE);
        for (_, a, t, post) in seq.step_triples() {
            plain.observe(a, t, post);
            predictive.observe(a, t, post);
        }
        let online = plain.finish(mode);
        let (warned, _, _) = predictive.finish_full(mode);

        let want = sorted(&offline);
        prop_assert_eq!(&want, &sorted(&fold), "engine fold, mode {:?}", mode);
        prop_assert_eq!(&want, &sorted(&online), "monitor, mode {:?}", mode);
        prop_assert_eq!(
            &want,
            &sorted(&warned),
            "monitor with predictor, mode {:?}",
            mode
        );

        let prefix = mode == SatisfactionMode::Prefix;
        check_violations(&set, &fold, &Reference::new(prefix).run(seq, conds))?;
        let reference = Reference::new(prefix).horizon(Rat::ONE).run(seq, conds);
        let mon = Monitor::new(conds, seq.first_state()).with_predictor(Rat::ONE);
        check_monitor(mon, seq, prefix, &reference)?;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Three-way agreement on resource-manager traces, valid and
    /// time-warped, for the paper's G1 and G2.
    #[test]
    fn engine_consumers_agree_rm(
        params in rm_params(),
        seed in 0u64..1000,
        num in 1i128..=12,
    ) {
        let impl_aut = time_ab(&resource_manager::system(&params));
        let runs = Ensemble::new(2, 60).with_seed(seed).collect(&impl_aut);
        let conds = [g1(&params), g2(&params)];
        let factor = Rat::new(num, 8);
        for run in &runs {
            assert_three_way(run, &conds)?;
            assert_three_way(&warp(run, factor), &conds)?;
        }
    }

    /// Three-way agreement on signal-relay traces for `U_{0,n}`.
    #[test]
    fn engine_consumers_agree_relay(
        params in relay_params(),
        seed in 0u64..1000,
        num in 1i128..=12,
    ) {
        let timed = signal_relay::relay_line(&params);
        let dummified = dummify(
            &timed,
            Interval::closed(Rat::ONE, Rat::from(2)).unwrap(),
        ).unwrap();
        let impl_aut = time_ab(&dummified);
        let mut sched = RandomScheduler::new(seed);
        let (run, _) = impl_aut.generate(&mut sched, 30 + 10 * params.n);
        let seq = undum(&project(&run));
        let conds = [u_kn(0, &params)];
        assert_three_way(&seq, &conds)?;
        assert_three_way(&warp(&seq, Rat::new(num, 8)), &conds)?;
    }

    /// Zone-oracle cross-check: the symbolic checker proves G1 and G2
    /// hold of the resource manager (Section 4's verified bounds), so
    /// the engine must find no violations on any valid simulated run —
    /// the operational and symbolic readings of Definition 3.1 agree.
    #[test]
    fn zone_verified_conditions_never_trip_the_engine(
        params in rm_params(),
        seed in 0u64..1000,
    ) {
        let timed = resource_manager::system(&params);
        let conds = [g1(&params), g2(&params)];
        let zone = ZoneChecker::new(&timed);
        for c in &conds {
            let verdict = zone.verify_condition(c).expect("zone graph explored");
            prop_assert!(
                verdict.satisfies(c.bounds()),
                "zone oracle refutes {} for {:?}",
                c.name(),
                params
            );
        }
        let impl_aut = time_ab(&timed);
        let runs = Ensemble::new(2, 60).with_seed(seed).collect(&impl_aut);
        let set = CompiledConditionSet::new(&conds);
        for run in &runs {
            let vs = set.fold_sequence(run, SatisfactionMode::Prefix);
            prop_assert!(
                vs.is_empty(),
                "engine found violations on a zone-verified system: {:?}",
                vs
            );
        }
    }
}
