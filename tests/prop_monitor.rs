//! Property tests for the streaming monitor: on random timed sequences —
//! valid simulated runs and time-warped (possibly violating) variants —
//! the online [`tempo_monitor::Monitor`] reports exactly the violations
//! the offline checker (`tempo_core::violations`) finds, and both agree
//! with the independent naive reference checker (`support/reference.rs`)
//! in discovery order.

#[path = "support/mod.rs"]
mod support;

use proptest::prelude::*;
use support::oracle::check_violations;
use support::reference::Reference;
use tempo_core::engine::CompiledConditionSet;
use tempo_core::{
    dummify, project, time_ab, undum, violations, RandomScheduler, SatisfactionMode, TimedSequence,
    TimingCondition, Violation,
};
use tempo_math::{Interval, Rat};
use tempo_monitor::{replay, PoolConfig};
use tempo_sim::{audit_runs, pooled_audit_runs, stream_audit_runs, Ensemble};
use tempo_systems::resource_manager::{self, g1, g2, Params};
use tempo_systems::signal_relay::{self, u_kn, RelayParams};

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

/// Scales every event time by `factor` (> 0 keeps times nondecreasing):
/// compression below 1 manufactures lower-bound violations, stretching
/// above 1 manufactures upper-bound violations.
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

/// Order-insensitive comparison key (the monitor reports in event order,
/// the offline checker in trigger order).
fn sorted(vs: Vec<Violation>) -> Vec<String> {
    let mut keys: Vec<String> = vs.iter().map(|v| format!("{v:?}")).collect();
    keys.sort();
    keys
}

fn assert_agreement<S, A>(
    seq: &TimedSequence<S, A>,
    conds: &[TimingCondition<S, A>],
) -> Result<(), TestCaseError>
where
    S: Clone + std::fmt::Debug,
    A: Clone + Eq + std::hash::Hash + std::fmt::Debug,
{
    for mode in [SatisfactionMode::Prefix, SatisfactionMode::Complete] {
        let offline: Vec<Violation> = conds
            .iter()
            .flat_map(|c| violations(seq, c, mode))
            .collect();
        let online = replay(seq, conds, mode);
        let want = Reference::new(mode == SatisfactionMode::Prefix).run(seq, conds);
        check_violations(&CompiledConditionSet::new(conds), &online, &want)?;
        prop_assert_eq!(sorted(offline), sorted(online), "mode {:?}", mode);
    }
    let offline_ok = conds
        .iter()
        .all(|c| tempo_core::semi_satisfies(seq, c).is_ok());
    prop_assert_eq!(
        offline_ok,
        replay(seq, conds, SatisfactionMode::Prefix).is_empty()
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Agreement on resource-manager traces, valid and time-warped, for
    /// the paper's G1 and G2.
    #[test]
    fn monitor_agrees_with_offline_rm(
        params in rm_params(),
        seed in 0u64..1000,
        num in 1i128..=12,
    ) {
        let impl_aut = time_ab(&resource_manager::system(&params));
        let runs = Ensemble::new(2, 60).with_seed(seed).collect(&impl_aut);
        let conds = [g1(&params), g2(&params)];
        let factor = Rat::new(num, 8);
        for run in &runs {
            assert_agreement(run, &conds)?;
            assert_agreement(&warp(run, factor), &conds)?;
        }
    }

    /// Agreement on signal-relay traces for `U_{0,n}` (delivery bound
    /// from the line's head to its tail).
    #[test]
    fn monitor_agrees_with_offline_relay(
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
        assert_agreement(&seq, &conds)?;
        assert_agreement(&warp(&seq, Rat::new(num, 8)), &conds)?;
    }

    /// The streaming audits agree with the offline ensemble audit, and
    /// valid simulated runs always pass online (the monitor raises no
    /// false alarms).
    #[test]
    fn streaming_audits_agree_with_offline(params in rm_params(), seed in 0u64..1000) {
        let impl_aut = time_ab(&resource_manager::system(&params));
        let runs = Ensemble::new(3, 60).with_seed(seed).collect(&impl_aut);
        let conds = [g1(&params), g2(&params)];
        let offline = audit_runs(&runs, &conds);
        let online = stream_audit_runs(&runs, &conds);
        let pooled = pooled_audit_runs(&runs, &conds, PoolConfig::default());
        prop_assert!(offline.passed(), "{}", offline);
        prop_assert!(online.passed(), "{}", online);
        prop_assert!(pooled.passed(), "{}", pooled);
        prop_assert_eq!(online.checks, offline.checks);
    }
}
