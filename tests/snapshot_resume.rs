//! Snapshot/resume round-trips for the engine state (`serde` feature):
//! a monitor interrupted mid-stream, serialized with `serde_json`,
//! restored, and resumed must emit exactly the verdicts the
//! uninterrupted monitor emits on the remaining suffix — violations,
//! warnings, and per-event verdicts alike.

use proptest::prelude::*;
use tempo_core::engine::EngineState;
use tempo_core::{time_ab, SatisfactionMode, TimedSequence, TimingCondition, ViolationKind};
use tempo_math::{Interval, Rat};
use tempo_monitor::Monitor;
use tempo_sim::Ensemble;
use tempo_systems::resource_manager::{self, g1, g2, Params};

fn rm_params() -> impl Strategy<Value = Params> {
    (1u32..=4, 1i64..=4, 1i64..=3, 0i64..=4).prop_map(|(k, l, delta, spread)| {
        let c1 = l + delta;
        Params::ints(k, c1, c1 + spread, l).expect("constructed to be valid")
    })
}

/// Scales every event time by `factor` to manufacture violations (and
/// with them mid-stream warnings) on otherwise-valid runs.
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

/// Runs `seq` straight through and, in parallel, with a serialize /
/// deserialize / resume round-trip after `split` events, asserting the
/// two monitors emit identical per-event verdicts on the suffix and
/// identical violation and warning totals overall.
fn assert_roundtrip<S, A>(
    seq: &TimedSequence<S, A>,
    conds: &[TimingCondition<S, A>],
    split: usize,
    horizon: Option<Rat>,
    mode: SatisfactionMode,
) -> Result<(), TestCaseError>
where
    S: Clone + std::fmt::Debug,
    A: Clone + Eq + std::hash::Hash + std::fmt::Debug,
{
    let build = || {
        let mon = Monitor::new(conds, seq.first_state());
        match horizon {
            Some(h) => mon.with_predictor(h),
            None => mon,
        }
    };

    // The uninterrupted reference.
    let mut full = build();
    let mut full_verdicts = Vec::new();
    for (_, a, t, post) in seq.step_triples() {
        full_verdicts.push(full.observe(a, t, post));
    }

    // The interrupted run: observe `split` events, snapshot through
    // JSON, resume, and finish the suffix.
    let mut prefix = build();
    let mut last_state = seq.first_state().clone();
    for (_, a, t, post) in seq.step_triples().take(split) {
        prefix.observe(a, t, post);
        last_state = post.clone();
    }
    let prefix_violations = prefix.violations().to_vec();
    let prefix_warnings = prefix.warnings().to_vec();

    let json = serde_json::to_string(&prefix.engine_state()).expect("snapshot serializes");
    let restored: EngineState = serde_json::from_str(&json).expect("snapshot deserializes");
    prop_assert_eq!(restored.events_seen(), prefix.engine_state().events_seen());
    prop_assert_eq!(
        restored.open_obligations(),
        prefix.engine_state().open_obligations()
    );

    let mut resumed = Monitor::resume(conds, restored, &last_state, horizon);
    for (i, (_, a, t, post)) in seq.step_triples().enumerate() {
        if i < split {
            continue;
        }
        let verdict = resumed.observe(a, t, post);
        prop_assert_eq!(
            &verdict,
            &full_verdicts[i],
            "suffix verdict diverged at event {} (split {})",
            i,
            split
        );
    }

    // Prefix + suffix totals equal the uninterrupted totals — no
    // verdict is lost or doubled across the snapshot boundary.
    let (suffix_violations, suffix_warnings, _) = resumed.finish_full(mode);
    let (full_violations, full_warnings, _) = full.finish_full(mode);
    let mut stitched = prefix_violations;
    stitched.extend(suffix_violations);
    prop_assert_eq!(&stitched, &full_violations, "violations, split {}", split);
    let mut stitched = prefix_warnings;
    stitched.extend(suffix_warnings);
    prop_assert_eq!(
        format!("{stitched:?}"),
        format!("{full_warnings:?}"),
        "warnings, split {}",
        split
    );
    Ok(())
}

/// Deterministic core case: a deadline armed before the snapshot is
/// still enforced — and still warned about — after the round-trip.
#[test]
fn restored_monitor_keeps_pending_deadlines() {
    let cond: TimingCondition<u8, &str> =
        TimingCondition::new("RESP", Interval::closed(Rat::ONE, Rat::from(5)).unwrap())
            .triggered_by_step(|_, a, _| *a == "REQ")
            .on_actions(|a| *a == "GRANT");
    let mut seq = TimedSequence::new(0u8);
    seq.push("REQ", Rat::from(2), 1); // deadline at 7
    seq.push("noise", Rat::from(3), 1); // ← snapshot here
    seq.push("noise", Rat::from(6), 1); // slack 1 ≤ horizon: warning
    seq.push("noise", Rat::from(8), 1); // past the deadline: violation
    for split in 0..=seq.len() {
        assert_roundtrip(
            &seq,
            std::slice::from_ref(&cond),
            split,
            Some(Rat::from(2)),
            SatisfactionMode::Prefix,
        )
        .unwrap();
    }
}

/// The snapshot encoding is stable JSON, not an opaque blob: a restored
/// state re-serializes to the identical document.
#[test]
fn snapshot_json_is_stable() {
    let cond: TimingCondition<u8, &str> =
        TimingCondition::new("C", Interval::closed(Rat::ONE, Rat::from(4)).unwrap())
            .triggered_by_step(|_, a, _| *a == "go")
            .on_actions(|a| *a == "done");
    let mut mon = Monitor::new(std::slice::from_ref(&cond), &0u8);
    mon.observe(&"go", Rat::from(2), &1);
    let json = serde_json::to_string(&mon.engine_state()).unwrap();
    let restored: EngineState = serde_json::from_str(&json).unwrap();
    assert_eq!(serde_json::to_string(&restored).unwrap(), json);
}

/// Backward compatibility: a snapshot written *before* prediction moved
/// into the engine — the serialized form has always been just
/// `(events_seen, last_time, open-obligation table)` and carries no
/// predictive fields — resumes onto a predictive monitor. The warning
/// points and forced-window state are reconstructed from the compiled
/// bounds at adopt time: an obligation whose warning point had already
/// passed is silently marked warned, a restored lower window answers
/// `earliest_legal` and is still enforced, and nothing predictive is
/// re-reported for the prefix.
#[test]
fn pre_refactor_snapshot_resumes_predictively() {
    // Captured from the pre-refactor engine after REQ@2, go@4, noise@6
    // under the two conditions below: RESP's lower window (earliest 3)
    // is already pruned, its upper deadline 7 is open and was warned at
    // its warning point 5; HOLD holds both halves of its [10, 20]
    // window armed at t = 4.
    const FIXTURE: &str = r#"[3,"6",[[[1,true,"7"]],[[2,false,"14"],[2,true,"24"]]]]"#;
    let resp: TimingCondition<u8, &str> =
        TimingCondition::new("RESP", Interval::closed(Rat::ONE, Rat::from(5)).unwrap())
            .triggered_by_step(|_, a, _| *a == "REQ")
            .on_actions(|a| *a == "GRANT");
    let hold: TimingCondition<u8, &str> = TimingCondition::new(
        "HOLD",
        Interval::closed(Rat::from(10), Rat::from(20)).unwrap(),
    )
    .triggered_by_step(|_, a, _| *a == "go")
    .on_actions(|a| *a == "fire");
    let conds = [resp, hold];

    // The fixture is byte-for-byte what the current engine writes for
    // that prefix — the format is deliberately unchanged.
    let mut live = Monitor::new(&conds, &0u8).with_predictor(Rat::from(2));
    live.observe(&"REQ", Rat::from(2), &1);
    live.observe(&"go", Rat::from(4), &1);
    live.observe(&"noise", Rat::from(6), &1);
    assert_eq!(
        serde_json::to_string(&live.engine_state()).unwrap(),
        FIXTURE
    );

    let restored: EngineState = serde_json::from_str(FIXTURE).unwrap();
    assert_eq!(restored.events_seen(), 3);
    assert_eq!(restored.open_obligations(), 3);
    let mut mon = Monitor::resume(&conds, restored, &1u8, Some(Rat::from(2)));

    // Predictive read-outs come straight back: RESP's deadline 7 is one
    // unit away, HOLD's restored lower window pins `fire` until 14
    // (`GRANT` has no open lower window — RESP's was pruned pre-snapshot).
    assert_eq!(mon.min_slack(), Some(Rat::ONE));
    assert_eq!(mon.earliest_legal(&"fire"), Some(Rat::from(14)));
    assert_eq!(mon.earliest_legal(&"GRANT"), None);

    // RESP's warning point (5) had already passed at snapshot time, so
    // the re-armed obligation is marked warned: crossing it again stays
    // silent rather than re-warning.
    assert!(mon.observe(&"noise", Rat::new(13, 2), &1).is_ok());

    // The restored deadline is still enforced …
    let v = mon.observe(&"noise", Rat::from(8), &1);
    assert!(matches!(
        v.violation().map(|v| &v.kind),
        Some(&ViolationKind::UpperBound { trigger_index: 1, deadline }) if deadline == Rat::from(7)
    ));
    // … and so is the restored lower window: `fire` at 12 lands inside
    // the forced window that ends at 14.
    let v = mon.observe(&"fire", Rat::from(12), &1);
    assert!(matches!(
        v.violation().map(|v| &v.kind),
        Some(&ViolationKind::LowerBound { trigger_index: 2, event_index: 6, earliest })
            if earliest == Rat::from(14)
    ));

    // Nothing predictive is re-reported for the prefix: the warning was
    // consumed before the snapshot and forced windows are only emitted
    // at the event that opens them.
    let (violations, warnings, forced) = mon.finish_full(SatisfactionMode::Prefix);
    assert_eq!(violations.len(), 2);
    assert!(
        warnings.is_empty(),
        "re-warned across the snapshot: {warnings:?}"
    );
    assert!(
        forced.is_empty(),
        "re-forced across the snapshot: {forced:?}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Round-trip at a random split point on random resource-manager
    /// traces (valid and time-warped), with and without a predictor.
    #[test]
    fn snapshot_resume_preserves_verdicts(
        params in rm_params(),
        seed in 0u64..1000,
        split_frac in 0u32..=4,
        num in 1i128..=12,
        predict in any::<bool>(),
    ) {
        let impl_aut = time_ab(&resource_manager::system(&params));
        let runs = Ensemble::new(2, 40).with_seed(seed).collect(&impl_aut);
        let conds = [g1(&params), g2(&params)];
        let horizon = predict.then_some(Rat::ONE);
        for run in &runs {
            let warped = warp(run, Rat::new(num, 8));
            for seq in [run, &warped] {
                let split = seq.len() * (split_frac as usize) / 4;
                for mode in [SatisfactionMode::Prefix, SatisfactionMode::Complete] {
                    assert_roundtrip(seq, &conds, split, horizon, mode)?;
                }
            }
        }
    }
}
