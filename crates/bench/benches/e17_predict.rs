//! E17 — prediction folded into the compiled engine.
//!
//! Prediction used to live in a zone-based side-car that re-derived
//! slack from a DBM next to the engine; it is now a native capability
//! of the stepper in both time domains — warning points (`Lt` slack)
//! and forced windows (`Ft` residuals) are tracked inside the
//! obligation store itself. The `exact` rows reach the `Rat` domain
//! through one leading event 1/3 off the unit tick grid; the measured
//! events then run at the same integral times as the `int` rows. This
//! bench answers EXPERIMENTS.md §E17's two questions:
//!
//! 1. What does arming a horizon cost in each domain? The §E12 pulse
//!    workload, stepped with and without prediction — the target is
//!    ≤ ≈1.9× the plain fold, the old side-car's §E11b overhead.
//! 2. Does the quiescent-event fast path survive prediction? The
//!    warning watermark generalizes the min-deadline watermark, so a
//!    noise event against 100k armed-but-distant obligations must stay
//!    within noise of the §E16 floor.

use std::cell::Cell;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use tempo_core::engine::{CompiledConditionSet, EngineBackend, EngineEvent};
use tempo_core::{TimedSequence, TimingCondition};
use tempo_math::{Interval, Rat};

const EVENTS: usize = 10_000;

/// The §E12 workload: `k` request/response bounds armed by the same
/// `go` steps, so every event weighs against `k` conditions.
fn pulse_conditions(k: usize) -> Vec<TimingCondition<u32, &'static str>> {
    (0..k)
        .map(|i| {
            TimingCondition::new(
                format!("PULSE{i}"),
                Interval::closed(Rat::ONE, Rat::from(3)).unwrap(),
            )
            .triggered_by_step(|_, a, _| *a == "go")
            .on_actions(|a| *a == "done")
        })
        .collect()
}

/// A satisfying `go`/`done` pulse train: one event per time unit.
/// Every obligation is served with slack 2, so a horizon-1 predictor
/// arms and retires warning points without ever emitting — the bench
/// measures pure bookkeeping, not reporting. With `exact`, a quiescent
/// `noise` event 1/3 off the unit tick grid leads the train (which then
/// starts at time 1), moving the stream to `Rat` for good.
fn pulse_stream(n: usize, exact: bool) -> TimedSequence<u32, &'static str> {
    let mut seq = TimedSequence::new(0u32);
    if exact {
        seq.push("noise", Rat::new(1, 3), 0);
    }
    for i in 0..n {
        let a = if i % 2 == 0 { "go" } else { "done" };
        seq.push(a, Rat::from(i64::from(exact) + i as i64), (i + 1) as u32);
    }
    seq
}

/// Predictive overhead in both domains: the pulse stream stepped with
/// the horizon detached vs armed at 1. Per-event cost = reported time /
/// 10k events.
fn bench_predictive_fold(c: &mut Criterion) {
    let mut group = c.benchmark_group("e17_predictive_fold");
    for k in [1usize, 16, 256] {
        let set = CompiledConditionSet::new(&pulse_conditions(k));
        for (backend, exact) in [("int", false), ("exact", true)] {
            let seq = pulse_stream(EVENTS, exact);
            for (name, horizon) in [("plain", None), ("predict", Some(Rat::ONE))] {
                let id = BenchmarkId::new(format!("{backend}_{name}"), k);
                group.bench_with_input(id, &set, |b, set| {
                    b.iter(|| {
                        let mut st = set.start_engine_predictive(seq.first_state(), horizon);
                        let mut bad = 0usize;
                        for (pre, a, t, post) in seq.step_triples() {
                            bad += set
                                .step_engine(&mut st, pre, a, post, t)
                                .iter()
                                .filter(|e| matches!(e, EngineEvent::Violated { .. }))
                                .count();
                        }
                        assert_eq!(bad, 0);
                        bad
                    })
                });
            }
        }
    }
    group.finish();
}

/// One condition whose deadline is effectively never met: each `go`
/// trigger parks an open upper obligation until the far future, so the
/// obligation store can be pre-armed to any size.
fn slow_condition() -> TimingCondition<u32, &'static str> {
    TimingCondition::new(
        "SLOW",
        Interval::closed(Rat::ONE, Rat::from(1_000_000_000_000_000i64)).unwrap(),
    )
    .triggered_by_step(|_, a, _| *a == "go")
    .on_actions(|a| *a == "done")
}

/// §E16's quiescent-event probe with the predictor armed: a noise event
/// against 100k open far-future obligations. Their warning points are
/// all far ahead of the stream clock, so the int backend's warning
/// watermark must skip the warning scan exactly as the min-deadline
/// watermark skips the violation scan — prediction on vs off should be
/// indistinguishable here.
fn bench_quiescent_predict(c: &mut Criterion) {
    let mut group = c.benchmark_group("e17_quiescent");
    group.sample_size(20);
    let n = 100_000usize;
    for (name, horizon) in [("plain", None), ("predict", Some(Rat::ONE))] {
        let set = CompiledConditionSet::new(&[slow_condition()]);
        let mut st = set.start_engine_predictive(&0u32, horizon);
        for i in 0..n {
            set.step_engine(&mut st, &0, &"go", &0, Rat::from(i as i64));
        }
        // One flush event past every armed lower window discharges the
        // lowers, leaving exactly n far-deadline uppers.
        set.step_engine(&mut st, &0, &"noise", &0, Rat::from(n as i64 + 1));
        assert_eq!(st.open_obligations(), n);
        assert_eq!(st.backend(), EngineBackend::Int);
        let t = Cell::new(n as i64 + 1);
        group.bench_function(BenchmarkId::new(name, n), |b| {
            b.iter(|| {
                let now = t.get() + 1;
                t.set(now);
                set.step_engine(&mut st, &0, &"noise", &0, Rat::from(now))
                    .len()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_predictive_fold, bench_quiescent_predict);
criterion_main!(benches);
