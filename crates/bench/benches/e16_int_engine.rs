//! E16 — the obligation stepper on `u64` ticks vs on exact `Rat`s.
//!
//! One struct-of-arrays stepper with min-deadline/min-earliest
//! watermarks, instantiated twice: on a shared u64 tick grid when every
//! bound and time fits it, on `Rat`s otherwise. The `exact` rows reach
//! the `Rat` instantiation through one leading event time 1/3 off the
//! unit grid, which moves the stream to `Rat` for good; the measured
//! events then run at the same integral times as the `int` rows. This
//! bench answers EXPERIMENTS.md §E16's two questions:
//!
//! 1. On the §E12 pulse workload, what does an event cost in each
//!    domain as the condition count grows (1 / 16 / 256)?
//! 2. How does the per-event cost scale with the number of *open*
//!    obligations (1 / 1k / 100k)? The watermarks skip the scans
//!    outright for events that serve nothing and pass no deadline, in
//!    both domains.

use std::cell::Cell;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use tempo_core::engine::{CompiledConditionSet, EngineBackend};
use tempo_core::{SatisfactionMode, TimedSequence, TimingCondition};
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

/// The domains of the rows and the time of the flush event that puts
/// a stream in each: on the unit tick grid, or 1/3 off it, which moves
/// the stream to `Rat` for good.
fn domains() -> [(&'static str, Rat); 2] {
    [("int", Rat::ZERO), ("exact", Rat::new(1, 3))]
}

/// A satisfying `go`/`done` pulse train: one event per time unit. On
/// the exact rows a quiescent `noise` event at `flush` leads it, and
/// the train starts at time 1 — so every measured event runs on `Rat`
/// at the same integral times as the tick rows.
fn pulse_stream(n: usize, flush: Rat) -> TimedSequence<u32, &'static str> {
    let mut seq = TimedSequence::new(0u32);
    let start = if flush.is_zero() {
        0
    } else {
        seq.push("noise", flush, 0);
        1
    };
    for i in 0..n {
        let a = if i % 2 == 0 { "go" } else { "done" };
        seq.push(a, Rat::from(start + i as i64), (i + 1) as u32);
    }
    seq
}

/// §E12's engine fold, domain vs domain. Per-event cost = reported
/// time / 10k events.
fn bench_pulse_fold(c: &mut Criterion) {
    let mut group = c.benchmark_group("e16_pulse_fold");
    for k in [1usize, 16, 256] {
        let set = CompiledConditionSet::new(&pulse_conditions(k));
        assert_eq!(
            set.backend(),
            EngineBackend::Int,
            "pulse bounds are integral"
        );
        for (name, flush) in domains() {
            let seq = pulse_stream(EVENTS, flush);
            group.bench_with_input(BenchmarkId::new(name, k), &set, |b, set| {
                b.iter(|| {
                    let vs = set.fold_sequence(&seq, SatisfactionMode::Prefix);
                    assert!(vs.is_empty());
                    vs
                })
            });
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

/// Per-event cost of a quiescent ("noise") event against `n` open
/// obligations: arm the store with `n` triggers, then measure single
/// noise steps at monotonically increasing times. The noise action
/// triggers nothing and serves nothing, so the watermarks skip both
/// scans in either domain.
fn bench_open_obligations(c: &mut Criterion) {
    let mut group = c.benchmark_group("e16_open_obligations");
    group.sample_size(20);
    for n in [1usize, 1_000, 100_000] {
        for ((name, flush), backend) in domains()
            .into_iter()
            .zip([EngineBackend::Int, EngineBackend::Exact])
        {
            let set = CompiledConditionSet::new(&[slow_condition()]);
            let mut st = set.start_engine(&0u32);
            for i in 0..n {
                set.step_engine(&mut st, &0, &"go", &0, Rat::from(i as i64));
            }
            // One flush event past every armed lower window discharges
            // the lowers, leaving exactly n far-deadline uppers; on the
            // exact rows its off-grid time moves the stream to `Rat`,
            // where it stays for the measured events.
            let flush = Rat::from(n as i64 + 1) + flush;
            set.step_engine(&mut st, &0, &"noise", &0, flush);
            assert_eq!(st.open_obligations(), n);
            assert_eq!(st.backend(), backend);
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
    }
    group.finish();
}

criterion_group!(benches, bench_pulse_fold, bench_open_obligations);
criterion_main!(benches);
