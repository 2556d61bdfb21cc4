//! E11 — early-warning predictor overhead and batched submission.
//!
//! Two questions from EXPERIMENTS.md:
//!
//! 1. What does the zone-based predictor cost per event? The acceptance
//!    bar is within 2x of the plain monitor on the same stream — the
//!    per-event work is one `Dbm::shift` (O(active clocks)) plus an
//!    O(open deadlines) warning sweep.
//! 2. How much does `StreamHandle::send_batch` save over per-event
//!    `send` when feeding a pool (one lock round-trip per batch instead
//!    of per event)?

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use tempo_core::{SatisfactionMode, TimedSequence, TimingCondition};
use tempo_math::{Interval, Rat};
use tempo_monitor::{Monitor, MonitorPool, PoolConfig};

/// Request/response bound over the synthetic pulse stream below: every
/// `go` step must be answered by a `done` within `[1, 3]` time units.
fn pulse_condition() -> TimingCondition<u32, &'static str> {
    TimingCondition::new("PULSE", Interval::closed(Rat::ONE, Rat::from(3)).unwrap())
        .triggered_by_step(|_, a, _| *a == "go")
        .on_actions(|a| *a == "done")
}

/// A satisfying `go`/`done` pulse train: `n` events, one per time unit,
/// so every response lands exactly one unit after its request.
fn pulse_stream(n: usize) -> TimedSequence<u32, &'static str> {
    let mut seq = TimedSequence::new(0u32);
    for i in 0..n {
        let a = if i % 2 == 0 { "go" } else { "done" };
        seq.push(a, Rat::from(i as i64), (i + 1) as u32);
    }
    seq
}

/// The same stream through a plain monitor and through predictive
/// monitors at three horizons. Every deadline is served with slack
/// exactly 2, so horizons 0 and 1 never warn (pure tracking overhead —
/// the configuration the 2x acceptance bar is about) while horizon 5/2
/// puts *every* discharge strictly inside the warning window — the
/// stress case where half of all events additionally build, file, and
/// report a `Warning`.
fn bench_predictor_overhead(c: &mut Criterion) {
    let conds = [pulse_condition()];
    let mut group = c.benchmark_group("e11_predictor_overhead");
    for n in [1_000usize, 10_000] {
        let seq = pulse_stream(n);
        group.bench_with_input(BenchmarkId::new("predictor_off", n), &seq, |b, seq| {
            b.iter(|| {
                let mut mon = Monitor::new(&conds, seq.first_state());
                for (_, a, t, post) in seq.step_triples() {
                    let v = mon.observe(a, t, post);
                    assert!(v.is_ok());
                }
                mon.finish(SatisfactionMode::Prefix).is_empty()
            })
        });
        for (label, horizon) in [
            ("horizon_0", Rat::ZERO),
            ("horizon_1", Rat::ONE),
            ("horizon_5_2", Rat::new(5, 2)),
        ] {
            group.bench_with_input(
                BenchmarkId::new(format!("predictor_on_{label}"), n),
                &seq,
                |b, seq| {
                    b.iter(|| {
                        let mut mon =
                            Monitor::new(&conds, seq.first_state()).with_predictor(horizon);
                        for (_, a, t, post) in seq.step_triples() {
                            let v = mon.observe(a, t, post);
                            assert!(v.is_ok());
                        }
                        let (violations, warnings, _) = mon.finish_full(SatisfactionMode::Prefix);
                        assert!(violations.is_empty());
                        warnings.len()
                    })
                },
            );
        }
    }
    group.finish();
}

/// A fixed 16k-event budget into a pool behind a deliberately small
/// queue (512 messages), so producer and worker genuinely contend for
/// the queue mutex: per-event `send` vs `send_batch` at batch sizes 64
/// and 1024, predictors on. `send_batch` pays one lock round-trip per
/// batch (waiting mid-batch when the queue fills), and the worker
/// drains in batches on its side, so queue synchronization is amortized
/// end to end.
fn bench_batched_submission(c: &mut Criterion) {
    let conds = [pulse_condition()];
    const TOTAL: usize = 16_000;
    let seq = pulse_stream(TOTAL);
    let events: Vec<(&'static str, Rat, u32)> = seq
        .step_triples()
        .map(|(_, a, t, post)| (*a, t, *post))
        .collect();
    let config = PoolConfig {
        workers: 2,
        queue_capacity: 512,
        horizon: Some(Rat::from(2)),
        ..PoolConfig::default()
    };
    let mut group = c.benchmark_group("e11_batched_submission");
    group.bench_function("send_per_event", |b| {
        b.iter(|| {
            let mut pool = MonitorPool::new(&conds, config);
            let mut h = pool.open_stream(0u32);
            for (a, t, post) in &events {
                h.send(*a, *t, *post).expect("block policy");
            }
            h.finish();
            assert!(pool.shutdown().passed());
        })
    });
    for batch in [64usize, 1024] {
        group.bench_with_input(
            BenchmarkId::new("send_batch", batch),
            &batch,
            |b, &batch| {
                b.iter(|| {
                    let mut pool = MonitorPool::new(&conds, config);
                    let mut h = pool.open_stream(0u32);
                    for chunk in events.chunks(batch) {
                        h.send_batch(chunk.iter().copied()).expect("block policy");
                    }
                    h.finish();
                    assert!(pool.shutdown().passed());
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_predictor_overhead, bench_batched_submission);
criterion_main!(benches);
