//! Early-warning deadline prediction on the paper's resource manager.
//!
//! The streaming example catches a violation *at* the offending event;
//! this one predicts it. A `Monitor` built with `with_predictor` arms
//! the compiled engine itself with a slack horizon (Section 3.1's
//! `Lt`/`Ft` residuals, tracked natively by both backends): every open
//! deadline reports its remaining slack, a `Warning` fires as soon as
//! slack drops to the horizon — before the violation, if one follows —
//! and a `Forced` verdict marks each trigger that opens a lower-bound
//! window at least the horizon wide.
//!
//! ```console
//! $ cargo run --example early_warning
//! ```

use tempo_core::{time_ab, SatisfactionMode, TimedSequence};
use tempo_math::Rat;
use tempo_monitor::{Monitor, MonitorPool, PoolConfig, Verdict};
use tempo_sim::{predictive_audit_runs, Ensemble};
use tempo_systems::resource_manager::{self, g1, g2, Params};

fn main() {
    let params = Params::ints(3, 2, 3, 1).expect("valid parameters");
    println!(
        "System: resource manager (k = {}, ticks in [{}, {}], local delay <= {})",
        params.k, params.c1, params.c2, params.l
    );
    let impl_aut = time_ab(&resource_manager::system(&params));
    let runs = Ensemble::new(8, 120).with_extremal(true).collect(&impl_aut);
    let conds = [g1(&params), g2(&params)];
    let horizon = Rat::ONE;

    // 1. Stretch one run 2x so the GRANTs drift past their deadlines,
    //    then watch it live with a predictor: the Warning lands strictly
    //    before the violation it predicts.
    let run = &runs[0];
    let mut late = TimedSequence::new(*run.first_state());
    for (_, a, t, post) in run.step_triples() {
        late.push(*a, t * Rat::from(2), *post);
    }
    let mut mon = Monitor::new(&conds, late.first_state()).with_predictor(horizon);
    println!("\n1. one stretched run, horizon = {horizon}:");
    for (_, a, t, post) in late.step_triples() {
        match mon.observe(a, t, post) {
            Verdict::Warning(w) => println!(
                "   t = {t}: WARNING  {} deadline {} at risk (slack {})",
                w.condition, w.deadline, w.slack
            ),
            Verdict::Forced(fw) => println!(
                "   t = {t}: FORCED   {} holds {:?} until {} (margin {})",
                fw.condition, fw.action, fw.earliest, fw.margin
            ),
            Verdict::UpperBoundViolation(v) => {
                println!("   t = {t}: VIOLATED {} ({:?})", v.condition, v.kind);
                break;
            }
            Verdict::LowerBoundViolation(v) => {
                println!("   t = {t}: VIOLATED {} ({:?})", v.condition, v.kind);
                break;
            }
            Verdict::Ok => {
                if let Some(slack) = mon.min_slack() {
                    println!("   t = {t}: ok       (min slack {slack})");
                }
            }
        }
    }
    let (violations, warnings, _) = mon.finish_full(SatisfactionMode::Prefix);
    println!(
        "   -> {} violation(s), {} warning(s); every deadline violation was warned >= {horizon} early",
        violations.len(),
        warnings.len()
    );

    // 2. The honest ensemble through the predictive audit: no
    //    violations, and the near-miss count shows how close the
    //    schedule sails to its deadlines.
    let summary = predictive_audit_runs(&runs, &conds, horizon);
    println!("\n2. honest ensemble : {summary} (warnings here are near misses, not failures)");

    // 3. The same ensemble, half of it stretched, through a pool with
    //    per-stream predictors — batch submission, one lock per run.
    let config = PoolConfig {
        horizon: Some(horizon),
        ..PoolConfig::default()
    };
    let mut pool = MonitorPool::new(&conds, config);
    let metrics = pool.metrics();
    for (i, run) in runs.iter().enumerate() {
        let factor = if i % 2 == 0 { Rat::new(3, 2) } else { Rat::ONE };
        let mut stream = pool.open_stream(*run.first_state());
        stream
            .send_batch(
                run.step_triples()
                    .map(|(_, a, t, post)| (*a, t * factor, *post)),
            )
            .expect("block policy");
        stream.finish();
    }
    let report = pool.shutdown();
    let warned_streams = report
        .streams
        .iter()
        .filter(|s| !s.warnings.is_empty())
        .count();
    println!(
        "\n3. pooled, batched : {} streams, {} violations, {} warnings ({} streams warned)\n",
        report.streams.len(),
        report.violations().len(),
        report.warnings().len(),
        warned_streams
    );
    println!("{}", metrics.snapshot().render());
}
