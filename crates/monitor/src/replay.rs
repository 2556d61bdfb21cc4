//! Replaying recorded [`TimedSequence`]s through the online monitor.
//!
//! The bridge between the repository's offline world (simulation
//! ensembles, counterexample traces) and the streaming monitor: any
//! recorded sequence can be fed event-by-event through a [`Monitor`],
//! which reports exactly the violations the offline checker finds —
//! both sides step the same compiled condition engine
//! ([`tempo_core::engine`], Definition 3.1), so the agreement holds by
//! construction and is additionally exercised by the repository's
//! property tests.

use tempo_core::{SatisfactionMode, TimedSequence, TimingCondition, Violation};
use tempo_math::Rat;

use crate::monitor::Monitor;
use crate::verdict::{Forced, Verdict, Warning};

/// Feeds every event of `seq` through a fresh monitor for `conds` and
/// returns all violations, closing the stream in `mode`.
///
/// Agrees with collecting [`tempo_core::violations`] over each
/// condition: both fold the same engine, reporting violations in event
/// (discovery) order.
pub fn replay<S, A>(
    seq: &TimedSequence<S, A>,
    conds: &[TimingCondition<S, A>],
    mode: SatisfactionMode,
) -> Vec<Violation>
where
    S: Clone + std::fmt::Debug,
    A: Clone + Eq + std::hash::Hash + std::fmt::Debug,
{
    let mut mon = Monitor::new(conds, seq.first_state());
    for (_, a, t, post) in seq.step_triples() {
        mon.observe(a, t, post);
    }
    mon.finish(mode)
}

/// Replays `seq` through a monitor with prediction armed at the given
/// `horizon` (see [`Monitor::with_predictor`]) and returns the
/// violations, the early warnings that preceded them (the `Lt(U)`
/// side), and the forced windows — one [`Forced`] per trigger that
/// opened a lower-bound window at least `horizon` wide (the `Ft(U)`
/// side).
///
/// The violation list is identical to [`replay`]'s — prediction never
/// changes verdicts, it only adds warnings and forced windows.
pub fn replay_predictive_full<S, A>(
    seq: &TimedSequence<S, A>,
    conds: &[TimingCondition<S, A>],
    mode: SatisfactionMode,
    horizon: Rat,
) -> (Vec<Violation>, Vec<Warning>, Vec<Forced>)
where
    S: Clone + std::fmt::Debug,
    A: Clone + Eq + std::hash::Hash + std::fmt::Debug,
{
    let mut mon = Monitor::new(conds, seq.first_state()).with_predictor(horizon);
    for (_, a, t, post) in seq.step_triples() {
        mon.observe(a, t, post);
    }
    mon.finish_full(mode)
}

/// Replays `seq` and returns the per-event verdicts (one per event, plus
/// one final verdict for the finish), for callers that care *when* a
/// violation was detected rather than just whether.
pub fn replay_verdicts<S, A>(
    seq: &TimedSequence<S, A>,
    conds: &[TimingCondition<S, A>],
    mode: SatisfactionMode,
) -> Vec<Verdict>
where
    S: Clone + std::fmt::Debug,
    A: Clone + Eq + std::hash::Hash + std::fmt::Debug,
{
    let mut mon = Monitor::new(conds, seq.first_state());
    let mut out = Vec::with_capacity(seq.len() + 1);
    for (_, a, t, post) in seq.step_triples() {
        out.push(mon.observe(a, t, post));
    }
    let already = mon.violations().len();
    let vs = mon.finish(mode);
    out.push(
        vs.into_iter()
            .nth(already)
            .map_or(Verdict::Ok, Verdict::from_violation),
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempo_math::{Interval, Rat};

    fn cond(lo: i64, hi: i64) -> TimingCondition<u8, &'static str> {
        TimingCondition::new("C", Interval::closed(Rat::from(lo), Rat::from(hi)).unwrap())
            .triggered_at_start(|s| *s == 0)
            .on_actions(|a| *a == "fire")
    }

    fn seq(events: &[(&'static str, i64, u8)]) -> TimedSequence<u8, &'static str> {
        let mut s = TimedSequence::new(0);
        for (a, t, post) in events {
            s.push(*a, Rat::from(*t), *post);
        }
        s
    }

    #[test]
    fn replay_matches_offline_on_ok_and_violating_traces() {
        let c = cond(2, 4);
        let ok = seq(&[("noise", 1, 1), ("fire", 3, 2)]);
        assert!(replay(&ok, std::slice::from_ref(&c), SatisfactionMode::Complete).is_empty());
        assert!(replay(&ok, std::slice::from_ref(&c), SatisfactionMode::Prefix).is_empty());

        let early = seq(&[("fire", 1, 1)]);
        let online = replay(&early, std::slice::from_ref(&c), SatisfactionMode::Prefix);
        let offline = tempo_core::violations(&early, &c, SatisfactionMode::Prefix);
        assert_eq!(online, offline);
        assert!(!replay(&early, &[c], SatisfactionMode::Prefix).is_empty());
    }

    #[test]
    fn predictive_replay_adds_warnings_without_changing_violations() {
        let c = cond(0, 4);
        let late = seq(&[("noise", 3, 1), ("noise", 6, 1)]);
        let plain = replay(&late, std::slice::from_ref(&c), SatisfactionMode::Prefix);
        let (violations, warnings, _) = replay_predictive_full(
            &late,
            std::slice::from_ref(&c),
            SatisfactionMode::Prefix,
            Rat::from(2),
        );
        assert_eq!(plain, violations);
        assert_eq!(warnings.len(), 1);
        assert_eq!(warnings[0].deadline, Rat::from(4));
        // Violation-free trace at horizon 0: silent.
        let ok = seq(&[("fire", 2, 1)]);
        let (violations, warnings, _) =
            replay_predictive_full(&ok, &[c], SatisfactionMode::Complete, Rat::ZERO);
        assert!(violations.is_empty());
        assert!(warnings.is_empty());
    }

    #[test]
    fn full_replay_reports_forced_windows() {
        let guarded: TimingCondition<u8, &'static str> =
            TimingCondition::new("G", Interval::closed(Rat::from(10), Rat::from(20)).unwrap())
                .triggered_by_step(|_, a, _| *a == "go")
                .on_actions(|a| *a == "fire");
        let trace = seq(&[("go", 2, 1), ("fire", 14, 1)]);
        let (violations, warnings, forced) = replay_predictive_full(
            &trace,
            std::slice::from_ref(&guarded),
            SatisfactionMode::Complete,
            Rat::from(3),
        );
        assert!(violations.is_empty());
        assert!(warnings.is_empty());
        assert_eq!(forced.len(), 1);
        assert_eq!(forced[0].earliest, Rat::from(12));
        assert_eq!(forced[0].margin, Rat::from(10));
        // Horizon 0 keeps the forced side silent too.
        let (_, _, forced) =
            replay_predictive_full(&trace, &[guarded], SatisfactionMode::Complete, Rat::ZERO);
        assert!(forced.is_empty());
    }

    #[test]
    fn verdicts_locate_the_violation() {
        let c = cond(0, 4);
        let late = seq(&[("noise", 3, 1), ("noise", 5, 1)]);
        let verdicts = replay_verdicts(&late, std::slice::from_ref(&c), SatisfactionMode::Prefix);
        assert_eq!(verdicts.len(), 3); // two events + finish
        assert!(verdicts[0].is_ok());
        assert!(matches!(verdicts[1], Verdict::UpperBoundViolation(_)));
        // In Complete mode an unserved pending deadline surfaces at finish.
        let pending = seq(&[("noise", 3, 1)]);
        let verdicts = replay_verdicts(&pending, &[c], SatisfactionMode::Complete);
        assert!(verdicts[0].is_ok());
        assert!(matches!(verdicts[1], Verdict::UpperBoundViolation(_)));
    }
}
