//! Differential property tests for the action-dispatch tables: a
//! timing condition whose `T_step`/`Π`/disabling components are given as
//! declarative [`ActionSet`]s must behave *identically* to the same
//! condition given as opaque closures — per-event classifications,
//! per-event monitor verdicts, violation lists, and the final verdict all
//! agree, on random traces that deliberately include actions the
//! interner has never seen (exercising the default dispatch row and
//! complement sets). Mixed sets (some conditions declarative, some
//! opaque) pin the fallback masks: the table path and the closure path
//! coexist inside one compiled set.
//!
//! States are `u32` and each event's post-state equals its action, so an
//! opaque *state*-based disabling closure can mirror a declarative
//! *action*-based disabling set exactly. Every compilation is also held
//! to the independent naive reference checker (`support/reference.rs`).

#[path = "support/mod.rs"]
mod support;

use proptest::prelude::*;
use support::oracle::{check_engine, check_violations};
use support::reference::Reference;
use tempo_core::engine::{CompiledConditionSet, EventClassification};
use tempo_core::{ActionSet, SatisfactionMode, TimedSequence, TimingCondition, Violation};
use tempo_math::{Interval, Rat};
use tempo_monitor::Monitor;

/// Actions mentioned by condition sets are drawn from `0..UNIVERSE`;
/// traces also fire actions in `UNIVERSE..UNIVERSE + 4`, which no set
/// ever lists — they dispatch through the default row.
const UNIVERSE: u32 = 8;

/// The start state; outside every action range so no accidental overlap.
const START: u32 = 999;

#[derive(Clone, Debug)]
enum SetSpec {
    Of(Vec<u32>),
    AllExcept(Vec<u32>),
}

impl SetSpec {
    fn to_set(&self) -> ActionSet<u32> {
        match self {
            SetSpec::Of(v) => ActionSet::of(v.iter().copied()),
            SetSpec::AllExcept(v) => ActionSet::all_except(v.iter().copied()),
        }
    }

    fn contains(&self, a: u32) -> bool {
        match self {
            SetSpec::Of(v) => v.contains(&a),
            SetSpec::AllExcept(v) => !v.contains(&a),
        }
    }
}

#[derive(Clone, Debug)]
struct CondSpec {
    lo: i64,
    hi: i64,
    start_trigger: bool,
    trigger: SetSpec,
    pi: SetSpec,
    disabling: SetSpec,
}

impl CondSpec {
    /// The condition with every component declarative.
    fn declarative(&self, name: &str) -> TimingCondition<u32, u32> {
        let mut c = TimingCondition::new(name, self.bounds())
            .triggered_by_actions(self.trigger.to_set())
            .on_action_set(self.pi.to_set())
            .disabled_by_actions(self.disabling.to_set());
        if self.start_trigger {
            c = c.triggered_at_start(|s| *s == START);
        }
        c
    }

    /// The same condition with every component an opaque closure. The
    /// disabling closure reads the post-*state*, which the trace
    /// construction pins to the event's action.
    fn opaque(&self, name: &str) -> TimingCondition<u32, u32> {
        let (tr, pi, dis) = (
            self.trigger.clone(),
            self.pi.clone(),
            self.disabling.clone(),
        );
        let mut c = TimingCondition::new(name, self.bounds())
            .triggered_by_step(move |_, a, _| tr.contains(*a))
            .on_actions(move |a| pi.contains(*a))
            .disabled_in(move |s| dis.contains(*s));
        if self.start_trigger {
            c = c.triggered_at_start(|s| *s == START);
        }
        c
    }

    fn bounds(&self) -> Interval {
        Interval::closed(Rat::from(self.lo), Rat::from(self.hi)).unwrap()
    }
}

fn subset() -> impl Strategy<Value = Vec<u32>> {
    proptest::collection::vec(0..UNIVERSE, 0..4)
}

fn set_spec() -> impl Strategy<Value = SetSpec> {
    (any::<bool>(), subset()).prop_map(|(complement, v)| {
        if complement {
            SetSpec::AllExcept(v)
        } else {
            SetSpec::Of(v)
        }
    })
}

fn cond_spec() -> impl Strategy<Value = CondSpec> {
    (
        0i64..=3,
        0i64..=6,
        any::<bool>(),
        set_spec(),
        set_spec(),
        set_spec(),
    )
        .prop_map(
            |(lo, spread, start_trigger, trigger, pi, disabling)| CondSpec {
                lo,
                // `Interval` rejects hi == 0, so keep point intervals at ≥ 1.
                hi: (lo + spread).max(1),
                start_trigger,
                trigger,
                pi,
                disabling,
            },
        )
}

/// A random trace: each event is `(action, dt)`; times accumulate and
/// the post-state equals the action. Actions range past the interned
/// universe on purpose.
fn trace() -> impl Strategy<Value = Vec<(u32, i64)>> {
    proptest::collection::vec((0..UNIVERSE + 4, 0i64..=3), 0..24)
}

fn to_sequence(events: &[(u32, i64)]) -> TimedSequence<u32, u32> {
    to_sequence_spilling(events, events.len())
}

/// [`to_sequence`] with every time after the first `spill` events
/// shifted by 1/3 off the unit tick grid, moving the stream from ticks
/// to `Rat` at event `spill + 1`.
fn to_sequence_spilling(events: &[(u32, i64)], spill: usize) -> TimedSequence<u32, u32> {
    let mut seq = TimedSequence::new(START);
    let mut t = 0i64;
    for (j, &(a, dt)) in events.iter().enumerate() {
        t += dt;
        let shift = if j < spill { Rat::ZERO } else { Rat::new(1, 3) };
        seq.push(a, Rat::from(t) + shift, a);
    }
    seq
}

fn sorted(vs: &[Violation]) -> Vec<String> {
    let mut keys: Vec<String> = vs.iter().map(|v| format!("{v:?}")).collect();
    keys.sort();
    keys
}

/// Per-event classification bits of `set` over the trace, via the
/// eager [`classify`](CompiledConditionSet::classify) path.
fn classifications(
    set: &CompiledConditionSet<u32, u32>,
    seq: &TimedSequence<u32, u32>,
) -> Vec<Vec<(bool, bool, bool)>> {
    let mut cls = EventClassification::new(set.len());
    let mut out = Vec::new();
    for (pre, a, _, post) in seq.step_triples() {
        set.classify(pre, a, post, &mut cls);
        out.push(
            (0..set.len())
                .map(|ci| (cls.trigger(ci), cls.pi(ci), cls.disabling(ci)))
                .collect(),
        );
    }
    out
}

/// Violations plus the per-event verdict stream of a monitor over `seq`.
fn monitor_outcomes(
    conds: &[TimingCondition<u32, u32>],
    seq: &TimedSequence<u32, u32>,
    mode: SatisfactionMode,
) -> (Vec<Violation>, Vec<String>) {
    let mut mon = Monitor::new(conds, seq.first_state());
    let mut verdicts = Vec::new();
    for (_, a, t, post) in seq.step_triples() {
        verdicts.push(format!("{:?}", mon.observe(a, t, post)));
    }
    (mon.finish(mode), verdicts)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The tentpole equivalence: fully declarative, fully opaque, and
    /// per-condition mixed compilations of the same random condition set
    /// agree event-by-event and end-to-end on random traces.
    #[test]
    fn declarative_and_opaque_dispatch_agree(
        specs in proptest::collection::vec(cond_spec(), 1..6),
        events in trace(),
        mix in proptest::collection::vec(any::<bool>(), 6),
    ) {
        let seq = to_sequence(&events);
        let decl: Vec<_> = specs
            .iter()
            .enumerate()
            .map(|(i, s)| s.declarative(&format!("C{i}")))
            .collect();
        let opaq: Vec<_> = specs
            .iter()
            .enumerate()
            .map(|(i, s)| s.opaque(&format!("C{i}")))
            .collect();
        let mixed: Vec<_> = specs
            .iter()
            .enumerate()
            .map(|(i, s)| {
                if mix[i] {
                    s.declarative(&format!("C{i}"))
                } else {
                    s.opaque(&format!("C{i}"))
                }
            })
            .collect();

        let d_set = CompiledConditionSet::new(&decl);
        let o_set = CompiledConditionSet::new(&opaq);
        let m_set = CompiledConditionSet::new(&mixed);

        // A fully declarative set needs no closure fallback at all; a
        // fully opaque one needs it everywhere.
        let d_stats = d_set.dispatch_stats();
        prop_assert_eq!(
            (d_stats.opaque_trigger, d_stats.opaque_pi, d_stats.opaque_disabling),
            (0, 0, 0)
        );
        let o_stats = o_set.dispatch_stats();
        prop_assert_eq!(o_stats.opaque_trigger, specs.len());
        prop_assert_eq!(o_stats.opaque_pi, specs.len());
        prop_assert_eq!(o_stats.opaque_disabling, specs.len());

        // Event-by-event classification bits agree across compilations.
        let want_cls = classifications(&o_set, &seq);
        prop_assert_eq!(&want_cls, &classifications(&d_set, &seq));
        prop_assert_eq!(&want_cls, &classifications(&m_set, &seq));

        for mode in [SatisfactionMode::Prefix, SatisfactionMode::Complete] {
            // Offline folds (the step_event fused path) agree.
            let want = sorted(&o_set.fold_sequence(&seq, mode));
            prop_assert_eq!(&want, &sorted(&d_set.fold_sequence(&seq, mode)), "mode {:?}", mode);
            prop_assert_eq!(&want, &sorted(&m_set.fold_sequence(&seq, mode)), "mode {:?}", mode);

            // Streaming monitors agree on every verdict and violation.
            let (o_vs, o_verdicts) = monitor_outcomes(&opaq, &seq, mode);
            let (d_vs, d_verdicts) = monitor_outcomes(&decl, &seq, mode);
            let (m_vs, m_verdicts) = monitor_outcomes(&mixed, &seq, mode);
            prop_assert_eq!(&o_verdicts, &d_verdicts);
            prop_assert_eq!(&o_verdicts, &m_verdicts);
            prop_assert_eq!(&sorted(&o_vs), &sorted(&d_vs));
            prop_assert_eq!(&sorted(&o_vs), &sorted(&m_vs));
            // And with the monitors' fused path against the eager
            // classify-then-step fold.
            prop_assert_eq!(&want, &sorted(&o_vs), "mode {:?}", mode);

            // Every compilation says what the definitions say.
            let reference = Reference::new(mode == SatisfactionMode::Prefix).run(&seq, &opaq);
            for set in [&o_set, &d_set, &m_set] {
                check_violations(set, &set.fold_sequence(&seq, mode), &reference)?;
            }
        }
    }

    /// The eager classify-then-step path and the fused step path
    /// produce identical engine logs and states on the declarative
    /// compilation — on ticks, and after the stream moves to `Rat` at a
    /// random prefix — and the fused path agrees with the reference.
    #[test]
    fn classify_step_matches_step_event(
        specs in proptest::collection::vec(cond_spec(), 1..5),
        events in trace(),
        spill in 0usize..24,
    ) {
        let seq = to_sequence_spilling(&events, spill);
        let conds: Vec<_> = specs
            .iter()
            .enumerate()
            .map(|(i, s)| s.declarative(&format!("C{i}")))
            .collect();
        let set = CompiledConditionSet::new(&conds);

        let mut fused = set.start_engine(seq.first_state());
        let mut eager = set.start_engine(seq.first_state());
        let mut cls = EventClassification::new(set.len());
        for (pre, a, t, post) in seq.step_triples() {
            let logged: Vec<String> = set
                .step_engine(&mut fused, pre, a, post, t)
                .iter()
                .map(|e| format!("{e:?}"))
                .collect();
            set.classify(pre, a, post, &mut cls);
            let eager_log: Vec<String> = set
                .step_classified(&mut eager, &cls, t)
                .iter()
                .map(|e| format!("{e:?}"))
                .collect();
            prop_assert_eq!(&logged, &eager_log);
            prop_assert_eq!(fused.open_obligations(), eager.open_obligations());
            prop_assert_eq!(fused.backend(), eager.backend());
        }
        for prefix in [true, false] {
            let want = Reference::new(prefix).run(&seq, &conds);
            check_engine(&set, set.start_engine(seq.first_state()), &seq, prefix, &want)?;
        }
    }
}
