//! The compiled condition engine: **one** obligation stepper under every
//! evaluator of timing-condition semantics.
//!
//! The offline checkers ([`violations`](crate::violations),
//! [`semi_satisfies`](crate::semi_satisfies),
//! [`check_timed_execution`](crate::check_timed_execution)) fold this
//! engine over a [`TimedSequence`]; `tempo-monitor`'s `Monitor` holds
//! one [`EngineImpl`] per stream and feeds it live events. Agreement
//! between them holds by construction — they run the same code.
//!
//! * [`CompiledConditionSet`] interns a condition set once: the `Arc`'d
//!   predicates, the bound table, and — for conditions whose
//!   `T_step`/`Π`/disabling components are declarative [`ActionSet`]s —
//!   an action **interner** (dense `u32` ids) with per-action bitmask
//!   rows (which conditions each action triggers / serves / disables).
//!   Classifying an event against *n* declarative conditions is then one
//!   hash lookup plus a few word-sized table reads instead of *n*
//!   boxed-closure calls; conditions that keep opaque closures are
//!   tracked in per-component fallback masks and only they pay closure
//!   dispatch (see [`DispatchStats`]).
//! * The stepper (Definition 3.1's per-trigger obligations) keeps open
//!   obligations in a struct-of-arrays store with deadline watermarks,
//!   and is generic over its [`TimeDomain`]: `u64` ticks when every
//!   bound fits a common tick grid ([`IntEngineState`]), exact `Rat`s
//!   otherwise ([`EngineState`], also the snapshot form). A stream's
//!   domain follows from its bounds and event times alone; an event time
//!   off the grid re-instantiates the stream in `Rat` losslessly before
//!   the step ([`EngineImpl`]).
//! * Each step returns the event's [`EngineEvent`] log — obligations
//!   opened, discharged, violated, warned about (`Lt`), or forced open
//!   (`Ft`) — from which offline violation lists, monitor verdicts,
//!   metrics, and predictive reports are all derived.

use std::collections::HashMap;
use std::fmt;
use std::hash::Hash;
use std::sync::Arc;

use tempo_math::{Rat, TimeScale};

use crate::satisfaction::{SatisfactionMode, Violation, ViolationKind};
use crate::{ActionSet, TimedSequence, TimingCondition};

// The stepper lives in its own file as a child module, so it shares this
// module's private dispatch carriers (`Classify`, the bitset helpers).
#[path = "engine_int.rs"]
mod int;

use int::Plan;
pub use int::{EngineState, IntEngineState, SoaState, TimeDomain};

/// What an open obligation is waiting for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ObligationKind {
    /// No `Π`-event may occur strictly before `earliest` (unless a
    /// disabling state intervenes first).
    Lower {
        /// The earliest permitted absolute time `t_i + b_l`.
        earliest: Rat,
    },
    /// Some `Π`-event or disabling state must occur at time `≤ deadline`.
    Upper {
        /// The absolute deadline `t_i + b_u`.
        deadline: Rat,
    },
}

/// An open obligation: a trigger whose bound is still live.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Obligation {
    /// Index of the trigger that opened it (0 = start-state trigger,
    /// `i ≥ 1` = step trigger at event `i`), matching the offline
    /// checker's `trigger_index`.
    pub trigger_index: usize,
    /// What the obligation waits for.
    pub kind: ObligationKind,
}

/// The compiled action-dispatch tables of one condition set: an
/// interner from actions to dense ids plus, per interned action, three
/// bitmask rows over the conditions (triggered-by / `Π`-of /
/// disabled-by), precomputed from the conditions' declarative
/// [`ActionSet`]s. Row `ids.len()` is the **default row**, shared by
/// every action the interner has never seen — it carries the bits of
/// complement sets ([`ActionSet::AllExcept`]), which contain almost
/// every action.
///
/// Conditions whose component was built from an opaque closure instead
/// of a set have their bit in the corresponding `opaque_*` fallback
/// mask; classification ORs the table row with the closure results for
/// exactly those conditions.
struct Dispatch<A> {
    /// Interned ids of every action listed by some declarative set.
    ids: HashMap<A, u32>,
    /// Bitset words per row (`conditions.div_ceil(64)`).
    words: usize,
    /// `(ids.len() + 1) × words` rows: which conditions each action
    /// `T_step`-triggers.
    trigger: Vec<u64>,
    /// Which conditions' `Π` contain each action.
    pi: Vec<u64>,
    /// Which conditions each action disables.
    disabling: Vec<u64>,
    /// Conditions whose `T_step` is an opaque step predicate.
    opaque_trigger: Vec<u64>,
    /// Conditions whose `Π` is an opaque action predicate.
    opaque_pi: Vec<u64>,
    /// Conditions whose disabling set is an opaque *state* predicate.
    opaque_disabling: Vec<u64>,
    /// Whether any table row carries a bit at all. A fully opaque set
    /// (and one whose declarative sets are all empty) has none — the
    /// stepper then skips the word-mask scans entirely and runs the
    /// plain per-condition loop, so closure-only sets pay nothing for
    /// the dispatch machinery they don't use.
    dense: bool,
}

impl<A: Clone + Eq + Hash> Dispatch<A> {
    fn build<S>(conds: &[TimingCondition<S, A>]) -> Dispatch<A> {
        let words = conds.len().div_ceil(64).max(1);
        // Pass 1: intern every action any declarative set mentions.
        let mut ids: HashMap<A, u32> = HashMap::new();
        for c in conds {
            for set in [c.trigger_set(), c.pi_set(), c.disabling_set()]
                .into_iter()
                .flatten()
            {
                for a in set.listed() {
                    let next = ids.len() as u32;
                    ids.entry(a.clone()).or_insert(next);
                }
            }
        }
        let rows = ids.len() + 1; // + the default row
        let mut d = Dispatch {
            ids,
            words,
            trigger: vec![0; rows * words],
            pi: vec![0; rows * words],
            disabling: vec![0; rows * words],
            opaque_trigger: vec![0; words],
            opaque_pi: vec![0; words],
            opaque_disabling: vec![0; words],
            dense: false,
        };
        // Pass 2: fill each component's column for every condition.
        for (ci, c) in conds.iter().enumerate() {
            Dispatch::fill(
                &d.ids,
                words,
                &mut d.trigger,
                &mut d.opaque_trigger,
                ci,
                c.trigger_set(),
            );
            Dispatch::fill(&d.ids, words, &mut d.pi, &mut d.opaque_pi, ci, c.pi_set());
            Dispatch::fill(
                &d.ids,
                words,
                &mut d.disabling,
                &mut d.opaque_disabling,
                ci,
                c.disabling_set(),
            );
        }
        d.dense = [&d.trigger, &d.pi, &d.disabling]
            .iter()
            .any(|t| t.iter().any(|&w| w != 0));
        d
    }

    /// Sets condition `ci`'s bit in the rows its set dictates (or in the
    /// opaque fallback mask when there is no set).
    fn fill(
        ids: &HashMap<A, u32>,
        words: usize,
        table: &mut [u64],
        opaque: &mut [u64],
        ci: usize,
        set: Option<&ActionSet<A>>,
    ) {
        match set {
            None => bit_set(opaque, ci),
            Some(ActionSet::Of(list)) => {
                for a in list {
                    let row = ids[a] as usize;
                    bit_set(&mut table[row * words..(row + 1) * words], ci);
                }
            }
            Some(ActionSet::AllExcept(list)) => {
                // Every row — the default row included — gets the bit,
                // then the listed exceptions lose it again.
                let rows = table.len() / words;
                for row in 0..rows {
                    bit_set(&mut table[row * words..(row + 1) * words], ci);
                }
                for a in list {
                    let row = ids[a] as usize;
                    bit_clear(&mut table[row * words..(row + 1) * words], ci);
                }
            }
        }
    }
}

impl<A: Eq + Hash> Dispatch<A> {
    /// The row index for `a`: its interned id, or the default row for an
    /// action no declarative set ever listed. When nothing is interned
    /// at all (a fully opaque set) the lookup — including the hash — is
    /// skipped entirely.
    #[inline]
    fn row_of(&self, a: &A) -> usize {
        if self.ids.is_empty() {
            0
        } else {
            self.ids.get(a).map_or(self.ids.len(), |&i| i as usize)
        }
    }
}

impl<A> Dispatch<A> {
    #[inline]
    fn trigger_row(&self, row: usize) -> &[u64] {
        &self.trigger[row * self.words..(row + 1) * self.words]
    }

    #[inline]
    fn pi_row(&self, row: usize) -> &[u64] {
        &self.pi[row * self.words..(row + 1) * self.words]
    }

    #[inline]
    fn disabling_row(&self, row: usize) -> &[u64] {
        &self.disabling[row * self.words..(row + 1) * self.words]
    }
}

/// How a [`CompiledConditionSet`] will dispatch events: how many actions
/// were interned and how many conditions fall back to opaque closures
/// per component (see [`CompiledConditionSet::dispatch_stats`]). A
/// fully declarative set has all three opaque counts at zero — its
/// per-event classification cost is independent of the condition count.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DispatchStats {
    /// Conditions in the set.
    pub conditions: usize,
    /// Distinct actions interned from declarative sets.
    pub interned_actions: usize,
    /// Conditions whose `T_step` needs the closure fallback.
    pub opaque_trigger: usize,
    /// Conditions whose `Π` needs the closure fallback.
    pub opaque_pi: usize,
    /// Conditions whose disabling set needs the closure fallback.
    pub opaque_disabling: usize,
}

/// The per-event digest shared by every consumer: for each condition,
/// whether the event's action is in `Π`, whether its post-state is
/// disabling, and whether the step is a `T_step` trigger. Three dense
/// bitsets, filled once per event by
/// [`CompiledConditionSet::classify`] (or by hand for non-condition
/// sources such as boundmap classes) and then read by
/// [`CompiledConditionSet::step_classified`].
#[derive(Clone, Debug, Default)]
pub struct EventClassification {
    pi: Vec<u64>,
    disabling: Vec<u64>,
    trigger: Vec<u64>,
}

#[inline]
fn bit_get(words: &[u64], i: usize) -> bool {
    words[i / 64] & (1u64 << (i % 64)) != 0
}

#[inline]
fn bit_set(words: &mut [u64], i: usize) {
    words[i / 64] |= 1u64 << (i % 64);
}

#[inline]
fn bit_clear(words: &mut [u64], i: usize) {
    words[i / 64] &= !(1u64 << (i % 64));
}

impl EventClassification {
    /// An all-clear classification sized for `conditions` conditions.
    pub fn new(conditions: usize) -> EventClassification {
        let words = conditions.div_ceil(64);
        EventClassification {
            pi: vec![0; words],
            disabling: vec![0; words],
            trigger: vec![0; words],
        }
    }

    /// Clears every bit (reuse the buffers between events).
    #[inline]
    pub fn clear(&mut self) {
        self.pi.fill(0);
        self.disabling.fill(0);
        self.trigger.fill(0);
    }

    /// Marks condition `ci`'s action set `Π` as containing the event's
    /// action.
    #[inline]
    pub fn set_pi(&mut self, ci: usize) {
        bit_set(&mut self.pi, ci);
    }

    /// Marks the event's post-state as disabling for condition `ci`.
    #[inline]
    pub fn set_disabling(&mut self, ci: usize) {
        bit_set(&mut self.disabling, ci);
    }

    /// Marks the event as a `T_step` trigger of condition `ci`.
    #[inline]
    pub fn set_trigger(&mut self, ci: usize) {
        bit_set(&mut self.trigger, ci);
    }

    /// Whether the event's action is in condition `ci`'s `Π`.
    #[inline]
    pub fn pi(&self, ci: usize) -> bool {
        bit_get(&self.pi, ci)
    }

    /// Whether the event's post-state is disabling for condition `ci`.
    #[inline]
    pub fn disabling(&self, ci: usize) -> bool {
        bit_get(&self.disabling, ci)
    }

    /// Whether the event is a `T_step` trigger of condition `ci`.
    #[inline]
    pub fn trigger(&self, ci: usize) -> bool {
        bit_get(&self.trigger, ci)
    }
}

/// How the stepper learns one event's per-condition classification:
/// either precomputed bitsets ([`EventClassification`], filled by a
/// caller that classifies by some other key, e.g. boundmap classes) or
/// lazily, straight off the condition predicates — the streaming hot
/// path, where `Π`/disabling are only consulted for conditions that
/// actually hold open obligations.
pub(crate) trait Classify {
    /// Whether the event's action is in condition `ci`'s `Π`.
    fn pi(&self, ci: usize) -> bool;
    /// Whether the event's post-state is disabling for condition `ci`.
    fn disabling(&self, ci: usize) -> bool;
    /// Whether the event is a `T_step` trigger of condition `ci` — the
    /// open phase's per-condition scan for sets without table bits.
    fn trigger(&self, ci: usize) -> bool;
    /// The whole `w`-th 64-condition word of trigger bits at once — the
    /// open phase of a set with table bits iterates these words, so
    /// an event that triggers nothing costs one word read per 64
    /// conditions.
    fn trigger_word(&self, w: usize) -> u64;
}

impl Classify for EventClassification {
    #[inline]
    fn pi(&self, ci: usize) -> bool {
        bit_get(&self.pi, ci)
    }
    #[inline]
    fn disabling(&self, ci: usize) -> bool {
        bit_get(&self.disabling, ci)
    }
    #[inline]
    fn trigger(&self, ci: usize) -> bool {
        bit_get(&self.trigger, ci)
    }
    #[inline]
    fn trigger_word(&self, w: usize) -> u64 {
        self.trigger[w]
    }
}

/// Lazy classification of one live event against the compiled dispatch
/// tables, with closure fallback for the opaque conditions (see
/// [`CompiledConditionSet::step_engine`]). The event action's dispatch
/// row is resolved **once**, when the event is built: the three `*_row`
/// slices below are that row's table words, so the per-condition checks
/// are plain indexed bit reads.
struct LiveEvent<'e, S, A> {
    conds: &'e [TimingCondition<S, A>],
    dispatch: &'e Dispatch<A>,
    trigger_row: &'e [u64],
    pi_row: &'e [u64],
    disabling_row: &'e [u64],
    pre: &'e S,
    action: &'e A,
    post: &'e S,
}

impl<'e, S, A> LiveEvent<'e, S, A> {
    fn new(
        conds: &'e [TimingCondition<S, A>],
        dispatch: &'e Dispatch<A>,
        pre: &'e S,
        action: &'e A,
        post: &'e S,
    ) -> LiveEvent<'e, S, A>
    where
        A: Eq + Hash,
    {
        let row = dispatch.row_of(action);
        LiveEvent {
            conds,
            dispatch,
            trigger_row: dispatch.trigger_row(row),
            pi_row: dispatch.pi_row(row),
            disabling_row: dispatch.disabling_row(row),
            pre,
            action,
            post,
        }
    }
}

impl<S, A: PartialEq> Classify for LiveEvent<'_, S, A> {
    #[inline]
    fn pi(&self, ci: usize) -> bool {
        if bit_get(&self.dispatch.opaque_pi, ci) {
            self.conds[ci].in_pi(self.action)
        } else {
            bit_get(self.pi_row, ci)
        }
    }
    #[inline]
    fn disabling(&self, ci: usize) -> bool {
        if bit_get(&self.dispatch.opaque_disabling, ci) {
            // Opaque disabling is a *state* predicate on the post-state
            // (a declarative set would have table bits instead).
            self.conds[ci].in_disabling(self.post)
        } else {
            bit_get(self.disabling_row, ci)
        }
    }
    #[inline]
    fn trigger(&self, ci: usize) -> bool {
        if bit_get(&self.dispatch.opaque_trigger, ci) {
            self.conds[ci].in_t_step(self.pre, self.action, self.post)
        } else {
            bit_get(self.trigger_row, ci)
        }
    }
    #[inline]
    fn trigger_word(&self, w: usize) -> u64 {
        let mut word = self.trigger_row[w];
        // OR in the opaque conditions whose step predicate fires; the
        // build only sets in-range bits, so `ci` indexes directly.
        let mut opaque = self.dispatch.opaque_trigger[w];
        while opaque != 0 {
            let b = opaque.trailing_zeros();
            opaque &= opaque - 1;
            let ci = w * 64 + b as usize;
            if self.conds[ci].in_t_step(self.pre, self.action, self.post) {
                word |= 1u64 << b;
            }
        }
        word
    }
}

/// Direct classification of one live event, with no dispatch-table
/// reads: every query goes straight to the condition's predicates. The
/// declarative builders install derived closures alongside their sets,
/// so answering through the condition is always correct — the tables
/// are purely the faster route when they are populated. A sparse set
/// (`Dispatch::dense == false`) has nothing in its tables, so
/// [`CompiledConditionSet::step_engine`] classifies through this
/// deliberately minimal carrier instead: per event it costs exactly
/// what the pre-dispatch engine paid, one closure call per query.
struct DirectEvent<'e, S, A> {
    conds: &'e [TimingCondition<S, A>],
    pre: &'e S,
    action: &'e A,
    post: &'e S,
}

impl<S, A> Classify for DirectEvent<'_, S, A> {
    #[inline]
    fn pi(&self, ci: usize) -> bool {
        self.conds[ci].in_pi(self.action)
    }
    #[inline]
    fn disabling(&self, ci: usize) -> bool {
        // A non-empty declarative disabling set would have table bits,
        // making the set dense — so here every declarative set is empty
        // and its (reset) state closure returns `false`, exactly what
        // `in_disabling_event` would answer. Only opaque state
        // predicates can fire.
        self.conds[ci].in_disabling(self.post)
    }
    #[inline]
    fn trigger(&self, ci: usize) -> bool {
        self.conds[ci].in_t_step(self.pre, self.action, self.post)
    }
    #[inline]
    fn trigger_word(&self, w: usize) -> u64 {
        // Only sets with table bits read trigger words, and a sparse
        // set never does; answer correctly anyway.
        let mut word = 0;
        for b in 0..64 {
            let ci = w * 64 + b;
            if ci >= self.conds.len() {
                break;
            }
            if self.trigger(ci) {
                word |= 1u64 << b;
            }
        }
        word
    }
}

/// One entry of the event log produced by a step: an obligation
/// opened, discharged, or violated. Consumers (the offline fold, the
/// monitor's verdicts and metrics, the predictor's warnings) are all
/// driven from this log, so none keeps obligation bookkeeping of its
/// own.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EngineEvent {
    /// A trigger opened a new obligation at trigger time `t_i`.
    Opened {
        /// Condition index within the compiled set.
        ci: usize,
        /// The freshly opened obligation.
        obligation: Obligation,
        /// Absolute time of the trigger that opened it.
        t_i: Rat,
    },
    /// An obligation was discharged — it can no longer be violated.
    Discharged {
        /// Condition index within the compiled set.
        ci: usize,
        /// The discharged obligation.
        obligation: Obligation,
    },
    /// An obligation was violated; `kind` carries the full offline
    /// [`ViolationKind`] payload (trigger index, deadline/earliest, and
    /// for lower bounds the offending event index).
    Violated {
        /// Condition index within the compiled set.
        ci: usize,
        /// The violation, exactly as the offline checker reports it.
        kind: ViolationKind,
    },
    /// An open deadline crossed its warning point `max(deadline −
    /// horizon, t_i)` without being served — the `Lt(U)` half of
    /// predictive tracking. Emitted at most once per obligation, by the
    /// first event *strictly* past the warning point, ahead of that
    /// event's resolutions — so a deadline that blows in one time jump
    /// still gets its warning before the violation. Only emitted while
    /// a warning horizon is attached (see
    /// [`CompiledConditionSet::adopt_state_predictive`]).
    Warned {
        /// Condition index within the compiled set.
        ci: usize,
        /// Index of the trigger that opened the deadline.
        trigger_index: usize,
        /// The absolute deadline `t_i + b_u`.
        deadline: Rat,
        /// The absolute warning point that was crossed.
        warn_at: Rat,
    },
    /// A freshly opened lower window forces the condition's `Π`-actions
    /// to stay away for at least the attached horizon — the `Ft(U)`
    /// half ("this GRANT cannot legally arrive for another 3 ticks").
    /// Emitted exactly once, by the trigger event that opens the
    /// window, when `margin = b_l ≥ horizon > 0`; horizon 0 therefore
    /// requests no forced reports at all. The window is absolute and
    /// fixed at open time, so resuming a snapshot or carrying the
    /// obligation across a spec reload never re-reports it.
    Forced {
        /// Condition index within the compiled set.
        ci: usize,
        /// Index of the trigger that opened the window.
        trigger_index: usize,
        /// The earliest legal occurrence `t_i + b_l`.
        earliest: Rat,
        /// Absolute time of the trigger that opened the window.
        t_i: Rat,
        /// The forced wait `earliest − t_i = b_l`.
        margin: Rat,
    },
}

/// Which time domain a stream's stepper is running in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EngineBackend {
    /// Exact `Rat`s ([`EngineState`]): always available.
    Exact,
    /// `u64` ticks ([`IntEngineState`]): bounds and times scaled onto a
    /// common tick grid. Taken whenever every bound fits the grid;
    /// verdicts are identical to [`EngineBackend::Exact`] by
    /// construction (conversion is exact or refused, never rounded).
    Int,
}

/// A stream's engine state, in whichever time domain it is running —
/// the handle `tempo-monitor`'s `Monitor` and the offline folds thread
/// through the stepper.
///
/// Snapshots always materialize as the exact [`EngineState`]
/// ([`EngineImpl::snapshot`]) — ticks convert losslessly — so
/// serialization, hot-reload remapping, and resume are domain-agnostic:
/// a snapshot taken in one domain resumes in either.
#[derive(Clone, Debug)]
pub enum EngineImpl {
    /// Running on exact `Rat`s.
    Exact(EngineState),
    /// Running on `u64` ticks.
    Int(IntEngineState),
}

/// Forwards a read-only accessor to whichever instantiation is running.
macro_rules! either {
    ($self:expr, $st:ident => $e:expr) => {
        match $self {
            EngineImpl::Exact($st) => $e,
            EngineImpl::Int($st) => $e,
        }
    };
}

impl EngineImpl {
    /// Which time domain this state is currently in. A stream that
    /// started on [`EngineBackend::Int`] reports [`EngineBackend::Exact`]
    /// after an event time its tick grid could not represent.
    pub fn backend(&self) -> EngineBackend {
        match self {
            EngineImpl::Exact(_) => EngineBackend::Exact,
            EngineImpl::Int(_) => EngineBackend::Int,
        }
    }

    /// Number of conditions this state tracks.
    pub fn conditions(&self) -> usize {
        either!(self, st => st.conditions())
    }

    /// Number of events stepped so far.
    pub fn events_seen(&self) -> usize {
        either!(self, st => st.events_seen())
    }

    /// Time of the last stepped event (0 before any event).
    pub fn last_time(&self) -> Rat {
        either!(self, st => st.last_time())
    }

    /// Total number of currently open obligations.
    pub fn open_obligations(&self) -> usize {
        either!(self, st => st.open_obligations())
    }

    /// The open obligations of condition `ci`, in the exact domain,
    /// ordered by (trigger, window before deadline).
    pub fn open_of(&self, ci: usize) -> Vec<Obligation> {
        either!(self, st => st.open_of(ci))
    }

    /// The attached warning horizon, if prediction is on.
    pub fn horizon(&self) -> Option<Rat> {
        either!(self, st => st.horizon())
    }

    /// The earliest open deadline, if any deadline is open:
    /// `min_deadline − last_time` is the stream's minimum upper-bound
    /// slack. O(1) in both domains: read off the deadline watermark.
    pub fn min_deadline(&self) -> Option<Rat> {
        either!(self, st => st.min_deadline())
    }

    /// Turns obligation-lifecycle logging on or off (see
    /// [`SoaState::set_log_lifecycle`]).
    pub fn set_log_lifecycle(&mut self, on: bool) {
        either!(self, st => st.set_log_lifecycle(on))
    }

    /// The reusable event-log buffer, drained in place by the folds.
    fn events_mut(&mut self) -> &mut Vec<EngineEvent> {
        either!(self, st => st.events_mut())
    }

    /// A domain-agnostic snapshot of the logical state, as the exact
    /// [`EngineState`]: the serializable, remappable, resumable form.
    pub fn snapshot(&self) -> EngineState {
        match self {
            EngineImpl::Exact(st) => st.clone(),
            EngineImpl::Int(st) => st.rescale(()).expect("ticks convert exactly"),
        }
    }

    /// Like [`snapshot`](EngineImpl::snapshot), consuming self (no
    /// clone in the exact domain) — the hot-reload remap path.
    pub fn into_exact(self) -> EngineState {
        match self {
            EngineImpl::Exact(st) => st,
            EngineImpl::Int(st) => st.rescale(()).expect("ticks convert exactly"),
        }
    }
}

impl Default for EngineImpl {
    /// An exact state tracking no conditions.
    fn default() -> EngineImpl {
        EngineImpl::Exact(EngineState::default())
    }
}

/// A bound table compiled for stepping: the exact plan every stream can
/// run on, plus its `u64`-tick lowering when every bound fits a common
/// grid. Shared by [`CompiledConditionSet`] and the boundmap checker,
/// which classifies by partition class instead of by condition.
#[derive(Clone, Debug)]
pub(crate) struct EnginePlan {
    exact: Plan<Rat>,
    int: Option<Plan<u64>>,
}

impl EnginePlan {
    /// Compiles `(b_l, finite b_u, lower escape)` triples, one per
    /// condition.
    pub(crate) fn new(bounds: impl IntoIterator<Item = (Rat, Option<Rat>, bool)>) -> EnginePlan {
        let exact = Plan::new(bounds);
        EnginePlan {
            int: exact.to_ticks(),
            exact,
        }
    }

    /// A fresh state for `conditions` conditions with the start-state
    /// triggers (index 0, time 0) of every `ci` with `starts(ci)` open:
    /// on ticks when the plan lowers onto a grid, exact otherwise.
    pub(crate) fn start(&self, conditions: usize, starts: impl Fn(usize) -> bool) -> EngineImpl {
        let mut st = match &self.int {
            Some(p) => {
                let mut st = IntEngineState::empty(conditions, p.scale);
                (0..conditions)
                    .filter(|&ci| starts(ci))
                    .for_each(|ci| st.open_trigger(p, ci, 0, 0));
                EngineImpl::Int(st)
            }
            None => {
                let mut st = EngineState::new(conditions);
                (0..conditions)
                    .filter(|&ci| starts(ci))
                    .for_each(|ci| st.open_trigger(&self.exact, ci, 0, Rat::ZERO));
                EngineImpl::Exact(st)
            }
        };
        st.events_mut().clear();
        st
    }

    /// Adopts an exact state as is, onto ticks when the plan, the
    /// horizon, and every open time fit the grid.
    pub(crate) fn adopt(&self, st: EngineState) -> EngineImpl {
        match self.int.as_ref().and_then(|p| st.rescale(p.scale)) {
            Some(int) => EngineImpl::Int(int),
            None => EngineImpl::Exact(st),
        }
    }

    /// Steps one classified event. On ticks, an event time off the grid
    /// (or without overflow headroom) re-instantiates the state in
    /// `Rat` first — before any mutation, so a step is never partial.
    #[inline(always)]
    pub(crate) fn step<'a, C: Classify>(
        &self,
        st: &'a mut EngineImpl,
        cls: &C,
        time: Rat,
        dense: bool,
    ) -> &'a [EngineEvent] {
        let ticks = match (&*st, &self.int) {
            (EngineImpl::Int(_), Some(p)) => p
                .scale
                .to_ticks(time)
                .filter(|&t| t < u64::MAX - p.max_bound),
            _ => None,
        };
        if ticks.is_none() {
            if let EngineImpl::Int(ist) = &*st {
                *st = EngineImpl::Exact(ist.rescale(()).expect("ticks convert exactly"));
            }
        }
        match st {
            EngineImpl::Int(ist) => int::step(
                self.int.as_ref().expect("a tick state needs a tick plan"),
                ist,
                cls,
                ticks.expect("checked above"),
                dense,
            ),
            EngineImpl::Exact(est) => int::step(&self.exact, est, cls, time, dense),
        }
    }

    /// Ends the stream (see [`CompiledConditionSet::finish_engine`]).
    pub(crate) fn finish<'a>(
        &self,
        st: &'a mut EngineImpl,
        mode: SatisfactionMode,
    ) -> &'a [EngineEvent] {
        match st {
            EngineImpl::Exact(est) => int::finish(est, mode),
            EngineImpl::Int(ist) => int::finish(ist, mode),
        }
    }
}

/// A set of timing conditions compiled for shared evaluation: the
/// interned predicates plus the bound tables the obligation stepper
/// reads. One compiled set serves any number of concurrent
/// [`EngineImpl`]s (streams), so a pool of monitors compiles its
/// conditions exactly once.
///
/// This is the engine behind every evaluator of Definition 3.1:
/// [`violations`](crate::violations)/[`semi_satisfies`](crate::semi_satisfies)
/// fold it over a recorded [`TimedSequence`], and `tempo-monitor`'s
/// `Monitor` feeds it live events one at a time.
///
/// # Example
///
/// ```
/// use tempo_core::engine::{CompiledConditionSet, EngineEvent, EventClassification};
/// use tempo_core::TimingCondition;
/// use tempo_math::{Interval, Rat};
///
/// let cond: TimingCondition<u32, &str> =
///     TimingCondition::new("RESP", Interval::closed(Rat::ONE, Rat::from(5)).unwrap())
///         .triggered_by_step(|_, a, _| *a == "REQ")
///         .on_actions(|a| *a == "GRANT");
/// let set = CompiledConditionSet::new(&[cond]);
/// let mut st = set.start_engine(&0);
/// let mut cls = EventClassification::new(set.len());
///
/// set.classify(&0, &"REQ", &1, &mut cls);
/// let opened = set.step_classified(&mut st, &cls, Rat::from(2)).len();
/// assert_eq!(opened, 2); // lower window + deadline
///
/// // The fused path classifies on the fly.
/// for ev in set.step_engine(&mut st, &1, &"GRANT", &0, Rat::from(4)) {
///     assert!(matches!(ev, EngineEvent::Discharged { .. }));
/// }
/// assert_eq!(st.open_obligations(), 0);
/// ```
pub struct CompiledConditionSet<S, A> {
    conds: Vec<TimingCondition<S, A>>,
    plan: EnginePlan,
    dispatch: Dispatch<A>,
    /// Condition names as shared strings: verdict payloads clone the
    /// `Arc`, never the bytes.
    names: Vec<Arc<str>>,
    /// Per-condition human-readable label of the `Π` action set, for
    /// forced-window reports ("this GRANT cannot legally arrive yet").
    pi_labels: Vec<Arc<str>>,
}

impl<S, A> fmt::Debug for CompiledConditionSet<S, A> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CompiledConditionSet")
            .field("conditions", &self.conds.len())
            .finish()
    }
}

impl<S, A: Clone + Eq + Hash + fmt::Debug> CompiledConditionSet<S, A> {
    /// Compiles `conds`: caches each condition's `b_l`/finite `b_u` in a
    /// bound table (lowered onto a `u64` tick grid when one fits),
    /// interns the (cheaply cloned, `Arc`'d) predicates, and builds the
    /// action-dispatch tables — every action mentioned by a declarative
    /// [`ActionSet`] gets a dense `u32` id and a bitmask row over the
    /// conditions, so classification cost scales with the conditions
    /// *relevant to* an action, not the set size.
    pub fn new(conds: &[TimingCondition<S, A>]) -> CompiledConditionSet<S, A> {
        CompiledConditionSet {
            plan: EnginePlan::new(conds.iter().map(|c| (c.lower(), c.upper().finite(), true))),
            dispatch: Dispatch::build(conds),
            names: conds.iter().map(|c| Arc::from(c.name())).collect(),
            pi_labels: conds.iter().map(pi_label).collect(),
            conds: conds.to_vec(),
        }
    }
}

/// Renders a condition's `Π` component as a short shared label for
/// forced-window reports: the listed actions of a declarative set
/// (`"GRANT"`, `"ack|nack"`, complements as `"not(tick)"`), or `"π"`
/// for an opaque predicate that cannot be enumerated.
fn pi_label<S, A: fmt::Debug>(c: &TimingCondition<S, A>) -> Arc<str> {
    fn join<A: fmt::Debug>(list: &[A]) -> String {
        let parts: Vec<String> = list
            .iter()
            .map(|a| format!("{a:?}").trim_matches('"').to_string())
            .collect();
        if parts.is_empty() {
            "∅".to_string()
        } else {
            parts.join("|")
        }
    }
    match c.pi_set() {
        Some(ActionSet::Of(list)) => join(list).into(),
        Some(ActionSet::AllExcept(list)) => format!("not({})", join(list)).into(),
        None => "π".into(),
    }
}

impl<S, A> CompiledConditionSet<S, A> {
    /// Number of conditions in the set.
    pub fn len(&self) -> usize {
        self.conds.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.conds.is_empty()
    }

    /// The compiled conditions, in index order.
    pub fn conditions(&self) -> &[TimingCondition<S, A>] {
        &self.conds
    }

    /// The name of condition `ci`.
    pub fn name(&self, ci: usize) -> &str {
        self.conds[ci].name()
    }

    /// The index of the first condition named `name`, if any. Hot
    /// reload identifies conditions across spec revisions by name, so
    /// this is the lookup behind the obligation carry map.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.conds.iter().position(|c| c.name() == name)
    }

    /// Cached finite upper bound `b_u` of condition `ci` (`None` for ∞).
    pub fn upper(&self, ci: usize) -> Option<Rat> {
        self.plan.exact.upper(ci)
    }

    /// The name of condition `ci` as a cheaply clonable shared string —
    /// warning/forced verdict payloads clone the `Arc`, not the bytes.
    pub fn shared_name(&self, ci: usize) -> &Arc<str> {
        &self.names[ci]
    }

    /// A human-readable label of condition `ci`'s `Π` action set, for
    /// forced-window reports: the listed actions of a declarative set
    /// (complements as `not(...)`), `"π"` for an opaque predicate.
    pub fn action_label(&self, ci: usize) -> &Arc<str> {
        &self.pi_labels[ci]
    }

    /// Whether every bound of this set fits a common `u64` tick grid —
    /// i.e. whether streams start on [`EngineBackend::Int`]. Sets with
    /// bounds off every grid (denominator LCM overflow, oversized
    /// bounds) run exact.
    pub fn int_capable(&self) -> bool {
        self.plan.int.is_some()
    }

    /// The tick grid of the set's `u64` plan, when
    /// [`int_capable`](CompiledConditionSet::int_capable): a
    /// denominator of 1 means all bounds were integral and conversion
    /// is a bare cast.
    pub fn int_scale(&self) -> Option<TimeScale> {
        self.plan.int.as_ref().map(|p| p.scale)
    }

    /// The domain [`start_engine`](CompiledConditionSet::start_engine)
    /// starts streams in: [`EngineBackend::Int`] iff the set is
    /// [`int_capable`](CompiledConditionSet::int_capable).
    pub fn backend(&self) -> EngineBackend {
        if self.int_capable() {
            EngineBackend::Int
        } else {
            EngineBackend::Exact
        }
    }

    /// A fresh stream state with the start-state obligations open:
    /// every condition whose `T_start` contains `start` triggers at
    /// index 0, time 0 (Definition 3.1's start-state trigger).
    pub fn start_engine(&self, start: &S) -> EngineImpl {
        self.plan
            .start(self.conds.len(), |ci| self.conds[ci].in_t_start(start))
    }

    /// Adopts a snapshot (an exact [`EngineState`], from
    /// [`EngineImpl::snapshot`] or a deserialized stream): onto ticks
    /// when the set is int-capable **and** every open obligation's time
    /// converts exactly to its grid, exact otherwise. Either way the
    /// logical state is identical — this is what makes snapshots
    /// round-trip across domains. The predictive state (horizon,
    /// warning points) is carried verbatim.
    pub fn adopt_state(&self, st: EngineState) -> EngineImpl {
        self.plan.adopt(st)
    }

    /// [`adopt_state`](CompiledConditionSet::adopt_state) with a warning
    /// horizon attached: the adopted engine emits
    /// [`EngineEvent::Warned`]/[`EngineEvent::Forced`] predictive
    /// outcomes natively (`None` detaches prediction). Warning points
    /// for already-open deadlines are reconstructed from the compiled
    /// bounds, and points the stream had already passed stay silent —
    /// resuming never re-warns. Ticks additionally require the horizon
    /// to fit the grid.
    pub fn adopt_state_predictive(&self, mut st: EngineState, horizon: Option<Rat>) -> EngineImpl {
        st.arm(&self.plan.exact, horizon);
        self.plan.adopt(st)
    }

    /// [`start_engine`](CompiledConditionSet::start_engine) with a
    /// warning horizon attached from the first event on.
    pub fn start_engine_predictive(&self, start: &S, horizon: Option<Rat>) -> EngineImpl {
        let st = self.start_engine(start);
        if horizon.is_none() {
            return st;
        }
        self.adopt_state_predictive(st.into_exact(), horizon)
    }

    /// `Ft` read-out: the earliest time at which `action` could next
    /// legally occur, given the open lower windows whose `Π` contains
    /// it — `None` when no open window constrains it. This is the
    /// query form of [`EngineEvent::Forced`]: the dispatch tables key
    /// the per-action `Π` rows, and the answer is the largest `earliest`
    /// still ahead of the stream clock. (As with Definition 3.1's lower
    /// bound, an intervening disabling state would lift the constraint
    /// early.)
    pub fn earliest_legal(&self, st: &EngineImpl, action: &A) -> Option<Rat>
    where
        A: Eq + Hash,
    {
        let now = st.last_time();
        let row = self.dispatch.row_of(action);
        let pi_row = self.dispatch.pi_row(row);
        let mut latest: Option<Rat> = None;
        let mut fold = |ci: usize, earliest: Rat| {
            if earliest <= now {
                return;
            }
            let in_pi = if bit_get(&self.dispatch.opaque_pi, ci) {
                self.conds[ci].in_pi(action)
            } else {
                bit_get(pi_row, ci)
            };
            if in_pi {
                latest = Some(match latest {
                    Some(l) if l >= earliest => l,
                    _ => earliest,
                });
            }
        };
        either!(st, s => s.for_each_open_lower(&mut fold));
        latest
    }

    /// Steps one live event — pre-state, action, post-state at
    /// (nondecreasing) absolute `time` — fusing classification into the
    /// stepping pass: `Π` and disabling are only evaluated for
    /// conditions that hold open obligations. Exactly equivalent to
    /// [`classify`](CompiledConditionSet::classify) followed by
    /// [`step_classified`](CompiledConditionSet::step_classified) —
    /// this is the streaming monitor's and the offline folds'
    /// per-event path. On ticks, an event time outside the grid
    /// re-instantiates the state in `Rat` (losslessly, before any
    /// mutation) and the stream continues there with identical
    /// semantics.
    ///
    /// `inline(always)`: per-event consumers (the offline fold, the
    /// monitor's observe loop) must absorb this body so the loop state
    /// stays in registers across events; an outlined call here measured
    /// ~10 ns/event on the E12 pulse stream.
    ///
    /// # Panics
    ///
    /// Panics if `time` decreases below `st`'s last stepped time.
    #[inline(always)]
    pub fn step_engine<'a>(
        &self,
        st: &'a mut EngineImpl,
        pre: &S,
        action: &A,
        post: &S,
        time: Rat,
    ) -> &'a [EngineEvent]
    where
        A: Eq + Hash,
    {
        if self.dispatch.dense {
            // One interner lookup per event; every per-condition check
            // is then a table-bit read (or a closure call for the
            // tracked opaque subset).
            let live = LiveEvent::new(&self.conds, &self.dispatch, pre, action, post);
            self.plan.step(st, &live, time, true)
        } else {
            // Nothing in the tables: skip the row lookup and the mask
            // scans entirely and classify through the predicates.
            let live = DirectEvent {
                conds: &self.conds,
                pre,
                action,
                post,
            };
            self.plan.step(st, &live, time, false)
        }
    }

    /// Steps one event already classified by
    /// [`classify`](CompiledConditionSet::classify) (the eager path;
    /// see [`step_engine`](CompiledConditionSet::step_engine)).
    ///
    /// # Panics
    ///
    /// Panics if `time` decreases below `st`'s last stepped time.
    pub fn step_classified<'a>(
        &self,
        st: &'a mut EngineImpl,
        cls: &EventClassification,
        time: Rat,
    ) -> &'a [EngineEvent] {
        self.plan.step(st, cls, time, self.dispatch.dense)
    }

    /// Ends the stream: under [`SatisfactionMode::Complete`]
    /// (Definition 2.2) every still-open deadline becomes an upper-bound
    /// violation; under [`SatisfactionMode::Prefix`] (Definition 3.1,
    /// semi-satisfaction) open deadlines are excused. Open lower windows
    /// are always discharged — no further event can violate them.
    pub fn finish_engine<'a>(
        &self,
        st: &'a mut EngineImpl,
        mode: SatisfactionMode,
    ) -> &'a [EngineEvent] {
        self.plan.finish(st, mode)
    }

    /// Classifies one event — pre-state, action, post-state — against
    /// every condition in the set, filling `out`. Each predicate is
    /// evaluated exactly once per event here; every consumer then reads
    /// the shared bits. (Disabling uses
    /// [`TimingCondition::in_disabling_event`], so action-based
    /// declarative disabling sets classify identically to
    /// [`step_engine`](CompiledConditionSet::step_engine).)
    pub fn classify(&self, pre: &S, action: &A, post: &S, out: &mut EventClassification)
    where
        A: PartialEq,
    {
        out.clear();
        for (ci, c) in self.conds.iter().enumerate() {
            if c.in_pi(action) {
                out.set_pi(ci);
            }
            if c.in_disabling_event(action, post) {
                out.set_disabling(ci);
            }
            if c.in_t_step(pre, action, post) {
                out.set_trigger(ci);
            }
        }
    }

    /// How the set will dispatch events: interned-action count and how
    /// many conditions fall back to opaque closures per component. A
    /// fully declarative set reports zero opaque conditions — its
    /// per-event cost is flat in the condition count.
    pub fn dispatch_stats(&self) -> DispatchStats {
        let ones = |mask: &[u64]| mask.iter().map(|w| w.count_ones() as usize).sum();
        DispatchStats {
            conditions: self.conds.len(),
            interned_actions: self.dispatch.ids.len(),
            opaque_trigger: ones(&self.dispatch.opaque_trigger),
            opaque_pi: ones(&self.dispatch.opaque_pi),
            opaque_disabling: ones(&self.dispatch.opaque_disabling),
        }
    }
}

impl<S: Clone + fmt::Debug, A: Clone + fmt::Debug + Eq + Hash> CompiledConditionSet<S, A> {
    /// Folds the engine over a complete recorded sequence and collects
    /// every violation, in event (discovery) order — the shared core of
    /// [`violations`](crate::violations) and the replay checkers.
    pub fn fold_sequence(
        &self,
        seq: &TimedSequence<S, A>,
        mode: SatisfactionMode,
    ) -> Vec<Violation> {
        let mut st = self.start_engine(seq.first_state());
        // Only violations are consumed here; skip the lifecycle log.
        st.set_log_lifecycle(false);
        let mut out = Vec::new();
        for (pre, a, t, post) in seq.step_triples() {
            if !self.step_engine(&mut st, pre, a, post, t).is_empty() {
                self.drain_violations(&mut st, &mut out);
            }
        }
        self.finish_engine(&mut st, mode);
        self.drain_violations(&mut st, &mut out);
        out
    }

    /// Moves every violation out of the state's event log into `out` —
    /// the log is drained, so each `ViolationKind` payload is moved
    /// rather than cloned.
    fn drain_violations(&self, st: &mut EngineImpl, out: &mut Vec<Violation>) {
        for ev in st.events_mut().drain(..) {
            if let EngineEvent::Violated { ci, kind } = ev {
                out.push(Violation {
                    condition: self.name(ci).to_string(),
                    kind,
                });
            }
        }
    }
}

#[cfg(feature = "serde")]
mod serde_impls {
    //! An [`Obligation`] as the triple `[trigger_index, is_upper,
    //! bound]` (feature `serde`), the rational in `tempo-math`'s
    //! `"num/den"` string form — the entries of an
    //! [`EngineState`](super::EngineState) snapshot.

    use serde::{Deserialize, Deserializer, Serialize, Serializer};

    use super::{Obligation, ObligationKind};
    use tempo_math::Rat;

    impl Serialize for Obligation {
        fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
            let (is_upper, bound) = match self.kind {
                ObligationKind::Lower { earliest } => (false, earliest),
                ObligationKind::Upper { deadline } => (true, deadline),
            };
            (self.trigger_index, is_upper, bound).serialize(serializer)
        }
    }

    impl<'de> Deserialize<'de> for Obligation {
        fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Obligation, D::Error> {
            let (trigger_index, is_upper, bound) = <(usize, bool, Rat)>::deserialize(deserializer)?;
            let kind = if is_upper {
                ObligationKind::Upper { deadline: bound }
            } else {
                ObligationKind::Lower { earliest: bound }
            };
            Ok(Obligation {
                trigger_index,
                kind,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempo_math::Interval;

    /// Steps one hand-classified event at `t` against a start-state
    /// trigger of one condition `[lo, hi]`, in both domains, returning
    /// each domain's log and remaining open count.
    fn resolve_one(
        (lo, hi, escape): (i64, Option<i64>, bool),
        t: i64,
        pi: bool,
        disabling: bool,
    ) -> Vec<(Vec<EngineEvent>, usize)> {
        let plan = EnginePlan::new([(Rat::from(lo), hi.map(Rat::from), escape)]);
        let mut cls = EventClassification::new(1);
        if pi {
            cls.set_pi(0);
        }
        if disabling {
            cls.set_disabling(0);
        }
        domains(plan.start(1, |_| true))
            .into_iter()
            .map(|mut st| {
                let evs = plan.step(&mut st, &cls, Rat::from(t), false).to_vec();
                (evs, st.open_obligations())
            })
            .collect()
    }

    fn lower_violation(earliest: i64) -> EngineEvent {
        EngineEvent::Violated {
            ci: 0,
            kind: ViolationKind::LowerBound {
                trigger_index: 0,
                event_index: 1,
                earliest: Rat::from(earliest),
            },
        }
    }

    #[test]
    fn lower_window_resolution() {
        let window = (3, None, true);
        for (evs, open) in resolve_one(window, 1, false, false) {
            // Early non-Π event keeps it open.
            assert_eq!((evs.len(), open), (0, 1));
        }
        for (evs, _) in resolve_one(window, 1, true, false) {
            // Early Π-event violates.
            assert_eq!(evs, [lower_violation(3)]);
        }
        for (evs, open) in resolve_one(window, 3, true, false) {
            // Π exactly at the bound is fine (window closed).
            assert!(matches!(evs[..], [EngineEvent::Discharged { .. }]) && open == 0);
        }
        for (evs, open) in resolve_one(window, 1, false, true) {
            // A disabling post-state kills the window...
            assert!(matches!(evs[..], [EngineEvent::Discharged { .. }]) && open == 0);
        }
        for (evs, _) in resolve_one(window, 1, true, true) {
            // ...but not for its own event's Π-check.
            assert_eq!(evs, [lower_violation(3)]);
        }
    }

    #[test]
    fn upper_deadline_resolution() {
        let deadline = (0, Some(5), true);
        for (evs, open) in resolve_one(deadline, 4, false, false) {
            assert_eq!((evs.len(), open), (0, 1));
        }
        for (t, pi, dis) in [(5, true, false), (4, false, true)] {
            // Served by Π at the deadline exactly, or by a disabling
            // state.
            for (evs, open) in resolve_one(deadline, t, pi, dis) {
                assert!(matches!(evs[..], [EngineEvent::Discharged { .. }]) && open == 0);
            }
        }
        for (evs, _) in resolve_one(deadline, 6, true, false) {
            // Past the deadline, even a Π-event is too late.
            assert!(matches!(
                evs[..],
                [EngineEvent::Violated {
                    kind: ViolationKind::UpperBound { .. },
                    ..
                }]
            ));
        }
    }

    #[test]
    fn lower_escape_gates_the_disabling_discharge() {
        // Definition 2.1's lower bound has no disabling escape: the
        // window stays open through a disabling state.
        let no_escape = (3, None, false);
        for (evs, open) in resolve_one(no_escape, 1, false, true) {
            assert_eq!((evs.len(), open), (0, 1));
        }
        for (evs, _) in resolve_one(no_escape, 1, true, true) {
            assert_eq!(evs, [lower_violation(3)]);
        }
    }

    fn go_serve(
        name: &str,
        lo: i64,
        hi: Option<i64>,
        go: &'static str,
        serve: &'static str,
    ) -> TimingCondition<u8, &'static str> {
        let bounds = match hi {
            Some(h) => Interval::closed(Rat::from(lo), Rat::from(h)).unwrap(),
            None => Interval::unbounded_above(Rat::from(lo)),
        };
        TimingCondition::new(name, bounds)
            .triggered_by_actions(ActionSet::only(go))
            .on_action_set(ActionSet::only(serve))
    }

    #[test]
    fn remap_carries_preserved_obligations_and_reports_dropped() {
        let c0 = go_serve("C0", 10, None, "go", "a").triggered_at_start(|s| *s == 0);
        let c1 = go_serve("C1", 0, Some(5), "never", "b");
        let c2 = go_serve("C2", 0, Some(8), "go", "c");
        let set = CompiledConditionSet::new(&[c0.clone(), c1, c2.clone()]);
        let mut st = set.start_engine(&0); // C0: window to 10
        set.step_engine(&mut st, &0, &"idle", &0, Rat::ONE);
        set.step_engine(&mut st, &0, &"go", &0, Rat::from(2)); // C0 window, C2 deadline 10
        let snap = st.snapshot();
        // Condition 0 moves to index 1, condition 1 is dropped (it has
        // nothing open), condition 2 moves to index 0.
        let (next, dropped) = snap.remap(&[Some(1), None, Some(0)], 2);
        assert_eq!(next.conditions(), 2);
        assert_eq!(next.open_of(1), snap.open_of(0));
        assert_eq!(next.open_of(0), snap.open_of(2));
        assert_eq!((next.last_time(), next.events_seen()), (Rat::from(2), 2));
        assert!(dropped.is_empty());
        // The active mask is rebuilt in sync: serving the carried
        // deadline under its new index discharges it.
        let swapped = CompiledConditionSet::new(&[c2, c0]);
        let mut resumed = swapped.adopt_state(next);
        swapped.step_engine(&mut resumed, &0, &"c", &0, Rat::from(3));
        assert_eq!(resumed.open_of(0), []);
        assert_eq!(resumed.open_of(1), snap.open_of(0));

        let (next, dropped) = snap.remap(&[Some(0), None, None], 1);
        assert_eq!(dropped, vec![(2, snap.open_of(2)[0])]);
        assert_eq!(next.open_obligations(), 2);
        assert_eq!(next.min_deadline(), None);
    }

    #[test]
    fn remap_carries_warning_state_verbatim() {
        // A predictive stream mid-flight: one deadline already warned,
        // one not. Remapping (hot reload) must neither re-warn the
        // first nor recompute the second's pending warning point from
        // the new bounds.
        let set = CompiledConditionSet::new(&[
            go_serve("A", 0, Some(8), "go", "a"),
            go_serve("B", 0, Some(18), "go2", "b"),
        ]);
        let mut st = set.start_engine_predictive(&0, Some(Rat::from(3)));
        set.step_engine(&mut st, &0, &"go", &0, Rat::ONE); // deadline 9, warn 6
        set.step_engine(&mut st, &0, &"go2", &0, Rat::from(2)); // deadline 20, warn 17
        let evs = set.step_engine(&mut st, &0, &"idle", &0, Rat::from(7));
        assert!(
            matches!(evs, [EngineEvent::Warned { ci: 0, .. }]),
            "{evs:?}"
        );
        let (next, dropped) = st.snapshot().remap(&[Some(1), Some(0)], 2);
        assert!(dropped.is_empty());
        assert_eq!(next.horizon(), Some(Rat::from(3)));
        // Under the new bounds B's warning point would be 20 − 1 = 19.
        let swapped = CompiledConditionSet::new(&[
            go_serve("B", 0, Some(1), "go2", "b"),
            go_serve("A", 0, Some(8), "go", "a"),
        ]);
        let mut resumed = swapped.adopt_state(next);
        resumed.set_log_lifecycle(false);
        // A was warned before the swap and is served now: no re-warning.
        assert!(swapped
            .step_engine(&mut resumed, &0, &"a", &0, Rat::from(8))
            .is_empty());
        let evs = swapped.step_engine(&mut resumed, &0, &"idle", &0, Rat::from(18));
        assert_eq!(
            evs,
            [EngineEvent::Warned {
                ci: 0,
                trigger_index: 2,
                deadline: Rat::from(20),
                warn_at: Rat::from(17),
            }]
        );
    }

    fn cond(lo: i64, hi: i64) -> TimingCondition<u8, &'static str> {
        TimingCondition::new("C", Interval::closed(Rat::from(lo), Rat::from(hi)).unwrap())
            .triggered_at_start(|s| *s == 0)
            .on_actions(|a| *a == "fire")
    }

    /// The same stream state in both domains: as started (on ticks, for
    /// these integral bounds) and re-instantiated in `Rat`.
    fn domains(st: EngineImpl) -> [EngineImpl; 2] {
        assert_eq!(st.backend(), EngineBackend::Int);
        let exact = EngineImpl::Exact(st.snapshot());
        [st, exact]
    }

    #[test]
    fn classification_is_per_condition() {
        let c2: TimingCondition<u8, &'static str> =
            TimingCondition::new("D", Interval::closed(Rat::ZERO, Rat::from(9)).unwrap())
                .triggered_by_step(|_, a, _| *a == "go")
                .on_actions(|a| *a == "done")
                .disabled_in(|s| *s == 7);
        let set = CompiledConditionSet::new(&[cond(1, 4), c2]);
        let mut cls = EventClassification::new(set.len());
        set.classify(&0, &"go", &7, &mut cls);
        assert!(!cls.pi(0) && !cls.disabling(0) && !cls.trigger(0));
        assert!(!cls.pi(1) && cls.disabling(1) && cls.trigger(1));
        set.classify(&0, &"fire", &1, &mut cls);
        assert!(cls.pi(0) && !cls.trigger(1));
    }

    #[test]
    fn start_opens_trigger_zero_obligations() {
        let set = CompiledConditionSet::new(&[cond(2, 4)]);
        for st in domains(set.start_engine(&0)) {
            assert_eq!(st.open_obligations(), 2);
            assert_eq!(
                st.open_of(0),
                [
                    Obligation {
                        trigger_index: 0,
                        kind: ObligationKind::Lower {
                            earliest: Rat::from(2)
                        },
                    },
                    Obligation {
                        trigger_index: 0,
                        kind: ObligationKind::Upper {
                            deadline: Rat::from(4)
                        },
                    },
                ]
            );
            // A non-T_start state opens nothing.
            assert_eq!(set.start_engine(&1).open_obligations(), 0);
        }
    }

    #[test]
    fn step_resolves_before_opening() {
        // `go` both triggers and is a Π-action: the triggering event
        // must not serve its own freshly opened deadline.
        let c: TimingCondition<u8, &'static str> =
            TimingCondition::new("C", Interval::closed(Rat::ZERO, Rat::from(3)).unwrap())
                .triggered_by_step(|_, a, _| *a == "go")
                .on_actions(|a| *a == "go");
        let set = CompiledConditionSet::new(&[c]);
        for mut st in domains(set.start_engine(&0)) {
            let mut cls = EventClassification::new(set.len());
            set.classify(&0, &"go", &1, &mut cls);
            let events = set.step_classified(&mut st, &cls, Rat::from(1));
            assert!(matches!(events, [EngineEvent::Opened { .. }]));
            assert_eq!(st.open_obligations(), 1);
        }
    }

    #[test]
    fn fold_matches_the_event_and_trigger_indices() {
        let set = CompiledConditionSet::new(&[cond(2, 10)]);
        let mut seq = TimedSequence::new(0u8);
        seq.push("fire", Rat::from(1), 1);
        let vs = set.fold_sequence(&seq, SatisfactionMode::Prefix);
        assert_eq!(vs.len(), 1);
        assert_eq!(
            vs[0].kind,
            ViolationKind::LowerBound {
                trigger_index: 0,
                event_index: 1,
                earliest: Rat::from(2),
            }
        );
    }

    #[test]
    fn finish_violates_open_deadlines_only_in_complete_mode() {
        let set = CompiledConditionSet::new(&[cond(0, 4)]);
        for st in domains(set.start_engine(&0)) {
            let mut prefix = st.clone();
            assert!(matches!(
                set.finish_engine(&mut prefix, SatisfactionMode::Prefix),
                [EngineEvent::Discharged { .. }]
            ));
            let mut complete = st;
            assert!(matches!(
                set.finish_engine(&mut complete, SatisfactionMode::Complete),
                [EngineEvent::Violated { .. }]
            ));
        }
    }

    #[test]
    #[should_panic(expected = "nondecreasing")]
    fn decreasing_time_panics() {
        let set = CompiledConditionSet::new(&[cond(0, 4)]);
        let mut st = EngineImpl::Exact(set.start_engine(&0).into_exact());
        let cls = EventClassification::new(set.len());
        set.step_classified(&mut st, &cls, Rat::from(3));
        set.step_classified(&mut st, &cls, Rat::from(2));
    }

    #[test]
    fn dispatch_stats_report_interning_and_fallbacks() {
        let declarative: TimingCondition<u8, &'static str> =
            TimingCondition::new("D", Interval::closed(Rat::ONE, Rat::from(4)).unwrap())
                .triggered_by_actions(ActionSet::only("go"))
                .on_action_set(ActionSet::of(["done", "go"]));
        let opaque: TimingCondition<u8, &'static str> =
            TimingCondition::new("O", Interval::closed(Rat::ONE, Rat::from(4)).unwrap())
                .triggered_by_step(|_, a, _| *a == "go")
                .on_actions(|a| *a == "done")
                .disabled_in(|s| *s == 7);
        let set = CompiledConditionSet::new(&[declarative, opaque]);
        let stats = set.dispatch_stats();
        assert_eq!(stats.conditions, 2);
        assert_eq!(stats.interned_actions, 2); // "go", "done"
        assert_eq!(stats.opaque_trigger, 1);
        assert_eq!(stats.opaque_pi, 1);
        assert_eq!(stats.opaque_disabling, 1);
    }

    #[test]
    fn declarative_and_opaque_conditions_fold_identically() {
        // The same condition, built both ways; a trace with a lower-bound
        // violation, a discharge, and an unserved deadline.
        let decl: TimingCondition<u8, &'static str> =
            TimingCondition::new("C", Interval::closed(Rat::from(2), Rat::from(5)).unwrap())
                .triggered_by_actions(ActionSet::only("req"))
                .on_action_set(ActionSet::only("grant"));
        let opaq: TimingCondition<u8, &'static str> =
            TimingCondition::new("C", Interval::closed(Rat::from(2), Rat::from(5)).unwrap())
                .triggered_by_step(|_, a, _| *a == "req")
                .on_actions(|a| *a == "grant");
        let mut seq = TimedSequence::new(0u8);
        seq.push("req", Rat::from(1), 1);
        seq.push("grant", Rat::from(2), 2); // too early: 1 + 2 > 2
        seq.push("req", Rat::from(3), 3);
        seq.push("idle", Rat::from(9), 4); // deadline 3 + 5 passes unserved
        for mode in [SatisfactionMode::Prefix, SatisfactionMode::Complete] {
            let a =
                CompiledConditionSet::new(std::slice::from_ref(&decl)).fold_sequence(&seq, mode);
            let b =
                CompiledConditionSet::new(std::slice::from_ref(&opaq)).fold_sequence(&seq, mode);
            assert_eq!(a, b);
            assert!(!a.is_empty());
        }
    }

    #[test]
    fn complement_sets_cover_uninterned_actions() {
        // Π = everything except "tick": an action the interner has never
        // seen must dispatch through the default row and still serve the
        // deadline.
        let c: TimingCondition<u8, &'static str> =
            TimingCondition::new("C", Interval::closed(Rat::ZERO, Rat::from(5)).unwrap())
                .triggered_at_start(|s| *s == 0)
                .on_action_set(ActionSet::all_except(["tick"]));
        let set = CompiledConditionSet::new(std::slice::from_ref(&c));
        let mut st = set.start_engine(&0);
        assert_eq!(st.open_obligations(), 1);
        set.step_engine(&mut st, &0, &"tick", &1, Rat::from(1));
        assert_eq!(st.open_obligations(), 1); // excluded action: still open
        set.step_engine(&mut st, &1, &"never-mentioned", &2, Rat::from(2));
        assert_eq!(st.open_obligations(), 0); // default row serves it
    }

    #[test]
    fn action_based_disabling_dispatches_on_the_event_action() {
        let c: TimingCondition<u8, &'static str> =
            TimingCondition::new("C", Interval::closed(Rat::ZERO, Rat::from(5)).unwrap())
                .triggered_by_actions(ActionSet::only("req"))
                .on_action_set(ActionSet::only("grant"))
                .disabled_by_actions(ActionSet::only("freeze"));
        let set = CompiledConditionSet::new(std::slice::from_ref(&c));
        let mut st = set.start_engine(&0);
        set.step_engine(&mut st, &0, &"req", &1, Rat::from(1));
        assert_eq!(st.open_obligations(), 1);
        set.step_engine(&mut st, &1, &"freeze", &2, Rat::from(2));
        assert_eq!(st.open_obligations(), 0); // disabling discharges it
                                              // And the eager path agrees with the fused one.
        let mut st2 = set.start_engine(&0);
        let mut cls = EventClassification::new(set.len());
        set.classify(&0, &"req", &1, &mut cls);
        set.step_classified(&mut st2, &cls, Rat::from(1));
        set.classify(&1, &"freeze", &2, &mut cls);
        set.step_classified(&mut st2, &cls, Rat::from(2));
        assert_eq!(st2.open_obligations(), 0);
    }

    #[test]
    fn active_mask_tracks_open_conditions_across_resolution() {
        // 70 conditions (two mask words), only one ever armed: the
        // resolution scan must visit exactly the active one and keep the
        // mask in sync as obligations discharge.
        let conds: Vec<TimingCondition<u8, &'static str>> = (0..70)
            .map(|i| {
                TimingCondition::new(
                    format!("C{i}"),
                    Interval::closed(Rat::ZERO, Rat::from(5)).unwrap(),
                )
                .triggered_by_actions(ActionSet::only(if i == 69 { "go" } else { "other" }))
                .on_action_set(ActionSet::only("done"))
            })
            .collect();
        let set = CompiledConditionSet::new(&conds);
        for mut st in domains(set.start_engine(&0)) {
            set.step_engine(&mut st, &0, &"go", &1, Rat::from(1));
            assert_eq!(st.open_obligations(), 1);
            assert_eq!(st.open_of(69).len(), 1);
            set.step_engine(&mut st, &1, &"done", &2, Rat::from(2));
            assert_eq!(st.open_obligations(), 0);
            // Re-arming after a full discharge works (mask bit set again).
            set.step_engine(&mut st, &2, &"go", &3, Rat::from(3));
            assert_eq!(st.open_of(69).len(), 1);
        }
    }

    #[test]
    fn classification_bitsets_span_many_words() {
        let mut cls = EventClassification::new(130);
        cls.set_pi(0);
        cls.set_pi(64);
        cls.set_trigger(129);
        assert!(cls.pi(0) && cls.pi(64) && !cls.pi(63));
        assert!(cls.trigger(129) && !cls.disabling(129));
        cls.clear();
        assert!(!cls.pi(64) && !cls.trigger(129));
    }

    fn req_grant(lo: i64, hi: i64) -> TimingCondition<u8, &'static str> {
        TimingCondition::new("C", Interval::closed(Rat::from(lo), Rat::from(hi)).unwrap())
            .triggered_by_actions(ActionSet::only("req"))
            .on_action_set(ActionSet::only("grant"))
    }

    /// A predictive stream with horizon `h`, in both domains.
    fn predictive_start(set: &CompiledConditionSet<u8, &'static str>, h: i64) -> [EngineImpl; 2] {
        let mut st = set.start_engine_predictive(&0, Some(Rat::from(h)));
        st.set_log_lifecycle(false);
        domains(st)
    }

    #[test]
    fn warning_emitted_once_strictly_past_the_warn_point() {
        let set = CompiledConditionSet::new(&[req_grant(0, 10)]);
        for mut st in predictive_start(&set, 3) {
            let domain = st.backend();
            set.step_engine(&mut st, &0, &"req", &1, Rat::from(2)); // deadline 12, warn 9
            assert!(set
                .step_engine(&mut st, &0, &"idle", &1, Rat::from(9))
                .is_empty());
            let evs = set.step_engine(&mut st, &0, &"idle", &1, Rat::from(10));
            assert_eq!(
                evs,
                &[EngineEvent::Warned {
                    ci: 0,
                    trigger_index: 1,
                    deadline: Rat::from(12),
                    warn_at: Rat::from(9),
                }],
                "backend {:?}",
                domain
            );
            // Once only.
            assert!(set
                .step_engine(&mut st, &0, &"idle", &1, Rat::from(11))
                .is_empty());
        }
    }

    #[test]
    fn warning_precedes_violation_on_a_time_jump() {
        let set = CompiledConditionSet::new(&[req_grant(0, 10)]);
        for mut st in predictive_start(&set, 3) {
            let domain = st.backend();
            set.step_engine(&mut st, &0, &"req", &1, Rat::from(2));
            let evs = set.step_engine(&mut st, &0, &"idle", &1, Rat::from(50));
            assert!(
                matches!(
                    evs,
                    [EngineEvent::Warned { .. }, EngineEvent::Violated { .. }]
                ),
                "backend {:?}: {evs:?}",
                domain
            );
        }
    }

    #[test]
    fn forced_window_reported_once_at_open_when_margin_covers_horizon() {
        let set = CompiledConditionSet::new(&[req_grant(5, 20)]);
        for mut st in predictive_start(&set, 3) {
            let domain = st.backend();
            let evs = set.step_engine(&mut st, &0, &"req", &1, Rat::from(2));
            assert_eq!(
                evs,
                &[EngineEvent::Forced {
                    ci: 0,
                    trigger_index: 1,
                    earliest: Rat::from(7),
                    t_i: Rat::from(2),
                    margin: Rat::from(5),
                }],
                "backend {:?}",
                domain
            );
            // The Ft query agrees while the window is ahead...
            assert_eq!(set.earliest_legal(&st, &"grant"), Some(Rat::from(7)));
            assert_eq!(set.earliest_legal(&st, &"req"), None);
            // ...and clears once the stream clock passes it.
            set.step_engine(&mut st, &0, &"idle", &1, Rat::from(7));
            assert_eq!(set.earliest_legal(&st, &"grant"), None);
        }
    }

    #[test]
    fn short_margins_and_zero_horizon_report_no_forced_window() {
        for (lo, h) in [(2i64, 3i64), (5, 0)] {
            let set = CompiledConditionSet::new(&[req_grant(lo, 20)]);
            for mut st in predictive_start(&set, h) {
                let evs = set.step_engine(&mut st, &0, &"req", &1, Rat::from(2));
                assert!(
                    !evs.iter().any(|e| matches!(e, EngineEvent::Forced { .. })),
                    "lo={lo} h={h}: {evs:?}"
                );
            }
        }
    }

    #[test]
    fn adopting_a_snapshot_rearms_without_rewarning() {
        let set = CompiledConditionSet::new(&[req_grant(0, 10)]);
        for mut st in predictive_start(&set, 3) {
            let domain = st.backend();
            set.step_engine(&mut st, &0, &"req", &1, Rat::from(2));
            // Snapshot with the warning still pending: it survives the
            // round trip, and the adopted stream is back on ticks.
            let mut resumed = set.adopt_state_predictive(st.snapshot(), Some(Rat::from(3)));
            assert_eq!(resumed.backend(), EngineBackend::Int);
            resumed.set_log_lifecycle(false);
            let evs = set.step_engine(&mut resumed, &0, &"idle", &1, Rat::from(10));
            assert!(
                matches!(evs, [EngineEvent::Warned { .. }]),
                "pending warning lost: {evs:?}"
            );
            // Snapshot after the warning: re-adopting in either domain
            // reconstructs the warned flag from `last_time`, so no
            // second warning fires.
            set.step_engine(&mut st, &0, &"idle", &1, Rat::from(10));
            for mut resumed in
                domains(set.adopt_state_predictive(st.snapshot(), Some(Rat::from(3))))
            {
                resumed.set_log_lifecycle(false);
                let evs = set.step_engine(&mut resumed, &0, &"idle", &1, Rat::from(11));
                assert!(evs.is_empty(), "{domain:?}: {evs:?}");
            }
        }
    }

    #[test]
    fn min_deadline_tracks_the_tightest_open_deadline() {
        let set = CompiledConditionSet::new(&[req_grant(0, 10)]);
        for mut st in predictive_start(&set, 3) {
            let domain = st.backend();
            assert_eq!(st.min_deadline(), None);
            set.step_engine(&mut st, &0, &"req", &1, Rat::from(2));
            set.step_engine(&mut st, &0, &"req", &1, Rat::from(5));
            assert_eq!(st.min_deadline(), Some(Rat::from(12)), "{domain:?}");
            set.step_engine(&mut st, &0, &"grant", &1, Rat::from(6));
            assert_eq!(st.min_deadline(), None, "grant serves both deadlines");
        }
    }

    #[test]
    fn finish_complete_files_the_owed_warning_before_the_violation() {
        let set = CompiledConditionSet::new(&[req_grant(0, 10)]);
        for mut st in predictive_start(&set, 3) {
            let domain = st.backend();
            set.step_engine(&mut st, &0, &"req", &1, Rat::from(2));
            let evs = set.finish_engine(&mut st, SatisfactionMode::Complete);
            assert!(
                matches!(
                    evs,
                    [EngineEvent::Warned { .. }, EngineEvent::Violated { .. }]
                ),
                "backend {:?}: {evs:?}",
                domain
            );
        }
    }

    #[test]
    fn off_grid_time_spills_before_the_step() {
        let set = CompiledConditionSet::new(&[req_grant(1, 5)]);
        let mut st = set.start_engine(&0);
        set.step_engine(&mut st, &0, &"req", &1, Rat::from(1));
        assert_eq!(st.backend(), EngineBackend::Int);
        let before = st.snapshot();
        let evs = set.step_engine(&mut st, &1, &"grant", &2, Rat::new(5, 3));
        assert!(matches!(evs, [EngineEvent::Violated { .. }, ..]), "{evs:?}");
        assert_eq!(st.backend(), EngineBackend::Exact);
        assert_eq!(before.events_seen() + 1, st.events_seen());
    }
}
