//! The obligation stepper: Definition 3.1's per-trigger semantics over a
//! struct-of-arrays obligation store, generic over its [`TimeDomain`].
//!
//! There is one stepper and two instantiations of it:
//!
//! * **`u64` ticks** ([`IntEngineState`]). When every bound of a
//!   condition set fits a common tick grid ([`tempo_math::TimeScale`],
//!   the LCM of the bound denominators), bounds and event times become
//!   `u64` tick counts: deadline arithmetic is a machine add, a
//!   comparison a machine compare, and "no watermark" is the sentinel
//!   `u64::MAX`.
//! * **`Rat`** ([`EngineState`]). Anything else — bounds off every
//!   `u64` grid, or a stream whose event times leave its grid — runs on
//!   exact rationals, with "no watermark" an explicit `None`.
//!
//! Open deadlines live in one flat array with condition ids and trigger
//! indices in parallel arrays (windows likewise), and cached
//! `min deadline` / `min earliest` / warning watermarks let a quiescent
//! event skip the scans entirely: an event that serves nothing and
//! passes no watermark costs `O(active conditions / 64)` regardless of
//! how many obligations are open — in either domain.
//!
//! A stream's domain follows from its bounds and event times alone:
//! compiled sets start on ticks when they can, and an event time the
//! grid cannot represent exactly (or one that would push a deadline past
//! `u64::MAX`) **re-instantiates** the stream in `Rat` before the step —
//! the same arrays mapped through [`TimeScale::from_ticks`], so the
//! state, and every later verdict, is unchanged ([`SoaState::rescale`]).
//! Snapshots take the same road into `Rat`, and resuming takes it back
//! onto ticks when every time converts.
//!
//! The stepper is checked against an independent, deliberately naive
//! evaluation of the definitions (`tests/support/reference.rs`) on both
//! instantiations.

use std::fmt;

use tempo_math::{Rat, TimeScale};

use super::{bit_clear, bit_set, Classify, EngineEvent, Obligation, ObligationKind};
use crate::satisfaction::{SatisfactionMode, ViolationKind};

mod sealed {
    pub trait Sealed {}
    impl Sealed for u64 {}
    impl Sealed for tempo_math::Rat {}
}

/// A time domain the obligation stepper runs in: `u64` ticks on a
/// [`TimeScale`] grid, or exact [`Rat`]s. Sealed — the two
/// instantiations are the whole design.
pub trait TimeDomain: Copy + Ord + fmt::Debug + sealed::Sealed {
    /// What maps a value back to the exact domain: the tick grid for
    /// `u64`, nothing for `Rat`.
    type Scale: Copy + fmt::Debug;
    /// An optional time — a watermark, a pending warning point, an
    /// infinite upper bound. `u64` uses the sentinel `u64::MAX` (real
    /// tick values stay strictly below it); `Rat` uses `Option`, since
    /// ordering a huge rational sentinel would cross-multiply and
    /// overflow.
    type Mark: Copy + fmt::Debug;
    /// Time zero.
    const ZERO: Self;
    /// The absent mark.
    const NONE: Self::Mark;
    /// `self` as a present mark.
    fn mark(self) -> Self::Mark;
    /// The time a mark holds, if any.
    fn unmark(m: Self::Mark) -> Option<Self>;
    /// Whether `self` lies strictly past the mark (`false` for none).
    fn past(self, m: Self::Mark) -> bool;
    /// Whether `self` has reached the mark (`false` for none).
    fn reached(self, m: Self::Mark) -> bool;
    /// The smaller of a mark and a time.
    fn min_mark(m: Self::Mark, t: Self) -> Self::Mark;
    /// `self + d`.
    fn add(self, d: Self) -> Self;
    /// `self − d`, for `d ≤ self`.
    fn sub(self, d: Self) -> Self;
    /// The exact rational this value stands for.
    fn to_rat(self, scale: Self::Scale) -> Rat;
    /// The value standing for `r` exactly, or `None` when `r` has no
    /// exact representation here.
    fn from_rat(r: Rat, scale: Self::Scale) -> Option<Self>;
}

impl TimeDomain for u64 {
    type Scale = TimeScale;
    type Mark = u64;
    const ZERO: u64 = 0;
    const NONE: u64 = u64::MAX;
    #[inline]
    fn mark(self) -> u64 {
        self
    }
    #[inline]
    fn unmark(m: u64) -> Option<u64> {
        (m != u64::MAX).then_some(m)
    }
    #[inline]
    fn past(self, m: u64) -> bool {
        self > m
    }
    #[inline]
    fn reached(self, m: u64) -> bool {
        self >= m
    }
    #[inline]
    fn min_mark(m: u64, t: u64) -> u64 {
        m.min(t)
    }
    #[inline]
    fn add(self, d: u64) -> u64 {
        self + d
    }
    #[inline]
    fn sub(self, d: u64) -> u64 {
        self - d
    }
    #[inline]
    fn to_rat(self, scale: TimeScale) -> Rat {
        scale.from_ticks(self)
    }
    #[inline]
    fn from_rat(r: Rat, scale: TimeScale) -> Option<u64> {
        // `u64::MAX` is the absent mark, never a time.
        scale.to_ticks(r).filter(|&t| t != u64::MAX)
    }
}

impl TimeDomain for Rat {
    type Scale = ();
    type Mark = Option<Rat>;
    const ZERO: Rat = Rat::ZERO;
    const NONE: Option<Rat> = None;
    #[inline]
    fn mark(self) -> Option<Rat> {
        Some(self)
    }
    #[inline]
    fn unmark(m: Option<Rat>) -> Option<Rat> {
        m
    }
    #[inline]
    fn past(self, m: Option<Rat>) -> bool {
        matches!(m, Some(w) if self > w)
    }
    #[inline]
    fn reached(self, m: Option<Rat>) -> bool {
        matches!(m, Some(w) if self >= w)
    }
    #[inline]
    fn min_mark(m: Option<Rat>, t: Rat) -> Option<Rat> {
        Some(match m {
            Some(w) if w <= t => w,
            _ => t,
        })
    }
    #[inline]
    fn add(self, d: Rat) -> Rat {
        self + d
    }
    #[inline]
    fn sub(self, d: Rat) -> Rat {
        self - d
    }
    #[inline]
    fn to_rat(self, _: ()) -> Rat {
        self
    }
    #[inline]
    fn from_rat(r: Rat, _: ()) -> Option<Rat> {
        Some(r)
    }
}

/// A condition set's bound table in one time domain: each condition's
/// `b_l`, finite `b_u`, and whether a disabling state discharges its
/// open window.
#[derive(Clone, Debug)]
pub(crate) struct Plan<T: TimeDomain> {
    /// The scale every value in this plan is expressed in.
    pub(crate) scale: T::Scale,
    /// Per-condition `b_l` (zero: no window obligation opens).
    lower: Vec<T>,
    /// Per-condition finite `b_u` (absent: `∞`, no deadline opens).
    upper: Vec<T::Mark>,
    /// Per-condition escape bits (word-packed): whether a disabling
    /// state discharges an open window (Definitions 2.2/3.1: yes;
    /// Definition 2.1: no).
    escape: Vec<u64>,
    /// The largest finite bound: while an event time leaves this much
    /// headroom below `u64::MAX`, no deadline it opens can overflow.
    pub(crate) max_bound: T,
}

impl Plan<Rat> {
    /// The exact plan for `(b_l, finite b_u, lower escape)` triples.
    pub(crate) fn new(bounds: impl IntoIterator<Item = (Rat, Option<Rat>, bool)>) -> Plan<Rat> {
        let mut plan = Plan {
            scale: (),
            lower: Vec::new(),
            upper: Vec::new(),
            escape: Vec::new(),
            max_bound: Rat::ZERO,
        };
        for (ci, (lo, up, escape)) in bounds.into_iter().enumerate() {
            plan.lower.push(lo);
            plan.upper.push(up);
            if ci % 64 == 0 {
                plan.escape.push(0);
            }
            if escape {
                bit_set(&mut plan.escape, ci);
            }
            plan.max_bound = plan.max_bound.max(lo).max(up.unwrap_or(Rat::ZERO));
        }
        plan
    }

    /// Lowers the plan onto the coarsest `u64` tick grid holding every
    /// bound exactly, or `None` when there is none (denominator LCM
    /// overflow, or a scaled bound past the tick range).
    pub(crate) fn to_ticks(&self) -> Option<Plan<u64>> {
        let dens = self
            .lower
            .iter()
            .chain(self.upper.iter().flatten())
            .map(|r| r.denom());
        self.rescale(TimeScale::for_denominators(dens)?)
    }

    /// The finite `b_u` of condition `ci`.
    pub(crate) fn upper(&self, ci: usize) -> Option<Rat> {
        self.upper[ci]
    }
}

impl<T: TimeDomain> Plan<T> {
    /// The same plan in domain `U` at `scale`, or `None` when some
    /// bound has no exact representation there.
    fn rescale<U: TimeDomain>(&self, scale: U::Scale) -> Option<Plan<U>> {
        let conv = |v: T| U::from_rat(v.to_rat(self.scale), scale);
        Some(Plan {
            scale,
            lower: self.lower.iter().map(|&v| conv(v)).collect::<Option<_>>()?,
            upper: self
                .upper
                .iter()
                .map(|&m| T::unmark(m).map_or(Some(U::NONE), |v| conv(v).map(U::mark)))
                .collect::<Option<_>>()?,
            escape: self.escape.clone(),
            max_bound: conv(self.max_bound)?,
        })
    }
}

/// The stepper's whole mutable state in domain `T`: the open
/// obligations as parallel flat arrays (deadlines / condition ids /
/// trigger indices / warning points, and likewise for lower windows)
/// plus the stream position. [`EngineState`] and [`IntEngineState`]
/// are its two instantiations.
#[derive(Clone, Debug)]
pub struct SoaState<T: TimeDomain> {
    /// The scale its values are expressed in.
    scale: T::Scale,
    // Open upper (deadline) obligations, struct-of-arrays.
    up_deadline: Vec<T>,
    up_ci: Vec<u32>,
    up_trigger: Vec<u64>,
    /// Per-deadline warning point `max(deadline − horizon, t_i)`, or
    /// absent once the warning fired (or when prediction is off —
    /// entries are then born absent, so the sweep never inspects them).
    up_warn: Vec<T::Mark>,
    // Open lower (window) obligations, struct-of-arrays.
    lo_earliest: Vec<T>,
    lo_ci: Vec<u32>,
    lo_trigger: Vec<u64>,
    /// Smallest open deadline: exact at all times (every open folds it,
    /// every scan that removes a deadline recomputes it). An event at or
    /// before it that serves nothing skips the upper scan.
    min_deadline: T::Mark,
    /// Smallest open window end, gating the lower scan the same way.
    min_earliest: T::Mark,
    /// Smallest pending warning point: an event not past it skips the
    /// warning sweep with one compare. May be stale *low* after an
    /// unwarned deadline is discharged (the sweep recomputes it), never
    /// stale high.
    warn_watermark: T::Mark,
    /// The prediction horizon in this domain (zero when off).
    h: T,
    /// The exact horizon: `Some` arms prediction — new deadlines get
    /// warning points, qualifying windows emit [`EngineEvent::Forced`].
    horizon: Option<Rat>,
    /// Bitmask of conditions with ≥ 1 open obligation (either kind).
    active: Vec<u64>,
    /// Per-condition open-obligation count, keeping `active` in sync
    /// across struct-of-arrays removals.
    open_count: Vec<u32>,
    /// Per-event scratch: which active conditions the event's action
    /// serves (`Π`) / disables — filled by the pre-scan, read by the
    /// resolve scans.
    pi_mask: Vec<u64>,
    dis_mask: Vec<u64>,
    /// Time of the last stepped event (initially zero).
    last: T,
    events_seen: usize,
    /// Reusable event-log buffer (not part of the logical state; values
    /// convert to `Rat` only here, on the cold emission path).
    events: Vec<EngineEvent>,
    /// Whether [`EngineEvent::Opened`]/[`EngineEvent::Discharged`] are
    /// logged (violations always are). Consumers with no lifecycle
    /// listener turn it off to keep log traffic off the hot path.
    log_lifecycle: bool,
}

/// The exact (`Rat`) instantiation of the stepper state — the
/// snapshot form: serializable (feature `serde`), remappable across
/// spec revisions, and resumable onto either domain.
pub type EngineState = SoaState<Rat>;

/// The `u64`-tick instantiation of the stepper state.
pub type IntEngineState = SoaState<u64>;

impl Default for EngineState {
    /// An empty state tracking no conditions, lifecycle logging on.
    fn default() -> EngineState {
        EngineState::new(0)
    }
}

impl EngineState {
    /// Empty exact state for `conditions` conditions, with no
    /// obligations open.
    pub fn new(conditions: usize) -> EngineState {
        SoaState::empty(conditions, ())
    }
}

/// One open obligation, read out of the store: the canonical order
/// `(condition, trigger, window before deadline)` is the derived order.
#[derive(Clone, Copy, Debug)]
struct Row<T: TimeDomain> {
    ci: usize,
    trigger: usize,
    upper: bool,
    at: T,
    warn: T::Mark,
}

impl<T: TimeDomain> SoaState<T> {
    /// Empty state for `conditions` conditions at `scale`.
    pub(crate) fn empty(conditions: usize, scale: T::Scale) -> SoaState<T> {
        let words = conditions.div_ceil(64);
        SoaState {
            scale,
            up_deadline: Vec::new(),
            up_ci: Vec::new(),
            up_trigger: Vec::new(),
            up_warn: Vec::new(),
            lo_earliest: Vec::new(),
            lo_ci: Vec::new(),
            lo_trigger: Vec::new(),
            min_deadline: T::NONE,
            min_earliest: T::NONE,
            warn_watermark: T::NONE,
            h: T::ZERO,
            horizon: None,
            active: vec![0; words],
            open_count: vec![0; conditions],
            pi_mask: vec![0; words],
            dis_mask: vec![0; words],
            last: T::ZERO,
            events_seen: 0,
            events: Vec::new(),
            log_lifecycle: true,
        }
    }

    /// Turns [`EngineEvent::Opened`]/[`EngineEvent::Discharged`] logging
    /// on or off (on by default; [`EngineEvent::Violated`] is always
    /// logged).
    pub fn set_log_lifecycle(&mut self, on: bool) {
        self.log_lifecycle = on;
    }

    /// Number of conditions this state tracks.
    pub fn conditions(&self) -> usize {
        self.open_count.len()
    }

    /// Number of events stepped so far.
    pub fn events_seen(&self) -> usize {
        self.events_seen
    }

    /// Time of the last stepped event (0 before any event).
    pub fn last_time(&self) -> Rat {
        self.last.to_rat(self.scale)
    }

    /// Total number of currently open obligations.
    pub fn open_obligations(&self) -> usize {
        self.up_deadline.len() + self.lo_earliest.len()
    }

    /// The attached warning horizon, if prediction is on.
    pub fn horizon(&self) -> Option<Rat> {
        self.horizon
    }

    /// The earliest open deadline, if any deadline is open:
    /// `min_deadline − last_time` is the stream's minimum upper-bound
    /// slack. O(1): read off the exact `min_deadline` watermark.
    pub fn min_deadline(&self) -> Option<Rat> {
        T::unmark(self.min_deadline).map(|d| d.to_rat(self.scale))
    }

    /// The open obligations of condition `ci`, ordered by (trigger,
    /// window before deadline).
    pub fn open_of(&self, ci: usize) -> Vec<Obligation> {
        self.rows()
            .into_iter()
            .filter(|r| r.ci == ci)
            .map(|r| self.obligation(&r))
            .collect()
    }

    /// The reusable event-log buffer — consumers that move violations
    /// out (the offline folds) drain it in place.
    pub(crate) fn events_mut(&mut self) -> &mut Vec<EngineEvent> {
        &mut self.events
    }

    /// Every open obligation in canonical order.
    fn rows(&self) -> Vec<Row<T>> {
        let lows = (0..self.lo_earliest.len()).map(|k| Row {
            ci: self.lo_ci[k] as usize,
            trigger: self.lo_trigger[k] as usize,
            upper: false,
            at: self.lo_earliest[k],
            warn: T::NONE,
        });
        let ups = (0..self.up_deadline.len()).map(|k| Row {
            ci: self.up_ci[k] as usize,
            trigger: self.up_trigger[k] as usize,
            upper: true,
            at: self.up_deadline[k],
            warn: self.up_warn[k],
        });
        let mut rows: Vec<Row<T>> = lows.chain(ups).collect();
        rows.sort_by_key(|r| (r.ci, r.trigger, r.upper, r.at));
        rows
    }

    fn obligation(&self, r: &Row<T>) -> Obligation {
        let at = r.at.to_rat(self.scale);
        Obligation {
            trigger_index: r.trigger,
            kind: if r.upper {
                ObligationKind::Upper { deadline: at }
            } else {
                ObligationKind::Lower { earliest: at }
            },
        }
    }

    /// Visits every open lower window as `(ci, earliest)` in the exact
    /// domain — the `Ft` query's iteration hook.
    pub(crate) fn for_each_open_lower(&self, f: &mut impl FnMut(usize, Rat)) {
        for k in 0..self.lo_earliest.len() {
            f(
                self.lo_ci[k] as usize,
                self.lo_earliest[k].to_rat(self.scale),
            );
        }
    }

    /// Stores an open window for condition `ci`.
    #[inline(always)]
    fn push_lower(&mut self, ci: usize, trigger: usize, earliest: T) {
        self.lo_earliest.push(earliest);
        self.lo_ci.push(ci as u32);
        self.lo_trigger.push(trigger as u64);
        self.min_earliest = T::min_mark(self.min_earliest, earliest);
        self.open_count[ci] += 1;
        bit_set(&mut self.active, ci);
    }

    /// Stores an open deadline for condition `ci` with its warning mark.
    #[inline(always)]
    fn push_upper(&mut self, ci: usize, trigger: usize, deadline: T, warn: T::Mark) {
        self.up_deadline.push(deadline);
        self.up_ci.push(ci as u32);
        self.up_trigger.push(trigger as u64);
        self.up_warn.push(warn);
        if let Some(w) = T::unmark(warn) {
            self.warn_watermark = T::min_mark(self.warn_watermark, w);
        }
        self.min_deadline = T::min_mark(self.min_deadline, deadline);
        self.open_count[ci] += 1;
        bit_set(&mut self.active, ci);
    }

    /// Removes one open obligation's count, keeping the active mask in
    /// sync.
    #[inline]
    fn note_removed(&mut self, ci: usize) {
        self.open_count[ci] -= 1;
        if self.open_count[ci] == 0 {
            bit_clear(&mut self.active, ci);
        }
    }

    /// Opens a trigger's (up to two) obligations at trigger time `t`
    /// and logs them. `inline(always)`: this is the open phase of the
    /// stepper's loop body, and an outlined call here costs several
    /// ns/event on the E12 pulse stream.
    #[inline(always)]
    pub(crate) fn open_trigger(&mut self, plan: &Plan<T>, ci: usize, trigger_index: usize, t: T) {
        let b_l = plan.lower[ci];
        // A zero lower bound can never be violated (times are
        // nondecreasing), so no window opens for it.
        if b_l > T::ZERO {
            // Cannot overflow on ticks: the caller's headroom check
            // guarantees `t + max_bound` fits.
            let earliest = t.add(b_l);
            self.push_lower(ci, trigger_index, earliest);
            if self.log_lifecycle {
                self.events.push(EngineEvent::Opened {
                    ci,
                    obligation: Obligation {
                        trigger_index,
                        kind: ObligationKind::Lower {
                            earliest: earliest.to_rat(self.scale),
                        },
                    },
                    t_i: t.to_rat(self.scale),
                });
            }
            // Ft(U): the window keeps Π away for at least a full
            // horizon — report the forced window once, as it opens.
            if self.horizon.is_some() && self.h > T::ZERO && b_l >= self.h {
                self.events.push(EngineEvent::Forced {
                    ci,
                    trigger_index,
                    earliest: earliest.to_rat(self.scale),
                    t_i: t.to_rat(self.scale),
                    margin: b_l.to_rat(self.scale),
                });
            }
        }
        // An infinite upper bound imposes no deadline.
        if let Some(b_u) = T::unmark(plan.upper[ci]) {
            let deadline = t.add(b_u);
            // Lt(U): fix the warning point `deadline − min(h, b_u) =
            // max(deadline − h, t_i)` now; the sweep emits the warning
            // when an event passes it.
            let warn = if self.horizon.is_some() {
                deadline.sub(self.h.min(b_u)).mark()
            } else {
                T::NONE
            };
            self.push_upper(ci, trigger_index, deadline, warn);
            if self.log_lifecycle {
                self.events.push(EngineEvent::Opened {
                    ci,
                    obligation: Obligation {
                        trigger_index,
                        kind: ObligationKind::Upper {
                            deadline: deadline.to_rat(self.scale),
                        },
                    },
                    t_i: t.to_rat(self.scale),
                });
            }
        }
    }

    /// Emits a [`EngineEvent::Warned`] for every pending deadline whose
    /// warning point `t` has strictly passed, marks it warned, and
    /// recomputes the watermark exactly. Off the fast path: only
    /// entered when an event crosses `warn_watermark`. Emission is
    /// ordered by (condition, trigger); storage order is a
    /// `swap_remove` artifact.
    #[inline(never)]
    fn sweep_warnings(&mut self, t: T) {
        let mark = self.events.len();
        let mut next = T::NONE;
        for k in 0..self.up_warn.len() {
            let Some(w) = T::unmark(self.up_warn[k]) else {
                continue;
            };
            if t > w {
                self.up_warn[k] = T::NONE;
                self.events.push(EngineEvent::Warned {
                    ci: self.up_ci[k] as usize,
                    trigger_index: self.up_trigger[k] as usize,
                    deadline: self.up_deadline[k].to_rat(self.scale),
                    warn_at: w.to_rat(self.scale),
                });
            } else {
                next = T::min_mark(next, w);
            }
        }
        self.warn_watermark = next;
        if self.events.len() - mark > 1 {
            self.events[mark..].sort_by_key(|ev| match ev {
                EngineEvent::Warned {
                    ci, trigger_index, ..
                } => (*ci, *trigger_index),
                _ => (usize::MAX, usize::MAX),
            });
        }
    }

    /// Re-instantiates this state in domain `U` at `scale`: the same
    /// arrays, each value mapped through the exact domain. `None` when
    /// some value (or the horizon) has no exact representation in `U` —
    /// never for `U = Rat`. This is the mid-stream spill (ticks → `Rat`),
    /// the snapshot (ticks → `Rat`) and resume (`Rat` → ticks).
    pub(crate) fn rescale<U: TimeDomain>(&self, scale: U::Scale) -> Option<SoaState<U>> {
        let conv = |v: T| U::from_rat(v.to_rat(self.scale), scale);
        let mut out = SoaState::<U>::empty(self.conditions(), scale);
        out.last = conv(self.last)?;
        out.events_seen = self.events_seen;
        out.log_lifecycle = self.log_lifecycle;
        if let Some(h) = self.horizon {
            out.h = U::from_rat(h, scale)?;
            out.horizon = Some(h);
        }
        for k in 0..self.lo_earliest.len() {
            let ci = self.lo_ci[k] as usize;
            out.push_lower(ci, self.lo_trigger[k] as usize, conv(self.lo_earliest[k])?);
        }
        for k in 0..self.up_deadline.len() {
            let warn = match T::unmark(self.up_warn[k]) {
                Some(w) => conv(w)?.mark(),
                None => U::NONE,
            };
            let ci = self.up_ci[k] as usize;
            out.push_upper(
                ci,
                self.up_trigger[k] as usize,
                conv(self.up_deadline[k])?,
                warn,
            );
        }
        Some(out)
    }

    /// Re-indexes this state for a new condition set — the state-level
    /// half of hot spec reload.
    ///
    /// `map[ci]` gives the index in the *new* set of the condition that
    /// was at index `ci` here, or `None` if it no longer exists (the
    /// map's length must equal [`conditions`](Self::conditions), and
    /// `new_conditions` bounds its targets). Obligations of preserved
    /// conditions carry over **verbatim** — their deadlines are
    /// absolute times fixed when the trigger fired, and revising a spec
    /// does not revise history; the new bounds govern triggers that
    /// fire after the swap. Obligations of dropped conditions are
    /// returned alongside the new state, tagged with their *old*
    /// condition index and in canonical order, so the caller can report
    /// them as closed rather than lose them silently.
    ///
    /// Stream position, the lifecycle logging flag, and the predictive
    /// state (horizon, per-obligation warning points and warned flags —
    /// fixed when each trigger fired, so a reload never re-warns or
    /// un-warns carried obligations) carry over.
    ///
    /// # Panics
    ///
    /// Panics if `map` does not cover every old condition or maps past
    /// `new_conditions`.
    pub fn remap(
        &self,
        map: &[Option<usize>],
        new_conditions: usize,
    ) -> (SoaState<T>, Vec<(usize, Obligation)>) {
        assert_eq!(
            map.len(),
            self.conditions(),
            "remap map must cover every old condition"
        );
        let mut next = SoaState::empty(new_conditions, self.scale);
        next.last = self.last;
        next.events_seen = self.events_seen;
        next.log_lifecycle = self.log_lifecycle;
        next.h = self.h;
        next.horizon = self.horizon;
        let mut dropped = Vec::new();
        for r in self.rows() {
            match map[r.ci] {
                Some(ni) => {
                    assert!(ni < new_conditions, "remap target out of range");
                    if r.upper {
                        next.push_upper(ni, r.trigger, r.at, r.warn);
                    } else {
                        next.push_lower(ni, r.trigger, r.at);
                    }
                }
                None => dropped.push((r.ci, self.obligation(&r))),
            }
        }
        (next, dropped)
    }
}

impl EngineState {
    /// Attaches (or, with `None`, detaches) a warning horizon: every
    /// open deadline's warning point is recomputed from the plan's
    /// bounds — `max(deadline − horizon, t_i)` with `t_i = deadline −
    /// b_u` — and points the stream has already strictly passed are
    /// marked warned, so resuming a snapshot never re-emits warnings
    /// the stream saw before it was snapshotted.
    pub(crate) fn arm(&mut self, plan: &Plan<Rat>, horizon: Option<Rat>) {
        self.horizon = horizon;
        self.h = horizon.unwrap_or(Rat::ZERO);
        self.warn_watermark = None;
        for k in 0..self.up_deadline.len() {
            self.up_warn[k] = horizon.and_then(|h| {
                let d = self.up_deadline[k];
                // A deadline carried across a reload onto an unbounded
                // condition measures from time zero.
                let b_u = plan.upper(self.up_ci[k] as usize).unwrap_or(d);
                let w = d - h.min(b_u);
                (w >= self.last).then_some(w)
            });
            if let Some(w) = self.up_warn[k] {
                self.warn_watermark = Rat::min_mark(self.warn_watermark, w);
            }
        }
    }
}

/// Sort key pinning the resolve phase's event order to (condition,
/// trigger, window before deadline) — deterministic across the separate
/// lower/upper array scans.
fn resolve_order(ev: &EngineEvent) -> (usize, usize, bool) {
    match ev {
        EngineEvent::Discharged { ci, obligation } => (
            *ci,
            obligation.trigger_index,
            matches!(obligation.kind, ObligationKind::Upper { .. }),
        ),
        EngineEvent::Violated { ci, kind } => match kind {
            ViolationKind::LowerBound { trigger_index, .. } => (*ci, *trigger_index, false),
            ViolationKind::UpperBound { trigger_index, .. } => (*ci, *trigger_index, true),
        },
        // The resolve phase never emits Opened, Warned, or Forced.
        EngineEvent::Opened { .. } | EngineEvent::Warned { .. } | EngineEvent::Forced { .. } => {
            (usize::MAX, usize::MAX, true)
        }
    }
}

/// Steps one classified event at (nondecreasing) time `t` against the
/// open obligations — Definition 3.1 in one pass:
///
/// 1. owed warnings are swept first, so a deadline that blows in one
///    time jump still warns before its violation;
/// 2. existing obligations resolve (a trigger's bounds constrain
///    strictly later events only), emitted in (condition, trigger,
///    window before deadline) order;
/// 3. the event's own triggers open new obligations, in condition
///    order.
///
/// `Π`/disabling classification is only requested for conditions that
/// hold open obligations, so a lazy [`Classify`] source pays nothing
/// for quiescent conditions. `dense` selects the open-phase strategy:
/// word-mask trigger scans for sets with dispatch-table bits, a
/// per-condition predicate loop otherwise.
///
/// # Panics
///
/// Panics if `t` decreases below the last stepped time.
pub(crate) fn step<'a, T: TimeDomain, C: Classify>(
    plan: &Plan<T>,
    st: &'a mut SoaState<T>,
    cls: &C,
    t: T,
    dense: bool,
) -> &'a [EngineEvent] {
    assert!(
        t >= st.last,
        "monitored event times must be nondecreasing: {} after {}",
        t.to_rat(st.scale),
        st.last.to_rat(st.scale),
    );
    st.events.clear();
    st.events_seen += 1;
    let j = st.events_seen;

    // Warning sweep first: one compare on the quiescent path — the
    // watermark generalizes `min_deadline`.
    if t.past(st.warn_watermark) {
        st.sweep_warnings(t);
    }

    // Pre-scan: classify the event against the *active* conditions
    // only, caching Π / disabling bits in the scratch masks. A fully
    // quiescent event costs one word read per 64 conditions.
    let words = st.active.len();
    let mut any_serve = 0u64;
    for w in 0..words {
        let mut act = st.active[w];
        let mut pw = 0u64;
        let mut dw = 0u64;
        while act != 0 {
            let b = act.trailing_zeros();
            act &= act - 1;
            let ci = w * 64 + b as usize;
            if cls.pi(ci) {
                pw |= 1u64 << b;
            }
            if cls.disabling(ci) {
                dw |= 1u64 << b;
            }
        }
        st.pi_mask[w] = pw;
        st.dis_mask[w] = dw;
        any_serve |= pw | dw;
    }

    // Resolve phase. The watermark gates are what make the flat store
    // cheap at scale: an event that serves nothing and passes no
    // min-deadline/min-earliest skips the scans entirely, so 100k
    // quiescent obligations cost the same as one.
    let resolved_from = st.events.len();
    if any_serve != 0 || t.reached(st.min_earliest) {
        let mut min_e = T::NONE;
        let mut k = 0;
        while k < st.lo_earliest.len() {
            let e = st.lo_earliest[k];
            let ci = st.lo_ci[k] as usize;
            let (w, b) = (ci / 64, ci % 64);
            // Definition 3.1 order: the closed window discharges before
            // the Π check; a disabling post-state excuses only *later*
            // events, never its own event's Π check; and only an
            // escaping lower bound lets a disabling state discharge it.
            let open = t < e;
            let violated = open && st.pi_mask[w] & (1u64 << b) != 0;
            let discharged = !open
                || (!violated
                    && st.dis_mask[w] & (1u64 << b) != 0
                    && plan.escape[w] & (1u64 << b) != 0);
            if !violated && !discharged {
                min_e = T::min_mark(min_e, e);
                k += 1;
                continue;
            }
            let ti = st.lo_trigger[k] as usize;
            st.lo_earliest.swap_remove(k);
            st.lo_ci.swap_remove(k);
            st.lo_trigger.swap_remove(k);
            st.note_removed(ci);
            // Values convert to `Rat` only when something is logged.
            if violated {
                st.events.push(EngineEvent::Violated {
                    ci,
                    kind: ViolationKind::LowerBound {
                        trigger_index: ti,
                        event_index: j,
                        earliest: e.to_rat(st.scale),
                    },
                });
            } else if st.log_lifecycle {
                st.events.push(EngineEvent::Discharged {
                    ci,
                    obligation: Obligation {
                        trigger_index: ti,
                        kind: ObligationKind::Lower {
                            earliest: e.to_rat(st.scale),
                        },
                    },
                });
            }
        }
        st.min_earliest = min_e;
    }
    if any_serve != 0 || t.past(st.min_deadline) {
        let mut min_d = T::NONE;
        let mut k = 0;
        while k < st.up_deadline.len() {
            let d = st.up_deadline[k];
            let ci = st.up_ci[k] as usize;
            let (w, b) = (ci / 64, ci % 64);
            // Past-deadline wins over same-event service: times are
            // nondecreasing, so the deadline definitely passed unserved.
            let violated = t > d;
            let discharged = !violated && (st.pi_mask[w] | st.dis_mask[w]) & (1u64 << b) != 0;
            if !violated && !discharged {
                min_d = T::min_mark(min_d, d);
                k += 1;
                continue;
            }
            let ti = st.up_trigger[k] as usize;
            st.up_deadline.swap_remove(k);
            st.up_ci.swap_remove(k);
            st.up_trigger.swap_remove(k);
            st.up_warn.swap_remove(k);
            st.note_removed(ci);
            if violated {
                st.events.push(EngineEvent::Violated {
                    ci,
                    kind: ViolationKind::UpperBound {
                        trigger_index: ti,
                        deadline: d.to_rat(st.scale),
                    },
                });
            } else if st.log_lifecycle {
                st.events.push(EngineEvent::Discharged {
                    ci,
                    obligation: Obligation {
                        trigger_index: ti,
                        kind: ObligationKind::Upper {
                            deadline: d.to_rat(st.scale),
                        },
                    },
                });
            }
        }
        st.min_deadline = min_d;
    }
    // The two array scans emit in store order; pin the consumer-visible
    // order — sorting only the resolve slice, so swept warnings keep
    // their place ahead of it. Only paid when something resolved.
    if st.events.len() - resolved_from > 1 {
        st.events[resolved_from..].sort_by_key(resolve_order);
    }

    // Open phase.
    if dense {
        for w in 0..words {
            let mut trig = cls.trigger_word(w);
            while trig != 0 {
                let ci = w * 64 + trig.trailing_zeros() as usize;
                trig &= trig - 1;
                st.open_trigger(plan, ci, j, t);
            }
        }
    } else {
        for ci in 0..st.open_count.len() {
            if cls.trigger(ci) {
                st.open_trigger(plan, ci, j, t);
            }
        }
    }
    st.last = t;
    &st.events
}

/// Ends the stream. Under [`SatisfactionMode::Complete`] (Definition
/// 2.2) every open deadline violates — preceded by its warning, if one
/// is still owed, exactly as a stepped event past the deadline would
/// file it. Under [`SatisfactionMode::Prefix`] (Definition 3.1) open
/// deadlines are excused: `t_end ≤ deadline`, so some extension could
/// still meet them. Open windows always discharge. Emission follows the
/// canonical (condition, trigger, window before deadline) order.
pub(crate) fn finish<T: TimeDomain>(
    st: &mut SoaState<T>,
    mode: SatisfactionMode,
) -> &[EngineEvent] {
    st.events.clear();
    for r in st.rows() {
        let ob = st.obligation(&r);
        match (mode, ob.kind) {
            (SatisfactionMode::Complete, ObligationKind::Upper { deadline }) => {
                if let Some(w) = T::unmark(r.warn) {
                    st.events.push(EngineEvent::Warned {
                        ci: r.ci,
                        trigger_index: r.trigger,
                        deadline,
                        warn_at: w.to_rat(st.scale),
                    });
                }
                st.events.push(EngineEvent::Violated {
                    ci: r.ci,
                    kind: ViolationKind::UpperBound {
                        trigger_index: r.trigger,
                        deadline,
                    },
                });
            }
            _ if st.log_lifecycle => st.events.push(EngineEvent::Discharged {
                ci: r.ci,
                obligation: ob,
            }),
            _ => {}
        }
    }
    st.up_deadline.clear();
    st.up_ci.clear();
    st.up_trigger.clear();
    st.up_warn.clear();
    st.lo_earliest.clear();
    st.lo_ci.clear();
    st.lo_trigger.clear();
    st.min_deadline = T::NONE;
    st.min_earliest = T::NONE;
    st.warn_watermark = T::NONE;
    st.active.fill(0);
    st.open_count.fill(0);
    &st.events
}

#[cfg(feature = "serde")]
mod serde_impls {
    //! Exact snapshot encodings (feature `serde`): an [`EngineState`]
    //! as `[events_seen, last_time, open]`, `open` holding each
    //! condition's obligations in canonical (trigger, window before
    //! deadline) order, with the rationals in `tempo-math`'s `"num/den"`
    //! string form. Predictive bookkeeping (warning points, the
    //! horizon) is derived state, rebuilt from the compiled bounds on
    //! resume, so the format predates prediction and resumes unchanged.

    use serde::{Deserialize, Deserializer, Serialize, Serializer};

    use super::{EngineState, SoaState};
    use crate::engine::{Obligation, ObligationKind};
    use tempo_math::Rat;

    impl Serialize for EngineState {
        fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
            let mut open: Vec<Vec<Obligation>> = vec![Vec::new(); self.conditions()];
            for r in self.rows() {
                open[r.ci].push(self.obligation(&r));
            }
            (self.events_seen, self.last, open).serialize(serializer)
        }
    }

    impl<'de> Deserialize<'de> for EngineState {
        fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<EngineState, D::Error> {
            let (events_seen, last, open) =
                <(usize, Rat, Vec<Vec<Obligation>>)>::deserialize(deserializer)?;
            let mut st = SoaState::empty(open.len(), ());
            st.events_seen = events_seen;
            st.last = last;
            for (ci, obs) in open.into_iter().enumerate() {
                for ob in obs {
                    match ob.kind {
                        ObligationKind::Lower { earliest } => {
                            st.push_lower(ci, ob.trigger_index, earliest)
                        }
                        ObligationKind::Upper { deadline } => {
                            st.push_upper(ci, ob.trigger_index, deadline, None)
                        }
                    }
                }
            }
            Ok(st)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exact(bounds: &[(Rat, Option<Rat>)]) -> Plan<Rat> {
        Plan::new(bounds.iter().map(|&(lo, up)| (lo, up, true)))
    }

    fn ints(bounds: &[(i64, Option<i64>)]) -> Plan<Rat> {
        exact(
            &bounds
                .iter()
                .map(|&(lo, up)| (Rat::from(lo), up.map(Rat::from)))
                .collect::<Vec<_>>(),
        )
    }

    #[test]
    fn plan_lowers_integral_bounds_to_unit_scale() {
        let plan = ints(&[(2, Some(5)), (0, None)]).to_ticks().unwrap();
        assert!(plan.scale.is_unit());
        assert_eq!(plan.lower, vec![2, 0]);
        assert_eq!(plan.upper, vec![5, u64::NONE]);
        assert_eq!(plan.max_bound, 5);
    }

    #[test]
    fn plan_scales_rational_bounds() {
        let plan = exact(&[(Rat::new(1, 2), Some(Rat::new(7, 3)))])
            .to_ticks()
            .unwrap();
        assert_eq!(plan.scale.denominator(), 6);
        assert_eq!(plan.lower, vec![3]);
        assert_eq!(plan.upper, vec![14]);
    }

    #[test]
    fn plan_refuses_unscalable_bounds() {
        // Denominator LCM overflow: coprime factors past u64.
        let a = (
            Rat::new(1, (1i128 << 32) + 1),
            Some(Rat::new(1, (1i128 << 32) - 1)),
        );
        let b = (Rat::new(1, 7), None);
        assert!(exact(&[a]).to_ticks().is_some());
        assert!(exact(&[a, b]).to_ticks().is_none());
        // A bound too large for u64 ticks.
        assert!(exact(&[(Rat::ZERO, Some(Rat::from(1i128 << 70)))])
            .to_ticks()
            .is_none());
    }

    #[test]
    fn exact_round_trip_preserves_obligations() {
        let plan = ints(&[(2, Some(5)), (1, Some(9))]).to_ticks().unwrap();
        let mut st = IntEngineState::empty(2, plan.scale);
        st.open_trigger(&plan, 0, 0, 0);
        st.open_trigger(&plan, 1, 3, 10);
        let exact = st.rescale::<Rat>(()).unwrap();
        assert_eq!(exact.open_obligations(), 4);
        assert_eq!(exact.min_deadline, Some(Rat::from(5)));
        assert_eq!(exact.min_earliest, Some(Rat::from(2)));
        let back = exact.rescale::<u64>(plan.scale).unwrap();
        assert_eq!(back.open_of(0), st.open_of(0));
        assert_eq!(back.open_of(1), st.open_of(1));
        assert_eq!((back.min_deadline, back.min_earliest), (5, 2));
        // Prediction off: every deadline is born warned, no watermark.
        assert_eq!(back.up_warn, vec![u64::NONE; 2]);
        assert_eq!(back.warn_watermark, u64::NONE);
    }

    #[test]
    fn predictive_round_trip_preserves_warning_state() {
        let rat = ints(&[(0, Some(5))]);
        let plan = rat.to_ticks().unwrap();
        let mut st = EngineState::new(1);
        st.arm(&rat, Some(Rat::from(2)));
        st.open_trigger(&rat, 0, 1, Rat::from(10)); // deadline 15, warn 13
        assert_eq!(st.warn_watermark, Some(Rat::from(13)));
        let int = st.rescale::<u64>(plan.scale).unwrap();
        assert_eq!((int.h, int.horizon), (2, Some(Rat::from(2))));
        assert_eq!((int.up_warn.clone(), int.warn_watermark), (vec![13], 13));
        // An off-grid horizon refuses the lift: the stream stays exact.
        st.arm(&rat, Some(Rat::new(1, 3)));
        assert!(st.rescale::<u64>(plan.scale).is_none());
    }

    #[test]
    fn arming_marks_passed_warning_points_warned() {
        let rat = ints(&[(0, Some(10))]);
        let mut st = EngineState::new(1);
        st.open_trigger(&rat, 0, 1, Rat::from(2)); // deadline 12
        st.last = Rat::from(10);
        st.arm(&rat, Some(Rat::from(3))); // warn point 9 already passed
        assert_eq!((st.up_warn[0], st.warn_watermark), (None, None));
        st.arm(&rat, Some(Rat::ONE)); // warn point 11 still ahead
        assert_eq!(st.warn_watermark, Some(Rat::from(11)));
    }
}
