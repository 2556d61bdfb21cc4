//! Per-event verdicts emitted by the monitor, and the predictive
//! payloads they carry ([`Warning`], [`Forced`]).
//!
//! The monitor alone reports a timing violation only *at* the event
//! that makes it definite; the paper's whole point (Section 3.1) is that
//! the predictive components `Ft(U)`/`Lt(U)` of `time(A, U)` let you
//! reason about deadlines *before* they expire. The engine tracks both
//! natively (see
//! [`Monitor::with_predictor`](crate::Monitor::with_predictor)) and the
//! monitor surfaces them as [`Warning`]s and [`Forced`] windows.

use std::fmt;
use std::sync::Arc;

use tempo_core::{Violation, ViolationKind};
use tempo_math::Rat;

/// An early warning: an open deadline obligation entered its warning
/// window (its remaining slack dropped to at most the configured
/// horizon) before being served.
///
/// Warnings are *predictions*, not verdicts: a warned obligation may
/// still be discharged in time (a near miss) or may go on to become an
/// [`UpperBound`](tempo_core::ViolationKind::UpperBound) violation. The
/// engine guarantees the warning is reported before the violation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Warning {
    /// Name of the condition whose deadline is at risk — shared with
    /// the engine's interned name table, so constructing a warning
    /// never allocates a fresh string.
    pub condition: Arc<str>,
    /// Index of the condition in its compiled set — the stable interned
    /// id (names are for humans; indices key the engine tables).
    pub condition_index: usize,
    /// Index of the trigger that opened the obligation (0 = start-state
    /// trigger, `i ≥ 1` = step trigger at event `i`), matching
    /// [`ViolationKind`](tempo_core::ViolationKind) trigger indices.
    pub trigger_index: usize,
    /// The absolute deadline `t_i + b_u` at risk.
    pub deadline: Rat,
    /// The warning point `max(deadline − horizon, t_i)`: the stream time
    /// at which the obligation entered its warning window.
    pub at: Rat,
    /// Remaining slack at the warning point: `deadline − at`, i.e.
    /// `min(horizon, b_u)`.
    pub slack: Rat,
    /// The horizon the predictor was configured with.
    pub horizon: Rat,
}

impl fmt::Display for Warning {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: deadline {} (trigger {}) within {} at t = {}",
            self.condition, self.deadline, self.trigger_index, self.slack, self.at
        )
    }
}

/// A forced window: the `Ft(U)` half of the paper's `time(A, U)`
/// construction. A trigger opened a lower-bound window wide enough to
/// clear the prediction horizon, so the monitor knows — the moment the
/// trigger fires — that the condition's `Π`-action *cannot legally
/// occur* before [`earliest`](Forced::earliest): the action is forced
/// to stay away at least [`margin`](Forced::margin) time units.
///
/// Like a [`Warning`], a forced window is a prediction about legal
/// futures, not a verdict: verdicts stay
/// [`is_ok`](crate::Verdict::is_ok). It is reported exactly once, at
/// the event that opens the window, and only when `margin ≥ horizon`
/// (with a zero horizon nothing is ever reported).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Forced {
    /// Name of the condition whose window is forced — shared with the
    /// engine's interned name table (no per-report allocation).
    pub condition: Arc<str>,
    /// Index of the condition in its compiled set.
    pub condition_index: usize,
    /// Human-readable label of the condition's `Π` action set — the
    /// action(s) that cannot legally occur inside the window.
    pub action: Arc<str>,
    /// Index of the trigger that opened the window (same convention as
    /// [`Warning::trigger_index`]).
    pub trigger_index: usize,
    /// The earliest legal occurrence `Ft = t_i + b_l`: a `Π`-event
    /// strictly before this time would be a lower-bound violation.
    pub earliest: Rat,
    /// The trigger time `t_i` at which the window was reported.
    pub at: Rat,
    /// The window width `b_l = earliest − at` — how long the action is
    /// forced to stay away, always `≥ horizon`.
    pub margin: Rat,
    /// The horizon the prediction was configured with.
    pub horizon: Rat,
}

impl fmt::Display for Forced {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} forced out until {} (trigger {}, margin {}) at t = {}",
            self.condition, self.action, self.earliest, self.trigger_index, self.margin, self.at
        )
    }
}

/// The monitor's judgement after consuming one event (or finishing a
/// stream): everything is still consistent with the conditions, a
/// deadline has entered its early-warning window, or a definite
/// violation has been witnessed.
///
/// Violation payloads are exactly [`tempo_core::Violation`], so online
/// verdicts compare `==` against the offline checker's output. The
/// [`Warning`](Verdict::Warning) variant only appears when the monitor
/// was built with a predictor
/// ([`Monitor::with_predictor`](crate::Monitor::with_predictor)); it is
/// *not* a violation — [`is_ok`](Verdict::is_ok) stays `true` — but a
/// prediction that one may be imminent.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// The event is consistent with every open obligation.
    Ok,
    /// An open deadline's remaining slack dropped to the predictor's
    /// horizon (see [`Warning`] for the payload). Emitted at most once
    /// per obligation, and always before the obligation's
    /// [`UpperBoundViolation`](Verdict::UpperBoundViolation) if one
    /// follows.
    Warning(Warning),
    /// A trigger opened a lower-bound window at least the horizon wide:
    /// the condition's `Π`-action cannot legally occur before
    /// [`Forced::earliest`]. The `Ft(U)` counterpart of
    /// [`Warning`](Verdict::Warning) — also not a violation
    /// ([`is_ok`](Verdict::is_ok) stays `true`). When one event both
    /// warns and opens a forced window, the warning takes precedence in
    /// the verdict; both payloads remain readable off the monitor.
    Forced(Forced),
    /// A `Π`-event arrived strictly before its earliest permitted time.
    LowerBoundViolation(Violation),
    /// A deadline passed with no `Π`-event and no disabling state.
    UpperBoundViolation(Violation),
}

impl Verdict {
    /// Wraps a violation in the matching verdict variant.
    pub fn from_violation(v: Violation) -> Verdict {
        match v.kind {
            ViolationKind::LowerBound { .. } => Verdict::LowerBoundViolation(v),
            ViolationKind::UpperBound { .. } => Verdict::UpperBoundViolation(v),
        }
    }

    /// Returns `true` while no violation has been witnessed — i.e. for
    /// [`Verdict::Ok`], [`Verdict::Warning`], and [`Verdict::Forced`]
    /// (predictions anticipate trouble; they do not establish it).
    pub fn is_ok(&self) -> bool {
        matches!(self, Verdict::Ok | Verdict::Warning(_) | Verdict::Forced(_))
    }

    /// Returns `true` for [`Verdict::Warning`].
    pub fn is_warning(&self) -> bool {
        matches!(self, Verdict::Warning(_))
    }

    /// Returns `true` for [`Verdict::Forced`].
    pub fn is_forced(&self) -> bool {
        matches!(self, Verdict::Forced(_))
    }

    /// Returns `true` for either violation variant.
    pub fn is_violation(&self) -> bool {
        !self.is_ok()
    }

    /// The violation carried by a violating verdict.
    pub fn violation(&self) -> Option<&Violation> {
        match self {
            Verdict::Ok | Verdict::Warning(_) | Verdict::Forced(_) => None,
            Verdict::LowerBoundViolation(v) | Verdict::UpperBoundViolation(v) => Some(v),
        }
    }

    /// The warning carried by a [`Verdict::Warning`].
    pub fn warning(&self) -> Option<&Warning> {
        match self {
            Verdict::Warning(w) => Some(w),
            _ => None,
        }
    }

    /// The forced window carried by a [`Verdict::Forced`].
    pub fn forced(&self) -> Option<&Forced> {
        match self {
            Verdict::Forced(fw) => Some(fw),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempo_math::Rat;

    #[test]
    fn wraps_by_kind() {
        let lower = Violation {
            condition: "C".into(),
            kind: ViolationKind::LowerBound {
                trigger_index: 0,
                event_index: 1,
                earliest: Rat::from(2),
            },
        };
        assert!(matches!(
            Verdict::from_violation(lower.clone()),
            Verdict::LowerBoundViolation(_)
        ));
        let upper = Violation {
            condition: "C".into(),
            kind: ViolationKind::UpperBound {
                trigger_index: 0,
                deadline: Rat::from(4),
            },
        };
        let v = Verdict::from_violation(upper.clone());
        assert!(matches!(v, Verdict::UpperBoundViolation(_)));
        assert!(!v.is_ok());
        assert!(v.is_violation());
        assert_eq!(v.violation(), Some(&upper));
        assert!(Verdict::Ok.is_ok());
        assert_eq!(Verdict::Ok.violation(), None);
    }

    #[test]
    fn warnings_are_ok_but_flagged() {
        let w = Warning {
            condition: "C".into(),
            condition_index: 0,
            trigger_index: 3,
            deadline: Rat::from(10),
            at: Rat::from(8),
            slack: Rat::from(2),
            horizon: Rat::from(2),
        };
        let v = Verdict::Warning(w.clone());
        assert!(v.is_ok());
        assert!(v.is_warning());
        assert!(!v.is_violation());
        assert_eq!(v.warning(), Some(&w));
        assert_eq!(v.violation(), None);
        assert!(!Verdict::Ok.is_warning());
        assert!(w.to_string().contains("deadline 10"));
    }

    #[test]
    fn forced_windows_are_ok_but_flagged() {
        let fw = Forced {
            condition: "C".into(),
            condition_index: 0,
            action: "grant".into(),
            trigger_index: 2,
            earliest: Rat::from(7),
            at: Rat::from(2),
            margin: Rat::from(5),
            horizon: Rat::from(3),
        };
        let v = Verdict::Forced(fw.clone());
        assert!(v.is_ok());
        assert!(v.is_forced());
        assert!(!v.is_warning());
        assert!(!v.is_violation());
        assert_eq!(v.forced(), Some(&fw));
        assert_eq!(v.warning(), None);
        assert_eq!(v.violation(), None);
        assert!(!Verdict::Ok.is_forced());
        assert!(fw.to_string().contains("until 7"));
    }
}
