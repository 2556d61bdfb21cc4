//! A deliberately naive reference checker for timing conditions: the
//! independent oracle of the engine property tests.
//!
//! It evaluates Definitions 2.2/3.1 and the `Lt`/`Ft` predictions
//! straight off the definitions, one trigger at a time, by rescanning
//! the whole sequence — quadratic, with no obligation store, no
//! watermarks and no time domains. It reads only `TimingCondition`'s
//! own predicates, `TimedSequence` and `Rat`, so it shares no code with
//! the engine it checks.
//!
//! For each trigger `i` of condition `C` (`i = 0` when the start state
//! is in `T_start`, at time 0; `i ≥ 1` when step `i` is in `T_step`, at
//! time `t_i`):
//!
//! * **lower bound** (`b_l > 0`): the first later event at or past
//!   `t_i + b_l` ends the window; before that, a `Π`-event is a
//!   violation (even if its own post-state disables `C`), and a
//!   disabling event ends the window (unless the escape is off, as in
//!   Definition 2.1);
//! * **upper bound** (finite `b_u`): the first later event strictly past
//!   `t_i + b_u` is a violation; before that, a `Π`- or disabling event
//!   serves it. A deadline still open at the end violates under
//!   `Complete` and is excused under `Prefix`;
//! * **`Lt` warning** (horizon `h`): an open deadline is warned by the
//!   first later event strictly past `max(deadline − h, t_i)`, ahead of
//!   whatever that event resolves; a deadline that violates at the end
//!   is warned there first;
//! * **`Ft` forced window** (horizon `h > 0`): a step trigger whose
//!   window is at least `h` wide reports it as it opens.
//!
//! Findings come out in the order the engine emits them: per event the
//! warnings by (condition, trigger), then the violations by (condition,
//! trigger, window before deadline), then the forced windows by
//! condition; at the end, per (condition, trigger), a deadline's
//! warning before its violation.

use std::cmp::Ordering;

use tempo_core::{TimedSequence, TimingCondition};
use tempo_math::Rat;

/// One reported outcome; `ci` indexes the condition list.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Finding {
    /// A `Π`-event (event `event`) inside trigger `trigger`'s window.
    Lower {
        ci: usize,
        trigger: usize,
        event: usize,
        earliest: Rat,
    },
    /// Trigger `trigger`'s deadline passed unserved.
    Upper {
        ci: usize,
        trigger: usize,
        deadline: Rat,
    },
    /// Trigger `trigger`'s open deadline passed its warning point.
    Warned {
        ci: usize,
        trigger: usize,
        deadline: Rat,
        warn_at: Rat,
    },
    /// Trigger `trigger` opened a window at least the horizon wide.
    Forced {
        ci: usize,
        trigger: usize,
        earliest: Rat,
        t_i: Rat,
        margin: Rat,
    },
}

impl Finding {
    /// Whether this finding is a violation (not a prediction).
    pub fn is_violation(&self) -> bool {
        matches!(self, Finding::Lower { .. } | Finding::Upper { .. })
    }
}

/// An obligation open after some event: `(ci, trigger, is_upper, time)`
/// with `time` the window end or the deadline.
pub type Open = (usize, usize, bool, Rat);

/// What the reference saw on one sequence.
#[derive(Clone, Debug, Default)]
pub struct Run {
    /// `steps[j - 1]`: the findings at event `j`.
    pub steps: Vec<Vec<Finding>>,
    /// The findings at the end of the sequence.
    pub finish: Vec<Finding>,
    /// `open[j]`: the obligations open after event `j` (`open[0]`:
    /// before any event), sorted.
    pub open: Vec<Vec<Open>>,
}

impl Run {
    /// The earliest deadline open after event `j`.
    pub fn min_deadline(&self, j: usize) -> Option<Rat> {
        self.open[j].iter().filter(|o| o.2).map(|o| o.3).min()
    }

    /// Every finding, in order.
    pub fn all(&self) -> impl Iterator<Item = &Finding> {
        self.steps.iter().flatten().chain(&self.finish)
    }
}

/// A finding, the event it is reported at (`n + 1`: the end), and its
/// order within that event: `(phase, condition, trigger, lower/upper)`.
type Found = (Finding, usize, (u8, usize, usize, u8));

/// The reference checker's settings.
#[derive(Clone, Copy, Debug)]
pub struct Reference {
    /// `true`: Definition 3.1 (open deadlines excused at the end);
    /// `false`: Definition 2.2 (they violate).
    pub prefix: bool,
    /// The prediction horizon, if predictions are wanted.
    pub horizon: Option<Rat>,
    /// Whether a disabling event ends a lower window (Definitions
    /// 2.2/3.1) or not (Definition 2.1).
    pub lower_escape: bool,
}

impl Reference {
    /// Definition 3.1 (`prefix`) or 2.2, no predictions.
    pub fn new(prefix: bool) -> Reference {
        Reference {
            prefix,
            horizon: None,
            lower_escape: true,
        }
    }

    /// With predictions at horizon `h`.
    pub fn horizon(self, h: Rat) -> Reference {
        Reference {
            horizon: Some(h),
            ..self
        }
    }

    /// Runs the definitions over `seq` for every condition.
    pub fn run<S, A>(&self, seq: &TimedSequence<S, A>, conds: &[TimingCondition<S, A>]) -> Run
    where
        S: Clone + std::fmt::Debug,
        A: Clone + std::fmt::Debug + PartialEq,
    {
        let events: Vec<(&S, &A, Rat, &S)> = seq.step_triples().collect();
        let n = events.len();
        let time = |j: usize| if j == 0 { Rat::ZERO } else { events[j - 1].2 };
        let mut found: Vec<Found> = Vec::new();
        let mut open: Vec<Vec<Open>> = vec![Vec::new(); n + 1];
        for (ci, c) in conds.iter().enumerate() {
            let serves = |j: usize| c.in_pi(events[j - 1].1);
            let disables = |j: usize| c.in_disabling_event(events[j - 1].1, events[j - 1].3);
            let mut triggers = Vec::new();
            if c.in_t_start(seq.first_state()) {
                triggers.push(0);
            }
            for (j, (pre, a, _, post)) in events.iter().enumerate() {
                if c.in_t_step(pre, a, post) {
                    triggers.push(j + 1);
                }
            }
            for &i in &triggers {
                let t_i = time(i);
                let b_l = c.lower();
                if b_l > Rat::ZERO {
                    let earliest = t_i + b_l;
                    let mut end = n + 1;
                    for j in i + 1..=n {
                        if time(j) >= earliest {
                            end = j;
                            break;
                        }
                        if serves(j) {
                            let f = Finding::Lower {
                                ci,
                                trigger: i,
                                event: j,
                                earliest,
                            };
                            found.push((f, j, (1, ci, i, 0)));
                            end = j;
                            break;
                        }
                        if self.lower_escape && disables(j) {
                            end = j;
                            break;
                        }
                    }
                    (i..end.min(n + 1)).for_each(|j| open[j].push((ci, i, false, earliest)));
                    match self.horizon {
                        Some(h) if i >= 1 && h > Rat::ZERO && b_l >= h => {
                            let f = Finding::Forced {
                                ci,
                                trigger: i,
                                earliest,
                                t_i,
                                margin: b_l,
                            };
                            found.push((f, i, (2, ci, i, 0)));
                        }
                        _ => {}
                    }
                }
                let Some(b_u) = c.upper().finite() else {
                    continue;
                };
                let deadline = t_i + b_u;
                let mut end = n + 1;
                for j in i + 1..=n {
                    if time(j) > deadline {
                        found.push((
                            Finding::Upper {
                                ci,
                                trigger: i,
                                deadline,
                            },
                            j,
                            (1, ci, i, 1),
                        ));
                        end = j;
                        break;
                    }
                    if serves(j) || disables(j) {
                        end = j;
                        break;
                    }
                }
                (i..end.min(n + 1)).for_each(|j| open[j].push((ci, i, true, deadline)));
                let violates_at_end = end == n + 1 && !self.prefix;
                if violates_at_end {
                    found.push((
                        Finding::Upper {
                            ci,
                            trigger: i,
                            deadline,
                        },
                        n + 1,
                        (1, ci, i, 1),
                    ));
                }
                if let Some(h) = self.horizon {
                    let warn_at = (deadline - h).max(t_i);
                    let last = if end == n + 1 { n } else { end };
                    let warned = (i + 1..=last).find(|&j| time(j) > warn_at);
                    if let Some(j) = warned.or((violates_at_end).then_some(n + 1)) {
                        let f = Finding::Warned {
                            ci,
                            trigger: i,
                            deadline,
                            warn_at,
                        };
                        found.push((f, j, (0, ci, i, 0)));
                    }
                }
            }
        }
        let mut run = Run {
            steps: vec![Vec::new(); n],
            finish: Vec::new(),
            open,
        };
        found.sort_by(|a, b| match a.1.cmp(&b.1) {
            // At the end, each deadline's warning precedes its violation.
            Ordering::Equal if a.1 == n + 1 => {
                let (ka, kb) = (a.2, b.2);
                (ka.1, ka.2, ka.0).cmp(&(kb.1, kb.2, kb.0))
            }
            o => o.then(a.2.cmp(&b.2)),
        });
        for (f, j, _) in found {
            if j == n + 1 {
                run.finish.push(f);
            } else {
                run.steps[j - 1].push(f);
            }
        }
        for o in &mut run.open {
            o.sort();
        }
        run
    }
}
