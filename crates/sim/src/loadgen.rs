//! Deterministic request/serve traffic for driving the networked
//! ingest path (the loopback tests and `perfbench`).
//!
//! [`ReqServe`] generates, per stream, an alternating
//! `REQUEST`/`SERVE` trace on an integer-millisecond clock: request `k`
//! lands at `k·period + jitter`, its serve follows within the deadline
//! — except every [`late_every`](ReqServe::late_every)-th serve, which
//! is pushed past the deadline to inject a known upper-bound violation.
//! Everything is a pure function of `(stream, index)` through a
//! `splitmix64`-style mixer, so any worker can generate any slice of
//! any stream with no shared state, and the expected violation count is
//! exactly computable — which is how the loopback tests assert
//! zero-loss delivery end to end.

/// Mixes `(stream, k, salt)` into 64 well-spread bits.
fn mix(stream: u64, k: u64, salt: u64) -> u64 {
    let mut x = stream
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(k)
        .wrapping_add(salt.wrapping_mul(0xbf58_476d_1ce4_e5b9));
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// One generated event: an action/state id pair at an integer
/// millisecond timestamp.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LoadEvent {
    /// `0` = `REQUEST`, `1` = `SERVE` (indices into
    /// [`ReqServe::ACTIONS`]).
    pub action: u32,
    /// Post-state id (`1` while a request is outstanding, `0` after its
    /// serve).
    pub state: u32,
    /// Absolute time in milliseconds.
    pub time_ms: i64,
}

/// A deterministic request/serve traffic model.
#[derive(Clone, Copy, Debug)]
pub struct ReqServe {
    /// Request period per stream, in ms.
    pub period_ms: u32,
    /// Serve deadline after each request, in ms (the spec's upper
    /// bound).
    pub deadline_ms: u32,
    /// Maximum request jitter, in ms.
    pub jitter_ms: u32,
    /// Inject one late serve every this many requests (`0` = never).
    /// Lateness is keyed on `(stream + request index)`, so violations
    /// spread across streams.
    pub late_every: u64,
}

impl Default for ReqServe {
    fn default() -> ReqServe {
        ReqServe {
            period_ms: 20,
            deadline_ms: 5,
            jitter_ms: 3,
            late_every: 0,
        }
    }
}

impl ReqServe {
    /// The action table, in wire id order.
    pub const ACTIONS: [&'static str; 2] = ["REQUEST", "SERVE"];

    /// Normalizes the model so each stream's trace is time-ordered:
    /// the period must cover the worst jitter plus the latest possible
    /// (injected-late) serve.
    pub fn validated(self) -> ReqServe {
        let deadline_ms = self.deadline_ms.max(1);
        let floor = self.jitter_ms + 2 * deadline_ms + 2;
        ReqServe {
            period_ms: self.period_ms.max(floor),
            deadline_ms,
            ..self
        }
    }

    /// The `.tspec` source this traffic is checked against: every
    /// `REQUEST` must be served within `deadline_ms` (times are
    /// integer milliseconds end to end, so the pool's integer-tick
    /// backend engages).
    pub fn tspec(&self) -> String {
        self.tspec_with_deadline(self.deadline_ms)
    }

    /// [`tspec`](ReqServe::tspec) with an explicit deadline — e.g. a
    /// *tightened* bound to hot-reload a running server onto.
    pub fn tspec_with_deadline(&self, deadline_ms: u32) -> String {
        format!(
            "spec reqserve;\n\n\
             actions REQUEST, SERVE;\n\n\
             cond SERVE-DEADLINE {{\n    \
             trigger on REQUEST;\n    \
             pi SERVE;\n    \
             bounds [0, {deadline_ms}];\n\
             }}\n"
        )
    }

    /// Whether request `k` of `stream` is injected late (a guaranteed
    /// upper-bound violation).
    pub fn is_late(&self, stream: u64, k: u64) -> bool {
        self.late_every != 0 && stream.wrapping_add(k).is_multiple_of(self.late_every)
    }

    /// Event `i` (0-based) of `stream`: even indices are requests, odd
    /// indices their serves.
    pub fn event(&self, stream: u64, i: u64) -> LoadEvent {
        let k = i / 2;
        let request_at = k as i64 * i64::from(self.period_ms)
            + (mix(stream, k, 1) % u64::from(self.jitter_ms + 1)) as i64;
        if i.is_multiple_of(2) {
            LoadEvent {
                action: 0,
                state: 1,
                time_ms: request_at,
            }
        } else {
            let delay = if self.is_late(stream, k) {
                // Past the deadline by at least 1ms: a violation.
                i64::from(self.deadline_ms)
                    + 1
                    + (mix(stream, k, 2) % u64::from(self.deadline_ms)) as i64
            } else {
                (mix(stream, k, 3) % u64::from(self.deadline_ms + 1)) as i64
            };
            LoadEvent {
                action: 1,
                state: 0,
                time_ms: request_at + delay,
            }
        }
    }

    /// How many of the first `events` events of `stream` are injected
    /// violations (late serves) — the expected per-stream violation
    /// count for a loss-free ingest path.
    pub fn expected_violations(&self, stream: u64, events: u64) -> u64 {
        (0..events)
            .filter(|i| i % 2 == 1 && self.is_late(stream, i / 2))
            .count() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traces_are_time_ordered() {
        let model = ReqServe {
            period_ms: 1, // clamped up by validated()
            deadline_ms: 4,
            jitter_ms: 5,
            late_every: 3,
        }
        .validated();
        assert!(model.period_ms >= model.jitter_ms + 2 * model.deadline_ms + 2);
        for stream in [0u64, 1, 17, 1_000_003] {
            let mut last = i64::MIN;
            for i in 0..200 {
                let ev = model.event(stream, i);
                assert!(
                    ev.time_ms >= last,
                    "stream {stream} event {i} at {} after {last}",
                    ev.time_ms
                );
                last = ev.time_ms;
                assert_eq!(ev.action, (i % 2) as u32);
            }
        }
    }

    #[test]
    fn late_serves_break_the_deadline_and_only_them() {
        let model = ReqServe {
            late_every: 5,
            ..ReqServe::default()
        }
        .validated();
        let mut late_seen = 0u64;
        for stream in 0..20u64 {
            for k in 0..50u64 {
                let req = model.event(stream, 2 * k);
                let serve = model.event(stream, 2 * k + 1);
                let gap = serve.time_ms - req.time_ms;
                if model.is_late(stream, k) {
                    assert!(
                        gap > i64::from(model.deadline_ms),
                        "late serve within bound"
                    );
                    late_seen += 1;
                } else {
                    assert!(
                        gap <= i64::from(model.deadline_ms),
                        "on-time serve past bound"
                    );
                }
            }
            assert_eq!(
                model.expected_violations(stream, 100),
                (0..50).filter(|&k| model.is_late(stream, k)).count() as u64
            );
        }
        assert!(late_seen > 0);
    }

    #[test]
    fn generation_is_deterministic() {
        let model = ReqServe::default().validated();
        assert_eq!(model.event(42, 13), model.event(42, 13));
        assert_ne!(model.event(42, 12).time_ms, model.event(43, 12).time_ms);
    }
}
