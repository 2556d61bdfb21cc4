//! The benchmark's workloads: their shapes, the seeded stream ids, and
//! the expected outcome of every stream.

use std::sync::atomic::{AtomicBool, Ordering};

use tempo_serve::wire::WireEvent;
use tempo_sim::loadgen::ReqServe;

/// How traffic is offered to the server.
#[derive(Clone, Copy, Debug)]
pub enum Drive {
    /// Closed loop: `conns` generator threads, one connection each, send
    /// a pass of `streams` streams and wait for every report before the
    /// next pass.
    Closed { streams: u64, conns: usize },
    /// Open loop: sessions are due at `rate` per second on one
    /// connection, whether or not earlier ones were answered.
    /// `warmup_sessions` are sent before timing starts.
    Open { rate: f64, warmup_sessions: u64 },
}

/// One workload: what traffic it sends and how.
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    pub name: &'static str,
    pub drive: Drive,
    /// Events per stream (requests pair with serves, so even).
    pub events: u32,
    /// Events per `BATCH` frame.
    pub batch: u32,
    /// `ReqServe::late_every`: one late serve every this many requests.
    pub late_every: u64,
    /// Negotiate binary `REPORT2` egress instead of JSON reports.
    pub binary: bool,
    /// Shift every event time by 1/3 ms: the gaps, and so the verdicts,
    /// are unchanged, but no time lies on the integer-millisecond tick
    /// grid, so every stream spills to the exact `Rat` engine.
    pub shift_third_ms: bool,
}

pub const WORKLOADS: [&str; 3] = ["clean_long", "late_long", "session_churn"];

impl Shape {
    /// The shape of workload `name`; `tiny` shrinks it for self-tests.
    pub fn named(name: &str, tiny: bool) -> Option<Shape> {
        let streams = if tiny { 200 } else { 10_000 };
        let long = Shape {
            name: "clean_long",
            drive: Drive::Closed { streams, conns: 2 },
            events: if tiny { 40 } else { 400 },
            batch: 16,
            late_every: 0,
            binary: true,
            shift_third_ms: false,
        };
        match name {
            "clean_long" => Some(long),
            "late_long" => Some(Shape {
                name: "late_long",
                late_every: 4,
                ..long
            }),
            "session_churn" => Some(Shape {
                name: "session_churn",
                drive: Drive::Open {
                    rate: if tiny { 2_000.0 } else { 20_000.0 },
                    warmup_sessions: if tiny { 500 } else { 10_000 },
                },
                events: 20,
                batch: 10,
                late_every: 17,
                binary: false,
                shift_third_ms: true,
            }),
            _ => None,
        }
    }

    /// The traffic model every stream of this workload follows.
    pub fn traffic(&self) -> ReqServe {
        ReqServe {
            late_every: self.late_every,
            ..ReqServe::default()
        }
        .validated()
    }

    /// Event `i` of generated stream `id`, as the client puts it on
    /// the wire.
    pub fn wire_event(&self, traffic: &ReqServe, id: u64, i: u64) -> WireEvent {
        let ev = traffic.event(id, i);
        if self.shift_third_ms {
            WireEvent {
                action: ev.action,
                state: ev.state,
                num: 3 * ev.time_ms + 1,
                den: 3,
            }
        } else {
            WireEvent::at(ev.action, ev.state, ev.time_ms)
        }
    }

    /// The workload's parameters, for result provenance.
    pub fn provenance(&self) -> String {
        let drive = match self.drive {
            Drive::Closed { streams, conns } => format!(
                "\"loop\": \"closed\", \"streams_per_pass\": {streams}, \"conns\": {conns}, \"generator_threads\": {conns}"
            ),
            Drive::Open {
                rate,
                warmup_sessions,
            } => format!(
                "\"loop\": \"open\", \"offered_sessions_per_s\": {rate}, \"warmup_sessions\": {warmup_sessions}, \"conns\": 1, \"generator_threads\": 2"
            ),
        };
        format!(
            "{{\"name\": \"{}\", {drive}, \"events_per_stream\": {}, \"batch\": {}, \"late_every\": {}, \"egress\": \"{}\", \"time_shift_ms\": \"{}\"}}",
            self.name,
            self.events,
            self.batch,
            self.late_every,
            if self.binary { "binary" } else { "json" },
            if self.shift_third_ms { "1/3" } else { "0" },
        )
    }
}

/// Maps the workload seed to the stream-id base handed to
/// `ReqServe::event`: jitter and the late pattern change with the seed,
/// and the server sees only the frames generated from it.
pub fn stream_base(seed: u64) -> u64 {
    let mut x = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    (x ^ (x >> 31)) >> 24
}

/// Room for each pass's stream ids above the seed's base.
pub const PASS_STRIDE: u64 = 1 << 24;

/// Set by `--inject-mismatch`: the next expectation built is off by one
/// violation, so the benchmark's self-test can show that the gate fails.
pub static CORRUPT_NEXT: AtomicBool = AtomicBool::new(false);

/// What a stream's report must say for the run to count it correct.
#[derive(Clone, Copy, Debug)]
pub struct Expected {
    pub events: u64,
    pub violations: u64,
}

impl Expected {
    pub fn of(shape: &Shape, traffic: &ReqServe, id: u64) -> Expected {
        let events = u64::from(shape.events);
        let corrupt = CORRUPT_NEXT.swap(false, Ordering::Relaxed);
        Expected {
            events,
            violations: traffic.expected_violations(id, events) + u64::from(corrupt),
        }
    }

    /// Whether a report with these counts is correct.
    pub fn matches(&self, events: u64, violations: u64, failed: bool) -> bool {
        !failed && events == self.events && violations == self.violations
    }
}
