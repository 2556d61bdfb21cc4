//! Shared monitor counters and a plain-text snapshot renderer.
//!
//! A [`MonitorMetrics`] is a bag of atomics that pool workers and
//! producer threads bump concurrently; [`snapshot`] freezes the
//! counters into a [`MetricsSnapshot`] whose `Display` renders an
//! aligned table in the style of `tempo-core`'s `render` module.
//!
//! The hot, worker-side counters (events, obligation churn, warnings,
//! slack) live only in *shards*: each pool worker records into its own
//! cache-line-aligned [`MetricsShard`], and [`snapshot`] sums the
//! shards. Producer-side counters (queue depth, drops, batches,
//! per-stream lag) live on the base struct — they are either amortized
//! by batching or per-stream to begin with.
//!
//! [`snapshot`]: MonitorMetrics::snapshot

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use tempo_math::Rat;

use crate::ring::CachePadded;

/// Number of buckets in the warning-slack histogram: quartiles of the
/// `slack / horizon` ratio plus a final bucket for full-horizon warnings.
pub const SLACK_BUCKETS: usize = 5;

/// Buckets a warning's slack into the `slack / horizon` histogram. A
/// clamped warning (`slack < horizon`) lands in the quartile of its
/// ratio; a full-horizon warning — and every warning at horizon `0` —
/// lands in the last bucket.
fn slack_bucket(slack: Rat, horizon: Rat) -> usize {
    if horizon.is_zero() || slack >= horizon {
        SLACK_BUCKETS - 1
    } else {
        // slack/horizon ∈ [0, 1): quartile index without division.
        let s4 = slack * Rat::from(4);
        if s4 < horizon {
            0
        } else if s4 < horizon * Rat::from(2) {
            1
        } else if s4 < horizon * Rat::from(3) {
            2
        } else {
            3
        }
    }
}

/// Buckets a forced window's margin into the `margin / horizon`
/// histogram. Forced windows are only reported when `margin ≥ horizon`,
/// so the ratio is at least one: the buckets are doubling intervals
/// `[1,2) [2,4) [4,8) [8,16) [16,∞)`. A zero horizon never reports a
/// forced window, but is defensively sent to the last bucket.
fn margin_bucket(margin: Rat, horizon: Rat) -> usize {
    if horizon.is_zero() {
        return SLACK_BUCKETS - 1;
    }
    // margin/horizon ∈ [1, ∞): doubling index without division.
    let mut bound = horizon * Rat::from(2);
    for bucket in 0..SLACK_BUCKETS - 1 {
        if margin < bound {
            return bucket;
        }
        bound *= Rat::from(2);
    }
    SLACK_BUCKETS - 1
}

/// Lag accounting for one stream: events enqueued by the producer vs
/// events drained (processed or dropped) by the worker.
///
/// The two counters live on separate cache lines: the producer bumps
/// `enqueued` and the worker bumps `drained` at full ingestion rate, so
/// sharing a line would make every send invalidate the worker's cache
/// and vice versa.
#[derive(Debug, Default)]
pub struct StreamLag {
    enqueued: CachePadded<AtomicU64>,
    drained: CachePadded<AtomicU64>,
}

impl StreamLag {
    /// Records one event handed to the stream's queue.
    pub fn record_enqueued(&self) {
        self.enqueued.value.fetch_add(1, Ordering::Relaxed);
    }

    /// Records `n` events handed to the stream's queue in one batch.
    pub fn record_enqueued_many(&self, n: u64) {
        self.enqueued.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Records one event leaving the queue (processed or dropped).
    pub fn record_drained(&self) {
        self.drained.value.fetch_add(1, Ordering::Relaxed);
    }

    /// Records `n` events leaving the queue in one drained batch.
    pub fn record_drained_many(&self, n: u64) {
        self.drained.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Events currently in flight for this stream.
    pub fn lag(&self) -> u64 {
        self.enqueued
            .value
            .load(Ordering::Relaxed)
            .saturating_sub(self.drained.value.load(Ordering::Relaxed))
    }

    /// Total events enqueued so far.
    pub fn enqueued(&self) -> u64 {
        self.enqueued.value.load(Ordering::Relaxed)
    }
}

/// One worker's private slice of the hot counters. Cache-line-aligned so
/// shards never false-share; all fields are bumped by exactly one worker
/// thread and only read across threads at snapshot time.
#[derive(Debug, Default)]
#[repr(align(64))]
pub(crate) struct MetricsShard {
    events: AtomicU64,
    obligations_opened: AtomicU64,
    obligations_discharged: AtomicU64,
    obligations_violated: AtomicU64,
    warnings: AtomicU64,
    warning_slack_hist: [AtomicU64; SLACK_BUCKETS],
    forced: AtomicU64,
    forced_margin_hist: [AtomicU64; SLACK_BUCKETS],
    min_slack: Mutex<Option<Rat>>,
}

impl MetricsShard {
    pub(crate) fn record_event(&self) {
        self.events.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_opened(&self, n: u64) {
        self.obligations_opened.fetch_add(n, Ordering::Relaxed);
    }

    pub(crate) fn record_discharged(&self) {
        self.obligations_discharged.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_violated(&self) {
        self.obligations_violated.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_warning(&self, slack: Rat, horizon: Rat) {
        self.warnings.fetch_add(1, Ordering::Relaxed);
        self.warning_slack_hist[slack_bucket(slack, horizon)].fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_forced(&self, margin: Rat, horizon: Rat) {
        self.forced.fetch_add(1, Ordering::Relaxed);
        self.forced_margin_hist[margin_bucket(margin, horizon)].fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_min_slack(&self, slack: Rat) {
        let mut guard = self.min_slack.lock().expect("metrics mutex poisoned");
        match *guard {
            Some(m) if m <= slack => {}
            _ => *guard = Some(slack),
        }
    }
}

/// Atomic counters shared by pool workers and producers.
#[derive(Debug, Default)]
pub struct MonitorMetrics {
    max_queue_depth: AtomicU64,
    dropped_events: AtomicU64,
    failed_streams: AtomicU64,
    batches: AtomicU64,
    batched_events: AtomicU64,
    max_batch: AtomicU64,
    streams: Mutex<Vec<(u64, Arc<StreamLag>)>>,
    shards: Mutex<Vec<Arc<MetricsShard>>>,
}

impl MonitorMetrics {
    /// Fresh, all-zero counters.
    pub fn new() -> MonitorMetrics {
        MonitorMetrics::default()
    }

    /// Folds an observed queue depth into the running maximum.
    pub fn record_queue_depth(&self, depth: u64) {
        self.max_queue_depth.fetch_max(depth, Ordering::Relaxed);
    }

    /// Records one event discarded by the drop-oldest overload policy.
    pub fn record_dropped(&self) {
        self.dropped_events.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one stream refused under the fail-stream overload policy.
    pub fn record_failed_stream(&self) {
        self.failed_streams.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one batch of `n` events pushed through a pool handle.
    pub fn record_batch(&self, n: u64) {
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.batched_events.fetch_add(n, Ordering::Relaxed);
        self.max_batch.fetch_max(n, Ordering::Relaxed);
    }

    /// Registers a stream for per-stream lag reporting.
    pub fn register_stream(&self, id: u64) -> Arc<StreamLag> {
        let lag = Arc::new(StreamLag::default());
        self.streams
            .lock()
            .expect("metrics mutex poisoned")
            .push((id, Arc::clone(&lag)));
        lag
    }

    /// Registers a new private shard of the hot counters (one per pool
    /// worker). The shard's counts are folded into every subsequent
    /// [`snapshot`](MonitorMetrics::snapshot).
    pub(crate) fn register_shard(&self) -> Arc<MetricsShard> {
        let shard = Arc::new(MetricsShard::default());
        self.shards
            .lock()
            .expect("metrics mutex poisoned")
            .push(Arc::clone(&shard));
        shard
    }

    /// Freezes the counters into an immutable snapshot, summing every
    /// worker shard's hot counters beside the base producer counters.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut out = MetricsSnapshot::default();
        self.snapshot_into(&mut out);
        out
    }

    /// [`snapshot`](MonitorMetrics::snapshot) into a caller-provided
    /// snapshot, reusing its `streams` buffer instead of allocating a
    /// fresh one per call. A caller polling the counters on a timer —
    /// `tempo-serve`'s metrics egress does, once per subscribed client
    /// interval — holds one `MetricsSnapshot` and refreshes it here,
    /// making the steady-state poll allocation-free.
    pub fn snapshot_into(&self, out: &mut MetricsSnapshot) {
        out.streams.clear();
        {
            let streams = self.streams.lock().expect("metrics mutex poisoned");
            out.streams.reserve(streams.len());
            out.streams
                .extend(streams.iter().map(|(id, lag)| StreamLagSnapshot {
                    stream: *id,
                    enqueued: lag.enqueued(),
                    lag: lag.lag(),
                }));
        }
        out.events = 0;
        out.obligations_opened = 0;
        out.obligations_discharged = 0;
        out.obligations_violated = 0;
        out.warnings = 0;
        out.warning_slack_hist = [0; SLACK_BUCKETS];
        out.forced = 0;
        out.forced_margin_hist = [0; SLACK_BUCKETS];
        out.min_slack = None;
        for shard in self.shards.lock().expect("metrics mutex poisoned").iter() {
            out.events += shard.events.load(Ordering::Relaxed);
            out.obligations_opened += shard.obligations_opened.load(Ordering::Relaxed);
            out.obligations_discharged += shard.obligations_discharged.load(Ordering::Relaxed);
            out.obligations_violated += shard.obligations_violated.load(Ordering::Relaxed);
            out.warnings += shard.warnings.load(Ordering::Relaxed);
            for (total, bucket) in out
                .warning_slack_hist
                .iter_mut()
                .zip(&shard.warning_slack_hist)
            {
                *total += bucket.load(Ordering::Relaxed);
            }
            out.forced += shard.forced.load(Ordering::Relaxed);
            for (total, bucket) in out
                .forced_margin_hist
                .iter_mut()
                .zip(&shard.forced_margin_hist)
            {
                *total += bucket.load(Ordering::Relaxed);
            }
            let shard_min = *shard.min_slack.lock().expect("metrics mutex poisoned");
            out.min_slack = match (out.min_slack, shard_min) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            };
        }
        out.max_queue_depth = self.max_queue_depth.load(Ordering::Relaxed);
        out.dropped_events = self.dropped_events.load(Ordering::Relaxed);
        out.failed_streams = self.failed_streams.load(Ordering::Relaxed);
        out.batches = self.batches.load(Ordering::Relaxed);
        out.batched_events = self.batched_events.load(Ordering::Relaxed);
        out.max_batch = self.max_batch.load(Ordering::Relaxed);
    }
}

/// Per-stream lag at snapshot time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StreamLagSnapshot {
    /// Stream id.
    pub stream: u64,
    /// Total events the producer has enqueued.
    pub enqueued: u64,
    /// Events enqueued but not yet drained.
    pub lag: u64,
}

/// A frozen copy of every counter, render-able as an aligned table.
///
/// `Default` is the all-zero snapshot — the starting buffer for
/// [`MonitorMetrics::snapshot_into`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Events consumed by monitors.
    pub events: u64,
    /// Obligations opened by triggers.
    pub obligations_opened: u64,
    /// Obligations discharged without violation.
    pub obligations_discharged: u64,
    /// Obligations resolved as violations.
    pub obligations_violated: u64,
    /// Deepest queue observed by any worker.
    pub max_queue_depth: u64,
    /// Events discarded by the drop-oldest policy.
    pub dropped_events: u64,
    /// Streams refused by the fail-stream policy.
    pub failed_streams: u64,
    /// Early warnings emitted by predictors.
    pub warnings: u64,
    /// Warning counts bucketed by `slack / horizon` quartile; the last
    /// bucket holds full-horizon warnings and every warning at horizon
    /// `0`.
    pub warning_slack_hist: [u64; SLACK_BUCKETS],
    /// Forced windows reported by predictive monitors.
    pub forced: u64,
    /// Forced-window counts bucketed by `margin / horizon` doubling
    /// intervals `[1,2) … [16,∞)`.
    pub forced_margin_hist: [u64; SLACK_BUCKETS],
    /// All-time minimum remaining slack observed across every open
    /// deadline; `None` until a predictor has reported one.
    pub min_slack: Option<Rat>,
    /// Batches pushed through pool handles.
    pub batches: u64,
    /// Events contained in those batches.
    pub batched_events: u64,
    /// Largest single batch.
    pub max_batch: u64,
    /// Per-stream lag, in registration order.
    pub streams: Vec<StreamLagSnapshot>,
}

impl MetricsSnapshot {
    /// Obligations still open (opened minus resolved either way).
    pub fn obligations_open(&self) -> u64 {
        self.obligations_opened
            .saturating_sub(self.obligations_discharged + self.obligations_violated)
    }

    /// Renders the snapshot as an aligned two-column table:
    ///
    /// ```text
    ///   events                 10000
    ///   obligations opened       312
    ///   ...
    ///   stream 0 lag               3   (of 5000 enqueued)
    /// ```
    pub fn render(&self) -> String {
        let mut rows: Vec<(String, String, String)> = vec![
            row("events", self.events),
            row("obligations opened", self.obligations_opened),
            row("obligations discharged", self.obligations_discharged),
            row("obligations violated", self.obligations_violated),
            row("obligations open", self.obligations_open()),
            row("max queue depth", self.max_queue_depth),
            row("dropped events", self.dropped_events),
            row("failed streams", self.failed_streams),
            row("warnings", self.warnings),
        ];
        if self.warnings > 0 {
            rows.push((
                "warning slack histogram".to_string(),
                self.warning_slack_hist
                    .iter()
                    .map(u64::to_string)
                    .collect::<Vec<_>>()
                    .join("/"),
                "(slack/horizon quartiles, full-horizon last)".to_string(),
            ));
        }
        rows.push(row("forced windows", self.forced));
        if self.forced > 0 {
            rows.push((
                "forced margin histogram".to_string(),
                self.forced_margin_hist
                    .iter()
                    .map(u64::to_string)
                    .collect::<Vec<_>>()
                    .join("/"),
                "(margin/horizon doublings from 1x)".to_string(),
            ));
        }
        if let Some(s) = self.min_slack {
            rows.push(("min slack seen".to_string(), s.to_string(), String::new()));
        }
        if self.batches > 0 {
            rows.push(row("batches", self.batches));
            rows.push(row("batched events", self.batched_events));
            rows.push(row("max batch", self.max_batch));
        }
        for s in &self.streams {
            rows.push((
                format!("stream {} lag", s.stream),
                s.lag.to_string(),
                format!("(of {} enqueued)", s.enqueued),
            ));
        }
        render_rows(&rows)
    }
}

impl fmt::Display for MetricsSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.render())
    }
}

fn row(label: &str, value: u64) -> (String, String, String) {
    (label.to_string(), value.to_string(), String::new())
}

/// Aligned three-column rendering, after `tempo-core`'s `render` module:
/// left-padded label column, right-aligned value column, trailing note.
fn render_rows(rows: &[(String, String, String)]) -> String {
    let w0 = rows.iter().map(|r| r.0.len()).max().unwrap_or(0);
    let w1 = rows.iter().map(|r| r.1.len()).max().unwrap_or(0);
    let mut out = String::new();
    for (label, value, note) in rows {
        out.push_str(&format!("  {label:<w0$}  {value:>w1$}"));
        if !note.is_empty() {
            out.push_str(&format!("  {note}"));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let m = MonitorMetrics::new();
        let shard = m.register_shard();
        shard.record_event();
        shard.record_event();
        shard.record_opened(3);
        shard.record_discharged();
        shard.record_violated();
        m.record_queue_depth(5);
        m.record_queue_depth(2);
        let s = m.snapshot();
        assert_eq!(s.events, 2);
        assert_eq!(s.obligations_opened, 3);
        assert_eq!(s.obligations_open(), 1);
        assert_eq!(s.max_queue_depth, 5);
    }

    #[test]
    fn stream_lag_tracks_in_flight() {
        let m = MonitorMetrics::new();
        let lag = m.register_stream(7);
        lag.record_enqueued();
        lag.record_enqueued();
        lag.record_drained();
        let s = m.snapshot();
        assert_eq!(
            s.streams,
            vec![StreamLagSnapshot {
                stream: 7,
                enqueued: 2,
                lag: 1
            }]
        );
    }

    #[test]
    fn warning_histogram_buckets_by_slack_ratio() {
        let m = MonitorMetrics::new();
        let shard = m.register_shard();
        let h = Rat::from(8);
        shard.record_warning(Rat::from(1), h); // 1/8 → bucket 0
        shard.record_warning(Rat::from(3), h); // 3/8 → bucket 1
        shard.record_warning(Rat::from(4), h); // 4/8 → bucket 2
        shard.record_warning(Rat::from(7), h); // 7/8 → bucket 3
        shard.record_warning(h, h); // full horizon → bucket 4
        shard.record_warning(Rat::ZERO, Rat::ZERO); // horizon 0 → bucket 4
        let s = m.snapshot();
        assert_eq!(s.warnings, 6);
        assert_eq!(s.warning_slack_hist, [1, 1, 1, 1, 2]);
        assert!(s.render().contains("1/1/1/1/2"));
    }

    #[test]
    fn forced_histogram_buckets_by_margin_ratio() {
        let m = MonitorMetrics::new();
        let shard = m.register_shard();
        let h = Rat::from(2);
        shard.record_forced(Rat::from(2), h); // 1x → bucket 0
        shard.record_forced(Rat::from(5), h); // 2.5x → bucket 1
        shard.record_forced(Rat::from(9), h); // 4.5x → bucket 2
        shard.record_forced(Rat::from(17), h); // 8.5x → bucket 3
        shard.record_forced(Rat::from(64), h); // 32x → bucket 4
        shard.record_forced(Rat::ZERO, Rat::ZERO); // defensive: horizon 0 → bucket 4
        let s = m.snapshot();
        assert_eq!(s.forced, 6);
        assert_eq!(s.forced_margin_hist, [1, 1, 1, 1, 2]);
        assert!(s.render().contains("forced windows"));
        assert!(s.render().contains("1/1/1/1/2"));
    }

    #[test]
    fn forced_counts_merge_from_shards() {
        let m = MonitorMetrics::new();
        let a = m.register_shard();
        let b = m.register_shard();
        a.record_forced(Rat::from(3), Rat::from(3)); // bucket 0
        b.record_forced(Rat::from(10), Rat::from(3)); // bucket 1
        let s = m.snapshot();
        assert_eq!(s.forced, 2);
        assert_eq!(s.forced_margin_hist, [1, 1, 0, 0, 0]);
    }

    #[test]
    fn min_slack_keeps_the_low_water_mark() {
        let m = MonitorMetrics::new();
        let shard = m.register_shard();
        assert_eq!(m.snapshot().min_slack, None);
        shard.record_min_slack(Rat::from(5));
        shard.record_min_slack(Rat::from(9));
        shard.record_min_slack(Rat::from(2));
        assert_eq!(m.snapshot().min_slack, Some(Rat::from(2)));
        assert!(m.snapshot().render().contains("min slack seen"));
    }

    #[test]
    fn batches_accumulate_and_track_max() {
        let m = MonitorMetrics::new();
        m.record_batch(3);
        m.record_batch(10);
        m.record_batch(1);
        let s = m.snapshot();
        assert_eq!(s.batches, 3);
        assert_eq!(s.batched_events, 14);
        assert_eq!(s.max_batch, 10);
        let lag = m.register_stream(0);
        lag.record_enqueued_many(4);
        assert_eq!(lag.enqueued(), 4);
        assert_eq!(lag.lag(), 4);
        lag.record_drained_many(3);
        assert_eq!(lag.lag(), 1);
    }

    #[test]
    fn shards_merge_into_the_snapshot() {
        let m = MonitorMetrics::new();
        let a = m.register_shard();
        let b = m.register_shard();
        let c = m.register_shard();
        c.record_event();
        c.record_warning(Rat::from(2), Rat::from(2)); // bucket 4
        c.record_min_slack(Rat::from(5));
        a.record_event();
        a.record_opened(2);
        a.record_discharged();
        a.record_warning(Rat::from(1), Rat::from(8)); // bucket 0
        a.record_min_slack(Rat::from(3));
        b.record_event();
        b.record_violated();
        b.record_min_slack(Rat::from(7));
        let s = m.snapshot();
        assert_eq!(s.events, 3);
        assert_eq!(s.obligations_opened, 2);
        assert_eq!(s.obligations_discharged, 1);
        assert_eq!(s.obligations_violated, 1);
        assert_eq!(s.obligations_open(), 0);
        assert_eq!(s.warnings, 2);
        assert_eq!(s.warning_slack_hist, [1, 0, 0, 0, 1]);
        // Minimum slack is the minimum across every shard.
        assert_eq!(s.min_slack, Some(Rat::from(3)));
    }

    #[test]
    fn snapshot_into_refreshes_a_reused_buffer() {
        let m = MonitorMetrics::new();
        let shard = m.register_shard();
        let lag = m.register_stream(3);
        lag.record_enqueued_many(5);
        shard.record_event();
        let mut buf = MetricsSnapshot::default();
        m.snapshot_into(&mut buf);
        assert_eq!(buf.events, 1);
        assert_eq!(buf.streams.len(), 1);
        assert_eq!(buf.streams[0].lag, 5);
        // Stale contents are fully overwritten on the next refresh, and
        // the stream buffer does not grow duplicates.
        shard.record_event();
        lag.record_drained_many(5);
        m.snapshot_into(&mut buf);
        assert_eq!(buf.events, 2);
        assert_eq!(buf.streams.len(), 1);
        assert_eq!(buf.streams[0].lag, 0);
        assert_eq!(buf, m.snapshot());
    }

    #[test]
    fn render_is_aligned() {
        let m = MonitorMetrics::new();
        m.register_shard().record_event();
        let text = m.snapshot().render();
        assert!(text.contains("events"));
        assert!(text.contains("max queue depth"));
        // Every line is indented like render.rs output.
        assert!(text.lines().all(|l| l.starts_with("  ")));
    }
}
