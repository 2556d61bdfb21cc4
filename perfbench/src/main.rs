//! `perfbench`: the repository's end-to-end and per-layer benchmark of
//! the `tempo-serve` ingest path. See `README.md` in this directory.
//!
//! ```text
//! perfbench --workload <clean_long|late_long|session_churn> --seed <n>
//!           --seconds <s> --trace <0|1> [--tiny] [--inject-mismatch]
//! ```
//!
//! Each run starts fresh server processes, drives seeded traffic at
//! them over loopback, checks every verdict, and prints its metrics by
//! name with units. The last line of standard output is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. The command
//! exits 1 if any report disagreed with the expected verdicts.

mod closed;
mod open;
mod server_proc;
mod stages;
mod trace;
mod workload;

use std::fmt::Write as _;
use std::fs;
use std::io::{self, Write as _};
use std::path::Path;
use std::process::exit;
use std::sync::atomic::Ordering;
use std::thread;
use std::time::{Duration, Instant};

use closed::ClosedLoop;
use open::Until;
use server_proc::ServerProc;
use stages::Stages;
use trace::{SpanLog, Tracer};
use workload::{stream_base, Drive, Shape, CORRUPT_NEXT, PASS_STRIDE, WORKLOADS};

const USAGE: &str = "usage: perfbench --workload <clean_long|late_long|session_churn> --seed <n> \
                     --seconds <s> --trace <0|1> [--tiny] [--inject-mismatch]";

/// Fresh server starts per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Fewest timed passes of a closed-loop run, however short `--seconds`.
const MIN_PASSES: usize = 3;
/// Probe streams after each closed-loop pass.
const PROBES_PER_PASS: u64 = 200;
/// A second of `session_churn` sessions in which the generator wrote one
/// more than this late is invalid; so is a run with more invalid seconds
/// than valid ones.
const LATE_LIMIT_MS: f64 = 20.0;
/// The whole run must end well inside the 180 s every run is allowed.
const WATCHDOG: Duration = Duration::from_secs(170);

struct Args {
    shape: Shape,
    seed: u64,
    seconds: f64,
    trace: bool,
    inject_mismatch: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut tiny = false;
    let mut inject_mismatch = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                seconds = Some(
                    value()?
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                })
            }
            "--tiny" => tiny = true,
            "--inject-mismatch" => inject_mismatch = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let shape = Shape::named(&workload, tiny).ok_or(format!(
        "unknown workload {workload}; one of {}",
        WORKLOADS.join(", ")
    ))?;
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".to_string());
    }
    Ok(Args {
        shape,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        inject_mismatch,
    })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--serve-child") {
        if let Err(e) = server_proc::serve_child() {
            eprintln!("perfbench server: {e}");
            exit(2);
        }
        return;
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("perfbench: {msg}\n{USAGE}");
            exit(2);
        }
    };
    thread::spawn(|| {
        thread::sleep(WATCHDOG);
        eprintln!("perfbench: run exceeded {WATCHDOG:?}; giving up");
        exit(4);
    });
    CORRUPT_NEXT.store(args.inject_mismatch, Ordering::Relaxed);
    match run(&args) {
        Ok(report) => {
            report.print(&args);
            exit(if report.failed == 0 { 0 } else { 1 });
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            exit(2);
        }
    }
}

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

#[derive(Default)]
struct Report {
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
    notes: Vec<String>,
}

impl Report {
    fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    fn print(&self, args: &Args) {
        println!("# provenance {}", provenance(args));
        for note in &self.notes {
            println!("# {note}");
        }
        println!(
            "# benchmark process (generator and replay) peak RSS {} KiB",
            server_proc::peak_rss_kib("self")
        );
        let fail_rate = self.failed as f64 / self.attempted.max(1) as f64;
        println!(
            "# streams attempted {} failed {} fail_rate {fail_rate}",
            self.attempted, self.failed
        );
        for m in &self.metrics {
            println!("metric {:<40} {:>16.4} {}", m.name, m.value, m.unit);
        }
        let mut json = String::new();
        let _ = write!(
            json,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0,
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                json,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        json.push_str("}}");
        println!("{json}");
    }
}

fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The `q`-quantile of `v` (nearest rank).
fn quantile(v: &mut [f64], q: f64) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    v.sort_by(f64::total_cmp);
    let i = ((v.len() - 1) as f64 * q).round() as usize;
    v[i]
}

/// One timed stretch of traffic: a closed-loop pass with its probes,
/// or an open-loop phase.
#[derive(Debug, Default)]
struct Stretch {
    streams: u64,
    events: u64,
    failed: u64,
    wall_s: f64,
    cpu_ns: f64,
    /// Verdict latencies, in windows: a closed-loop pass's probe
    /// streams, or one second's sessions of an open loop.
    windows: Vec<Vec<f64>>,
    /// Open-loop windows dropped because the generator fell behind.
    invalid_windows: usize,
    late_max_ms: f64,
}

/// Stretches summed: rates are total work over total time. Each latency
/// percentile is the median of that percentile over the windows, so a
/// few windows hit by a stall on the host do not move it.
struct Totals {
    events_per_s: f64,
    cpu_ns_per_event: f64,
    p50_ms: f64,
    p90_ms: f64,
    p99_ms: f64,
    late_max_ms: f64,
    windows: usize,
    invalid_windows: usize,
}

impl Totals {
    fn of(stretches: &[Stretch]) -> Totals {
        let events = stretches.iter().map(|s| s.events).sum::<u64>().max(1) as f64;
        let wall = stretches.iter().map(|s| s.wall_s).sum::<f64>();
        let cpu = stretches.iter().map(|s| s.cpu_ns).sum::<f64>();
        let pct = |q: f64| {
            median(
                stretches
                    .iter()
                    .flat_map(|s| &s.windows)
                    .map(|w| quantile(&mut w.clone(), q))
                    .collect(),
            )
        };
        Totals {
            events_per_s: events / wall,
            cpu_ns_per_event: cpu / events,
            p50_ms: pct(0.50),
            p90_ms: pct(0.90),
            p99_ms: pct(0.99),
            late_max_ms: stretches.iter().map(|s| s.late_max_ms).fold(0.0, f64::max),
            windows: stretches.iter().map(|s| s.windows.len()).sum(),
            invalid_windows: stretches.iter().map(|s| s.invalid_windows).sum(),
        }
    }
}

/// A server plus the generator attached to it.
struct Rig {
    shape: Shape,
    base: u64,
    epoch: Instant,
    server: ServerProc,
    closed: Option<ClosedLoop>,
    /// Next pass number: every pass gets stream ids of its own.
    pass: u64,
    opened: u64,
    log: SpanLog,
}

impl Rig {
    /// Starts a fresh server and connects the generator.
    fn start(shape: Shape, base: u64, epoch: Instant, pass: u64) -> io::Result<Rig> {
        let server = ServerProc::spawn()?;
        let closed = match shape.drive {
            Drive::Closed { .. } => Some(ClosedLoop::connect(
                &server.addr.to_string(),
                shape,
                base,
                epoch,
            )?),
            Drive::Open { .. } => None,
        };
        Ok(Rig {
            shape,
            base,
            epoch,
            server,
            closed,
            pass,
            opened: 0,
            log: SpanLog::default(),
        })
    }

    /// The untimed warm-up of the workload's shape.
    fn warm_up(&mut self) -> io::Result<Stretch> {
        match self.shape.drive {
            Drive::Closed { .. } => self.closed_pass(false),
            Drive::Open {
                warmup_sessions, ..
            } => self.open_phase(Until::Sessions(warmup_sessions), false),
        }
    }

    /// One closed-loop pass, then [`PROBES_PER_PASS`] probe streams on
    /// the idle server.
    fn closed_pass(&mut self, traced: bool) -> io::Result<Stretch> {
        let Drive::Closed { streams, .. } = self.shape.drive else {
            return Err(io::Error::other("not a closed-loop workload"));
        };
        let lp = self
            .closed
            .as_mut()
            .expect("closed-loop rig has generators");
        let cpu0 = self.server.cpu_ns();
        let r = lp.pass(self.pass, traced)?;
        let cpu1 = self.server.cpu_ns();
        let probes = lp.probe(self.pass, streams, PROBES_PER_PASS)?;
        self.pass += 1;
        self.opened += r.streams + probes.streams;
        Ok(Stretch {
            streams: r.streams + probes.streams,
            events: r.events,
            failed: r.failed + probes.failed,
            wall_s: r.wall.as_secs_f64(),
            cpu_ns: (cpu1 - cpu0) as f64,
            windows: vec![probes.latencies_ms],
            invalid_windows: 0,
            late_max_ms: 0.0,
        })
    }

    fn open_phase(&mut self, until: Until, traced: bool) -> io::Result<Stretch> {
        let Drive::Open { rate, .. } = self.shape.drive else {
            return Err(io::Error::other("not an open-loop workload"));
        };
        let window = (rate as usize).max(1);
        let first_id = self.base + self.pass * PASS_STRIDE;
        self.pass += 1;
        let cpu0 = self.server.cpu_ns();
        let addr = self.server.addr.to_string();
        let r = open::run(
            &addr,
            self.shape,
            first_id,
            until,
            self.epoch,
            traced,
            &mut self.log,
        )?;
        let cpu1 = self.server.cpu_ns();
        self.opened += r.sessions;
        // A second in which the generator wrote a session more than
        // LATE_LIMIT_MS late is invalid: its latencies would measure the
        // generator, not the server.
        let mut windows = Vec::new();
        let mut invalid_windows = 0;
        for (k, chunk) in r.latencies_ms.chunks(window).enumerate() {
            if r.late_ms.get(k).is_some_and(|&late| late > LATE_LIMIT_MS) {
                invalid_windows += 1;
            } else {
                windows.push(chunk.iter().copied().filter(|l| !l.is_nan()).collect());
            }
        }
        Ok(Stretch {
            streams: r.sessions,
            events: r.events,
            failed: r.failed,
            wall_s: r.wall.as_secs_f64(),
            cpu_ns: (cpu1 - cpu0) as f64,
            windows,
            invalid_windows,
            late_max_ms: r.late_ms.iter().copied().fold(0.0, f64::max),
        })
    }

    /// Timed stretches until `seconds` have passed: closed-loop passes
    /// (at least [`MIN_PASSES`]), or one open-loop phase.
    fn timed(&mut self, seconds: f64, traced: bool) -> io::Result<Vec<Stretch>> {
        let budget = Duration::from_secs_f64(seconds);
        if self.closed.is_none() {
            return Ok(vec![self.open_phase(Until::Elapsed(budget), traced)?]);
        }
        let t = Instant::now();
        let mut out = Vec::new();
        while out.len() < MIN_PASSES || t.elapsed() < budget {
            out.push(self.closed_pass(traced)?);
        }
        Ok(out)
    }

    /// Disconnects the generator and stops the server.
    fn stop(mut self) -> io::Result<(SpanLog, u64)> {
        if let Some(lp) = self.closed.take() {
            lp.stop(&mut self.log);
        }
        self.server.stop()?;
        Ok((self.log, self.pass))
    }
}

fn run(args: &Args) -> io::Result<Report> {
    let base = stream_base(args.seed);
    let epoch = Instant::now();
    let mut report = Report::default();
    let count = |report: &mut Report, s: &Stretch| {
        report.attempted += s.streams;
        report.failed += s.failed;
    };
    if !args.trace {
        // Set-up: a fresh server and an untimed warm-up pass, several
        // times over; the last server goes on to the timed passes.
        let mut setups = Vec::new();
        let mut cold = Vec::new();
        let mut pass = 0;
        let mut rig = None;
        for k in 0..SETUPS {
            let t = Instant::now();
            let mut r = Rig::start(args.shape, base, epoch, pass)?;
            let w = r.warm_up()?;
            setups.push(t.elapsed().as_secs_f64());
            count(&mut report, &w);
            cold.push(w);
            if k + 1 < SETUPS {
                pass = r.stop()?.1;
            } else {
                rig = Some(r);
            }
        }
        let mut rig = rig.expect("at least one set-up");
        let timed = rig.timed(args.seconds, false)?;
        let peak_rss_mb = rig.server.peak_rss_kib() as f64 / 1024.0;
        rig.stop()?;
        for s in &timed {
            count(&mut report, s);
        }
        let t = Totals::of(&timed);
        check_late(&mut report, &t)?;
        report.push("setup_s", median(setups), "s");
        report.push("events_per_s", t.events_per_s, "1/s");
        report.push("cpu_ns_per_event", t.cpu_ns_per_event, "ns");
        report.push("verdict_p50_ms", t.p50_ms, "ms");
        report.push("verdict_p90_ms", t.p90_ms, "ms");
        report.push("peak_rss_mb", peak_rss_mb, "MB");
        let c = Totals::of(&cold);
        report.notes.push(format!(
            "warm-up passes on fresh servers: events_per_s {:.0}, cpu_ns_per_event {:.1}; \
             a cold pass costs {:.2}x the CPU of a warm one",
            c.events_per_s,
            c.cpu_ns_per_event,
            c.cpu_ns_per_event / t.cpu_ns_per_event
        ));
        for s in &timed {
            report.notes.push(format!(
                "stretch events {} wall_s {:.4} events_per_s {:.0} cpu_ns_per_event {:.1} verdict_p50_ms {:.4} verdict_p90_ms {:.4}",
                s.events,
                s.wall_s,
                s.events as f64 / s.wall_s,
                s.cpu_ns / s.events.max(1) as f64,
                Totals::of(std::slice::from_ref(s)).p50_ms,
                Totals::of(std::slice::from_ref(s)).p90_ms,
            ));
        }
        return Ok(report);
    }

    // Traced run: one set-up, then untraced and traced halves.
    let mut rig = Rig::start(args.shape, base, epoch, 0)?;
    let (compile_us, start_ms) = (rig.server.compile_us, rig.server.start_ms);
    let w = rig.warm_up()?;
    count(&mut report, &w);
    let half = args.seconds / 2.0;
    let plain = rig.timed(half, false)?;
    let traced = rig.timed(half, true)?;
    let snap = rig.server.snapshot()?;
    let opened = rig.opened;
    let (mut log, pass) = rig.stop()?;
    for s in plain.iter().chain(&traced) {
        count(&mut report, s);
    }
    let (plain, traced) = (Totals::of(&plain), Totals::of(&traced));
    check_late(&mut report, &plain)?;

    let replay_streams = match args.shape.drive {
        Drive::Closed { streams, .. } => streams.min(1000),
        Drive::Open {
            warmup_sessions, ..
        } => (2 * warmup_sessions).min(20_000),
    };
    let mut tracer = Tracer::new(true, epoch);
    let st = stages::replay(
        &args.shape,
        base + pass * PASS_STRIDE,
        replay_streams,
        &mut tracer,
    )?;
    log.add("replay", tracer);
    report.attempted += st.streams;
    report.failed += st.failed;

    let cpu = plain.cpu_ns_per_event;
    let flush_wait_frac = match args.shape.drive {
        Drive::Closed { .. } => {
            let flush = [
                "client.open_flush",
                "client.batch_flush",
                "client.finish_flush",
            ]
            .iter()
            .map(|n| log.total_ns(n))
            .sum::<u64>();
            flush as f64
                / log
                    .total_ns("gen.pass")
                    .saturating_sub(log.total_ns("client.report_recv"))
                    .max(1) as f64
        }
        Drive::Open { .. } => {
            log.total_ns("socket.write") as f64 / log.total_ns("gen.session_write").max(1) as f64
        }
    };
    report.push("spec.compile_us", compile_us, "us");
    report.push("server.start_ms", start_ms, "ms");
    report.push("loadgen.gen_ns_per_event", st.gen_ns_per_event, "ns");
    report.push("loadgen.late_max_ms", plain.late_max_ms, "ms");
    report.push("client.flush_wait_frac", flush_wait_frac, "ratio");
    report.push(
        "wire.batch_encode_ns_per_event",
        st.batch_encode_ns_per_event,
        "ns",
    );
    report.push("wire.decode_ns_per_event", st.decode_ns_per_event, "ns");
    report.push(
        "wire.ingress_bytes_per_event",
        st.ingress_bytes_per_event,
        "B",
    );
    report.push(
        "wire.report2_encode_ns_per_report",
        st.report2_encode_ns_per_report,
        "ns",
    );
    report.push(
        "wire.report_json_encode_ns_per_report",
        st.report_json_encode_ns_per_report,
        "ns",
    );
    report.push(
        "wire.egress_bytes_per_stream",
        st.egress_bytes_per_stream,
        "B",
    );
    report.push(
        "wire.report2_decode_ns_per_report",
        st.report2_decode_ns_per_report,
        "ns",
    );
    report.push("socket.loopback_ns_per_kb", st.socket_ns_per_kib, "ns/KiB");
    report.push("ring.push_pop_ns_per_event", st.ring_ns_per_event, "ns");
    report.push("pool.send_ns_per_event", st.pool_send_ns_per_event, "ns");
    report.push(
        "pool.events_per_batch",
        snap.batched_events as f64 / snap.batches.max(1) as f64,
        "count",
    );
    report.push("pool.queue_depth_max", snap.max_queue_depth as f64, "count");
    report.push("pool.ring_bytes_per_stream", st.ring_bytes_per_stream, "B");
    report.push("pool.open_us_per_stream", st.open_us_per_stream, "us");
    report.push("pool.finish_to_report_us", st.finish_to_report_us, "us");
    report.push(
        "engine.int_step_ns_per_event",
        st.int_step_ns_per_event,
        "ns",
    );
    report.push(
        "engine.exact_step_ns_per_event",
        st.exact_step_ns_per_event,
        "ns",
    );
    report.push("engine.exact_stream_share", st.exact_stream_share, "ratio");
    report.push(
        "monitor.finish_ns_per_stream",
        st.finish_ns_per_stream,
        "ns",
    );
    report.push(
        "monitor.violations_per_stream",
        st.violations_per_stream,
        "count",
    );
    report.push(
        "metrics.registered_streams",
        snap.registered_streams as f64,
        "count",
    );
    report.push("metrics.snapshot_us", snap.snapshot_us, "us");
    report.push(
        "server.unattributed_cpu_ns_per_event",
        cpu - stage_sum(&args.shape, &st),
        "ns",
    );
    report.push("verdict.p99_ms", plain.p99_ms, "ms");
    report.push(
        "trace.overhead_frac",
        1.0 - traced.events_per_s / plain.events_per_s,
        "ratio",
    );
    report.push(
        "fail_rate",
        report.failed as f64 / report.attempted.max(1) as f64,
        "ratio",
    );
    report.notes.push(format!(
        "streams opened on the server {opened}; registered in its metrics {}",
        snap.registered_streams
    ));
    report
        .notes
        .push(format!("server cpu_ns_per_event (untraced half) {cpu}"));
    report.notes.push(format!(
        "span self times (name count total_ms self_ms): {}",
        self_time_table(&log)
    ));
    match write_spans(args, &log) {
        Ok(path) => report.notes.push(format!(
            "spans written to {path} ({} spans, {} dropped)",
            log.len(),
            log.dropped
        )),
        Err(e) => report.notes.push(format!("span dump not written: {e}")),
    }
    Ok(report)
}

/// Refuses a `session_churn` run in which most seconds were invalid:
/// the generator, not the server, set their latencies.
fn check_late(report: &mut Report, t: &Totals) -> io::Result<()> {
    report.notes.push(format!(
        "open-loop generator late_max_ms {}; {} of {} latency windows invalid",
        t.late_max_ms,
        t.invalid_windows,
        t.windows + t.invalid_windows
    ));
    if t.invalid_windows > t.windows {
        return Err(io::Error::other(format!(
            "invalid run: the generator ran more than {LATE_LIMIT_MS} ms behind schedule in {} of {} seconds",
            t.invalid_windows,
            t.windows + t.invalid_windows
        )));
    }
    Ok(())
}

/// The server-side stage costs per event: wire decode, the pool send
/// (ring push included), the engine step on the backend the workload's
/// streams run, the per-stream open, finish and report encoding spread
/// over the stream's events, and the server's half of the loopback
/// socket cost for the bytes each event brings in and sends out.
fn stage_sum(shape: &Shape, st: &Stages) -> f64 {
    let per_stream_events = f64::from(shape.events);
    let engine = if st.exact_stream_share > 0.5 {
        st.exact_step_ns_per_event
    } else {
        st.int_step_ns_per_event
    };
    let encode = if shape.binary {
        st.report2_encode_ns_per_report
    } else {
        st.report_json_encode_ns_per_report
    };
    let per_stream = st.open_us_per_stream * 1e3 + st.finish_ns_per_stream + encode;
    let bytes = st.ingress_bytes_per_event + st.egress_bytes_per_stream / per_stream_events;
    st.decode_ns_per_event
        + st.pool_send_ns_per_event
        + engine
        + per_stream / per_stream_events
        + st.socket_ns_per_kib * bytes / 1024.0 / 2.0
}

fn self_time_table(log: &SpanLog) -> String {
    let mut out = String::new();
    for (name, (count, total, own)) in log.self_times() {
        let _ = write!(
            out,
            "[{name} {count} {:.3} {:.3}] ",
            total as f64 / 1e6,
            own as f64 / 1e6
        );
    }
    out
}

/// Writes the span dump next to the benchmark, one file per workload.
fn write_spans(args: &Args, log: &SpanLog) -> io::Result<String> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    fs::create_dir_all(&dir)?;
    let path = dir.join(format!("spans-{}.jsonl", args.shape.name));
    let mut out = io::BufWriter::new(fs::File::create(&path)?);
    log.write_jsonl(
        &format!("{{\"provenance\": {}}}", provenance(args)),
        &mut out,
    )?;
    out.flush()?;
    Ok(path.display().to_string())
}

fn provenance(args: &Args) -> String {
    let nproc = thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(0);
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    format!(
        "{{\"seed\": {}, \"trace\": {}, \"seconds\": {}, \"nproc\": {nproc}, \"commit\": \"{}\", \"source_fnv64\": \"{}\", \"rustc\": \"{}\", \"workload\": {}, \"server\": {}}}",
        args.seed,
        u8::from(args.trace),
        args.seconds,
        git_head(&root),
        source_fingerprint(&root.join("crates")),
        env!("PERFBENCH_RUSTC"),
        args.shape.provenance(),
        server_proc::server_provenance(),
    )
}

/// The checked-out commit, read from `.git` without running git.
fn git_head(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = fs::read_to_string(git.join("HEAD")) else {
        return "unknown (not a git checkout)".to_string();
    };
    let head = head.trim();
    let Some(r) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(id) = fs::read_to_string(git.join(r)) {
        return id.trim().to_string();
    }
    fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(r))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// FNV-1a over the library sources (paths and contents, in sorted
/// order), so a result names the code it measured even outside git.
fn source_fingerprint(dir: &Path) -> String {
    fn walk(dir: &Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(rd) = fs::read_dir(dir) else { return };
        for e in rd.filter_map(Result::ok) {
            let p = e.path();
            if p.is_dir() {
                walk(&p, files);
            } else if p
                .extension()
                .is_some_and(|x| x == "rs" || x == "toml" || x == "tspec")
            {
                files.push(p);
            }
        }
    }
    let mut files = Vec::new();
    walk(dir, &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for f in &files {
        if let (Ok(rel), Ok(body)) = (f.strip_prefix(dir), fs::read(f)) {
            eat(rel.to_string_lossy().as_bytes());
            eat(&body);
        }
    }
    format!("{h:016x}")
}
