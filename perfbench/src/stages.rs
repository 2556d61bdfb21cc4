//! Stage replay: the workload's seeded inputs, replayed stage by stage
//! on one thread through each layer's public entry points, so every
//! stage of the serve path gets a cost of its own.

use std::collections::HashMap;
use std::hint::black_box;
use std::io::{self, Read, Write};
use std::mem::size_of;
use std::net::{TcpListener, TcpStream};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use tempo_core::engine::EngineBackend;
use tempo_core::SatisfactionMode;
use tempo_math::Rat;
use tempo_monitor::{ring, Event, Monitor, MonitorPool, StreamReport};
use tempo_serve::wire::{
    apply_names, cap, decode_report2, encode_finish, encode_names, encode_open, encode_open_caps,
    encode_report, encode_report2, BatchBuilder, Frame, RecvBuf, WireEvent,
};
use tempo_spec::SpecRevision;

use crate::server_proc::{binder, pool_config, spec_source};
use crate::trace::Tracer;
use crate::workload::{Expected, Shape};

type Ev = Event<u32, u32>;

/// Per-stage costs of one workload's inputs.
#[derive(Debug, Default)]
pub struct Stages {
    pub streams: u64,
    pub events: u64,
    /// Reports that disagreed with the expected verdicts.
    pub failed: u64,
    pub gen_ns_per_event: f64,
    pub batch_encode_ns_per_event: f64,
    pub decode_ns_per_event: f64,
    pub ingress_bytes_per_event: f64,
    pub report2_encode_ns_per_report: f64,
    pub report_json_encode_ns_per_report: f64,
    pub egress_bytes_per_stream: f64,
    pub report2_decode_ns_per_report: f64,
    pub socket_ns_per_kib: f64,
    pub ring_ns_per_event: f64,
    pub pool_send_ns_per_event: f64,
    pub ring_bytes_per_stream: f64,
    pub open_us_per_stream: f64,
    pub finish_to_report_us: f64,
    pub int_step_ns_per_event: f64,
    pub exact_step_ns_per_event: f64,
    pub exact_stream_share: f64,
    pub finish_ns_per_stream: f64,
    pub violations_per_stream: f64,
}

/// How many times each stage is repeated; the median repetition counts.
const REPS: usize = 3;
/// Most streams the pool stages hold open at once.
const OPEN_AT_ONCE: usize = 1000;

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// Median over [`REPS`] repetitions of `f`, which returns the time it
/// measured; the whole stage is one span.
fn stage(tracer: &mut Tracer, name: &'static str, mut f: impl FnMut() -> Duration) -> f64 {
    let o = tracer.begin(name, 0);
    let d = median((0..REPS).map(|_| f().as_secs_f64() * 1e9).collect());
    tracer.end(o);
    d
}

fn to_event(w: &WireEvent) -> Ev {
    Event::new(
        w.action,
        Rat::new(i128::from(w.num), i128::from(w.den)),
        w.state,
    )
}

/// Replays `streams` streams of `shape`, with ids from `first_id`.
pub fn replay(
    shape: &Shape,
    first_id: u64,
    streams: u64,
    tracer: &mut Tracer,
) -> io::Result<Stages> {
    let root = tracer.begin("replay", 0);
    let traffic = shape.traffic();
    let n_events = u64::from(shape.events);
    let batch = shape.batch.max(1) as usize;
    let ids: Vec<u64> = (0..streams).map(|s| first_id + s).collect();
    let total = (streams * n_events) as f64;
    let mut st = Stages {
        streams,
        events: streams * n_events,
        ..Stages::default()
    };

    // The workload's own wire events, and the same events on and off
    // the integer tick grid.
    let wire: Vec<Vec<WireEvent>> = ids
        .iter()
        .map(|&id| {
            (0..n_events)
                .map(|i| shape.wire_event(&traffic, id, i))
                .collect()
        })
        .collect();
    let shifted = Shape {
        shift_third_ms: true,
        ..*shape
    };
    let unshifted = Shape {
        shift_third_ms: false,
        ..*shape
    };
    let events_of = |s: &Shape| -> Vec<Vec<Ev>> {
        ids.iter()
            .map(|&id| {
                (0..n_events)
                    .map(|i| to_event(&s.wire_event(&traffic, id, i)))
                    .collect()
            })
            .collect()
    };
    let actual: Vec<Vec<Ev>> = events_of(shape);
    let int_events = events_of(&unshifted);
    let exact_events = events_of(&shifted);

    st.gen_ns_per_event = stage(tracer, "stage.loadgen_gen", || {
        let t = Instant::now();
        for &id in &ids {
            for i in 0..n_events {
                black_box(traffic.event(black_box(id), i));
            }
        }
        t.elapsed()
    }) / total;

    // Batches in the order a generator sends them: round robin over
    // the streams, `batch` events at a time.
    let order: Vec<(usize, std::ops::Range<usize>)> = (0..n_events as usize)
        .step_by(batch)
        .flat_map(|lo| {
            let hi = (lo + batch).min(n_events as usize);
            (0..ids.len()).map(move |s| (s, lo..hi))
        })
        .collect();

    let mut buf: Vec<u8> = Vec::with_capacity(1 << 19);
    st.batch_encode_ns_per_event = stage(tracer, "stage.wire_batch_encode", || {
        buf.clear();
        let t = Instant::now();
        for (s, r) in &order {
            let mut b = BatchBuilder::begin(&mut buf, ids[*s]);
            for ev in &wire[*s][r.clone()] {
                b.push(*ev);
            }
            b.finish();
            if buf.len() > 1 << 18 {
                buf.clear();
            }
        }
        t.elapsed()
    }) / total;

    let mut ingress = Vec::new();
    for (k, &id) in ids.iter().enumerate() {
        if shape.binary && k == 0 {
            encode_open_caps(&mut ingress, id, 0, cap::BINARY_EGRESS);
        } else {
            encode_open(&mut ingress, id, 0);
        }
    }
    for (s, r) in &order {
        let mut b = BatchBuilder::begin(&mut ingress, ids[*s]);
        for ev in &wire[*s][r.clone()] {
            b.push(*ev);
        }
        b.finish();
    }
    for &id in &ids {
        encode_finish(&mut ingress, id);
    }
    st.ingress_bytes_per_event = ingress.len() as f64 / total;

    st.decode_ns_per_event = stage(tracer, "stage.wire_decode", || {
        let mut recv = RecvBuf::new(1 << 20);
        let mut decoded = 0u64;
        let t = Instant::now();
        for chunk in ingress.chunks(64 << 10) {
            recv.ingest(chunk);
            while let Ok(Some(frame)) = recv.next_frame() {
                if let Frame::Batch(b) = frame {
                    for ev in b.events() {
                        black_box(&ev);
                        decoded += 1;
                    }
                }
            }
        }
        let d = t.elapsed();
        assert_eq!(decoded, st.events, "decoded event count");
        d
    }) / total;

    let capacity = pool_config().validated().queue_capacity;
    let drain_batch = pool_config().validated().drain_batch;
    st.ring_bytes_per_stream = (capacity * size_of::<Mutex<Option<Ev>>>()) as f64;
    st.ring_ns_per_event = stage(tracer, "stage.ring_push_pop", || {
        let (mut tx, mut rx) = ring::ring::<Ev>(capacity);
        let mut out = Vec::with_capacity(drain_batch);
        let t = Instant::now();
        for (s, r) in &order {
            let mut it = actual[*s][r.clone()].iter().cloned();
            tx.try_push_many(&mut it);
            rx.pop_many(drain_batch, &mut out);
            out.clear();
        }
        t.elapsed()
    }) / total;

    // The engine, one monitor per stream, on one thread.
    let rev = SpecRevision::<u32, u32>::compile(&spec_source(), &binder())
        .map_err(|d| io::Error::other(format!("spec failed to compile: {d:?}")))?;
    let set = Arc::clone(rev.compiled());
    let observe_all = |events: &[Vec<Ev>]| -> Duration {
        let mut d = Duration::ZERO;
        for evs in events {
            let mut m = Monitor::from_compiled(Arc::clone(&set), &0u32);
            let t = Instant::now();
            for ev in evs {
                black_box(m.observe(&ev.action, ev.time, &ev.state));
            }
            d += t.elapsed();
        }
        d
    };
    st.int_step_ns_per_event =
        stage(tracer, "stage.engine_int_step", || observe_all(&int_events)) / total;
    st.exact_step_ns_per_event = stage(tracer, "stage.engine_exact_step", || {
        observe_all(&exact_events)
    }) / total;

    let mut reports: Vec<StreamReport> = Vec::with_capacity(ids.len());
    let mut exact = 0u64;
    let mut violations = 0u64;
    st.finish_ns_per_stream = stage(tracer, "stage.monitor_finish", || {
        reports.clear();
        exact = 0;
        violations = 0;
        let mut d = Duration::ZERO;
        for (k, evs) in actual.iter().enumerate() {
            let mut m = Monitor::from_compiled(Arc::clone(&set), &0u32);
            for ev in evs {
                m.observe(&ev.action, ev.time, &ev.state);
            }
            exact += u64::from(m.backend() == EngineBackend::Exact);
            let t = Instant::now();
            let (v, w, f) = m.finish_full(SatisfactionMode::Prefix);
            d += t.elapsed();
            violations += v.len() as u64;
            reports.push(StreamReport {
                stream: ids[k],
                events: evs.len(),
                violations: v,
                warnings: w,
                forced: f,
                failed: false,
            });
        }
        d
    }) / streams as f64;
    st.exact_stream_share = exact as f64 / streams as f64;
    st.violations_per_stream = violations as f64 / streams as f64;
    for r in &reports {
        let e = Expected::of(shape, &traffic, r.stream);
        if !e.matches(r.events as u64, r.violations.len() as u64, r.failed) {
            st.failed += 1;
        }
    }

    // Verdict encoding, in both egress modes.
    let mut egress_bin = Vec::new();
    let mut names: Vec<String> = Vec::new();
    st.report2_encode_ns_per_report = stage(tracer, "stage.wire_report2_encode", || {
        let mut intern: HashMap<String, u32> = HashMap::new();
        names.clear();
        egress_bin.clear();
        let mut out = Vec::with_capacity(1 << 16);
        let mut d = Duration::ZERO;
        for r in &reports {
            out.clear();
            let t = Instant::now();
            let sent = names.len();
            encode_report2(&mut out, r.stream, r, |s| {
                if let Some(&id) = intern.get(s) {
                    return id;
                }
                let id = names.len() as u32;
                intern.insert(s.to_string(), id);
                names.push(s.to_string());
                id
            });
            if names.len() > sent {
                let mut frame = Vec::new();
                encode_names(
                    &mut frame,
                    sent as u32,
                    names[sent..].iter().map(String::as_str),
                );
                frame.extend_from_slice(&out);
                out = frame;
            }
            d += t.elapsed();
            egress_bin.extend_from_slice(&out);
        }
        d
    }) / streams as f64;

    let mut egress_json = Vec::new();
    st.report_json_encode_ns_per_report = stage(tracer, "stage.wire_report_json_encode", || {
        egress_json.clear();
        let t = Instant::now();
        for r in &reports {
            let json = serde_json::to_string(r).expect("reports serialize");
            encode_report(&mut egress_json, r.stream, &json);
        }
        t.elapsed()
    }) / streams as f64;
    let egress = if shape.binary {
        &egress_bin
    } else {
        &egress_json
    };
    st.egress_bytes_per_stream = egress.len() as f64 / streams as f64;

    st.report2_decode_ns_per_report = stage(tracer, "stage.wire_report2_decode", || {
        let mut recv = RecvBuf::new(64 << 20);
        let mut table = Vec::new();
        let mut decoded = 0u64;
        let t = Instant::now();
        recv.ingest(&egress_bin);
        while let Ok(Some(frame)) = recv.next_frame() {
            match frame {
                Frame::Names(nf) => apply_names(&mut table, &nf).expect("names decode"),
                Frame::Report2 { stream, body } => {
                    black_box(decode_report2(stream, body, &table).expect("report decodes"));
                    decoded += 1;
                }
                _ => {}
            }
        }
        let d = t.elapsed();
        assert_eq!(decoded, streams, "decoded report count");
        d
    }) / streams as f64;

    let mut frames = ingress.clone();
    frames.extend_from_slice(egress);
    st.socket_ns_per_kib = stage(tracer, "stage.socket_loopback", || {
        loopback(&frames).expect("loopback socket pair")
    }) / (frames.len() as f64 / 1024.0);

    // The pool, with one live worker, fed the way the server feeds it.
    let mut pool = MonitorPool::from_compiled(Arc::clone(&set), pool_config());
    // Opens, timed warm: the first round allocates, the second reuses.
    let n_open = (streams as usize).min(OPEN_AT_ONCE);
    let mut open_us = 0.0;
    for round in ["stage.pool_open_cold", "stage.pool_open_warm"] {
        let o = tracer.begin(round, 0);
        let t = Instant::now();
        let handles: Vec<_> = (0..n_open).map(|_| pool.open_stream_on(0, 0)).collect();
        open_us = t.elapsed().as_secs_f64() * 1e6 / n_open as f64;
        drop(handles);
        wait_reports(&pool, n_open)?;
        tracer.end(o);
    }
    st.open_us_per_stream = open_us;

    let o = tracer.begin("stage.pool_send", 0);
    let mut send_ns = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        // At most OPEN_AT_ONCE streams are open at a time, so the rings
        // (80 KiB each) stay within a bounded amount of memory.
        let mut d = Duration::ZERO;
        for lo in (0..ids.len()).step_by(OPEN_AT_ONCE) {
            let hi = (lo + OPEN_AT_ONCE).min(ids.len());
            let mut handles: Vec<_> = (lo..hi).map(|_| pool.open_stream_on(0, 0)).collect();
            let client_id: HashMap<u64, u64> = handles
                .iter()
                .zip(&ids[lo..hi])
                .map(|(h, &id)| (h.id(), id))
                .collect();
            let sends: Vec<_> = order.iter().filter(|(s, _)| (lo..hi).contains(s)).collect();
            let t = Instant::now();
            for (s, r) in sends {
                handles[*s - lo]
                    .send_batch_exact(actual[*s][r.clone()].iter().cloned())
                    .map_err(|_| io::Error::other("a blocking pool refused a batch"))?;
            }
            d += t.elapsed();
            for h in handles {
                h.finish();
            }
            for r in wait_reports(&pool, hi - lo)? {
                let e = Expected::of(shape, &traffic, client_id[&r.stream]);
                if !e.matches(r.events as u64, r.violations.len() as u64, r.failed) {
                    st.failed += 1;
                }
            }
        }
        send_ns.push(d.as_secs_f64() * 1e9);
    }
    tracer.end(o);
    st.pool_send_ns_per_event = median(send_ns) / total;

    // Finish to report, one stream at a time, once its events are in.
    let o = tracer.begin("stage.pool_finish_to_report", 0);
    let mut lat = Vec::new();
    for evs in actual.iter().take(200) {
        let mut h = pool.open_stream_on(0, 0);
        let id = h.id();
        h.send_batch_exact(evs.iter().cloned())
            .expect("a blocking pool accepts every batch");
        thread::sleep(Duration::from_millis(1));
        let t = Instant::now();
        h.finish();
        loop {
            let r = pool.drain_finished();
            if r.iter().any(|r| r.stream == id) {
                break;
            }
            if t.elapsed() > Duration::from_secs(10) {
                return Err(io::Error::other("pool report never arrived"));
            }
            std::hint::spin_loop();
        }
        lat.push(t.elapsed().as_secs_f64() * 1e6);
    }
    tracer.end(o);
    st.finish_to_report_us = median(lat);
    pool.shutdown();

    tracer.end(root);
    Ok(st)
}

/// Collects `want` reports from the pool's live egress path.
fn wait_reports(pool: &MonitorPool<u32, u32>, want: usize) -> io::Result<Vec<StreamReport>> {
    let mut got = Vec::with_capacity(want);
    let deadline = Instant::now() + Duration::from_secs(30);
    while got.len() < want {
        let mut r = pool.drain_finished();
        if r.is_empty() {
            if Instant::now() > deadline {
                return Err(io::Error::other("pool reports missing after 30 s"));
            }
            thread::yield_now();
        }
        got.append(&mut r);
    }
    Ok(got)
}

/// Writes `bytes` through a loopback TCP pair while a second thread
/// reads them back; returns the time until the last byte was read.
fn loopback(bytes: &[u8]) -> io::Result<Duration> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let mut tx = TcpStream::connect(listener.local_addr()?)?;
    let (mut rx, _) = listener.accept()?;
    let want = bytes.len();
    thread::scope(|s| {
        let reader = s.spawn(move || -> io::Result<()> {
            let mut buf = vec![0u8; 64 << 10];
            let mut got = 0;
            while got < want {
                let n = rx.read(&mut buf)?;
                if n == 0 {
                    return Err(io::Error::other("loopback closed early"));
                }
                got += n;
            }
            Ok(())
        });
        let t = Instant::now();
        for chunk in bytes.chunks(64 << 10) {
            tx.write_all(chunk)?;
        }
        reader
            .join()
            .map_err(|_| io::Error::other("loopback reader panicked"))??;
        Ok(t.elapsed())
    })
}
