//! Open-loop traffic: sessions are due at a fixed rate on one
//! connection. A sender thread writes each session (`OPEN`, the event
//! batches, `FINISH`) when it is due, whether or not earlier ones were
//! answered; a receiver thread reads the reports. A session's latency
//! runs from the time it was *due*, so a stalled generator counts.

use std::io::{self, ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use tempo_monitor::StreamReport;
use tempo_serve::wire::{
    apply_names, cap, decode_report2, encode_finish, encode_open, encode_open_caps, BatchBuilder,
    Frame, RecvBuf,
};

use crate::trace::{SpanLog, Tracer};
use crate::workload::{Drive, Expected, Shape};

/// When the sender stops.
#[derive(Clone, Copy, Debug)]
pub enum Until {
    Sessions(u64),
    Elapsed(Duration),
}

/// What one open-loop phase measured.
#[derive(Debug, Default)]
pub struct OpenResult {
    pub sessions: u64,
    pub events: u64,
    pub failed: u64,
    /// First due time to last report.
    pub wall: Duration,
    /// Per session, in session order: due time to report receipt, in
    /// ms (NaN if no report arrived).
    pub latencies_ms: Vec<f64>,
    /// Per second of sessions: the largest delay between a session's due
    /// time and its write, in ms.
    pub late_ms: Vec<f64>,
}

/// Drives sessions with ids `first_id + i` at the workload's rate.
pub fn run(
    addr: &str,
    shape: Shape,
    first_id: u64,
    until: Until,
    epoch: Instant,
    traced: bool,
    log: &mut SpanLog,
) -> io::Result<OpenResult> {
    let Drive::Open { rate, .. } = shape.drive else {
        return Err(io::Error::other("not an open-loop workload"));
    };
    let tx = TcpStream::connect(addr)?;
    tx.set_nodelay(true)?;
    let rx = tx.try_clone()?;
    rx.set_read_timeout(Some(Duration::from_millis(50)))?;

    let period = Duration::from_secs_f64(1.0 / rate);
    let sent = Arc::new(AtomicU64::new(0));
    let done = Arc::new(AtomicBool::new(false));
    // Both threads agree on when session 0 is due.
    let t0 = Instant::now() + Duration::from_millis(2);

    let receiver = {
        let sent = Arc::clone(&sent);
        let done = Arc::clone(&done);
        let mut tracer = Tracer::new(traced, epoch);
        thread::spawn(move || {
            let r = receive(rx, shape, first_id, t0, period, &sent, &done, &mut tracer);
            (r, tracer)
        })
    };

    let mut tracer = Tracer::new(traced, epoch);
    let sent_result = send(tx, shape, first_id, t0, period, until, &sent, &mut tracer);
    done.store(true, Ordering::SeqCst);
    let (received, rx_tracer) = receiver
        .join()
        .map_err(|_| io::Error::other("receiver thread panicked"))?;
    log.add("sender", tracer);
    log.add("receiver", rx_tracer);

    let mut out = received?;
    out.late_ms = sent_result?;
    Ok(out)
}

#[allow(clippy::too_many_arguments)]
fn send(
    mut tcp: TcpStream,
    shape: Shape,
    first_id: u64,
    t0: Instant,
    period: Duration,
    until: Until,
    sent: &AtomicU64,
    tracer: &mut Tracer,
) -> io::Result<Vec<f64>> {
    let traffic = shape.traffic();
    let events = u64::from(shape.events);
    let batch = u64::from(shape.batch.max(1));
    let per_second = (1.0 / period.as_secs_f64()).round().max(1.0) as u64;
    let mut buf: Vec<u8> = Vec::with_capacity(64 << 10);
    let mut late_ms: Vec<f64> = Vec::new();
    let mut i = 0u64;
    let due = |i: u64| t0 + period.mul_f64(i as f64);
    let more = |i: u64| match until {
        Until::Sessions(n) => i < n,
        Until::Elapsed(d) => due(i) < t0 + d,
    };
    loop {
        let now = Instant::now();
        if !more(i) {
            break;
        }
        if now < due(i) {
            thread::sleep(due(i) - now);
            continue;
        }
        let w = (i / per_second) as usize;
        if late_ms.len() <= w {
            late_ms.resize(w + 1, 0.0);
        }
        late_ms[w] = late_ms[w].max((now - due(i)).as_secs_f64() * 1e3);
        let o = tracer.begin("gen.session_write", first_id + i);
        // Every session due by now goes out in one write.
        let mut n = 0;
        while n < 64 && due(i) <= now && more(i) {
            let id = first_id + i;
            if shape.binary && i == 0 {
                encode_open_caps(&mut buf, id, 0, cap::BINARY_EGRESS);
            } else {
                encode_open(&mut buf, id, 0);
            }
            let mut k = 0;
            while k < events {
                let mut b = BatchBuilder::begin(&mut buf, id);
                for j in k..(k + batch).min(events) {
                    b.push(shape.wire_event(&traffic, id, j));
                }
                b.finish();
                k += batch;
            }
            encode_finish(&mut buf, id);
            i += 1;
            n += 1;
        }
        let io = tracer.begin("socket.write", 0);
        tcp.write_all(&buf)?;
        tracer.end(io);
        buf.clear();
        sent.store(i, Ordering::SeqCst);
        tracer.end(o);
    }
    Ok(late_ms)
}

#[allow(clippy::too_many_arguments)]
fn receive(
    mut tcp: TcpStream,
    shape: Shape,
    first_id: u64,
    t0: Instant,
    period: Duration,
    sent: &AtomicU64,
    done: &AtomicBool,
    tracer: &mut Tracer,
) -> io::Result<OpenResult> {
    let traffic = shape.traffic();
    let mut recv = RecvBuf::new(64 << 20);
    let mut read_buf = vec![0u8; 64 << 10];
    let mut names = Vec::new();
    let mut out = OpenResult::default();
    let mut last_report = t0;
    let mut drain_deadline: Option<Instant> = None;
    loop {
        if done.load(Ordering::SeqCst) {
            if out.sessions >= sent.load(Ordering::SeqCst) {
                break;
            }
            let deadline =
                *drain_deadline.get_or_insert_with(|| Instant::now() + Duration::from_secs(30));
            if Instant::now() > deadline {
                return Err(io::Error::new(
                    ErrorKind::TimedOut,
                    "reports missing after 30 s",
                ));
            }
        }
        let o = tracer.begin("socket.read", 0);
        let n = match tcp.read(&mut read_buf) {
            Ok(0) => {
                return Err(io::Error::new(
                    ErrorKind::UnexpectedEof,
                    "server closed the connection",
                ))
            }
            Ok(n) => n,
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                tracer.end(o);
                continue;
            }
            Err(e) => return Err(e),
        };
        tracer.end(o);
        recv.ingest(&read_buf[..n]);
        loop {
            let frame = match recv.next_frame() {
                Ok(Some(f)) => f,
                Ok(None) => break,
                Err(e) => return Err(io::Error::new(ErrorKind::InvalidData, e.to_string())),
            };
            let o = tracer.begin("client.report_decode", 0);
            let (stream, report) = match frame {
                Frame::Report { stream, json } => {
                    match serde_json::from_str::<StreamReport>(json) {
                        Ok(r) => (stream, r),
                        Err(e) => {
                            return Err(io::Error::new(ErrorKind::InvalidData, e.to_string()))
                        }
                    }
                }
                Frame::Report2 { stream, body } => match decode_report2(stream, body, &names) {
                    Ok(r) => (stream, r),
                    Err(e) => return Err(io::Error::new(ErrorKind::InvalidData, e.to_string())),
                },
                Frame::Names(nf) => {
                    apply_names(&mut names, &nf)
                        .map_err(|e| io::Error::new(ErrorKind::InvalidData, e.to_string()))?;
                    tracer.end(o);
                    continue;
                }
                Frame::Error { code, message } => {
                    eprintln!("perfbench: server error {code:?}: {message}");
                    out.failed += 1;
                    tracer.end(o);
                    continue;
                }
                _ => {
                    tracer.end(o);
                    continue;
                }
            };
            let now = Instant::now();
            tracer.end_req(o, Some(stream));
            let Some(i) = stream.checked_sub(first_id) else {
                out.failed += 1;
                continue;
            };
            let i = i as usize;
            if out.latencies_ms.len() <= i {
                out.latencies_ms.resize(i + 1, f64::NAN);
            }
            if !out.latencies_ms[i].is_nan() {
                eprintln!("perfbench: second report for stream {stream}");
                out.failed += 1;
                continue;
            }
            let due = t0 + period.mul_f64(i as f64);
            out.latencies_ms[i] = (now - due).as_secs_f64() * 1e3;
            last_report = now;
            out.sessions += 1;
            out.events += report.events as u64;
            let expected = Expected::of(&shape, &traffic, stream);
            if !expected.matches(
                report.events as u64,
                report.violations.len() as u64,
                report.failed,
            ) {
                eprintln!(
                    "perfbench: stream {stream}: {} events, {} violations, failed {}; expected {expected:?}",
                    report.events,
                    report.violations.len(),
                    report.failed
                );
                out.failed += 1;
            }
        }
    }
    out.wall = last_report - t0;
    Ok(out)
}
