//! Closed-loop traffic: each generator thread owns one connection and
//! runs passes on command. A pass opens its streams, sends every
//! event in round-robin batches, finishes the streams and waits for
//! every report before it returns.

use std::collections::HashSet;
use std::io;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use tempo_serve::{Client, ServerFrame};
use tempo_sim::loadgen::ReqServe;

use crate::trace::{SpanLog, Tracer};
use crate::workload::{Drive, Expected, Shape, PASS_STRIDE};

/// What one pass measured, over all generator threads.
#[derive(Debug, Default)]
pub struct PassResult {
    pub streams: u64,
    pub events: u64,
    /// Streams whose report was wrong or missing, plus `ERROR` frames.
    pub failed: u64,
    /// First `OPEN` to last report.
    pub wall: Duration,
}

struct ThreadPass {
    first_open: Instant,
    last_report: Instant,
    streams: u64,
    events: u64,
    failed: u64,
}

/// Lone probe streams sent one at a time on an idle server: the
/// verdict latency of a closed-loop workload, which has no schedule to
/// measure lateness against.
#[derive(Debug, Default)]
pub struct ProbeResult {
    pub streams: u64,
    pub failed: u64,
    /// Per probe: `FINISH` flush to report receipt, in ms.
    pub latencies_ms: Vec<f64>,
}

enum Cmd {
    Pass { pass: u64, traced: bool },
    Probe { first_id: u64, count: u64 },
    Stop,
}

enum Done {
    Pass(ThreadPass),
    Probe(ProbeResult),
}

struct Gen {
    cmds: Sender<Cmd>,
    results: Receiver<io::Result<Done>>,
    handle: JoinHandle<Tracer>,
}

/// The generator threads of one server, with their connections.
pub struct ClosedLoop {
    gens: Vec<Gen>,
    base: u64,
}

impl ClosedLoop {
    /// Connects one generator thread per connection of `shape`.
    pub fn connect(addr: &str, shape: Shape, base: u64, epoch: Instant) -> io::Result<ClosedLoop> {
        let Drive::Closed { streams, conns } = shape.drive else {
            return Err(io::Error::other("not a closed-loop workload"));
        };
        let mut gens = Vec::new();
        for c in 0..conns {
            let mut client = Client::connect(addr)?;
            client.set_read_timeout(Some(Duration::from_secs(30)))?;
            let (cmds, cmd_rx) = channel();
            let (res_tx, results) = channel();
            let ids: Vec<u64> = (0..streams)
                .filter(|s| s % conns as u64 == c as u64)
                .collect();
            let handle = thread::spawn(move || {
                let mut g = GenState {
                    client,
                    shape,
                    traffic: shape.traffic(),
                    negotiated: false,
                    tracer: Tracer::new(false, epoch),
                };
                loop {
                    let r = match cmd_rx.recv() {
                        Ok(Cmd::Pass { pass, traced }) => {
                            g.tracer.set_enabled(traced);
                            let first = base + pass * PASS_STRIDE;
                            let pass_ids: Vec<u64> = ids.iter().map(|s| first + s).collect();
                            g.pass(&pass_ids).map(Done::Pass)
                        }
                        Ok(Cmd::Probe { first_id, count }) => {
                            g.probe(first_id, count).map(Done::Probe)
                        }
                        Ok(Cmd::Stop) | Err(_) => break,
                    };
                    let failed = r.is_err();
                    if res_tx.send(r).is_err() || failed {
                        break;
                    }
                }
                g.tracer
            });
            gens.push(Gen {
                cmds,
                results,
                handle,
            });
        }
        Ok(ClosedLoop { gens, base })
    }

    /// Runs pass number `pass` on every connection at once.
    pub fn pass(&mut self, pass: u64, traced: bool) -> io::Result<PassResult> {
        for g in &self.gens {
            g.cmds
                .send(Cmd::Pass { pass, traced })
                .map_err(|_| io::Error::other("generator thread ended"))?;
        }
        let mut out = PassResult::default();
        let mut first: Option<Instant> = None;
        let mut last: Option<Instant> = None;
        for g in &self.gens {
            let Done::Pass(r) = g
                .results
                .recv()
                .map_err(|_| io::Error::other("generator thread ended"))??
            else {
                return Err(io::Error::other("generator answered out of turn"));
            };
            first = Some(first.map_or(r.first_open, |f| f.min(r.first_open)));
            last = Some(last.map_or(r.last_report, |l| l.max(r.last_report)));
            out.streams += r.streams;
            out.events += r.events;
            out.failed += r.failed;
        }
        if let (Some(f), Some(l)) = (first, last) {
            out.wall = l - f;
        }
        Ok(out)
    }

    /// Sends `count` probe streams, one at a time, on the first
    /// connection, with ids above pass `pass`'s streams.
    pub fn probe(&mut self, pass: u64, streams: u64, count: u64) -> io::Result<ProbeResult> {
        let g = &self.gens[0];
        let first_id = self.base + pass * PASS_STRIDE + streams;
        g.cmds
            .send(Cmd::Probe { first_id, count })
            .map_err(|_| io::Error::other("generator thread ended"))?;
        match g
            .results
            .recv()
            .map_err(|_| io::Error::other("generator thread ended"))??
        {
            Done::Probe(r) => Ok(r),
            Done::Pass(_) => Err(io::Error::other("generator answered out of turn")),
        }
    }

    /// Stops the generator threads, closing their connections, and
    /// hands back their spans.
    pub fn stop(self, log: &mut SpanLog) {
        for (i, g) in self.gens.into_iter().enumerate() {
            let _ = g.cmds.send(Cmd::Stop);
            if let Ok(tracer) = g.handle.join() {
                log.add(format!("gen{i}"), tracer);
            }
        }
    }
}

struct GenState {
    client: Client,
    shape: Shape,
    traffic: ReqServe,
    /// Binary egress is negotiated once per connection, on its first
    /// `OPEN`.
    negotiated: bool,
    tracer: Tracer,
}

impl GenState {
    fn flush(&mut self, span: &'static str) -> io::Result<()> {
        let o = self.tracer.begin(span, 0);
        self.client.flush()?;
        self.tracer.end(o);
        Ok(())
    }

    /// Sends streams `first_id ..` one at a time, each only after the
    /// previous one's report arrived.
    fn probe(&mut self, first_id: u64, count: u64) -> io::Result<ProbeResult> {
        let mut out = ProbeResult::default();
        for id in first_id..first_id + count {
            // A probe sent the instant the previous report arrived would
            // land at the same point of the server's polling cycles every
            // time; a seeded pause of up to 500 us spreads the probes over
            // those cycles.
            let pause = id.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 55;
            thread::sleep(Duration::from_micros(pause));
            self.client.open(id, 0);
            let mut b = self.client.batch(id);
            for i in 0..u64::from(self.shape.events) {
                b.push(self.shape.wire_event(&self.traffic, id, i));
            }
            b.finish();
            self.client.finish_stream(id);
            self.client.flush()?;
            let sent = Instant::now();
            loop {
                match self.client.recv()? {
                    ServerFrame::Report { stream, report } if stream == id => {
                        out.latencies_ms.push(sent.elapsed().as_secs_f64() * 1e3);
                        let expected = Expected::of(&self.shape, &self.traffic, id);
                        if !expected.matches(
                            report.events as u64,
                            report.violations.len() as u64,
                            report.failed,
                        ) {
                            eprintln!("perfbench: probe stream {id} disagrees with {expected:?}");
                            out.failed += 1;
                        }
                        break;
                    }
                    ServerFrame::Error { code, message } => {
                        eprintln!("perfbench: server error {code:?}: {message}");
                        out.failed += 1;
                        break;
                    }
                    _ => {
                        eprintln!("perfbench: unexpected frame while probing");
                        out.failed += 1;
                    }
                }
            }
            out.streams += 1;
        }
        Ok(out)
    }

    fn pass(&mut self, ids: &[u64]) -> io::Result<ThreadPass> {
        let root = self.tracer.begin("gen.pass", 0);
        let first_open = Instant::now();
        for (i, &id) in ids.iter().enumerate() {
            if self.shape.binary && !self.negotiated {
                self.client.open_binary(id, 0);
                self.negotiated = true;
            } else {
                self.client.open(id, 0);
            }
            if self.client.buffered() > 1 << 16 || i + 1 == ids.len() {
                self.flush("client.open_flush")?;
            }
        }

        let events = u64::from(self.shape.events);
        let batch = u64::from(self.shape.batch.max(1));
        let mut offset = 0;
        while offset < events {
            let hi = (offset + batch).min(events);
            for &id in ids {
                let mut b = self.client.batch(id);
                for i in offset..hi {
                    b.push(self.shape.wire_event(&self.traffic, id, i));
                }
                b.finish();
                if self.client.buffered() > 1 << 18 {
                    self.flush("client.batch_flush")?;
                }
            }
            offset = hi;
        }
        self.flush("client.batch_flush")?;

        for chunk in ids.chunks(512) {
            for &id in chunk {
                self.client.finish_stream(id);
            }
            self.flush("client.finish_flush")?;
        }

        let mut pending: HashSet<u64> = ids.iter().copied().collect();
        let mut failed = 0u64;
        while !pending.is_empty() {
            let o = self.tracer.begin("client.report_recv", 0);
            let frame = self.client.recv()?;
            match frame {
                ServerFrame::Report { stream, report } => {
                    self.tracer.end_req(o, Some(stream));
                    if !pending.remove(&stream) {
                        eprintln!("perfbench: unexpected report for stream {stream}");
                        failed += 1;
                        continue;
                    }
                    let expected = Expected::of(&self.shape, &self.traffic, stream);
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
                        failed += 1;
                    }
                }
                ServerFrame::Error { code, message } => {
                    self.tracer.end(o);
                    eprintln!("perfbench: server error {code:?}: {message}");
                    failed += 1;
                }
                ServerFrame::Metrics(_) | ServerFrame::Reloaded(_) => self.tracer.end(o),
            }
        }
        let last_report = Instant::now();
        self.tracer.end(root);
        Ok(ThreadPass {
            first_open,
            last_report,
            streams: ids.len() as u64,
            events: ids.len() as u64 * events,
            failed,
        })
    }
}
