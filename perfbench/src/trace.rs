//! In-memory spans around the benchmark's own calls into each layer.
//!
//! Each thread records into its own [`Tracer`]; nothing is shared or
//! written while the workload runs. The spans are merged and written
//! out as JSON lines when the run ends (see `README.md`, "Reading the
//! span dump").

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::time::Instant;

/// One recorded span. `parent` is the index of the enclosing span in
/// the same tracer, or `u32::MAX` for a root span.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    /// The request id: the stream id a span serves, or 0.
    pub req: u64,
}

const NO_PARENT: u32 = u32::MAX;

/// A per-thread span recorder. A disabled tracer records nothing and
/// costs one branch per call.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    /// Spans not recorded because the tracer was full.
    pub dropped: u64,
}

/// Upper bound on spans kept per thread, so a long traced run cannot
/// grow memory without limit.
const MAX_SPANS: usize = 400_000;

/// A span that has begun; hand it back to [`Tracer::end`].
#[must_use]
pub struct Open(Option<u32>);

impl Tracer {
    pub fn new(enabled: bool, epoch: Instant) -> Tracer {
        Tracer {
            enabled,
            epoch,
            spans: Vec::new(),
            stack: Vec::new(),
            dropped: 0,
        }
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    pub fn begin(&mut self, name: &'static str, req: u64) -> Open {
        if !self.enabled {
            return Open(None);
        }
        if self.spans.len() >= MAX_SPANS {
            self.dropped += 1;
            return Open(None);
        }
        let at = self.epoch.elapsed().as_nanos() as u64;
        let idx = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: at,
            end_ns: at,
            parent: self.stack.last().copied().unwrap_or(NO_PARENT),
            req,
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    pub fn end(&mut self, open: Open) {
        self.end_req(open, None);
    }

    /// Ends a span, setting its request id if it was not known when the
    /// span began (a report's stream is known only once it arrived).
    pub fn end_req(&mut self, open: Open, req: Option<u64>) {
        let Some(idx) = open.0 else { return };
        if let Some(req) = req {
            self.spans[idx as usize].req = req;
        }
        self.spans[idx as usize].end_ns = self.epoch.elapsed().as_nanos() as u64;
        if let Some(pos) = self.stack.iter().rposition(|&i| i == idx) {
            self.stack.truncate(pos);
        }
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Every thread's spans, labelled by thread.
#[derive(Debug, Default)]
pub struct SpanLog {
    pub threads: Vec<(String, Vec<Span>)>,
    pub dropped: u64,
}

impl SpanLog {
    pub fn add(&mut self, thread: impl Into<String>, tracer: Tracer) {
        self.dropped += tracer.dropped;
        self.threads.push((thread.into(), tracer.into_spans()));
    }

    /// Total duration of all spans called `name`, in nanoseconds.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.threads
            .iter()
            .flat_map(|(_, s)| s.iter())
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .sum()
    }

    /// Per span name: count, total time and self time (a span's
    /// duration minus the time its child spans cover), in nanoseconds.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for (_, spans) in &self.threads {
            let mut child_ns = vec![0u64; spans.len()];
            for s in spans {
                if s.parent != NO_PARENT {
                    child_ns[s.parent as usize] += s.end_ns - s.start_ns;
                }
            }
            for (s, children) in spans.iter().zip(&child_ns) {
                let dur = s.end_ns - s.start_ns;
                let e = out.entry(s.name).or_default();
                e.0 += 1;
                e.1 += dur;
                e.2 += dur.saturating_sub(*children);
            }
        }
        out
    }

    /// Writes the spans as JSON lines, one span per line, after a
    /// header line. Span ids are `<thread>.<index>`; a root span's
    /// parent is `null`.
    pub fn write_jsonl(&self, header: &str, out: &mut impl Write) -> io::Result<()> {
        writeln!(out, "{header}")?;
        for (thread, spans) in &self.threads {
            for (i, s) in spans.iter().enumerate() {
                let parent = if s.parent == NO_PARENT {
                    "null".to_string()
                } else {
                    format!("\"{thread}.{}\"", s.parent)
                };
                writeln!(
                    out,
                    "{{\"id\": \"{thread}.{i}\", \"parent\": {parent}, \"name\": \"{}\", \"req\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
                    s.name, s.req, s.start_ns, s.end_ns
                )?;
            }
        }
        Ok(())
    }

    pub fn len(&self) -> usize {
        self.threads.iter().map(|(_, s)| s.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut log = SpanLog::default();
        log.threads.push((
            "t".to_string(),
            vec![
                Span {
                    name: "pass",
                    start_ns: 0,
                    end_ns: 100,
                    parent: NO_PARENT,
                    req: 0,
                },
                Span {
                    name: "flush",
                    start_ns: 10,
                    end_ns: 40,
                    parent: 0,
                    req: 0,
                },
                Span {
                    name: "flush",
                    start_ns: 50,
                    end_ns: 60,
                    parent: 0,
                    req: 7,
                },
            ],
        ));
        let st = log.self_times();
        assert_eq!(st["pass"], (1, 100, 60));
        assert_eq!(st["flush"], (2, 40, 40));
        assert_eq!(log.total_ns("flush"), 40);
        let mut dump = Vec::new();
        log.write_jsonl("{}", &mut dump).unwrap();
        let dump = String::from_utf8(dump).unwrap();
        assert_eq!(dump.lines().count(), 4);
        assert!(dump.contains("\"parent\": \"t.0\""));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        let o = t.begin("x", 1);
        t.end(o);
        assert!(t.into_spans().is_empty());
    }
}
