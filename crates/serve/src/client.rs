//! A small blocking client for the wire protocol — the transport of the
//! loopback tests and of `perfbench`'s closed-loop driver.
//!
//! Ingest calls ([`open`](Client::open), [`send_batch`](Client::send_batch),
//! [`finish_stream`](Client::finish_stream), …) buffer frames locally;
//! [`flush`](Client::flush) pushes them down the socket in one write.
//! [`recv`](Client::recv) flushes, then blocks for the next egress
//! frame. Legacy connections decode JSON payloads through the `serde`
//! report encodings; connections opened with
//! [`open_binary`](Client::open_binary) additionally decode the v2
//! `REPORT2`/`METRICS_SNAP2` frames, maintaining the connection's name
//! table from `NAMES` frames as they arrive. Both transports surface
//! the same [`ServerFrame`] values, so callers are egress-mode
//! agnostic.

use std::io::{self, ErrorKind, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::Arc;
use std::time::Duration;

use tempo_monitor::{MetricsSnapshot, StreamReport};

use crate::server::ReloadSummary;
use crate::wire::{
    apply_names, cap, decode_metrics_snap2, decode_report2, encode_batch, encode_finish,
    encode_metrics_sub, encode_open, encode_open_caps, encode_reload, BatchBuilder, ErrorCode,
    Frame, RecvBuf, WireEvent,
};

/// A typed egress frame as the client surfaces it.
#[derive(Clone, Debug)]
pub enum ServerFrame {
    /// A finished stream's report. `stream` is the *client's* id; the
    /// report's own `stream` field is rewritten to match, so the pool's
    /// internal ids never leak into client code.
    Report {
        /// Client-chosen stream id.
        stream: u64,
        /// The decoded report.
        report: StreamReport,
    },
    /// A metrics snapshot (subscription response).
    Metrics(Box<MetricsSnapshot>),
    /// A reload was applied.
    Reloaded(ReloadSummary),
    /// An error response.
    Error {
        /// Stable error code.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
}

/// A blocking protocol client over one TCP connection.
#[derive(Debug)]
pub struct Client {
    tcp: TcpStream,
    recv: RecvBuf,
    out: Vec<u8>,
    scratch: Vec<u8>,
    /// Interned names received via `NAMES` frames (binary egress).
    names: Vec<Arc<str>>,
}

impl Client {
    /// Connects (blocking, `TCP_NODELAY`).
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let tcp = TcpStream::connect(addr)?;
        tcp.set_nodelay(true)?;
        Ok(Client {
            tcp,
            recv: RecvBuf::new(64 << 20),
            out: Vec::new(),
            scratch: vec![0u8; 64 * 1024],
            names: Vec::new(),
        })
    }

    /// Sets (or clears) the blocking-read timeout used by
    /// [`recv`](Client::recv).
    pub fn set_read_timeout(&mut self, t: Option<Duration>) -> io::Result<()> {
        self.tcp.set_read_timeout(t)
    }

    /// Buffers an open frame (legacy 12-byte body, no capabilities).
    pub fn open(&mut self, stream: u64, start: u32) {
        encode_open(&mut self.out, stream, start);
    }

    /// Buffers an open frame requesting capability bits ([`cap`]).
    pub fn open_with(&mut self, stream: u64, start: u32, caps: u32) {
        encode_open_caps(&mut self.out, stream, start, caps);
    }

    /// Buffers an open frame requesting binary egress
    /// ([`cap::BINARY_EGRESS`]); subsequent reports and metrics
    /// snapshots on this connection arrive as v2 binary frames.
    pub fn open_binary(&mut self, stream: u64, start: u32) {
        self.open_with(stream, start, cap::BINARY_EGRESS);
    }

    /// Buffers a batch frame.
    pub fn send_batch(&mut self, stream: u64, events: &[WireEvent]) {
        encode_batch(&mut self.out, stream, events);
    }

    /// Starts an incrementally built batch frame (the allocation-free
    /// path — no intermediate event slice).
    pub fn batch(&mut self, stream: u64) -> BatchBuilder<'_> {
        BatchBuilder::begin(&mut self.out, stream)
    }

    /// Buffers a finish frame.
    pub fn finish_stream(&mut self, stream: u64) {
        encode_finish(&mut self.out, stream);
    }

    /// Buffers a reload frame carrying `.tspec` source.
    pub fn reload(&mut self, src: &str) {
        encode_reload(&mut self.out, src);
    }

    /// Buffers a metrics subscription (`0` unsubscribes).
    pub fn subscribe_metrics(&mut self, interval_ms: u32) {
        encode_metrics_sub(&mut self.out, interval_ms);
    }

    /// Bytes currently buffered for the next flush.
    pub fn buffered(&self) -> usize {
        self.out.len()
    }

    /// Writes every buffered frame to the socket.
    pub fn flush(&mut self) -> io::Result<()> {
        if self.out.is_empty() {
            return Ok(());
        }
        self.tcp.write_all(&self.out)?;
        self.out.clear();
        Ok(())
    }

    /// Flushes, then blocks until one egress frame arrives (or the read
    /// timeout elapses, surfacing as `WouldBlock`/`TimedOut`).
    pub fn recv(&mut self) -> io::Result<ServerFrame> {
        self.flush()?;
        loop {
            // Split the borrow: the decoded frame borrows `recv`'s
            // buffer while `names` is read (and grown by `NAMES`).
            let Client { recv, names, .. } = self;
            match recv.next_frame() {
                Ok(Some(frame)) => match decode_egress(&frame, names) {
                    Decoded::Frame(sf) => return Ok(sf),
                    Decoded::Skip => continue,
                    Decoded::NotEgress => {
                        return Err(io::Error::new(
                            ErrorKind::InvalidData,
                            "ingest frame on the egress path",
                        ))
                    }
                },
                Ok(None) => {}
                Err(e) => return Err(io::Error::new(ErrorKind::InvalidData, e.to_string())),
            }
            let n = self.tcp.read(&mut self.scratch)?;
            if n == 0 {
                return Err(io::Error::new(
                    ErrorKind::UnexpectedEof,
                    "server closed the connection",
                ));
            }
            self.recv.ingest(&self.scratch[..n]);
        }
    }
}

/// What one egress frame decoded to.
enum Decoded {
    /// A frame to surface to the caller.
    Frame(ServerFrame),
    /// Consumed internally (a `NAMES` table extension).
    Skip,
    /// An ingest frame, which a server never sends.
    NotEgress,
}

/// Decodes an egress frame into its typed form, maintaining the
/// connection's name table as `NAMES` frames stream past.
fn decode_egress(frame: &Frame<'_>, names: &mut Vec<Arc<str>>) -> Decoded {
    match frame {
        Frame::Report { stream, json } => {
            let mut report: StreamReport = match serde_json::from_str(json) {
                Ok(r) => r,
                Err(_) => return Decoded::Frame(bad_payload("report")),
            };
            report.stream = *stream;
            Decoded::Frame(ServerFrame::Report {
                stream: *stream,
                report,
            })
        }
        Frame::MetricsSnap { json } => match serde_json::from_str(json) {
            Ok(m) => Decoded::Frame(ServerFrame::Metrics(Box::new(m))),
            Err(_) => Decoded::Frame(bad_payload("metrics")),
        },
        Frame::Report2 { stream, body } => match decode_report2(*stream, body, names) {
            Ok(report) => Decoded::Frame(ServerFrame::Report {
                stream: *stream,
                report,
            }),
            Err(_) => Decoded::Frame(bad_payload("report")),
        },
        Frame::MetricsSnap2 { body } => match decode_metrics_snap2(body) {
            Ok(m) => Decoded::Frame(ServerFrame::Metrics(Box::new(m))),
            Err(_) => Decoded::Frame(bad_payload("metrics")),
        },
        Frame::Names(nf) => match apply_names(names, nf) {
            Ok(()) => Decoded::Skip,
            Err(_) => Decoded::Frame(bad_payload("name table")),
        },
        Frame::Reloaded { json } => match serde_json::from_str(json) {
            Ok(r) => Decoded::Frame(ServerFrame::Reloaded(r)),
            Err(_) => Decoded::Frame(bad_payload("reload summary")),
        },
        Frame::Error { code, message } => Decoded::Frame(ServerFrame::Error {
            code: *code,
            message: (*message).to_string(),
        }),
        _ => Decoded::NotEgress,
    }
}

fn bad_payload(what: &str) -> ServerFrame {
    ServerFrame::Error {
        code: ErrorCode::Malformed,
        message: format!("undecodable {what} payload"),
    }
}
