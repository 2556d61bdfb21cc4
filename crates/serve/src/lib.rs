//! `tempo-serve`: a networked high-throughput ingest front end over
//! the lock-free monitor pool.
//!
//! The crate turns the in-process [`tempo_monitor::MonitorPool`] into a
//! service: clients speak a length-prefixed binary protocol over TCP
//! ([`wire`]), event batches decode zero-copy straight out of the
//! socket buffer into the pool's SPSC rings, and finished streams'
//! [`StreamReport`](tempo_monitor::StreamReport)s flow back as JSON
//! egress frames — or, when the client requests
//! [`wire::cap::BINARY_EGRESS`] on `OPEN`, as allocation-free binary
//! `REPORT2` records with per-connection name interning.
//! Stream→worker placement uses a consistent-hash ring
//! ([`placement`]) so draining a worker moves only that worker's
//! streams. A `RELOAD` control frame carries `.tspec` source and maps
//! onto [`MonitorPool::reload_spec`](tempo_monitor::MonitorPool::reload_spec)
//! — live spec swaps with zero event drop.
//!
//! Threading (no async runtime, hand-rolled non-blocking I/O):
//!
//! ```text
//!              ┌──────────┐ round-robin ┌───────────┐ ring push ┌────────────┐
//!  TCP conns → │ acceptor │ ──────────→ │ io threads│ ────────→ │ pool       │
//!              └──────────┘             │ (own conns│           │ workers    │
//!                                       │  outright)│           └─────┬──────┘
//!                                       └─────▲─────┘  StreamReport   │
//!                                             │outbox ┌───────────┐   │
//!                                             └────── │  egress   │ ←─┘
//!                                                     └───────────┘
//! ```
//!
//! Sockets are single-writer: only the io thread that owns a
//! connection writes to it; the egress thread hands frames over via a
//! per-connection outbox. See `DESIGN.md` ("Serving over the network")
//! for the full protocol spec, and `perfbench/README.md` for how its
//! throughput and verdict latency are measured.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod client;
pub mod placement;
pub mod server;
pub mod wire;

pub use client::{Client, ServerFrame};
pub use placement::HashRing;
pub use server::{ReloadSummary, ServeConfig, ServeError, Server};
