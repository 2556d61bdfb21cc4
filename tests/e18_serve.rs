//! E18 — loopback end-to-end checks behind the serve path.
//!
//! Plain [`Client`] traffic drives a real server over real sockets and
//! every event is accounted for: reports confirm exactly the events
//! sent, the violation count matches the traffic model's injected-late
//! count computed independently, a `.tspec` hot reload over a control
//! frame switches bounds mid-connection with zero event drop, and a
//! metrics subscription reads back the pool's counters.

use std::thread;
use std::time::Duration;

use tempo_monitor::{PoolConfig, StreamReport};
use tempo_serve::wire::WireEvent;
use tempo_serve::{Client, ServeConfig, Server, ServerFrame};
use tempo_sim::loadgen::ReqServe;

fn start_server(spec: String, workers: usize) -> Server {
    let mut config = ServeConfig::new(spec, &ReqServe::ACTIONS);
    config.pool = PoolConfig {
        workers,
        ..PoolConfig::default()
    };
    Server::start(config).expect("server starts")
}

/// The loss-free run's shape: connections (one client thread each),
/// streams, events per stream and events per `BATCH` frame.
const CONNS: u64 = 4;
const STREAMS: u64 = 64;
const EVENTS: u64 = 40;
const BATCH: u64 = 10;

/// Drives `STREAMS` × `EVENTS` of `traffic` against `server`; stream
/// `s` rides connection `s % CONNS`. Each connection opens its streams,
/// sends `BATCH`-event frames round robin over them, finishes them all
/// and collects every report. Returns the events put on the wire and
/// the reports.
fn drive(server: &Server, traffic: ReqServe, binary: bool) -> (u64, Vec<StreamReport>) {
    let addr = server.local_addr();
    let conns: Vec<_> = (0..CONNS)
        .map(|c| {
            thread::spawn(move || {
                let mine: Vec<u64> = (c..STREAMS).step_by(CONNS as usize).collect();
                let mut client = Client::connect(addr).expect("connect");
                client
                    .set_read_timeout(Some(Duration::from_secs(60)))
                    .expect("set read timeout");
                // Binary egress is negotiated once, on the connection's
                // first open; later opens ride the granted capability.
                for (i, &s) in mine.iter().enumerate() {
                    if binary && i == 0 {
                        client.open_binary(s, 0);
                    } else {
                        client.open(s, 0);
                    }
                }
                let mut sent = 0u64;
                for lo in (0..EVENTS).step_by(BATCH as usize) {
                    for &s in &mine {
                        let mut b = client.batch(s);
                        for i in lo..(lo + BATCH).min(EVENTS) {
                            let ev = traffic.event(s, i);
                            b.push(WireEvent::at(ev.action, ev.state, ev.time_ms));
                            sent += 1;
                        }
                        b.finish();
                    }
                    client.flush().expect("send batches");
                }
                for &s in &mine {
                    client.finish_stream(s);
                }
                let mut reports = Vec::new();
                while reports.len() < mine.len() {
                    match client.recv().expect("report") {
                        ServerFrame::Report { report, .. } => reports.push(report),
                        other => panic!("unexpected egress {other:?}"),
                    }
                }
                (sent, reports)
            })
        })
        .collect();
    let mut sent = 0;
    let mut reports = Vec::new();
    for conn in conns {
        let (s, r) = conn.join().expect("client thread panicked");
        sent += s;
        reports.extend(r);
    }
    (sent, reports)
}

/// Multi-connection traffic arrives loss-free and the verdicts match
/// the model's injected violations exactly — in either egress mode.
fn loadgen_loss_free(binary: bool) {
    let traffic = ReqServe {
        late_every: 5,
        ..ReqServe::default()
    }
    .validated();
    let server = start_server(traffic.tspec(), 2);

    let (events_sent, reports) = drive(&server, traffic, binary);

    assert_eq!(reports.len(), 64);
    assert_eq!(events_sent, 64 * 40);
    let events_monitored: u64 = reports.iter().map(|r| r.events as u64).sum();
    assert_eq!(
        events_monitored, events_sent,
        "zero event drop socket → ring → monitor"
    );
    assert_eq!(reports.iter().filter(|r| r.failed).count(), 0);

    let expected: u64 = (0..64).map(|s| traffic.expected_violations(s, 40)).sum();
    assert!(expected > 0, "the model must inject violations");
    let violations: u64 = reports.iter().map(|r| r.violations.len() as u64).sum();
    assert_eq!(
        violations, expected,
        "every injected-late serve is flagged, nothing else"
    );

    let pool_report = server.shutdown();
    assert!(
        pool_report.streams.is_empty(),
        "every report was already drained to its client"
    );
}

#[test]
fn loadgen_round_trip_is_loss_free() {
    loadgen_loss_free(false);
}

/// Same accounting over `REPORT2` binary egress: the violation count
/// survives the name-interned fixed-layout encoding exactly.
#[test]
fn loadgen_round_trip_is_loss_free_binary() {
    loadgen_loss_free(true);
}

/// A metrics subscription answers with the pool's counters: after one
/// finished 20-event stream sent as a single batch, the snapshot reads
/// back `events == 20` and `batches == 1` — as a JSON `METRICS_SNAP` or
/// a binary `METRICS_SNAP2`, per the connection's egress mode.
fn metrics_subscription_reports_the_pool_counters(binary: bool) {
    let traffic = ReqServe::default().validated();
    let server = start_server(traffic.tspec(), 1);
    let mut client = Client::connect(server.local_addr()).expect("connect");
    client
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("set read timeout");
    if binary {
        client.open_binary(0, 0);
    } else {
        client.open(0, 0);
    }
    let mut b = client.batch(0);
    for i in 0..20 {
        let ev = traffic.event(0, i);
        b.push(WireEvent::at(ev.action, ev.state, ev.time_ms));
    }
    b.finish();
    client.finish_stream(0);
    match client.recv().expect("report") {
        ServerFrame::Report { report, .. } => assert_eq!(report.events, 20),
        other => panic!("expected the stream's report, got {other:?}"),
    }

    client.subscribe_metrics(10);
    match client.recv().expect("metrics snapshot") {
        ServerFrame::Metrics(snap) => {
            assert_eq!(snap.events, 20);
            assert_eq!(snap.batches, 1);
        }
        other => panic!("expected a metrics snapshot, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn metrics_subscription_round_trip() {
    metrics_subscription_reports_the_pool_counters(false);
}

#[test]
fn metrics_subscription_round_trip_binary() {
    metrics_subscription_reports_the_pool_counters(true);
}

/// A reload control frame swaps the deadline mid-connection: events
/// sent before it are judged under the old bound, events after under
/// the new one, and none are lost.
///
/// The phases use hand-picked serve delays so the expectation is exact:
/// delay 3 satisfies both bounds, delay 8 violates only the original
/// `[0, 5]`, delay 12 violates even the loosened `[0, 10]`. Frames on
/// one connection are processed in order and
/// [`MonitorPool::reload_spec`](tempo_monitor::MonitorPool::reload_spec)
/// blocks until every worker swapped, so the phase boundary is sharp.
#[test]
fn reload_over_the_wire_swaps_bounds_without_dropping_events() {
    let traffic = ReqServe::default().validated(); // deadline 5
    assert_eq!(traffic.deadline_ms, 5);
    let server = start_server(traffic.tspec(), 2);

    const STREAMS: u64 = 16;
    let mut client = Client::connect(server.local_addr()).expect("connect");
    for s in 0..STREAMS {
        client.open(s, 0);
    }

    // Phase A under [0, 5]: request/serve pairs with delay 3 — clean.
    for s in 0..STREAMS {
        let mut b = client.batch(s);
        b.push(WireEvent::at(0, 1, 0));
        b.push(WireEvent::at(1, 0, 3));
        b.finish();
    }

    // Hot reload to [0, 10] over the same connection.
    client.reload(&traffic.tspec_with_deadline(10));
    match client.recv().expect("reload ack") {
        ServerFrame::Reloaded(summary) => {
            assert_eq!(summary.spec, "reqserve");
            assert_eq!(summary.revision, 2);
            assert_eq!(summary.workers, 2);
            assert_eq!(summary.dropped, 0, "same condition name: nothing dropped");
        }
        other => panic!("expected the reload summary, got {other:?}"),
    }

    // Phase B under [0, 10]: delay 8 — violates the OLD bound only, so
    // a flag here would mean the reload did not take.
    for s in 0..STREAMS {
        let mut b = client.batch(s);
        b.push(WireEvent::at(0, 1, 100));
        b.push(WireEvent::at(1, 0, 108));
        b.finish();
    }

    // Phase C: delay 12 — violates even the loosened bound, exactly
    // once per stream, proving monitoring is still live post-swap.
    for s in 0..STREAMS {
        let mut b = client.batch(s);
        b.push(WireEvent::at(0, 1, 200));
        b.push(WireEvent::at(1, 0, 212));
        b.finish();
        client.finish_stream(s);
    }

    let mut reports: Vec<(u64, StreamReport)> = Vec::new();
    while reports.len() < STREAMS as usize {
        match client.recv().expect("report") {
            ServerFrame::Report { stream, report } => reports.push((stream, report)),
            ServerFrame::Error { code, message } => {
                panic!("unexpected server error {code:?}: {message}")
            }
            _ => {}
        }
    }

    for (stream, report) in &reports {
        assert_eq!(
            report.events, 6,
            "stream {stream}: zero event drop across the reload"
        );
        assert_eq!(
            report.violations.len(),
            1,
            "stream {stream}: only the phase-C serve may violate"
        );
        assert!(!report.failed);
    }

    server.shutdown();
}

/// Worker drain/restore reroutes future placements without touching
/// live streams: traffic keeps flowing through both transitions.
#[test]
fn drain_and_restore_keep_serving() {
    let traffic = ReqServe::default().validated();
    let server = start_server(traffic.tspec(), 2);
    let addr = server.local_addr().to_string();

    let run = |streams: std::ops::Range<u64>| {
        let mut client = Client::connect(&*addr).expect("connect");
        for s in streams.clone() {
            client.open(s, 0);
            let mut b = client.batch(s);
            b.push(WireEvent::at(0, 1, 0));
            b.push(WireEvent::at(1, 0, 2));
            b.finish();
            client.finish_stream(s);
        }
        let mut seen = 0;
        while seen < streams.clone().count() {
            match client.recv().expect("report") {
                ServerFrame::Report { report, .. } => {
                    assert_eq!(report.events, 2);
                    assert!(report.violations.is_empty());
                    seen += 1;
                }
                other => panic!("unexpected egress {other:?}"),
            }
        }
    };

    run(0..8);
    assert!(server.drain_worker(1), "draining one of two workers");
    run(8..16);
    assert!(!server.drain_worker(0), "the last worker cannot drain");
    assert!(server.restore_worker(1));
    run(16..24);

    let report = server.shutdown();
    assert!(report.streams.is_empty(), "all reports already delivered");
}
