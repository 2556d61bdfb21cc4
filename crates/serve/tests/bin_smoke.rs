//! Smoke test of the `tempo-serve` binary: start it on an ephemeral
//! loopback port with a `.tspec` file, read the bound address from its
//! first stdout line, drive one stream with a known late serve through
//! [`Client`], and check the one violation in the stream's report.

use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::Duration;

use tempo_core::ViolationKind;
use tempo_math::Rat;
use tempo_serve::wire::WireEvent;
use tempo_serve::{Client, ServerFrame};

const SPEC: &str = "spec reqserve;

actions REQUEST, SERVE;

cond SERVE-DEADLINE {
    trigger on REQUEST;
    pi SERVE;
    bounds [0, 5];
}
";

/// The running server process and its spec file; both are cleaned up on
/// drop, so a failed assertion does not leave the server running.
struct Served {
    child: Child,
    spec: PathBuf,
}

impl Drop for Served {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_file(&self.spec);
    }
}

#[test]
fn binary_serves_a_spec_file_and_reports_a_late_serve() {
    let spec = std::env::temp_dir().join(format!("tempo-bin-smoke-{}.tspec", std::process::id()));
    std::fs::write(&spec, SPEC).expect("write the spec file");
    let child = Command::new(env!("CARGO_BIN_EXE_tempo-serve"))
        .arg("--spec")
        .arg(&spec)
        .args(["--actions", "REQUEST,SERVE"])
        .args(["--addr", "127.0.0.1:0"])
        .args(["--workers", "1", "--io-threads", "1"])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn tempo-serve");
    let mut served = Served { child, spec };

    let mut line = String::new();
    BufReader::new(served.child.stdout.take().expect("piped stdout"))
        .read_line(&mut line)
        .expect("read the bound address");
    let addr = line.trim();
    assert!(
        !addr.is_empty(),
        "the binary prints its bound address first"
    );

    let mut client = Client::connect(addr).expect("connect");
    client
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("set read timeout");
    client.open(0, 0);
    // Actions index the --actions list: 0 = REQUEST, 1 = SERVE.
    client.send_batch(
        0,
        &[
            WireEvent::at(0, 1, 0),
            WireEvent::at(1, 0, 3), // within [0, 5]
            WireEvent::at(0, 1, 10),
            WireEvent::at(1, 0, 17), // deadline 15 missed
        ],
    );
    client.finish_stream(0);
    let report = match client.recv().expect("report") {
        ServerFrame::Report { stream, report } => {
            assert_eq!(stream, 0);
            report
        }
        other => panic!("expected the stream's report, got {other:?}"),
    };
    assert_eq!(report.events, 4);
    assert!(!report.failed);
    assert_eq!(report.violations.len(), 1, "{:?}", report.violations);
    let v = &report.violations[0];
    assert_eq!(v.condition, "SERVE-DEADLINE");
    assert!(
        matches!(v.kind, ViolationKind::UpperBound { deadline, .. } if deadline == Rat::from(15)),
        "{v:?}"
    );
}
