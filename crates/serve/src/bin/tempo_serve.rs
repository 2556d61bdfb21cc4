//! `tempo-serve` binary: serve a `.tspec` over TCP.
//!
//! ```text
//! tempo-serve --spec path/to/spec.tspec --actions REQUEST,SERVE \
//!             [--addr 127.0.0.1:7400] [--io-threads 2] [--workers 4] [--queue 1024]
//! ```
//!
//! Runs until killed; prints the bound address as its first stdout
//! line, so scripts and tests can pick up an ephemeral port
//! (`--addr 127.0.0.1:0`).

use std::process::ExitCode;

use tempo_serve::{ServeConfig, Server};

fn usage() -> ExitCode {
    eprintln!(
        "usage: tempo-serve --spec FILE --actions A,B,... \
         [--addr HOST:PORT] [--io-threads N] [--workers N] [--queue EVENTS]"
    );
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let mut spec_path: Option<String> = None;
    let mut actions: Vec<String> = Vec::new();
    let mut addr = "127.0.0.1:7400".to_string();
    let mut io_threads = 2usize;
    let mut workers: Option<usize> = None;
    let mut queue: Option<usize> = None;

    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut val = |name: &str| -> Option<String> {
            let v = args.next();
            if v.is_none() {
                eprintln!("missing value for {name}");
            }
            v
        };
        match flag.as_str() {
            "--spec" => spec_path = val("--spec"),
            "--actions" => match val("--actions") {
                Some(v) => actions = v.split(',').map(|s| s.trim().to_string()).collect(),
                None => return usage(),
            },
            "--addr" => match val("--addr") {
                Some(v) => addr = v,
                None => return usage(),
            },
            "--io-threads" => match val("--io-threads").and_then(|v| v.parse().ok()) {
                Some(v) => io_threads = v,
                None => return usage(),
            },
            "--workers" => match val("--workers").and_then(|v| v.parse().ok()) {
                Some(v) => workers = Some(v),
                None => return usage(),
            },
            "--queue" => match val("--queue").and_then(|v| v.parse().ok()) {
                Some(v) => queue = Some(v),
                None => return usage(),
            },
            _ => return usage(),
        }
    }
    let (Some(spec_path), false) = (spec_path, actions.is_empty()) else {
        return usage();
    };
    let src = match std::fs::read_to_string(&spec_path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot read {spec_path}: {e}");
            return ExitCode::FAILURE;
        }
    };

    let action_refs: Vec<&str> = actions.iter().map(String::as_str).collect();
    let mut config = ServeConfig::new(src, &action_refs);
    config.addr = addr;
    config.io_threads = io_threads;
    if let Some(w) = workers {
        config.pool.workers = w;
    }
    if let Some(q) = queue {
        config.pool.queue_capacity = q;
    }

    let server = match Server::start(config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("tempo-serve: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("{}", server.local_addr());
    eprintln!("tempo-serve listening on {}", server.local_addr());
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}
