//! The server under test runs in a child process of its own, so its CPU
//! time and peak memory are read from `/proc` without counting the
//! generator.
//!
//! The child is this same executable started with `--serve-child`. It
//! starts a `tempo_serve::Server` on a loopback port, prints one
//! `READY` line, and then answers line commands on stdin: `SNAP` prints
//! the pool's metrics registry counts, and `QUIT` (or end of input)
//! shuts the server down.

use std::fs;
use std::io::{self, BufRead, BufReader, Write};
use std::net::SocketAddr;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::thread;
use std::time::{Duration, Instant};

use tempo_monitor::{MetricsSnapshot, PoolConfig};
use tempo_serve::{ServeConfig, Server};
use tempo_sim::loadgen::ReqServe;
use tempo_spec::{MapBinder, SpecRevision};

/// The server configuration every workload runs against.
pub const IO_THREADS: usize = 1;
pub const POOL_WORKERS: usize = 1;

pub fn pool_config() -> PoolConfig {
    PoolConfig {
        workers: POOL_WORKERS,
        ..PoolConfig::default()
    }
}

pub fn server_provenance() -> String {
    let p = pool_config().validated();
    format!(
        "{{\"io_threads\": {IO_THREADS}, \"pool_workers\": {}, \"queue_capacity\": {}, \"policy\": \"{:?}\", \"drain_batch\": {}, \"process\": \"separate\"}}",
        p.workers, p.queue_capacity, p.policy, p.drain_batch
    )
}

/// The `.tspec` source the server checks `ReqServe` traffic against.
pub fn spec_source() -> String {
    ReqServe::default().validated().tspec()
}

/// Resolves `REQUEST`/`SERVE` to their wire action ids.
pub fn binder() -> MapBinder<u32, u32> {
    MapBinder::new(|name: &str| {
        ReqServe::ACTIONS
            .iter()
            .position(|a| *a == name)
            .map(|i| i as u32)
    })
}

/// Body of `--serve-child`: runs the server until told to stop.
pub fn serve_child() -> io::Result<()> {
    let src = spec_source();
    let t = Instant::now();
    let rev = SpecRevision::<u32, u32>::compile(&src, &binder());
    let compile_us = t.elapsed().as_secs_f64() * 1e6;
    if let Err(diags) = rev {
        return Err(io::Error::other(format!(
            "spec failed to compile: {diags:?}"
        )));
    }

    let mut cfg = ServeConfig::new(src, &ReqServe::ACTIONS);
    cfg.io_threads = IO_THREADS;
    cfg.pool = pool_config();
    let t = Instant::now();
    let server = Server::start(cfg).map_err(|e| io::Error::other(e.to_string()))?;
    let start_ms = t.elapsed().as_secs_f64() * 1e3;

    let mut out = io::stdout().lock();
    writeln!(out, "READY {} {compile_us} {start_ms}", server.local_addr())?;
    out.flush()?;

    let metrics = server.metrics();
    let mut snap = MetricsSnapshot::default();
    for line in io::stdin().lock().lines() {
        match line?.trim() {
            "SNAP" => {
                metrics.snapshot_into(&mut snap);
                let mut times = Vec::new();
                for _ in 0..5 {
                    let t = Instant::now();
                    metrics.snapshot_into(&mut snap);
                    times.push(t.elapsed().as_secs_f64() * 1e6);
                }
                times.sort_by(f64::total_cmp);
                writeln!(
                    out,
                    "SNAP {} {} {} {} {}",
                    snap.streams.len(),
                    times[times.len() / 2],
                    snap.batches,
                    snap.batched_events,
                    snap.max_queue_depth,
                )?;
                out.flush()?;
            }
            "QUIT" => break,
            _ => {}
        }
    }
    // A wedged shutdown must not keep the process alive.
    thread::spawn(|| {
        thread::sleep(Duration::from_secs(20));
        std::process::exit(3);
    });
    server.shutdown();
    Ok(())
}

/// The registry counts a `SNAP` command returns.
#[derive(Clone, Copy, Debug, Default)]
pub struct ServerSnap {
    pub registered_streams: u64,
    pub snapshot_us: f64,
    pub batches: u64,
    pub batched_events: u64,
    pub max_queue_depth: u64,
}

/// The parent's handle on a server child process.
pub struct ServerProc {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
    /// `SpecRevision::compile`, timed inside the child.
    pub compile_us: f64,
    /// `Server::start`, timed inside the child.
    pub start_ms: f64,
}

impl ServerProc {
    /// Starts a fresh server process and waits until it listens.
    pub fn spawn() -> io::Result<ServerProc> {
        let exe = std::env::current_exe()?;
        let mut child = Command::new(exe)
            .arg("--serve-child")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let stdin = child.stdin.take();
        let stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut proc = ServerProc {
            child,
            stdin,
            stdout,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            compile_us: 0.0,
            start_ms: 0.0,
        };
        let line = proc.read_line()?;
        let f: Vec<&str> = line.split_whitespace().collect();
        if f.len() != 4 || f[0] != "READY" {
            return Err(io::Error::other(format!("server child said {line:?}")));
        }
        proc.addr = parse(f[1])?;
        proc.compile_us = parse(f[2])?;
        proc.start_ms = parse(f[3])?;
        Ok(proc)
    }

    fn read_line(&mut self) -> io::Result<String> {
        let mut line = String::new();
        if self.stdout.read_line(&mut line)? == 0 {
            return Err(io::Error::other("server child exited"));
        }
        Ok(line.trim().to_string())
    }

    fn command(&mut self, cmd: &str) -> io::Result<()> {
        let stdin = self
            .stdin
            .as_mut()
            .ok_or_else(|| io::Error::other("server child already stopped"))?;
        writeln!(stdin, "{cmd}")?;
        stdin.flush()
    }

    /// Reads the pool's metrics registry through the child.
    pub fn snapshot(&mut self) -> io::Result<ServerSnap> {
        self.command("SNAP")?;
        let line = self.read_line()?;
        let f: Vec<&str> = line.split_whitespace().collect();
        if f.len() != 6 || f[0] != "SNAP" {
            return Err(io::Error::other(format!("bad SNAP reply {line:?}")));
        }
        Ok(ServerSnap {
            registered_streams: parse(f[1])?,
            snapshot_us: parse(f[2])?,
            batches: parse(f[3])?,
            batched_events: parse(f[4])?,
            max_queue_depth: parse(f[5])?,
        })
    }

    /// CPU time (user plus system) the server's threads have used so
    /// far, in nanoseconds, summed from each thread's `schedstat`.
    pub fn cpu_ns(&self) -> u64 {
        let dir = format!("/proc/{}/task", self.child.id());
        let Ok(tasks) = fs::read_dir(dir) else {
            return 0;
        };
        tasks
            .filter_map(Result::ok)
            .filter_map(|t| fs::read_to_string(t.path().join("schedstat")).ok())
            .filter_map(|s| s.split_whitespace().next()?.parse::<u64>().ok())
            .sum()
    }

    /// The server's peak resident set (`VmHWM`), in KiB.
    pub fn peak_rss_kib(&self) -> u64 {
        peak_rss_kib(&self.child.id().to_string())
    }

    /// Shuts the server down and waits for the process to end.
    pub fn stop(mut self) -> io::Result<()> {
        self.command("QUIT")?;
        self.stdin = None;
        let status = self.child.wait()?;
        if !status.success() {
            return Err(io::Error::other(format!(
                "server child ended with {status}"
            )));
        }
        Ok(())
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        // Reached on error paths only (`stop` waits itself): closing
        // stdin asks the child to stop; kill it if that is not enough.
        self.stdin = None;
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// `VmHWM` of process `pid` (a number, or `self`), in KiB.
pub fn peak_rss_kib(pid: &str) -> u64 {
    fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse().ok())
        })
        .unwrap_or(0)
}

fn parse<T: std::str::FromStr>(s: &str) -> io::Result<T> {
    s.parse()
        .map_err(|_| io::Error::other(format!("unparsable field {s:?}")))
}
