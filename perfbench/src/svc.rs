//! `svc-small`: small jobs served by the unmodified `serve` daemon over TCP.
//!
//! Load model: a closed loop on two TCP connections from this process, one
//! thread each, every connection keeping 2 submits outstanding. One
//! connection opens with `hello` and acks every line it receives; the other
//! is anonymous. Each connection is its own tenant. Jobs are n = 48, in the
//! `ecs_load` rotation over six algorithms × five distributions, on the
//! daemon's default (`auto`) backend.

use crate::jobs::{
    calibrate_preview_us, report_sort_layers, run_traced, service_spec, Fingerprint,
};
use crate::report::Report;
use crate::stats::{mean, median, quantile, ratio};
use crate::{Config, SETUP_REPS};
use ecs_model::batching::DEFAULT_LINGER;
use ecs_service::protocol::{render_result, run_job};
use ecs_service::{Client, JobSpec, Request, Response};
use std::io::{BufRead, BufReader, Read};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Submits each connection keeps outstanding.
const WINDOW: usize = 2;

/// Jobs per connection every measured phase completes whatever the
/// deadline: six full turns of the 30-job rotation. `comparisons_per_job`
/// and `rounds_per_job` are taken over exactly these jobs, so they repeat
/// for a seed.
const FIXED_JOBS: usize = 180;

/// Jobs per connection of the warm-up before the memory baseline.
const WARM_UP_JOBS: usize = 6;

/// The two connections: `(tenant, opens with hello)`.
const CONNECTIONS: [(&str, bool); 2] = [("hello", true), ("anon", false)];

/// Builds the `serve` binary from the repository's own workspace (a no-op
/// when it is current) and returns its path.
fn build_serve() -> Result<PathBuf, String> {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args([
            "build",
            "--release",
            "--quiet",
            "--offline",
            "-p",
            "ecs_bench",
            "--bin",
            "serve",
        ])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building serve failed ({status})"));
    }
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    let path = PathBuf::from(target).join("release").join("serve");
    if path.is_file() {
        Ok(path)
    } else {
        Err(format!("no serve binary at {}", path.display()))
    }
}

/// A running `serve` child. Dropping it kills the process if it is still
/// alive, and always reaps it.
struct Daemon {
    child: Child,
    stdout: BufReader<ChildStdout>,
    addr: String,
}

impl Daemon {
    /// Starts `serve` with its defaults on an ephemeral port, connects, and
    /// waits for the answer to a first `status`. Returns the daemon, the
    /// connection, and the seconds from spawning to that answer.
    fn start(serve: &Path) -> Result<(Self, Client, f64), String> {
        let started = Instant::now();
        let mut child = Command::new(serve)
            .args(["--addr", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot spawn serve: {e}"))?;
        let stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut daemon = Daemon {
            child,
            stdout,
            addr: String::new(),
        };
        let mut banner = String::new();
        daemon
            .stdout
            .read_line(&mut banner)
            .map_err(|e| format!("serve stdout: {e}"))?;
        daemon.addr = banner
            .trim()
            .strip_prefix("ecs service listening on ")
            .ok_or_else(|| format!("unexpected serve banner `{}`", banner.trim()))?
            .to_string();
        let mut client = Client::connect(&daemon.addr).map_err(|e| format!("connect: {e}"))?;
        status(&mut client)?;
        Ok((daemon, client, started.elapsed().as_secs_f64()))
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Sends `shutdown` on `client` and waits for the process to exit.
    fn shut_down(mut self, mut client: Client) -> Result<(), String> {
        client.shutdown().map_err(|e| format!("shutdown: {e}"))?;
        // serve reports its stop on stdout; keep the pipe open until then.
        let mut rest = String::new();
        let _ = self.stdout.read_to_string(&mut rest);
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("serve exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                Ok(None) => return Err("serve did not exit after shutdown".to_string()),
                Err(e) => return Err(format!("waiting for serve: {e}")),
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// Sends `status` and returns the daemon's answer.
fn status(client: &mut Client) -> Result<Response, String> {
    client
        .send(&Request::Status)
        .map_err(|e| format!("status: {e}"))?;
    loop {
        match client.recv().map_err(|e| format!("status: {e}"))? {
            Some(response @ Response::Status { .. }) => return Ok(response),
            Some(_) => continue,
            None => return Err("daemon closed the connection".to_string()),
        }
    }
}

/// `VmRSS` and `VmHWM` of a process, in KiB, read from outside.
fn memory_kb(pid: u32) -> Result<(f64, f64), String> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/status"))
        .map_err(|e| format!("cannot read /proc/{pid}/status: {e}"))?;
    let field = |key: &str| -> Result<f64, String> {
        text.lines()
            .find_map(|line| line.strip_prefix(key))
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|kb| kb.parse().ok())
            .ok_or_else(|| format!("no {key} in /proc/{pid}/status"))
    };
    Ok((field("VmRSS:")?, field("VmHWM:")?))
}

/// One submitted job, as the client saw it.
#[derive(Debug, Clone)]
struct Sent {
    conn: usize,
    j: usize,
    spec: JobSpec,
    submitted: Instant,
    accepted: Option<Instant>,
    finished: Option<Instant>,
    line: Option<String>,
}

/// What one connection of one phase did.
#[derive(Debug, Default)]
struct ConnOutcome {
    jobs: Vec<Sent>,
    problems: Vec<String>,
}

impl ConnOutcome {
    fn job(&mut self, id: &str) -> Option<&mut Sent> {
        self.jobs.iter_mut().rev().find(|sent| sent.spec.id == id)
    }

    fn submit(&mut self, client: &mut Client, seed: u64, conn: usize, phase: &str) -> bool {
        let tenant = CONNECTIONS[conn].0;
        let j = self.jobs.len();
        let spec = service_spec(seed, conn, tenant, format!("{phase}{conn}-{j:06}"), j);
        let submitted = Instant::now();
        if let Err(e) = client.submit(&spec) {
            self.problems.push(format!("{tenant}: submit: {e}"));
            return false;
        }
        self.jobs.push(Sent {
            conn,
            j,
            spec,
            submitted,
            accepted: None,
            finished: None,
            line: None,
        });
        true
    }
}

/// Drives one connection's closed loop: keeps [`WINDOW`] submits out until
/// `deadline` has passed and at least `min_jobs` were sent, then collects
/// the rest.
fn drive(
    addr: &str,
    seed: u64,
    conn: usize,
    phase: &str,
    deadline: Instant,
    min_jobs: usize,
) -> ConnOutcome {
    let (tenant, hello) = CONNECTIONS[conn];
    let mut outcome = ConnOutcome::default();
    let mut client = match Client::connect(addr) {
        Ok(client) => client,
        Err(e) => {
            outcome.problems.push(format!("{tenant}: connect: {e}"));
            return outcome;
        }
    };
    if hello {
        if let Err(e) = client.hello() {
            outcome.problems.push(format!("{tenant}: hello: {e}"));
            return outcome;
        }
    }
    let mut outstanding = 0usize;
    while outstanding < WINDOW {
        if !outcome.submit(&mut client, seed, conn, phase) {
            return outcome;
        }
        outstanding += 1;
    }
    while outstanding > 0 {
        let response = match client.recv() {
            Ok(Some(response)) => response,
            Ok(None) => {
                let lost = format!("{tenant}: daemon closed with {outstanding} jobs out");
                outcome.problems.push(lost);
                return outcome;
            }
            Err(e) => {
                outcome.problems.push(format!("{tenant}: recv: {e}"));
                return outcome;
            }
        };
        let now = Instant::now();
        if hello {
            if let Err(e) = client.ack(client.last_seq()) {
                outcome.problems.push(format!("{tenant}: ack: {e}"));
                return outcome;
            }
        }
        let terminal = match &response {
            Response::Accepted { id } => {
                match outcome.job(id) {
                    Some(sent) => sent.accepted = Some(now),
                    None => outcome
                        .problems
                        .push(format!("{tenant}: accepted unknown {id}")),
                }
                false
            }
            Response::Result { id, line } => {
                match outcome.job(id) {
                    Some(sent) => {
                        sent.finished = Some(now);
                        sent.line = Some(line.clone());
                    }
                    None => outcome
                        .problems
                        .push(format!("{tenant}: result for unknown {id}")),
                }
                true
            }
            Response::Rejected { .. } | Response::Failed { .. } | Response::Cancelled { .. } => {
                outcome
                    .problems
                    .push(format!("{tenant}: {}", response.render()));
                true
            }
            Response::Error { message } => {
                outcome.problems.push(format!("{tenant}: error {message}"));
                false
            }
            _ => false,
        };
        if terminal {
            outstanding -= 1;
            if now < deadline || outcome.jobs.len() < min_jobs {
                if !outcome.submit(&mut client, seed, conn, phase) {
                    return outcome;
                }
                outstanding += 1;
            }
        }
    }
    outcome
}

/// `status` samples taken while a phase runs.
#[derive(Debug, Default)]
struct Polled {
    queued: Vec<f64>,
    inflight: Vec<f64>,
}

/// What one load phase measured.
#[derive(Debug)]
struct Phase {
    jobs: Vec<Sent>,
    elapsed: f64,
    polled: Polled,
}

impl Phase {
    fn completed(&self) -> usize {
        self.jobs.iter().filter(|sent| sent.line.is_some()).count()
    }

    fn jobs_per_s(&self) -> f64 {
        ratio(self.completed() as f64, self.elapsed)
    }
}

/// Runs both connections until `seconds` have passed (and each sent at
/// least `min_jobs`), polling `status` on `monitor` meanwhile if given.
fn load_phase(
    addr: &str,
    seed: u64,
    phase: &str,
    seconds: Duration,
    min_jobs: usize,
    monitor: Option<&mut Client>,
    report: &mut Report,
) -> Phase {
    let started = Instant::now();
    let deadline = started + seconds;
    let done = AtomicBool::new(false);
    let mut polled = Polled::default();
    let mut poll_error = None;
    let outcomes: Vec<ConnOutcome> = std::thread::scope(|scope| {
        let loops: Vec<_> = (0..CONNECTIONS.len())
            .map(|conn| scope.spawn(move || drive(addr, seed, conn, phase, deadline, min_jobs)))
            .collect();
        let done = &done;
        let polled = &mut polled;
        let poller = monitor.map(|client| {
            scope.spawn(move || -> Result<(), String> {
                while !done.load(Ordering::SeqCst) {
                    if let Response::Status {
                        queued, inflight, ..
                    } = status(client)?
                    {
                        polled.queued.push(queued as f64);
                        polled.inflight.push(inflight as f64);
                    }
                    std::thread::sleep(Duration::from_millis(20));
                }
                Ok(())
            })
        });
        let outcomes = loops
            .into_iter()
            .map(|handle| handle.join().expect("connection threads do not panic"))
            .collect();
        done.store(true, Ordering::SeqCst);
        if let Some(poller) = poller {
            poll_error = poller
                .join()
                .expect("the status poller does not panic")
                .err();
        }
        outcomes
    });
    if let Some(e) = poll_error {
        report.fail(format!("status poll: {e}"));
    }
    let mut jobs = Vec::new();
    for outcome in outcomes {
        for problem in outcome.problems {
            report.fail(problem);
        }
        jobs.extend(outcome.jobs);
    }
    let last = jobs
        .iter()
        .filter_map(|sent| sent.finished)
        .max()
        .unwrap_or(started);
    report.attempted += jobs.len() as u64;
    Phase {
        jobs,
        elapsed: last.duration_since(started).as_secs_f64(),
        polled,
    }
}

/// Checks every result line against `render_result(spec, run_job(spec))`
/// computed here, and returns each job's in-process evaluation time in
/// milliseconds (`None` for jobs without a result).
fn check_lines(jobs: &[Sent], report: &mut Report) -> Vec<Option<f64>> {
    jobs.iter()
        .map(|sent| {
            let Some(line) = &sent.line else {
                report.fail(format!("{}: no result line", sent.spec.id));
                return None;
            };
            let started = Instant::now();
            let run = run_job(&sent.spec, DEFAULT_LINGER, None);
            let eval_ms = started.elapsed().as_secs_f64() * 1e3;
            let expected = render_result(&sent.spec, &run);
            if *line != expected {
                report.fail(format!(
                    "{}: daemon sent `{line}`, run_job renders `{expected}`",
                    sent.spec.id
                ));
            }
            Some(eval_ms)
        })
        .collect()
}

/// A numeric `key=value` field of a result line.
fn line_field(line: &str, key: &str) -> f64 {
    line.split_ascii_whitespace()
        .find_map(|token| token.strip_prefix(key)?.strip_prefix('='))
        .and_then(|value| value.parse().ok())
        .unwrap_or(0.0)
}

fn latency_ms(sent: &Sent) -> Option<f64> {
    Some(sent.finished?.duration_since(sent.submitted).as_secs_f64() * 1e3)
}

/// Reports the end-to-end metrics of the untraced phase.
fn report_end_to_end(phase: &Phase, report: &mut Report) {
    let latencies: Vec<f64> = phase.jobs.iter().filter_map(latency_ms).collect();
    report.set("jobs_per_s", phase.jobs_per_s());
    report.set("latency_p50_ms", median(&latencies));
    report.set("latency_p99_ms", quantile(&latencies, 0.99));
    println!("latency samples: {}", latencies.len());
    let fixed: Vec<&String> = phase
        .jobs
        .iter()
        .filter(|sent| sent.j < FIXED_JOBS)
        .filter_map(|sent| sent.line.as_ref())
        .collect();
    let comparisons: Vec<f64> = fixed.iter().map(|l| line_field(l, "comparisons")).collect();
    let rounds: Vec<f64> = fixed.iter().map(|l| line_field(l, "rounds")).collect();
    report.set("comparisons_per_job", mean(&comparisons));
    report.set("rounds_per_job", mean(&rounds));
}

/// Checks the daemon's own per-tenant counters against what the clients
/// received: `completed` must match and `rejected` must be 0. Retries
/// briefly, since a tenant is billed just after its result line is queued.
fn cross_check(
    client: &mut Client,
    received: &[u64],
    report: &mut Report,
) -> Result<Response, String> {
    let deadline = Instant::now() + Duration::from_secs(2);
    loop {
        let answer = status(client)?;
        let Response::Status { tenants, .. } = &answer else {
            unreachable!("status() returns status lines");
        };
        let mismatches: Vec<String> = CONNECTIONS
            .iter()
            .zip(received)
            .filter_map(
                |(&(name, _), &got)| match tenants.iter().find(|t| t.name == name) {
                    Some(t) if t.completed == got && t.rejected == 0 => None,
                    Some(t) => Some(format!(
                    "tenant {name}: daemon billed completed={} rejected={}, client received {got}",
                    t.completed, t.rejected
                )),
                    None => Some(format!("tenant {name} missing from status")),
                },
            )
            .collect();
        if mismatches.is_empty() || Instant::now() >= deadline {
            for mismatch in mismatches {
                report.fail(mismatch);
            }
            return Ok(answer);
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// The daemon's p50 job latency from the `status` histograms of every
/// tenant: the upper edge of the power-of-two bucket holding the median.
fn daemon_latency_p50_us(answer: &Response) -> f64 {
    let Response::Status { latency, .. } = answer else {
        return 0.0;
    };
    let mut buckets: Vec<(usize, usize, u64)> = latency
        .iter()
        .flat_map(|t| t.buckets.iter().copied())
        .collect();
    buckets.sort_unstable();
    let total: u64 = buckets.iter().map(|b| b.2).sum();
    let mut seen = 0;
    for (_, hi, count) in buckets {
        seen += count;
        if 2 * seen >= total {
            return hi as f64;
        }
    }
    0.0
}

/// Runs `svc-small`.
pub fn run(config: &Config, report: &mut Report) -> Result<(), String> {
    let serve = build_serve()?;

    // Set-up: spawn to first answered request, several times; the last
    // daemon is the one under test, and its first connection stays open as
    // the monitor.
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut running = None;
    for rep in 0..SETUP_REPS {
        let (daemon, client, seconds) = Daemon::start(&serve)?;
        setups.push(seconds);
        if rep + 1 < SETUP_REPS {
            daemon.shut_down(client)?;
        } else {
            running = Some((daemon, client));
        }
    }
    report.set("setup_s", median(&setups));
    let (daemon, mut monitor) = running.expect("at least one set-up ran");
    let addr = daemon.addr.clone();

    let warm = load_phase(
        &addr,
        config.seed,
        "w",
        Duration::ZERO,
        WARM_UP_JOBS,
        None,
        report,
    );
    let (base_rss, _) = memory_kb(daemon.pid())?;
    let measured = load_phase(
        &addr,
        config.seed,
        "m",
        config.seconds,
        FIXED_JOBS,
        None,
        report,
    );
    let (end_rss, _) = memory_kb(daemon.pid())?;
    let traced = config.traced.then(|| {
        load_phase(
            &addr,
            config.seed,
            "t",
            config.seconds,
            FIXED_JOBS,
            Some(&mut monitor),
            report,
        )
    });

    let mut received = [0u64; CONNECTIONS.len()];
    for phase in [Some(&warm), Some(&measured), traced.as_ref()]
        .into_iter()
        .flatten()
    {
        for sent in phase.jobs.iter().filter(|sent| sent.line.is_some()) {
            received[sent.conn] += 1;
        }
    }
    let answer = cross_check(&mut monitor, &received, report)?;
    let (_, peak_kb) = memory_kb(daemon.pid())?;
    daemon.shut_down(monitor)?;

    report_end_to_end(&measured, report);
    check_lines(&warm.jobs, report);
    check_lines(&measured.jobs, report);
    let Some(traced) = traced else {
        return Ok(());
    };

    let eval_ms = check_lines(&traced.jobs, report);
    report.set(
        "daemon.rss_growth_kb_per_kjob",
        ratio(end_rss - base_rss, measured.completed() as f64 / 1e3),
    );
    report.set("daemon.peak_rss_mb", peak_kb / 1024.0);
    report.set("scheduler.queued_mean", mean(&traced.polled.queued));
    report.set("scheduler.inflight_mean", mean(&traced.polled.inflight));
    report.set(
        "scheduler.daemon_latency_us_p50",
        daemon_latency_p50_us(&answer),
    );
    let stage_ms = |from: fn(&Sent) -> Option<Instant>, to: fn(&Sent) -> Option<Instant>| {
        let samples: Vec<f64> = traced
            .jobs
            .iter()
            .filter_map(|s| Some(to(s)?.duration_since(from(s)?).as_secs_f64() * 1e3))
            .collect();
        median(&samples)
    };
    report.set(
        "service.accept_ms_p50",
        stage_ms(|s| Some(s.submitted), |s| s.accepted),
    );
    report.set(
        "service.result_ms_p50",
        stage_ms(|s| s.accepted, |s| s.finished),
    );
    let overheads: Vec<f64> = traced
        .jobs
        .iter()
        .zip(&eval_ms)
        .filter_map(|(sent, eval)| Some(latency_ms(sent)? - (*eval)?))
        .collect();
    report.set("service.overhead_ms_p50", median(&overheads));
    report.set(
        "trace.overhead_share",
        1.0 - ratio(traced.jobs_per_s(), measured.jobs_per_s()),
    );

    // The in-process replay of the fixed jobs, through the timing oracle.
    let replay: Vec<_> = traced
        .jobs
        .iter()
        .filter(|sent| sent.j < FIXED_JOBS)
        .map(|sent| {
            let job = run_traced(&sent.spec);
            let run = run_job(&sent.spec, DEFAULT_LINGER, None);
            if job.result != Fingerprint::of(&run) {
                report.fail(format!(
                    "{}: the traced replay changed the result",
                    sent.spec.id
                ));
            }
            job
        })
        .collect();
    report_sort_layers(&replay, report);
    report.set("calibrate.preview_us", calibrate_preview_us());
    Ok(())
}
