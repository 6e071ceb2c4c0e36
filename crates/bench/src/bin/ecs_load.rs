//! `ecs_load` — load generator and determinism checker for the service.
//!
//! ```text
//! ecs_load [--sessions S] [--tenants T] [--per-session J] [--n N] [--seed S]
//!          [--out results] [--connect HOST:PORT] [--serial] [--duration-ms MS]
//!          [--chaos] [--reject-smoke] [--jobs N] [--max-inflight M]
//! ```
//!
//! `--sessions 0` and `--per-session 0` exit with status 2 before any
//! daemon starts.
//!
//! Four modes:
//!
//! * **Diff mode** (default): `S` concurrent client sessions each submit a
//!   deterministic job slate to the daemon (self-spawned on an ephemeral
//!   127.0.0.1 port unless `--connect` points at one), drain, and collect
//!   their streamed result lines. All lines, sorted by job id, are written
//!   to `<out>/service_load.csv`; with `--serial` the same specs are also
//!   evaluated serially in-process through the identical
//!   `ecs_service::protocol::run_job` path into `<out>/service_serial.csv`.
//!   CI diffs the two files byte-for-byte.
//! * **Load mode** (`--duration-ms`): one session keeps a submission window
//!   full until the deadline, then drains and reports throughput.
//! * **Chaos mode** (`--chaos`): diff mode, except every session opens with
//!   `hello`, is killed mid-stream (the connection is dropped without
//!   ceremony after a deterministic number of results), and then resumed on
//!   a fresh connection with `resume <token> <last_seq>`. The collected
//!   lines must still be byte-identical to the `--serial` reference —
//!   that's the whole point.
//! * **Quota smoke** (`--reject-smoke`): submits one job as tenant
//!   `blocked` (quota `0` queued — self-configured, or set on the daemon
//!   under test with `--quota 'blocked=0:-:-'`), expects a deterministic
//!   `rejected`, verifies other tenants still complete and that `status`
//!   bills the rejection, then shuts the daemon down.
//!
//! Exit code 0 means every submitted job produced its terminal line AND the
//! daemon (when self-spawned) shut down with all threads joined.
//!
//! `ECS_BENCH_SMOKE=1` shrinks the slate to a seconds-long smoke run.

use ecs_bench::cli::{smoke, Args};
use ecs_service::protocol::{render_result, run_job};
use ecs_service::{
    AlgoSpec, BackendSpec, Client, Daemon, DaemonConfig, DistSpec, JobSpec, QuotaConfig, Request,
    Response,
};
use std::io::Write;
use std::time::{Duration, Instant};

/// The deterministic job slate: spec `(session, j)` depends only on its
/// coordinates and the base seed, so the daemon run and the serial reference
/// construct identical jobs without sharing state.
fn job_spec(session: usize, j: usize, base_seed: u64, tenants: usize, n: usize) -> JobSpec {
    let algo = AlgoSpec::ALL[(session + j) % AlgoSpec::ALL.len()];
    let dist = match (session + 2 * j) % 5 {
        0 => DistSpec::Uniform(5),
        1 => DistSpec::Geometric(0.3),
        2 => DistSpec::Poisson(4.0),
        3 => DistSpec::Zeta(2.5),
        _ => DistSpec::Balanced(7),
    };
    // Indexed by `session + j`, not `j` alone, so the two-job smoke slates
    // still reach every backend, including the daemon's default `auto`.
    let backend = match (session + j) % 3 {
        0 => BackendSpec::Seq,
        1 => BackendSpec::Threaded(2),
        _ => BackendSpec::Auto,
    };
    JobSpec {
        id: format!("s{session:03}-j{j:03}"),
        tenant: format!("t{}", session % tenants.max(1)),
        weight: 1 + (session % 3) as u32,
        dist,
        n,
        seed: base_seed ^ (session as u64 * 1_000 + j as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15),
        algo,
        backend,
    }
}

fn terminal_line(response: &Response) -> Option<(String, String)> {
    match response {
        Response::Result { id, .. } | Response::Cancelled { id } | Response::Failed { id, .. } => {
            Some((id.clone(), response.render()))
        }
        _ => None,
    }
}

fn write_lines(path: &std::path::Path, lines: &[(String, String)]) {
    let mut sorted = lines.to_vec();
    sorted.sort();
    let mut file = std::fs::File::create(path).expect("writable output file");
    for (_, line) in sorted {
        writeln!(file, "{line}").expect("write result line");
    }
}

fn main() {
    let args = Args::from_env();
    args.warn_unknown(&[
        "sessions",
        "tenants",
        "per-session",
        "n",
        "seed",
        "out",
        "connect",
        "serial",
        "duration-ms",
        "chaos",
        "reject-smoke",
        "jobs",
        "max-inflight",
    ]);
    args.require_nonzero(&["sessions", "per-session"]);
    let sessions = args.get_usize("sessions", if smoke() { 8 } else { 16 });
    let tenants = args.get_usize("tenants", 4).max(1);
    let per_session = args.get_usize("per-session", if smoke() { 2 } else { 4 });
    let n = args.get_usize("n", if smoke() { 24 } else { 48 });
    let base_seed = args.get_u64("seed", 2016);
    let out_dir = args.get_or("out", "results");
    std::fs::create_dir_all(&out_dir).expect("create output directory");

    // Self-spawn a daemon unless pointed at a running one.
    let (daemon, addr) = match args.get("connect") {
        Some(addr) => (None, addr.to_string()),
        None => {
            let pool = args.throughput_pool();
            // A self-spawned reject-smoke daemon needs the quota under test.
            let quotas = if args.has("reject-smoke") {
                QuotaConfig::parse("blocked=0:-:-").expect("static quota parses")
            } else {
                QuotaConfig::default()
            };
            let config = DaemonConfig {
                max_inflight: args.get_usize("max-inflight", 2 * pool.workers()),
                pool,
                quotas,
                ..DaemonConfig::default()
            };
            let daemon = Daemon::bind("127.0.0.1:0", config).expect("bind an ephemeral port");
            let addr = daemon
                .local_addr()
                .expect("a TCP daemon always has an address")
                .to_string();
            (Some(daemon), addr)
        }
    };
    println!(
        "ecs_load: daemon at {addr} ({} sessions x {per_session} jobs, {tenants} tenants, n={n})",
        sessions
    );

    if args.has("reject-smoke") {
        reject_smoke(&addr, base_seed, n);
        let mut closer = Client::connect(&addr).expect("connect for shutdown");
        closer.shutdown().expect("daemon acknowledges shutdown");
        if let Some(daemon) = daemon {
            daemon.join();
            println!("ecs_load: daemon stopped cleanly");
        }
        return;
    }

    let started = Instant::now();
    let collected: Vec<(String, String)> = if let Some(ms) = args.get("duration-ms") {
        let duration = Duration::from_millis(ms.parse().unwrap_or(1_000));
        load_mode(&addr, duration, base_seed, tenants, n)
    } else if args.has("chaos") {
        chaos_mode(&addr, sessions, per_session, base_seed, tenants, n)
    } else {
        diff_mode(&addr, sessions, per_session, base_seed, tenants, n)
    };
    let elapsed = started.elapsed();

    let load_path = std::path::Path::new(&out_dir).join("service_load.csv");
    write_lines(&load_path, &collected);
    println!(
        "ecs_load: {} terminal lines in {elapsed:?} ({:.1} jobs/s) -> {}",
        collected.len(),
        collected.len() as f64 / elapsed.as_secs_f64().max(1e-9),
        load_path.display()
    );

    if args.has("serial") && !args.has("duration-ms") {
        // The serial reference: the same specs through the same run_job /
        // render_result pair, no daemon involved.
        let serial: Vec<(String, String)> = (0..sessions)
            .flat_map(|s| (0..per_session).map(move |j| (s, j)))
            .map(|(s, j)| {
                let spec = job_spec(s, j, base_seed, tenants, n);
                let run = run_job(&spec, Duration::ZERO, None);
                (spec.id.clone(), render_result(&spec, &run))
            })
            .collect();
        let serial_path = std::path::Path::new(&out_dir).join("service_serial.csv");
        write_lines(&serial_path, &serial);
        println!("ecs_load: serial reference -> {}", serial_path.display());
    }

    // Clean shutdown: drain is already done per session; now stop the
    // daemon over the protocol and join every thread.
    let mut closer = Client::connect(&addr).expect("connect for shutdown");
    closer.shutdown().expect("daemon acknowledges shutdown");
    if let Some(daemon) = daemon {
        daemon.join();
        println!("ecs_load: daemon stopped cleanly");
    }

    let expected = if args.has("duration-ms") {
        collected.len() // load mode: whatever completed before the deadline
    } else {
        sessions * per_session
    };
    if collected.len() != expected {
        eprintln!(
            "ecs_load: expected {expected} terminal lines, saw {}",
            collected.len()
        );
        std::process::exit(1);
    }
}

/// Diff mode: `sessions` concurrent clients, each submitting its slate and
/// draining. Returns every terminal line keyed by job id.
fn diff_mode(
    addr: &str,
    sessions: usize,
    per_session: usize,
    base_seed: u64,
    tenants: usize,
    n: usize,
) -> Vec<(String, String)> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..sessions)
            .map(|s| {
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect session");
                    for j in 0..per_session {
                        let spec = job_spec(s, j, base_seed, tenants, n);
                        client.submit(&spec).expect("submit job");
                    }
                    let responses = client.drain().expect("drain session");
                    responses
                        .iter()
                        .filter_map(terminal_line)
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|handle| handle.join().expect("session thread"))
            .collect()
    })
}

/// Chaos mode: diff mode with a kill-and-resume in the middle of every
/// session. Each session opens with `hello`, submits its slate, reads (and
/// acks) a deterministic prefix of its stream, then drops the connection
/// cold and finishes on a fresh one via `resume <token> <last_seq>`. The
/// merged terminal lines must be byte-identical to an undropped run, which
/// CI checks by diffing against the `--serial` reference.
fn chaos_mode(
    addr: &str,
    sessions: usize,
    per_session: usize,
    base_seed: u64,
    tenants: usize,
    n: usize,
) -> Vec<(String, String)> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..sessions)
            .map(|s| {
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect session");
                    let token = client.hello().expect("hello binds the session");
                    for j in 0..per_session {
                        let spec = job_spec(s, j, base_seed, tenants, n);
                        client.submit(&spec).expect("submit job");
                    }
                    // Read until `cut` terminal lines arrived, acking every
                    // delivered line — then vanish without a goodbye.
                    let cut = s % per_session;
                    let mut collected = Vec::new();
                    while collected.len() < cut {
                        let response = client
                            .recv()
                            .expect("read response")
                            .expect("daemon must not close mid-slate");
                        let seq = client.last_seq();
                        client.ack(seq).expect("ack delivered line");
                        collected.extend(terminal_line(&response));
                    }
                    let acked = client.last_seq();
                    drop(client); // the "kill": no drain, no bye
                    let mut resumed = Client::connect(addr).expect("reconnect session");
                    resumed
                        .resume(&token, acked)
                        .expect("resume from the last acked seq");
                    // The dead connection's reader may still be admitting the
                    // tail of the slate, so a `drain` barrier here could
                    // overtake those submits; counting terminal lines is the
                    // only safe barrier after an unclean drop.
                    while collected.len() < per_session {
                        let response = resumed
                            .recv()
                            .expect("read resumed response")
                            .expect("daemon must not close mid-replay");
                        let seq = resumed.last_seq();
                        resumed.ack(seq).expect("ack replayed line");
                        collected.extend(terminal_line(&response));
                    }
                    collected
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|handle| handle.join().expect("session thread"))
            .collect()
    })
}

/// Quota smoke: against a daemon whose `blocked` tenant has a zero-depth
/// queue, an over-quota submit must bounce with a deterministic `rejected`,
/// other tenants must be unaffected, and `status` must bill the rejection.
fn reject_smoke(addr: &str, base_seed: u64, n: usize) {
    let mut client = Client::connect(addr).expect("connect quota session");
    let mut over = job_spec(0, 0, base_seed, 1, n);
    over.id = "blocked-0".into();
    over.tenant = "blocked".into();
    client.submit(&over).expect("submit over-quota job");
    match client.recv().expect("read response") {
        Some(Response::Rejected { id, reason }) if id == "blocked-0" => {
            println!("ecs_load: over-quota submit rejected ({reason})");
        }
        other => {
            eprintln!("ecs_load: expected `rejected` for the blocked tenant, saw {other:?}");
            std::process::exit(1);
        }
    }
    let mut allowed = job_spec(0, 1, base_seed, 1, n);
    allowed.id = "allowed-0".into();
    allowed.tenant = "open".into();
    client.submit(&allowed).expect("submit allowed job");
    let responses = client.drain().expect("drain quota session");
    if !responses
        .iter()
        .any(|r| matches!(r, Response::Result { id, .. } if id == "allowed-0"))
    {
        eprintln!("ecs_load: the allowed tenant's job never completed: {responses:?}");
        std::process::exit(1);
    }
    client.send(&Request::Status).expect("send status");
    loop {
        match client.recv().expect("read status").expect("status line") {
            Response::Status { tenants, .. } => {
                let Some(blocked) = tenants.iter().find(|t| t.name == "blocked") else {
                    eprintln!("ecs_load: status does not report the blocked tenant: {tenants:?}");
                    std::process::exit(1);
                };
                if blocked.rejected < 1 || blocked.max_queued != Some(0) {
                    eprintln!("ecs_load: rejection not billed in status: {blocked:?}");
                    std::process::exit(1);
                }
                break;
            }
            _ => continue,
        }
    }
    println!("ecs_load: quota rejection smoke passed");
}

/// Load mode: one session keeps a bounded submission window full until the
/// deadline, then drains.
fn load_mode(
    addr: &str,
    duration: Duration,
    base_seed: u64,
    tenants: usize,
    n: usize,
) -> Vec<(String, String)> {
    const WINDOW: usize = 16;
    let mut client = Client::connect(addr).expect("connect load session");
    let deadline = Instant::now() + duration;
    let mut collected = Vec::new();
    let mut submitted = 0usize;
    let mut outstanding = 0usize;
    while Instant::now() < deadline {
        while outstanding < WINDOW {
            let spec = job_spec(submitted / 97, submitted % 97, base_seed, tenants, n);
            let spec = JobSpec {
                id: format!("load-{submitted:06}"),
                ..spec
            };
            client.submit(&spec).expect("submit load job");
            submitted += 1;
            outstanding += 1;
        }
        // Pull responses until the window has room again.
        while outstanding >= WINDOW {
            match client.recv().expect("read response") {
                Some(response) => {
                    if let Some(line) = terminal_line(&response) {
                        collected.push(line);
                        outstanding -= 1;
                    }
                }
                None => return collected,
            }
        }
    }
    client.send(&Request::Drain).expect("send drain");
    loop {
        match client.recv().expect("read response") {
            Some(Response::Drained) | None => break,
            Some(response) => {
                if let Some(line) = terminal_line(&response) {
                    collected.push(line);
                }
            }
        }
    }
    println!("ecs_load: load mode submitted {submitted} jobs");
    collected
}
