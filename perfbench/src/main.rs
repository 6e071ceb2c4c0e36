//! `perfbench` — the repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <svc-small|sort-large> --seed N --seconds S --trace <0|1>
//! ```
//!
//! Run from the repository root. Each workload drives the program's public
//! entry points from outside: the unmodified `serve` daemon over TCP
//! (`svc-small`), and `ecs_service::protocol::run_job` on a
//! `ThroughputPool` (`sort-large`, whose traced run also drives the
//! Theorem 5/6 lower-bound adversaries). `--trace 0` prints the end-to-end
//! metrics; `--trace 1` additionally runs a traced pass that times the
//! calls into each layer and prints the per-layer metrics. Every run checks every result it gets; the
//! last line of stdout is one JSON object, and the exit code is non-zero
//! on any correctness failure. See `perfbench/README.md`.

mod adversary;
mod jobs;
mod report;
mod sort;
mod stats;
mod svc;
mod trace;

use report::Report;
use std::io::{BufRead, BufReader, Write};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Set-up is measured this many times per run; the median is reported.
pub const SETUP_REPS: usize = 9;

/// How long an in-process workload keeps every worker busy before its
/// measured window opens. On a shared virtual machine a core that sat idle
/// can run at reduced speed for a second or two after work resumes.
pub const WARM_UP: Duration = Duration::from_secs(3);

/// What one invocation measures.
#[derive(Debug, Clone)]
pub struct Config {
    /// Seed every job slate is generated from.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: Duration,
    /// Whether to run the traced pass and report per-layer metrics.
    pub traced: bool,
}

const WORKLOADS: [&str; 2] = ["svc-small", "sort-large"];

fn usage(message: &str) -> ! {
    eprintln!("perfbench: {message}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed N --seconds S --trace <0|1>",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn bad<T>(flag: &str, value: &str) -> T {
    usage(&format!("bad value `{value}` for {flag}"))
}

fn parse_args(args: &[String]) -> (String, Config) {
    let mut workload = None;
    let mut config = Config {
        seed: 1,
        seconds: Duration::from_secs(10),
        traced: false,
    };
    let mut tokens = args.iter();
    while let Some(flag) = tokens.next() {
        let value = tokens
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => config.seed = value.parse().unwrap_or_else(|_| bad(flag, value)),
            "--seconds" => {
                let seconds: f64 = value.parse().unwrap_or_else(|_| bad(flag, value));
                if !(seconds > 0.0 && seconds <= 600.0) {
                    bad::<()>(flag, value);
                }
                config.seconds = Duration::from_secs_f64(seconds);
            }
            "--trace" => {
                config.traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => bad(flag, value),
                }
            }
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    if !WORKLOADS.contains(&workload.as_str()) {
        usage(&format!("unknown workload `{workload}`"));
    }
    (workload, config)
}

/// The set-up time of an in-process workload, measured in fresh processes
/// so that every sample pays for the pool and the calibration probe: from
/// spawning this program in `--setup-child` mode until it reports the pool
/// built and warmed. Returns the median of [`SETUP_REPS`] samples.
pub fn child_setup_seconds(workload: &str) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate perfbench: {e}"))?;
    let mut samples = Vec::with_capacity(SETUP_REPS);
    for _ in 0..SETUP_REPS {
        let started = Instant::now();
        let mut child = Command::new(&exe)
            .args(["--setup-child", workload])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot spawn a set-up child: {e}"))?;
        let mut line = String::new();
        let stdout = child.stdout.take().expect("stdout is piped");
        let read = BufReader::new(stdout).read_line(&mut line);
        samples.push(started.elapsed().as_secs_f64());
        if read.is_err() {
            let _ = child.kill();
        }
        let status = child.wait().map_err(|e| format!("set-up child: {e}"))?;
        if line.trim() != "ready" || !status.success() {
            return Err(format!(
                "set-up child failed ({status}, said `{}`)",
                line.trim()
            ));
        }
    }
    Ok(stats::median(&samples))
}

fn setup_child(workload: &str) {
    match workload {
        "sort-large" => sort::set_up(),
        other => usage(&format!("no in-process set-up for `{other}`")),
    };
    let mut stdout = std::io::stdout();
    writeln!(stdout, "ready")
        .and_then(|()| stdout.flush())
        .expect("report set-up");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--setup-child") {
        setup_child(args.get(1).map_or("", String::as_str));
        return;
    }
    let (workload, config) = parse_args(&args);
    println!(
        "perfbench: workload={workload} seed={} seconds={} trace={} nproc={}",
        config.seed,
        config.seconds.as_secs_f64(),
        u8::from(config.traced),
        ecs_model::backend::available_parallelism()
    );
    let mut report = Report::default();
    let outcome = match workload.as_str() {
        "svc-small" => svc::run(&config, &mut report),
        _ => sort::run(&config, &mut report),
    };
    if let Err(message) = outcome {
        eprintln!("perfbench: {workload} could not run: {message}");
        std::process::exit(1);
    }
    if !report.finish(config.traced) {
        std::process::exit(1);
    }
}
