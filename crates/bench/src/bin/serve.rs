//! `serve` — run the equivalence-sorting daemon.
//!
//! ```text
//! serve [--addr HOST:PORT] [--jobs N] [--max-inflight M] [--quota SPEC]
//! ```
//!
//! `--jobs N` sizes the daemon's job pool; without it jobs run on one
//! worker. Jobs that name no backend run under `auto`, which evaluates each
//! round inline on the job's own pool worker.
//!
//! `--quota` takes comma-separated `tenant=queued:inflight:weight` entries
//! (`*` names the default quota, `-` leaves a component unlimited), e.g.
//! `--quota 'alpha=4:2:3,*=64:-:-'`.
//!
//! Binds a TCP listener (`--addr 127.0.0.1:0` picks an ephemeral port,
//! printed on startup so scripts can scrape it), serves the line protocol of
//! `ecs_service::protocol`, and runs until a client sends `shutdown`. The
//! process exits 0 only after every session, writer, and pool thread has
//! been joined — the clean-shutdown contract the CI smoke step checks.

use ecs_bench::cli::Args;
use ecs_service::{Daemon, DaemonConfig, QuotaConfig};

fn main() {
    let args = Args::from_env();
    args.warn_unknown(&["addr", "jobs", "max-inflight", "quota"]);
    let quotas = match args.get("quota").map(QuotaConfig::parse) {
        None => QuotaConfig::default(),
        Some(Ok(quotas)) => quotas,
        Some(Err(message)) => {
            eprintln!("serve: bad --quota: {message}");
            std::process::exit(2);
        }
    };
    let pool = args.throughput_pool();
    let config = DaemonConfig {
        max_inflight: args.get_usize("max-inflight", 2 * pool.workers()),
        pool,
        quotas,
        ..DaemonConfig::default()
    };
    let addr = args.get_or("addr", "127.0.0.1:7878");
    let daemon = match Daemon::bind(&addr, config) {
        Ok(daemon) => daemon,
        Err(error) => {
            eprintln!("serve: cannot bind {addr}: {error}");
            std::process::exit(1);
        }
    };
    let local = daemon
        .local_addr()
        .expect("a TCP daemon always has an address");
    println!("ecs service listening on {local}");
    println!(
        "pool={} max-inflight={}",
        daemon.scheduler().pool().label(),
        args.get_usize("max-inflight", 2 * daemon.scheduler().pool().workers()),
    );
    daemon.join();
    println!("ecs service stopped");
}
