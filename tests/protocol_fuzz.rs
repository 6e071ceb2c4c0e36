//! Property: the protocol parsers never panic, whatever a peer sends, and a
//! live session survives garbage.
//!
//! `Request::parse` runs on every line a client sends the daemon, and
//! `Response::parse` on every line a daemon sends a client, so both must
//! answer any input — random bytes, or known keys with garbage values — with
//! `Ok` or `Err`, never a panic. Over a real TCP session, every garbage line
//! must be answered with exactly one typed `error` line, and the session must
//! still serve a valid job afterwards.

use ecs_model::ThroughputPool;
use ecs_service::protocol::{render_result, run_job};
use ecs_service::{
    AlgoSpec, BackendSpec, Daemon, DaemonConfig, DistSpec, JobSpec, QuotaConfig, Request, Response,
};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// How long one whole live-session exchange may take before it counts as a
/// hang.
const EXCHANGE_TIMEOUT: Duration = Duration::from_secs(20);

/// Whether the daemon answers `bytes`, sent as one line, with an error: it
/// is not whitespace only (those are skipped) and is not a request.
fn is_garbage(bytes: &[u8]) -> bool {
    let mut line = bytes.to_vec();
    line.push(b'\n');
    std::str::from_utf8(&line).map_or(true, |line| {
        !line.trim().is_empty() && Request::parse(line).is_err()
    })
}

/// Sends `garbage` lines, then one valid naive submit, over a raw TCP
/// connection to a fresh daemon, and checks the replies: one `error` per
/// garbage line, in order, then the job's result, byte-identical to the
/// serial reference.
fn garbage_then_a_job(garbage: &[Vec<u8>]) -> Result<(), TestCaseError> {
    let config = DaemonConfig {
        pool: ThroughputPool::from_jobs(1),
        max_inflight: 2,
        outbox_limit: 16,
        quotas: QuotaConfig::default(),
    };
    let daemon = Daemon::bind("127.0.0.1:0", config).expect("bind an ephemeral port");
    let addr = daemon.local_addr().expect("a TCP daemon");
    let started = Instant::now();
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(EXCHANGE_TIMEOUT))
        .expect("set a read timeout");
    let mut writer = stream.try_clone().expect("clone the stream");
    let mut reader = BufReader::new(stream);
    let mut recv = || {
        let mut line = String::new();
        match reader.read_line(&mut line) {
            Ok(0) => panic!("the daemon closed the session"),
            Ok(_) => line.trim_end_matches('\n').to_string(),
            Err(e) => panic!("no reply within {EXCHANGE_TIMEOUT:?}: {e}"),
        }
    };

    let spec = JobSpec {
        id: "after-garbage".to_string(),
        tenant: "fuzz".to_string(),
        weight: 1,
        dist: DistSpec::Zeta(2.5),
        n: 48,
        seed: garbage.len() as u64,
        algo: AlgoSpec::Naive,
        backend: BackendSpec::Auto,
    };
    let mut bytes = Vec::new();
    for line in garbage {
        bytes.extend_from_slice(line);
        bytes.push(b'\n');
    }
    bytes.extend_from_slice(Request::Submit(spec.clone()).render().as_bytes());
    bytes.push(b'\n');
    writer.write_all(&bytes).expect("send the lines");

    for (i, line) in garbage.iter().enumerate() {
        let reply = recv();
        prop_assert!(
            matches!(Response::parse(&reply), Ok(Response::Error { .. })),
            "garbage line {i} ({line:?}) got {reply:?}, not one typed error"
        );
    }
    let expected = render_result(&spec, &run_job(&spec, Duration::ZERO, None));
    loop {
        let reply = recv();
        prop_assert!(
            !matches!(Response::parse(&reply), Ok(Response::Error { .. })),
            "an extra error after the garbage: {reply:?}"
        );
        if reply.starts_with("result ") {
            prop_assert_eq!(reply, expected);
            break;
        }
    }
    prop_assert!(started.elapsed() < EXCHANGE_TIMEOUT, "the exchange hung");
    drop(writer);
    daemon.stop();
    daemon.join();
    Ok(())
}

/// Keys a `status` line is built from: every key the parser reads, the
/// retired `tuning=`, and two degenerate ones.
const KEYS: [&str; 10] = [
    "queued=",
    "inflight=",
    "completed=",
    "draining=",
    "tenants=",
    "latency_us=",
    "rate_mjps=",
    "tuning=",
    "",
    "=",
];

/// Values that are well formed, truncated, out of range or garbage.
const VALUES: [&str; 14] = [
    "0",
    "7",
    "-1",
    "true",
    "x",
    "",
    "a:1:2",
    "a:1:2:3:4:5",
    "a:0:1:0:-:-,b:junk",
    "a:1.2.3;4.5",
    ":::",
    ",,",
    "18446744073709551616",
    "a:2:64:-",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn random_byte_lines_never_panic_either_parser(
        bytes in proptest::collection::vec(0u8..=255, 0..256),
    ) {
        let line = String::from_utf8_lossy(&bytes);
        let _ = Request::parse(&line);
        let _ = Response::parse(&line);
    }

    #[test]
    fn status_token_soups_never_panic_and_reparse(
        tokens in proptest::collection::vec((0usize..KEYS.len(), 0usize..VALUES.len()), 0..12),
    ) {
        let mut line = String::from("status");
        for (key, value) in tokens {
            line.push(' ');
            line.push_str(KEYS[key]);
            line.push_str(VALUES[value]);
        }
        let _ = Request::parse(&line);
        if let Ok(status) = Response::parse(&line) {
            prop_assert_eq!(Response::parse(&status.render()), Ok(status));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn a_live_session_answers_each_garbage_line_with_one_error_then_serves_a_job(
        lines in proptest::collection::vec(proptest::collection::vec(0u8..=255, 0..=512), 1..=16),
    ) {
        // No line may contain the separator, and every line must be garbage
        // to the daemon; a random line is almost always both.
        let garbage: Vec<Vec<u8>> = lines
            .into_iter()
            .map(|mut line| {
                line.retain(|&b| b != b'\n');
                line
            })
            .filter(|line| is_garbage(line))
            .collect();
        prop_assume!(!garbage.is_empty());
        garbage_then_a_job(&garbage)?;
    }
}

#[test]
fn non_utf8_and_near_miss_lines_each_get_one_error() {
    let garbage = [
        vec![0xff, 0xfe, b's'],
        b"submit id=x".to_vec(),
        b"cancel".to_vec(),
        b"ack seq=x".to_vec(),
        vec![0xc3],
        // Distribution parameters the instance sampler would panic on ...
        b"submit id=g dist=geometric:0 n=20 seed=1 algo=naive".to_vec(),
        b"submit id=z dist=zeta:1 n=20 seed=1 algo=naive".to_vec(),
        b"submit id=p dist=poisson:NaN n=20 seed=1 algo=naive".to_vec(),
        // ... or never finish on.
        b"submit id=zi dist=zeta:inf n=20 seed=1 algo=naive".to_vec(),
        b"submit id=zl dist=zeta:1.001 n=20 seed=1 algo=naive".to_vec(),
        b"submit id=zh dist=zeta:1e300 n=20 seed=1 algo=naive".to_vec(),
        b"submit id=pb dist=poisson:1e9 n=20 seed=1 algo=naive".to_vec(),
        // An empty instance, which would be answered with a one-element sort.
        b"submit id=e dist=uniform:4 n=0 seed=1 algo=naive".to_vec(),
        // A backend that no longer exists.
        b"submit id=b dist=uniform:4 n=5 seed=1 algo=naive backend=batched:16".to_vec(),
    ];
    assert!(garbage.iter().all(|line| is_garbage(line)));
    garbage_then_a_job(&garbage).expect("every line answered, then the job served");
}

/// A status line from a daemon that still reported per-tenant tuning parses,
/// and the retired `tuning=` token is ignored.
#[test]
fn an_older_status_line_with_tuning_still_parses() {
    let line = "status queued=0 inflight=1 completed=5 draining=false \
                tenants=a:0:5:0:-:- rate_mjps=1500 tuning=a:2:64:-";
    let parsed = Response::parse(line).expect("the older status line parses");
    assert_eq!(
        parsed.render(),
        "status queued=0 inflight=1 completed=5 draining=false \
         tenants=a:0:5:0:-:- rate_mjps=1500"
    );
}
