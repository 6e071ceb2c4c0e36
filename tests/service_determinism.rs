//! Service-level determinism: the daemon is bit-identical to a serial loop.
//!
//! The style of `throughput_determinism.rs`, one layer up: instead of
//! handing closures to a [`ThroughputPool`], these tests speak the daemon's
//! wire protocol over the in-process loopback transport and compare every
//! streamed `result` line against the serial reference — the same
//! [`ecs_service::protocol::run_job`] / `render_result` pair, no daemon.
//! Whatever the interleaving of 64 concurrent sessions' submits and cancels,
//! a job's result line must depend only on its spec.

use ecs_model::ThroughputPool;
use ecs_service::protocol::{render_result, run_job, split_seq};
use ecs_service::{
    AlgoSpec, BackendSpec, Client, Daemon, DaemonConfig, DistSpec, JobSpec, QuotaConfig, Request,
    Response,
};
use proptest::prelude::*;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

const SESSIONS: usize = 64;
const JOBS_PER_SESSION: usize = 2;

/// The deterministic grid: spec `(session, j)` depends only on its
/// coordinates, so the serial reference reconstructs it without any shared
/// state. Cycles all six algorithms, several distributions, and the `seq`,
/// `threaded:2` and `auto` backends.
fn grid_spec(session: usize, j: usize) -> JobSpec {
    let algo = AlgoSpec::ALL[(session + j) % AlgoSpec::ALL.len()];
    let dist = match (session + 3 * j) % 4 {
        0 => DistSpec::Uniform(4),
        1 => DistSpec::Geometric(0.3),
        2 => DistSpec::Zeta(2.5),
        _ => DistSpec::Balanced(5),
    };
    let backend = match (session + j) % 3 {
        0 => BackendSpec::Seq,
        1 => BackendSpec::Threaded(2),
        _ => BackendSpec::Auto,
    };
    JobSpec {
        id: format!("s{session:02}-j{j}"),
        tenant: format!("t{}", session % 5),
        weight: 1 + (session % 3) as u32,
        dist,
        n: 18 + (session % 7),
        seed: 0x5eed ^ (session as u64) << 8 ^ j as u64,
        algo,
        backend,
    }
}

fn daemon_config() -> DaemonConfig {
    DaemonConfig {
        pool: ThroughputPool::from_jobs(2),
        max_inflight: 4,
        outbox_limit: 16,
        quotas: QuotaConfig::default(),
    }
}

#[test]
fn sixty_four_concurrent_sessions_match_the_serial_loop_bit_for_bit() {
    let daemon = Daemon::loopback(daemon_config());
    // Every session also submits one sacrificial job and cancels it right
    // away, so real results are produced under an arbitrary interleaving of
    // other sessions' submits AND cancels.
    let collected: Vec<(String, String)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..SESSIONS)
            .map(|s| {
                let mut client = daemon.connect();
                scope.spawn(move || {
                    let mut sacrificial = grid_spec(s, JOBS_PER_SESSION);
                    sacrificial.id = format!("s{s:02}-kill");
                    sacrificial.n = 160;
                    sacrificial.algo = AlgoSpec::Naive;
                    client.submit(&sacrificial).expect("submit sacrificial");
                    for j in 0..JOBS_PER_SESSION {
                        client.submit(&grid_spec(s, j)).expect("submit job");
                    }
                    client
                        .send(&Request::Cancel {
                            id: sacrificial.id.clone(),
                        })
                        .expect("send cancel");
                    let responses = client.drain().expect("drain session");
                    let mut lines = Vec::new();
                    let mut kill_terminated = false;
                    for response in responses {
                        match response {
                            Response::Result { id, line } => {
                                if id == sacrificial.id {
                                    // Raced to completion before the cancel:
                                    // must still match the serial reference.
                                    let run = run_job(&sacrificial, Duration::ZERO, None);
                                    assert_eq!(line, render_result(&sacrificial, &run));
                                    kill_terminated = true;
                                } else {
                                    lines.push((id, line));
                                }
                            }
                            Response::Cancelled { id } => {
                                assert_eq!(id, sacrificial.id, "only the sacrificial job may die");
                                kill_terminated = true;
                            }
                            Response::Accepted { .. } | Response::Cancelling { .. } => {}
                            // The cancel raced past the job's completion:
                            // `error unknown job`, with the result line
                            // already (or about to be) delivered.
                            Response::Error { message } => {
                                assert!(message.contains("unknown"), "unexpected error: {message}");
                            }
                            other => panic!("unexpected response: {other:?}"),
                        }
                    }
                    assert!(kill_terminated, "the sacrificial job must terminate");
                    assert_eq!(lines.len(), JOBS_PER_SESSION);
                    lines
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|handle| handle.join().expect("session thread"))
            .collect()
    });

    // The serial reference, keyed by job id.
    let serial: HashMap<String, String> = (0..SESSIONS)
        .flat_map(|s| (0..JOBS_PER_SESSION).map(move |j| grid_spec(s, j)))
        .map(|spec| {
            let run = run_job(&spec, Duration::ZERO, None);
            (spec.id.clone(), render_result(&spec, &run))
        })
        .collect();
    assert_eq!(collected.len(), SESSIONS * JOBS_PER_SESSION);
    for (id, line) in &collected {
        assert_eq!(
            Some(line),
            serial.get(id),
            "job {id}: daemon result differs from the serial loop"
        );
    }
    daemon.stop();
    daemon.join();
}

#[test]
fn a_tiny_outbox_limit_backpressures_without_losing_results() {
    // outbox_limit 1: after one unread result line the session's reader
    // stops admitting submits until the client reads. Submitting the whole
    // slate before reading anything must still deliver every line, in
    // per-job order, with nothing dropped or duplicated.
    let daemon = Daemon::loopback(DaemonConfig {
        outbox_limit: 1,
        ..daemon_config()
    });
    let mut client = daemon.connect();
    let specs: Vec<JobSpec> = (0..6).map(|j| grid_spec(70 + j, 0)).collect();
    for spec in &specs {
        client.submit(spec).expect("submit");
    }
    let responses = client.drain().expect("drain");
    let results: HashMap<String, String> = responses
        .iter()
        .filter_map(|response| match response {
            Response::Result { id, line } => Some((id.clone(), line.clone())),
            _ => None,
        })
        .collect();
    assert_eq!(results.len(), specs.len());
    for spec in &specs {
        let run = run_job(spec, Duration::ZERO, None);
        assert_eq!(
            results.get(&spec.id),
            Some(&render_result(spec, &run)),
            "job {}: backpressured result differs",
            spec.id
        );
    }
    daemon.stop();
    daemon.join();
}

#[test]
fn cancelling_one_session_leaves_the_others_bit_identical() {
    // The service-level restatement of the killed-session pool test: one
    // session's long job is cancelled mid-grid; every other session's
    // results must be untouched.
    let daemon = Daemon::loopback(daemon_config());
    let outcome: Vec<Vec<(String, String)>> = std::thread::scope(|scope| {
        let victim = {
            let mut client = daemon.connect();
            scope.spawn(move || {
                let mut big = grid_spec(90, 0);
                big.id = "victim-big".to_string();
                big.n = 700;
                big.algo = AlgoSpec::Naive;
                big.backend = BackendSpec::Seq;
                client.submit(&big).expect("submit big job");
                client
                    .send(&Request::Cancel { id: big.id.clone() })
                    .expect("send cancel");
                let responses = client.drain().expect("drain victim");
                assert!(
                    responses
                        .iter()
                        .any(|r| matches!(r, Response::Cancelled { .. } | Response::Result { .. })),
                    "the big job must terminate one way or the other: {responses:?}"
                );
                Vec::new()
            })
        };
        let mut handles = vec![victim];
        handles.extend((0..4).map(|s| {
            let mut client = daemon.connect();
            scope.spawn(move || {
                let specs: Vec<JobSpec> = (0..3).map(|j| grid_spec(80 + s, j % 2)).collect();
                // Same id would collide within the session; disambiguate.
                let specs: Vec<JobSpec> = specs
                    .into_iter()
                    .enumerate()
                    .map(|(i, mut spec)| {
                        spec.id = format!("w{s}-{i}");
                        spec
                    })
                    .collect();
                for spec in &specs {
                    client.submit(spec).expect("submit worker job");
                }
                let responses = client.drain().expect("drain worker");
                let results: HashMap<String, String> = responses
                    .iter()
                    .filter_map(|response| match response {
                        Response::Result { id, line } => Some((id.clone(), line.clone())),
                        _ => None,
                    })
                    .collect();
                specs
                    .iter()
                    .map(|spec| {
                        let run = run_job(spec, Duration::ZERO, None);
                        assert_eq!(
                            results.get(&spec.id),
                            Some(&render_result(spec, &run)),
                            "job {}: result changed while a sibling session was killed",
                            spec.id
                        );
                        (spec.id.clone(), results[&spec.id].clone())
                    })
                    .collect()
            })
        }));
        handles
            .into_iter()
            .map(|handle| handle.join().expect("session thread"))
            .collect()
    });
    assert_eq!(outcome.iter().map(Vec::len).sum::<usize>(), 12);
    daemon.stop();
    daemon.join();
}

/// Lockstep driver for the resume byte-identity test: submit one job at a
/// time and read both of its lines (`accepted`, then `result`) before the
/// next submit, so the seq-prefixed stream is fully deterministic.
fn lockstep(client: &mut Client, jobs: std::ops::Range<usize>, lines: &mut Vec<String>) {
    for j in jobs {
        client.submit(&grid_spec(40, j)).expect("submit");
        for _ in 0..2 {
            let response = client.recv().expect("recv").expect("stream stays open");
            lines.push(format!("seq={} {}", client.last_seq(), response.render()));
        }
    }
}

#[test]
fn a_resumed_session_replays_exactly_the_undropped_byte_stream() {
    // Two fresh daemons, one lockstep session each. Session A receives seq
    // 1..=5, acks only through 3, then "crashes": lines 4 and 5 were on the
    // wire but never persisted, so the reconnect resumes from 3 and the
    // daemon must replay exactly the unacked suffix. Session B never drops.
    // The two observed streams after `hello` — seq prefixes included — must
    // be identical byte for byte.
    let jobs = 4;

    let daemon_a = Daemon::loopback(daemon_config());
    let mut stream_a = Vec::new();
    let token = {
        let mut client = daemon_a.connect();
        let token = client.hello().expect("hello");
        // The `hello` line carries a random token, so it is checked for its
        // place in the stream and left out of the byte comparison.
        assert_eq!(client.last_seq(), 1, "hello is answered first, as seq=1");
        lockstep(&mut client, 0..1, &mut stream_a); // seq 2, 3
        client.ack(client.last_seq()).expect("ack through 3");
        // Job 1's lines (seq 4, 5) arrive but are "lost in the crash":
        // read them off the wire and throw them away.
        client.submit(&grid_spec(40, 1)).expect("submit job 1");
        for _ in 0..2 {
            client.recv().expect("recv").expect("stream stays open");
        }
        assert_eq!(client.last_seq(), 5);
        token
        // client drops here: the daemon parks the session.
    };
    let mut resumed = daemon_a.connect();
    resumed.resume(&token, 3).expect("resume from the last ack");
    for _ in 0..2 {
        // The replayed suffix: seq 4 and 5 again, bit-identical.
        let response = resumed.recv().expect("recv").expect("replay arrives");
        stream_a.push(format!("seq={} {}", resumed.last_seq(), response.render()));
    }
    lockstep(&mut resumed, 2..jobs, &mut stream_a);

    let daemon_b = Daemon::loopback(daemon_config());
    let mut stream_b = Vec::new();
    let mut undropped = daemon_b.connect();
    let token_b = undropped.hello().expect("hello");
    assert_eq!(undropped.last_seq(), 1, "hello is answered first, as seq=1");
    assert_ne!(token, token_b, "tokens are random, not a session counter");
    lockstep(&mut undropped, 0..jobs, &mut stream_b);

    assert_eq!(
        stream_a, stream_b,
        "a dropped-and-resumed session must observe the undropped byte stream"
    );
    drop(resumed);
    drop(undropped);
    daemon_a.stop();
    daemon_a.join();
    daemon_b.stop();
    daemon_b.join();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Satellite of the resume work: drop a random subset of 64 concurrent
    /// sessions mid-stream (each after a random number of received-and-acked
    /// lines), resume every one from its last acked seq, and check the
    /// union of result lines against the serial reference. `cut == 0` keeps
    /// that session connected as an in-band control.
    #[test]
    fn randomly_dropped_sessions_resume_without_losing_or_forking_results(
        cuts in proptest::collection::vec(0u8..5, SESSIONS)
    ) {
        let daemon = Daemon::loopback(daemon_config());
        let collected: Vec<(String, String)> = std::thread::scope(|scope| {
            let daemon = &daemon;
            let handles: Vec<_> = cuts
                .iter()
                .enumerate()
                .map(|(s, &cut)| {
                    let mut client = daemon.connect();
                    scope.spawn(move || {
                        let token = client.hello().expect("hello");
                        for j in 0..JOBS_PER_SESSION {
                            client.submit(&grid_spec(s, j)).expect("submit");
                        }
                        let mut lines: Vec<(String, String)> = Vec::new();
                        if cut == 0 {
                            lines.extend(client.drain().expect("drain control").into_iter().filter_map(
                                |response| match response {
                                    Response::Result { id, line } => Some((id, line)),
                                    _ => None,
                                },
                            ));
                        } else {
                            // Read `cut - 1` lines of any kind, acking each,
                            // then drop the connection cold and resume from
                            // the newest seq this client ever saw. A `drain`
                            // barrier could overtake the dead connection's
                            // still-buffered submits, so the resumed side
                            // counts result lines instead.
                            for _ in 0..cut - 1 {
                                let response =
                                    client.recv().expect("recv").expect("stream stays open");
                                client.ack(client.last_seq()).expect("ack");
                                if let Response::Result { id, line } = response {
                                    lines.push((id, line));
                                }
                            }
                            let acked = client.last_seq();
                            drop(client);
                            let mut resumed = daemon.connect();
                            resumed.resume(&token, acked).expect("resume");
                            while lines.len() < JOBS_PER_SESSION {
                                let response =
                                    resumed.recv().expect("recv").expect("replay stays open");
                                resumed.ack(resumed.last_seq()).expect("ack replayed");
                                if let Response::Result { id, line } = response {
                                    lines.push((id, line));
                                }
                            }
                        }
                        assert_eq!(
                            lines.len(),
                            JOBS_PER_SESSION,
                            "session {s} (cut {cut}) lost or duplicated results"
                        );
                        let mut ids: Vec<&String> = lines.iter().map(|(id, _)| id).collect();
                        ids.sort();
                        ids.dedup();
                        assert_eq!(
                            ids.len(),
                            JOBS_PER_SESSION,
                            "session {s} (cut {cut}) saw a duplicated result id"
                        );
                        lines
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|handle| handle.join().expect("session thread"))
                .collect()
        });

        let serial: HashMap<String, String> = (0..SESSIONS)
            .flat_map(|s| (0..JOBS_PER_SESSION).map(move |j| grid_spec(s, j)))
            .map(|spec| {
                let run = run_job(&spec, Duration::ZERO, None);
                (spec.id.clone(), render_result(&spec, &run))
            })
            .collect();
        prop_assert_eq!(collected.len(), SESSIONS * JOBS_PER_SESSION);
        for (id, line) in &collected {
            prop_assert_eq!(
                Some(line),
                serial.get(id),
                "job {}: resumed result differs from the serial loop",
                id
            );
        }
        daemon.stop();
        daemon.join();
    }
}

#[test]
fn a_protocol_shutdown_stops_the_daemon_with_nothing_leaked() {
    let daemon = Daemon::loopback(daemon_config());
    let mut client = daemon.connect();
    client.submit(&grid_spec(99, 0)).expect("submit");
    let results = client.drain().expect("drain");
    assert!(results.iter().any(|r| matches!(r, Response::Result { .. })));
    let tail = client.shutdown().expect("shutdown");
    assert!(
        tail.contains(&Response::Bye),
        "shutdown must end with bye: {tail:?}"
    );
    // join() returning is the no-leaked-threads guarantee.
    daemon.join();
}

/// A job that takes microseconds, so a round trip measures the transport.
fn tiny_seq_spec(j: usize) -> JobSpec {
    JobSpec {
        id: format!("rt{j:03}"),
        tenant: "rt".to_string(),
        weight: 1,
        dist: DistSpec::Uniform(2),
        n: 6,
        seed: j as u64,
        algo: AlgoSpec::ALL[j % AlgoSpec::ALL.len()],
        backend: BackendSpec::Seq,
    }
}

/// Runs `ROUND_TRIPS` sequential submit→result round trips on `client`,
/// acking every line when `ack` is set, and returns how long they took.
fn sequential_round_trips(client: &mut Client, ack: bool) -> Duration {
    const ROUND_TRIPS: usize = 200;
    let started = Instant::now();
    for j in 0..ROUND_TRIPS {
        let spec = tiny_seq_spec(j);
        client.submit(&spec).expect("submit");
        loop {
            let response = client.recv().expect("recv").expect("stream stays open");
            if ack {
                client.ack(client.last_seq()).expect("ack");
            }
            match response {
                Response::Accepted { .. } => {}
                Response::Result { id, line } => {
                    assert_eq!(id, spec.id);
                    let run = run_job(&spec, Duration::ZERO, None);
                    assert_eq!(line, render_result(&spec, &run));
                    break;
                }
                other => panic!("unexpected response: {other:?}"),
            }
        }
    }
    started.elapsed()
}

#[test]
fn sequential_tcp_round_trips_are_not_held_by_nagle() {
    // A line written as payload then `\n` leaves in two segments, and
    // Nagle's algorithm holds the second until the peer's delayed ACK:
    // about 40 ms per round trip, so 200 of them take 8 s or more. With
    // TCP_NODELAY and one write per line they take milliseconds.
    let daemon = Daemon::bind("127.0.0.1:0", daemon_config()).expect("bind an ephemeral port");
    let addr = daemon.local_addr().expect("a TCP daemon").to_string();

    let mut anonymous = Client::connect(&addr).expect("connect");
    let elapsed = sequential_round_trips(&mut anonymous, false);
    assert!(
        elapsed < Duration::from_secs(2),
        "200 anonymous round trips took {elapsed:?}"
    );

    let mut resumable = Client::connect(&addr).expect("connect");
    resumable.hello().expect("hello");
    let elapsed = sequential_round_trips(&mut resumable, true);
    assert!(
        elapsed < Duration::from_secs(2),
        "200 hello+ack round trips took {elapsed:?}"
    );

    drop(anonymous);
    drop(resumable);
    daemon.stop();
    daemon.join();
}

/// Sends `prefix`, then a 1 MiB line with no newline, on a raw TCP
/// connection, and returns every line the daemon sends before it closes the
/// connection.
fn flood_lines(addr: &str, prefix: &str) -> Vec<String> {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .expect("set a read timeout");
    let mut writer = stream.try_clone().expect("clone the stream");
    let mut flood = prefix.as_bytes().to_vec();
    flood.resize(flood.len() + (1 << 20), b'a');
    let flooder = std::thread::spawn(move || {
        // The daemon hangs up mid-line, so this write may fail.
        let _ = writer.write_all(&flood);
    });
    // A reset after the last line surfaces as an error: the end, too.
    let lines = BufReader::new(stream)
        .lines()
        .map_while(Result::ok)
        .collect();
    flooder.join().expect("the flood thread does not panic");
    lines
}

#[test]
fn an_overlong_request_line_is_refused_and_a_sibling_session_is_untouched() {
    let daemon = Daemon::bind("127.0.0.1:0", daemon_config()).expect("bind an ephemeral port");
    let addr = daemon.local_addr().expect("a TCP daemon").to_string();
    let specs: Vec<JobSpec> = (0..4).map(|j| grid_spec(60, j)).collect();
    let mut sibling = Client::connect(&addr).expect("connect the sibling");
    for spec in &specs[..2] {
        sibling.submit(spec).expect("submit before the flood");
    }

    // As the first line, before any session exists.
    let lines = flood_lines(&addr, "");
    assert!(
        lines.len() == 1 && lines[0].starts_with("error line too long"),
        "an overlong first line gets a typed error, then the connection closes: {lines:?}"
    );

    // Inside a resumable session: the error arrives in the session's
    // stream, and the session ends instead of parking.
    let lines = flood_lines(&addr, "hello\n");
    assert_eq!(lines.len(), 3, "hello, error, bye: {lines:?}");
    let (_, hello) = split_seq(&lines[0]);
    let Ok(Response::Hello { token }) = Response::parse(hello) else {
        panic!("the session opens with hello: {lines:?}");
    };
    assert!(
        lines[1].starts_with("seq=2 error line too long"),
        "{lines:?}"
    );
    assert_eq!(lines[2], "seq=3 bye");
    let mut late = Client::connect(&addr).expect("connect");
    late.resume(&token, 3).expect("send resume");
    assert!(
        matches!(late.recv().expect("recv"), Some(Response::Error { message }) if message.contains("unknown session")),
        "a session ended by an overlong line cannot be resumed"
    );

    for spec in &specs[2..] {
        sibling.submit(spec).expect("submit after the flood");
    }
    let results: HashMap<String, String> = sibling
        .drain()
        .expect("drain the sibling")
        .into_iter()
        .filter_map(|response| match response {
            Response::Result { id, line } => Some((id, line)),
            _ => None,
        })
        .collect();
    assert_eq!(results.len(), specs.len());
    for spec in &specs {
        let run = run_job(spec, Duration::ZERO, None);
        assert_eq!(
            results.get(&spec.id),
            Some(&render_result(spec, &run)),
            "job {}: a flooding neighbour changed the result",
            spec.id
        );
    }
    drop(sibling);
    daemon.stop();
    daemon.join();
}

/// Sends `request_lines` on a raw TCP connection, then reads `expect`
/// lines back.
fn raw_exchange(addr: &str, request_lines: &[String], expect: usize) -> Vec<String> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .expect("set a read timeout");
    let mut wire = request_lines.join("\n");
    wire.push('\n');
    stream.write_all(wire.as_bytes()).expect("send requests");
    BufReader::new(stream)
        .lines()
        .take(expect)
        .map(|line| line.expect("read a response line"))
        .collect()
}

#[test]
fn small_jobs_answer_accepted_then_the_serial_result_on_both_session_kinds() {
    // Each small job runs on its session's reader, which writes `accepted`
    // and the result together, so the streams are fully ordered.
    let daemon = Daemon::bind("127.0.0.1:0", daemon_config()).expect("bind an ephemeral port");
    let addr = daemon.local_addr().expect("a TCP daemon").to_string();
    let specs: Vec<JobSpec> = (0..3).map(|j| grid_spec(70 + j, 0)).collect();
    let submits: Vec<String> = specs
        .iter()
        .map(|spec| Request::Submit(spec.clone()).render())
        .collect();
    let expected: Vec<String> = specs
        .iter()
        .flat_map(|spec| {
            let run = run_job(spec, Duration::ZERO, None);
            [
                Response::Accepted {
                    id: spec.id.clone(),
                }
                .render(),
                render_result(spec, &run),
            ]
        })
        .collect();

    let anonymous = raw_exchange(&addr, &submits, expected.len());
    assert_eq!(anonymous, expected, "anonymous lines carry no seq=");

    let mut hello = vec!["hello".to_string()];
    hello.extend(submits.iter().cloned());
    let resumable = raw_exchange(&addr, &hello, expected.len() + 1);
    assert!(
        resumable[0].starts_with("seq=1 hello token=sess-"),
        "{resumable:?}"
    );
    let numbered: Vec<String> = expected
        .iter()
        .enumerate()
        .map(|(at, line)| format!("seq={} {line}", at + 2))
        .collect();
    assert_eq!(resumable[1..], numbered[..], "hello lines are numbered");
    daemon.stop();
    daemon.join();
}

#[test]
fn a_job_above_the_inline_bound_runs_on_the_pool_and_cancels_in_flight() {
    // About 0.1 s of work. Run on the reader, it would finish before the
    // cancel is read.
    let daemon = Daemon::loopback(daemon_config());
    let mut client = daemon.connect();
    let big = JobSpec {
        id: "big".to_string(),
        tenant: "t".to_string(),
        weight: 1,
        dist: DistSpec::Uniform(1_000_000_000),
        n: 8000,
        seed: 3,
        algo: AlgoSpec::RepresentativeScan,
        backend: BackendSpec::Seq,
    };
    client.submit(&big).expect("submit");
    client
        .send(&Request::Cancel { id: big.id.clone() })
        .expect("send cancel");
    let id = || big.id.clone();
    assert_eq!(
        client.drain().expect("drain"),
        vec![
            Response::Accepted { id: id() },
            Response::Cancelling { id: id() },
            Response::Cancelled { id: id() },
        ]
    );
    drop(client);
    daemon.stop();
    daemon.join();
}

/// Runs `work` on its own thread and fails the test if it has not
/// returned within 30 s, so a deadlock fails instead of hanging.
fn within_30s<T: Send + 'static>(what: &str, work: impl FnOnce() -> T + Send + 'static) -> T {
    let (finished, done) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = finished.send(work());
    });
    done.recv_timeout(Duration::from_secs(30))
        .unwrap_or_else(|_| panic!("{what} did not return within 30 s"))
}

#[test]
fn a_tiny_outbox_limit_backpressures_pool_jobs_without_deadlock() {
    // Every job is above the inline bound, so its result reaches the client
    // through the writer thread, often while the reader waits at the
    // admission gate. A reader that kept its delivery turn while waiting
    // there would leave the writer parked and never be released.
    let daemon = Daemon::loopback(DaemonConfig {
        outbox_limit: 1,
        ..daemon_config()
    });
    let mut client = daemon.connect();
    let specs: Vec<JobSpec> = (0..200)
        .map(|j| JobSpec {
            id: format!("pool{j:03}"),
            n: 65 + j % 16,
            ..grid_spec(j % SESSIONS, 0)
        })
        .collect();
    let sent = specs.clone();
    let responses = within_30s("a backpressured drain", move || {
        for spec in &sent {
            client.submit(spec).expect("submit");
        }
        client.drain().expect("drain")
    });
    let results: HashMap<String, String> = responses
        .into_iter()
        .filter_map(|response| match response {
            Response::Result { id, line } => Some((id, line)),
            _ => None,
        })
        .collect();
    assert_eq!(results.len(), specs.len());
    for spec in &specs {
        let run = run_job(spec, Duration::ZERO, None);
        assert_eq!(results.get(&spec.id), Some(&render_result(spec, &run)));
    }
    daemon.stop();
    daemon.join();
}

#[test]
fn stop_during_a_stream_of_small_jobs_joins_every_thread() {
    let daemon = Daemon::loopback(daemon_config());
    let drivers: Vec<_> = [false, true, false]
        .into_iter()
        .enumerate()
        .map(|(s, hello)| {
            let mut client = daemon.connect();
            std::thread::spawn(move || {
                if hello {
                    client.hello().expect("hello");
                }
                let mut sent = 0;
                let mut results = 0;
                for _ in 0..2 {
                    client.submit(&grid_spec(s, sent)).expect("submit");
                    sent += 1;
                }
                // Keeps two jobs out until the daemon goes away.
                while let Ok(Some(response)) = client.recv() {
                    if hello && client.ack(client.last_seq()).is_err() {
                        break;
                    }
                    if let Response::Result { .. } = response {
                        results += 1;
                        let mut spec = grid_spec(s, sent % JOBS_PER_SESSION);
                        spec.id = format!("s{s}-{sent}");
                        sent += 1;
                        if client.submit(&spec).is_err() {
                            break;
                        }
                    }
                }
                results
            })
        })
        .collect();
    std::thread::sleep(Duration::from_millis(50));
    within_30s(
        "stop() and join() during a stream of small jobs",
        move || {
            daemon.stop();
            daemon.join();
        },
    );
    let results: usize = drivers
        .into_iter()
        .map(|driver| driver.join().expect("driver thread"))
        .sum();
    assert!(results > 0, "jobs completed before the stop");
}
