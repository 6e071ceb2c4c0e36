//! The daemon: transports, per-session threads, and lifecycle.
//!
//! A daemon owns one [`crate::Scheduler`] and any number of sessions. Each
//! session is a full-duplex line stream served by **two** threads:
//!
//! * the *reader* parses request lines and forwards them to the scheduler,
//!   gating each `submit` on [`crate::Outbox::wait_below`] — a client that
//!   stops reading results stops being read (backpressure);
//! * the *writer* drains the session outbox to the stream. Completions are
//!   pushed by pool workers and never block.
//!
//! Two transports share that code path: TCP (`Daemon::bind`, one accept
//! thread) and an in-process loopback pipe (`DaemonHandle::connect`), which
//! tests and single-process benchmarks use to exercise the real protocol
//! without a socket. Shutdown is graceful by protocol (`shutdown` drains
//! the scheduler, then closes every session) or forceful from the owner
//! ([`DaemonHandle::stop`], which cancels in-flight jobs first); both end
//! with every thread joined — [`DaemonHandle::join`] returning is the
//! no-leaked-threads guarantee CI relies on.
//!
//! A connection's **first** request decides the session's identity. `hello`
//! binds a fresh *resumable* session: the daemon answers with a stable
//! token, retains every delivered line (`seq=`-prefixed) until the client
//! `ack`s it, and — crucially — keeps the session alive in a registry when
//! the connection drops, so a later connection can open with
//! `resume <token> <last_seq>` and replay exactly the unacked suffix.
//! Any other first request serves a classic anonymous session, wire-
//! compatible with pre-resume daemons.
//!
//! Request lines are capped at 64 KiB. A longer line is answered with
//! `error line too long …` and ends the session, resumable or not, and its
//! connection is closed. TCP streams run with `TCP_NODELAY` and every line
//! goes out in one write (see `protocol::write_line`).

use crate::client::Client;
use crate::pipe::pipe;
use crate::protocol::{write_line, Request, Response};
use crate::scheduler::{QuotaConfig, Scheduler, SessionHandle};
use ecs_model::backend::available_parallelism;
use ecs_model::batching::DEFAULT_LINGER;
use ecs_model::ThroughputPool;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// The longest request line the daemon reads, in bytes, excluding the `\n`.
/// Real requests are under 200 bytes; the cap stops one newline-free stream
/// from growing a session's line buffer without bound.
const MAX_REQUEST_LINE: usize = 64 * 1024;

/// Daemon tuning knobs.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// The pool every session's jobs run on.
    pub pool: ThroughputPool,
    /// Fairness slots: jobs released to the pool at a time.
    pub max_inflight: usize,
    /// Wave linger for `coalesced:W` jobs (the `--linger-us` knob).
    pub linger: Duration,
    /// Result lines a session may have queued before its reader stops
    /// admitting new submits.
    pub outbox_limit: usize,
    /// Per-tenant admission limits (the `--quota` knob); the default is
    /// fully unlimited.
    pub quotas: QuotaConfig,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        let workers = available_parallelism();
        Self {
            pool: ThroughputPool::from_jobs(workers),
            max_inflight: 2 * workers,
            linger: DEFAULT_LINGER,
            outbox_limit: 64,
            quotas: QuotaConfig::default(),
        }
    }
}

/// State shared by every session thread and the handle.
struct DaemonShared {
    scheduler: Arc<Scheduler>,
    outbox_limit: usize,
    next_session: AtomicU64,
    stopping: AtomicBool,
    /// Resumable (`hello`) sessions by token. Entries outlive their
    /// connection — that is the point — and are removed at `bye`.
    sessions: Mutex<HashMap<String, Arc<SessionHandle>>>,
    listen_addr: Option<SocketAddr>,
    /// Force-closers for every live connection's read side, by connection
    /// number, so `stop()` can unblock readers parked on an idle stream. A
    /// connection's entry (which holds a handle to its stream) is dropped
    /// when its session ends, so the stream really closes then.
    closers: Mutex<HashMap<u64, Box<dyn Fn() + Send>>>,
    next_connection: AtomicU64,
    threads: Mutex<Vec<JoinHandle<()>>>,
}

impl DaemonShared {
    fn new(config: DaemonConfig, listen_addr: Option<SocketAddr>) -> Arc<Self> {
        Arc::new(Self {
            scheduler: Arc::new(
                Scheduler::new(config.pool, config.max_inflight, config.linger)
                    .with_quotas(config.quotas),
            ),
            outbox_limit: config.outbox_limit,
            next_session: AtomicU64::new(0),
            stopping: AtomicBool::new(false),
            sessions: Mutex::new(HashMap::new()),
            listen_addr,
            closers: Mutex::new(HashMap::new()),
            next_connection: AtomicU64::new(0),
            threads: Mutex::new(Vec::new()),
        })
    }

    /// Ends the accept loop and every session: drains are NOT awaited here —
    /// callers decide whether to drain first (protocol `shutdown`) or cancel
    /// first ([`DaemonHandle::stop`]).
    fn close_all(&self) {
        if self.stopping.swap(true, Ordering::SeqCst) {
            return;
        }
        for (_, closer) in self
            .closers
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .drain()
        {
            closer();
        }
        // Unblock the accept loop with a throwaway connection to ourselves.
        if let Some(addr) = self.listen_addr {
            let _ = TcpStream::connect(addr);
        }
    }

    fn adopt_thread(&self, handle: JoinHandle<()>) {
        self.threads
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push(handle);
    }

    /// Registers a new connection's closer and returns the connection's
    /// number for [`DaemonShared::forget_closer`].
    fn register_closer(&self, closer: Box<dyn Fn() + Send>) -> u64 {
        let connection = self.next_connection.fetch_add(1, Ordering::SeqCst);
        let mut closers = self
            .closers
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if self.stopping.load(Ordering::SeqCst) {
            // Lost the race with close_all: close this connection directly.
            closer();
        } else {
            closers.insert(connection, closer);
        }
        connection
    }

    /// Drops a finished connection's closer, releasing its stream handle.
    fn forget_closer(&self, connection: u64) {
        self.closers
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .remove(&connection);
    }
}

/// The equivalence-sorting daemon.
#[derive(Debug)]
pub struct Daemon;

impl Daemon {
    /// Starts a TCP daemon listening on `addr` (use port `0` for an
    /// ephemeral port, reported by [`DaemonHandle::local_addr`]).
    pub fn bind(addr: &str, config: DaemonConfig) -> std::io::Result<DaemonHandle> {
        let listener = TcpListener::bind(addr)?;
        let shared = DaemonShared::new(config, Some(listener.local_addr()?));
        let accept_shared = Arc::clone(&shared);
        let accept = std::thread::spawn(move || {
            for stream in listener.incoming() {
                if accept_shared.stopping.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = stream else { continue };
                // Responses are single small writes; without this, Nagle's
                // algorithm holds each one until the client's delayed ACK.
                let _ = stream.set_nodelay(true);
                let (Ok(closer_stream), Ok(read_stream)) = (stream.try_clone(), stream.try_clone())
                else {
                    continue;
                };
                // Close only the read side: the reader unblocks with EOF
                // while the session's writer still flushes queued results.
                let connection = accept_shared.register_closer(Box::new(move || {
                    let _ = closer_stream.shutdown(std::net::Shutdown::Read);
                }));
                let session_shared = Arc::clone(&accept_shared);
                let handle = std::thread::spawn(move || {
                    serve_session(&session_shared, BufReader::new(read_stream), stream);
                    session_shared.forget_closer(connection);
                });
                accept_shared.adopt_thread(handle);
            }
        });
        Ok(DaemonHandle {
            shared,
            accept: Some(accept),
        })
    }

    /// Starts a daemon with no listener; sessions are opened in-process via
    /// [`DaemonHandle::connect`].
    pub fn loopback(config: DaemonConfig) -> DaemonHandle {
        DaemonHandle {
            shared: DaemonShared::new(config, None),
            accept: None,
        }
    }
}

/// The owner's view of a running daemon.
pub struct DaemonHandle {
    shared: Arc<DaemonShared>,
    accept: Option<JoinHandle<()>>,
}

impl DaemonHandle {
    /// The TCP address the daemon listens on (`None` for loopback daemons).
    pub fn local_addr(&self) -> Option<SocketAddr> {
        self.shared.listen_addr
    }

    /// The daemon's scheduler (status inspection in tests and binaries).
    pub fn scheduler(&self) -> &Arc<Scheduler> {
        &self.shared.scheduler
    }

    /// Opens an in-process session over a pair of byte pipes, returning the
    /// connected [`Client`]. Works on TCP daemons too (the session simply
    /// bypasses the socket).
    pub fn connect(&self) -> Client {
        let (client_tx, server_rx) = pipe();
        let (server_tx, client_rx) = pipe();
        let shared = Arc::clone(&self.shared);
        let close_rx = server_rx.closer();
        let connection = self
            .shared
            .register_closer(Box::new(move || close_rx.close()));
        let handle = std::thread::spawn(move || {
            serve_session(&shared, BufReader::new(server_rx), server_tx);
            shared.forget_closer(connection);
        });
        self.shared.adopt_thread(handle);
        Client::new(BufReader::new(client_rx), client_tx)
    }

    /// Force-stops the daemon: drops queued jobs, cancels in-flight jobs,
    /// waits for them to unwind, then closes every session and the
    /// listener. Use the protocol `shutdown` for a graceful drain instead.
    pub fn stop(&self) {
        self.shared.scheduler.abort_all();
        self.shared.scheduler.wait_idle();
        self.shared.close_all();
    }

    /// Waits for the daemon to finish (a client must have sent `shutdown`,
    /// or the owner called [`DaemonHandle::stop`]). Returning means every
    /// accept, reader, and writer thread has exited — nothing is leaked.
    pub fn join(mut self) {
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        // Session threads may still be spawning sessions' writer threads;
        // drain the registry until it stays empty.
        loop {
            let batch: Vec<JoinHandle<()>> = {
                let mut threads = self
                    .shared
                    .threads
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                threads.drain(..).collect()
            };
            if batch.is_empty() {
                return;
            }
            for handle in batch {
                let _ = handle.join();
            }
        }
    }
}

/// One request line read by [`read_request_line`].
enum LineRead<'a> {
    Line(&'a str),
    /// The line ran past [`MAX_REQUEST_LINE`] bytes without a newline.
    TooLong,
    /// End of stream, a read error, or a line that is not UTF-8.
    Closed,
}

/// Reads the next request line into `buf`, reading at most one byte past
/// [`MAX_REQUEST_LINE`], so a line with no end costs a bounded buffer.
fn read_request_line<'a, R: BufRead>(reader: &mut R, buf: &'a mut Vec<u8>) -> LineRead<'a> {
    buf.clear();
    let limit = MAX_REQUEST_LINE as u64 + 1;
    match reader.by_ref().take(limit).read_until(b'\n', buf) {
        Ok(0) | Err(_) => LineRead::Closed,
        Ok(_) if buf.len() > MAX_REQUEST_LINE && buf.last() != Some(&b'\n') => LineRead::TooLong,
        Ok(_) => std::str::from_utf8(buf).map_or(LineRead::Closed, LineRead::Line),
    }
}

fn line_too_long() -> Response {
    Response::Error {
        message: format!("line too long (limit {MAX_REQUEST_LINE} bytes)"),
    }
}

/// Serves one session: binds the session's identity from the connection's
/// first request (`hello` → fresh resumable session, `resume` → re-attach a
/// parked one, anything else → anonymous), spawns the writer, runs the
/// reader loop inline, and tears down. A resumable session whose connection
/// merely dropped is *parked*, not destroyed: its retained outbox keeps
/// collecting results for a future `resume`.
fn serve_session<R, W>(shared: &Arc<DaemonShared>, mut reader: R, mut writer: W)
where
    R: BufRead + Send,
    W: Write + Send + 'static,
{
    // Identity prologue: read the first non-empty line before spawning
    // anything, so a failed `resume` can be answered on the raw connection
    // and hung up without ever touching a session.
    let mut buf = Vec::new();
    let first = loop {
        match read_request_line(&mut reader, &mut buf) {
            LineRead::Closed => return,
            LineRead::TooLong => {
                let _ = write_line(&mut writer, line_too_long().render());
                return;
            }
            LineRead::Line(line) if line.trim().is_empty() => {}
            LineRead::Line(line) => break Request::parse(line),
        }
    };
    let mut deferred = None;
    let (session, epoch) = match first {
        Ok(Request::Hello) => {
            let minted =
                SessionHandle::resumable(shared.next_session.fetch_add(1, Ordering::SeqCst));
            let session = match minted {
                Ok(session) => Arc::new(session),
                Err(e) => {
                    let message = format!("cannot mint a session token: {e}");
                    let _ = write_line(&mut writer, Response::Error { message }.render());
                    return;
                }
            };
            let token = session
                .token()
                .expect("resumable sessions carry a token")
                .to_string();
            let epoch = session.outbox().attach_writer();
            // Pushed before anything else can land, so the `hello` answer
            // is always seq=1.
            session.respond(&Response::Hello {
                token: token.clone(),
            });
            shared
                .sessions
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .insert(token, Arc::clone(&session));
            (session, epoch)
        }
        Ok(Request::Resume { token, last_seq }) => {
            let existing = shared
                .sessions
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .get(&token)
                .cloned();
            let resumed = existing
                .ok_or_else(|| format!("unknown session token {token}"))
                .and_then(|session| {
                    session
                        .outbox()
                        .resume_from(last_seq)
                        .map(|epoch| (session, epoch))
                });
            match resumed {
                Ok(bound) => bound,
                Err(message) => {
                    let _ = write_line(&mut writer, Response::Error { message }.render());
                    return;
                }
            }
        }
        other => {
            let session = Arc::new(SessionHandle::new(
                shared.next_session.fetch_add(1, Ordering::SeqCst),
            ));
            let epoch = session.outbox().attach_writer();
            deferred = Some(other);
            (session, epoch)
        }
    };

    let writer_session = Arc::clone(&session);
    let writer_thread = std::thread::spawn(move || {
        while let Some(line) = writer_session.outbox().pop_at(epoch) {
            if write_line(&mut writer, line).is_err() {
                break;
            }
        }
    });

    let scheduler = Arc::clone(&shared.scheduler);
    // Set when the client broke the protocol badly enough to lose its
    // session: it is closed even if it could otherwise be resumed.
    let mut hung_up = false;
    loop {
        let request = match deferred.take() {
            Some(request) => request,
            None => match read_request_line(&mut reader, &mut buf) {
                LineRead::Closed => break,
                LineRead::TooLong => {
                    session.respond(&line_too_long());
                    hung_up = true;
                    break;
                }
                LineRead::Line(line) if line.trim().is_empty() => continue,
                LineRead::Line(line) => Request::parse(line),
            },
        };
        match request {
            Ok(Request::Submit(spec)) => {
                // Backpressure: don't admit more work while this session's
                // results sit unread (or, for resumable sessions, unacked).
                session.outbox().wait_below(shared.outbox_limit);
                scheduler.submit(spec, &session);
            }
            Ok(Request::Cancel { id }) => scheduler.cancel(&session, &id),
            Ok(Request::Status) => session.respond(&scheduler.status()),
            Ok(Request::Drain) => session.request_drain(),
            Ok(Request::Ack { seq }) => {
                if session.token().is_some() {
                    session.outbox().ack(seq);
                } else {
                    session.respond(&Response::Error {
                        message: "ack requires a hello session".to_string(),
                    });
                }
            }
            Ok(Request::Hello) | Ok(Request::Resume { .. }) => {
                session.respond(&Response::Error {
                    message: "session identity is fixed by the first request".to_string(),
                });
            }
            Ok(Request::Shutdown) => {
                // Graceful daemon stop: refuse new work, finish everything,
                // then close every session (the epilogue sends this
                // session's `bye`).
                scheduler.start_draining();
                scheduler.wait_idle();
                shared.close_all();
                break;
            }
            Err(message) => session.respond(&Response::Error { message }),
        }
        if shared.stopping.load(Ordering::SeqCst) {
            break;
        }
    }

    if session.token().is_some() && !hung_up && !shared.stopping.load(Ordering::SeqCst) {
        // The connection ended but the daemon lives on: park the session —
        // results keep landing in its retained outbox — and release this
        // writer so a future `resume` can replace it.
        session.outbox().detach(epoch);
        let _ = writer_thread.join();
        return;
    }
    session.respond(&Response::Bye);
    session.outbox().close();
    let _ = writer_thread.join();
    if let Some(token) = session.token() {
        shared
            .sessions
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .remove(token);
    }
}
