//! A blocking protocol client for tests, the load generator, and scripts.

use crate::protocol::{split_seq, write_line, JobSpec, Request, Response};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

/// One session's client endpoint: a line writer and a line reader over any
/// transport (TCP or the in-process loopback pipe).
///
/// For resumable sessions (opened with [`Client::hello`]), the client
/// tracks the sequence number of every `seq=`-prefixed line it receives:
/// [`Client::last_seq`] is what a reconnecting client passes to
/// [`Client::resume`], and [`Client::ack`] is how it lets the daemon trim
/// its retained buffer.
pub struct Client {
    reader: Box<dyn BufRead + Send>,
    writer: Box<dyn Write + Send>,
    token: Option<String>,
    last_seq: u64,
}

impl std::fmt::Debug for Client {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Client").finish_non_exhaustive()
    }
}

impl Client {
    /// Wraps an already-connected transport.
    pub fn new<R, W>(reader: R, writer: W) -> Self
    where
        R: BufRead + Send + 'static,
        W: Write + Send + 'static,
    {
        Self {
            reader: Box::new(reader),
            writer: Box::new(writer),
            token: None,
            last_seq: 0,
        }
    }

    /// Connects to a TCP daemon, with `TCP_NODELAY` set so each request
    /// line leaves at once.
    pub fn connect(addr: &str) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Self::new(reader, stream))
    }

    /// Sends one request line.
    pub fn send(&mut self, request: &Request) -> std::io::Result<()> {
        write_line(&mut self.writer, request.render())
    }

    /// Submits a job.
    pub fn submit(&mut self, spec: &JobSpec) -> std::io::Result<()> {
        self.send(&Request::Submit(spec.clone()))
    }

    /// Reads the next response line (`None` on EOF). Malformed daemon lines
    /// surface as [`Response::Error`]. A `seq=` prefix (resumable sessions)
    /// is stripped and recorded as [`Client::last_seq`].
    pub fn recv(&mut self) -> std::io::Result<Option<Response>> {
        let mut line = String::new();
        loop {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Ok(None);
            }
            if line.trim().is_empty() {
                continue;
            }
            let (seq, payload) = split_seq(line.trim_end());
            if let Some(seq) = seq {
                self.last_seq = seq;
            }
            return Ok(Some(
                Response::parse(payload).unwrap_or_else(|message| Response::Error { message }),
            ));
        }
    }

    /// Opens a resumable session: sends `hello` (which must be this
    /// connection's first request) and reads until the daemon answers with
    /// the session's stable token, which is recorded and returned.
    pub fn hello(&mut self) -> std::io::Result<String> {
        self.send(&Request::Hello)?;
        while let Some(response) = self.recv()? {
            if let Response::Hello { token } = response {
                self.token = Some(token.clone());
                return Ok(token);
            }
        }
        Err(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "session closed before hello was answered",
        ))
    }

    /// Acknowledges every line with sequence number `<= seq`, letting the
    /// daemon trim its retained buffer that far.
    pub fn ack(&mut self, seq: u64) -> std::io::Result<()> {
        self.send(&Request::Ack { seq })
    }

    /// Re-attaches to a dropped resumable session (must be the first
    /// request of a fresh connection); the daemon replays every retained
    /// line after `last_seq` through [`Client::recv`] as normal.
    pub fn resume(&mut self, token: &str, last_seq: u64) -> std::io::Result<()> {
        self.token = Some(token.to_string());
        self.last_seq = last_seq;
        self.send(&Request::Resume {
            token: token.to_string(),
            last_seq,
        })
    }

    /// The sequence number of the newest `seq=`-prefixed line received (0
    /// before any) — what a reconnect passes to [`Client::resume`].
    pub fn last_seq(&self) -> u64 {
        self.last_seq
    }

    /// The session's resume token, once [`Client::hello`] or
    /// [`Client::resume`] has run.
    pub fn token(&self) -> Option<&str> {
        self.token.as_deref()
    }

    /// Sends `drain` and collects every response up to (excluding) the
    /// `drained` barrier — i.e. the terminal line of every job this session
    /// submitted so far, plus any earlier acks still queued.
    pub fn drain(&mut self) -> std::io::Result<Vec<Response>> {
        self.send(&Request::Drain)?;
        let mut responses = Vec::new();
        while let Some(response) = self.recv()? {
            if response == Response::Drained {
                return Ok(responses);
            }
            responses.push(response);
        }
        Err(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "session closed before the drain barrier",
        ))
    }

    /// Sends `shutdown` and reads until the daemon closes the session.
    /// Returns the responses seen after the request (typically just `bye`).
    pub fn shutdown(&mut self) -> std::io::Result<Vec<Response>> {
        self.send(&Request::Shutdown)?;
        let mut responses = Vec::new();
        while let Some(response) = self.recv()? {
            responses.push(response);
        }
        Ok(responses)
    }
}
