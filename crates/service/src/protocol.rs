//! The line-delimited wire protocol and the one job-evaluation function.
//!
//! Every request and response is a single `\n`-terminated ASCII line of
//! space-separated tokens; valued tokens are spelled `key=value` and carry no
//! spaces. The grammar is deliberately tiny — it has to ride over a raw TCP
//! stream and an in-process loopback pipe alike, and diff byte-for-byte
//! against a serial reference run:
//!
//! ```text
//! hello
//! submit id=j0 tenant=a weight=2 dist=uniform:6 n=80 seed=7 algo=er-merge backend=seq
//! cancel id=j0
//! ack seq=5
//! resume token=sess-6f1c0e9a3b5d47e2a8c4f01d9e7b2c35 last_seq=5
//! status
//! drain
//! shutdown
//! ```
//!
//! Sessions opened with `hello` receive a stable token and a
//! sequence-numbered response stream (`seq=N ` prefixed, split off with
//! [`split_seq`]); `ack seq=N` trims the daemon's retained copy and
//! `resume <token> <last_seq>` re-attaches a dropped connection, replaying
//! exactly the unacked suffix.
//!
//! Determinism is by construction: the daemon and any serial reference both
//! evaluate a [`JobSpec`] through the same [`run_job`] and render it through
//! the same [`render_result`], so a result line depends only on the spec —
//! never on scheduling, session interleaving, or transport.

use ecs_core::{
    CrCompoundMerge, EcsAlgorithm, EcsRun, ErConstantRound, ErMergeSort, NaiveAllPairs,
    RepresentativeScan, RoundRobin,
};
use ecs_distributions::class_distribution::AnyDistribution;
use ecs_model::backend::available_parallelism;
use ecs_model::{
    CancellableOracle, CancellationToken, EquivalenceOracle, ExecutionBackend, Instance,
    InstanceOracle,
};
use ecs_rng::{SeedableEcsRng, Xoshiro256StarStar};
use std::fmt;
use std::io::{self, Write};
use std::time::Duration;

/// The hidden-partition family a job's instance is drawn from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DistSpec {
    /// `uniform:K` — class of each element uniform over `K` classes.
    Uniform(usize),
    /// `geometric:P` — geometric class-size profile with parameter `P`.
    Geometric(f64),
    /// `poisson:L` — Poisson class profile with mean `L`.
    Poisson(f64),
    /// `zeta:S` — power-law class profile with exponent `S`.
    Zeta(f64),
    /// `balanced:K` — exactly `K` classes of near-equal size.
    Balanced(usize),
}

/// Largest Poisson mean a `poisson:L` job may ask for. Sampling costs about
/// `L` random draws per element, so an unbounded mean holds a worker
/// indefinitely.
pub const MAX_POISSON_LAMBDA: f64 = 65_536.0;

/// Smallest zeta exponent a `zeta:S` job may ask for. Near `S = 1` the
/// sampler rejects almost every try (acceptance about `41·(S−1)`), so an
/// `n = 2000` build takes about 0.4 ms at `S = 1.01` and ten times longer
/// for each further decade towards 1.
pub const MIN_ZETA_S: f64 = 1.01;

/// Largest zeta exponent a `zeta:S` job may ask for. The sampler's
/// `2^(S−1)` overflows once `S − 1 ≥ 1024`, and its acceptance test never
/// passes after that.
pub const MAX_ZETA_S: f64 = 1024.0;

impl DistSpec {
    /// Parses `uniform:6`, `geometric:0.25`, `poisson:4`, `zeta:2.5`,
    /// `balanced:8`. A float parameter outside the family's range — `p` in
    /// `(0, 1)`, `L` in `(0, MAX_POISSON_LAMBDA]`, `S` in
    /// `[MIN_ZETA_S, MAX_ZETA_S]`, never NaN — is an error, because the
    /// instance sampler would panic or take unbounded time on it.
    pub fn parse(text: &str) -> Result<Self, String> {
        let (kind, param) = text
            .split_once(':')
            .ok_or_else(|| format!("distribution `{text}` is missing its `:param`"))?;
        let bad = |what: &str| format!("distribution `{text}` has an unparsable {what}");
        // Every range test is written so that NaN fails it.
        let float = |what: &str, valid: fn(f64) -> bool, range: String| {
            let value: f64 = param.parse().map_err(|_| bad(what))?;
            if valid(value) {
                Ok(value)
            } else {
                Err(format!("distribution `{text}` needs {what} in {range}"))
            }
        };
        match kind {
            "uniform" => Ok(Self::Uniform(
                param.parse().map_err(|_| bad("class count"))?,
            )),
            "geometric" => Ok(Self::Geometric(float(
                "p",
                |p| p > 0.0 && p < 1.0,
                "(0, 1)".to_string(),
            )?)),
            "poisson" => Ok(Self::Poisson(float(
                "lambda",
                |lambda| lambda > 0.0 && lambda <= MAX_POISSON_LAMBDA,
                format!("(0, {MAX_POISSON_LAMBDA}]"),
            )?)),
            "zeta" => Ok(Self::Zeta(float(
                "s",
                |s| (MIN_ZETA_S..=MAX_ZETA_S).contains(&s),
                format!("[{MIN_ZETA_S}, {MAX_ZETA_S}]"),
            )?)),
            "balanced" => Ok(Self::Balanced(
                param.parse().map_err(|_| bad("class count"))?,
            )),
            other => Err(format!("unknown distribution `{other}`")),
        }
    }

    /// Draws a job's `n`-element instance from this family, seeded by
    /// `seed` — the instance [`run_job`] sorts.
    pub fn instance(self, n: usize, seed: u64) -> Instance {
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
        match self {
            Self::Uniform(k) => {
                Instance::from_distribution(&AnyDistribution::uniform(k.max(1)), n, &mut rng)
            }
            Self::Geometric(p) => {
                Instance::from_distribution(&AnyDistribution::geometric(p), n, &mut rng)
            }
            Self::Poisson(lambda) => {
                Instance::from_distribution(&AnyDistribution::poisson(lambda), n, &mut rng)
            }
            Self::Zeta(s) => Instance::from_distribution(&AnyDistribution::zeta(s), n, &mut rng),
            Self::Balanced(k) => Instance::balanced(n, k.clamp(1, n), &mut rng),
        }
    }
}

impl fmt::Display for DistSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Uniform(k) => write!(f, "uniform:{k}"),
            Self::Geometric(p) => write!(f, "geometric:{p}"),
            Self::Poisson(lambda) => write!(f, "poisson:{lambda}"),
            Self::Zeta(s) => write!(f, "zeta:{s}"),
            Self::Balanced(k) => write!(f, "balanced:{k}"),
        }
    }
}

/// Which of the six reproduction algorithms sorts the job's instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlgoSpec {
    /// `naive` — [`NaiveAllPairs`].
    Naive,
    /// `round-robin` — [`RoundRobin`].
    RoundRobin,
    /// `representative-scan` — [`RepresentativeScan`].
    RepresentativeScan,
    /// `er-merge` — [`ErMergeSort`].
    ErMerge,
    /// `er-constant` — [`ErConstantRound::adaptive`] seeded by the job seed.
    ErConstant,
    /// `cr-compound` — [`CrCompoundMerge`] with `k` from the ground truth.
    CrCompound,
}

impl AlgoSpec {
    /// All six algorithms, in the canonical reporting order.
    pub const ALL: [Self; 6] = [
        Self::Naive,
        Self::RoundRobin,
        Self::RepresentativeScan,
        Self::ErMerge,
        Self::ErConstant,
        Self::CrCompound,
    ];

    /// Parses the protocol name (`naive`, `round-robin`, …).
    pub fn parse(text: &str) -> Result<Self, String> {
        match text {
            "naive" => Ok(Self::Naive),
            "round-robin" => Ok(Self::RoundRobin),
            "representative-scan" => Ok(Self::RepresentativeScan),
            "er-merge" => Ok(Self::ErMerge),
            "er-constant" => Ok(Self::ErConstant),
            "cr-compound" => Ok(Self::CrCompound),
            other => Err(format!("unknown algorithm `{other}`")),
        }
    }

    /// The protocol name.
    pub fn name(self) -> &'static str {
        match self {
            Self::Naive => "naive",
            Self::RoundRobin => "round-robin",
            Self::RepresentativeScan => "representative-scan",
            Self::ErMerge => "er-merge",
            Self::ErConstant => "er-constant",
            Self::CrCompound => "cr-compound",
        }
    }

    /// Sorts `oracle`'s instance with this algorithm on `backend`, as
    /// [`run_job`] does: `seed` seeds `er-constant`, and `k` is the class
    /// count `cr-compound` is given.
    pub fn sort<O: EquivalenceOracle>(
        self,
        seed: u64,
        k: usize,
        oracle: &O,
        backend: ExecutionBackend,
    ) -> EcsRun {
        match self {
            Self::Naive => NaiveAllPairs::new().sort_with_backend(oracle, backend),
            Self::RoundRobin => RoundRobin::new().sort_with_backend(oracle, backend),
            Self::RepresentativeScan => {
                RepresentativeScan::new().sort_with_backend(oracle, backend)
            }
            Self::ErMerge => ErMergeSort::new().sort_with_backend(oracle, backend),
            Self::ErConstant => ErConstantRound::adaptive(seed).sort_with_backend(oracle, backend),
            Self::CrCompound => CrCompoundMerge::new(k).sort_with_backend(oracle, backend),
        }
    }
}

impl fmt::Display for AlgoSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Where a job's comparison rounds physically run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendSpec {
    /// `seq` — everything on the job's own worker.
    Seq,
    /// `threaded:N` — rounds sharded across `N` pool workers.
    Threaded(usize),
    /// `auto` — [`ExecutionBackend::auto`]: every round inline on the job's
    /// own worker. This is the daemon's default — results are
    /// backend-independent by construction, so the choice is invisible to
    /// clients.
    Auto,
}

impl BackendSpec {
    /// Parses `seq`, `auto`, `threaded:4`.
    pub fn parse(text: &str) -> Result<Self, String> {
        if text == "seq" {
            return Ok(Self::Seq);
        }
        if text == "auto" {
            return Ok(Self::Auto);
        }
        let (kind, param) = text
            .split_once(':')
            .ok_or_else(|| format!("unknown backend `{text}`"))?;
        let count: usize = param
            .parse()
            .map_err(|_| format!("backend `{text}` has an unparsable count"))?;
        match kind {
            "threaded" => Ok(Self::Threaded(count)),
            other => Err(format!("unknown backend `{other}`")),
        }
    }

    /// The backend a job's rounds run on. A client's `threaded:N` is
    /// clamped to `1..=available_parallelism()`: every distinct worker count
    /// builds its own process-wide pool that is never freed, so an
    /// unclamped `N` from the wire would leak `N` OS threads per value.
    /// Results do not depend on the backend, so clamping changes no result.
    fn lower(self) -> ExecutionBackend {
        match self {
            Self::Seq => ExecutionBackend::Sequential,
            Self::Threaded(n) => ExecutionBackend::from_threads(n.min(available_parallelism())),
            Self::Auto => ExecutionBackend::auto(),
        }
    }
}

impl fmt::Display for BackendSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Seq => write!(f, "seq"),
            Self::Threaded(n) => write!(f, "threaded:{n}"),
            Self::Auto => write!(f, "auto"),
        }
    }
}

/// One equivalence-sort job: everything needed to reconstruct its instance
/// and evaluation bit-for-bit, with the session-scheduling fields
/// (`tenant`, `weight`) that never influence the result.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Client-chosen identifier, unique within the submitting session.
    pub id: String,
    /// Fairness bucket this job bills to (`default` when omitted).
    pub tenant: String,
    /// Stride-scheduling weight of the tenant (`1` when omitted; floor 1).
    pub weight: u32,
    /// The instance distribution.
    pub dist: DistSpec,
    /// Number of elements; [`Request::parse`] rejects `n=0`.
    pub n: usize,
    /// Seed deriving the instance (and any algorithm randomness).
    pub seed: u64,
    /// The sorting algorithm.
    pub algo: AlgoSpec,
    /// The execution backend.
    pub backend: BackendSpec,
}

impl JobSpec {
    /// Renders the spec back into `submit` key=value tokens (without the
    /// leading verb).
    fn render_fields(&self) -> String {
        format!(
            "id={} tenant={} weight={} dist={} n={} seed={} algo={} backend={}",
            self.id,
            self.tenant,
            self.weight,
            self.dist,
            self.n,
            self.seed,
            self.algo,
            self.backend
        )
    }
}

/// A client-to-daemon request line.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Open a resumable session: the daemon answers `hello token=<t>` and
    /// sequence-numbers every response line from then on. Must be the first
    /// request of its connection.
    Hello,
    /// Re-attach a dropped resumable session, replaying every retained
    /// response after `last_seq`. Must be the first request of its
    /// connection.
    Resume {
        /// The token the `hello` response carried.
        token: String,
        /// The highest `seq=` this client has safely received (doubles as
        /// an ack: everything at or below it is trimmed).
        last_seq: u64,
    },
    /// Acknowledge receipt of every response line up to and including
    /// `seq`, letting the daemon trim its retained copy (resumable sessions
    /// only).
    Ack {
        /// The highest received sequence number.
        seq: u64,
    },
    /// Enqueue a job.
    Submit(JobSpec),
    /// Cancel a queued or in-flight job of this session.
    Cancel {
        /// The job to cancel.
        id: String,
    },
    /// Ask for daemon-wide queue counters.
    Status,
    /// Barrier: respond `drained` once every job this session submitted has
    /// completed (all its result lines are already queued ahead).
    Drain,
    /// Stop the daemon gracefully: refuse new submits, finish everything
    /// outstanding, then close every session and the listener.
    Shutdown,
}

impl Request {
    /// Parses one request line.
    pub fn parse(line: &str) -> Result<Self, String> {
        let line = line.trim();
        let mut tokens = line.split_ascii_whitespace();
        let verb = tokens.next().ok_or_else(|| "empty request".to_string())?;
        let fields = || -> Result<Vec<(&str, &str)>, String> {
            line.split_ascii_whitespace()
                .skip(1)
                .map(|token| {
                    token
                        .split_once('=')
                        .ok_or_else(|| format!("token `{token}` is not key=value"))
                })
                .collect()
        };
        let lookup = |fields: &[(&str, &str)], key: &str| -> Option<String> {
            fields
                .iter()
                .find(|(k, _)| *k == key)
                .map(|(_, v)| v.to_string())
        };
        match verb {
            "submit" => {
                let fields = fields()?;
                let required = |key: &str| {
                    lookup(&fields, key).ok_or_else(|| format!("submit is missing `{key}=`"))
                };
                let spec = JobSpec {
                    id: required("id")?,
                    tenant: lookup(&fields, "tenant").unwrap_or_else(|| "default".to_string()),
                    weight: lookup(&fields, "weight")
                        .map(|w| w.parse().map_err(|_| format!("unparsable weight `{w}`")))
                        .transpose()?
                        .unwrap_or(1)
                        .max(1),
                    dist: DistSpec::parse(&required("dist")?)?,
                    // `run_job` would sort one element for `n=0` and report
                    // a result whose `n` contradicts its labels.
                    n: match required("n")?.parse() {
                        Ok(0) => return Err("n needs at least one element".to_string()),
                        Ok(n) => n,
                        Err(_) => return Err("unparsable n".to_string()),
                    },
                    seed: required("seed")?
                        .parse()
                        .map_err(|_| "unparsable seed".to_string())?,
                    algo: AlgoSpec::parse(&required("algo")?)?,
                    // `auto` is the daemon default; a client that wants
                    // another backend says so explicitly.
                    backend: match lookup(&fields, "backend") {
                        Some(text) => BackendSpec::parse(&text)?,
                        None => BackendSpec::Auto,
                    },
                };
                Ok(Self::Submit(spec))
            }
            "cancel" => {
                let fields = fields()?;
                let id =
                    lookup(&fields, "id").ok_or_else(|| "cancel is missing `id=`".to_string())?;
                Ok(Self::Cancel { id })
            }
            "hello" => Ok(Self::Hello),
            "resume" => {
                let fields = fields()?;
                let token = lookup(&fields, "token")
                    .ok_or_else(|| "resume is missing `token=`".to_string())?;
                let last_seq = lookup(&fields, "last_seq")
                    .ok_or_else(|| "resume is missing `last_seq=`".to_string())?
                    .parse()
                    .map_err(|_| "unparsable last_seq".to_string())?;
                Ok(Self::Resume { token, last_seq })
            }
            "ack" => {
                let fields = fields()?;
                let seq = lookup(&fields, "seq")
                    .ok_or_else(|| "ack is missing `seq=`".to_string())?
                    .parse()
                    .map_err(|_| "unparsable seq".to_string())?;
                Ok(Self::Ack { seq })
            }
            "status" => Ok(Self::Status),
            "drain" => Ok(Self::Drain),
            "shutdown" => Ok(Self::Shutdown),
            other => Err(format!("unknown request `{other}`")),
        }
    }

    /// Renders the request as its wire line (no trailing newline).
    pub fn render(&self) -> String {
        match self {
            Self::Hello => "hello".to_string(),
            Self::Resume { token, last_seq } => {
                format!("resume token={token} last_seq={last_seq}")
            }
            Self::Ack { seq } => format!("ack seq={seq}"),
            Self::Submit(spec) => format!("submit {}", spec.render_fields()),
            Self::Cancel { id } => format!("cancel id={id}"),
            Self::Status => "status".to_string(),
            Self::Drain => "drain".to_string(),
            Self::Shutdown => "shutdown".to_string(),
        }
    }
}

/// Per-tenant scheduler counters carried by [`Response::Status`], rendered
/// on the wire as
/// `tenants=name:queued:completed:rejected:max_queued:max_inflight,...`
/// (names have `:`, `,`, and `=` flattened to `_`, mirroring how `failed`
/// flattens whitespace; unlimited quota components render as `-`). Entries
/// from daemons predating the quota fields carry only the first three
/// components and parse with the quota fields degraded to "not reported";
/// malformed entries are skipped, never failing the whole status line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantCounters {
    /// The fairness bucket (as billed by `submit tenant=`).
    pub name: String,
    /// This tenant's jobs still waiting for a fairness slot.
    pub queued: usize,
    /// This tenant's jobs finished — result, failure, or cancellation —
    /// since the daemon started.
    pub completed: u64,
    /// Submits this tenant had rejected over quota since the daemon
    /// started (`0` on lines from daemons predating quotas).
    pub rejected: u64,
    /// The tenant's effective queue-depth quota (`None` = unlimited, or a
    /// pre-quota daemon line).
    pub max_queued: Option<usize>,
    /// The tenant's effective in-flight quota (`None` = unlimited, or a
    /// pre-quota daemon line).
    pub max_inflight: Option<usize>,
}

impl TenantCounters {
    /// Counters with no rejections and unlimited quotas — what a pre-quota
    /// daemon's `name:queued:completed` entry means.
    pub fn basic(name: &str, queued: usize, completed: u64) -> Self {
        Self {
            name: name.to_string(),
            queued,
            completed,
            rejected: 0,
            max_queued: None,
            max_inflight: None,
        }
    }

    /// Parses one packed `tenants=` entry (3-part legacy or 6-part quota
    /// form); `None` means the entry is malformed and should be skipped.
    fn parse_entry(entry: &str) -> Option<Self> {
        let quota = |text: &str| -> Option<Option<usize>> {
            if text == "-" {
                Some(None)
            } else {
                text.parse().ok().map(Some)
            }
        };
        let mut parts = entry.split(':');
        let name = parts.next()?;
        let counters = Self {
            name: name.to_string(),
            queued: parts.next()?.parse().ok()?,
            completed: parts.next()?.parse().ok()?,
            rejected: match parts.next() {
                None => 0,
                Some(text) => text.parse().ok()?,
            },
            max_queued: match parts.next() {
                None => None,
                Some(text) => quota(text)?,
            },
            max_inflight: match parts.next() {
                None => None,
                Some(text) => quota(text)?,
            },
        };
        Some(counters)
    }

    /// Renders the packed `tenants=` entry.
    fn render_entry(&self) -> String {
        let quota = |limit: Option<usize>| match limit {
            Some(limit) => limit.to_string(),
            None => "-".to_string(),
        };
        format!(
            "{}:{}:{}:{}:{}:{}",
            flatten_name(&self.name),
            self.queued,
            self.completed,
            self.rejected,
            quota(self.max_queued),
            quota(self.max_inflight)
        )
    }
}

/// Per-tenant completed-job latency histogram carried by
/// [`Response::Status`], rendered on the wire as
/// `latency_us=name:lo.hi.count;lo.hi.count,...` — the non-empty
/// power-of-two microsecond buckets of an
/// [`ecs_model::RoundSizeHistogram`]-shaped histogram, exactly as
/// [`ecs_model::RoundSizeHistogram::nonzero_buckets`] reports them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantLatency {
    /// The fairness bucket (flattened like [`TenantCounters::name`]).
    pub name: String,
    /// `(smallest µs in bucket, largest µs in bucket, jobs)` triples,
    /// smallest first.
    pub buckets: Vec<(usize, usize, u64)>,
}

/// Flattens a tenant name for the wire: `:`, `,`, and `=` become `_`
/// (mirroring how `failed` flattens whitespace), so packed per-tenant fields
/// stay splittable.
fn flatten_name(name: &str) -> String {
    name.chars()
        .map(|c| if matches!(c, ':' | ',' | '=') { '_' } else { c })
        .collect()
}

/// A daemon-to-client response line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// The session is resumable; `token` re-attaches it after a drop.
    Hello {
        /// The stable session token for `resume`.
        token: String,
    },
    /// The submit was queued.
    Accepted {
        /// The submitted job.
        id: String,
    },
    /// The submit was refused by admission control (over quota); the job
    /// was never enqueued and produces no terminal line.
    Rejected {
        /// The rejected job.
        id: String,
        /// Why admission refused it (whitespace flattened to `_`).
        reason: String,
    },
    /// A completed job's rendered outcome (see [`render_result`]).
    Result {
        /// The completed job.
        id: String,
        /// The full result line, exactly as rendered.
        line: String,
    },
    /// The job was cancelled (while queued, or in flight via its token).
    Cancelled {
        /// The cancelled job.
        id: String,
    },
    /// An in-flight cancel was requested; the `cancelled` line follows when
    /// the job actually unwinds.
    Cancelling {
        /// The job being cancelled.
        id: String,
    },
    /// The job panicked.
    Failed {
        /// The failed job.
        id: String,
        /// The panic message (whitespace flattened to `_`).
        message: String,
    },
    /// Daemon-wide queue counters.
    Status {
        /// Jobs waiting for a fairness slot.
        queued: usize,
        /// Jobs currently running on the pool.
        inflight: usize,
        /// Jobs finished since the daemon started.
        completed: u64,
        /// Whether the daemon is refusing new submits.
        draining: bool,
        /// Per-tenant counters, in tenant-name order. Absent from older
        /// daemons' lines, so parsing tolerates a missing field.
        tenants: Vec<TenantCounters>,
        /// Per-tenant completed-job latency histograms, in tenant-name
        /// order. Absent from older daemons' lines (parsed as empty), and
        /// malformed entries are skipped rather than failing the line.
        latency: Vec<TenantLatency>,
        /// Daemon-wide completed-job rate since startup, in millijobs per
        /// second (integer, so the line stays ASCII-token friendly). Absent
        /// from older daemons' lines.
        rate_mjps: Option<u64>,
    },
    /// Every job this session submitted has completed.
    Drained,
    /// The daemon is closing this session.
    Bye,
    /// A request was rejected; the job (if any) was not enqueued.
    Error {
        /// Human-readable reason.
        message: String,
    },
}

impl Response {
    /// Parses one response line.
    pub fn parse(line: &str) -> Result<Self, String> {
        let line = line.trim();
        let mut tokens = line.split_ascii_whitespace();
        let verb = tokens.next().ok_or_else(|| "empty response".to_string())?;
        let field = |key: &str| -> Result<String, String> {
            line.split_ascii_whitespace()
                .skip(1)
                .find_map(|token| token.strip_prefix(&format!("{key}=")))
                .map(str::to_string)
                .ok_or_else(|| format!("`{verb}` response is missing `{key}=`"))
        };
        match verb {
            "hello" => Ok(Self::Hello {
                token: field("token")?,
            }),
            "accepted" => Ok(Self::Accepted { id: field("id")? }),
            "rejected" => Ok(Self::Rejected {
                id: field("id")?,
                reason: field("reason").unwrap_or_default(),
            }),
            "result" => Ok(Self::Result {
                id: field("id")?,
                line: line.to_string(),
            }),
            "cancelled" => Ok(Self::Cancelled { id: field("id")? }),
            "cancelling" => Ok(Self::Cancelling { id: field("id")? }),
            "failed" => Ok(Self::Failed {
                id: field("id")?,
                message: field("message").unwrap_or_default(),
            }),
            "status" => Ok(Self::Status {
                queued: field("queued")?.parse().map_err(|_| "bad queued")?,
                inflight: field("inflight")?.parse().map_err(|_| "bad inflight")?,
                completed: field("completed")?.parse().map_err(|_| "bad completed")?,
                draining: field("draining")?.parse().map_err(|_| "bad draining")?,
                // Older daemons do not emit the field; treat absence as
                // empty. A malformed or truncated entry is skipped — one bad
                // tenant must never abort the whole status line.
                tenants: match field("tenants") {
                    Ok(packed) => packed
                        .split(',')
                        .filter(|entry| !entry.is_empty())
                        .filter_map(TenantCounters::parse_entry)
                        .collect(),
                    Err(_) => Vec::new(),
                },
                // The latency and rate fields are newer still; absence *and*
                // malformed entries both degrade to "not reported" so a new
                // client keeps working against any daemon vintage. Tokens
                // with unknown keys are ignored.
                latency: match field("latency_us") {
                    Ok(packed) => packed
                        .split(',')
                        .filter_map(|entry| {
                            let (name, buckets) = entry.split_once(':')?;
                            let buckets = buckets
                                .split(';')
                                .filter_map(|triple| {
                                    let mut parts = triple.split('.');
                                    let lo = parts.next()?.parse().ok()?;
                                    let hi = parts.next()?.parse().ok()?;
                                    let count = parts.next()?.parse().ok()?;
                                    Some((lo, hi, count))
                                })
                                .collect();
                            Some(TenantLatency {
                                name: name.to_string(),
                                buckets,
                            })
                        })
                        .collect(),
                    Err(_) => Vec::new(),
                },
                rate_mjps: field("rate_mjps").ok().and_then(|t| t.parse().ok()),
            }),
            "drained" => Ok(Self::Drained),
            "bye" => Ok(Self::Bye),
            "error" => Ok(Self::Error {
                message: line.strip_prefix("error").unwrap_or("").trim().to_string(),
            }),
            other => Err(format!("unknown response `{other}`")),
        }
    }

    /// Renders the response as its wire line (no trailing newline).
    pub fn render(&self) -> String {
        match self {
            Self::Hello { token } => format!("hello token={token}"),
            Self::Accepted { id } => format!("accepted id={id}"),
            Self::Rejected { id, reason } => {
                format!(
                    "rejected id={id} reason={}",
                    reason.replace(char::is_whitespace, "_")
                )
            }
            Self::Result { line, .. } => line.clone(),
            Self::Cancelled { id } => format!("cancelled id={id}"),
            Self::Cancelling { id } => format!("cancelling id={id}"),
            Self::Failed { id, message } => {
                format!(
                    "failed id={id} message={}",
                    message.replace(char::is_whitespace, "_")
                )
            }
            Self::Status {
                queued,
                inflight,
                completed,
                draining,
                tenants,
                latency,
                rate_mjps,
            } => {
                let mut line = format!(
                    "status queued={queued} inflight={inflight} completed={completed} draining={draining}"
                );
                if !tenants.is_empty() {
                    let packed: Vec<String> =
                        tenants.iter().map(TenantCounters::render_entry).collect();
                    line.push_str(&format!(" tenants={}", packed.join(",")));
                }
                if !latency.is_empty() {
                    let packed: Vec<String> = latency
                        .iter()
                        .map(|t| {
                            let buckets: Vec<String> = t
                                .buckets
                                .iter()
                                .map(|(lo, hi, count)| format!("{lo}.{hi}.{count}"))
                                .collect();
                            format!("{}:{}", flatten_name(&t.name), buckets.join(";"))
                        })
                        .collect();
                    line.push_str(&format!(" latency_us={}", packed.join(",")));
                }
                if let Some(rate) = rate_mjps {
                    line.push_str(&format!(" rate_mjps={rate}"));
                }
                line
            }
            Self::Drained => "drained".to_string(),
            Self::Bye => "bye".to_string(),
            Self::Error { message } => format!("error {message}"),
        }
    }
}

/// Splits a resumable session's `seq=N ` prefix off a response line,
/// returning `(Some(N), payload)` — or `(None, line)` unchanged for
/// anonymous-session lines, which carry no sequence numbers. A leading
/// `seq=` token with an unparsable number is left in place (the line is
/// then malformed and surfaces as a parse error downstream).
pub fn split_seq(line: &str) -> (Option<u64>, &str) {
    if let Some(rest) = line.trim_start().strip_prefix("seq=") {
        if let Some((number, payload)) = rest.split_once(' ') {
            if let Ok(seq) = number.parse() {
                return (Some(seq), payload);
            }
        }
    }
    (None, line)
}

/// Sends one protocol line: the payload and its `\n` in a single
/// `write_all`, then a flush. Writing them separately hands TCP two
/// segments, and Nagle's algorithm holds the second until the peer's delayed
/// ACK, about 40 ms per line.
pub(crate) fn write_line<W: Write + ?Sized>(writer: &mut W, mut line: String) -> io::Result<()> {
    line.push('\n');
    writer.write_all(line.as_bytes())?;
    writer.flush()
}

/// Evaluates one job exactly as a serial reference loop would.
///
/// The partition and [`ecs_model::Metrics`] depend only on the spec — every
/// backend (and the optional cancellation wrapper, while untripped) is
/// observationally transparent, so the daemon and a serial caller produce
/// bit-identical [`EcsRun`]s. Panics with [`ecs_model::Cancelled`] if
/// `token` trips mid-run.
///
/// `_linger` is ignored; it is kept only for `perfbench/`'s call sites,
/// until the next change to the benchmark removes it.
pub fn run_job(spec: &JobSpec, _linger: Duration, token: Option<&CancellationToken>) -> EcsRun {
    let instance = spec.dist.instance(spec.n.max(1), spec.seed);
    let k = instance.ground_truth().num_classes().max(1);
    let oracle = InstanceOracle::new(&instance);
    let backend = spec.backend.lower();
    match token {
        Some(token) => spec.algo.sort(
            spec.seed,
            k,
            &CancellableOracle::new(oracle, token.clone()),
            backend,
        ),
        None => spec.algo.sort(spec.seed, k, &oracle, backend),
    }
}

/// Renders a completed run as its canonical `result` line. Both the daemon
/// and any serial reference must go through this function — byte-for-byte
/// result comparison relies on it.
pub fn render_result(spec: &JobSpec, run: &EcsRun) -> String {
    use fmt::Write as _;
    let labels = run.partition.labels();
    let classes = run.partition.num_classes();
    // Labels are class ids below `classes`, so none is wider than this.
    let label_width = classes.max(1).ilog10() as usize + 1;
    let mut line = String::with_capacity(160 + spec.id.len() + labels.len() * (label_width + 1));
    // Writing into a `String` cannot fail.
    let _ = write!(
        line,
        "result id={} algo={} dist={} n={} seed={} classes={} comparisons={} rounds={} labels=",
        spec.id,
        spec.algo,
        spec.dist,
        spec.n,
        spec.seed,
        classes,
        run.metrics.comparisons(),
        run.metrics.rounds(),
    );
    for (at, label) in labels.iter().enumerate() {
        if at > 0 {
            line.push(',');
        }
        let _ = write!(line, "{label}");
    }
    line
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(id: &str) -> JobSpec {
        JobSpec {
            id: id.to_string(),
            tenant: "t0".to_string(),
            weight: 2,
            dist: DistSpec::Uniform(5),
            n: 40,
            seed: 11,
            algo: AlgoSpec::ErMerge,
            backend: BackendSpec::Seq,
        }
    }

    #[test]
    fn submit_round_trips_through_parse_and_render() {
        let request = Request::Submit(spec("j3"));
        let again = Request::parse(&request.render()).expect("rendered lines must parse");
        assert_eq!(request, again);
    }

    #[test]
    fn submit_defaults_tenant_weight_and_backend() {
        let parsed = Request::parse("submit id=a dist=zeta:2.5 n=10 seed=3 algo=naive").unwrap();
        let Request::Submit(spec) = parsed else {
            panic!("expected a submit");
        };
        assert_eq!(spec.tenant, "default");
        assert_eq!(spec.weight, 1);
        assert_eq!(
            spec.backend,
            BackendSpec::Auto,
            "the daemon default is `auto`"
        );
        assert_eq!(spec.dist, DistSpec::Zeta(2.5));
    }

    #[test]
    fn malformed_requests_are_rejected_with_reasons() {
        for line in [
            "",
            "frobnicate",
            "submit id=a",
            "submit id=a dist=uniform n=5 seed=1 algo=naive",
            "submit id=a dist=uniform:4 n=5 seed=1 algo=quantum",
            "submit id=a dist=uniform:4 n=5 seed=1 algo=naive backend=warp:9",
            "submit id=a dist=uniform:4 n=5 seed=1 algo=naive backend=coalesced:4",
            "submit id=a dist=uniform:4 n=5 seed=1 algo=naive backend=batched:16",
            "submit id=a dist=geometric:0 n=20 seed=1 algo=naive",
            "submit id=a dist=geometric:1 n=20 seed=1 algo=naive",
            "submit id=a dist=zeta:1 n=20 seed=1 algo=naive",
            "submit id=a dist=zeta:1.001 n=20 seed=1 algo=naive",
            "submit id=a dist=zeta:inf n=20 seed=1 algo=naive",
            "submit id=a dist=zeta:1e300 n=20 seed=1 algo=naive",
            "submit id=a dist=poisson:NaN n=20 seed=1 algo=naive",
            "submit id=a dist=poisson:1e9 n=20 seed=1 algo=naive",
            "submit id=a dist=poisson:-4 n=20 seed=1 algo=naive",
            "submit id=a dist=uniform:4 n=0 seed=1 algo=naive",
            "cancel",
        ] {
            let reason = Request::parse(line).expect_err(&format!("`{line}` must not parse"));
            if line.contains("backend=") {
                assert!(reason.contains("unknown backend"), "`{line}`: {reason}");
            }
            if ["geometric:", "poisson:", "zeta:", "n=0"]
                .iter()
                .any(|d| line.contains(d))
            {
                assert!(reason.contains("needs"), "`{line}`: {reason}");
            }
        }
    }

    #[test]
    fn distribution_parameters_at_their_bounds_build_instances() {
        // The workloads' parameters still parse ...
        for text in ["geometric:0.3", "poisson:4", "zeta:2.5"] {
            DistSpec::parse(text).expect(text);
        }
        // ... and the extreme accepted values still sample in finite time.
        for text in [
            format!("poisson:{MAX_POISSON_LAMBDA}"),
            format!("zeta:{MIN_ZETA_S}"),
            format!("zeta:{MAX_ZETA_S}"),
        ] {
            let dist = DistSpec::parse(&text).expect(&text);
            assert_eq!(dist.instance(20, 1).n(), 20, "{text}");
        }
    }

    #[test]
    fn session_requests_round_trip() {
        for request in [
            Request::Hello,
            Request::Resume {
                token: "sess-00000007".into(),
                last_seq: 42,
            },
            Request::Ack { seq: 9 },
        ] {
            let again = Request::parse(&request.render()).expect("rendered lines must parse");
            assert_eq!(request, again);
        }
        assert!(
            Request::parse("resume token=t").is_err(),
            "last_seq required"
        );
        assert!(
            Request::parse("resume last_seq=3").is_err(),
            "token required"
        );
        assert!(Request::parse("ack").is_err(), "seq required");
    }

    #[test]
    fn responses_round_trip() {
        let lines = [
            Response::Hello {
                token: "sess-00000001".into(),
            },
            Response::Accepted { id: "a".into() },
            Response::Rejected {
                id: "a".into(),
                reason: "queue_full:2".into(),
            },
            Response::Cancelled { id: "a".into() },
            Response::Cancelling { id: "a".into() },
            Response::Drained,
            Response::Bye,
            Response::Status {
                queued: 3,
                inflight: 1,
                completed: 9,
                draining: true,
                tenants: Vec::new(),
                latency: Vec::new(),
                rate_mjps: None,
            },
            Response::Status {
                queued: 2,
                inflight: 1,
                completed: 7,
                draining: false,
                tenants: vec![
                    TenantCounters {
                        name: "alpha".into(),
                        queued: 2,
                        completed: 4,
                        rejected: 3,
                        max_queued: Some(8),
                        max_inflight: Some(2),
                    },
                    TenantCounters::basic("beta", 0, 3),
                ],
                latency: vec![TenantLatency {
                    name: "alpha".into(),
                    buckets: vec![(0, 0, 1), (513, 1024, 3)],
                }],
                rate_mjps: Some(1500),
            },
            Response::Error {
                message: "queue is draining".into(),
            },
        ];
        for response in lines {
            let again = Response::parse(&response.render()).unwrap();
            assert_eq!(response, again);
        }
    }

    #[test]
    fn status_lines_without_tenant_counters_still_parse() {
        // Wire compatibility with daemons predating the per-tenant field.
        let old = "status queued=3 inflight=1 completed=9 draining=false";
        let parsed = Response::parse(old).unwrap();
        assert_eq!(
            parsed,
            Response::Status {
                queued: 3,
                inflight: 1,
                completed: 9,
                draining: false,
                tenants: Vec::new(),
                latency: Vec::new(),
                rate_mjps: None,
            }
        );
        // A line with tenants but no latency or rate fields, and a line
        // with malformed latency and rate entries, both still parse, with
        // the unusable parts degraded to "not reported".
        let older = "status queued=0 inflight=0 completed=2 draining=false tenants=a:0:2";
        let Response::Status {
            tenants,
            latency,
            rate_mjps,
            ..
        } = Response::parse(older).unwrap()
        else {
            panic!("status must parse");
        };
        assert_eq!(
            tenants,
            vec![TenantCounters::basic("a", 0, 2)],
            "a pre-quota entry parses with no rejections and unlimited quotas"
        );
        assert_eq!((latency, rate_mjps), (Vec::new(), None));
        let mangled = "status queued=0 inflight=0 completed=2 draining=false \
                       latency_us=a:junk;1.2.3 rate_mjps=fast";
        let Response::Status {
            latency, rate_mjps, ..
        } = Response::parse(mangled).unwrap()
        else {
            panic!("status must parse");
        };
        assert_eq!(latency[0].buckets, vec![(1, 2, 3)], "bad triples skipped");
        assert_eq!(rate_mjps, None);
    }

    #[test]
    fn tenant_names_are_flattened_on_the_wire() {
        let status = Response::Status {
            queued: 1,
            inflight: 0,
            completed: 2,
            draining: false,
            tenants: vec![TenantCounters::basic("a:b,c=d", 1, 2)],
            latency: Vec::new(),
            rate_mjps: None,
        };
        let line = status.render();
        assert!(line.ends_with("tenants=a_b_c_d:1:2:0:-:-"), "{line}");
        let Response::Status { tenants, .. } = Response::parse(&line).unwrap() else {
            panic!("status must parse");
        };
        assert_eq!(tenants[0].name, "a_b_c_d");
    }

    #[test]
    fn malformed_tenant_entries_are_skipped_not_fatal() {
        // A mangled `tenants=` field (truncated entry, non-numeric counter,
        // garbage quota) must degrade to "those entries not reported" while
        // the rest of the line — including well-formed neighbours of both
        // vintages — still parses.
        let mixed = "status queued=1 inflight=0 completed=9 draining=false \
                     tenants=old:1:2,chopped,bad:x:y,new:0:3:4:8:-,q:0:1:0:junk:2,trail:2";
        let Response::Status {
            queued, tenants, ..
        } = Response::parse(mixed).unwrap()
        else {
            panic!("a status line with mangled tenant entries must still parse");
        };
        assert_eq!(queued, 1);
        assert_eq!(
            tenants,
            vec![
                TenantCounters::basic("old", 1, 2),
                TenantCounters {
                    name: "new".into(),
                    queued: 0,
                    completed: 3,
                    rejected: 4,
                    max_queued: Some(8),
                    max_inflight: None,
                },
            ],
            "only the well-formed entries survive"
        );
    }

    #[test]
    fn seq_prefixes_split_off_and_absent_prefixes_pass_through() {
        let (seq, payload) = split_seq("seq=17 result id=a classes=2");
        assert_eq!(seq, Some(17));
        assert_eq!(payload, "result id=a classes=2");
        let (seq, payload) = split_seq("result id=a seq=5");
        assert_eq!(seq, None, "only a LEADING seq token is a prefix");
        assert_eq!(payload, "result id=a seq=5");
        let (seq, payload) = split_seq("seq=abc result id=a");
        assert_eq!(seq, None, "unparsable seq is left for the parser to flag");
        assert_eq!(payload, "seq=abc result id=a");
        // The round trip a resumable client performs on every line.
        let line = format!("seq=3 {}", Response::Accepted { id: "j".into() }.render());
        let (seq, payload) = split_seq(&line);
        assert_eq!(seq, Some(3));
        assert_eq!(
            Response::parse(payload).unwrap(),
            Response::Accepted { id: "j".into() }
        );
    }

    #[test]
    fn every_backend_spec_is_observationally_identical() {
        // The core model invariant, restated at the protocol layer: one spec,
        // every backend, one result line.
        let mut base = spec("same");
        base.backend = BackendSpec::Seq;
        let reference = render_result(&base, &run_job(&base, Duration::ZERO, None));
        for backend in [BackendSpec::Threaded(2), BackendSpec::Auto] {
            let mut other = base.clone();
            other.backend = backend;
            let line = render_result(&base, &run_job(&other, Duration::ZERO, None));
            assert_eq!(line, reference, "{backend} diverged from seq");
        }
    }

    #[test]
    fn a_client_thread_count_is_clamped_to_the_machine() {
        let threads = BackendSpec::Threaded(1 << 20).lower().threads();
        assert!(threads <= available_parallelism(), "{threads} threads");
    }

    #[test]
    fn an_untripped_token_never_changes_the_result() {
        let spec = spec("tok");
        let token = CancellationToken::new();
        let with = render_result(&spec, &run_job(&spec, Duration::ZERO, Some(&token)));
        let without = render_result(&spec, &run_job(&spec, Duration::ZERO, None));
        assert_eq!(with, without);
    }

    #[test]
    fn result_lines_verify_against_the_ground_truth() {
        for algo in AlgoSpec::ALL {
            let mut job = spec(algo.name());
            job.algo = algo;
            let run = run_job(&job, Duration::ZERO, None);
            let mut rng = Xoshiro256StarStar::seed_from_u64(job.seed);
            let instance =
                Instance::from_distribution(&AnyDistribution::uniform(5), job.n, &mut rng);
            assert!(
                instance.verify(&run.partition),
                "{algo} misclassified its instance"
            );
        }
    }
}
