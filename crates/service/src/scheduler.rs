//! Weighted-fair multiplexing of session jobs onto the [`ThroughputPool`]
//! and the session readers.
//!
//! The pool's one queue is strictly FIFO — fine for one grid, unfair for a
//! daemon where one chatty tenant could enqueue a thousand jobs ahead of
//! everyone else. The scheduler therefore holds its *own* per-tenant queues
//! and releases at most `max_inflight` jobs at a time, picking
//! the next job by **stride scheduling**: each tenant advances a pass value
//! by `STRIDE_SCALE / weight` per dispatched job, and the lowest pass (ties
//! broken by tenant name, so the order is deterministic) dispatches next. A
//! tenant with weight 3 therefore receives ~3× the dispatch slots of a
//! weight-1 tenant while both are backlogged, and an idle tenant's unused
//! share costs it nothing when it returns (its pass is re-anchored to the
//! current minimum).
//!
//! A dispatched job runs in one of two places. [`Scheduler::submit`] sends
//! every dispatched job to the pool, detached ([`ThroughputPool::spawn`]).
//! [`Scheduler::submit_here`], which session readers call, runs a *small*
//! job (all-pairs bound at most `INLINE_MAX_PAIRS`) on the calling thread
//! when the stride pick dispatches it at once, and sends everything else to
//! the pool. Both places share admission, the stride pick, quotas, the
//! slot count and one job body: `run_job` under `catch_unwind`, carrying a
//! [`CancellationToken`], then the completion path. A panicking or
//! cancelled job releases its fairness slot there exactly like a
//! successful one, so a killed session can never leak capacity, and
//! [`Scheduler::abort_all`] and [`Scheduler::wait_idle`] see a job running
//! on a reader like any pool job.
//!
//! Fairness alone does not bound memory: a chatty tenant can still queue
//! without limit behind its stride share. A [`QuotaConfig`] therefore adds
//! admission control per tenant — `max_queued` rejects a `submit`
//! deterministically (a `rejected` response, never a dropped job) once the
//! tenant's queue is full, `max_inflight` caps how many of its jobs occupy
//! slots at once (an over-limit tenant is simply skipped by the stride
//! pick, not rejected), and `weight` pins the fairness weight regardless of
//! what the submit asked for.

use crate::outbox::Outbox;
use crate::protocol::{render_result, run_job, JobSpec, Response, TenantCounters, TenantLatency};
use ecs_model::throughput::JobPanic;
use ecs_model::{CancellationToken, RoundSizeHistogram, ThroughputPool};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::Read;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Pass-value increment for a weight-1 tenant; a weight-`w` tenant advances
/// by `STRIDE_SCALE / w` per dispatch.
const STRIDE_SCALE: u64 = 1 << 20;

/// How far back the status line's completion rate looks. Wide enough that a
/// steady trickle registers, narrow enough that an idle daemon reads zero
/// instead of a lifetime average decaying forever.
const RATE_WINDOW: Duration = Duration::from_millis(400);

/// The largest all-pairs bound, n(n−1)/2, of a job that
/// [`Scheduler::submit_here`] may run on the calling thread; no algorithm
/// charges more comparisons than that (`tests/comparison_budget.rs`).
/// 2048 admits n ≤ 64. Measured per `run_job` on the `auto` backend (200
/// seeds per cell, the worst p99 over six algorithms × the five `sort-large`
/// distributions and `uniform:1000000000`, 2-vCPU VM, three runs): 48–70 µs
/// at n = 48, 93–102 µs at n = 64 and 159–191 µs at n = 91, the worst cell
/// being round-robin (once er-constant) on `uniform:1000000000`. So the
/// costliest job run here takes less than the ~0.16 ms that handing an
/// n = 48 job to a pool worker and its result to the writer thread cost.
const INLINE_MAX_PAIRS: usize = 2048;

/// Whether `spec` is small enough to run on a session's reader.
fn runs_inline(spec: &JobSpec) -> bool {
    spec.n.saturating_mul(spec.n.saturating_sub(1)) / 2 <= INLINE_MAX_PAIRS
}

/// Admission limits for one tenant. `None` means unlimited (or, for
/// `weight`, "honour whatever the submit asked for").
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TenantQuota {
    /// Most jobs allowed to wait in the tenant's queue; a submit arriving
    /// with the queue full is answered `rejected`.
    pub max_queued: Option<usize>,
    /// Most jobs of this tenant allowed in flight at once; an over-limit
    /// tenant is skipped by dispatch until a job completes.
    pub max_inflight: Option<usize>,
    /// When set, overrides the fairness weight of every submit (clamped to
    /// at least 1).
    pub weight: Option<u32>,
}

/// Per-tenant [`TenantQuota`]s plus the default applied to tenants without
/// an explicit entry. `QuotaConfig::default()` is fully unlimited — the
/// pre-quota daemon behaviour.
#[derive(Debug, Clone, Default)]
pub struct QuotaConfig {
    /// Applied to every tenant without a `per_tenant` entry.
    pub default: TenantQuota,
    /// Explicit per-tenant overrides.
    pub per_tenant: BTreeMap<String, TenantQuota>,
}

impl QuotaConfig {
    /// The quota governing `name` (the explicit entry, else the default).
    pub fn for_tenant(&self, name: &str) -> TenantQuota {
        self.per_tenant
            .get(name)
            .cloned()
            .unwrap_or_else(|| self.default.clone())
    }

    /// Parses the serve-flag syntax: comma-separated
    /// `tenant=queued:inflight:weight` entries where `*` names the default
    /// quota and `-` leaves a component unlimited/unpinned —
    /// `a=4:2:3,*=8:-:-` caps tenant `a` at 4 queued + 2 in flight with
    /// weight pinned to 3, and everyone else at 8 queued.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut config = Self::default();
        for entry in text.split(',').filter(|entry| !entry.is_empty()) {
            let (name, spec) = entry.split_once('=').ok_or_else(|| {
                format!("quota entry `{entry}` is not tenant=queued:inflight:weight")
            })?;
            let parts: Vec<&str> = spec.split(':').collect();
            let [queued, inflight, weight] = parts.as_slice() else {
                return Err(format!(
                    "quota entry `{entry}` needs exactly queued:inflight:weight"
                ));
            };
            let limit = |part: &str, what: &str| -> Result<Option<usize>, String> {
                if part == "-" {
                    return Ok(None);
                }
                part.parse()
                    .map(Some)
                    .map_err(|_| format!("quota entry `{entry}` has a bad {what} `{part}`"))
            };
            let quota = TenantQuota {
                max_queued: limit(queued, "max_queued")?,
                max_inflight: limit(inflight, "max_inflight")?,
                weight: match *weight {
                    "-" => None,
                    raw => Some(
                        raw.parse::<u32>()
                            .map_err(|_| format!("quota entry `{entry}` has a bad weight `{raw}`"))?
                            .max(1),
                    ),
                },
            };
            if name == "*" {
                config.default = quota;
            } else {
                config.per_tenant.insert(name.to_string(), quota);
            }
        }
        Ok(config)
    }
}

/// One connected session: where its responses go and how many of its jobs
/// are still somewhere in the daemon.
#[derive(Debug)]
pub struct SessionHandle {
    id: u64,
    /// `Some` for resumable (`hello`) sessions: the stable identity a
    /// reconnecting client presents to `resume`.
    token: Option<String>,
    outbox: Outbox,
    progress: Mutex<SessionProgress>,
}

#[derive(Debug, Default)]
struct SessionProgress {
    outstanding: usize,
    drain_requested: bool,
}

impl SessionHandle {
    pub(crate) fn new(id: u64) -> Self {
        Self {
            id,
            token: None,
            outbox: Outbox::new(),
            progress: Mutex::new(SessionProgress::default()),
        }
    }

    /// A resumable (`hello`) session: its outbox retains every delivered
    /// line until acked and stamps each with a `seq=` prefix, so a later
    /// `resume` can replay exactly the unacked suffix. The token is
    /// `sess-` and 128 bits from `/dev/urandom` in hex: whoever holds it can
    /// take the session over, so it must not be guessable. Fails only when
    /// the random source cannot be read.
    pub(crate) fn resumable(id: u64) -> std::io::Result<Self> {
        let mut bits = [0u8; 16];
        std::fs::File::open("/dev/urandom")?.read_exact(&mut bits)?;
        let mut handle = Self::new(id);
        handle.token = Some(format!("sess-{:032x}", u128::from_be_bytes(bits)));
        handle.outbox.enable_retention();
        Ok(handle)
    }

    /// The stable resume token, when this session was bound via `hello`.
    pub fn token(&self) -> Option<&str> {
        self.token.as_deref()
    }

    /// The session's response queue.
    pub fn outbox(&self) -> &Outbox {
        &self.outbox
    }

    /// Queues a response line for the session's writer.
    pub fn respond(&self, response: &Response) {
        self.outbox.push(response.render());
    }

    fn note_submitted(&self) {
        self.lock_progress().outstanding += 1;
    }

    /// Delivers a job's terminal response, then releases the session's
    /// outstanding count — in that order, so a `drained` barrier line can
    /// never overtake the last result.
    fn finish_job(&self, response: &Response) {
        let mut progress = self.lock_progress();
        self.outbox.push(response.render());
        progress.outstanding = progress.outstanding.saturating_sub(1);
        if progress.outstanding == 0 && progress.drain_requested {
            progress.drain_requested = false;
            self.outbox.push(Response::Drained.render());
        }
    }

    /// Arms the session's drain barrier (or fires it immediately when
    /// nothing is outstanding).
    pub fn request_drain(&self) {
        let mut progress = self.lock_progress();
        if progress.outstanding == 0 {
            self.outbox.push(Response::Drained.render());
        } else {
            progress.drain_requested = true;
        }
    }

    fn lock_progress(&self) -> std::sync::MutexGuard<'_, SessionProgress> {
        self.progress
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

#[derive(Debug)]
struct Tenant {
    pass: u64,
    stride: u64,
    queue: VecDeque<QueuedJob>,
    /// How many of this tenant's jobs currently occupy slots, on the pool or
    /// on a reader — the quantity `quota.max_inflight` bounds.
    inflight: usize,
    /// The admission limits this tenant runs under, resolved from the
    /// daemon's [`QuotaConfig`] when the tenant first appeared.
    quota: TenantQuota,
    /// Submits turned away because the tenant's queue was at `max_queued`.
    rejected: u64,
    /// Jobs of this tenant that reached a terminal response — result,
    /// failure, or cancellation. Tenants are never removed, so the counter
    /// survives the queue emptying.
    completed: u64,
    /// Wall-clock of this tenant's *dispatched* jobs (power-of-two µs
    /// buckets; queued cancels never ran, so they are not counted).
    latency_us: RoundSizeHistogram,
}

#[derive(Debug)]
struct QueuedJob {
    spec: JobSpec,
    session: Arc<SessionHandle>,
}

/// A job the stride pick released, holding its slot until
/// [`Scheduler::run`] completes it.
struct Dispatched {
    job: QueuedJob,
    token: CancellationToken,
    key: String,
    /// `complete` cannot recover the fairness bucket from the job key (ids
    /// are session-scoped), so the tenant name rides along.
    billed_to: String,
}

#[derive(Debug, Default)]
struct SchedState {
    tenants: BTreeMap<String, Tenant>,
    inflight: HashMap<String, CancellationToken>,
    queued: usize,
    completed: u64,
    /// Completion instants inside the last [`RATE_WINDOW`] — the numerator
    /// of the status line's windowed rate.
    recent: VecDeque<Instant>,
    draining: bool,
    /// Threads parked in [`Scheduler::wait_idle`].
    idle_waiters: usize,
}

/// The daemon-wide job scheduler (see the module docs).
#[derive(Debug)]
pub struct Scheduler {
    pool: ThroughputPool,
    max_inflight: usize,
    /// Per-tenant admission limits (default: unlimited).
    quotas: QuotaConfig,
    state: Mutex<SchedState>,
    settled: Condvar,
}

impl Scheduler {
    /// A scheduler dispatching onto `pool`, at most `max_inflight` jobs at a
    /// time.
    pub fn new(pool: ThroughputPool, max_inflight: usize) -> Self {
        Self {
            pool,
            max_inflight: max_inflight.max(1),
            quotas: QuotaConfig::default(),
            state: Mutex::new(SchedState::default()),
            settled: Condvar::new(),
        }
    }

    /// Installs per-tenant admission limits (see [`QuotaConfig`]). Quotas
    /// are resolved when a tenant first submits, so install them before
    /// serving traffic.
    pub fn with_quotas(mut self, quotas: QuotaConfig) -> Self {
        self.quotas = quotas;
        self
    }

    /// The scheduler's pool (its workers run every job).
    pub fn pool(&self) -> &ThroughputPool {
        &self.pool
    }

    fn job_key(session: &SessionHandle, id: &str) -> String {
        format!("{}:{}", session.id, id)
    }

    /// Admits one job for `session`, responding `accepted` (and eventually
    /// a terminal line) through the session outbox; `error` when the daemon
    /// is draining, `rejected` when the tenant's queue is at its quota.
    /// Every dispatched job runs on the pool.
    pub fn submit(self: &Arc<Self>, spec: JobSpec, session: &Arc<SessionHandle>) {
        let inline = self.admit(spec, session, false);
        debug_assert!(inline.is_none(), "submit never runs a job in place");
    }

    /// [`Scheduler::submit`] for a session's reader: when the job is small
    /// and the stride pick dispatches it at once (a slot is free and its
    /// tenant is under its in-flight quota), it runs on the calling thread
    /// before this returns, holding its slot and token like a pool job.
    /// Otherwise it queues or goes to the pool exactly as with `submit`.
    pub fn submit_here(self: &Arc<Self>, spec: JobSpec, session: &Arc<SessionHandle>) {
        if let Some(job) = self.admit(spec, session, true) {
            self.run(job);
        }
    }

    /// Admission shared by both entry points. With `here`, returns the
    /// admitted job when it is small and dispatched at once.
    fn admit(
        self: &Arc<Self>,
        spec: JobSpec,
        session: &Arc<SessionHandle>,
        here: bool,
    ) -> Option<Dispatched> {
        let mut state = self.lock();
        if state.draining {
            session.respond(&Response::Error {
                message: format!("daemon is draining; job {} rejected", spec.id),
            });
            return None;
        }
        let floor = state
            .tenants
            .values()
            .filter(|tenant| !tenant.queue.is_empty())
            .map(|tenant| tenant.pass)
            .min()
            .unwrap_or(0);
        let quota = self.quotas.for_tenant(&spec.tenant);
        // A pinned quota weight wins over whatever the submit asked for.
        let weight = quota.weight.unwrap_or(spec.weight).max(1);
        let stride = STRIDE_SCALE / u64::from(weight);
        let tenant = state
            .tenants
            .entry(spec.tenant.clone())
            .or_insert_with(|| Tenant {
                pass: floor,
                stride,
                queue: VecDeque::new(),
                inflight: 0,
                quota,
                rejected: 0,
                completed: 0,
                latency_us: RoundSizeHistogram::default(),
            });
        if let Some(max_queued) = tenant.quota.max_queued {
            if tenant.queue.len() >= max_queued {
                tenant.rejected += 1;
                session.respond(&Response::Rejected {
                    id: spec.id,
                    reason: format!("queue_full:{max_queued}"),
                });
                return None;
            }
        }
        // Weight is a property of the tenant's latest submit; re-anchor an
        // idle tenant so a long absence never becomes a burst of catch-up.
        tenant.stride = stride;
        if tenant.queue.is_empty() {
            tenant.pass = tenant.pass.max(floor);
        }
        session.respond(&Response::Accepted {
            id: spec.id.clone(),
        });
        session.note_submitted();
        let here = (here && runs_inline(&spec)).then(|| spec.tenant.clone());
        tenant.queue.push_back(QueuedJob {
            spec,
            session: Arc::clone(session),
        });
        state.queued += 1;
        self.dispatch_locked(&mut state, here.as_deref())
    }

    /// Cancels `id` for `session`: a still-queued job is removed and
    /// reported `cancelled` immediately; an in-flight job gets its token
    /// tripped (`cancelling` now, `cancelled` when it unwinds); anything
    /// else is an error.
    pub fn cancel(&self, session: &Arc<SessionHandle>, id: &str) {
        let key = Self::job_key(session, id);
        let mut state = self.lock();
        let queued_at = state.tenants.iter().find_map(|(name, tenant)| {
            tenant
                .queue
                .iter()
                .position(|job| job.session.id == session.id && job.spec.id == id)
                .map(|at| (name.clone(), at))
        });
        if let Some((name, at)) = queued_at {
            let tenant = state.tenants.get_mut(&name).expect("tenant exists");
            let job = tenant.queue.remove(at).expect("position was just found");
            tenant.completed += 1;
            state.queued -= 1;
            Self::note_completions(&mut state, 1);
            let wake = state.idle_waiters > 0;
            drop(state);
            job.session
                .finish_job(&Response::Cancelled { id: id.to_string() });
            if wake {
                self.settled.notify_all();
            }
            return;
        }
        if let Some(token) = state.inflight.get(&key) {
            token.cancel();
            drop(state);
            session.respond(&Response::Cancelling { id: id.to_string() });
            return;
        }
        drop(state);
        session.respond(&Response::Error {
            message: format!("unknown job {id}"),
        });
    }

    /// Daemon-wide counters, plus per-tenant queue depth, completed-job
    /// counts, and job-latency histograms (all in tenant-name order — the
    /// tenant map is a `BTreeMap`, so the rendering is deterministic).
    pub fn status(&self) -> Response {
        let mut state = self.lock();
        // Millijobs/second over the trailing RATE_WINDOW: integer so the
        // wire token stays a plain number, milli so a steady trickle still
        // resolves, windowed so an idle daemon reads zero instead of a
        // lifetime average decaying forever.
        Self::trim_rate_window(&mut state, Instant::now());
        let rate_mjps = (state.recent.len() as f64 * 1_000.0 / RATE_WINDOW.as_secs_f64()) as u64;
        Response::Status {
            queued: state.queued,
            inflight: state.inflight.len(),
            completed: state.completed,
            draining: state.draining,
            tenants: state
                .tenants
                .iter()
                .map(|(name, tenant)| TenantCounters {
                    name: name.clone(),
                    queued: tenant.queue.len(),
                    completed: tenant.completed,
                    rejected: tenant.rejected,
                    max_queued: tenant.quota.max_queued,
                    max_inflight: tenant.quota.max_inflight,
                })
                .collect(),
            latency: state
                .tenants
                .iter()
                .filter(|(_, tenant)| tenant.latency_us.total() > 0)
                .map(|(name, tenant)| TenantLatency {
                    name: name.clone(),
                    buckets: tenant.latency_us.nonzero_buckets(),
                })
                .collect(),
            rate_mjps: Some(rate_mjps),
        }
    }

    /// Stops admitting new jobs (submits respond `error` from now on).
    pub fn start_draining(&self) {
        self.lock().draining = true;
    }

    /// Blocks until nothing is queued or in flight. Pair with
    /// [`Scheduler::start_draining`] to drain the daemon to a stop.
    pub fn wait_idle(&self) {
        let mut state = self.lock();
        while state.queued > 0 || !state.inflight.is_empty() {
            state.idle_waiters += 1;
            state = self
                .settled
                .wait(state)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            state.idle_waiters -= 1;
        }
    }

    /// Force-stops the scheduler: drops every queued job (reported
    /// `cancelled`) and trips every in-flight token. In-flight jobs still
    /// unwind through their normal completion path, so callers should
    /// [`Scheduler::wait_idle`] afterwards.
    pub fn abort_all(&self) {
        let mut state = self.lock();
        state.draining = true;
        let mut dropped = Vec::new();
        for tenant in state.tenants.values_mut() {
            while let Some(job) = tenant.queue.pop_front() {
                tenant.completed += 1;
                dropped.push(job);
            }
        }
        state.queued = 0;
        Self::note_completions(&mut state, dropped.len());
        for token in state.inflight.values() {
            token.cancel();
        }
        let wake = state.idle_waiters > 0;
        drop(state);
        for job in dropped {
            job.session
                .finish_job(&Response::Cancelled { id: job.spec.id });
        }
        if wake {
            self.settled.notify_all();
        }
    }

    /// Releases fairness slots while capacity and queued work both remain.
    /// A tenant at its `max_inflight` quota is skipped (its queue waits), so
    /// the loop also ends when only capped tenants remain. Every released
    /// job goes to the pool except, when `here` names a tenant, the job
    /// that tenant's queue just received: it is returned for the caller to
    /// run.
    fn dispatch_locked(
        self: &Arc<Self>,
        state: &mut SchedState,
        here: Option<&str>,
    ) -> Option<Dispatched> {
        let mut inline = None;
        while state.inflight.len() < self.max_inflight && state.queued > 0 {
            let Some(next) = state
                .tenants
                .iter()
                .filter(|(_, tenant)| {
                    !tenant.queue.is_empty()
                        && tenant
                            .quota
                            .max_inflight
                            .is_none_or(|max| tenant.inflight < max)
                })
                .min_by_key(|(name, tenant)| (tenant.pass, name.as_str()))
                .map(|(name, _)| name.clone())
            else {
                break;
            };
            let tenant = state.tenants.get_mut(&next).expect("tenant exists");
            tenant.pass += tenant.stride;
            tenant.inflight += 1;
            let job = tenant.queue.pop_front().expect("queue was non-empty");
            // Nothing was queued since the admission that named `here`, so
            // popping the last job of that tenant pops the admitted job.
            let admitted = here == Some(next.as_str()) && tenant.queue.is_empty();
            state.queued -= 1;
            let token = CancellationToken::new();
            let key = Self::job_key(&job.session, &job.spec.id);
            state.inflight.insert(key.clone(), token.clone());
            let dispatched = Dispatched {
                job,
                token,
                key,
                billed_to: next,
            };
            if admitted {
                inline = Some(dispatched);
            } else {
                let scheduler = Arc::clone(self);
                self.pool.spawn(move || scheduler.run(dispatched));
            }
        }
        inline
    }

    /// The one job body, on a pool worker or a session's reader: run the
    /// job under `catch_unwind`, classify a panic as cancellation or
    /// failure, and complete it.
    fn run(self: &Arc<Self>, dispatched: Dispatched) {
        let Dispatched {
            job: QueuedJob { spec, session },
            token,
            key,
            billed_to,
        } = dispatched;
        let started = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            run_job(&spec, Duration::ZERO, Some(&token))
        }));
        let elapsed = started.elapsed();
        let response = match outcome {
            Ok(run) => Response::Result {
                id: spec.id.clone(),
                line: render_result(&spec, &run),
            },
            Err(payload) => {
                let panic = JobPanic::from_payload(payload);
                if panic.is_cancelled() {
                    Response::Cancelled {
                        id: spec.id.clone(),
                    }
                } else {
                    Response::Failed {
                        id: spec.id.clone(),
                        message: panic.message().to_string(),
                    }
                }
            }
        };
        self.complete(&key, &billed_to, &session, &response, elapsed);
    }

    /// The completion path every dispatched job takes — success, panic, or
    /// cancellation: deliver the terminal response, bill the tenant (count
    /// and latency), release the fairness slot, dispatch whoever is next
    /// to the pool.
    fn complete(
        self: &Arc<Self>,
        key: &str,
        tenant: &str,
        session: &Arc<SessionHandle>,
        response: &Response,
        elapsed: Duration,
    ) {
        session.finish_job(response);
        let mut state = self.lock();
        state.inflight.remove(key);
        Self::note_completions(&mut state, 1);
        if let Some(tenant) = state.tenants.get_mut(tenant) {
            tenant.completed += 1;
            tenant.inflight = tenant.inflight.saturating_sub(1);
            tenant
                .latency_us
                .record(usize::try_from(elapsed.as_micros()).unwrap_or(usize::MAX));
        }
        let inline = self.dispatch_locked(&mut state, None);
        debug_assert!(inline.is_none(), "completions dispatch to the pool");
        let wake = state.idle_waiters > 0;
        drop(state);
        if wake {
            self.settled.notify_all();
        }
    }

    /// Records `count` just-finished jobs in both the lifetime counter and
    /// the windowed-rate buffer.
    fn note_completions(state: &mut SchedState, count: usize) {
        state.completed += count as u64;
        let now = Instant::now();
        for _ in 0..count {
            state.recent.push_back(now);
        }
        Self::trim_rate_window(state, now);
    }

    /// Drops completion instants that have aged out of [`RATE_WINDOW`].
    fn trim_rate_window(state: &mut SchedState, now: Instant) {
        while state
            .recent
            .front()
            .is_some_and(|&at| now.duration_since(at) > RATE_WINDOW)
        {
            state.recent.pop_front();
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, SchedState> {
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{AlgoSpec, BackendSpec, DistSpec};

    fn spec(id: &str, tenant: &str, weight: u32) -> JobSpec {
        JobSpec {
            id: id.to_string(),
            tenant: tenant.to_string(),
            weight,
            dist: DistSpec::Uniform(4),
            n: 16,
            seed: 5,
            algo: AlgoSpec::RoundRobin,
            backend: BackendSpec::Seq,
        }
    }

    fn drain_lines(session: &SessionHandle) -> Vec<Response> {
        session.request_drain();
        let mut lines = Vec::new();
        loop {
            let line = session.outbox().pop().expect("drained before close");
            let response = Response::parse(&line).expect("daemon lines parse");
            if response == Response::Drained {
                return lines;
            }
            lines.push(response);
        }
    }

    fn result_order(lines: &[Response]) -> Vec<String> {
        lines
            .iter()
            .filter_map(|line| match line {
                Response::Result { id, .. } => Some(id.clone()),
                _ => None,
            })
            .collect()
    }

    /// Parks the shared pool's workers on a channel so every submit in the
    /// test lands before any job runs; dropping the sender releases them.
    /// This removes all timing from the dispatch-order assertions.
    fn park_pool(pool: &ThroughputPool) -> std::sync::mpsc::Sender<()> {
        let (hold, release) = std::sync::mpsc::channel::<()>();
        let release = Arc::new(Mutex::new(release));
        for _ in 0..pool.workers() {
            let release = Arc::clone(&release);
            pool.spawn(move || {
                let _ = release
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .recv();
            });
        }
        hold
    }

    #[test]
    fn a_heavier_tenant_receives_proportionally_more_slots() {
        // One worker, one slot: completion order IS dispatch order. The pool
        // is parked while every submit lands, so the stride pick order is
        // fully deterministic: tenant `b` (weight 3) drains its whole
        // backlog while `a` (weight 1, same arrival pass) gets one slot.
        let pool = ThroughputPool::from_jobs(1);
        let scheduler = Arc::new(Scheduler::new(pool, 1));
        let session = Arc::new(SessionHandle::new(1));
        let parked = park_pool(scheduler.pool());
        scheduler.submit(spec("plug", "z", 1), &session);
        for j in 0..4 {
            scheduler.submit(spec(&format!("a{j}"), "a", 1), &session);
        }
        for j in 0..4 {
            scheduler.submit(spec(&format!("b{j}"), "b", 3), &session);
        }
        drop(parked);
        let order = result_order(&drain_lines(&session));
        let expected: Vec<String> = ["plug", "a0", "b0", "b1", "b2", "b3", "a1", "a2", "a3"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(order, expected, "stride dispatch order must be exact");
    }

    #[test]
    fn queued_jobs_cancel_immediately_and_inflight_slots_are_released() {
        let scheduler = Arc::new(Scheduler::new(ThroughputPool::from_jobs(1), 1));
        let session = Arc::new(SessionHandle::new(7));
        // The parked pool keeps the head-of-line job from finishing, so the
        // cancels are guaranteed to land while `victim` is still queued.
        let parked = park_pool(scheduler.pool());
        scheduler.submit(spec("slow", "t", 1), &session);
        scheduler.submit(spec("victim", "t", 1), &session);
        scheduler.submit(spec("survivor", "t", 1), &session);
        scheduler.cancel(&session, "victim");
        scheduler.cancel(&session, "missing");
        drop(parked);
        let lines = drain_lines(&session);
        assert!(
            lines.contains(&Response::Cancelled {
                id: "victim".into()
            }),
            "queued cancel must report cancelled: {lines:?}"
        );
        assert!(
            lines
                .iter()
                .any(|line| matches!(line, Response::Error { .. })),
            "cancelling an unknown job must error: {lines:?}"
        );
        let order = result_order(&lines);
        assert_eq!(
            order,
            vec!["slow".to_string(), "survivor".to_string()],
            "the cancelled job must release its slot to the survivor"
        );
        // The drain barrier fires on response delivery, which precedes the
        // slot release; settle the scheduler before reading its counters.
        scheduler.wait_idle();
        let Response::Status {
            queued, inflight, ..
        } = scheduler.status()
        else {
            panic!("status must render counters")
        };
        assert_eq!((queued, inflight), (0, 0));
    }

    #[test]
    fn status_reports_per_tenant_queue_depth_and_completions() {
        let scheduler = Arc::new(Scheduler::new(ThroughputPool::from_jobs(1), 1));
        let session = Arc::new(SessionHandle::new(9));
        // Parked pool: `a0` occupies the single in-flight slot, everything
        // else is still queued when status is read.
        let parked = park_pool(scheduler.pool());
        scheduler.submit(spec("a0", "a", 1), &session);
        scheduler.submit(spec("a1", "a", 1), &session);
        scheduler.submit(spec("b0", "b", 1), &session);
        scheduler.submit(spec("b1", "b", 1), &session);
        scheduler.cancel(&session, "b1");
        let Response::Status { tenants, .. } = scheduler.status() else {
            panic!("status must render counters")
        };
        let snapshot: Vec<(String, usize, u64)> = tenants
            .into_iter()
            .map(|t| (t.name, t.queued, t.completed))
            .collect();
        assert_eq!(
            snapshot,
            vec![("a".to_string(), 1, 0), ("b".to_string(), 1, 1)],
            "queued cancel bills tenant b; a0 is in flight, a1 and b0 queued"
        );
        drop(parked);
        scheduler.wait_idle();
        let Response::Status { tenants, .. } = scheduler.status() else {
            panic!("status must render counters")
        };
        let snapshot: Vec<(String, usize, u64)> = tenants
            .into_iter()
            .map(|t| (t.name, t.queued, t.completed))
            .collect();
        assert_eq!(
            snapshot,
            vec![("a".to_string(), 0, 2), ("b".to_string(), 0, 2)],
            "every terminal response bills its tenant exactly once"
        );
        let _ = drain_lines(&session);
    }

    #[test]
    fn status_reports_latency_and_rate() {
        let scheduler = Arc::new(Scheduler::new(ThroughputPool::from_jobs(1), 1));
        let session = Arc::new(SessionHandle::new(11));
        let mut auto_job = spec("auto0", "a", 1);
        auto_job.backend = BackendSpec::Auto;
        auto_job.algo = AlgoSpec::ErMerge;
        scheduler.submit(auto_job, &session);
        scheduler.submit(spec("seq0", "b", 1), &session);
        let _ = drain_lines(&session);
        scheduler.wait_idle();
        let Response::Status {
            latency, rate_mjps, ..
        } = scheduler.status()
        else {
            panic!("status must render counters")
        };
        let jobs_per_tenant: Vec<(String, u64)> = latency
            .iter()
            .map(|t| {
                (
                    t.name.clone(),
                    t.buckets.iter().map(|&(_, _, count)| count).sum(),
                )
            })
            .collect();
        assert_eq!(
            jobs_per_tenant,
            vec![("a".to_string(), 1), ("b".to_string(), 1)],
            "each dispatched job lands in its tenant's latency histogram"
        );
        assert!(rate_mjps.is_some(), "a live daemon always reports a rate");
        // The full status line survives a wire round-trip. (The rate is
        // time-dependent, so compare the re-rendered line, not a second
        // `status()` snapshot.)
        let rendered = scheduler.status().render();
        assert_eq!(
            Response::parse(&rendered).expect("status parses").render(),
            rendered
        );
    }

    #[test]
    fn quota_flag_syntax_parses_and_rejects_garbage() {
        let config = QuotaConfig::parse("a=4:2:3,*=8:-:-").expect("valid syntax parses");
        assert_eq!(
            config.for_tenant("a"),
            TenantQuota {
                max_queued: Some(4),
                max_inflight: Some(2),
                weight: Some(3),
            }
        );
        assert_eq!(
            config.for_tenant("anyone-else"),
            TenantQuota {
                max_queued: Some(8),
                max_inflight: None,
                weight: None,
            }
        );
        assert_eq!(
            QuotaConfig::parse("w=0:-:0")
                .expect("zero weight parses")
                .for_tenant("w")
                .weight,
            Some(1),
            "a zero weight clamps to 1 instead of dividing the stride by it"
        );
        for bad in ["a", "a=1:2", "a=1:2:3:4", "a=x:-:-", "a=-:y:-", "a=-:-:z"] {
            assert!(QuotaConfig::parse(bad).is_err(), "`{bad}` must be rejected");
        }
        assert_eq!(
            QuotaConfig::default().for_tenant("anyone"),
            TenantQuota::default(),
            "no config means fully unlimited"
        );
    }

    #[test]
    fn over_quota_submits_are_rejected_and_queues_stay_bounded() {
        let quotas = QuotaConfig::parse("t=2:-:-").expect("quota parses");
        let scheduler =
            Arc::new(Scheduler::new(ThroughputPool::from_jobs(1), 1).with_quotas(quotas));
        let session = Arc::new(SessionHandle::new(20));
        // Parked pool: t0 occupies the single in-flight slot, t1/t2 fill the
        // queue to its max_queued of 2, t3 must bounce.
        let parked = park_pool(scheduler.pool());
        for j in 0..4 {
            scheduler.submit(spec(&format!("t{j}"), "t", 1), &session);
            let Response::Status { tenants, .. } = scheduler.status() else {
                panic!("status must render counters")
            };
            assert!(
                tenants.iter().all(|t| t.queued <= 2),
                "queue depth may never exceed max_queued: {tenants:?}"
            );
        }
        let Response::Status { tenants, .. } = scheduler.status() else {
            panic!("status must render counters")
        };
        assert_eq!(
            tenants
                .iter()
                .map(|t| (t.name.as_str(), t.queued, t.rejected, t.max_queued))
                .collect::<Vec<_>>(),
            vec![("t", 2, 1, Some(2))],
            "one submit over quota, billed to the tenant's rejection counter"
        );
        drop(parked);
        let lines = drain_lines(&session);
        assert!(
            lines.contains(&Response::Rejected {
                id: "t3".into(),
                reason: "queue_full:2".into(),
            }),
            "the over-quota submit must be answered deterministically: {lines:?}"
        );
        assert_eq!(
            result_order(&lines),
            vec!["t0".to_string(), "t1".into(), "t2".into()],
            "admitted jobs still run to completion; the rejected one never does"
        );
    }

    #[test]
    fn an_inflight_quota_gates_dispatch_without_rejecting() {
        let quotas = QuotaConfig::parse("a=-:1:-").expect("quota parses");
        let scheduler =
            Arc::new(Scheduler::new(ThroughputPool::from_jobs(2), 2).with_quotas(quotas));
        let session = Arc::new(SessionHandle::new(21));
        let parked = park_pool(scheduler.pool());
        scheduler.submit(spec("a0", "a", 1), &session);
        scheduler.submit(spec("a1", "a", 1), &session);
        let Response::Status {
            queued, inflight, ..
        } = scheduler.status()
        else {
            panic!("status must render counters")
        };
        assert_eq!(
            (queued, inflight),
            (1, 1),
            "global capacity is 2 but the tenant may only occupy 1 slot"
        );
        drop(parked);
        let lines = drain_lines(&session);
        assert_eq!(
            result_order(&lines),
            vec!["a0".to_string(), "a1".into()],
            "the gated job dispatches once the first completes — never rejected"
        );
    }

    #[test]
    fn a_pinned_quota_weight_overrides_the_submit_weight() {
        // Same shape as the stride test above, but tenant `b` asks for
        // weight 1 and the quota pins it to 3 — the burst order must match
        // the weight-3 run exactly.
        let quotas = QuotaConfig::parse("b=-:-:3").expect("quota parses");
        let scheduler =
            Arc::new(Scheduler::new(ThroughputPool::from_jobs(1), 1).with_quotas(quotas));
        let session = Arc::new(SessionHandle::new(22));
        let parked = park_pool(scheduler.pool());
        scheduler.submit(spec("plug", "z", 1), &session);
        for j in 0..4 {
            scheduler.submit(spec(&format!("a{j}"), "a", 1), &session);
        }
        for j in 0..4 {
            scheduler.submit(spec(&format!("b{j}"), "b", 1), &session);
        }
        drop(parked);
        let order = result_order(&drain_lines(&session));
        let expected: Vec<String> = ["plug", "a0", "b0", "b1", "b2", "b3", "a1", "a2", "a3"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(order, expected, "the pinned weight must drive the stride");
    }

    #[test]
    fn completion_rate_is_windowed_not_a_decaying_lifetime_average() {
        let scheduler = Arc::new(Scheduler::new(ThroughputPool::from_jobs(1), 1));
        let session = Arc::new(SessionHandle::new(23));
        scheduler.submit(spec("r0", "t", 1), &session);
        scheduler.submit(spec("r1", "t", 1), &session);
        let _ = drain_lines(&session);
        scheduler.wait_idle();
        let Response::Status { rate_mjps, .. } = scheduler.status() else {
            panic!("status must render counters")
        };
        assert!(
            rate_mjps.unwrap() > 0,
            "jobs just completed, so the windowed rate must be positive"
        );
        std::thread::sleep(RATE_WINDOW + Duration::from_millis(150));
        let Response::Status { rate_mjps, .. } = scheduler.status() else {
            panic!("status must render counters")
        };
        assert_eq!(
            rate_mjps,
            Some(0),
            "an idle daemon reports zero, not completed/uptime decaying forever"
        );
    }

    #[test]
    fn resumable_sessions_mint_unguessable_unique_tokens() {
        let plain = SessionHandle::new(7);
        assert_eq!(plain.token(), None);
        let tokens: Vec<String> = (0..256)
            .map(|_| {
                // The same session id every time: the token must not derive
                // from it.
                SessionHandle::resumable(7)
                    .expect("the random source is readable")
                    .token()
                    .expect("resumable sessions carry a token")
                    .to_string()
            })
            .collect();
        for token in &tokens {
            let hex = token.strip_prefix("sess-").expect("tokens start sess-");
            assert_eq!(hex.len(), 32, "128 bits in hex: {token}");
            assert!(
                hex.bytes()
                    .all(|b| b.is_ascii_digit() || (b'a'..=b'f').contains(&b)),
                "lowercase hex only: {token}"
            );
        }
        let mut unique = tokens.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), tokens.len(), "no token repeats");
    }

    /// `spec` with `n` elements: at most 64 runs inline, 65 does not.
    fn sized(id: &str, tenant: &str, n: usize) -> JobSpec {
        JobSpec {
            n,
            ..spec(id, tenant, 1)
        }
    }

    /// `(queued, inflight)` from the status line.
    fn load(scheduler: &Scheduler) -> (usize, usize) {
        let Response::Status {
            queued, inflight, ..
        } = scheduler.status()
        else {
            panic!("status must render counters")
        };
        (queued, inflight)
    }

    #[test]
    fn the_size_bound_admits_n_64_and_refuses_n_65() {
        assert!(runs_inline(&sized("j", "t", 64)), "64·63/2 = 2016 pairs");
        assert!(!runs_inline(&sized("j", "t", 65)), "65·64/2 = 2080 pairs");
        assert!(!runs_inline(&sized("j", "t", 2000)));
    }

    #[test]
    fn a_small_job_runs_on_the_submitting_thread() {
        // The pool is parked, so a result that is already queued when
        // `submit_here` returns was computed on this thread.
        let scheduler = Arc::new(Scheduler::new(ThroughputPool::from_jobs(1), 1));
        let session = Arc::new(SessionHandle::new(30));
        let parked = park_pool(scheduler.pool());
        let small = sized("small", "t", 64);
        scheduler.submit_here(small.clone(), &session);
        assert_eq!(session.outbox().len(), 2, "accepted and result are queued");
        assert_eq!(load(&scheduler), (0, 0), "the slot is already released");
        drop(parked);
        assert_eq!(
            Response::parse(&session.outbox().pop().unwrap()),
            Ok(Response::Accepted { id: "small".into() })
        );
        let run = run_job(&small, Duration::ZERO, None);
        assert_eq!(session.outbox().pop(), Some(render_result(&small, &run)));
    }

    #[test]
    fn a_job_above_the_bound_goes_to_the_pool() {
        let scheduler = Arc::new(Scheduler::new(ThroughputPool::from_jobs(1), 1));
        let session = Arc::new(SessionHandle::new(31));
        let parked = park_pool(scheduler.pool());
        scheduler.submit_here(sized("big", "t", 65), &session);
        assert_eq!(session.outbox().len(), 1, "only `accepted` so far");
        assert_eq!(load(&scheduler), (0, 1), "dispatched, waiting on the pool");
        drop(parked);
        assert_eq!(
            result_order(&drain_lines(&session)),
            vec!["big".to_string()]
        );
    }

    #[test]
    fn a_small_job_queues_behind_a_full_slot_count() {
        let scheduler = Arc::new(Scheduler::new(ThroughputPool::from_jobs(1), 1));
        let session = Arc::new(SessionHandle::new(32));
        let parked = park_pool(scheduler.pool());
        scheduler.submit_here(sized("big", "t", 65), &session);
        scheduler.submit_here(sized("small", "u", 16), &session);
        assert_eq!(load(&scheduler), (1, 1), "the one slot is taken");
        assert_eq!(session.outbox().len(), 2, "two `accepted`, no result");
        drop(parked);
        assert_eq!(
            result_order(&drain_lines(&session)),
            vec!["big".to_string(), "small".into()],
            "the queued small job is answered after the pool job"
        );
    }

    #[test]
    fn a_tenant_at_its_inflight_quota_is_not_run_inline() {
        let quotas = QuotaConfig::parse("a=-:1:-").expect("quota parses");
        let scheduler =
            Arc::new(Scheduler::new(ThroughputPool::from_jobs(1), 2).with_quotas(quotas));
        let session = Arc::new(SessionHandle::new(33));
        let parked = park_pool(scheduler.pool());
        scheduler.submit_here(sized("a0", "a", 65), &session);
        scheduler.submit_here(sized("a1", "a", 16), &session);
        assert_eq!(
            load(&scheduler),
            (1, 1),
            "a slot is free, but tenant a may only occupy one"
        );
        scheduler.submit_here(sized("b0", "b", 16), &session);
        assert_eq!(session.outbox().len(), 4, "b0 ran inline in the free slot");
        drop(parked);
        assert_eq!(
            result_order(&drain_lines(&session)),
            vec!["b0".to_string(), "a0".into(), "a1".into()]
        );
    }

    #[test]
    fn the_last_completion_releases_wait_idle() {
        let scheduler = Arc::new(Scheduler::new(ThroughputPool::from_jobs(1), 1));
        let session = Arc::new(SessionHandle::new(34));
        let parked = park_pool(scheduler.pool());
        scheduler.submit(spec("j0", "t", 1), &session);
        scheduler.submit(spec("j1", "t", 1), &session);
        let idle = {
            let scheduler = Arc::clone(&scheduler);
            std::thread::spawn(move || scheduler.wait_idle())
        };
        std::thread::sleep(Duration::from_millis(20));
        assert!(!idle.is_finished(), "two jobs are still outstanding");
        drop(parked);
        let deadline = Instant::now() + Duration::from_secs(10);
        while !idle.is_finished() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(idle.is_finished(), "wait_idle missed the last completion");
        idle.join().unwrap();
        let _ = drain_lines(&session);
    }

    #[test]
    fn draining_rejects_new_submits() {
        let scheduler = Arc::new(Scheduler::new(ThroughputPool::from_jobs(1), 2));
        let session = Arc::new(SessionHandle::new(2));
        scheduler.start_draining();
        scheduler.submit(spec("late", "t", 1), &session);
        scheduler.wait_idle();
        let lines = drain_lines(&session);
        assert!(
            matches!(lines.as_slice(), [Response::Error { .. }]),
            "a draining daemon must reject submits: {lines:?}"
        );
    }
}
