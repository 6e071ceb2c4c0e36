//! Coalescing concurrent scalar oracle queries into batch waves.
//!
//! [`crate::ExecutionBackend::Batched`] batches within one session: a round
//! arrives as a slice and is cut into [`EquivalenceOracle::same_batch`]
//! waves. [`crate::ThroughputPool`] workloads are the opposite shape — many
//! concurrent jobs, each issuing *scalar* [`EquivalenceOracle::same`] calls
//! against a shared oracle. For an oracle whose cost is dominated by a
//! per-request fixed cost (a service round trip, a seek into a disk-resident
//! partition), those scalar calls are exactly the `m` blocking round trips
//! the paper's query-charged cost model warns about.
//!
//! [`BatchingOracle`] closes that gap: it wraps any oracle and coalesces
//! concurrent `same` calls into `same_batch` waves. Callers enqueue their
//! pair under a mutex; the wave is flushed by whichever caller fills it, by
//! *any* parked contributor once the wave's shared linger deadline fires (so
//! a lone caller is never blocked on peers that will not arrive, and no wave
//! depends on one specific thread being schedulable), or explicitly via
//! [`BatchingOracle::flush_pending`] by a driver that knows no further
//! queries are coming. While parked on an in-flight wave, a pool worker does
//! not sleep its OS thread: it *helps* — draining other pending pool tasks
//! through the rayon shim's `try_help` — so slow oracles never stall pool
//! workers, and peers queued behind the parked worker get to run and join
//! the very wave it is waiting on. Waves are evaluated one at a time in
//! formation order
//! (condvar-gated, under the state lock), and pairs keep their arrival order
//! within a wave, so the inner oracle observes a deterministic wave
//! discipline: a serial caller sees exactly the scalar call sequence, and
//! every caller always receives the answer the scalar path would have given
//! — which is what keeps partitions and [`crate::Metrics`] bit-identical to
//! unbatched runs (each job's session charges its own metrics before its
//! queries ever reach the adapter).
//!
//! A panic inside the inner oracle during a flush (e.g. one caller's
//! out-of-range pair tripping the batch validation) resumes on the flushing
//! caller; the wave is published as poisoned first, so every other
//! contributor of that wave panics with a clear message instead of hanging
//! on the condvar or collecting answers that were never produced.

use crate::oracle::EquivalenceOracle;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// How long a partial wave is held open for peers before being flushed.
/// Long enough for concurrently-running pool workers to join the wave, short
/// enough to be invisible next to the per-request cost that motivates
/// batching in the first place. Overridable per adapter with
/// [`BatchingOracle::with_linger`] and from the CLI with `--linger-us`.
pub const DEFAULT_LINGER: Duration = Duration::from_micros(200);

/// An adapter that coalesces concurrent [`EquivalenceOracle::same`] calls
/// into [`EquivalenceOracle::same_batch`] waves.
///
/// # Example
///
/// ```
/// use ecs_model::{BatchingOracle, EquivalenceOracle, LabelOracle};
///
/// let inner = LabelOracle::new(vec![0, 0, 1, 1]);
/// let oracle = BatchingOracle::new(inner, 4);
/// assert!(oracle.same(0, 1));
/// assert!(!oracle.same(1, 2));
/// assert_eq!(oracle.waves_flushed(), 2); // lone callers flush after linger
/// ```
pub struct BatchingOracle<O> {
    inner: O,
    wave: usize,
    linger: Duration,
    state: Mutex<WaveState>,
    flushed: Condvar,
    waves: AtomicU64,
    queries: AtomicU64,
    coalesced: AtomicU64,
}

/// The wave currently forming plus the answers of flushed waves that still
/// have uncollected contributors.
struct WaveState {
    /// Identifier of the wave currently forming; bumped at every flush.
    generation: u64,
    /// Pairs of the forming wave, in arrival order.
    pending: Vec<(usize, usize)>,
    /// When the forming wave must be flushed even partially filled. Set by
    /// the wave's opener; *any* contributor that reaches it flushes — the
    /// flush duty is shared, so a wave never depends on one specific thread
    /// being schedulable (the opener may itself be parked helping the pool
    /// run other tasks).
    deadline: Option<Instant>,
    /// Answers of flushed generations, retained until every contributor has
    /// collected its slot.
    completed: HashMap<u64, WaveAnswers>,
}

struct WaveAnswers {
    /// `None` when the wave's evaluation panicked in the inner oracle (e.g.
    /// an out-of-range pair tripping the batch validation): contributors
    /// must observe the failure instead of hanging or reading answers that
    /// were never produced.
    answers: Option<Vec<bool>>,
    uncollected: usize,
}

impl<O: EquivalenceOracle> BatchingOracle<O> {
    /// Wraps `inner`, coalescing up to `wave` concurrent queries per
    /// `same_batch` call, with the default leader linger. As with
    /// [`crate::ExecutionBackend::Batched`], `wave: 0` means *unbounded*
    /// batching — a wave closes only when the leader's linger fires, so it
    /// coalesces everything that arrives within one linger window; `wave: 1`
    /// is scalar passthrough.
    pub fn new(inner: O, wave: usize) -> Self {
        Self::with_linger(inner, wave, DEFAULT_LINGER)
    }

    /// Wraps `inner` with an explicit leader linger — how long the opener of
    /// a wave waits for peers before flushing it partially filled. `linger`
    /// only bounds *added latency*; correctness never depends on it (except
    /// with `wave: 0`, where the linger is the only thing that closes a
    /// wave — a zero linger then degrades to scalar passthrough).
    pub fn with_linger(inner: O, wave: usize, linger: Duration) -> Self {
        Self {
            inner,
            wave,
            linger,
            state: Mutex::new(WaveState {
                generation: 0,
                pending: Vec::new(),
                deadline: None,
                completed: HashMap::new(),
            }),
            flushed: Condvar::new(),
            waves: AtomicU64::new(0),
            queries: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
        }
    }

    /// The wrapped oracle.
    pub fn inner(&self) -> &O {
        &self.inner
    }

    /// Consumes the adapter and returns the wrapped oracle.
    pub fn into_inner(self) -> O {
        self.inner
    }

    /// The configured maximum wave size (`0` = unbounded, waves close on the
    /// linger alone).
    pub fn wave(&self) -> usize {
        self.wave
    }

    /// The configured linger: how long a partial wave is held open for peers
    /// before being flushed.
    pub fn linger(&self) -> Duration {
        self.linger
    }

    /// Number of queries currently parked in the forming wave.
    pub fn pending_queries(&self) -> usize {
        self.lock().pending.len()
    }

    /// Explicitly flushes the forming wave, releasing its parked callers
    /// without waiting for the linger to fire or the wave to fill. Returns
    /// whether a wave was flushed (`false` when nothing was pending).
    ///
    /// This is the event-driven alternative to the wall-clock linger — a
    /// driver that knows no further queries are coming (end of a round, a
    /// drained queue) flushes deterministically instead of paying (and
    /// timing tests against) the linger. A panic in the inner oracle during
    /// the flush resumes on this caller after the wave is published as
    /// poisoned.
    pub fn flush_pending(&self) -> bool {
        let mut state = self.lock();
        if state.pending.is_empty() {
            return false;
        }
        self.flush(&mut state, false);
        true
    }

    /// Number of `same_batch` waves submitted to the inner oracle so far
    /// (including the single-pair waves of lone callers).
    pub fn waves_flushed(&self) -> u64 {
        self.waves.load(Ordering::Relaxed)
    }

    /// Total scalar queries answered through the adapter so far.
    pub fn queries(&self) -> u64 {
        self.queries.load(Ordering::Relaxed)
    }

    /// Number of queries answered as part of a multi-pair wave — the saved
    /// round trips.
    pub fn coalesced_queries(&self) -> u64 {
        self.coalesced.load(Ordering::Relaxed)
    }

    fn lock(&self) -> MutexGuard<'_, WaveState> {
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Evaluates the forming wave against the inner oracle and publishes its
    /// answers. Called with the state lock held, which is what serializes
    /// waves into formation order.
    ///
    /// A panic inside the inner oracle (e.g. an out-of-range pair tripping
    /// the batch validation) is caught, the wave is published as *poisoned*
    /// — generation bumped, followers woken, so they fail loudly in
    /// [`Self::collect`] instead of hanging forever on the condvar or later
    /// collecting a reused generation's answers — and then resumed on the
    /// flushing caller. `flusher_has_slot` records whether the flusher is
    /// itself a contributor of the wave (every in-`same` flush) or an
    /// external driver ([`Self::flush_pending`]) — a poisoned wave must not
    /// wait on a slot its flusher will never collect.
    fn flush(&self, state: &mut WaveState, flusher_has_slot: bool) {
        let pairs = std::mem::take(&mut state.pending);
        state.deadline = None;
        debug_assert!(!pairs.is_empty(), "flushing an empty wave");
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.inner.same_batch(&pairs)
        }));
        let (answers, panic_payload) = match outcome {
            Ok(answers) => {
                debug_assert_eq!(answers.len(), pairs.len());
                self.waves.fetch_add(1, Ordering::Relaxed);
                if pairs.len() > 1 {
                    self.coalesced
                        .fetch_add(pairs.len() as u64, Ordering::Relaxed);
                }
                (Some(answers), None)
            }
            Err(payload) => (None, Some(payload)),
        };
        // A contributing flusher that panics unwinds out of `same` without
        // collecting its slot — account for it here so a poisoned wave's
        // storage is still freed once the followers have observed the
        // failure. An external flusher (`flush_pending`) holds no slot.
        let uncollected = if panic_payload.is_some() && flusher_has_slot {
            pairs.len() - 1
        } else {
            pairs.len()
        };
        if uncollected > 0 {
            state.completed.insert(
                state.generation,
                WaveAnswers {
                    answers,
                    uncollected,
                },
            );
        }
        state.generation += 1;
        self.flushed.notify_all();
        if let Some(payload) = panic_payload {
            std::panic::resume_unwind(payload);
        }
    }

    /// Takes this caller's answer out of a flushed wave, releasing the
    /// wave's storage once every contributor has collected.
    ///
    /// # Panics
    ///
    /// If the wave's evaluation panicked in its flusher, every other
    /// contributor panics here — the query genuinely has no answer.
    fn collect(&self, state: &mut WaveState, generation: u64, index: usize) -> bool {
        let slot = state
            .completed
            .get_mut(&generation)
            .expect("a flushed wave retains its answers until collected");
        let answer = slot.answers.as_ref().map(|answers| answers[index]);
        slot.uncollected -= 1;
        if slot.uncollected == 0 {
            state.completed.remove(&generation);
        }
        answer.expect("batched oracle wave evaluation panicked in another caller")
    }
}

impl<O: EquivalenceOracle> EquivalenceOracle for BatchingOracle<O> {
    fn n(&self) -> usize {
        self.inner.n()
    }

    fn same(&self, a: usize, b: usize) -> bool {
        self.queries.fetch_add(1, Ordering::Relaxed);
        let mut state = self.lock();
        let generation = state.generation;
        let index = state.pending.len();
        state.pending.push((a, b));
        if index == 0 {
            // Wave opener: start the linger clock. The deadline lives in the
            // shared state so *any* contributor can flush when it fires.
            state.deadline = Some(Instant::now() + self.linger);
        }

        if self.wave != 0 && state.pending.len() >= self.wave {
            // This caller filled the wave: flush immediately. (`wave: 0` is
            // unbounded — waves close only when the linger fires or the
            // driver flushes explicitly.)
            self.flush(&mut state, true);
        } else {
            // Parked contributor (opener or follower alike): the wave is in
            // flight and this query has no answer yet. Instead of sleeping
            // the OS thread for the whole wait, a pool worker first *helps*
            // — drains pending pool tasks via `rayon::try_help` with the
            // state lock released — so peers queued behind it can run, join
            // (and possibly fill) this very wave. Whoever reaches the shared
            // deadline flushes; a filling peer flushes early; an explicit
            // `flush_pending` releases everyone. A helped task may re-enter
            // this adapter and even flush a wave it joins — generations keep
            // each caller's answer addressable regardless of who flushed.
            let deadline = state
                .deadline
                .expect("a forming wave always has a deadline");
            while state.generation == generation {
                if Instant::now() >= deadline {
                    self.flush(&mut state, true);
                    break;
                }
                drop(state);
                let helped = rayon::try_help();
                state = self.lock();
                if helped || state.generation != generation {
                    continue;
                }
                let now = Instant::now();
                if now >= deadline {
                    continue;
                }
                state = self
                    .flushed
                    .wait_timeout(state, deadline - now)
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .0;
            }
        }
        self.collect(&mut state, generation, index)
    }

    fn same_batch(&self, pairs: &[(usize, usize)]) -> Vec<bool> {
        // A pre-assembled round needs no coalescing: hand it straight to the
        // inner oracle as one wave (still counted in the stats). The state
        // lock is held across the call so direct batches serialize with
        // scalar-wave flushes — the inner oracle never sees two waves at
        // once, preserving the one-wave-at-a-time discipline even for
        // order-adaptive inner oracles.
        let _waves_serialized = self.lock();
        self.queries
            .fetch_add(pairs.len() as u64, Ordering::Relaxed);
        self.waves.fetch_add(1, Ordering::Relaxed);
        if pairs.len() > 1 {
            self.coalesced
                .fetch_add(pairs.len() as u64, Ordering::Relaxed);
        }
        self.inner.same_batch(pairs)
    }

    fn round_opened(&self, pairs: &[(usize, usize)]) {
        // Round boundaries belong to the adapter's single driving session;
        // forward them so an order-adaptive inner oracle can run its commit
        // protocol. (Coalescing across *several* sessions is only sound for
        // order-independent inner oracles, which ignore the hooks anyway.)
        self.inner.round_opened(pairs);
    }

    fn round_closed(&self) {
        self.inner.round_closed();
    }
}

impl<O: std::fmt::Debug> std::fmt::Debug for BatchingOracle<O> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BatchingOracle")
            .field("inner", &self.inner)
            .field("wave", &self.wave)
            .field("linger", &self.linger)
            .field("waves_flushed", &self.waves.load(Ordering::Relaxed))
            .field("queries", &self.queries.load(Ordering::Relaxed))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::LabelOracle;

    fn labels(n: usize, k: u32) -> Vec<u32> {
        (0..n as u32).map(|i| i % k).collect()
    }

    #[test]
    fn scalar_passthrough_answers_correctly() {
        let oracle = BatchingOracle::with_linger(
            LabelOracle::new(labels(16, 3)),
            1,
            Duration::from_millis(10),
        );
        assert_eq!(oracle.n(), 16);
        for a in 0..16 {
            for b in 0..16 {
                if a != b {
                    assert_eq!(oracle.same(a, b), (a as u32 % 3) == (b as u32 % 3));
                }
            }
        }
        // Wave size 1: every query is its own wave, nothing coalesces.
        assert_eq!(oracle.waves_flushed(), oracle.queries());
        assert_eq!(oracle.coalesced_queries(), 0);
    }

    #[test]
    fn lone_caller_is_released_by_the_linger() {
        // One caller, wave size 8: without the leader linger this would
        // deadlock waiting for seven peers that never arrive.
        let oracle = BatchingOracle::with_linger(
            LabelOracle::new(labels(4, 2)),
            8,
            Duration::from_micros(50),
        );
        assert!(oracle.same(0, 2));
        assert!(!oracle.same(0, 1));
        assert_eq!(oracle.waves_flushed(), 2);
    }

    #[test]
    fn concurrent_callers_coalesce_and_answer_correctly() {
        let n = 64;
        let workers = 4;
        let per_worker = 200;
        let oracle = BatchingOracle::with_linger(
            LabelOracle::new(labels(n, 5)),
            4,
            Duration::from_millis(5),
        );
        let reference = LabelOracle::new(labels(n, 5));
        std::thread::scope(|scope| {
            for w in 0..workers {
                let oracle = &oracle;
                let reference = &reference;
                scope.spawn(move || {
                    for i in 0..per_worker {
                        let a = (w * per_worker + i) % n;
                        let b = (a + 1 + i % (n - 1)) % n;
                        if a != b {
                            assert_eq!(
                                oracle.same(a, b),
                                reference.same(a, b),
                                "coalesced answer diverged for ({a}, {b})"
                            );
                        }
                    }
                });
            }
        });
        // Every query is accounted for and flushed in some wave.
        assert!(oracle.queries() > 0);
        assert!(oracle.waves_flushed() <= oracle.queries());
    }

    #[test]
    fn same_batch_bypasses_coalescing() {
        let oracle = BatchingOracle::new(LabelOracle::new(labels(8, 2)), 4);
        assert_eq!(oracle.same_batch(&[(0, 2), (0, 1)]), vec![true, false]);
        assert_eq!(oracle.waves_flushed(), 1);
        assert_eq!(oracle.queries(), 2);
        assert_eq!(oracle.coalesced_queries(), 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn flusher_panic_propagates_to_the_flushing_caller() {
        let oracle = BatchingOracle::with_linger(LabelOracle::new(vec![0, 1]), 4, Duration::ZERO);
        let _ = oracle.same(0, 7);
    }

    #[test]
    fn followers_of_a_poisoned_wave_fail_instead_of_hanging() {
        // Thread A submits an out-of-range pair and thread B a valid one
        // into the same two-pair wave (the 5s linger guarantees they
        // coalesce; the wave fills long before it fires). Whichever caller
        // flushes panics in the inner batch validation; the *other* must
        // panic too — never hang on the condvar, never read a reused
        // generation's answers.
        let oracle =
            BatchingOracle::with_linger(LabelOracle::new(labels(4, 2)), 2, Duration::from_secs(5));
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::scope(|scope| {
            for &(a, b) in &[(0usize, 99usize), (0, 1)] {
                let oracle = &oracle;
                let tx = tx.clone();
                scope.spawn(move || {
                    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        oracle.same(a, b)
                    }));
                    tx.send((b, outcome.is_err())).unwrap();
                });
            }
            drop(tx);
            let mut outcomes = Vec::new();
            for _ in 0..2 {
                outcomes.push(
                    rx.recv_timeout(Duration::from_secs(30))
                        .expect("a wave contributor hung instead of observing the panic"),
                );
            }
            assert!(
                outcomes
                    .iter()
                    .find(|&&(b, _)| b == 99)
                    .expect("bad-pair caller terminated")
                    .1,
                "the out-of-range query must observe the panic"
            );
        });
    }

    #[test]
    fn accessors_expose_configuration_and_inner() {
        let oracle = BatchingOracle::new(LabelOracle::new(labels(4, 2)), 0);
        assert_eq!(oracle.wave(), 0, "wave 0 means unbounded, as in Batched");
        assert_eq!(oracle.inner().n(), 4);
        assert_eq!(oracle.into_inner().n(), 4);
    }

    #[test]
    fn unbounded_wave_is_released_by_an_explicit_flush() {
        // `wave: 0` matches `ExecutionBackend::Batched { wave: 0 }` in
        // spirit: maximum batching, bounded only by the linger window or an
        // explicit flush. The event-driven path: with a linger far beyond
        // the test timeout, only `flush_pending` can release the parked
        // caller — so a correct answer proves the explicit flush works
        // without timing anything against the wall clock.
        let oracle = BatchingOracle::with_linger(
            LabelOracle::new(labels(6, 3)),
            0,
            Duration::from_secs(600),
        );
        std::thread::scope(|scope| {
            let caller = scope.spawn(|| oracle.same(0, 3));
            while oracle.pending_queries() < 1 {
                std::thread::yield_now();
            }
            assert!(oracle.flush_pending());
            assert!(caller.join().expect("parked caller released"));
        });
        assert!(!oracle.flush_pending(), "nothing left pending");
        assert_eq!(oracle.waves_flushed(), 1);
        assert_eq!(oracle.queries(), 1);
        assert_eq!(oracle.linger(), Duration::from_secs(600));
    }

    #[test]
    fn explicit_flush_releases_a_coalesced_pair_of_callers() {
        // Two callers join one unbounded wave; the driver flushes once both
        // are parked. Event-driven: no linger expiry is involved.
        let oracle = BatchingOracle::with_linger(
            LabelOracle::new(labels(6, 3)),
            0,
            Duration::from_secs(600),
        );
        std::thread::scope(|scope| {
            let first = scope.spawn(|| oracle.same(0, 3));
            let second = scope.spawn(|| oracle.same(0, 1));
            while oracle.pending_queries() < 2 {
                std::thread::yield_now();
            }
            assert!(oracle.flush_pending());
            assert!(first.join().expect("first caller released"));
            assert!(!second.join().expect("second caller released"));
        });
        assert_eq!(oracle.waves_flushed(), 1, "both queries shared one wave");
        assert_eq!(oracle.coalesced_queries(), 2);
    }

    #[test]
    fn a_parked_pool_worker_helps_run_the_peer_that_fills_its_wave() {
        // One-worker pool, wave size 2, linger far beyond the test timeout:
        // job 1 parks its query in a half-full wave; without help-first the
        // only worker would sleep and job 2 (the peer that fills the wave)
        // could never run. With `try_help`, the parked worker runs job 2
        // itself, the wave fills, flushes, and both jobs complete — so mere
        // completion (plus a single coalesced wave) proves the non-blocking
        // wave-park works.
        use std::sync::mpsc;
        use std::sync::Arc;
        let oracle = Arc::new(BatchingOracle::with_linger(
            LabelOracle::new(labels(4, 2)),
            2,
            Duration::from_secs(600),
        ));
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .expect("pool builds");
        let (result_tx, result_rx) = mpsc::channel();
        let (ready_tx, ready_rx) = mpsc::channel::<()>();
        {
            let oracle = Arc::clone(&oracle);
            let result_tx = result_tx.clone();
            pool.spawn_fifo(move || {
                // Wait until job 2 is queued, so the help path is the only
                // way it can ever run.
                ready_rx.recv().unwrap();
                result_tx.send(("first", oracle.same(0, 2))).unwrap();
            });
        }
        {
            let oracle = Arc::clone(&oracle);
            let result_tx = result_tx.clone();
            pool.spawn_fifo(move || {
                result_tx.send(("second", oracle.same(0, 1))).unwrap();
            });
        }
        ready_tx.send(()).unwrap();
        drop(result_tx);
        let mut answers: Vec<(&str, bool)> = Vec::new();
        for _ in 0..2 {
            answers.push(
                result_rx
                    .recv_timeout(Duration::from_secs(30))
                    .expect("a parked worker failed to help its peer"),
            );
        }
        answers.sort_unstable();
        assert_eq!(answers, vec![("first", true), ("second", false)]);
        assert_eq!(oracle.waves_flushed(), 1, "the two queries coalesced");
        assert_eq!(oracle.coalesced_queries(), 2);
    }
}
