//! Cooperative cancellation for in-flight equivalence-sort jobs.
//!
//! Algorithms own their [`crate::ComparisonSession`]s internally, so a
//! service cannot reach into a running sort to stop it. What every algorithm
//! *does* do is query its oracle — so cancellation is delivered through the
//! oracle: [`CancellableOracle`] wraps any [`EquivalenceOracle`] and checks a
//! shared [`CancellationToken`] at every round boundary and query, panicking
//! with the typed [`Cancelled`] payload the moment the token trips. A job
//! runner that executes the sort under `catch_unwind` classifies the payload
//! with [`crate::throughput::JobPanic::from_payload`] to distinguish
//! "cancelled on request" from a genuine failure.
//!
//! Checks happen on every call the wrapper forwards. A round-based algorithm
//! is checked once per round on the calling thread (at round open and at its
//! one `same_batch` call) and per pair when a round is sharded on the pool; a
//! sequential algorithm is checked per comparison (or per `same_row` row). So
//! a cancelled job stops within one round, and a job that is *not* cancelled
//! is observationally untouched: the wrapper forwards every call verbatim,
//! keeping partitions and [`crate::Metrics`] bit-identical to the unwrapped
//! oracle.

use crate::oracle::EquivalenceOracle;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// A shared, clonable cancellation flag. Cloning is cheap (an `Arc` bump);
/// all clones observe the same state.
#[derive(Debug, Clone, Default)]
pub struct CancellationToken {
    cancelled: Arc<AtomicBool>,
}

impl CancellationToken {
    /// A fresh, untripped token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Trips the token: every [`CancellableOracle`] sharing it will panic
    /// with [`Cancelled`] at its next check. Idempotent.
    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::Release);
    }

    /// Whether the token has been tripped.
    pub fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::Acquire)
    }
}

/// The panic payload of a cancelled job. Job runners downcast unwind
/// payloads to this type to report "cancelled" instead of "failed".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cancelled;

impl std::fmt::Display for Cancelled {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job cancelled")
    }
}

/// Whether an unwind payload (from `catch_unwind`) is a cooperative
/// cancellation rather than a genuine panic.
pub fn is_cancellation(payload: &(dyn std::any::Any + Send)) -> bool {
    payload.is::<Cancelled>()
}

/// An oracle wrapper that aborts the surrounding sort (by panicking with
/// [`Cancelled`]) once its token trips.
///
/// # Example
///
/// ```
/// use ecs_model::{CancellableOracle, CancellationToken, EquivalenceOracle, LabelOracle};
///
/// let token = CancellationToken::new();
/// let oracle = CancellableOracle::new(LabelOracle::new(vec![0, 0, 1]), token.clone());
/// assert!(oracle.same(0, 1)); // not cancelled: answers flow through
/// token.cancel();
/// let unwound = std::panic::catch_unwind(|| oracle.same(0, 1));
/// assert!(ecs_model::cancellation::is_cancellation(&*unwound.unwrap_err()));
/// ```
#[derive(Debug)]
pub struct CancellableOracle<O> {
    inner: O,
    token: CancellationToken,
}

impl<O: EquivalenceOracle> CancellableOracle<O> {
    /// Wraps `inner`, aborting queries once `token` is cancelled.
    pub fn new(inner: O, token: CancellationToken) -> Self {
        Self { inner, token }
    }

    /// The wrapped oracle.
    pub fn inner(&self) -> &O {
        &self.inner
    }

    /// The token this wrapper observes.
    pub fn token(&self) -> &CancellationToken {
        &self.token
    }

    fn check(&self) {
        if self.token.is_cancelled() {
            std::panic::panic_any(Cancelled);
        }
    }
}

impl<O: EquivalenceOracle> EquivalenceOracle for CancellableOracle<O> {
    fn n(&self) -> usize {
        self.inner.n()
    }

    fn same(&self, a: usize, b: usize) -> bool {
        self.check();
        self.inner.same(a, b)
    }

    fn same_batch(&self, pairs: &[(usize, usize)]) -> Vec<bool> {
        self.check();
        self.inner.same_batch(pairs)
    }

    fn same_row(&self, a: usize, others: Range<usize>, out: &mut Vec<u64>) {
        self.check();
        self.inner.same_row(a, others, out);
    }

    fn round_opened(&self, pairs: &[(usize, usize)]) {
        self.check();
        self.inner.round_opened(pairs);
    }

    fn round_closed(&self) {
        self.inner.round_closed();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::LabelOracle;

    #[test]
    fn token_state_is_shared_between_clones() {
        let token = CancellationToken::new();
        let clone = token.clone();
        assert!(!token.is_cancelled());
        clone.cancel();
        assert!(token.is_cancelled());
        token.cancel(); // idempotent
        assert!(clone.is_cancelled());
    }

    #[test]
    fn untripped_token_is_fully_transparent() {
        let inner = LabelOracle::new(vec![0, 0, 1, 1]);
        let wrapped =
            CancellableOracle::new(LabelOracle::new(vec![0, 0, 1, 1]), CancellationToken::new());
        assert_eq!(wrapped.n(), 4);
        for a in 0..4 {
            for b in 0..4 {
                if a != b {
                    assert_eq!(wrapped.same(a, b), inner.same(a, b));
                }
            }
        }
        let pairs = [(0usize, 1usize), (1, 2), (2, 3)];
        assert_eq!(wrapped.same_batch(&pairs), inner.same_batch(&pairs));
        let (mut wrapped_row, mut inner_row) = (Vec::new(), Vec::new());
        wrapped.same_row(0, 1..4, &mut wrapped_row);
        inner.same_row(0, 1..4, &mut inner_row);
        assert_eq!(wrapped_row, inner_row);
    }

    #[test]
    fn tripped_token_aborts_every_query_path() {
        let token = CancellationToken::new();
        let oracle = CancellableOracle::new(LabelOracle::new(vec![0, 1]), token.clone());
        token.cancel();
        for outcome in [
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let _ = oracle.same(0, 1);
            })),
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let _ = oracle.same_batch(&[(0, 1)]);
            })),
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                oracle.same_row(0, 1..2, &mut Vec::new());
            })),
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                oracle.round_opened(&[(0, 1)]);
            })),
            // Raised on a pool worker, resumed on the caller.
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let pooled = crate::ExecutionBackend::Threaded {
                    threads: 2,
                    threshold: 1,
                };
                let _ = pooled.evaluate(&oracle, &[(0, 1), (1, 0)]);
            })),
        ] {
            let payload = outcome.expect_err("a cancelled oracle must abort");
            assert!(is_cancellation(&*payload), "payload must be Cancelled");
        }
    }

    #[test]
    fn cancellation_payload_is_distinguishable_from_panics() {
        let unwound = std::panic::catch_unwind(|| panic!("ordinary failure")).unwrap_err();
        assert!(!is_cancellation(&*unwound));
    }
}
