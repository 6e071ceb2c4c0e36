//! Pool instrumentation: the threaded backend really runs on several OS
//! threads, and still answers exactly like the sequential backend.

use ecs_model::{ComparisonSession, EquivalenceOracle, ExecutionBackend, ReadMode};
use std::collections::HashSet;
use std::sync::{Condvar, Mutex};
use std::thread::ThreadId;
use std::time::Duration;

/// A pure oracle that records the OS thread of every `same` call. Two chunks
/// rendezvous inside `same`: each call registers its thread and briefly waits
/// until two distinct threads have been seen (with a timeout so a broken,
/// secretly-sequential pool fails the assertion instead of hanging).
struct ThreadRecordingOracle {
    labels: Vec<u32>,
    ids: Mutex<HashSet<ThreadId>>,
    seen_two: Condvar,
    /// Whether calls should wait for a second thread to appear; disabled for
    /// the sequential control (which would otherwise wait out the timeout on
    /// every call).
    rendezvous: bool,
}

impl ThreadRecordingOracle {
    fn new(labels: Vec<u32>, rendezvous: bool) -> Self {
        Self {
            labels,
            ids: Mutex::new(HashSet::new()),
            seen_two: Condvar::new(),
            rendezvous,
        }
    }

    fn distinct_threads(&self) -> usize {
        self.ids.lock().unwrap().len()
    }
}

impl EquivalenceOracle for ThreadRecordingOracle {
    fn n(&self) -> usize {
        self.labels.len()
    }

    fn same(&self, a: usize, b: usize) -> bool {
        let mut ids = self.ids.lock().unwrap();
        ids.insert(std::thread::current().id());
        self.seen_two.notify_all();
        while self.rendezvous && ids.len() < 2 {
            let (guard, timeout) = self
                .seen_two
                .wait_timeout(ids, Duration::from_secs(5))
                .unwrap();
            ids = guard;
            if timeout.timed_out() {
                break;
            }
        }
        drop(ids);
        self.labels[a] == self.labels[b]
    }
}

#[test]
fn threaded_round_evaluation_uses_at_least_two_os_threads() {
    let n = 100_000;
    let labels: Vec<u32> = (0..n as u32).map(|i| i % 5).collect();
    let pairs: Vec<(usize, usize)> = (0..n / 2).map(|i| (2 * i, 2 * i + 1)).collect();

    let recording = ThreadRecordingOracle::new(labels.clone(), true);
    let mut threaded = ComparisonSession::with_backend(
        &recording,
        ReadMode::Exclusive,
        ExecutionBackend::threaded(4),
    );
    let answers = threaded.execute_round(&pairs);

    assert!(
        recording.distinct_threads() >= 2,
        "Threaded{{4}} evaluated the round on {} thread(s); expected >= 2",
        recording.distinct_threads()
    );

    // The main thread only spawns the shards and waits on the scope latch;
    // every comparison runs on pool workers.
    assert!(
        !recording
            .ids
            .lock()
            .unwrap()
            .contains(&std::thread::current().id()),
        "round comparisons unexpectedly ran on the submitting thread"
    );

    // And the answers (plus charged metrics) are exactly the sequential ones.
    let plain = ThreadRecordingOracle::new(labels, false);
    let mut sequential =
        ComparisonSession::with_backend(&plain, ReadMode::Exclusive, ExecutionBackend::Sequential);
    let expected = sequential.execute_round(&pairs);
    assert_eq!(answers, expected);
    assert_eq!(threaded.metrics(), sequential.metrics());
}

#[test]
fn sequential_backend_stays_on_the_calling_thread() {
    let labels: Vec<u32> = (0..10_000u32).map(|i| i % 3).collect();
    let pairs: Vec<(usize, usize)> = (0..5_000).map(|i| (2 * i, 2 * i + 1)).collect();
    let recording = ThreadRecordingOracle::new(labels, false);
    let mut session = ComparisonSession::with_backend(
        &recording,
        ReadMode::Exclusive,
        ExecutionBackend::Sequential,
    );
    let _ = session.execute_round(&pairs);
    let ids = recording.ids.lock().unwrap();
    assert_eq!(ids.len(), 1);
    assert!(ids.contains(&std::thread::current().id()));
}
