//! Offline stand-in for the `rayon` crate — now a real thread pool.
//!
//! The build environment for this workspace has no crates.io access, so this
//! shim provides the subset of rayon's API the workspace uses, under the same
//! crate name. Unlike its first incarnation (which forwarded `par_iter()` to
//! plain sequential `std` iterators), it is backed by a genuine
//! **work-stealing pool of OS threads**:
//!
//! * [`ThreadPoolBuilder`] / [`ThreadPool`] — configurable worker count,
//!   `install` to scope parallel iterators to a pool;
//! * [`scope`] / [`ThreadPool::scope`] with [`Scope::spawn`] and
//!   [`Scope::spawn_fifo`] — borrowed task spawning; FIFO-spawned tasks start
//!   in strict submission order via a pool-wide injector queue, giving
//!   round-robin fairness across interleaved job sources;
//! * [`ThreadPool::spawn`] / [`ThreadPool::spawn_fifo`] — detached `'static`
//!   task spawning for long-lived daemons, with per-task panic containment;
//! * `prelude::{par_iter, into_par_iter}` over slices and integer ranges,
//!   with `map`, `with_min_len`, `for_each` and `collect`;
//! * chunked dispatch with **deterministic in-order collection**: results are
//!   bit-identical to sequential evaluation for every thread count;
//! * panic propagation: a panic inside a parallel closure is caught on the
//!   worker and resumed on the calling thread after the batch drains.
//!
//! Swapping in the real crate requires no source changes anywhere in the
//! workspace. See [`pool`] for the pool design and the soundness argument
//! for the crate's single `unsafe` block.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod iter;
pub mod pool;

pub use pool::{
    current_num_threads, scope, Scope, ThreadPool, ThreadPoolBuildError, ThreadPoolBuilder,
};

/// The rayon prelude: traits that add `par_iter` / `into_par_iter` and the
/// iterator adapters.
pub mod prelude {
    pub use crate::iter::{
        FromParallelIterator, IndexedSource, IntoParallelIterator, IntoParallelRefIterator,
        ParallelIterator,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::{current_num_threads, ThreadPoolBuilder};
    use std::collections::HashSet;
    use std::sync::{Condvar, Mutex};
    use std::thread::ThreadId;
    use std::time::Duration;

    fn pool(threads: usize) -> super::ThreadPool {
        ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("pool builds")
    }

    #[test]
    fn par_iter_matches_iter() {
        let v = vec![1u32, 2, 3, 4];
        let doubled: Vec<u32> = v.par_iter().map(|&x| x * 2).collect();
        assert_eq!(doubled, vec![2, 4, 6, 8]);
    }

    #[test]
    fn into_par_iter_on_ranges() {
        let squares: Vec<usize> = (0..5usize).into_par_iter().map(|i| i * i).collect();
        assert_eq!(squares, vec![0, 1, 4, 9, 16]);
    }

    #[test]
    fn par_iter_on_slices() {
        let pairs: &[(usize, usize)] = &[(0, 1), (2, 3)];
        let sums: Vec<usize> = pairs.par_iter().map(|&(a, b)| a + b).collect();
        assert_eq!(sums, vec![1, 5]);
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let p = pool(4);
        let out: Vec<u64> = p.install(|| (0..0u64).into_par_iter().map(|x| x + 1).collect());
        assert!(out.is_empty());
        let empty: &[u32] = &[];
        let out: Vec<u32> = p.install(|| empty.par_iter().map(|&x| x).collect());
        assert!(out.is_empty());
    }

    #[test]
    fn len_smaller_than_thread_count() {
        let p = pool(8);
        let out: Vec<usize> = p.install(|| (0..3usize).into_par_iter().map(|i| i * 10).collect());
        assert_eq!(out, vec![0, 10, 20]);
    }

    #[test]
    fn len_not_divisible_by_chunk_size() {
        // 4 workers * 4 chunks each = 16 target chunks; 1_000_003 is prime,
        // so the last chunk is ragged and every boundary is exercised.
        let p = pool(4);
        let n = 1_000_003usize;
        let out: Vec<usize> = p.install(|| {
            (0..n)
                .into_par_iter()
                .map(|i| i.wrapping_mul(2654435761))
                .collect()
        });
        assert_eq!(out.len(), n);
        let expected: Vec<usize> = (0..n).map(|i| i.wrapping_mul(2654435761)).collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn with_min_len_respects_ordering() {
        let p = pool(4);
        let out: Vec<usize> = p.install(|| {
            (0..10_000usize)
                .into_par_iter()
                .with_min_len(64)
                .map(|i| i + 1)
                .collect()
        });
        assert_eq!(out, (1..=10_000).collect::<Vec<_>>());
    }

    #[test]
    fn results_identical_across_pool_sizes() {
        let input: Vec<u64> = (0..100_000u64).collect();
        let reference: Vec<u64> = input.iter().map(|&x| x ^ (x << 7)).collect();
        for threads in [1, 2, 3, 8] {
            let p = pool(threads);
            let out: Vec<u64> = p.install(|| input.par_iter().map(|&x| x ^ (x << 7)).collect());
            assert_eq!(out, reference, "thread count {threads} changed results");
        }
    }

    #[test]
    fn panic_in_worker_propagates_to_caller() {
        let p = pool(4);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _: Vec<usize> = p.install(|| {
                (0..100_000usize)
                    .into_par_iter()
                    .map(|i| {
                        if i == 67_890 {
                            panic!("boom at {i}");
                        }
                        i
                    })
                    .collect()
            });
        }));
        let payload = result.expect_err("panic must propagate");
        let message = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(message.contains("boom at 67890"), "payload: {message}");
        // The pool survives the panic and remains usable.
        let out: Vec<usize> = p.install(|| (0..10usize).into_par_iter().map(|i| i).collect());
        assert_eq!(out, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn work_runs_on_multiple_os_threads() {
        struct Rendezvous {
            ids: Mutex<HashSet<ThreadId>>,
            seen_two: Condvar,
        }
        let rendezvous = Rendezvous {
            ids: Mutex::new(HashSet::new()),
            seen_two: Condvar::new(),
        };
        let p = pool(4);
        // Each chunk registers its thread id, then blocks until two distinct
        // ids have been seen (with a timeout so a broken, sequential pool
        // fails the assertion instead of hanging).
        let out: Vec<usize> = p.install(|| {
            (0..100_000usize)
                .into_par_iter()
                .map(|i| {
                    let mut ids = rendezvous.ids.lock().unwrap();
                    ids.insert(std::thread::current().id());
                    rendezvous.seen_two.notify_all();
                    while ids.len() < 2 {
                        let (guard, timeout) = rendezvous
                            .seen_two
                            .wait_timeout(ids, Duration::from_secs(5))
                            .unwrap();
                        ids = guard;
                        if timeout.timed_out() {
                            break;
                        }
                    }
                    i
                })
                .collect()
        });
        assert_eq!(out.len(), 100_000);
        let distinct = rendezvous.ids.lock().unwrap().len();
        assert!(
            distinct >= 2,
            "expected >= 2 worker threads, saw {distinct}"
        );
    }

    #[test]
    fn install_scopes_the_current_pool() {
        let p2 = pool(2);
        let p3 = pool(3);
        p2.install(|| {
            assert_eq!(current_num_threads(), 2);
            p3.install(|| assert_eq!(current_num_threads(), 3));
            assert_eq!(current_num_threads(), 2);
        });
        assert_eq!(p2.current_num_threads(), 2);
    }

    #[test]
    fn for_each_visits_everything() {
        let p = pool(4);
        let sum = std::sync::atomic::AtomicU64::new(0);
        p.install(|| {
            (0..10_000u64).into_par_iter().for_each(|i| {
                sum.fetch_add(i, std::sync::atomic::Ordering::Relaxed);
            })
        });
        assert_eq!(sum.load(std::sync::atomic::Ordering::Relaxed), 49_995_000);
    }

    #[test]
    fn builder_reports_thread_count_and_drop_joins() {
        let p = pool(5);
        assert_eq!(p.current_num_threads(), 5);
        drop(p); // must not hang
    }

    #[test]
    fn scope_runs_every_spawned_task_before_returning() {
        let p = pool(4);
        let hits = Mutex::new(Vec::new());
        p.scope(|s| {
            for i in 0..100usize {
                let hits = &hits;
                s.spawn(move |_| {
                    hits.lock().unwrap().push(i);
                });
            }
        });
        let mut seen = hits.into_inner().unwrap();
        seen.sort_unstable();
        assert_eq!(seen, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn spawn_fifo_executes_in_submission_order_on_one_worker() {
        // With a single worker the injector queue's strict FIFO start order
        // is also the completion order, so it is directly observable.
        let p = pool(1);
        let order = Mutex::new(Vec::new());
        p.scope(|s| {
            for i in 0..50usize {
                let order = &order;
                s.spawn_fifo(move |_| {
                    order.lock().unwrap().push(i);
                });
            }
        });
        assert_eq!(order.into_inner().unwrap(), (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn scope_tasks_can_spawn_more_tasks() {
        let p = pool(3);
        let count = std::sync::atomic::AtomicUsize::new(0);
        p.scope(|s| {
            for _ in 0..10 {
                let count = &count;
                s.spawn(move |inner| {
                    count.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    inner.spawn_fifo(move |_| {
                        count.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    });
                });
            }
        });
        assert_eq!(count.load(std::sync::atomic::Ordering::Relaxed), 20);
    }

    #[test]
    fn scope_propagates_task_panics_after_draining() {
        let p = pool(4);
        let completed = std::sync::atomic::AtomicUsize::new(0);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            p.scope(|s| {
                for i in 0..20usize {
                    let completed = &completed;
                    s.spawn_fifo(move |_| {
                        if i == 7 {
                            panic!("scope task boom");
                        }
                        completed.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    });
                }
            });
        }));
        let payload = result.expect_err("task panic must propagate");
        let message = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert!(message.contains("scope task boom"), "payload: {message}");
        // Every non-panicking task still ran: the scope drains before
        // unwinding, so borrowed state is never observed mid-flight.
        assert_eq!(completed.load(std::sync::atomic::Ordering::Relaxed), 19);
        // The pool survives and remains usable.
        let out: Vec<usize> = p.install(|| (0..5usize).into_par_iter().map(|i| i).collect());
        assert_eq!(out, (0..5).collect::<Vec<_>>());
    }

    #[test]
    fn free_scope_uses_installed_pool() {
        let p = pool(2);
        let sum = std::sync::atomic::AtomicU64::new(0);
        p.install(|| {
            super::scope(|s| {
                for i in 1..=10u64 {
                    let sum = &sum;
                    s.spawn_fifo(move |_| {
                        sum.fetch_add(i, std::sync::atomic::Ordering::Relaxed);
                    });
                }
            });
        });
        assert_eq!(sum.load(std::sync::atomic::Ordering::Relaxed), 55);
    }

    #[test]
    fn scope_from_another_pools_worker_uses_target_pool_threads() {
        // A worker of pool A opening a scope on pool B must queue the tasks
        // to B (whose workers are free to drain them while A's worker blocks
        // on the latch), not degrade to inline serial execution. Observable
        // deterministically: the spawning worker never executes B's tasks,
        // so every task thread id must differ from the spawner's.
        let a = pool(1);
        let b = pool(2);
        let checked = std::sync::atomic::AtomicBool::new(false);
        // One task on A's (only) worker, which then opens a scope on B.
        a.scope(|outer| {
            let b = &b;
            let checked = &checked;
            outer.spawn(move |_| {
                let spawner = std::thread::current().id();
                let ids = Mutex::new(Vec::new());
                b.scope(|s| {
                    for _ in 0..10 {
                        let ids = &ids;
                        s.spawn_fifo(move |_| {
                            ids.lock().unwrap().push(std::thread::current().id());
                        });
                    }
                });
                let ids = ids.into_inner().unwrap();
                assert_eq!(ids.len(), 10);
                assert!(
                    ids.iter().all(|&id| id != spawner),
                    "tasks ran inline on the spawning worker instead of pool B"
                );
                checked.store(true, std::sync::atomic::Ordering::Relaxed);
            });
        });
        assert!(checked.load(std::sync::atomic::Ordering::Relaxed));
    }

    #[test]
    fn nested_batch_on_another_pool_uses_that_pools_threads() {
        // A worker of pool A evaluating a par_iter installed on pool B must
        // dispatch the chunks to B (observable: no chunk runs on the
        // spawning worker), not degrade to inline sequential evaluation.
        // Results must be identical either way.
        let a = pool(1);
        let b = pool(2);
        let checked = std::sync::atomic::AtomicBool::new(false);
        a.scope(|outer| {
            let b = &b;
            let checked = &checked;
            outer.spawn(move |_| {
                let spawner = std::thread::current().id();
                let chunk_ids = Mutex::new(HashSet::new());
                let out: Vec<u64> = b.install(|| {
                    (0..10_000u64)
                        .into_par_iter()
                        .map(|i| {
                            chunk_ids
                                .lock()
                                .unwrap()
                                .insert(std::thread::current().id());
                            i * 3
                        })
                        .collect()
                });
                assert_eq!(out, (0..10_000u64).map(|i| i * 3).collect::<Vec<_>>());
                let ids = chunk_ids.into_inner().unwrap();
                assert!(
                    !ids.contains(&spawner),
                    "chunks ran inline on pool A's worker instead of pool B"
                );
                checked.store(true, std::sync::atomic::Ordering::Relaxed);
            });
        });
        assert!(checked.load(std::sync::atomic::Ordering::Relaxed));
    }

    #[test]
    fn detached_spawns_run_and_survive_panics() {
        let p = pool(2);
        let (tx, rx) = std::sync::mpsc::channel();
        for i in 0..20usize {
            let tx = tx.clone();
            if i % 5 == 0 {
                // A panicking detached task must not kill its worker.
                p.spawn(move || panic!("detached boom {i}"));
            }
            p.spawn_fifo(move || tx.send(i).unwrap());
        }
        drop(tx);
        let mut seen: Vec<usize> = rx.iter().collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..20).collect::<Vec<_>>());
        // Workers survived every panic and the pool still runs batches.
        let out: Vec<usize> = p.install(|| (0..8usize).into_par_iter().map(|i| i).collect());
        assert_eq!(out, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn detached_fifo_spawns_start_in_submission_order() {
        let p = pool(1);
        let order = std::sync::Arc::new(Mutex::new(Vec::new()));
        let (tx, rx) = std::sync::mpsc::channel();
        for i in 0..32usize {
            let order = std::sync::Arc::clone(&order);
            let tx = tx.clone();
            p.spawn_fifo(move || {
                order.lock().unwrap().push(i);
                tx.send(()).unwrap();
            });
        }
        drop(tx);
        for _ in 0..32 {
            rx.recv_timeout(Duration::from_secs(30)).unwrap();
        }
        assert_eq!(order.lock().unwrap().clone(), (0..32).collect::<Vec<_>>());
    }

    #[test]
    fn scope_inside_parallel_iterator_runs_inline_without_deadlock() {
        // A worker that opens a scope must not block on work that only it
        // could execute; inline execution makes this safe even on pool(1).
        let p = pool(1);
        let total: Vec<u64> = p.install(|| {
            (0..8u64)
                .into_par_iter()
                .map(|i| {
                    let acc = std::sync::atomic::AtomicU64::new(0);
                    super::scope(|s| {
                        for j in 0..4u64 {
                            let acc = &acc;
                            s.spawn_fifo(move |_| {
                                acc.fetch_add(i * 10 + j, std::sync::atomic::Ordering::Relaxed);
                            });
                        }
                    });
                    acc.load(std::sync::atomic::Ordering::Relaxed)
                })
                .collect()
        });
        let expected: Vec<u64> = (0..8u64).map(|i| 4 * (i * 10) + 6).collect();
        assert_eq!(total, expected);
    }
}
