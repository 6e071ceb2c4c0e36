//! An adaptive smallest-class *search* runner for the Theorem 6 workload.
//!
//! Theorem 6 lower-bounds the cost of *finding one member* of the smallest
//! equivalence class. [`SmallestClassSearch`] is the matching upper-bound
//! player: a wave-parallel representative search that classifies the universe
//! block by block, then reports a member of the smallest class it found. The
//! interesting property for this workspace is its round structure — each
//! phase submits one comparison round whose pairs depend on the answers of
//! every earlier phase, making it a genuinely *adaptive* workload for the
//! adversaries' round-commit protocol (unlike the fixed schedules of
//! `ecs_core`, whose round `r + 1` is a pure function of round `r`'s answers
//! within a static template).
//!
//! ## Round structure
//!
//! Elements are scanned in blocks of `wave`. Phase `r` submits a single
//! round containing, in canonical order:
//!
//! 1. **links** — `(rep, x)` for every element `x` of the block against
//!    every representative discovered before the phase;
//! 2. **intra-block pairs** — every pair inside the block, so elements that
//!    match none of the old representatives can still be grouped with the
//!    *new* classes founded earlier in the same block;
//! 3. under [`SmallestClassSearch::with_audit`], **audit repeats** — every
//!    earlier block's intra-block pairs, re-asked verbatim.
//!
//! The audit repeats are deliberately repeat-heavy: their endpoints are old
//! non-representative elements that acquire no new facts after their own
//! block's phase (representatives, by contrast, are endpoints of fresh link
//! pairs every phase, so *their* plan-cache entries are invalidated at every
//! commit). Against the incremental plan cache, audit replays therefore die
//! out after one revalidation while the charged cost — which the model
//! counts per served query — is identical in both plan modes. That contrast
//! is exactly what the `incremental_planning` benchmarks and the
//! `--search` lower-bound table measure.

use ecs_model::{
    ComparisonSession, EquivalenceOracle, ExecutionBackend, Metrics, Partition, ReadMode,
};

/// A wave-parallel adaptive search for a member of the smallest equivalence
/// class (the Theorem 6 task), built on block-scan representative discovery.
#[derive(Debug, Clone, Copy)]
pub struct SmallestClassSearch {
    wave: usize,
    audit: bool,
}

/// What a [`SmallestClassSearch`] run found and what it cost.
#[derive(Debug, Clone)]
pub struct SearchReport {
    /// An element of the smallest class discovered (the smallest element of
    /// the first such class in representative-discovery order).
    pub witness: usize,
    /// Size of the smallest class.
    pub class_size: usize,
    /// Number of equivalence classes discovered.
    pub classes: usize,
    /// Number of block phases (= comparison rounds submitted).
    pub phases: u64,
    /// The session's charged cost — identical whichever plan mode the oracle
    /// runs, and whichever backend executed the rounds.
    pub metrics: Metrics,
    /// The full classification the search derived along the way.
    pub partition: Partition,
}

impl SmallestClassSearch {
    /// Creates the search with block width `wave` (the number of new
    /// elements classified per phase).
    ///
    /// # Panics
    ///
    /// Panics if `wave == 0`.
    pub fn new(wave: usize) -> Self {
        assert!(wave >= 1, "block width must be positive");
        Self { wave, audit: false }
    }

    /// Enables audit mode: every phase re-asks all earlier blocks'
    /// intra-block pairs. The repeats are charged like any served query (the
    /// report's metrics grow accordingly) but their answers are already
    /// settled, which makes the workload a stress test for the incremental
    /// plan cache.
    pub fn with_audit(mut self) -> Self {
        self.audit = true;
        self
    }

    /// The block width.
    pub fn wave(&self) -> usize {
        self.wave
    }

    /// Whether audit repeats are enabled.
    pub fn audit(&self) -> bool {
        self.audit
    }

    /// Runs the search against `oracle` on `backend` and reports a member of
    /// the smallest class plus the full derived classification.
    ///
    /// The session uses concurrent reads (a representative appears in many
    /// pairs per round) and `n` processors, the paper's standard budget.
    ///
    /// # Panics
    ///
    /// Panics if the oracle's universe is empty.
    pub fn run<O: EquivalenceOracle>(&self, oracle: &O, backend: ExecutionBackend) -> SearchReport {
        let n = oracle.n();
        assert!(n > 0, "cannot search an empty universe");
        let mut session = ComparisonSession::with_processors_and_backend(
            oracle,
            ReadMode::Concurrent,
            n,
            backend,
        );

        // reps[c] founded class c; class_of uses usize::MAX for "not yet".
        let mut reps: Vec<usize> = Vec::new();
        let mut class_of = vec![usize::MAX; n];
        let mut audit_pairs: Vec<(usize, usize)> = Vec::new();
        let mut pairs: Vec<(usize, usize)> = Vec::new();
        let mut phases = 0u64;

        let mut start = 0;
        while start < n {
            let end = (start + self.wave).min(n);
            let width = end - start;
            phases += 1;

            let prior_reps = reps.len();
            pairs.clear();
            for x in start..end {
                for &r in &reps {
                    pairs.push((r, x));
                }
            }
            let link_count = pairs.len();
            for i in start..end {
                for j in (i + 1)..end {
                    pairs.push((i, j));
                }
            }
            let intra_count = pairs.len() - link_count;
            if self.audit {
                pairs.extend_from_slice(&audit_pairs);
            }

            let answers = session.execute_round(&pairs);
            let links = &answers[..link_count];
            let intra = &answers[link_count..link_count + intra_count];
            // Index of pair (start + i, start + j), i < j, in the intra
            // segment (row-major upper triangle of the block).
            let intra_idx = |i: usize, j: usize| i * width - i * (i + 1) / 2 + (j - i - 1);

            for bi in 0..width {
                let x = start + bi;
                let my_links = &links[bi * prior_reps..(bi + 1) * prior_reps];
                if let Some(ri) = my_links.iter().position(|&same| same) {
                    class_of[x] = ri;
                    continue;
                }
                // No old class matched: try the classes founded earlier in
                // this very block, through the intra-block answers.
                let fresh = reps[prior_reps..]
                    .iter()
                    .position(|&y| intra[intra_idx(y - start, bi)]);
                match fresh {
                    Some(offset) => class_of[x] = prior_reps + offset,
                    None => {
                        class_of[x] = reps.len();
                        reps.push(x);
                    }
                }
            }

            if self.audit {
                audit_pairs.extend((start..end).flat_map(|i| ((i + 1)..end).map(move |j| (i, j))));
            }
            start = end;
        }

        let partition = Partition::from_labels(&class_of);
        let sizes = partition.class_sizes();
        let mut counts = vec![0usize; reps.len()];
        for &c in &class_of {
            counts[c] += 1;
        }
        let class_size = *counts.iter().min().expect("at least one class");
        let smallest = counts
            .iter()
            .position(|&s| s == class_size)
            .expect("a class of minimum size");
        let witness = reps[smallest];
        debug_assert_eq!(sizes.iter().min().copied(), Some(class_size));

        SearchReport {
            witness,
            class_size,
            classes: reps.len(),
            phases,
            metrics: session.into_metrics(),
            partition,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SmallestClassAdversary;
    use ecs_model::{Instance, InstanceOracle};

    /// A deterministic instance with the given class sizes, classes
    /// round-robin-interleaved across element positions so every scan block
    /// mixes classes.
    fn instance_from_sizes(sizes: &[usize]) -> Instance {
        let n: usize = sizes.iter().sum();
        let mut remaining = sizes.to_vec();
        let mut labels = Vec::with_capacity(n);
        let mut c = 0;
        while labels.len() < n {
            if remaining[c] > 0 {
                labels.push(c);
                remaining[c] -= 1;
            }
            c = (c + 1) % sizes.len();
        }
        Instance::from_labels(&labels)
    }

    #[test]
    #[should_panic(expected = "block width must be positive")]
    fn rejects_zero_wave() {
        let _ = SmallestClassSearch::new(0);
    }

    #[test]
    fn recovers_a_known_instance_exactly() {
        let instance = instance_from_sizes(&[3, 7, 5, 9, 1, 6]);
        let oracle = InstanceOracle::new(&instance);
        for wave in [1, 4, 16, 64] {
            let report = SmallestClassSearch::new(wave).run(&oracle, ExecutionBackend::Sequential);
            assert_eq!(report.partition, *instance.ground_truth(), "wave={wave}");
            assert_eq!(report.class_size, 1, "wave={wave}");
            assert_eq!(report.classes, 6, "wave={wave}");
            assert!(
                instance.ground_truth().class_sizes()
                    [instance.ground_truth().label_of(report.witness)]
                    == 1,
                "wave={wave}: witness {} is not in the smallest class",
                report.witness
            );
        }
    }

    #[test]
    fn audit_mode_changes_cost_but_not_the_answer() {
        let instance = instance_from_sizes(&[2, 5, 5, 4]);
        let oracle = InstanceOracle::new(&instance);
        let plain = SmallestClassSearch::new(4).run(&oracle, ExecutionBackend::Sequential);
        let audited = SmallestClassSearch::new(4)
            .with_audit()
            .run(&oracle, ExecutionBackend::Sequential);
        assert_eq!(plain.partition, audited.partition);
        assert_eq!(plain.witness, audited.witness);
        assert_eq!(plain.phases, audited.phases);
        assert!(
            audited.metrics.comparisons() > plain.metrics.comparisons(),
            "audit repeats must be charged"
        );
    }

    #[test]
    fn pins_the_adversary_smallest_class() {
        for &(n, ell, wave) in &[(96usize, 4usize, 8usize), (120, 3, 16)] {
            let adversary = SmallestClassAdversary::new(n, ell);
            let report =
                SmallestClassSearch::new(wave).run(&adversary, ExecutionBackend::Sequential);
            assert_eq!(report.partition, adversary.partition(), "n={n}, ell={ell}");
            assert_eq!(report.class_size, ell, "n={n}, ell={ell}");
            assert!(
                adversary.smallest_class_pinned(),
                "n={n}, ell={ell}: the search finished without pinning the class"
            );
            assert!(
                adversary.comparisons() >= adversary.paper_lower_bound(),
                "n={n}, ell={ell}: {} < {}",
                adversary.comparisons(),
                adversary.paper_lower_bound()
            );
        }
    }

    #[test]
    fn backends_and_plan_modes_agree_bit_for_bit() {
        let backends = [
            ExecutionBackend::Sequential,
            ExecutionBackend::Threaded {
                threads: 2,
                threshold: 1,
            },
        ];
        let reference: Option<(Partition, u64, Metrics)> = None;
        let mut reference = reference;
        for backend in backends {
            for full in [false, true] {
                let adversary = SmallestClassAdversary::new(72, 3);
                let adversary = if full {
                    adversary.with_full_replan()
                } else {
                    adversary
                };
                let report = SmallestClassSearch::new(8)
                    .with_audit()
                    .run(&adversary, backend);
                let sample = (
                    report.partition.clone(),
                    adversary.comparisons(),
                    report.metrics.clone(),
                );
                match &reference {
                    None => reference = Some(sample),
                    Some(r) => assert_eq!(
                        *r, sample,
                        "backend {backend:?}, full_replan={full} diverged"
                    ),
                }
            }
        }
    }

    #[test]
    fn audit_replays_die_out_against_the_plan_cache() {
        let adversary = SmallestClassAdversary::new(96, 4);
        let report = SmallestClassSearch::new(8)
            .with_audit()
            .run(&adversary, ExecutionBackend::Sequential);
        let stats = adversary.plan_stats();
        let served: u64 = report.metrics.comparisons();
        assert!(
            stats.replayed < served,
            "cached rounds must replay strictly fewer entries than they serve: {stats:?} vs {served}"
        );
        assert!(
            stats.cached > 0,
            "audit repeats never hit the cache: {stats:?}"
        );

        // The full-replan baseline replays every occurrence.
        let baseline = SmallestClassAdversary::new(96, 4).with_full_replan();
        let base_report = SmallestClassSearch::new(8)
            .with_audit()
            .run(&baseline, ExecutionBackend::Sequential);
        assert_eq!(report.partition, base_report.partition);
        assert_eq!(report.metrics, base_report.metrics);
        assert!(
            baseline.plan_stats().replayed > stats.replayed,
            "incremental planning did not reduce replays: {:?} vs {stats:?}",
            baseline.plan_stats()
        );
    }
}
