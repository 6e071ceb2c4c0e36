//! Decomposing comparison sets into legal exclusive-read rounds.
//!
//! In the ER model each element may appear in at most one comparison per
//! round, so a set of desired comparisons (a multigraph on the elements) must
//! be split into matchings. Vizing's theorem guarantees `Δ + 1` matchings
//! suffice for a simple graph of maximum degree `Δ`; the greedy edge-colouring
//! below achieves at most `2Δ − 1` colours, which is enough for every use in
//! this workspace because the paper's algorithms only ever need the bound to
//! be `O(Δ)` (e.g. Theorem 2 schedules a `k × k` bipartite comparison pattern
//! in `O(k)` rounds).

/// Greedily partitions the given comparison pairs into exclusive-read rounds.
///
/// Each returned round is a matching: no element appears twice within it.
/// Duplicate pairs are preserved (they end up in different rounds); self
/// pairs `(x, x)` are rejected.
///
/// # Panics
///
/// Panics if any pair compares an element with itself.
pub fn schedule_er(pairs: &[(usize, usize)]) -> Vec<Vec<(usize, usize)>> {
    let mut rounds: Vec<Vec<(usize, usize)>> = Vec::new();
    // For each round, the set of elements already used. A HashSet per round
    // keeps the structure sparse; rounds are expected to be few (O(Δ)).
    let mut used: Vec<std::collections::HashSet<usize>> = Vec::new();
    for &(a, b) in pairs {
        assert_ne!(a, b, "cannot schedule a self-comparison ({a}, {a})");
        let slot = (0..rounds.len())
            .find(|&r| !used[r].contains(&a) && !used[r].contains(&b))
            .unwrap_or_else(|| {
                rounds.push(Vec::new());
                used.push(std::collections::HashSet::new());
                rounds.len() - 1
            });
        rounds[slot].push((a, b));
        used[slot].insert(a);
        used[slot].insert(b);
    }
    rounds
}

/// Schedules the complete bipartite comparison pattern between `left` and
/// `right` as exclusive-read rounds using the round-robin rotation of
/// [`bipartite_round`].
///
/// This is the schedule behind Theorem 2's merge step: comparing one
/// representative of each of `≤ k` classes on one side with each of `≤ k`
/// classes on the other side takes at most `max(|left|, |right|)` rounds.
///
/// Elements may not appear on both sides.
pub fn bipartite_rounds(left: &[usize], right: &[usize]) -> Vec<Vec<(usize, usize)>> {
    if left.is_empty() || right.is_empty() {
        return Vec::new();
    }
    debug_assert!(
        left.iter().all(|x| !right.contains(x)),
        "bipartite schedule requires disjoint sides"
    );
    (0..left.len().max(right.len()))
        .map(|r| {
            bipartite_round(left.len(), right.len(), r)
                .map(|(a, b)| (left[a], right[b]))
                .collect()
        })
        .collect()
}

/// Round `r` of the complete bipartite schedule between a side of `left`
/// and a side of `right` elements, as `(left index, right index)` pairs:
/// the smaller side's `i`-th element meets the larger side's
/// `(i + r) mod len`-th, so every pair appears once over
/// `max(left, right)` rounds. Empty from round `max(left, right)` on, and
/// when either side is.
pub fn bipartite_round(
    left: usize,
    right: usize,
    r: usize,
) -> impl Iterator<Item = (usize, usize)> {
    let width = if r < left.max(right) {
        left.min(right)
    } else {
        0
    };
    (0..width).map(move |i| {
        if left <= right {
            (i, (i + r) % right)
        } else {
            ((i + r) % left, i)
        }
    })
}

/// The maximum multiplicity of any element in the pair list (the maximum
/// degree `Δ` of the comparison multigraph) — a lower bound on the number of
/// ER rounds any schedule needs.
pub fn max_degree(pairs: &[(usize, usize)]) -> usize {
    let mut degree: std::collections::HashMap<usize, usize> = std::collections::HashMap::new();
    for &(a, b) in pairs {
        *degree.entry(a).or_insert(0) += 1;
        *degree.entry(b).or_insert(0) += 1;
    }
    degree.values().copied().max().unwrap_or(0)
}

/// Splits a comparison batch into chunks of at most `processors` comparisons,
/// preserving order — the charging rule when an algorithm asks for a wider
/// round than the machine has processors.
pub fn split_by_width(pairs: &[(usize, usize)], processors: usize) -> Vec<Vec<(usize, usize)>> {
    assert!(processors > 0, "need at least one processor");
    pairs
        .chunks(processors)
        .map(|chunk| chunk.to_vec())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn is_matching(round: &[(usize, usize)]) -> bool {
        let mut seen = std::collections::HashSet::new();
        for &(a, b) in round {
            if a == b || !seen.insert(a) || !seen.insert(b) {
                return false;
            }
        }
        true
    }

    #[test]
    fn empty_input_empty_schedule() {
        assert!(schedule_er(&[]).is_empty());
        assert_eq!(max_degree(&[]), 0);
    }

    #[test]
    fn disjoint_pairs_fit_one_round() {
        let pairs = [(0, 1), (2, 3), (4, 5)];
        let rounds = schedule_er(&pairs);
        assert_eq!(rounds.len(), 1);
        assert_eq!(rounds[0].len(), 3);
    }

    #[test]
    fn star_needs_degree_many_rounds() {
        // All pairs share element 0, so each needs its own round.
        let pairs = [(0, 1), (0, 2), (0, 3), (0, 4)];
        let rounds = schedule_er(&pairs);
        assert_eq!(rounds.len(), 4);
        assert_eq!(max_degree(&pairs), 4);
    }

    #[test]
    #[should_panic(expected = "self-comparison")]
    fn self_pairs_rejected() {
        let _ = schedule_er(&[(3, 3)]);
    }

    #[test]
    fn duplicate_pairs_go_to_separate_rounds() {
        let rounds = schedule_er(&[(0, 1), (0, 1)]);
        assert_eq!(rounds.len(), 2);
    }

    #[test]
    fn bipartite_square_pattern() {
        let left = [0, 1, 2];
        let right = [3, 4, 5];
        let rounds = bipartite_rounds(&left, &right);
        assert_eq!(rounds.len(), 3);
        for round in &rounds {
            assert!(is_matching(round));
            assert_eq!(round.len(), 3);
        }
        // All 9 pairs appear exactly once.
        let mut all: Vec<(usize, usize)> = rounds.iter().flatten().copied().collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 9);
    }

    #[test]
    fn bipartite_rectangular_pattern() {
        let left = [0, 1];
        let right = [2, 3, 4, 5];
        let rounds = bipartite_rounds(&left, &right);
        assert_eq!(rounds.len(), 4, "rounds should equal the larger side");
        let mut all: Vec<(usize, usize)> = rounds.iter().flatten().copied().collect();
        for round in &rounds {
            assert!(is_matching(round));
        }
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 8, "every cross pair appears exactly once");
        // Pairs must keep (left, right) orientation.
        assert!(all
            .iter()
            .all(|&(a, b)| left.contains(&a) && right.contains(&b)));
    }

    #[test]
    fn bipartite_empty_side() {
        assert!(bipartite_rounds(&[], &[1, 2]).is_empty());
        assert!(bipartite_rounds(&[1, 2], &[]).is_empty());
        assert_eq!(bipartite_round(0, 3, 0).count(), 0);
        assert_eq!(bipartite_round(2, 3, 3).count(), 0, "past the last round");
    }

    #[test]
    fn bipartite_rotation_keeps_the_larger_side_moving() {
        let rounds: Vec<Vec<(usize, usize)>> =
            (0..3).map(|r| bipartite_round(3, 2, r).collect()).collect();
        assert_eq!(
            rounds,
            vec![
                vec![(0, 0), (1, 1)],
                vec![(1, 0), (2, 1)],
                vec![(2, 0), (0, 1)]
            ]
        );
        assert_eq!(
            bipartite_rounds(&[10, 11], &[20, 21, 22])[1],
            vec![(10, 21), (11, 22)]
        );
    }

    #[test]
    fn split_by_width_chunks() {
        let pairs: Vec<(usize, usize)> = (0..10).map(|i| (2 * i, 2 * i + 1)).collect();
        let split = split_by_width(&pairs, 4);
        assert_eq!(split.len(), 3);
        assert_eq!(split[0].len(), 4);
        assert_eq!(split[2].len(), 2);
    }

    #[test]
    #[should_panic(expected = "at least one processor")]
    fn split_by_zero_width_panics() {
        let _ = split_by_width(&[(0, 1)], 0);
    }

    proptest! {
        #[test]
        fn greedy_schedule_is_valid_and_complete(
            raw in proptest::collection::vec((0usize..30, 0usize..30), 0..150)
        ) {
            let pairs: Vec<(usize, usize)> = raw
                .into_iter()
                .filter(|(a, b)| a != b)
                .collect();
            let rounds = schedule_er(&pairs);
            // Every round is a matching.
            for round in &rounds {
                prop_assert!(is_matching(round));
            }
            // All pairs are preserved as a multiset.
            let mut original = pairs.clone();
            let mut scheduled: Vec<(usize, usize)> = rounds.into_iter().flatten().collect();
            original.sort_unstable();
            scheduled.sort_unstable();
            prop_assert_eq!(original, scheduled);
        }

        #[test]
        fn greedy_round_count_is_linear_in_degree(
            raw in proptest::collection::vec((0usize..20, 0usize..20), 1..100)
        ) {
            let pairs: Vec<(usize, usize)> = raw
                .into_iter()
                .filter(|(a, b)| a != b)
                .collect();
            prop_assume!(!pairs.is_empty());
            let rounds = schedule_er(&pairs);
            let delta = max_degree(&pairs);
            prop_assert!(rounds.len() >= delta.div_ceil(2));
            prop_assert!(rounds.len() <= 2 * delta.max(1));
        }

        #[test]
        fn bipartite_covers_product(
            l in 1usize..8,
            r in 1usize..8,
        ) {
            let left: Vec<usize> = (0..l).collect();
            let right: Vec<usize> = (100..100 + r).collect();
            let rounds = bipartite_rounds(&left, &right);
            prop_assert_eq!(rounds.len(), l.max(r));
            let mut all: Vec<(usize, usize)> = rounds.iter().flatten().copied().collect();
            all.sort_unstable();
            all.dedup();
            prop_assert_eq!(all.len(), l * r);
            for round in &rounds {
                prop_assert!(is_matching(round));
            }
        }
    }
}
