//! Comparison transcripts and classification certificates.
//!
//! In the comparison model, an algorithm's output is only justified by the
//! answers it received: two elements may be declared equivalent only if a
//! chain of "equal" answers connects them, and two classes may be declared
//! different only if some "not equal" answer separates them. A [`Transcript`]
//! records every test an algorithm performed, and
//! [`Transcript::certifies`] checks that a claimed partition is *the unique
//! partition consistent with the transcript* — i.e. that the algorithm did
//! not guess. The integration tests run every algorithm in the workspace
//! through a [`RecordingOracle`] and assert exactly this.

use crate::oracle::EquivalenceOracle;
use crate::partition::Partition;
use ecs_graph::UnionFind;
use parking_lot::Mutex;

/// A record of answered equivalence tests.
#[derive(Debug, Clone, Default)]
pub struct Transcript {
    entries: Vec<(u32, u32, bool)>,
}

impl Transcript {
    /// An empty transcript.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one answered test.
    pub fn record(&mut self, a: usize, b: usize, same: bool) {
        self.entries.push((a as u32, b as u32, same));
    }

    /// Number of recorded tests.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over the recorded tests.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, bool)> + '_ {
        self.entries
            .iter()
            .map(|&(a, b, s)| (a as usize, b as usize, s))
    }

    /// Checks that every recorded answer agrees with the given partition.
    pub fn consistent_with(&self, partition: &Partition) -> bool {
        self.iter()
            .all(|(a, b, same)| partition.same_class(a, b) == same)
    }

    /// The partition of `0..n` generated by the "equal" answers alone (the
    /// transitive closure of certified equivalences).
    pub fn certified_equalities(&self, n: usize) -> Partition {
        let mut uf = UnionFind::new(n);
        for (a, b, same) in self.iter() {
            if same {
                uf.union(a, b);
            }
        }
        Partition::from_labels(&uf.labels())
    }

    /// Checks that `claimed` is the **unique** partition of `0..n` consistent
    /// with this transcript:
    ///
    /// 1. every recorded answer agrees with `claimed`;
    /// 2. every claimed equivalence is certified by a chain of "equal"
    ///    answers (the claimed partition equals [`Self::certified_equalities`]);
    /// 3. every pair of distinct claimed classes is separated by at least one
    ///    recorded "not equal" answer.
    ///
    /// Together these mean no other partition explains the same transcript,
    /// so the algorithm that produced it genuinely *knew* the answer.
    pub fn certifies(&self, n: usize, claimed: &Partition) -> bool {
        if claimed.len() != n {
            return false;
        }
        if !self.consistent_with(claimed) {
            return false;
        }
        if &self.certified_equalities(n) != claimed {
            return false;
        }
        // Every pair of claimed classes needs a separating answer.
        let k = claimed.num_classes();
        if k <= 1 {
            return true;
        }
        let mut separated = vec![false; k * k];
        for (a, b, same) in self.iter() {
            if !same {
                let (ca, cb) = (claimed.label_of(a), claimed.label_of(b));
                separated[ca * k + cb] = true;
                separated[cb * k + ca] = true;
            }
        }
        for ca in 0..k {
            for cb in (ca + 1)..k {
                if !separated[ca * k + cb] {
                    return false;
                }
            }
        }
        true
    }
}

/// Wraps any oracle and records every answered test into a [`Transcript`].
#[derive(Debug)]
pub struct RecordingOracle<O> {
    inner: O,
    transcript: Mutex<Transcript>,
}

impl<O: EquivalenceOracle> RecordingOracle<O> {
    /// Wraps an oracle.
    pub fn new(inner: O) -> Self {
        Self {
            inner,
            transcript: Mutex::new(Transcript::new()),
        }
    }

    /// A snapshot of the transcript recorded so far.
    pub fn transcript(&self) -> Transcript {
        self.transcript.lock().clone()
    }

    /// Consumes the wrapper and returns the transcript.
    pub fn into_transcript(self) -> Transcript {
        self.transcript.into_inner()
    }

    /// The wrapped oracle.
    pub fn inner(&self) -> &O {
        &self.inner
    }

    /// Records every pair with its answer, in pair order.
    fn record_all(&self, pairs: &[(usize, usize)], answers: Vec<bool>) -> Vec<bool> {
        let mut transcript = self.transcript.lock();
        for (&(a, b), &answer) in pairs.iter().zip(&answers) {
            transcript.record(a, b, answer);
        }
        answers
    }
}

impl<O: EquivalenceOracle> EquivalenceOracle for RecordingOracle<O> {
    fn n(&self) -> usize {
        self.inner.n()
    }

    fn same(&self, a: usize, b: usize) -> bool {
        let answer = self.inner.same(a, b);
        self.transcript.lock().record(a, b, answer);
        answer
    }

    fn same_batch(&self, pairs: &[(usize, usize)]) -> Vec<bool> {
        // Delegate the whole wave (so an inner batch override is not
        // silently defeated), then record every pair with its answer.
        self.record_all(pairs, self.inner.same_batch(pairs))
    }

    fn same_sequence(&self, pairs: &[(usize, usize)]) -> Vec<bool> {
        self.record_all(pairs, self.inner.same_sequence(pairs))
    }

    fn round_opened(&self, pairs: &[(usize, usize)]) {
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

    fn transcript_of(entries: &[(usize, usize, bool)]) -> Transcript {
        let mut t = Transcript::new();
        for &(a, b, s) in entries {
            t.record(a, b, s);
        }
        t
    }

    #[test]
    fn empty_transcript_certifies_only_singletons_of_one_element() {
        let t = Transcript::new();
        assert!(t.is_empty());
        // With one element there is nothing to prove.
        assert!(t.certifies(1, &Partition::singletons(1)));
        // With two elements an empty transcript cannot distinguish the two
        // possible partitions.
        assert!(!t.certifies(2, &Partition::singletons(2)));
        assert!(!t.certifies(2, &Partition::from_labels(&[0, 0])));
    }

    #[test]
    fn consistency_check() {
        let p = Partition::from_labels(&[0, 0, 1]);
        let good = transcript_of(&[(0, 1, true), (0, 2, false)]);
        let bad = transcript_of(&[(0, 1, false)]);
        assert!(good.consistent_with(&p));
        assert!(!bad.consistent_with(&p));
    }

    #[test]
    fn certification_requires_equality_chains() {
        // Claimed: {0,1,2} together, but only 0-1 was ever answered equal.
        let claimed = Partition::from_labels(&[0, 0, 0]);
        let t = transcript_of(&[(0, 1, true)]);
        assert!(t.consistent_with(&claimed));
        assert!(!t.certifies(3, &claimed), "2 was never linked to the class");
        // Adding the missing link certifies it.
        let t = transcript_of(&[(0, 1, true), (1, 2, true)]);
        assert!(t.certifies(3, &claimed));
    }

    #[test]
    fn certification_requires_separations() {
        // Claimed: {0,1} and {2,3}, but the two classes were never compared.
        let claimed = Partition::from_labels(&[0, 0, 1, 1]);
        let t = transcript_of(&[(0, 1, true), (2, 3, true)]);
        assert!(!t.certifies(4, &claimed));
        let t = transcript_of(&[(0, 1, true), (2, 3, true), (1, 2, false)]);
        assert!(t.certifies(4, &claimed));
    }

    #[test]
    fn certification_rejects_wrong_length_or_inconsistent_claims() {
        let t = transcript_of(&[(0, 1, true)]);
        assert!(!t.certifies(3, &Partition::from_labels(&[0, 0])));
        assert!(!t.certifies(2, &Partition::from_labels(&[0, 1])));
    }

    #[test]
    fn certified_equalities_builds_the_union() {
        let t = transcript_of(&[(0, 1, true), (3, 4, true), (1, 2, false)]);
        let p = t.certified_equalities(5);
        assert!(p.same_class(0, 1));
        assert!(p.same_class(3, 4));
        assert!(!p.same_class(0, 2));
        assert_eq!(p.num_classes(), 3);
    }

    #[test]
    fn recording_oracle_captures_batched_waves_via_the_inner_override() {
        let oracle = RecordingOracle::new(LabelOracle::new(vec![0, 0, 1]));
        let answers = oracle.same_batch(&[(0, 1), (1, 2)]);
        assert_eq!(answers, vec![true, false]);
        let entries: Vec<_> = oracle.transcript().iter().collect();
        assert_eq!(entries, vec![(0, 1, true), (1, 2, false)]);
    }

    #[test]
    fn recording_oracle_captures_every_call() {
        let oracle = RecordingOracle::new(LabelOracle::new(vec![0, 0, 1]));
        assert!(oracle.same(0, 1));
        assert!(!oracle.same(1, 2));
        let t = oracle.transcript();
        assert_eq!(t.len(), 2);
        let entries: Vec<_> = t.iter().collect();
        assert_eq!(entries, vec![(0, 1, true), (1, 2, false)]);
        assert_eq!(oracle.n(), 3);
        // The answers certify the true partition.
        assert!(oracle
            .into_transcript()
            .certifies(3, &Partition::from_labels(&[0, 0, 1])));
    }
}
