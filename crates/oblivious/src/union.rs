//! Oblivious union of requested embedding indices (paper §4.2, step ①).
//!
//! Each FL round the controller receives `K` embedding-row requests from the
//! selected clients and must compute the set of *unique* rows — without
//! revealing, through its memory access pattern, how many duplicates there
//! were or which requests collide. The paper's algorithm is an `O(K²)` linear
//! scan: for every incoming request, the whole result array is scanned with
//! constant-time compare/insert logic. The result array is conservatively
//! sized (`K` slots) so it can never overflow.
//!
//! When `K` is large, the server's read phase splits the requests into
//! evenly-sized chunks (its loop over `fedora_fdp::ChunkPlan`) and runs
//! steps ①–③ chunk by chunk; by parallel composition of DP this preserves
//! ε-FDP, at an accuracy/performance cost that the evaluation (§4.2, chunk
//! size 16K) quantifies. [`requests_scan_cost`] counts the slot visits of
//! that chunked loop.

use crate::select::{ct_eq_u64, select_u64};
use crate::Choice;

/// Sentinel index meaning "empty slot". Real embedding indices must be
/// strictly below this value.
pub const EMPTY_SLOT: u64 = u64::MAX;

/// The result of an oblivious union: a fixed-capacity array of slots, the
/// first [`UnionSet::len_real`] of which hold the distinct requested indices
/// (in first-seen order) and the remainder of which hold [`EMPTY_SLOT`].
///
/// The array length (capacity) is public; the number of real entries is the
/// secret `k_union`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UnionSet {
    slots: Vec<u64>,
    real: usize,
}

impl UnionSet {
    /// Creates an empty union set with capacity for `capacity` entries.
    fn with_capacity(capacity: usize) -> Self {
        UnionSet {
            slots: vec![EMPTY_SLOT; capacity],
            real: 0,
        }
    }

    /// The number of real (non-sentinel) entries — the secret `k_union`.
    ///
    /// The controller treats this value as secret: it is only ever combined
    /// with the FDP mechanism's noise before becoming observable.
    pub fn len_real(&self) -> usize {
        self.real
    }

    /// The real entries, in first-seen order.
    pub fn real_entries(&self) -> &[u64] {
        &self.slots[..self.real]
    }

    /// Obliviously inserts `index`: scans every slot, writing `index` into
    /// the first empty slot iff no earlier slot already holds it. The scan
    /// pattern (every slot, in order) is independent of the data.
    ///
    /// # Panics
    ///
    /// Panics if `index == EMPTY_SLOT` (the sentinel is reserved) — this is a
    /// public property of the input encoding, not a secret-dependent branch.
    fn oblivious_insert(&mut self, index: u64) {
        assert_ne!(index, EMPTY_SLOT, "EMPTY_SLOT sentinel is reserved");
        let mut seen = Choice::FALSE;
        let mut inserted = Choice::FALSE;
        for slot in &mut self.slots {
            let is_empty = ct_eq_u64(*slot, EMPTY_SLOT);
            seen = seen | ct_eq_u64(*slot, index);
            // Insert here iff: slot empty, not seen before, not yet inserted.
            let do_insert = is_empty & !seen & !inserted;
            *slot = select_u64(do_insert, index, *slot);
            inserted = inserted | do_insert;
        }
        // `real` increments iff we inserted. This counter lives inside the
        // secure controller; updating it arithmetically keeps it branch-free.
        self.real += inserted.to_word() as usize;
    }
}

/// Computes the oblivious union of `requests`, sized for `capacity` slots.
///
/// `capacity` is conservatively `requests.len()` in the protocol (a union can
/// never exceed the number of requests), making overflow impossible.
///
/// # Example
///
/// ```
/// use fedora_oblivious::union::oblivious_union;
/// let u = oblivious_union(&[3, 1, 3, 2, 1], 5);
/// assert_eq!(u.len_real(), 3);
/// assert_eq!(u.real_entries(), &[3, 1, 2]);
/// ```
///
/// # Panics
///
/// Panics if `capacity < requests.len()` (the result could overflow) or if
/// any request equals [`EMPTY_SLOT`].
pub fn oblivious_union(requests: &[u64], capacity: usize) -> UnionSet {
    assert!(
        capacity >= requests.len(),
        "union capacity {capacity} below request count {}",
        requests.len()
    );
    let mut set = UnionSet::with_capacity(capacity);
    for &r in requests {
        set.oblivious_insert(r);
    }
    set
}

/// Slot-visit cost of the chunked union: each request in a chunk of size `c`
/// scans `c` slots, so a chunk costs `c²` and the total is `Σ cᵢ²`.
pub fn requests_scan_cost(k: usize, chunk_size: usize) -> u64 {
    let full = (k / chunk_size) as u64;
    let rem = (k % chunk_size) as u64;
    let c = chunk_size as u64;
    full * c * c + rem * rem
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_of_duplicates() {
        let u = oblivious_union(&[42, 7, 42, 38, 42, 38], 6);
        assert_eq!(u.len_real(), 3);
        assert_eq!(u.real_entries(), &[42, 7, 38]);
        assert_eq!(&u.slots[3..], &[EMPTY_SLOT; 3]);
    }

    #[test]
    fn union_all_unique() {
        let reqs: Vec<u64> = (0..32).collect();
        let u = oblivious_union(&reqs, 32);
        assert_eq!(u.len_real(), 32);
        assert_eq!(u.real_entries(), &reqs[..]);
    }

    #[test]
    fn union_all_same() {
        let u = oblivious_union(&[5; 100], 100);
        assert_eq!(u.len_real(), 1);
        assert_eq!(u.real_entries(), &[5]);
    }

    #[test]
    fn union_empty() {
        let u = oblivious_union(&[], 0);
        assert_eq!(u.len_real(), 0);
        assert!(u.real_entries().is_empty());
    }

    #[test]
    #[should_panic]
    fn sentinel_rejected() {
        oblivious_union(&[EMPTY_SLOT], 1);
    }

    #[test]
    #[should_panic]
    fn capacity_too_small_rejected() {
        oblivious_union(&[1, 2, 3], 2);
    }

    #[test]
    fn scan_cost_quadratic_per_chunk() {
        // 10 requests, chunk 10 => 100 scans; chunk 5 => 2*25 = 50 scans.
        assert_eq!(requests_scan_cost(10, 10), 100);
        assert_eq!(requests_scan_cost(10, 5), 50);
        assert_eq!(requests_scan_cost(12, 5), 25 + 25 + 4);
    }

    /// Cross-check against a plain first-seen dedup: same `len_real` and the
    /// same entries in the same order, the order first-k selection reads.
    #[test]
    fn agrees_with_first_seen_dedup() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        use std::collections::HashSet;

        for case in 0..256 {
            let mut rng = StdRng::seed_from_u64(case);
            let reqs: Vec<u64> = (0..rng.gen_range(0..80))
                .map(|_| rng.gen_range(0..100))
                .collect();
            let mut seen = HashSet::new();
            let dedup: Vec<u64> = reqs.iter().copied().filter(|&r| seen.insert(r)).collect();
            let u = oblivious_union(&reqs, reqs.len());
            assert_eq!(u.len_real(), dedup.len(), "case {case}");
            assert_eq!(u.real_entries(), &dedup[..], "case {case}");
        }
    }
}
