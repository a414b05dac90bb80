//! Merkle-free write counters for the main ORAM (paper §5.2, last ¶).
//!
//! Writes to the main ORAM happen **only** during EO (eviction-only)
//! accesses, and EO accesses select their path in a *predetermined*
//! reverse-lexicographic order (as in RAW/Ring ORAM). Consequently, a single
//! root counter — the total number of EO accesses so far — determines
//! exactly how many times any bucket has been written, so every bucket's
//! encryption counter can be *recomputed* instead of stored, and tampering
//! with any bucket is caught by its AEAD tag under the recomputed nonce.

/// Reverses the low `bits` bits of `x`.
#[inline]
pub fn bit_reverse(x: u64, bits: u32) -> u64 {
    if bits == 0 {
        return 0;
    }
    x.reverse_bits() >> (64 - bits)
}

/// The deterministic eviction schedule of a tree with `2^depth` leaves.
///
/// Eviction `e` targets leaf `bit_reverse(e mod 2^depth)` — the
/// reverse-lexicographic order from Ring ORAM, which spaces consecutive
/// evictions across the tree so every bucket is written at a fixed cadence.
///
/// # Example
///
/// ```
/// use fedora_crypto::counter::EvictionSchedule;
/// let s = EvictionSchedule::new(2); // 4 leaves
/// assert_eq!(s.leaf_for(0), 0);
/// assert_eq!(s.leaf_for(1), 2);
/// assert_eq!(s.leaf_for(2), 1);
/// assert_eq!(s.leaf_for(3), 3);
/// assert_eq!(s.leaf_for(4), 0); // wraps
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EvictionSchedule {
    depth: u32,
}

impl EvictionSchedule {
    /// Creates a schedule for a tree with `2^depth` leaves.
    ///
    /// # Panics
    ///
    /// Panics if `depth > 62` (tree sizes beyond any realistic table).
    pub fn new(depth: u32) -> Self {
        assert!(depth <= 62, "tree depth {depth} out of range");
        EvictionSchedule { depth }
    }

    /// The tree depth (leaves live at this level; root is level 0).
    pub fn depth(&self) -> u32 {
        self.depth
    }

    /// Number of leaves, `2^depth`.
    pub fn num_leaves(&self) -> u64 {
        1u64 << self.depth
    }

    /// The leaf targeted by the `e`-th eviction.
    pub fn leaf_for(&self, e: u64) -> u64 {
        bit_reverse(e % self.num_leaves(), self.depth)
    }

    /// How many times the bucket at `(level, index)` has been written after
    /// `eo_count` evictions. This *is* the bucket's encryption counter.
    ///
    /// A level-`level` bucket with index `i` is on eviction `e`'s path iff
    /// `e mod 2^level == bit_reverse(i, level)`, so the count has the closed
    /// form below (verified against brute force in tests).
    ///
    /// # Panics
    ///
    /// Panics if `level > depth` or `index >= 2^level`.
    pub fn writes_to_bucket(&self, level: u32, index: u64, eo_count: u64) -> u64 {
        assert!(
            level <= self.depth,
            "level {level} beyond depth {}",
            self.depth
        );
        assert!(
            index < 1u64 << level,
            "index {index} out of range at level {level}"
        );
        let phase = bit_reverse(index, level);
        if eo_count <= phase {
            0
        } else {
            ((eo_count - phase - 1) >> level) + 1
        }
    }

    /// The bucket indices (level, index) along the path to `leaf`, root
    /// first.
    pub fn path_buckets(&self, leaf: u64) -> Vec<(u32, u64)> {
        (0..=self.depth)
            .map(|level| (level, leaf >> (self.depth - level)))
            .collect()
    }
}

/// The root counter register: total EO accesses, the only persistent
/// counter the main ORAM needs (kept in the scratchpad).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RootCounter(u64);

impl RootCounter {
    /// Creates a zeroed counter.
    pub fn new() -> Self {
        RootCounter(0)
    }

    /// Reconstructs a counter at `count` — the checkpoint-restore path.
    /// Safe only with the exact persisted EO count: at a stale value,
    /// bucket reads fail authentication and bucket writes reuse nonces.
    pub fn from_count(count: u64) -> Self {
        RootCounter(count)
    }

    /// Current EO count.
    pub fn get(&self) -> u64 {
        self.0
    }

    /// Records one EO access, returning the index it occupies (pre-increment
    /// value), which selects the eviction path.
    pub fn advance(&mut self) -> u64 {
        let v = self.0;
        self.0 += 1;
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bit_reverse_basics() {
        assert_eq!(bit_reverse(0b001, 3), 0b100);
        assert_eq!(bit_reverse(0b110, 3), 0b011);
        assert_eq!(bit_reverse(5, 0), 0);
        assert_eq!(bit_reverse(1, 1), 1);
    }

    #[test]
    fn schedule_covers_all_leaves_per_cycle() {
        let s = EvictionSchedule::new(4);
        let mut seen = [false; 16];
        for e in 0..16 {
            seen[s.leaf_for(e) as usize] = true;
        }
        assert!(seen.iter().all(|&b| b), "one full cycle hits every leaf");
    }

    #[test]
    fn writes_match_brute_force() {
        let s = EvictionSchedule::new(4);
        for eo_count in [0u64, 1, 2, 7, 15, 16, 17, 33, 100] {
            for level in 0..=4u32 {
                for index in 0..(1u64 << level) {
                    let mut brute = 0;
                    for e in 0..eo_count {
                        let leaf = s.leaf_for(e);
                        if leaf >> (4 - level) == index {
                            brute += 1;
                        }
                    }
                    assert_eq!(
                        s.writes_to_bucket(level, index, eo_count),
                        brute,
                        "level {level} index {index} eo {eo_count}"
                    );
                }
            }
        }
    }

    #[test]
    fn root_written_every_eviction() {
        let s = EvictionSchedule::new(5);
        assert_eq!(s.writes_to_bucket(0, 0, 0), 0);
        assert_eq!(s.writes_to_bucket(0, 0, 123), 123);
    }

    #[test]
    fn leaves_written_once_per_cycle() {
        let s = EvictionSchedule::new(3);
        for leaf in 0..8 {
            assert_eq!(s.writes_to_bucket(3, leaf, 8), 1, "leaf {leaf}");
            assert_eq!(s.writes_to_bucket(3, leaf, 16), 2, "leaf {leaf}");
        }
    }

    #[test]
    fn path_buckets_shape() {
        let s = EvictionSchedule::new(3);
        let path = s.path_buckets(0b101);
        assert_eq!(path, vec![(0, 0), (1, 1), (2, 0b10), (3, 0b101)]);
    }

    #[test]
    fn root_counter_advances() {
        let mut rc = RootCounter::new();
        assert_eq!(rc.advance(), 0);
        assert_eq!(rc.advance(), 1);
        assert_eq!(rc.get(), 2);
    }

    #[test]
    fn depth_zero_tree() {
        let s = EvictionSchedule::new(0);
        assert_eq!(s.num_leaves(), 1);
        assert_eq!(s.leaf_for(5), 0);
        assert_eq!(s.writes_to_bucket(0, 0, 9), 9);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn closed_form_matches_brute() {
        for case in 0..256 {
            let mut rng = StdRng::seed_from_u64(case);
            let depth = rng.gen_range(0u32..6);
            let eo = rng.gen_range(0u64..200);
            let s = EvictionSchedule::new(depth);
            for level in 0..=depth {
                for index in 0..(1u64 << level) {
                    let brute = (0..eo)
                        .filter(|&e| s.leaf_for(e) >> (depth - level) == index)
                        .count() as u64;
                    assert_eq!(
                        s.writes_to_bucket(level, index, eo),
                        brute,
                        "case {case}: depth {depth}, eo {eo}, bucket ({level}, {index})"
                    );
                }
            }
        }
    }
}
