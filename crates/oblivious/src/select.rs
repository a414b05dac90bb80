//! Constant-time comparison and selection.
//!
//! These are the register-level building blocks of the oblivious union: an
//! equality test that produces a [`Choice`], and a `select` that chooses
//! between two values without branching.

use crate::Choice;

/// Constant-time equality of two `u64`s.
///
/// # Example
///
/// ```
/// use fedora_oblivious::ct_eq_u64;
/// assert!(ct_eq_u64(7, 7).unwrap_leaky());
/// assert!(!ct_eq_u64(7, 8).unwrap_leaky());
/// ```
#[inline]
pub fn ct_eq_u64(a: u64, b: u64) -> Choice {
    let diff = a ^ b;
    // diff == 0  <=>  (diff | diff.wrapping_neg()) has MSB 0.
    let nonzero = (diff | diff.wrapping_neg()) >> 63;
    Choice::from_word(nonzero ^ 1)
}

/// Constant-time select: returns `a` if `cond` is true, else `b`.
///
/// # Example
///
/// ```
/// use fedora_oblivious::{select_u64, Choice};
/// assert_eq!(select_u64(Choice::TRUE, 1, 2), 1);
/// assert_eq!(select_u64(Choice::FALSE, 1, 2), 2);
/// ```
#[inline]
pub fn select_u64(cond: Choice, a: u64, b: u64) -> u64 {
    let mask = cond.to_mask();
    (a & mask) | (b & !mask)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eq_edges() {
        assert!(ct_eq_u64(0, 0).unwrap_leaky());
        assert!(ct_eq_u64(u64::MAX, u64::MAX).unwrap_leaky());
        assert!(!ct_eq_u64(0, u64::MAX).unwrap_leaky());
        assert!(!ct_eq_u64(1, 2).unwrap_leaky());
    }

    #[test]
    fn select_picks_correctly() {
        assert_eq!(select_u64(Choice::TRUE, 10, 20), 10);
        assert_eq!(select_u64(Choice::FALSE, 10, 20), 20);
    }
}
