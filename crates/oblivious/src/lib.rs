//! Constant-time, data-oblivious primitives for the FEDORA controller.
//!
//! Everything the FEDORA controller does with secret-dependent data must not
//! branch on, or index memory by, the secret. This crate provides the small
//! vocabulary of constant-time operations the rest of the system is written
//! in:
//!
//! * [`Choice`] — a branchless boolean whose value the optimizer cannot see
//!   through (the same idea as the `subtle` crate, reimplemented here so the
//!   whole stack is dependency-free and auditable).
//! * [`select`] — constant-time equality and selection (`cond ? a : b`) on
//!   `u64` words.
//! * [`union`] — the paper's §4.2 oblivious union: an *O(K²)* linear scan
//!   that computes the union of the K requested embedding indices without
//!   revealing duplicate structure. The server runs it chunk by chunk when
//!   K is large; [`union::requests_scan_cost`] counts that loop's slot
//!   visits.
//!
//! # Threat model
//!
//! The adversary observes addresses, sizes, and timing of every memory access
//! outside the secure controller (paper §4.1). The primitives here always
//! touch the same sequence of addresses regardless of the secret values; only
//! register-level arithmetic depends on secrets.
//!
//! # Example
//!
//! ```
//! use fedora_oblivious::{union::oblivious_union, Choice};
//!
//! let requests = [42u64, 7, 42, 38, 42, 38];
//! let u = oblivious_union(&requests, requests.len());
//! assert_eq!(u.len_real(), 3); // {7, 38, 42}
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod choice;
pub mod select;
pub mod union;

pub use choice::Choice;
pub use select::{ct_eq_u64, select_u64};
pub use union::{oblivious_union, UnionSet};
