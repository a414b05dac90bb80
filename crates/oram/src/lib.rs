//! ORAM substrate for FEDORA: Path ORAM, RAW ORAM, VTree and buffer ORAM.
//!
//! FEDORA's main ORAM protects the embedding table on the SSD; a smaller
//! buffer ORAM in DRAM holds each round's working set. This crate provides
//! every tree-ORAM variant the paper uses or compares against:
//!
//! * [`geometry`] — tree shape: depth, bucket size `Z`, block size, heap
//!   node indexing, bucket ↔ SSD-page layout.
//! * [`block`] / [`bucket`] — fixed-size data blocks, slot metadata, and
//!   bucket (de)serialization.
//! * [`position`] — the position map (block → leaf), held in DRAM.
//! * [`stash`] — the bounded stash with high-water tracking.
//! * [`store`] — encrypted bucket storage over [`fedora_storage::SimSsd`]
//!   (page-granular) or [`fedora_storage::SimDram`].
//! * [`path_oram`] — classic Path ORAM (Stefanov et al.), the building
//!   block of the `Path ORAM+` baseline.
//! * [`raw`] — RAW ORAM (Fletcher et al.): access-only (AO) reads and
//!   eviction-only (EO) writes with eviction period `A`, extended with
//!   FEDORA's FL-friendly split (§4.4 Opt. 1: read phase with **no** EO,
//!   write phase with **no** AO) and the VTree (Opt. 2: AO accesses are
//!   SSD-write-free).
//! * [`vtree`] — the DRAM-resident mirror of the main ORAM's valid flags.
//! * [`buffer`] — the buffer ORAM: blocks twice the main-ORAM size whose
//!   second half accumulates gradients (plus a sample-count slot), serving
//!   user requests and implementing Eq. 4's Σ Pre(Δθ).
//!
//! The ORAM controllers keep only protocol state. Physical access traces
//! come from the device: an [`AccessTraceRecorder`](fedora_storage::AccessTraceRecorder)
//! attached to a [`store::SsdBucketStore`] captures the page sequence an
//! adversary would observe, and tests use it to check obliviousness claims.
//!
//! # Example
//!
//! ```
//! use fedora_oram::geometry::TreeGeometry;
//! use fedora_oram::path_oram::PathOram;
//! use fedora_oram::store::DramBucketStore;
//! use fedora_crypto::aead::Key;
//! use rand::SeedableRng;
//!
//! let geo = TreeGeometry::for_blocks(64, 16, 4);
//! let store = DramBucketStore::with_default_dram(geo, Key::from_bytes([0; 32]));
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let mut oram = PathOram::new(store, 64, &mut rng);
//! oram.write(7, vec![0xAB; 16], &mut rng).unwrap();
//! assert_eq!(oram.read(7, &mut rng).unwrap(), vec![0xAB; 16]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod block;
pub mod bucket;
pub mod buffer;
pub mod geometry;
pub mod path_oram;
pub mod position;
pub mod raw;
pub mod recursive;
pub mod stash;
pub mod store;
pub mod vtree;

pub(crate) mod convert {
    //! Infallible little-endian field decoding for fixed-layout
    //! serialization. Lengths are invariants of the layouts, so a mismatch
    //! is a programming bug, not runtime input — the panic is centralized
    //! here instead of scattering `expect` calls through fallible paths.

    /// Decodes a little-endian `u64` from an exactly-8-byte field.
    #[allow(clippy::expect_used)]
    pub(crate) fn le_u64(bytes: &[u8]) -> u64 {
        u64::from_le_bytes(bytes.try_into().expect("8-byte field"))
    }

    /// Decodes a little-endian `f32` from an exactly-4-byte field.
    #[allow(clippy::expect_used)]
    pub(crate) fn le_f32(bytes: &[u8]) -> f32 {
        f32::from_le_bytes(bytes.try_into().expect("4-byte field"))
    }
}

pub use block::Block;
pub use bucket::Bucket;
pub use buffer::BufferOram;
pub use geometry::TreeGeometry;
pub use path_oram::PathOram;
pub use raw::{RawOram, RawOramConfig};
pub use vtree::VTree;

/// Errors surfaced by ORAM operations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OramError {
    /// A block id beyond the ORAM's capacity was requested.
    BlockOutOfRange {
        /// The requested block id.
        id: u64,
        /// Number of blocks the ORAM holds.
        capacity: u64,
    },
    /// A payload of the wrong size was supplied.
    BadPayloadLength {
        /// Supplied length.
        got: usize,
        /// Required block size.
        want: usize,
    },
    /// The backing device failed (programming error in sizing).
    Device,
    /// Decryption/authentication of a bucket failed and retries (if any)
    /// were exhausted; the failure is classified and locates the bucket.
    Integrity {
        /// What kind of violation was detected.
        kind: fedora_crypto::IntegrityError,
        /// Heap index of the offending bucket.
        node: u64,
    },
    /// The requested block was not found where the invariant says it must
    /// be (tree or stash) — indicates corruption or a protocol bug.
    MissingBlock {
        /// The block id that could not be found.
        id: u64,
    },
    /// A whole-tree build was asked for while blocks are live; it would
    /// drop them.
    BuildWhileLive,
    /// The tree was drained and not yet rebuilt; an access or a second
    /// drain would read stale buckets.
    Drained,
}

impl core::fmt::Display for OramError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            OramError::BlockOutOfRange { id, capacity } => {
                write!(f, "block {id} out of range (capacity {capacity})")
            }
            OramError::BadPayloadLength { got, want } => {
                write!(f, "payload length {got} does not match block size {want}")
            }
            OramError::Device => f.write_str("backing device error"),
            OramError::Integrity { kind, node } => {
                write!(f, "bucket {node} failed authentication: {kind}")
            }
            OramError::MissingBlock { id } => {
                write!(f, "block {id} missing from assigned path and stash")
            }
            OramError::BuildWhileLive => f.write_str("whole-tree build refused: blocks are live"),
            OramError::Drained => f.write_str("tree is drained: only a build may follow"),
        }
    }
}

impl std::error::Error for OramError {}
