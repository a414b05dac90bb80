//! Simulated storage devices for FEDORA: SSD, DRAM, and the TEE scratchpad.
//!
//! The paper evaluates FEDORA on a real Samsung PM9A1 NVMe SSD; this
//! reproduction substitutes a *simulated* block device ([`ssd::SimSsd`])
//! that stores real bytes, enforces 4-KiB page granularity, and accounts
//! every page read/write with a latency, wear, and energy model. All of the
//! paper's SSD figures (lifetime — Fig. 7, latency — Fig. 8, cost/power/
//! energy — Fig. 9) are *counting* arguments over exactly these statistics,
//! so the simulated device exercises the same code paths and reproduces the
//! same shapes (see DESIGN.md §2).
//!
//! * [`stats`] — shared byte/IO/time counters every device maintains.
//! * [`ssd`] — the page-granular SSD model with endurance tracking
//!   (5.4 PB written per TB of capacity, the paper's §6.1 assumption),
//!   plus fault-injection hooks (bit flips, rollbacks). It is the only
//!   SSD model and lives in RAM; crash recovery keeps a copy of its pages
//!   on disk (`fedora::durable`, DESIGN.md §8).
//! * [`dram`] — byte-addressable DRAM model (latency + static power/GB).
//! * [`scratchpad`] — the 4-KiB on-chip SRAM budget of the assumed TEE;
//!   allocation failures model the "No Secure SRAM" ablation (Fig. 10).
//! * [`profile`] — the device constants (latency, power, $/GB) with the
//!   paper's defaults.
//! * [`durable`] — atomic-commit file primitives, checksummed frames, and
//!   the synced append-only journal behind crash recovery (DESIGN.md §8).
//!
//! # Example
//!
//! ```
//! use fedora_storage::ssd::SimSsd;
//! use fedora_storage::profile::SsdProfile;
//!
//! let mut ssd = SimSsd::new(SsdProfile::pm9a1_like(), 1024); // 1024 pages
//! ssd.write_pages(&[(3, vec![0xAB; 4096])]).unwrap();
//! let pages = ssd.read_pages(&[3]).unwrap();
//! assert_eq!(pages[0][0], 0xAB);
//! assert_eq!(ssd.stats().pages_written, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dram;
pub mod durable;
pub mod fault;
pub mod profile;
pub mod scratchpad;
pub mod ssd;
pub mod stats;
pub mod telemetry;
pub mod trace_recorder;

pub use dram::SimDram;
pub use durable::{
    atomic_write_file, atomic_write_with, fnv1a64, open_frame, read_journal, seal_frame,
    splitmix64, ByteReader, ByteWriter, CodecError, JournalWriter,
};
pub use fault::{FaultConfig, FaultInjector, FaultStats};
pub use profile::{DramProfile, SsdProfile};
pub use scratchpad::Scratchpad;
pub use ssd::SimSsd;
pub use stats::DeviceStats;
pub use telemetry::DeviceTelemetry;
pub use trace_recorder::{AccessOp, AccessRecord, AccessTraceRecorder};
