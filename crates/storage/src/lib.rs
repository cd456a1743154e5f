//! Storage substrate for wave indices.
//!
//! The evaluation model of the Wave-Indices paper (Shivakumar &
//! Garcia-Molina, SIGMOD '97) charges disk work in terms of two
//! hardware parameters: the time for one `seek` and the sequential
//! transfer rate `Trans`. This crate provides:
//!
//! * [`SimDisk`] — an in-memory block device that stores real bytes
//!   while *charging* simulated time with exactly that model (one seek
//!   whenever the head moves, plus `bytes / Trans` per transfer), and
//!   keeping full [`IoStats`].
//! * [`ExtentAllocator`] — a first-fit, coalescing free-list allocator
//!   over block extents, with live/peak space accounting. Contiguous
//!   extents are what make the paper's *packed* indexes scannable with
//!   a single seek.
//! * [`Volume`] — the pairing of a disk and an allocator that index
//!   code works against.
//! * [`DiskArray`] — `k` shared-nothing, independently clocked arms
//!   (each a single-disk [`Volume`]) for the multi-disk parallelism of
//!   the paper's Section 8; arms are `Send`, so each can be owned by a
//!   worker thread.
//! * [`IoScheduler`] and [`WriteBuffer`] — batched I/O: reads merged
//!   and executed in one elevator-ordered sweep, writes buffered and
//!   coalesced at flush time, both through the scan-resistant cache
//!   bypass (see [`sched`] for the request lifecycle and the
//!   flush-before-commit rule).
//! * [`FileStore`] — a real, file-backed store (one file per
//!   constituent index) demonstrating the paper's "throw away a whole
//!   index" bulk delete as an `O(1)` file unlink, with full fsync
//!   discipline so atomic replacement survives power loss.
//! * Crash-consistency plumbing: [`crc64`] checksums for persisted
//!   images and manifests, the [`IndexStore`] name-based store trait,
//!   the fault-injecting [`FaultyStore`] wrapper with its shared
//!   [`FaultPlan`] arming logic (the disk consults the same plan on
//!   reads and writes, with a separate retryable transient-burst
//!   class for the serving path), and [`RetryPolicy`] — bounded,
//!   deterministically jittered retry for the transient-error class
//!   (see [`retry`]).
//!
//! All sizes are in 4 KiB blocks unless stated otherwise.
//!
//! Every layer reports into a [`wave_obs::Obs`] handle (re-exported
//! as [`Obs`]): the disk counts seeks, transfers, head travel and
//! cache traffic; the volume publishes allocator gauges. A fresh
//! volume uses `Obs::noop()`; attach a real handle with
//! [`Volume::attach_obs`] or build one with
//! [`Volume::with_disks_obs`].

#![deny(missing_docs)]

pub mod alloc;
pub mod array;
pub mod block;
pub mod cache;
pub mod checksum;
pub mod disk;
pub mod error;
pub mod fault;
pub mod file;
pub mod retry;
pub mod sched;
pub mod stats;
pub mod volume;

pub use alloc::ExtentAllocator;
pub use array::DiskArray;
pub use block::{BlockAddr, Extent, BLOCK_SIZE};
pub use cache::BlockCache;
pub use checksum::{crc64, split_trailer, Crc64};
pub use disk::{DiskConfig, SimDisk};
pub use error::{StorageError, StorageResult};
pub use fault::{CrashMode, FaultPlan, FaultyStore};
pub use file::{FileId, FileStore, IndexStore};
pub use retry::RetryPolicy;
pub use sched::{FlushStats, IoScheduler, ReadRequest, Sweep, WriteBuffer};
pub use stats::{IoStats, StatsDelta};
pub use volume::Volume;
pub use wave_obs::Obs;
