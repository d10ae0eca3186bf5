//! # vt-mem — the GPU memory subsystem model
//!
//! A cycle-level model of everything between an SM's LD/ST unit and DRAM:
//!
//! * [`coalesce`] — merges the 32 lane addresses of a warp memory
//!   instruction into 128-byte transactions,
//! * [`cache`] — a set-associative, LRU, tags-only cache array used for
//!   both L1D and the L2 slices,
//! * [`collections`] — the integer hasher of every map on the memory side
//!   and the ascending response queues,
//! * [`mshr`] — miss-status holding registers with miss merging and finite
//!   capacity (the structure whose exhaustion makes extra TLP stop
//!   helping),
//! * [`icnt`] — a latency + bandwidth interconnect between SMs and memory
//!   partitions,
//! * [`partition`] — a memory partition: one L2 slice plus one DRAM
//!   channel with row-buffer state, mirroring GPGPU-Sim's organisation,
//! * [`system::MemSystem`] — the top-level object the simulator ticks once
//!   per cycle and submits requests to.
//!
//! The model is *timing-only*: data values never flow through it. The
//! simulator applies functional effects at issue time and uses the memory
//! system solely to learn **when** each request completes.
//!
//! # Example
//!
//! ```
//! use vt_mem::config::MemConfig;
//! use vt_mem::system::{MemSystem, ReqKind};
//!
//! let mut mem = MemSystem::new(&MemConfig::default(), 1);
//! let id = 7u64;
//! assert!(mem.try_submit(0, id, 0x1000, ReqKind::Load).accepted());
//! let mut done = Vec::new();
//! for cycle in 0.. {
//!     mem.tick(cycle);
//!     while let Some(id) = mem.pop_response(0) {
//!         done.push(id);
//!     }
//!     if !done.is_empty() {
//!         break;
//!     }
//! }
//! assert_eq!(done, vec![7]);
//! ```
#![forbid(unsafe_code)]

pub mod cache;
pub mod coalesce;
pub mod collections;
pub mod config;
pub mod icnt;
pub mod mshr;
pub mod partition;
pub mod stats;
pub mod system;

pub use config::MemConfig;
pub use stats::MemStats;
pub use system::{MemSystem, ReqKind, Submit};
