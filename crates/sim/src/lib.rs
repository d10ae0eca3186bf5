//! # vt-sim — cycle-level GPU timing simulation
//!
//! This crate models a Fermi-class GPU at cycle granularity: per-SM warp
//! schedulers ([`config::SchedPolicy`]), scoreboards
//! ([`scoreboard::Scoreboard`]), SIMT reconvergence, execution pipelines
//! with latency classes, shared-memory bank conflicts, an in-order LD/ST
//! unit ([`ldst::LdstUnit`]) feeding the `vt-mem` hierarchy, CTA barriers,
//! and — the part the Virtual Thread paper modifies — the **CTA residency
//! machinery**: admission ([`AdmissionPolicy`], defined with the limits
//! in `vt_isa::limits`), active-slot
//! management ([`config::ActivePolicy`]) and context switching
//! ([`config::SwapConfig`]).
//!
//! Execution is *functional-at-issue*: instruction semantics run the
//! moment an instruction issues, while scoreboards, queues, caches and
//! DRAM decide when results become architecturally visible. Every run is
//! deterministic and the final memory image can be compared bit-for-bit
//! against `vt_isa::interp::Interpreter`.
//!
//! The public entry point is [`gpu::GpuSim`] (or the [`gpu::simulate`]
//! convenience function); higher-level architecture selection (Baseline /
//! VirtualThread / Ideal / MemSwap) lives in the `vt-core` crate.
#![forbid(unsafe_code)]

pub mod config;
pub mod cta;
pub mod exec;
pub mod gpu;
pub mod hotspots;
pub mod ldst;
pub mod metrics;
pub mod occupancy;
pub mod scoreboard;
pub mod sm;
pub mod stats;
pub mod warp;

pub use config::{
    check_launchable, ActivePolicy, CoreConfig, LaunchError, ResidencyConfig, SchedPolicy,
    SimConfig, SwapConfig, SwapTrigger,
};
pub use exec::{
    CancelToken, Checkpoint, Progress, ProgressHook, RunBudget, RunOutcome, StopReason, Truncation,
};
pub use gpu::{simulate, GpuSim, RunResult, SimError};
pub use hotspots::{PcCounters, PcProfile, StallReason, STALL_REASONS};
pub use metrics::MetricsSampler;
pub use occupancy::{analyze, Limiter, Occupancy};
pub use stats::{CpiStack, EmptyBreakdown, IdleBreakdown, RunStats};
pub use vt_isa::AdmissionPolicy;
