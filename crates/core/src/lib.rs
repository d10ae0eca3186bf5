//! # vt-core — the Virtual Thread architecture
//!
//! Reproduction of *Virtual Thread: Maximizing Thread-Level Parallelism
//! beyond GPU Scheduling Limit* (Yoon, Kim, Lee, Ro, Annavaram — ISCA
//! 2016).
//!
//! A GPU SM hosts concurrent CTAs up to the minimum of two limit
//! families: the **scheduling limit** (CTA slots, warp slots / PCs / SIMT
//! stacks) and the **capacity limit** (register file, shared memory).
//! Many kernels hit the scheduling limit first, stranding most of the
//! on-chip memory. Virtual Thread admits CTAs up to the *capacity* limit
//! and time-multiplexes the scheduling structures across them: when every
//! warp of an active CTA is stuck on a long-latency stall, only its small
//! scheduling state (PCs + SIMT stacks + scoreboards) is saved to an
//! on-chip context buffer and a ready inactive CTA takes the slot.
//! Registers and shared memory never move, so a swap costs tens of cycles
//! instead of the thousands a full context switch through the memory
//! hierarchy would.
//!
//! This crate is the public face of the reproduction:
//!
//! * [`Architecture`] — `Baseline`, `VirtualThread`, `Ideal` (scheduling
//!   structures scaled for free) and `MemSwap` (full-state switching
//!   through memory), each lowering to the `vt-sim` residency mechanism,
//! * [`Gpu`] / [`GpuConfig`] / [`Report`] — configure, run, measure,
//! * [`overhead`] — the context-buffer storage model behind the paper's
//!   low-complexity claim,
//! * re-exports of the occupancy/limiter analysis from `vt-sim`.
//!
//! ```
//! use vt_core::{Architecture, Gpu, GpuConfig};
//! use vt_isa::KernelBuilder;
//! use vt_isa::op::Operand;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A toy kernel: every thread bumps one word.
//! let mut b = KernelBuilder::new("bump");
//! let buf = b.alloc_global(2048);
//! let gid = b.reg();
//! b.global_thread_id(gid);
//! b.shl(gid, Operand::Reg(gid), Operand::Imm(2));
//! b.st_global(Operand::Reg(gid), buf as i32, Operand::Imm(7));
//! let kernel = b.build(32, 64)?;
//!
//! let mut cfg = GpuConfig::with_arch(Architecture::virtual_thread());
//! cfg.core.num_sms = 2;
//! let report = Gpu::new(cfg).run(&kernel)?;
//! println!("{} cycles, IPC {:.1}", report.stats.cycles, report.ipc());
//! # Ok(())
//! # }
//! ```
#![forbid(unsafe_code)]

pub mod arch;
pub mod energy;
pub mod gpu;
pub mod overhead;
pub mod session;

pub use arch::{Architecture, MemSwapParams, VtParams};
pub use energy::{estimate as estimate_energy, EnergyEstimate, EnergyParams};
pub use gpu::{compare, Gpu, GpuConfig, Report};
pub use overhead::{context_buffer, OverheadBreakdown};
pub use session::{RunRequest, Session, SessionOutcome};

// The analysis types figures are built from.
pub use vt_sim::{
    occupancy, CoreConfig, CpiStack, EmptyBreakdown, IdleBreakdown, Limiter, Occupancy, PcCounters,
    PcProfile, RunStats, SchedPolicy, SimError, StallReason, SwapTrigger,
};

// Execution control (budgets, cancellation, checkpoint/resume) and
// observability (progress reports, windowed metric series), so
// downstream tools need not depend on vt-sim directly.
pub use vt_sim::{
    CancelToken, Checkpoint, Progress, ProgressHook, RunBudget, RunOutcome, StopReason, Truncation,
};
pub use vt_trace::MetricsRegistry;

pub use vt_mem::MemConfig;

// The deterministic grid executor, so downstream tools need not depend
// on vt-par directly.
pub use vt_par::{default_threads, sweep, Pool};
