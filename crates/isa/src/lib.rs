//! # vt-isa — the SIMT mini-ISA of the Virtual Thread simulator
//!
//! This crate defines everything the timing simulator (`vt-sim`) and the
//! Virtual Thread architecture model (`vt-core`) need to *describe* and
//! *functionally execute* GPU kernels:
//!
//! * [`instr::Instr`] — a register-based SIMT instruction set with integer
//!   and float ALU ops, special-function ops, global/shared memory accesses,
//!   atomics, barriers and structured divergent control flow,
//! * [`kernel::Kernel`] — a program plus its launch geometry (1-D grid of
//!   1-D CTAs) and resource footprint (registers/thread, shared
//!   memory/CTA), the unit of work a GPU runs,
//! * [`builder::KernelBuilder`] — a typed DSL with structured control flow
//!   (`if_`, `if_else`, `while_`, `for_range`) that emits well-formed
//!   divergence (every divergent branch carries its reconvergence point),
//! * [`asm`] — a text assembler / disassembler for the same instruction set,
//! * [`exec`] — per-lane functional semantics (operands and evaluators),
//! * [`step::step_warp`] — one warp instruction executed on its active
//!   lanes: the single functional step the reference interpreter and the
//!   timing simulator both call,
//! * [`simt::SimtStack`] — the immediate-post-dominator reconvergence stack,
//! * [`interp::Interpreter`] — a timing-free reference interpreter used as a
//!   functional oracle in tests,
//! * [`limits::SmLimits`] — the per-SM scheduling/capacity limit constants,
//!   the exact per-resource resident-CTA bounds they imply and the
//!   admission rule over them, shared by the timing simulator and the
//!   static analyzer.
//!
//! # Example
//!
//! Build a tiny vector-add kernel and run it on the reference interpreter:
//!
//! ```
//! use vt_isa::builder::KernelBuilder;
//! use vt_isa::interp::Interpreter;
//! use vt_isa::op::Operand;
//!
//! # fn main() -> Result<(), vt_isa::error::IsaError> {
//! let mut b = KernelBuilder::new("vecadd");
//! let n = 128u32;
//! let xs = b.alloc_global_init(&(0..n).collect::<Vec<u32>>());
//! let ys = b.alloc_global_init(&(0..n).map(|i| 10 * i).collect::<Vec<u32>>());
//! let out = b.alloc_global(n as usize);
//!
//! let gid = b.reg();
//! let a = b.reg();
//! let c = b.reg();
//! b.global_thread_id(gid);
//! b.shl(gid, Operand::Reg(gid), Operand::Imm(2)); // byte offset
//! b.ld_global(a, Operand::Reg(gid), xs as i32);
//! b.ld_global(c, Operand::Reg(gid), ys as i32);
//! b.add(a, Operand::Reg(a), Operand::Reg(c));
//! b.st_global(Operand::Reg(gid), out as i32, Operand::Reg(a));
//! b.exit();
//!
//! let kernel = b.build(2, 64)?; // 2 CTAs x 64 threads
//! let result = Interpreter::new(&kernel)?.run()?;
//! assert_eq!(result.load_words(out, n as usize)[5], 5 + 50);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub mod asm;
pub mod builder;
pub mod error;
pub mod exec;
pub mod instr;
pub mod interp;
pub mod kernel;
pub mod limits;
pub mod op;
pub mod program;
pub mod simt;
pub mod step;

pub use builder::KernelBuilder;
pub use error::IsaError;
pub use instr::Instr;
pub use kernel::{Kernel, MAX_CTA_THREADS, MAX_GLOBAL_WORDS};
pub use limits::{AdmissionPolicy, CtaBounds, Limiter, Occupancy, SmLimits};
pub use op::{AluOp, AtomOp, BranchIf, MemSpace, Operand, Reg, SfuOp, Sreg};
pub use program::Program;
pub use simt::{SimtEntry, SimtStack};

/// Number of lanes in a warp. The whole simulator is built around 32-lane
/// warps, matching every NVIDIA GPU generation the paper targets.
pub const WARP_SIZE: u32 = 32;

/// A full 32-lane active mask.
pub const FULL_MASK: u32 = u32::MAX;
