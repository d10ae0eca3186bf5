//! A timing-free reference interpreter.
//!
//! Executes a kernel warp-synchronously, one [`step_warp`] at a time (the
//! step the timing simulator issues too), but with no resource or latency
//! modelling: CTAs run sequentially, warps round-robin between barriers.
//! Tests use it as the functional oracle the cycle-level simulator must
//! agree with; since both execute through the same step, what it checks
//! independently is the simulator's scheduling, residency and memory
//! ordering, not instruction semantics.

use crate::error::{ExecError, IsaError};
use crate::exec::ThreadCtx;
use crate::kernel::{Kernel, MemImage};
use crate::simt::SimtStack;
use crate::step::{step_warp, Effect, WarpCtx};
use crate::WARP_SIZE;

/// Default per-CTA dynamic instruction budget; exceeding it aborts the run
/// with [`ExecError::InstructionBudgetExceeded`] (runaway loop guard).
pub const DEFAULT_INSTR_BUDGET: u64 = 50_000_000;

/// Outcome of a reference run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InterpResult {
    mem: MemImage,
    warp_instrs: u64,
    thread_instrs: u64,
    max_simt_depth: usize,
}

impl InterpResult {
    /// The final global-memory image.
    pub fn mem(&self) -> &MemImage {
        &self.mem
    }

    /// Reads `n` words from the final image at byte address `addr`.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds (see [`MemImage::load_words`]).
    pub fn load_words(&self, addr: u32, n: usize) -> &[u32] {
        self.mem.load_words(addr, n)
    }

    /// Dynamic warp-instruction count (one per warp issue).
    pub fn warp_instrs(&self) -> u64 {
        self.warp_instrs
    }

    /// Dynamic thread-instruction count (one per active lane).
    pub fn thread_instrs(&self) -> u64 {
        self.thread_instrs
    }

    /// Deepest SIMT stack observed across all warps.
    pub fn max_simt_depth(&self) -> usize {
        self.max_simt_depth
    }
}

/// The reference interpreter. See the [module docs](self).
#[derive(Debug)]
pub struct Interpreter<'k> {
    kernel: &'k Kernel,
    budget_per_cta: u64,
}

struct WarpState {
    stack: SimtStack,
    /// Register-major, as [`WarpCtx::regs`].
    regs: Vec<u32>,
    lane0: ThreadCtx,
    at_barrier: bool,
}

impl<'k> Interpreter<'k> {
    /// Creates an interpreter for `kernel`.
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::Program`] if the kernel's program fails
    /// validation (cannot happen for builder- or assembler-produced
    /// kernels).
    pub fn new(kernel: &'k Kernel) -> Result<Interpreter<'k>, IsaError> {
        kernel
            .program()
            .validate(kernel.regs_per_thread(), kernel.smem_bytes_per_cta())?;
        Ok(Interpreter {
            kernel,
            budget_per_cta: DEFAULT_INSTR_BUDGET,
        })
    }

    /// Overrides the per-CTA dynamic instruction budget.
    pub fn with_budget(mut self, budget: u64) -> Interpreter<'k> {
        self.budget_per_cta = budget;
        self
    }

    /// Runs the whole grid to completion.
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::Exec`] on a memory fault, barrier deadlock or
    /// exceeded instruction budget.
    pub fn run(&self) -> Result<InterpResult, IsaError> {
        let mut mem = self.kernel.global_mem().clone();
        let mut warp_instrs = 0u64;
        let mut thread_instrs = 0u64;
        let mut max_depth = 0usize;
        for cta in 0..self.kernel.num_ctas() {
            let (wi, ti, md) = self.run_cta(cta, &mut mem)?;
            warp_instrs += wi;
            thread_instrs += ti;
            max_depth = max_depth.max(md);
        }
        Ok(InterpResult {
            mem,
            warp_instrs,
            thread_instrs,
            max_simt_depth: max_depth,
        })
    }

    fn run_cta(&self, ctaid: u32, mem: &mut MemImage) -> Result<(u64, u64, usize), IsaError> {
        let k = self.kernel;
        let nthreads = k.threads_per_cta();
        let nwarps = k.warps_per_cta();
        let mut smem = vec![0u32; (k.smem_bytes_per_cta() as usize).div_ceil(4)];
        let mut warps: Vec<WarpState> = (0..nwarps)
            .map(|w| {
                let first_tid = w * WARP_SIZE;
                let lanes = (nthreads - first_tid).min(WARP_SIZE);
                let mask = if lanes == 32 {
                    u32::MAX
                } else {
                    (1u32 << lanes) - 1
                };
                WarpState {
                    stack: SimtStack::new(mask),
                    regs: vec![0; WARP_SIZE as usize * usize::from(k.regs_per_thread())],
                    lane0: ThreadCtx {
                        tid: first_tid,
                        ctaid,
                        ntid: nthreads,
                        ncta: k.num_ctas(),
                    },
                    at_barrier: false,
                }
            })
            .collect();

        let mut warp_instrs = 0u64;
        let mut thread_instrs = 0u64;
        let budget = self.budget_per_cta;
        loop {
            let mut progressed = false;
            for warp in warps.iter_mut() {
                if warp.stack.is_done() || warp.at_barrier {
                    continue;
                }
                // Run this warp until it blocks or finishes; warps only
                // interact at barriers (and through atomics, whose order
                // we define as warp-id then lane-id).
                while !warp.stack.is_done() && !warp.at_barrier {
                    // Count the lanes active at issue, before the step can
                    // shrink the mask (divergence, exit) — matching how
                    // the timing simulator attributes thread instructions.
                    let active = warp.stack.active_mask();
                    let instr = k.program().fetch(warp.stack.pc());
                    let mut ctx = WarpCtx {
                        regs: &mut warp.regs,
                        stack: &mut warp.stack,
                        lane0: warp.lane0,
                    };
                    if step_warp(instr, &mut ctx, mem, &mut smem)? == Effect::Barrier {
                        warp.at_barrier = true;
                    }
                    warp_instrs += 1;
                    thread_instrs += u64::from(active.count_ones());
                    progressed = true;
                    if warp_instrs > budget {
                        return Err(ExecError::InstructionBudgetExceeded.into());
                    }
                }
            }
            if warps.iter().all(|w| w.stack.is_done()) {
                break;
            }
            if warps.iter().all(|w| w.stack.is_done() || w.at_barrier) {
                // Barrier release.
                for w in warps.iter_mut() {
                    w.at_barrier = false;
                }
            } else if !progressed {
                return Err(ExecError::BarrierDeadlock.into());
            }
        }
        let max_depth = warps.iter().map(|w| w.stack.max_depth()).max().unwrap_or(0);
        Ok((warp_instrs, thread_instrs, max_depth))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::KernelBuilder;
    use crate::op::{AtomOp, Operand, Sreg};

    #[test]
    fn vecadd_matches_cpu() {
        let n = 96u32;
        let mut b = KernelBuilder::new("vecadd");
        let xs = b.alloc_global_init(&(0..n).collect::<Vec<u32>>());
        let ys = b.alloc_global_init(&(0..n).map(|i| i * 3).collect::<Vec<u32>>());
        let out = b.alloc_global(n as usize);
        let gid = b.reg();
        let off = b.reg();
        let a = b.reg();
        let c = b.reg();
        b.global_thread_id(gid);
        b.shl(off, Operand::Reg(gid), Operand::Imm(2));
        b.ld_global(a, Operand::Reg(off), xs as i32);
        b.ld_global(c, Operand::Reg(off), ys as i32);
        b.add(a, Operand::Reg(a), Operand::Reg(c));
        b.st_global(Operand::Reg(off), out as i32, Operand::Reg(a));
        b.exit();
        let k = b.build(3, 32).unwrap();
        let r = Interpreter::new(&k).unwrap().run().unwrap();
        for i in 0..n {
            assert_eq!(r.load_words(out + 4 * i, 1)[0], i + i * 3);
        }
        assert_eq!(r.warp_instrs(), 3 * 7);
    }

    #[test]
    fn divergent_if_else() {
        // Even lanes write 1, odd lanes write 2.
        let mut b = KernelBuilder::new("div");
        let out = b.alloc_global(64);
        let gid = b.reg();
        let off = b.reg();
        let p = b.reg();
        let v = b.reg();
        b.global_thread_id(gid);
        b.shl(off, Operand::Reg(gid), Operand::Imm(2));
        b.and_(p, Operand::Reg(gid), Operand::Imm(1));
        b.if_else(
            Operand::Reg(p),
            |b| b.mov(v, Operand::Imm(2)),
            |b| b.mov(v, Operand::Imm(1)),
        );
        b.st_global(Operand::Reg(off), out as i32, Operand::Reg(v));
        b.exit();
        let k = b.build(2, 32).unwrap();
        let r = Interpreter::new(&k).unwrap().run().unwrap();
        for i in 0..64u32 {
            let expect = if i % 2 == 1 { 2 } else { 1 };
            assert_eq!(r.load_words(out + 4 * i, 1)[0], expect, "thread {i}");
        }
        assert!(r.max_simt_depth() >= 3);
    }

    #[test]
    fn loop_sum() {
        // Each thread sums 0..tid into out[tid].
        let mut b = KernelBuilder::new("loopsum");
        let out = b.alloc_global(32);
        let i = b.reg();
        let acc = b.reg();
        let off = b.reg();
        b.mov(acc, Operand::Imm(0));
        b.for_range(i, Operand::Imm(0), Operand::Sreg(Sreg::Tid), 1, |b, i| {
            b.add(acc, Operand::Reg(acc), Operand::Reg(i));
        });
        b.shl(off, Operand::Sreg(Sreg::Tid), Operand::Imm(2));
        b.st_global(Operand::Reg(off), out as i32, Operand::Reg(acc));
        b.exit();
        let k = b.build(1, 32).unwrap();
        let r = Interpreter::new(&k).unwrap().run().unwrap();
        for t in 0..32u32 {
            assert_eq!(
                r.load_words(out + 4 * t, 1)[0],
                (0..t).sum::<u32>(),
                "thread {t}"
            );
        }
    }

    #[test]
    fn shared_memory_reduction_with_barrier() {
        // CTA-wide sum of tids via shared memory tree reduction.
        let nt = 64u32;
        let mut b = KernelBuilder::new("reduce");
        let out = b.alloc_global(1);
        let buf = b.alloc_shared(nt);
        let soff = b.reg();
        let stride = b.reg();
        let p = b.reg();
        let x = b.reg();
        let y = b.reg();
        let other = b.reg();
        b.shl(soff, Operand::Sreg(Sreg::Tid), Operand::Imm(2));
        b.st_shared(Operand::Reg(soff), buf as i32, Operand::Sreg(Sreg::Tid));
        b.bar();
        b.mov(stride, Operand::Imm(nt / 2));
        b.while_(
            |b| {
                let c = b.reg();
                b.set_gt(c, Operand::Reg(stride), Operand::Imm(0));
                Operand::Reg(c)
            },
            |b| {
                b.set_lt(p, Operand::Sreg(Sreg::Tid), Operand::Reg(stride));
                b.if_(Operand::Reg(p), |b| {
                    b.add(other, Operand::Sreg(Sreg::Tid), Operand::Reg(stride));
                    b.shl(other, Operand::Reg(other), Operand::Imm(2));
                    b.ld_shared(x, Operand::Reg(soff), buf as i32);
                    b.ld_shared(y, Operand::Reg(other), buf as i32);
                    b.add(x, Operand::Reg(x), Operand::Reg(y));
                    b.st_shared(Operand::Reg(soff), buf as i32, Operand::Reg(x));
                });
                b.bar();
                b.shr(stride, Operand::Reg(stride), Operand::Imm(1));
            },
        );
        b.set_eq(p, Operand::Sreg(Sreg::Tid), Operand::Imm(0));
        b.if_(Operand::Reg(p), |b| {
            b.ld_shared(x, Operand::Reg(soff), buf as i32);
            b.st_global(Operand::Imm(out), 0, Operand::Reg(x));
        });
        b.exit();
        let k = b.build(1, nt).unwrap();
        let r = Interpreter::new(&k).unwrap().run().unwrap();
        assert_eq!(r.load_words(out, 1)[0], (0..nt).sum::<u32>());
    }

    #[test]
    fn atomics_accumulate_across_ctas() {
        let mut b = KernelBuilder::new("atom");
        let out = b.alloc_global(1);
        b.atom(AtomOp::Add, None, Operand::Imm(out), 0, Operand::Imm(1));
        b.exit();
        let k = b.build(4, 64).unwrap();
        let r = Interpreter::new(&k).unwrap().run().unwrap();
        assert_eq!(r.load_words(out, 1)[0], 4 * 64);
    }

    #[test]
    fn partial_warp_only_runs_live_threads() {
        let mut b = KernelBuilder::new("partial");
        let out = b.alloc_global(64);
        let off = b.reg();
        let gid = b.reg();
        b.global_thread_id(gid);
        b.shl(off, Operand::Reg(gid), Operand::Imm(2));
        b.st_global(Operand::Reg(off), out as i32, Operand::Imm(7));
        b.exit();
        let k = b.build(1, 40).unwrap(); // 40 threads: warp1 has 8 lanes
        let r = Interpreter::new(&k).unwrap().run().unwrap();
        for t in 0..64u32 {
            let expect = if t < 40 { 7 } else { 0 };
            assert_eq!(r.load_words(out + 4 * t, 1)[0], expect);
        }
    }

    #[test]
    fn warps_that_exit_early_release_the_barrier() {
        // Warp 0 (tids 0-31) exits before the barrier; warp 1 waits at it.
        // The release condition must track live warps, not launched warps.
        let mut b = KernelBuilder::new("skipbar");
        let out = b.alloc_global(64);
        let p = b.reg();
        let off = b.reg();
        b.set_lt(p, Operand::Sreg(Sreg::WarpId), Operand::Imm(1));
        b.if_(Operand::Reg(p), |b| {
            b.exit();
        });
        b.bar();
        b.global_thread_id(off);
        b.shl(off, Operand::Reg(off), Operand::Imm(2));
        b.st_global(Operand::Reg(off), out as i32, Operand::Imm(9));
        b.exit();
        let k = b.build(1, 64).unwrap();
        let r = Interpreter::new(&k).unwrap().run().unwrap();
        assert_eq!(r.load_words(out, 1)[0], 0, "warp 0 skipped the store");
        assert_eq!(
            r.load_words(out + 4 * 32, 1)[0],
            9,
            "warp 1 passed the barrier"
        );
    }

    #[test]
    fn out_of_range_load_traps() {
        let mut b = KernelBuilder::new("oob");
        let r0 = b.reg();
        b.ld_global(r0, Operand::Imm(1 << 20), 0);
        b.exit();
        let k = b.build(1, 32).unwrap();
        let err = Interpreter::new(&k).unwrap().run().unwrap_err();
        assert!(matches!(
            err,
            IsaError::Exec(ExecError::GlobalOutOfRange { .. })
        ));
    }

    #[test]
    fn runaway_loop_hits_budget() {
        let mut b = KernelBuilder::new("spin");
        b.while_(|_| Operand::Imm(1), |_| {});
        b.exit();
        let k = b.build(1, 32).unwrap();
        let err = Interpreter::new(&k)
            .unwrap()
            .with_budget(10_000)
            .run()
            .unwrap_err();
        assert_eq!(err, IsaError::Exec(ExecError::InstructionBudgetExceeded));
    }
}
