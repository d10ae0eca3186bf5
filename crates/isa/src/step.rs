//! One warp instruction, executed: the only code that gives an
//! instruction its meaning.
//!
//! [`step_warp`] runs the instruction at a warp's PC on its active lanes:
//! it reads and writes the warp's registers, global memory and its CTA's
//! shared memory, and moves the SIMT stack. The reference interpreter
//! loops over it; the timing simulator calls it at issue and then charges
//! the returned [`Effect`] (latencies, scoreboard, LD/ST queue, barrier
//! and exit bookkeeping). A warp's *data* state (registers, shared
//! memory) and its *scheduling* state (the SIMT stack) are thus changed in
//! one place, whichever of the two is driving.
//!
//! Every operand is resolved once for the whole warp into a `[u32; 32]`
//! and evaluated with the lane-vector evaluators of [`crate::exec`];
//! only active lanes are written back.

use crate::error::ExecError;
use crate::exec::{self, ThreadCtx};
use crate::instr::Instr;
use crate::kernel::MemImage;
use crate::op::{BranchIf, MemSpace, Operand, Reg};
use crate::simt::SimtStack;
use crate::WARP_SIZE;

const LANES: usize = WARP_SIZE as usize;

/// A warp as one step sees it: its registers, its SIMT stack and where
/// its threads sit in the grid.
#[derive(Debug)]
pub struct WarpCtx<'a> {
    /// Register values, register-major: `regs[reg * 32 + lane]`, so one
    /// register of the whole warp is one contiguous 32-word row. Holds
    /// at least one row per register the program names.
    pub regs: &'a mut [u32],
    /// PC and reconvergence stack; the step executes at its PC on its
    /// active mask and moves it past the instruction.
    pub stack: &'a mut SimtStack,
    /// Lane 0's thread context; lane `l`'s is the same with `tid + l`.
    pub lane0: ThreadCtx,
}

/// Which way a memory access moves data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// A load (`ld`).
    Load,
    /// A store (`st`).
    Store,
    /// A read-modify-write (`atom`).
    Atomic,
}

/// A memory instruction's accesses, as timing needs them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Access {
    /// The space accessed; atomics are global.
    pub space: MemSpace,
    /// Load, store or atomic.
    pub kind: AccessKind,
    /// The register the access writes (a load's, or an atomic's that
    /// returns the old value).
    pub dst: Option<Reg>,
    /// Byte address of each lane in `mask`; the other lanes read 0.
    pub addrs: [u32; LANES],
    /// The lanes that accessed memory.
    pub mask: u32,
}

/// What a step did, for the timing model to charge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Effect {
    /// An ALU-class instruction (`Alu`, `Mad`, `Ffma`, `Sfu`) wrote `dst`
    /// on the active lanes.
    Alu {
        /// The register written.
        dst: Reg,
    },
    /// A load, store or atomic accessed memory.
    Mem(Access),
    /// The warp arrived at its CTA's barrier.
    Barrier,
    /// A conditional branch resolved.
    Branch {
        /// The active lanes that took it.
        taken: u32,
        /// Whether both paths have lanes (the warp diverged).
        divergent: bool,
    },
    /// The active lanes exited.
    Exit,
    /// An unconditional jump: nothing to charge.
    Jump,
}

impl WarpCtx<'_> {
    /// Operand `op` on all 32 lanes: a register is a row copy, an
    /// immediate a splat, and a special register is computed per lane
    /// from lane 0's context.
    fn operand(&self, op: Operand) -> [u32; LANES] {
        match op {
            Operand::Reg(r) => self.regs[row(r)]
                .try_into()
                .expect("a register row is one warp wide"),
            Operand::Imm(v) => [v; LANES],
            Operand::Sreg(_) => std::array::from_fn(|lane| {
                let ctx = ThreadCtx {
                    tid: self.lane0.tid + lane as u32,
                    ..self.lane0
                };
                exec::resolve(op, &[], &ctx)
            }),
        }
    }

    /// Writes `values[lane]` to register `reg` of every lane in `mask`:
    /// a branch-free select over the register's row.
    fn write(&mut self, reg: Reg, mask: u32, values: &[u32; LANES]) {
        for (lane, (r, &v)) in self.regs[row(reg)].iter_mut().zip(values).enumerate() {
            // All ones where the lane is inactive (keep), zero where it
            // is active (take `v`).
            let keep = ((mask >> lane) & 1).wrapping_sub(1);
            *r = (*r & keep) | (v & !keep);
        }
    }
}

/// The index range of register `reg`'s row.
fn row(reg: Reg) -> std::ops::Range<usize> {
    let base = usize::from(reg.0) * LANES;
    base..base + LANES
}

/// The lanes of `mask`, lowest first.
fn lanes(mask: u32) -> impl Iterator<Item = usize> {
    let mut m = mask;
    std::iter::from_fn(move || {
        (m != 0).then(|| {
            let lane = m.trailing_zeros() as usize;
            m &= m - 1;
            lane
        })
    })
}

/// Executes `instr`, the instruction at the warp's PC, on the warp's
/// active lanes and moves its SIMT stack past it. `image` is global
/// memory and `smem` the warp's CTA's shared memory.
///
/// Lanes of one memory instruction apply in lane order, and the faults
/// of one instruction rank as the timing simulator's lane loops have
/// always ranked them: every active lane's address is checked for
/// alignment (and a shared access applied) before any lane touches the
/// global image, so an `Unaligned` or `SharedOutOfRange` fault on any
/// lane outranks a `GlobalOutOfRange` fault on a lower one.
///
/// # Errors
///
/// Returns the [`ExecError`] of the first faulting lane in that order.
/// The stack has then not moved; registers and memory may hold the
/// effects of the lanes before it.
///
/// # Panics
///
/// Panics if the stack is done, or `regs` lacks a register `instr`
/// names; a validated program stepped on a live warp does neither.
pub fn step_warp(
    instr: &Instr,
    w: &mut WarpCtx<'_>,
    image: &mut MemImage,
    smem: &mut [u32],
) -> Result<Effect, ExecError> {
    let mask = w.stack.active_mask();
    let alu = |w: &mut WarpCtx<'_>, dst: Reg, values: [u32; LANES]| {
        w.write(dst, mask, &values);
        Effect::Alu { dst }
    };
    let effect = match *instr {
        Instr::Alu { op, dst, a, b } => {
            let values = exec::eval_alu_lanes(op, &w.operand(a), &w.operand(b));
            alu(w, dst, values)
        }
        Instr::Mad { dst, a, b, c } => {
            let [a, b, c] = [a, b, c].map(|o| w.operand(o));
            alu(w, dst, exec::eval_mad_lanes(&a, &b, &c))
        }
        Instr::Ffma { dst, a, b, c } => {
            let [a, b, c] = [a, b, c].map(|o| w.operand(o));
            alu(w, dst, exec::eval_ffma_lanes(&a, &b, &c))
        }
        Instr::Sfu { op, dst, a } => {
            let values = exec::eval_sfu_lanes(op, &w.operand(a));
            alu(w, dst, values)
        }
        Instr::Ld {
            space,
            dst,
            addr,
            offset,
        } => {
            let mut loaded = [0; LANES];
            let addrs = access(w, space, addr, offset, image, smem, |lane, word| {
                loaded[lane] = *word;
            })?;
            w.write(dst, mask, &loaded);
            Effect::Mem(Access {
                space,
                kind: AccessKind::Load,
                dst: Some(dst),
                addrs,
                mask,
            })
        }
        Instr::St {
            space,
            addr,
            offset,
            src,
        } => {
            let values = w.operand(src);
            let addrs = access(w, space, addr, offset, image, smem, |lane, word| {
                *word = values[lane];
            })?;
            Effect::Mem(Access {
                space,
                kind: AccessKind::Store,
                dst: None,
                addrs,
                mask,
            })
        }
        Instr::Atom {
            op,
            dst,
            addr,
            offset,
            val,
        } => {
            let (space, values) = (MemSpace::Global, w.operand(val));
            let mut old = [0; LANES];
            let addrs = access(w, space, addr, offset, image, smem, |lane, word| {
                old[lane] = *word;
                *word = exec::eval_atom(op, *word, values[lane]);
            })?;
            if let Some(d) = dst {
                w.write(d, mask, &old);
            }
            Effect::Mem(Access {
                space,
                kind: AccessKind::Atomic,
                dst,
                addrs,
                mask,
            })
        }
        Instr::Bar => Effect::Barrier,
        Instr::Bra { target } => {
            w.stack.jump(target);
            return Ok(Effect::Jump);
        }
        Instr::BraCond {
            pred,
            when,
            target,
            reconv,
        } => {
            let nonzero = when == BranchIf::NonZero;
            let pred = w.operand(pred);
            let taken = (pred.iter().enumerate()).fold(0u32, |t, (lane, &v)| {
                t | u32::from((v != 0) == nonzero) << lane
            }) & mask;
            let divergent = w.stack.branch(taken, target, reconv);
            return Ok(Effect::Branch { taken, divergent });
        }
        Instr::Exit => {
            w.stack.exit();
            return Ok(Effect::Exit);
        }
    };
    w.stack.advance();
    Ok(effect)
}

/// The lane loops of one memory access at `addr + offset` on the warp's
/// active lanes, in the fault order [`step_warp`] documents: `apply`
/// gets each lane's memory word, first in `smem` (in the alignment loop)
/// or else in `image` (in a second loop). Returns the lanes' addresses.
fn access(
    w: &WarpCtx<'_>,
    space: MemSpace,
    addr: Operand,
    offset: i32,
    image: &mut MemImage,
    smem: &mut [u32],
    mut apply: impl FnMut(usize, &mut u32),
) -> Result<[u32; LANES], ExecError> {
    let mask = w.stack.active_mask();
    let base = w.operand(addr);
    let mut addrs = [0u32; LANES];
    for lane in lanes(mask) {
        let a = base[lane].wrapping_add(offset as u32);
        if !a.is_multiple_of(4) {
            return Err(ExecError::Unaligned { addr: a });
        }
        addrs[lane] = a;
        if space == MemSpace::Shared {
            let word = smem
                .get_mut((a / 4) as usize)
                .ok_or(ExecError::SharedOutOfRange { addr: a })?;
            apply(lane, word);
        }
    }
    if space == MemSpace::Global {
        let words = image.words_mut();
        for lane in lanes(mask) {
            let a = addrs[lane];
            let word = words
                .get_mut((a / 4) as usize)
                .ok_or(ExecError::GlobalOutOfRange { addr: a })?;
            apply(lane, word);
        }
    }
    Ok(addrs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alignment_and_shared_faults_outrank_global_range_faults() {
        // Lane 0 out of range, lane 5 unaligned: the alignment loop runs
        // over every lane before the global loop.
        let mut regs = vec![0u32; LANES];
        regs[0] = 1 << 26;
        regs[5] = 2;
        let mut stack = SimtStack::new(u32::MAX);
        let mut image = MemImage::zeroed(16);
        let ld = |space| Instr::Ld {
            space,
            dst: Reg(0),
            addr: Operand::Reg(Reg(0)),
            offset: 0,
        };
        let mut run = |instr: Instr| {
            let lane0 = ThreadCtx {
                tid: 0,
                ctaid: 0,
                ntid: 32,
                ncta: 1,
            };
            let mut warp = WarpCtx {
                regs: &mut regs,
                stack: &mut stack,
                lane0,
            };
            step_warp(&instr, &mut warp, &mut image, &mut [0; 16])
        };
        assert_eq!(
            run(ld(MemSpace::Global)),
            Err(ExecError::Unaligned { addr: 2 })
        );
        // In shared memory each lane is checked whole before the next.
        assert_eq!(
            run(ld(MemSpace::Shared)),
            Err(ExecError::SharedOutOfRange { addr: 1 << 26 })
        );
        assert_eq!(stack.pc(), 0, "a fault does not move the stack");
    }
}
