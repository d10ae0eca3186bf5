//! The instruction set.

use crate::op::{AluOp, AtomOp, BranchIf, MemSpace, Operand, Reg, SfuOp};
use std::fmt;

/// One SIMT instruction.
///
/// Control flow is *structured*: a divergent branch ([`Instr::BraCond`])
/// carries both its taken target and its reconvergence PC (the immediate
/// post-dominator of the branch), so the SIMT stack needs no separate
/// `SSY` marker. Uniform back-edges use [`Instr::Bra`], which never
/// diverges (all active lanes jump).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Instr {
    /// `dst = op(a, b)` on the SP pipeline.
    Alu {
        /// Operation to perform.
        op: AluOp,
        /// Destination register.
        dst: Reg,
        /// First source.
        a: Operand,
        /// Second source (ignored by `Mov` and conversions).
        b: Operand,
    },
    /// Integer multiply-add `dst = a * b + c` on the SP pipeline.
    Mad {
        /// Destination register.
        dst: Reg,
        /// Multiplicand.
        a: Operand,
        /// Multiplier.
        b: Operand,
        /// Addend.
        c: Operand,
    },
    /// Float fused multiply-add `dst = a * b + c` on the SP pipeline.
    Ffma {
        /// Destination register.
        dst: Reg,
        /// Multiplicand.
        a: Operand,
        /// Multiplier.
        b: Operand,
        /// Addend.
        c: Operand,
    },
    /// `dst = op(a)` on the long-latency SFU pipeline.
    Sfu {
        /// Operation to perform.
        op: SfuOp,
        /// Destination register.
        dst: Reg,
        /// Source operand.
        a: Operand,
    },
    /// Load a 32-bit word: `dst = mem[addr + offset]`.
    Ld {
        /// Address space.
        space: MemSpace,
        /// Destination register.
        dst: Reg,
        /// Base byte address.
        addr: Operand,
        /// Byte offset added to the base.
        offset: i32,
    },
    /// Store a 32-bit word: `mem[addr + offset] = src`.
    St {
        /// Address space.
        space: MemSpace,
        /// Base byte address.
        addr: Operand,
        /// Byte offset added to the base.
        offset: i32,
        /// Value to store.
        src: Operand,
    },
    /// Atomic read-modify-write on global memory; the old value is written
    /// to `dst` if present.
    Atom {
        /// Read-modify-write operation.
        op: AtomOp,
        /// Receives the pre-update value, if requested.
        dst: Option<Reg>,
        /// Base byte address.
        addr: Operand,
        /// Byte offset added to the base.
        offset: i32,
        /// Operation input value.
        val: Operand,
    },
    /// CTA-wide barrier: the warp waits until every unfinished warp of the
    /// CTA has arrived.
    Bar,
    /// Uniform jump: all active lanes move to `target`. Never diverges.
    Bra {
        /// Target PC.
        target: usize,
    },
    /// Potentially-divergent conditional branch.
    ///
    /// Lanes whose predicate matches `when` jump to `target`; the rest fall
    /// through. If both groups are non-empty the warp diverges and will
    /// reconverge at `reconv` (the branch's immediate post-dominator).
    BraCond {
        /// Per-lane predicate source.
        pred: Operand,
        /// Branch polarity.
        when: BranchIf,
        /// Taken-path PC (must be a forward target).
        target: usize,
        /// Reconvergence PC (must be `>= target`).
        reconv: usize,
    },
    /// Terminate the active lanes of the warp.
    Exit,
}

impl Instr {
    /// The destination register written by this instruction, if any.
    pub fn dst(&self) -> Option<Reg> {
        match self {
            Instr::Alu { dst, .. }
            | Instr::Mad { dst, .. }
            | Instr::Ffma { dst, .. }
            | Instr::Sfu { dst, .. }
            | Instr::Ld { dst, .. } => Some(*dst),
            Instr::Atom { dst, .. } => *dst,
            _ => None,
        }
    }

    /// Source operands without allocating, `None`-padded to three slots.
    pub fn sources_fixed(&self) -> [Option<Operand>; 3] {
        match self {
            Instr::Alu { a, b, .. } => [Some(*a), Some(*b), None],
            Instr::Mad { a, b, c, .. } | Instr::Ffma { a, b, c, .. } => {
                [Some(*a), Some(*b), Some(*c)]
            }
            Instr::Sfu { a, .. } => [Some(*a), None, None],
            Instr::Ld { addr, .. } => [Some(*addr), None, None],
            Instr::St { addr, src, .. } => [Some(*addr), Some(*src), None],
            Instr::Atom { addr, val, .. } => [Some(*addr), Some(*val), None],
            Instr::BraCond { pred, .. } => [Some(*pred), None, None],
            Instr::Bar | Instr::Bra { .. } | Instr::Exit => [None, None, None],
        }
    }

    /// All source operands read by this instruction.
    pub fn sources(&self) -> Vec<Operand> {
        self.sources_fixed().into_iter().flatten().collect()
    }

    /// The registers read by this instruction (sources that are registers).
    pub fn src_regs(&self) -> Vec<Reg> {
        self.sources().into_iter().filter_map(|o| o.reg()).collect()
    }

    /// Whether this is a global or shared memory access (load, store or
    /// atomic) handled by the LD/ST pipeline.
    pub fn is_mem(&self) -> bool {
        matches!(
            self,
            Instr::Ld { .. } | Instr::St { .. } | Instr::Atom { .. }
        )
    }

    /// Whether this accesses global memory (including atomics).
    pub fn is_global_mem(&self) -> bool {
        matches!(
            self,
            Instr::Ld {
                space: MemSpace::Global,
                ..
            } | Instr::St {
                space: MemSpace::Global,
                ..
            } | Instr::Atom { .. }
        )
    }

    /// Whether this instruction may change control flow.
    pub fn is_control(&self) -> bool {
        matches!(
            self,
            Instr::Bra { .. } | Instr::BraCond { .. } | Instr::Exit
        )
    }

    /// Whether the instruction only computes a register value — no memory
    /// traffic, no synchronisation, no control transfer. A pure
    /// instruction whose destination is never read afterwards is dead.
    pub fn is_pure(&self) -> bool {
        matches!(
            self,
            Instr::Alu { .. } | Instr::Mad { .. } | Instr::Ffma { .. } | Instr::Sfu { .. }
        )
    }
}

impl fmt::Display for Instr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Instr::Alu { op, dst, a, b } => match op {
                AluOp::Mov | AluOp::U2F | AluOp::F2U => {
                    write!(f, "{} {dst}, {a}", op.mnemonic())
                }
                _ => write!(f, "{} {dst}, {a}, {b}", op.mnemonic()),
            },
            Instr::Mad { dst, a, b, c } => write!(f, "mad {dst}, {a}, {b}, {c}"),
            Instr::Ffma { dst, a, b, c } => write!(f, "ffma {dst}, {a}, {b}, {c}"),
            Instr::Sfu { op, dst, a } => write!(f, "{} {dst}, {a}", op.mnemonic()),
            Instr::Ld {
                space,
                dst,
                addr,
                offset,
            } => {
                write!(f, "ld.{space} {dst}, [{addr}{offset:+}]")
            }
            Instr::St {
                space,
                addr,
                offset,
                src,
            } => {
                write!(f, "st.{space} [{addr}{offset:+}], {src}")
            }
            Instr::Atom {
                op,
                dst,
                addr,
                offset,
                val,
            } => match dst {
                Some(d) => write!(f, "atom.{}.g {d}, [{addr}{offset:+}], {val}", op.mnemonic()),
                None => write!(f, "atom.{}.g [{addr}{offset:+}], {val}", op.mnemonic()),
            },
            Instr::Bar => f.write_str("bar"),
            Instr::Bra { target } => write!(f, "bra @{target}"),
            Instr::BraCond {
                pred,
                when,
                target,
                reconv,
            } => {
                let pol = match when {
                    BranchIf::NonZero => "nz",
                    BranchIf::Zero => "z",
                };
                write!(f, "brc.{pol} {pred}, @{target}, @{reconv}")
            }
            Instr::Exit => f.write_str("exit"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dst_and_sources() {
        let i = Instr::Alu {
            op: AluOp::Add,
            dst: Reg(1),
            a: Operand::Reg(Reg(2)),
            b: Operand::Imm(3),
        };
        assert_eq!(i.dst(), Some(Reg(1)));
        assert_eq!(i.src_regs(), vec![Reg(2)]);
        assert!(!i.is_mem());
        assert!(!i.is_control());

        let ld = Instr::Ld {
            space: MemSpace::Global,
            dst: Reg(4),
            addr: Operand::Reg(Reg(5)),
            offset: 8,
        };
        assert!(ld.is_mem());
        assert!(ld.is_global_mem());
        assert_eq!(ld.dst(), Some(Reg(4)));

        let st = Instr::St {
            space: MemSpace::Shared,
            addr: Operand::Reg(Reg(1)),
            offset: 0,
            src: Operand::Reg(Reg(2)),
        };
        assert_eq!(st.dst(), None);
        assert!(!st.is_global_mem());
        assert_eq!(st.src_regs(), vec![Reg(1), Reg(2)]);
    }

    #[test]
    fn atom_dst_optional() {
        let a = Instr::Atom {
            op: AtomOp::Add,
            dst: None,
            addr: Operand::Reg(Reg(0)),
            offset: 0,
            val: Operand::Imm(1),
        };
        assert_eq!(a.dst(), None);
        assert!(a.is_global_mem());
    }

    #[test]
    fn display_round_trips_visually() {
        let i = Instr::BraCond {
            pred: Operand::Reg(Reg(7)),
            when: BranchIf::Zero,
            target: 12,
            reconv: 20,
        };
        assert_eq!(i.to_string(), "brc.z r7, @12, @20");
        assert_eq!(Instr::Bar.to_string(), "bar");
        assert_eq!(Instr::Exit.to_string(), "exit");
    }
}
