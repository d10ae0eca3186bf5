//! Per-lane functional semantics: operand resolution and the scalar
//! evaluators, plus their lane-vector forms.
//!
//! Instructions execute in [`crate::step::step_warp`], which both the
//! timing simulator and the reference interpreter call, so a kernel
//! computes the same values on either path; the timing model only
//! decides *when* those values become visible. The step evaluates a
//! whole warp at once with the `eval_*_lanes` forms below.

use crate::op::{AluOp, AtomOp, Operand, SfuOp, Sreg};

/// The grid position of one thread, used to resolve special registers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThreadCtx {
    /// Thread index within the CTA.
    pub tid: u32,
    /// CTA index within the grid.
    pub ctaid: u32,
    /// Threads per CTA.
    pub ntid: u32,
    /// CTAs in the grid.
    pub ncta: u32,
}

impl ThreadCtx {
    /// Lane index within the warp.
    pub fn lane(&self) -> u32 {
        self.tid % crate::WARP_SIZE
    }

    /// Warp index within the CTA.
    pub fn warp_id(&self) -> u32 {
        self.tid / crate::WARP_SIZE
    }

    /// Globally unique linear thread id.
    pub fn global_tid(&self) -> u32 {
        self.ctaid * self.ntid + self.tid
    }
}

/// Resolves an operand to a value against a register frame and thread
/// context.
///
/// # Panics
///
/// Panics if a register index exceeds the frame; validated programs cannot
/// trigger this.
pub fn resolve(op: Operand, regs: &[u32], ctx: &ThreadCtx) -> u32 {
    match op {
        Operand::Reg(r) => regs[r.0 as usize],
        Operand::Imm(v) => v,
        Operand::Sreg(s) => match s {
            Sreg::Tid => ctx.tid,
            Sreg::CtaId => ctx.ctaid,
            Sreg::NTid => ctx.ntid,
            Sreg::NCta => ctx.ncta,
            Sreg::Lane => ctx.lane(),
            Sreg::WarpId => ctx.warp_id(),
        },
    }
}

fn f(v: u32) -> f32 {
    f32::from_bits(v)
}

/// The canonical NaN every float result that is NaN becomes: the pattern
/// NVIDIA hardware writes.
const CANONICAL_NAN: u32 = 0x7FFF_FFFF;

/// The bits of a float result. Rust leaves the payload of a NaN result
/// unspecified (LLVM may commute an `fadd`, and the payload follows the
/// operand order), so every NaN becomes [`CANONICAL_NAN`] here. The
/// interpreter's scalar path and the simulator's lane path then agree by
/// construction, at any optimisation level.
fn bits(v: f32) -> u32 {
    if v.is_nan() {
        CANONICAL_NAN
    } else {
        v.to_bits()
    }
}

fn flag(b: bool) -> u32 {
    u32::from(b)
}

/// Evaluates a binary ALU operation.
pub fn eval_alu(op: AluOp, a: u32, b: u32) -> u32 {
    match op {
        AluOp::Mov => a,
        AluOp::Add => a.wrapping_add(b),
        AluOp::Sub => a.wrapping_sub(b),
        AluOp::Mul => a.wrapping_mul(b),
        AluOp::MulHi => ((u64::from(a) * u64::from(b)) >> 32) as u32,
        // PTX semantics: unsigned div/rem by zero produce all-ones /
        // the dividend rather than trapping.
        AluOp::Div => a.checked_div(b).unwrap_or(u32::MAX),
        AluOp::Rem => a.checked_rem(b).unwrap_or(a),
        AluOp::Min => a.min(b),
        AluOp::Max => a.max(b),
        AluOp::And => a & b,
        AluOp::Or => a | b,
        AluOp::Xor => a ^ b,
        AluOp::Shl => a << (b & 31),
        AluOp::Shr => a >> (b & 31),
        AluOp::SetLt => flag(a < b),
        AluOp::SetLe => flag(a <= b),
        AluOp::SetEq => flag(a == b),
        AluOp::SetNe => flag(a != b),
        AluOp::SetGt => flag(a > b),
        AluOp::SetGe => flag(a >= b),
        AluOp::SetLtS => flag((a as i32) < (b as i32)),
        AluOp::SetGeS => flag((a as i32) >= (b as i32)),
        AluOp::FAdd => bits(f(a) + f(b)),
        AluOp::FSub => bits(f(a) - f(b)),
        AluOp::FMul => bits(f(a) * f(b)),
        AluOp::FMin => bits(f(a).min(f(b))),
        AluOp::FMax => bits(f(a).max(f(b))),
        AluOp::FSetLt => flag(f(a) < f(b)),
        AluOp::FSetLe => flag(f(a) <= f(b)),
        AluOp::FSetGt => flag(f(a) > f(b)),
        AluOp::U2F => bits(a as f32),
        AluOp::F2U => {
            let v = f(a);
            if v.is_nan() {
                0
            } else {
                v.clamp(0.0, u32::MAX as f32) as u32
            }
        }
    }
}

/// Evaluates an integer multiply-add `a * b + c`.
pub fn eval_mad(a: u32, b: u32, c: u32) -> u32 {
    a.wrapping_mul(b).wrapping_add(c)
}

/// Evaluates a float fused multiply-add `a * b + c`.
pub fn eval_ffma(a: u32, b: u32, c: u32) -> u32 {
    bits(f(a).mul_add(f(b), f(c)))
}

/// Evaluates a special-function (SFU) operation.
pub fn eval_sfu(op: SfuOp, a: u32) -> u32 {
    let x = f(a);
    let r = match op {
        SfuOp::Rcp => 1.0 / x,
        SfuOp::Sqrt => x.sqrt(),
        SfuOp::Rsqrt => 1.0 / x.sqrt(),
        SfuOp::Exp2 => x.exp2(),
        SfuOp::Log2 => x.log2(),
        SfuOp::Sin => x.sin(),
    };
    bits(r)
}

/// `f` applied lane-wise to one or more `[u32; 32]` operand vectors.
macro_rules! lanes {
    (|$($x:ident),+| $body:expr) => {
        std::array::from_fn(|i| {
            $(let $x = $x[i];)+
            $body
        })
    };
}

/// [`eval_alu`] on every lane of a warp. `op` is matched once, outside
/// the lane loop, so each arm is a straight loop over constant-op
/// [`eval_alu`] calls. No evaluator traps, so computing lanes the caller
/// then discards (inactive ones) is harmless.
pub(crate) fn eval_alu_lanes(op: AluOp, a: &[u32; 32], b: &[u32; 32]) -> [u32; 32] {
    macro_rules! per_op {
        ($($op:ident)*) => {
            match op {
                $(AluOp::$op => lanes!(|a, b| eval_alu(AluOp::$op, a, b)),)*
            }
        };
    }
    per_op!(
        Mov Add Sub Mul MulHi Div Rem Min Max And Or Xor Shl Shr
        SetLt SetLe SetEq SetNe SetGt SetGe SetLtS SetGeS
        FAdd FSub FMul FMin FMax FSetLt FSetLe FSetGt U2F F2U
    )
}

/// [`eval_mad`] on every lane of a warp.
pub(crate) fn eval_mad_lanes(a: &[u32; 32], b: &[u32; 32], c: &[u32; 32]) -> [u32; 32] {
    lanes!(|a, b, c| eval_mad(a, b, c))
}

/// [`eval_ffma`] on every lane of a warp.
pub(crate) fn eval_ffma_lanes(a: &[u32; 32], b: &[u32; 32], c: &[u32; 32]) -> [u32; 32] {
    lanes!(|a, b, c| eval_ffma(a, b, c))
}

/// [`eval_sfu`] on every lane of a warp, `op` matched once as in
/// [`eval_alu_lanes`].
pub(crate) fn eval_sfu_lanes(op: SfuOp, a: &[u32; 32]) -> [u32; 32] {
    macro_rules! per_op {
        ($($op:ident)*) => {
            match op {
                $(SfuOp::$op => lanes!(|a| eval_sfu(SfuOp::$op, a)),)*
            }
        };
    }
    per_op!(Rcp Sqrt Rsqrt Exp2 Log2 Sin)
}

/// Applies an atomic read-modify-write, returning the new memory value.
/// The *old* value is what the instruction's destination receives.
pub fn eval_atom(op: AtomOp, old: u32, val: u32) -> u32 {
    match op {
        AtomOp::Add => old.wrapping_add(val),
        AtomOp::Max => old.max(val),
        AtomOp::Min => old.min(val),
        AtomOp::Exch => val,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::Reg;

    #[test]
    fn thread_ctx_positions() {
        let c = ThreadCtx {
            tid: 70,
            ctaid: 3,
            ntid: 128,
            ncta: 8,
        };
        assert_eq!(c.lane(), 6);
        assert_eq!(c.warp_id(), 2);
        assert_eq!(c.global_tid(), 3 * 128 + 70);
    }

    #[test]
    fn resolve_all_operand_kinds() {
        let ctx = ThreadCtx {
            tid: 5,
            ctaid: 2,
            ntid: 64,
            ncta: 4,
        };
        let regs = [11, 22, 33];
        assert_eq!(resolve(Operand::Reg(Reg(1)), &regs, &ctx), 22);
        assert_eq!(resolve(Operand::Imm(9), &regs, &ctx), 9);
        assert_eq!(resolve(Operand::Sreg(Sreg::Tid), &regs, &ctx), 5);
        assert_eq!(resolve(Operand::Sreg(Sreg::CtaId), &regs, &ctx), 2);
        assert_eq!(resolve(Operand::Sreg(Sreg::NTid), &regs, &ctx), 64);
        assert_eq!(resolve(Operand::Sreg(Sreg::NCta), &regs, &ctx), 4);
        assert_eq!(resolve(Operand::Sreg(Sreg::Lane), &regs, &ctx), 5);
        assert_eq!(resolve(Operand::Sreg(Sreg::WarpId), &regs, &ctx), 0);
    }

    #[test]
    fn integer_alu_semantics() {
        assert_eq!(eval_alu(AluOp::Add, u32::MAX, 2), 1, "wrapping add");
        assert_eq!(eval_alu(AluOp::Sub, 1, 3), u32::MAX - 1);
        assert_eq!(
            eval_alu(AluOp::Mul, 1 << 20, 1 << 13),
            0,
            "low 32 bits of 2^33"
        );
        assert_eq!(eval_alu(AluOp::MulHi, 1 << 20, 1 << 13), 2);
        assert_eq!(eval_alu(AluOp::Div, 7, 2), 3);
        assert_eq!(eval_alu(AluOp::Div, 7, 0), u32::MAX, "PTX div by zero");
        assert_eq!(eval_alu(AluOp::Rem, 7, 0), 7, "PTX rem by zero");
        assert_eq!(eval_alu(AluOp::Shl, 1, 35), 8, "shift masked");
        assert_eq!(eval_alu(AluOp::SetLtS, u32::MAX, 0), 1, "-1 < 0 signed");
        assert_eq!(eval_alu(AluOp::SetLt, u32::MAX, 0), 0, "unsigned");
    }

    #[test]
    fn float_alu_semantics() {
        let one_half = 0.5f32.to_bits();
        let two = 2.0f32.to_bits();
        assert_eq!(f32::from_bits(eval_alu(AluOp::FAdd, one_half, two)), 2.5);
        assert_eq!(f32::from_bits(eval_alu(AluOp::FMul, one_half, two)), 1.0);
        assert_eq!(eval_alu(AluOp::FSetLt, one_half, two), 1);
        assert_eq!(f32::from_bits(eval_alu(AluOp::U2F, 3, 0)), 3.0);
        assert_eq!(eval_alu(AluOp::F2U, 2.9f32.to_bits(), 0), 2);
        assert_eq!(eval_alu(AluOp::F2U, f32::NAN.to_bits(), 0), 0);
    }

    #[test]
    fn mad_and_ffma() {
        assert_eq!(eval_mad(3, 4, 5), 17);
        let r = eval_ffma(2.0f32.to_bits(), 3.0f32.to_bits(), 1.0f32.to_bits());
        assert_eq!(f32::from_bits(r), 7.0);
    }

    #[test]
    fn sfu_semantics() {
        assert_eq!(f32::from_bits(eval_sfu(SfuOp::Rcp, 4.0f32.to_bits())), 0.25);
        assert_eq!(f32::from_bits(eval_sfu(SfuOp::Sqrt, 9.0f32.to_bits())), 3.0);
        assert_eq!(f32::from_bits(eval_sfu(SfuOp::Exp2, 3.0f32.to_bits())), 8.0);
        assert_eq!(f32::from_bits(eval_sfu(SfuOp::Log2, 8.0f32.to_bits())), 3.0);
    }

    /// Bit-exact agreement of every lane evaluator with its scalar
    /// evaluator, on random words and on the edge cases each op is picky
    /// about: NaN, ±0, ±∞, division by zero, shifts of 32 and more.
    #[test]
    fn nan_results_are_canonical() {
        // Quiet NaNs with distinct payloads and signs, in both operand
        // orders: the result's payload must not depend on either.
        let nans = [0x7FC0_0001, 0xFFC0_1234, 0x7FA0_0000, f32::NAN.to_bits()];
        for &a in &nans {
            for &b in &nans {
                for op in [AluOp::FAdd, AluOp::FSub, AluOp::FMul, AluOp::FMin] {
                    assert_eq!(eval_alu(op, a, b), CANONICAL_NAN, "{op:?} {a:#x} {b:#x}");
                }
                assert_eq!(eval_ffma(a, b, 1.0f32.to_bits()), CANONICAL_NAN);
            }
            assert_eq!(eval_alu(AluOp::FAdd, a, 1.0f32.to_bits()), CANONICAL_NAN);
        }
        assert_eq!(eval_sfu(SfuOp::Sqrt, (-1.0f32).to_bits()), CANONICAL_NAN);
        assert_eq!(eval_sfu(SfuOp::Log2, (-1.0f32).to_bits()), CANONICAL_NAN);
        let inf = f32::INFINITY.to_bits();
        assert_eq!(eval_alu(AluOp::FSub, inf, inf), CANONICAL_NAN);
        // Non-NaN results keep their bits, signs of zero included.
        assert_eq!(
            eval_alu(AluOp::FMul, (-0.0f32).to_bits(), 1.0f32.to_bits()),
            0x8000_0000
        );
    }

    #[test]
    fn lane_evaluators_equal_scalar_evaluators() {
        let edges = [
            0,
            1,
            2,
            31,
            32,
            33,
            63,
            u32::MAX,
            i32::MIN as u32,
            i32::MAX as u32,
            f32::NAN.to_bits(),
            (-f32::NAN).to_bits(),
            0.0f32.to_bits(),
            (-0.0f32).to_bits(),
            f32::INFINITY.to_bits(),
            f32::NEG_INFINITY.to_bits(),
            1.0f32.to_bits(),
            (-1.5f32).to_bits(),
            f32::MIN_POSITIVE.to_bits(),
            4_294_967_040.0f32.to_bits(),
        ];
        let mut rng = vt_prng::Prng::new(0x1a7e5);
        let mut vectors: Vec<[u32; 32]> = Vec::new();
        // Every ordered pair of edge values meets lane-for-lane in some
        // (a, b) vector pair below.
        for shift in 0..edges.len() {
            vectors.push(std::array::from_fn(|i| edges[(i + shift) % edges.len()]));
        }
        for _ in 0..16 {
            vectors.push(std::array::from_fn(|_| rng.next_u32()));
        }
        let same = |got: [u32; 32], want: [u32; 32], what: &str| {
            assert_eq!(got, want, "{what}");
        };
        for a in &vectors {
            for op in SfuOp::ALL {
                same(
                    eval_sfu_lanes(*op, a),
                    a.map(|x| eval_sfu(*op, x)),
                    op.mnemonic(),
                );
            }
            for b in &vectors {
                for op in AluOp::ALL {
                    let want = std::array::from_fn(|i| eval_alu(*op, a[i], b[i]));
                    same(eval_alu_lanes(*op, a, b), want, op.mnemonic());
                }
                let c = &vectors[(a[0] ^ b[1]) as usize % vectors.len()];
                same(
                    eval_mad_lanes(a, b, c),
                    std::array::from_fn(|i| eval_mad(a[i], b[i], c[i])),
                    "mad",
                );
                same(
                    eval_ffma_lanes(a, b, c),
                    std::array::from_fn(|i| eval_ffma(a[i], b[i], c[i])),
                    "ffma",
                );
            }
        }
    }

    #[test]
    fn atom_semantics() {
        assert_eq!(eval_atom(AtomOp::Add, 10, 5), 15);
        assert_eq!(eval_atom(AtomOp::Max, 10, 5), 10);
        assert_eq!(eval_atom(AtomOp::Min, 10, 5), 5);
        assert_eq!(eval_atom(AtomOp::Exch, 10, 5), 5);
    }
}
