//! Synchronisation-heavy kernels: neural-network training, sequence
//! alignment wavefronts and tree reductions — barrier cadence plus
//! memory latency.

use super::util::{rand_floats, rng};
use crate::suite::Scale;
use vt_isa::op::{AtomOp, Operand, Sreg};
use vt_isa::{Kernel, KernelBuilder};

/// `backprop`-like: strided weight gather, per-thread multiply, then a
/// shared-memory tree reduction per CTA. 256-thread CTAs make it
/// **warp-slot** limited (6 CTAs by warps vs 8 CTA slots).
pub fn backprop_like(scale: &Scale) -> Kernel {
    let ctas = scale.ctas;
    let threads = 256u32;
    let mut r = rng(0xbac0);
    let mut b = KernelBuilder::new("backprop");
    // 256 KiB weight matrix, re-read by successive layers: L2-resident.
    let wtable = 64 * 1024u32;
    let weights = b.alloc_global_init(&rand_floats(&mut r, wtable as usize));
    let input = b.alloc_global_init(&rand_floats(&mut r, threads as usize));
    let out = b.alloc_global(ctas as usize);
    let buf = b.alloc_shared(threads);

    let gid = b.reg();
    let soff = b.reg();
    let w = b.reg();
    let x = b.reg();
    let stride = b.reg();
    let p = b.reg();
    let other = b.reg();
    let y = b.reg();
    let tmp = b.reg();
    b.global_thread_id(gid);
    // Strided gather: thread t reads weights[(t * 2) mod table].
    b.shl(tmp, Operand::Reg(gid), Operand::Imm(1));
    b.and_(tmp, Operand::Reg(tmp), Operand::Imm(wtable - 1));
    b.shl(tmp, Operand::Reg(tmp), Operand::Imm(2));
    b.ld_global(w, Operand::Reg(tmp), weights as i32);
    b.shl(tmp, Operand::Sreg(Sreg::Tid), Operand::Imm(2));
    b.ld_global(x, Operand::Reg(tmp), input as i32);
    b.fmul(w, Operand::Reg(w), Operand::Reg(x));
    b.shl(soff, Operand::Sreg(Sreg::Tid), Operand::Imm(2));
    b.st_shared(Operand::Reg(soff), buf as i32, Operand::Reg(w));
    b.bar();
    b.mov(stride, Operand::Imm(threads / 2));
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
                b.ld_shared(y, Operand::Reg(other), buf as i32);
                b.ld_shared(w, Operand::Reg(soff), buf as i32);
                b.fadd(w, Operand::Reg(w), Operand::Reg(y));
                b.st_shared(Operand::Reg(soff), buf as i32, Operand::Reg(w));
            });
            b.bar();
            b.shr(stride, Operand::Reg(stride), Operand::Imm(1));
        },
    );
    b.set_eq(p, Operand::Sreg(Sreg::Tid), Operand::Imm(0));
    b.if_(Operand::Reg(p), |b| {
        b.ld_shared(w, Operand::Reg(soff), buf as i32);
        b.shl(tmp, Operand::Sreg(Sreg::CtaId), Operand::Imm(2));
        b.st_global(Operand::Reg(tmp), out as i32, Operand::Reg(w));
    });
    // Tightened from 12 after the static analyzer confirmed only 10
    // registers are ever referenced (occupancy stays warp-slot-limited).
    b.pad_regs(10);
    b.build(ctas, threads).expect("backprop kernel is valid")
}

/// `nw`-like (Needleman–Wunsch): single-warp CTAs marching a wavefront in
/// shared memory. One warp per CTA slot leaves 40 of 48 warp slots empty
/// under the baseline — the extreme scheduling-limited case.
pub fn nw_like(scale: &Scale) -> Kernel {
    let ctas = scale.ctas;
    let threads = 32u32;
    let n = ctas * threads;
    let mut r = rng(0x0002_1177);
    let mut b = KernelBuilder::new("nw");
    let score = b.alloc_global_init(&(0..n * 2).map(|_| r.gen_range(0..16)).collect::<Vec<_>>());
    let out = b.alloc_global(n as usize);
    let diag = b.alloc_shared(threads);
    b.pad_smem(2048);

    let gid = b.reg();
    let goff = b.reg();
    let soff = b.reg();
    let v = b.reg();
    let nb = b.reg();
    let t = b.reg();
    let tmp = b.reg();
    b.global_thread_id(gid);
    b.shl(goff, Operand::Reg(gid), Operand::Imm(2));
    b.shl(soff, Operand::Sreg(Sreg::Tid), Operand::Imm(2));
    b.ld_global(v, Operand::Reg(goff), score as i32);
    b.st_shared(Operand::Reg(soff), diag as i32, Operand::Reg(v));
    b.bar();
    b.for_range(t, Operand::Imm(0), Operand::Imm(scale.iters), 1, |b, t| {
        // Each step reads the previous diagonal cell and a fresh global
        // score, then publishes the new cell.
        b.add(tmp, Operand::Sreg(Sreg::Tid), Operand::Imm(threads - 1));
        b.and_(tmp, Operand::Reg(tmp), Operand::Imm(threads - 1));
        b.shl(tmp, Operand::Reg(tmp), Operand::Imm(2));
        b.ld_shared(nb, Operand::Reg(tmp), diag as i32);
        b.mad(tmp, Operand::Reg(t), Operand::Imm(n), Operand::Reg(gid));
        b.rem(tmp, Operand::Reg(tmp), Operand::Imm(n * 2));
        b.shl(tmp, Operand::Reg(tmp), Operand::Imm(2));
        b.ld_global(tmp, Operand::Reg(tmp), score as i32);
        b.add(nb, Operand::Reg(nb), Operand::Reg(tmp));
        b.min_(v, Operand::Reg(v), Operand::Reg(nb));
        b.bar();
        b.st_shared(Operand::Reg(soff), diag as i32, Operand::Reg(v));
        b.bar();
    });
    b.st_global(Operand::Reg(goff), out as i32, Operand::Reg(v));
    b.pad_regs(12);
    b.build(ctas, threads).expect("nw kernel is valid")
}

/// `reduction`-like: coalesced loads, shared-memory tree reduction and a
/// final global atomic per CTA.
pub fn reduction_like(scale: &Scale) -> Kernel {
    let ctas = scale.ctas;
    let threads = 128u32;
    let n = ctas * threads;
    let mut b = KernelBuilder::new("reduction");
    // A 256 KiB operand table read with wrapped grid-stride indices:
    // L2-resident after the first wave, so the load phase is bound by L2
    // latency instead of raw DRAM bandwidth.
    let table = 64 * 1024u32;
    let total = b.alloc_global(1);
    let data = b.alloc_global_init(&(0..table).collect::<Vec<u32>>());
    let buf = b.alloc_shared(threads);

    let gid = b.reg();
    let soff = b.reg();
    let a = b.reg();
    let c = b.reg();
    let stride = b.reg();
    let p = b.reg();
    let other = b.reg();
    let tmp = b.reg();
    b.global_thread_id(gid);
    b.and_(tmp, Operand::Reg(gid), Operand::Imm(table - 1));
    b.shl(tmp, Operand::Reg(tmp), Operand::Imm(2));
    b.ld_global(a, Operand::Reg(tmp), data as i32);
    b.add(tmp, Operand::Reg(gid), Operand::Imm(n));
    b.and_(tmp, Operand::Reg(tmp), Operand::Imm(table - 1));
    b.shl(tmp, Operand::Reg(tmp), Operand::Imm(2));
    b.ld_global(c, Operand::Reg(tmp), data as i32);
    b.add(a, Operand::Reg(a), Operand::Reg(c));
    b.shl(soff, Operand::Sreg(Sreg::Tid), Operand::Imm(2));
    b.st_shared(Operand::Reg(soff), buf as i32, Operand::Reg(a));
    b.bar();
    b.mov(stride, Operand::Imm(threads / 2));
    b.while_(
        |b| {
            let cnd = b.reg();
            b.set_gt(cnd, Operand::Reg(stride), Operand::Imm(0));
            Operand::Reg(cnd)
        },
        |b| {
            b.set_lt(p, Operand::Sreg(Sreg::Tid), Operand::Reg(stride));
            b.if_(Operand::Reg(p), |b| {
                b.add(other, Operand::Sreg(Sreg::Tid), Operand::Reg(stride));
                b.shl(other, Operand::Reg(other), Operand::Imm(2));
                b.ld_shared(c, Operand::Reg(other), buf as i32);
                b.ld_shared(a, Operand::Reg(soff), buf as i32);
                b.add(a, Operand::Reg(a), Operand::Reg(c));
                b.st_shared(Operand::Reg(soff), buf as i32, Operand::Reg(a));
            });
            b.bar();
            b.shr(stride, Operand::Reg(stride), Operand::Imm(1));
        },
    );
    b.set_eq(p, Operand::Sreg(Sreg::Tid), Operand::Imm(0));
    b.if_(Operand::Reg(p), |b| {
        b.ld_shared(a, Operand::Reg(soff), buf as i32);
        b.atom(AtomOp::Add, None, Operand::Imm(total), 0, Operand::Reg(a));
    });
    b.pad_regs(10);
    b.build(ctas, threads).expect("reduction kernel is valid")
}

/// CPU reference for [`reduction_like`]: the grand total it must produce.
pub fn reduction_reference(scale: &Scale) -> u32 {
    let n = scale.ctas * 128;
    let table = 64 * 1024u32;
    (0..n)
        .map(|gid| (gid & (table - 1)).wrapping_add((gid + n) & (table - 1)))
        .fold(0u32, |acc, v| acc.wrapping_add(v))
}

#[cfg(test)]
mod tests {
    use super::*;
    use vt_core::{occupancy, CoreConfig, Limiter};
    use vt_isa::interp::Interpreter;

    fn tiny() -> Scale {
        Scale { ctas: 3, iters: 2 }
    }

    #[test]
    fn backprop_is_warp_slot_limited() {
        let k = backprop_like(&tiny());
        Interpreter::new(&k).unwrap().run().unwrap();
        let occ = occupancy::analyze(&CoreConfig::default(), &k);
        assert_eq!(occ.limiter, Limiter::WarpSlots);
    }

    #[test]
    fn nw_wastes_most_warp_slots_under_baseline() {
        let k = nw_like(&tiny());
        Interpreter::new(&k).unwrap().run().unwrap();
        let occ = occupancy::analyze(&CoreConfig::default(), &k);
        assert_eq!(occ.limiter, Limiter::CtaSlots);
        assert_eq!(occ.bounds.baseline(), 8, "8 single-warp CTAs");
        assert!(
            4 * occ.bounds.baseline() < occ.bounds.by_warp_slots,
            "under a quarter of the warp slots hold a warp"
        );
    }

    #[test]
    fn reduction_total_matches_cpu() {
        let s = tiny();
        let k = reduction_like(&s);
        let r = Interpreter::new(&k).unwrap().run().unwrap();
        assert_eq!(r.load_words(0, 1)[0], reduction_reference(&s));
    }
}
