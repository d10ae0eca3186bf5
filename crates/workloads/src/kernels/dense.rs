//! Dense compute kernels: clustering, tiled matrix multiply, lattice
//! Boltzmann streaming and stream clustering. `sgemm` and `lbm` are the
//! suite's capacity-limited members (shared-memory- and register-hungry
//! respectively); the other two are scheduling-limited.

use super::util::{rand_floats, rng};
use crate::suite::Scale;
use vt_isa::op::{Operand, Sreg};
use vt_isa::{Kernel, KernelBuilder};

/// `kmeans`-like: each thread classifies one 4-dimensional point against
/// 8 centroids with FMA distance accumulation. Centroid loads broadcast
/// (L1-friendly); point loads stream.
pub fn kmeans_like(scale: &Scale) -> Kernel {
    let ctas = scale.ctas;
    let threads = 64u32;
    let n = ctas * threads;
    let dims = 4u32;
    let k = 8u32;
    let table_words = 8192u32; // 32 KiB of centroid replicas: misses L1, hits L2
    let mut r = rng(0x0004_3a15);
    let mut b = KernelBuilder::new("kmeans");
    let points = b.alloc_global_init(&rand_floats(&mut r, (n * dims) as usize));
    let centroids = b.alloc_global_init(&rand_floats(&mut r, table_words as usize));
    let out = b.alloc_global(n as usize);

    let gid = b.reg();
    let poff = b.reg();
    let best = b.reg();
    let besti = b.reg();
    let distv = b.reg();
    let tmp = b.reg();
    let p = b.reg();
    let cv = b.reg();
    let c = b.reg();
    let d = b.reg();
    let pred = b.reg();
    b.global_thread_id(gid);
    b.mul(poff, Operand::Reg(gid), Operand::Imm(dims * 4));
    b.mov(best, Operand::fimm(f32::MAX));
    b.mov(besti, Operand::Imm(0));
    b.for_range(c, Operand::Imm(0), Operand::Imm(k), 1, |b, c| {
        b.mov(distv, Operand::Imm(0));
        b.for_range(d, Operand::Imm(0), Operand::Imm(dims), 1, |b, d| {
            b.shl(tmp, Operand::Reg(d), Operand::Imm(2));
            b.add(tmp, Operand::Reg(tmp), Operand::Reg(poff));
            b.ld_global(p, Operand::Reg(tmp), points as i32);
            // Centroid replica chosen per (CTA, c, d): warp-uniform (one
            // broadcast transaction) but spread across the 32 KiB table so
            // the L1 cannot hold it and every access is an L2 round trip.
            let t2 = b.reg();
            b.mad(tmp, Operand::Reg(c), Operand::Imm(dims), Operand::Reg(d));
            b.mad(
                tmp,
                Operand::Reg(tmp),
                Operand::Imm(509),
                Operand::Sreg(Sreg::CtaId),
            );
            b.mul(t2, Operand::Reg(tmp), Operand::Imm(37));
            b.and_(t2, Operand::Reg(t2), Operand::Imm(table_words - 1));
            b.shl(t2, Operand::Reg(t2), Operand::Imm(2));
            b.ld_global(cv, Operand::Reg(t2), centroids as i32);
            b.fsub(p, Operand::Reg(p), Operand::Reg(cv));
            b.ffma(distv, Operand::Reg(p), Operand::Reg(p), Operand::Reg(distv));
        });
        b.fset_lt(pred, Operand::Reg(distv), Operand::Reg(best));
        b.if_(Operand::Reg(pred), |b| {
            b.fmul(best, Operand::Reg(distv), Operand::fimm(1.0));
            b.mov(besti, Operand::Reg(c));
        });
    });
    b.shl(tmp, Operand::Reg(gid), Operand::Imm(2));
    b.st_global(Operand::Reg(tmp), out as i32, Operand::Reg(besti));
    b.pad_regs(18);
    b.build(ctas, threads).expect("kmeans kernel is valid")
}

/// `sgemm`-like: shared-memory-tiled multiply-accumulate. The 8 KiB tile
/// footprint makes it **shared-memory capacity limited** (6 CTAs/SM on
/// the default 48 KiB scratchpad), so Virtual Thread has no headroom.
pub fn sgemm_like(scale: &Scale) -> Kernel {
    let ctas = scale.ctas;
    let threads = 128u32;
    let n = ctas * threads;
    let mut r = rng(0x56e3);
    let mut b = KernelBuilder::new("sgemm");
    let a_mat = b.alloc_global_init(&rand_floats(&mut r, (n * scale.iters) as usize));
    let out = b.alloc_global(n as usize);
    let tile = b.alloc_shared(threads);
    b.pad_smem(8 * 1024);

    let gid = b.reg();
    let tid4 = b.reg();
    let acc = b.reg();
    let a = b.reg();
    let x = b.reg();
    let t = b.reg();
    let j = b.reg();
    let tmp = b.reg();
    b.global_thread_id(gid);
    b.shl(tid4, Operand::Sreg(Sreg::Tid), Operand::Imm(2));
    b.mov(acc, Operand::Imm(0));
    b.for_range(t, Operand::Imm(0), Operand::Imm(scale.iters), 1, |b, t| {
        // Stage one coalesced tile into shared memory.
        b.mad(tmp, Operand::Reg(t), Operand::Imm(n), Operand::Reg(gid));
        b.shl(tmp, Operand::Reg(tmp), Operand::Imm(2));
        b.ld_global(a, Operand::Reg(tmp), a_mat as i32);
        b.st_shared(Operand::Reg(tid4), tile as i32, Operand::Reg(a));
        b.bar();
        // Inner product over the staged tile.
        b.for_range(j, Operand::Imm(0), Operand::Imm(8), 1, |b, j| {
            b.add(tmp, Operand::Sreg(Sreg::Tid), Operand::Reg(j));
            b.and_(tmp, Operand::Reg(tmp), Operand::Imm(threads - 1));
            b.shl(tmp, Operand::Reg(tmp), Operand::Imm(2));
            b.ld_shared(x, Operand::Reg(tmp), tile as i32);
            b.ffma(acc, Operand::Reg(x), Operand::Reg(a), Operand::Reg(acc));
        });
        b.bar();
    });
    b.shl(tmp, Operand::Reg(gid), Operand::Imm(2));
    b.st_global(Operand::Reg(tmp), out as i32, Operand::Reg(acc));
    b.pad_regs(32);
    b.build(ctas, threads).expect("sgemm kernel is valid")
}

/// `lbm`-like: lattice-Boltzmann streaming with very high register
/// pressure (48 registers/thread): **register capacity limited** (5
/// CTAs/SM), the other flat-under-VT population member.
pub fn lbm_like(scale: &Scale) -> Kernel {
    let ctas = scale.ctas;
    let threads = 128u32;
    let n = ctas * threads;
    let dirs = 8u32;
    let mut r = rng(0x1b33);
    let mut b = KernelBuilder::new("lbm");
    let cells = b.alloc_global_init(&rand_floats(&mut r, (n * dirs) as usize));
    let out = b.alloc_global((n * dirs) as usize);

    let gid = b.reg();
    let base = b.reg();
    let acc = b.reg();
    let tmp = b.reg();
    // One architectural register per lattice direction keeps the whole
    // distribution in flight, like the real kernel.
    let f: Vec<_> = (0..dirs).map(|_| b.reg()).collect();
    b.global_thread_id(gid);
    b.mul(base, Operand::Reg(gid), Operand::Imm(dirs * 4));
    b.mov(acc, Operand::Imm(0));
    for (d, fd) in f.iter().enumerate() {
        b.ld_global(*fd, Operand::Reg(base), (cells + 4 * d as u32) as i32);
        b.fadd(acc, Operand::Reg(acc), Operand::Reg(*fd));
    }
    // Collision: relax each direction toward the mean.
    b.fmul(tmp, Operand::Reg(acc), Operand::fimm(1.0 / 8.0));
    for (d, fd) in f.iter().enumerate() {
        b.fsub(*fd, Operand::Reg(*fd), Operand::Reg(tmp));
        b.fmul(*fd, Operand::Reg(*fd), Operand::fimm(0.9));
        b.fadd(*fd, Operand::Reg(*fd), Operand::Reg(tmp));
        b.st_global(
            Operand::Reg(base),
            (out + 4 * d as u32) as i32,
            Operand::Reg(*fd),
        );
    }
    b.pad_regs(48);
    b.build(ctas, threads).expect("lbm kernel is valid")
}

/// `streamcluster`-like: repeated distance evaluations against a 64 KiB
/// centre table. The table is too big for the L1 but L2-resident, so every
/// pass is an L2-latency-bound round trip with almost no DRAM bandwidth —
/// exactly the stall profile extra TLP hides. 64-thread CTAs and tiny
/// register footprints make it the most scheduling-limited kernel in the
/// suite.
pub fn streamcluster_like(scale: &Scale) -> Kernel {
    let ctas = scale.ctas;
    let threads = 64u32;
    let n = ctas * threads;
    let table_lines = 512u32; // 512 x 128 B = 64 KiB of centres
    let mut r = rng(0x5c77);
    let mut b = KernelBuilder::new("streamcluster");
    let table = b.alloc_global_init(&rand_floats(&mut r, (table_lines * 32) as usize));
    let out = b.alloc_global(n as usize);

    let gid = b.reg();
    let acc = b.reg();
    let v = b.reg();
    let i = b.reg();
    let base = b.reg();
    let off = b.reg();
    b.global_thread_id(gid);
    b.mov(acc, Operand::Imm(0));
    // Warp-uniform centre index: one coalesced transaction per access,
    // pseudo-randomly spread over the whole table.
    b.mad(
        base,
        Operand::Sreg(Sreg::CtaId),
        Operand::Imm(2),
        Operand::Sreg(Sreg::WarpId),
    );
    b.for_range(
        i,
        Operand::Imm(0),
        Operand::Imm(scale.iters * 2),
        1,
        |b, i| {
            let line = b.reg();
            b.mad(line, Operand::Reg(i), Operand::Imm(97), Operand::Reg(base));
            b.mul(line, Operand::Reg(line), Operand::Imm(53));
            b.and_(line, Operand::Reg(line), Operand::Imm(table_lines - 1));
            b.shl(line, Operand::Reg(line), Operand::Imm(7));
            b.shl(off, Operand::Sreg(Sreg::Lane), Operand::Imm(2));
            b.add(off, Operand::Reg(off), Operand::Reg(line));
            b.ld_global(v, Operand::Reg(off), table as i32);
            b.ffma(acc, Operand::Reg(v), Operand::Reg(v), Operand::Reg(acc));
        },
    );
    b.shl(off, Operand::Reg(gid), Operand::Imm(2));
    b.st_global(Operand::Reg(off), out as i32, Operand::Reg(acc));
    // Tightened from 10 after the static analyzer confirmed only 8
    // registers are ever referenced (occupancy stays CTA-slot-limited).
    b.pad_regs(8);
    b.build(ctas, threads)
        .expect("streamcluster kernel is valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use vt_core::{occupancy, CoreConfig, Limiter};
    use vt_isa::interp::Interpreter;

    fn tiny() -> Scale {
        Scale { ctas: 4, iters: 2 }
    }

    #[test]
    fn kmeans_runs_and_is_scheduling_limited() {
        let k = kmeans_like(&tiny());
        Interpreter::new(&k).unwrap().run().unwrap();
        let occ = occupancy::analyze(&CoreConfig::default(), &k);
        assert!(occ.limiter.is_scheduling());
    }

    #[test]
    fn sgemm_is_smem_capacity_limited() {
        let k = sgemm_like(&tiny());
        Interpreter::new(&k).unwrap().run().unwrap();
        let occ = occupancy::analyze(&CoreConfig::default(), &k);
        assert_eq!(occ.limiter, Limiter::SharedMemory);
        assert!((occ.bounds.headroom() - 1.0).abs() < 1e-9, "no VT headroom");
    }

    #[test]
    fn lbm_is_register_capacity_limited() {
        let k = lbm_like(&tiny());
        Interpreter::new(&k).unwrap().run().unwrap();
        let occ = occupancy::analyze(&CoreConfig::default(), &k);
        assert_eq!(occ.limiter, Limiter::Registers);
        assert_eq!(k.regs_per_thread(), 48);
    }

    #[test]
    fn streamcluster_has_large_vt_headroom() {
        let k = streamcluster_like(&tiny());
        Interpreter::new(&k).unwrap().run().unwrap();
        let occ = occupancy::analyze(&CoreConfig::default(), &k);
        assert_eq!(occ.limiter, Limiter::CtaSlots);
        assert!(occ.bounds.headroom() >= 3.0);
    }
}
