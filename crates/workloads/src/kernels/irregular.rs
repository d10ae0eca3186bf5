//! Irregular, data-dependent access patterns: graph traversal, sparse
//! algebra, histogramming. Small CTAs and low register pressure make all
//! three scheduling-limited — the population Virtual Thread targets.

use super::util::{rand_words, rng};
use crate::suite::Scale;
use vt_isa::op::{AtomOp, Operand};
use vt_isa::{Kernel, KernelBuilder};

/// `bfs`-like: pointer chasing through a random index array with a
/// min-reduction over visited distances. 64-thread CTAs, ~14 registers,
/// no shared memory; latency-bound with almost no coalescing.
pub fn bfs_like(scale: &Scale) -> Kernel {
    let ctas = scale.ctas;
    let threads = 64u32;
    let n = ctas * threads;
    // Frontier graph of 32 Ki nodes (128 KiB per array): L2-resident, far
    // beyond the L1. Neighbour lists are clustered so one warp's gather
    // touches a handful of lines, like CSR adjacency runs.
    let nodes = 32 * 1024u32;
    let mut r = rng(0xb1f5);
    // Community-structured adjacency: all nodes of one 64-node block hop
    // to a common random block (plus a small in-block shuffle), so a
    // warp's chase stays within a handful of cache lines the way BFS
    // frontier expansion over a partitioned graph does. The hop target is
    // random per block, so every chase is still an L2 round trip.
    let block_jump: Vec<u32> = (0..nodes / 64)
        .map(|_| r.gen_range(0..nodes / 64) * 64)
        .collect();
    let mut b = KernelBuilder::new("bfs");
    let cols_data: Vec<u32> = (0..nodes)
        .map(|i| {
            let target = block_jump[(i / 64) as usize] + (i + r.gen_range(0..4)) % 64;
            target % nodes
        })
        .collect();
    let cols = b.alloc_global_init(&cols_data);
    let dist = b.alloc_global_init(
        &(0..nodes)
            .map(|_| r.gen_range(0..1_000_000))
            .collect::<Vec<_>>(),
    );
    let out = b.alloc_global(n as usize);

    let gid = b.reg();
    let off = b.reg();
    let v = b.reg();
    let d = b.reg();
    let a = b.reg();
    let i = b.reg();
    b.global_thread_id(gid);
    b.and_(v, Operand::Reg(gid), Operand::Imm(nodes - 1));
    b.shl(off, Operand::Reg(v), Operand::Imm(2));
    b.ld_global(v, Operand::Reg(off), cols as i32);
    b.mov(d, Operand::Imm(u32::MAX));
    b.for_range(i, Operand::Imm(0), Operand::Imm(scale.iters), 1, |b, _| {
        // Gather the distance of the current node, fold it in, then chase
        // to the next node through the adjacency array — a dependent
        // pointer chase whose latency only more warps can hide.
        b.shl(off, Operand::Reg(v), Operand::Imm(2));
        b.ld_global(a, Operand::Reg(off), dist as i32);
        b.min_(d, Operand::Reg(d), Operand::Reg(a));
        b.ld_global(v, Operand::Reg(off), cols as i32);
    });
    b.shl(off, Operand::Reg(gid), Operand::Imm(2));
    b.st_global(Operand::Reg(off), out as i32, Operand::Reg(d));
    b.pad_regs(14);
    b.build(ctas, threads).expect("bfs kernel is valid")
}

/// `spmv`-like: padded-CSR sparse matrix–vector product with per-row
/// variable nonzero counts (divergent loop trip counts) and an indexed
/// gather of the dense vector.
pub fn spmv_like(scale: &Scale) -> Kernel {
    let ctas = scale.ctas;
    let threads = 64u32;
    let n = ctas * threads;
    // An 8 Ki-row banded matrix (~320 KiB with its vectors): L2-resident,
    // so SpMV is bound by L2 gather latency rather than DRAM streaming —
    // the regime where sparse kernels are actually run repeatedly (solver
    // iterations) and where TLP is the latency-hiding lever.
    let rows = 8192u32;
    let max_deg = 4u32;
    let mut r = rng(0x0005_93a7);
    let mut b = KernelBuilder::new("spmv");
    let deg = b.alloc_global_init(
        &(0..rows)
            .map(|_| r.gen_range(1..max_deg + 1))
            .collect::<Vec<_>>(),
    );
    // Banded sparsity: each row's columns fall in a 64-wide window around
    // its own block, like the diagonal-dominant matrices SpMV suites use.
    // This keeps the x-vector gather local (few transactions, real reuse).
    let cols: Vec<u32> = (0..rows * max_deg)
        .map(|i| {
            let row = i / max_deg;
            let base = (row / 64) * 64;
            (base + r.gen_range(0..64)).min(rows - 1)
        })
        .collect();
    let cols = b.alloc_global_init(&cols);
    let vals = b.alloc_global_init(
        &(0..rows * max_deg)
            .map(|_| r.gen_range_f32(0.1..2.0).to_bits())
            .collect::<Vec<_>>(),
    );
    let xvec = b.alloc_global_init(
        &(0..rows)
            .map(|_| r.gen_range_f32(0.1..2.0).to_bits())
            .collect::<Vec<_>>(),
    );
    let out = b.alloc_global(n as usize);

    let gid = b.reg();
    let off = b.reg();
    let myrow = b.reg();
    let mydeg = b.reg();
    let acc = b.reg();
    let row = b.reg();
    let p = b.reg();
    b.global_thread_id(gid);
    b.and_(myrow, Operand::Reg(gid), Operand::Imm(rows - 1));
    b.shl(off, Operand::Reg(myrow), Operand::Imm(2));
    b.ld_global(mydeg, Operand::Reg(off), deg as i32);
    b.mul(row, Operand::Reg(myrow), Operand::Imm(max_deg * 4));
    b.mov(acc, Operand::Imm(0));
    // Unrolled over the padded degree: entries of one row sit in the same
    // cache lines, and issuing them back-to-back lets the misses merge in
    // the MSHRs the way a real unrolled SpMV inner loop does.
    for j in 0..max_deg {
        let col = b.reg();
        let val = b.reg();
        let x = b.reg();
        b.set_lt(p, Operand::Imm(j), Operand::Reg(mydeg));
        b.if_(Operand::Reg(p), |b| {
            b.ld_global(col, Operand::Reg(row), (cols + 4 * j) as i32);
            b.ld_global(val, Operand::Reg(row), (vals + 4 * j) as i32);
            b.shl(col, Operand::Reg(col), Operand::Imm(2));
            b.ld_global(x, Operand::Reg(col), xvec as i32);
            b.ffma(acc, Operand::Reg(val), Operand::Reg(x), Operand::Reg(acc));
        });
    }
    b.shl(off, Operand::Reg(gid), Operand::Imm(2));
    b.st_global(Operand::Reg(off), out as i32, Operand::Reg(acc));
    b.pad_regs(16);
    b.build(ctas, threads).expect("spmv kernel is valid")
}

/// `histo`-like: contended global atomics into a 256-bin histogram.
/// Streaming loads, then serialised atomic updates at the L2.
pub fn histo_like(scale: &Scale) -> Kernel {
    let ctas = scale.ctas;
    let threads = 128u32;
    let n = ctas * threads;
    let samples = n * scale.iters;
    let mut r = rng(0x0004_1570);
    let mut b = KernelBuilder::new("histo");
    let hist = b.alloc_global(256);
    let data = b.alloc_global_init(&rand_words(&mut r, samples as usize));

    let gid = b.reg();
    let off = b.reg();
    let v = b.reg();
    let bin = b.reg();
    let i = b.reg();
    b.global_thread_id(gid);
    b.for_range(i, Operand::Imm(0), Operand::Imm(scale.iters), 1, |b, i| {
        // Grid-stride sampling keeps loads coalesced across the warp.
        b.mad(off, Operand::Reg(i), Operand::Imm(n), Operand::Reg(gid));
        b.shl(off, Operand::Reg(off), Operand::Imm(2));
        b.ld_global(v, Operand::Reg(off), data as i32);
        b.and_(bin, Operand::Reg(v), Operand::Imm(255));
        b.shl(bin, Operand::Reg(bin), Operand::Imm(2));
        b.atom(
            AtomOp::Add,
            None,
            Operand::Reg(bin),
            hist as i32,
            Operand::Imm(1),
        );
    });
    b.pad_regs(10);
    b.build(ctas, threads).expect("histo kernel is valid")
}

/// Reference CPU histogram for `histo_like`, used by integration tests.
pub fn histo_reference(scale: &Scale) -> Vec<u32> {
    let n = scale.ctas * 128;
    let samples = n * scale.iters;
    let mut r = rng(0x0004_1570);
    let data = rand_words(&mut r, samples as usize);
    let mut hist = vec![0u32; 256];
    for v in data {
        hist[(v & 255) as usize] += 1;
    }
    hist
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
    fn bfs_runs_and_is_cta_slot_limited() {
        let k = bfs_like(&tiny());
        Interpreter::new(&k).unwrap().run().unwrap();
        let occ = occupancy::analyze(&CoreConfig::default(), &k);
        assert_eq!(occ.limiter, Limiter::CtaSlots);
        assert!(occ.bounds.headroom() > 2.0);
    }

    #[test]
    fn spmv_runs_and_is_scheduling_limited() {
        let k = spmv_like(&tiny());
        let r = Interpreter::new(&k).unwrap().run().unwrap();
        assert!(r.max_simt_depth() >= 3, "variable-degree loops diverge");
        let occ = occupancy::analyze(&CoreConfig::default(), &k);
        assert!(occ.limiter.is_scheduling());
    }

    #[test]
    fn histo_matches_cpu_reference() {
        let s = tiny();
        let k = histo_like(&s);
        let r = Interpreter::new(&k).unwrap().run().unwrap();
        assert_eq!(r.load_words(0, 256), histo_reference(&s).as_slice());
    }

    #[test]
    fn kernels_are_deterministic() {
        let a = bfs_like(&tiny());
        let b = bfs_like(&tiny());
        assert_eq!(a, b);
    }
}
