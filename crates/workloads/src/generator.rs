//! Parameterised synthetic-kernel generator for sensitivity sweeps and
//! property tests: dial in CTA shape, register/shared-memory footprint,
//! memory intensity and access pattern.

use crate::kernels::util::{rand_indices, rng};
use vt_isa::op::{Operand, Sreg};
use vt_isa::{Kernel, KernelBuilder};

/// How the generated kernel's global loads address memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessPattern {
    /// Unit-stride: one transaction per warp access.
    Coalesced,
    /// Fixed word stride between consecutive threads: `stride ≥ 32` means
    /// one transaction per lane.
    Strided(u32),
    /// Data-dependent gather through a random index array.
    Random,
}

/// The knobs of a synthetic kernel.
#[derive(Debug, Clone, PartialEq)]
pub struct SyntheticParams {
    /// Kernel name.
    pub name: String,
    /// CTAs in the grid.
    pub ctas: u32,
    /// Threads per CTA.
    pub threads_per_cta: u32,
    /// Declared register footprint per thread.
    pub regs_per_thread: u16,
    /// Declared shared memory per CTA.
    pub smem_bytes: u32,
    /// Outer loop iterations.
    pub iters: u32,
    /// Global loads per iteration.
    pub loads_per_iter: u32,
    /// Dependent ALU instructions between loads (arithmetic intensity).
    pub alu_per_load: u32,
    /// Access pattern of the loads.
    pub access: AccessPattern,
    /// Whether to place a CTA barrier at the end of each iteration.
    pub barrier_per_iter: bool,
}

impl Default for SyntheticParams {
    fn default() -> Self {
        SyntheticParams {
            name: "synthetic".to_string(),
            ctas: 60,
            threads_per_cta: 64,
            regs_per_thread: 16,
            smem_bytes: 0,
            iters: 8,
            loads_per_iter: 2,
            alu_per_load: 4,
            access: AccessPattern::Coalesced,
            barrier_per_iter: false,
        }
    }
}

impl SyntheticParams {
    /// A memory-latency-bound, scheduling-limited preset (the shape VT
    /// accelerates most).
    pub fn latency_bound() -> SyntheticParams {
        SyntheticParams {
            name: "latency-bound".to_string(),
            access: AccessPattern::Random,
            alu_per_load: 1,
            ..SyntheticParams::default()
        }
    }

    /// A compute-bound preset (dense ALU chains, few loads).
    pub fn compute_bound() -> SyntheticParams {
        SyntheticParams {
            name: "compute-bound".to_string(),
            loads_per_iter: 1,
            alu_per_load: 24,
            ..SyntheticParams::default()
        }
    }

    /// Builds the kernel.
    ///
    /// # Panics
    ///
    /// Panics if the parameters produce an invalid program (degenerate
    /// geometry); all reachable presets are valid.
    pub fn build(&self) -> Kernel {
        let n = self.ctas * self.threads_per_cta;
        let footprint = (n * self.loads_per_iter.max(1) * self.iters.max(1)).max(n);
        let words = match self.access {
            AccessPattern::Strided(s) => footprint * s.max(1),
            _ => footprint,
        }
        .min(1 << 22); // cap the image at 16 MiB
        let mut b = KernelBuilder::new(self.name.clone());
        let data = b.alloc_global(words as usize);
        let idx = match self.access {
            AccessPattern::Random => {
                let mut r = rng(0x5eed + u64::from(n));
                Some(b.alloc_global_init(&rand_indices(&mut r, n as usize, words)))
            }
            _ => None,
        };
        let out = b.alloc_global(n as usize);

        let gid = b.reg();
        let acc = b.reg();
        let addr = b.reg();
        let v = b.reg();
        let i = b.reg();
        let tmp = b.reg();
        b.global_thread_id(gid);
        b.mov(acc, Operand::Imm(1));
        b.for_range(
            i,
            Operand::Imm(0),
            Operand::Imm(self.iters.max(1)),
            1,
            |b, i| {
                for l in 0..self.loads_per_iter {
                    match self.access {
                        AccessPattern::Coalesced => {
                            // addr = ((i*loads + l)*n + gid) * 4, wrapped.
                            b.mad(
                                tmp,
                                Operand::Reg(i),
                                Operand::Imm(self.loads_per_iter),
                                Operand::Imm(l),
                            );
                            b.mad(tmp, Operand::Reg(tmp), Operand::Imm(n), Operand::Reg(gid));
                            b.rem(tmp, Operand::Reg(tmp), Operand::Imm(words));
                            b.shl(addr, Operand::Reg(tmp), Operand::Imm(2));
                        }
                        AccessPattern::Strided(s) => {
                            b.mad(
                                tmp,
                                Operand::Reg(i),
                                Operand::Imm(self.loads_per_iter),
                                Operand::Imm(l),
                            );
                            b.mad(tmp, Operand::Reg(tmp), Operand::Imm(n), Operand::Reg(gid));
                            b.mul(tmp, Operand::Reg(tmp), Operand::Imm(s.max(1)));
                            b.rem(tmp, Operand::Reg(tmp), Operand::Imm(words));
                            b.shl(addr, Operand::Reg(tmp), Operand::Imm(2));
                        }
                        AccessPattern::Random => {
                            // Chase through the index array, offset by the
                            // running accumulator so iterations depend on the
                            // previous load.
                            b.add(tmp, Operand::Reg(gid), Operand::Reg(acc));
                            b.rem(tmp, Operand::Reg(tmp), Operand::Imm(n));
                            b.shl(tmp, Operand::Reg(tmp), Operand::Imm(2));
                            b.ld_global(
                                tmp,
                                Operand::Reg(tmp),
                                idx.expect("random has index") as i32,
                            );
                            b.shl(addr, Operand::Reg(tmp), Operand::Imm(2));
                        }
                    }
                    b.ld_global(v, Operand::Reg(addr), data as i32);
                    b.add(acc, Operand::Reg(acc), Operand::Reg(v));
                    for _ in 0..self.alu_per_load {
                        b.mad(acc, Operand::Reg(acc), Operand::Imm(3), Operand::Imm(1));
                    }
                }
                if self.barrier_per_iter {
                    b.bar();
                }
            },
        );
        b.shl(tmp, Operand::Reg(gid), Operand::Imm(2));
        b.st_global(Operand::Reg(tmp), out as i32, Operand::Reg(acc));
        if self.smem_bytes > 0 {
            // Touch the scratchpad so the declared footprint is not dead.
            let s = b.alloc_shared(1);
            b.shl(tmp, Operand::Sreg(Sreg::Tid), Operand::Imm(0));
            b.st_shared(Operand::Imm(s), 0, Operand::Reg(tmp));
            b.pad_smem(self.smem_bytes);
        }
        b.pad_regs(self.regs_per_thread);
        b.exit();
        b.build(self.ctas, self.threads_per_cta)
            .expect("synthetic kernel is valid")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vt_core::{occupancy, CoreConfig};
    use vt_isa::interp::Interpreter;

    fn tiny(p: SyntheticParams) -> SyntheticParams {
        SyntheticParams {
            ctas: 4,
            iters: 2,
            ..p
        }
    }

    #[test]
    fn all_presets_run() {
        for p in [
            tiny(SyntheticParams::default()),
            tiny(SyntheticParams::latency_bound()),
            tiny(SyntheticParams::compute_bound()),
            tiny(SyntheticParams {
                access: AccessPattern::Strided(32),
                barrier_per_iter: true,
                smem_bytes: 1024,
                ..SyntheticParams::default()
            }),
        ] {
            let k = p.build();
            Interpreter::new(&k).unwrap().run().unwrap_or_else(|e| {
                panic!("{} failed: {e}", k.name());
            });
        }
    }

    #[test]
    fn footprint_knobs_control_occupancy() {
        let core = CoreConfig::default();
        let lean = tiny(SyntheticParams {
            regs_per_thread: 12,
            ..SyntheticParams::default()
        });
        let fat = tiny(SyntheticParams {
            regs_per_thread: 96,
            ..SyntheticParams::default()
        });
        let occ_lean = occupancy::analyze(&core, &lean.build());
        let occ_fat = occupancy::analyze(&core, &fat.build());
        assert!(occ_lean.limiter.is_scheduling());
        assert!(!occ_fat.limiter.is_scheduling());
        assert!(occ_fat.bounds.by_registers < occ_lean.bounds.by_registers);
    }

    #[test]
    fn generated_kernels_are_deterministic() {
        let p = tiny(SyntheticParams::latency_bound());
        assert_eq!(p.build(), p.build());
    }
}
