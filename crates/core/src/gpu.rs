//! The public façade: configure an architecture, run kernels, read
//! reports.

use crate::arch::Architecture;
use vt_isa::kernel::MemImage;
use vt_isa::Kernel;
use vt_mem::MemConfig;
use vt_sim::{
    check_launchable, occupancy, CoreConfig, GpuSim, LaunchError, Occupancy, ResidencyConfig,
    RunStats, SimConfig, SimError,
};

/// Full configuration of a simulated GPU: hardware shape plus the CTA
/// architecture under study.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuConfig {
    /// SM/core parameters.
    pub core: CoreConfig,
    /// Memory hierarchy parameters.
    pub mem: MemConfig,
    /// CTA architecture (Baseline / VirtualThread / Ideal / MemSwap).
    pub arch: Architecture,
}

impl Default for GpuConfig {
    fn default() -> Self {
        GpuConfig {
            core: CoreConfig::default(),
            mem: MemConfig::default(),
            arch: Architecture::Baseline,
        }
    }
}

impl GpuConfig {
    /// A configuration running the given architecture with default
    /// hardware parameters.
    pub fn with_arch(arch: Architecture) -> GpuConfig {
        GpuConfig {
            arch,
            ..GpuConfig::default()
        }
    }
}

/// The outcome of a kernel run.
#[derive(Debug, Clone)]
pub struct Report {
    /// Kernel name.
    pub kernel: String,
    /// Architecture that produced this report.
    pub arch: Architecture,
    /// The residency policy the architecture lowered to for this kernel.
    pub residency: ResidencyConfig,
    /// Timing and utilisation statistics.
    pub stats: RunStats,
    /// Final functional memory image.
    pub mem_image: MemImage,
}

impl Report {
    /// Thread-instructions per cycle.
    pub fn ipc(&self) -> f64 {
        self.stats.ipc()
    }

    /// This run's speedup over a baseline run of the same kernel
    /// (cycles_baseline / cycles_this).
    pub fn speedup_over(&self, baseline: &Report) -> f64 {
        if self.stats.cycles == 0 {
            return 0.0;
        }
        baseline.stats.cycles as f64 / self.stats.cycles as f64
    }
}

/// A simulated GPU under one [`GpuConfig`].
///
/// # Example
///
/// Compare the Virtual Thread architecture against the baseline on one
/// kernel:
///
/// ```
/// use vt_core::{Architecture, Gpu, GpuConfig};
/// use vt_isa::KernelBuilder;
/// use vt_isa::op::Operand;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = KernelBuilder::new("stream");
/// let data = b.alloc_global(4096);
/// let gid = b.reg();
/// let v = b.reg();
/// b.global_thread_id(gid);
/// b.shl(gid, Operand::Reg(gid), Operand::Imm(2));
/// b.ld_global(v, Operand::Reg(gid), data as i32);
/// b.add(v, Operand::Reg(v), Operand::Imm(1));
/// b.st_global(Operand::Reg(gid), data as i32, Operand::Reg(v));
/// let kernel = b.build(64, 64)?;
///
/// let mut cfg = GpuConfig::default();
/// cfg.core.num_sms = 2; // keep the doctest quick
/// let base = Gpu::new(cfg.clone()).run(&kernel)?;
/// cfg.arch = Architecture::virtual_thread();
/// let vt = Gpu::new(cfg).run(&kernel)?;
/// assert_eq!(vt.mem_image, base.mem_image, "same functional result");
/// assert!(vt.speedup_over(&base) > 0.9);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Gpu {
    cfg: GpuConfig,
}

impl Gpu {
    /// A GPU under `cfg`.
    pub fn new(cfg: GpuConfig) -> Gpu {
        Gpu { cfg }
    }

    /// The configuration.
    pub fn config(&self) -> &GpuConfig {
        &self.cfg
    }

    /// Whether `kernel` can launch at all on this hardware.
    ///
    /// # Errors
    ///
    /// Returns the violated resource as a [`LaunchError`].
    pub fn check(&self, kernel: &Kernel) -> Result<(), LaunchError> {
        check_launchable(&self.cfg.core, kernel)
    }

    /// Static occupancy/limiter analysis of `kernel` on this hardware
    /// (independent of the architecture).
    pub fn occupancy(&self, kernel: &Kernel) -> Occupancy {
        occupancy::analyze(&self.cfg.core, kernel)
    }

    /// Runs `kernel` to completion under the configured architecture.
    ///
    /// This is the one-shot convenience; anything beyond a single
    /// untraced, unbudgeted run (tracing, budgets, cancellation, chains,
    /// resume, grids) goes through [`crate::Session`].
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] on launch failure, a functional trap, or
    /// watchdog expiry.
    pub fn run(&self, kernel: &Kernel) -> Result<Report, SimError> {
        let residency = self
            .cfg
            .arch
            .residency_for(kernel, &self.cfg.core, &self.cfg.mem);
        let sim_cfg = SimConfig {
            core: self.cfg.core.clone(),
            mem: self.cfg.mem.clone(),
            residency,
        };
        let result = GpuSim::new(&sim_cfg, kernel)?.run()?;
        Ok(Report {
            kernel: kernel.name().to_string(),
            arch: self.cfg.arch,
            residency,
            stats: result.stats,
            mem_image: result.mem_image,
        })
    }
}

/// Runs `kernel` under every listed architecture with shared hardware
/// parameters, returning reports in the same order.
///
/// # Errors
///
/// Fails on the first architecture whose run fails.
pub fn compare(
    core: &CoreConfig,
    mem: &MemConfig,
    archs: &[Architecture],
    kernel: &Kernel,
) -> Result<Vec<Report>, SimError> {
    archs
        .iter()
        .map(|&arch| {
            Gpu::new(GpuConfig {
                core: core.clone(),
                mem: mem.clone(),
                arch,
            })
            .run(kernel)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::{RunRequest, Session};
    use vt_isa::op::Operand;
    use vt_isa::KernelBuilder;
    use vt_par::Pool;

    /// A memory-latency-bound pointer-chase-flavoured kernel with small
    /// CTAs: the scheduling-limited shape VT accelerates.
    fn latency_bound_kernel(ctas: u32) -> Kernel {
        let n = 1 << 14;
        let mut b = KernelBuilder::new("lat");
        // idx[i] scatters reads across memory.
        let idx: Vec<u32> = (0..n).map(|i| (i * 97 + 13) % n).collect();
        let idx_buf = b.alloc_global_init(&idx);
        let out = b.alloc_global(n as usize);
        let gid = b.reg();
        let off = b.reg();
        let v = b.reg();
        let i = b.reg();
        b.global_thread_id(gid);
        b.rem(gid, Operand::Reg(gid), Operand::Imm(n));
        b.shl(off, Operand::Reg(gid), Operand::Imm(2));
        b.ld_global(v, Operand::Reg(off), idx_buf as i32);
        b.for_range(i, Operand::Imm(0), Operand::Imm(4), 1, |b, _| {
            b.shl(off, Operand::Reg(v), Operand::Imm(2));
            b.ld_global(v, Operand::Reg(off), idx_buf as i32);
        });
        b.shl(off, Operand::Reg(gid), Operand::Imm(2));
        b.st_global(Operand::Reg(off), out as i32, Operand::Reg(v));
        b.exit();
        b.build(ctas, 64).unwrap()
    }

    fn small_core() -> CoreConfig {
        CoreConfig {
            num_sms: 2,
            ..CoreConfig::default()
        }
    }

    #[test]
    fn architecture_ordering_on_latency_bound_kernel() {
        let k = latency_bound_kernel(64);
        let reports = compare(
            &small_core(),
            &MemConfig::default(),
            &Architecture::standard(),
            &k,
        )
        .unwrap();
        let [base, vt, ideal, memswap] = &reports[..] else {
            panic!()
        };

        // Functional equivalence across all architectures.
        for r in &reports {
            assert_eq!(r.mem_image, base.mem_image, "{}", r.arch.label());
        }
        // Performance shape: ideal >= vt > baseline; memswap <= vt.
        assert!(
            vt.stats.cycles < base.stats.cycles,
            "VT ({}) should beat baseline ({})",
            vt.stats.cycles,
            base.stats.cycles
        );
        assert!(
            ideal.stats.cycles <= vt.stats.cycles + vt.stats.cycles / 10,
            "ideal ({}) should not lose to VT ({})",
            ideal.stats.cycles,
            vt.stats.cycles
        );
        assert!(
            memswap.stats.cycles >= vt.stats.cycles,
            "memswap ({}) pays more per swap than VT ({})",
            memswap.stats.cycles,
            vt.stats.cycles
        );
        assert!(vt.stats.swaps.swaps_out > 0);
    }

    #[test]
    fn speedup_over_is_cycle_ratio() {
        let k = latency_bound_kernel(32);
        let base = Gpu::new(GpuConfig {
            core: small_core(),
            ..GpuConfig::default()
        })
        .run(&k)
        .unwrap();
        let vt = Gpu::new(GpuConfig {
            core: small_core(),
            mem: MemConfig::default(),
            arch: Architecture::virtual_thread(),
        })
        .run(&k)
        .unwrap();
        let s = vt.speedup_over(&base);
        assert!((s - base.stats.cycles as f64 / vt.stats.cycles as f64).abs() < 1e-12);
        assert!(vt.ipc() >= base.ipc());
    }

    #[test]
    fn chain_request_threads_memory_between_launches() {
        // Kernel increments every word of a shared buffer once per launch.
        let mut b = KernelBuilder::new("inc");
        let buf = b.alloc_global(4096);
        let gid = b.reg();
        let v = b.reg();
        b.global_thread_id(gid);
        b.shl(gid, Operand::Reg(gid), Operand::Imm(2));
        b.ld_global(v, Operand::Reg(gid), buf as i32);
        b.add(v, Operand::Reg(v), Operand::Imm(1));
        b.st_global(Operand::Reg(gid), buf as i32, Operand::Reg(v));
        let k = b.build(64, 64).unwrap();

        let mut session = Session::new(GpuConfig {
            core: small_core(),
            ..GpuConfig::default()
        });
        let reports = session
            .run(RunRequest::kernels(&[&k, &k, &k]))
            .unwrap()
            .completed()
            .unwrap();
        assert_eq!(reports.len(), 3);
        assert_eq!(reports[0].mem_image.load(buf), Some(1));
        assert_eq!(reports[1].mem_image.load(buf), Some(2));
        assert_eq!(reports[2].mem_image.load(buf), Some(3));
    }

    #[test]
    fn gpu_config_clone_round_trips() {
        // The serde round-trip test left with the offline build; clone +
        // equality still guards against fields falling out of PartialEq.
        for arch in Architecture::standard() {
            let cfg = GpuConfig::with_arch(arch);
            assert_eq!(cfg.clone(), cfg);
        }
    }

    #[test]
    fn pooled_session_is_bit_identical_to_run() {
        let k = latency_bound_kernel(32);
        let cfg = GpuConfig {
            core: small_core(),
            mem: MemConfig::default(),
            arch: Architecture::virtual_thread(),
        };
        let seq = Gpu::new(cfg.clone()).run(&k).unwrap();
        let mut session = Session::new(cfg).with_pool(Pool::new(4));
        let par = session
            .run(RunRequest::kernel(&k))
            .unwrap()
            .completed()
            .unwrap()
            .remove(0);
        assert_eq!(par.stats, seq.stats);
        assert_eq!(par.mem_image, seq.mem_image);
    }

    #[test]
    fn session_sweep_matches_sequential_compare() {
        let kernels = vec![latency_bound_kernel(16), latency_bound_kernel(24)];
        let archs = [Architecture::Baseline, Architecture::virtual_thread()];
        let core = small_core();
        let mem = MemConfig::default();
        let session = Session::new(GpuConfig {
            core: core.clone(),
            mem: mem.clone(),
            ..GpuConfig::default()
        })
        .with_pool(Pool::new(3));
        let grid = session.sweep(&archs, &kernels);
        assert_eq!(grid.len(), kernels.len() * archs.len());
        for (ki, k) in kernels.iter().enumerate() {
            let seq = compare(&core, &mem, &archs, k).unwrap();
            for (ai, want) in seq.iter().enumerate() {
                let got = grid[ki * archs.len() + ai].as_ref().unwrap();
                assert_eq!(got.kernel, want.kernel);
                assert_eq!(got.arch, want.arch);
                assert_eq!(got.stats, want.stats);
                assert_eq!(got.mem_image, want.mem_image);
            }
        }
    }

    #[test]
    fn occupancy_is_exposed() {
        let k = latency_bound_kernel(8);
        let gpu = Gpu::new(GpuConfig::default());
        let occ = gpu.occupancy(&k);
        assert!(
            occ.limiter.is_scheduling(),
            "64-thread 5-reg CTAs are slot-limited"
        );
        assert!(gpu.check(&k).is_ok());
    }
}
