//! The four architectures the paper compares, and how each lowers to the
//! simulator's CTA-residency mechanism.

use vt_isa::Kernel;
use vt_mem::MemConfig;
use vt_sim::config::ThrottleConfig;
use vt_sim::{ActivePolicy, AdmissionPolicy, CoreConfig, ResidencyConfig, SwapConfig, SwapTrigger};

/// Parameters of the Virtual Thread architecture.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VtParams {
    /// Maximum virtual (resident) CTAs per SM, bounding the context
    /// buffer. `None` lets capacity alone decide, the paper's default
    /// design point.
    pub max_virtual_ctas: Option<u32>,
    /// Context-switch trigger policy.
    pub trigger: SwapTrigger,
    /// Context-buffer port width: 32-bit words moved per cycle during a
    /// save or restore.
    pub buffer_words_per_cycle: u32,
    /// SIMT-stack entries saved per warp (the stack's architected depth).
    pub stack_entries_per_warp: u32,
    /// Scoreboard bytes saved per warp.
    pub scoreboard_bytes_per_warp: u32,
    /// Optional cache-thrash feedback: suppress rotation while the L1 hit
    /// rate is collapsing (our extension for cache-sensitive kernels; not
    /// in the paper).
    pub adaptive_throttle: Option<ThrottleConfig>,
}

impl Default for VtParams {
    fn default() -> Self {
        VtParams {
            max_virtual_ctas: None,
            trigger: SwapTrigger::AllWarpsStalled,
            buffer_words_per_cycle: 32,
            stack_entries_per_warp: 16,
            scoreboard_bytes_per_warp: 8,
            adaptive_throttle: None,
        }
    }
}

impl VtParams {
    /// Bytes of scheduling state one warp contributes to a context switch:
    /// PC + SIMT stack (two words per entry: PC/RPC packed and mask) +
    /// scoreboard bits.
    pub fn context_bytes_per_warp(&self) -> u32 {
        4 + self.stack_entries_per_warp * 8 + self.scoreboard_bytes_per_warp
    }

    /// Cycles to save (or restore) one CTA's scheduling state through the
    /// context-buffer port.
    pub fn swap_cycles(&self, kernel: &Kernel) -> u32 {
        let words = kernel.warps_per_cta() * self.context_bytes_per_warp().div_ceil(4);
        words.div_ceil(self.buffer_words_per_cycle.max(1)).max(1)
    }
}

/// Parameters of the memory-hierarchy CTA-swap comparison point: the
/// conventional alternative that saves and restores the *full* CTA state
/// (registers and shared memory) through the memory system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemSwapParams {
    /// Maximum virtual CTAs per SM (same role as in [`VtParams`]).
    pub max_virtual_ctas: Option<u32>,
    /// Context-switch trigger policy.
    pub trigger: SwapTrigger,
    /// Sustained bytes per cycle the swap engine moves to/from memory.
    pub mem_bytes_per_cycle: u32,
    /// Fixed latency added per swap direction (request launch + DRAM
    /// round trip).
    pub base_latency: u32,
}

impl Default for MemSwapParams {
    fn default() -> Self {
        MemSwapParams {
            max_virtual_ctas: None,
            trigger: SwapTrigger::AllWarpsStalled,
            mem_bytes_per_cycle: 32,
            base_latency: 400,
        }
    }
}

impl MemSwapParams {
    /// Cycles to move one CTA's full state one way.
    pub fn swap_cycles(&self, kernel: &Kernel) -> u32 {
        let bytes = kernel.reg_bytes_per_cta() + kernel.smem_bytes_per_cta();
        self.base_latency + bytes.div_ceil(self.mem_bytes_per_cycle.max(1))
    }
}

/// The architecture being simulated.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Architecture {
    /// Conventional GPU: CTAs admitted up to min(scheduling, capacity)
    /// limit, no context switching.
    Baseline,
    /// **The paper's proposal**: CTAs admitted up to the capacity limit;
    /// only a scheduling-limit-respecting subset is active; stalled active
    /// CTAs are context-switched against ready inactive ones, saving only
    /// scheduling state to an on-chip context buffer.
    VirtualThread(VtParams),
    /// Upper bound: scheduling structures scale with capacity for free —
    /// every resident CTA is active.
    Ideal,
    /// The conventional alternative: CTA-level context switching through
    /// the memory hierarchy, paying for the full register/shared-memory
    /// state on every swap.
    MemSwap(MemSwapParams),
}

impl Architecture {
    /// The paper's default VT design point.
    pub fn virtual_thread() -> Architecture {
        Architecture::VirtualThread(VtParams::default())
    }

    /// The four architectures under comparison at their default design
    /// points, in the order tables list them: baseline, Virtual Thread,
    /// ideal and the memory-backed swap.
    pub fn standard() -> [Architecture; 4] {
        [
            Architecture::Baseline,
            Architecture::virtual_thread(),
            Architecture::Ideal,
            Architecture::MemSwap(MemSwapParams::default()),
        ]
    }

    /// Which limits bound the CTAs this architecture keeps resident:
    /// Baseline both, the other three capacity alone (VT and MemSwap up to
    /// their context-buffer cap). Peak residency follows from this alone;
    /// the three differ only in which resident CTAs are active.
    pub fn admission(&self) -> AdmissionPolicy {
        match *self {
            Architecture::Baseline => AdmissionPolicy::SchedulingAndCapacity,
            Architecture::Ideal => AdmissionPolicy::CapacityOnly {
                max_resident_ctas: None,
            },
            Architecture::VirtualThread(VtParams {
                max_virtual_ctas, ..
            })
            | Architecture::MemSwap(MemSwapParams {
                max_virtual_ctas, ..
            }) => AdmissionPolicy::CapacityOnly {
                max_resident_ctas: max_virtual_ctas,
            },
        }
    }

    /// Short label used in tables and figures.
    pub fn label(&self) -> &'static str {
        match self {
            Architecture::Baseline => "baseline",
            Architecture::VirtualThread(_) => "vt",
            Architecture::Ideal => "ideal",
            Architecture::MemSwap(_) => "memswap",
        }
    }

    /// Lowers the architecture to the simulator's residency mechanism for
    /// a specific kernel (swap costs depend on the kernel's footprint).
    pub fn residency_for(
        &self,
        kernel: &Kernel,
        _core: &CoreConfig,
        _mem: &MemConfig,
    ) -> ResidencyConfig {
        let swap = |trigger, swap_cycles, throttle| {
            Some(SwapConfig {
                trigger,
                save_cycles: swap_cycles,
                restore_cycles: swap_cycles,
                fresh_activation_cycles: 1,
                throttle,
            })
        };
        let (active, swap) = match self {
            Architecture::Baseline => (ActivePolicy::SchedulingLimit, None),
            Architecture::Ideal => (ActivePolicy::Unlimited, None),
            // Both context-switching architectures activate within the
            // scheduling limit and swap symmetrically.
            Architecture::VirtualThread(p) => (
                ActivePolicy::SchedulingLimit,
                swap(p.trigger, p.swap_cycles(kernel), p.adaptive_throttle),
            ),
            Architecture::MemSwap(p) => (
                ActivePolicy::SchedulingLimit,
                swap(p.trigger, p.swap_cycles(kernel), None),
            ),
        };
        ResidencyConfig {
            admission: self.admission(),
            active,
            swap,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vt_isa::KernelBuilder;

    fn kernel(threads: u32, regs: u16, smem: u32) -> Kernel {
        let mut b = KernelBuilder::new("k");
        b.pad_regs(regs);
        b.pad_smem(smem);
        b.exit();
        b.build(4, threads).unwrap()
    }

    #[test]
    fn vt_swap_cost_is_tens_of_cycles() {
        let p = VtParams::default();
        let k = kernel(64, 16, 0); // 2 warps
        let c = p.swap_cycles(&k);
        assert!((1..100).contains(&c), "VT swap should be cheap, got {c}");
    }

    #[test]
    fn memswap_cost_is_orders_of_magnitude_higher() {
        let k = kernel(64, 16, 2048);
        let vt = VtParams::default().swap_cycles(&k);
        let ms = MemSwapParams::default().swap_cycles(&k);
        assert!(
            ms > 20 * vt,
            "full-state swap ({ms}) should dwarf scheduling-state swap ({vt})"
        );
    }

    #[test]
    fn lowering_matches_paper_design_points() {
        let core = CoreConfig::default();
        let mem = MemConfig::default();
        let k = kernel(64, 16, 0);

        let b = Architecture::Baseline.residency_for(&k, &core, &mem);
        assert_eq!(b.admission, AdmissionPolicy::SchedulingAndCapacity);
        assert!(b.swap.is_none());

        let i = Architecture::Ideal.residency_for(&k, &core, &mem);
        assert_eq!(i.active, ActivePolicy::Unlimited);

        let v = Architecture::virtual_thread().residency_for(&k, &core, &mem);
        assert_eq!(v.active, ActivePolicy::SchedulingLimit);
        let swap = v.swap.expect("VT swaps");
        assert_eq!(swap.trigger, SwapTrigger::AllWarpsStalled);
        assert!(swap.save_cycles < 100);

        let m = Architecture::MemSwap(MemSwapParams::default()).residency_for(&k, &core, &mem);
        assert!(m.swap.expect("memswap swaps").save_cycles > swap.save_cycles);
    }

    #[test]
    fn labels_are_distinct() {
        let archs = Architecture::standard();
        for (i, a) in archs.iter().enumerate() {
            for b in &archs[i + 1..] {
                assert_ne!(a.label(), b.label());
            }
        }
    }

    #[test]
    fn context_bytes_scale_with_stack_budget() {
        let small = VtParams {
            stack_entries_per_warp: 4,
            ..VtParams::default()
        };
        let big = VtParams {
            stack_entries_per_warp: 32,
            ..VtParams::default()
        };
        assert!(big.context_bytes_per_warp() > small.context_bytes_per_warp());
    }
}
