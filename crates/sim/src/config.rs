//! Simulator configuration: the SM core, the scheduling/capacity limits
//! and the CTA residency policy.

use vt_isa::{AdmissionPolicy, Kernel, SmLimits};
use vt_mem::MemConfig;

/// Warp-scheduler policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchedPolicy {
    /// Loose round-robin: rotate through ready warps.
    Lrr,
    /// Greedy-then-oldest: keep issuing the same warp until it stalls,
    /// then fall back to the oldest ready warp.
    Gto,
}

/// Core (SM and chip) configuration.
///
/// Defaults approximate the GTX 480 (Fermi)-class machine the paper
/// simulates: 15 SMs, 48 warp slots and 8 CTA slots per SM (the
/// *scheduling limit*), 128 KiB register file and 48 KiB shared memory per
/// SM (the *capacity limit*), two warp schedulers.
#[derive(Debug, Clone, PartialEq)]
pub struct CoreConfig {
    /// Number of SMs.
    pub num_sms: u32,
    /// Warp slots per SM — part of the scheduling limit.
    pub max_warps_per_sm: u32,
    /// CTA slots per SM — part of the scheduling limit.
    pub max_ctas_per_sm: u32,
    /// Register-file bytes per SM — part of the capacity limit.
    pub regfile_bytes: u32,
    /// Shared-memory bytes per SM — part of the capacity limit.
    pub smem_bytes: u32,
    /// Warp schedulers per SM (each issues one instruction per cycle).
    pub schedulers_per_sm: u32,
    /// Scheduler policy.
    pub scheduler: SchedPolicy,
    /// SP-pipeline (ALU) result latency in cycles.
    pub alu_latency: u32,
    /// SFU result latency in cycles.
    pub sfu_latency: u32,
    /// Minimum cycles between SFU issues per SM (initiation interval).
    pub sfu_init_interval: u32,
    /// Shared-memory access latency (conflict-free).
    pub smem_latency: u32,
    /// Shared-memory banks.
    pub smem_banks: u32,
    /// Pending warp memory instructions the LD/ST unit queues per SM.
    pub ldst_queue_depth: u32,
    /// Watchdog: abort a run after this many cycles.
    pub max_cycles: u64,
    /// Seal a window of the metric series every this many cycles
    /// (`None` disables the sampler entirely; see
    /// `vt_trace::metrics::DEFAULT_WINDOW` for the conventional value).
    pub metrics_window: Option<u64>,
    /// Collect the per-PC hotspot profile
    /// (`crate::hotspots::PcProfile`). Off by default; disabled runs
    /// compile the profiling path out entirely and stay bit-identical.
    pub profile: bool,
}

impl Default for CoreConfig {
    fn default() -> Self {
        CoreConfig::from_limits(SmLimits::fermi())
    }
}

impl CoreConfig {
    /// A 15-SM configuration whose per-SM limits come from `limits` — the
    /// shared source of truth in `vt_isa::limits`. Pipeline and memory
    /// timing keep the Fermi-class defaults.
    pub fn from_limits(limits: SmLimits) -> CoreConfig {
        CoreConfig {
            num_sms: 15,
            max_warps_per_sm: limits.max_warps_per_sm,
            max_ctas_per_sm: limits.max_ctas_per_sm,
            regfile_bytes: limits.regfile_bytes,
            smem_bytes: limits.smem_bytes,
            schedulers_per_sm: 2,
            scheduler: SchedPolicy::Gto,
            alu_latency: 10,
            sfu_latency: 24,
            sfu_init_interval: 4,
            smem_latency: 24,
            smem_banks: 32,
            ldst_queue_depth: 8,
            max_cycles: 200_000_000,
            metrics_window: None,
            profile: false,
        }
    }
}

impl CoreConfig {
    /// The per-SM scheduling/capacity limits of this configuration, in the
    /// shared [`SmLimits`] form the static analyzer consumes.
    pub fn limits(&self) -> SmLimits {
        SmLimits {
            max_warps_per_sm: self.max_warps_per_sm,
            max_ctas_per_sm: self.max_ctas_per_sm,
            regfile_bytes: self.regfile_bytes,
            smem_bytes: self.smem_bytes,
        }
    }

    /// Thread slots per SM implied by the warp slots.
    pub fn max_threads_per_sm(&self) -> u32 {
        self.limits().max_threads_per_sm()
    }

    /// 32-bit registers per SM.
    pub fn regfile_regs(&self) -> u32 {
        self.limits().regfile_regs()
    }
}

/// How many resident CTAs may be *active* (own warp-scheduler slots).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ActivePolicy {
    /// Active CTAs respect the scheduling limit (the VT design point).
    SchedulingLimit,
    /// Every resident CTA is active (the paper's idealised comparison,
    /// where scheduling structures magically scale with capacity).
    Unlimited,
}

/// When an active CTA is context-switched out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SwapTrigger {
    /// The paper's policy: swap when every unfinished warp of the CTA is
    /// blocked on a long-latency stall (outstanding global load, or a
    /// barrier held up by such warps).
    AllWarpsStalled,
    /// Ablation: swap as soon as *any* warp of the CTA is memory-stalled
    /// and a ready CTA is waiting (overly eager).
    AnyWarpStalled,
    /// Ablation: never swap (inactive CTAs only activate when a slot
    /// frees because an active CTA finished).
    Never,
}

/// Thrash-feedback control: a bang-bang hill climber that measures the
/// SM's issue rate with CTA rotation enabled ("rotate") and disabled
/// ("hold"), keeps whichever mode issues more, and re-probes the other
/// mode periodically. Cache-sensitive kernels settle into "hold" (a
/// stable active working set, CCWS-style); latency-bound kernels settle
/// into "rotate".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThrottleConfig {
    /// Cycles per observation window.
    pub window_cycles: u32,
    /// Windows per measurement phase; the first window of each phase is a
    /// warm-up and is not recorded.
    pub phase_windows: u32,
    /// Force a probe of the non-preferred mode every this many phases.
    pub probe_every_phases: u32,
}

impl Default for ThrottleConfig {
    fn default() -> Self {
        ThrottleConfig {
            window_cycles: 2048,
            phase_windows: 4,
            probe_every_phases: 4,
        }
    }
}

/// Context-switch mechanics and cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SwapConfig {
    /// Trigger policy.
    pub trigger: SwapTrigger,
    /// Cycles to save the outgoing CTA's scheduling state.
    pub save_cycles: u32,
    /// Cycles to restore a previously swapped-out CTA.
    pub restore_cycles: u32,
    /// Cycles to activate a fresh CTA that has no saved context.
    pub fresh_activation_cycles: u32,
    /// Optional thrash-feedback throttle.
    pub throttle: Option<ThrottleConfig>,
}

/// CTA residency policy: admission, activation and swapping. Composed by
/// `vt-core` for each architecture (Baseline / VT / Ideal / MemSwap).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResidencyConfig {
    /// Admission policy for making a CTA resident on an SM.
    pub admission: AdmissionPolicy,
    /// Activation policy.
    pub active: ActivePolicy,
    /// Swap mechanics; `None` disables context switching entirely.
    pub swap: Option<SwapConfig>,
}

impl ResidencyConfig {
    /// The baseline machine: scheduling + capacity admission, everything
    /// resident is active, no swapping.
    pub fn baseline() -> ResidencyConfig {
        ResidencyConfig {
            admission: AdmissionPolicy::SchedulingAndCapacity,
            active: ActivePolicy::SchedulingLimit,
            swap: None,
        }
    }
}

/// Full simulation configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Core/SM parameters.
    pub core: CoreConfig,
    /// Memory hierarchy parameters.
    pub mem: MemConfig,
    /// CTA residency policy.
    pub residency: ResidencyConfig,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            core: CoreConfig::default(),
            mem: MemConfig::default(),
            residency: ResidencyConfig::baseline(),
        }
    }
}

/// Why a kernel cannot be launched at all on a configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LaunchError {
    /// One CTA needs more warp slots than an SM has.
    CtaTooManyWarps {
        /// Warps the CTA needs.
        needed: u32,
        /// Warp slots available.
        available: u32,
    },
    /// One CTA needs more registers than an SM's register file.
    CtaTooManyRegs {
        /// Register bytes the CTA needs.
        needed: u32,
        /// Register-file bytes available.
        available: u32,
    },
    /// One CTA needs more shared memory than an SM has.
    CtaTooMuchSmem {
        /// Shared-memory bytes the CTA needs.
        needed: u32,
        /// Shared-memory bytes available.
        available: u32,
    },
}

impl std::fmt::Display for LaunchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LaunchError::CtaTooManyWarps { needed, available } => {
                write!(f, "CTA needs {needed} warp slots, SM has {available}")
            }
            LaunchError::CtaTooManyRegs { needed, available } => {
                write!(f, "CTA needs {needed} register bytes, SM has {available}")
            }
            LaunchError::CtaTooMuchSmem { needed, available } => {
                write!(
                    f,
                    "CTA needs {needed} shared-memory bytes, SM has {available}"
                )
            }
        }
    }
}

impl std::error::Error for LaunchError {}

/// Checks that at least one CTA of `kernel` fits on one SM.
///
/// # Errors
///
/// Returns the violated resource as a [`LaunchError`].
pub fn check_launchable(core: &CoreConfig, kernel: &Kernel) -> Result<(), LaunchError> {
    let warps = kernel.warps_per_cta();
    if warps > core.max_warps_per_sm {
        return Err(LaunchError::CtaTooManyWarps {
            needed: warps,
            available: core.max_warps_per_sm,
        });
    }
    let regs = kernel.reg_bytes_per_cta();
    if regs > core.regfile_bytes {
        return Err(LaunchError::CtaTooManyRegs {
            needed: regs,
            available: core.regfile_bytes,
        });
    }
    let smem = kernel.smem_bytes_per_cta();
    if smem > core.smem_bytes {
        return Err(LaunchError::CtaTooMuchSmem {
            needed: smem,
            available: core.smem_bytes,
        });
    }
    Ok(())
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
        b.build(1, threads).unwrap()
    }

    #[test]
    fn default_config_is_fermi_like() {
        let c = CoreConfig::default();
        assert_eq!(c.max_threads_per_sm(), 1536);
        assert_eq!(c.regfile_regs(), 32768);
        assert_eq!(c.limits(), SmLimits::fermi(), "limits round-trip");
    }

    #[test]
    fn launchable_accepts_reasonable_kernel() {
        let c = CoreConfig::default();
        assert!(check_launchable(&c, &kernel(256, 20, 4096)).is_ok());
    }

    #[test]
    fn launchable_rejects_oversized_ctas() {
        let c = CoreConfig::default();
        assert!(matches!(
            check_launchable(&c, &kernel(c.max_threads_per_sm() + 32, 8, 0)),
            Err(LaunchError::CtaTooManyWarps { .. })
        ));
        assert!(matches!(
            check_launchable(&c, &kernel(1024, 255, 0)),
            Err(LaunchError::CtaTooManyRegs { .. })
        ));
        assert!(matches!(
            check_launchable(&c, &kernel(32, 8, 1 << 20)),
            Err(LaunchError::CtaTooMuchSmem { .. })
        ));
    }
}
