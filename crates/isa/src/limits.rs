//! Per-SM resource limits and the residency rule — the one place the
//! scheduling and capacity constants, and what an SM does with them, are
//! defined.
//!
//! The paper's whole argument lives in the gap between two limit
//! families: the **scheduling limit** (CTA slots and warp slots — PCs,
//! SIMT stacks, scoreboard entries) and the **capacity limit** (register
//! file and shared memory). [`SmLimits`] names those four numbers once;
//! the simulator's `CoreConfig` is built from it and the static
//! analyzer's model takes it directly.
//!
//! [`SmLimits::bounds`] turns the limits plus one kernel's footprint into
//! the exact per-resource resident-CTA bounds ([`CtaBounds`]), and
//! [`CtaBounds::limiter`] classifies which resource binds first — the
//! paper's Figure 1/2 motivation study as a pure function.
//! [`AdmissionPolicy::resident_bound`] is the residency rule itself:
//! Baseline admits a CTA while it fits under both limits, Virtual Thread
//! under the capacity limit alone. The simulator's dispatcher admits by
//! it and the static model predicts by it.

use crate::kernel::Kernel;
use crate::WARP_SIZE;

/// The per-SM scheduling and capacity limits of one machine generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SmLimits {
    /// Warp slots per SM (PCs / SIMT stacks / scoreboards) — scheduling.
    pub max_warps_per_sm: u32,
    /// CTA slots per SM (barrier/bookkeeping entries) — scheduling.
    pub max_ctas_per_sm: u32,
    /// Register-file bytes per SM — capacity.
    pub regfile_bytes: u32,
    /// Shared-memory bytes per SM — capacity.
    pub smem_bytes: u32,
}

impl SmLimits {
    /// The GTX 480 (Fermi)-class machine the paper simulates: 48 warp
    /// slots, 8 CTA slots, 128 KiB registers, 48 KiB shared memory.
    pub const fn fermi() -> SmLimits {
        SmLimits {
            max_warps_per_sm: 48,
            max_ctas_per_sm: 8,
            regfile_bytes: 128 * 1024,
            smem_bytes: 48 * 1024,
        }
    }

    /// A Kepler-class design point (64 warp slots, 16 CTA slots, 256 KiB
    /// registers) used by the arch head-to-head sweeps.
    pub const fn kepler() -> SmLimits {
        SmLimits {
            max_warps_per_sm: 64,
            max_ctas_per_sm: 16,
            regfile_bytes: 256 * 1024,
            smem_bytes: 48 * 1024,
        }
    }

    /// Thread slots per SM implied by the warp slots.
    pub const fn max_threads_per_sm(&self) -> u32 {
        self.max_warps_per_sm * WARP_SIZE
    }

    /// 32-bit registers per SM.
    pub const fn regfile_regs(&self) -> u32 {
        self.regfile_bytes / 4
    }

    /// Exact resident-CTA bound per resource for one kernel's footprint.
    pub fn bounds(&self, kernel: &Kernel) -> CtaBounds {
        let wpc = kernel.warps_per_cta().max(1);
        let reg_bytes = kernel.reg_bytes_per_cta().max(1);
        CtaBounds {
            by_cta_slots: self.max_ctas_per_sm,
            by_warp_slots: self.max_warps_per_sm / wpc,
            by_registers: self.regfile_bytes / reg_bytes,
            by_shared_memory: if kernel.smem_bytes_per_cta() == 0 {
                u32::MAX
            } else {
                self.smem_bytes / kernel.smem_bytes_per_cta()
            },
        }
    }

    /// The static occupancy of one kernel: its bounds and their limiter.
    pub fn occupancy(&self, kernel: &Kernel) -> Occupancy {
        let bounds = self.bounds(kernel);
        Occupancy {
            bounds,
            limiter: bounds.limiter(),
        }
    }
}

impl Default for SmLimits {
    fn default() -> Self {
        SmLimits::fermi()
    }
}

/// The resource that limits concurrent CTAs per SM.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Limiter {
    /// CTA slots (scheduling limit).
    CtaSlots,
    /// Warp slots / PCs / SIMT stacks (scheduling limit).
    WarpSlots,
    /// Register file (capacity limit).
    Registers,
    /// Shared memory (capacity limit).
    SharedMemory,
    /// Scheduling and capacity limits coincide.
    Balanced,
}

impl Limiter {
    /// Whether this limiter is a scheduling-structure shortage — the class
    /// of applications Virtual Thread accelerates.
    pub fn is_scheduling(&self) -> bool {
        matches!(self, Limiter::CtaSlots | Limiter::WarpSlots)
    }
}

impl std::fmt::Display for Limiter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Limiter::CtaSlots => "cta-slots",
            Limiter::WarpSlots => "warp-slots",
            Limiter::Registers => "registers",
            Limiter::SharedMemory => "shared-memory",
            Limiter::Balanced => "balanced",
        };
        f.write_str(s)
    }
}

/// Per-resource resident-CTA bounds of one kernel on one SM.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CtaBounds {
    /// CTAs allowed by the CTA-slot limit.
    pub by_cta_slots: u32,
    /// CTAs allowed by the warp-slot limit.
    pub by_warp_slots: u32,
    /// CTAs allowed by the register file.
    pub by_registers: u32,
    /// CTAs allowed by shared memory (`u32::MAX` when the kernel uses
    /// none).
    pub by_shared_memory: u32,
}

impl CtaBounds {
    /// The scheduling-limit bound: min of CTA and warp slots.
    pub fn scheduling(&self) -> u32 {
        self.by_cta_slots.min(self.by_warp_slots)
    }

    /// The capacity-limit bound: min of registers and shared memory.
    /// Always finite — `by_registers` is.
    pub fn capacity(&self) -> u32 {
        self.by_registers.min(self.by_shared_memory)
    }

    /// Resident CTAs under conventional hardware: min of all four.
    pub fn baseline(&self) -> u32 {
        self.scheduling().min(self.capacity())
    }

    /// The binding resource class. Ties inside a family resolve to the
    /// scarcer resource; a tie across families is [`Limiter::Balanced`].
    pub fn limiter(&self) -> Limiter {
        match self.scheduling().cmp(&self.capacity()) {
            std::cmp::Ordering::Less => {
                if self.by_cta_slots <= self.by_warp_slots {
                    Limiter::CtaSlots
                } else {
                    Limiter::WarpSlots
                }
            }
            std::cmp::Ordering::Greater => {
                if self.by_registers <= self.by_shared_memory {
                    Limiter::Registers
                } else {
                    Limiter::SharedMemory
                }
            }
            std::cmp::Ordering::Equal => Limiter::Balanced,
        }
    }

    /// How many times more CTAs the capacity limit admits than the
    /// baseline: the residency Virtual Thread can add (1.0 when it can add
    /// none; 0.0 when not even the baseline admits one).
    pub fn headroom(&self) -> f64 {
        if self.baseline() == 0 {
            return 0.0;
        }
        f64::from(self.capacity()) / f64::from(self.baseline())
    }
}

/// Static occupancy of one kernel on one SM: what the motivation study
/// (the paper's Figures 1–2) tabulates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Occupancy {
    /// The per-resource resident-CTA bounds.
    pub bounds: CtaBounds,
    /// The resource that binds first, [`CtaBounds::limiter`].
    pub limiter: Limiter,
}

/// Which limits decide whether another CTA fits on an SM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionPolicy {
    /// Baseline hardware: respect both the scheduling limit (CTA and warp
    /// slots) and the capacity limit (registers, shared memory).
    SchedulingAndCapacity,
    /// Virtual Thread / Ideal: respect only the capacity limit, with an
    /// optional explicit cap on resident (virtual) CTAs per SM modelling
    /// a finite context buffer (`None` = unbounded).
    CapacityOnly {
        /// Maximum resident CTAs per SM, if the context buffer bounds it.
        max_resident_ctas: Option<u32>,
    },
}

impl AdmissionPolicy {
    /// Resident CTAs of one kernel an SM may hold under this policy. Every
    /// resident CTA of a run has the kernel's footprint, so an SM holding
    /// `n` of them admits another exactly when `n` is below this bound.
    pub fn resident_bound(&self, bounds: &CtaBounds) -> u32 {
        match *self {
            AdmissionPolicy::SchedulingAndCapacity => bounds.baseline(),
            AdmissionPolicy::CapacityOnly { max_resident_ctas } => {
                let capacity = bounds.capacity();
                max_resident_ctas.map_or(capacity, |cap| capacity.min(cap))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::KernelBuilder;

    fn kernel(threads: u32, regs: u16, smem: u32) -> Kernel {
        let mut b = KernelBuilder::new("k");
        b.pad_regs(regs);
        b.pad_smem(smem);
        b.exit();
        b.build(1, threads).unwrap()
    }

    #[test]
    fn fermi_constants_match_the_paper() {
        let l = SmLimits::fermi();
        assert_eq!(l.max_threads_per_sm(), 1536);
        assert_eq!(l.regfile_regs(), 32768);
        assert_eq!(SmLimits::default(), l);
    }

    #[test]
    fn bounds_cover_all_four_resources() {
        let l = SmLimits::fermi();
        let b = l.bounds(&kernel(64, 16, 0));
        assert_eq!(b.by_cta_slots, 8);
        assert_eq!(b.by_warp_slots, 24);
        assert_eq!(b.by_registers, 128 * 1024 / (2 * 32 * 16 * 4));
        assert_eq!(b.by_shared_memory, u32::MAX);
        assert_eq!(b.scheduling(), 8);
        assert_eq!(b.baseline(), 8);
        assert_eq!(b.limiter(), Limiter::CtaSlots);
        assert!(b.limiter().is_scheduling());
    }

    #[test]
    fn capacity_limits_classify_by_scarcer_resource() {
        let l = SmLimits::fermi();
        let regs = l.bounds(&kernel(256, 42, 0));
        assert_eq!(regs.limiter(), Limiter::Registers);
        assert!(!regs.limiter().is_scheduling());
        let smem = l.bounds(&kernel(128, 16, 16 * 1024));
        assert_eq!(smem.by_shared_memory, 3);
        assert_eq!(smem.limiter(), Limiter::SharedMemory);
    }

    #[test]
    fn balanced_when_families_tie() {
        let b = SmLimits::fermi().bounds(&kernel(128, 32, 0));
        assert_eq!(b.by_registers, 8);
        assert_eq!(b.limiter(), Limiter::Balanced);
    }

    #[test]
    fn kepler_relaxes_the_scheduling_limit() {
        let k = kernel(64, 16, 0);
        let fermi = SmLimits::fermi().bounds(&k);
        let kepler = SmLimits::kepler().bounds(&k);
        assert!(kepler.scheduling() > fermi.scheduling());
        assert!(kepler.by_registers > fermi.by_registers);
    }
}
