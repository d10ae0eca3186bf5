//! Static occupancy analysis on a simulator configuration: how many CTAs
//! fit per SM and which resource binds — the paper's motivation study
//! (its Figures 1–2).
//!
//! The bounds, their [`Limiter`] and the [`Occupancy`] that carries both
//! are defined in [`vt_isa::limits`], with the admission rule the
//! simulator's dispatcher applies to the same bounds; this module reads
//! them off a [`CoreConfig`].

use crate::config::CoreConfig;
use vt_isa::Kernel;

pub use vt_isa::limits::{CtaBounds, Limiter, Occupancy};

/// Computes the static occupancy of `kernel` on `core`.
pub fn analyze(core: &CoreConfig, kernel: &Kernel) -> Occupancy {
    core.limits().occupancy(kernel)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vt_isa::{AdmissionPolicy, KernelBuilder};

    fn kernel(threads: u32, regs: u16, smem: u32) -> Kernel {
        let mut b = KernelBuilder::new("k");
        b.pad_regs(regs);
        b.pad_smem(smem);
        b.exit();
        b.build(1, threads).unwrap()
    }

    fn capacity_only(max_resident_ctas: Option<u32>) -> AdmissionPolicy {
        AdmissionPolicy::CapacityOnly { max_resident_ctas }
    }

    #[test]
    fn small_ctas_are_cta_slot_limited() {
        let core = CoreConfig::default();
        // 64 threads, 16 regs, no smem: 8 CTA slots bind long before
        // 32768/1024 = 32 CTAs of registers.
        let a = analyze(&core, &kernel(64, 16, 0));
        assert_eq!(a.bounds.by_cta_slots, 8);
        assert_eq!(a.bounds.by_warp_slots, 24);
        assert_eq!(a.bounds.by_registers, 32768 * 4 / (64 * 16 * 4));
        assert_eq!(a.bounds.baseline(), 8);
        assert_eq!(a.limiter, Limiter::CtaSlots);
        assert!(a.limiter.is_scheduling());
        assert!(a.bounds.headroom() > 2.0);
    }

    #[test]
    fn large_ctas_are_warp_slot_limited() {
        let core = CoreConfig::default();
        // 512 threads/CTA: 48/16 = 3 CTAs by warps; 8 CTA slots; regs
        // allow 4 (512*16 regs per CTA → 8192 regs → 32768/8192 = 4).
        let a = analyze(&core, &kernel(512, 16, 0));
        assert_eq!(a.bounds.by_warp_slots, 3);
        assert_eq!(a.limiter, Limiter::WarpSlots);
        assert_eq!(a.bounds.baseline(), 3);
    }

    #[test]
    fn register_heavy_kernels_are_capacity_limited() {
        let core = CoreConfig::default();
        // 256 threads × 42 regs = 10752 regs/CTA → 3 CTAs by registers;
        // warp slots would allow 6.
        let a = analyze(&core, &kernel(256, 42, 0));
        assert_eq!(a.limiter, Limiter::Registers);
        assert!(!a.limiter.is_scheduling());
        assert_eq!(a.bounds.baseline(), a.bounds.capacity(), "VT cannot help");
    }

    #[test]
    fn smem_heavy_kernels_are_capacity_limited() {
        let core = CoreConfig::default();
        let a = analyze(&core, &kernel(128, 16, 16 * 1024));
        assert_eq!(a.bounds.by_shared_memory, 3);
        assert_eq!(a.limiter, Limiter::SharedMemory);
    }

    #[test]
    fn balanced_kernels_classify_as_balanced() {
        let core = CoreConfig::default();
        // 8 by CTA slots; choose regs so capacity also allows exactly 8:
        // 32768 regs / 8 = 4096 regs/CTA = 128 threads × 32 regs.
        let a = analyze(&core, &kernel(128, 32, 0));
        assert_eq!(a.bounds.by_registers, 8);
        assert_eq!(a.limiter, Limiter::Balanced);
    }

    #[test]
    fn residency_models_split_on_the_scheduling_limit() {
        let b = analyze(&CoreConfig::default(), &kernel(64, 16, 0)).bounds;
        let base = AdmissionPolicy::SchedulingAndCapacity.resident_bound(&b);
        assert_eq!(base, 8);
        assert_eq!(
            capacity_only(None).resident_bound(&b),
            32,
            "128 KiB / (2 warps × 32 × 16 regs × 4 B)"
        );
        assert_eq!(b.headroom(), 4.0);
    }

    #[test]
    fn context_buffer_cap_clamps_the_capacity_bound() {
        let b = analyze(&CoreConfig::default(), &kernel(64, 16, 0)).bounds;
        assert_eq!(capacity_only(Some(12)).resident_bound(&b), 12);
        assert_eq!(capacity_only(Some(40)).resident_bound(&b), 32);
    }

    /// With no headroom, relaxing the scheduling limit admits nothing
    /// more, whichever capacity resource binds.
    #[test]
    fn capacity_limited_kernels_have_no_headroom() {
        let core = CoreConfig::default();
        for k in [kernel(256, 42, 0), kernel(128, 16, 16 * 1024)] {
            let b = analyze(&core, &k).bounds;
            assert_eq!(b.headroom(), 1.0);
            assert_eq!(
                capacity_only(None).resident_bound(&b),
                AdmissionPolicy::SchedulingAndCapacity.resident_bound(&b)
            );
        }
    }
}
