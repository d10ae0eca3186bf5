//! Architectural invariants: resource limits are never exceeded, the
//! performance ordering between architectures holds on latency-bound
//! work, and error paths behave.

use vt_core::{occupancy, Architecture, CoreConfig, Gpu, GpuConfig, SimError, VtParams};
use vt_isa::op::Operand;
use vt_isa::KernelBuilder;
use vt_tests::{run, small_config};
use vt_workloads::{full_suite, AccessPattern, Scale, SyntheticParams};

fn latency_bound() -> vt_isa::Kernel {
    SyntheticParams {
        ctas: 64,
        access: AccessPattern::Random,
        alu_per_load: 1,
        ..SyntheticParams::default()
    }
    .build()
}

#[test]
fn baseline_never_exceeds_scheduling_limit() {
    let core = CoreConfig {
        num_sms: 2,
        ..CoreConfig::default()
    };
    for w in full_suite(&Scale::test()) {
        let r = run(Architecture::Baseline, &w.kernel);
        let occ = &r.stats.occupancy;
        assert!(
            occ.avg_resident_warps() <= f64::from(core.max_warps_per_sm) + 1e-9,
            "{}",
            w.name
        );
        assert!(
            occ.avg_resident_ctas() <= f64::from(core.max_ctas_per_sm) + 1e-9,
            "{}",
            w.name
        );
        assert_eq!(r.stats.swaps.swaps_out, 0, "baseline never swaps");
    }
}

#[test]
fn vt_respects_active_limit_while_exceeding_residency() {
    let core = CoreConfig {
        num_sms: 2,
        ..CoreConfig::default()
    };
    let k = latency_bound();
    let r = run(Architecture::virtual_thread(), &k);
    let occ = &r.stats.occupancy;
    // Active (schedulable) warps never exceed the scheduling limit…
    assert!(occ.avg_active_warps() <= f64::from(core.max_warps_per_sm) + 1e-9);
    // …while resident warps go beyond what the baseline could ever host.
    let base = run(Architecture::Baseline, &k);
    assert!(occ.avg_resident_warps() > base.stats.occupancy.avg_resident_warps() * 1.3);
    // And residency respects the capacity limit.
    let static_occ = occupancy::analyze(&core, &k);
    assert!(occ.avg_resident_ctas() <= f64::from(static_occ.bounds.capacity()) + 1e-9);
}

#[test]
fn vt_cap_bounds_residency() {
    let k = latency_bound();
    let capped = Architecture::VirtualThread(VtParams {
        max_virtual_ctas: Some(10),
        ..VtParams::default()
    });
    let r = run(capped, &k);
    assert!(r.stats.occupancy.avg_resident_ctas() <= 10.0 + 1e-9);
}

#[test]
fn performance_ordering_on_latency_bound_kernel() {
    let k = latency_bound();
    let base = run(Architecture::Baseline, &k);
    let vt = run(Architecture::virtual_thread(), &k);
    let ideal = run(Architecture::Ideal, &k);
    let memswap = run(Architecture::MemSwap(vt_core::MemSwapParams::default()), &k);
    assert!(vt.stats.cycles < base.stats.cycles, "VT beats baseline");
    assert!(
        ideal.stats.cycles <= vt.stats.cycles * 11 / 10,
        "ideal ({}) is VT's ({}) upper bound",
        ideal.stats.cycles,
        vt.stats.cycles
    );
    assert!(
        memswap.stats.cycles >= vt.stats.cycles,
        "memswap pays more per switch"
    );
    assert!(vt.stats.swaps.swaps_out > 0);
    assert!(vt.stats.swaps.swaps_in <= vt.stats.swaps.swaps_out);
}

#[test]
fn capacity_limited_kernels_are_untouched_by_vt() {
    for w in full_suite(&Scale::test()) {
        if w.class != vt_workloads::LimiterClass::Capacity {
            continue;
        }
        let base = run(Architecture::Baseline, &w.kernel);
        let vt = run(Architecture::virtual_thread(), &w.kernel);
        assert_eq!(base.stats.cycles, vt.stats.cycles, "{}", w.name);
        assert_eq!(
            vt.stats.swaps.swaps_out, 0,
            "{}: nothing to swap against",
            w.name
        );
    }
}

#[test]
fn oversized_cta_is_rejected_at_launch() {
    let mut b = KernelBuilder::new("huge");
    b.pad_regs(200);
    b.exit();
    let k = b.build(1, 1536).unwrap();
    let err = Gpu::new(small_config(Architecture::Baseline))
        .run(&k)
        .unwrap_err();
    assert!(matches!(err, SimError::Launch(_)), "got {err}");
}

#[test]
fn watchdog_aborts_runaway_kernels() {
    let mut b = KernelBuilder::new("spin");
    b.while_(|_| Operand::Imm(1), |_| {});
    let k = b.build(1, 32).unwrap();
    let mut cfg = small_config(Architecture::virtual_thread());
    cfg.core.max_cycles = 2_000;
    let err = Gpu::new(cfg).run(&k).unwrap_err();
    assert_eq!(err, SimError::Watchdog { cycle: 2_000 });
}

#[test]
fn idle_cycles_never_exceed_sm_cycles() {
    for w in full_suite(&Scale::test()) {
        let r = run(Architecture::virtual_thread(), &w.kernel);
        assert!(
            r.stats.idle.total() <= r.stats.occupancy.sm_cycles,
            "{}",
            w.name
        );
        assert_eq!(
            r.stats.occupancy.sm_cycles,
            r.stats.cycles * 2,
            "{}",
            w.name
        );
    }
}

#[test]
fn idle_accounting_partitions_every_sm_cycle() {
    // Each SM-cycle is charged to exactly one bucket: either at least one
    // instruction issued (`issue_cycles`) or exactly one idle bucket, by
    // the precedence documented on `IdleBreakdown` (no_warps, then
    // swapping/memory for a drained active set, then the issue-list scan).
    // The buckets therefore partition `num_sms × cycles` with no cycle
    // dropped or double-counted — for every suite kernel and every
    // architecture. The empty split refines `no_warps` the same way
    // (scheduling + capacity + drain, nothing else), so the derived
    // CPI stack inherits the conservation identity exactly.
    for w in full_suite(&Scale::test()) {
        for arch in Architecture::standard() {
            let r = run(arch, &w.kernel);
            assert_eq!(
                r.stats.idle.total() + r.stats.issue_cycles,
                r.stats.occupancy.sm_cycles,
                "{} under {}",
                w.name,
                arch.label()
            );
            assert_eq!(
                r.stats.occupancy.sm_cycles,
                r.stats.cycles * 2,
                "{} under {} (2 SMs accumulate once per cycle)",
                w.name,
                arch.label()
            );
            assert_eq!(
                r.stats.empty.total(),
                r.stats.idle.no_warps,
                "{} under {}: empty split must refine idle.no_warps",
                w.name,
                arch.label()
            );
            let cpi = r.stats.cpi_stack();
            assert_eq!(
                cpi.total(),
                r.stats.occupancy.sm_cycles,
                "{} under {}: CPI stack conserves SM-cycles",
                w.name,
                arch.label()
            );
            assert_eq!(cpi.issued, r.stats.issue_cycles);
            assert_eq!(cpi.stalled() + cpi.empty(), r.stats.idle.total());
        }
    }
}

#[test]
fn swap_accounting_is_consistent() {
    let k = latency_bound();
    let r = run(Architecture::virtual_thread(), &k);
    let s = &r.stats.swaps;
    // Every swap-in restores a context that a swap-out saved.
    assert!(s.swaps_in <= s.swaps_out);
    // Activations (fresh + restored) cover every admitted CTA at least once.
    assert!(s.fresh_activations >= u64::from(k.num_ctas() / 2));
    assert!(s.swap_busy_cycles > 0);
}

#[test]
fn report_exposes_resolved_residency() {
    let k = latency_bound();
    let r = Gpu::new(GpuConfig::with_arch(Architecture::virtual_thread()))
        .run(&k)
        .unwrap();
    assert!(r.residency.swap.is_some());
    let base = Gpu::new(GpuConfig::default()).run(&k).unwrap();
    assert!(base.residency.swap.is_none());
}
