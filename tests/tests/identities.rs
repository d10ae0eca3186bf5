//! Identities between scheduler policies and architectures. Each pair is
//! one mechanism under two configurations that degenerate parameters make
//! equal, so the pair must agree cycle for cycle: every statistic
//! (`golden::stats_json`) and the final image, over all 20 suite kernels.
//! A refactor of pick or residency that bends one side breaks an identity
//! even when every golden is re-blessed along with it.
//!
//! The residency identities run on `swap_config`'s geometry (2 SMs of 2
//! CTA slots), where Virtual Thread swaps on every suite kernel.

use vt_core::{
    Architecture, Gpu, GpuConfig, MemSwapParams, Report, RunStats, SchedPolicy, VtParams,
};
use vt_isa::Kernel;
use vt_sim::config::ThrottleConfig;
use vt_sim::{GpuSim, RunResult};
use vt_tests::checkpoints::swap_config;
use vt_tests::golden::stats_json;
use vt_tests::small_config;
use vt_workloads::{full_suite, Scale};

fn run(cfg: &GpuConfig, kernel: &Kernel) -> Report {
    Gpu::new(cfg.clone())
        .run(kernel)
        .unwrap_or_else(|e| panic!("{}: {e}", kernel.name()))
}

/// Runs every suite kernel under both configurations and asserts equal
/// statistics and images.
fn assert_identical(what: &str, left: &GpuConfig, right: &GpuConfig) {
    for w in full_suite(&Scale::test()) {
        let (l, r) = (run(left, &w.kernel), run(right, &w.kernel));
        assert_eq!(
            stats_json(&l.stats).pretty(),
            stats_json(&r.stats).pretty(),
            "{what}: {} differs in its statistics",
            w.name
        );
        assert_eq!(
            l.mem_image.as_words(),
            r.mem_image.as_words(),
            "{what}: {} differs in its image",
            w.name
        );
    }
}

/// With one scheduler per warp slot, each scheduler's partition holds at
/// most one warp, so round-robin and greedy-then-oldest pick alike.
#[test]
fn lrr_equals_gto_when_each_scheduler_owns_one_warp() {
    let mut lrr = small_config(Architecture::Baseline);
    lrr.core.schedulers_per_sm = lrr.core.max_warps_per_sm;
    lrr.core.scheduler = SchedPolicy::Lrr;
    let mut gto = lrr.clone();
    gto.core.scheduler = SchedPolicy::Gto;
    assert_identical("LRR vs GTO, one warp per scheduler", &lrr, &gto);
}

/// Ideal activates every resident CTA; Baseline does too once its CTA
/// and warp slots are out of the way, and both are then bound by
/// capacity alone.
#[test]
fn ideal_equals_baseline_without_scheduling_limits() {
    let ideal = small_config(Architecture::Ideal);
    let mut baseline = small_config(Architecture::Baseline);
    baseline.core.max_ctas_per_sm = 1 << 20;
    baseline.core.max_warps_per_sm = 1 << 20;
    assert_identical("Ideal vs unlimited Baseline", &ideal, &baseline);
}

/// Runs `kernel` on `swap_config`'s geometry under `arch`.
fn run_swapping(kernel: &Kernel, arch: Architecture) -> RunResult {
    GpuSim::new(&swap_config(kernel, arch, false), kernel)
        .and_then(GpuSim::run)
        .unwrap_or_else(|e| panic!("{} under {}: {e}", kernel.name(), arch.label()))
}

/// Runs every suite kernel on the swapping geometry under both
/// architectures `archs(kernel)` gives, and asserts equal images and
/// equal statistics once `norm` has been applied to both sides. Returns
/// each kernel's left-hand statistics.
fn assert_identical_swapping(
    what: &str,
    archs: impl Fn(&Kernel) -> (Architecture, Architecture),
    norm: impl Fn(&mut RunStats),
) -> Vec<RunStats> {
    let mut left = Vec::new();
    for w in full_suite(&Scale::test()) {
        let (a, b) = archs(&w.kernel);
        let (mut l, mut r) = (run_swapping(&w.kernel, a), run_swapping(&w.kernel, b));
        assert_eq!(
            l.mem_image.as_words(),
            r.mem_image.as_words(),
            "{what}: {} differs in its image",
            w.name
        );
        norm(&mut l.stats);
        norm(&mut r.stats);
        assert_eq!(
            stats_json(&l.stats).pretty(),
            stats_json(&r.stats).pretty(),
            "{what}: {} differs in its statistics",
            w.name
        );
        left.push(l.stats);
    }
    left
}

/// Requires every kernel's run to have swapped, so the identity pinned
/// the swap path.
fn assert_all_swap(what: &str, runs: &[RunStats]) {
    for (w, s) in full_suite(&Scale::test()).iter().zip(runs) {
        assert!(s.swaps.swaps_out > 0, "{what}: {} never swapped", w.name);
    }
}

/// MemSwap and VT lower to the same mechanism and differ only in what a
/// swap costs. With a bandwidth term of one cycle for any footprint and
/// a base latency one short of VT's cost, MemSwap pays VT's cost.
#[test]
fn memswap_at_vt_swap_cost_equals_vt() {
    let vt = VtParams::default();
    let what = "VT vs MemSwap at VT's swap cost";
    let runs = assert_identical_swapping(
        what,
        |k| {
            let memswap = MemSwapParams {
                mem_bytes_per_cycle: u32::MAX,
                base_latency: vt.swap_cycles(k) - 1,
                ..MemSwapParams::default()
            };
            (
                Architecture::VirtualThread(vt),
                Architecture::MemSwap(memswap),
            )
        },
        |_| {},
    );
    assert_all_swap(what, &runs);
}

/// A throttle whose first observation window never ends never holds, so
/// VT rotates exactly as it does without one.
#[test]
fn vt_with_a_throttle_that_never_measures_equals_vt() {
    let throttled = Architecture::VirtualThread(VtParams {
        adaptive_throttle: Some(ThrottleConfig {
            window_cycles: u32::MAX,
            ..ThrottleConfig::default()
        }),
        ..VtParams::default()
    });
    let what = "VT vs VT with an endless throttle window";
    let runs = assert_identical_swapping(
        what,
        |_| (Architecture::virtual_thread(), throttled),
        |_| {},
    );
    assert_all_swap(what, &runs);
}

/// With its context buffer capped at the CTA slot count, VT admits only
/// what it can activate: no CTA is ever inactive, nothing swaps, and it
/// runs as Baseline does. The one difference is blame, not time: an
/// empty SM-cycle with work left is charged to `capacity` under VT (a
/// full context buffer is a capacity limit) and to `scheduling` under
/// Baseline (DESIGN.md §15), so the two are compared by their sum.
#[test]
fn vt_capped_at_the_cta_slots_equals_baseline() {
    let capped = Architecture::VirtualThread(VtParams {
        max_virtual_ctas: Some(2),
        ..VtParams::default()
    });
    for w in full_suite(&Scale::test()) {
        let cfg = swap_config(&w.kernel, Architecture::Baseline, false);
        assert_eq!(
            cfg.core.max_ctas_per_sm, 2,
            "{}: the cap is the slots",
            w.name
        );
    }
    let runs = assert_identical_swapping(
        "capped VT vs Baseline",
        |_| (capped, Architecture::Baseline),
        |s| s.empty.capacity += std::mem::take(&mut s.empty.scheduling),
    );
    for (w, s) in full_suite(&Scale::test()).iter().zip(&runs) {
        assert_eq!(s.swaps.swaps_out, 0, "{}: capped VT swapped", w.name);
    }
}
