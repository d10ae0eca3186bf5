//! Identities between scheduler policies and architectures. Each pair is
//! one mechanism under two configurations that degenerate parameters make
//! equal, so the pair must agree cycle for cycle: every statistic
//! (`golden::stats_json`) and the final image, over all 20 suite kernels.
//! A refactor of pick or residency that bends one side breaks an identity
//! even when every golden is re-blessed along with it.

use vt_core::{Architecture, Gpu, GpuConfig, Report, SchedPolicy};
use vt_isa::Kernel;
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
