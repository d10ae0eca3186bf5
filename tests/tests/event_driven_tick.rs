//! Engine-level differentials for the event-driven SM tick.
//!
//! An SM keeps its ready masks, CTA trigger counters and ready-CTA set
//! current at every event, so a parked warp or CTA costs nothing until
//! the event that unblocks it. None of that is part of a checkpoint: a
//! restored SM rebuilds it from the warp and CTA tables. A run cut into
//! one-cycle slices through [`GpuSim::resume`] therefore rebuilds it on
//! every cycle, while the uninterrupted run maintains it incrementally;
//! comparing the two compares "rebuilt from scratch" with "kept by
//! events" on everything a run produces, under all four architectures
//! (MemSwap's long swaps exercise the swap-completion timer). The second
//! half closes a gap the test-scale functional-equivalence suite leaves:
//! at paper scale, where VT really swaps, the simulator's final image
//! must still equal the interpreter's.

use vt_core::{Architecture, GpuConfig, RunBudget, RunOutcome};
use vt_isa::interp::Interpreter;
use vt_isa::Kernel;
use vt_sim::{GpuSim, RunResult, SimConfig};
use vt_trace::NullSink;
use vt_workloads::{full_suite, Scale, Workload};

fn workload(scale: &Scale, name: &str) -> Workload {
    full_suite(scale)
        .into_iter()
        .find(|w| w.name == name)
        .unwrap_or_else(|| panic!("{name} is in the suite"))
}

/// Two SMs with the scheduling limit shrunk to two CTA slots, so the
/// six-CTA test grids oversubscribe it and VT swaps; metrics and the
/// per-PC profile on, so series and profile are compared too. The caches
/// are shrunk as well: their tag arrays are most of a checkpoint, and
/// this test takes one per simulated cycle.
fn shrunken(arch: Architecture, kernel: &Kernel) -> SimConfig {
    let mut core = vt_core::CoreConfig {
        num_sms: 2,
        max_ctas_per_sm: 2,
        metrics_window: Some(64),
        profile: true,
        ..vt_core::CoreConfig::default()
    };
    core.max_warps_per_sm = core.max_ctas_per_sm * kernel.warps_per_cta();
    let mem = vt_core::MemConfig {
        l1_bytes: 2 * 1024,
        partitions: 2,
        l2_slice_bytes: 8 * 1024,
        ..vt_core::MemConfig::default()
    };
    SimConfig {
        residency: arch.residency_for(kernel, &core, &mem),
        core,
        mem,
    }
}

fn uninterrupted(cfg: &SimConfig, kernel: &Kernel) -> RunResult {
    GpuSim::new(cfg, kernel)
        .and_then(GpuSim::run)
        .unwrap_or_else(|e| panic!("{}: {e}", kernel.name()))
}

/// Runs `kernel` one cycle at a time, reviving the simulator from its
/// own checkpoint before every cycle.
fn one_cycle_slices(cfg: &SimConfig, kernel: &Kernel) -> RunResult {
    let slice = RunBudget::unlimited().with_max_cycles(1);
    let mut sim = GpuSim::new(cfg, kernel).expect("launchable");
    loop {
        match sim
            .execute(None, &mut NullSink, &slice, None)
            .unwrap_or_else(|e| panic!("{}: {e}", kernel.name()))
        {
            RunOutcome::Completed(done) => return done,
            RunOutcome::Truncated(t) => {
                sim = GpuSim::resume(cfg, kernel, &t.checkpoint).expect("own checkpoint resumes");
            }
        }
    }
}

/// One suite kernel under every architecture: sliced ≡ uninterrupted on
/// stats (which carry the series and the per-PC profile) and on the
/// image.
fn one_cycle_slices_equal_the_uninterrupted_run(name: &str) {
    let w = workload(&Scale::test(), name);
    for arch in Architecture::standard() {
        let label = format!("{name} under {}", arch.label());
        let cfg = shrunken(arch, &w.kernel);
        let want = uninterrupted(&cfg, &w.kernel);
        let got = one_cycle_slices(&cfg, &w.kernel);
        if matches!(
            arch,
            Architecture::VirtualThread(_) | Architecture::MemSwap(_)
        ) {
            assert!(want.stats.swaps.swaps_out > 0, "{label}: never swapped");
        }
        assert!(want.stats.series.is_some() && want.stats.hotspots.is_some());
        assert_eq!(got.stats.series, want.stats.series, "{label}: series");
        assert_eq!(got.stats.hotspots, want.stats.hotspots, "{label}: profile");
        assert_eq!(got.stats, want.stats, "{label}: stats");
        assert_eq!(got.mem_image, want.mem_image, "{label}: image");
    }
}

// One test per kernel so the harness runs them side by side: a
// checkpoint per simulated cycle is slow in a debug build.

#[test]
fn sliced_histo_equals_uninterrupted() {
    one_cycle_slices_equal_the_uninterrupted_run("histo"); // atomic histogram
}

#[test]
fn sliced_nw_equals_uninterrupted() {
    one_cycle_slices_equal_the_uninterrupted_run("nw"); // single-warp wavefront CTAs
}

#[test]
fn sliced_stencil_equals_uninterrupted() {
    one_cycle_slices_equal_the_uninterrupted_run("stencil"); // 3-D stencil
}

#[test]
fn sliced_hotbins_equals_uninterrupted() {
    one_cycle_slices_equal_the_uninterrupted_run("hotbins"); // zoo: contended atomics
}

#[test]
fn paper_scale_images_match_the_interpreter_under_every_architecture() {
    for name in ["spmv", "bfs"] {
        let w = workload(&Scale::paper(), name);
        let reference = Interpreter::new(&w.kernel)
            .and_then(|i| i.run())
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        for arch in Architecture::standard() {
            let report = vt_core::Gpu::new(GpuConfig::with_arch(arch))
                .run(&w.kernel)
                .unwrap_or_else(|e| panic!("{name} under {}: {e}", arch.label()));
            assert_eq!(
                report.mem_image.as_words(),
                reference.mem().as_words(),
                "{name} diverged functionally under {} at paper scale",
                arch.label()
            );
            if matches!(arch, Architecture::VirtualThread(_)) {
                assert!(report.stats.swaps.swaps_out > 0, "{name}: VT never swapped");
            }
        }
    }
}
