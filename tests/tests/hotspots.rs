//! Per-PC hotspot profiles: the per-instruction conservation identity
//! (per-PC issue and stall buckets sum exactly to the kernel-level CPI
//! stack, reason by reason) across the full suite × every architecture,
//! survival of random checkpoint/resume cuts, and the zero-perturbation
//! guarantee that profiling never changes the stats it observes.

use std::fs;
use std::path::PathBuf;
use vt_bench::hotspot::ProfileRecord;
use vt_core::{
    Architecture, Checkpoint, CpiStack, PcProfile, Report, RunBudget, RunRequest, RunStats,
    Session, SessionOutcome, StallReason,
};
use vt_isa::Kernel;
use vt_json::ToJson;
use vt_prng::Prng;
use vt_tests::small_config;
use vt_workloads::{full_suite, Scale};

/// The kernel-level stack bucket a stall reason feeds.
fn stack_stall(cpi: &CpiStack, r: StallReason) -> u64 {
    match r {
        StallReason::Memory => cpi.stall_memory,
        StallReason::Pipeline => cpi.stall_pipeline,
        StallReason::Barrier => cpi.stall_barrier,
        StallReason::Swap => cpi.stall_swap,
        StallReason::Structural => cpi.stall_structural,
    }
}

/// Per-PC conservation: the profile's issue cycles sum exactly to the
/// stack's `issued` bucket, and for every stall reason the per-PC
/// charges plus the unattributed remainder reproduce the kernel-level
/// bucket to the cycle.
fn assert_pc_conserved(stats: &RunStats, label: &str) -> PcProfile {
    let profile = stats
        .hotspots
        .clone()
        .unwrap_or_else(|| panic!("{label}: profiled run carries no hotspot profile"));
    let cpi = stats.cpi_stack();
    assert_eq!(
        profile.issued_total(),
        cpi.issued,
        "{label}: per-PC issue cycles must sum to the stack's issued bucket"
    );
    for r in StallReason::ALL {
        assert_eq!(
            profile.stall_total(r) + profile.unattributed[r.index()],
            stack_stall(&cpi, r),
            "{label}: per-PC {} + unattributed must reproduce the stack bucket",
            r.name()
        );
    }
    profile
}

fn profiled_request(kernel: &Kernel) -> RunRequest<'_> {
    RunRequest::kernel(kernel)
}

fn run_profiled(kernel: &Kernel, cfg: vt_core::GpuConfig) -> Report {
    Session::new(cfg)
        .run(profiled_request(kernel))
        .and_then(|o| o.completed())
        .unwrap_or_else(|e| panic!("{}: {e}", kernel.name()))
        .remove(0)
}

/// For every suite kernel × architecture: the per-PC buckets sum exactly
/// to the kernel-level `cpi_stack()` and the profile covers every
/// instruction.
#[test]
fn suite_per_pc_buckets_conserve_across_archs_and_workers() {
    for w in full_suite(&Scale::test()) {
        for arch in Architecture::standard() {
            let mut cfg = small_config(arch);
            cfg.core.profile = true;
            let label = format!("{} under {}", w.name, arch.label());

            let want = run_profiled(&w.kernel, cfg.clone());
            let profile = assert_pc_conserved(&want.stats, &label);
            assert_eq!(
                profile.len(),
                w.kernel.program().len(),
                "{label}: one counter row per instruction"
            );
        }
    }
}

/// Random checkpoint/resume cuts: partial profiles already satisfy the
/// conservation identity, and the resumed run stitches back to the
/// uninterrupted profile byte-identically (snapshot equality).
#[test]
fn conservation_survives_random_checkpoint_cuts() {
    let mut rng = Prng::new(0x907_5907_5907);
    for w in full_suite(&Scale::test()) {
        let arch = Architecture::standard()[rng.gen_range(0..4) as usize];
        let mut cfg = small_config(arch);
        cfg.core.profile = true;
        let label = format!("{} under {}", w.name, arch.label());

        let want = run_profiled(&w.kernel, cfg.clone());
        let want_profile = assert_pc_conserved(&want.stats, &label);

        let limit = want.stats.cycles.clamp(2, u64::from(u32::MAX)) as u32;
        let cut = u64::from(1 + rng.gen_range(0..limit - 1));
        let mut session = Session::new(cfg);
        let SessionOutcome::Truncated { truncation, .. } = session
            .run(
                profiled_request(&w.kernel)
                    .with_budget(RunBudget::unlimited().with_max_cycles(cut)),
            )
            .unwrap_or_else(|e| panic!("{label} cut {cut}: {e}"))
        else {
            panic!("{label}: expected truncation at cycle {cut}");
        };
        assert_pc_conserved(&truncation.stats, &format!("{label} cut {cut}"));

        // The profile must round-trip through the checkpoint text and
        // stitch back to the uninterrupted run.
        let ckpt = Checkpoint::parse(&truncation.checkpoint.to_text())
            .unwrap_or_else(|e| panic!("{label}: {e}"));
        let resumed = session
            .run(profiled_request(&w.kernel).resume_from(&ckpt))
            .and_then(|o| o.completed())
            .unwrap_or_else(|e| panic!("{label} resume: {e}"))
            .remove(0);
        let resumed_profile = assert_pc_conserved(&resumed.stats, &format!("{label} resumed"));
        assert_eq!(
            resumed_profile.to_json().pretty(),
            want_profile.to_json().pretty(),
            "{label}: resumed profile diverges from the uninterrupted run"
        );
        assert_eq!(resumed.stats, want.stats, "{label}: resumed stats diverge");
    }
}

/// Exact-integer golden profile records for three archetypal suite
/// kernels (memory-bound, compute-bound, divergence-heavy) under the
/// virtual-thread architecture: `tests/golden/hotspots.<kernel>.json`.
/// Any per-PC attribution drift shows up as an integer diff. Re-bless
/// with `VT_BLESS=1 cargo test -q -p vt-tests --test hotspots` (or
/// `tools/bless.sh`).
#[test]
fn archetype_profiles_match_goldens() {
    let bless = std::env::var("VT_BLESS").is_ok_and(|v| !v.is_empty() && v != "0");
    let golden_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("golden");
    let arch = vt_core::Architecture::virtual_thread();
    for w in full_suite(&Scale::test()) {
        if !["bfs", "sgemm", "divtree"].contains(&w.name) {
            continue;
        }
        let mut cfg = small_config(arch);
        cfg.core.profile = true;
        let report = run_profiled(&w.kernel, cfg);
        let rec = ProfileRecord::from_run(w.name, arch.label(), w.kernel.program(), &report.stats)
            .unwrap_or_else(|e| panic!("{}: {e}", w.name));
        rec.check_conservation()
            .unwrap_or_else(|e| panic!("{}: {e}", w.name));
        let got = rec.to_json().pretty();
        let path = golden_dir.join(format!("hotspots.{}.json", w.name));
        if bless {
            fs::write(&path, &got).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
            continue;
        }
        let want = fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "cannot read {} ({e}); run `VT_BLESS=1 cargo test -p vt-tests \
                 --test hotspots` to create it",
                path.display()
            )
        });
        assert_eq!(
            got,
            want,
            "{}: per-PC profile drifted from {}",
            w.name,
            path.display()
        );
        // The golden also round-trips through the loader, which
        // re-checks conservation on the way in.
        let parsed = ProfileRecord::load(path.to_str().unwrap())
            .unwrap_or_else(|e| panic!("{}: {e}", w.name));
        assert_eq!(parsed, rec, "{}: record round-trip", w.name);
    }
}

/// Profiling is an observer: with `profile` off the stats are the
/// pre-profiler `RunStats` (no hotspot field), and a profiled run's
/// stats minus its profile are bit-identical to an unprofiled run's.
#[test]
fn profiling_never_perturbs_the_run() {
    for w in full_suite(&Scale::test()).into_iter().take(4) {
        for arch in Architecture::standard() {
            let label = format!("{} under {}", w.name, arch.label());
            let plain = vt_tests::run(arch, &w.kernel);
            assert!(
                plain.stats.hotspots.is_none(),
                "{label}: unprofiled runs must not allocate a profile"
            );

            let mut cfg = small_config(arch);
            cfg.core.profile = true;
            let mut profiled = run_profiled(&w.kernel, cfg);
            assert!(profiled.stats.hotspots.is_some(), "{label}");
            profiled.stats.hotspots = None;
            assert_eq!(
                profiled.stats, plain.stats,
                "{label}: profiling perturbed the observed stats"
            );
            assert_eq!(
                profiled.mem_image.as_words(),
                plain.mem_image.as_words(),
                "{label}: profiling perturbed the memory image"
            );
        }
    }
}
