//! Static-vs-dynamic oracle for the occupancy model.
//!
//! The static model (`vt_analysis::model`) predicts, per kernel ×
//! architecture, the peak number of resident CTAs an SM will host and
//! whether Virtual Thread should improve throughput. This file
//! cross-validates those predictions against the timing simulator:
//!
//! * the static resident-CTA bound must equal the dynamically observed
//!   peak residency (from the windowed `resident_ctas` metric series),
//!   exactly, for every suite kernel × architecture;
//! * the scheduling-limited classification must predict whether VT
//!   improves measured IPC;
//! * on random synthetic kernels, the whole pipeline never panics and
//!   its bounds stay mutually consistent (property test).
//!
//! The oracle runs under deliberately *shrunken* SM limits: at the
//! defaults, `Scale::test()` grids are too small for any bound to bind,
//! and nothing would be validated.

use vt_core::{Architecture, CoreConfig, GpuConfig, MemConfig, Report, RunRequest, Session};
use vt_isa::SmLimits;
use vt_prng::Prng;
use vt_workloads::{full_suite, AccessPattern, Scale, SyntheticParams};

use vt_analysis::{analyze, model, ModelConfig};

/// Shrunken limits under which every suite kernel still launches (the
/// largest CTA needs 24 KiB of registers and 8 KiB of shared memory)
/// but the bounds actually bind at test scale: 2 CTA slots, 8 warp
/// slots, 48 KiB register file, 16 KiB shared memory.
fn oracle_limits() -> SmLimits {
    SmLimits {
        max_warps_per_sm: 8,
        max_ctas_per_sm: 2,
        regfile_bytes: 48 * 1024,
        smem_bytes: 16 * 1024,
    }
}

/// One SM so the whole grid lands on it and `ctas_assigned` is exact;
/// a short metrics window so the residency plateau is always sampled.
fn oracle_config(arch: Architecture) -> GpuConfig {
    let mut core = CoreConfig::from_limits(oracle_limits());
    core.num_sms = 1;
    core.metrics_window = Some(32);
    GpuConfig {
        core,
        mem: MemConfig::default(),
        arch,
    }
}

fn oracle_scale() -> Scale {
    Scale { ctas: 12, iters: 2 }
}

fn run_oracle(arch: Architecture, kernel: &vt_isa::Kernel) -> Report {
    Session::new(oracle_config(arch))
        .run(RunRequest::kernel(kernel))
        .and_then(|o| o.completed())
        .unwrap_or_else(|e| panic!("{} under {}: {e}", kernel.name(), arch.label()))
        .remove(0)
}

/// Peak of the per-SM `resident_ctas` level series over the whole run.
fn observed_peak_residency(report: &Report) -> u64 {
    report
        .stats
        .metrics()
        .expect("metrics enabled")
        .get("resident_ctas", Some(0))
        .expect("per-SM resident_ctas series")
        .values()
        .iter()
        .copied()
        .max()
        .expect("at least one sealed window")
}

/// **The oracle**: for every suite kernel × architecture, the static
/// model's resident-CTA bound (grid-clamped) equals the dynamically
/// observed peak residency. Exact equality — a one-CTA discrepancy means
/// the model and the dispatcher no longer admit by the same rule.
#[test]
fn static_bound_matches_observed_peak_residency() {
    let cfg = ModelConfig {
        limits: oracle_limits(),
        ..ModelConfig::default()
    };
    for w in full_suite(&oracle_scale()) {
        let m = model(&w.kernel, &cfg);
        assert_eq!(m.archs.len(), 4, "{}", w.name);
        for (arch, p) in Architecture::standard().into_iter().zip(&m.archs) {
            assert_eq!(p.arch, arch.label());
            let predicted = p.resident_bound.min(w.kernel.num_ctas());
            let report = run_oracle(arch, &w.kernel);
            let observed = observed_peak_residency(&report);
            assert_eq!(
                u64::from(predicted),
                observed,
                "{} under {}: static bound vs observed peak (bounds {:?})",
                w.name,
                arch.label(),
                m.occupancy.bounds,
            );
        }
    }
}

/// The scheduling-limited classification predicts whether VT improves
/// measured IPC: residency headroom ⇒ VT is strictly faster; no
/// headroom ⇒ VT tracks the baseline closely (it runs the very same
/// schedule, plus at most some activation bookkeeping).
#[test]
fn scheduling_classification_predicts_vt_ipc_gain() {
    let limits = oracle_limits();
    for w in full_suite(&oracle_scale()) {
        let occ = limits.occupancy(&w.kernel);
        let headroom = occ.bounds.capacity().min(w.kernel.num_ctas()) > occ.bounds.baseline();
        // Consistency of the classification itself: strictly binding
        // scheduling limit ⟺ capacity headroom exists at all.
        assert_eq!(
            occ.bounds.capacity() > occ.bounds.baseline(),
            occ.limiter.is_scheduling(),
            "{}: limiter {:?} vs bounds {:?}",
            w.name,
            occ.limiter,
            occ.bounds,
        );

        let base = run_oracle(Architecture::Baseline, &w.kernel);
        let vt = run_oracle(Architecture::virtual_thread(), &w.kernel);
        assert_eq!(
            base.stats.thread_instrs, vt.stats.thread_instrs,
            "{}: same work under both architectures",
            w.name
        );
        let speedup = base.stats.cycles as f64 / vt.stats.cycles as f64;
        if headroom {
            assert!(
                speedup > 1.02,
                "{}: scheduling-limited (base {} → vt {} CTAs) but VT speedup is {speedup:.3}",
                w.name,
                occ.bounds.baseline(),
                occ.bounds.capacity(),
            );
        } else {
            assert!(
                (0.95..=1.05).contains(&speedup),
                "{}: no residency headroom but VT changed cycles by {speedup:.3}×",
                w.name,
            );
        }
    }
}

/// The static limiter predicts which *empty* cycle-accounting bucket
/// the simulator charges. Under the baseline's scheduling+capacity
/// admission, empty SM-cycles with work left land in `empty_scheduling`
/// exactly when the static limiter is a scheduling-structure shortage,
/// and in `empty_capacity` otherwise — the other bucket stays zero for
/// the whole run. Under VT's capacity-only admission the scheduling
/// limit does not exist, so its bucket can never be charged. (The
/// dispatch-after-tick cycle ordering guarantees at least one empty
/// pre-dispatch cycle per run, so the positive assertions are never
/// vacuous.)
#[test]
fn static_limiter_predicts_dynamic_empty_bucket() {
    let limits = oracle_limits();
    for w in full_suite(&oracle_scale()) {
        let scheduling_limited = limits.bounds(&w.kernel).limiter().is_scheduling();
        let base = run_oracle(Architecture::Baseline, &w.kernel);
        let e = &base.stats.empty;
        if scheduling_limited {
            assert!(
                e.scheduling > 0,
                "{}: scheduling-limited but no cycle charged to the limit",
                w.name
            );
            assert_eq!(
                e.capacity, 0,
                "{}: scheduling-limited kernels never starve on capacity",
                w.name
            );
        } else {
            assert!(
                e.capacity > 0,
                "{}: capacity-limited but no cycle charged to it",
                w.name
            );
            assert_eq!(
                e.scheduling, 0,
                "{}: capacity-limited kernels never starve on the scheduling limit",
                w.name
            );
        }

        let vt = run_oracle(Architecture::virtual_thread(), &w.kernel);
        assert_eq!(
            vt.stats.empty.scheduling, 0,
            "{}: capacity-only admission has no scheduling limit to charge",
            w.name
        );
        assert!(
            vt.stats.empty.capacity > 0,
            "{}: the pre-dispatch cycle is capacity-charged under VT",
            w.name
        );
    }
}

/// Property test: the full static pipeline (lints and performance
/// model) never panics on random synthetic kernels, and the model's
/// bounds are mutually consistent.
#[test]
fn model_never_panics_and_bounds_are_consistent_on_random_kernels() {
    let cfg = ModelConfig::default();
    let mut rng = Prng::new(0x0c0a_1e5c_e0de);
    for case in 0..60 {
        let access = match rng.gen_range(0..3) {
            0 => AccessPattern::Coalesced,
            1 => AccessPattern::Strided(rng.gen_range(1..40)),
            _ => AccessPattern::Random,
        };
        let p = SyntheticParams {
            name: format!("prop-{case}"),
            ctas: rng.gen_range(1..8),
            threads_per_cta: 32 * rng.gen_range(1..9),
            regs_per_thread: rng.gen_range(8..64) as u16,
            smem_bytes: 256 * rng.gen_range(0..32),
            iters: rng.gen_range(1..4),
            loads_per_iter: rng.gen_range(1..4),
            alu_per_load: rng.gen_range(0..8),
            access,
            barrier_per_iter: rng.gen_bool(0.5),
        };
        let kernel = p.build();

        // Neither pass may panic.
        let report = analyze(&kernel);
        let m = model(&kernel, &cfg);

        let b = &m.occupancy.bounds;
        let baseline = b.baseline();
        let capacity = b.capacity();
        assert!(baseline >= 1, "{}: every suite-shaped kernel fits", p.name);
        assert!(baseline <= b.by_cta_slots, "{}", p.name);
        assert!(baseline <= b.by_warp_slots, "{}", p.name);
        assert!(baseline <= b.by_registers, "{}", p.name);
        assert!(baseline <= b.by_shared_memory, "{}", p.name);
        assert!(
            capacity >= baseline,
            "{}: VT never reduces residency",
            p.name
        );
        assert!(
            m.residency_gain() >= 1.0 - 1e-9,
            "{}: gain {} < 1",
            p.name,
            m.residency_gain()
        );

        // Every architecture admits at least what the baseline does and
        // at most what capacity allows.
        for a in &m.archs {
            assert!(
                (baseline..=capacity).contains(&a.resident_bound),
                "{} under {}: bound {}",
                p.name,
                a.arch,
                a.resident_bound
            );
        }

        // The model's memory sites are a subset of the program's
        // instructions and its lints are warnings only.
        for site in &m.mem_sites {
            assert!(site.pc < kernel.program().len(), "{}", p.name);
            if let Some(seg) = site.segments_per_warp {
                assert!((1..=32).contains(&seg), "{}", p.name);
            }
            if let Some(ways) = site.bank_conflict_ways {
                assert!((1..=32).contains(&ways), "{}", p.name);
            }
        }
        assert!(
            m.diagnostics
                .iter()
                .all(|d| d.severity != vt_analysis::Severity::Error),
            "{}: model findings are never errors",
            p.name
        );

        // The two passes see the same register pressure.
        assert_eq!(m.register_pressure, report.register_pressure, "{}", p.name);
    }
}
