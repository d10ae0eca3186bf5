//! Cycle-accounting CPI stacks: the conservation identity (every
//! SM-cycle lands in exactly one of the nine leaf buckets) as a property
//! test over random synthetic kernels × architectures × truncation
//! cuts, plus exact-integer golden stacks for the pinned suite.
//!
//! To accept an intentional attribution change:
//!
//! ```text
//! VT_BLESS=1 cargo test -q -p vt-tests --test cpi
//! ```

use std::fs;
use std::path::PathBuf;
use vt_core::{Architecture, Checkpoint, RunBudget, RunRequest, RunStats, Session, SessionOutcome};
use vt_json::Json;
use vt_prng::Prng;
use vt_tests::small_config;
use vt_workloads::{full_suite, AccessPattern, Scale, SyntheticParams};

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("golden")
}

/// The full conservation identity on one (possibly partial) run:
/// `issued + stalled + empty == num_sms × cycles`, with the empty split
/// refining `idle.no_warps` exactly.
fn assert_conserved(s: &RunStats, num_sms: u64, label: &str) {
    assert_eq!(
        s.issue_cycles + s.idle.total(),
        num_sms * s.cycles,
        "{label}: idle identity"
    );
    assert_eq!(
        s.empty.total(),
        s.idle.no_warps,
        "{label}: empty split must refine idle.no_warps"
    );
    let cpi = s.cpi_stack();
    assert_eq!(
        cpi.total(),
        s.occupancy.sm_cycles,
        "{label}: CPI stack conserves SM-cycles"
    );
    assert_eq!(
        s.occupancy.sm_cycles,
        num_sms * s.cycles,
        "{label}: occupancy accumulates once per SM per cycle"
    );
    assert_eq!(cpi.issued, s.issue_cycles, "{label}");
    assert_eq!(cpi.stalled() + cpi.empty(), s.idle.total(), "{label}");
}

/// Property test: on random synthetic kernels, every architecture and
/// truncation cut preserves the conservation identity, partial stats at
/// any cut already satisfy the identity, and a resumed run reproduces the
/// uninterrupted stack exactly.
#[test]
fn conservation_holds_across_archs_workers_and_cuts() {
    let mut rng = Prng::new(0xc1_0c7e_57a7);
    for case in 0..6 {
        let access = match rng.gen_range(0..3) {
            0 => AccessPattern::Coalesced,
            1 => AccessPattern::Strided(rng.gen_range(1..24)),
            _ => AccessPattern::Random,
        };
        let p = SyntheticParams {
            name: format!("cpi-{case}"),
            ctas: rng.gen_range(4..20),
            threads_per_cta: 32 * rng.gen_range(1..5),
            regs_per_thread: rng.gen_range(8..48) as u16,
            smem_bytes: 256 * rng.gen_range(0..16),
            iters: rng.gen_range(1..3),
            loads_per_iter: rng.gen_range(1..3),
            alu_per_load: rng.gen_range(0..6),
            access,
            barrier_per_iter: rng.gen_bool(0.5),
        };
        let kernel = p.build();
        let cut = u64::from(rng.gen_range(1..64));
        for arch in Architecture::standard() {
            let cfg = small_config(arch);
            let num_sms = u64::from(cfg.core.num_sms);
            let label = format!("{} under {}", p.name, arch.label());

            let want = Session::new(cfg.clone())
                .run(RunRequest::kernel(&kernel))
                .and_then(|o| o.completed())
                .unwrap_or_else(|e| panic!("{label}: {e}"))
                .remove(0);
            assert_conserved(&want.stats, num_sms, &label);

            // Partial stats at a truncation cut already conserve, and the
            // resumed run stitches back to the uninterrupted stack.
            if want.stats.cycles <= cut {
                continue;
            }
            let mut session = Session::new(cfg.clone());
            let SessionOutcome::Truncated { truncation, .. } = session
                .run(
                    RunRequest::kernel(&kernel)
                        .with_budget(RunBudget::unlimited().with_max_cycles(cut)),
                )
                .unwrap_or_else(|e| panic!("{label} cut {cut}: {e}"))
            else {
                panic!("{label}: expected truncation at cycle {cut}");
            };
            assert_conserved(&truncation.stats, num_sms, &format!("{label} cut {cut}"));

            let ckpt = Checkpoint::parse(&truncation.checkpoint.to_text())
                .unwrap_or_else(|e| panic!("{label}: {e}"));
            let resumed = session
                .run(RunRequest::kernel(&kernel).resume_from(&ckpt))
                .and_then(|o| o.completed())
                .unwrap_or_else(|e| panic!("{label} resume: {e}"))
                .remove(0);
            assert_eq!(
                resumed.stats.cpi_stack(),
                want.stats.cpi_stack(),
                "{label}: resumed stack diverges"
            );
            assert_eq!(resumed.stats, want.stats, "{label}: resumed stats diverge");
        }
    }
}

/// Exact-integer golden CPI stacks for every suite kernel, all four
/// architectures per file (`tests/golden/cpi.<kernel>.json`). Any
/// attribution drift — a cycle moving between buckets — shows up as an
/// integer diff.
#[test]
fn suite_stacks_match_goldens() {
    let bless = std::env::var("VT_BLESS").is_ok_and(|v| !v.is_empty() && v != "0");
    for w in full_suite(&Scale::test()) {
        let mut fields = Vec::new();
        for arch in Architecture::standard() {
            let r = vt_tests::run(arch, &w.kernel);
            assert_conserved(&r.stats, 2, &format!("{} under {}", w.name, arch.label()));
            fields.push((arch.label().to_string(), r.stats.cpi_stack().to_json()));
        }
        let got = Json::object(fields).pretty();
        let path = golden_dir().join(format!("cpi.{}.json", w.name));
        if bless {
            fs::write(&path, &got).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
            continue;
        }
        let want = fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "cannot read {} ({e}); run `VT_BLESS=1 cargo test -p vt-tests \
                 --test cpi` to create it",
                path.display()
            )
        });
        assert_eq!(
            got,
            want,
            "{}: CPI stack drifted from {}",
            w.name,
            path.display()
        );
    }
}
