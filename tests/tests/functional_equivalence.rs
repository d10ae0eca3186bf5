//! Every workload of the suite must produce the exact same final memory
//! image on the cycle-level simulator — under every architecture — as on
//! the timing-free reference interpreter. This pins down the functional
//! correctness of the whole stack: ISA semantics, SIMT divergence,
//! barriers, shared memory, atomics and the CTA residency machinery.

use vt_core::{Architecture, Gpu, SchedPolicy};
use vt_isa::interp::Interpreter;
use vt_tests::{all_archs, run, small_config};
use vt_workloads::{full_suite, Scale};

#[test]
fn suite_matches_interpreter_under_every_architecture() {
    for w in full_suite(&Scale::test()) {
        let reference = Interpreter::new(&w.kernel)
            .unwrap_or_else(|e| panic!("{}: {e}", w.name))
            .run()
            .unwrap_or_else(|e| panic!("{}: {e}", w.name));
        for arch in all_archs() {
            let report = run(arch, &w.kernel);
            assert_eq!(
                report.mem_image.as_words(),
                reference.mem().as_words(),
                "{} diverged functionally under {}",
                w.name,
                arch.label()
            );
        }
    }
}

#[test]
fn instruction_counts_match_interpreter() {
    // The simulator issues exactly the dynamic instruction stream the
    // interpreter executes (same warp-level SIMT semantics).
    for w in full_suite(&Scale::test()) {
        let reference = Interpreter::new(&w.kernel).unwrap().run().unwrap();
        let report = run(vt_core::Architecture::Baseline, &w.kernel);
        assert_eq!(
            report.stats.warp_instrs,
            reference.warp_instrs(),
            "{}: warp instruction count mismatch",
            w.name
        );
        assert_eq!(
            report.stats.thread_instrs,
            reference.thread_instrs(),
            "{}: thread instruction count mismatch",
            w.name
        );
    }
}

/// Every other test runs the default two schedulers per SM. Partitions
/// of one, three and four warps-mod-n change which warp each scheduler
/// may pick (and, in debug builds, every pick is checked against the
/// full-list scan it replaces); none may change what the kernel computes.
#[test]
fn scheduler_partitions_match_interpreter() {
    let picked = ["bfs", "sgemm", "histo", "reduction", "bankstorm"];
    for w in full_suite(&Scale::test())
        .into_iter()
        .filter(|w| picked.contains(&w.name))
    {
        let reference = Interpreter::new(&w.kernel).unwrap().run().unwrap();
        for scheduler in [SchedPolicy::Lrr, SchedPolicy::Gto] {
            for schedulers_per_sm in [1, 3, 4] {
                let mut cfg = small_config(Architecture::virtual_thread());
                cfg.core.scheduler = scheduler;
                cfg.core.schedulers_per_sm = schedulers_per_sm;
                let report = Gpu::new(cfg).run(&w.kernel).unwrap();
                let what = format!("{} under {scheduler:?} x {schedulers_per_sm}", w.name);
                assert_eq!(
                    report.mem_image.as_words(),
                    reference.mem().as_words(),
                    "{what}: diverged functionally"
                );
                assert_eq!(
                    report.stats.warp_instrs,
                    reference.warp_instrs(),
                    "{what}: warp instruction count mismatch"
                );
            }
        }
    }
}

#[test]
fn ctas_all_complete() {
    for w in full_suite(&Scale::test()) {
        let report = run(vt_core::Architecture::virtual_thread(), &w.kernel);
        assert_eq!(
            report.stats.ctas_completed,
            u64::from(w.kernel.num_ctas()),
            "{}: lost CTAs",
            w.name
        );
    }
}
