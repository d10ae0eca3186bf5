//! Per-workload behavioural checks on the *timing simulator* (not just
//! the interpreter): functional outputs against CPU references, and the
//! dynamic-behaviour signatures each kernel was designed to have.

use vt_core::Architecture;
use vt_isa::interp::Interpreter;
use vt_tests::run;
use vt_workloads::kernels::{irregular, sync};
use vt_workloads::zoo::HotBinsParams;
use vt_workloads::{full_suite, suite, Scale};

fn tiny() -> Scale {
    Scale { ctas: 6, iters: 2 }
}

#[test]
fn histo_histogram_matches_cpu_reference_under_vt() {
    let s = tiny();
    let k = irregular::histo_like(&s);
    let r = run(Architecture::virtual_thread(), &k);
    let hist = r.mem_image.load_words(0, 256);
    assert_eq!(hist, irregular::histo_reference(&s).as_slice());
    assert_eq!(
        hist.iter().map(|&v| u64::from(v)).sum::<u64>(),
        6 * 128 * 2u64
    );
}

#[test]
fn reduction_total_matches_cpu_reference_under_every_arch() {
    let s = tiny();
    let k = sync::reduction_like(&s);
    for arch in Architecture::standard() {
        let r = run(arch, &k);
        assert_eq!(
            r.mem_image.load(0),
            Some(sync::reduction_reference(&s)),
            "{}",
            arch.label()
        );
    }
}

#[test]
fn hotbins_histogram_matches_cpu_reference_under_every_arch() {
    let p = HotBinsParams {
        ctas: 6,
        ..HotBinsParams::default()
    };
    let k = p.build();
    let bins = p.reference();
    for arch in Architecture::standard() {
        let r = run(arch, &k);
        assert_eq!(
            r.mem_image.load_words(0, bins.len()),
            bins.as_slice(),
            "{}",
            arch.label()
        );
    }
}

#[test]
fn barrier_kernels_actually_use_barriers() {
    for w in full_suite(&tiny()) {
        let r = run(Architecture::Baseline, &w.kernel);
        let has_bar = w.kernel.program().mix().barrier > 0;
        assert_eq!(r.stats.barriers > 0, has_bar, "{}", w.name);
    }
}

#[test]
fn divergent_kernels_report_divergence() {
    let spmv = suite(&tiny())
        .into_iter()
        .find(|w| w.name == "spmv")
        .unwrap();
    let r = run(Architecture::Baseline, &spmv.kernel);
    assert!(
        r.stats.divergent_branches > 0,
        "variable-degree rows diverge"
    );
    assert!(r.stats.max_simt_depth >= 3);
}

#[test]
fn atomic_kernels_produce_atomic_traffic() {
    let histo = suite(&tiny())
        .into_iter()
        .find(|w| w.name == "histo")
        .unwrap();
    let r = run(Architecture::Baseline, &histo.kernel);
    // The counter is per *transaction*: a warp's 32 atomics coalesce into
    // at most 8 line-granular transactions (256 bins = 8 lines), at least
    // one per warp instruction.
    let warp_atomics = 6 * (128 / 32) * 2u64;
    assert!(r.stats.mem.atomics >= warp_atomics);
    assert!(r.stats.mem.atomics <= warp_atomics * 8);
}

#[test]
fn capacity_kernels_have_zero_virtualization_effect_on_memory_traffic() {
    for name in ["sgemm", "lbm", "srad", "regstairs", "bankstorm"] {
        let w = full_suite(&tiny())
            .into_iter()
            .find(|w| w.name == name)
            .unwrap();
        let base = run(Architecture::Baseline, &w.kernel);
        let vt = run(Architecture::virtual_thread(), &w.kernel);
        assert_eq!(
            base.stats.mem, vt.stats.mem,
            "{name}: identical memory behaviour"
        );
    }
}

#[test]
fn nw_uses_single_warp_ctas() {
    let w = suite(&tiny()).into_iter().find(|w| w.name == "nw").unwrap();
    assert_eq!(w.kernel.warps_per_cta(), 1);
    let r = run(Architecture::Baseline, &w.kernel);
    // Single-warp CTAs: barriers are warp-trivial but still counted.
    assert!(r.stats.barriers > 0);
}

#[test]
fn interpreter_and_simulator_agree_on_dynamic_instruction_mix() {
    // Not just final memory: total executed work must match, per kernel.
    for w in full_suite(&tiny()) {
        let reference = Interpreter::new(&w.kernel).unwrap().run().unwrap();
        for arch in [Architecture::Baseline, Architecture::virtual_thread()] {
            let r = run(arch, &w.kernel);
            assert_eq!(
                r.stats.warp_instrs,
                reference.warp_instrs(),
                "{} under {}",
                w.name,
                arch.label()
            );
        }
    }
}

#[test]
fn scale_controls_work_linearly() {
    let small = suite(&Scale { ctas: 4, iters: 2 });
    let big = suite(&Scale { ctas: 8, iters: 2 });
    for (ws, wb) in small.iter().zip(&big) {
        let rs = Interpreter::new(&ws.kernel).unwrap().run().unwrap();
        let rb = Interpreter::new(&wb.kernel).unwrap().run().unwrap();
        assert!(
            rb.warp_instrs() > rs.warp_instrs(),
            "{}: more CTAs, more work",
            ws.name
        );
    }
}
