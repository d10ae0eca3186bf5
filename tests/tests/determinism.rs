//! The simulator is a deterministic function of (configuration, kernel):
//! repeated runs must agree cycle-for-cycle, and the workload generators
//! must be reproducible.

use vt_core::{Architecture, RunRequest, Session};
use vt_tests::{run, small_config};
use vt_trace::{to_chrome_json, RingSink};
use vt_workloads::{suite, Scale, SyntheticParams};

#[test]
fn repeated_runs_are_cycle_identical() {
    for w in suite(&Scale::test()).into_iter().take(4) {
        for arch in Architecture::standard() {
            let a = run(arch, &w.kernel);
            let b = run(arch, &w.kernel);
            assert_eq!(a.stats, b.stats, "{} under {}", w.name, arch.label());
            assert_eq!(a.mem_image, b.mem_image);
        }
    }
}

#[test]
fn suite_construction_is_reproducible() {
    let a = suite(&Scale::test());
    let b = suite(&Scale::test());
    for (wa, wb) in a.iter().zip(&b) {
        assert_eq!(wa.kernel, wb.kernel, "{}", wa.name);
    }
}

#[test]
fn synthetic_generator_is_reproducible() {
    let p = SyntheticParams {
        ctas: 6,
        ..SyntheticParams::latency_bound()
    };
    assert_eq!(p.build(), p.build());
}

#[test]
fn traced_replays_are_byte_identical() {
    // Tracing rides on the same deterministic clock as the stats: two
    // traced runs of the same (config, kernel) must agree on every event
    // and on the exported Chrome-trace JSON, byte for byte.
    let ws = suite(&Scale::test());
    for w in ws.iter().take(2) {
        for arch in Architecture::standard() {
            let mut runs = (0..2).map(|_| {
                let mut session =
                    Session::new(small_config(arch)).with_sink(RingSink::new(1 << 22));
                let report = session
                    .run(RunRequest::kernel(&w.kernel))
                    .and_then(|o| o.completed())
                    .expect("traced run succeeds")
                    .remove(0);
                let sink = session.into_sink();
                assert_eq!(sink.dropped(), 0);
                (report, sink.into_events())
            });
            let (ra, ea) = runs.next().unwrap();
            let (rb, eb) = runs.next().unwrap();
            assert_eq!(ra.stats, rb.stats, "{} under {}", w.name, arch.label());
            assert_eq!(ea, eb, "{} under {}", w.name, arch.label());
            assert_eq!(
                to_chrome_json(&ea).compact().into_bytes(),
                to_chrome_json(&eb).compact().into_bytes(),
                "{} under {}",
                w.name,
                arch.label()
            );
        }
    }
}

#[test]
fn stats_are_independent_of_prior_runs() {
    // Running kernel A must not perturb a later run of kernel B.
    let ws = suite(&Scale::test());
    let fresh = run(vt_core::Architecture::Baseline, &ws[1].kernel);
    let _warmup = run(vt_core::Architecture::Baseline, &ws[0].kernel);
    let after = run(vt_core::Architecture::Baseline, &ws[1].kernel);
    assert_eq!(fresh.stats, after.stats);
}
