//! End-to-end observability: traced runs produce structurally valid
//! event streams for every architecture, observation (tracing *and*
//! windowed metrics) never perturbs the simulation, the metric series
//! agree with the event stream, and the Chrome-trace export is well
//! formed.

use vt_core::{Architecture, Report, RunRequest, Session};
use vt_isa::Kernel;
use vt_sim::{GpuSim, RunBudget, RunResult, SimConfig};
use vt_tests::checkpoints::swap_config;
use vt_tests::{run, small_config};
use vt_trace::{
    to_chrome_json, to_chrome_json_with, validate, validate_metrics, NullSink, RingSink, SwapDir,
    TimedEvent, TraceEvent, TraceSink,
};
use vt_workloads::{full_suite, suite, AccessPattern, Scale, SyntheticParams};

fn run_traced(arch: Architecture, kernel: &Kernel) -> (Report, Vec<TimedEvent>) {
    let mut session = Session::new(small_config(arch)).with_sink(RingSink::new(1 << 22));
    let report = session
        .run(RunRequest::kernel(kernel))
        .and_then(|o| o.completed())
        .unwrap_or_else(|e| panic!("{} under {}: {e}", kernel.name(), arch.label()))
        .remove(0);
    let sink = session.into_sink();
    assert_eq!(sink.dropped(), 0, "ring large enough for test-scale runs");
    (report, sink.into_events())
}

fn latency_bound() -> Kernel {
    SyntheticParams {
        ctas: 64,
        access: AccessPattern::Random,
        alu_per_load: 1,
        ..SyntheticParams::default()
    }
    .build()
}

#[test]
fn traces_validate_across_suite_and_architectures() {
    for w in suite(&Scale::test()) {
        let (_, events) = run_traced(Architecture::virtual_thread(), &w.kernel);
        assert!(!events.is_empty(), "{}", w.name);
        if let Err(issues) = validate(&events) {
            panic!("{}: {}", w.name, issues.join("; "));
        }
    }
    let k = latency_bound();
    for arch in Architecture::standard() {
        let (_, events) = run_traced(arch, &k);
        if let Err(issues) = validate(&events) {
            panic!("{}: {}", arch.label(), issues.join("; "));
        }
    }
}

#[test]
fn tracing_does_not_perturb_the_simulation() {
    let ws = suite(&Scale::test());
    for w in ws.iter().take(4) {
        for arch in Architecture::standard() {
            let untraced = run(arch, &w.kernel);
            let (traced, _) = run_traced(arch, &w.kernel);
            assert_eq!(
                untraced.stats,
                traced.stats,
                "{} under {}",
                w.name,
                arch.label()
            );
            assert_eq!(untraced.mem_image, traced.mem_image);
        }
    }
}

fn run_observed<S: TraceSink>(cfg: &SimConfig, kernel: &Kernel, sink: &mut S) -> RunResult {
    GpuSim::new(cfg, kernel)
        .and_then(|sim| sim.execute(None, sink, &RunBudget::unlimited(), None))
        .and_then(|o| o.completed())
        .unwrap_or_else(|e| panic!("{}: {e}", kernel.name()))
}

/// The three observers in every combination — a trace sink (none or a
/// ring), the metrics window (off or 64 cycles) and the per-PC profile
/// (off or on) — on the geometry where VT swaps. No combination changes
/// the image or any statistic but the observers' own `series` and
/// `hotspots`, and those two are the same with and without a sink.
#[test]
fn observers_never_perturb_in_any_combination() {
    for w in full_suite(&Scale::test())
        .into_iter()
        .filter(|w| ["bfs", "hotspot", "nw", "sgemm"].contains(&w.name))
    {
        for arch in Architecture::standard() {
            let label = format!("{} under {}", w.name, arch.label());
            let plain_cfg = swap_config(&w.kernel, arch, false);
            let plain = run_observed(&plain_cfg, &w.kernel, &mut NullSink);
            for (metrics, profile) in [
                (None, false),
                (Some(64), false),
                (None, true),
                (Some(64), true),
            ] {
                let mut cfg = plain_cfg.clone();
                cfg.core.metrics_window = metrics;
                cfg.core.profile = profile;
                let mut untraced = run_observed(&cfg, &w.kernel, &mut NullSink);
                let mut ring = RingSink::new(1 << 22);
                let mut traced = run_observed(&cfg, &w.kernel, &mut ring);
                assert!(!ring.is_empty() && ring.dropped() == 0, "{label}: ring");
                let what = format!("{label}, metrics {metrics:?}, profile {profile}");
                assert_eq!(untraced.stats.series, traced.stats.series, "{what}: series");
                assert_eq!(
                    untraced.stats.hotspots, traced.stats.hotspots,
                    "{what}: profile"
                );
                assert_eq!(untraced.stats.series.is_some(), metrics.is_some(), "{what}");
                assert_eq!(untraced.stats.hotspots.is_some(), profile, "{what}");
                for run in [&mut untraced, &mut traced] {
                    run.stats.series = None;
                    run.stats.hotspots = None;
                    assert_eq!(run.stats, plain.stats, "{what}: stats perturbed");
                    assert_eq!(run.mem_image, plain.mem_image, "{what}: image perturbed");
                }
            }
        }
    }
}

/// Enabling metrics must not change a single counter, cycle or memory
/// word: the metered run's stats (with the series field cleared) equal
/// the unmetered run's exactly.
#[test]
fn metrics_do_not_perturb_the_simulation() {
    let ws = suite(&Scale::test());
    for w in ws.iter().take(4) {
        for arch in Architecture::standard() {
            let unmetered = run(arch, &w.kernel);
            let mut cfg = small_config(arch);
            cfg.core.metrics_window = Some(128);
            let mut metered = Session::new(cfg)
                .run(RunRequest::kernel(&w.kernel))
                .and_then(|o| o.completed())
                .unwrap_or_else(|e| panic!("{} under {}: {e}", w.name, arch.label()))
                .remove(0);
            let series = metered.stats.series.take().expect("metrics enabled");
            assert_eq!(
                series.windows(),
                (metered.stats.cycles - 1) / 128,
                "{} under {}: sealed window count",
                w.name,
                arch.label()
            );
            assert_eq!(
                unmetered.stats,
                metered.stats,
                "{} under {}",
                w.name,
                arch.label()
            );
            assert_eq!(unmetered.mem_image, metered.mem_image);
        }
    }
}

/// On a run that is traced *and* metered, the windowed series must agree
/// with the event stream window-by-window (issue counts, distinct issue
/// cycles, swap traffic) — the two observability layers cross-validate.
#[test]
fn metric_series_agree_with_the_event_stream() {
    let k = latency_bound();
    for arch in [Architecture::Baseline, Architecture::virtual_thread()] {
        let mut cfg = small_config(arch);
        cfg.core.metrics_window = Some(64);
        let mut session = Session::new(cfg).with_sink(RingSink::new(1 << 22));
        let report = session
            .run(RunRequest::kernel(&k))
            .and_then(|o| o.completed())
            .unwrap_or_else(|e| panic!("{}: {e}", arch.label()))
            .remove(0);
        let sink = session.into_sink();
        assert_eq!(sink.dropped(), 0);
        let events = sink.into_events();
        let m = report.stats.metrics().expect("metrics enabled");
        assert!(m.windows() >= 2, "{}: run too short", arch.label());
        if let Err(issues) = validate_metrics(&events, m) {
            panic!("{}: {}", arch.label(), issues.join("; "));
        }
    }
}

#[test]
fn vt_traces_carry_the_swap_protocol() {
    let k = latency_bound();
    let (report, events) = run_traced(Architecture::virtual_thread(), &k);
    assert!(report.stats.swaps.swaps_out > 0, "kernel must swap");

    let count = |f: &dyn Fn(&TraceEvent) -> bool| events.iter().filter(|e| f(&e.ev)).count() as u64;
    let swap_out_begins = count(&|ev| {
        matches!(
            ev,
            TraceEvent::SwapBegin {
                dir: SwapDir::Out,
                ..
            }
        )
    });
    let swap_out_ends = count(&|ev| {
        matches!(
            ev,
            TraceEvent::SwapEnd {
                dir: SwapDir::Out,
                ..
            }
        )
    });
    assert_eq!(swap_out_begins, report.stats.swaps.swaps_out);
    assert_eq!(swap_out_ends, swap_out_begins, "every save completes");

    let fresh_ins = count(&|ev| matches!(ev, TraceEvent::SwapBegin { fresh: true, .. }));
    let restore_ins = count(&|ev| {
        matches!(
            ev,
            TraceEvent::SwapBegin {
                dir: SwapDir::In,
                fresh: false,
                ..
            }
        )
    });
    assert_eq!(fresh_ins, report.stats.swaps.fresh_activations);
    assert_eq!(restore_ins, report.stats.swaps.swaps_in);

    let launches = count(&|ev| matches!(ev, TraceEvent::CtaLaunch { .. }));
    let completes = count(&|ev| matches!(ev, TraceEvent::CtaComplete { .. }));
    assert_eq!(launches, report.stats.ctas_completed);
    assert_eq!(completes, launches);

    // Swap-gap samples are one per restore; durations cover saves and
    // restores.
    assert_eq!(report.stats.swap_gap.count, report.stats.swaps.swaps_in);
    assert_eq!(
        report.stats.swap_duration.count,
        report.stats.swaps.swaps_in + report.stats.swaps.swaps_out
    );
}

#[test]
fn memory_spans_balance_and_match_counters() {
    let k = latency_bound();
    let (report, events) = run_traced(Architecture::Baseline, &k);
    let begins = events
        .iter()
        .filter(|e| matches!(e.ev, TraceEvent::MemBegin { .. }))
        .count() as u64;
    let ends = events
        .iter()
        .filter(|e| matches!(e.ev, TraceEvent::MemEnd { .. }))
        .count() as u64;
    assert!(begins > 0);
    assert_eq!(begins, ends, "every request span is closed");

    let s = &report.stats.mem;
    // The load-latency histogram is the same population the legacy
    // counters track.
    assert_eq!(s.load_latency.count, s.loads_completed);
    assert_eq!(s.load_latency.sum, s.load_latency_sum);
    assert!(s.mshr_occupancy.samples > 0);
    assert!(report.stats.ldst_queue.samples > 0);
}

#[test]
fn chrome_export_is_perfetto_shaped() {
    let ws = suite(&Scale::test());
    let w = ws.iter().find(|w| w.name == "reduction").unwrap();
    let (report, events) = run_traced(Architecture::virtual_thread(), &w.kernel);
    let json = to_chrome_json(&events).compact();
    assert!(json.starts_with("{\"traceEvents\":["));
    assert!(json.contains("\"process_name\""), "SM process metadata");
    assert!(json.contains("\"thread_name\""), "track metadata");
    assert!(json.contains("\"ph\":\"B\"") && json.contains("\"ph\":\"E\""));
    assert!(json.contains("\"ph\":\"b\""), "async memory spans");
    assert!(
        json.contains("barrier-wait"),
        "reduction executes barriers so the trace has barrier spans"
    );
    assert!(report.stats.barriers > 0);
}

/// With a metered run, the Chrome export additionally carries the
/// windowed series as Perfetto counter tracks.
#[test]
fn chrome_export_renders_metric_counter_tracks() {
    let k = latency_bound();
    let mut cfg = small_config(Architecture::virtual_thread());
    cfg.core.metrics_window = Some(64);
    let mut session = Session::new(cfg).with_sink(RingSink::new(1 << 22));
    let report = session
        .run(RunRequest::kernel(&k))
        .and_then(|o| o.completed())
        .expect("run completes")
        .remove(0);
    let events = session.into_sink().into_events();
    let m = report.stats.metrics().expect("metrics enabled");
    assert!(m.windows() > 0);
    let json = to_chrome_json_with(&events, Some(m)).compact();
    assert!(json.contains("\"ph\":\"C\""), "counter events present");
    assert!(json.contains("vt_resident_warps"), "level series track");
    assert!(json.contains("vt_warp_instrs"), "rate series track");
    // Without a registry the export equals the plain form.
    assert_eq!(
        to_chrome_json_with(&events, None).compact(),
        to_chrome_json(&events).compact()
    );
}
