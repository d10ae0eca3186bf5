//! End-to-end tests of the execution-control layer through the `Session`
//! API: budget truncation yields valid partial statistics, checkpoints
//! resume bit-identically (traced and untraced), cancellation from
//! another thread stops a run without hangs or panics, and kernel chains
//! are unaffected by a session's pool.

use std::time::Duration;
use vt_core::{
    Architecture, Checkpoint, Pool, Report, RunBudget, RunRequest, Session, SessionOutcome,
    SimError, StopReason,
};
use vt_prng::Prng;
use vt_tests::small_config;
use vt_trace::{BufSink, TimedEvent};
use vt_workloads::{full_suite, AccessPattern, Scale, SyntheticParams};

/// A latency-bound kernel that runs for a few thousand cycles — long
/// enough that every cut point in these tests lands mid-flight.
fn long_kernel() -> vt_isa::Kernel {
    SyntheticParams {
        name: "exec-ctl".to_string(),
        ctas: 24,
        access: AccessPattern::Random,
        iters: 4,
        ..SyntheticParams::default()
    }
    .build()
}

/// Runs `kernel` uninterrupted with a buffering sink, returning the
/// report and the full event stream.
fn uninterrupted(arch: Architecture, kernel: &vt_isa::Kernel) -> (Report, Vec<TimedEvent>) {
    let mut events = Vec::new();
    let mut session = Session::new(small_config(arch)).with_sink(BufSink(&mut events));
    let report = session
        .run(RunRequest::kernel(kernel))
        .and_then(|o| o.completed())
        .expect("uninterrupted run completes")
        .remove(0);
    drop(session);
    (report, events)
}

/// The tentpole contract: truncate at several cycle points, round-trip
/// the checkpoint through its text form, resume with tracing attached,
/// and require the stitched run to be bit-identical to the uninterrupted
/// one — stats, memory image and event stream.
#[test]
fn resume_is_bit_identical_across_cuts_and_worker_counts() {
    let kernel = long_kernel();
    let arch = Architecture::virtual_thread();
    let (want, want_events) = uninterrupted(arch, &kernel);
    assert!(
        want.stats.cycles > 512,
        "kernel too short ({} cycles) for the cut points below",
        want.stats.cycles
    );
    for cut in [1u64, 64, 512] {
        let mut events = Vec::new();
        let mut session = Session::new(small_config(arch)).with_sink(BufSink(&mut events));
        let label = format!("cut {cut}");
        let outcome = session
            .run(
                RunRequest::kernel(&kernel)
                    .with_budget(RunBudget::unlimited().with_max_cycles(cut)),
            )
            .expect(&label);
        let SessionOutcome::Truncated { truncation, .. } = outcome else {
            panic!("{label}: expected truncation");
        };
        assert_eq!(truncation.reason, StopReason::CycleBudget, "{label}");
        assert_eq!(truncation.stats.cycles, cut, "{label}");

        // The checkpoint must survive its own text representation.
        let ckpt = Checkpoint::parse(&truncation.checkpoint.to_text()).expect(&label);
        assert_eq!(ckpt.cycle().expect(&label), cut, "{label}");
        assert_eq!(ckpt.kernel_name().expect(&label), kernel.name(), "{label}");

        let resumed = match session
            .run(RunRequest::kernel(&kernel).resume_from(&ckpt))
            .expect(&label)
        {
            SessionOutcome::Completed(mut reports) => reports.remove(0),
            SessionOutcome::Truncated { .. } => panic!("{label}: unlimited resume truncated"),
        };
        drop(session);
        assert_eq!(resumed.stats, want.stats, "{label}: stats diverge");
        assert_eq!(
            resumed.mem_image, want.mem_image,
            "{label}: memory image diverges"
        );
        assert_eq!(
            events, want_events,
            "{label}: stitched trace diverges from uninterrupted trace"
        );
    }
}

/// Metered runs stitch too: with a metrics window enabled, the resumed
/// run's windowed series (carried inside `RunStats`, so covered by the
/// stats equality) must equal the uninterrupted run's byte-for-byte at
/// every cut point — including cuts that land mid-window and exactly on
/// a window boundary.
#[test]
fn metered_resume_stitches_series_bit_identically() {
    let kernel = long_kernel();
    let arch = Architecture::virtual_thread();
    let mut cfg = small_config(arch);
    cfg.core.metrics_window = Some(64);

    let want = Session::new(cfg.clone())
        .run(RunRequest::kernel(&kernel))
        .and_then(|o| o.completed())
        .expect("uninterrupted metered run completes")
        .remove(0);
    let want_series = want.stats.metrics().expect("metrics enabled");
    assert!(
        want_series.windows() >= 2,
        "kernel too short ({} windows) to exercise stitching",
        want_series.windows()
    );

    // Cuts: mid-window (1, 100) and exactly on a boundary (64, 128).
    for cut in [1u64, 64, 100, 128] {
        let label = format!("cut {cut}");
        let mut session = Session::new(cfg.clone());
        let SessionOutcome::Truncated { truncation, .. } = session
            .run(
                RunRequest::kernel(&kernel)
                    .with_budget(RunBudget::unlimited().with_max_cycles(cut)),
            )
            .expect(&label)
        else {
            panic!("{label}: expected truncation");
        };
        // Partial series never contain a half-sealed window: exactly
        // the boundaries strictly before the cut are sealed.
        let partial = truncation.stats.metrics().expect("metrics enabled");
        assert_eq!(
            partial.windows(),
            (cut - 1) / 64,
            "{label}: sealed windows in the partial stats"
        );

        let ckpt = Checkpoint::parse(&truncation.checkpoint.to_text()).expect(&label);
        let resumed = session
            .run(RunRequest::kernel(&kernel).resume_from(&ckpt))
            .and_then(|o| o.completed())
            .expect(&label)
            .remove(0);
        assert_eq!(
            resumed.stats, want.stats,
            "{label}: stitched stats (incl. metric series) diverge"
        );
        assert_eq!(resumed.mem_image, want.mem_image, "{label}");
    }
}

/// The resume contract over the *grown* suite: every workload — core
/// and zoo alike — truncated at a random (per-kernel, seeded) cycle cut
/// and resumed must stitch bit-identically to the uninterrupted run:
/// stats, memory image and trace stream. This is what lets long
/// zoo/trace experiments checkpoint safely.
#[test]
fn grown_suite_resumes_bit_identically_from_random_cuts() {
    let mut r = Prng::new(0x7e57);
    let arch = Architecture::virtual_thread();
    for w in full_suite(&Scale { ctas: 6, iters: 2 }) {
        let (want, want_events) = uninterrupted(arch, &w.kernel);
        assert!(want.stats.cycles > 2, "{}: too short to cut", w.name);
        let cut = u64::from(r.gen_range(1..want.stats.cycles as u32));
        let label = format!("{} cut {cut}", w.name);
        let mut events = Vec::new();
        let mut session = Session::new(small_config(arch)).with_sink(BufSink(&mut events));
        let outcome = session
            .run(
                RunRequest::kernel(&w.kernel)
                    .with_budget(RunBudget::unlimited().with_max_cycles(cut)),
            )
            .expect(&label);
        let SessionOutcome::Truncated { truncation, .. } = outcome else {
            panic!("{label}: expected truncation");
        };
        let ckpt = Checkpoint::parse(&truncation.checkpoint.to_text()).expect(&label);
        let resumed = session
            .run(RunRequest::kernel(&w.kernel).resume_from(&ckpt))
            .and_then(|o| o.completed())
            .unwrap_or_else(|e| panic!("{label}: {e}"))
            .remove(0);
        drop(session);
        assert_eq!(resumed.stats, want.stats, "{label}: stats diverge");
        assert_eq!(
            resumed.mem_image, want.mem_image,
            "{label}: memory diverges"
        );
        assert_eq!(events, want_events, "{label}: stitched trace diverges");
    }
}

/// Partial statistics keep the full-run invariants: every SM-cycle up to
/// the truncation point is either an issue cycle or exactly one idle
/// bucket, i.e. `idle.total() + issue_cycles == num_sms × cycles`.
#[test]
fn truncated_stats_satisfy_idle_identity() {
    let kernel = long_kernel();
    let cfg = small_config(Architecture::virtual_thread());
    let num_sms = u64::from(cfg.core.num_sms);
    for cut in [1u64, 10, 100, 1000] {
        let mut session =
            Session::new(cfg.clone()).with_budget(RunBudget::unlimited().with_max_cycles(cut));
        let outcome = session.run(RunRequest::kernel(&kernel)).unwrap();
        let SessionOutcome::Truncated { truncation, .. } = outcome else {
            panic!("cut {cut}: expected truncation");
        };
        let s = &truncation.stats;
        assert_eq!(s.cycles, cut);
        assert_eq!(
            s.idle.total() + s.issue_cycles,
            num_sms * s.cycles,
            "cut {cut}: idle + issue must cover every SM-cycle"
        );
    }
}

/// A wall-clock deadline also truncates (with partial stats), it just
/// does so at a host-dependent cycle.
#[test]
fn deadline_truncates_promptly() {
    let kernel = long_kernel();
    let mut session = Session::new(small_config(Architecture::virtual_thread()));
    // A zero-length deadline trips at the first boundary check.
    let outcome = session
        .run(
            RunRequest::kernel(&kernel)
                .with_budget(RunBudget::unlimited().with_deadline(Duration::from_secs(0))),
        )
        .unwrap();
    let SessionOutcome::Truncated { truncation, .. } = outcome else {
        panic!("expected deadline truncation");
    };
    assert_eq!(truncation.reason, StopReason::Deadline);
    assert!(truncation.stats.cycles >= 1, "at least one cycle ran");
}

/// Cancelling from another thread stops the run at a cycle boundary with
/// a resumable checkpoint; the resumed run still produces the correct
/// final memory image. Cancellation timing is racy by construction, so
/// a run that finishes before the cancel lands is also acceptable — the
/// assertion is "no hang, no panic, correct result either way".
#[test]
fn cancellation_race_is_safe_and_resumable() {
    let kernel = long_kernel();
    let arch = Architecture::virtual_thread();
    let want = vt_tests::run(arch, &kernel);
    let mut cancelled_at_least_once = false;
    for delay_us in [0u64, 50, 200, 1000] {
        let mut session = Session::new(small_config(arch));
        let token = session.cancel_token();
        let canceller = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_micros(delay_us));
            token.cancel();
        });
        let outcome = session.run(RunRequest::kernel(&kernel)).unwrap();
        canceller.join().unwrap();
        match outcome {
            SessionOutcome::Completed(reports) => {
                assert_eq!(reports[0].mem_image, want.mem_image);
            }
            SessionOutcome::Truncated { truncation, .. } => {
                cancelled_at_least_once = true;
                assert_eq!(truncation.reason, StopReason::Cancelled);
                assert!(truncation.stats.cycles >= 1);
                // A cancelled session stays cancelled until reset.
                session.reset_cancel();
                let resumed = session
                    .run(RunRequest::kernel(&kernel).resume_from(&truncation.checkpoint))
                    .and_then(|o| o.completed())
                    .expect("resume after cancel completes")
                    .remove(0);
                assert_eq!(resumed.stats, want.stats);
                assert_eq!(resumed.mem_image, want.mem_image);
            }
        }
    }
    assert!(
        cancelled_at_least_once,
        "no delay managed to cancel mid-run; kernel too short for this test"
    );
}

/// A pre-cancelled session truncates immediately instead of hanging.
#[test]
fn pre_cancelled_session_truncates_immediately() {
    let kernel = long_kernel();
    let mut session = Session::new(small_config(Architecture::Baseline));
    session.cancel_token().cancel();
    let outcome = session.run(RunRequest::kernel(&kernel)).unwrap();
    let SessionOutcome::Truncated { truncation, .. } = outcome else {
        panic!("expected immediate truncation");
    };
    assert_eq!(truncation.reason, StopReason::Cancelled);
    assert_eq!(truncation.stats.cycles, 1, "stops after the first cycle");
}

/// A session's pool shards `sweep` cells only: a chain run on a pooled
/// session is bit-identical to one on a pool-less session.
#[test]
fn chains_inherit_the_session_pool() {
    let kernel = long_kernel();
    let cfg = small_config(Architecture::virtual_thread());
    let chain = [&kernel, &kernel, &kernel];
    let seq = Session::new(cfg.clone())
        .run(RunRequest::kernels(&chain))
        .and_then(|o| o.completed())
        .unwrap();
    let par = Session::new(cfg)
        .with_pool(Pool::new(4))
        .run(RunRequest::kernels(&chain))
        .and_then(|o| o.completed())
        .unwrap();
    assert_eq!(seq.len(), 3);
    for (i, (s, p)) in seq.iter().zip(&par).enumerate() {
        assert_eq!(p.stats, s.stats, "launch {i}");
        assert_eq!(p.mem_image, s.mem_image, "launch {i}");
    }
}

/// Truncation surfaces as a retryable error through the
/// `SessionOutcome::completed` shortcut; real failures stay
/// non-retryable. Resume rejects a checkpoint from a different kernel.
#[test]
fn truncation_errors_are_retryable_and_checkpoints_are_validated() {
    let kernel = long_kernel();
    let mut session = Session::new(small_config(Architecture::Baseline))
        .with_budget(RunBudget::unlimited().with_max_cycles(8));
    let err = session
        .run(RunRequest::kernel(&kernel))
        .and_then(|o| o.completed())
        .unwrap_err();
    assert!(
        matches!(err, SimError::Truncated { .. }) && err.is_retryable(),
        "budget truncation must be retryable, got {err}"
    );

    // Grab a real checkpoint, then try to resume a *different* kernel
    // from it.
    let SessionOutcome::Truncated { truncation, .. } =
        session.run(RunRequest::kernel(&kernel)).unwrap()
    else {
        panic!("expected truncation")
    };
    let other = SyntheticParams {
        name: "other".to_string(),
        ctas: 4,
        ..SyntheticParams::default()
    }
    .build();
    let err = session
        .run(RunRequest::kernel(&other).resume_from(&truncation.checkpoint))
        .unwrap_err();
    assert!(
        matches!(err, SimError::Checkpoint { .. }) && !err.is_retryable(),
        "kernel mismatch must be a non-retryable checkpoint error, got {err}"
    );

    // Multi-kernel resume requests are rejected up front.
    let err = session
        .run(RunRequest::kernels(&[&kernel, &kernel]).resume_from(&truncation.checkpoint))
        .unwrap_err();
    assert!(matches!(err, SimError::Checkpoint { .. }));
}

/// Re-encoding is the identity: a checkpoint parsed, resumed and cut
/// again at once writes the text it was read from, for every suite
/// kernel under every architecture, with and without the observers,
/// at a third and at half of the run.
#[test]
fn checkpoints_reencode_to_the_same_text() {
    use vt_sim::GpuSim;
    use vt_tests::checkpoints::{cut, run_cycles, swap_config};
    let mut drift = Vec::new();
    for w in full_suite(&Scale::test()) {
        for arch in Architecture::standard() {
            let cycles = run_cycles(&swap_config(&w.kernel, arch, false), &w.kernel);
            for observed in [false, true] {
                let cfg = swap_config(&w.kernel, arch, observed);
                for at in [cycles / 3, cycles / 2] {
                    let text = cut(&cfg, &w.kernel, at).to_text();
                    let again = Checkpoint::parse(&text)
                        .and_then(|c| GpuSim::resume(&cfg, &w.kernel, &c))
                        .map(|sim| sim.checkpoint().to_text());
                    if again.as_deref() != Ok(&text) {
                        drift.push(format!(
                            "{} {} observed={observed} at {at}",
                            w.name,
                            arch.label()
                        ));
                    }
                }
            }
        }
    }
    assert!(
        drift.is_empty(),
        "re-encoding changed:\n{}",
        drift.join("\n")
    );
}
