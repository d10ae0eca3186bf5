//! End-to-end tests of the windowed metrics layer on real suite kernels:
//! window accounting, aggregate/per-SM consistency, checkpoint snapshot
//! round-trips, and a golden snapshot of the Prometheus exposition (the
//! exporter's wire format is a public contract).
//!
//! To accept an intentional exposition change:
//!
//! ```text
//! VT_BLESS=1 cargo test -q -p vt-tests --test metrics
//! ```

use std::fs;
use std::path::PathBuf;
use vt_core::{Architecture, GpuConfig, MetricsRegistry, Report, RunRequest, Session};
use vt_json::{FromJson, ToJson};
use vt_tests::small_config;
use vt_workloads::{suite, Scale};

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("golden")
}

fn run_metered(mut cfg: GpuConfig, kernel: &vt_isa::Kernel, window: u64) -> Report {
    cfg.core.metrics_window = Some(window);
    Session::new(cfg)
        .run(RunRequest::kernel(kernel))
        .and_then(|o| o.completed())
        .unwrap_or_else(|e| panic!("{}: {e}", kernel.name()))
        .remove(0)
}

/// Window accounting on real kernels: a completed run seals exactly the
/// boundaries strictly inside `[1, cycles]`, every series has one value
/// (or histogram) per sealed window, and per-SM issue series sum to the
/// aggregate window-by-window.
#[test]
fn series_lengths_and_aggregates_hold_across_the_suite() {
    const WINDOW: u64 = 128;
    let cfg = small_config(Architecture::virtual_thread());
    let num_sms = cfg.core.num_sms;
    for w in suite(&Scale::test()) {
        let report = run_metered(cfg.clone(), &w.kernel, WINDOW);
        let m = report.stats.metrics().expect("metrics enabled");
        let sealed = ((report.stats.cycles - 1) / WINDOW) as usize;
        assert_eq!(m.windows() as usize, sealed, "{}: sealed windows", w.name);
        assert_eq!(m.window(), WINDOW, "{}", w.name);

        let agg = m
            .get("warp_instrs", None)
            .expect("aggregate series")
            .values();
        assert_eq!(agg.len(), sealed, "{}", w.name);
        for (k, &agg_k) in agg.iter().enumerate() {
            let per_sm_sum: u64 = (0..num_sms)
                .map(|sm| {
                    m.get("warp_instrs", Some(sm))
                        .expect("per-SM series")
                        .values()[k]
                })
                .sum();
            assert_eq!(
                per_sm_sum, agg_k,
                "{}: window {k}: per-SM issues must sum to the aggregate",
                w.name
            );
        }
        // The issue-balance distribution has one histogram per window
        // with one observation per SM.
        let dist = m.get("sm_issue_balance", None).expect("dist series");
        let hists = dist.histograms();
        assert_eq!(hists.len(), sealed, "{}", w.name);
        for (k, h) in hists.iter().enumerate() {
            assert_eq!(
                h.count,
                u64::from(num_sms),
                "{}: window {k}: one observation per SM",
                w.name
            );
        }
    }
}

/// The registry snapshot (the checkpoint representation) round-trips
/// every series of a real run byte-for-byte.
#[test]
fn registry_snapshot_round_trips_a_real_run() {
    let ws = suite(&Scale::test());
    let w = ws.iter().find(|w| w.name == "kmeans").unwrap();
    let report = run_metered(small_config(Architecture::virtual_thread()), &w.kernel, 64);
    let m = report.stats.metrics().expect("metrics enabled");
    assert!(m.windows() >= 2, "kmeans is long enough for two windows");
    let restored = MetricsRegistry::from_json(&m.to_json()).expect("snapshot restores");
    assert_eq!(&restored, m, "snapshot/restore must be lossless");
    assert_eq!(restored.to_prometheus(), m.to_prometheus());
}

/// Golden snapshot of the Prometheus text exposition for one pinned run
/// (bfs, VT, 4 SMs, 256-cycle windows). The format — metric names, TYPE
/// lines, label shape, bucket boundaries — is what external scrapers
/// parse, so drift must be deliberate.
#[test]
fn prometheus_exposition_matches_golden_snapshot() {
    let bless = std::env::var("VT_BLESS").is_ok_and(|v| !v.is_empty() && v != "0");
    let ws = suite(&Scale::test());
    let w = ws.iter().find(|w| w.name == "bfs").unwrap();
    let report = run_metered(small_config(Architecture::virtual_thread()), &w.kernel, 256);
    let m = report.stats.metrics().expect("metrics enabled");
    assert!(m.windows() > 0);
    let got = m.to_prometheus();
    let path = golden_dir().join("metrics.bfs.vt.prom");
    if bless {
        fs::write(&path, &got).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
        return;
    }
    let want = fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read {} ({e}); run `VT_BLESS=1 cargo test -p vt-tests \
             --test metrics` to create it",
            path.display()
        )
    });
    assert_eq!(
        got,
        want,
        "Prometheus exposition drifted from {}",
        path.display()
    );
}
