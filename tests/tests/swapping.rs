//! Golden statistics where the swap engine works: every suite kernel ×
//! architecture on `swap_config`'s geometry (2 SMs of 2 CTA slots, warp
//! slots for exactly two CTAs), where the default-geometry goldens of
//! `golden.rs` and `cpi.rs` never swap. Each run's exact-integer stats
//! and CPI stack are pinned in one file, `tests/golden/swapping.json`,
//! keyed `<kernel>.<arch>`, and every Virtual Thread and MemSwap run must
//! swap, so a geometry change cannot quietly stop pinning the swap path.
//!
//! To accept an intentional change, regenerate:
//!
//! ```text
//! VT_BLESS=1 cargo test -q -p vt-tests --test swapping
//! ```

use std::fs;
use std::path::PathBuf;
use vt_core::Architecture;
use vt_json::Json;
use vt_sim::GpuSim;
use vt_tests::checkpoints::swap_config;
use vt_tests::golden::stats_json;
use vt_workloads::{full_suite, Scale};

#[test]
fn swapping_runs_match_golden() {
    let mut entries = Vec::new();
    let mut never_swapped = Vec::new();
    for w in full_suite(&Scale::test()) {
        for arch in Architecture::standard() {
            let key = format!("{}.{}", w.name, arch.label());
            let stats = GpuSim::new(&swap_config(&w.kernel, arch, false), &w.kernel)
                .and_then(GpuSim::run)
                .unwrap_or_else(|e| panic!("{key}: {e}"))
                .stats;
            let swaps = matches!(
                arch,
                Architecture::VirtualThread(_) | Architecture::MemSwap(_)
            );
            if swaps && stats.swaps.swaps_out == 0 {
                never_swapped.push(key.clone());
            }
            entries.push((
                key,
                Json::object(vec![
                    ("stats".into(), stats_json(&stats)),
                    ("cpi".into(), stats.cpi_stack().to_json()),
                ]),
            ));
        }
    }
    assert!(
        never_swapped.is_empty(),
        "never swapped on the swapping geometry: {}",
        never_swapped.join(", ")
    );

    let got = Json::object(entries).pretty() + "\n";
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("golden/swapping.json");
    if std::env::var("VT_BLESS").is_ok_and(|v| !v.is_empty() && v != "0") {
        fs::write(&path, &got).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
        return;
    }
    let want = fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "read {}: {e} (bless with VT_BLESS=1 cargo test -p vt-tests --test swapping)",
            path.display()
        )
    });
    let drift: Vec<String> = got
        .lines()
        .zip(want.lines())
        .enumerate()
        .filter(|(_, (g, w))| g != w)
        .take(12)
        .map(|(i, (g, w))| format!("  line {}: got  {g}\n  line {}: want {w}", i + 1, i + 1))
        .collect();
    assert!(
        drift.is_empty() && got.lines().count() == want.lines().count(),
        "swapping runs drifted from {}:\n{}",
        path.display(),
        drift.join("\n")
    );
}
