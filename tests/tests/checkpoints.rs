//! Golden checkpoint digests: the exact text of a checkpoint cut of four
//! suite kernels under each architecture, pinned as its cycle, length and
//! FNV-1a-64 in `tests/golden/checkpoints.txt`. The checkpoint format is
//! versioned (`CHECKPOINT_VERSION`); any change to the bytes a cut writes
//! shows up here, whether or not the run it resumes changes.
//!
//! To accept an intentional change (with a version bump), regenerate:
//!
//! ```text
//! VT_BLESS=1 cargo test -q -p vt-tests --test checkpoints
//! ```

use std::fs;
use std::path::PathBuf;
use vt_core::Architecture;
use vt_tests::checkpoints::{cut, run_cycles, swap_config};
use vt_workloads::{full_suite, Scale};

/// FNV-1a over the checkpoint text.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// One line per (kernel, architecture): the cut halfway through the run,
/// with metrics and the per-PC profile on so every part of the state is
/// in the text.
fn digests() -> String {
    let mut out = String::new();
    for w in full_suite(&Scale::test())
        .into_iter()
        .filter(|w| ["bfs", "hotspot", "nw", "sgemm"].contains(&w.name))
    {
        for arch in Architecture::standard() {
            let cfg = swap_config(&w.kernel, arch, true);
            let at = run_cycles(&cfg, &w.kernel) / 2;
            let text = cut(&cfg, &w.kernel, at).to_text();
            out.push_str(&format!(
                "{} {} cycle {at} bytes {} fnv1a {:016x}\n",
                w.name,
                arch.label(),
                text.len(),
                fnv1a(text.as_bytes())
            ));
        }
    }
    out
}

#[test]
fn checkpoint_text_matches_golden_digests() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("golden/checkpoints.txt");
    let got = digests();
    if std::env::var("VT_BLESS").is_ok_and(|v| !v.is_empty() && v != "0") {
        fs::write(&path, &got).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
        return;
    }
    let want = fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "read {}: {e} (bless with VT_BLESS=1 cargo test -p vt-tests --test checkpoints)",
            path.display()
        )
    });
    let drift: Vec<String> = got
        .lines()
        .zip(want.lines())
        .filter(|(g, w)| g != w)
        .map(|(g, w)| format!("  got  {g}\n  want {w}"))
        .collect();
    assert!(
        drift.is_empty() && got.lines().count() == want.lines().count(),
        "checkpoint text drifted from {}:\n{}",
        path.display(),
        drift.join("\n")
    );
}
