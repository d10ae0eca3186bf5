//! Golden-stats snapshot tests: every suite kernel × architecture run is
//! serialized to exact-integer JSON and compared against the checked-in
//! snapshot in `tests/golden/`. Any change to simulator timing,
//! scheduling, the memory hierarchy or functional results shows up as a
//! readable line diff here.
//!
//! To accept intentional changes, regenerate the snapshots:
//!
//! ```text
//! VT_BLESS=1 cargo test -q -p vt-tests --test golden
//! ```

use std::fs;
use std::path::PathBuf;
use vt_core::Architecture;
use vt_tests::golden::report_json;
use vt_tests::run;
use vt_workloads::{full_suite, Scale};

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("golden")
}

/// First differing lines of two snapshots, with line numbers — enough to
/// see *which* counter drifted without opening the files.
fn line_diff(got: &str, want: &str) -> String {
    let mut out = String::new();
    let mut shown = 0;
    let (mut g, mut w) = (got.lines(), want.lines());
    let mut line = 0usize;
    loop {
        line += 1;
        match (g.next(), w.next()) {
            (None, None) => break,
            (got_l, want_l) => {
                if got_l != want_l && shown < 12 {
                    out.push_str(&format!(
                        "  line {line}: got  {}\n  line {line}: want {}\n",
                        got_l.unwrap_or("<eof>"),
                        want_l.unwrap_or("<eof>")
                    ));
                    shown += 1;
                }
            }
        }
    }
    if shown == 12 {
        out.push_str("  ... (more differences truncated)\n");
    }
    out
}

#[test]
fn stats_match_golden_snapshots() {
    let bless = std::env::var("VT_BLESS").is_ok_and(|v| !v.is_empty() && v != "0");
    let dir = golden_dir();
    if bless {
        fs::create_dir_all(&dir).expect("create golden dir");
    }

    let mut failures = Vec::new();
    for w in full_suite(&Scale::test()) {
        for arch in Architecture::standard() {
            let report = run(arch, &w.kernel);
            let got = report_json(&report).pretty() + "\n";
            let path = dir.join(format!("{}.{}.json", w.name, report.arch.label()));
            if bless {
                fs::write(&path, &got).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
                continue;
            }
            match fs::read_to_string(&path) {
                Ok(want) => {
                    if got != want {
                        failures.push(format!(
                            "{} [{}] drifted from {}:\n{}",
                            w.name,
                            report.arch.label(),
                            path.display(),
                            line_diff(&got, &want)
                        ));
                    }
                }
                Err(e) => failures.push(format!(
                    "{} [{}]: cannot read {} ({e}); run `VT_BLESS=1 cargo test -p \
                     vt-tests --test golden` to create snapshots",
                    w.name,
                    report.arch.label(),
                    path.display()
                )),
            }
        }
    }
    assert!(
        failures.is_empty(),
        "{} golden snapshot(s) drifted:\n\n{}",
        failures.len(),
        failures.join("\n")
    );
}
