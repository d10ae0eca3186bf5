//! Exit-code contract tests for the six vt-bench binaries.
//!
//! The shared contract (implemented by `vt_bench::cli`, documented in
//! each binary's module docs):
//!
//! * exit 0 — success (including `--help`);
//! * exit 1 — the tool ran and reported a finding (`--check` rejection,
//!   `--assert-zero` violation, validation failure);
//! * exit 2 — usage, I/O or simulation problems.
//!
//! `vtsweep` additionally exits 130 when interrupted, which is not
//! exercised here (it needs a live SIGINT).

use std::path::PathBuf;
use std::process::{Command, Output};
use vt_bench::cpi::CpiRecord;
use vt_bench::hotspot::{PcEntry, ProfileRecord};

fn run(bin: &str, args: &[&str]) -> Output {
    let exe = match bin {
        "vtprof" => env!("CARGO_BIN_EXE_vtprof"),
        "vtdiff" => env!("CARGO_BIN_EXE_vtdiff"),
        "vtbench" => env!("CARGO_BIN_EXE_vtbench"),
        "vtsweep" => env!("CARGO_BIN_EXE_vtsweep"),
        "vttrace" => env!("CARGO_BIN_EXE_vttrace"),
        "vtfig" => env!("CARGO_BIN_EXE_vtfig"),
        other => panic!("unknown binary {other}"),
    };
    Command::new(exe)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("spawn {bin}: {e}"))
}

fn code(out: &Output) -> i32 {
    out.status.code().expect("binary terminated by signal")
}

const ALL_BINS: [&str; 6] = ["vtprof", "vtdiff", "vtbench", "vtsweep", "vttrace", "vtfig"];

/// `--help` prints usage on stdout and exits 0, for every binary.
#[test]
fn help_exits_zero_everywhere() {
    for bin in ALL_BINS {
        let out = run(bin, &["--help"]);
        assert_eq!(code(&out), 0, "{bin} --help");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains("usage:"), "{bin}: no usage text:\n{stdout}");
    }
}

/// An unknown flag is a usage error (exit 2) with the usage text on
/// stderr, for every binary.
#[test]
fn unknown_flags_exit_two_everywhere() {
    for bin in ALL_BINS {
        let out = run(bin, &["--definitely-not-a-flag"]);
        assert_eq!(code(&out), 2, "{bin} --definitely-not-a-flag");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(bin) && stderr.contains("usage:"),
            "{bin}: diagnostic must name the tool and repeat usage:\n{stderr}"
        );
    }
}

/// Cheap per-binary usage/I-O error paths beyond the unknown-flag case.
#[test]
fn io_and_validation_problems_exit_two() {
    // Unknown kernel selections.
    let out = run("vtprof", &["no-such-kernel"]);
    assert_eq!(code(&out), 2, "vtprof unknown kernel");
    let out = run("vtsweep", &["no-such-kernel"]);
    assert_eq!(code(&out), 2, "vtsweep unknown kernel");

    // vtsweep's checkpoint/resume shape validation fires before any
    // simulation work.
    let out = run("vtsweep", &["--checkpoint", "/tmp/x.ckpt"]);
    assert_eq!(code(&out), 2, "vtsweep --checkpoint needs one kernel/arch");

    // Missing input files.
    let out = run("vtdiff", &["/nonexistent/a.json", "/nonexistent/b.json"]);
    assert_eq!(code(&out), 2, "vtdiff missing records");
    let out = run("vttrace", &["--run", "/nonexistent/x.trace"]);
    assert_eq!(code(&out), 2, "vttrace missing trace");

    // vtbench rejects a fig-bin directory that does not exist only via
    // env; its remaining cheap error is a malformed flag value.
    let out = run("vtbench", &["--sms", "zero"]);
    assert_eq!(code(&out), 2, "vtbench bad --sms value");
}

/// A checkpoint survives a file: a budgeted `vtsweep` cell written with
/// `--checkpoint` and continued with `--resume` ends with the stats of
/// the unbudgeted run, and a checkpoint of another format version is a
/// usage problem (exit 2) that names both versions.
#[test]
fn vtsweep_checkpoint_round_trips_through_a_file() {
    let cell = ["spmv", "--arch", "vt", "--sms", "2", "--json"];
    let path = fixture("spmv.ckpt", "");
    let file = path.to_str().expect("UTF-8 temp path");
    let stats = |out: &Output| {
        assert_eq!(code(out), 0, "{}", String::from_utf8_lossy(&out.stderr));
        vt_json::Json::parse(&String::from_utf8_lossy(&out.stdout)).expect("--json output")
    };
    let cut = run(
        "vtsweep",
        &[&cell[..], &["--budget", "2000", "--checkpoint", file]].concat(),
    );
    let truncated = stats(&cut);
    assert!(
        truncated
            .as_array()
            .and_then(|a| a.first()?.get("truncated")?.as_bool())
            == Some(true),
        "the budget must cut the cell: {truncated:?}"
    );
    let resumed = stats(&run("vtsweep", &[&cell[..], &["--resume", file]].concat()));
    let full = stats(&run("vtsweep", &cell));
    assert_eq!(
        resumed, full,
        "resumed cell differs from the unbudgeted run"
    );

    let text = std::fs::read_to_string(&path).expect("checkpoint written");
    assert!(text.starts_with("{\"version\":6,"), "{}", &text[..40]);
    std::fs::write(
        &path,
        text.replacen("{\"version\":6,", "{\"version\":5,", 1),
    )
    .unwrap();
    let out = run("vtsweep", &[&cell[..], &["--resume", file]].concat());
    assert_eq!(code(&out), 2, "a version 5 checkpoint must be refused");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unsupported checkpoint version 5 (expected 6)"),
        "{stderr}"
    );
    let _ = std::fs::remove_file(&path);
}

/// A record nested far deeper than any the workspace writes is a parse
/// error (exit 2), not a stack overflow (SIGABRT, exit 134).
#[test]
fn vtdiff_rejects_deeply_nested_json() {
    let deep = fixture("deep.json", &"[".repeat(200_000));
    let path = deep.to_str().unwrap();
    let out = run("vtdiff", &[path, path]);
    assert_eq!(code(&out), 2, "{}", String::from_utf8_lossy(&out.stderr));
    std::fs::remove_file(deep).ok();
}

/// `vtfig` refuses unknown experiment names and misspelled options
/// instead of running anything, and writes exactly the records asked for.
#[test]
fn vtfig_runs_exactly_what_is_named() {
    for args in [&["nosuch"][..], &["--quik"][..]] {
        let out = run("vtfig", args);
        assert_eq!(code(&out), 2, "vtfig {args:?}");
    }

    let dir = std::env::temp_dir().join(format!("vt-cli-{}-vtfig", std::process::id()));
    let out = run(
        "vtfig",
        &[
            "tab01_config",
            "tab03_overhead",
            "--out",
            dir.to_str().unwrap(),
        ],
    );
    assert_eq!(code(&out), 0, "{}", String::from_utf8_lossy(&out.stderr));
    let mut written: Vec<_> = std::fs::read_dir(&dir)
        .expect("--out directory created")
        .map(|e| e.expect("dir entry").file_name().into_string().unwrap())
        .collect();
    written.sort();
    assert_eq!(written, ["tab01_config.json", "tab03_overhead.json"]);
    std::fs::remove_dir_all(dir).ok();
}

/// The documented `./run_experiments.sh` must be executable as committed.
#[test]
fn run_experiments_script_is_executable() {
    use std::os::unix::fs::PermissionsExt;
    let script = concat!(env!("CARGO_MANIFEST_DIR"), "/../../run_experiments.sh");
    let mode = std::fs::metadata(script)
        .expect("script exists")
        .permissions()
        .mode();
    assert_ne!(
        mode & 0o100,
        0,
        "run_experiments.sh lacks the owner-execute bit"
    );
}

/// The selectors of the removed per-cycle SM-parallel engine are unknown
/// options now, and `--threads` cannot change a budgeted cell's record.
#[test]
fn no_option_selects_a_parallel_engine() {
    for (bin, args) in [
        ("vtsweep", &["--engine", "sm"][..]),
        ("vttrace", &["--run", "x.trace", "--threads", "2"][..]),
    ] {
        let out = run(bin, args);
        assert_eq!(code(&out), 2, "{bin} {args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("unknown"), "{bin} {args:?}:\n{stderr}");
    }

    let record = |threads: &str| {
        let out = run(
            "vtsweep",
            &[
                "spmv",
                "--arch",
                "vt",
                "--sms",
                "2",
                "--budget",
                "2000",
                "--json",
                "--threads",
                threads,
            ],
        );
        assert_eq!(code(&out), 0, "{}", String::from_utf8_lossy(&out.stderr));
        String::from_utf8(out.stdout).expect("JSON is UTF-8")
    };
    let one = record("1");
    assert!(one.contains("\"truncated\": true"), "{one}");
    assert_eq!(record("2"), one);
}

/// `vttrace --check` on a rejected file is a finding: exit 1, with a
/// per-file diagnostic rather than a crash.
#[test]
fn vttrace_check_rejection_is_a_finding() {
    let bad = fixture("garbage.trace", "this is not a trace\n");
    let out = run("vttrace", &["--check", bad.to_str().unwrap()]);
    assert_eq!(code(&out), 1, "rejected trace must exit 1");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("REJECTED"), "{stdout}");
    std::fs::remove_file(bad).ok();
}

/// `vtprof --list` succeeds without running any simulation.
#[test]
fn vtprof_list_exits_zero() {
    let out = run("vtprof", &["--list"]);
    assert_eq!(code(&out), 0);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("bfs"), "{stdout}");
}

fn fixture(name: &str, contents: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("vt-cli-{}-{name}", std::process::id()));
    std::fs::write(&path, contents).expect("write fixture");
    path
}

/// A tiny conserving profile record: 2 PCs, memory stalls only, one
/// unattributed memory cycle.
fn toy_record(ld_issued: u64, ld_stall: u64) -> ProfileRecord {
    let entry = |pc: usize, op: &str, issued: u64, mem_stall: u64| PcEntry {
        pc,
        op: op.to_string(),
        issued,
        warp_issues: issued,
        thread_instrs: issued * 32,
        stalls: [mem_stall, 0, 0, 0, 0],
        mem: None,
        coalesce: None,
        smem: None,
        branches: 0,
        divergent: 0,
    };
    let pcs = vec![
        entry(0, "ld.g r1, [r0+0]", ld_issued, ld_stall),
        entry(1, "exit", 4, 0),
    ];
    let unattributed = [1, 0, 0, 0, 0];
    let cpi = CpiRecord {
        buckets: [ld_issued + 4, ld_stall + 1, 0, 0, 0, 0, 0, 0, 2],
    };
    let rec = ProfileRecord {
        kernel: "toy".to_string(),
        arch: "vt".to_string(),
        cycles: cpi.total() / 2,
        thread_instrs: (ld_issued + 4) * 32,
        cpi,
        pcs,
        unattributed,
    };
    rec.check_conservation().expect("toy record conserves");
    rec
}

/// `vtdiff --pc` exits 0 on identical records, and `--assert-zero`
/// turns any per-PC delta into a finding (exit 1).
#[test]
fn vtdiff_pc_assert_zero_contract() {
    let old = fixture("old.hotspots.json", &toy_record(10, 3).to_json().pretty());
    let new = fixture("new.hotspots.json", &toy_record(14, 9).to_json().pretty());
    let old_path = old.to_str().unwrap();
    let new_path = new.to_str().unwrap();

    let out = run("vtdiff", &["--pc", old_path, old_path, "--assert-zero"]);
    assert_eq!(
        code(&out),
        0,
        "identical records: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    let out = run("vtdiff", &["--pc", old_path, new_path]);
    assert_eq!(code(&out), 0, "reporting deltas alone is not a finding");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("ld.g"), "{stdout}");

    let out = run("vtdiff", &["--pc", old_path, new_path, "--assert-zero"]);
    assert_eq!(code(&out), 1, "--assert-zero with deltas must exit 1");

    std::fs::remove_file(old).ok();
    std::fs::remove_file(new).ok();
}
