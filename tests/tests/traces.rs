//! The trace frontend end-to-end: the committed corpus parses, lowers,
//! lints clean and replays bit-identically to its recorded fingerprints;
//! the corrupt corpus is rejected with a
//! `TraceError` (never a panic); and fuzz-style truncation/mutation of
//! valid sources can never panic the parser or the lowerer.

use std::path::{Path, PathBuf};
use vt_analysis::{analyze, Severity};
use vt_core::{Architecture, GpuConfig, Report, RunRequest, Session};
use vt_isa::interp::Interpreter;
use vt_json::Json;
use vt_prng::Prng;
use vt_traces::{parse_file, parse_str, Trace};

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..")
}

fn corpus(dir: &str) -> Vec<(String, PathBuf)> {
    let mut files: Vec<(String, PathBuf)> = std::fs::read_dir(repo_root().join(dir))
        .unwrap_or_else(|e| panic!("{dir}: {e}"))
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "trace"))
        .map(|p| (p.file_name().unwrap().to_string_lossy().into_owned(), p))
        .collect();
    files.sort();
    files
}

fn load(path: &Path) -> Trace {
    parse_file(path.to_str().unwrap()).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn valid_corpus_parses_lowers_and_lints_clean() {
    let files = corpus("traces");
    assert!(files.len() >= 3, "corpus shrank: {files:?}");
    for (name, path) in &files {
        let trace = load(path);
        let kernel = trace.lower().unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(kernel.name(), trace.name, "{name}");
        assert_eq!(kernel.num_ctas(), trace.grid, "{name}");
        assert_eq!(kernel.threads_per_cta(), trace.block, "{name}");
        let errors: Vec<_> = analyze(&kernel)
            .diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .cloned()
            .collect();
        assert!(
            errors.is_empty(),
            "{name}: lowered kernel lints dirty: {errors:?}"
        );
    }
}

/// The replay program is pure data-driven lock-step code, so the
/// functional image must agree between the reference interpreter and
/// the timing simulator under every architecture. (The corpus is
/// race-free by construction; see tools/gen_traces.py.)
#[test]
fn corpus_replay_is_functionally_identical_across_archs() {
    for (name, path) in corpus("traces") {
        let kernel = load(&path).lower().unwrap();
        let reference = Interpreter::new(&kernel).unwrap().run().unwrap();
        for arch in Architecture::standard() {
            let report = vt_tests::run(arch, &kernel);
            assert_eq!(
                report.mem_image.as_words(),
                reference.mem().as_words(),
                "{name} under {}",
                arch.label()
            );
        }
    }
}

#[test]
fn corrupt_corpus_is_rejected_never_panics() {
    let files = corpus("traces/corrupt");
    assert!(files.len() >= 15, "corrupt corpus shrank: {files:?}");
    for (name, path) in &files {
        let err = parse_file(path.to_str().unwrap())
            .and_then(|t| t.lower())
            .expect_err(&format!("{name}: corrupt trace was accepted"));
        // Every rejection renders a diagnostic.
        assert!(!err.to_string().is_empty(), "{name}");
    }
}

/// Chopping a valid trace at any byte offset must yield `Ok` or a
/// `TraceError` — never a panic — through both parse and lower.
#[test]
fn truncation_fuzz_never_panics() {
    for (name, path) in corpus("traces") {
        let text = std::fs::read_to_string(&path).unwrap();
        let mut rejected = 0usize;
        for cut in (0..text.len()).step_by(3) {
            let prefix = &text[..cut];
            match parse_str(prefix) {
                Ok(t) => {
                    let _ = t.lower();
                }
                Err(_) => rejected += 1,
            }
        }
        assert!(rejected > 0, "{name}: no truncation was ever rejected");
    }
}

/// Random byte mutations of a valid source (bit flips, garbage bytes,
/// token swaps) must never panic the pipeline.
#[test]
fn mutation_fuzz_never_panics() {
    let sources: Vec<String> = corpus("traces")
        .iter()
        .map(|(_, p)| std::fs::read_to_string(p).unwrap())
        .collect();
    let mut r = Prng::new(0xf022);
    for case in 0..300 {
        let base = &sources[r.gen_range_usize(0..sources.len())];
        let mut bytes = base.clone().into_bytes();
        for _ in 0..r.gen_range(1..8) {
            let at = r.gen_range_usize(0..bytes.len());
            bytes[at] = match r.gen_range(0..4) {
                0 => b'\n',
                1 => (r.next_u32() & 0x7f) as u8,
                2 => b'f',
                _ => (r.next_u32() & 0xff) as u8,
            };
        }
        let mutated = String::from_utf8_lossy(&bytes).into_owned();
        if let Ok(t) = parse_str(&mutated) {
            let _ = t.lower(); // either outcome is fine; panicking is not
        }
        // Also splice whole-line deletions/duplications.
        if case % 3 == 0 {
            let lines: Vec<&str> = base.lines().collect();
            let at = r.gen_range_usize(0..lines.len());
            let mut spliced: Vec<&str> = lines.clone();
            if r.gen_bool(0.5) {
                spliced.remove(at);
            } else {
                spliced.insert(at, lines[at]);
            }
            if let Ok(t) = parse_str(&spliced.join("\n")) {
                let _ = t.lower();
            }
        }
    }
}

/// FNV-1a over the final memory image — must match `vttrace --run`'s
/// `mem_fnv` field (same algorithm in crates/bench/src/bin/vttrace.rs).
fn mem_digest(report: &Report) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &w in report.mem_image.as_words() {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}

/// Round-trip gate: replaying the committed corpus under the pinned
/// configuration reproduces the committed fingerprints exactly. A
/// mismatch means the simulator's timing or functional behaviour drifted
/// (re-record with `vttrace --run --json` only when that is intended).
#[test]
fn committed_fingerprints_reproduce() {
    let text = std::fs::read_to_string(repo_root().join("traces/fingerprints.json")).unwrap();
    let json = Json::parse(&text).unwrap();
    assert_eq!(
        json.get("config")
            .and_then(|c| c.get("arch"))
            .and_then(Json::as_str),
        Some("vt")
    );
    let sms = json
        .get("config")
        .and_then(|c| c.get("sms"))
        .and_then(Json::as_u64)
        .unwrap() as u32;
    let Some(Json::Object(entries)) = json.get("traces") else {
        panic!("fingerprints.json has no traces object");
    };
    assert!(entries.len() >= 3);
    for (rel, fp) in entries {
        let kernel = load(&repo_root().join(rel)).lower().unwrap();
        let want = |k: &str| fp.get(k).and_then(Json::as_u64).unwrap();
        let mut cfg = GpuConfig::with_arch(Architecture::virtual_thread());
        cfg.core.num_sms = sms;
        let report = Session::new(cfg)
            .run(RunRequest::kernel(&kernel))
            .and_then(|o| o.completed())
            .unwrap_or_else(|e| panic!("{rel}: {e}"))
            .remove(0);
        assert_eq!(report.stats.cycles, want("cycles"), "{rel}");
        assert_eq!(report.stats.warp_instrs, want("warp_instrs"), "{rel}");
        assert_eq!(report.stats.thread_instrs, want("thread_instrs"), "{rel}");
        assert_eq!(report.stats.barriers, want("barriers"), "{rel}");
        let fnv = fp.get("mem_fnv").and_then(Json::as_str).unwrap();
        assert_eq!(
            format!("{:016x}", mem_digest(&report)),
            fnv,
            "{rel}: functional image drifted"
        );
    }
}
