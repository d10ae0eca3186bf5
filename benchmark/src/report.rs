//! Output: the lines and files one workload's run leaves, the merged
//! files of a run over all six, and `--compare` between two of those.

use crate::metrics::Metric;
use crate::runner::{Opts, Outcome};
use crate::span;
use crate::spec;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use vt_json::{req, req_array, req_f64, req_str, Json};

/// Where every file the benchmark writes goes, relative to the
/// repository root it is run from.
pub const OUT_DIR: &str = "benchmark/out";

fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::object(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

/// What was measured on what: recorded at the top of every output.
fn header(opts: &Opts, o: &Outcome) -> Json {
    let env = |k: &str| Json::Str(std::env::var(k).unwrap_or_else(|_| "unknown".into()));
    let kind = spec::workload(&opts.workload).map(|w| w.kind);
    obj(vec![
        ("commit", env("VT_PERF_COMMIT")),
        ("rustc", env("VT_PERF_RUSTC")),
        (
            "nproc",
            Json::UInt(std::thread::available_parallelism().map_or(0, |n| n.get() as u64)),
        ),
        (
            "workers",
            Json::UInt(kind.map_or(0, |k| spec::workers(k) as u64)),
        ),
        ("seed", Json::UInt(opts.seed)),
        (
            "scale",
            Json::Str(format!("{}x{}", o.scale.ctas, o.scale.iters)),
        ),
        ("trace", Json::Bool(opts.trace)),
    ])
}

fn metric_json(m: &Metric) -> Json {
    let mut fields = vec![
        ("value", Json::Float(m.value)),
        ("unit", Json::Str(m.unit.into())),
    ];
    if let Some((lo, hi, n)) = m.spread {
        fields.push(("min", Json::Float(lo)));
        fields.push(("max", Json::Float(hi)));
        fields.push(("n", Json::UInt(n as u64)));
    }
    obj(fields)
}

/// The line the driver reads: exactly `correct`, `attempted`, `failed`
/// and `metrics`, each metric exactly `value` and `unit`.
pub fn contract_line(o: &Outcome) -> String {
    obj(vec![
        ("correct", Json::Bool(o.correct)),
        ("attempted", Json::UInt(o.attempted)),
        ("failed", Json::UInt(o.failed)),
        (
            "metrics",
            Json::object(
                o.metrics
                    .iter()
                    .map(|m| {
                        let unit = Json::Str(m.unit.into());
                        (
                            m.name.to_string(),
                            obj(vec![("value", Json::Float(m.value)), ("unit", unit)]),
                        )
                    })
                    .collect(),
            ),
        ),
    ])
    .compact()
}

/// Everything a run prints: a `#` header, one `workload metric value
/// unit` line per metric (with min, max and sample count where the
/// value is a median over passes), the digest, and the contract line
/// last.
pub fn render(opts: &Opts, o: &Outcome) -> String {
    let mut s = String::from("# vt-perf");
    if let Json::Object(fields) = header(opts, o) {
        for (k, v) in fields {
            let _ = write!(s, " {k}={}", v.compact());
        }
    }
    let _ = writeln!(s, " passes={}", o.passes);
    let w = &opts.workload;
    for m in &o.metrics {
        let _ = write!(s, "{w} {} {} {}", m.name, m.value, m.unit);
        if let Some((lo, hi, n)) = m.spread {
            let _ = write!(s, " min {lo} max {hi} n {n}");
        }
        s.push('\n');
    }
    let _ = writeln!(s, "{w} ops_attempted {} count", o.attempted);
    let _ = writeln!(s, "{w} ops_failed {} count", o.failed);
    let _ = writeln!(s, "{w} digest {:#018x}", o.digest);
    s.push_str(&contract_line(o));
    s
}

fn record_path(workload: &str, trace: bool) -> PathBuf {
    let stem = if trace { "layers" } else { "result" };
    Path::new(OUT_DIR).join(format!("{workload}.{stem}.json"))
}

fn span_path(workload: &str) -> PathBuf {
    Path::new(OUT_DIR).join(format!("{workload}.trace.json"))
}

/// The run's full record: what [`contract_line`] has, plus the header,
/// the digest, each median's spread and (traced) per-span-name totals.
pub fn record(opts: &Opts, o: &Outcome) -> Json {
    let mut fields = vec![
        ("workload", Json::Str(opts.workload.clone())),
        ("header", header(opts, o)),
        ("correct", Json::Bool(o.correct)),
        ("attempted", Json::UInt(o.attempted)),
        ("failed", Json::UInt(o.failed)),
        ("digest", Json::Str(format!("{:#018x}", o.digest))),
        ("passes", Json::UInt(o.passes as u64)),
        (
            "metrics",
            Json::object(
                o.metrics
                    .iter()
                    .map(|m| (m.name.to_string(), metric_json(m)))
                    .collect(),
            ),
        ),
    ];
    if opts.trace {
        fields.push((
            "layers",
            Json::object(
                span::by_name(&o.spans)
                    .into_iter()
                    .map(|(name, (count, total, own))| {
                        (
                            name.to_string(),
                            obj(vec![
                                ("count", Json::UInt(count)),
                                ("total_ns", Json::UInt(total)),
                                ("self_ns", Json::UInt(own)),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ));
    }
    obj(fields)
}

/// The document `run.sh` without `--workload` writes: every workload's
/// [`record`] under its name.
pub fn merged(records: Vec<(String, Json)>) -> Json {
    obj(vec![("workloads", Json::object(records))])
}

/// The spans as a Chrome trace document, one "process" per workload so
/// a merged file keeps them apart.
pub fn chrome_trace(opts: &Opts, o: &Outcome) -> Json {
    let pid = spec::WORKLOADS
        .iter()
        .position(|w| w.name == opts.workload)
        .unwrap_or(0) as u64;
    obj(vec![(
        "traceEvents",
        Json::Array(span::chrome_events(&o.spans, pid)),
    )])
}

/// Writes the run's [`record`] (and, traced, its [`chrome_trace`])
/// under [`OUT_DIR`].
///
/// # Errors
///
/// Returns the I/O error with the path it happened on.
pub fn write_files(opts: &Opts, o: &Outcome) -> Result<(), String> {
    let io = |p: &Path, e: std::io::Error| format!("{}: {e}", p.display());
    std::fs::create_dir_all(OUT_DIR).map_err(|e| io(Path::new(OUT_DIR), e))?;
    if opts.trace {
        let p = span_path(&opts.workload);
        std::fs::write(&p, chrome_trace(opts, o).compact()).map_err(|e| io(&p, e))?;
    }
    let p = record_path(&opts.workload, opts.trace);
    std::fs::write(&p, record(opts, o).pretty()).map_err(|e| io(&p, e))
}

/// Reads and parses a JSON file.
///
/// # Errors
///
/// Returns the I/O or syntax error with the path.
pub fn read_json(p: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", p.display()))
}

/// Runs every workload, each in a child process of its own so that
/// `peak_rss_mb` is per workload, and merges what they wrote into
/// `results.json` (untraced) or `layers.json` + `trace.json` (traced).
/// Returns whether every workload was correct.
///
/// # Errors
///
/// Returns a message if a child cannot be started or its files read.
pub fn run_all(opts: &Opts) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut all_correct = true;
    let mut records = Vec::new();
    let mut events = Vec::new();
    for w in spec::WORKLOADS {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", w.name, "--seed", &opts.seed.to_string()])
            .args(["--seconds", &opts.seconds.to_string()])
            .args(["--trace", if opts.trace { "1" } else { "0" }])
            .stdin(Stdio::null());
        if opts.smoke {
            cmd.arg("--smoke");
        }
        // Output is inherited: the child's lines are this run's lines.
        let status = cmd
            .status()
            .map_err(|e| format!("{}: {e}", exe.display()))?;
        all_correct &= status.success();
        records.push((
            w.name.to_string(),
            read_json(&record_path(w.name, opts.trace))?,
        ));
        if opts.trace {
            let doc = read_json(&span_path(w.name))?;
            events.extend_from_slice(
                doc.get("traceEvents")
                    .and_then(Json::as_array)
                    .unwrap_or(&[]),
            );
        }
    }
    if opts.trace {
        all_correct &= layers_separate(&records);
        let p = Path::new(OUT_DIR).join("trace.json");
        let doc = obj(vec![("traceEvents", Json::Array(events))]);
        std::fs::write(&p, doc.compact()).map_err(|e| format!("{}: {e}", p.display()))?;
    }
    let p = Path::new(OUT_DIR).join(if opts.trace {
        "layers.json"
    } else {
        "results.json"
    });
    std::fs::write(&p, merged(records).pretty()).map_err(|e| format!("{}: {e}", p.display()))?;
    eprintln!("wrote {}", p.display());
    Ok(all_correct)
}

/// The one design assertion that spans workloads: the swap engine must
/// fire at least 20 times as often on `swap_heavy` as on
/// `compute_bound`, or the two do not separate that layer.
fn layers_separate(records: &[(String, Json)]) -> bool {
    let swaps = |workload: &str| {
        records
            .iter()
            .find(|(w, _)| w == workload)
            .and_then(|(_, r)| {
                r.get("metrics")?
                    .get("sim.swaps_per_kcycle")?
                    .get("value")?
                    .as_f64()
            })
            .unwrap_or(0.0)
    };
    let (heavy, light) = (swaps("swap_heavy"), swaps("compute_bound"));
    let ok = heavy >= 20.0 * light;
    if !ok {
        eprintln!(
            "FAIL design: swap_heavy swaps {heavy:.1}/kcycle, compute_bound {light:.1}: want >= 20x"
        );
    }
    ok
}

/// Compares two `results.json` documents, `a` before and `b` after.
/// Returns whether `b` is within every bound `decl` (`BENCHMARK.json`)
/// declares, and a table with, for every workload and end-to-end
/// metric, both values, how much worse `b` is and the bound. Simulated
/// counts, failures and digests must be equal; `attempted` may differ,
/// because the number of timed passes is time-boxed.
///
/// # Errors
///
/// Returns a message if a document lacks a workload or metric.
pub fn compare(decl: &Json, a: &Json, b: &Json) -> Result<(bool, String), String> {
    let mut ok = true;
    let mut table = format!(
        "{:<16} {:<18} {:>16} {:>16} {:>9} {:>7}\n",
        "workload", "metric", "a", "b", "worse by", "bound"
    );
    for w in spec::WORKLOADS {
        let side = |doc: &'_ Json| req(req(doc, "workloads")?, w.name).cloned();
        let (ra, rb) = (side(a)?, side(b)?);
        for m in req_array(decl, "end_to_end")? {
            let name = req_str(m, "name")?;
            let bound = req_f64(m, "bound")?;
            let value = |r: &Json| req_f64(req(req(r, "metrics")?, name)?, "value");
            let (va, vb) = (value(&ra)?, value(&rb)?);
            let worse = if req_str(m, "better")? == "lower" {
                vb / va - 1.0
            } else {
                va / vb - 1.0
            };
            let exact = spec::EXACT.contains(&name);
            let breach = if exact { va != vb } else { worse > bound };
            ok &= !breach;
            let _ = writeln!(
                table,
                "{:<16} {:<18} {:>16.6} {:>16.6} {:>+8.2}% {:>6.1}%{}",
                w.name,
                name,
                va,
                vb,
                100.0 * worse,
                100.0 * bound,
                match (breach, exact) {
                    (true, true) => "  BREACH (must be equal)",
                    (true, false) => "  BREACH",
                    _ => "",
                }
            );
        }
        for key in ["failed", "digest", "correct"] {
            let (va, vb) = (req(&ra, key)?, req(&rb, key)?);
            if va != vb {
                ok = false;
                let _ = writeln!(
                    table,
                    "{:<16} {key:<18} {:>16} {:>16}  BREACH (must be equal)",
                    w.name,
                    va.compact(),
                    vb.compact()
                );
            }
        }
    }
    Ok((ok, table))
}
