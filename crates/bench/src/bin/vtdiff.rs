//! `vtdiff` — the differential performance explainer.
//!
//! Compares two `vtbench` records and attributes every kernel's cycle
//! and IPC delta to CPI-stack buckets. The nine buckets partition
//! SM-cycles exactly (`DESIGN.md §15`), so the decomposition is
//! exhaustive: the bucket deltas sum to the total SM-cycle delta with
//! nothing left over, and the report says which bottleneck — memory
//! stalls, the scheduling limit, end-of-kernel drain, … — the time went
//! to or came from.
//!
//! ```text
//! cargo run --release -p vt-bench --bin vtbench -- --out OLD.json
//! # ...change something...
//! cargo run --release -p vt-bench --bin vtbench -- --out NEW.json
//! cargo run --release -p vt-bench --bin vtdiff -- OLD.json NEW.json
//! ```
//!
//! Exit codes: 0 success, 1 `--assert-zero` found a difference, 2 usage
//! error or incomparable records.

use std::process::ExitCode;
use vt_bench::cli;
use vt_bench::cpi::Attribution;
use vt_bench::hotspot::{self, ProfileRecord};
use vt_bench::record::{self, KernelEntry};
use vt_bench::Table;
use vt_json::Json;

const USAGE: &str = "\
usage: vtdiff OLD.json NEW.json [options]
       vtdiff --pc OLD.hotspots.json NEW.hotspots.json [options]

Compares two vtbench records and attributes each kernel's cycle delta
to CPI-stack buckets (issued / stall_* / empty_*). The buckets
partition SM-cycles, so attribution is exhaustive by construction.

With --pc the inputs are per-PC hotspot records (written by
`vtprof --profile`) and the report ranks per-instruction SM-cycle
deltas instead: which instructions gained or lost issue and stall-blame
cycles between the two runs.

options:
  --pc             diff per-PC hotspot records instead of vtbench records
  --top N          show at most N moved buckets per kernel, or N changed
                   instructions with --pc (default 3, --pc default 10)
  --json           machine-readable report on stdout
  --assert-zero    exit 1 unless every kernel's CPI stack (or with --pc,
                   every instruction's profile) is identical
                   (determinism smoke: two runs of the same build must
                   produce bit-identical stacks)
  -h, --help       this help

exit codes: 0 success, 1 --assert-zero found a difference, 2 usage
error or incomparable records";

struct Opts {
    old: String,
    new: String,
    pc: bool,
    top: Option<usize>,
    json: bool,
    assert_zero: bool,
}

fn parse_args() -> Result<Option<Opts>, String> {
    let mut paths = Vec::new();
    let mut pc = false;
    let mut top = None;
    let mut json = false;
    let mut assert_zero = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "-h" | "--help" => {
                println!("{USAGE}");
                return Ok(None);
            }
            "--pc" => pc = true,
            "--json" => json = true,
            "--assert-zero" => assert_zero = true,
            "--top" => top = Some(cli::value(&mut args, "--top")?),
            other if other.starts_with('-') => return Err(format!("unknown option `{other}`")),
            path => paths.push(path.to_string()),
        }
    }
    let [old, new] = <[String; 2]>::try_from(paths)
        .map_err(|p| format!("expected OLD.json NEW.json, got {} paths", p.len()))?;
    Ok(Some(Opts {
        old,
        new,
        pc,
        top,
        json,
        assert_zero,
    }))
}

/// One kernel's diff: the matched old/new entries and the attribution.
struct KernelDiff<'a> {
    old: &'a KernelEntry,
    new: &'a KernelEntry,
    attr: Attribution,
}

impl KernelDiff<'_> {
    fn changed(&self) -> bool {
        self.attr.ranked.iter().any(|&(_, d)| d != 0)
    }
}

fn match_kernels<'a>(
    old: &'a [KernelEntry],
    new: &'a [KernelEntry],
) -> Result<Vec<KernelDiff<'a>>, String> {
    let diffs: Vec<KernelDiff> = old
        .iter()
        .filter_map(|o| {
            new.iter().find(|n| n.name == o.name).map(|n| KernelDiff {
                old: o,
                new: n,
                attr: Attribution::between(&o.cpi, &n.cpi),
            })
        })
        .collect();
    if diffs.is_empty() {
        return Err("no kernel appears in both records".to_string());
    }
    Ok(diffs)
}

/// The ranked per-kernel table: cycles, IPC, and the top moved buckets
/// with their share of the kernel's total SM-cycle movement.
fn render_table(diffs: &[KernelDiff], top: usize) -> String {
    let mut t = Table::new(vec![
        "kernel",
        "old cyc",
        "new cyc",
        "delta",
        "ipc",
        "attributed to",
    ]);
    for d in diffs {
        let moved: Vec<String> = d
            .attr
            .ranked
            .iter()
            .filter(|&&(_, v)| v != 0)
            .take(top)
            .map(|&(b, v)| format!("{b} {v:+}"))
            .collect();
        t.row(vec![
            d.old.name.clone(),
            format!("{}", d.old.cycles),
            format!("{}", d.new.cycles),
            format!("{:+}", d.new.cycles as i64 - d.old.cycles as i64),
            format!("{:.3} -> {:.3}", d.old.ipc, d.new.ipc),
            if moved.is_empty() {
                "unchanged".to_string()
            } else {
                moved.join(", ")
            },
        ]);
    }
    t.render()
}

/// The aggregate attribution across all matched kernels.
fn aggregate(diffs: &[KernelDiff]) -> Vec<(&'static str, i64)> {
    let mut sums: Vec<(&'static str, i64)> = diffs[0]
        .attr
        .ranked
        .iter()
        .map(|&(b, _)| (b, 0i64))
        .collect();
    sums.sort_by_key(|&(b, _)| {
        vt_bench::cpi::BUCKET_NAMES
            .iter()
            .position(|&n| n == b)
            .unwrap_or(usize::MAX)
    });
    for d in diffs {
        for &(b, v) in &d.attr.ranked {
            if let Some(s) = sums.iter_mut().find(|(n, _)| *n == b) {
                s.1 += v;
            }
        }
    }
    sums.sort_by_key(|&(_, v)| std::cmp::Reverse(v.unsigned_abs()));
    sums
}

fn diff_json(diffs: &[KernelDiff]) -> Json {
    let kernels: Vec<Json> = diffs
        .iter()
        .map(|d| {
            Json::object(vec![
                ("kernel".into(), Json::Str(d.old.name.clone())),
                ("old_cycles".into(), Json::UInt(d.old.cycles)),
                ("new_cycles".into(), Json::UInt(d.new.cycles)),
                ("old_ipc".into(), Json::Float(d.old.ipc)),
                ("new_ipc".into(), Json::Float(d.new.ipc)),
                ("sm_cycle_delta".into(), Json::Int(d.attr.delta)),
                ("coverage_pct".into(), Json::Float(d.attr.coverage())),
                (
                    "buckets".into(),
                    Json::object(
                        d.attr
                            .ranked
                            .iter()
                            .map(|&(b, v)| (b.to_string(), Json::Int(v)))
                            .collect(),
                    ),
                ),
            ])
        })
        .collect();
    let agg = aggregate(diffs);
    Json::object(vec![
        ("kernels".into(), Json::Array(kernels)),
        (
            "aggregate".into(),
            Json::object(
                agg.iter()
                    .map(|&(b, v)| (b.to_string(), Json::Int(v)))
                    .collect(),
            ),
        ),
        (
            "changed".into(),
            Json::Bool(diffs.iter().any(KernelDiff::changed)),
        ),
    ])
}

/// The `--pc` report: per-instruction SM-cycle deltas between two
/// hotspot records, ranked by magnitude.
fn run_pc(o: &Opts) -> Result<bool, String> {
    let top = o.top.unwrap_or(10);
    let old = ProfileRecord::load(&o.old)?;
    let new = ProfileRecord::load(&o.new)?;
    let ranked = hotspot::rank_deltas(&old, &new)?;
    let total: i64 = ranked.iter().map(|d| d.delta).sum();

    if o.json {
        let pcs: Vec<Json> = ranked
            .iter()
            .map(|d| {
                Json::object(vec![
                    ("pc".into(), Json::UInt(d.pc as u64)),
                    ("op".into(), Json::Str(d.op.clone())),
                    ("delta".into(), Json::Int(d.delta)),
                    (
                        "classes".into(),
                        Json::object(
                            d.classes
                                .iter()
                                .map(|&(n, v)| (n.to_string(), Json::Int(v)))
                                .collect(),
                        ),
                    ),
                ])
            })
            .collect();
        println!(
            "{}",
            Json::object(vec![
                ("kernel".into(), Json::Str(old.kernel.clone())),
                ("arch".into(), Json::Str(old.arch.clone())),
                ("old_cycles".into(), Json::UInt(old.cycles)),
                ("new_cycles".into(), Json::UInt(new.cycles)),
                ("sm_cycle_delta".into(), Json::Int(total)),
                ("changed_pcs".into(), Json::UInt(ranked.len() as u64)),
                ("pcs".into(), Json::Array(pcs)),
            ])
            .pretty()
        );
    } else if ranked.is_empty() {
        println!(
            "{} [{}]: no per-PC difference: the profiles are identical",
            old.kernel, old.arch
        );
    } else {
        let mut t = Table::new(vec!["pc", "op", "delta", "attributed to"]);
        for d in ranked.iter().take(top) {
            let moved: Vec<String> = d
                .classes
                .iter()
                .map(|&(n, v)| format!("{n} {v:+}"))
                .collect();
            t.row(vec![
                format!("@{}", d.pc),
                d.op.clone(),
                format!("{:+}", d.delta),
                moved.join(", "),
            ]);
        }
        println!("{}", t.render());
        println!(
            "{} [{}]: {} cycles -> {}, {:+} attributed SM-cycles across {} changed \
             instruction(s){}",
            old.kernel,
            old.arch,
            old.cycles,
            new.cycles,
            total,
            ranked.len(),
            if ranked.len() > top {
                format!(" (top {top} shown)")
            } else {
                String::new()
            }
        );
    }
    if o.assert_zero && !ranked.is_empty() {
        eprintln!("vtdiff: --assert-zero: the profiles differ");
        return Ok(false);
    }
    Ok(true)
}

fn run(o: &Opts) -> Result<bool, String> {
    if o.pc {
        return run_pc(o);
    }
    let top = o.top.unwrap_or(3);
    let old = record::load(&o.old)?;
    let new = record::load(&o.new)?;
    let (fp_old, fp_new) = (record::fingerprint(&old)?, record::fingerprint(&new)?);
    if fp_old != fp_new {
        return Err(format!(
            "records are not comparable:\n  {}: {fp_old}\n  {}: {fp_new}",
            o.old, o.new
        ));
    }
    let old_kernels = record::kernels(&old)?;
    let new_kernels = record::kernels(&new)?;
    let diffs = match_kernels(&old_kernels, &new_kernels)?;

    if o.json {
        println!("{}", diff_json(&diffs).pretty());
    } else {
        println!("{}", render_table(&diffs, top));
        let changed: Vec<&KernelDiff> = diffs.iter().filter(|d| d.changed()).collect();
        if changed.is_empty() {
            println!("no CPI-stack difference: the runs are cycle-identical");
        } else {
            let total: i64 = changed.iter().map(|d| d.attr.delta).sum();
            let agg = aggregate(&diffs);
            let moved: Vec<String> = agg
                .iter()
                .filter(|&&(_, v)| v != 0)
                .take(top)
                .map(|&(b, v)| format!("{b} {v:+}"))
                .collect();
            println!(
                "aggregate: {total:+} SM-cycles across {} changed kernel(s), \
                 100% attributed: {}",
                changed.len(),
                moved.join(", ")
            );
        }
    }
    if o.assert_zero && diffs.iter().any(|d| d.changed()) {
        eprintln!("vtdiff: --assert-zero: the records differ");
        return Ok(false);
    }
    Ok(true)
}

fn main() -> ExitCode {
    let opts = match cli::parsed("vtdiff", USAGE, parse_args()) {
        Ok(o) => o,
        Err(code) => return ExitCode::from(code),
    };
    ExitCode::from(cli::finish("vtdiff", run(&opts)))
}
