//! The benchmark's contract with `BENCHMARK.json` and with itself, at
//! smoke scale: names, declared-versus-printed metrics, span
//! conservation, the Chrome trace shape and `--compare`.

use std::collections::BTreeMap;
use vt_json::{req_array, req_str, Json};
use vt_perf::report;
use vt_perf::runner::{self, Opts, Outcome};
use vt_perf::span::{self_times, Span};
use vt_perf::spec;

fn declaration() -> Json {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn smoke(workload: &str, trace: bool) -> (Opts, Outcome) {
    let opts = Opts {
        workload: workload.into(),
        seed: 1,
        seconds: 0.0,
        trace,
        smoke: true,
    };
    let outcome = runner::run(&opts).expect("known workload");
    (opts, outcome)
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
}

fn declared(decl: &Json, key: &str) -> Vec<(String, String)> {
    req_array(decl, key)
        .expect(key)
        .iter()
        .map(|m| {
            (
                req_str(m, "name").expect("name").to_string(),
                req_str(m, "unit").expect("unit").to_string(),
            )
        })
        .collect()
}

#[test]
fn names_are_well_formed_and_match_the_declaration() {
    let decl = declaration();
    let own = |table: &[(&str, &str)]| -> Vec<(String, String)> {
        table
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(declared(&decl, "end_to_end"), own(spec::END_TO_END));
    assert_eq!(declared(&decl, "per_layer"), own(spec::PER_LAYER));
    let workloads: Vec<&str> = req_array(&decl, "workloads")
        .expect("workloads")
        .iter()
        .map(|w| req_str(w, "name").expect("name"))
        .collect();
    let own_workloads: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
    assert_eq!(workloads, own_workloads);
    for name in spec::END_TO_END
        .iter()
        .chain(spec::PER_LAYER)
        .map(|&(n, _)| n)
        .chain(own_workloads)
    {
        assert!(well_formed(name), "{name:?}");
    }
    for name in spec::EXACT {
        assert!(spec::END_TO_END.iter().any(|(n, _)| n == name), "{name}");
    }
}

/// Parses the line the driver reads and returns its metric names and
/// units in order.
fn printed(opts: &Opts, outcome: &Outcome) -> Vec<(String, String)> {
    let text = report::render(opts, outcome);
    let line = Json::parse(text.lines().last().expect("a last line")).expect("last line is JSON");
    let Json::Object(fields) = &line else {
        panic!("last line is not an object");
    };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert!(line.get("attempted").and_then(Json::as_u64) >= Some(1));
    let Some(Json::Object(metrics)) = line.get("metrics") else {
        panic!("metrics is not an object");
    };
    metrics
        .iter()
        .map(|(name, m)| {
            assert!(m.get("value").and_then(Json::as_f64).is_some(), "{name}");
            (name.clone(), req_str(m, "unit").expect("unit").to_string())
        })
        .collect()
}

/// On every worker, self times must add up to that worker's outermost
/// spans, and a child on its parent's worker must lie inside it.
fn assert_spans_conserve(spans: &[Span]) {
    assert_eq!(spans[0].name, "run");
    let own = self_times(spans);
    let mut self_sum: BTreeMap<u32, u64> = BTreeMap::new();
    let mut roots: BTreeMap<u32, u64> = BTreeMap::new();
    for (s, own_ns) in spans.iter().zip(own) {
        assert!(s.start_ns <= s.end_ns, "{}", s.name);
        *self_sum.entry(s.worker).or_default() += own_ns;
        match s.parent.map(|p| &spans[p]) {
            Some(p) if p.worker == s.worker => assert!(
                p.start_ns <= s.start_ns && s.end_ns <= p.end_ns,
                "{} does not fit inside {}",
                s.name,
                p.name
            ),
            _ => *roots.entry(s.worker).or_default() += s.dur_ns(),
        }
    }
    assert_eq!(self_sum, roots);
    assert_eq!(
        roots[&0],
        spans[0].dur_ns(),
        "worker 0's only root is `run`"
    );
}

#[test]
fn every_workload_prints_what_is_declared_and_its_spans_conserve() {
    let decl = declaration();
    for w in spec::WORKLOADS {
        let (opts, outcome) = smoke(w.name, false);
        assert!(outcome.correct, "{} untraced", w.name);
        assert_eq!(outcome.failed, 0);
        assert!(outcome.spans.is_empty());
        assert_eq!(printed(&opts, &outcome), declared(&decl, "end_to_end"));
        for m in &outcome.metrics {
            assert!(m.value > 0.0, "{} {} must never be 0", w.name, m.name);
        }

        let (opts, outcome) = smoke(w.name, true);
        assert!(outcome.correct, "{} traced", w.name);
        assert_eq!(printed(&opts, &outcome), declared(&decl, "per_layer"));
        assert_spans_conserve(&outcome.spans);
        for name in [
            "workload",
            "pass",
            "cell",
            "sim.execute",
            "check",
            "drivers",
        ] {
            assert!(outcome.spans.iter().any(|s| s.name == name), "{name}");
        }

        // The span file must load as Chrome trace JSON.
        let doc = Json::parse(&report::chrome_trace(&opts, &outcome).compact()).expect("parses");
        let events = req_array(&doc, "traceEvents").expect("traceEvents");
        assert_eq!(events.len(), outcome.spans.len());
        for e in events {
            assert_eq!(req_str(e, "ph"), Ok("X"));
            for key in ["ts", "dur", "pid", "tid"] {
                assert!(e.get(key).and_then(Json::as_f64).is_some(), "{key}");
            }
        }
    }
}

#[test]
fn the_seed_changes_the_tail_and_nothing_else() {
    let digest = |seed| {
        let opts = Opts {
            workload: "swap_heavy".into(),
            seed,
            seconds: 0.0,
            trace: false,
            smoke: true,
        };
        let o = runner::run(&opts).expect("known workload");
        assert!(o.correct);
        let cycles = o.metrics.iter().find(|m| m.name == "sim_cycles");
        (o.digest, cycles.expect("sim_cycles").value)
    };
    // The fixed cells' digest and cycles are seed-independent, so the
    // end-to-end numbers compare across seeds…
    assert_eq!(digest(1), digest(2));
    // …while the generated kernels differ.
    let tail = |seed| -> Vec<vt_isa::Kernel> {
        let def = spec::workload("swap_heavy").expect("exists");
        let scale = vt_workloads::Scale { ctas: 30, iters: 2 };
        vt_perf::cells::build(def, &scale, seed)
            .kernels
            .into_iter()
            .filter(|e| !e.fixed)
            .map(|e| e.kernel)
            .collect()
    };
    assert_eq!(tail(1), tail(1), "same seed, same inputs");
    assert_ne!(tail(1), tail(2));
    // sm_parallel must run exactly swap_heavy's cells.
    let of = |name| {
        let def = spec::workload(name).expect("exists");
        let scale = vt_workloads::Scale { ctas: 30, iters: 2 };
        let built = vt_perf::cells::build(def, &scale, 7);
        built
            .kernels
            .into_iter()
            .map(|e| e.kernel)
            .collect::<Vec<_>>()
    };
    assert_eq!(of("swap_heavy"), of("sm_parallel"));
}

#[test]
fn compare_accepts_equal_runs_and_names_a_breach() {
    let decl = declaration();
    let records = || {
        spec::WORKLOADS
            .iter()
            .map(|w| {
                let (opts, outcome) = smoke(w.name, false);
                (w.name.to_string(), report::record(&opts, &outcome))
            })
            .collect::<Vec<_>>()
    };
    let a = report::merged(records());
    let (ok, table) = report::compare(&decl, &a, &a).expect("well formed");
    assert!(ok, "{table}");
    assert!(table.contains("paper_grid") && table.contains("wall_s"));

    // Simulated time is exact: one cycle more is a breach…
    let bump = |doc: &Json, workload: &str, metric: &str, by: f64| -> Json {
        let mut doc = doc.clone();
        let Json::Object(top) = &mut doc else {
            unreachable!()
        };
        let Json::Object(ws) = &mut top[0].1 else {
            unreachable!()
        };
        let rec = &mut ws
            .iter_mut()
            .find(|(k, _)| k == workload)
            .expect("workload")
            .1;
        let Json::Object(fields) = rec else {
            unreachable!()
        };
        let metrics = &mut fields
            .iter_mut()
            .find(|(k, _)| k == "metrics")
            .expect("metrics")
            .1;
        let Json::Object(ms) = metrics else {
            unreachable!()
        };
        let m = &mut ms.iter_mut().find(|(k, _)| k == metric).expect("metric").1;
        let Json::Object(mf) = m else { unreachable!() };
        let v = mf[0].1.as_f64().expect("value first");
        mf[0].1 = Json::Float(v * by);
        doc
    };
    let (ok, table) =
        report::compare(&decl, &a, &bump(&a, "swap_heavy", "sim_cycles", 1.0001)).expect("ok");
    assert!(!ok && table.contains("must be equal"), "{table}");
    // …host time may worsen up to its bound, not beyond, and may improve freely.
    let (ok, _) = report::compare(&decl, &a, &bump(&a, "mem_stalled", "wall_s", 1.05)).expect("ok");
    assert!(ok);
    let (ok, table) =
        report::compare(&decl, &a, &bump(&a, "mem_stalled", "wall_s", 1.5)).expect("ok");
    assert!(!ok && table.contains("BREACH"), "{table}");
    let (ok, _) = report::compare(&decl, &a, &bump(&a, "mem_stalled", "wall_s", 0.5)).expect("ok");
    assert!(ok);
}
