//! Standalone micro-drivers: each times one layer's public functions
//! with nothing else running, so a per-layer unit cost exists next to
//! the end-to-end numbers it should (or should not) move. They run after
//! the traced pass, inside the `drivers` span.

use crate::cells::Built;
use crate::runner::{METRICS_WINDOW, RING_EVENTS};
use crate::span::Tracer;
use std::hint::black_box;
use std::time::Instant;
use vt_analysis::model::{model, ModelConfig};
use vt_core::{
    Architecture, Checkpoint, GpuConfig, Pool, RunBudget, RunRequest, Session, SessionOutcome,
};
use vt_isa::{Kernel, Reg, SimtStack};
use vt_json::Json;
use vt_mem::cache::Cache;
use vt_mem::coalesce::{coalesce, shared_bank_conflicts};
use vt_mem::mshr::Mshr;
use vt_mem::{MemConfig, MemSystem, ReqKind};
use vt_prng::Prng;
use vt_sim::ldst::LdstUnit;
use vt_trace::{to_chrome_json_with, RingSink, TraceSink};
use vt_workloads::{full_suite, Scale};

/// Mean nanoseconds per call of `f`: the median of three timed batches
/// of `iters` calls, after a tenth as many warm-up calls.
fn ns_per_call<T>(iters: u32, mut f: impl FnMut() -> T) -> f64 {
    for _ in 0..iters / 10 + 1 {
        black_box(f());
    }
    let mut batches = [0.0; 3];
    for b in &mut batches {
        let t = Instant::now();
        for _ in 0..iters {
            black_box(f());
        }
        *b = t.elapsed().as_nanos() as f64 / f64::from(iters);
    }
    batches.sort_by(f64::total_cmp);
    batches[1]
}

type Out = Vec<(&'static str, f64)>;

fn mem(out: &mut Out, smoke: bool) {
    let mut unit = [0u32; 32];
    let mut strided = [0u32; 32];
    let mut random = [0u32; 32];
    for i in 0..32u32 {
        unit[i as usize] = 0x1000 + i * 4;
        strided[i as usize] = 0x1000 + i * 512;
        random[i as usize] = i.wrapping_mul(2_654_435_761) % (1 << 20);
    }
    let iters = if smoke { 2_000 } else { 20_000 };
    for (name, addrs) in [
        ("mem.coalesce_ns.unit", &unit),
        ("mem.coalesce_ns.strided", &strided),
        ("mem.coalesce_ns.random", &random),
    ] {
        out.push((
            name,
            ns_per_call(iters, || coalesce(black_box(addrs), u32::MAX, 128)),
        ));
    }
    out.push((
        "mem.bank_conflict_ns",
        ns_per_call(iters, || {
            shared_bank_conflicts(black_box(&random), u32::MAX, 32)
        }),
    ));
    // Per probe + fill pair, on a cache three quarters the size of the
    // address stream so both hits and evictions occur.
    out.push((
        "mem.cache_probe_fill_ns",
        ns_per_call(iters / 20, || {
            let mut cache = Cache::new(32, 4);
            for i in 0..256u64 {
                let _ = cache.probe(i % 192, i);
                let _ = cache.fill(i % 192, i, false);
            }
            cache.valid_lines()
        }) / 256.0,
    ));
    // Per allocation (two per line, so half merge) with its share of fills.
    out.push((
        "mem.mshr_alloc_fill_ns",
        ns_per_call(iters / 10, || {
            let mut mshr = Mshr::<u64>::new(64, 8);
            for i in 0..64u64 {
                let _ = mshr.alloc(i % 32, i);
            }
            (0..32u64).map(|i| mshr.fill(i).len()).sum::<usize>()
        }) / 64.0,
    ));

    let cfg = MemConfig::default();
    let sms = 15usize;
    let ticks: u64 = if smoke { 5_000 } else { 50_000 };
    let mut idle = MemSystem::new(&cfg, sms);
    let t = Instant::now();
    for now in 0..ticks {
        idle.tick(black_box(now));
    }
    let tick_idle_ns = t.elapsed().as_nanos() as f64 / ticks as f64;
    out.push(("mem.tick_idle_ns", tick_idle_ns));

    // Loaded: every SM offers one random-line load per cycle; the L1
    // MSHRs reject what the hierarchy cannot take, as under a gather.
    let mut loaded = MemSystem::new(&cfg, sms);
    let mut rng = Prng::new(0x10ad);
    let ticks = ticks / 5;
    let mut accepted = 0u64;
    let t = Instant::now();
    for now in 0..ticks {
        loaded.tick(now);
        for sm in 0..sms {
            while loaded.pop_response(sm).is_some() {}
            let line = u64::from(rng.gen_range(0..1 << 16));
            let id = now * sms as u64 + sm as u64;
            accepted += u64::from(loaded.try_submit(sm, id, line, ReqKind::Load).accepted());
        }
    }
    let loaded_ns = t.elapsed().as_nanos() as f64;
    out.push(("mem.tick_loaded_ns", loaded_ns / ticks as f64));
    out.push((
        "mem.req_ns",
        (loaded_ns - ticks as f64 * tick_idle_ns).max(0.0) / accepted.max(1) as f64,
    ));

    // Exact: cycles for one cold load to come back through L1, the
    // interconnect, L2 and DRAM.
    let mut one = MemSystem::new(&cfg, 1);
    one.tick(0);
    assert!(one.try_submit(0, 1, 12345, ReqKind::Load).accepted());
    let mut cycle = 1u64;
    loop {
        one.tick(cycle);
        if one.pop_response(0).is_some() {
            break;
        }
        cycle += 1;
    }
    out.push(("mem.load_roundtrip_cycles", cycle as f64));
}

/// `LdstUnit::push_global` + `tick` against a one-SM `MemSystem`: a
/// four-line load pushed whenever the queue has room, per unit tick.
fn ldst(out: &mut Out, smoke: bool) {
    let core = vt_core::CoreConfig::default();
    let mut mem = MemSystem::new(&MemConfig::default(), 1);
    let mut unit = LdstUnit::new(0, core.ldst_queue_depth, core.smem_latency);
    let mut rng = Prng::new(0x1d57);
    let ticks: u64 = if smoke { 5_000 } else { 50_000 };
    let t = Instant::now();
    for now in 0..ticks {
        mem.tick(now);
        if unit.has_space() {
            let base = u64::from(rng.gen_range(0..1 << 14));
            let lines = (0..4).map(|i| base + i).collect();
            unit.push_global(0, now, lines, ReqKind::Load, Some(Reg(1)), 0, now);
        }
        black_box(unit.tick(now, &mut mem));
    }
    out.push((
        "sim.ldst_tick_ns",
        t.elapsed().as_nanos() as f64 / ticks as f64,
    ));
}

fn isa(out: &mut Out, smoke: bool) {
    out.push((
        "isa.simt_diverge_ns",
        ns_per_call(if smoke { 2_000 } else { 20_000 }, || {
            let mut s = SimtStack::new(u32::MAX);
            s.branch(0x0000_ffff, 10, 20);
            for _ in 10..20 {
                s.advance();
            }
            for _ in 1..19 {
                s.advance();
            }
            s.depth()
        }),
    ));
}

/// One `Pool::run` over 15 empty items — the fork/join the SM-parallel
/// engine pays every simulated cycle — inline and with two workers.
fn par(out: &mut Out, smoke: bool) {
    let scale = if smoke { 10 } else { 1 };
    for (name, threads, iters) in [
        ("par.forkjoin_ns.w1", 1, 100_000 / scale),
        ("par.forkjoin_ns.w2", 2, 5_000 / scale),
    ] {
        let pool = Pool::new(threads);
        out.push((
            name,
            ns_per_call(iters, || {
                pool.run(15, &|i| {
                    black_box(i);
                })
            }),
        ));
    }
}

fn run_once<S: TraceSink>(session: &mut Session<S>, kernel: &Kernel) -> (f64, vt_core::RunStats) {
    let t = Instant::now();
    let report = session
        .run(RunRequest::kernel(kernel))
        .and_then(SessionOutcome::completed)
        .expect("the probe kernel ran in the warm-up pass")
        .remove(0);
    (t.elapsed().as_secs_f64(), report.stats)
}

fn median3(mut f: impl FnMut() -> f64) -> f64 {
    let mut v = [f(), f(), f()];
    v.sort_by(f64::total_cmp);
    v[1]
}

/// Each observer alone against a plain run of the probe kernel, whole;
/// then the exporters over what an all-observers run recorded.
fn observers(out: &mut Out, cfg: &GpuConfig, probe: &Kernel) {
    let plain_cfg = GpuConfig::with_arch(cfg.arch);
    let plain = median3(|| run_once(&mut Session::new(plain_cfg.clone()), probe).0);
    let mut events = 0usize;
    let ring = median3(|| {
        let mut s = Session::new(plain_cfg.clone()).with_sink(RingSink::new(RING_EVENTS));
        let wall = run_once(&mut s, probe).0;
        let sink = s.into_sink();
        events = sink.len() + sink.dropped() as usize;
        wall
    });
    let mut metered_cfg = plain_cfg.clone();
    metered_cfg.core.metrics_window = Some(METRICS_WINDOW);
    let metered = median3(|| run_once(&mut Session::new(metered_cfg.clone()), probe).0);
    let mut profiled_cfg = plain_cfg.clone();
    profiled_cfg.core.profile = true;
    let profiled = median3(|| run_once(&mut Session::new(profiled_cfg.clone()), probe).0);
    out.push(("trace.ring_overhead_frac", ring / plain - 1.0));
    out.push(("trace.metrics_overhead_frac", metered / plain - 1.0));
    out.push(("trace.profile_overhead_frac", profiled / plain - 1.0));
    out.push(("trace.events_per_s", events as f64 / ring));

    let mut all_on = Session::new(GpuConfig {
        core: metered_cfg.core,
        ..plain_cfg
    })
    .with_sink(RingSink::new(RING_EVENTS));
    let (_, stats) = run_once(&mut all_on, probe);
    let recorded = all_on.into_sink().into_events();
    let t = Instant::now();
    black_box(to_chrome_json_with(&recorded, stats.metrics()).compact());
    out.push(("trace.chrome_export_ms", t.elapsed().as_secs_f64() * 1e3));
    let t = Instant::now();
    black_box(stats.metrics().map(|m| m.to_prometheus()));
    out.push(("trace.prom_export_ms", t.elapsed().as_secs_f64() * 1e3));
}

/// `vt-json` on one checkpoint text: the probe kernel cut mid-run.
fn json(out: &mut Out, cfg: &GpuConfig, probe: &Kernel, cut: u64) {
    let mut session = Session::new(GpuConfig::with_arch(cfg.arch));
    let req = RunRequest::kernel(probe).with_budget(RunBudget::unlimited().with_max_cycles(cut));
    let Ok(SessionOutcome::Truncated { truncation, .. }) = session.run(req) else {
        // The probe finished inside the cut: nothing to measure.
        return;
    };
    let text = truncation.checkpoint.to_text();
    let mb = text.len() as f64 / 1e6;
    let parse_s = median3(|| {
        let t = Instant::now();
        black_box(Json::parse(&text).expect("checkpoint text parses"));
        t.elapsed().as_secs_f64()
    });
    let doc = Checkpoint::parse(&text).expect("checkpoint text parses");
    let pretty_s = median3(|| {
        let t = Instant::now();
        black_box(doc.json().pretty());
        t.elapsed().as_secs_f64()
    });
    out.push(("json.parse_mb_per_s", mb / parse_s));
    out.push(("json.pretty_mb_per_s", mb / pretty_s));
}

/// The committed accel-sim-style traces: parse + lower, then replay.
fn traces(out: &mut Out) {
    let mut texts = Vec::new();
    for name in ["vecadd", "divergent", "multiblock"] {
        match std::fs::read_to_string(format!("traces/{name}.trace")) {
            Ok(t) => texts.push(t),
            Err(e) => {
                eprintln!("note: traces/{name}.trace unreadable ({e}); traces.* read 0");
                return;
            }
        }
    }
    let lower_all = || -> Vec<Kernel> {
        texts
            .iter()
            .map(|t| {
                vt_traces::parse_str(t)
                    .and_then(|t| t.lower())
                    .expect("committed traces are valid")
            })
            .collect()
    };
    out.push(("traces.parse_lower_us", ns_per_call(20, lower_all) / 1e3));
    let kernels = lower_all();
    let mut session = Session::new(GpuConfig::with_arch(Architecture::virtual_thread()));
    out.push((
        "traces.replay_ms",
        median3(|| kernels.iter().map(|k| run_once(&mut session, k).0).sum()) * 1e3,
    ));
}

fn analysis(out: &mut Out, scale: &Scale) {
    let suite = full_suite(scale);
    let cfg = ModelConfig::default();
    out.push((
        "analysis.model_ms",
        median3(|| {
            let t = Instant::now();
            for w in &suite {
                black_box(model(&w.kernel, &cfg));
            }
            t.elapsed().as_secs_f64()
        }) * 1e3,
    ));
}

/// Runs every driver, each in a span named after its layer.
pub fn run(tr: &mut Tracer, built: &Built, cfg: &GpuConfig, scale: &Scale, smoke: bool) -> Out {
    // The fixed kernel the interpreter found shortest: long enough to
    // cut a checkpoint from, short enough to run a dozen times.
    let probe = &built
        .kernels
        .iter()
        .filter(|e| e.fixed)
        .min_by_key(|e| e.interp_warp_instrs)
        .expect("every workload has fixed kernels")
        .kernel;
    let mut out = Out::new();
    tr.span("driver.mem", |_| mem(&mut out, smoke));
    tr.span("driver.sim.ldst", |_| ldst(&mut out, smoke));
    tr.span("driver.isa", |_| isa(&mut out, smoke));
    tr.span("driver.par", |_| par(&mut out, smoke));
    tr.span("driver.trace", |_| observers(&mut out, cfg, probe));
    tr.span("driver.json", |_| {
        json(&mut out, cfg, probe, if smoke { 200 } else { 2000 })
    });
    tr.span("driver.traces", |_| traces(&mut out));
    tr.span("driver.analysis", |_| analysis(&mut out, scale));
    out
}
