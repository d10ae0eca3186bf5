//! Building a workload's inputs: the fixed suite kernels, the two
//! seeded tail kernels and every kernel's reference image from the
//! `vt_isa` interpreter. The simulator only ever sees the built
//! [`Kernel`]s; the seed never reaches it.

use crate::spec::{TailClass, WorkloadDef};
use std::time::Instant;
use vt_isa::interp::Interpreter;
use vt_isa::kernel::MemImage;
use vt_isa::Kernel;
use vt_prng::Prng;
use vt_workloads::zoo::{
    BankStormParams, DivergentTreeParams, FrontierParams, HotBinsParams, RegStairsParams,
    RelayParams,
};
use vt_workloads::{full_suite, AccessPattern, LimiterClass, Scale, SyntheticParams};

/// One kernel of a workload with what its cells are checked against.
#[derive(Debug, Clone)]
pub struct KernelEntry {
    /// Suite name, or `tail0-…`/`tail1-…` for a seeded kernel.
    pub name: String,
    /// The kernel handed to the simulator.
    pub kernel: Kernel,
    /// Suite kernels are fixed; tail kernels change with the seed and
    /// stay out of every end-to-end metric.
    pub fixed: bool,
    /// Whether registers or shared memory, not slots, bind the baseline
    /// (suite metadata; tail kernels are classified by the harness).
    pub capacity_limited: bool,
    /// Final memory image according to the interpreter.
    pub reference: MemImage,
    /// Dynamic warp instructions according to the interpreter.
    pub interp_warp_instrs: u64,
}

/// A workload's kernels plus what building them cost.
#[derive(Debug, Clone)]
pub struct Built {
    /// Fixed kernels in canonical order, then the tail.
    pub kernels: Vec<KernelEntry>,
    /// Host seconds constructing kernels (suite + tail).
    pub build_s: f64,
    /// Host seconds in the interpreter producing reference images.
    pub interp_s: f64,
}

/// Builds `def`'s kernels at `scale` with the tail drawn from `seed`.
///
/// # Panics
///
/// Panics if the interpreter rejects a kernel: every suite and generated
/// kernel is valid by construction, so that is a bug.
pub fn build(def: &WorkloadDef, scale: &Scale, seed: u64) -> Built {
    let t0 = Instant::now();
    let mut suite = full_suite(scale);
    let mut kernels: Vec<(String, Kernel, bool, bool)> = def
        .kernels
        .iter()
        .map(|&name| {
            let at = suite
                .iter()
                .position(|w| w.name == name)
                .unwrap_or_else(|| panic!("suite has no kernel {name}"));
            let w = suite.swap_remove(at);
            (
                name.to_string(),
                w.kernel,
                true,
                w.class == LimiterClass::Capacity,
            )
        })
        .collect();
    drop(suite);
    if let Some(class) = def.tail {
        // The workload's name is not mixed in: sm_parallel must draw
        // exactly swap_heavy's tail.
        let mut rng = Prng::new(seed ^ ((class as u64 + 1) << 56));
        for (i, k) in tail(class, scale, &mut rng).into_iter().enumerate() {
            kernels.push((format!("tail{i}-{}", k.name()), k, false, false));
        }
    }
    let build_s = t0.elapsed().as_secs_f64();

    let t1 = Instant::now();
    let kernels = kernels
        .into_iter()
        .map(|(name, kernel, fixed, capacity_limited)| {
            let r = Interpreter::new(&kernel)
                .and_then(|i| i.run())
                .unwrap_or_else(|e| panic!("interpreter rejects {name}: {e}"));
            KernelEntry {
                name,
                fixed,
                capacity_limited,
                reference: r.mem().clone(),
                interp_warp_instrs: r.warp_instrs(),
                kernel,
            }
        })
        .collect();
    Built {
        kernels,
        build_s,
        interp_s: t1.elapsed().as_secs_f64(),
    }
}

/// Two generated kernels of `class`. The ranges keep the class's
/// character at every draw (the harness asserts it after the warm-up
/// pass) and keep the tail under 30% of a pass; `README.md` has the
/// reason for each range.
fn tail(class: TailClass, scale: &Scale, rng: &mut Prng) -> Vec<Kernel> {
    let ctas = scale.ctas;
    let iters = scale.iters;
    match class {
        TailClass::MemStalled => {
            let synth = SyntheticParams {
                name: "synth-mem".into(),
                ctas: ctas / 4,
                threads_per_cta: *rng.choose(&[64, 96, 128]),
                regs_per_thread: rng.gen_range(16..25) as u16,
                iters: (iters / 4).max(1),
                loads_per_iter: rng.gen_range(1..3),
                alu_per_load: rng.gen_range(1..3),
                access: if rng.gen_bool(0.5) {
                    AccessPattern::Strided(rng.gen_range(2..9))
                } else {
                    AccessPattern::Random
                },
                ..SyntheticParams::default()
            }
            .build();
            let zoo = match rng.gen_range(0..3) {
                0 => HotBinsParams {
                    name: "hotbins-gen".into(),
                    ctas,
                    threads_per_cta: *rng.choose(&[64, 128]),
                    bins: 1 << rng.gen_range(2..5),
                    iters: (iters / 2).max(1),
                    ..HotBinsParams::default()
                }
                .build(),
                1 => BankStormParams {
                    name: "bankstorm-gen".into(),
                    ctas,
                    ways: *rng.choose(&[16, 32]),
                    iters: (iters / 2).max(1),
                    ..BankStormParams::default()
                }
                .build(),
                _ => RegStairsParams {
                    name: "regstairs-gen".into(),
                    ctas: ctas / 2,
                    steps: rng.gen_range(4..9),
                    iters: (iters / 2).max(1),
                    ..RegStairsParams::default()
                }
                .build(),
            };
            vec![synth, zoo]
        }
        TailClass::ComputeBound => (0..2)
            .map(|i| {
                SyntheticParams {
                    name: format!("synth-alu{i}"),
                    ctas: ctas / 2,
                    threads_per_cta: *rng.choose(&[128, 256]),
                    iters: (iters / 4).max(1),
                    loads_per_iter: 1,
                    alu_per_load: rng.gen_range(48..97),
                    barrier_per_iter: i == 1,
                    ..SyntheticParams::default()
                }
                .build()
            })
            .collect(),
        TailClass::SwapHeavy => {
            let small_cta = |rng: &mut Prng| *rng.choose(&[32, 64]);
            let synth = SyntheticParams {
                name: "synth-lat".into(),
                ctas: ctas / 2,
                threads_per_cta: small_cta(rng),
                iters: (iters / 8).max(1),
                loads_per_iter: rng.gen_range(1..3),
                alu_per_load: rng.gen_range(1..3),
                ..SyntheticParams::latency_bound()
            }
            .build();
            let zoo = match rng.gen_range(0..3) {
                0 => FrontierParams {
                    name: "frontier-gen".into(),
                    ctas: ctas / 2,
                    threads_per_cta: small_cta(rng),
                    max_degree: rng.gen_range(2..5),
                    iters: (iters / 4).max(1),
                    ..FrontierParams::default()
                }
                .build(),
                1 => RelayParams {
                    name: "relay-gen".into(),
                    ctas,
                    iters: (iters / 2).max(1),
                    ..RelayParams::default()
                }
                .build(),
                _ => DivergentTreeParams {
                    name: "divtree-gen".into(),
                    ctas: ctas / 2,
                    threads_per_cta: small_cta(rng),
                    depth: rng.gen_range(2..4),
                    iters: (iters / 4).max(1),
                    ..DivergentTreeParams::default()
                }
                .build(),
            };
            vec![synth, zoo]
        }
    }
}
