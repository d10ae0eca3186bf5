//! Every workload of the suite must produce the exact same final memory
//! image (and every trapping kernel the same trap) on the cycle-level
//! simulator — under every architecture — as on the timing-free reference
//! interpreter. Both execute instructions through `vt_isa::step`, so this
//! pins down what the simulator adds around the step: issue order,
//! barriers, the CTA residency machinery and the order in which warps and
//! SMs touch memory.

use vt_core::{Architecture, Gpu, SchedPolicy, SimError};
use vt_isa::error::{ExecError, IsaError};
use vt_isa::interp::Interpreter;
use vt_isa::op::{MemSpace, Operand, SfuOp, Sreg};
use vt_isa::{Kernel, KernelBuilder};
use vt_sim::GpuSim;
use vt_tests::checkpoints::swap_config;
use vt_tests::{run, small_config};
use vt_workloads::{full_suite, Scale};

/// Checked on two geometries: `small_config`, where no kernel swaps at
/// this scale, and `swap_config` (2 SMs of 2 CTA slots), where VT swaps
/// on every kernel, so CTAs are parked and resumed mid-flight.
#[test]
fn suite_matches_interpreter_under_every_architecture() {
    for w in full_suite(&Scale::test()) {
        let reference = Interpreter::new(&w.kernel)
            .unwrap_or_else(|e| panic!("{}: {e}", w.name))
            .run()
            .unwrap_or_else(|e| panic!("{}: {e}", w.name));
        for arch in Architecture::standard() {
            let report = run(arch, &w.kernel);
            assert_eq!(
                report.mem_image.as_words(),
                reference.mem().as_words(),
                "{} diverged functionally under {}",
                w.name,
                arch.label()
            );
            let swapping = GpuSim::new(&swap_config(&w.kernel, arch, false), &w.kernel)
                .and_then(GpuSim::run)
                .unwrap_or_else(|e| panic!("{} under {}: {e}", w.name, arch.label()));
            assert_eq!(
                swapping.mem_image.as_words(),
                reference.mem().as_words(),
                "{} diverged functionally under {} where CTAs swap",
                w.name,
                arch.label()
            );
            if arch == Architecture::virtual_thread() {
                assert!(
                    swapping.stats.swaps.swaps_out > 0,
                    "{}: VT never swapped",
                    w.name
                );
            }
        }
    }
}

/// Float operations on NaNs with distinct payloads and signs (quiet and
/// signalling), in both operand orders, one result region per operation.
fn nan_kernel(ctas: u32) -> Kernel {
    const THREADS: u32 = 64;
    const OPS: u32 = 7;
    let n = ctas * THREADS;
    let quiet_or_signalling = [0x7FC0_0000u32, 0xFFC0_0000, 0x7F80_0000];
    let nans: Vec<u32> = (0..n)
        .map(|i| quiet_or_signalling[(i % 3) as usize] | (i + 1))
        .collect();
    let mut b = KernelBuilder::new("nans");
    let xs = b.alloc_global_init(&nans);
    let out = b.alloc_global((OPS * n) as usize);
    let (gid, off, mate, x, y) = (b.reg(), b.reg(), b.reg(), b.reg(), b.reg());
    let r: Vec<_> = (0..OPS).map(|_| b.reg()).collect();
    b.global_thread_id(gid);
    b.shl(off, Operand::Reg(gid), Operand::Imm(2));
    // The neighbouring thread's input: a different payload.
    b.xor_(mate, Operand::Reg(gid), Operand::Imm(1));
    b.shl(mate, Operand::Reg(mate), Operand::Imm(2));
    b.ld_global(x, Operand::Reg(off), xs as i32);
    b.ld_global(y, Operand::Reg(mate), xs as i32);
    let (x, y) = (Operand::Reg(x), Operand::Reg(y));
    b.fadd(r[0], x, y);
    b.fadd(r[1], y, x);
    b.fmul(r[2], x, y);
    b.fsub(r[3], y, x);
    b.ffma(r[4], x, y, Operand::Imm(1.0f32.to_bits()));
    b.sfu(SfuOp::Sqrt, r[5], x);
    b.fadd(r[6], Operand::Imm(2.0f32.to_bits()), y);
    for (k, &reg) in r.iter().enumerate() {
        let region = out + 4 * k as u32 * n;
        b.st_global(Operand::Reg(off), region as i32, Operand::Reg(reg));
    }
    b.exit();
    b.build(ctas, THREADS).unwrap()
}

/// Rust leaves the payload of a NaN result unspecified. The scalar and
/// lane-vector evaluators agree on a NaN-making kernel, and every result
/// below is the one canonical NaN, only because every float result is
/// canonicalised in `vt_isa::exec`.
#[test]
fn nan_payloads_match_interpreter_under_every_architecture() {
    let k = nan_kernel(32);
    let reference = Interpreter::new(&k).unwrap().run().unwrap();
    let words = reference.mem().as_words();
    let results = &words[words.len() - 7 * 32 * 64..];
    assert!(
        results.iter().all(|&w| w == 0x7FFF_FFFF),
        "every result is the canonical NaN"
    );
    for arch in Architecture::standard() {
        let report = run(arch, &k);
        assert_eq!(
            report.mem_image.as_words(),
            words,
            "NaN payloads diverged under {}",
            arch.label()
        );
    }
}

#[test]
fn instruction_counts_match_interpreter() {
    // The simulator issues exactly the dynamic instruction stream the
    // interpreter executes (same warp-level SIMT semantics).
    for w in full_suite(&Scale::test()) {
        let reference = Interpreter::new(&w.kernel).unwrap().run().unwrap();
        let report = run(vt_core::Architecture::Baseline, &w.kernel);
        assert_eq!(
            report.stats.warp_instrs,
            reference.warp_instrs(),
            "{}: warp instruction count mismatch",
            w.name
        );
        assert_eq!(
            report.stats.thread_instrs,
            reference.thread_instrs(),
            "{}: thread instruction count mismatch",
            w.name
        );
    }
}

/// Every other test runs the default two schedulers per SM. Partitions
/// of one, three and four warps-mod-n change which warp each scheduler
/// may pick (and, in debug builds, every pick is checked against the
/// full-list scan it replaces); none may change what the kernel computes.
#[test]
fn scheduler_partitions_match_interpreter() {
    let picked = ["bfs", "sgemm", "histo", "reduction", "bankstorm"];
    for w in full_suite(&Scale::test())
        .into_iter()
        .filter(|w| picked.contains(&w.name))
    {
        let reference = Interpreter::new(&w.kernel).unwrap().run().unwrap();
        for scheduler in [SchedPolicy::Lrr, SchedPolicy::Gto] {
            for schedulers_per_sm in [1, 3, 4] {
                let mut cfg = small_config(Architecture::virtual_thread());
                cfg.core.scheduler = scheduler;
                cfg.core.schedulers_per_sm = schedulers_per_sm;
                let report = Gpu::new(cfg).run(&w.kernel).unwrap();
                let what = format!("{} under {scheduler:?} x {schedulers_per_sm}", w.name);
                assert_eq!(
                    report.mem_image.as_words(),
                    reference.mem().as_words(),
                    "{what}: diverged functionally"
                );
                assert_eq!(
                    report.stats.warp_instrs,
                    reference.warp_instrs(),
                    "{what}: warp instruction count mismatch"
                );
            }
        }
    }
}

#[test]
fn ctas_all_complete() {
    for w in full_suite(&Scale::test()) {
        let report = run(vt_core::Architecture::virtual_thread(), &w.kernel);
        assert_eq!(
            report.stats.ctas_completed,
            u64::from(w.kernel.num_ctas()),
            "{}: lost CTAs",
            w.name
        );
    }
}

/// A one-warp kernel whose lane 0 accesses `space` at byte `lane0`, lane
/// 5 at `lane5` and every other lane at 0, with a load or a store.
fn faulting_access(space: MemSpace, store: bool, lane0: u32, lane5: u32) -> Kernel {
    let mut b = KernelBuilder::new("fault");
    b.alloc_global(4);
    b.alloc_shared(4);
    let (addr, p) = (b.reg(), b.reg());
    b.set_eq(addr, Operand::Sreg(Sreg::Tid), Operand::Imm(0));
    b.mul(addr, Operand::Reg(addr), Operand::Imm(lane0));
    b.set_eq(p, Operand::Sreg(Sreg::Tid), Operand::Imm(5));
    b.mad(
        addr,
        Operand::Reg(p),
        Operand::Imm(lane5),
        Operand::Reg(addr),
    );
    let at = Operand::Reg(addr);
    match (space, store) {
        (MemSpace::Global, false) => b.ld_global(p, at, 0),
        (MemSpace::Global, true) => b.st_global(at, 0, Operand::Imm(1)),
        (MemSpace::Shared, false) => b.ld_shared(p, at, 0),
        (MemSpace::Shared, true) => b.st_shared(at, 0, Operand::Imm(1)),
    }
    b.exit();
    b.build(1, 32).unwrap()
}

/// The trap `kernel` reports on the interpreter, required to be the one
/// it reports on the simulator under every architecture.
fn trap(kernel: &Kernel) -> ExecError {
    let reference = match Interpreter::new(kernel).unwrap().run() {
        Err(IsaError::Exec(e)) => e,
        other => panic!("expected a trap, got {other:?}"),
    };
    for arch in Architecture::standard() {
        let got = Gpu::new(small_config(arch)).run(kernel).err();
        assert!(
            matches!(&got, Some(SimError::Exec(e)) if *e == reference),
            "interpreter traps {reference:?}, the simulator under {} {got:?}",
            arch.label()
        );
    }
    reference
}

/// Simultaneous faults in one instruction: every lane's alignment (and
/// shared range, lane by lane) is checked before any global range, on
/// both paths.
#[test]
fn traps_match_interpreter_under_every_architecture() {
    const FAR: u32 = 1 << 26;
    for store in [false, true] {
        let k = faulting_access(MemSpace::Global, store, FAR, 2);
        assert_eq!(trap(&k), ExecError::Unaligned { addr: 2 }, "store {store}");
        let k = faulting_access(MemSpace::Shared, store, FAR, 2);
        assert_eq!(
            trap(&k),
            ExecError::SharedOutOfRange { addr: FAR },
            "store {store}"
        );
    }
    // Control: lane 0 alone faults.
    let k = faulting_access(MemSpace::Global, false, FAR, 0);
    assert_eq!(trap(&k), ExecError::GlobalOutOfRange { addr: FAR });
}
