//! Randomized integration tests: random synthetic kernels and random
//! straight-line programs must agree between the cycle-level simulator
//! and the reference interpreter, and random architecture parameters must
//! preserve functional results. Driven by the deterministic
//! [`vt_prng::Prng`] so runs are reproducible offline.

use vt_core::{Architecture, Pool, RunRequest, Session, SwapTrigger, VtParams};
use vt_isa::interp::Interpreter;
use vt_isa::op::{AluOp, Operand, Reg, Sreg};
use vt_isa::{Kernel, KernelBuilder};
use vt_prng::Prng;
use vt_tests::{run, small_config};
use vt_trace::{BufSink, SwapDir, TraceEvent};
use vt_workloads::{AccessPattern, SyntheticParams};

fn gen_access(r: &mut Prng) -> AccessPattern {
    match r.gen_range(0..3) {
        0 => AccessPattern::Coalesced,
        1 => AccessPattern::Strided(r.gen_range(1..64)),
        _ => AccessPattern::Random,
    }
}

#[test]
fn synthetic_kernels_match_interpreter() {
    let mut r = Prng::new(0x515);
    for case in 0..12 {
        let barrier = r.gen_bool(0.5);
        let p = SyntheticParams {
            name: "prop".to_string(),
            ctas: r.gen_range(2..8),
            threads_per_cta: *r.choose(&[32u32, 48, 64, 128]),
            regs_per_thread: 16,
            smem_bytes: if barrier { 256 } else { 0 },
            iters: r.gen_range(1..5),
            loads_per_iter: r.gen_range(1..4),
            alu_per_load: r.gen_range(0..6),
            access: gen_access(&mut r),
            barrier_per_iter: barrier,
        };
        let kernel = p.build();
        let reference = Interpreter::new(&kernel).unwrap().run().unwrap();
        for arch in [Architecture::Baseline, Architecture::virtual_thread()] {
            let report = run(arch, &kernel);
            assert_eq!(
                report.mem_image.as_words(),
                reference.mem().as_words(),
                "case {case}: arch {} params {p:?}",
                arch.label()
            );
        }
    }
}

/// Breadth over depth: ~200 random synthetic kernels must all (a) lint
/// clean of error-severity diagnostics and (b) run to completion under
/// all four architectures. Catches generator/analyzer/scheduler
/// mismatches the 12-case deep tests above cannot reach.
#[test]
fn two_hundred_random_kernels_lint_clean_and_complete_everywhere() {
    let mut r = Prng::new(0xc0de);
    for case in 0..200 {
        let barrier = r.gen_bool(0.4);
        let p = SyntheticParams {
            name: format!("prop-{case}"),
            ctas: r.gen_range(1..6),
            threads_per_cta: *r.choose(&[32u32, 48, 64, 96]),
            regs_per_thread: *r.choose(&[8u16, 16, 24, 48]),
            smem_bytes: if barrier {
                *r.choose(&[128u32, 256, 1024])
            } else {
                0
            },
            iters: r.gen_range(1..3),
            loads_per_iter: r.gen_range(1..3),
            alu_per_load: r.gen_range(0..5),
            access: gen_access(&mut r),
            barrier_per_iter: barrier,
        };
        let kernel = p.build();
        let errors: Vec<_> = vt_analysis::analyze(&kernel)
            .diagnostics
            .iter()
            .filter(|d| d.severity == vt_analysis::Severity::Error)
            .cloned()
            .collect();
        assert!(errors.is_empty(), "case {case} ({p:?}): {errors:?}");
        for arch in Architecture::standard() {
            let report = run(arch, &kernel);
            assert_eq!(
                report.stats.ctas_completed,
                u64::from(p.ctas),
                "case {case} under {}: did not run to completion ({p:?})",
                arch.label()
            );
        }
    }
}

#[test]
fn random_vt_parameters_preserve_functionality() {
    let mut r = Prng::new(0xf7a);
    let kernel = SyntheticParams {
        ctas: 24,
        access: AccessPattern::Random,
        ..SyntheticParams::default()
    }
    .build();
    let reference = Interpreter::new(&kernel).unwrap().run().unwrap();
    for case in 0..12 {
        let max_virtual = if r.gen_bool(0.3) {
            None
        } else {
            Some(r.gen_range(9..40))
        };
        let arch = Architecture::VirtualThread(VtParams {
            max_virtual_ctas: max_virtual,
            buffer_words_per_cycle: r.gen_range(1..64),
            stack_entries_per_warp: r.gen_range(1..32),
            trigger: *r.choose(&[
                SwapTrigger::AllWarpsStalled,
                SwapTrigger::AnyWarpStalled,
                SwapTrigger::Never,
            ]),
            ..VtParams::default()
        });
        let report = run(arch, &kernel);
        assert_eq!(
            report.mem_image.as_words(),
            reference.mem().as_words(),
            "case {case}: {max_virtual:?}"
        );
        assert_eq!(report.stats.ctas_completed, 24);
    }
}

/// Random synthetic kernels must be thread-count invariant: a session
/// with a worker pool attached (which shards `sweep` cells, never a
/// single run) must reproduce the pool-less run's statistics and final
/// memory bit-for-bit, whatever shape the kernel takes.
#[test]
fn thread_count_invariance_on_random_kernels() {
    let mut r = Prng::new(0x9a7);
    for case in 0..8 {
        let barrier = r.gen_bool(0.5);
        let p = SyntheticParams {
            name: "par-prop".to_string(),
            ctas: r.gen_range(4..16),
            threads_per_cta: *r.choose(&[32u32, 64, 96]),
            regs_per_thread: 16,
            smem_bytes: if barrier { 256 } else { 0 },
            iters: r.gen_range(1..4),
            loads_per_iter: r.gen_range(1..4),
            alu_per_load: r.gen_range(0..5),
            access: gen_access(&mut r),
            barrier_per_iter: barrier,
        };
        let kernel = p.build();
        for arch in [Architecture::Baseline, Architecture::virtual_thread()] {
            let seq = run(arch, &kernel);
            let par = Session::new(small_config(arch))
                .with_pool(Pool::new(4))
                .run(RunRequest::kernel(&kernel))
                .and_then(|o| o.completed())
                .unwrap_or_else(|e| panic!("case {case}: {e}"))
                .remove(0);
            assert_eq!(
                par.stats,
                seq.stats,
                "case {case}: stats drift with a pool under {} ({p:?})",
                arch.label()
            );
            assert_eq!(
                par.mem_image,
                seq.mem_image,
                "case {case}: memory drift with a pool under {}",
                arch.label()
            );
        }
    }
}

/// The swap protocol on random kernels: a CTA may only enter the active
/// phase once its context transfer has completed — every `CtaActivate`
/// must be preceded by a `SwapEnd{In}` for the same (SM, slot, CTA), with
/// no unconsumed transfer left over.
#[test]
fn swap_protocol_holds() {
    let mut r = Prng::new(0x3c1);
    let mut activations = 0u64;
    for case in 0..6 {
        let p = SyntheticParams {
            name: "swap-prop".to_string(),
            ctas: r.gen_range(16..40),
            threads_per_cta: *r.choose(&[32u32, 64]),
            regs_per_thread: 16,
            smem_bytes: 0,
            iters: r.gen_range(2..5),
            loads_per_iter: r.gen_range(2..5),
            alu_per_load: r.gen_range(0..3),
            access: AccessPattern::Random,
            barrier_per_iter: false,
        };
        let kernel = p.build();
        let mut events = Vec::new();
        let mut session = Session::new(small_config(Architecture::virtual_thread()))
            .with_sink(BufSink(&mut events));
        session
            .run(RunRequest::kernel(&kernel))
            .and_then(|o| o.completed())
            .unwrap_or_else(|e| panic!("case {case}: {e}"));
        drop(session);

        let mut ready: Vec<(u32, u32, u32)> = Vec::new();
        for e in &events {
            match e.ev {
                TraceEvent::SwapEnd {
                    sm,
                    cta_slot,
                    cta_id,
                    dir: SwapDir::In,
                } => ready.push((sm, cta_slot, cta_id)),
                TraceEvent::CtaActivate {
                    sm,
                    cta_slot,
                    cta_id,
                } => {
                    let key = (sm, cta_slot, cta_id);
                    let pos = ready.iter().position(|&k| k == key).unwrap_or_else(|| {
                        panic!(
                            "case {case}: CTA {cta_id} activated on SM {sm} slot \
                             {cta_slot} at t={} without a completed swap-in",
                            e.t
                        )
                    });
                    ready.swap_remove(pos);
                    activations += 1;
                }
                _ => {}
            }
        }
    }
    assert!(
        activations > 0,
        "cases never activated a CTA — the invariant was tested vacuously"
    );
}

/// A random straight-line ALU program over a handful of registers.
fn straight_line(ops: &[(u8, u8, u8, u8)]) -> Kernel {
    const REGS: u16 = 6;
    let mut b = KernelBuilder::new("straight");
    let out = b.alloc_global(64 * REGS as usize);
    let regs: Vec<Reg> = (0..REGS).map(|_| b.reg()).collect();
    // Seed registers with thread-dependent values.
    for (i, r) in regs.iter().enumerate() {
        b.mad(
            *r,
            Operand::Sreg(Sreg::Tid),
            Operand::Imm(i as u32 + 1),
            Operand::Imm(7),
        );
    }
    let table: &[AluOp] = &[
        AluOp::Add,
        AluOp::Sub,
        AluOp::Mul,
        AluOp::Min,
        AluOp::Max,
        AluOp::Xor,
        AluOp::Shl,
        AluOp::Shr,
        AluOp::SetLt,
        AluOp::Div,
        AluOp::Rem,
        AluOp::And,
        AluOp::Or,
        AluOp::MulHi,
    ];
    for &(op, d, a, c) in ops {
        let op = table[op as usize % table.len()];
        let dst = regs[d as usize % regs.len()];
        let a = Operand::Reg(regs[a as usize % regs.len()]);
        let c = Operand::Reg(regs[c as usize % regs.len()]);
        b.emit(vt_isa::Instr::Alu { op, dst, a, b: c });
    }
    // Dump every register of every thread.
    let off = b.reg();
    for (i, r) in regs.iter().enumerate() {
        b.mad(
            off,
            Operand::Sreg(Sreg::Tid),
            Operand::Imm(REGS as u32 * 4),
            Operand::Imm(i as u32 * 4),
        );
        b.st_global(Operand::Reg(off), out as i32, Operand::Reg(*r));
    }
    b.build(2, 32).unwrap()
}

#[test]
fn random_alu_programs_match_interpreter() {
    let mut r = Prng::new(0xa1b);
    for case in 0..24 {
        let ops: Vec<(u8, u8, u8, u8)> = (0..r.gen_range_usize(1..40))
            .map(|_| {
                let w = r.next_u32();
                (w as u8, (w >> 8) as u8, (w >> 16) as u8, (w >> 24) as u8)
            })
            .collect();
        let kernel = straight_line(&ops);
        let reference = Interpreter::new(&kernel).unwrap().run().unwrap();
        let report = run(Architecture::Baseline, &kernel);
        assert_eq!(
            report.mem_image.as_words(),
            reference.mem().as_words(),
            "case {case}"
        );
    }
}
