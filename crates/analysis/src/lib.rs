//! Static analysis for virtual-thread kernels.
//!
//! `vt-analysis` inspects a [`vt_isa::Kernel`] without executing it and
//! produces a [`Report`] of findings:
//!
//! * **CFG / reconvergence** ([`cfg`]) — builds the instruction-level
//!   control-flow graph, computes post-dominators, and checks every
//!   `brc`'s declared reconvergence PC against its immediate
//!   post-dominator ([`Rule::BadReconv`]).
//! * **Dataflow** ([`dataflow`], [`defs`], [`liveness`]) — a generic
//!   bit-vector solver instantiated as reaching definitions
//!   ([`Rule::UninitRead`]) and liveness ([`Rule::DeadStore`], plus the
//!   register-pressure estimate).
//! * **Uniformity / barriers** ([`uniform`], [`barrier`]) — classifies
//!   definitions and control flow as CTA-uniform or divergent, then
//!   rejects barriers reachable under divergence
//!   ([`Rule::DivergentBarrier`]) and divergent branches whose arms
//!   contain different barrier counts ([`Rule::BarrierMismatch`]).
//! * **Shared-memory races** ([`race`]) — pairs shared accesses within a
//!   barrier interval and flags pairs two distinct lanes could aim at
//!   the same word ([`Rule::SharedRace`]).
//! * **Performance model** ([`memaccess`], [`model`]) — the static
//!   occupancy and VT-benefit model: exact per-resource resident-CTA
//!   bounds and their limiter from [`vt_isa::limits`], per-architecture
//!   residency predictions from each `vt_core::Architecture`'s admission
//!   policy (the rule the simulator's dispatcher applies), coalescing-width
//!   and bank-conflict estimates per memory access
//!   ([`Rule::UncoalescedGlobal`], [`Rule::SmemBankConflict`]) and
//!   divergence nesting depth ([`Rule::DeepDivergence`]). Cross-validated
//!   against the timing simulator by the oracle tests in `tests/`.
//!
//! The `vtlint` binary drives all of this over `.vtasm` files or the
//! built-in workload suite (`--model` selects the performance model).
#![forbid(unsafe_code)]

pub mod barrier;
pub mod cfg;
pub mod dataflow;
pub mod defs;
pub mod diag;
pub mod liveness;
pub mod memaccess;
pub mod model;
pub mod race;
pub mod uniform;

pub use cfg::Cfg;
pub use dataflow::{solve, BitSet, Direction, Meet, Problem, Solution};
pub use defs::Reaching;
pub use diag::{Diagnostic, Report, Rule, Severity};
pub use liveness::Liveness;
pub use memaccess::MemSite;
pub use model::{model, ArchPrediction, KernelModel, ModelConfig};
pub use race::{classify, may_overlap, AddrClass, Base};
pub use uniform::Uniformity;

use vt_isa::Kernel;

/// Highest register index referenced by any instruction, plus one.
pub fn used_regs(program: &vt_isa::Program) -> u16 {
    let mut max = 0u32;
    for (_, instr) in program.iter() {
        if let Some(d) = instr.dst() {
            max = max.max(u32::from(d.0) + 1);
        }
        for r in instr.src_regs() {
            max = max.max(u32::from(r.0) + 1);
        }
    }
    max as u16
}

/// Runs every analysis pass over `kernel` and collects the findings.
pub fn analyze(kernel: &Kernel) -> Report {
    let program = kernel.program();
    let declared = kernel.regs_per_thread();
    let used = used_regs(program);
    // Analyse over the wider of the two so an over-referencing program
    // still gets a report instead of an index panic.
    let num_regs = declared.max(used);

    let cfg = Cfg::build(program);
    let reachable = cfg.reachable();
    let mut diagnostics = cfg.check_reconvergence(program);

    let reaching = Reaching::compute(program, &cfg, num_regs);
    diagnostics.extend(reaching.uninit_diags(program, &reachable));

    let liveness = Liveness::compute(program, &cfg, num_regs);
    diagnostics.extend(liveness.dead_store_diags(program, &reachable));
    let register_pressure = liveness.pressure(&reachable);

    let uniformity = Uniformity::compute(program, &reaching, &reachable);
    diagnostics.extend(barrier::check(program, &uniformity, &reachable));
    diagnostics.extend(race::check(
        program,
        &cfg,
        &reaching,
        &uniformity,
        &reachable,
        kernel.threads_per_cta(),
    ));

    if declared > used {
        diagnostics.push(Diagnostic::kernel(
            Severity::Info,
            Rule::OverDeclaredRegs,
            format!(
                "kernel declares {declared} registers per thread but only \
                 r0..r{} appear in the program",
                used.saturating_sub(1)
            ),
        ));
    }

    diagnostics.sort_by_key(|d| (d.pc.unwrap_or(usize::MAX), d.severity, d.rule));

    let barriers = barrier::count(program);
    Report {
        kernel: kernel.name().to_string(),
        declared_regs: declared,
        used_regs: used,
        register_pressure,
        barriers,
        barrier_intervals: barriers + 1,
        diagnostics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vt_isa::kernel::MemImage;
    use vt_isa::op::{AluOp, BranchIf, MemSpace, Operand, Reg, Sreg};
    use vt_isa::{Instr, Kernel, Program};

    fn kernel(name: &str, regs: u16, smem: u32, instrs: Vec<Instr>) -> Kernel {
        Kernel::new(
            name,
            Program::new(instrs),
            1,
            64,
            regs,
            smem,
            MemImage::zeroed(64),
        )
        .unwrap()
    }

    fn mov(dst: u16, a: Operand) -> Instr {
        Instr::Alu {
            op: AluOp::Mov,
            dst: Reg(dst),
            a,
            b: Operand::Imm(0),
        }
    }

    #[test]
    fn clean_kernel_reports_no_findings() {
        let k = kernel(
            "clean",
            2,
            0,
            vec![
                mov(0, Operand::Sreg(Sreg::Tid)),
                Instr::Alu {
                    op: AluOp::Shl,
                    dst: Reg(1),
                    a: Operand::Reg(Reg(0)),
                    b: Operand::Imm(2),
                },
                Instr::St {
                    space: MemSpace::Global,
                    addr: Operand::Reg(Reg(1)),
                    offset: 0,
                    src: Operand::Reg(Reg(0)),
                },
                Instr::Exit,
            ],
        );
        let r = analyze(&k);
        assert!(r.diagnostics.is_empty(), "{:?}", r.diagnostics);
        assert_eq!(r.used_regs, 2);
        assert_eq!(r.register_pressure, 2);
        assert_eq!(r.barrier_intervals, 1);
    }

    #[test]
    fn every_rule_fires_on_its_fixture() {
        // bad-reconv: joins at 2 but declares 3.
        let k = kernel(
            "bad-reconv",
            1,
            0,
            vec![
                Instr::BraCond {
                    pred: Operand::Imm(1),
                    when: BranchIf::Zero,
                    target: 2,
                    reconv: 3,
                },
                mov(0, Operand::Imm(1)),
                mov(0, Operand::Imm(2)),
                Instr::St {
                    space: MemSpace::Global,
                    addr: Operand::Imm(0),
                    offset: 0,
                    src: Operand::Reg(Reg(0)),
                },
                Instr::Exit,
            ],
        );
        assert!(analyze(&k)
            .diagnostics
            .iter()
            .any(|d| d.rule == Rule::BadReconv));

        // uninit-read + dead-store in one program.
        let k = kernel(
            "uninit",
            2,
            0,
            vec![mov(1, Operand::Reg(Reg(0))), Instr::Exit],
        );
        let r = analyze(&k);
        assert!(r.diagnostics.iter().any(|d| d.rule == Rule::UninitRead));
        assert!(r.diagnostics.iter().any(|d| d.rule == Rule::DeadStore));

        // divergent-barrier + barrier-mismatch: bar under a tid guard.
        let k = kernel(
            "div-bar",
            1,
            0,
            vec![
                mov(0, Operand::Sreg(Sreg::Tid)),
                Instr::BraCond {
                    pred: Operand::Reg(Reg(0)),
                    when: BranchIf::Zero,
                    target: 3,
                    reconv: 3,
                },
                Instr::Bar,
                Instr::Exit,
            ],
        );
        let r = analyze(&k);
        assert!(r
            .diagnostics
            .iter()
            .any(|d| d.rule == Rule::DivergentBarrier));
        assert!(r
            .diagnostics
            .iter()
            .any(|d| d.rule == Rule::BarrierMismatch));
        assert!(r.has_errors());

        // shared-race: every lane stores to the same word.
        let k = kernel(
            "race",
            1,
            64,
            vec![
                Instr::St {
                    space: MemSpace::Shared,
                    addr: Operand::Imm(0),
                    offset: 0,
                    src: Operand::Imm(1),
                },
                Instr::Exit,
            ],
        );
        assert!(analyze(&k)
            .diagnostics
            .iter()
            .any(|d| d.rule == Rule::SharedRace));

        // over-declared-regs: declares 8, uses 1.
        let k = kernel("padded", 8, 0, vec![mov(0, Operand::Imm(1)), Instr::Exit]);
        let r = analyze(&k);
        let over: Vec<_> = r
            .diagnostics
            .iter()
            .filter(|d| d.rule == Rule::OverDeclaredRegs)
            .collect();
        assert_eq!(over.len(), 1);
        assert_eq!(over[0].severity, Severity::Info);
        assert_eq!(r.used_regs, 1);
        assert_eq!(r.declared_regs, 8);
    }

    #[test]
    fn diagnostics_come_out_sorted_by_pc() {
        let k = kernel(
            "sorted",
            4,
            0,
            vec![
                mov(3, Operand::Reg(Reg(2))),
                mov(1, Operand::Reg(Reg(0))),
                Instr::Exit,
            ],
        );
        let r = analyze(&k);
        let pcs: Vec<_> = r.diagnostics.iter().map(|d| d.pc).collect();
        let mut sorted = pcs.clone();
        sorted.sort_by_key(|pc| pc.unwrap_or(usize::MAX));
        assert_eq!(pcs, sorted);
    }
}
