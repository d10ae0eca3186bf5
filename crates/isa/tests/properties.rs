//! Randomized property tests for the ISA layer: the SIMT stack conserves
//! lanes for arbitrary structured programs, the assembler round-trips
//! arbitrary instruction sequences, the warp step agrees with a per-lane
//! scalar model, and ALU semantics obey algebraic laws. Driven by the
//! workspace's deterministic [`vt_prng::Prng`] so the cases are
//! reproducible and the build stays offline.

use vt_isa::asm::{assemble_program, disassemble};
use vt_isa::exec::{self, eval_alu, ThreadCtx};
use vt_isa::interp::Interpreter;
use vt_isa::kernel::MemImage;
use vt_isa::op::{AluOp, AtomOp, BranchIf, MemSpace, Operand, Reg, SfuOp, Sreg};
use vt_isa::step::{step_warp, Access, AccessKind, Effect, WarpCtx};
use vt_isa::{Instr, KernelBuilder, Program, SimtStack};
use vt_prng::Prng;

// ---------- lane conservation through arbitrary structured control flow ----

/// A recipe for a random structured program.
#[derive(Debug, Clone)]
enum Ctl {
    Work(u8),
    If(Vec<Ctl>),
    IfElse(Vec<Ctl>, Vec<Ctl>),
    Loop(u8, Vec<Ctl>),
}

fn gen_ctl(r: &mut Prng, depth: u32) -> Ctl {
    let leaf = depth == 0 || r.gen_bool(0.4);
    if leaf {
        return Ctl::Work(r.gen_range(0..4) as u8);
    }
    let children = |r: &mut Prng| -> Vec<Ctl> {
        (0..r.gen_range(0..3))
            .map(|_| gen_ctl(r, depth - 1))
            .collect()
    };
    match r.gen_range(0..3) {
        0 => Ctl::If(children(r)),
        1 => {
            let t = children(r);
            let e = children(r);
            Ctl::IfElse(t, e)
        }
        _ => Ctl::Loop(r.gen_range(1..4) as u8, children(r)),
    }
}

fn emit(b: &mut KernelBuilder, node: &Ctl, acc: Reg, p: Reg, salt: &mut u32) {
    *salt = salt.wrapping_mul(1664525).wrapping_add(1013904223);
    match node {
        Ctl::Work(n) => {
            for _ in 0..*n {
                b.add(acc, Operand::Reg(acc), Operand::Imm(*salt & 0xff));
            }
        }
        Ctl::If(body) => {
            b.and_(p, Operand::Sreg(Sreg::Tid), Operand::Imm(1 + (*salt & 7)));
            let mut s = *salt;
            b.if_(Operand::Reg(p), |b| {
                for n in body {
                    emit(b, n, acc, p, &mut s);
                }
            });
        }
        Ctl::IfElse(t, e) => {
            b.and_(p, Operand::Sreg(Sreg::Tid), Operand::Imm(1 + (*salt & 7)));
            let mut s = *salt;
            let mut s2 = salt.wrapping_add(99);
            b.if_else(
                Operand::Reg(p),
                |b| {
                    for n in t {
                        emit(b, n, acc, p, &mut s);
                    }
                },
                |b| {
                    for n in e {
                        emit(b, n, acc, p, &mut s2);
                    }
                },
            );
        }
        Ctl::Loop(trips, body) => {
            let ctr = b.reg();
            // Trip count varies per thread (tid-dependent) to force
            // loop-exit divergence.
            let lim = b.reg();
            b.and_(
                lim,
                Operand::Sreg(Sreg::Tid),
                Operand::Imm(u32::from(*trips)),
            );
            let mut s = *salt;
            b.for_range(ctr, Operand::Imm(0), Operand::Reg(lim), 1, |b, _| {
                for n in body {
                    emit(b, n, acc, p, &mut s);
                }
            });
        }
    }
}

/// Every thread must complete and write its result exactly once, no
/// matter how control flow nests: the SIMT stack never strands or
/// duplicates lanes.
#[test]
fn structured_programs_conserve_lanes() {
    let mut r = Prng::new(0x1a4e5);
    for case in 0..48 {
        let nodes: Vec<Ctl> = (0..r.gen_range(1..5)).map(|_| gen_ctl(&mut r, 3)).collect();
        let threads = *r.choose(&[32u32, 40, 64]);
        let mut b = KernelBuilder::new("lanes");
        let out = b.alloc_global(threads as usize);
        let acc = b.reg();
        let p = b.reg();
        let off = b.reg();
        b.mov(acc, Operand::Imm(1));
        let mut salt = 0x9e3779b9u32;
        for n in &nodes {
            emit(&mut b, n, acc, p, &mut salt);
        }
        // acc >= 1 always; out[tid] = acc marks the lane as completed.
        b.max_(acc, Operand::Reg(acc), Operand::Imm(1));
        b.shl(off, Operand::Sreg(Sreg::Tid), Operand::Imm(2));
        b.st_global(Operand::Reg(off), out as i32, Operand::Reg(acc));
        let kernel = b.build(1, threads).unwrap();
        let rep = Interpreter::new(&kernel).unwrap().run().unwrap();
        for t in 0..threads {
            assert!(
                rep.load_words(out + 4 * t, 1)[0] >= 1,
                "case {case}: thread {t} never reached the epilogue\n{nodes:?}"
            );
        }
        assert!(
            rep.max_simt_depth() <= 2 * 3 * 5 + 1,
            "case {case}: stack stays bounded"
        );
    }
}

// ---------- assembler round trip ------------------------------------------

fn gen_operand(r: &mut Prng) -> Operand {
    match r.gen_range(0..3) {
        0 => Operand::Reg(Reg(r.gen_range(0..32) as u16)),
        1 => Operand::Imm(r.next_u32()),
        _ => Operand::Sreg(*r.choose(&[
            Sreg::Tid,
            Sreg::CtaId,
            Sreg::NTid,
            Sreg::NCta,
            Sreg::Lane,
            Sreg::WarpId,
        ])),
    }
}

fn gen_reg(r: &mut Prng) -> Reg {
    Reg(r.gen_range(0..32) as u16)
}

fn gen_offset(r: &mut Prng) -> i32 {
    r.gen_range(0..128) as i32 - 64
}

fn gen_instr(r: &mut Prng) -> Instr {
    let space = |r: &mut Prng| *r.choose(&[MemSpace::Global, MemSpace::Shared]);
    match r.gen_range(0..11) {
        0 => {
            let op = *r.choose(AluOp::ALL);
            let b = match op {
                // Unary forms print without the second operand; normalise it.
                AluOp::Mov | AluOp::U2F | AluOp::F2U => Operand::Imm(0),
                _ => gen_operand(r),
            };
            Instr::Alu {
                op,
                dst: gen_reg(r),
                a: gen_operand(r),
                b,
            }
        }
        1 => Instr::Mad {
            dst: gen_reg(r),
            a: gen_operand(r),
            b: gen_operand(r),
            c: gen_operand(r),
        },
        2 => Instr::Ffma {
            dst: gen_reg(r),
            a: gen_operand(r),
            b: gen_operand(r),
            c: gen_operand(r),
        },
        3 => Instr::Sfu {
            op: *r.choose(SfuOp::ALL),
            dst: gen_reg(r),
            a: gen_operand(r),
        },
        4 => Instr::Ld {
            space: space(r),
            dst: gen_reg(r),
            addr: gen_operand(r),
            offset: gen_offset(r),
        },
        5 => Instr::St {
            space: space(r),
            addr: gen_operand(r),
            offset: gen_offset(r),
            src: gen_operand(r),
        },
        6 => Instr::Atom {
            op: *r.choose(&[AtomOp::Add, AtomOp::Max, AtomOp::Min, AtomOp::Exch]),
            dst: if r.gen_bool(0.5) {
                Some(gen_reg(r))
            } else {
                None
            },
            addr: gen_operand(r),
            offset: gen_offset(r),
            val: gen_operand(r),
        },
        7 => Instr::Bar,
        8 => Instr::Bra {
            target: r.gen_range_usize(0..100),
        },
        9 => Instr::BraCond {
            pred: gen_operand(r),
            when: *r.choose(&[BranchIf::NonZero, BranchIf::Zero]),
            target: 50,
            reconv: 60,
        },
        _ => Instr::Exit,
    }
}

#[test]
fn disassembly_reassembles_identically() {
    let mut r = Prng::new(0x5eed);
    for _ in 0..64 {
        let n = r.gen_range_usize(1..30);
        let instrs: Vec<Instr> = (0..n).map(|_| gen_instr(&mut r)).collect();
        let program = Program::new(instrs);
        let text = disassemble(&program);
        let back =
            assemble_program(&text).unwrap_or_else(|e| panic!("reassembly failed: {e}\n{text}"));
        assert_eq!(program, back, "{text}");
    }
}

// ---------- the warp step against a per-lane scalar model -----------------

const IMAGE_WORDS: u32 = 256;
const SMEM_WORDS: u32 = 64;

/// A random instruction the step evaluates lane by lane (no barrier,
/// jump or exit), with its memory address made valid on every lane:
/// aligned and inside its space, where an address register gets its
/// row in `regs` rewritten.
fn gen_step_instr(r: &mut Prng, regs: &mut [u32]) -> Instr {
    let mut valid = |r: &mut Prng, space: MemSpace, addr: &mut Operand, offset: &mut i32| {
        let words = if space == MemSpace::Global {
            IMAGE_WORDS
        } else {
            SMEM_WORDS
        };
        // 8 words of slack either side absorb the offset.
        let base = |r: &mut Prng| 4 * r.gen_range(8..words - 8);
        *offset = 4 * (r.gen_range(0..17) as i32 - 8);
        *addr = if r.gen_bool(0.3) {
            Operand::Imm(base(r))
        } else {
            let reg = gen_reg(r);
            for word in &mut regs[32 * usize::from(reg.0)..][..32] {
                *word = base(r);
            }
            Operand::Reg(reg)
        };
    };
    loop {
        let mut instr = gen_instr(r);
        match &mut instr {
            Instr::Ld {
                space,
                addr,
                offset,
                ..
            }
            | Instr::St {
                space,
                addr,
                offset,
                ..
            } => valid(r, *space, addr, offset),
            Instr::Atom { addr, offset, .. } => valid(r, MemSpace::Global, addr, offset),
            Instr::Bar | Instr::Bra { .. } | Instr::Exit => continue,
            _ => {}
        }
        return instr;
    }
}

/// What the step must do, computed one active lane at a time, in lane
/// order, from each lane's own register frame with [`exec::resolve`] and
/// the scalar evaluators: the expected registers and memory are updated
/// in place, and the lanes' addresses and taken branch returned.
fn scalar_model(
    instr: &Instr,
    mask: u32,
    lane0: ThreadCtx,
    regs: &mut [u32],
    image: &mut [u32],
    smem: &mut [u32],
) -> ([u32; 32], u32) {
    let (mut addrs, mut taken) = ([0u32; 32], 0u32);
    for lane in (0..32).filter(|l| mask >> l & 1 != 0) {
        let mut frame: Vec<u32> = (0..32).map(|reg| regs[32 * reg + lane]).collect();
        let ctx = ThreadCtx {
            tid: lane0.tid + lane as u32,
            ..lane0
        };
        let v = |op: Operand, frame: &[u32]| exec::resolve(op, frame, &ctx);
        let mut at = |addr: Operand, offset: i32, frame: &[u32]| {
            addrs[lane] = v(addr, frame).wrapping_add(offset as u32);
            (addrs[lane] / 4) as usize
        };
        match *instr {
            Instr::Alu { op, dst, a, b } => {
                frame[usize::from(dst.0)] = exec::eval_alu(op, v(a, &frame), v(b, &frame));
            }
            Instr::Mad { dst, a, b, c } => {
                frame[usize::from(dst.0)] =
                    exec::eval_mad(v(a, &frame), v(b, &frame), v(c, &frame));
            }
            Instr::Ffma { dst, a, b, c } => {
                frame[usize::from(dst.0)] =
                    exec::eval_ffma(v(a, &frame), v(b, &frame), v(c, &frame));
            }
            Instr::Sfu { op, dst, a } => {
                frame[usize::from(dst.0)] = exec::eval_sfu(op, v(a, &frame))
            }
            Instr::Ld {
                space,
                dst,
                addr,
                offset,
            } => {
                let mem: &[u32] = if space == MemSpace::Global {
                    image
                } else {
                    smem
                };
                frame[usize::from(dst.0)] = mem[at(addr, offset, &frame)];
            }
            Instr::St {
                space,
                addr,
                offset,
                src,
            } => {
                let mem = if space == MemSpace::Global {
                    &mut *image
                } else {
                    &mut *smem
                };
                mem[at(addr, offset, &frame)] = v(src, &frame);
            }
            Instr::Atom {
                op,
                dst,
                addr,
                offset,
                val,
            } => {
                let word = &mut image[at(addr, offset, &frame)];
                let old = *word;
                *word = exec::eval_atom(op, old, v(val, &frame));
                if let Some(d) = dst {
                    frame[usize::from(d.0)] = old;
                }
            }
            Instr::BraCond { pred, when, .. } => {
                let nonzero = v(pred, &frame) != 0;
                if nonzero == (when == BranchIf::NonZero) {
                    taken |= 1 << lane;
                }
            }
            Instr::Bar | Instr::Bra { .. } | Instr::Exit => unreachable!("not generated"),
        }
        for (reg, &value) in frame.iter().enumerate() {
            regs[32 * reg + lane] = value;
        }
    }
    (addrs, taken)
}

/// `step_warp` on random instructions, registers, partial masks and CTA
/// positions equals the scalar model: active lanes get the scalar
/// values, inactive lanes and other registers keep theirs, memory ends
/// the same, every active lane's address is `resolve(addr) + offset`,
/// and a branch's taken mask is the lanes whose predicate held.
#[test]
fn warp_step_matches_a_per_lane_scalar_model() {
    let mut r = Prng::new(0x57e9);
    for case in 0..3000 {
        let mut regs: Vec<u32> = (0..32 * 32)
            .map(|_| match r.gen_range(0..3) {
                0 => r.gen_range(0..2),
                1 => r.gen_f32().to_bits(),
                _ => r.next_u32(),
            })
            .collect();
        let instr = gen_step_instr(&mut r, &mut regs);
        let mask = match r.gen_range(0..3) {
            0 => u32::MAX,
            1 => 1 << r.gen_range(0..32),
            _ => r.next_u32().max(1),
        };
        let warp = r.gen_range(0..8);
        let ncta = r.gen_range(1..100);
        let lane0 = ThreadCtx {
            tid: 32 * warp,
            ctaid: r.gen_range(0..ncta),
            ntid: 32 * (warp + r.gen_range(1..4)),
            ncta,
        };
        let image: Vec<u32> = (0..IMAGE_WORDS).map(|_| r.next_u32()).collect();
        let smem: Vec<u32> = (0..SMEM_WORDS).map(|_| r.next_u32()).collect();

        let (mut want_regs, mut want_image, mut want_smem) =
            (regs.clone(), image.clone(), smem.clone());
        let (addrs, taken) = scalar_model(
            &instr,
            mask,
            lane0,
            &mut want_regs,
            &mut want_image,
            &mut want_smem,
        );

        let mut stack = SimtStack::new(mask);
        let mut got_image = MemImage::from_words(image);
        let mut got_smem = smem;
        let mut warp = WarpCtx {
            regs: &mut regs,
            stack: &mut stack,
            lane0,
        };
        let effect = step_warp(&instr, &mut warp, &mut got_image, &mut got_smem)
            .unwrap_or_else(|e| panic!("case {case}: {instr:?} trapped: {e}"));
        let what = format!("case {case}: {instr:?} on mask {mask:#x}");
        assert_eq!(regs, want_regs, "{what}: registers");
        assert_eq!(got_image.as_words(), &want_image[..], "{what}: image");
        assert_eq!(got_smem, want_smem, "{what}: shared memory");

        let mem = |space, kind, dst| {
            Effect::Mem(Access {
                space,
                kind,
                dst,
                addrs,
                mask,
            })
        };
        let want = match instr {
            Instr::Alu { dst, .. }
            | Instr::Mad { dst, .. }
            | Instr::Ffma { dst, .. }
            | Instr::Sfu { dst, .. } => Effect::Alu { dst },
            Instr::Ld { space, dst, .. } => mem(space, AccessKind::Load, Some(dst)),
            Instr::St { space, .. } => mem(space, AccessKind::Store, None),
            Instr::Atom { dst, .. } => mem(MemSpace::Global, AccessKind::Atomic, dst),
            _ => Effect::Branch {
                taken,
                divergent: taken != 0 && taken != mask,
            },
        };
        assert_eq!(effect, want, "{what}: effect");
        if let Instr::BraCond { target, .. } = instr {
            let (pc, active) = if taken == 0 {
                (1, mask)
            } else {
                (target, taken)
            };
            assert_eq!(
                (stack.pc(), stack.active_mask()),
                (pc, active),
                "{what}: stack"
            );
        } else {
            assert_eq!(
                (stack.pc(), stack.active_mask()),
                (1, mask),
                "{what}: stack"
            );
        }
    }
}

// ---------- ALU algebra -----------------------------------------------------

#[test]
fn commutative_ops() {
    let mut r = Prng::new(1);
    for _ in 0..256 {
        let (a, b) = (r.next_u32(), r.next_u32());
        for op in [
            AluOp::Add,
            AluOp::Mul,
            AluOp::Min,
            AluOp::Max,
            AluOp::And,
            AluOp::Or,
            AluOp::Xor,
            AluOp::MulHi,
        ] {
            assert_eq!(eval_alu(op, a, b), eval_alu(op, b, a), "{op:?}");
        }
    }
}

#[test]
fn identities() {
    let mut r = Prng::new(2);
    for _ in 0..256 {
        let a = r.next_u32();
        assert_eq!(eval_alu(AluOp::Add, a, 0), a);
        assert_eq!(eval_alu(AluOp::Mul, a, 1), a);
        assert_eq!(eval_alu(AluOp::Or, a, 0), a);
        assert_eq!(eval_alu(AluOp::And, a, u32::MAX), a);
        assert_eq!(eval_alu(AluOp::Xor, a, a), 0);
        assert_eq!(eval_alu(AluOp::Sub, a, a), 0);
        assert_eq!(eval_alu(AluOp::Mov, a, 12345), a);
    }
}

#[test]
fn comparisons_are_consistent() {
    let mut r = Prng::new(3);
    for i in 0..256 {
        // Mix fully random pairs with equal pairs so SetEq/SetNe see both.
        let a = r.next_u32();
        let b = if i % 4 == 0 { a } else { r.next_u32() };
        let lt = eval_alu(AluOp::SetLt, a, b);
        let ge = eval_alu(AluOp::SetGe, a, b);
        assert_eq!(lt ^ ge, 1, "lt and ge partition");
        let eq = eval_alu(AluOp::SetEq, a, b);
        let ne = eval_alu(AluOp::SetNe, a, b);
        assert_eq!(eq ^ ne, 1);
        assert_eq!(eval_alu(AluOp::SetGt, a, b), eval_alu(AluOp::SetLt, b, a));
    }
}

#[test]
fn div_rem_reconstruct() {
    let mut r = Prng::new(4);
    for _ in 0..256 {
        let a = r.next_u32();
        let b = r.next_u32().max(1);
        let q = eval_alu(AluOp::Div, a, b);
        let rem = eval_alu(AluOp::Rem, a, b);
        assert_eq!(q.wrapping_mul(b).wrapping_add(rem), a);
        assert!(rem < b);
    }
}
