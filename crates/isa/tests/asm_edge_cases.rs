//! Assembler edge cases: directive handling, operand forms, failure
//! modes and their diagnostics.

use vt_isa::asm::{assemble, assemble_program, disassemble};
use vt_isa::error::IsaError;
use vt_isa::interp::Interpreter;
use vt_isa::op::{MemSpace, Operand, Sreg};
use vt_isa::Instr;

#[test]
fn full_kernel_with_all_directives() {
    let k = assemble(
        r"
        .kernel full
        .grid 3 96
        .regs 24
        .smem 1024
        .globalmem 2048
        mov r0, %tid
        st.s [r0+0], r0
        bar
        exit
        ",
    )
    .unwrap();
    assert_eq!(k.name(), "full");
    assert_eq!(k.num_ctas(), 3);
    assert_eq!(k.threads_per_cta(), 96);
    assert_eq!(k.regs_per_thread(), 24, ".regs floor wins over inferred 1");
    assert_eq!(k.smem_bytes_per_cta(), 1024);
    assert_eq!(k.global_mem().word_len(), 2048);
    // Unaligned shared store would trap: tid*1 is not a multiple of 4 for
    // tid=1... so scale: actually st.s [r0+0] with r0 = tid traps. Verify
    // the trap is reported rather than silently mis-executing.
    let err = Interpreter::new(&k).unwrap().run().unwrap_err();
    assert!(matches!(err, IsaError::Exec(_)));
}

#[test]
fn inferred_register_count_covers_highest_index() {
    let k = assemble(".grid 1 32\nmov r17, 5\nexit").unwrap();
    assert_eq!(k.regs_per_thread(), 18);
}

#[test]
fn whitespace_and_comments_are_tolerated() {
    let p = assemble_program("   ; leading comment\n\n  mov r0, 1   ; trailing\n\t exit ;done\n\n")
        .unwrap();
    assert_eq!(p.len(), 2);
}

#[test]
fn every_special_register_parses() {
    for (txt, sreg) in [
        ("%tid", Sreg::Tid),
        ("%ctaid", Sreg::CtaId),
        ("%ntid", Sreg::NTid),
        ("%ncta", Sreg::NCta),
        ("%lane", Sreg::Lane),
        ("%warpid", Sreg::WarpId),
    ] {
        let p = assemble_program(&format!("mov r0, {txt}")).unwrap();
        match *p.fetch(0) {
            Instr::Alu {
                a: Operand::Sreg(s),
                ..
            } => assert_eq!(s, sreg),
            ref o => panic!("unexpected {o}"),
        }
    }
}

#[test]
fn address_forms() {
    let p = assemble_program(
        "ld.g r0, [r1]\nld.g r0, [r1+0]\nld.g r0, [r1-4]\nld.s r0, [%tid+8]\nld.g r0, [256+12]",
    )
    .unwrap();
    let offsets: Vec<i32> = p
        .instrs()
        .iter()
        .map(|i| match *i {
            Instr::Ld { offset, .. } => offset,
            _ => panic!(),
        })
        .collect();
    assert_eq!(offsets, vec![0, 0, -4, 8, 12]);
    match *p.fetch(4) {
        Instr::Ld {
            addr: Operand::Imm(256),
            space: MemSpace::Global,
            ..
        } => {}
        ref o => panic!("unexpected {o}"),
    }
}

#[test]
fn error_diagnostics_are_specific() {
    let cases = [
        ("mov r0", "expects 2 operands"),
        ("bra top", "expected @target"),
        ("brc.nz r0, @a", "expects 3 operands"),
        ("ld.g r0, r1", "expected [addr]"),
        ("st.g [r0+z], r1", "bad offset"),
        ("mov rx, 1", "expected register"),
        ("mov r0, %bogus", "unknown special register"),
        ("atom.bogus.g [r0+0], r1", "unknown atomic"),
        ("frobnicate r1, r2", "unknown mnemonic"),
        ("mov r0, 0xzz", "bad operand"),
    ];
    for (src, needle) in cases {
        let e = assemble_program(src).unwrap_err();
        assert!(
            e.message.contains(needle),
            "`{src}` → `{}` (wanted `{needle}`)",
            e.message
        );
        assert_eq!(e.line, 1);
    }
}

#[test]
fn directive_errors() {
    for (src, needle) in [
        (".grid 4", ".grid needs threads per CTA"),
        (".regs", ".regs needs a count"),
        (".kernel", ".kernel needs a name"),
        (".smem xyz", "bad number"),
        // Counts refuse a sign, a float and a value past u32::MAX; none
        // wraps into a size.
        (".globalmem -76", "bad number `-76`"),
        (".grid -1 32", "bad number `-1`"),
        (".grid 4 +32", "bad number `+32`"),
        (".smem -4", "bad number `-4`"),
        (".smem 0x-4", "bad number `0x-4`"),
        (".smem 1.0f", "bad number `1.0f`"),
        (".grid 4294967296 32", "bad number `4294967296`"),
        (".regs 65537", ".regs 65537 is more than 65535"),
        (
            ".globalmem 16777217",
            ".globalmem 16777217 is more than 16777216 words",
        ),
        (".globalmem 0xffffffff", "is more than 16777216 words"),
        // Every other count that sizes an allocation is bounded too.
        (
            ".smem 0xffffffff",
            ".smem 4294967295 is more than 16777216 words",
        ),
        (".grid 1 65537", "65537 threads per CTA is more than 65536"),
        (
            ".grid 1 1024\n.regs 20000\nexit",
            "a CTA's register file (20000 registers per thread)",
        ),
        ("mov r65535, 1\nexit", "r65535 is past the last register"),
    ] {
        match assemble(src).unwrap_err() {
            IsaError::Asm(e) => assert!(e.message.contains(needle), "`{src}` → `{}`", e.message),
            other => panic!("unexpected error {other}"),
        }
    }
}

#[test]
fn directive_counts_at_their_bounds_are_accepted() {
    let k = assemble(".grid 0x2 32\n.regs 65535\n.globalmem 16777216\nexit").unwrap();
    assert_eq!((k.num_ctas(), k.regs_per_thread()), (2, 65535));
    assert_eq!(k.global_mem().word_len(), vt_isa::MAX_GLOBAL_WORDS);
}

#[test]
fn labels_at_program_end_resolve() {
    // A loop whose exit label is the trailing `exit`.
    let p = assemble_program(
        r"
        mov r0, 3
        @top:
        sub r0, r0, 1
        brc.nz r0, @again, @done
        @again:
        bra @top
        @done:
        exit
        ",
    )
    .unwrap();
    assert_eq!(p.len(), 5);
    match *p.fetch(2) {
        Instr::BraCond {
            target: 3,
            reconv: 4,
            ..
        } => {}
        ref o => panic!("unexpected {o}"),
    }
}

#[test]
fn validation_failure_surfaces_through_assemble() {
    // Backward divergent branch: parses, fails validation in Kernel::new.
    let err = assemble(
        r"
        .grid 1 32
        @top:
        mov r0, 1
        brc.nz r0, @top, @top
        exit
        ",
    )
    .unwrap_err();
    assert!(matches!(err, IsaError::Program(_)), "got {err}");
}

#[test]
fn display_of_every_instruction_form_reassembles() {
    let src = r"
        mov r0, %ncta
        u2f r1, r0
        f2u r2, r1
        mulhi r3, r0, r2
        set.ges r4, r3, r0
        fset.le r5, r1, r1
        fmin r6, r1, r1
        mad r7, r0, r0, r0
        ffma r8, r1, r1, r1
        rsqrt r9, r1
        log2 r10, r1
        sin r11, r1
        atom.min.g [r0+0], r1
        atom.exch.g r12, [r0+4], r2
        st.s [r0-8], r3
        bar
        exit
    ";
    let p1 = assemble_program(src).unwrap();
    let p2 = assemble_program(&disassemble(&p1)).unwrap();
    assert_eq!(p1, p2);
}
