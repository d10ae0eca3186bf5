//! Text assembler and disassembler for the mini-ISA.
//!
//! The textual syntax is exactly what [`crate::instr::Instr`]'s `Display`
//! implementation prints, so `assemble(disassemble(p)) == p` — a property
//! the test suite checks for arbitrary programs.
//!
//! # Syntax
//!
//! ```text
//! ; a comment
//! .kernel saxpy        ; optional kernel name
//! .grid 16 128         ; CTAs, threads per CTA (default 1 32)
//! .regs 24             ; register-footprint floor (default: inferred)
//! .smem 2048           ; shared-memory bytes per CTA (default 0)
//! .globalmem 4096      ; global memory words, zero-initialised (default 0)
//!
//! A directive's numbers are counts: unsigned decimal or `0x` hex, with
//! no sign. What they size is bounded: `.regs` by 65535, a CTA's threads
//! by [`MAX_CTA_THREADS`], and the global image, a CTA's shared memory and
//! a CTA's register file (whole warps × registers) each by
//! [`MAX_GLOBAL_WORDS`] words.
//!
//! @top:
//!     mad r0, %ctaid, %ntid, %tid
//!     shl r0, r0, 2
//!     ld.g r1, [r0+0]
//!     fadd r1, r1, 1.0f
//!     st.g [r0+0], r1
//!     brc.nz r1, @top, @done
//! @done:
//!     exit
//! ```
//!
//! Branch targets may be `@label` references or `@<pc>` absolute indices
//! (the form the disassembler emits).

use crate::error::{AsmError, IsaError};
use crate::instr::Instr;
use crate::kernel::{Kernel, MemImage, MAX_CTA_THREADS, MAX_GLOBAL_WORDS};
use crate::op::{AluOp, AtomOp, BranchIf, MemSpace, Operand, Reg, SfuOp, Sreg};
use crate::program::Program;
use crate::WARP_SIZE;
use std::collections::HashMap;

/// Assembles a full kernel, honouring the `.kernel`, `.grid`, `.regs`,
/// `.smem` and `.globalmem` directives.
///
/// # Errors
///
/// Returns [`IsaError::Asm`] on a syntax error and [`IsaError::Program`]
/// if the assembled program fails validation.
pub fn assemble(src: &str) -> Result<Kernel, IsaError> {
    let parsed = parse(src)?;
    let kernel = Kernel::new(
        parsed.name.unwrap_or_else(|| "kernel".to_string()),
        Program::new(parsed.instrs),
        parsed.grid.0,
        parsed.grid.1,
        parsed.regs,
        parsed.smem,
        MemImage::zeroed(parsed.global_words),
    )?;
    Ok(kernel)
}

/// Assembles only the instruction stream, ignoring directives. Useful for
/// program fragments in tests.
///
/// # Errors
///
/// Returns [`AsmError`] on any syntax error.
pub fn assemble_program(src: &str) -> Result<Program, AsmError> {
    Ok(Program::new(parse(src)?.instrs))
}

/// Renders a program in assembler syntax, one instruction per line with
/// absolute `@pc` branch targets.
pub fn disassemble(program: &Program) -> String {
    let mut out = String::new();
    for (_, i) in program.iter() {
        out.push_str(&i.to_string());
        out.push('\n');
    }
    out
}

struct Parsed {
    name: Option<String>,
    grid: (u32, u32),
    /// Registers per thread: the `.regs` floor, raised to cover every
    /// register the program names.
    regs: u16,
    smem: u32,
    global_words: usize,
    instrs: Vec<Instr>,
}

fn parse(src: &str) -> Result<Parsed, AsmError> {
    // Pass 1: strip comments, gather labels and instruction lines.
    let mut labels: HashMap<String, usize> = HashMap::new();
    let mut lines: Vec<(usize, String)> = Vec::new(); // (source line, text)
    let mut directives: Vec<(usize, String)> = Vec::new();
    let mut pc = 0usize;
    for (ln, raw) in src.lines().enumerate() {
        let line = raw.split(';').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let lineno = ln + 1;
        if let Some(rest) = line.strip_prefix('@') {
            if let Some(label) = rest.strip_suffix(':') {
                let label = label.trim();
                if label.is_empty() {
                    return err(lineno, "empty label");
                }
                if labels.insert(label.to_string(), pc).is_some() {
                    return err(lineno, format!("duplicate label @{label}"));
                }
                continue;
            }
        }
        if line.starts_with('.') {
            directives.push((lineno, line.to_string()));
            continue;
        }
        lines.push((lineno, line.to_string()));
        pc += 1;
    }

    let mut parsed = Parsed {
        name: None,
        grid: (1, 32),
        regs: 1,
        smem: 0,
        global_words: 0,
        instrs: Vec::with_capacity(lines.len()),
    };
    // The `.grid` line, where an oversized register file is reported.
    let mut grid_line = 1;
    let words = |n: u64, what: &str, line: usize| {
        if n <= MAX_GLOBAL_WORDS as u64 {
            Ok(n as usize)
        } else {
            err(
                line,
                format!("{what} is more than {MAX_GLOBAL_WORDS} words"),
            )
        }
    };

    for (lineno, d) in directives {
        let mut it = d.split_whitespace();
        let head = it.next().unwrap_or("");
        match head {
            ".kernel" => {
                parsed.name = Some(
                    it.next()
                        .ok_or_else(|| err_val(lineno, ".kernel needs a name"))?
                        .to_string(),
                );
            }
            ".grid" => {
                let nc = parse_count(it.next(), lineno, ".grid needs CTA count")?;
                let nt = parse_count(it.next(), lineno, ".grid needs threads per CTA")?;
                if nt > MAX_CTA_THREADS {
                    return err(
                        lineno,
                        format!(".grid: {nt} threads per CTA is more than {MAX_CTA_THREADS}"),
                    );
                }
                parsed.grid = (nc, nt);
                grid_line = lineno;
            }
            ".regs" => {
                let n = parse_count(it.next(), lineno, ".regs needs a count")?;
                let regs = u16::try_from(n)
                    .map_err(|_| err_val(lineno, format!(".regs {n} is more than 65535")))?;
                parsed.regs = regs.max(1);
            }
            ".smem" => {
                let n = parse_count(it.next(), lineno, ".smem needs bytes")?;
                words(u64::from(n.div_ceil(4)), &format!(".smem {n}"), lineno)?;
                parsed.smem = n;
            }
            ".globalmem" => {
                let n = parse_count(it.next(), lineno, ".globalmem needs words")?;
                parsed.global_words = words(u64::from(n), &format!(".globalmem {n}"), lineno)?;
            }
            other => return err(lineno, format!("unknown directive {other}")),
        }
    }

    // Pass 2: parse instructions; registers per thread cover every
    // register named, and r65535 would need one more than a count holds.
    for (lineno, line) in lines {
        let instr = parse_instr(&line, lineno, &labels)?;
        for r in instr.dst().into_iter().chain(instr.src_regs()) {
            let needed = r.0.checked_add(1).ok_or_else(|| {
                err_val(
                    lineno,
                    format!("r{} is past the last register, r65534", r.0),
                )
            })?;
            parsed.regs = parsed.regs.max(needed);
        }
        parsed.instrs.push(instr);
    }
    let warps = u64::from(parsed.grid.1.div_ceil(WARP_SIZE));
    let regfile = warps * u64::from(WARP_SIZE) * u64::from(parsed.regs);
    let what = format!(
        "a CTA's register file ({} registers per thread)",
        parsed.regs
    );
    words(regfile, &what, grid_line)?;
    Ok(parsed)
}

fn err<T>(line: usize, message: impl Into<String>) -> Result<T, AsmError> {
    Err(AsmError {
        line,
        message: message.into(),
    })
}

fn err_val(line: usize, message: impl Into<String>) -> AsmError {
    AsmError {
        line,
        message: message.into(),
    }
}

/// A directive's count: unsigned decimal or `0x` hex. A sign, a float or
/// a value past `u32::MAX` is refused, never wrapped.
fn parse_count(tok: Option<&str>, line: usize, msg: &str) -> Result<u32, AsmError> {
    let t = tok.ok_or_else(|| err_val(line, msg))?;
    let n = match t.strip_prefix("0x").or_else(|| t.strip_prefix("0X")) {
        Some(hex) if hex.bytes().all(|b| b.is_ascii_hexdigit()) => {
            u32::from_str_radix(hex, 16).ok()
        }
        None if t.bytes().all(|b| b.is_ascii_digit()) => t.parse().ok(),
        _ => None,
    };
    n.ok_or_else(|| {
        err_val(
            line,
            format!("bad number `{t}`: expected an unsigned count"),
        )
    })
}

fn parse_imm(t: &str) -> Option<u32> {
    if let Some(hex) = t.strip_prefix("0x").or_else(|| t.strip_prefix("0X")) {
        return u32::from_str_radix(hex, 16).ok();
    }
    if let Some(fl) = t.strip_suffix('f') {
        return fl.parse::<f32>().ok().map(f32::to_bits);
    }
    if let Some(neg) = t.strip_prefix('-') {
        return neg.parse::<u32>().ok().map(u32::wrapping_neg);
    }
    t.parse::<u32>().ok()
}

fn parse_reg(t: &str, line: usize) -> Result<Reg, AsmError> {
    t.strip_prefix('r')
        .and_then(|n| n.parse::<u16>().ok())
        .map(Reg)
        .ok_or_else(|| err_val(line, format!("expected register, got `{t}`")))
}

fn parse_operand(t: &str, line: usize) -> Result<Operand, AsmError> {
    if let Some(s) = t.strip_prefix('%') {
        let sreg = match s {
            "tid" => Sreg::Tid,
            "ctaid" => Sreg::CtaId,
            "ntid" => Sreg::NTid,
            "ncta" => Sreg::NCta,
            "lane" => Sreg::Lane,
            "warpid" => Sreg::WarpId,
            other => return err(line, format!("unknown special register %{other}")),
        };
        return Ok(Operand::Sreg(sreg));
    }
    if t.starts_with('r') && t[1..].chars().all(|c| c.is_ascii_digit()) && t.len() > 1 {
        return Ok(Operand::Reg(parse_reg(t, line)?));
    }
    parse_imm(t)
        .map(Operand::Imm)
        .ok_or_else(|| err_val(line, format!("bad operand `{t}`")))
}

/// Parses `[base+off]` / `[base-off]` / `[base]`.
fn parse_addr(t: &str, line: usize) -> Result<(Operand, i32), AsmError> {
    let inner = t
        .strip_prefix('[')
        .and_then(|s| s.strip_suffix(']'))
        .ok_or_else(|| err_val(line, format!("expected [addr], got `{t}`")))?;
    // Find a +/- separating base from offset (not a leading sign).
    let mut split_at = None;
    for (i, c) in inner.char_indices().skip(1) {
        if c == '+' || c == '-' {
            split_at = Some(i);
            break;
        }
    }
    match split_at {
        Some(i) => {
            let base = parse_operand(inner[..i].trim(), line)?;
            let off_str = inner[i..].trim();
            let off: i64 = off_str
                .parse()
                .map_err(|_| err_val(line, format!("bad offset `{off_str}`")))?;
            Ok((base, off as i32))
        }
        None => Ok((parse_operand(inner.trim(), line)?, 0)),
    }
}

fn parse_target(t: &str, line: usize, labels: &HashMap<String, usize>) -> Result<usize, AsmError> {
    let name = t
        .strip_prefix('@')
        .ok_or_else(|| err_val(line, format!("expected @target, got `{t}`")))?;
    if let Ok(pc) = name.parse::<usize>() {
        return Ok(pc);
    }
    labels
        .get(name)
        .copied()
        .ok_or_else(|| err_val(line, format!("unknown label @{name}")))
}

fn alu_by_mnemonic(m: &str) -> Option<AluOp> {
    AluOp::ALL.iter().copied().find(|op| op.mnemonic() == m)
}

fn sfu_by_mnemonic(m: &str) -> Option<SfuOp> {
    SfuOp::ALL.iter().copied().find(|op| op.mnemonic() == m)
}

fn parse_instr(
    line: &str,
    lineno: usize,
    labels: &HashMap<String, usize>,
) -> Result<Instr, AsmError> {
    let (mnem, rest) = match line.find(char::is_whitespace) {
        Some(i) => (&line[..i], line[i..].trim()),
        None => (line, ""),
    };
    let args: Vec<&str> = if rest.is_empty() {
        Vec::new()
    } else {
        rest.split(',').map(str::trim).collect()
    };
    let want = |n: usize| -> Result<(), AsmError> {
        if args.len() == n {
            Ok(())
        } else {
            err(
                lineno,
                format!("{mnem} expects {n} operands, got {}", args.len()),
            )
        }
    };

    match mnem {
        "bar" => {
            want(0)?;
            Ok(Instr::Bar)
        }
        "exit" => {
            want(0)?;
            Ok(Instr::Exit)
        }
        "bra" => {
            want(1)?;
            Ok(Instr::Bra {
                target: parse_target(args[0], lineno, labels)?,
            })
        }
        "brc.nz" | "brc.z" => {
            want(3)?;
            Ok(Instr::BraCond {
                pred: parse_operand(args[0], lineno)?,
                when: if mnem == "brc.nz" {
                    BranchIf::NonZero
                } else {
                    BranchIf::Zero
                },
                target: parse_target(args[1], lineno, labels)?,
                reconv: parse_target(args[2], lineno, labels)?,
            })
        }
        "mad" | "ffma" => {
            want(4)?;
            let dst = parse_reg(args[0], lineno)?;
            let a = parse_operand(args[1], lineno)?;
            let b = parse_operand(args[2], lineno)?;
            let c = parse_operand(args[3], lineno)?;
            Ok(if mnem == "mad" {
                Instr::Mad { dst, a, b, c }
            } else {
                Instr::Ffma { dst, a, b, c }
            })
        }
        "ld.g" | "ld.s" => {
            want(2)?;
            let (addr, offset) = parse_addr(args[1], lineno)?;
            Ok(Instr::Ld {
                space: if mnem == "ld.g" {
                    MemSpace::Global
                } else {
                    MemSpace::Shared
                },
                dst: parse_reg(args[0], lineno)?,
                addr,
                offset,
            })
        }
        "st.g" | "st.s" => {
            want(2)?;
            let (addr, offset) = parse_addr(args[0], lineno)?;
            Ok(Instr::St {
                space: if mnem == "st.g" {
                    MemSpace::Global
                } else {
                    MemSpace::Shared
                },
                addr,
                offset,
                src: parse_operand(args[1], lineno)?,
            })
        }
        _ if mnem.starts_with("atom.") => {
            let op_name = mnem.trim_start_matches("atom.").trim_end_matches(".g");
            let op = match op_name {
                "add" => AtomOp::Add,
                "max" => AtomOp::Max,
                "min" => AtomOp::Min,
                "exch" => AtomOp::Exch,
                other => return err(lineno, format!("unknown atomic `{other}`")),
            };
            match args.len() {
                2 => {
                    let (addr, offset) = parse_addr(args[0], lineno)?;
                    Ok(Instr::Atom {
                        op,
                        dst: None,
                        addr,
                        offset,
                        val: parse_operand(args[1], lineno)?,
                    })
                }
                3 => {
                    let (addr, offset) = parse_addr(args[1], lineno)?;
                    Ok(Instr::Atom {
                        op,
                        dst: Some(parse_reg(args[0], lineno)?),
                        addr,
                        offset,
                        val: parse_operand(args[2], lineno)?,
                    })
                }
                n => err(lineno, format!("atom expects 2 or 3 operands, got {n}")),
            }
        }
        _ => {
            if let Some(op) = sfu_by_mnemonic(mnem) {
                want(2)?;
                return Ok(Instr::Sfu {
                    op,
                    dst: parse_reg(args[0], lineno)?,
                    a: parse_operand(args[1], lineno)?,
                });
            }
            if let Some(op) = alu_by_mnemonic(mnem) {
                let unary = matches!(op, AluOp::Mov | AluOp::U2F | AluOp::F2U);
                if unary {
                    want(2)?;
                    return Ok(Instr::Alu {
                        op,
                        dst: parse_reg(args[0], lineno)?,
                        a: parse_operand(args[1], lineno)?,
                        b: Operand::Imm(0),
                    });
                }
                want(3)?;
                return Ok(Instr::Alu {
                    op,
                    dst: parse_reg(args[0], lineno)?,
                    a: parse_operand(args[1], lineno)?,
                    b: parse_operand(args[2], lineno)?,
                });
            }
            err(lineno, format!("unknown mnemonic `{mnem}`"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::Interpreter;

    #[test]
    fn assembles_and_runs_saxpy_like_kernel() {
        let src = r"
            .kernel saxpy
            .grid 2 64
            .globalmem 256
            ; out[gid] = gid * 3
            mad r0, %ctaid, %ntid, %tid
            mul r1, r0, 3
            shl r2, r0, 2
            st.g [r2+0], r1
            exit
        ";
        let k = assemble(src).unwrap();
        assert_eq!(k.name(), "saxpy");
        assert_eq!(k.num_ctas(), 2);
        assert_eq!(k.threads_per_cta(), 64);
        let r = Interpreter::new(&k).unwrap().run().unwrap();
        assert_eq!(r.load_words(4 * 100, 1)[0], 300);
    }

    #[test]
    fn labels_resolve_forward_and_backward() {
        let src = r"
            mov r0, 4
            @top:
            sub r0, r0, 1
            brc.nz r0, @top2, @done
            @top2:
            bra @top
            @done:
            exit
        ";
        let p = assemble_program(src).unwrap();
        assert_eq!(*p.fetch(3), Instr::Bra { target: 1 });
        match *p.fetch(2) {
            Instr::BraCond { target, reconv, .. } => {
                assert_eq!(target, 3);
                assert_eq!(reconv, 4);
            }
            ref o => panic!("unexpected {o}"),
        }
    }

    #[test]
    fn numeric_targets_parse() {
        let p = assemble_program("bra @0").unwrap();
        assert_eq!(*p.fetch(0), Instr::Bra { target: 0 });
    }

    #[test]
    fn float_and_hex_immediates() {
        let p =
            assemble_program("fadd r0, r1, 1.5f\nand r2, r3, 0xff\nadd r0, r0, -1\nexit").unwrap();
        match *p.fetch(0) {
            Instr::Alu {
                b: Operand::Imm(bits),
                ..
            } => {
                assert_eq!(f32::from_bits(bits), 1.5)
            }
            ref o => panic!("unexpected {o}"),
        }
        match *p.fetch(1) {
            Instr::Alu {
                b: Operand::Imm(255),
                ..
            } => {}
            ref o => panic!("unexpected {o}"),
        }
        match *p.fetch(2) {
            Instr::Alu {
                b: Operand::Imm(v), ..
            } => assert_eq!(v, u32::MAX),
            ref o => panic!("unexpected {o}"),
        }
    }

    #[test]
    fn negative_offsets_parse() {
        let p = assemble_program("ld.s r0, [r1-8]").unwrap();
        match *p.fetch(0) {
            Instr::Ld { offset, .. } => assert_eq!(offset, -8),
            ref o => panic!("unexpected {o}"),
        }
    }

    #[test]
    fn atom_forms() {
        let p = assemble_program("atom.add.g r0, [r1+4], 2\natom.max.g [r1+0], r2").unwrap();
        assert!(matches!(
            *p.fetch(0),
            Instr::Atom {
                op: AtomOp::Add,
                dst: Some(Reg(0)),
                ..
            }
        ));
        assert!(matches!(
            *p.fetch(1),
            Instr::Atom {
                op: AtomOp::Max,
                dst: None,
                ..
            }
        ));
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = assemble_program("mov r0, 1\nbogus r1, r2").unwrap_err();
        assert_eq!(e.line, 2);
        let e = assemble_program("bra @missing").unwrap_err();
        assert!(e.message.contains("missing"));
        let e = assemble_program("@dup:\n@dup:\nexit").unwrap_err();
        assert!(e.message.contains("duplicate"));
        let e = assemble_program("add r0, r1").unwrap_err();
        assert!(e.message.contains("expects 3"));
    }

    #[test]
    fn disassemble_then_reassemble_is_identity() {
        let src = r"
            mad r0, %ctaid, %ntid, %tid
            shl r1, r0, 2
            ld.g r2, [r1+64]
            fadd r2, r2, 2.0f
            set.lt r3, r2, r0
            brc.z r3, @7, @7
            st.g [r1-4], r2
            atom.add.g r4, [r1+0], 1
            rcp r5, r2
            bar
            exit
        ";
        let p1 = assemble_program(src).unwrap();
        let text = disassemble(&p1);
        let p2 = assemble_program(&text).unwrap();
        assert_eq!(p1, p2);
    }

    #[test]
    fn unknown_directive_rejected() {
        let e = assemble(".bogus 3\nexit").unwrap_err();
        match e {
            IsaError::Asm(a) => assert!(a.message.contains("unknown directive")),
            other => panic!("unexpected {other}"),
        }
    }
}
