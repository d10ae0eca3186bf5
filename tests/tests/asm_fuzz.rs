//! Seeded fuzzing of assembly text, the input `vtasm` and `vtlint` read
//! from outside the process.
//!
//! Each suite kernel is written as its directives (`.kernel`, `.grid`,
//! `.regs`, `.smem`, `.globalmem`) plus its disassembled program, then
//! mutated in four ways: truncated at a random byte, one byte replaced,
//! one numeric token replaced (0, its successor, its negation, or a
//! value at or past a `u16`/`u32` bound), or one line deleted or doubled.
//! Every mutant must be refused with an `Err`, or assemble into a kernel
//! the reference interpreter runs under a budget to completion or to a
//! clean `Err`. A panic or an aborting allocation anywhere fails the test
//! (the latter by taking the test process down).
//!
//! The interpreter's budget is per CTA, and a mutated grid can be large,
//! so an accepted mutant runs on its first two CTAs: what a CTA
//! allocates does not depend on how many there are.

use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use vt_isa::asm::{assemble, disassemble};
use vt_isa::interp::Interpreter;
use vt_isa::Kernel;
use vt_prng::Prng;
use vt_workloads::{full_suite, Scale};

/// Mutants per suite kernel.
const CASES: usize = 150;

/// Warp instructions each CTA of a mutant may run.
const BUDGET: u64 = 20_000;

/// `kernel` as assembly text: its directives, then its program.
fn source(kernel: &Kernel) -> String {
    format!(
        ".kernel {}\n.grid {} {}\n.regs {}\n.smem {}\n.globalmem {}\n{}",
        kernel.name(),
        kernel.num_ctas(),
        kernel.threads_per_cta(),
        kernel.regs_per_thread(),
        kernel.smem_bytes_per_cta(),
        kernel.global_mem().word_len(),
        disassemble(kernel.program())
    )
}

/// Byte spans of the text's unsigned decimal tokens.
fn numbers(text: &str) -> Vec<(usize, usize)> {
    let bytes = text.as_bytes();
    let mut spans = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i].is_ascii_digit() {
            let start = i;
            while i < bytes.len() && bytes[i].is_ascii_digit() {
                i += 1;
            }
            spans.push((start, i));
        } else {
            i += 1;
        }
    }
    spans
}

/// One seeded mutation of `text` and a description of it.
fn mutate(text: &str, numbers: &[(usize, usize)], r: &mut Prng) -> (String, String) {
    match r.gen_range(0..4) {
        0 => {
            let at = r.gen_range_usize(0..text.len());
            (text[..at].to_string(), format!("truncated at byte {at}"))
        }
        1 => {
            let at = r.gen_range_usize(0..text.len());
            let with = *r.choose(b"0123456789-+.xfr%@[],: \n;ag");
            let mut bytes = text.as_bytes().to_vec();
            bytes[at] = with;
            let desc = format!("byte {at} set to {:?}", char::from(with));
            let text = String::from_utf8(bytes).expect("ASCII replaced by ASCII");
            (text, desc)
        }
        2 => {
            let (start, end) = *r.choose(numbers);
            let old = &text[start..end];
            let new = match r.gen_range(0..7) {
                0 => "0".to_string(),
                1 => old
                    .parse::<u64>()
                    .map_or_else(|_| "1".to_string(), |v| (v + 1).to_string()),
                2 => format!("-{old}"),
                3 => "65535".to_string(),
                4 => "65536".to_string(),
                5 => u32::MAX.to_string(),
                _ => (u64::from(u32::MAX) + 1).to_string(),
            };
            let desc = format!("{old} at byte {start} set to {new}");
            (format!("{}{new}{}", &text[..start], &text[end..]), desc)
        }
        _ => {
            let mut lines: Vec<&str> = text.lines().collect();
            let at = r.gen_range_usize(0..lines.len());
            let desc = if r.gen_bool(0.5) {
                lines.remove(at);
                format!("line {} deleted", at + 1)
            } else {
                lines.insert(at, lines[at]);
                format!("line {} doubled", at + 1)
            };
            (lines.join("\n"), desc)
        }
    }
}

/// Assembles one mutant and, if it is accepted, interprets its first two
/// CTAs under the budget. Either step may return an `Err`.
fn run_case(text: &str) {
    if let Ok(kernel) = assemble(text) {
        let head = kernel.with_num_ctas(kernel.num_ctas().min(2));
        if let Ok(interp) = Interpreter::new(&head) {
            let _ = interp.with_budget(BUDGET).run();
        }
    }
}

/// Runs `cases` mutants of every suite kernel from `seed` and returns
/// every case that panicked.
fn fuzz(seed: u64, cases: usize) -> Vec<String> {
    let suite = full_suite(&Scale::test());
    let mut r = Prng::new(seed);
    let mut failures = Vec::new();
    // Report a panic with the case that caused it, not on its own.
    thread_local!(static PANIC: RefCell<String> = const { RefCell::new(String::new()) });
    let quiet = std::panic::take_hook();
    std::panic::set_hook(Box::new(|info| {
        PANIC.with(|p| *p.borrow_mut() = info.to_string())
    }));
    for w in &suite {
        let text = source(&w.kernel);
        let numbers = numbers(&text);
        for case in 0..cases {
            let (mutated, desc) = mutate(&text, &numbers, &mut r);
            if catch_unwind(AssertUnwindSafe(|| run_case(&mutated))).is_err() {
                let panic = PANIC.with(|p| p.take());
                failures.push(format!(
                    "seed {seed:#x} {} case {case} ({desc}): {panic}",
                    w.name
                ));
            }
        }
    }
    std::panic::set_hook(quiet);
    failures
}

#[test]
fn suite_kernels_round_trip_through_their_text() {
    for w in full_suite(&Scale::test()) {
        let k = assemble(&source(&w.kernel)).unwrap_or_else(|e| panic!("{}: {e}", w.name));
        assert_eq!(k.program(), w.kernel.program(), "{}", w.name);
        assert_eq!(
            (k.num_ctas(), k.threads_per_cta(), k.regs_per_thread()),
            (
                w.kernel.num_ctas(),
                w.kernel.threads_per_cta(),
                w.kernel.regs_per_thread()
            ),
            "{}",
            w.name
        );
        assert_eq!(k.smem_bytes_per_cta(), w.kernel.smem_bytes_per_cta());
        assert_eq!(k.global_mem().word_len(), w.kernel.global_mem().word_len());
    }
}

#[test]
fn mutated_assembly_is_refused_or_runs_cleanly() {
    let failures = fuzz(0xa5_5e4b, CASES);
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
