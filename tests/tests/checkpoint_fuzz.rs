//! Seeded fuzzing of the one boundary a whole simulator state crosses:
//! checkpoint text.
//!
//! A v5 cut of a kernel that is swapping under Virtual Thread is mutated
//! in three ways: truncated at a random byte, one byte of a packed word
//! string (`image`, `regs`, `smem`) replaced, or one numeric token
//! replaced with 0, its successor or `u64::MAX`. Each case goes through
//! `Checkpoint::parse` → `GpuSim::resume` → execution under a cycle
//! budget. Every case must be refused with an `Err` or run with
//! conserving statistics (every SM-cycle is an issue cycle or exactly one
//! idle bucket, and the empty sub-split covers the no-warps bucket). A
//! panic anywhere fails the test with the case that caused it.

use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use vt_core::{Architecture, RunBudget, RunOutcome};
use vt_isa::Kernel;
use vt_json::Json;
use vt_prng::Prng;
use vt_sim::{Checkpoint, GpuSim, RunStats, SimConfig};
use vt_tests::checkpoints::{cut, run_cycles, swap_config};
use vt_trace::NullSink;
use vt_workloads::{full_suite, Scale};

/// The fuzzed configuration: VT on the swapping geometry, with metrics
/// and the per-PC profile on, so their restore paths are fuzzed too.
fn config(kernel: &Kernel) -> SimConfig {
    swap_config(kernel, Architecture::virtual_thread(), true)
}

/// Byte spans of the text's numeric tokens and of its packed word
/// strings' contents.
struct Tokens {
    numbers: Vec<(usize, usize)>,
    packed: Vec<(usize, usize)>,
}

fn tokens(text: &str) -> Tokens {
    let bytes = text.as_bytes();
    let mut t = Tokens {
        numbers: Vec::new(),
        packed: Vec::new(),
    };
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'"' => {
                let start = i + 1;
                i = start;
                while bytes[i] != b'"' {
                    i += if bytes[i] == b'\\' { 2 } else { 1 };
                }
                let key = ["\"image\":", "\"regs\":", "\"smem\":"];
                // An empty string has no byte to replace.
                if i > start && key.iter().any(|k| text[..start - 1].ends_with(k)) {
                    t.packed.push((start, i));
                }
                i += 1;
            }
            b'-' | b'0'..=b'9' => {
                let start = i;
                while i < bytes.len()
                    && matches!(bytes[i], b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
                {
                    i += 1;
                }
                t.numbers.push((start, i));
            }
            _ => i += 1,
        }
    }
    t
}

/// One seeded mutation of `text` and a description of it.
fn mutate(text: &str, tokens: &Tokens, r: &mut Prng) -> (String, String) {
    match r.gen_range(0..3) {
        0 => {
            let at = r.gen_range_usize(0..text.len());
            (text[..at].to_string(), format!("truncated at byte {at}"))
        }
        1 => {
            let (start, end) = *r.choose(&tokens.packed);
            let at = r.gen_range_usize(start..end);
            let with = *r.choose(b"0123456789abcdefzA.\" \\");
            let mut bytes = text.as_bytes().to_vec();
            bytes[at] = with;
            let desc = format!("packed byte {at} set to {:?}", char::from(with));
            (
                String::from_utf8(bytes).expect("ASCII replaced by ASCII"),
                desc,
            )
        }
        _ => {
            let (start, end) = *r.choose(&tokens.numbers);
            let old = &text[start..end];
            let new = match r.gen_range(0..3) {
                0 => "0".to_string(),
                1 => old
                    .parse::<u64>()
                    .map_or_else(|_| "1".to_string(), |v| v.saturating_add(1).to_string()),
                _ => u64::MAX.to_string(),
            };
            let desc = format!(
                "`{}` {old} at byte {start} set to {new}",
                key_before(text, start)
            );
            (format!("{}{new}{}", &text[..start], &text[end..]), desc)
        }
    }
}

/// The name of the field whose value (or array) holds byte `at`.
fn key_before(text: &str, at: usize) -> &str {
    let colon = text[..at].rfind("\":").unwrap_or(0);
    let open = text[..colon].rfind('"').map_or(0, |i| i + 1);
    &text[open..colon]
}

/// Every SM-cycle is an issue cycle or one idle bucket, and the empty
/// sub-split covers the no-warps bucket.
fn conserves(stats: &RunStats, num_sms: u64) -> bool {
    let idle = &stats.idle;
    let idle_total = [
        idle.no_warps,
        idle.memory,
        idle.pipeline,
        idle.barrier,
        idle.swapping,
        idle.other,
        stats.issue_cycles,
    ]
    .iter()
    .try_fold(0u64, |sum, &x| sum.checked_add(x));
    idle_total == num_sms.checked_mul(stats.cycles) && stats.empty.total() == stats.idle.no_warps
}

/// Parses, resumes and runs one case. `Ok(true)` when it ran with
/// conserving statistics, `Ok(false)` when it was refused, `Err` when it
/// ran and broke conservation.
fn run_case(cfg: &SimConfig, kernel: &Kernel, text: &str, budget: u64) -> Result<bool, String> {
    let Ok(ckpt) = Checkpoint::parse(text) else {
        return Ok(false);
    };
    let Ok(sim) = GpuSim::resume(cfg, kernel, &ckpt) else {
        return Ok(false);
    };
    let budget = RunBudget::unlimited().with_max_cycles(budget);
    let stats = match sim.execute(None, &mut NullSink, &budget, None) {
        Ok(RunOutcome::Completed(r)) => r.stats,
        Ok(RunOutcome::Truncated(t)) => t.stats,
        Err(_) => return Ok(false),
    };
    if conserves(&stats, u64::from(cfg.core.num_sms)) {
        Ok(true)
    } else {
        Err("ran with statistics that do not conserve".to_string())
    }
}

/// Runs the listed cases (ascending indices into the mutations `seed`
/// generates) on one cut and returns every case that panicked or broke
/// conservation.
fn fuzz(seed: u64, cases: &[usize]) -> Vec<String> {
    let w = full_suite(&Scale::test())
        .into_iter()
        .find(|w| w.name == "bfs")
        .expect("bfs is in the suite");
    let cfg = config(&w.kernel);
    let full = GpuSim::new(&cfg, &w.kernel)
        .and_then(GpuSim::run)
        .expect("bfs runs");
    let cut = full.stats.cycles / 2;
    let out = GpuSim::new(&cfg, &w.kernel)
        .unwrap()
        .execute(
            None,
            &mut NullSink,
            &RunBudget::unlimited().with_max_cycles(cut),
            None,
        )
        .unwrap();
    let RunOutcome::Truncated(t) = out else {
        panic!("bfs finished inside {cut} cycles");
    };
    assert!(
        t.stats.swaps.swaps_out > 0,
        "bfs is not swapping at the cut"
    );
    let text = t.checkpoint.to_text();
    let tokens = tokens(&text);
    assert!(!tokens.packed.is_empty() && !tokens.numbers.is_empty());
    // Room for a mutated run to take longer than the original, bounded.
    let budget = 2 * full.stats.cycles;
    let mut r = Prng::new(seed);
    let mut failures = Vec::new();
    // Report a panic with the case that caused it, not on its own.
    thread_local!(static PANIC: RefCell<String> = const { RefCell::new(String::new()) });
    let quiet = std::panic::take_hook();
    std::panic::set_hook(Box::new(|info| {
        PANIC.with(|p| *p.borrow_mut() = info.to_string())
    }));
    let last = cases.last().copied().unwrap_or(0);
    for case in 0..=last {
        let (mutated, desc) = mutate(&text, &tokens, &mut r);
        if cases.binary_search(&case).is_err() {
            continue;
        }
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            run_case(&cfg, &w.kernel, &mutated, budget)
        }));
        match outcome {
            Ok(Ok(_)) => {}
            Ok(Err(e)) => failures.push(format!("seed {seed:#x} case {case} ({desc}): {e}")),
            Err(_) => {
                let panic = PANIC.with(|p| p.take());
                failures.push(format!("seed {seed:#x} case {case} ({desc}): {panic}"));
            }
        }
    }
    std::panic::set_hook(quiet);
    failures
}

#[test]
fn mutated_checkpoints_are_refused_or_conserve() {
    let cases: Vec<usize> = (0..2000).collect();
    let failures = fuzz(0x5eed_c4e7, &cases);
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

/// Cases other seeds found panicking, before restore refused a CTA's live
/// and barrier counts that disagree with its warps, a line size other
/// than the memory system's, an overflowing cache geometry, an
/// interconnect or DRAM latency beyond the counter bound, and a metrics
/// registry whose windows disagree with its sealed count or the cycle.
#[test]
fn pinned_mutations_are_refused_or_conserve() {
    let pinned: [(u64, &[usize]); 6] = [
        (0x1, &[1307, 1543]),
        (0x3, &[27, 1325]),
        (0x5, &[91, 1526]),
        (0xa, &[1627]),
        (0xb, &[317]),
        (0xd, &[671]),
    ];
    let failures: Vec<String> = pinned
        .iter()
        .flat_map(|&(seed, cases)| fuzz(seed, cases))
        .collect();
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

/// The integer tokens of `text`, sorted.
fn integers(text: &str) -> Vec<u64> {
    let mut ints: Vec<u64> = tokens(text)
        .numbers
        .iter()
        .map(|&(start, end)| text[start..end].parse().expect("an integer token"))
        .collect();
    ints.sort_unstable();
    ints
}

/// Decoding is exact: every number of a cut pushed past 2^32 (where it
/// is below 2^62) is refused, or resumed and written back unchanged.
/// Every token outside `mem` is tried, and a seeded eighth of those in
/// it. A narrowing decode used to keep the low 32 bits (a `next_cta` of
/// 2^32 + 1 resumed as 1 and ran more CTAs).
#[test]
fn widened_numbers_are_refused_or_kept_exactly() {
    let w = full_suite(&Scale::test())
        .into_iter()
        .find(|w| w.name == "nw")
        .expect("nw is in the suite");
    let cfg = config(&w.kernel);
    let text = cut(&cfg, &w.kernel, run_cycles(&cfg, &w.kernel) / 2).to_text();
    // The top-level `mem` is the last key before the image.
    let mem = text.rfind(",\"mem\":").expect("mem")..text.rfind(",\"image\":").expect("image");
    let mut r = Prng::new(0x3e_c0de);
    let mut truncated = Vec::new();
    for (start, end) in tokens(&text).numbers {
        let old: u64 = text[start..end].parse().expect("an integer token");
        if old >= 1 << 62 || (mem.contains(&start) && r.gen_range(0..8) != 0) {
            continue;
        }
        let mutated = format!("{}{}{}", &text[..start], old + (1 << 32), &text[end..]);
        let Ok(sim) = Checkpoint::parse(&mutated).and_then(|c| GpuSim::resume(&cfg, &w.kernel, &c))
        else {
            continue;
        };
        if integers(&sim.checkpoint().to_text()) != integers(&mutated) {
            truncated.push(format!(
                "`{}` {old} at byte {start}",
                key_before(&text, start)
            ));
        }
    }
    assert!(
        truncated.is_empty(),
        "{} numbers resumed as another value:\n{}",
        truncated.len(),
        truncated.join("\n")
    );
}

/// Only a SIMT stack whose bottom entry has a reconvergence PC can be
/// emptied by a jump or an advance, leaving a warp no exit finished with
/// no PC to issue from. Restore refuses one (the fuzzer never writes a
/// number where the text has `null`).
#[test]
fn a_bottom_simt_entry_with_a_reconvergence_pc_is_refused() {
    let w = full_suite(&Scale::test())
        .into_iter()
        .find(|w| w.name == "bfs")
        .expect("bfs is in the suite");
    let cfg = config(&w.kernel);
    let text = cut(&cfg, &w.kernel, run_cycles(&cfg, &w.kernel) / 2).to_text();
    let resumes = |text: &str| {
        Checkpoint::parse(text)
            .and_then(|c| GpuSim::resume(&cfg, &w.kernel, &c))
            .is_ok()
    };
    assert!(resumes(&text));
    // `[pc,null,mask]` becomes `[pc,pc,mask]`: the entry pops at once.
    let pc = text.find("\"stack\":[[").expect("a live warp") + "\"stack\":[[".len();
    let comma = pc + text[pc..].find(',').expect("an entry");
    let rpc = comma + 1..comma + 1 + "null".len();
    assert_eq!(&text[rpc.clone()], "null");
    let mutated = format!(
        "{}{}{}",
        &text[..rpc.start],
        &text[pc..comma],
        &text[rpc.end..]
    );
    assert!(!resumes(&mutated));
}

/// A path entry on top of a SIMT stack that sits at its reconvergence
/// PC would have popped; resumed, its lanes ran the code after the
/// reconvergence point on their own, and `spmv` ended with another image
/// than the interpreter's. Restore refuses such a stack with a
/// diagnostic: `spmv` under VT, cut at a third of its run, with the top
/// path entry of the first diverged warp moved to its reconvergence PC.
#[test]
fn a_top_simt_entry_at_its_reconvergence_pc_is_refused() {
    let w = full_suite(&Scale::test())
        .into_iter()
        .find(|w| w.name == "spmv")
        .expect("spmv is in the suite");
    let cfg = config(&w.kernel);
    let text = cut(&cfg, &w.kernel, run_cycles(&cfg, &w.kernel) / 3).to_text();
    let resume =
        |text: &str| Checkpoint::parse(text).and_then(|c| GpuSim::resume(&cfg, &w.kernel, &c));
    assert!(resume(&text).is_ok());
    // `"stack":[[20,null,mask],[pc,20,mask]]` becomes `[[…],[20,20,mask]]`.
    let diverged = text
        .match_indices("\"stack\":[[")
        .map(|(at, key)| at + key.len() - 1)
        .find(|&at| text[at..at + text[at..].find("]]").expect("a stack")].contains("],["))
        .expect("a diverged warp at the cut");
    let top = diverged + text[diverged..].find("],[").expect("a path entry") + "],[".len();
    let comma = top + text[top..].find(',').expect("an entry");
    assert_eq!(&text[comma..comma + 4], ",20,", "spmv reconverges at PC 20");
    let mutated = format!("{}20{}", &text[..top], &text[comma..]);
    let err = resume(&mutated).expect_err("a stack no run writes");
    assert!(
        err.to_string()
            .contains("field `stack`[1] is the top entry but is at its reconvergence PC"),
        "{err}"
    );
}

/// The value under `key` of the object `v`.
fn at<'a>(v: &'a mut Json, key: &str) -> &'a mut Json {
    match v {
        Json::Object(fields) => &mut fields.iter_mut().find(|(k, _)| k == key).expect(key).1,
        _ => panic!("`{key}`: not an object"),
    }
}

/// The elements of the array `v`.
fn items(v: &mut Json) -> &mut Vec<Json> {
    match v {
        Json::Array(items) => items,
        _ => panic!("not an array"),
    }
}

/// An edit of a checkpoint document, or of a part of one.
type Edit<'a> = dyn Fn(&mut Json) + 'a;

/// SM `sm`'s L1 MSHR table in checkpoint document `doc`.
fn l1_mshr(doc: &mut Json, sm: usize) -> &mut Json {
    at(&mut items(at(at(doc, "mem"), "fronts"))[sm], "mshr")
}

/// Memory state the quiet SM visit assumes no run builds, each refused
/// with a diagnostic: an L1 MSHR line with no waiters (its fill would
/// free an entry, answer nobody and leave a refused load head asleep),
/// a table with more lines than entries or a line with more waiters than
/// merge slots, MSHR capacities other than the config's, and loads in
/// flight below an L1 that waits for no such line (a fill would make
/// the line hit without a response). A resident CTA that lists fewer
/// than the kernel's warps is refused too: activation counts
/// slot-holding CTAs, each taken to hold the kernel's warps. `bfs` under
/// VT, cut at half its run; every memory edit is to the L1 table with
/// the most lines in flight.
#[test]
fn memory_and_residency_tables_no_run_builds_are_refused() {
    let w = full_suite(&Scale::test())
        .into_iter()
        .find(|w| w.name == "bfs")
        .expect("bfs is in the suite");
    let cfg = config(&w.kernel);
    let ckpt = cut(&cfg, &w.kernel, run_cycles(&cfg, &w.kernel) / 2);
    let refusal = |edit: &Edit<'_>| -> String {
        let mut doc = ckpt.json().clone();
        edit(&mut doc);
        match Checkpoint::parse(&doc.compact()).and_then(|c| GpuSim::resume(&cfg, &w.kernel, &c)) {
            Ok(_) => "accepted".to_string(),
            Err(e) => e.to_string(),
        }
    };
    assert_eq!(refusal(&|_| {}), "accepted");
    let mut doc = ckpt.json().clone();
    let lines = |doc: &mut Json, sm| items(at(l1_mshr(doc, sm), "entries")).len();
    let sm = (0..cfg.core.num_sms as usize)
        .max_by_key(|&sm| lines(&mut doc, sm))
        .expect("an SM");
    assert!(
        lines(&mut doc, sm) >= 2,
        "bfs has under two L1 misses in flight at the cut"
    );
    let uint = |v: &Json| match v {
        Json::UInt(n) => *n,
        _ => panic!("not a count"),
    };
    let probes: [(&str, &Edit<'_>); 5] = [
        ("has no waiters", &|m| {
            items(&mut items(at(m, "entries"))[0])[1] = Json::Array(Vec::new());
        }),
        ("lines, but has", &|m| {
            let lines = items(at(m, "entries")).len() as u64;
            *at(m, "max_entries") = Json::UInt(lines - 1);
        }),
        ("waiters, but a line merges", &|m| {
            let merges = uint(at(m, "max_merges")) as usize;
            let waiters = items(&mut items(&mut items(at(m, "entries"))[0])[1]);
            let id = waiters[0].clone();
            waiters.resize(merges + 1, id);
        }),
        ("L1 MSHRs of", &|m| {
            let merges = uint(at(m, "max_merges"));
            *at(m, "max_merges") = Json::UInt(merges + 1);
        }),
        ("whose L1 has no miss pending on it", &|m| {
            items(at(m, "entries")).clear();
        }),
    ];
    for (diagnostic, edit) in probes {
        let got = refusal(&|doc| edit(l1_mshr(doc, sm)));
        assert!(got.contains(diagnostic), "want {diagnostic:?}, got {got:?}");
    }
    let short_cta = refusal(&|doc| {
        let sm = at(&mut items(at(doc, "lanes"))[0], "sm");
        let ctas = items(at(sm, "ctas"));
        let resident = (0..ctas.len())
            .find(|&i| !items(at(&mut ctas[i], "warps")).is_empty())
            .expect("a resident CTA");
        items(at(&mut ctas[resident], "warps")).pop();
    });
    assert!(short_cta.contains("warps, but a CTA has"), "{short_cta}");
}
