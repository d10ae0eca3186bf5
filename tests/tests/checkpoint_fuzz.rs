//! Seeded fuzzing of the one boundary a whole simulator state crosses:
//! checkpoint text.
//!
//! A v6 cut of a kernel that is swapping under Virtual Thread is mutated
//! in three ways: truncated at a random byte, one byte of a packed word
//! string (`image`, `regs`, `smem`) or packed row table (cache lines,
//! requests and responses in flight, load groups, per-PC counters, …)
//! replaced, or one numeric token replaced with 0, its successor or
//! `u64::MAX`. Each case goes through
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

/// The keys whose string values are packed word strings.
const WORD_KEYS: [&str; 3] = ["image", "regs", "smem"];

/// The keys whose string values are packed row tables.
const ROW_KEYS: [&str; 18] = [
    "lines",
    "in_flight",
    "in_q",
    "resp_heap",
    "pending_writebacks",
    "queue",
    "in_service",
    "banks",
    "resps",
    "submit_times",
    "groups",
    "req_to_group",
    "smem_inflight",
    "writebacks",
    "pcs",
    "state",
    "stack",
    "warps",
];

/// Byte spans of the text's numeric tokens, of its packed strings'
/// contents and of the integer cells of its packed row tables (an empty
/// span is a zero cell).
struct Tokens {
    numbers: Vec<(usize, usize)>,
    packed: Vec<(usize, usize)>,
    cells: Vec<(usize, usize)>,
}

fn tokens(text: &str) -> Tokens {
    let bytes = text.as_bytes();
    let mut t = Tokens {
        numbers: Vec::new(),
        packed: Vec::new(),
        cells: Vec::new(),
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
                let key = |k: &&str| text[..start - 1].ends_with(&format!("\"{k}\":"));
                let rows = ROW_KEYS.iter().any(key);
                // An empty string has no byte to replace.
                if i > start && (rows || WORD_KEYS.iter().any(key)) {
                    t.packed.push((start, i));
                }
                if rows {
                    let mut cell = start;
                    for at in start..i {
                        if matches!(bytes[at], b',' | b';') {
                            if bytes[cell] != b'-' {
                                t.cells.push((cell, at));
                            }
                            cell = at + 1;
                        }
                    }
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
            let with = *r.choose(b"0123456789abcdefzA.\" \\,;-");
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

/// The integer in `text[start..end]`: a decimal token, or a hex cell of
/// a packed row (empty for zero).
fn integer(text: &str, (start, end): (usize, usize), radix: u32) -> u64 {
    match &text[start..end] {
        "" => 0,
        digits => u64::from_str_radix(digits, radix).expect("an integer"),
    }
}

/// The integer tokens and packed row cells of `text`, sorted.
fn integers(text: &str) -> Vec<u64> {
    let t = tokens(text);
    let numbers = t.numbers.iter().map(|&span| integer(text, span, 10));
    let cells = t.cells.iter().map(|&span| integer(text, span, 16));
    let mut ints: Vec<u64> = numbers.chain(cells).collect();
    ints.sort_unstable();
    ints
}

/// Decoding is exact: every number of a cut, and every integer cell of
/// its packed row tables, pushed past 2^32 (where it is below 2^62) is
/// refused, or resumed and written back unchanged. Every number and cell
/// outside `mem` is tried, and a seeded eighth of those in it.
/// A narrowing decode used to keep the low 32 bits (a `next_cta` of
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
    let t = tokens(&text);
    let numbers = t.numbers.into_iter().map(|span| (span, 10));
    for ((start, end), radix) in numbers.chain(t.cells.into_iter().map(|span| (span, 16))) {
        let old = integer(&text, (start, end), radix);
        let sampled = mem.contains(&start);
        if old >= 1 << 62 || (sampled && r.gen_range(0..8) != 0) {
            continue;
        }
        let new = match radix {
            10 => (old + (1 << 32)).to_string(),
            _ => format!("{:x}", old + (1 << 32)),
        };
        let mutated = format!("{}{new}{}", &text[..start], &text[end..]);
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
    // The packed row `pc,-,mask;` becomes `pc,pc,mask;`: the entry pops
    // at once.
    let pc = text.find("\"stack\":\"").expect("a live warp") + "\"stack\":\"".len();
    let comma = pc + text[pc..].find(',').expect("an entry");
    let rpc = comma + 1..comma + 1 + "-".len();
    assert_eq!(&text[rpc.clone()], "-");
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
    // `"stack":"14,-,mask;pc,14,mask;"` becomes `"14,-,mask;14,14,mask;"`
    // (PC 20 is 0x14 in a packed row).
    let diverged = text
        .match_indices("\"stack\":\"")
        .map(|(at, key)| at + key.len())
        .find(|&at| {
            text[at..at + text[at..].find('"').expect("a stack")]
                .matches(';')
                .count()
                > 1
        })
        .expect("a diverged warp at the cut");
    let top = diverged + text[diverged..].find(';').expect("a path entry") + ";".len();
    let comma = top + text[top..].find(',').expect("an entry");
    assert_eq!(&text[comma..comma + 4], ",14,", "spmv reconverges at PC 20");
    let mutated = format!("{}14{}", &text[..top], &text[comma..]);
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
        let resident = items(at(sm, "ctas"))
            .iter_mut()
            .find(|c| c.get("warps").is_some())
            .expect("a resident CTA");
        let Json::Str(warps) = at(resident, "warps") else {
            panic!("a CTA's warp list is not packed");
        };
        let last = warps[..warps.len() - 1].rfind(';').map_or(0, |i| i + 1);
        warps.truncate(last);
    });
    assert!(short_cta.contains("warps, but a CTA has"), "{short_cta}");
}

/// Two v6 tables no run writes, each refused with a diagnostic: an L2
/// line table one row short of its sets × ways (the line table is read
/// only once the geometry is known, as exactly that many rows), and a
/// done warp that carries registers or a SIMT stack (a done warp writes
/// only its CTA slot and pending-load counts). `bfs` under VT, cut at
/// nine tenths of its run, when its last CTAs have left done warps.
#[test]
fn a_short_line_table_and_a_done_warp_with_state_are_refused() {
    let w = full_suite(&Scale::test())
        .into_iter()
        .find(|w| w.name == "bfs")
        .expect("bfs is in the suite");
    let cfg = config(&w.kernel);
    let ckpt = cut(&cfg, &w.kernel, run_cycles(&cfg, &w.kernel) * 9 / 10);
    let refusal = |edit: &Edit<'_>| -> String {
        let mut doc = ckpt.json().clone();
        edit(&mut doc);
        match Checkpoint::parse(&doc.compact()).and_then(|c| GpuSim::resume(&cfg, &w.kernel, &c)) {
            Ok(_) => "accepted".to_string(),
            Err(e) => e.to_string(),
        }
    };
    assert_eq!(refusal(&|_| {}), "accepted");
    let short_l2 = refusal(&|doc| {
        let l2 = at(&mut items(at(at(doc, "mem"), "partitions"))[0], "l2");
        let Json::Str(lines) = at(l2, "lines") else {
            panic!("the L2 lines are not packed");
        };
        let last = lines[..lines.len() - 1].rfind(';').map_or(0, |i| i + 1);
        lines.truncate(last);
    });
    assert!(short_l2.contains("field `lines` has "), "{short_l2}");
    assert!(short_l2.contains(" rows, expected "), "{short_l2}");
    /// The first done warp of any SM.
    fn done_warp(doc: &mut Json) -> &mut Json {
        items(at(doc, "lanes"))
            .iter_mut()
            .flat_map(|lane| items(at(at(lane, "sm"), "warps")).iter_mut())
            .find(|w| w.get("done").is_some())
            .expect("a done warp at the cut")
    }
    let frame = 32 * w.kernel.regs_per_thread() as usize;
    let with_regs = refusal(&|doc| {
        let Json::Object(fields) = done_warp(doc) else {
            panic!("a warp is an object");
        };
        fields.push((
            "regs".into(),
            Json::Str(vt_json::pack_words(&vec![0; frame])),
        ));
    });
    assert!(
        with_regs.contains("field `regs`: a done warp writes only"),
        "{with_regs}"
    );
    let with_stack = refusal(&|doc| {
        let Json::Object(fields) = done_warp(doc) else {
            panic!("a warp is an object");
        };
        let entry = Json::Array(vec![Json::UInt(0), Json::Null, Json::UInt(1)]);
        fields.push(("stack".into(), Json::Array(vec![entry])));
    });
    assert!(
        with_stack.contains("field `stack`: a done warp writes only"),
        "{with_stack}"
    );
}
