//! Randomized tests for the memory subsystem: the coalescer partitions
//! masks, the cache agrees with a reference set model, MSHRs respect
//! their capacities, and the full memory system answers every load
//! exactly once and quiesces. Driven by the deterministic
//! [`vt_prng::Prng`] so runs are reproducible offline.

use std::collections::{HashMap, HashSet};
use vt_mem::cache::{Cache, Probe};
use vt_mem::coalesce::{coalesce, shared_bank_conflicts};
use vt_mem::mshr::{Mshr, MshrAlloc};
use vt_mem::{MemConfig, MemSystem, ReqKind};
use vt_prng::Prng;

/// Lane addresses drawn from a pool of `distinct` values below `limit`,
/// so that small pools force repeated addresses (broadcasts, shared
/// segments) and large ones scatter.
fn pooled_addrs(r: &mut Prng, distinct: usize, limit: u32, align: u32) -> [u32; 32] {
    let pool: Vec<u32> = (0..distinct)
        .map(|_| r.gen_range(0..limit / align) * align)
        .collect();
    std::array::from_fn(|_| *r.choose(&pool))
}

/// A random active mask: full, empty, one lane or random bits.
fn any_mask(r: &mut Prng) -> u32 {
    match r.gen_range(0..4) {
        0 => u32::MAX,
        1 => 0,
        2 => 1 << r.gen_range(0..32),
        _ => r.next_u32(),
    }
}

#[test]
fn coalescer_partitions_the_active_mask() {
    let mut r = Prng::new(0xc0a1);
    for case in 0..768 {
        let segment = [32u32, 64, 128][case % 3];
        let shift = segment.trailing_zeros();
        let distinct = r.gen_range_usize(1..33);
        let addrs = pooled_addrs(&mut r, distinct, 1 << 24, 1);
        let mask = any_mask(&mut r);
        let txs: Vec<_> = coalesce(&addrs, mask, segment).collect();
        // Oracle: walk the active lanes in order; a lane whose segment is
        // not yet listed opens the next transaction (first-touch order).
        let mut want: Vec<(u64, u32)> = Vec::new();
        for lane in (0..32).filter(|l| mask & (1 << l) != 0) {
            let line = u64::from(addrs[lane] >> shift);
            match want.iter_mut().find(|(l, _)| *l == line) {
                Some((_, m)) => *m |= 1 << lane,
                None => want.push((line, 1 << lane)),
            }
        }
        let got: Vec<(u64, u32)> = txs.iter().map(|t| (t.line_addr, t.lane_mask)).collect();
        assert_eq!(got, want, "segment {segment}, mask {mask:#x}");
        let mut union = 0u32;
        for t in &txs {
            assert_eq!(union & t.lane_mask, 0, "lane in two transactions");
            union |= t.lane_mask;
            // Every lane's address falls inside its transaction's segment.
            let mut m = t.lane_mask;
            while m != 0 {
                let lane = m.trailing_zeros();
                m &= m - 1;
                assert_eq!(u64::from(addrs[lane as usize] >> shift), t.line_addr);
            }
        }
        assert_eq!(union, mask);
        assert!(txs.len() <= mask.count_ones() as usize);
        // Distinct transactions have distinct lines.
        let lines: HashSet<u64> = txs.iter().map(|t| t.line_addr).collect();
        assert_eq!(lines.len(), txs.len());
    }
}

#[test]
fn bank_conflict_rounds_are_bounded() {
    let mut r = Prng::new(0xba27);
    for case in 0..1024 {
        let banks = [16u32, 32][case % 2];
        // Small pools repeat words (broadcast) and, below 16 × 4 bytes of
        // range, pile distinct words onto few banks.
        let distinct = r.gen_range_usize(1..33);
        let limit = [256u32, 1 << 18][r.gen_range_usize(0..2)];
        let addrs = pooled_addrs(&mut r, distinct, limit, 4);
        let mask = any_mask(&mut r);
        let rounds = shared_bank_conflicts(&addrs, mask, banks);
        // Oracle: distinct words per bank, maximised; one round minimum.
        let mut per_bank: HashMap<u32, HashSet<u32>> = HashMap::new();
        for lane in (0..32).filter(|l| mask & (1 << l) != 0) {
            let word = addrs[lane] / 4;
            per_bank.entry(word % banks).or_default().insert(word);
        }
        let want = per_bank
            .values()
            .map(|w| w.len() as u32)
            .max()
            .unwrap_or(0)
            .max(1);
        assert_eq!(rounds, want, "{banks} banks, mask {mask:#x}, {addrs:?}");
        assert!(rounds <= mask.count_ones().max(1));
    }
}

#[test]
fn cache_agrees_with_reference_model() {
    let mut r = Prng::new(0xcac8e);
    for _ in 0..64 {
        // 4 sets x 2 ways; the model tracks per-set LRU order.
        let mut cache = Cache::new(4, 2);
        let mut model: Vec<Vec<u64>> = vec![Vec::new(); 4]; // MRU at front
        for i in 0..r.gen_range_usize(1..200) {
            let is_fill = r.gen_bool(0.5);
            let line = u64::from(r.gen_range(0..64));
            let set = (line % 4) as usize;
            let now = i as u64;
            if is_fill {
                let evicted = cache.fill(line, now, false);
                let m = &mut model[set];
                if let Some(pos) = m.iter().position(|&l| l == line) {
                    m.remove(pos);
                    assert!(evicted.is_none(), "refill must not evict");
                } else if m.len() == 2 {
                    let victim = m.pop().expect("full set");
                    assert_eq!(evicted.map(|e| e.line_addr), Some(victim));
                } else {
                    assert!(evicted.is_none());
                }
                m.insert(0, line);
            } else {
                let hit = cache.probe(line, now) == Probe::Hit;
                let m = &mut model[set];
                let model_hit = m.contains(&line);
                assert_eq!(hit, model_hit, "probe({line})");
                if let Some(pos) = m.iter().position(|&l| l == line) {
                    let l = m.remove(pos);
                    m.insert(0, l); // refresh LRU
                }
            }
        }
        assert_eq!(
            cache.valid_lines(),
            model.iter().map(Vec::len).sum::<usize>()
        );
    }
}

#[test]
fn mshr_never_exceeds_capacity() {
    let mut r = Prng::new(0x358);
    for _ in 0..64 {
        let mut mshr: Mshr<u32> = Mshr::new(4, 3);
        let mut model: HashMap<u64, u32> = HashMap::new();
        for i in 0..r.gen_range_usize(1..120) {
            let is_alloc = r.gen_bool(0.5);
            let line = u64::from(r.gen_range(0..16));
            if is_alloc {
                match mshr.alloc(line, i as u32) {
                    MshrAlloc::NewMiss => {
                        assert!(!model.contains_key(&line));
                        assert!(model.len() < 4);
                        model.insert(line, 1);
                    }
                    MshrAlloc::Merged => {
                        let n = model.get_mut(&line).expect("merge needs entry");
                        assert!(*n < 3);
                        *n += 1;
                    }
                    MshrAlloc::Stall => {
                        let full_entry = model.get(&line).map(|&n| n >= 3).unwrap_or(false);
                        let full_table = !model.contains_key(&line) && model.len() >= 4;
                        assert!(full_entry || full_table, "spurious stall");
                    }
                }
            } else {
                let waiters = mshr.fill(line);
                assert_eq!(waiters.len() as u32, model.remove(&line).unwrap_or(0));
            }
            assert!(mshr.len() <= 4);
            assert_eq!(mshr.len(), model.len());
        }
    }
}

/// Liveness + exactly-once: every accepted load gets exactly one
/// response, stores drain, and the system quiesces.
#[test]
fn every_load_answered_exactly_once() {
    let mut r = Prng::new(0x10ad);
    for case in 0..24 {
        let mut mem = MemSystem::new(&MemConfig::default(), 2);
        let mut outstanding: HashSet<u64> = HashSet::new();
        let mut answered: HashSet<u64> = HashSet::new();
        let mut next_id = 0u64;
        let mut pending: Vec<(usize, u64, u64, ReqKind)> = (0..r.gen_range_usize(1..60))
            .map(|_| {
                next_id += 1;
                let sm = r.gen_range_usize(0..2);
                let line = u64::from(r.gen_range(0..512));
                let kind = if r.gen_bool(0.5) {
                    ReqKind::Store
                } else {
                    ReqKind::Load
                };
                (sm, next_id, line, kind)
            })
            .collect();
        pending.reverse();

        let mut cycle = 0u64;
        while cycle < 200_000 {
            mem.tick(cycle);
            // Submit a few per cycle, retrying rejected ones.
            for _ in 0..2 {
                let Some(&(sm, id, line, kind)) = pending.last() else {
                    break;
                };
                if mem.try_submit(sm, id, line, kind).accepted() {
                    pending.pop();
                    if kind == ReqKind::Load {
                        outstanding.insert(id);
                    }
                }
            }
            for sm in 0..2 {
                while let Some(id) = mem.pop_response(sm) {
                    assert!(
                        outstanding.remove(&id),
                        "case {case}: response for unknown id {id}"
                    );
                    assert!(answered.insert(id), "case {case}: duplicate response {id}");
                }
            }
            if pending.is_empty() && outstanding.is_empty() && mem.quiesced() {
                break;
            }
            cycle += 1;
        }
        assert!(pending.is_empty(), "case {case}: submissions starved");
        assert!(outstanding.is_empty(), "case {case}: loads never answered");
        assert!(mem.quiesced(), "case {case}: system did not quiesce");
    }
}
