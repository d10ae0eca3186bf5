//! The memory side's two container idioms, each defined once: integer
//! keyed maps under one deterministic hasher, and ascending queues that
//! insert from the back.

use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};

/// The hasher of every integer-keyed map on the memory side (MSHR lines,
/// request ids, load-group tokens): each key word is xored into the state
/// and multiplied by a constant into 128 bits, and the product's high
/// half is folded into its low half.
///
/// A product's low bits depend only on the key's low bits, and keys that
/// differ only in their high bits are common here: line addresses a
/// power-of-two stride apart, request ids of different SMs. The high
/// half depends on every key bit, so after the fold the low bits a table
/// indexes by do too. It is deterministic and unseeded: the keys come
/// from the simulation itself, or from a checkpoint whose tables restore
/// bounds.
#[derive(Debug, Clone, Copy, Default)]
pub struct IntHasher(u64);

/// 2^64 divided by the golden ratio, rounded to odd.
const GOLDEN: u64 = 0x9e37_79b9_7f4a_7c15;

impl Hasher for IntHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, x: u64) {
        let product = u128::from(self.0 ^ x) * u128::from(GOLDEN);
        self.0 = (product as u64) ^ (product >> 64) as u64;
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A hash map under [`IntHasher`].
pub type IntMap<K, V> = HashMap<K, V, BuildHasherDefault<IntHasher>>;

/// Inserts `item` into the ascending `queue`, searching from the back.
/// Each response class has one fixed latency, so keys arrive almost in
/// order and most inserts are one compare and a push. Equal keys keep
/// their arrival order.
pub(crate) fn push_sorted<T: Ord>(queue: &mut VecDeque<T>, item: T) {
    let mut at = queue.len();
    while at > 0 && queue[at - 1] > item {
        at -= 1;
    }
    queue.insert(at, item);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    use std::hash::BuildHasher;
    use vt_prng::Prng;

    /// On random pushes of `(ready, seq)` keys, ready times drawn from a
    /// few fixed latencies after an advancing clock as the response
    /// queues see them, interleaved with pops of everything due, the
    /// sorted queue pops exactly what the min-heap it replaced popped.
    #[test]
    fn sorted_queue_pops_in_the_heap_order() {
        let mut r = Prng::new(0x50_27ed);
        for case in 0..200 {
            let latencies: Vec<u64> = (0..r.gen_range(1..4))
                .map(|_| u64::from(r.gen_range(0..40)))
                .collect();
            let mut queue = VecDeque::new();
            let mut heap = BinaryHeap::new();
            let (mut now, mut seq) = (0u64, 0u64);
            for _ in 0..300 {
                for _ in 0..r.gen_range(0..4) {
                    seq += 1;
                    let key = (now + *r.choose(&latencies), seq);
                    push_sorted(&mut queue, key);
                    heap.push(Reverse(key));
                }
                loop {
                    let want = heap
                        .peek()
                        .filter(|Reverse((ready, _))| *ready <= now)
                        .copied();
                    let got = queue.front().filter(|(ready, _)| *ready <= now).copied();
                    assert_eq!(got, want.map(|Reverse(k)| k), "case {case} at {now}");
                    if got.is_none() {
                        break;
                    }
                    queue.pop_front();
                    heap.pop();
                }
                now += u64::from(r.gen_range(0..3));
            }
        }
    }

    #[test]
    fn keys_differing_in_high_bits_spread_over_low_bits() {
        let build = BuildHasherDefault::<IntHasher>::default();
        // Line addresses 2^20 apart, request ids of 64 SMs, and request
        // ids of one SM.
        for keys in [
            (0..64u64).map(|i| i << 20).collect::<Vec<_>>(),
            (0..64u64).map(|sm| sm << 40 | 1).collect(),
            (1..65u64).map(|n| 3 << 40 | n).collect(),
        ] {
            let mut low: Vec<u64> = keys.iter().map(|k| build.hash_one(k) & 63).collect();
            low.sort_unstable();
            low.dedup();
            assert!(low.len() > 32, "{} of 64 buckets used", low.len());
        }
    }
}
