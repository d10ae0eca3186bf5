//! Warp memory-access coalescing.
//!
//! A warp memory instruction presents up to 32 lane addresses. The
//! coalescer groups them into the minimal set of aligned segments
//! (transactions); fully-coalesced unit-stride accesses produce one
//! 128-byte transaction, scattered accesses produce up to 32.

/// One coalesced memory transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transaction {
    /// Segment-aligned address divided by the segment size.
    pub line_addr: u64,
    /// Lanes whose access falls in this segment.
    pub lane_mask: u32,
}

/// Coalesces per-lane byte addresses into aligned `segment_bytes`
/// transactions, preserving first-touch order (the order the hardware
/// would issue them). Computed eagerly into a fixed array: nothing is
/// allocated, and collecting the result allocates exactly once.
///
/// `addrs[lane]` is consulted only for lanes set in `mask`.
///
/// # Panics
///
/// Panics if `segment_bytes` is not a power of two.
pub fn coalesce(
    addrs: &[u32; 32],
    mask: u32,
    segment_bytes: u32,
) -> impl ExactSizeIterator<Item = Transaction> {
    assert!(
        segment_bytes.is_power_of_two(),
        "segment size must be a power of two"
    );
    let shift = segment_bytes.trailing_zeros();
    let mut txs = [Transaction {
        line_addr: 0,
        lane_mask: 0,
    }; 32];
    let mut len = 0;
    let mut m = mask;
    while m != 0 {
        let lane = m.trailing_zeros();
        m &= m - 1;
        let line = u64::from(addrs[lane as usize] >> shift);
        match txs[..len].iter_mut().find(|t| t.line_addr == line) {
            Some(t) => t.lane_mask |= 1 << lane,
            None => {
                txs[len] = Transaction {
                    line_addr: line,
                    lane_mask: 1 << lane,
                };
                len += 1;
            }
        }
    }
    txs.into_iter().take(len)
}

/// Number of serialised shared-memory access rounds for a warp access with
/// the given lane addresses: the maximum number of distinct *words* that
/// map to the same bank (accesses to the same word broadcast and do not
/// conflict). At least 1, even for an empty mask.
///
/// Allocation-free: the active lanes' `(bank, word)` keys are sorted in
/// a fixed array, so each bank's distinct words form one run.
///
/// # Panics
///
/// Panics if `banks` is 0 and `mask` is not.
pub fn shared_bank_conflicts(addrs: &[u32; 32], mask: u32, banks: u32) -> u32 {
    let mut keys = [0u64; 32];
    let mut len = 0;
    let mut m = mask;
    while m != 0 {
        let lane = m.trailing_zeros();
        m &= m - 1;
        let word = addrs[lane as usize] / 4;
        keys[len] = (u64::from(word % banks) << 32) | u64::from(word);
        len += 1;
    }
    let keys = &mut keys[..len];
    keys.sort_unstable();
    let (mut rounds, mut run, mut prev) = (1, 0, None);
    for &key in keys.iter() {
        if prev == Some(key) {
            continue; // same word: broadcast
        }
        run = if prev.is_some_and(|p| p >> 32 == key >> 32) {
            run + 1
        } else {
            1
        };
        rounds = rounds.max(run);
        prev = Some(key);
    }
    rounds
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq_addrs(base: u32, stride: u32) -> [u32; 32] {
        let mut a = [0u32; 32];
        for (lane, slot) in a.iter_mut().enumerate() {
            *slot = base + lane as u32 * stride;
        }
        a
    }

    #[test]
    fn unit_stride_coalesces_to_one_transaction() {
        let txs: Vec<_> = coalesce(&seq_addrs(0x1000, 4), u32::MAX, 128).collect();
        assert_eq!(txs.len(), 1);
        assert_eq!(txs[0].line_addr, 0x1000 / 128);
        assert_eq!(txs[0].lane_mask, u32::MAX);
    }

    #[test]
    fn misaligned_unit_stride_needs_two() {
        let txs: Vec<_> = coalesce(&seq_addrs(0x1000 + 64, 4), u32::MAX, 128).collect();
        assert_eq!(txs.len(), 2);
    }

    #[test]
    fn large_stride_fully_diverges() {
        let txs: Vec<_> = coalesce(&seq_addrs(0, 128), u32::MAX, 128).collect();
        assert_eq!(txs.len(), 32);
        for (i, t) in txs.iter().enumerate() {
            assert_eq!(t.line_addr, i as u64);
            assert_eq!(t.lane_mask, 1 << i);
        }
    }

    #[test]
    fn inactive_lanes_are_ignored() {
        let txs: Vec<_> = coalesce(&seq_addrs(0, 128), 0b101, 128).collect();
        assert_eq!(txs.len(), 2);
        assert_eq!(txs[0].lane_mask, 0b001);
        assert_eq!(txs[1].lane_mask, 0b100);
    }

    #[test]
    fn same_address_broadcast_is_one_transaction() {
        let txs: Vec<_> = coalesce(&[0x40; 32], u32::MAX, 128).collect();
        assert_eq!(txs.len(), 1);
    }

    #[test]
    fn lane_masks_partition_the_active_mask() {
        let addrs = seq_addrs(100, 52);
        let mask = 0xff00_f00fu32;
        let txs: Vec<_> = coalesce(&addrs, mask, 128).collect();
        let mut union = 0u32;
        for t in &txs {
            assert_eq!(union & t.lane_mask, 0, "disjoint");
            union |= t.lane_mask;
        }
        assert_eq!(union, mask);
    }

    #[test]
    fn bank_conflict_free_unit_stride() {
        assert_eq!(shared_bank_conflicts(&seq_addrs(0, 4), u32::MAX, 32), 1);
    }

    #[test]
    fn stride_two_words_gives_two_way_conflict() {
        assert_eq!(shared_bank_conflicts(&seq_addrs(0, 8), u32::MAX, 32), 2);
    }

    #[test]
    fn stride_of_bank_count_serialises_fully() {
        assert_eq!(shared_bank_conflicts(&seq_addrs(0, 128), u32::MAX, 32), 32);
    }

    #[test]
    fn broadcast_same_word_is_conflict_free() {
        assert_eq!(shared_bank_conflicts(&[0x40; 32], u32::MAX, 32), 1);
    }

    #[test]
    fn empty_mask_counts_one_round() {
        assert_eq!(shared_bank_conflicts(&[0; 32], 0, 32), 1);
        assert!(coalesce(&[0; 32], 0, 128).next().is_none());
    }
}
