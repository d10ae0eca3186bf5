//! Miss-status holding registers.
//!
//! MSHRs bound the number of distinct outstanding miss lines and how many
//! requests may merge onto one line. When they fill up, a cache stops
//! accepting new misses — one of the resource walls that limits how much
//! latency extra thread-level parallelism can actually hide, and therefore
//! part of why the Virtual Thread results saturate in the sensitivity
//! sweeps.

use std::collections::HashMap;
use vt_json::{impl_json, NonZero};

/// Outcome of trying to record a miss.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MshrAlloc {
    /// First miss on this line: the caller must send a fill request down
    /// the hierarchy.
    NewMiss,
    /// Merged onto an existing in-flight line: no new downstream request.
    Merged,
    /// No entry or merge slot available: the access must be retried.
    Stall,
}

/// A finite MSHR table tracking waiters of type `T` per in-flight line.
#[derive(Debug, Clone)]
pub struct Mshr<T> {
    entries: HashMap<u64, Vec<T>>,
    max_entries: usize,
    max_merges: usize,
}

impl<T> Mshr<T> {
    /// A table with `max_entries` distinct lines and `max_merges` waiters
    /// per line.
    ///
    /// # Panics
    ///
    /// Panics if either capacity is zero.
    pub fn new(max_entries: u32, max_merges: u32) -> Mshr<T> {
        assert!(
            max_entries > 0 && max_merges > 0,
            "degenerate MSHR geometry"
        );
        Mshr {
            entries: HashMap::new(),
            max_entries: max_entries as usize,
            max_merges: max_merges as usize,
        }
    }

    /// Records a miss on `line_addr` with waiter metadata `waiter`.
    pub fn alloc(&mut self, line_addr: u64, waiter: T) -> MshrAlloc {
        if let Some(waiters) = self.entries.get_mut(&line_addr) {
            if waiters.len() >= self.max_merges {
                return MshrAlloc::Stall;
            }
            waiters.push(waiter);
            return MshrAlloc::Merged;
        }
        if self.entries.len() >= self.max_entries {
            return MshrAlloc::Stall;
        }
        self.entries.insert(line_addr, vec![waiter]);
        MshrAlloc::NewMiss
    }

    /// Completes the fill of `line_addr`, releasing its waiters in arrival
    /// order. Returns an empty vector if the line was not pending.
    pub fn fill(&mut self, line_addr: u64) -> Vec<T> {
        self.entries.remove(&line_addr).unwrap_or_default()
    }

    /// Whether a fill for `line_addr` is in flight.
    pub fn pending(&self, line_addr: u64) -> bool {
        self.entries.contains_key(&line_addr)
    }

    /// Lines currently in flight.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no miss is in flight.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Every waiter of every line in flight.
    pub(crate) fn waiters(&self) -> impl Iterator<Item = &T> {
        self.entries.values().flatten()
    }
}

// Lines are written sorted by address (a hash map's canonical order);
// waiter order within a line (arrival order) is kept exactly.
impl_json!(Mshr<T> { max_entries: NonZero, max_merges: NonZero, entries });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_miss_allocates_then_merges() {
        let mut m: Mshr<u32> = Mshr::new(2, 2);
        assert_eq!(m.alloc(100, 1), MshrAlloc::NewMiss);
        assert_eq!(m.alloc(100, 2), MshrAlloc::Merged);
        assert!(m.pending(100));
        assert_eq!(m.len(), 1);
        assert_eq!(m.fill(100), vec![1, 2]);
        assert!(m.is_empty());
        assert!(!m.pending(100));
    }

    #[test]
    fn merge_limit_stalls() {
        let mut m: Mshr<u32> = Mshr::new(4, 2);
        assert_eq!(m.alloc(1, 0), MshrAlloc::NewMiss);
        assert_eq!(m.alloc(1, 1), MshrAlloc::Merged);
        assert_eq!(m.alloc(1, 2), MshrAlloc::Stall);
        // Other lines are unaffected.
        assert_eq!(m.alloc(2, 3), MshrAlloc::NewMiss);
    }

    #[test]
    fn entry_limit_stalls() {
        let mut m: Mshr<u32> = Mshr::new(2, 8);
        assert_eq!(m.alloc(1, 0), MshrAlloc::NewMiss);
        assert_eq!(m.alloc(2, 0), MshrAlloc::NewMiss);
        assert_eq!(m.alloc(3, 0), MshrAlloc::Stall);
        // But merging onto existing lines still works at capacity.
        assert_eq!(m.alloc(1, 1), MshrAlloc::Merged);
        // Fill frees an entry.
        m.fill(2);
        assert_eq!(m.alloc(3, 0), MshrAlloc::NewMiss);
    }

    #[test]
    fn fill_of_unknown_line_is_empty() {
        let mut m: Mshr<u32> = Mshr::new(2, 2);
        assert!(m.fill(42).is_empty());
    }
}
