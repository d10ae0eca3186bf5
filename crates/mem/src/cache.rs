//! A tags-only set-associative cache array with LRU replacement.

use vt_json::{impl_json, NonZero};

/// Outcome of a cache probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Probe {
    /// Line present.
    Hit,
    /// Line absent.
    Miss,
}

/// A line evicted by a fill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Evicted {
    /// Line address of the victim.
    pub line_addr: u64,
    /// Whether the victim was dirty (needs a writeback).
    pub dirty: bool,
}

#[derive(Debug, Clone, Copy)]
struct Line {
    tag: u64,
    valid: bool,
    dirty: bool,
    last_use: u64,
}

impl_json!(Line [tag, valid, dirty, last_use]);

/// Set-associative cache tag array. Data never lives here — the simulator
/// is functional-at-issue — so this structure only answers hit/miss and
/// tracks dirtiness for writeback traffic.
#[derive(Debug, Clone)]
pub struct Cache {
    sets: Vec<Line>,
    num_sets: u64,
    ways: usize,
}

impl Cache {
    /// A cache with `num_sets` sets of `ways` lines.
    ///
    /// # Panics
    ///
    /// Panics if `num_sets` or `ways` is zero.
    pub fn new(num_sets: u32, ways: u32) -> Cache {
        assert!(num_sets > 0 && ways > 0, "degenerate cache geometry");
        Cache {
            sets: vec![
                Line {
                    tag: 0,
                    valid: false,
                    dirty: false,
                    last_use: 0
                };
                (num_sets * ways) as usize
            ],
            num_sets: u64::from(num_sets),
            ways: ways as usize,
        }
    }

    fn set_range(&self, line_addr: u64) -> std::ops::Range<usize> {
        let set = (line_addr % self.num_sets) as usize;
        set * self.ways..(set + 1) * self.ways
    }

    /// Looks up `line_addr`, updating LRU state on a hit.
    pub fn probe(&mut self, line_addr: u64, now: u64) -> Probe {
        let range = self.set_range(line_addr);
        for line in &mut self.sets[range] {
            if line.valid && line.tag == line_addr {
                line.last_use = now;
                return Probe::Hit;
            }
        }
        Probe::Miss
    }

    /// Looks up without touching replacement state.
    pub fn contains(&self, line_addr: u64) -> bool {
        let range = self.set_range(line_addr);
        self.sets[range]
            .iter()
            .any(|l| l.valid && l.tag == line_addr)
    }

    /// Marks a present line dirty, returning whether it was present.
    pub fn mark_dirty(&mut self, line_addr: u64) -> bool {
        let range = self.set_range(line_addr);
        for line in &mut self.sets[range] {
            if line.valid && line.tag == line_addr {
                line.dirty = true;
                return true;
            }
        }
        false
    }

    /// Inserts `line_addr`, evicting the LRU way if the set is full.
    /// Filling a line that is already present just refreshes it.
    pub fn fill(&mut self, line_addr: u64, now: u64, dirty: bool) -> Option<Evicted> {
        let range = self.set_range(line_addr);
        let set = &mut self.sets[range];
        // Already present (e.g. a racing fill): refresh.
        if let Some(line) = set.iter_mut().find(|l| l.valid && l.tag == line_addr) {
            line.last_use = now;
            line.dirty |= dirty;
            return None;
        }
        if let Some(line) = set.iter_mut().find(|l| !l.valid) {
            *line = Line {
                tag: line_addr,
                valid: true,
                dirty,
                last_use: now,
            };
            return None;
        }
        let victim = set
            .iter_mut()
            .min_by_key(|l| l.last_use)
            .expect("non-empty set");
        let evicted = Evicted {
            line_addr: victim.tag,
            dirty: victim.dirty,
        };
        *victim = Line {
            tag: line_addr,
            valid: true,
            dirty,
            last_use: now,
        };
        Some(evicted)
    }

    /// Invalidates a line (write-evict policy), returning whether it was
    /// present.
    pub fn invalidate(&mut self, line_addr: u64) -> bool {
        let range = self.set_range(line_addr);
        for line in &mut self.sets[range] {
            if line.valid && line.tag == line_addr {
                line.valid = false;
                return true;
            }
        }
        false
    }

    /// Number of valid lines (occupancy), for stats and tests.
    pub fn valid_lines(&self) -> usize {
        self.sets.iter().filter(|l| l.valid).count()
    }

    /// Checks the decoded line table is exactly the geometry's.
    fn check_geometry(&self) -> Result<(), String> {
        let lines = self
            .num_sets
            .checked_mul(self.ways as u64)
            .ok_or("cache geometry overflows")?;
        if self.sets.len() as u64 != lines {
            return Err(format!(
                "cache has {} lines, expected {lines}",
                self.sets.len()
            ));
        }
        Ok(())
    }
}

// Geometry and every line (including LRU state) as `[tag, valid, dirty,
// last_use]` in array order, so the restored replacement state is exact.
impl_json!(Cache { num_sets: NonZero, ways: NonZero, sets as "lines" } check Cache::check_geometry);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_then_fill_then_hit() {
        let mut c = Cache::new(4, 2);
        assert_eq!(c.probe(5, 0), Probe::Miss);
        assert_eq!(c.fill(5, 1, false), None);
        assert_eq!(c.probe(5, 2), Probe::Hit);
        assert!(c.contains(5));
        assert_eq!(c.valid_lines(), 1);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = Cache::new(1, 2);
        c.fill(10, 1, false);
        c.fill(20, 2, false);
        assert_eq!(c.probe(10, 3), Probe::Hit); // 20 is now LRU
        let ev = c.fill(30, 4, false).expect("eviction");
        assert_eq!(ev.line_addr, 20);
        assert!(!ev.dirty);
        assert!(c.contains(10));
        assert!(c.contains(30));
    }

    #[test]
    fn dirty_eviction_reports_writeback() {
        let mut c = Cache::new(1, 1);
        c.fill(1, 0, false);
        assert!(c.mark_dirty(1));
        let ev = c.fill(2, 1, false).unwrap();
        assert!(ev.dirty);
        assert!(!c.mark_dirty(99), "absent line cannot be dirtied");
    }

    #[test]
    fn refill_refreshes_instead_of_duplicating() {
        let mut c = Cache::new(1, 2);
        c.fill(1, 0, false);
        assert_eq!(c.fill(1, 5, true), None);
        assert_eq!(c.valid_lines(), 1);
        // The refreshed dirty bit sticks.
        let _ = c.fill(2, 6, false);
        let ev = c.fill(3, 7, false).unwrap();
        assert_eq!(ev.line_addr, 1);
        assert!(ev.dirty);
    }

    #[test]
    fn invalidate_removes_line() {
        let mut c = Cache::new(2, 2);
        c.fill(4, 0, false);
        assert!(c.invalidate(4));
        assert!(!c.contains(4));
        assert!(!c.invalidate(4));
    }

    #[test]
    fn sets_are_independent() {
        let mut c = Cache::new(2, 1);
        c.fill(0, 0, false); // set 0
        c.fill(1, 1, false); // set 1
        assert_eq!(c.fill(2, 2, false).unwrap().line_addr, 0, "same set as 0");
        assert!(c.contains(1));
    }

    #[test]
    #[should_panic(expected = "degenerate")]
    fn zero_ways_panics() {
        let _ = Cache::new(4, 0);
    }
}
