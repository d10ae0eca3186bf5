//! A latency + bandwidth interconnect channel.
//!
//! Models one direction of the SM↔memory-partition network as a fixed
//! pipeline latency plus a per-cycle flit budget at the delivery end.
//! Items are delivered in injection order (a single virtual channel).

use std::collections::VecDeque;
use vt_json::{impl_json, Count, NonZero, Rows};

/// One direction of the interconnect carrying items of type `T`.
#[derive(Debug, Clone)]
pub struct Icnt<T> {
    latency: u64,
    flits_per_cycle: u32,
    in_flight: VecDeque<(u64, u32, T)>, // (ready cycle, flits, item)
    /// Flits already committed by an over-wide delivery, paid off from
    /// future cycles' budgets (bus occupancy carry-over).
    debt: u32,
}

impl<T> Icnt<T> {
    /// A channel with the given one-way latency and per-cycle flit budget.
    pub fn new(latency: u32, flits_per_cycle: u32) -> Icnt<T> {
        Icnt {
            latency: u64::from(latency),
            flits_per_cycle: flits_per_cycle.max(1),
            in_flight: VecDeque::new(),
            debt: 0,
        }
    }

    /// Injects an item of `flits` flits at cycle `now`.
    pub fn push(&mut self, now: u64, flits: u32, item: T) {
        self.in_flight.push_back((now + self.latency, flits, item));
    }

    /// Appends to `out` the items whose latency has elapsed, respecting
    /// the flit budget for cycle `now`. An item wider than the whole
    /// per-cycle budget is delivered anyway and its excess flits are
    /// charged against subsequent cycles. Call exactly once per cycle;
    /// `out` is the caller's buffer, reused from cycle to cycle.
    pub fn deliver(&mut self, now: u64, out: &mut Vec<T>) {
        let mut budget = self.flits_per_cycle;
        // Pay off occupancy carried over from previous deliveries.
        let pay = self.debt.min(budget);
        self.debt -= pay;
        budget -= pay;
        while budget > 0 {
            match self.in_flight.front() {
                Some((ready, _, _)) if *ready <= now => {}
                _ => break,
            }
            let (_, flits, item) = self.in_flight.pop_front().expect("non-empty");
            if flits > budget {
                self.debt += flits - budget;
                budget = 0;
            } else {
                budget -= flits;
            }
            out.push(item);
        }
    }

    /// Items still traversing the channel.
    pub fn len(&self) -> usize {
        self.in_flight.len()
    }

    /// Whether the channel is empty.
    pub fn is_empty(&self) -> bool {
        self.in_flight.is_empty()
    }

    /// The items still traversing the channel, in delivery order.
    pub(crate) fn items(&self) -> impl Iterator<Item = &T> {
        self.in_flight.iter().map(|(_, _, item)| item)
    }

    /// Checks the flit counts a checkpoint carries: an item is a few
    /// flits and the debt at most one item's excess, and bounding both
    /// keeps `deliver`'s flit sums inside a `u32`.
    fn check_flits(&self) -> Result<(), String> {
        let items = self.in_flight.iter().map(|&(_, flits, _)| ("item", flits));
        match items
            .chain([("debt", self.debt)])
            .find(|&(_, n)| n > u32::from(u16::MAX))
        {
            Some((what, n)) => Err(format!("icnt {what} of {n} flits is out of range")),
            None => Ok(()),
        }
    }
}

// In-flight items keep their exact queue order, packed as `ready, flits,
// item` rows.
impl_json!(Icnt<T: Row> {
    latency: Count,
    flits_per_cycle: NonZero,
    debt,
    in_flight: Rows,
} check Icnt::check_flits);

#[cfg(test)]
mod tests {
    use super::*;

    fn deliver<T>(c: &mut Icnt<T>, now: u64) -> Vec<T> {
        let mut out = Vec::new();
        c.deliver(now, &mut out);
        out
    }

    #[test]
    fn respects_latency() {
        let mut c: Icnt<u32> = Icnt::new(10, 4);
        c.push(0, 1, 42);
        for now in 0..10 {
            assert!(deliver(&mut c, now).is_empty(), "cycle {now}");
        }
        assert_eq!(deliver(&mut c, 10), vec![42]);
        assert!(c.is_empty());
    }

    #[test]
    fn respects_bandwidth() {
        let mut c: Icnt<u32> = Icnt::new(0, 4);
        for i in 0..6 {
            c.push(0, 2, i);
        }
        assert_eq!(deliver(&mut c, 0), vec![0, 1], "two 2-flit items per cycle");
        assert_eq!(deliver(&mut c, 1), vec![2, 3]);
        assert_eq!(deliver(&mut c, 2), vec![4, 5]);
    }

    #[test]
    fn wide_item_delivers_and_charges_debt() {
        let mut c: Icnt<u32> = Icnt::new(0, 4);
        c.push(0, 10, 0); // wider than one cycle's budget
        c.push(0, 1, 1);
        // The wide item goes through immediately, occupying the bus for
        // the following cycle too (10 = 4 + 6 debt; 6 > 4 so one more
        // full cycle of debt remains after cycle 1).
        assert_eq!(deliver(&mut c, 0), vec![0]);
        assert!(deliver(&mut c, 1).is_empty(), "bus still busy paying debt");
        assert_eq!(deliver(&mut c, 2), vec![1], "2 debt flits paid, then item");
    }

    #[test]
    fn preserves_order() {
        let mut c: Icnt<u32> = Icnt::new(2, 100);
        c.push(0, 1, 1);
        c.push(1, 1, 2);
        assert_eq!(deliver(&mut c, 2), vec![1]);
        assert_eq!(deliver(&mut c, 3), vec![2]);
    }
}
