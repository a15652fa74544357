//! What one measured phase records, plus the small statistics the report
//! needs (median, tail, counter deltas).

use crate::spans::Span;
use ooh_core::Technique;
use ooh_sim::{Event, SimCtx};
use std::time::Instant;

/// Technique order used in every per-technique array and metric suffix.
pub const KEYS: [&str; 4] = ["proc", "ufd", "spml", "epml"];

pub fn tix(t: Technique) -> usize {
    match t {
        Technique::Proc => 0,
        Technique::Ufd => 1,
        Technique::Spml => 2,
        Technique::Epml => 3,
    }
}

/// The event that counts one unit of a technique's collection work: pagemap
/// entries read, pages write-protected, reverse-map lookups, ring entries
/// copied. Pages returned per unit is the technique's useful ratio.
pub const SCAN_EVENT: [Event; 4] = [
    Event::PagemapReadEntry,
    Event::UfdWriteProtectPage,
    Event::ReverseMapLookup,
    Event::RingBufferCopyEntry,
];

pub fn elapsed_ns(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// Every event counter of one simulated context, indexed by `Event as usize`.
pub fn read_counters(ctx: &SimCtx) -> Vec<u64> {
    Event::ALL.iter().map(|&e| ctx.counters().get(e)).collect()
}

#[derive(Debug, Default)]
pub struct Meas {
    /// Complete cycles run (one unit per technique, or one fleet).
    pub cycles: u64,
    /// Wall time of the cycle loop, set-up included.
    pub wall_ns: u64,
    /// Host time of the timed sections only (set-up and checks excluded).
    pub timed_ns: u64,
    /// Checked operations (technique runs, rounds or VMs).
    pub attempted: u64,
    pub setup_ns: Vec<u64>,
    /// Closed-loop operation latencies: quanta, rounds or VMs.
    pub op_ns: Vec<u64>,
    /// Tracker collection rounds per technique: `fetch_dirty`, or CRIU's
    /// `pre_dump` on `fleet_chain`.
    pub round_ns: [Vec<u64>; 4],
    /// Event counter deltas over the timed sections.
    pub events: Vec<u64>,
    pub fetch_pages: [u64; 4],
    pub scan_units: [u64; 4],
    pub criu_pages: u64,
    pub chain_bytes: u64,
    /// Σ per-VM host time, and threads × fleet wall.
    pub fleet_busy_ns: u64,
    pub fleet_capacity_ns: u64,
    pub vm_max_ns: u64,
    pub spans: Vec<Span>,
}

impl Meas {
    /// Add the counter movement `before → after` of a context that ran
    /// technique `t` (or none) during a timed section.
    pub fn add_events(&mut self, before: &[u64], after: &[u64], t: Option<usize>) {
        if self.events.is_empty() {
            self.events = vec![0; Event::ALL.len()];
        }
        for (i, (b, a)) in before.iter().zip(after).enumerate() {
            self.events[i] += a - b;
        }
        if let Some(t) = t {
            let e = SCAN_EVENT[t] as usize;
            self.scan_units[t] += after[e] - before[e];
        }
    }

    pub fn event(&self, e: Event) -> u64 {
        self.events.get(e as usize).copied().unwrap_or(0)
    }

    pub fn accesses(&self) -> u64 {
        self.event(Event::GuestLoad) + self.event(Event::GuestStore)
    }
}

pub fn median(xs: &[u64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_unstable();
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2] as f64
    } else {
        (v[n / 2 - 1] as f64 + v[n / 2] as f64) / 2.0
    }
}

/// The tail of a latency sample: the highest percentile with at least ten
/// samples beyond it, i.e. the 11th-largest value. Returns (value,
/// percentile, sample count); with ten or fewer samples it is the maximum
/// at percentile 100.
pub fn tail(xs: &[u64]) -> (f64, f64, usize) {
    let n = xs.len();
    if n == 0 {
        return (0.0, 0.0, 0);
    }
    let mut v = xs.to_vec();
    v.sort_unstable();
    if n <= 10 {
        return (v[n - 1] as f64, 100.0, n);
    }
    (v[n - 11] as f64, 100.0 * (n - 10) as f64 / n as f64, n)
}

/// `a / b`, or 0 when there is nothing to divide by.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_the_eleventh_largest() {
        let xs: Vec<u64> = (1..=100).collect();
        assert_eq!(tail(&xs), (90.0, 90.0, 100));
        assert_eq!(tail(&[5, 1, 3]), (5.0, 100.0, 3));
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3, 1, 2]), 2.0);
        assert_eq!(median(&[4, 1, 3, 2]), 2.5);
    }
}
