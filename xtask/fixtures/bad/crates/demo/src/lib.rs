//! Seeded-violation fixture: every lint rule must fire on this file.

use std::time::Instant;

pub struct Stats {
    pub sorted_accesses: u64,
}

/// Rule 1: bare unwrap, a non-invariant expect, and a panic.
pub fn forbidden_calls(input: Option<u32>) -> u32 {
    let value = input.unwrap();
    let doubled = Some(value * 2).expect("just computed");
    if doubled > 100 {
        panic!("too big");
    }
    doubled
}

/// Rule 2: bumps a governed counter with no budget check in sight.
pub fn unpaired_bump(stats: &mut Stats) {
    stats.sorted_accesses += 1;
}

/// Rule 3: reads the clock outside govern/bench code.
pub fn rogue_clock() -> Instant {
    Instant::now()
}

/// Rule 6 (declarations): the same metric name registered under two
/// different constants.
pub mod names {
    /// The widget counter.
    pub const WIDGETS_TOTAL: &str = "seda_widgets_total";
    /// Accidental duplicate of the widget counter.
    pub const WIDGETS_AGAIN: &str = "seda_widgets_total";
}

/// A stand-in for the metrics registry so rule 6 has a call site.
pub struct Metrics;

impl Metrics {
    /// Accepts any name, like the real registry.
    pub fn counter(&self, _name: &str, _label: &str) {}
}

/// Rule 6 (call sites): an ad-hoc string-literal metric name.
pub fn rogue_metric(metrics: &Metrics) {
    metrics.counter("seda_adhoc_total", "");
}

#[cfg(test)]
mod tests {
    // unwrap here is fine: test code is exempt.
    #[test]
    fn exempt() {
        let v: Option<u32> = Some(1);
        assert_eq!(v.unwrap(), 1);
    }
}
