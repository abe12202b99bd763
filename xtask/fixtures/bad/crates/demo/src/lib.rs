//! Seeded-violation fixture: every lint rule but rule 5 (core only) must fire
//! on this file or its manifest.

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

/// Rule 6: a public item no file outside this crate's `src/` names.
pub fn orphan() -> u32 {
    7
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
