//! Summary statistics of timing samples.

/// Median of `samples` (mean of the two middle values for an even count);
/// `NaN` for an empty slice.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The fastest repeat of each work item: `samples[i]` is a repeat of item
/// `i % items`, and the result holds, per item that was sampled, the smallest
/// of its samples.
///
/// The machine this runs on is shared: for seconds at a time other tenants
/// slow memory-bound code by up to half, so the same request reads 1.0x or
/// 1.5x depending on when it was sent.  That noise only ever adds time.  A
/// median over samples flips between the two states from run to run; the
/// fastest of a few repeats taken far apart in time does not, and medians
/// are then taken across the distinct items.
pub fn item_minima(samples: &[f64], items: usize) -> Vec<f64> {
    let mut minima = vec![f64::INFINITY; items.min(samples.len())];
    for (i, &sample) in samples.iter().enumerate() {
        let slot = &mut minima[i % items];
        *slot = slot.min(sample);
    }
    minima
}

/// Smallest sample; `NaN` for an empty slice.
pub fn fastest(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::NAN, f64::min)
}

/// Largest sample; `NaN` for an empty slice.
pub fn largest(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::NAN, f64::max)
}

/// The highest percentile, out of 99.9 / 99 / 95 / 90 / 75, that still has at
/// least ten samples beyond it, together with its value (nearest-rank).
///
/// A tail percentile read off fewer than ten samples is one or two outliers,
/// not a property of the program, so small sample sets fall back to lower
/// percentiles and, below 40 samples, to the median (reported as `50.0`).
pub fn tail_percentile(samples: &[f64]) -> (f64, f64) {
    let n = samples.len();
    // Levels in tenths of a percent, so ranks are exact integers.
    for level in [999, 990, 950, 900, 750] {
        let rank = (n * level).div_ceil(1000);
        if n - rank >= 10 {
            let p = level as f64 / 10.0;
            return (p, percentile(samples, p));
        }
    }
    (50.0, median(samples))
}

/// Nearest-rank percentile `p` (0–100) of `(value, weight)` pairs: the
/// smallest value at which the cumulative weight reaches `p` percent of the
/// total; `NaN` when empty.
///
/// The explore metrics are percentiles of a traffic mix whose classes are
/// sampled separately (many selective queries, one broad query) and weighted
/// by their share of the traffic.
pub fn weighted_percentile(values: &[(f64, f64)], p: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.0.total_cmp(&b.0));
    let target = sorted.iter().map(|&(_, weight)| weight).sum::<f64>() * p / 100.0;
    let mut reached = 0.0;
    for &(value, weight) in &sorted {
        reached += weight;
        // The tolerance keeps a rank that is met exactly (half of ten equal
        // weights) from slipping to the next value through rounding.
        if reached >= target - 1e-9 {
            return value;
        }
    }
    sorted.last().map_or(f64::NAN, |&(value, _)| value)
}

/// Nearest-rank percentile `p` (0–100) of `samples`; `NaN` when empty.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    // In tenths of a percent, so that 99.9% of 10,000 is rank 9,990 exactly.
    let rank = (sorted.len() * (p * 10.0).round() as usize).div_ceil(1000);
    sorted[rank.clamp(1, sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn item_minima_keep_the_fastest_repeat_of_each_item() {
        // Three items, two and a half passes.
        let samples = [5.0, 9.0, 7.0, 4.0, 12.0, 8.0, 6.0, 3.0];
        assert_eq!(item_minima(&samples, 3), vec![4.0, 3.0, 7.0]);
        // Fewer samples than items: only the sampled items are reported.
        assert_eq!(item_minima(&[2.0, 1.0], 5), vec![2.0, 1.0]);
        assert!(item_minima(&[], 5).is_empty());
        assert_eq!(fastest(&[3.0, 1.5, 2.0]), 1.5);
        assert!(fastest(&[]).is_nan());
        assert_eq!(largest(&[3.0, 1.5, 2.0]), 3.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let samples: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&samples, 95.0), 190.0);
        assert_eq!(percentile(&samples, 100.0), 200.0);
        assert_eq!(percentile(&samples, 0.0), 1.0);
    }

    #[test]
    fn weighted_percentile_follows_the_cumulative_weight() {
        // Nine selective rounds of weight 0.1 and a broad one of weight 0.1:
        // equal weights reduce to the nearest-rank percentile.
        let equal: Vec<(f64, f64)> = (1..=10).map(|i| (f64::from(i), 0.1)).collect();
        assert_eq!(weighted_percentile(&equal, 50.0), 5.0);
        assert_eq!(weighted_percentile(&equal, 95.0), 10.0);
        // Three selective values sharing 0.9 and one broad value with 0.1:
        // the median falls in the selective class, the 95th percentile on the
        // broad value, wherever it sorts.
        let mix = [(20.0, 0.3), (100.0, 0.1), (22.0, 0.3), (21.0, 0.3)];
        assert_eq!(weighted_percentile(&mix, 50.0), 21.0);
        assert_eq!(weighted_percentile(&mix, 95.0), 100.0);
        let cheap_broad = [(20.0, 0.3), (5.0, 0.1), (22.0, 0.3), (21.0, 0.3)];
        assert_eq!(weighted_percentile(&cheap_broad, 95.0), 22.0);
        assert!(weighted_percentile(&[], 50.0).is_nan());
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        let of = |n: usize| {
            let samples: Vec<f64> = (1..=n).map(|i| i as f64).collect();
            tail_percentile(&samples).0
        };
        // 200 samples: 5% of 200 = 10 beyond p95, but only 2 beyond p99.
        assert_eq!(of(200), 95.0);
        assert_eq!(of(199), 90.0);
        assert_eq!(of(1_000), 99.0);
        assert_eq!(of(10_000), 99.9);
        assert_eq!(of(100), 90.0);
        assert_eq!(of(40), 75.0);
        assert_eq!(of(39), 50.0);
        // The value is the nearest-rank percentile of the chosen level.
        let samples: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(tail_percentile(&samples), (95.0, 190.0));
    }
}
