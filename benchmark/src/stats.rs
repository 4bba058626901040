//! Order statistics for reported timings.
//!
//! A percentile is reported only when the sample supports it: at least
//! [`MIN_BEYOND`] samples must lie strictly beyond the chosen rank, so a
//! p90 needs 100 samples and a p99 needs 1000. Percentiles are given in
//! per-mille (`900` for p90) so the rank arithmetic stays exact.

/// Samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Smallest sample count that supports the percentile `per_mille`.
pub fn min_samples_for(per_mille: usize) -> usize {
    // n - ceil(pm·n/1000) >= MIN_BEYOND  <=>  n·(1000 - pm) >= 1000·MIN_BEYOND
    // (up to the ceiling, which the loop below settles exactly).
    let mut n = (1000 * MIN_BEYOND).div_ceil(1000 - per_mille.min(999));
    while n - rank(per_mille, n) < MIN_BEYOND {
        n += 1;
    }
    n
}

/// Nearest-rank position (1-based) of the `per_mille` percentile in `n`
/// samples: `ceil(pm·n / 1000)`, at least 1.
fn rank(per_mille: usize, n: usize) -> usize {
    (per_mille * n).div_ceil(1000).max(1)
}

/// Nearest-rank percentile of `samples`, or `None` when fewer than
/// [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(samples: &[f64], per_mille: usize) -> Option<f64> {
    let n = samples.len();
    if n == 0 || per_mille >= 1000 {
        return None;
    }
    let r = rank(per_mille, n);
    if n - r < MIN_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[r - 1])
}

/// The `per_mille` percentile of each block of consecutive samples, as
/// many equal blocks as the sample supports the percentile in, and the
/// median of those. A burst of host noise that covers fewer than half of
/// the blocks does not move it, where it moves a whole-run tail. `None`
/// when the whole sample does not support the percentile.
pub fn blocked_percentile(samples: &[f64], per_mille: usize) -> Option<f64> {
    let n = samples.len();
    let blocks = n / min_samples_for(per_mille);
    let per_block = (0..blocks)
        .map(|b| percentile(&samples[b * n / blocks..(b + 1) * n / blocks], per_mille))
        .collect::<Option<Vec<f64>>>()?;
    (blocks > 0).then(|| median(&per_block))
}

/// Median of `samples` (mean of the two middle values for even counts);
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
        0.5 * (sorted[mid - 1] + sorted[mid])
    }
}

/// Arithmetic mean; `NaN` for an empty slice.
pub fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn p90_needs_one_hundred_samples() {
        assert_eq!(min_samples_for(900), 100);
        assert_eq!(percentile(&ramp(99), 900), None);
        // Rank 90 of 100 leaves samples 91..=100 beyond it: exactly ten.
        assert_eq!(percentile(&ramp(100), 900), Some(90.0));
    }

    #[test]
    fn p99_needs_one_thousand_samples() {
        assert_eq!(min_samples_for(990), 1000);
        assert_eq!(percentile(&ramp(999), 990), None);
        assert_eq!(percentile(&ramp(1000), 990), Some(990.0));
    }

    #[test]
    fn median_needs_twenty_samples_under_the_rule() {
        assert_eq!(min_samples_for(500), 20);
        assert_eq!(percentile(&ramp(19), 500), None);
        assert_eq!(percentile(&ramp(20), 500), Some(10.0));
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut shuffled = ramp(200);
        shuffled.reverse();
        shuffled.swap(3, 150);
        assert_eq!(percentile(&shuffled, 900), Some(180.0));
    }

    #[test]
    fn every_supported_percentile_leaves_ten_beyond() {
        for pm in [500, 750, 900, 950, 990] {
            let n = min_samples_for(pm);
            let value = percentile(&ramp(n), pm).expect("supported at the minimum count");
            let beyond = ramp(n).iter().filter(|&&v| v > value).count();
            assert!(beyond >= MIN_BEYOND, "p{pm}: {beyond} beyond at n = {n}");
            assert_eq!(percentile(&ramp(n - 1), pm), None, "p{pm} at n = {}", n - 1);
        }
    }

    #[test]
    fn blocked_percentile_is_the_median_of_block_tails() {
        assert_eq!(blocked_percentile(&ramp(99), 900), None);
        assert_eq!(blocked_percentile(&ramp(150), 900), percentile(&ramp(150), 900));
        // Three blocks of 100 (1..=100, 101..=200, 201..=300): their p90s
        // are 90, 190 and 290, and the median is the middle one.
        assert_eq!(blocked_percentile(&ramp(300), 900), Some(190.0));
        // 250 samples make two blocks of 125 with p90s 113 and 238.
        assert_eq!(blocked_percentile(&ramp(250), 900), Some(175.5));
        // A stall in one of three blocks leaves the result alone.
        let mut stalled = vec![10.0; 300];
        stalled[..100].iter_mut().for_each(|v| *v = 1000.0);
        assert_eq!(blocked_percentile(&stalled, 900), Some(10.0));
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }
}
