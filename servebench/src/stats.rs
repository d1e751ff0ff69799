//! Order statistics over latency samples.

/// Sorted copy of `values` (NaN-free input assumed).
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

/// Median of `values`: the mean of the two middle samples for an even
/// count, `0` for no samples.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let sorted = sorted(values);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// Arithmetic mean, `0` for no samples.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// The highest percentile of a sample set that still has at least
/// [`TAIL_SAMPLES_BEYOND`] samples strictly above it, and its value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Whole-number percentile (`100` when there are too few samples to
    /// leave ten beyond any rank; the value is then the maximum).
    pub percentile: u32,
    /// Nearest-rank value at that percentile.
    pub value: f64,
    /// Number of samples the percentile was taken over.
    pub samples: usize,
}

/// Samples that must lie beyond the reported tail percentile.
pub const TAIL_SAMPLES_BEYOND: usize = 10;

/// The tail of `values`: the percentile `⌊100·(n − 10)/n⌋`, rounded down to
/// a whole percent so that small changes in the sample count do not move
/// the label, read by nearest rank (`rank = ⌈p·n/100⌉ ≤ n − 10`).
pub fn tail(values: &[f64]) -> Tail {
    let n = values.len();
    let sorted = sorted(values);
    if n <= TAIL_SAMPLES_BEYOND {
        return Tail {
            percentile: 100,
            value: sorted.last().copied().unwrap_or(0.0),
            samples: n,
        };
    }
    let percentile = 100 * (n - TAIL_SAMPLES_BEYOND) / n;
    let rank = ((percentile * n).div_ceil(100)).max(1);
    Tail {
        percentile: percentile as u32,
        value: sorted[rank - 1],
        samples: n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Shuffled-looking order, values 1..=n.
        (0..n).map(|i| ((i * 7919) % n + 1) as f64).collect()
    }

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_leaves_at_least_ten_samples_beyond() {
        for n in 11..500 {
            let values = ramp(n);
            let tail = tail(&values);
            let beyond = values.iter().filter(|&&v| v > tail.value).count();
            assert!(
                beyond >= TAIL_SAMPLES_BEYOND,
                "n={n}: {beyond} beyond {tail:?}"
            );
            assert_eq!(tail.samples, n);
            // One percent higher would leave fewer than ten beyond.
            let next = tail.percentile as usize + 1;
            assert!(
                next * n > 100 * (n - TAIL_SAMPLES_BEYOND),
                "n={n}: p{next} would still leave ten beyond"
            );
        }
    }

    #[test]
    fn tail_reads_known_ranks() {
        let t = tail(&ramp(100));
        assert_eq!((t.percentile, t.value), (90, 90.0));
        let t = tail(&ramp(200));
        assert_eq!((t.percentile, t.value), (95, 190.0));
        let t = tail(&ramp(150));
        assert_eq!((t.percentile, t.value), (93, 140.0));
        let t = tail(&ramp(11));
        assert_eq!((t.percentile, t.value), (9, 1.0));
    }

    #[test]
    fn tail_of_a_tiny_sample_is_its_maximum() {
        let t = tail(&[5.0, 9.0, 1.0]);
        assert_eq!((t.percentile, t.value, t.samples), (100, 9.0, 3));
        assert_eq!(tail(&[]).value, 0.0);
    }
}
