//! Sample arithmetic: medians, percentiles, quartile spread.

/// Median of the samples; 0 for an empty set. Sorts in place.
pub fn median(samples: &mut [f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_unstable_by(f64::total_cmp);
    let n = samples.len();
    if n % 2 == 1 {
        samples[n / 2]
    } else {
        (samples[n / 2 - 1] + samples[n / 2]) / 2.0
    }
}

/// Median of nanosecond samples, in nanoseconds.
pub fn median_ns(samples: &[u64]) -> f64 {
    let mut v: Vec<f64> = samples.iter().map(|&x| x as f64).collect();
    median(&mut v)
}

/// Nearest-rank percentile (`q` in 0..=1) of ascending samples.
pub fn percentile_sorted(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The tail a sample can support: the highest of p99.9 / p99 / p90 / p50
/// that still has at least ten samples beyond it. Returns `(q, value)`.
/// With fewer than 20 samples the median is all there is.
pub fn supported_tail(samples: &[u64]) -> (f64, u64) {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let n = sorted.len();
    // In whole numbers: 100 x (1 - 0.9) is not 10 in floating point.
    for (num, den) in [(999, 1000), (99, 100), (9, 10)] {
        let rank = (n * num).div_ceil(den);
        if rank >= 1 && n - rank >= 10 {
            return (num as f64 / den as f64, sorted[rank - 1]);
        }
    }
    (0.5, percentile_sorted(&sorted, 0.5))
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` computes
/// them (the default "exclusive" method). Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let m = values.len();
    if m < 2 {
        return None;
    }
    let mut data = values.to_vec();
    data.sort_unstable_by(f64::total_cmp);
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    Some(out)
}

/// Distance between the first and third quartile as a share of the
/// median: the run-to-run spread a bound is judged against.
pub fn quartile_spread(values: &[f64]) -> Option<f64> {
    let q = quartiles(values)?;
    let mut v = values.to_vec();
    let med = median(&mut v);
    (med != 0.0).then(|| (q[2] - q[0]) / med.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&mut []), 0.0);
        assert_eq!(median_ns(&[10, 30, 20]), 20.0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_sorted(&sorted, 0.5), 50);
        assert_eq!(percentile_sorted(&sorted, 0.99), 99);
        assert_eq!(percentile_sorted(&sorted, 1.0), 100);
        assert_eq!(percentile_sorted(&sorted, 0.0), 1);
        assert_eq!(percentile_sorted(&[], 0.5), 0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let many: Vec<u64> = (1..=20_000).collect();
        assert_eq!(supported_tail(&many), (0.999, 19_980));
        let thousand: Vec<u64> = (1..=1000).collect();
        assert_eq!(supported_tail(&thousand), (0.99, 990));
        let hundred: Vec<u64> = (1..=100).collect();
        assert_eq!(supported_tail(&hundred), (0.9, 90));
        let few: Vec<u64> = (1..=15).collect();
        assert_eq!(supported_tail(&few), (0.5, 8));
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[20.0, 10.0]), Some([7.5, 15.0, 22.5]));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(
            quartiles(&[1.0, 2.0, 4.0, 8.0, 16.0]),
            Some([1.5, 4.0, 12.0])
        );
        assert_eq!(quartiles(&[1.0]), None);
        let spread = quartile_spread(&v).unwrap();
        assert!((spread - 1.0).abs() < 1e-12, "{spread}");
    }
}
