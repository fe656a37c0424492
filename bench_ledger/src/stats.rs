//! Order statistics over latency samples, slice rates and run sets.

/// The `p`-quantile (0 ≤ p ≤ 1) of an ascending slice, nearest rank on
/// `(n - 1) * p`. An empty slice has no quantiles; callers never pass one.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[((sorted.len() - 1) as f64 * p).round() as usize]
}

/// Sort a sample ascending (total order, NaN last).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// The median of an unsorted sample, averaging the two middle values of an
/// even-sized one — what Python's `statistics.median` returns.
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values.to_vec());
    let n = s.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// First and third quartile as Python's `statistics.quantiles(values, n=4)`
/// gives them (the default "exclusive" method), so the spreads printed here
/// are the ones the driver computes. Needs at least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let s = sorted(values.to_vec());
    let n = s.len();
    assert!(n >= 2, "quartiles need at least two values");
    let cut = |i: usize| {
        // Position (n + 1) * i / 4 on a 1-based scale, clamped to the data.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Interquartile range as a share of the median: the spread the driver
/// holds against a metric's bound.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values).abs()
}

/// Per-slice rates of a phase cut into equal-operation slices. `marks` are
/// the seconds-since-phase-start at which each slice ended; every slice
/// holds `ops_per_slice` operations.
pub fn slice_rates(marks: &[f64], ops_per_slice: f64) -> Vec<f64> {
    let mut previous = 0.0;
    marks
        .iter()
        .map(|&end| {
            let rate = ops_per_slice / (end - previous);
            previous = end;
            rate
        })
        .collect()
}

/// The rate of the least-disturbed tenth of a phase: the 90th percentile of
/// its per-slice rates, which with 100 slices leaves ten samples beyond it.
pub fn quiet_rate(marks: &[f64], ops_per_slice: f64) -> f64 {
    percentile(&sorted(slice_rates(marks, ops_per_slice)), 0.9)
}

/// The median latency of the least-disturbed tenth of a phase: the 10th
/// percentile of the per-slice median latencies, the latency twin of
/// [`quiet_rate`]. `samples` are `(call index, latency)` pairs of a phase of
/// `calls` calls cut into `slices` equal slices; slices without a sample
/// (no call in them produced one) are skipped.
pub fn quiet_latency(samples: &[(usize, f64)], calls: usize, slices: usize) -> f64 {
    let mut by_slice: Vec<Vec<f64>> = vec![Vec::new(); slices];
    for &(call, latency) in samples {
        by_slice[call * slices / calls].push(latency);
    }
    let medians: Vec<f64> =
        by_slice.iter().filter(|slice| !slice.is_empty()).map(|slice| median(slice)).collect();
    percentile(&sorted(medians), 0.1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_picks_nearest_rank() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&s, 0.5), 51.0); // (99 * 0.5).round() = 50 → s[50]
        assert_eq!(percentile(&s, 0.9), 90.0);
        assert_eq!(percentile(&s, 1.0), 100.0);
        assert_eq!(percentile(&[7.0], 0.95), 7.0);
    }

    #[test]
    fn median_and_quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(median(&ten), 5.5);
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2, 5, 4], n=4) == [1.5, 3.0, 4.5]
        let five = [3.0, 1.0, 2.0, 5.0, 4.0];
        assert_eq!(median(&five), 3.0);
        assert_eq!(quartiles(&five), (1.5, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert!((spread(&ten) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn slice_rates_use_each_slices_own_duration() {
        // Three slices of 10 ops ending at 1 s, 3 s and 3.5 s.
        let rates = slice_rates(&[1.0, 3.0, 3.5], 10.0);
        assert_eq!(rates, vec![10.0, 5.0, 20.0]);
    }

    #[test]
    fn quiet_latency_ignores_a_disturbed_minority() {
        // 100 slices of 10 calls at 2 ms; in 30 slices every call takes 6 ms.
        // The plain median is 2 ms either way, but once 60 slices are slow it
        // jumps to 6 ms while the quiet latency still reads 2 ms.
        let phase = |slow_slices: usize| -> Vec<(usize, f64)> {
            (0..1000).map(|call| (call, if call / 10 < slow_slices { 6.0 } else { 2.0 })).collect()
        };
        assert_eq!(quiet_latency(&phase(30), 1000, 100), 2.0);
        assert_eq!(quiet_latency(&phase(60), 1000, 100), 2.0);
        let plain: Vec<f64> = phase(60).iter().map(|&(_, ms)| ms).collect();
        assert_eq!(median(&plain), 6.0);
        // Slices without samples are skipped, not counted as zero.
        assert_eq!(quiet_latency(&[(0, 3.0), (999, 5.0)], 1000, 100), 3.0);
    }

    #[test]
    fn quiet_rate_ignores_a_disturbed_minority() {
        // 100 slices of 1 s each, 30 of them stretched threefold: the whole
        // phase slows by 60 %, the quiet rate does not move.
        let mut marks = Vec::new();
        let mut t = 0.0;
        for i in 0..100 {
            t += if i % 10 < 3 { 3.0 } else { 1.0 };
            marks.push(t);
        }
        assert_eq!(quiet_rate(&marks, 50.0), 50.0);
        assert!(50.0 * 100.0 / t < 32.0);
    }
}
