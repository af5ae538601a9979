//! The few statistics every reported number goes through.

/// Linear-interpolated quantile (`0.0 ..= 1.0`) of an ascending slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(values: &[f64]) -> f64 {
    quantile(&sorted(values), 0.5)
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the exclusive method) — the rule the driver applies to run-to-run
/// spread, so `--repeat` judges by the same numbers.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let data = sorted(values);
    let m = data.len();
    if m < 2 {
        let v = data.first().copied().unwrap_or(0.0);
        return [v; 3];
    }
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    out
}

/// The highest percentile of the usual ladder that still has at least ten
/// samples beyond it, as (label, quantile). `None` below 20 samples, where
/// not even the median qualifies.
pub fn highest_supported_percentile(samples: usize) -> Option<(&'static str, f64)> {
    // (label, quantile, samples beyond it per 10 000): integers, because
    // 100 × (1 − 0.9) is 9.999… in floating point.
    const LADDER: [(&str, f64, usize); 6] = [
        ("p99.99", 0.9999, 1),
        ("p99.9", 0.999, 10),
        ("p99", 0.99, 100),
        ("p95", 0.95, 500),
        ("p90", 0.90, 1000),
        ("p50", 0.50, 5000),
    ];
    LADDER
        .into_iter()
        .find(|&(_, _, beyond)| samples * beyond >= 10 * 10_000)
        .map(|(label, q, _)| (label, q))
}

/// Ops per second as the median over `windows` equal slices of the timed
/// section: `done_at_s` holds each op's completion time, ascending, in
/// seconds since the section began. The loop is closed, so the ops that end
/// in a window took from the last completion before it to the last one in
/// it, and the window's rate is their count over that stretch — counting
/// them over the window's width instead would round every rate to a whole
/// op, 3–4 % steps at 30 ops a window. One stalled window moves the median
/// by nothing, where it would move ops ÷ wall by its full length.
pub fn window_median_throughput(done_at_s: &[f64], total_s: f64, windows: usize) -> f64 {
    if windows == 0 || total_s <= 0.0 {
        return 0.0;
    }
    let width = total_s / windows as f64;
    let mut rates = vec![0.0; windows];
    let (mut from, mut next) = (0.0, 0);
    for (w, rate) in rates.iter_mut().enumerate() {
        let end = if w + 1 == windows {
            f64::INFINITY
        } else {
            width * (w + 1) as f64
        };
        let first = next;
        while next < done_at_s.len() && done_at_s[next] < end {
            next += 1;
        }
        if next > first && done_at_s[next - 1] > from {
            *rate = (next - first) as f64 / (done_at_s[next - 1] - from);
            from = done_at_s[next - 1];
        }
    }
    median(&rates)
}

/// p75 ÷ p25 of the op times: how equal the ops of one run were.
pub fn iqr_ratio(values: &[f64]) -> f64 {
    let s = sorted(values);
    let p25 = quantile(&s, 0.25);
    if p25 > 0.0 {
        quantile(&s, 0.75) / p25
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 0.5), 2.5);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(median(&[9.0, 1.0, 5.0]), 5.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2, 10, 7], n=4) == [1.5, 3.0, 8.5]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0, 10.0, 7.0]), [1.5, 3.0, 8.5]);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        assert_eq!(highest_supported_percentile(8), None);
        assert_eq!(highest_supported_percentile(20).map(|p| p.0), Some("p50"));
        assert_eq!(highest_supported_percentile(100).map(|p| p.0), Some("p90"));
        assert_eq!(highest_supported_percentile(999).map(|p| p.0), Some("p95"));
        assert_eq!(highest_supported_percentile(1000).map(|p| p.0), Some("p99"));
        assert_eq!(
            highest_supported_percentile(12_000).map(|p| p.0),
            Some("p99.9")
        );
    }

    #[test]
    fn window_median_ignores_one_stalled_window() {
        // An op every 0.13 s — 7.7 to a 1 s window, which counting whole
        // ops per window would round to 7 or 8 — and a 2 s stall after 3 s.
        let done: Vec<f64> = (1..=60)
            .map(|i| i as f64 * 0.13)
            .map(|t| if t > 3.0 { t + 2.0 } else { t })
            .collect();
        let total = done[59];
        let rate = window_median_throughput(&done, total, total as usize);
        assert!((rate - 1.0 / 0.13).abs() < 1e-9, "{rate}");
        assert_eq!(window_median_throughput(&[], 4.0, 4), 0.0);
        assert_eq!(window_median_throughput(&done, 0.0, 4), 0.0);
        assert_eq!(window_median_throughput(&done, 4.0, 0), 0.0);
    }

    #[test]
    fn iqr_ratio_of_equal_ops_is_one() {
        assert_eq!(iqr_ratio(&[2.0; 8]), 1.0);
        assert!(iqr_ratio(&[1.0, 1.0, 2.0, 2.0]) > 1.2);
    }
}
