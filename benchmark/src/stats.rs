//! The estimators behind every reported timing.
//!
//! Interference on a shared machine only ever *adds* time, so timings are
//! floors over repeated passes of the same fixed request list rather than
//! medians: request `i`'s settled latency is the fastest of its
//! per-pass latencies, and percentiles are interpolated over the settled
//! values.

/// Per-request minimum over passes. Every pass must time the same list.
pub fn settled<P: AsRef<[f64]>>(passes: &[P]) -> Vec<f64> {
    let Some(first) = passes.first() else { return Vec::new() };
    let mut out = first.as_ref().to_vec();
    for pass in &passes[1..] {
        let pass = pass.as_ref();
        assert_eq!(pass.len(), out.len(), "passes must time the same request list");
        for (floor, &v) in out.iter_mut().zip(pass) {
            if v < *floor {
                *floor = v;
            }
        }
    }
    out
}

/// The `q`-quantile (`0 <= q <= 1`) of `values`, linearly interpolated
/// between the two nearest order statistics (the "linear" / type-7
/// definition), so the estimate moves smoothly when a sample crosses it.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of an empty sample");
    assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = q * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// Where the `q`-quantile of `values` lies, estimated as the mean of the
/// order statistics between the `q − 0.05` and `q + 0.05` quantiles.
///
/// One order statistic of a hundred-odd latencies that spread over a
/// decade is a noisy thing: another seed moves the median by a rank or
/// five, and a rank is worth several percent out there. Averaging the
/// dozen neighbours cuts that variance about threefold, and where the
/// distribution has a gap at `q` the estimate slides across it instead
/// of jumping.
pub fn banded_percentile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of an empty sample");
    assert!((0.05..=0.95).contains(&q), "band around {q} leaves [0, 1]");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let top = (sorted.len() - 1) as f64;
    // The slack keeps a band edge that is an integer in exact arithmetic
    // (0.45 × 120) from rounding to the wrong side of it in floating point.
    let lo = ((q - 0.05) * top - 1e-9).ceil() as usize;
    let hi = ((q + 0.05) * top + 1e-9).floor() as usize;
    if lo >= hi {
        // Too few samples for a band: the plain interpolated percentile.
        return percentile(values, q);
    }
    mean(&sorted[lo..=hi])
}

/// Arithmetic mean (0 for an empty sample).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Smallest value of a non-empty sample.
pub fn floor(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// `(median − fastest) / fastest` of the pass walls, in percent: how much
/// a typical pass of this run was slowed relative to the run's own floor.
pub fn pass_spread_pct(pass_walls: &[f64]) -> f64 {
    let fastest = floor(pass_walls);
    (percentile(pass_walls, 0.5) - fastest) / fastest * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn settled_takes_the_per_request_floor() {
        // Request 1 is disturbed in pass 0, request 0 in pass 1, request
        // 2 in both but less in pass 2: every floor comes from a
        // different pass.
        let passes = vec![vec![1.0, 9.0, 7.0], vec![8.0, 2.0, 6.0], vec![1.5, 2.5, 3.0]];
        assert_eq!(settled(&passes), vec![1.0, 2.0, 3.0]);
        assert_eq!(settled(&passes[..1]), passes[0]);
        assert!(settled::<Vec<f64>>(&[]).is_empty());
    }

    #[test]
    fn settled_removes_additive_interference() {
        // True latencies 1..=100 ms; each pass adds a 50 ms stall to a
        // different tenth of the requests. Any single pass reads a p90
        // far off; the settled list recovers the truth exactly.
        let truth: Vec<f64> = (1..=100).map(f64::from).collect();
        let passes: Vec<Vec<f64>> = (0..4)
            .map(|p| {
                truth
                    .iter()
                    .enumerate()
                    .map(|(i, &t)| if i % 10 == p { t + 50.0 } else { t })
                    .collect()
            })
            .collect();
        assert!(percentile(&passes[0], 0.9) > percentile(&truth, 0.9) + 3.0);
        assert_eq!(settled(&passes), truth);
    }

    #[test]
    #[should_panic(expected = "same request list")]
    fn settled_rejects_ragged_passes() {
        settled(&[vec![1.0, 2.0], vec![1.0]]);
    }

    #[test]
    fn percentile_interpolates_between_order_statistics() {
        let v = [40.0, 10.0, 30.0, 20.0];
        assert_eq!(percentile(&v, 0.0), 10.0);
        assert_eq!(percentile(&v, 1.0), 40.0);
        assert_eq!(percentile(&v, 0.5), 25.0);
        // rank = 0.9 * 3 = 2.7 → 30 + 0.7 * 10.
        assert!((percentile(&v, 0.9) - 37.0).abs() < 1e-12);
        assert_eq!(percentile(&[5.0], 0.9), 5.0);
        // 1..=101: the q-quantile is exactly 1 + 100 q.
        let ramp: Vec<f64> = (1..=101).map(f64::from).collect();
        assert!((percentile(&ramp, 0.9) - 91.0).abs() < 1e-12);
        assert!((percentile(&ramp, 0.505) - 51.5).abs() < 1e-12);
    }

    #[test]
    fn banded_percentile_averages_the_neighbouring_order_statistics() {
        // 0..=120: ranks 54..=66 around the median, 102..=114 around p90.
        let ramp: Vec<f64> = (0..=120).map(f64::from).collect();
        assert_eq!(banded_percentile(&ramp, 0.5), 60.0);
        assert_eq!(banded_percentile(&ramp, 0.9), 108.0);
        // A gap right at the median: the plain percentile sits on one
        // side or the other, the band reports a point between.
        let mut gapped: Vec<f64> = (0..60).map(f64::from).collect();
        gapped.extend((0..61).map(|i| 1000.0 + f64::from(i)));
        assert_eq!(percentile(&gapped, 0.5), 1000.0);
        let banded = banded_percentile(&gapped, 0.5);
        assert!(banded > 59.0 && banded < 1000.0, "{banded}");
        // One outlier beyond the band does not move it.
        let mut spiked = ramp.clone();
        spiked[120] = 1e9;
        assert_eq!(banded_percentile(&spiked, 0.9), 108.0);
        // Tiny samples fall back to the interpolated percentile.
        assert_eq!(banded_percentile(&[1.0, 2.0, 3.0], 0.5), 2.0);
    }

    #[test]
    fn pass_spread_is_relative_to_the_fastest_pass() {
        assert_eq!(pass_spread_pct(&[2.0, 2.0, 2.0]), 0.0);
        assert!((pass_spread_pct(&[1.0, 1.2, 3.0]) - 20.0).abs() < 1e-9);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(mean(&[]), 0.0);
    }
}
