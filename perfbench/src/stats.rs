//! Order statistics used by the benchmark's metrics.

/// Fewest samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Median of `values` (mean of the middle two for an even count); `None` when
/// empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// Nearest-rank percentile `q` (in `(0, 1)`) of `values`, reported only when
/// at least [`MIN_BEYOND`] samples lie strictly above its rank.
pub fn percentile(values: &[f64], q: f64) -> Option<f64> {
    let n = values.len();
    let rank = (q * n as f64).ceil() as usize;
    if rank == 0 || n.saturating_sub(rank) < MIN_BEYOND {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    Some(v[rank - 1])
}

/// Smallest sample count for which [`percentile`] reports `q`.
pub fn samples_for(q: f64) -> usize {
    (1..)
        .find(|&n| n - (q * n as f64).ceil() as usize >= MIN_BEYOND)
        .expect("some sample count always suffices")
}

/// Median of the per-pair ratios `numer[i] / denom[i]`.
pub fn paired_ratio_median(numer: &[f64], denom: &[f64]) -> Option<f64> {
    assert_eq!(numer.len(), denom.len(), "ratios need paired samples");
    let ratios: Vec<f64> = numer.iter().zip(denom).map(|(a, b)| a / b).collect();
    median(&ratios)
}

/// Median of the per-pair differences `a[i] - b[i]`.
pub fn paired_delta_median(a: &[f64], b: &[f64]) -> Option<f64> {
    assert_eq!(a.len(), b.len(), "deltas need paired samples");
    let deltas: Vec<f64> = a.iter().zip(b).map(|(x, y)| x - y).collect();
    median(&deltas)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        // p90 of 100 samples: rank 90, ten beyond it.
        assert_eq!(percentile(&v, 0.90), Some(90.0));
        // p99 of 100 samples would leave one beyond it.
        assert_eq!(percentile(&v, 0.99), None);
        // p90 of 99 samples leaves nine beyond it.
        assert_eq!(percentile(&v[..99], 0.90), None);
        assert_eq!(percentile(&v, 0.50), Some(50.0));
        assert_eq!(percentile(&[], 0.50), None);
    }

    #[test]
    fn samples_for_matches_percentile() {
        for q in [0.5, 0.9, 0.99] {
            let n = samples_for(q);
            let v: Vec<f64> = (0..n).map(|i| i as f64).collect();
            assert!(percentile(&v, q).is_some(), "q={q} n={n}");
            assert!(percentile(&v[..n - 1], q).is_none(), "q={q} n={n}");
        }
        assert_eq!(samples_for(0.90), 100);
        assert_eq!(samples_for(0.99), 1000);
    }

    #[test]
    fn paired_ratio_median_is_the_median_of_ratios() {
        // Ratios 2, 1, 4: median 2 — not the ratio of medians (3/3 = 1)
        // nor of means (17/7).
        let verified = [2.0, 3.0, 12.0];
        let baseline = [1.0, 3.0, 3.0];
        assert_eq!(paired_ratio_median(&verified, &baseline), Some(2.0));
        // One outlier pair cannot flip it.
        let verified = [1.1, 1.2, 1.1, 50.0, 1.2];
        let baseline = [1.0, 1.0, 1.0, 1.0, 1.0];
        assert_eq!(paired_ratio_median(&verified, &baseline), Some(1.2));
    }

    #[test]
    fn paired_delta_median_is_the_median_of_differences() {
        assert_eq!(
            paired_delta_median(&[5.0, 7.0, 100.0], &[4.0, 5.0, 1.0]),
            Some(2.0)
        );
    }
}
