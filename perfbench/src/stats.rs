//! Order statistics over raw samples.
//!
//! Percentiles interpolate linearly between order statistics. Tail
//! percentiles are given in permille so that the ladder stays exact
//! integer arithmetic (p99.9 is 999).

/// Tail percentiles the benchmark may report, in permille, ascending.
const TAIL_LADDER: [u32; 6] = [500, 750, 900, 950, 990, 999];

/// Samples that must lie beyond a reported tail percentile.
const TAIL_BEYOND: usize = 10;

/// The highest percentile on the ladder with at least [`TAIL_BEYOND`]
/// of `n` samples beyond it, or `None` when no percentile qualifies.
pub fn tail_permille(n: usize) -> Option<u32> {
    TAIL_LADDER
        .iter()
        .rev()
        .copied()
        .find(|&p| n * (1000 - p as usize) >= TAIL_BEYOND * 1000)
}

/// The `permille`-th percentile of `samples` (`None` when empty).
pub fn percentile(samples: &[f64], permille: u32) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = f64::from(permille) / 1000.0 * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64))
}

/// Median of `samples`, 0 when empty.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 500).unwrap_or(0.0)
}

/// `p50`, `p75`, `p99.9`: the label of a permille percentile.
pub fn label(permille: u32) -> String {
    if permille.is_multiple_of(10) {
        format!("p{}", permille / 10)
    } else {
        format!("p{}.{}", permille / 10, permille % 10)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_p90_at_100_samples() {
        assert_eq!(tail_permille(100), Some(900));
    }

    #[test]
    fn tail_is_p99_at_1000_samples() {
        assert_eq!(tail_permille(1000), Some(990));
    }

    #[test]
    fn no_tail_below_ten_samples() {
        for n in 0..10 {
            assert_eq!(tail_permille(n), None, "n = {n}");
        }
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        for n in 0..20_000 {
            if let Some(p) = tail_permille(n) {
                assert!(n * (1000 - p as usize) >= 10_000, "n = {n}, p = {p}");
            }
        }
        assert_eq!(tail_permille(20), Some(500));
        assert_eq!(tail_permille(40), Some(750));
        assert_eq!(tail_permille(99), Some(750));
        assert_eq!(tail_permille(9_999), Some(990));
        assert_eq!(tail_permille(10_000), Some(999));
    }

    #[test]
    fn percentile_interpolates_between_order_statistics() {
        let samples = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&samples, 0), Some(1.0));
        assert_eq!(percentile(&samples, 1000), Some(4.0));
        assert_eq!(median(&samples), 2.5);
        assert_eq!(percentile(&[], 500), None);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn labels() {
        assert_eq!(label(500), "p50");
        assert_eq!(label(999), "p99.9");
    }
}
