//! Order statistics for latency samples, and the sample-count rule
//! that says which percentiles a sample supports.

/// The nearest-rank percentile `p` (0 < p ≤ 100) of `samples`, or 0
/// for an empty sample. Sorts a copy, so callers keep arrival order.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(p > 0.0 && p <= 100.0, "percentile {p} outside (0, 100]");
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p * sorted.len() as f64 / 100.0).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median (nearest-rank 50th percentile).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// How many of `n` samples lie strictly beyond the nearest-rank
/// percentile `p`: the evidence a tail percentile rests on.
pub fn beyond(n: usize, p: f64) -> usize {
    let rank = (p * n as f64 / 100.0).ceil() as usize;
    n - rank.min(n)
}

/// A percentile is reported as supported when at least ten samples lie
/// beyond it.
pub fn supported(n: usize, p: f64) -> bool {
    beyond(n, p) >= 10
}

/// The smallest sample whose nearest-rank percentile `p` has ten
/// samples beyond it.
pub fn supporting_len(p: f64) -> usize {
    (1000.0 / (100.0 - p)).ceil() as usize
}

/// A tail percentile that one burst of interference cannot move: split
/// the samples, in the order they were taken, into consecutive chunks
/// of at least [`supporting_len`] samples, take the percentile of each
/// chunk, and report the median over chunks. A sample too small for two
/// chunks gets the plain percentile.
pub fn chunked_percentile(in_order: &[f64], p: f64) -> f64 {
    let chunks = in_order.len() / supporting_len(p);
    if chunks < 2 {
        return percentile(in_order, p);
    }
    let size = in_order.len() / chunks;
    let per: Vec<f64> = in_order.chunks(size).take(chunks).map(|c| percentile(c, p)).collect();
    median(&per)
}

/// `num / den`, or 0 when nothing was measured.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Geometric mean of positive values (0 for an empty slice).
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), 50.0);
        assert_eq!(percentile(&s, 99.0), 99.0);
        assert_eq!(percentile(&s, 100.0), 100.0);
        assert_eq!(percentile(&s, 0.5), 1.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(percentile(&[], 90.0), 0.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn sample_counts_beyond_a_percentile() {
        assert_eq!(beyond(100, 99.0), 1);
        assert_eq!(beyond(1000, 99.0), 10);
        assert_eq!(beyond(10, 50.0), 5);
        assert_eq!(beyond(0, 90.0), 0);
        assert!(!supported(999, 99.0));
        assert!(supported(1000, 99.0));
        assert!(supported(100, 90.0));
        assert!(!supported(99, 90.0));
    }

    #[test]
    fn chunked_tails_shrug_off_one_burst() {
        assert_eq!(supporting_len(99.0), 1000);
        assert_eq!(supporting_len(90.0), 100);
        assert!(supported(supporting_len(99.0), 99.0));
        // 3000 samples of 1.0 with a burst of 60 slow ones inside one
        // chunk: the pooled p99 sees the burst, the chunked one does not
        let mut s = vec![1.0; 3000];
        for v in &mut s[100..160] {
            *v = 50.0;
        }
        assert_eq!(percentile(&s, 99.0), 50.0);
        assert_eq!(chunked_percentile(&s, 99.0), 1.0);
        // too few samples for two chunks: the plain percentile
        let short: Vec<f64> = (1..=150).map(f64::from).collect();
        assert_eq!(chunked_percentile(&short, 90.0), percentile(&short, 90.0));
        assert_eq!(chunked_percentile(&[], 99.0), 0.0);
    }

    #[test]
    fn ratios_and_means() {
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(ratio(3.0, 2.0), 1.5);
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
    }
}
