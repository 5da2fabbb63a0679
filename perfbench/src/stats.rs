//! Sample summaries: medians, nearest-rank percentiles and the
//! "samples beyond" count that says how much a tail percentile rests on.

/// Sorts a copy of `samples` (NaN-free by construction).
fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    s
}

/// Nearest-rank percentile `p` (0 < p ≤ 100); 0 for no samples.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let s = sorted(samples);
    let rank = ((p / 100.0) * s.len() as f64).ceil().max(1.0) as usize;
    s[rank.min(s.len()) - 1]
}

/// Samples strictly above the nearest-rank percentile `p`'s position.
pub fn beyond(n: usize, p: f64) -> usize {
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
    n.saturating_sub(rank)
}

/// The tail a sample supports for nominal percentile `p`: the `p`th
/// percentile when at least 10 samples lie beyond it, otherwise the
/// highest value with 10 samples beyond it (the maximum below 11
/// samples). Returns the value, the percentile it is, and how many
/// samples lie beyond it.
pub fn tail(samples: &[f64], p: f64) -> (f64, f64, usize) {
    let n = samples.len();
    if n == 0 || beyond(n, p) >= 10 {
        return (percentile(samples, p), p, beyond(n, p));
    }
    let s = sorted(samples);
    let rank = if n > 10 { n - 10 } else { n };
    (s[rank - 1], 100.0 * rank as f64 / n as f64, n - rank)
}

/// The median (midpoint of the two middle samples for even counts).
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let s = sorted(samples);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Arithmetic mean; 0 for no samples.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), 500.0);
        assert_eq!(percentile(&s, 99.0), 990.0);
        assert_eq!(beyond(1000, 99.0), 10);
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), 2.5);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(tail(&s, 99.0), (990.0, 99.0, 10));
        let fifty: Vec<f64> = (1..=50).map(f64::from).collect();
        assert_eq!(tail(&fifty, 99.0), (40.0, 80.0, 10));
        assert_eq!(tail(&[3.0, 9.0, 4.0], 90.0).0, 9.0);
    }
}
