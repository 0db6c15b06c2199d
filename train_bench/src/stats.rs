//! Order statistics for timing samples.

/// Percentiles tried, highest first, when picking the tail to report.
const TAIL_LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Nearest-rank percentile `p` (0–100] of `sorted` (ascending, non-empty).
fn percentile(sorted: &[f64], p: f64) -> f64 {
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `values`, 0 when empty (the mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let v = sorted(values);
    let mid = v.len() / 2;
    if v.len().is_multiple_of(2) {
        (v[mid - 1] + v[mid]) / 2.0
    } else {
        v[mid]
    }
}

/// A timing distribution summarised as its median and the highest percentile that
/// still has at least ten samples above it (the median itself when no percentile
/// has), with the sample count.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub tail_percentile: f64,
    pub tail: f64,
    pub count: usize,
}

impl Summary {
    pub fn of(values: &[f64]) -> Self {
        let count = values.len();
        if count == 0 {
            return Self {
                median: 0.0,
                tail_percentile: 50.0,
                tail: 0.0,
                count,
            };
        }
        let median = median(values);
        let tail = TAIL_LADDER
            .iter()
            .copied()
            .find(|&p| count - ((p / 100.0) * count as f64).ceil() as usize >= 10);
        let (tail_percentile, tail) = match tail {
            Some(p) => (p, percentile(&sorted(values), p)),
            None => (50.0, median),
        };
        Self {
            median,
            tail_percentile,
            tail,
            count,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        let s = Summary::of(&values);
        assert_eq!(s.tail_percentile, 90.0);
        assert_eq!(s.tail, 90.0);
        assert_eq!(s.count, 100);
        let few: Vec<f64> = (1..=12).map(f64::from).collect();
        assert_eq!(Summary::of(&few).tail_percentile, 50.0);
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(Summary::of(&thousand).tail_percentile, 99.0);
    }
}
