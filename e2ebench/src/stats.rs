//! Order statistics for the benchmark's samples.

/// Median of `xs` (mean of the middle pair for even counts); `NaN` when
/// empty.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Mean of `xs` (0 when empty).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Linear-interpolated quantile `q` in `[0, 1]` of `xs`; `NaN` when empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Milliseconds from `from` to `to`, negative when `to` came first.
pub fn signed_ms(from: std::time::Instant, to: std::time::Instant) -> f64 {
    match to.checked_duration_since(from) {
        Some(d) => d.as_secs_f64() * 1e3,
        None => -(from - to).as_secs_f64() * 1e3,
    }
}

/// Percentiles a tail metric may report, highest first.
const TAIL_PERCENTILES: [f64; 5] = [99.0, 95.0, 90.0, 75.0, 50.0];

/// The tail of a latency sample: the highest percentile of
/// [`TAIL_PERCENTILES`] with at least ten samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Percentile reported (e.g. `90.0`).
    pub percentile: f64,
    /// Value at that percentile.
    pub value: f64,
    /// Samples the percentile was taken over.
    pub samples: usize,
}

/// Samples of `n` that lie above the `percentile`-th.
fn beyond(n: usize, percentile: f64) -> usize {
    // The epsilon keeps 100 × 0.9 from rounding up to 91.
    n - ((n as f64 * percentile / 100.0 - 1e-9).ceil().max(0.0) as usize).min(n)
}

/// The `percentile` of `xs` when at least ten samples lie beyond it;
/// otherwise the highest percentile that has ten beyond ([`tail`]).
/// Workloads fix their tail percentile from their sample budget so the
/// same percentile is reported on every run.
pub fn tail_at(xs: &[f64], percentile: f64) -> Tail {
    if beyond(xs.len(), percentile) >= 10 {
        Tail {
            percentile,
            value: quantile(xs, percentile / 100.0),
            samples: xs.len(),
        }
    } else {
        tail(xs)
    }
}

/// Computes [`Tail`] over `xs`. With fewer than 20 samples no percentile
/// has ten beyond it; the median is reported and the sample count says
/// so.
pub fn tail(xs: &[f64]) -> Tail {
    let n = xs.len();
    let percentile = TAIL_PERCENTILES
        .iter()
        .copied()
        .find(|p| beyond(n, *p) >= 10)
        .unwrap_or(50.0);
    Tail {
        percentile,
        value: quantile(xs, percentile / 100.0),
        samples: n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
        assert_eq!(quantile(&[0.0, 10.0], 0.25), 2.5);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let xs: Vec<f64> = (0..100).map(f64::from).collect();
        assert_eq!(tail(&xs).percentile, 90.0);
        let xs: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(tail(&xs).percentile, 99.0);
        let xs: Vec<f64> = (0..39).map(f64::from).collect();
        assert_eq!(tail(&xs).percentile, 50.0);
        assert_eq!(
            tail(&(0..40).map(f64::from).collect::<Vec<_>>()).percentile,
            75.0
        );
        let xs: Vec<f64> = (0..400).map(f64::from).collect();
        assert_eq!(tail_at(&xs, 90.0).percentile, 90.0);
        assert_eq!(tail_at(&xs[..50], 90.0).percentile, 75.0);
    }
}
