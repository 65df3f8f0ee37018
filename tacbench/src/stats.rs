//! Small order statistics over measured samples.

/// The `q`-quantile of an ascending slice by linear interpolation
/// (0 for an empty slice).
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
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

/// μ, σ, p50 and p99 of a sample set, with its size.
#[derive(Debug, Clone, Copy, Default)]
pub struct Summary {
    /// Samples summarised.
    pub n: usize,
    /// Mean.
    pub mean: f64,
    /// Sample standard deviation.
    pub sd: f64,
    /// Median.
    pub p50: f64,
    /// 99th percentile.
    pub p99: f64,
}

impl Summary {
    /// Summarises `samples` (sorted in place).
    pub fn of(samples: &mut [f64]) -> Summary {
        let n = samples.len();
        if n == 0 {
            return Summary::default();
        }
        samples.sort_by(f64::total_cmp);
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = if n > 1 {
            samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1) as f64
        } else {
            0.0
        };
        Summary {
            n,
            mean,
            sd: var.sqrt(),
            p50: quantile_sorted(samples, 0.50),
            p99: quantile_sorted(samples, 0.99),
        }
    }
}

/// The median of `values` (0 for none).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile_sorted(&v, 0.5)
}
