//! Overhead reporting.
//!
//! The paper reports overhead percentages relative to an untracked baseline
//! and speedup factors; [`overhead_pct`]/[`speedup`] implement those derived
//! metrics.

/// Overhead of `measured` relative to `baseline`, in percent — the paper's
/// "overhead (%)" metric: 100·(measured − baseline)/baseline.
pub fn overhead_pct(measured: f64, baseline: f64) -> f64 {
    if baseline <= 0.0 {
        return f64::NAN;
    }
    100.0 * (measured - baseline) / baseline
}

/// Speedup of `fast` over `slow` — the paper's "N× speedup" metric.
pub fn speedup(slow: f64, fast: f64) -> f64 {
    if fast <= 0.0 {
        return f64::NAN;
    }
    slow / fast
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_and_speedup() {
        assert!((overhead_pct(200.0, 100.0) - 100.0).abs() < 1e-12);
        assert!((overhead_pct(104.0, 100.0) - 4.0).abs() < 1e-12);
        assert!((speedup(130.0, 10.0) - 13.0).abs() < 1e-12);
        assert!(overhead_pct(1.0, 0.0).is_nan());
        assert!(speedup(1.0, 0.0).is_nan());
    }
}
