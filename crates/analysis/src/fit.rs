//! Growth-law classification for adaptivity-ratio sweeps.
//!
//! The experiments produce series (log_b n, R(n)). Theorem 2 says the
//! worst-case series grows linearly in log_b n; Theorem 1 says smoothed
//! series are bounded. [`classify_growth`] fits a line by least squares and
//! applies simple, explicit decision rules so the integration tests and the
//! EXPERIMENTS.md tables can state "who wins" mechanically.

/// Least-squares line fit y = slope·x + intercept.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LineFit {
    /// Fitted slope.
    pub slope: f64,
    /// Fitted intercept.
    pub intercept: f64,
    /// Coefficient of determination.
    pub r2: f64,
}

/// Fit a line to (x, y) points.
///
/// # Panics
///
/// Panics with fewer than two points or zero x-variance.
#[must_use]
pub fn fit_line(points: &[(f64, f64)]) -> LineFit {
    assert!(points.len() >= 2, "need at least two points to fit a line");
    let n = points.len() as f64;
    let mean_x = points.iter().map(|p| p.0).sum::<f64>() / n;
    let mean_y = points.iter().map(|p| p.1).sum::<f64>() / n;
    let sxx: f64 = points.iter().map(|p| (p.0 - mean_x).powi(2)).sum();
    let sxy: f64 = points.iter().map(|p| (p.0 - mean_x) * (p.1 - mean_y)).sum();
    assert!(sxx > 0.0, "x values must not all coincide");
    let slope = sxy / sxx;
    let intercept = mean_y - slope * mean_x;
    let ss_tot: f64 = points.iter().map(|p| (p.1 - mean_y).powi(2)).sum();
    let ss_res: f64 = points
        .iter()
        .map(|p| (p.1 - (slope * p.0 + intercept)).powi(2))
        .sum();
    // cadapt-lint: allow(float-eq) -- sentinel: ss_tot is exactly 0.0 only for a degenerate all-equal sample; division guard
    let r2 = if ss_tot == 0.0 {
        1.0
    } else {
        1.0 - ss_res / ss_tot
    };
    LineFit {
        slope,
        intercept,
        r2,
    }
}

/// The growth law of a ratio series.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GrowthClass {
    /// Bounded — consistent with efficient cache-adaptivity (Θ(1) ratio).
    Constant,
    /// Grows ~linearly in log_b n — the Theorem 2 gap.
    Logarithmic,
    /// Neither rule fired (noisy or intermediate data).
    Indeterminate,
}

impl std::fmt::Display for GrowthClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            GrowthClass::Constant => "Θ(1)",
            GrowthClass::Logarithmic => "Θ(log n)",
            GrowthClass::Indeterminate => "?",
        };
        f.write_str(s)
    }
}

/// Classify a ratio series measured at points x = log_b n.
///
/// A converging Θ(1) series and a small-slope Θ(log n) series can share a
/// least-squares slope, so the rule uses the *increment trend* — the ratio
/// of mean increments in the last third to those in the first third — to
/// tell sustained growth from convergence. Decision rules (stated in
/// EXPERIMENTS.md):
///
/// * **Logarithmic** — slope ≥ 0.08/level, r² ≥ 0.85, and the increment
///   trend ≥ 0.7 (growth is sustained; the exact worst case has slope 1
///   and trend 1);
/// * **Constant** — slope < 0.05, total rise < 25% of the mean, or
///   increments collapsing (trend ≤ 0.65 with the final increment ≤ 0.1);
/// * otherwise **Indeterminate**.
///
/// # Panics
///
/// Panics with fewer than two points.
#[must_use]
pub fn classify_growth(points: &[(f64, f64)]) -> (GrowthClass, LineFit) {
    let fit = fit_line(points);
    let mean_y = points.iter().map(|p| p.1).sum::<f64>() / points.len() as f64;
    let span_x = points.iter().map(|p| p.0).fold(f64::NEG_INFINITY, f64::max)
        - points.iter().map(|p| p.0).fold(f64::INFINITY, f64::min);
    let rise = fit.slope * span_x;
    let increments: Vec<f64> = points.windows(2).map(|w| w[1].1 - w[0].1).collect();
    let (trend, last_increment) = increment_trend(&increments);

    let sustained = trend >= 0.7;
    let collapsing = trend <= 0.65 && last_increment <= 0.1;
    let class = if fit.slope >= 0.08 && fit.r2 >= 0.85 && sustained && !collapsing {
        GrowthClass::Logarithmic
    } else if rise.abs() < 0.25 * mean_y || fit.slope.abs() < 0.05 || collapsing {
        GrowthClass::Constant
    } else {
        GrowthClass::Indeterminate
    };
    (class, fit)
}

/// (mean of last-third increments / mean of first-third increments, last
/// increment). A trend of 1 means steady growth; ≪ 1 means convergence.
/// Degenerate cases (too few increments, non-positive early growth) return
/// trend 1 so the slope rules decide alone.
fn increment_trend(increments: &[f64]) -> (f64, f64) {
    let last = increments.last().copied().unwrap_or(0.0);
    if increments.len() < 4 {
        return (1.0, last);
    }
    let third = (increments.len() / 3).max(1);
    let first: f64 = increments[..third].iter().sum::<f64>() / third as f64;
    let tail: f64 = increments[increments.len() - third..].iter().sum::<f64>() / third as f64; // cadapt-lint: allow(panic-reach) -- third <= len/3 by construction, so len - third >= 0
    if first <= 1e-9 {
        return (1.0, last);
    }
    (tail / first, last)
}

// Exact float equality in tests is deliberate: outputs are required to be
// bit-identical run to run (see the golden records).
#[allow(clippy::float_cmp)]
#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_line() {
        let pts: Vec<_> = (1..=8).map(|k| (k as f64, 1.0 + k as f64)).collect();
        let fit = fit_line(&pts);
        assert!((fit.slope - 1.0).abs() < 1e-12);
        assert!((fit.intercept - 1.0).abs() < 1e-12);
        assert!((fit.r2 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn flat_series_is_constant() {
        let pts: Vec<_> = (1..=8).map(|k| (k as f64, 2.5)).collect();
        let (class, fit) = classify_growth(&pts);
        assert_eq!(class, GrowthClass::Constant);
        assert!(fit.slope.abs() < 1e-12);
    }

    #[test]
    fn worst_case_series_is_logarithmic() {
        // The exact Theorem 2 shape: ratio = log_b n + 1.
        let pts: Vec<_> = (2..=9).map(|k| (k as f64, k as f64 + 1.0)).collect();
        let (class, _) = classify_growth(&pts);
        assert_eq!(class, GrowthClass::Logarithmic);
    }

    #[test]
    fn noisy_flat_series_is_constant() {
        let pts: Vec<_> = (1..=10)
            .map(|k| (k as f64, 3.0 + 0.1 * ((k * 37) % 5) as f64))
            .collect();
        let (class, _) = classify_growth(&pts);
        assert_eq!(class, GrowthClass::Constant);
    }

    #[test]
    fn noisy_growing_series_is_logarithmic() {
        let pts: Vec<_> = (1..=10)
            .map(|k| (k as f64, 1.0 + 0.9 * k as f64 + 0.2 * ((k * 13) % 3) as f64))
            .collect();
        let (class, fit) = classify_growth(&pts);
        assert_eq!(class, GrowthClass::Logarithmic);
        assert!(fit.slope > 0.7);
    }

    #[test]
    fn display() {
        assert_eq!(GrowthClass::Constant.to_string(), "Θ(1)");
        assert_eq!(GrowthClass::Logarithmic.to_string(), "Θ(log n)");
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn rejects_single_point() {
        let _ = fit_line(&[(1.0, 1.0)]);
    }

    #[test]
    fn converging_series_is_constant() {
        // The MM-Inplace shape: approaches ~2.4 with decaying increments.
        let pts: Vec<_> = (2..=9)
            .map(|k| (k as f64, 2.4 - 3.0 * 0.55f64.powi(k)))
            .collect();
        let (class, _) = classify_growth(&pts);
        assert_eq!(class, GrowthClass::Constant);
    }

    #[test]
    fn small_slope_sustained_growth_is_logarithmic() {
        // The E5 first-child shape: exactly 1 + k/8.
        let pts: Vec<_> = (2..=9).map(|k| (k as f64, 1.0 + k as f64 / 8.0)).collect();
        let (class, fit) = classify_growth(&pts);
        assert_eq!(class, GrowthClass::Logarithmic);
        assert!((fit.slope - 0.125).abs() < 1e-12);
    }

    #[test]
    fn perfect_vertical_scatter_r2() {
        // All y equal: r2 defined as 1 (no variance to explain).
        let fit = fit_line(&[(1.0, 2.0), (2.0, 2.0), (3.0, 2.0)]);
        assert_eq!(fit.r2, 1.0);
    }
}
