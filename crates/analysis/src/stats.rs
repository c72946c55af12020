//! Streaming sample statistics (Welford) and normal-approximation
//! confidence intervals for Monte-Carlo summaries.

/// Accumulated statistics of one scalar across trials.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Stats {
    /// Number of samples.
    pub count: u64,
    /// Sample mean.
    pub mean: f64,
    /// Sum of squared deviations (Welford's M2); variance = m2/(count−1).
    m2: f64,
    /// Smallest sample seen.
    pub min: f64,
    /// Largest sample seen.
    pub max: f64,
}

impl Stats {
    /// Empty accumulator.
    #[must_use]
    pub fn new() -> Self {
        Stats {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Add one sample (Welford's update).
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Merge another accumulator into this one (parallel reduction;
    /// Chan et al. combine).
    pub fn merge(&mut self, other: &Stats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Unbiased sample variance (0 for fewer than two samples).
    #[must_use]
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Sample standard deviation.
    #[must_use]
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Standard error of the mean.
    #[must_use]
    pub fn std_err(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.std_dev() / (self.count as f64).sqrt()
        }
    }

    /// Half-width of the 95% confidence interval for the mean (normal
    /// approximation, z = 1.96).
    #[must_use]
    pub fn ci95(&self) -> f64 {
        1.96 * self.std_err()
    }

    /// Collect an iterator of samples.
    pub fn from_samples<I: IntoIterator<Item = f64>>(samples: I) -> Self {
        let mut s = Stats::new();
        for x in samples {
            s.push(x);
        }
        s
    }
}

impl std::fmt::Display for Stats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:.4} ± {:.4} (n={})",
            self.mean,
            self.ci95(),
            self.count
        )
    }
}

/// Exact sample quantiles from a retained sample set (for per-trial ratio
/// distributions where the mean hides tail behaviour, e.g. E5's minima).
#[derive(Debug, Clone, Default)]
pub struct Quantiles {
    samples: Vec<f64>,
    sorted: bool,
}

impl Quantiles {
    /// Empty collector.
    #[must_use]
    pub fn new() -> Self {
        Quantiles::default()
    }

    /// Add one sample.
    pub fn push(&mut self, x: f64) {
        self.samples.push(x);
        self.sorted = false;
    }

    /// Number of samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Is the collector empty?
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            self.samples.sort_by(f64::total_cmp);
            self.sorted = true;
        }
    }

    /// The q-quantile (nearest-rank), q ∈ [0, 1]. `None` when empty.
    ///
    /// # Panics
    ///
    /// Panics if q is outside [0, 1] or a sample was NaN.
    // The ceil'd rank is clamped into [1, len], so the f64→usize cast cannot
    // land out of range.
    #[allow(clippy::cast_possible_truncation)]
    pub fn quantile(&mut self, q: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
        if self.samples.is_empty() {
            return None;
        }
        self.ensure_sorted();
        let rank = ((q * self.samples.len() as f64).ceil() as usize).clamp(1, self.samples.len());
        Some(self.samples[rank - 1]) // cadapt-lint: allow(panic-reach) -- rank is clamped into [1, len] on the previous line
    }

    /// Median (0.5-quantile).
    pub fn median(&mut self) -> Option<f64> {
        self.quantile(0.5)
    }
}

// Exact float equality in tests is deliberate: outputs are required to be
// bit-identical run to run (see the golden records).
#[allow(clippy::float_cmp)]
#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_values() {
        let s = Stats::from_samples([2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert_eq!(s.count, 8);
        assert!((s.mean - 5.0).abs() < 1e-12);
        // Sample variance: Σ(x−5)² / 7 = 32/7.
        assert!((s.variance() - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 9.0);
    }

    #[test]
    fn single_sample() {
        let s = Stats::from_samples([3.0]);
        assert_eq!(s.mean, 3.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.ci95(), 0.0);
    }

    #[test]
    fn empty() {
        let s = Stats::new();
        assert_eq!(s.count, 0);
        assert_eq!(s.std_err(), 0.0);
    }

    #[test]
    fn merge_equals_sequential() {
        let all: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let seq = Stats::from_samples(all.iter().copied());
        let mut a = Stats::from_samples(all[..37].iter().copied());
        let b = Stats::from_samples(all[37..].iter().copied());
        a.merge(&b);
        assert_eq!(a.count, seq.count);
        assert!((a.mean - seq.mean).abs() < 1e-10);
        assert!((a.variance() - seq.variance()).abs() < 1e-8);
        assert_eq!(a.min, seq.min);
        assert_eq!(a.max, seq.max);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut s = Stats::from_samples([1.0, 2.0]);
        let before = s;
        s.merge(&Stats::new());
        assert_eq!(s, before);
        let mut e = Stats::new();
        e.merge(&before);
        assert_eq!(e, before);
    }

    #[test]
    fn ci_shrinks_with_samples() {
        let narrow = Stats::from_samples((0..1000).map(|i| f64::from(i % 2)));
        let wide = Stats::from_samples((0..10).map(|i| f64::from(i % 2)));
        assert!(narrow.ci95() < wide.ci95());
    }

    #[test]
    fn display_formats() {
        let s = Stats::from_samples([1.0, 1.0]);
        let out = s.to_string();
        assert!(out.contains("n=2"));
    }

    #[test]
    fn quantiles_nearest_rank() {
        let mut q = Quantiles::new();
        for x in [5.0, 1.0, 3.0, 2.0, 4.0] {
            q.push(x);
        }
        assert_eq!(q.quantile(0.0), Some(1.0));
        assert_eq!(q.median(), Some(3.0));
        assert_eq!(q.quantile(0.2), Some(1.0));
        assert_eq!(q.quantile(0.8), Some(4.0));
        assert_eq!(q.quantile(1.0), Some(5.0));
    }

    #[test]
    fn quantiles_empty_and_single() {
        let mut q = Quantiles::new();
        assert_eq!(q.median(), None);
        assert!(q.is_empty());
        q.push(7.0);
        assert_eq!(q.len(), 1);
        assert_eq!(q.quantile(0.01), Some(7.0));
        assert_eq!(q.quantile(0.99), Some(7.0));
    }

    #[test]
    fn quantiles_resort_after_push() {
        let mut q = Quantiles::new();
        q.push(2.0);
        assert_eq!(q.median(), Some(2.0));
        q.push(1.0);
        q.push(3.0);
        assert_eq!(q.median(), Some(2.0));
        q.push(0.0);
        q.push(-1.0);
        assert_eq!(q.quantile(0.0), Some(-1.0));
    }
}
