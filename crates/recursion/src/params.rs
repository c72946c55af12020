//! (a, b, c) parameters, scan layout, and named algorithm presets.

use cadapt_core::{cast, Blocks, CoreError, Potential};

/// Where the Θ(n^c) scan work of a node sits relative to its recursive calls.
///
/// Definition 2 allows scan work "before, between, and after recursive
/// calls". The canonical worst-case construction assumes scans at the end
/// (the paper notes any upfront-scan algorithm converts to that form); the
/// other layouts exist to test that WLOG claim empirically (ablation in
/// DESIGN.md).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ScanLayout {
    /// The whole scan after the last recursive call (canonical form).
    #[default]
    End,
    /// The whole scan before the first recursive call.
    Start,
    /// The scan split as evenly as possible into a + 1 chunks placed before,
    /// between, and after the recursive calls.
    Split,
}

/// The parameters of an (a, b, c)-regular algorithm.
///
/// * `a` — number of recursive subproblems per node (a ≥ 1),
/// * `b` — size shrink factor per level (b ≥ 2),
/// * `c` — scan exponent in [0, 1]: a node of size n performs a linear scan
///   of ⌈n^c⌉ accesses (c = 1 ⇒ scan of n, c = 0 ⇒ Θ(1) scan),
/// * `base` — base-case problem size in blocks (Θ(1); Remark 1),
/// * `layout` — where scan work sits relative to recursive calls.
///
/// Problem sizes are *canonical*: n = base · b^k. The cache-adaptively
/// interesting regime, and the subject of the paper, is a > b with c = 1.
///
/// ```
/// use cadapt_recursion::AbcParams;
///
/// let mm = AbcParams::mm_scan(); // T(N) = 8·T(N/4) + Θ(N/B)
/// assert_eq!((mm.a(), mm.b(), mm.c()), (8, 4, 1.0));
/// assert!(mm.in_gap_regime());
/// assert_eq!(mm.exponent(), 1.5); // log_4 8
/// assert_eq!(mm.scan_len(1024), 1024); // c = 1: a full linear scan
///
/// // MM-Inplace needs no merge scans and escapes the gap:
/// assert!(!AbcParams::mm_inplace().in_gap_regime());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AbcParams {
    a: u64,
    b: u64,
    c: f64,
    base: Blocks,
    layout: ScanLayout,
}

impl AbcParams {
    /// Construct parameters, validating ranges.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidParameter`] if a < 1, b < 2, or c ∉ [0, 1], or
    /// base < 1.
    pub fn new(a: u64, b: u64, c: f64, base: Blocks) -> Result<Self, CoreError> {
        if a < 1 {
            return Err(CoreError::InvalidParameter {
                name: "a",
                message: format!("branching factor must be >= 1, got {a}"),
            });
        }
        if b < 2 {
            return Err(CoreError::InvalidParameter {
                name: "b",
                message: format!("shrink factor must be >= 2, got {b}"),
            });
        }
        if !(0.0..=1.0).contains(&c) || c.is_nan() {
            return Err(CoreError::InvalidParameter {
                name: "c",
                message: format!("scan exponent must lie in [0, 1], got {c}"),
            });
        }
        if base < 1 {
            return Err(CoreError::InvalidParameter {
                name: "base",
                message: "base-case size must be >= 1 block".to_string(),
            });
        }
        Ok(AbcParams {
            a,
            b,
            c,
            base,
            layout: ScanLayout::End,
        })
    }

    /// Same parameters with a different [`ScanLayout`].
    #[must_use]
    pub fn with_layout(mut self, layout: ScanLayout) -> Self {
        self.layout = layout;
        self
    }

    /// Same parameters with a different base-case size.
    ///
    /// # Panics
    ///
    /// Panics if `base == 0`.
    #[must_use]
    pub fn with_base(mut self, base: Blocks) -> Self {
        assert!(base >= 1, "base-case size must be >= 1 block");
        self.base = base;
        self
    }

    /// Branching factor a.
    #[must_use]
    pub fn a(&self) -> u64 {
        self.a
    }

    /// Shrink factor b.
    #[must_use]
    pub fn b(&self) -> u64 {
        self.b
    }

    /// Scan exponent c.
    #[must_use]
    pub fn c(&self) -> f64 {
        self.c
    }

    /// Base-case size in blocks.
    #[must_use]
    pub fn base(&self) -> Blocks {
        self.base
    }

    /// Scan layout.
    #[must_use]
    pub fn layout(&self) -> ScanLayout {
        self.layout
    }

    /// The potential function ρ(x) = x^{log_b a} for these parameters.
    #[must_use]
    pub fn potential(&self) -> Potential {
        Potential::new(self.a, self.b)
    }

    /// The exponent log_b a.
    #[must_use]
    pub fn exponent(&self) -> f64 {
        self.potential().exponent()
    }

    /// Is this algorithm in the paper's gap regime (a > b, c = 1)?
    ///
    /// Theorem 2: (a, b, c)-regular algorithms are cache-adaptive when c < 1
    /// or a < b; when a > b and c = 1 they can be Θ(log_b n) from optimal on
    /// worst-case profiles — the gap this paper closes via smoothing.
    #[must_use]
    pub fn in_gap_regime(&self) -> bool {
        self.a > self.b && (self.c - 1.0).abs() < f64::EPSILON
    }

    /// The canonical problem size base · b^k.
    ///
    /// # Panics
    ///
    /// Panics on overflow.
    #[must_use]
    pub fn canonical_size(&self, k: u32) -> Blocks {
        let mut n = self.base;
        for _ in 0..k {
            // cadapt-lint: allow(panic-reach) -- deliberate loud overflow guard, documented in the # Panics section
            n = n.checked_mul(self.b).expect("canonical size overflows u64");
        }
        n
    }

    /// The recursion depth k such that n = base · b^k, or `None` if n is not
    /// a canonical size for these parameters.
    #[must_use]
    pub fn depth_of(&self, n: Blocks) -> Option<u32> {
        if n < self.base || !n.is_multiple_of(self.base) {
            return None;
        }
        cadapt_core::potential::exact_log(self.b, n / self.base)
    }

    /// Scan length, in accesses, of a node of size n blocks: ⌈n^c⌉ (with the
    /// block-unit convention B = 1 of Remark 1), and at least 1 (the Θ(1)
    /// term of the recurrence).
    ///
    /// Exact for c = 0 (→ 1) and c = 1 (→ n); for intermediate c the `f64`
    /// rounding is irrelevant at the Θ level.
    #[must_use]
    pub fn scan_len(&self, n: Blocks) -> u64 {
        // cadapt-lint: allow(float-eq) -- sentinel: c = 0.0 is stored exactly and means a scan-free algorithm
        if self.c == 0.0 {
            1
        } else if (self.c - 1.0).abs() < f64::EPSILON {
            n
        } else {
            cast::u64_from_f64((n as f64).powf(self.c).ceil()).max(1)
        }
    }

    /// The scan of a size-n node divided into its a + 1 placement slots
    /// according to the layout: `chunk(i)` is the scan work before child i
    /// (i < a) or after the last child (i = a).
    #[must_use]
    pub fn scan_chunk(&self, n: Blocks, slot: u64) -> u64 {
        self.split_scan(self.scan_len(n), slot)
    }

    /// Slot `slot`'s share of a node scan of `total` accesses under the
    /// layout: [`AbcParams::scan_chunk`] with the scan length given.
    pub(crate) fn split_scan(&self, total: u64, slot: u64) -> u64 {
        debug_assert!(slot <= self.a);
        match self.layout {
            ScanLayout::End => {
                if slot == self.a {
                    total
                } else {
                    0
                }
            }
            ScanLayout::Start => {
                if slot == 0 {
                    total
                } else {
                    0
                }
            }
            ScanLayout::Split => {
                // Distribute `total` over a+1 slots as evenly as possible,
                // earlier slots taking the remainder.
                let slots = self.a + 1;
                let each = total / slots;
                let extra = total % slots;
                each + u64::from(slot < extra)
            }
        }
    }

    // ---- Named presets -------------------------------------------------

    /// MM-Scan: divide-and-conquer matrix multiplication that merges the
    /// eight subresults with a linear scan. (8, 4, 1)-regular:
    /// T(N) = 8 T(N/4) + Θ(N/B). The paper's canonical non-adaptive
    /// algorithm (§3).
    #[must_use]
    pub fn mm_scan() -> Self {
        // cadapt-lint: allow(panic-reach) -- invariant: preset constants satisfy AbcParams::new's checks by construction
        AbcParams::new(8, 4, 1.0, 1).expect("preset parameters are valid")
    }

    /// MM-Inplace: matrix multiplication accumulating elementary products
    /// directly into the output — no merge scan. (8, 4, 0)-regular, and
    /// optimally cache-adaptive (footnote 5 of the paper).
    #[must_use]
    pub fn mm_inplace() -> Self {
        // cadapt-lint: allow(panic-reach) -- invariant: preset constants satisfy AbcParams::new's checks by construction
        AbcParams::new(8, 4, 0.0, 1).expect("preset parameters are valid")
    }

    /// Strassen's matrix multiplication: seven quarter-size subproblems plus
    /// linear-scan additions — (7, 4, 1)-regular, T(N) = 7 T(N/4) + Θ(N/B).
    /// In the gap regime (7 > 4, c = 1); the paper's conclusion notes all
    /// known subcubic multiplications fall here.
    #[must_use]
    pub fn strassen() -> Self {
        // cadapt-lint: allow(panic-reach) -- invariant: preset constants satisfy AbcParams::new's checks by construction
        AbcParams::new(7, 4, 1.0, 1).expect("preset parameters are valid")
    }

    /// Cache-oblivious dynamic programming kernel (LCS / edit distance in
    /// the style of Chowdhury–Ramachandran '06): three half-size recursive
    /// quadrant solves plus linear work — (3, 2, 1)-regular, as classified
    /// by Lincoln et al. (SPAA '18). Gap regime.
    #[must_use]
    pub fn co_dp() -> Self {
        // cadapt-lint: allow(panic-reach) -- invariant: preset constants satisfy AbcParams::new's checks by construction
        AbcParams::new(3, 2, 1.0, 1).expect("preset parameters are valid")
    }

    /// The Gaussian Elimination Paradigm (I-GEP, Chowdhury–Ramachandran):
    /// (8, 4, 1)-regular like MM-Scan — shares its recurrence
    /// T(N) = 8 T(N/4) + Θ(N/B). Gap regime.
    #[must_use]
    pub fn gep() -> Self {
        // cadapt-lint: allow(panic-reach) -- invariant: preset constants satisfy AbcParams::new's checks by construction
        AbcParams::new(8, 4, 1.0, 1).expect("preset parameters are valid")
    }

    /// A (4, 4, 1)-regular algorithm — the a = b boundary case (e.g. the
    /// classical two-way structures the paper excludes in footnote 3, where
    /// no algorithm can be optimally adaptive). Included for the E9
    /// taxonomy experiment.
    #[must_use]
    pub fn a_equals_b() -> Self {
        // cadapt-lint: allow(panic-reach) -- invariant: preset constants satisfy AbcParams::new's checks by construction
        AbcParams::new(4, 4, 1.0, 1).expect("preset parameters are valid")
    }

    /// A (2, 4, 1)-regular algorithm — a < b, trivially adaptive
    /// (linear-time regardless of cache; footnote 2). For E9.
    #[must_use]
    pub fn a_below_b() -> Self {
        // cadapt-lint: allow(panic-reach) -- invariant: preset constants satisfy AbcParams::new's checks by construction
        AbcParams::new(2, 4, 1.0, 1).expect("preset parameters are valid")
    }

    /// The **scan-hiding transformation** of Lincoln, Liu, Lynch & Xu
    /// (SPAA '18), at the model level: interleave every scan's work with
    /// the recursion so each base case absorbs an O(1) share of pending
    /// scan accesses, leaving no standalone scans for an adversary to
    /// waste boxes on.
    ///
    /// Accounting: an (a, b, 1)-regular algorithm with a > b has total
    /// scan volume Σ_k a^{K−k} · base·b^k ≤ base · a^K · a/(a−b), i.e. at
    /// most ⌈base · a/(a−b)⌉ scan accesses per base case. The transformed
    /// algorithm is therefore (a, b, 0)-regular with the base case grown
    /// by that constant — in the adaptive regime (c < 1) by Theorem 2,
    /// at a constant-factor work overhead. (The real transformation must
    /// also respect data dependencies; this captures its I/O structure —
    /// see experiment E12.)
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidParameter`] unless a > b and c = 1 (the gap
    /// regime is the only place scan-hiding has work to do).
    pub fn scan_hidden(&self) -> Result<Self, CoreError> {
        if !self.in_gap_regime() {
            return Err(CoreError::InvalidParameter {
                name: "params",
                message: format!(
                    "scan-hiding applies to the gap regime (a > b, c = 1); got {self}"
                ),
            });
        }
        let per_leaf = (self.base * self.a).div_ceil(self.a - self.b);
        AbcParams::new(self.a, self.b, 0.0, self.base + per_leaf)
            .map(|p| p.with_layout(self.layout))
    }
}

impl std::fmt::Display for AbcParams {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "({}, {}, {})-regular (base {})",
            self.a, self.b, self.c, self.base
        )
    }
}

// Exact float equality in tests is deliberate: outputs are required to be
// bit-identical run to run (see the golden records).
#[allow(clippy::float_cmp)]
#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation() {
        assert!(AbcParams::new(0, 4, 1.0, 1).is_err());
        assert!(AbcParams::new(8, 1, 1.0, 1).is_err());
        assert!(AbcParams::new(8, 4, 1.5, 1).is_err());
        assert!(AbcParams::new(8, 4, -0.1, 1).is_err());
        assert!(AbcParams::new(8, 4, f64::NAN, 1).is_err());
        assert!(AbcParams::new(8, 4, 1.0, 0).is_err());
        assert!(AbcParams::new(8, 4, 1.0, 1).is_ok());
    }

    #[test]
    fn gap_regime_classification() {
        assert!(AbcParams::mm_scan().in_gap_regime());
        assert!(AbcParams::strassen().in_gap_regime());
        assert!(AbcParams::co_dp().in_gap_regime());
        assert!(!AbcParams::mm_inplace().in_gap_regime()); // c = 0
        assert!(!AbcParams::a_equals_b().in_gap_regime()); // a = b
        assert!(!AbcParams::a_below_b().in_gap_regime()); // a < b
    }

    #[test]
    fn canonical_sizes() {
        let p = AbcParams::mm_scan();
        assert_eq!(p.canonical_size(0), 1);
        assert_eq!(p.canonical_size(3), 64);
        assert_eq!(p.depth_of(64), Some(3));
        assert_eq!(p.depth_of(60), None);
        assert_eq!(p.depth_of(0), None);

        let p = p.with_base(4);
        assert_eq!(p.canonical_size(2), 64);
        assert_eq!(p.depth_of(64), Some(2));
        assert_eq!(p.depth_of(8), None); // 8 = 4·2 is not 4·4^k
    }

    #[test]
    fn scan_lengths() {
        let scan = AbcParams::mm_scan();
        assert_eq!(scan.scan_len(1024), 1024); // c = 1
        let inplace = AbcParams::mm_inplace();
        assert_eq!(inplace.scan_len(1024), 1); // c = 0
        let half = AbcParams::new(8, 4, 0.5, 1).unwrap();
        assert_eq!(half.scan_len(1024), 32); // 1024^0.5
        assert_eq!(half.scan_len(1), 1);
    }

    #[test]
    fn chunk_layout_end() {
        let p = AbcParams::mm_scan(); // layout End by default
        let n = 64;
        for slot in 0..8 {
            assert_eq!(p.scan_chunk(n, slot), 0);
        }
        assert_eq!(p.scan_chunk(n, 8), 64);
    }

    #[test]
    fn chunk_layout_start() {
        let p = AbcParams::mm_scan().with_layout(ScanLayout::Start);
        assert_eq!(p.scan_chunk(64, 0), 64);
        for slot in 1..=8 {
            assert_eq!(p.scan_chunk(64, slot), 0);
        }
    }

    #[test]
    fn chunk_layout_split_conserves_total() {
        let p = AbcParams::mm_scan().with_layout(ScanLayout::Split);
        for n in [1u64, 7, 64, 100] {
            let total: u64 = (0..=8).map(|s| p.scan_chunk(n, s)).sum();
            assert_eq!(total, p.scan_len(n), "split must conserve scan length");
        }
        // 64 over 9 slots: 7 each, first slot gets +1.
        assert_eq!(p.scan_chunk(64, 0), 8);
        assert_eq!(p.scan_chunk(64, 8), 7);
    }

    #[test]
    fn display_formats() {
        let p = AbcParams::mm_scan();
        assert_eq!(p.to_string(), "(8, 4, 1)-regular (base 1)");
    }

    #[test]
    fn exponents() {
        assert!((AbcParams::mm_scan().exponent() - 1.5).abs() < 1e-12);
        assert!((AbcParams::co_dp().exponent() - 3f64.log2()).abs() < 1e-12);
    }

    #[test]
    fn scan_hiding_transforms_gap_algorithms() {
        let hidden = AbcParams::mm_scan().scan_hidden().unwrap();
        assert_eq!(hidden.a(), 8);
        assert_eq!(hidden.b(), 4);
        assert_eq!(hidden.c(), 0.0);
        // base 1 → 1 + ⌈8/4⌉ = 3.
        assert_eq!(hidden.base(), 3);
        assert!(!hidden.in_gap_regime());

        let hidden = AbcParams::co_dp().scan_hidden().unwrap();
        // base 1 → 1 + ⌈3/1⌉ = 4.
        assert_eq!(hidden.base(), 4);
    }

    #[test]
    fn scan_hiding_covers_the_scan_volume() {
        // The grown base cases must absorb at least the original total
        // scan volume: T_hidden(n') ≥ T_orig accesses for matching leaf
        // counts.
        use crate::closed_form::ClosedForms;
        let orig = AbcParams::mm_scan();
        let hidden = orig.scan_hidden().unwrap();
        for k in 2..=8u32 {
            let cf_orig = ClosedForms::for_size(orig, orig.canonical_size(k)).unwrap();
            let cf_hidden = ClosedForms::for_size(hidden, hidden.canonical_size(k)).unwrap();
            assert_eq!(cf_orig.total_leaves(), cf_hidden.total_leaves());
            assert!(
                cf_hidden.total_time() >= cf_orig.total_time(),
                "k={k}: hidden {} < orig {}",
                cf_hidden.total_time(),
                cf_orig.total_time()
            );
            // …at a constant-factor overhead.
            let overhead = cf_hidden.total_time() as f64 / cf_orig.total_time() as f64;
            assert!(overhead < 2.0, "k={k}: overhead {overhead}");
        }
    }

    #[test]
    fn scan_hiding_rejects_non_gap_parameters() {
        assert!(AbcParams::mm_inplace().scan_hidden().is_err());
        assert!(AbcParams::a_equals_b().scan_hidden().is_err());
        assert!(AbcParams::a_below_b().scan_hidden().is_err());
    }
}
