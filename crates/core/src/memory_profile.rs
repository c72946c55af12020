//! Arbitrary memory profiles m(t) and their square-profile approximation.
//!
//! The CA model lets the cache change size at every I/O: m(t) is the size of
//! the cache, in blocks, after the t-th I/O. The model's well-formedness rule
//! is that the cache grows by at most one block per I/O but may shrink
//! arbitrarily. Analysis, however, happens on *square profiles*
//! (Definition 1); [`MemoryProfile::inner_squares`] performs the greedy
//! largest-inscribed-square decomposition that prior work shows loses only
//! constant factors.
//!
//! Profiles are run-length encoded: realistic profiles (and all our
//! generators) hold a size for long stretches, so RLE keeps even very long
//! profiles small.

use crate::profile::SquareProfile;
use crate::{Blocks, CoreError, Io};

/// A run of the profile: the cache has size `size` for `len` I/Os.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Segment {
    /// Cache size in blocks during this run.
    pub size: Blocks,
    /// Duration of the run in I/Os.
    pub len: Io,
}

/// A finite memory profile m(t), run-length encoded.
///
/// ```
/// use cadapt_core::MemoryProfile;
///
/// // Cache ramps 1, 2, 3, 4 blocks, one I/O each:
/// let profile = MemoryProfile::from_steps(&[1, 2, 3, 4])?;
/// // The greedy inner-square decomposition tiles it exactly:
/// let squares = profile.inner_squares();
/// assert_eq!(squares.boxes(), &[1, 2, 1]);
/// assert_eq!(squares.total_time(), profile.total_time());
/// # Ok::<(), cadapt_core::CoreError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemoryProfile {
    segments: Vec<Segment>,
    total: Io,
}

impl MemoryProfile {
    /// Build from explicit run-length segments.
    ///
    /// Zero-length segments are dropped; adjacent equal-size runs are merged.
    /// The segments are compacted in place, so the input's allocation
    /// becomes the profile's and a long profile is never held twice.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::EmptyBox`] (reusing the zero-size error) if any
    /// non-empty segment has size zero: the CA model requires at least one
    /// block of cache at all times. `at` is the segment's index in the
    /// input.
    pub fn from_segments(mut segments: Vec<Segment>) -> Result<Self, CoreError> {
        let mut total: Io = 0;
        // `segments[..kept]` is the compacted profile so far; `kept <= i`,
        // so compaction only overwrites segments already read.
        let mut kept = 0usize;
        for i in 0..segments.len() {
            let seg = segments[i];
            if seg.len == 0 {
                continue;
            }
            if seg.size == 0 {
                return Err(CoreError::EmptyBox { at: i });
            }
            total += seg.len;
            match kept.checked_sub(1).and_then(|last| segments.get_mut(last)) {
                Some(last) if last.size == seg.size => last.len += seg.len,
                _ => {
                    segments[kept] = seg;
                    kept += 1;
                }
            }
        }
        segments.truncate(kept);
        Ok(MemoryProfile { segments, total })
    }

    /// Build from one size per I/O step.
    ///
    /// # Errors
    ///
    /// Returns an error if any step has size zero.
    pub fn from_steps(steps: &[Blocks]) -> Result<Self, CoreError> {
        let segments = steps.iter().map(|&size| Segment { size, len: 1 }).collect();
        MemoryProfile::from_segments(segments)
    }

    /// View a square profile as a memory profile (each box of size x is a
    /// run of height x lasting x I/Os).
    #[must_use]
    pub fn from_square_profile(profile: &SquareProfile) -> Self {
        let segments = profile
            .boxes()
            .iter()
            .map(|&b| Segment {
                size: b,
                len: Io::from(b),
            })
            .collect::<Vec<_>>();
        // cadapt-lint: allow(panic-reach) -- invariant: SquareProfile construction already rejected zero-size boxes
        MemoryProfile::from_segments(segments).expect("square profiles have positive boxes")
    }

    /// The run-length segments.
    #[must_use]
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// Total profile duration in I/Os.
    #[must_use]
    pub fn total_time(&self) -> Io {
        self.total
    }

    /// The cache size at I/O timestamp `t`, or `None` past the end.
    ///
    /// Scans from the first segment on every call, so it costs O(segments).
    /// Readers that visit non-decreasing timestamps — every replay does —
    /// should use [`MemoryProfile::cursor`] instead, which answers in
    /// amortised O(1); this method stays as the reference the cursor is
    /// tested against.
    #[must_use]
    pub fn value_at(&self, t: Io) -> Option<Blocks> {
        let mut acc: Io = 0;
        for seg in &self.segments {
            acc += seg.len;
            if t < acc {
                return Some(seg.size);
            }
        }
        None
    }

    /// A forward-only reader of m(t), positioned at t = 0.
    ///
    /// ```
    /// use cadapt_core::MemoryProfile;
    ///
    /// let profile = MemoryProfile::from_steps(&[3, 3, 7])?;
    /// let mut m = profile.cursor();
    /// assert_eq!(m.value_at(0), Some(3));
    /// assert_eq!(m.value_at(2), Some(7));
    /// assert_eq!(m.value_at(3), None);
    /// # Ok::<(), cadapt_core::CoreError>(())
    /// ```
    #[must_use]
    pub fn cursor(&self) -> ProfileCursor<'_> {
        ProfileCursor {
            segments: &self.segments,
            idx: 0,
            end: self.segments.first().map_or(0, |seg| seg.len),
        }
    }

    /// Check the CA-model growth rule: the cache may grow by at most one
    /// block per I/O (shrinking is unrestricted).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::ProfileGrowthViolation`] at the first segment
    /// boundary where the size jumps up by more than one.
    pub fn validate_growth(&self) -> Result<(), CoreError> {
        for (i, w) in self.segments.windows(2).enumerate() {
            if w[1].size > w[0].size + 1 {
                return Err(CoreError::ProfileGrowthViolation {
                    at: i + 1,
                    from: w[0].size,
                    to: w[1].size,
                });
            }
        }
        Ok(())
    }

    /// Greedy inner-square decomposition: repeatedly carve off the largest
    /// box that fits under the curve starting at the current time.
    ///
    /// A box of size s fits at time t iff m(u) ≥ s for all u ∈ [t, t + s).
    /// Feasibility is monotone in s (the running minimum only decreases), so
    /// the greedy scan below finds the maximum. Near the end of the profile
    /// the square is additionally capped by the remaining duration, so the
    /// decomposition always covers the profile exactly: Σ |□_i| equals the
    /// profile's total time.
    #[must_use]
    pub fn inner_squares(&self) -> SquareProfile {
        // Flatten lazily over (size, len) runs with an index cursor.
        let mut boxes: Vec<Blocks> = Vec::new();
        let mut seg_idx = 0usize; // current segment
        let mut seg_off: Io = 0; // I/Os consumed within current segment

        while seg_idx < self.segments.len() {
            // Greedy scan for the largest square starting here.
            let mut s: Io = 0; // current feasible square size
            let mut mn: Blocks = Blocks::MAX; // running min of m over [t, t+s)
            let mut i = seg_idx;
            let mut off = seg_off;
            'grow: while i < self.segments.len() {
                let seg = self.segments[i];
                mn = mn.min(seg.size);
                // Within this run the min is fixed at `mn`; the square can
                // grow while s + 1 ≤ mn and s stays inside the run.
                let run_left = seg.len - off;
                let grow_cap = Io::from(mn).saturating_sub(s);
                let grow = run_left.min(grow_cap);
                s += grow;
                if grow < run_left {
                    // Hit the height limit mn before the run ended.
                    break 'grow;
                }
                i += 1;
                off = 0;
            }
            // The remaining duration may be shorter than the height allows:
            // s is capped by total remaining time automatically (loop ends).
            let size = crate::cast::u64_from_u128(s);
            debug_assert!(size >= 1, "every step has size >= 1");
            boxes.push(size);
            // Advance the cursor by s I/Os.
            let mut advance = s;
            while advance > 0 {
                let left = self.segments[seg_idx].len - seg_off;
                if advance >= left {
                    advance -= left;
                    seg_idx += 1;
                    seg_off = 0;
                } else {
                    seg_off += advance;
                    advance = 0;
                }
            }
        }
        SquareProfile::from_boxes_unchecked(boxes)
    }
}

/// Forward-only reader of a [`MemoryProfile`]: m(t) for non-decreasing t
/// in amortised O(1), where [`MemoryProfile::value_at`] rescans from the
/// first segment.
///
/// The cursor holds the index of the current segment and that segment's
/// end time, and only ever steps forward, so a pass that reads m(t) at
/// every I/O of a replay walks the segment list once in total. Asking for
/// an earlier timestamp than a previous call is a contract violation
/// (caught by a debug assertion).
#[derive(Debug, Clone)]
pub struct ProfileCursor<'a> {
    segments: &'a [Segment],
    /// Index of the segment that contains the last timestamp read.
    idx: usize,
    /// Exclusive end time of segment `idx` (0 for the empty profile).
    end: Io,
}

impl ProfileCursor<'_> {
    /// The cache size at I/O timestamp `t`, or `None` past the end (and at
    /// every later timestamp). `t` must not decrease between calls.
    pub fn value_at(&mut self, t: Io) -> Option<Blocks> {
        while t >= self.end {
            let next = self.segments.get(self.idx + 1)?;
            self.idx += 1;
            self.end += next.len;
        }
        let seg = self.segments.get(self.idx)?;
        debug_assert!(t + seg.len >= self.end, "cursor read t = {t} backwards");
        Some(seg.size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mp(steps: &[Blocks]) -> MemoryProfile {
        MemoryProfile::from_steps(steps).unwrap()
    }

    #[test]
    fn rle_merges_runs() {
        let p = mp(&[3, 3, 3, 2, 2, 5]);
        assert_eq!(
            p.segments(),
            &[
                Segment { size: 3, len: 3 },
                Segment { size: 2, len: 2 },
                Segment { size: 5, len: 1 },
            ]
        );
        assert_eq!(p.total_time(), 6);
    }

    #[test]
    fn rejects_zero_size() {
        assert!(MemoryProfile::from_steps(&[1, 0, 2]).is_err());
    }

    #[test]
    fn drops_empty_segments() {
        let p = MemoryProfile::from_segments(vec![
            Segment { size: 2, len: 0 },
            Segment { size: 3, len: 2 },
        ])
        .unwrap();
        assert_eq!(p.segments(), &[Segment { size: 3, len: 2 }]);
    }

    #[test]
    fn value_at_works() {
        let p = mp(&[3, 3, 7]);
        assert_eq!(p.value_at(0), Some(3));
        assert_eq!(p.value_at(1), Some(3));
        assert_eq!(p.value_at(2), Some(7));
        assert_eq!(p.value_at(3), None);
    }

    #[test]
    fn growth_rule() {
        // +1 per step is fine; shrinking is fine.
        let p = mp(&[1, 2, 3, 1, 2]);
        assert!(p.validate_growth().is_ok());
        // +2 jump is a violation.
        let p = mp(&[1, 3]);
        assert_eq!(
            p.validate_growth(),
            Err(CoreError::ProfileGrowthViolation {
                at: 1,
                from: 1,
                to: 3
            })
        );
    }

    #[test]
    fn inner_squares_constant_profile() {
        // Constant height 4 for 10 I/Os: squares 4, 4, then a 2 at the tail.
        let p = MemoryProfile::from_segments(vec![Segment { size: 4, len: 10 }]).unwrap();
        assert_eq!(p.inner_squares().boxes(), &[4, 4, 2]);
    }

    #[test]
    fn inner_squares_step_down() {
        // Height 5 for 3 I/Os then height 2 for 4 I/Os.
        // First square: min over window limits it — at s=3 the min drops to 2,
        // so the largest s with min >= s is 3 (min over [0,3) = 5 >= 3).
        let p = MemoryProfile::from_segments(vec![
            Segment { size: 5, len: 3 },
            Segment { size: 2, len: 4 },
        ])
        .unwrap();
        assert_eq!(p.inner_squares().boxes(), &[3, 2, 2]);
    }

    #[test]
    fn inner_squares_ramp_up() {
        // 1,2,3,4: first square is 1 (m(0)=1), then from t=1: sizes 2,3,4 ->
        // largest s with min >= s is 2 ([2,3] min 2 >= 2); then from t=3: [4]
        // but only 1 I/O left -> square 1.
        let p = mp(&[1, 2, 3, 4]);
        assert_eq!(p.inner_squares().boxes(), &[1, 2, 1]);
    }

    #[test]
    fn inner_squares_cover_profile_exactly() {
        let p = mp(&[6, 1, 4, 4, 4, 4, 2, 9, 9, 1, 1, 1, 5]);
        let sq = p.inner_squares();
        assert_eq!(sq.total_time(), p.total_time());
        // Every square must fit under the curve at its position.
        let mut t: Io = 0;
        for &b in sq.boxes() {
            for u in t..t + Io::from(b) {
                assert!(p.value_at(u).unwrap() >= b, "square {b} at t={t} pokes out");
            }
            t += Io::from(b);
        }
    }

    #[test]
    fn square_profile_round_trip() {
        let sq = SquareProfile::new(vec![2, 5, 1, 3]).unwrap();
        let p = MemoryProfile::from_square_profile(&sq);
        assert_eq!(p.total_time(), sq.total_time());
        // The inner-square decomposition of a square profile is itself.
        assert_eq!(p.inner_squares(), sq);
    }

    #[test]
    fn inner_squares_of_adjacent_equal_boxes() {
        // Two boxes of size 3 RLE-merge into a run of height 3, length 6:
        // the decomposition recovers 3, 3.
        let sq = SquareProfile::new(vec![3, 3]).unwrap();
        let p = MemoryProfile::from_square_profile(&sq);
        assert_eq!(p.inner_squares().boxes(), &[3, 3]);
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        /// Raw runs for `from_segments`: zero lengths (dropped) and equal
        /// neighbours (merged) both occur, and so does the empty profile
        /// (no runs, or only zero-length ones).
        fn segments() -> impl Strategy<Value = Vec<Segment>> {
            proptest::collection::vec((1u64..64, 0u64..20), 0..12).prop_map(|runs| {
                runs.into_iter()
                    .map(|(size, len)| Segment {
                        size,
                        len: Io::from(len),
                    })
                    .collect()
            })
        }

        /// `from_segments` as first written: it copies the kept runs into
        /// a second vector. The in-place version must match it exactly.
        fn copying_from_segments(segments: Vec<Segment>) -> Result<MemoryProfile, CoreError> {
            let mut out: Vec<Segment> = Vec::with_capacity(segments.len());
            let mut total: Io = 0;
            for (i, seg) in segments.into_iter().enumerate() {
                if seg.len == 0 {
                    continue;
                }
                if seg.size == 0 {
                    return Err(CoreError::EmptyBox { at: i });
                }
                total += seg.len;
                match out.last_mut() {
                    Some(last) if last.size == seg.size => last.len += seg.len,
                    _ => out.push(seg),
                }
            }
            Ok(MemoryProfile {
                segments: out,
                total,
            })
        }

        /// Raw runs over a tiny size and length range, so zero sizes,
        /// zero lengths and equal neighbours crowd together: a zero size
        /// often follows dropped or merged runs, where the reported index
        /// must still be the input's.
        fn crowded_segments() -> impl Strategy<Value = Vec<Segment>> {
            proptest::collection::vec((0u64..4, 0u64..4), 0..16).prop_map(|runs| {
                runs.into_iter()
                    .map(|(size, len)| Segment {
                        size,
                        len: Io::from(len),
                    })
                    .collect()
            })
        }

        #[test]
        fn zero_size_after_merged_and_dropped_runs_reports_its_input_index() {
            let raw = vec![
                Segment { size: 2, len: 1 },
                Segment { size: 2, len: 3 },
                Segment { size: 0, len: 0 },
                Segment { size: 5, len: 0 },
                Segment { size: 0, len: 4 },
            ];
            assert_eq!(
                copying_from_segments(raw.clone()),
                Err(CoreError::EmptyBox { at: 4 })
            );
            assert_eq!(
                MemoryProfile::from_segments(raw),
                Err(CoreError::EmptyBox { at: 4 })
            );
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// In-place compaction equals the copying reference: the same
            /// segments and total, or the same error at the same index.
            #[test]
            fn in_place_compaction_matches_the_copying_reference(raw in crowded_segments()) {
                let want = copying_from_segments(raw.clone());
                prop_assert_eq!(MemoryProfile::from_segments(raw), want);
            }

            /// The cursor agrees with the reference scan at every
            /// timestamp through one past the end, and stays `None` after.
            #[test]
            fn cursor_matches_value_at_everywhere(raw in segments()) {
                let profile = MemoryProfile::from_segments(raw).unwrap();
                let end = profile.total_time();
                let mut m = profile.cursor();
                for t in 0..=end + 1 {
                    prop_assert_eq!(m.value_at(t), profile.value_at(t), "t = {}", t);
                }
                for t in [end + 1, end + 2, end + 1000] {
                    prop_assert_eq!(m.value_at(t), None, "t = {}", t);
                }
            }

            /// Sparse and repeated reads — a replay reads the same t once
            /// per hit and skips segments between misses — agree too.
            #[test]
            fn cursor_matches_value_at_on_skips_and_repeats(
                raw in segments(),
                gaps in proptest::collection::vec(0u64..6, 0..40),
            ) {
                let profile = MemoryProfile::from_segments(raw).unwrap();
                let mut m = profile.cursor();
                let mut t: Io = 0;
                for gap in gaps {
                    t += Io::from(gap);
                    prop_assert_eq!(m.value_at(t), profile.value_at(t), "t = {}", t);
                }
            }
        }
    }
}
