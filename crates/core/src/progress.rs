//! Per-box progress accounting.
//!
//! An execution driver (the recursion cursor in `cadapt-recursion`, or the
//! trace replayer in `cadapt-paging`) feeds one [`BoxRecord`] per consumed
//! box into a [`ProgressLedger`]. The ledger accumulates the quantities the
//! optimality condition needs — in particular the n-bounded potential sum of
//! Eq. 2 — and finishes into an [`AdaptivityReport`].
//!
//! Worst-case runs consume millions of boxes, so by default the ledger only
//! keeps aggregates; construct it with [`ProgressLedger::retaining`] to also
//! keep the full per-box history for auditing or plotting.
//!
//! A run draws its boxes from a handful of sizes, so the ledger reads
//! ρ(size) through a small direct-mapped memo, and the n-bounded potential
//! of a box is either that same value (size ≤ n) or ρ(n), computed once.

use crate::potential::Potential;
use crate::report::AdaptivityReport;
use crate::{cast, Blocks, Io, Leaves};

/// Entries in a ledger's ρ memo. A prime, so that the slot `size mod 61`
/// separates the powers of 2 up to 2^59 (2 has order 60 modulo 61): every
/// box size of a recursion with b = 2 or 4 and base 1 or 2 keeps its own
/// entry. The low six bits would send every power of 2 from 64 on to one
/// slot, and the top six bits of a Fibonacci hash send 4 and 4^8 to one.
const MEMO_LEN: usize = 61;

/// Memo slot of a box size.
fn memo_slot(size: Blocks) -> usize {
    cast::usize_from_u64(size % cast::u64_from_usize(MEMO_LEN))
}

/// What one box achieved: its size, the progress (base cases at least partly
/// completed) inside it, and the I/Os actually used (≤ size; the final box
/// of a run is typically only partly used).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BoxRecord {
    /// Size of the box in blocks (= its duration in I/Os).
    pub size: Blocks,
    /// Base-case subproblems completed (at least partly) within the box.
    pub progress: Leaves,
    /// I/Os of the box actually consumed by the algorithm.
    pub used: Io,
}

/// Accumulator of per-box records for one execution on one profile.
#[derive(Debug, Clone)]
pub struct ProgressLedger {
    rho: Potential,
    n: Blocks,
    /// ρ(n): the bounded potential of every box of size ≥ n.
    rho_n: f64,
    /// Direct-mapped `(size, ρ(size))` memo indexed by [`memo_slot`]. The
    /// all-zero start is already right: ρ(0) = 0.
    memo: [(Blocks, f64); MEMO_LEN],
    boxes_used: u64,
    bounded_potential_sum: f64,
    raw_potential_sum: f64,
    total_progress: Leaves,
    total_io: Io,
    max_box: Blocks,
    min_box: Blocks,
    history: Option<Vec<BoxRecord>>,
}

impl ProgressLedger {
    /// Ledger for a problem of size `n` blocks under potential `rho`,
    /// keeping aggregates only.
    #[must_use]
    pub fn new(rho: Potential, n: Blocks) -> Self {
        ProgressLedger {
            rho,
            n,
            rho_n: rho.eval(n),
            memo: [(0, 0.0); MEMO_LEN],
            boxes_used: 0,
            bounded_potential_sum: 0.0,
            raw_potential_sum: 0.0,
            total_progress: 0,
            total_io: 0,
            max_box: 0,
            min_box: Blocks::MAX,
            history: None,
        }
    }

    /// Like [`ProgressLedger::new`], but also retains every [`BoxRecord`].
    #[must_use]
    pub fn retaining(rho: Potential, n: Blocks) -> Self {
        let mut ledger = ProgressLedger::new(rho, n);
        ledger.history = Some(Vec::new());
        ledger
    }

    /// The n-bounded and raw potentials of one box of `size`: the values
    /// of [`Potential::bounded`] and [`Potential::eval`], bit for bit.
    fn potentials(&mut self, size: Blocks) -> (f64, f64) {
        let entry = &mut self.memo[memo_slot(size)]; // cadapt-lint: allow(panic-reach) -- memo_slot reduces modulo MEMO_LEN, the memo's length
        if entry.0 != size {
            *entry = (size, self.rho.eval(size));
        }
        let raw = entry.1;
        // bounded(n, x) = eval(min(n, x)).
        let bounded = if size <= self.n { raw } else { self.rho_n };
        (bounded, raw)
    }

    /// Record one consumed box.
    pub fn record(&mut self, record: BoxRecord) {
        self.boxes_used += 1;
        let (bounded, raw) = self.potentials(record.size);
        self.bounded_potential_sum += bounded;
        self.raw_potential_sum += raw;
        self.total_progress += record.progress;
        self.total_io += record.used;
        self.max_box = self.max_box.max(record.size);
        self.min_box = self.min_box.min(record.size);
        if let Some(h) = &mut self.history {
            h.push(record);
        }
    }

    /// Record a *run* of `count` boxes of identical `size`, with the given
    /// progress and I/O totals across the whole run.
    ///
    /// Produces bit-identical aggregates to `count` calls of
    /// [`ProgressLedger::record`] with the per-box records: the integer
    /// totals are additive, and the two potential sums repeat the same
    /// per-box `+= ρ` additions (evaluating ρ once, since the size is
    /// constant) so the f64 rounding sequence is reproduced exactly. Once
    /// both sums stop changing — the increment has fallen below the sums'
    /// ulp — the remaining additions are provably no-ops and are skipped.
    ///
    /// Not supported on history-retaining ledgers (callers expand runs to
    /// per-box records when history is requested).
    ///
    /// # Panics
    ///
    /// Panics if the ledger retains history.
    pub fn record_run(&mut self, size: Blocks, progress: Leaves, used: Io, count: u64) {
        assert!(
            self.history.is_none(),
            "record_run on a history-retaining ledger; expand runs per box instead"
        );
        if count == 0 {
            return;
        }
        self.boxes_used += count;
        let (bounded, raw) = self.potentials(size);
        for _ in 0..count {
            let next_bounded = self.bounded_potential_sum + bounded;
            let next_raw = self.raw_potential_sum + raw;
            // Bit-identity on purpose: saturation is detected by the sums no
            // longer changing at all, which is exactly float equality.
            #[allow(clippy::float_cmp)]
            if next_bounded == self.bounded_potential_sum && next_raw == self.raw_potential_sum {
                break;
            }
            self.bounded_potential_sum = next_bounded;
            self.raw_potential_sum = next_raw;
        }
        self.total_progress += progress;
        self.total_io += used;
        self.max_box = self.max_box.max(size);
        self.min_box = self.min_box.min(size);
    }

    /// Number of boxes recorded so far.
    #[must_use]
    pub fn boxes_used(&self) -> u64 {
        self.boxes_used
    }

    /// Running Σ min(n, |□_i|)^{log_b a}.
    #[must_use]
    pub fn bounded_potential_sum(&self) -> f64 {
        self.bounded_potential_sum
    }

    /// Running Σ ρ(|□_i|) (unbounded potential; Eq. 1 form).
    #[must_use]
    pub fn raw_potential_sum(&self) -> f64 {
        self.raw_potential_sum
    }

    /// Total progress (base cases) across all boxes so far.
    #[must_use]
    pub fn total_progress(&self) -> Leaves {
        self.total_progress
    }

    /// The retained per-box history, if this ledger keeps one.
    #[must_use]
    pub fn history(&self) -> Option<&[BoxRecord]> {
        self.history.as_deref()
    }

    /// Finish the run and produce the report.
    #[must_use]
    pub fn finish(self) -> AdaptivityReport {
        AdaptivityReport {
            a: self.rho.a(),
            b: self.rho.b(),
            exponent: self.rho.exponent(),
            n: self.n,
            boxes_used: self.boxes_used,
            bounded_potential_sum: self.bounded_potential_sum,
            raw_potential_sum: self.raw_potential_sum,
            required_progress: self.rho.required_progress(self.n),
            total_progress: self.total_progress,
            total_io: self.total_io,
            max_box: if self.boxes_used == 0 {
                0
            } else {
                self.max_box
            },
            min_box: if self.boxes_used == 0 {
                0
            } else {
                self.min_box
            },
        }
    }
}

// Exact float equality in tests is deliberate: outputs are required to be
// bit-identical run to run (see the golden records).
#[allow(clippy::float_cmp)]
#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregates_accumulate() {
        let rho = Potential::new(8, 4);
        let mut ledger = ProgressLedger::new(rho, 16);
        ledger.record(BoxRecord {
            size: 4,
            progress: 8,
            used: 4,
        });
        ledger.record(BoxRecord {
            size: 64,
            progress: 64,
            used: 30,
        });
        assert_eq!(ledger.boxes_used(), 2);
        // min(16,4)^1.5 + min(16,64)^1.5 = 8 + 64
        assert_eq!(ledger.bounded_potential_sum(), 72.0);
        // 8 + 512
        assert_eq!(ledger.raw_potential_sum(), 520.0);
        assert_eq!(ledger.total_progress(), 72);

        let report = ledger.finish();
        assert_eq!(report.boxes_used, 2);
        assert_eq!(report.max_box, 64);
        assert_eq!(report.min_box, 4);
        assert_eq!(report.total_io, 34);
        assert_eq!(report.required_progress, 64.0);
        assert!((report.ratio() - 72.0 / 64.0).abs() < 1e-12);
    }

    #[test]
    fn default_ledger_keeps_no_history() {
        let rho = Potential::new(8, 4);
        let mut ledger = ProgressLedger::new(rho, 16);
        ledger.record(BoxRecord {
            size: 4,
            progress: 1,
            used: 4,
        });
        assert!(ledger.history().is_none());
    }

    #[test]
    fn retaining_ledger_keeps_history() {
        let rho = Potential::new(8, 4);
        let mut ledger = ProgressLedger::retaining(rho, 16);
        let r1 = BoxRecord {
            size: 4,
            progress: 1,
            used: 4,
        };
        let r2 = BoxRecord {
            size: 2,
            progress: 0,
            used: 2,
        };
        ledger.record(r1);
        ledger.record(r2);
        assert_eq!(ledger.history().unwrap(), &[r1, r2]);
    }

    #[test]
    fn record_run_matches_per_box_records_bitwise() {
        let rho = Potential::new(8, 4);
        for count in [1u64, 2, 7, 1000] {
            let mut per_box = ProgressLedger::new(rho, 256);
            let mut batched = ProgressLedger::new(rho, 256);
            // A prior box so the sums start from a non-trivial value.
            let warm = BoxRecord {
                size: 100,
                progress: 3,
                used: 90,
            };
            per_box.record(warm);
            batched.record(warm);
            let record = BoxRecord {
                size: 17,
                progress: 2,
                used: 17,
            };
            for _ in 0..count {
                per_box.record(record);
            }
            batched.record_run(
                record.size,
                record.progress * Leaves::from(count),
                record.used * Io::from(count),
                count,
            );
            assert_eq!(per_box.boxes_used(), batched.boxes_used());
            assert_eq!(
                per_box.bounded_potential_sum().to_bits(),
                batched.bounded_potential_sum().to_bits(),
                "count {count}"
            );
            assert_eq!(
                per_box.raw_potential_sum().to_bits(),
                batched.raw_potential_sum().to_bits()
            );
            assert_eq!(per_box.total_progress(), batched.total_progress());
            let a = per_box.finish();
            let b = batched.finish();
            assert_eq!(a.total_io, b.total_io);
            assert_eq!(a.max_box, b.max_box);
            assert_eq!(a.min_box, b.min_box);
        }
    }

    #[test]
    fn record_run_zero_count_is_noop() {
        let rho = Potential::new(8, 4);
        let mut ledger = ProgressLedger::new(rho, 16);
        ledger.record_run(4, 0, 0, 0);
        assert_eq!(ledger.boxes_used(), 0);
        assert_eq!(ledger.finish().min_box, 0);
    }

    #[test]
    #[should_panic(expected = "history-retaining")]
    fn record_run_rejects_history_ledger() {
        let rho = Potential::new(8, 4);
        let mut ledger = ProgressLedger::retaining(rho, 16);
        ledger.record_run(4, 1, 4, 1);
    }

    #[test]
    fn memo_slots_separate_powers_of_two() {
        let slots: Vec<usize> = (0..60).map(|k| memo_slot(1 << k)).collect();
        for (k, slot) in slots.iter().enumerate() {
            assert!(!slots[..k].contains(slot), "2^{k} shares a slot: {slots:?}");
        }
    }

    #[test]
    fn empty_run_reports_zeroes() {
        let rho = Potential::new(8, 4);
        let report = ProgressLedger::new(rho, 16).finish();
        assert_eq!(report.boxes_used, 0);
        assert_eq!(report.max_box, 0);
        assert_eq!(report.min_box, 0);
        assert_eq!(report.bounded_potential_sum, 0.0);
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        /// The ledger without the memo: every box evaluates ρ through
        /// `Potential::bounded` and `Potential::eval`.
        struct MemoFree {
            rho: Potential,
            n: Blocks,
            boxes_used: u64,
            bounded_potential_sum: f64,
            raw_potential_sum: f64,
            total_progress: Leaves,
            total_io: Io,
            max_box: Blocks,
            min_box: Blocks,
        }

        impl MemoFree {
            fn new(rho: Potential, n: Blocks) -> Self {
                MemoFree {
                    rho,
                    n,
                    boxes_used: 0,
                    bounded_potential_sum: 0.0,
                    raw_potential_sum: 0.0,
                    total_progress: 0,
                    total_io: 0,
                    max_box: 0,
                    min_box: Blocks::MAX,
                }
            }

            fn record(&mut self, record: BoxRecord) {
                self.boxes_used += 1;
                self.bounded_potential_sum += self.rho.bounded(self.n, record.size);
                self.raw_potential_sum += self.rho.eval(record.size);
                self.total_progress += record.progress;
                self.total_io += record.used;
                self.max_box = self.max_box.max(record.size);
                self.min_box = self.min_box.min(record.size);
            }

            fn finish(self) -> AdaptivityReport {
                let any = self.boxes_used > 0;
                AdaptivityReport {
                    a: self.rho.a(),
                    b: self.rho.b(),
                    exponent: self.rho.exponent(),
                    n: self.n,
                    boxes_used: self.boxes_used,
                    bounded_potential_sum: self.bounded_potential_sum,
                    raw_potential_sum: self.raw_potential_sum,
                    required_progress: self.rho.required_progress(self.n),
                    total_progress: self.total_progress,
                    total_io: self.total_io,
                    max_box: if any { self.max_box } else { 0 },
                    min_box: if any { self.min_box } else { 0 },
                }
            }
        }

        const N: Blocks = 256;

        /// Box sizes: 0 (the memo's initial key), powers of 4 to past n,
        /// non-powers below and above n, and four sizes that share the
        /// memo slot of 16 and so evict it and each other.
        fn sizes() -> Vec<Blocks> {
            let mut sizes = vec![
                0, 1, 4, 16, 64, 256, 1024, 4096, 3, 17, 100, 257, 1000, 5000,
            ];
            let slot = memo_slot(16);
            sizes.extend((17..).filter(|&s| memo_slot(s) == slot).take(4));
            sizes
        }

        fn same_report(
            want: &AdaptivityReport,
            got: &AdaptivityReport,
            how: &str,
        ) -> Result<(), TestCaseError> {
            prop_assert_eq!((got.a, got.b, got.n), (want.a, want.b, want.n), "{}", how);
            prop_assert_eq!(got.exponent.to_bits(), want.exponent.to_bits(), "{}", how);
            prop_assert_eq!(got.boxes_used, want.boxes_used, "{}", how);
            prop_assert_eq!(
                got.bounded_potential_sum.to_bits(),
                want.bounded_potential_sum.to_bits(),
                "{}: bounded sum",
                how
            );
            prop_assert_eq!(
                got.raw_potential_sum.to_bits(),
                want.raw_potential_sum.to_bits(),
                "{}: raw sum",
                how
            );
            prop_assert_eq!(
                got.required_progress.to_bits(),
                want.required_progress.to_bits(),
                "{}",
                how
            );
            prop_assert_eq!(got.total_progress, want.total_progress, "{}", how);
            prop_assert_eq!(got.total_io, want.total_io, "{}", how);
            prop_assert_eq!(got.max_box, want.max_box, "{}", how);
            prop_assert_eq!(got.min_box, want.min_box, "{}", how);
            Ok(())
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(128))]

            /// A stream of runs recorded through the memo, by run and box
            /// by box, gives the memo-free per-box fold's report bit for bit.
            #[test]
            fn memoised_ledger_matches_memo_free_fold(
                (a, b) in prop_oneof![Just((8u64, 4u64)), Just((7, 4)), Just((3, 2))],
                stream in proptest::collection::vec((0usize..64, 1u64..40, 0u64..4, 0u64..64), 0..40),
            ) {
                let rho = Potential::new(a, b);
                let sizes = sizes();
                let mut memo_free = MemoFree::new(rho, N);
                let mut by_run = ProgressLedger::new(rho, N);
                let mut by_box = ProgressLedger::new(rho, N);
                for (pick, count, progress, used) in stream {
                    let record = BoxRecord {
                        size: sizes[pick % sizes.len()],
                        progress: Leaves::from(progress),
                        used: Io::from(used),
                    };
                    for _ in 0..count {
                        memo_free.record(record);
                        by_box.record(record);
                    }
                    by_run.record_run(
                        record.size,
                        record.progress * Leaves::from(count),
                        record.used * Io::from(count),
                        count,
                    );
                }
                let want = memo_free.finish();
                same_report(&want, &by_run.finish(), "record_run")?;
                same_report(&want, &by_box.finish(), "record")?;
            }
        }
    }
}
