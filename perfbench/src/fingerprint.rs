//! Output fingerprints: every timed call is reduced to one `u64` that the
//! oracle process computes independently through the reference paths.

use cadapt_analysis::{McSummary, Stats};
use cadapt_core::AdaptivityReport;
use cadapt_paging::replay::{FixedReplay, ProfileReplay};
use cadapt_trace::{TraceProgram, TraceSummary};

/// A word-at-a-time mixing hash. Not cryptographic: it guards against
/// wrong answers, not adversaries.
#[derive(Debug, Clone, Copy)]
pub struct Fp(u64);

impl Fp {
    pub fn new() -> Fp {
        Fp(0xcbf2_9ce4_8422_2325)
    }

    pub fn u64(self, x: u64) -> Fp {
        Fp((self.0.rotate_left(5) ^ x).wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    #[allow(clippy::cast_possible_truncation)]
    pub fn u128(self, x: u128) -> Fp {
        self.u64(x as u64).u64((x >> 64) as u64)
    }

    pub fn f64(self, x: f64) -> Fp {
        self.u64(x.to_bits())
    }

    pub fn words(self, xs: &[u64]) -> Fp {
        xs.iter().fold(self.u64(xs.len() as u64), |h, &x| h.u64(x))
    }

    pub fn wide_words(self, xs: &[u128]) -> Fp {
        xs.iter().fold(self.u64(xs.len() as u64), |h, &x| h.u128(x))
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

pub fn report(r: &AdaptivityReport) -> u64 {
    Fp::new()
        .u64(r.a)
        .u64(r.b)
        .f64(r.exponent)
        .u64(r.n)
        .u64(r.boxes_used)
        .f64(r.bounded_potential_sum)
        .f64(r.raw_potential_sum)
        .f64(r.required_progress)
        .u128(r.total_progress)
        .u128(r.total_io)
        .u64(r.max_box)
        .u64(r.min_box)
        .finish()
}

fn stats(h: Fp, s: &Stats) -> Fp {
    h.u64(s.count)
        .f64(s.mean)
        .f64(s.variance())
        .f64(s.min)
        .f64(s.max)
}

/// The summary's statistics; its counter totals are left out because they
/// are only non-zero under a recording.
pub fn mc_summary(s: &McSummary) -> u64 {
    let h = Fp::new().u64(s.n);
    let h = stats(h, &s.ratio);
    let h = stats(h, &s.boxes);
    stats(h, &s.bounded_potential).finish()
}

/// The statistics a Monte-Carlo summary would hold for these per-trial
/// reports, pushed in trial order exactly as the driver pushes them.
pub fn mc_reports(n: u64, reports: &[AdaptivityReport]) -> u64 {
    let mut ratio = Stats::new();
    let mut boxes = Stats::new();
    let mut potential = Stats::new();
    for r in reports {
        ratio.push(r.ratio());
        boxes.push(r.boxes_used as f64);
        potential.push(r.bounded_potential_sum);
    }
    let h = Fp::new().u64(n);
    let h = stats(h, &ratio);
    let h = stats(h, &boxes);
    stats(h, &potential).finish()
}

pub fn fixed(r: &FixedReplay) -> u64 {
    Fp::new()
        .u64(r.cache_blocks)
        .u128(r.io)
        .u64(r.accesses)
        .finish()
}

pub fn profile_replay(r: &ProfileReplay) -> u64 {
    Fp::new()
        .u128(r.io)
        .u64(u64::from(r.completed))
        .u128(r.leaves)
        .finish()
}

/// Length plus CRC of the bytecode, and the header counts.
pub fn program(p: &TraceProgram) -> u64 {
    Fp::new()
        .u64(p.byte_len() as u64)
        .u64(u64::from(p.crc32()))
        .u64(p.accesses())
        .u64(p.distinct_blocks())
        .u128(p.leaves())
        .finish()
}

pub fn trace_summary(s: &TraceSummary) -> u64 {
    Fp::new()
        .u64(s.accesses())
        .u64(s.distinct_blocks())
        .u128(s.leaves())
        .words(s.prev1())
        .words(s.depths())
        .wide_words(s.leaves_before())
        .finish()
}
