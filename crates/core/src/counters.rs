//! Lightweight execution counters for the observability layer.
//!
//! The experiment engine wants to know *what the simulators did* — boxes
//! advanced, cursor steps taken, I/Os charged, cache hits and evictions —
//! without slowing down the hot loops when nobody is listening. The design:
//!
//! * Counting sites call the free functions ([`count_boxes`],
//!   [`count_cursor_steps`], [`count_io`], [`count_cache_hit`],
//!   [`count_cache_evictions`]). Each is a single thread-local flag check
//!   when recording is off — no atomics, no allocation, nothing shared.
//! * A scope that wants numbers opens a [`Recording`]; counts accumulate in
//!   thread-local [`Cell`]s until [`Recording::finish`] returns the
//!   [`CounterSnapshot`] delta for that scope.
//! * Multi-threaded drivers (the Monte-Carlo engine) record per worker
//!   thread, sum the workers' snapshots with [`CounterSnapshot::plus`]
//!   once they are joined, and fold the sum into the caller's recording
//!   with [`count_snapshot`]. Nothing is shared between threads.
//!
//! Counters are diagnostics, not semantics: they never feed back into the
//! simulation, so enabling them cannot change any result.

use std::cell::Cell;

/// A point-in-time reading of the execution counters.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CounterSnapshot {
    /// Boxes advanced by the execution drivers (abstract or trace replay).
    pub boxes_advanced: u64,
    /// Execution-cursor micro-steps (frame pushes/pops and chunk
    /// completions).
    pub cursor_steps: u64,
    /// I/Os charged against boxes or fixed caches (saturating at u64::MAX).
    pub ios_charged: u64,
    /// Cache hits observed by the paging layer.
    pub cache_hits: u64,
    /// Blocks evicted by the paging layer.
    pub cache_evictions: u64,
}

impl CounterSnapshot {
    /// The all-zero snapshot.
    pub const ZERO: CounterSnapshot = CounterSnapshot {
        boxes_advanced: 0,
        cursor_steps: 0,
        ios_charged: 0,
        cache_hits: 0,
        cache_evictions: 0,
    };

    /// Component-wise saturating sum.
    #[must_use]
    pub fn plus(self, other: CounterSnapshot) -> CounterSnapshot {
        CounterSnapshot {
            boxes_advanced: self.boxes_advanced.saturating_add(other.boxes_advanced),
            cursor_steps: self.cursor_steps.saturating_add(other.cursor_steps),
            ios_charged: self.ios_charged.saturating_add(other.ios_charged),
            cache_hits: self.cache_hits.saturating_add(other.cache_hits),
            cache_evictions: self.cache_evictions.saturating_add(other.cache_evictions),
        }
    }

    /// Component-wise saturating difference (`self` taken after `earlier`).
    #[must_use]
    pub fn minus(self, earlier: CounterSnapshot) -> CounterSnapshot {
        CounterSnapshot {
            boxes_advanced: self.boxes_advanced.saturating_sub(earlier.boxes_advanced),
            cursor_steps: self.cursor_steps.saturating_sub(earlier.cursor_steps),
            ios_charged: self.ios_charged.saturating_sub(earlier.ios_charged),
            cache_hits: self.cache_hits.saturating_sub(earlier.cache_hits),
            cache_evictions: self.cache_evictions.saturating_sub(earlier.cache_evictions),
        }
    }

    /// Is every counter zero?
    #[must_use]
    pub fn is_zero(&self) -> bool {
        *self == CounterSnapshot::ZERO
    }
}

thread_local! {
    static ENABLED: Cell<bool> = const { Cell::new(false) };
    static COUNTS: Cell<CounterSnapshot> = const { Cell::new(CounterSnapshot::ZERO) };
}

#[inline]
fn bump(f: impl FnOnce(&mut CounterSnapshot)) {
    if ENABLED.with(Cell::get) {
        COUNTS.with(|c| {
            let mut snapshot = c.get();
            f(&mut snapshot);
            c.set(snapshot);
        });
    }
}

/// Record `n` boxes advanced (no-op unless a [`Recording`] is open on this
/// thread).
#[inline]
pub fn count_boxes(n: u64) {
    bump(|c| c.boxes_advanced = c.boxes_advanced.saturating_add(n));
}

/// Record `n` execution-cursor steps.
#[inline]
pub fn count_cursor_steps(n: u64) {
    bump(|c| c.cursor_steps = c.cursor_steps.saturating_add(n));
}

/// Record `n` I/Os charged. Takes the model's native [`crate::Io`] width
/// and saturates into the counter.
#[inline]
pub fn count_io(n: u128) {
    bump(|c| {
        c.ios_charged = c
            .ios_charged
            .saturating_add(u64::try_from(n).unwrap_or(u64::MAX));
    });
}

/// Record one cache hit.
#[inline]
pub fn count_cache_hit() {
    bump(|c| c.cache_hits = c.cache_hits.saturating_add(1));
}

/// Record `n` cache evictions.
#[inline]
pub fn count_cache_evictions(n: u64) {
    bump(|c| c.cache_evictions = c.cache_evictions.saturating_add(n));
}

/// Fold an externally-collected snapshot into this thread's open recording
/// (no-op when none is open). This is how multi-threaded drivers make the
/// work done on their worker threads visible to the caller's [`Recording`].
pub fn count_snapshot(s: &CounterSnapshot) {
    bump(|c| *c = c.plus(*s));
}

/// An open counting scope on the current thread.
///
/// Nested recordings compose: each `finish` reports the events since its
/// own `start`, and outer recordings keep counting through inner ones.
#[derive(Debug)]
pub struct Recording {
    was_enabled: bool,
    base: CounterSnapshot,
}

impl Recording {
    /// Start (or continue) counting on this thread.
    #[must_use]
    pub fn start() -> Recording {
        let was_enabled = ENABLED.with(|e| e.replace(true));
        Recording {
            was_enabled,
            base: COUNTS.with(Cell::get),
        }
    }

    /// Stop this scope and return the events counted since `start`.
    #[must_use]
    pub fn finish(self) -> CounterSnapshot {
        COUNTS.with(Cell::get).minus(self.base)
        // Drop restores the enabled flag.
    }
}

impl Drop for Recording {
    fn drop(&mut self) {
        ENABLED.with(|e| e.set(self.was_enabled));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_by_default() {
        count_boxes(5);
        count_cache_hit();
        let rec = Recording::start();
        let delta = rec.finish();
        assert!(delta.is_zero(), "counts before start leaked in: {delta:?}");
    }

    #[test]
    fn recording_captures_deltas() {
        let rec = Recording::start();
        count_boxes(3);
        count_io(7);
        count_cursor_steps(2);
        count_cache_hit();
        count_cache_evictions(4);
        let delta = rec.finish();
        assert_eq!(
            delta,
            CounterSnapshot {
                boxes_advanced: 3,
                cursor_steps: 2,
                ios_charged: 7,
                cache_hits: 1,
                cache_evictions: 4,
            }
        );
        // Counting stops once the recording is gone.
        count_boxes(100);
        let rec = Recording::start();
        let delta = rec.finish();
        assert!(delta.is_zero());
    }

    #[test]
    fn nested_recordings_compose() {
        let outer = Recording::start();
        count_boxes(1);
        let inner = Recording::start();
        count_boxes(2);
        let inner_delta = inner.finish();
        count_boxes(4);
        let outer_delta = outer.finish();
        assert_eq!(inner_delta.boxes_advanced, 2);
        assert_eq!(outer_delta.boxes_advanced, 7);
    }

    #[test]
    fn io_saturates_from_u128() {
        let rec = Recording::start();
        count_io(u128::MAX);
        count_io(10);
        assert_eq!(rec.finish().ios_charged, u64::MAX);
    }

    #[test]
    fn snapshot_arithmetic() {
        let a = CounterSnapshot {
            boxes_advanced: 5,
            cursor_steps: 1,
            ios_charged: 2,
            cache_hits: 3,
            cache_evictions: 4,
        };
        let b = a.plus(a);
        assert_eq!(b.boxes_advanced, 10);
        assert_eq!(b.minus(a), a);
        assert!(a.minus(b).is_zero());
        // Sums saturate at u64::MAX instead of wrapping.
        let near_max = CounterSnapshot {
            ios_charged: u64::MAX - 1,
            ..CounterSnapshot::ZERO
        };
        assert_eq!(near_max.plus(near_max).ios_charged, u64::MAX);
    }
}
