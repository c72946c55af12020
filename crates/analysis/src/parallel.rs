//! The deterministic parallel execution engine.
//!
//! Every multi-threaded code path in the workspace funnels through this
//! module — the Monte-Carlo driver (every ratio-over-trials estimate), the
//! trial sweeps of E11 and E13, and `cadapt-bench`'s experiment-level
//! sharding. The determinism contract, stated once and enforced here:
//!
//! * **Work-stealing dispatch, trial-ordered reduction.** Workers claim
//!   the next unclaimed index from a shared atomic counter (a straggler
//!   never idles the other cores), tag every outcome with its index, and
//!   the caller receives the outcomes sorted by index. Any reduction the
//!   caller performs — in particular the order-sensitive f64 Welford
//!   updates in [`Stats`](crate::Stats) — therefore replays the exact
//!   serial sequence, so results are **bit-identical at any thread count**.
//! * **Per-index randomness.** Callers draw randomness only from
//!   [`trial_rng`]`(seed, index)` inside the job closure; no RNG state
//!   crosses trials, so the schedule cannot leak into the sample path.
//!   `trial_rng` is defined here — and only here — because
//!   `cadapt-lint`'s `rng-discipline` rule confines RNG stream minting
//!   to this module.
//! * **Counter observability.** Each worker records the execution counters
//!   thread-locally and the totals are folded into the calling thread's
//!   open [`Recording`] when the sweep finishes. Counter totals are
//!   per-trial sums, so they too are independent of the schedule.
//! * **One worker, no thread.** A sweep that resolves to one worker (one
//!   requested thread, or a single trial) runs its trials in index order
//!   on the calling thread, where they count straight into the caller's
//!   [`Recording`]. Outcomes, counter totals and panic isolation are the
//!   same as with a spawned worker.
//! * **Panic isolation, fail-fast.** Every trial body runs under
//!   [`std::panic::catch_unwind`]: a panicking trial is reported as a
//!   typed [`TrialPanic`] carrying its trial index, and no worker or pool
//!   dies with it. A failure — an error or a caught panic — stops the
//!   sweep: workers claim no new trials, the claimed ones finish, and
//!   [`try_run_trials`] returns the failure with the smallest trial index
//!   ([`SweepError::Panic`] for a panic). A caller that wants the healthy
//!   trials back runs the sweep again; trials are pure functions of their
//!   index, so the retry reproduces them exactly. [`run_trials`]
//!   re-raises the panic on the calling thread — its contract is
//!   infallible jobs, so a panic there is a programming error that must
//!   stay loud.
//!
//! `cadapt-lint`'s `nondet-source` rule bans `thread::spawn` /
//! `crossbeam` in every other library module, so new parallel code must
//! either go through these entry points or extend the engine here.

use cadapt_core::cast;
use cadapt_core::counters::{CounterSnapshot, Recording};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::convert::Infallible;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// The deterministic per-trial RNG: stream `trial` of `seed`.
///
/// This is the single sanctioned RNG mint in the workspace. The returned
/// value is handed to exactly one trial closure and dropped with it —
/// never stored, never cloned, never re-aimed — which is the invariant
/// the waiver below claims.
#[must_use]
// cadapt-lint: allow(rng-discipline) -- the engine's one sanctioned mint: a fresh stream per (seed, trial), consumed by a single trial closure and dropped with it
pub fn trial_rng(seed: u64, trial: u64) -> ChaCha8Rng {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    rng.set_stream(trial);
    rng
}

/// Resolve a requested worker count: `0` means "available parallelism"
/// (falling back to 1 if the host will not say).
#[must_use]
pub fn resolve_threads(requested: usize) -> usize {
    if requested == 0 {
        std::thread::available_parallelism().map_or(1, usize::from)
    } else {
        requested
    }
}

/// A trial that panicked, caught at the engine boundary: the trial index
/// plus the rendered panic payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrialPanic {
    /// Index of the trial whose body panicked.
    pub trial: u64,
    /// The panic payload as text (`&str` / `String` payloads verbatim;
    /// anything else is summarised).
    pub message: String,
}

impl fmt::Display for TrialPanic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "trial {} panicked: {}", self.trial, self.message)
    }
}

impl std::error::Error for TrialPanic {}

/// Why a fallible sweep stopped: a job's own error, or a caught panic.
/// Either way the failing trial index is the **smallest** among the
/// failures, not whichever worker lost the race.
#[derive(Debug, Clone, PartialEq)]
pub enum SweepError<E> {
    /// A job returned its error type.
    Job {
        /// Index of the failing trial.
        trial: u64,
        /// The job's error.
        error: E,
    },
    /// A job panicked; the panic was caught and the pool survived.
    Panic(TrialPanic),
}

impl<E> SweepError<E> {
    /// Index of the failing trial.
    fn trial(&self) -> u64 {
        match self {
            SweepError::Job { trial, .. } => *trial,
            SweepError::Panic(p) => p.trial,
        }
    }
}

impl<E: fmt::Display> fmt::Display for SweepError<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SweepError::Job { trial, error } => write!(f, "trial {trial} failed: {error}"),
            SweepError::Panic(p) => write!(f, "{p}"),
        }
    }
}

impl<E: fmt::Debug + fmt::Display> std::error::Error for SweepError<E> {}

/// Render a caught panic payload as text: `&str` and `String` payloads
/// verbatim, anything else summarised.
#[must_use]
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// One worker's haul: its completed `(trial, value)` pairs, plus the
/// failure that stopped it, if any.
type Haul<T, E> = (Vec<(u64, T)>, Option<SweepError<E>>);

/// One worker's loop: claim the next unclaimed trial until none is left
/// or any worker has seen a failure, running each under
/// [`catch_unwind`].
fn claim_trials<T, E, F>(trials: u64, run: &F, next: &AtomicU64, stop: &AtomicBool) -> Haul<T, E>
where
    F: Fn(u64) -> Result<T, E>,
{
    let mut done: Vec<(u64, T)> = Vec::new();
    while !stop.load(Ordering::Relaxed) {
        let trial = next.fetch_add(1, Ordering::Relaxed);
        if trial >= trials {
            break;
        }
        // AssertUnwindSafe: the closure only reads `Sync` state and the
        // counters are atomics or thread-local cells — a panicking trial
        // cannot leave either torn, and its own partial work is discarded
        // with the unwound stack.
        let failure = match catch_unwind(AssertUnwindSafe(|| run(trial))) {
            Ok(Ok(value)) => {
                done.push((trial, value));
                continue;
            }
            Ok(Err(error)) => SweepError::Job { trial, error },
            Err(payload) => SweepError::Panic(TrialPanic {
                trial,
                message: panic_message(payload.as_ref()),
            }),
        };
        stop.store(true, Ordering::Relaxed);
        return (done, Some(failure));
    }
    (done, None)
}

/// Run [`claim_trials`] on `threads` scoped workers sharing one trial
/// counter and stop flag, and merge their hauls: values sorted by trial,
/// and the failure with the smallest trial index. Each worker hands back
/// its own counter snapshot with its haul; their sum is folded into the
/// caller's open [`Recording`] (a per-trial sum, hence
/// schedule-independent), on the error path too.
fn spawn_workers<T, E, F>(trials: u64, threads: usize, run: &F) -> Haul<T, E>
where
    T: Send,
    E: Send,
    F: Fn(u64) -> Result<T, E> + Sync,
{
    let next_trial = AtomicU64::new(0);
    let stop = AtomicBool::new(false);
    let workers: Vec<(CounterSnapshot, Haul<T, E>)> = std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(threads);
        for _ in 0..threads {
            let next = &next_trial;
            let stop = &stop;
            handles.push(scope.spawn(move || {
                let recording = Recording::start();
                let haul = claim_trials(trials, run, next, stop);
                (recording.finish(), haul)
            }));
        }
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(worker) => worker,
                // Workers catch trial panics themselves; a panic escaping a
                // worker means the engine's own bookkeeping is broken.
                // cadapt-lint: allow(panic-reach) -- engine-internal invariant: worker bodies cannot unwind past catch_unwind
                Err(payload) => panic!(
                    "engine worker panicked: {}",
                    panic_message(payload.as_ref())
                ),
            })
            .collect()
    });
    let mut counters = CounterSnapshot::ZERO;
    let mut done: Vec<(u64, T)> = Vec::new();
    let mut first_failure: Option<SweepError<E>> = None;
    for (worker_counters, (values, failure)) in workers {
        counters = counters.plus(worker_counters);
        done.extend(values);
        first_failure = first_failure
            .into_iter()
            .chain(failure)
            .min_by_key(SweepError::trial);
    }
    cadapt_core::counters::count_snapshot(&counters);
    done.sort_unstable_by_key(|&(trial, _)| trial);
    (done, first_failure)
}

/// Run `trials` independent jobs over `threads` workers (0 = available
/// parallelism) and return their results **in trial order**.
///
/// ```
/// use cadapt_analysis::parallel::run_trials;
///
/// let squares = run_trials(8, 2, |trial| trial * trial);
/// assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
/// ```
///
/// # Panics
///
/// A panicking job is caught at the engine boundary (the pool survives)
/// and re-raised here with its trial index — infallible jobs that panic
/// are programming errors. Use [`try_run_trials`] to get the panic back
/// as a typed [`SweepError::Panic`] instead.
pub fn run_trials<T, F>(trials: u64, threads: usize, run: F) -> Vec<T>
where
    T: Send,
    F: Fn(u64) -> T + Sync,
{
    match try_run_trials(trials, threads, |trial| Ok::<T, Infallible>(run(trial))) {
        Ok(results) => results,
        Err(SweepError::Job { error, .. }) => match error {},
        // cadapt-lint: allow(panic-reach) -- re-raising an isolated panic with its trial index is this entry point's documented contract
        Err(SweepError::Panic(p)) => panic!("{p}"),
    }
}

/// [`run_trials`] over `usize` indices — the shape `cadapt-bench` uses to
/// shard registry entries.
///
/// # Panics
///
/// As [`run_trials`]: re-raises a job panic with its index.
pub fn run_indexed<T, F>(jobs: usize, threads: usize, run: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    run_trials(cast::u64_from_usize(jobs), threads, |i| {
        run(cast::usize_from_u64(i))
    })
}

/// Fallible [`run_trials`]: the first failure — "first" meaning the
/// **smallest trial index** among the failures, not whichever worker lost
/// the race — aborts the sweep and is returned. A caught panic is a
/// failure like any other, surfaced as [`SweepError::Panic`] instead of
/// poisoning the pool.
///
/// Workers stop claiming new trials once any failure is observed (the
/// already-claimed trials still finish, so every index below a failure
/// runs and the smallest failing one is found). A one-worker sweep runs
/// on the calling thread: it spawns nothing, and its trials count straight
/// into the caller's open [`Recording`]. Otherwise the workers' counter
/// totals are folded into that recording, on the error path too, so
/// partial sweeps stay observable.
///
/// # Errors
///
/// Returns the failing job's [`SweepError`] with the smallest trial index.
pub fn try_run_trials<T, E, F>(trials: u64, threads: usize, run: F) -> Result<Vec<T>, SweepError<E>>
where
    T: Send,
    E: Send,
    F: Fn(u64) -> Result<T, E> + Sync,
{
    let threads = resolve_threads(threads)
        .min(cast::usize_from_u64(trials.max(1)))
        .max(1);
    let (done, failure) = if threads == 1 {
        // One worker claims the trials in index order, so its haul is
        // already sorted and it stops at the smallest failing index. No
        // worker total is folded: that would count every trial a second
        // time.
        let (next_trial, stop) = (AtomicU64::new(0), AtomicBool::new(false));
        claim_trials(trials, &run, &next_trial, &stop)
    } else {
        spawn_workers(trials, threads, &run)
    };
    if let Some(failure) = failure {
        return Err(failure);
    }
    Ok(done.into_iter().map(|(_, value)| value).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cadapt_core::counters::{count_boxes, Recording};

    #[test]
    fn results_come_back_in_trial_order_at_any_thread_count() {
        for threads in [1, 2, 4, 0] {
            let got = run_trials(32, threads, |t| 1000 + t);
            let want: Vec<u64> = (0..32).map(|t| 1000 + t).collect();
            assert_eq!(got, want, "threads = {threads}");
        }
    }

    #[test]
    fn zero_trials_is_empty() {
        assert_eq!(run_trials(0, 4, |t| t), Vec::<u64>::new());
    }

    #[test]
    fn worker_counters_fold_into_the_caller_recording() {
        // One worker runs inline and counts straight into the caller's
        // recording; every trial must still count exactly once.
        for threads in [1, 2, 4] {
            let rec = Recording::start();
            let _ = run_trials(10, threads, |_| count_boxes(3));
            let delta = rec.finish();
            assert_eq!(delta.boxes_advanced, 30, "threads = {threads}");
        }
    }

    #[test]
    fn error_with_smallest_trial_index_wins() {
        for threads in [1, 3, 8] {
            let ran = AtomicU64::new(0);
            let err = try_run_trials(64, threads, |t| {
                ran.fetch_add(1, Ordering::Relaxed);
                if t % 10 == 7 {
                    Err(t)
                } else {
                    Ok(t)
                }
            })
            .unwrap_err();
            assert_eq!(
                err,
                SweepError::Job { trial: 7, error: 7 },
                "threads = {threads}"
            );
            if threads == 1 {
                // The one worker claims in order and stops at the failure.
                assert_eq!(ran.load(Ordering::Relaxed), 8);
            }
        }
    }

    #[test]
    fn counters_fold_even_when_a_trial_fails() {
        let rec = Recording::start();
        let _ = try_run_trials(8, 2, |t| {
            count_boxes(1);
            if t == 3 {
                Err(())
            } else {
                Ok(())
            }
        });
        assert!(rec.finish().boxes_advanced >= 1);
    }

    #[test]
    fn resolve_threads_zero_means_available() {
        assert!(resolve_threads(0) >= 1);
        assert_eq!(resolve_threads(3), 3);
    }

    #[test]
    fn run_indexed_orders_like_run_trials() {
        assert_eq!(run_indexed(5, 2, |i| i * 2), vec![0, 2, 4, 6, 8]);
    }

    #[test]
    fn a_panicking_trial_surfaces_as_a_typed_sweep_error() {
        for threads in [1, 2, 4] {
            let err = try_run_trials(16, threads, |t| {
                if t == 5 {
                    panic!("injected: trial five is cursed");
                }
                Ok::<u64, ()>(t)
            })
            .unwrap_err();
            match err {
                SweepError::Panic(p) => {
                    assert_eq!(p.trial, 5, "threads = {threads}");
                    assert!(p.message.contains("cursed"), "message: {}", p.message);
                }
                other => panic!("expected a panic error, got {other:?}"),
            }
        }
    }

    #[test]
    fn counters_fold_even_when_a_trial_panics() {
        for threads in [1, 2] {
            let rec = Recording::start();
            let err = try_run_trials(8, threads, |t| {
                count_boxes(2);
                assert!(t != 4, "injected");
                Ok::<u64, ()>(t)
            })
            .unwrap_err();
            assert!(matches!(err, SweepError::Panic(ref p) if p.trial == 4));
            let counted = rec.finish().boxes_advanced;
            if threads == 1 {
                // Trials 0..=4 ran in order, each counting before its
                // panic point; the sweep stopped there.
                assert_eq!(counted, 10);
            } else {
                // Every index up to the panic ran; claimed trials past it
                // may have finished too, and each counts exactly once.
                assert!((10..=16).contains(&counted), "counted {counted}");
                assert_eq!(counted % 2, 0, "counted {counted}");
            }
        }
    }

    #[test]
    fn one_worker_sweeps_run_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let on_caller = |_| std::thread::current().id() == caller;
        assert!(run_trials(6, 1, on_caller).into_iter().all(|same| same));
        assert!(run_indexed(3, 1, |_| on_caller(0))
            .into_iter()
            .all(|same| same));
        // A single trial resolves to one worker at any thread count.
        assert_eq!(run_trials(1, 4, on_caller), vec![true]);
    }

    #[test]
    fn sweep_error_and_trial_panic_render() {
        let p = TrialPanic {
            trial: 3,
            message: "boom".into(),
        };
        assert_eq!(p.to_string(), "trial 3 panicked: boom");
        let e: SweepError<&str> = SweepError::Job {
            trial: 1,
            error: "bad",
        };
        assert_eq!(e.to_string(), "trial 1 failed: bad");
        assert_eq!(
            SweepError::<&str>::Panic(p).to_string(),
            "trial 3 panicked: boom"
        );
    }
}
