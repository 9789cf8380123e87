//! A deterministic parallel work pool for independent, seed-keyed jobs.
//!
//! Experiment trials are embarrassingly parallel: each one is a pure
//! function of its `(seed, options)` input, owns every piece of mutable
//! state it touches, and never communicates with its siblings. The pool
//! fans such jobs across `std::thread::scope` workers and hands the
//! results back **in submission order**, so any aggregate a caller folds
//! over them — counters, running means, serialized JSON — is
//! byte-identical to what the sequential loop produced, at any job
//! count.
//!
//! Determinism argument: workers race only over *which* index they pull
//! next (a single atomic counter); the job body sees nothing but its own
//! index, and every result lands in the slot named by that index. The
//! fold order over slots is `0..n` regardless of completion order, so
//! scheduling nondeterminism cannot leak into any output.
//!
//! `jobs <= 1` (after resolving `0` to the host's parallelism) takes the
//! plain sequential path — no threads are spawned at all — which is the
//! `--jobs 1` legacy escape hatch the experiment binaries expose.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// The host's available parallelism (`--jobs 0`/default resolves to
/// this). Falls back to 1 when the platform cannot report it.
pub fn available_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Resolves a requested job count: `0` means "all cores".
pub fn resolve_jobs(requested: usize) -> usize {
    if requested == 0 {
        available_jobs()
    } else {
        requested
    }
}

/// Runs `f(0), f(1), …, f(n-1)` across up to `jobs` worker threads and
/// returns the results indexed by input — element `i` of the returned
/// vector is exactly `f(i)`, as if the jobs had run sequentially.
///
/// `jobs == 0` uses all cores; `jobs == 1` (or `n <= 1`) runs inline on
/// the calling thread without spawning. Panics in a job propagate to the
/// caller when its worker thread joins.
pub fn run_indexed<R, F>(jobs: usize, n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let jobs = resolve_jobs(jobs).min(n.max(1));
    if jobs <= 1 {
        return (0..n).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let r = f(i);
                *slots[i].lock().expect("result slot poisoned") = Some(r);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("worker filled every slot")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_submission_order() {
        for jobs in [1, 2, 4, 7] {
            let out = run_indexed(jobs, 100, |i| i * i);
            assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn parallel_matches_sequential_for_seeded_work() {
        // A job body shaped like a trial: pure function of the index.
        let work = |i: usize| {
            let mut acc = i as u64;
            for _ in 0..1_000 {
                acc = acc.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            }
            acc
        };
        let sequential = run_indexed(1, 64, work);
        for jobs in [2, 3, 8] {
            assert_eq!(run_indexed(jobs, 64, work), sequential);
        }
    }

    #[test]
    fn zero_jobs_resolves_to_all_cores() {
        assert_eq!(resolve_jobs(0), available_jobs());
        assert_eq!(resolve_jobs(3), 3);
        // Still produces correct ordered output.
        let out = run_indexed(0, 10, |i| i + 1);
        assert_eq!(out, (1..=10).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_single_inputs() {
        let empty: Vec<usize> = run_indexed(4, 0, |i| i);
        assert!(empty.is_empty());
        assert_eq!(run_indexed(4, 1, |i| i), vec![0]);
    }

    #[test]
    fn more_jobs_than_items_is_fine() {
        let out = run_indexed(64, 3, |i| i * 10);
        assert_eq!(out, vec![0, 10, 20]);
    }

    #[test]
    fn zero_trials_never_calls_the_job_body() {
        // trials == 0 must return immediately without invoking f, at
        // any job count (including "all cores").
        for jobs in [0, 1, 4, 64] {
            let empty: Vec<u64> = run_indexed(jobs, 0, |_| panic!("job body must not run"));
            assert!(empty.is_empty(), "jobs={jobs}");
        }
    }

    #[test]
    fn jobs_exceeding_trials_still_runs_each_exactly_once() {
        // With far more workers than items, every index must run exactly
        // once and land in its own slot — excess workers exit idle.
        use std::sync::atomic::{AtomicUsize, Ordering};
        let calls = AtomicUsize::new(0);
        let out = run_indexed(64, 5, |i| {
            calls.fetch_add(1, Ordering::Relaxed);
            i * 7
        });
        assert_eq!(out, vec![0, 7, 14, 21, 28]);
        assert_eq!(calls.load(Ordering::Relaxed), 5);
    }
}
