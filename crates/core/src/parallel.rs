//! The fan-out primitive for per-unit pipeline stages.
//!
//! The audit pipeline is embarrassingly parallel *between* units: each
//! translation unit lexes, parses, graphs and checks independently, and
//! only the cross-unit merges need everything at once. This module fans
//! a per-unit stage across worker threads while keeping the result
//! order — and therefore the final report — byte-identical to a
//! sequential run.
//!
//! Design:
//!
//! - **Scoped threads, no pool.** Workers are spawned with
//!   [`std::thread::scope`] per stage, so the work closure may borrow
//!   the units, the knowledge base and the limits without `Arc`-wrapping
//!   any of them. Stages are long (whole files), so per-stage spawn cost
//!   is noise.
//! - **One shared cursor.** Workers claim the next unclaimed index from
//!   a shared atomic counter. A worker stuck on one big file simply
//!   claims nothing more while the others drain the rest, so the load
//!   balances without per-worker queues.
//! - **Deterministic merge.** Workers tag each result with its input
//!   index; the combined output is sorted by index once. Scheduling
//!   order can vary freely between runs and job counts — result order
//!   cannot.
//!
//! Fault isolation composes with this scheduler rather than living in
//! it: the audit wraps each unit's work in its own `catch_unwind`
//! boundary *inside* the work closure, so a panicking unit degrades
//! itself without taking down its worker thread.

use std::sync::atomic::{AtomicUsize, Ordering};

use refminer_trace::TraceHandle;

/// Resolves a `--jobs` request to a concrete worker count.
///
/// `0` means "auto": one worker per available hardware thread. Any
/// other value is clamped to the available parallelism — more workers
/// than cores is pure oversubscription for this CPU-bound pipeline
/// (the stages do no blocking I/O), and on small hosts the extra
/// context switching measurably *slows* the audit. The report is
/// byte-identical at any worker count, so the clamp is invisible
/// except in wall time.
pub fn effective_jobs(requested: usize) -> usize {
    let available = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    if requested == 0 {
        available
    } else {
        requested.min(available)
    }
}

/// Runs `work` over every element of `items` on `workers` threads,
/// returning the results in input order.
///
/// `workers` is taken literally, clamped only to the item count;
/// resolve a `--jobs` request through [`effective_jobs`] first. With
/// one worker (or zero/one items) the work runs inline on the calling
/// thread, which keeps `--jobs 1` an exact replica of a sequential
/// pipeline. With more, the worker count lands in a `{stage}.workers`
/// trace counter (when `stage` is non-empty); the trace only observes.
///
/// The work closure receives `(index, &item)` so it can key caches or
/// diagnostics off the original position.
///
/// # Examples
///
/// ```
/// use refminer::parallel::run_indexed;
/// use refminer::TraceHandle;
///
/// let items = vec![3u32, 1, 4, 1, 5];
/// let doubled = run_indexed(&items, 4, &TraceHandle::disabled(), "", |_, x| x * 2);
/// assert_eq!(doubled, vec![6, 2, 8, 2, 10]);
/// ```
pub fn run_indexed<T, R, F>(
    items: &[T],
    workers: usize,
    trace: &TraceHandle,
    stage: &str,
    work: F,
) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let workers = workers.min(items.len());
    if workers <= 1 {
        return items.iter().enumerate().map(|(i, t)| work(i, t)).collect();
    }
    if trace.is_enabled() && !stage.is_empty() {
        trace.add(&format!("{stage}.workers"), workers as u64);
    }

    let cursor = AtomicUsize::new(0);
    let mut tagged: Vec<(usize, R)> = Vec::with_capacity(items.len());
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| {
                    let mut out: Vec<(usize, R)> = Vec::new();
                    loop {
                        // Relaxed: the cursor publishes no other data;
                        // results travel back through `join`.
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else {
                            return out;
                        };
                        out.push((i, work(i, item)));
                    }
                })
            })
            .collect();
        for h in handles {
            // A panic here means one escaped the per-unit fault
            // boundary inside `work`; propagate it rather than lose it.
            tagged.extend(h.join().expect("audit worker panicked"));
        }
    });

    tagged.sort_unstable_by_key(|(i, _)| *i);
    tagged.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run<T: Sync, R: Send>(
        items: &[T],
        workers: usize,
        work: impl Fn(usize, &T) -> R + Sync,
    ) -> Vec<R> {
        run_indexed(items, workers, &TraceHandle::disabled(), "", work)
    }

    #[test]
    fn auto_jobs_is_positive() {
        assert!(effective_jobs(0) >= 1);
    }

    #[test]
    fn requested_jobs_clamp_to_available_parallelism() {
        let available = effective_jobs(0);
        // Never oversubscribe: a request beyond the core count resolves
        // to the core count; a request within it is honored.
        assert_eq!(effective_jobs(available + 7), available);
        assert_eq!(effective_jobs(1), 1);
        assert_eq!(effective_jobs(available), available);
    }

    #[test]
    fn empty_and_single_inputs() {
        let none: Vec<u32> = Vec::new();
        assert!(run(&none, 8, |_, x| *x).is_empty());
        assert_eq!(run(&[9u32], 8, |_, x| *x + 1), vec![10]);
    }

    #[test]
    fn order_matches_sequential_at_any_worker_count() {
        // Worker counts are literal, so these are real threads even on
        // a single-core host.
        let items: Vec<usize> = (0..101).collect();
        let sequential = run(&items, 1, |i, x| i * 1000 + x);
        for workers in [2, 3, 8, 64] {
            let parallel = run(&items, workers, |i, x| i * 1000 + x);
            assert_eq!(parallel, sequential, "workers={workers}");
        }
    }

    #[test]
    fn every_item_runs_exactly_once() {
        let n = 257;
        let counters: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        let items: Vec<usize> = (0..n).collect();
        run(&items, 8, |i, _| {
            counters[i].fetch_add(1, Ordering::SeqCst);
        });
        for (i, c) in counters.iter().enumerate() {
            assert_eq!(c.load(Ordering::SeqCst), 1, "item {i}");
        }
    }

    #[test]
    fn one_heavy_item_does_not_hold_up_the_rest() {
        // Item 0 blocks its worker until every other item has run; with
        // a shared cursor the other worker drains them all meanwhile.
        let items: Vec<usize> = (0..32).collect();
        let done = AtomicUsize::new(0);
        let out = run(&items, 2, |i, &x| {
            if i == 0 {
                while done.load(Ordering::SeqCst) < items.len() - 1 {
                    std::thread::yield_now();
                }
            } else {
                done.fetch_add(1, Ordering::SeqCst);
            }
            x * 2
        });
        assert_eq!(out, run(&items, 1, |_, &x| x * 2));
    }

    #[test]
    fn worker_count_is_traced_without_changing_results() {
        let items: Vec<u64> = (0..32).collect();
        let trace = TraceHandle::recording();
        let out = run_indexed(&items, 4, &trace, "stage", |i, &x| i as u64 + x);
        assert_eq!(out, run(&items, 1, |i, &x| i as u64 + x));
        let log = trace.finish().unwrap();
        assert_eq!(log.counters.get("stage.workers"), Some(&4));
    }
}
