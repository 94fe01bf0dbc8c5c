//! Parallel parameter sweeps.
//!
//! Every figure in the evaluation is a sweep (distance, power, preamble
//! length, bitrate, tag count, delay, …) of independent simulation runs.
//! [`parallel_sweep`] fans the points out over scoped worker threads
//! (crossbeam) and returns results in input order.
//!
//! Work distribution is an atomic work-stealing counter and result
//! storage is lock-free: each worker accumulates `(index, result)` pairs
//! in a thread-local vector that is handed back when the worker's thread
//! is joined, then the pairs are scattered into the output in one pass.
//! No mutex is taken per result, so cheap per-point closures don't
//! serialize on the collection.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Maps `f` over `params` in parallel, preserving order.
///
/// `f` must be deterministic per parameter (seed your RNGs from the
/// parameter) so the sweep is reproducible regardless of scheduling.
pub fn parallel_sweep<P, R, F>(params: &[P], f: F) -> Vec<R>
where
    P: Sync,
    R: Send,
    F: Fn(&P) -> R + Sync,
{
    let n = params.len();
    if n == 0 {
        return Vec::new();
    }
    let workers = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(4)
        .min(n);
    if workers <= 1 {
        return params.iter().map(&f).collect();
    }

    let next = AtomicUsize::new(0);

    let per_worker: Vec<Vec<(usize, R)>> = crossbeam::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|_| {
                    // Local accumulation only — no shared lock on the
                    // result path.
                    let mut local: Vec<(usize, R)> = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        local.push((i, f(&params[i])));
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("sweep worker panicked"))
            .collect()
    })
    .expect("sweep scope failed");

    let mut results: Vec<Option<R>> = (0..n).map(|_| None).collect();
    for (i, r) in per_worker.into_iter().flatten() {
        debug_assert!(results[i].is_none(), "index {i} computed twice");
        results[i] = Some(r);
    }
    results
        .into_iter()
        .map(|r| r.expect("every index was computed"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_preserve_order() {
        let params: Vec<u64> = (0..64).collect();
        let out = parallel_sweep(&params, |&p| p * p);
        assert_eq!(out, params.iter().map(|p| p * p).collect::<Vec<_>>());
    }

    #[test]
    fn empty_sweep() {
        let out: Vec<u32> = parallel_sweep(&Vec::<u32>::new(), |_| unreachable!());
        assert!(out.is_empty());
    }

    #[test]
    fn single_param() {
        assert_eq!(parallel_sweep(&[5u32], |&p| p + 1), vec![6]);
    }

    #[test]
    fn heavier_work_still_ordered() {
        let params: Vec<usize> = (0..32).collect();
        let out = parallel_sweep(&params, |&p| {
            // Unequal work per item to shuffle completion order.
            let mut acc = 0u64;
            for i in 0..(p * 1000) {
                acc = acc.wrapping_add(i as u64);
            }
            (p, acc)
        });
        for (i, (p, _)) in out.iter().enumerate() {
            assert_eq!(i, *p);
        }
    }
}
