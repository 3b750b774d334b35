//! Sized scoped worker pool: the workspace's one host fan-out path.
//!
//! The paper's experimental regime (Table I) varies the core count
//! explicitly, so configs carry `threads: usize` and every fan-out site —
//! the sorters, k-means and the tiled GEMM alike — routes through this
//! module: a per-region [`std::thread::scope`] pool of exactly
//! `min(threads, tasks)` workers claiming tasks through an atomic cursor.
//! At `threads <= 1` the tasks run inline, so call sites never branch on
//! the thread count themselves.
//!
//! Dynamic claiming (rather than static partitioning) keeps skewed task
//! sets — oversized NMsort buckets, unbalanced oblivious recursions — from
//! idling workers behind one long chunk.
//!
//! The pool performs **no simulated charging**: charges are attributed to
//! virtual lanes by the callers exactly as in sequential execution, which
//! is what keeps `CostSnapshot` ledgers byte-identical across thread
//! counts (asserted by every engine's `*_charge_identically` test and by
//! `parallel_bench` in-binary).

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Host threads available to a default config: `available_parallelism()`,
/// or 1 when the runtime cannot tell.
pub fn host_threads() -> usize {
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// Run `f(i, item)` for every item of `items`, fanning out over at most
/// `threads` scoped host threads. `threads <= 1` (or fewer than two items)
/// runs inline on the caller — bit-for-bit the sequential execution, with
/// no allocation.
///
/// Panics in a worker propagate to the caller when the scope joins.
pub fn run_indexed<I, F>(threads: usize, items: I, f: F)
where
    I: IntoIterator,
    I::IntoIter: ExactSizeIterator,
    I::Item: Send,
    F: Fn(usize, I::Item) + Sync,
{
    map_indexed(threads, items, f);
}

/// Like [`run_indexed`] but collects each task's result in input order.
pub fn map_indexed<I, R, F>(threads: usize, items: I, f: F) -> Vec<R>
where
    I: IntoIterator,
    I::IntoIter: ExactSizeIterator,
    I::Item: Send,
    R: Send,
    F: Fn(usize, I::Item) -> R + Sync,
{
    let items = items.into_iter();
    let n = items.len();
    let workers = threads.max(1).min(n);
    if workers <= 1 {
        return items.enumerate().map(|(i, t)| f(i, t)).collect();
    }
    // Task slots: each worker claims the next index from the cursor and
    // takes ownership of that slot's item. The mutexes are uncontended by
    // construction (one claimant per index) — they exist to move each item
    // out of the shared vector safely.
    let slots: Vec<Mutex<Option<I::Item>>> = items.map(|t| Mutex::new(Some(t))).collect();
    let out: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let item = slots[i]
                    .lock()
                    .expect("pool slot poisoned")
                    .take()
                    .expect("pool task claimed twice");
                *out[i].lock().expect("pool result slot poisoned") = Some(f(i, item));
            });
        }
    });
    out.into_iter()
        .map(|m| {
            m.into_inner()
                .expect("pool result slot poisoned")
                .expect("pool task not executed")
        })
        .collect()
}

/// Validate a `threads` knob at an API edge: zero is a configuration error
/// (mirrors `lanes == 0` handling), not a silent clamp.
pub(crate) fn validate_threads(threads: usize) -> Result<(), crate::SortError> {
    if threads == 0 {
        return Err(crate::SortError::BadConfig {
            reason: "threads must be at least 1",
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn map_preserves_input_order() {
        for threads in [1usize, 2, 3, 8] {
            let items: Vec<usize> = (0..257).collect();
            let out = map_indexed(threads, items, |i, x| {
                assert_eq!(i, x);
                x * 3
            });
            assert_eq!(out, (0..257).map(|x| x * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn every_task_runs_exactly_once() {
        let count = AtomicU64::new(0);
        run_indexed(4, (0..1000).collect::<Vec<u32>>(), |_, _| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 1000);
    }

    #[test]
    fn sequential_when_single_thread() {
        let ids = Mutex::new(HashSet::new());
        run_indexed(1, (0..64).collect::<Vec<u32>>(), |_, _| {
            ids.lock().unwrap().insert(std::thread::current().id());
        });
        let ids = ids.into_inner().unwrap();
        assert_eq!(ids.len(), 1);
        assert!(ids.contains(&std::thread::current().id()));
    }

    #[test]
    fn fans_out_when_host_has_cores() {
        let ids = Mutex::new(HashSet::new());
        // Each task sleeps, releasing the CPU so another worker can claim
        // the next slot — on a single-core host instant tasks could all be
        // drained by whichever worker starts first.
        run_indexed(4, (0..64).collect::<Vec<u32>>(), |_, _| {
            ids.lock().unwrap().insert(std::thread::current().id());
            std::thread::sleep(std::time::Duration::from_millis(1));
        });
        let ids = ids.into_inner().unwrap();
        assert!(
            ids.len() > 1,
            "expected multiple workers, saw {}",
            ids.len()
        );
        assert!(ids.len() <= 4);
    }

    #[test]
    fn mutable_borrows_fan_out() {
        let mut data = vec![0u64; 1024];
        let chunks: Vec<&mut [u64]> = data.chunks_mut(100).collect();
        run_indexed(3, chunks, |i, c| {
            for x in c.iter_mut() {
                *x = i as u64;
            }
        });
        for (i, x) in data.iter().enumerate() {
            assert_eq!(*x, (i / 100) as u64);
        }
    }

    #[test]
    fn zero_threads_rejected() {
        assert!(matches!(
            validate_threads(0),
            Err(crate::SortError::BadConfig { .. })
        ));
        assert!(validate_threads(1).is_ok());
    }
}
