//! Deterministic fan-out helpers for the pipeline's independent work items.
//!
//! Pass-1 loop analyses and the bench harness's per-benchmark runs are
//! mutually independent, so they fan out over [`std::thread::scope`] workers
//! — the calling thread among them — pulling from a shared atomic cursor.
//! Results are merged back **by item index**, so output order — and
//! therefore every report derived from it — is identical to a sequential
//! run regardless of scheduling.
//!
//! The worker count comes from [`thread_count`]: a process-wide programmatic
//! override ([`set_thread_count_override`]) when one is installed, else the
//! `SPT_THREADS` environment variable (a positive integer; `1` forces the
//! sequential path), else [`std::thread::available_parallelism`]. The
//! environment and the machine are each consulted **once** per process and
//! cached — `thread_count` sits on the hot path of every fan-out (an
//! `available_parallelism` query costs tens of microseconds), and runtime
//! environment mutation is unsound in multithreaded programs anyway;
//! harnesses that switch thread counts mid-process (the determinism and
//! timing tests) use the override. No thread pool is kept alive
//! between calls — workloads here are coarse enough (whole-loop analysis,
//! whole-benchmark pipelines) that spawn cost is noise, but at one worker
//! `parallel_map` runs inline with no spawn, no cursor, and no environment
//! read at all.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// `0` = no override installed; any other value is the forced worker count.
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Installs (or with `None` removes) a process-wide worker-count override
/// that takes precedence over `SPT_THREADS`. `Some(0)` is treated as
/// `Some(1)`: the sequential path.
pub fn set_thread_count_override(n: Option<usize>) {
    THREAD_OVERRIDE.store(n.map_or(0, |n| n.max(1)), Ordering::Relaxed);
}

/// The `SPT_THREADS` setting at first use, cached for the process lifetime.
fn env_thread_count() -> Option<usize> {
    static ENV: OnceLock<Option<usize>> = OnceLock::new();
    *ENV.get_or_init(|| {
        std::env::var("SPT_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n >= 1)
    })
}

/// The machine's available parallelism at first use (1 if unknown), cached
/// for the process lifetime.
fn machine_thread_count() -> usize {
    static MACHINE: OnceLock<usize> = OnceLock::new();
    *MACHINE.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// Worker threads to use: the [`set_thread_count_override`] value if one is
/// installed, else `SPT_THREADS` if set to a positive integer, otherwise the
/// machine's available parallelism (1 if unknown); the last two are read
/// once per process.
pub fn thread_count() -> usize {
    match THREAD_OVERRIDE.load(Ordering::Relaxed) {
        0 => {}
        n => return n,
    }
    env_thread_count().unwrap_or_else(machine_thread_count)
}

/// Applies `f` to every item, in parallel, returning results in item order.
///
/// Scheduling is dynamic (workers race on an atomic cursor) but the merge is
/// by index, so the output is bit-identical to `items.iter().map(f)`. The
/// calling thread is one of the workers, so `n` workers spawn `n - 1`
/// threads; with one worker (or one item) no thread is spawned at all.
///
/// # Panics
///
/// Re-raises the panic of any worker on the calling thread.
pub fn parallel_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let threads = thread_count().min(items.len());
    if threads <= 1 {
        return items.iter().map(f).collect();
    }
    let cursor = AtomicUsize::new(0);
    let work = || {
        let mut local: Vec<(usize, R)> = Vec::new();
        loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            if i >= items.len() {
                return local;
            }
            local.push((i, f(&items[i])));
        }
    };
    let mut slots: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
    std::thread::scope(|s| {
        let handles: Vec<_> = (1..threads).map(|_| s.spawn(work)).collect();
        let mut place = |local: Vec<(usize, R)>| {
            for (i, r) in local {
                slots[i] = Some(r);
            }
        };
        place(work());
        for h in handles {
            match h.join() {
                Ok(local) => place(local),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    slots
        .into_iter()
        .map(|r| match r {
            Some(r) => r,
            // The cursor hands out every index in [0, len) exactly once and
            // each worker's local results are merged above, so an empty slot
            // is unreachable by construction.
            None => unreachable!("every index visited exactly once"),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_item_order() {
        let items: Vec<usize> = (0..257).collect();
        let out = parallel_map(&items, |&x| x * 3);
        assert_eq!(out, items.iter().map(|&x| x * 3).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_single() {
        let none: Vec<u32> = Vec::new();
        assert!(parallel_map(&none, |&x| x).is_empty());
        assert_eq!(parallel_map(&[7u32], |&x| x + 1), vec![8]);
    }

    #[test]
    fn thread_count_is_positive() {
        assert!(thread_count() >= 1);
    }

    #[test]
    fn override_takes_precedence_and_clears() {
        // The override is process-global; the other tests in this module
        // remain correct under any positive value, so brief overlap is fine.
        set_thread_count_override(Some(3));
        assert_eq!(thread_count(), 3);
        set_thread_count_override(Some(0)); // clamps to the sequential path
        assert_eq!(thread_count(), 1);
        set_thread_count_override(None);
        assert!(thread_count() >= 1);
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn worker_panics_propagate() {
        let items: Vec<usize> = (0..64).collect();
        if thread_count() == 1 {
            // Sequential fallback hits the panic inline; same observable.
            panic!("boom (sequential fallback)");
        }
        parallel_map(&items, |&x| {
            if x == 33 {
                panic!("boom");
            }
            x
        });
    }
}
