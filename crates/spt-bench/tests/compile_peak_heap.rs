//! A memory bound on a cold compile: the most heap that compiling `mcf_s`
//! under the `best` configuration, from source and with no artifact store,
//! holds live at once. Its dependence-profiling run sets that peak: the
//! profiler's shadow memory holds one record per cell of the program's
//! 1.5 MiB memory image.
//!
//! This binary holds a tracking global allocator and a single test. The
//! allocator counts every thread, since the pipeline's loop analyses may
//! fan out; the compile is the only work in flight while the test
//! measures. Run with `--nocapture` to see the figure.

use spt_core::pipeline::{compile_and_transform, ProfilingInput};
use spt_core::CompilerConfig;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The most heap the compile may hold live at once.
const MAX_PEAK_BYTES: usize = 7 << 20;

struct Tracking;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
}

// SAFETY: every method forwards to `System` unchanged; the tracker only
// adjusts two atomics by the sizes the caller passed.
unsafe impl GlobalAlloc for Tracking {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            grow(new_size);
            shrink(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        shrink(layout.size());
    }
}

#[global_allocator]
static GLOBAL: Tracking = Tracking;

#[test]
fn a_cold_compile_of_mcf_stays_within_its_peak_heap() {
    let b = spt_bench_suite::suite()
        .into_iter()
        .find(|b| b.name == "mcf_s")
        .expect("mcf_s is in the suite");
    let input = ProfilingInput::new(b.entry, [b.train_arg]);
    let config = CompilerConfig::best();
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let compiled = compile_and_transform(b.source, &input, &config).expect("mcf_s compiles");
    let peak = PEAK.load(Ordering::Relaxed) - before;
    drop(compiled);
    eprintln!(
        "mcf_s cold best compile: peak live heap {:.2} MiB",
        peak as f64 / f64::from(1 << 20)
    );
    assert!(
        peak <= MAX_PEAK_BYTES,
        "compiling mcf_s held {peak} bytes live at once, over the bound of {MAX_PEAK_BYTES}"
    );
}
