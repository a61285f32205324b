//! A deterministic work counter for the frontend: the heap allocations it
//! makes to compile the ten suite programs.
//!
//! This binary holds a counting global allocator and a single test, and it
//! counts only on the test's own thread, so the count repeats exactly from
//! run to run. Run with `--nocapture` to see the per-phase split.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

/// The most allocations compiling the suite may take.
const MAX_SUITE_ALLOCS: u64 = 4_769;

struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn note() {
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` unchanged; the counter only
// reads a thread-local flag and bumps an atomic.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The allocations `f` makes on this thread.
fn count<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.load(Ordering::Relaxed);
    COUNTING.with(|c| c.set(true));
    let out = f();
    COUNTING.with(|c| c.set(false));
    (out, ALLOCS.load(Ordering::Relaxed) - before)
}

#[test]
fn compiling_the_suite_stays_within_its_allocation_budget() {
    let suite = spt_bench_suite::suite();
    let mut total = 0;
    let mut phases = [0u64; 4];
    for b in &suite {
        let (module, n) = count(|| spt_frontend::compile(b.source));
        let module = module.expect("suite program compiles");
        total += n;

        // The same work phase by phase, as `spt_frontend::compile` runs it.
        let (raw, lower) = count(|| spt_frontend::compile_raw(b.source));
        let mut raw = raw.expect("suite program lowers");
        let ((), ssa) = count(|| {
            for func in &mut raw.funcs {
                spt_ir::ssa::mem2reg(func);
            }
        });
        let ((), clean) = count(|| {
            for func in &mut raw.funcs {
                spt_ir::passes::cleanup(func);
                spt_ir::passes::loop_simplify(func);
                spt_ir::passes::cleanup(func);
                spt_ir::passes::loop_simplify(func);
            }
        });
        let (verified, verify) = count(|| spt_ir::verify::verify_module(&raw));
        verified.expect("suite program verifies");
        assert_eq!(raw, module, "{}: the phases rebuild the module", b.name);
        assert_eq!(lower + ssa + clean + verify, n, "{}: phases add up", b.name);
        eprintln!(
            "{:<10} total {n:>5}  lex+parse+lower {lower:>5}  mem2reg {ssa:>5}  \
             cleanup+loop_simplify {clean:>5}  verify {verify:>5}",
            b.name
        );
        for (sum, k) in phases.iter_mut().zip([lower, ssa, clean, verify]) {
            *sum += k;
        }
    }
    eprintln!(
        "suite      total {total:>5}  lex+parse+lower {:>5}  mem2reg {:>5}  \
         cleanup+loop_simplify {:>5}  verify {:>5}",
        phases[0], phases[1], phases[2], phases[3]
    );
    assert!(
        total <= MAX_SUITE_ALLOCS,
        "compiling the suite took {total} allocations, over the budget of {MAX_SUITE_ALLOCS}"
    );
}
