//! Proof that `run_simulation`'s step loop does not allocate: the heap
//! traffic of one run grows by at most a small constant per DFS window
//! (the observation, the policy's frequency vector, amortized queue and
//! sample growth), not with the 250 thermal steps inside each window.
//!
//! The counting allocator counts only the thread inside [`allocs_during`],
//! so other tests in this binary cannot pollute the counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use protemp_sim::{run_simulation, CoolestFirst, NoTc, Platform, SimConfig};
use protemp_workload::{BenchmarkProfile, TraceGenerator};

struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Set on the thread inside [`allocs_during`]; const-initialized, so
    /// reading it from the allocator never allocates.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn count_alloc() {
    if COUNTING.with(Cell::get) {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Heap allocations this thread makes while running `f`.
fn allocs_during<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOC_CALLS.load(Ordering::Relaxed);
    COUNTING.with(|c| c.set(true));
    let out = f();
    COUNTING.with(|c| c.set(false));
    (out, ALLOC_CALLS.load(Ordering::Relaxed) - before)
}

/// Allocations per DFS window one run adds beyond its set-up: the
/// difference between a long and a short run over the same saturating
/// trace, divided by the windows it adds.
fn allocs_per_window(platform: &Platform) -> f64 {
    let trace = TraceGenerator::new(11).generate(
        &BenchmarkProfile::compute_intensive(),
        10.0,
        platform.num_cores(),
    );
    let run = |seconds: f64| {
        let cfg = SimConfig {
            max_duration_s: seconds,
            ..SimConfig::default()
        };
        let (report, allocs) = allocs_during(|| {
            run_simulation(platform, &trace, &mut NoTc, &mut CoolestFirst, &cfg)
                .expect("simulation runs")
        });
        // The trace outlasts both runs, so dispatch runs every step.
        assert!(report.unfinished > 0);
        (report.windows, allocs)
    };
    let (short_windows, short_allocs) = run(1.0);
    let (long_windows, long_allocs) = run(5.0);
    assert_eq!((short_windows, long_windows), (10, 50));
    (long_allocs - short_allocs) as f64 / (long_windows - short_windows) as f64
}

#[test]
fn run_simulation_allocates_per_window_not_per_step() {
    for platform in [Platform::niagara8(), Platform::stacked3d()] {
        let per_window = allocs_per_window(&platform);
        assert!(
            per_window <= 8.0,
            "{per_window} allocations per window: the 250-step loop allocates"
        );
    }
}
