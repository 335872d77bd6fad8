//! Proof that the thermal step allocates nothing once the model is built:
//! [`DiscreteModel::step_into`] writes into caller buffers and
//! [`ThermalSim::step`] reuses its own input and next-state buffers, so
//! the simulator's 0.4 ms loop never touches the heap.
//!
//! The counting allocator counts only the thread inside [`allocs_during`],
//! so the other test in this binary, running concurrently on its own
//! thread, cannot pollute the counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use protemp_floorplan::{niagara::niagara8, Block, BlockKind, Floorplan, Layer, Rect, Stack};
use protemp_thermal::{DiscreteModel, IntegrationMethod, RcNetwork, ThermalConfig, ThermalSim};

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
fn allocs_during(f: impl FnOnce()) -> u64 {
    let before = ALLOC_CALLS.load(Ordering::Relaxed);
    COUNTING.with(|c| c.set(true));
    f();
    COUNTING.with(|c| c.set(false));
    ALLOC_CALLS.load(Ordering::Relaxed) - before
}

/// The flat Niagara-8 die, and Niagara-8 under a one-block memory die.
fn networks() -> [RcNetwork; 2] {
    let cfg = ThermalConfig::default();
    let base = niagara8();
    let (w, h) = (base.die_width(), base.die_height());
    let mut memory = Floorplan::new(w, h);
    memory.push(Block::new(
        "MEM",
        BlockKind::Memory,
        Rect::new(0.0, 0.0, w, h),
    ));
    let stack = Stack::new(vec![Layer::new("cpu", base), Layer::new("mem", memory)]);
    [
        RcNetwork::from_floorplan(&niagara8(), &cfg),
        RcNetwork::from_stack(&stack, &cfg),
    ]
}

#[test]
fn thermal_sim_step_allocates_nothing() {
    for net in networks() {
        let model = DiscreteModel::new(&net, 0.4e-3, IntegrationMethod::ForwardEuler).unwrap();
        let powers = net.full_power_vector(3.0);
        let initial = net.uniform_state(70.0);
        let mut sim = ThermalSim::from_parts(net, model, initial);
        let allocs = allocs_during(|| {
            for _ in 0..1000 {
                sim.step(&powers).unwrap();
            }
        });
        assert_eq!(allocs, 0, "ThermalSim::step allocated");
        assert!(sim.max_core_temp() > 70.0);
    }
}

#[test]
fn step_into_allocates_nothing_for_every_integrator() {
    for net in networks() {
        let u = net.input_vector(&net.full_power_vector(3.0)).unwrap();
        for method in [
            IntegrationMethod::ForwardEuler,
            IntegrationMethod::BackwardEuler,
            IntegrationMethod::Exact,
        ] {
            let model = DiscreteModel::new(&net, 0.4e-3, method).unwrap();
            let mut t = net.uniform_state(70.0);
            let mut next = vec![0.0; t.len()];
            let allocs = allocs_during(|| {
                for _ in 0..250 {
                    model.step_into(&t, &u, &mut next);
                    std::mem::swap(&mut t, &mut next);
                }
            });
            assert_eq!(allocs, 0, "{method:?} step_into allocated");
            assert!(t.iter().all(|x| x.is_finite()));
        }
    }
}
