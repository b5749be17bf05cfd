//! The observability contract of the disabled handles: an operation on
//! `Telemetry::off()` or `ServiceMetrics::off()` is a null check that
//! builds no payload, so it never touches the heap; and a deadline
//! `Budget` reads the clock once per `Interrupt::STRIDE` polls.
//!
//! Allocations are counted per thread by a counting global allocator,
//! so tests running on other threads do not disturb the count.

use cgra_mapper_core::telemetry::{Counter, Phase, Telemetry};
use cgra_mapper_core::{Budget, ServiceMetrics};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;
use std::time::{Duration, Instant};

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; the only addition is a bump of a const-initialised
// thread-local counter, which itself never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const ITERATIONS: u32 = 1024;

/// Heap allocations made on this thread while `f` runs.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

#[test]
fn disabled_sinks_never_allocate() {
    let off = black_box(Telemetry::off());
    let ops: [(&str, &dyn Fn(u32)); 12] = [
        ("bump", &|_| off.bump(Counter::RoutingCalls)),
        ("add", &|i| {
            off.add(Counter::SolverDecisions, u64::from(i) + 1)
        }),
        ("span", &|_| drop(off.span(Phase::Route))),
        ("span_ii", &|i| drop(off.span_ii(Phase::Map, i))),
        ("record_route_us", &|i| off.record_route_us(u64::from(i))),
        ("incumbent", &|i| off.incumbent("modulo-list", i, 1.0)),
        ("ii_attempt", &|i| off.ii_attempt("modulo-list", i)),
        ("race_start", &|_| off.race_start("sat")),
        ("race_win", &|i| off.race_win("sat", i)),
        ("race_loss", &|_| off.race_loss("cp", "cancelled")),
        ("budget_exhausted", &|_| off.budget_exhausted("ilp")),
        ("request", &|_| off.request("ilp", "0123456789abcdef")),
    ];
    for (name, op) in ops {
        let n = allocations(|| (0..ITERATIONS).for_each(|i| op(black_box(i))));
        assert_eq!(n, 0, "Telemetry::off().{name} allocated {n} times");
    }

    let metrics = black_box(ServiceMetrics::off());
    let observes: [(&str, &dyn Fn(u64)); 3] = [
        ("observe_queue_wait", &|us| metrics.observe_queue_wait(us)),
        ("observe_request", &|us| metrics.observe_request(us)),
        ("observe_solve", &|us| metrics.observe_solve(us)),
    ];
    for (name, op) in observes {
        let n = allocations(|| (0..ITERATIONS).for_each(|i| op(black_box(u64::from(i)))));
        assert_eq!(n, 0, "ServiceMetrics::off().{name} allocated {n} times");
    }

    // The counter is live: an enabled sink journals each incumbent.
    let on = Telemetry::enabled();
    let n = allocations(|| (0..ITERATIONS).for_each(|i| on.incumbent("modulo-list", i, 1.0)));
    assert!(n > 0, "an enabled incumbent must allocate its event");
}

#[test]
fn deadline_budget_reads_the_clock_once_per_stride() {
    // Already past its deadline, so every poll that reads the clock
    // answers true and every other poll answers false.
    let past = Instant::now() - Duration::from_secs(1);
    let budget = Budget::until(past);
    let fired: Vec<u32> = (0..200).filter(|_| budget.expired()).collect();
    assert_eq!(fired, [0, 64, 128, 192]);
}
