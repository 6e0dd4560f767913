//! Counting-allocator proof that the steady-state simulation step is
//! allocation-free.
//!
//! This test binary installs a `#[global_allocator]` that counts every
//! allocation, then drives full simulations (SDR and DAG workloads, Euler
//! and RK4 solvers, policy enabled) past their warm-up and asserts that a
//! window of steady-state [`Simulation::step`] calls performs **zero** heap
//! allocations. This is the property the PR 4 hot-loop rework establishes:
//! all per-step buffers live in reusable workspaces/scratch structs.
//!
//! Every case runs the production configuration
//! ([`SimulationConfig::paper_default`], or a scenario spec's default
//! schedule) exactly as in a real experiment. A file-backed observability
//! sink must uphold the guarantee too (its chunk buffer is preallocated and
//! flushed in place), so one case measures the loop with one attached — and
//! another with live metrics counters attached (registration allocates,
//! relaxed atomic updates never do).
//!
//! The counter is per thread, so the file's tests can run concurrently:
//! each window counts only the allocations of the thread that measures it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use tbp_arch::units::Seconds;
use tbp_core::scenario::ScenarioSpec;
use tbp_core::sim::builder::Workload;
use tbp_core::sim::{LaneBatch, Simulation, SimulationBuilder, SimulationConfig};
use tbp_thermal::package::Package;
use tbp_thermal::solver::SolverKind;

/// A [`System`] wrapper that counts allocations (not deallocations — a
/// steady-state step must not free either, but frees of empty collections
/// never call the allocator anyway, so counting `alloc`/`realloc` is the
/// signal that matters).
///
/// The count is a `const`-initialised thread-local, so a window measures
/// only the *test thread's* allocations. Other threads allocate meanwhile:
/// the libtest main thread, and the thread of a concurrently running test,
/// whose harness sends its result through a channel when it finishes (a
/// process-global count let that allocation land in another test's window,
/// failing release builds as "allocated 1 times"). The const initialiser
/// matters — a lazily initialised thread-local would itself allocate on first
/// access from the allocator hooks.
struct CountingAllocator;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_allocation() {
    // `try_with` fails only while the thread is being torn down.
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: pure pass-through to `System`; the only extra work is a bump of a
// const-initialised thread-local counter, which never allocates, so
// `System`'s layout/ptr contracts are forwarded unchanged.
unsafe impl GlobalAlloc for CountingAllocator {
    // SAFETY: caller upholds `GlobalAlloc`'s contract; forwarded verbatim.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        // SAFETY: same layout the caller passed in.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: caller upholds `GlobalAlloc`'s contract; forwarded verbatim.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this same layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: caller upholds `GlobalAlloc`'s contract; forwarded verbatim.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        // SAFETY: `ptr`, `layout` and `new_size` forwarded unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Allocations made so far by the calling thread.
fn allocations() -> u64 {
    ALLOCATIONS.with(|c| c.get())
}

fn build(package: Package, solver: SolverKind, workload: Workload) -> Simulation {
    SimulationBuilder::new()
        .with_package(package)
        .with_solver(solver)
        .with_workload(workload)
        .with_config(SimulationConfig::paper_default())
        .build()
        .expect("simulation builds")
}

#[test]
fn steady_state_step_performs_zero_heap_allocations() {
    let cases: Vec<(&str, Simulation)> = vec![
        (
            "mobile_euler_sdr",
            build(
                Package::mobile_embedded(),
                SolverKind::ForwardEuler,
                Workload::sdr(),
            ),
        ),
        (
            "hiperf_rk4_sdr",
            build(
                Package::high_performance(),
                SolverKind::RungeKutta4,
                Workload::sdr(),
            ),
        ),
        (
            "mobile_euler_dag",
            build(
                Package::mobile_embedded(),
                SolverKind::ForwardEuler,
                Workload::generated("dag"),
            ),
        ),
        (
            "spec_default_schedule",
            ScenarioSpec::new("alloc-free")
                .build()
                .expect("simulation builds"),
        ),
    ];
    for (name, mut sim) in cases {
        // Warm-up: past the policy warm-up (8 s) and long enough that every
        // scratch buffer, queue and run-queue vector has reached its
        // steady-state capacity.
        sim.run_for(Seconds::new(9.0)).expect("warm-up runs");

        // Measure a long steady-state window: 4 000 steps = 20 s simulated,
        // covering sensor samples, policy invocations and daemon statistics
        // reports (100 ms period) many times over.
        let before = allocations();
        for _ in 0..4_000 {
            sim.step().expect("steady-state step");
        }
        let after = allocations();
        assert_eq!(
            after - before,
            0,
            "{name}: steady-state Simulation::step allocated {} times in 4000 steps",
            after - before
        );
        // The simulation still works after the measured window (the counter
        // did not trade correctness for silence).
        assert!(sim.elapsed().as_secs() > 28.0);
    }

    // A file-backed observability sink must not break the guarantee: its
    // chunk buffer is preallocated at attach time and flushed to the OS in
    // place, so feeding every track each sampling tick stays allocation-free.
    let path = std::env::temp_dir().join("tbp_alloc_free_step.tbptrace");
    let mut sim = build(
        Package::mobile_embedded(),
        SolverKind::ForwardEuler,
        Workload::sdr(),
    );
    sim.attach_trace_sink(
        Box::new(tbp_obs::FileSink::create(&path).expect("trace file creates")),
        Seconds::from_millis(10.0),
        tbp_core::trace::TrackSelection::all(),
    )
    .expect("sink attaches");
    sim.run_for(Seconds::new(9.0)).expect("warm-up runs");
    let before = allocations();
    for _ in 0..4_000 {
        sim.step().expect("steady-state step with sink");
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "file-sink: steady-state Simulation::step allocated {} times in 4000 steps",
        after - before
    );
    sim.detach_trace_sink().expect("sink finalises");
    // The emitted trace is complete and readable.
    let data = tbp_obs::TraceReader::read_file(&path).expect("trace decodes");
    assert!(data.total_records() > 0);
    let _ = std::fs::remove_file(&path);

    // Live metrics must be free too: attaching a `SimMetrics` set adds a
    // handful of relaxed atomic ops per step — registration allocates once
    // up front, updates never do.
    let registry = tbp_obs::MetricsRegistry::new();
    let sim_metrics = tbp_core::sim::SimMetrics::register(&registry);
    let mut sim = build(
        Package::mobile_embedded(),
        SolverKind::ForwardEuler,
        Workload::sdr(),
    );
    sim.attach_metrics(sim_metrics);
    sim.run_for(Seconds::new(9.0)).expect("warm-up runs");
    let before = allocations();
    for _ in 0..4_000 {
        sim.step().expect("steady-state step with metrics");
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "metrics: steady-state Simulation::step allocated {} times in 4000 steps",
        after - before
    );
    // The counters really observed the measured window.
    let snapshot = registry.snapshot(0.0);
    assert!(snapshot.counter("sim.steps").unwrap() >= 4_000);

    // The batched engine inherits the guarantee: a 4-lane LaneBatch steps
    // its lane-strided thermal kernel and all four per-lane stacks without
    // touching the allocator once warm.
    let sims: Vec<Simulation> = (0..4)
        .map(|_| {
            build(
                Package::high_performance(),
                SolverKind::RungeKutta4,
                Workload::sdr(),
            )
        })
        .collect();
    let mut batch = LaneBatch::new(sims).expect("lane batch forms");
    batch.run_steps(1_800).expect("warm-up runs"); // 9 s at the 5 ms step
    let before = allocations();
    batch.run_steps(4_000).expect("steady-state batch steps");
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "lane-batch: steady-state LaneBatch::step allocated {} times in 4000 steps",
        after - before
    );
    assert!(batch.lane(0).expect("lane accessible").elapsed().as_secs() > 28.0);

    // And with a file sink attached to one lane: the sink's preallocated
    // chunk buffer keeps the batched loop allocation-free too.
    let lane_path = std::env::temp_dir().join("tbp_alloc_free_lane.tbptrace");
    let sims: Vec<Simulation> = (0..4)
        .map(|_| {
            build(
                Package::mobile_embedded(),
                SolverKind::ForwardEuler,
                Workload::sdr(),
            )
        })
        .collect();
    let mut batch = LaneBatch::new(sims).expect("lane batch forms");
    batch
        .lane_mut(2)
        .expect("lane accessible")
        .attach_trace_sink(
            Box::new(tbp_obs::FileSink::create(&lane_path).expect("trace file creates")),
            Seconds::from_millis(10.0),
            tbp_core::trace::TrackSelection::all(),
        )
        .expect("sink attaches");
    batch.run_steps(1_800).expect("warm-up runs");
    let before = allocations();
    batch
        .run_steps(4_000)
        .expect("steady-state batch steps with sink");
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "lane-batch file-sink: LaneBatch::step allocated {} times in 4000 steps",
        after - before
    );
    batch
        .lane_mut(2)
        .expect("lane accessible")
        .detach_trace_sink()
        .expect("sink finalises");
    let data = tbp_obs::TraceReader::read_file(&lane_path).expect("trace decodes");
    assert!(data.total_records() > 0);
    let _ = std::fs::remove_file(&lane_path);
}

/// Validating a spec is a handful of comparisons: a valid spec — every
/// shipped scenario, phased and swept ones included — passes without a
/// single allocation, so the runner's per-run check costs cache hits
/// nothing.
#[test]
fn validating_a_valid_spec_performs_zero_heap_allocations() {
    let specs = tbp_core::scenario::shipped();
    let before = allocations();
    for spec in &specs {
        spec.validate().expect("shipped scenarios are valid");
    }
    let after = allocations();
    assert_eq!(after - before, 0, "ScenarioSpec::validate allocated");
}
