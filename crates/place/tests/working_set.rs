//! Working-set ratchet for the global placer.
//!
//! A counting global allocator measures how far the live heap rises above
//! its starting level during one `GlobalPlacer::place` call, from scratch
//! and seeded, on Jpeg at scale 0.25 (≈ 13k movables — above the size from
//! which the two axes solve as separate pool tasks) under two threads.
//! The rise per movable object must stay within the recorded bound
//! (EXPERIMENTS.md, "Placer working set"), so a change that grows the
//! placer's per-cell buffers fails here before it shows up as peak RSS on
//! a large design.
//!
//! The same allocator counts the bytes an outer iteration allocates — the
//! difference between scratch placements of 6 and of 4 iterations, halved.
//! Every buffer is sized by the first iteration and reused, so what is
//! left is `cp-parallel`'s regions (their chunk slots and helper-thread
//! spawns); a per-iteration staging vector or bin grid that comes back
//! fails here.
//!
//! The allocator is process-wide, so this binary holds one test: nothing
//! else allocates while it measures.

use cp_netlist::floorplan::Floorplan;
use cp_netlist::generator::{DesignProfile, GeneratorConfig};
use cp_place::{GlobalPlacer, PlacementProblem};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// Live heap bytes.
static CURRENT: AtomicU64 = AtomicU64::new(0);
/// Bytes handed out so far (a reallocation counts its new size), never
/// decremented.
static ALLOCATED: AtomicU64 = AtomicU64::new(0);
/// Allocations so far.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
/// High-water mark of `CURRENT` since the last reset.
static PEAK: AtomicU64 = AtomicU64::new(0);

/// [`System`] plus live/peak accounting.
struct Counting;

fn grew(bytes: usize) {
    ALLOCATED.fetch_add(bytes as u64, Relaxed);
    ALLOCATIONS.fetch_add(1, Relaxed);
    let now = CURRENT.fetch_add(bytes as u64, Relaxed) + bytes as u64;
    PEAK.fetch_max(now, Relaxed);
}

fn shrank(bytes: usize) {
    CURRENT.fetch_sub(bytes as u64, Relaxed);
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            shrank(layout.size());
            grew(new_size);
        }
        p
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap growth per movable allowed during one placement: the measured
/// 286.7 B (scratch) and 287.2 B (seeded) plus 10% headroom. While
/// spreading kept its own sort buffers beside the lower bound's (and the
/// per-net extreme pins grew by doubling) the placer grew 353.5 B and
/// 354.0 B; while the CG scratch held four vectors, each system its
/// right-hand side and row pointers, spreading a staging copy of its
/// output and the density scatter per-chunk staging, 427.1 B and
/// 427.7 B; before the iterate moved into the B2B assemblers 483.1 B and
/// 483.7 B, and before the B2B pair cache was dropped 600.3 B and
/// 600.9 B.
const MAX_BYTES_PER_MOVABLE: f64 = 316.0;

/// Bytes one extra outer iteration may allocate: the measured 3,227 B of
/// its five `cp-parallel` regions — the two axes, the two spreading
/// sorts, the bisection's root split, the density and the HPWL sums,
/// each spawning one helper at two threads — plus 10%. (Under
/// `--nocapture` it is 2,867 B: the harness's output capture costs each
/// helper 72 B.) With the density grid, its per-chunk staging and the CG
/// reductions' partials allocated afresh every iteration it was
/// 285,362 B.
const MAX_BYTES_PER_ITERATION: u64 = 3_550;

/// Places `problem` and returns the placement with the peak live-heap
/// growth of the call, in bytes per movable.
fn place_measured(problem: &PlacementProblem) -> (Vec<(f64, f64)>, f64) {
    let base = CURRENT.load(Relaxed);
    PEAK.store(base, Relaxed);
    let placed = GlobalPlacer::default()
        .place(problem)
        .expect("placement succeeds");
    let peak = PEAK.load(Relaxed);
    let per_movable = peak.saturating_sub(base) as f64 / problem.movable_count() as f64;
    (placed.positions, per_movable)
}

/// Bytes allocated, and allocations, during one scratch placement of
/// `problem` that runs exactly `iterations` outer iterations.
fn allocated_by(problem: &PlacementProblem, iterations: usize) -> (u64, u64) {
    let (bytes, count) = (ALLOCATED.load(Relaxed), ALLOCATIONS.load(Relaxed));
    let placed = GlobalPlacer::new(cp_place::PlacerOptions {
        max_iterations: iterations,
        ..Default::default()
    })
    .place(problem)
    .expect("placement succeeds");
    assert_eq!(placed.iterations, iterations, "the loop stopped early");
    (
        ALLOCATED.load(Relaxed) - bytes,
        ALLOCATIONS.load(Relaxed) - count,
    )
}

#[test]
fn placer_heap_growth_per_movable_is_bounded() {
    let netlist = GeneratorConfig::from_profile(DesignProfile::Jpeg)
        .scale(0.25)
        .seed(1)
        .generate();
    let fp = Floorplan::try_for_netlist(&netlist, 0.7, 1.0).expect("valid geometry");
    let scratch = PlacementProblem::from_netlist(&netlist, &fp);
    assert!(
        scratch.movable_count() > 10_000,
        "{}",
        scratch.movable_count()
    );
    cp_parallel::with_threads(2, || {
        let (positions, from_scratch) = place_measured(&scratch);
        let seeded = scratch.clone().with_seeds(positions);
        let (_, from_seeds) = place_measured(&seeded);
        eprintln!("placer heap growth: scratch {from_scratch:.1} B/movable, seeded {from_seeds:.1} B/movable");
        let (bytes_4, count_4) = allocated_by(&scratch, 4);
        let (bytes_6, count_6) = allocated_by(&scratch, 6);
        let per_iteration = bytes_6.saturating_sub(bytes_4) / 2;
        let count = count_6.saturating_sub(count_4) / 2;
        eprintln!("outer iteration allocates {per_iteration} B in {count} allocations");
        for (mode, bytes) in [("scratch", from_scratch), ("seeded", from_seeds)] {
            // A placement holds at least its own output.
            assert!(bytes >= 16.0, "{mode}: {bytes:.1} B/movable");
            assert!(
                bytes <= MAX_BYTES_PER_MOVABLE,
                "{mode}: placer heap grew {bytes:.1} B/movable, bound {MAX_BYTES_PER_MOVABLE}"
            );
        }
        assert!(
            per_iteration <= MAX_BYTES_PER_ITERATION,
            "an outer iteration allocated {per_iteration} B, bound {MAX_BYTES_PER_ITERATION}"
        );
    });
}
