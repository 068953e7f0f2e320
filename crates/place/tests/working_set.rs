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

use cp_netlist::floorplan::Floorplan;
use cp_netlist::generator::{DesignProfile, GeneratorConfig};
use cp_place::{GlobalPlacer, PlacementProblem};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// Live heap bytes.
static CURRENT: AtomicU64 = AtomicU64::new(0);
/// High-water mark of `CURRENT` since the last reset.
static PEAK: AtomicU64 = AtomicU64::new(0);

/// [`System`] plus live/peak accounting.
struct Counting;

fn grew(bytes: usize) {
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
/// 483.2 B (scratch) and 483.7 B (seeded) plus 10% headroom. Before the
/// B2B pair cache was dropped the placer grew 600.3 B and 600.9 B.
const MAX_BYTES_PER_MOVABLE: f64 = 532.0;

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

#[test]
fn placer_heap_growth_per_movable_is_bounded() {
    let netlist = GeneratorConfig::from_profile(DesignProfile::Jpeg)
        .scale(0.25)
        .seed(1)
        .generate();
    let fp = Floorplan::for_netlist(&netlist, 0.7, 1.0);
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
        for (mode, bytes) in [("scratch", from_scratch), ("seeded", from_seeds)] {
            // A placement holds at least its own output.
            assert!(bytes >= 16.0, "{mode}: {bytes:.1} B/movable");
            assert!(
                bytes <= MAX_BYTES_PER_MOVABLE,
                "{mode}: placer heap grew {bytes:.1} B/movable, bound {MAX_BYTES_PER_MOVABLE}"
            );
        }
    });
}
