//! Footprint ratchet for the netlist database.
//!
//! A counting global allocator measures the live heap a generated netlist
//! holds once `generate()` returns, and the highest the heap rose while it
//! was built, on Jpeg at scale 0.25 (≈ 13k cells). The netlist lives for
//! the whole flow, under every stage's peak, so its bytes per cell are a
//! floor on every workload's peak RSS (EXPERIMENTS.md, "Netlist
//! footprint"). The second bound catches a builder that leaves an unpacked
//! copy of the design live beside the packed one.

use cp_netlist::generator::{DesignProfile, GeneratorConfig};
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

/// Live netlist heap allowed per cell: the measured 90.4 B plus 10%
/// headroom. With a `String` per name, a `Vec` of sinks per net and a
/// `Vec` of input nets per cell the same design held 215.1 B/cell.
const MAX_BYTES_PER_CELL: f64 = 99.5;

/// Highest heap during `generate()` over the heap the netlist keeps: the
/// measured 1.33 leaves room for the generator's wiring scratch, not for a
/// second copy of the design.
const MAX_PEAK_OVER_FINAL: f64 = 1.5;

#[test]
fn generated_netlist_is_packed() {
    let base = CURRENT.load(Relaxed);
    PEAK.store(base, Relaxed);
    let netlist = GeneratorConfig::from_profile(DesignProfile::Jpeg)
        .scale(0.25)
        .seed(1)
        .generate();
    let live = CURRENT.load(Relaxed).saturating_sub(base) as f64;
    let peak = PEAK.load(Relaxed).saturating_sub(base) as f64;
    let cells = netlist.cell_count();
    assert!(cells > 10_000, "{cells}");
    let per_cell = live / cells as f64;
    let ratio = peak / live;
    eprintln!("netlist heap: {per_cell:.1} B/cell live, generate() peak {ratio:.2}x live");
    // A netlist holds at least a cell record and an output-net slot per cell.
    assert!(per_cell >= 16.0, "{per_cell:.1} B/cell");
    assert!(
        per_cell <= MAX_BYTES_PER_CELL,
        "netlist holds {per_cell:.1} B/cell, bound {MAX_BYTES_PER_CELL}"
    );
    assert!(
        ratio <= MAX_PEAK_OVER_FINAL,
        "generate() peaked at {ratio:.2}x the netlist's live heap, bound {MAX_PEAK_OVER_FINAL}"
    );
}
