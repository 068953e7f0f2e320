//! Dependency-free counting global allocator (`alloc-telemetry` feature).
//!
//! Wraps [`System`] and keeps four relaxed atomics: live bytes, peak
//! live bytes, total allocation count and a stage-local peak.
//! [`crate::qor::record_heap`] publishes the first three as `mem.*`
//! gauges at stage boundaries; the flow resets the stage-local peak as
//! each stage starts and attaches it to the stage's span. The module only
//! exists when the feature is enabled, so the disabled configuration pays
//! nothing — there is no allocator shim to branch through.
//!
//! The counters use `Ordering::Relaxed` throughout: cross-thread
//! interleavings can momentarily under-report `current`, but `peak` is
//! maintained with `fetch_max` so it never loses a high-water mark that
//! a single thread observed.
//!
//! This is the one module of the workspace's libraries allowed `unsafe`:
//! a [`GlobalAlloc`] impl is `unsafe` by definition.

#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static CURRENT: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);
static COUNT: AtomicU64 = AtomicU64::new(0);
static STAGE_PEAK: AtomicU64 = AtomicU64::new(0);

/// Snapshot of the process-wide heap counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeapStats {
    /// Live heap bytes right now.
    pub current_bytes: u64,
    /// Peak live heap bytes since process start.
    pub peak_bytes: u64,
    /// Allocations (incl. grows) since process start.
    pub alloc_count: u64,
}

/// Reads the current heap counters.
pub fn heap_stats() -> HeapStats {
    HeapStats {
        current_bytes: CURRENT.load(Ordering::Relaxed),
        peak_bytes: PEAK.load(Ordering::Relaxed),
        alloc_count: COUNT.load(Ordering::Relaxed),
    }
}

fn on_alloc(bytes: u64) {
    COUNT.fetch_add(1, Ordering::Relaxed);
    let now = CURRENT.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(now, Ordering::Relaxed);
    STAGE_PEAK.fetch_max(now, Ordering::Relaxed);
}

/// Restarts the stage-local high-water mark at the live heap right now.
pub fn reset_stage_peak() {
    STAGE_PEAK.store(CURRENT.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// Peak live heap bytes since the last [`reset_stage_peak`].
pub fn stage_peak_bytes() -> u64 {
    STAGE_PEAK.load(Ordering::Relaxed)
}

fn on_dealloc(bytes: u64) {
    // Saturating: a dealloc racing ahead of the matching alloc's add (or
    // memory handed over before the counters existed) must not wrap.
    let mut cur = CURRENT.load(Ordering::Relaxed);
    loop {
        let next = cur.saturating_sub(bytes);
        match CURRENT.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(seen) => cur = seen,
        }
    }
}

/// [`System`] plus live/peak/count accounting.
pub struct CountingAllocator;

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            on_alloc(layout.size() as u64);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            on_alloc(layout.size() as u64);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        on_dealloc(layout.size() as u64);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            on_dealloc(layout.size() as u64);
            on_alloc(new_size as u64);
        }
        p
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_track_a_boxed_allocation() {
        let before = heap_stats();
        let v: Vec<u8> = Vec::with_capacity(1 << 20);
        let mid = heap_stats();
        assert!(mid.alloc_count > before.alloc_count);
        assert!(mid.current_bytes >= before.current_bytes + (1 << 20));
        assert!(mid.peak_bytes >= mid.current_bytes);
        drop(v);
        let after = heap_stats();
        assert!(after.current_bytes < mid.current_bytes);
        assert!(after.peak_bytes >= mid.peak_bytes);
    }

    #[test]
    fn stage_peak_restarts_at_the_live_heap() {
        // Capacity only, never touched: address space, not resident
        // memory. Other test threads allocate too, so the sizes dwarf
        // anything they hold.
        let big: Vec<u8> = Vec::with_capacity(256 << 20);
        drop(big);
        reset_stage_peak();
        assert!(heap_stats().peak_bytes >= 256 << 20);
        assert!(
            stage_peak_bytes() < 256 << 20,
            "the freed block still counts"
        );
        let w: Vec<u8> = Vec::with_capacity(128 << 20);
        assert!(stage_peak_bytes() >= 128 << 20);
        drop(w);
    }
}
