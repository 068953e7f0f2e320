//! Deterministic parallel regions on scoped threads for the placement
//! flow.
//!
//! Dependency-free `rayon`-flavored data parallelism for the regions of
//! the flow that win on two threads: V-P&R shaping (one task per cluster,
//! one per shape candidate), the placer's X/Y lower bounds and spreading
//! halves as [`join`] tasks, the full-design HPWL and density sums, and
//! the GNN's matmuls. The placer's CG kernels and SpMV are serial: each
//! axis gets one thread of two, and a V-P&R system fits one chunk. The
//! design trades a little peak throughput for a hard guarantee the flow's
//! reproducibility story depends on:
//!
//! **Determinism contract.** Every primitive in this crate produces
//! bit-identical results for *any* thread count, including the inline
//! sequential path (`CP_THREADS=1`). The mechanism is fixed-shape
//! chunking: work is split into chunks whose boundaries depend only on
//! the input size (never on the thread count), each chunk's result is
//! stored by chunk index, and reductions combine the per-chunk partials
//! with a fixed-order pairwise tree ([`tree_combine`]). Threads *claim
//! chunks* from a shared atomic counter, so scheduling is dynamic but the
//! arithmetic — including floating-point association — is not.
//!
//! **Thread count.** `CP_THREADS` controls the default thread budget
//! (default: available cores; `1` = run everything inline on the calling
//! thread). [`with_threads`] overrides the budget for a scope, which is
//! how the scaling bench sweeps 1/2/4/8 threads in one process and how
//! the determinism tests compare the sequential and parallel paths.
//!
//! **Coarse tasks.** [`join`] runs two independent closures as one
//! two-chunk region and hands each half of the caller's budget, for work
//! that splits better at the top (the placer's X and Y systems, the two
//! halves of a bisection) than into many short fixed chunks.
//!
//! **Regions.** A region with a budget of n runs on the calling thread
//! plus n − 1 helper threads spawned inside [`std::thread::scope`], and
//! returns after the caller has joined every helper, so no thread
//! outlives its region. Every participant runs its chunks under a
//! budget of 1, so a region opened inside a chunk runs inline on that
//! participant's thread; only [`join`] hands its two tasks a share of the
//! caller's budget each.

#![forbid(unsafe_code)]

use std::any::Any;
use std::fmt;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread;

/// Why a fallible parallel region ([`try_par_map`]) terminated without
/// completing every chunk.
#[derive(Debug, Clone, PartialEq)]
pub enum RegionError {
    /// A chunk's task panicked; the panic was contained by the region's
    /// `catch_unwind` (no chunk is claimed after it, and later regions
    /// run as usual) and is re-raised here as a typed error with the
    /// payload preserved.
    Panicked {
        /// The panic payload's message (`&str`/`String` payloads; other
        /// payload types surface as a placeholder).
        message: String,
    },
}

impl fmt::Display for RegionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Panicked { message } => write!(f, "a parallel task panicked: {message}"),
        }
    }
}

impl std::error::Error for RegionError {}

/// Extracts a human-readable message from a panic payload.
fn payload_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// Locks ignoring poisoning: a panicked task is already being reported
/// through its region's first-panic slot, so the guarded data stays
/// usable.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The process-wide default thread budget: `CP_THREADS` when set to a
/// positive integer, otherwise the number of available cores.
fn max_threads() -> usize {
    static MAX: OnceLock<usize> = OnceLock::new();
    *MAX.get_or_init(|| {
        std::env::var("CP_THREADS")
            .ok()
            .and_then(|s| s.trim().parse::<usize>().ok())
            .filter(|&n| n >= 1)
            .unwrap_or_else(|| thread::available_parallelism().map_or(1, |n| n.get()))
    })
}

/// Hardware cores the OS reports, independent of `CP_THREADS` and
/// [`with_threads`] overrides. This is what bench reports should record as
/// `detected_cores`: the machine's capacity, not the configured budget.
pub fn detected_cores() -> usize {
    thread::available_parallelism().map_or(1, |n| n.get())
}

thread_local! {
    static OVERRIDE: std::cell::Cell<Option<usize>> = const { std::cell::Cell::new(None) };
}

/// The thread budget in effect on this thread: the innermost
/// [`with_threads`] override, or else `CP_THREADS` when set to a positive
/// integer, or else the number of available cores.
pub fn current_threads() -> usize {
    OVERRIDE
        .with(std::cell::Cell::get)
        .unwrap_or_else(max_threads)
}

/// Runs `f` with the thread budget overridden to `threads` (clamped to at
/// least 1). The override is scoped to this thread and restored on exit,
/// including on unwind.
pub fn with_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            OVERRIDE.with(|o| o.set(self.0));
        }
    }
    let prev = OVERRIDE.with(|o| o.replace(Some(threads.max(1))));
    let _restore = Restore(prev);
    f()
}

/// Runs `task(i)` for every chunk index `0..chunks` on up to
/// [`current_threads`] threads, the caller included, and returns the
/// results in chunk order. With a budget of 1 (or a single chunk) the
/// chunks run inline on the caller. Otherwise the caller and its helpers
/// claim chunks from one atomic counter, each under a budget of 1, so a
/// region opened inside a chunk runs inline. Scheduling is dynamic;
/// determinism is the *caller's* contract — a chunk's result must depend
/// on its index alone.
///
/// A chunk's panic is contained and reported as the lowest-indexed
/// panicking chunk's message once every helper has exited. A `fallible`
/// region stops claiming chunks after the first panic; an infallible one
/// runs every chunk (inline, its panic unwinds natively).
fn region<R: Send>(
    chunks: usize,
    fallible: bool,
    task: impl Fn(usize) -> R + Sync,
) -> Result<Vec<R>, RegionError> {
    let threads = current_threads().min(chunks);
    if threads <= 1 && !fallible {
        return Ok((0..chunks).map(task).collect());
    }
    if threads <= 1 {
        let contained = |i| catch_unwind(AssertUnwindSafe(|| task(i)));
        return (0..chunks)
            .map(|i| {
                contained(i).map_err(|payload| RegionError::Panicked {
                    message: payload_message(payload.as_ref()),
                })
            })
            .collect();
    }
    let slots: Vec<Mutex<Option<R>>> = (0..chunks).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let abandoned = AtomicBool::new(false);
    let first_panic: Mutex<Option<(usize, String)>> = Mutex::new(None);
    let record_panic = |at: usize, payload: &(dyn Any + Send)| {
        let mut first = lock(&first_panic);
        if first.as_ref().is_none_or(|&(c, _)| at < c) {
            *first = Some((at, payload_message(payload)));
        }
    };
    // One participant: claims and runs chunks until none is left (or a
    // fallible region is abandoned) and returns how many it ran.
    let participate = || {
        with_threads(1, || {
            let mut ran = 0;
            loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= chunks || abandoned.load(Ordering::Relaxed) {
                    return ran;
                }
                ran += 1;
                match catch_unwind(AssertUnwindSafe(|| task(i))) {
                    Ok(result) => *lock(&slots[i]) = Some(result),
                    Err(payload) => {
                        record_panic(i, payload.as_ref());
                        if fallible {
                            abandoned.store(true, Ordering::Relaxed);
                        }
                    }
                }
            }
        })
    };
    let participate = &participate;
    let parent_span = cp_trace::current_span_id();
    thread::scope(|scope| {
        // A helper that cannot be spawned leaves the region with fewer
        // threads; the caller always takes part.
        let helpers: Vec<_> = (0..threads - 1)
            .filter_map(|h| {
                let helper = move || {
                    let ran = cp_trace::run_with_parent(parent_span, participate);
                    if ran > 0 {
                        cp_trace::counter_add("pool.worker.tasks", ran as u64);
                    }
                };
                let builder = thread::Builder::new().name(format!("cp-par-{h}"));
                builder.spawn_scoped(scope, helper).ok()
            })
            .collect();
        let ran = participate();
        if ran > 0 {
            cp_trace::counter_add("pool.submitter.tasks", ran as u64);
        }
        // Join every helper here rather than leave it to `scope`, which
        // returns as soon as each helper's closure has finished — possibly
        // before the thread's thread-local destructors have run and glibc
        // has handed its malloc arena back. The next region's helpers
        // would then get fresh arenas, and peak RSS grows by whole arenas
        // (EXPERIMENTS.md, "Scoped regions, measured"). A panic outside a
        // chunk still fails the region; any chunk's message ranks first.
        for helper in helpers {
            if let Err(payload) = helper.join() {
                record_panic(chunks, payload.as_ref());
            }
        }
    });
    match into_inner(first_panic) {
        Some((_, message)) => Err(RegionError::Panicked { message }),
        // No panic means every chunk ran and filled its slot.
        None => Ok(slots.into_iter().filter_map(into_inner).collect()),
    }
}

/// The result of an infallible region, re-raising a contained panic with
/// its message.
fn or_panic<T>(result: Result<T, RegionError>) -> T {
    match result {
        Ok(value) => value,
        Err(RegionError::Panicked { message }) => {
            panic!("cp-parallel: a parallel task panicked: {message}")
        }
    }
}

/// Infallible [`region`].
fn par_for<R: Send>(chunks: usize, task: impl Fn(usize) -> R + Sync) -> Vec<R> {
    or_panic(region(chunks, false, task))
}

/// Number of fixed-size chunks covering `n` items (`chunk` clamped to at
/// least 1). This is the only chunk geometry the crate uses, so results
/// depend on `(n, chunk)` alone.
fn chunk_count(n: usize, chunk: usize) -> usize {
    n.div_ceil(chunk.max(1))
}

/// Chunk `i` of that geometry, for `chunk >= 1`.
fn chunk_range(i: usize, chunk: usize, n: usize) -> Range<usize> {
    i * chunk..((i + 1) * chunk).min(n)
}

/// Maps `f` over one fixed-size range per chunk, returning the per-chunk
/// results ordered by chunk index. The building block for deterministic
/// reductions: combine the returned partials in any *fixed* order.
pub fn par_map_ranges<R: Send>(
    n: usize,
    chunk: usize,
    f: impl Fn(Range<usize>) -> R + Sync,
) -> Vec<R> {
    let chunk = chunk.max(1);
    par_for(chunk_count(n, chunk), |i| f(chunk_range(i, chunk, n)))
}

/// The element maps: each chunk maps its items in order, and the chunks'
/// outputs are concatenated in chunk order.
fn map_items<T: Sync, R: Send>(
    items: &[T],
    chunk: usize,
    fallible: bool,
    f: impl Fn(&T) -> R + Sync,
) -> Result<Vec<R>, RegionError> {
    let (n, chunk) = (items.len(), chunk.max(1));
    let parts = region(chunk_count(n, chunk), fallible, |i| {
        items[chunk_range(i, chunk, n)]
            .iter()
            .map(&f)
            .collect::<Vec<R>>()
    })?;
    Ok(parts.into_iter().flatten().collect())
}

/// Parallel element map with order-preserving output: `out[i] = f(&items[i])`.
pub fn par_map<T: Sync, R: Send>(items: &[T], chunk: usize, f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    or_panic(map_items(items, chunk, false, f))
}

/// Fallible [`par_map`]: maps `f` over `items`, containing a panic in `f`
/// as [`RegionError::Panicked`]. `Ok` means every element was produced,
/// so partial results can never leak out of a panicked region; on `Err`
/// the results of the chunks that did finish are dropped.
pub fn try_par_map<T: Sync, R: Send>(
    items: &[T],
    chunk: usize,
    f: impl Fn(&T) -> R + Sync,
) -> Result<Vec<R>, RegionError> {
    map_items(items, chunk, true, f)
}

/// Splits `data` into fixed-size chunks and hands each chunk mutably to
/// `f(chunk_index, offset, slice)` — slices are disjoint, so this is safe
/// parallel in-place mutation.
pub fn par_chunks_mut<T: Send>(
    data: &mut [T],
    chunk: usize,
    f: impl Fn(usize, usize, &mut [T]) + Sync,
) {
    let chunk = chunk.max(1);
    let slices: Vec<Mutex<&mut [T]>> = data.chunks_mut(chunk).map(Mutex::new).collect();
    par_for(slices.len(), |i| f(i, i * chunk, &mut lock(&slices[i])));
}

/// Combines `parts` pairwise in fixed order until one value remains:
/// `((p0 ⊕ p1) ⊕ (p2 ⊕ p3)) ⊕ …`. The combination tree depends only on
/// `parts.len()`, which is what makes the reductions here bit-identical
/// across thread counts. Works in place: each level folds slot
/// `i + stride` into slot `i` (an odd tail is carried up unchanged), so
/// `parts` is scratch afterwards.
pub fn tree_combine<A: Copy>(parts: &mut [A], combine: impl Fn(A, A) -> A) -> Option<A> {
    let mut stride = 1;
    while stride < parts.len() {
        let mut i = 0;
        while i + stride < parts.len() {
            parts[i] = combine(parts[i], parts[i + stride]);
            i += 2 * stride;
        }
        stride *= 2;
    }
    parts.first().copied()
}

/// Deterministic parallel sum: `f` produces each fixed chunk's partial
/// (computed sequentially inside the chunk), and the partials are
/// tree-combined in fixed order. For `n <= chunk` this is the plain
/// sequential sum, `f` called directly.
pub fn par_sum(n: usize, chunk: usize, f: impl Fn(Range<usize>) -> f64 + Sync) -> f64 {
    if n == 0 {
        return 0.0;
    }
    if n <= chunk.max(1) {
        return f(0..n);
    }
    let mut parts = par_map_ranges(n, chunk, f);
    tree_combine(&mut parts, |a, b| a + b).unwrap_or(0.0)
}

/// Runs `a` and `b` as the two tasks of one region and returns both
/// results. The caller's thread budget is split between them (`a` gets the
/// larger half), so parallel primitives inside each task stay within the
/// budget; with a budget of 1 the tasks run inline, `a` first. Results
/// cannot depend on which thread ran which task as long as each task is
/// itself thread-count invariant.
///
/// # Panics
///
/// Panics if either task panicked, with that task's panic message.
pub fn join<A: Send, B: Send>(
    a: impl FnOnce() -> A + Send,
    b: impl FnOnce() -> B + Send,
) -> (A, B) {
    let budget = current_threads();
    if budget <= 1 {
        return (a(), b());
    }
    let (task_a, task_b) = (Mutex::new(Some(a)), Mutex::new(Some(b)));
    let (out_a, out_b) = (Mutex::new(None), Mutex::new(None));
    par_for(2, |i| match i {
        0 => run_slot(&task_a, &out_a, budget - budget / 2),
        _ => run_slot(&task_b, &out_b, budget / 2),
    });
    match (into_inner(out_a), into_inner(out_b)) {
        (Some(ra), Some(rb)) => (ra, rb),
        // Unreachable: par_for ran both chunks or panicked above.
        _ => panic!("cp-parallel: join lost a task result"),
    }
}

/// One side of [`join`]: takes the task out of its slot, runs it under
/// its share of the thread budget and stores the result.
fn run_slot<R, F: FnOnce() -> R>(task: &Mutex<Option<F>>, out: &Mutex<Option<R>>, threads: usize) {
    let task = lock(task).take();
    if let Some(task) = task {
        let result = with_threads(threads, task);
        *lock(out) = Some(result);
    }
}

fn into_inner<T>(m: Mutex<T>) -> T {
    m.into_inner().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn par_map_preserves_order() {
        let items: Vec<u64> = (0..1000).collect();
        let out = with_threads(4, || par_map(&items, 7, |&x| x * 2));
        assert_eq!(out, (0..1000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn par_sum_is_thread_count_invariant() {
        // Values chosen so float addition order matters.
        let vals: Vec<f64> = (0..10_000)
            .map(|i| ((i * 2_654_435_761_u64) % 1000) as f64 * 1e-3 + 1e9 * ((i % 7) as f64))
            .collect();
        let sum_at = |t: usize| {
            with_threads(t, || {
                par_sum(vals.len(), 128, |r| {
                    let mut s = 0.0;
                    for i in r {
                        s += vals[i];
                    }
                    s
                })
            })
        };
        let s1 = sum_at(1);
        for t in [2, 3, 4, 8] {
            assert_eq!(s1.to_bits(), sum_at(t).to_bits(), "threads = {t}");
        }
        // Sizes around the single-chunk fast path: one element, exactly
        // one chunk, one element more. The reference is the documented
        // shape — per-chunk sequential sums, combined pairwise.
        for n in [1usize, 128, 129] {
            let chunk_sum = |r: Range<usize>| r.fold(0.0, |s, i| s + vals[i]);
            let want = match n {
                129 => chunk_sum(0..128) + chunk_sum(128..129),
                _ => chunk_sum(0..n),
            };
            for t in [1, 2, 4, 8] {
                let got = with_threads(t, || par_sum(n, 128, chunk_sum));
                assert_eq!(want.to_bits(), got.to_bits(), "n = {n}, threads = {t}");
            }
        }
    }

    #[test]
    fn par_chunks_mut_writes_disjoint_slices() {
        let mut data = vec![0usize; 501];
        with_threads(4, || {
            par_chunks_mut(&mut data, 13, |_, offset, slice| {
                for (k, v) in slice.iter_mut().enumerate() {
                    *v = offset + k;
                }
            });
        });
        for (i, &v) in data.iter().enumerate() {
            assert_eq!(v, i);
        }
    }

    #[test]
    fn all_threads_participate() {
        let seen = AtomicU64::new(0);
        with_threads(4, || {
            par_for(64, |_| {
                // Record which thread ran a chunk (best effort; the
                // caller may legitimately claim everything on a loaded
                // machine, so only the side-effect count is asserted).
                seen.fetch_add(1, Ordering::SeqCst);
                std::thread::sleep(std::time::Duration::from_micros(200));
            });
        });
        assert_eq!(seen.load(Ordering::SeqCst), 64);
    }

    #[test]
    fn nested_parallelism_completes() {
        let total = AtomicU64::new(0);
        with_threads(4, || {
            par_for(8, |_| {
                let inner = par_sum(100, 10, |r| r.map(|i| i as f64).sum());
                assert_eq!(inner, 4950.0);
                total.fetch_add(1, Ordering::SeqCst);
            });
        });
        assert_eq!(total.load(Ordering::SeqCst), 8);
    }

    #[test]
    fn with_threads_restores_budget() {
        let outer = current_threads();
        with_threads(3, || {
            assert_eq!(current_threads(), 3);
            with_threads(1, || assert_eq!(current_threads(), 1));
            assert_eq!(current_threads(), 3);
        });
        assert_eq!(current_threads(), outer);
    }

    #[test]
    #[should_panic(expected = "a parallel task panicked")]
    fn panics_propagate_to_the_submitter() {
        with_threads(4, || {
            par_for(16, |i| {
                if i == 5 {
                    panic!("boom");
                }
            });
        });
    }

    #[test]
    fn try_par_map_preserves_panic_message() {
        let items: Vec<u32> = (0..16).collect();
        for threads in [1, 4] {
            let RegionError::Panicked { message } = with_threads(threads, || {
                try_par_map(&items, 1, |&i| {
                    if i == 5 {
                        panic!("task {i} exploded");
                    }
                })
            })
            .expect_err("panicking region must fail");
            assert!(message.contains("task 5 exploded"), "got: {message}");
        }
    }

    #[test]
    fn try_par_map_pool_survives_contained_panic() {
        let _ = with_threads(4, || try_par_map(&[(); 8], 1, |_| panic!("boom")));
        // Later regions must still run to completion.
        let ok = AtomicU64::new(0);
        with_threads(4, || {
            par_for(32, |_| {
                ok.fetch_add(1, Ordering::SeqCst);
            })
        });
        assert_eq!(ok.load(Ordering::SeqCst), 32);
    }

    #[test]
    fn try_par_map_matches_par_map_when_uninterrupted() {
        let items: Vec<u64> = (0..500).collect();
        for threads in [1, 4] {
            let out = with_threads(threads, || try_par_map(&items, 7, |&x| x * 3))
                .expect("uninterrupted map succeeds");
            assert_eq!(out, (0..500).map(|x| x * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn try_par_map_abandons_the_region_after_a_panic() {
        // Inline, the chunks run in order, so the panic in chunk 0 must
        // leave every later chunk unrun.
        let ran = AtomicU64::new(0);
        let RegionError::Panicked { message } = with_threads(1, || {
            try_par_map(&[(); 16], 1, |_| {
                ran.fetch_add(1, Ordering::SeqCst);
                panic!("first chunk failed");
            })
        })
        .expect_err("panicking region must fail");
        assert_eq!(message, "first chunk failed");
        assert_eq!(ran.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn nested_regions_keep_the_callers_budget() {
        // Each outer item opens a 64-item region of its own. Those inner
        // regions must run inline on the outer region's participants, not
        // on `CP_THREADS` or the core count.
        let threads = Mutex::new(std::collections::HashSet::new());
        let inner_budgets = Mutex::new(std::collections::BTreeSet::new());
        with_threads(2, || {
            par_map(&[(); 2], 1, |()| {
                inner_budgets.lock().unwrap().insert(current_threads());
                par_map(&[(); 64], 1, |()| {
                    threads.lock().unwrap().insert(thread::current().id());
                    thread::sleep(std::time::Duration::from_micros(100));
                })
            })
        });
        let distinct = threads.lock().unwrap().len();
        assert!((1..=2).contains(&distinct), "{distinct} threads ran chunks");
        assert_eq!(*inner_budgets.lock().unwrap(), [1].into());
    }

    #[test]
    fn regions_return_after_their_helpers_exit() {
        // A helper arms a thread-local whose destructor counts the exit;
        // the count must have caught up by the time the region returns.
        static ARMED: AtomicUsize = AtomicUsize::new(0);
        static EXITED: AtomicUsize = AtomicUsize::new(0);
        struct ExitFlag(std::cell::Cell<bool>);
        impl Drop for ExitFlag {
            fn drop(&mut self) {
                if self.0.get() {
                    EXITED.fetch_add(1, Ordering::SeqCst);
                }
            }
        }
        thread_local! {
            static EXIT: ExitFlag = const { ExitFlag(std::cell::Cell::new(false)) };
        }
        let caller = thread::current().id();
        for threads in [2, 4] {
            let before = ARMED.load(Ordering::SeqCst);
            with_threads(threads, || {
                par_for(16, |_| {
                    if thread::current().id() != caller {
                        EXIT.with(|flag| {
                            if !flag.0.replace(true) {
                                ARMED.fetch_add(1, Ordering::SeqCst);
                            }
                        });
                    }
                    // Hold every chunk until a helper has taken one.
                    let t0 = std::time::Instant::now();
                    while ARMED.load(Ordering::SeqCst) == before && t0.elapsed().as_secs() < 5 {
                        thread::yield_now();
                    }
                });
            });
            let armed = ARMED.load(Ordering::SeqCst);
            assert!(armed > before, "no helper ran a chunk at {threads} threads");
            assert_eq!(EXITED.load(Ordering::SeqCst), armed, "threads = {threads}");
        }
    }

    #[test]
    fn tree_combine_shape_is_fixed() {
        // A non-associative combine makes the tree shape observable:
        // five parts must fold as (((0 1)(2 3)) 4).
        let op = |a: u64, b: u64| a * 31 + b + 7;
        let mut parts: Vec<u64> = (0..5).collect();
        let combined = tree_combine(&mut parts, op).expect("non-empty parts combine");
        assert_eq!(combined, op(op(op(0, 1), op(2, 3)), 4));
        assert_eq!(tree_combine(&mut [9u64], op), Some(9));
        assert_eq!(tree_combine(&mut [] as &mut [u64], op), None);
    }

    #[test]
    fn join_returns_both_results_and_splits_the_budget() {
        for t in [1usize, 2, 3, 8] {
            let (a, b) = with_threads(t, || join(current_threads, current_threads));
            if t == 1 {
                assert_eq!((a, b), (1, 1));
            } else {
                assert_eq!((a, b), (t - t / 2, t / 2), "threads = {t}");
            }
            assert_eq!(with_threads(t, current_threads), t);
        }
        // Tasks may borrow and mutate disjoint caller state.
        let (mut x, mut y) = (vec![1u32; 100], vec![2u32; 100]);
        let (sx, sy) = with_threads(4, || {
            join(
                || {
                    x.iter_mut().for_each(|v| *v += 1);
                    x.iter().sum::<u32>()
                },
                || {
                    y.iter_mut().for_each(|v| *v += 1);
                    y.iter().sum::<u32>()
                },
            )
        });
        assert_eq!((sx, sy), (200, 300));
    }

    #[test]
    #[should_panic(expected = "left task failed")]
    fn join_propagates_a_task_panic() {
        with_threads(2, || join(|| panic!("left task failed"), || 1));
    }

    #[test]
    fn zero_and_single_chunk_edge_cases() {
        assert_eq!(par_sum(0, 16, |_| 1.0), 0.0);
        assert_eq!(par_sum(5, 16, |r| r.len() as f64), 5.0);
        let empty: Vec<u32> = Vec::new();
        assert!(par_map(&empty, 4, |&x| x).is_empty());
        par_for(0, |_| panic!("must not run"));
    }
}
