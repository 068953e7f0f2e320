//! Deterministic work-stealing thread pool for the placement flow.
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
//! with a fixed-order pairwise tree ([`tree_combine`]). Threads *steal
//! chunks* from a shared atomic counter, so scheduling is dynamic but the
//! arithmetic — including floating-point association — is not.
//!
//! **Thread count.** `CP_THREADS` controls the default worker budget
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
//! Workers are spawned lazily on first parallel call and parked on a
//! shared queue afterwards; nested parallel calls from worker threads are
//! allowed (inner regions push chunks other idle workers can steal, and
//! the submitting thread always participates, so progress never depends
//! on another region finishing first).

use cp_resilience::{Interrupt, RunControl};
use std::any::Any;
use std::collections::VecDeque;
use std::fmt;
use std::mem::{ManuallyDrop, MaybeUninit};
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread;

/// Why a fallible parallel region ([`try_par_map`]) terminated without
/// completing every chunk.
#[derive(Debug, Clone, PartialEq)]
pub enum RegionError {
    /// A chunk's task panicked; the panic was contained by the pool's
    /// `catch_unwind` (siblings kept their work, the pool survives) and
    /// is re-raised here as a typed error with the payload preserved.
    Panicked {
        /// The panic payload's message (`&str`/`String` payloads; other
        /// payload types surface as a placeholder).
        message: String,
    },
    /// The region's [`RunControl`] was interrupted; remaining chunks were
    /// drained without running.
    Interrupted(Interrupt),
}

impl fmt::Display for RegionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Panicked { message } => write!(f, "a parallel task panicked: {message}"),
            Self::Interrupted(i) => write!(f, "parallel region interrupted: {i}"),
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

/// The panic message used when the worker-panic fault fires (see
/// [`cp_resilience::sites::WORKER_PANIC`]).
const INJECTED_PANIC_MSG: &str = "injected fault: parallel.worker.panic";

/// Locks ignoring poisoning: a panicked task is already being reported
/// through the job's panic flag, so the guarded data stays usable.
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

/// One parallel region. Lives in an `Arc` so an entry a worker popped
/// stays valid after the region completes; the type-erased `task` pointer
/// is only dereferenced while the submitter provably blocks in
/// [`par_for`].
struct Job {
    task: *const (dyn Fn(usize) + Sync),
    chunks: usize,
    /// Ambient trace span on the submitting thread; workers adopt it so
    /// spans opened inside chunks nest under the span that spawned the
    /// region (0 = tracing off or no ambient span).
    parent_span: u64,
    /// Cancellation/deadline/budget handle for fallible regions. `None`
    /// for the infallible primitives, whose behavior is unchanged.
    control: Option<RunControl>,
    /// Next chunk index to steal.
    next: AtomicUsize,
    /// Workers currently inside the region.
    active: AtomicUsize,
    /// Set by the submitter once every chunk has been claimed; late
    /// workers that see it never touch `task`.
    closed: AtomicBool,
    panicked: AtomicBool,
    /// Once set, remaining chunks are claimed but not run (fast drain
    /// after the first panic or interrupt).
    abandoned: AtomicBool,
    /// First captured panic, keyed by chunk index — the lowest-indexed
    /// chunk's message wins so reporting is stable under scheduling.
    panic_slot: Mutex<Option<(usize, String)>>,
    /// First observed interrupt.
    interrupt_slot: Mutex<Option<Interrupt>>,
    done: Mutex<()>,
    done_cv: Condvar,
}

// SAFETY: `task` points at a `Sync` closure on the submitting thread's
// stack; the submitter blocks until `active` drains back to zero before
// the pointee can go out of scope, and `closed` keeps late workers from
// dereferencing it afterwards (see the interleaving argument in
// `par_for`).
unsafe impl Send for Job {}
unsafe impl Sync for Job {}

impl Job {
    /// Steals and runs chunks until the counter is exhausted, returning
    /// how many this participant ran. Panics in the task are captured
    /// into `panic_slot` so every participant keeps draining (a worker
    /// must never unwind out of the pool loop); after the first panic or
    /// interrupt the region is abandoned and remaining chunks are claimed
    /// without running.
    fn run_chunks(&self) -> usize {
        // SAFETY: see the struct-level invariant — the submitter keeps the
        // pointee alive while any participant is registered.
        let task = unsafe { &*self.task };
        let mut ran = 0;
        loop {
            let i = self.next.fetch_add(1, Ordering::SeqCst);
            if i >= self.chunks {
                break;
            }
            if self.abandoned.load(Ordering::SeqCst) {
                continue;
            }
            if let Some(ctl) = &self.control {
                if let Err(interrupt) = ctl.poll(cp_resilience::sites::POOL_CHUNK) {
                    self.record_interrupt(interrupt);
                    continue;
                }
            }
            ran += 1;
            let inject = self.control.is_some()
                && cp_resilience::faultpoint!(cp_resilience::sites::WORKER_PANIC);
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                if inject {
                    panic!("{INJECTED_PANIC_MSG}");
                }
                task(i)
            }));
            if let Err(payload) = outcome {
                self.record_panic(i, payload_message(payload.as_ref()));
            }
        }
        ran
    }

    /// Records a contained panic (lowest chunk index wins) and abandons
    /// the region.
    fn record_panic(&self, chunk: usize, message: String) {
        self.panicked.store(true, Ordering::SeqCst);
        if self.control.is_some() {
            self.abandoned.store(true, Ordering::SeqCst);
        }
        let mut slot = lock(&self.panic_slot);
        match &*slot {
            Some((c, _)) if *c <= chunk => {}
            _ => *slot = Some((chunk, message)),
        }
    }

    /// Records the first observed interrupt and abandons the region.
    fn record_interrupt(&self, interrupt: Interrupt) {
        self.abandoned.store(true, Ordering::SeqCst);
        let mut slot = lock(&self.interrupt_slot);
        if slot.is_none() {
            *slot = Some(interrupt);
        }
    }

    /// Worker-side entry: register, steal chunks unless the region
    /// already closed (running them under the submitter's trace span),
    /// deregister, and wake the submitter when last out.
    fn run_worker(&self, worker: u32) {
        self.active.fetch_add(1, Ordering::SeqCst);
        if !self.closed.load(Ordering::SeqCst) {
            let ran = cp_trace::run_with_parent(self.parent_span, || self.run_chunks());
            if ran > 0 {
                cp_trace::counter_add_slot("pool.worker.tasks", worker, ran as u64);
            }
        }
        if self.active.fetch_sub(1, Ordering::SeqCst) == 1 {
            let _guard = lock(&self.done);
            self.done_cv.notify_all();
        }
    }
}

struct Shared {
    /// One entry per worker a region asked for. Holds entries of open
    /// regions only: a submitter withdraws its unpopped entries before it
    /// closes its region, so the queue never outgrows the regions in
    /// flight, even while every worker is busy inside an outer region.
    queue: Mutex<VecDeque<Arc<Job>>>,
    available: Condvar,
}

struct Pool {
    shared: Arc<Shared>,
    spawned: Mutex<usize>,
}

fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| Pool {
        shared: Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
        }),
        spawned: Mutex::new(0),
    })
}

impl Pool {
    /// Spawns workers up to `want` (lazily, on demand). Spawn failures
    /// degrade gracefully to fewer workers — the submitter always
    /// participates, so the region still completes.
    fn ensure_workers(&self, want: usize) {
        let mut n = lock(&self.spawned);
        while *n < want {
            let shared = Arc::clone(&self.shared);
            let index = *n as u32;
            let spawned = thread::Builder::new()
                .name(format!("cp-par-{n}"))
                .spawn(move || worker_loop(&shared, index));
            if spawned.is_err() {
                break;
            }
            *n += 1;
        }
    }
}

fn worker_loop(shared: &Shared, index: u32) {
    loop {
        let job = {
            let mut q = lock(&shared.queue);
            loop {
                if let Some(j) = q.pop_front() {
                    break j;
                }
                q = shared
                    .available
                    .wait(q)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        job.run_worker(index);
    }
}

/// Runs `task(i)` for every chunk index `0..chunks`, stealing chunks
/// across up to [`current_threads`] threads (the caller included). Blocks
/// until every chunk has finished. With a budget of 1 (or a single
/// chunk), runs inline with zero synchronization.
///
/// Scheduling is dynamic; determinism is the *caller's* contract — each
/// chunk must write only chunk-indexed state (see [`par_map`],
/// [`par_sum`] for ready-made deterministic shapes).
///
/// # Panics
///
/// Panics if any chunk's task panicked, after all participants have left
/// the region. The lowest-indexed panicking chunk's payload message is
/// preserved in the new panic's message.
fn par_for(chunks: usize, task: &(dyn Fn(usize) + Sync)) {
    match par_for_region(chunks, None, task) {
        Ok(()) => {}
        Err(RegionError::Panicked { message }) => {
            panic!("cp-parallel: a parallel task panicked: {message}");
        }
        // Unreachable: regions without a control are never interrupted.
        Err(RegionError::Interrupted(i)) => {
            panic!("cp-parallel: control-free region interrupted: {i}");
        }
    }
}

/// Shared region driver for [`par_for`] and [`try_par_map`]: under a
/// `control`, checks it before each chunk
/// ([`cp_resilience::sites::POOL_CHUNK`], uncounted so the
/// schedule-dependent number of polls never perturbs deterministic check
/// counting). On the first panic or interrupt the region is abandoned —
/// remaining chunks are claimed but not run — and the typed error is
/// returned after every participant has left. A contained panic keeps
/// its payload message; the pool itself always survives.
fn par_for_region(
    chunks: usize,
    control: Option<&RunControl>,
    task: &(dyn Fn(usize) + Sync),
) -> Result<(), RegionError> {
    if chunks == 0 {
        return Ok(());
    }
    let budget = current_threads().min(chunks);
    if budget <= 1 {
        return inline_region(chunks, control, task);
    }
    let p = pool();
    p.ensure_workers(budget - 1);
    // SAFETY: erase the task's lifetime for the queue. Soundness argument:
    // a worker dereferences `task` only after registering in `active` and
    // stealing a chunk `< chunks`. Chunk exhaustion is monotone, and the
    // submitter sets `closed` only after exhaustion, then blocks until
    // `active == 0` (SeqCst total order makes the register/closed-check
    // pair on the worker and the closed-store/active-read pair here
    // mutually visible). So either the worker registered in time — and we
    // wait for it — or it observes `closed` and never touches `task`.
    let task_static: &'static (dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(task) };
    let job = Arc::new(Job {
        task: task_static as *const _,
        chunks,
        parent_span: cp_trace::current_span_id(),
        control: control.cloned(),
        next: AtomicUsize::new(0),
        active: AtomicUsize::new(0),
        closed: AtomicBool::new(false),
        panicked: AtomicBool::new(false),
        abandoned: AtomicBool::new(false),
        panic_slot: Mutex::new(None),
        interrupt_slot: Mutex::new(None),
        done: Mutex::new(()),
        done_cv: Condvar::new(),
    });
    {
        let mut q = lock(&p.shared.queue);
        for _ in 0..budget - 1 {
            q.push_back(Arc::clone(&job));
        }
    }
    p.shared.available.notify_all();
    let ran = job.run_chunks();
    if ran > 0 {
        cp_trace::counter_add("pool.submitter.tasks", ran as u64);
    }
    // Every chunk is claimed, so an unpopped entry has nothing left to
    // run; withdraw it rather than leave it for the next idle worker.
    lock(&p.shared.queue).retain(|queued| !Arc::ptr_eq(queued, &job));
    job.closed.store(true, Ordering::SeqCst);
    {
        let mut guard = lock(&job.done);
        while job.active.load(Ordering::SeqCst) != 0 {
            guard = job
                .done_cv
                .wait(guard)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
    if job.panicked.load(Ordering::SeqCst) {
        let message = lock(&job.panic_slot)
            .take()
            .map(|(_, m)| m)
            .unwrap_or_else(|| "opaque panic payload".to_string());
        return Err(RegionError::Panicked { message });
    }
    if let Some(interrupt) = lock(&job.interrupt_slot).take() {
        return Err(RegionError::Interrupted(interrupt));
    }
    Ok(())
}

/// Sequential fallback for a budget of one (or a single chunk). The
/// control-free path calls the task directly — panics unwind natively —
/// so the infallible primitives keep their zero-overhead inline path.
fn inline_region(
    chunks: usize,
    control: Option<&RunControl>,
    task: &(dyn Fn(usize) + Sync),
) -> Result<(), RegionError> {
    let Some(ctl) = control else {
        for i in 0..chunks {
            task(i);
        }
        return Ok(());
    };
    for i in 0..chunks {
        ctl.poll(cp_resilience::sites::POOL_CHUNK)
            .map_err(RegionError::Interrupted)?;
        let inject = cp_resilience::faultpoint!(cp_resilience::sites::WORKER_PANIC);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            if inject {
                panic!("{INJECTED_PANIC_MSG}");
            }
            task(i)
        }));
        if let Err(payload) = outcome {
            return Err(RegionError::Panicked {
                message: payload_message(payload.as_ref()),
            });
        }
    }
    Ok(())
}

/// Number of fixed-size chunks covering `n` items (`chunk` clamped to at
/// least 1). This is the only chunk geometry the crate uses, so results
/// depend on `(n, chunk)` alone.
fn chunk_count(n: usize, chunk: usize) -> usize {
    n.div_ceil(chunk.max(1))
}

/// Runs `f(chunk_index, range)` over the fixed chunking of `0..n`.
fn par_ranges(n: usize, chunk: usize, f: impl Fn(usize, Range<usize>) + Sync) {
    let chunk = chunk.max(1);
    par_for(chunk_count(n, chunk), &|i| {
        let start = i * chunk;
        f(i, start..(start + chunk).min(n));
    });
}

/// Raw-pointer wrapper so disjoint chunk writers can share one buffer.
/// Accessed through [`SendPtr::get`] so closures capture the `Sync`
/// wrapper rather than the raw pointer field.
#[derive(Clone, Copy)]
struct SendPtr<T>(*mut T);

impl<T> SendPtr<T> {
    fn get(&self) -> *mut T {
        self.0
    }
}
// SAFETY: every user writes a disjoint index range (enforced by the fixed
// chunk geometry), so aliased mutation never occurs.
unsafe impl<T> Send for SendPtr<T> {}
unsafe impl<T> Sync for SendPtr<T> {}

/// Maps `f` over one fixed-size range per chunk, returning the per-chunk
/// results ordered by chunk index. The building block for deterministic
/// reductions: combine the returned partials in any *fixed* order.
pub fn par_map_ranges<R: Send>(
    n: usize,
    chunk: usize,
    f: impl Fn(Range<usize>) -> R + Sync,
) -> Vec<R> {
    let chunk = chunk.max(1);
    let chunks = chunk_count(n, chunk);
    if chunks == 1 {
        return vec![f(0..n)];
    }
    let mut out: Vec<MaybeUninit<R>> = Vec::with_capacity(chunks);
    // SAFETY: MaybeUninit slots need no initialization.
    unsafe { out.set_len(chunks) };
    let ptr = SendPtr(out.as_mut_ptr());
    par_for(chunks, &|i| {
        let start = i * chunk;
        let v = f(start..(start + chunk).min(n));
        // SAFETY: chunk `i` owns slot `i` exclusively.
        unsafe { ptr.get().add(i).write(MaybeUninit::new(v)) };
    });
    // A panicking chunk aborts via par_for's panic before reaching here;
    // the unwind frees the buffer without dropping the results already
    // written, which leak — safe, if wasteful.
    let mut out = ManuallyDrop::new(out);
    // SAFETY: all `chunks` slots were initialized exactly once above.
    unsafe { Vec::from_raw_parts(out.as_mut_ptr().cast::<R>(), chunks, out.capacity()) }
}

/// Parallel element map with order-preserving output: `out[i] = f(&items[i])`.
pub fn par_map<T: Sync, R: Send>(items: &[T], chunk: usize, f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let n = items.len();
    let mut out: Vec<MaybeUninit<R>> = Vec::with_capacity(n);
    // SAFETY: MaybeUninit slots need no initialization.
    unsafe { out.set_len(n) };
    let ptr = SendPtr(out.as_mut_ptr());
    par_ranges(n, chunk, |_, r| {
        for i in r {
            // SAFETY: index `i` belongs to exactly one chunk.
            unsafe { ptr.get().add(i).write(MaybeUninit::new(f(&items[i]))) };
        }
    });
    let mut out = ManuallyDrop::new(out);
    // SAFETY: all `n` slots were initialized exactly once above.
    unsafe { Vec::from_raw_parts(out.as_mut_ptr().cast::<R>(), n, out.capacity()) }
}

/// Fallible [`par_map`]: maps `f` over `items` under `control`. `Ok`
/// means every element was produced, so partial results can never leak
/// out of an interrupted or panicked region; on `Err` the intermediate
/// buffer is discarded without dropping element contents (initialized
/// slots leak their heap allocations — safe, if wasteful, and only on
/// the error path).
pub fn try_par_map<T: Sync, R: Send>(
    items: &[T],
    chunk: usize,
    control: &RunControl,
    f: impl Fn(&T) -> R + Sync,
) -> Result<Vec<R>, RegionError> {
    let n = items.len();
    let chunk = chunk.max(1);
    let mut out: Vec<MaybeUninit<R>> = Vec::with_capacity(n);
    // SAFETY: MaybeUninit slots need no initialization.
    unsafe { out.set_len(n) };
    let ptr = SendPtr(out.as_mut_ptr());
    let result = par_for_region(chunk_count(n, chunk), Some(control), &|ci| {
        let start = ci * chunk;
        let end = (start + chunk).min(n);
        for (i, item) in items.iter().enumerate().take(end).skip(start) {
            // SAFETY: index `i` belongs to exactly one chunk.
            unsafe { ptr.get().add(i).write(MaybeUninit::new(f(item))) };
        }
    });
    match result {
        Ok(()) => {
            let mut out = ManuallyDrop::new(out);
            // SAFETY: Ok means every chunk completed, so all `n` slots
            // were initialized exactly once above.
            Ok(unsafe { Vec::from_raw_parts(out.as_mut_ptr().cast::<R>(), n, out.capacity()) })
        }
        // Dropping Vec<MaybeUninit<R>> frees the buffer without running
        // any R destructors — safe even with uninitialized slots.
        Err(e) => Err(e),
    }
}

/// Splits `data` into fixed-size chunks and hands each chunk mutably to
/// `f(chunk_index, offset, slice)` — slices are disjoint, so this is safe
/// parallel in-place mutation.
pub fn par_chunks_mut<T: Send>(
    data: &mut [T],
    chunk: usize,
    f: impl Fn(usize, usize, &mut [T]) + Sync,
) {
    let n = data.len();
    let ptr = SendPtr(data.as_mut_ptr());
    par_ranges(n, chunk, |ci, r| {
        // SAFETY: ranges from the fixed chunking are pairwise disjoint.
        let slice = unsafe { std::slice::from_raw_parts_mut(ptr.get().add(r.start), r.len()) };
        f(ci, r.start, slice);
    });
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
    par_for(2, &|i| match i {
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

    /// Queue entries whose region has closed (the queue invariant keeps
    /// this at zero).
    fn queued_closed_jobs() -> usize {
        lock(&pool().shared.queue)
            .iter()
            .filter(|job| job.closed.load(Ordering::SeqCst))
            .count()
    }

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
            par_for(64, &|_| {
                // Record which thread ran a chunk (best effort; the
                // submitter may legitimately steal everything on a loaded
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
            par_for(8, &|_| {
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
            par_for(16, &|i| {
                if i == 5 {
                    panic!("boom");
                }
            });
        });
    }

    #[test]
    fn try_par_map_preserves_panic_message() {
        let ctl = RunControl::unlimited();
        let items: Vec<u32> = (0..16).collect();
        for threads in [1, 4] {
            let err = with_threads(threads, || {
                try_par_map(&items, 1, &ctl, |&i| {
                    if i == 5 {
                        panic!("task {i} exploded");
                    }
                })
            })
            .expect_err("panicking region must fail");
            match err {
                RegionError::Panicked { message } => {
                    assert!(message.contains("exploded"), "got: {message}")
                }
                other => panic!("expected Panicked, got {other:?}"),
            }
        }
    }

    #[test]
    fn try_par_map_pool_survives_contained_panic() {
        let ctl = RunControl::unlimited();
        let _ = with_threads(4, || try_par_map(&[(); 8], 1, &ctl, |_| panic!("boom")));
        // The pool must still run subsequent regions to completion.
        let ok = AtomicU64::new(0);
        with_threads(4, || {
            par_for(32, &|_| {
                ok.fetch_add(1, Ordering::SeqCst);
            })
        });
        assert_eq!(ok.load(Ordering::SeqCst), 32);
    }

    #[test]
    fn try_par_map_matches_par_map_when_uninterrupted() {
        let items: Vec<u64> = (0..500).collect();
        let ctl = RunControl::unlimited();
        for threads in [1, 4] {
            let out = with_threads(threads, || try_par_map(&items, 7, &ctl, |&x| x * 3))
                .expect("uninterrupted map succeeds");
            assert_eq!(out, (0..500).map(|x| x * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn try_par_map_cancelled_yields_no_partial_results() {
        let ctl = RunControl::unlimited();
        ctl.cancel();
        let items: Vec<String> = (0..100).map(|i| i.to_string()).collect();
        let err = with_threads(4, || try_par_map(&items, 4, &ctl, |s| format!("out-{s}")))
            .expect_err("cancelled map must fail");
        assert!(matches!(err, RegionError::Interrupted(_)));
    }

    #[test]
    fn try_par_map_observes_cancellation() {
        let items: Vec<u64> = (0..64).collect();
        for threads in [1, 4] {
            let ctl = RunControl::unlimited();
            ctl.cancel();
            let ran = AtomicU64::new(0);
            let err = with_threads(threads, || {
                try_par_map(&items, 4, &ctl, |&x| {
                    ran.fetch_add(1, Ordering::SeqCst);
                    x
                })
            })
            .expect_err("cancelled region must fail");
            assert!(matches!(err, RegionError::Interrupted(_)), "got {err:?}");
            assert_eq!(ran.load(Ordering::SeqCst), 0, "threads = {threads}");
        }
    }

    #[test]
    fn closed_regions_leave_no_queue_entries() {
        // Both participants of the outer region stay inside it while the
        // nested regions open and close, so no worker goes back to the
        // queue to pop their entries: only the submitters can clear them.
        let started = AtomicUsize::new(0);
        let closed_in_queue = AtomicUsize::new(0);
        with_threads(2, || {
            par_for(2, &|_| {
                started.fetch_add(1, Ordering::SeqCst);
                let t0 = std::time::Instant::now();
                while started.load(Ordering::SeqCst) < 2 && t0.elapsed().as_secs() < 5 {
                    std::thread::yield_now();
                }
                for _ in 0..64 {
                    with_threads(2, || par_sum(64, 8, |r| r.len() as f64));
                    closed_in_queue.fetch_max(queued_closed_jobs(), Ordering::SeqCst);
                }
            });
        });
        assert_eq!(closed_in_queue.load(Ordering::SeqCst), 0);
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
        par_for(0, &|_| panic!("must not run"));
    }
}
