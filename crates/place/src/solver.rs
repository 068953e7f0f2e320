//! Bound-to-bound quadratic wirelength model and conjugate-gradient solver.
//!
//! The B2B model (Spindler et al.) linearizes HPWL: per net and axis, the
//! extreme pins connect to each other and every interior pin connects to
//! both extremes, each two-pin edge weighted `w_e · 2 / ((p−1) · |x_i−x_j|)`
//! so the quadratic form's value equals the net's HPWL at the linearization
//! point. The resulting symmetric positive-definite system is solved with
//! Jacobi-preconditioned conjugate gradients.
//!
//! # Large-scale layout
//!
//! The system matrix is stored flat (`col_idx`/`val` arenas) with the rows
//! *physically grouped by off-diagonal count*: every row with exactly `d`
//! entries, `d ≤ MAX_EXACT_ROW` (16), sits in one contiguous bucket, longer
//! rows follow in a generic tail. SpMV runs one fixed-trip-count loop per
//! bucket, so the inner loop's exit branch — which a plain CSR row loop
//! mispredicts once per row at B2B's 2–12 entries per row — is either
//! unrolled away or perfectly regular. Each row's entries keep their
//! assembly order, so per-row accumulation, and with it every CG iterate,
//! is bit-identical to a row-order CSR loop. An exact bucket's rows sit
//! back to back in the arenas, so the bucket finds its entries from one
//! offset; only the long-row tail keeps a per-row entry pointer.
//!
//! The CG kernels write into caller-owned `CgScratch` buffers, chunk
//! partials included, so a full solve allocates nothing, and the placer's
//! `B2bRebuilder` assembles each system straight from the nets into
//! buffers it keeps between outer placement iterations — no per-pair list
//! is ever materialized. The right-hand side is not part of the system:
//! the assembler accumulates it straight into the scratch's residual
//! buffer, which the solve turns into `b − Ax` in place, and the
//! preconditioned residual shares the `A·p` buffer, whose values are dead
//! once a step has read them. Each rebuilder is also the home of its
//! axis's iterate: the movables' coordinates sit at the front of its flat
//! coordinate array, the system is linearized there and CG solves in
//! place, so the placer holds the lower bound once. Between a solve and
//! the next rebuild the system's entry arenas (`val`, `col_idx`) are
//! spent, and the placer lends them to spreading
//! ([`B2bRebuilder::iterate_and_spent_arenas`]): a rebuild refills them
//! from empty, so it depends on the iterate alone, and
//! [`B2bRebuilder::reserve_entries`] sizes them once for both uses.
//!
//! Everything is serial and deterministic: assembly runs in net order,
//! SpMV keeps each row's accumulation order, and dot products combine
//! fixed-chunk partials in `cp-parallel`'s pairwise tree order
//! (`kernels`). The placer runs the X and Y systems as two `join`
//! tasks; nothing inside one system opens a parallel region.

use crate::kernels::{self, dot};
use crate::problem::PlacementProblem;
use cp_graph::Hypergraph;
use std::ops::Range;

/// Axis selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Axis {
    /// Horizontal (x).
    X,
    /// Vertical (y).
    Y,
}

/// Minimum pin separation for B2B weights, µm (avoids singular weights).
const MIN_DIST: f64 = 0.5;

/// Longest row that gets an exact-length SpMV bucket; rows with more
/// off-diagonal entries share the variable-length tail. B2B rows above
/// this are rare (extreme pins of high-fanout nets — 92 of 53,277 rows at
/// Jpeg 53k, where the rows peak at 4–6 entries) and long enough to
/// amortize their one loop-exit mispredict; 8 and 12 measured 20% and 3%
/// slower (EXPERIMENTS.md, "Placer outer iteration").
const MAX_EXACT_ROW: usize = 16;

/// Convergence facts from one CG solve, for the telemetry channel.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub(crate) struct CgStats {
    /// CG iterations taken (0 when the start was already converged).
    pub iterations: usize,
    /// Final relative residual `‖r‖ / ‖b‖`.
    pub relative_residual: f64,
}

/// Reusable CG work vectors: three per row plus the reductions' chunk
/// partials. Hold one per axis across outer placement iterations and the
/// solve path stops allocating entirely.
#[derive(Debug, Clone, Default)]
pub(crate) struct CgScratch {
    /// The residual. It arrives holding the right-hand side `b`, which an
    /// assembler writes through [`CgScratch::rhs`], and the solve turns it
    /// into `b − Ax` in place.
    r: Vec<f64>,
    /// The search direction.
    p: Vec<f64>,
    /// `A·p`, and once the step has read it, the preconditioned residual
    /// `z` that the direction update reads.
    ap: Vec<f64>,
    /// Chunk partials of the reductions over more than one chunk.
    parts: Vec<f64>,
}

impl CgScratch {
    /// The right-hand side of the next solve: `n` zeros in the residual
    /// buffer for an assembler to accumulate into. Whatever the buffer
    /// held before, of whatever length, is gone.
    pub(crate) fn rhs(&mut self, n: usize) -> &mut [f64] {
        self.r.clear();
        self.r.resize(n, 0.0);
        &mut self.r
    }
}

/// A sparse SPD system matrix over the movable objects of one axis:
/// `(A x)_i = diag_i x_i − Σ_j val_ij x_j`, off-diagonal rows stored
/// grouped by length (see the module docs). The right-hand side travels
/// in the [`CgScratch`] that solves it.
#[derive(Debug, Clone, Default)]
pub struct B2bSystem {
    diag: Vec<f64>,
    /// Rows in storage order: all rows with 0 off-diagonal entries, then
    /// 1, …, [`MAX_EXACT_ROW`], then the longer ones; ascending row id
    /// within each group. Entries follow the same order.
    order: Vec<u32>,
    /// `bucket[d]` is the storage position of the first row with exactly
    /// `d` entries; `bucket[MAX_EXACT_ROW + 1]` starts the long-row tail.
    bucket: [u32; MAX_EXACT_ROW + 2],
    /// `bucket_entry[d]` is the first entry of exact bucket `d`: its `k`-th
    /// row owns entries `bucket_entry[d] + k·d ..` `+ d`.
    bucket_entry: [u32; MAX_EXACT_ROW + 1],
    /// `tail_ptr[k]..tail_ptr[k+1]` bounds the entries of the `k`-th
    /// long row, storage position `bucket[MAX_EXACT_ROW + 1] + k`.
    tail_ptr: Vec<u32>,
    col_idx: Vec<u32>,
    val: Vec<f64>,
}

/// Anchor pseudo-nets: one per movable, all of one weight, each pulling
/// its movable toward a target position.
#[derive(Debug, Clone, Copy)]
pub struct Anchors<'a> {
    /// Target position per movable; the X system reads `.0`, the Y
    /// system `.1`.
    pub targets: &'a [(f64, f64)],
    /// Pseudo-net weight of every anchor.
    pub weight: f64,
}

/// Positions within `verts` of the net's lowest and highest pin on this
/// axis (the first of several ties; `(0, 0)` for an empty net).
#[inline]
fn extreme_pins(verts: &[u32], coord: &[f64]) -> (u32, u32) {
    let Some(&first) = verts.first() else {
        return (0, 0);
    };
    let (mut lo_i, mut hi_i) = (0, 0);
    let (mut lo, mut hi) = (coord[first as usize], coord[first as usize]);
    for (i, &v) in verts.iter().enumerate().skip(1) {
        let c = coord[v as usize];
        if c < lo {
            (lo, lo_i) = (c, i);
        }
        if c > hi {
            (hi, hi_i) = (c, i);
        }
    }
    (lo_i as u32, hi_i as u32)
}

/// Hands the B2B two-pin edges `(u, v)` of one net of at least two pins
/// to `emit`, in assembly order: the extremes to each other, then every
/// other pin, in pin-list order, to the low and to the high extreme.
#[inline]
fn net_pairs(verts: &[u32], (lo_i, hi_i): (u32, u32), mut emit: impl FnMut(u32, u32)) {
    let (lo, hi) = (verts[lo_i as usize], verts[hi_i as usize]);
    if lo != hi {
        emit(lo, hi);
    }
    let mut other = |v: u32| {
        if v != lo {
            emit(v, lo);
        }
        if v != hi {
            emit(v, hi);
        }
    };
    // The runs before, between and after the two extreme positions
    // `a ≤ b`: no per-pin test for "is this an extreme", which a branch
    // predictor cannot learn (the extremes sit anywhere in the list).
    let (a, b) = (lo_i.min(hi_i) as usize, lo_i.max(hi_i) as usize);
    for &v in &verts[..a] {
        other(v);
    }
    for &v in &verts[a + 1..b.max(a + 1)] {
        other(v);
    }
    for &v in &verts[b + 1..] {
        other(v);
    }
}

/// Empties `arena` and fills it with `n` copies of `value`. What it held
/// is dead, so an arena too small is replaced, not grown: nothing is
/// copied, and it ends exactly `n` long rather than at twice its old
/// capacity.
fn refill<T: Clone>(arena: &mut Vec<T>, n: usize, value: T) {
    arena.clear();
    if arena.capacity() < n {
        *arena = Vec::with_capacity(n);
    }
    arena.resize(n, value);
}

/// Pass 1 of the assembly: every net's extreme pins into `extremes`, and
/// each row's off-diagonal entry count added onto `deg`. Returns the
/// total entry count.
fn extremes_and_degrees(
    hypergraph: &Hypergraph,
    coord: &[f64],
    extremes: &mut Vec<(u32, u32)>,
    deg: &mut [u32],
) -> usize {
    let m = deg.len();
    let mut entries = 0;
    // One pair per net: sized exactly, not by doubling pushes.
    extremes.clear();
    extremes.reserve_exact(hypergraph.edge_count());
    for e in 0..hypergraph.edge_count() {
        let verts = hypergraph.edge(e as u32);
        let ext = extreme_pins(verts, coord);
        extremes.push(ext);
        if verts.len() < 2 {
            continue;
        }
        net_pairs(verts, ext, |u, v| {
            if (u as usize) < m && (v as usize) < m {
                deg[u as usize] += 1;
                deg[v as usize] += 1;
                entries += 2;
            }
        });
    }
    entries
}

/// Pass 2 of the assembly: every net's two-pin edges weighed and
/// scattered in net-then-pair order. Both endpoints movable: two
/// off-diagonal entries, at the rows' fill `cursor`s; one fixed: the
/// fixed coordinate moves to the right-hand side. The arenas arrive as
/// separate slices so the compiler knows no store aliases `coord`.
#[allow(clippy::too_many_arguments)]
fn scatter_nets(
    problem: &PlacementProblem,
    extremes: &[(u32, u32)],
    coord: &[f64],
    cursor: &mut [u32],
    diag: &mut [f64],
    rhs: &mut [f64],
    col_idx: &mut [u32],
    val: &mut [f64],
) {
    let m = cursor.len();
    for (e, &ext) in extremes.iter().enumerate() {
        let verts = problem.hypergraph.edge(e as u32);
        if verts.len() < 2 {
            continue;
        }
        let scale = problem.net_weights[e] * 2.0 / (verts.len() as f64 - 1.0);
        net_pairs(verts, ext, |u, v| {
            let (ui, vi) = (u as usize, v as usize);
            let w = scale / (coord[ui] - coord[vi]).abs().max(MIN_DIST);
            match (ui < m, vi < m) {
                (true, true) => {
                    diag[ui] += w;
                    diag[vi] += w;
                    let cu = cursor[ui] as usize;
                    col_idx[cu] = v;
                    val[cu] = w;
                    cursor[ui] += 1;
                    let cv = cursor[vi] as usize;
                    col_idx[cv] = u;
                    val[cv] = w;
                    cursor[vi] += 1;
                }
                (true, false) => {
                    diag[ui] += w;
                    rhs[ui] += w * coord[vi];
                }
                (false, true) => {
                    diag[vi] += w;
                    rhs[vi] += w * coord[ui];
                }
                (false, false) => {}
            }
        });
    }
}

/// Per-axis B2B assembler, and the home of its axis's iterate.
///
/// Holds the flat coordinate array — the movables' coordinates on this
/// axis, then the fixed terminals' — each net's extreme pins and the
/// assembled [`B2bSystem`] across outer placement iterations, so from the
/// second [`B2bRebuilder::rebuild`] on nothing is allocated unless a
/// buffer has to grow. The right-hand side goes straight into the
/// caller's [`CgScratch`]. The movables' part is the placer's lower-bound
/// iterate: the caller writes the start positions into
/// [`B2bRebuilder::iterate_mut`], each rebuild linearizes at it, and
/// [`B2bRebuilder::solve`] overwrites it with the solution. Every rebuild
/// re-linearizes every net: every movable moves every outer iteration, so
/// a per-net cache of the last linearization never hits (DESIGN.md, "B2B
/// assembly straight from the nets"). The assembled system is
/// bit-identical to a one-shot build from fresh buffers at the same
/// positions, at any thread count.
#[derive(Debug, Clone)]
pub(crate) struct B2bRebuilder {
    axis: Axis,
    /// Movable objects: the length of the iterate.
    movables: usize,
    /// This axis's coordinate per global vertex: the iterate, then the
    /// fixed terminals.
    coord: Vec<f64>,
    /// Per net, the positions in its pin list of its extreme pins.
    extremes: Vec<(u32, u32)>,
    /// Per-row scratch: off-diagonal degree, then the fill cursor.
    deg: Vec<u32>,
    sys: B2bSystem,
}

impl B2bRebuilder {
    /// A rebuilder for one axis of `problem`, its iterate all zeros and
    /// its coordinate array already large enough for the fixed terminals.
    pub fn new(axis: Axis, problem: &PlacementProblem) -> Self {
        let movables = problem.movable_count();
        let mut coord = Vec::with_capacity(movables + problem.fixed.len());
        coord.resize(movables, 0.0);
        Self {
            axis,
            movables,
            coord,
            extremes: Vec::new(),
            deg: Vec::new(),
            sys: B2bSystem::default(),
        }
    }

    /// The movables' coordinates on this axis.
    pub fn iterate(&self) -> &[f64] {
        &self.coord[..self.movables]
    }

    /// The movables' coordinates on this axis, for setting the start
    /// positions and for the caller's clamps between solves.
    pub fn iterate_mut(&mut self) -> &mut [f64] {
        &mut self.coord[..self.movables]
    }

    /// Pass 1 of a rebuild at the iterate: the fixed terminals'
    /// coordinates appended to it, every net's extreme pins and each
    /// row's off-diagonal degree. Returns the system's entry count.
    ///
    /// # Panics
    ///
    /// Panics if `problem` does not have the rebuilder's movable count.
    fn first_pass(&mut self, problem: &PlacementProblem) -> usize {
        let m = problem.movable_count();
        assert_eq!(m, self.movables, "movable count != iterate length");
        // The fixed terminals' coordinates follow the iterate, so the
        // net kernel looks every pin up in one flat array.
        self.coord.truncate(m);
        match self.axis {
            Axis::X => self.coord.extend(problem.fixed.iter().map(|f| f.0)),
            Axis::Y => self.coord.extend(problem.fixed.iter().map(|f| f.1)),
        }
        self.deg.clear();
        self.deg.resize(m, 0);
        let entries = extremes_and_degrees(
            &problem.hypergraph,
            &self.coord,
            &mut self.extremes,
            &mut self.deg,
        );
        assert!(
            entries < u32::MAX as usize,
            "B2B entry count overflows the u32 arena index"
        );
        entries
    }

    /// Sizes the entry arenas, before the first rebuild, for the larger of
    /// the system at the iterate and `[val, col_idx]` items — what a
    /// caller that borrows them first (spreading) takes — so neither use
    /// has to replace an arena the other sized: a replaced arena's pages
    /// would stay resident as a hole in the heap. Runs pass 1 at the
    /// iterate.
    pub fn reserve_entries(&mut self, problem: &PlacementProblem, [val, col_idx]: [usize; 2]) {
        let entries = self.first_pass(problem);
        let reserve = |len: usize, at_least: usize| entries.max(at_least).saturating_sub(len);
        self.sys.val.reserve_exact(reserve(self.sys.val.len(), val));
        self.sys
            .col_idx
            .reserve_exact(reserve(self.sys.col_idx.len(), col_idx));
    }

    /// The iterate, beside the last system's entry arenas (`val`, then
    /// `col_idx`). These are spent once [`B2bRebuilder::solve`] has run:
    /// the next rebuild clears and refills them before it reads them, so
    /// the caller may use them as work space in between — the placer
    /// lends them to spreading — and may leave them holding anything, at
    /// any length. Until that rebuild the system is not solvable.
    pub fn iterate_and_spent_arenas(&mut self) -> (&[f64], &mut Vec<f64>, &mut Vec<u32>) {
        (
            &self.coord[..self.movables],
            &mut self.sys.val,
            &mut self.sys.col_idx,
        )
    }

    /// (Re)builds the B2B system linearized at the iterate, straight from
    /// the nets in two passes: the first finds every net's extreme pins
    /// and counts the rows' off-diagonal degrees, the second computes the
    /// edge weights and scatters them in net-then-pair order, which fixes
    /// every row's entry order and every `diag`/`rhs` accumulation order.
    /// The right-hand side is assembled in `scratch`, for the
    /// [`B2bRebuilder::solve`] that follows.
    ///
    /// # Panics
    ///
    /// Panics if `problem` does not have the rebuilder's movable count.
    pub fn rebuild(
        &mut self,
        problem: &PlacementProblem,
        anchors: Option<Anchors<'_>>,
        scratch: &mut CgScratch,
    ) {
        let m = problem.movable_count();
        self.first_pass(problem);
        let Self {
            axis,
            coord,
            extremes,
            deg,
            sys,
            ..
        } = self;
        sys.diag.clear();
        sys.diag.resize(m, 0.0);
        let rhs = scratch.rhs(m);
        // `deg` turns into each row's fill cursor.
        sys.layout_rows(deg);
        scatter_nets(
            problem,
            extremes,
            coord,
            deg,
            &mut sys.diag,
            rhs,
            &mut sys.col_idx,
            &mut sys.val,
        );
        if let Some(Anchors { targets, weight }) = anchors {
            let rows = sys.diag.iter_mut().zip(rhs.iter_mut()).zip(&targets[..m]);
            match axis {
                Axis::X => rows.for_each(|((d, r), t)| {
                    *d += weight;
                    *r += weight * t.0;
                }),
                Axis::Y => rows.for_each(|((d, r), t)| {
                    *d += weight;
                    *r += weight * t.1;
                }),
            }
        }
        // Isolated objects stay where they are.
        for ((d, r), &c) in sys.diag.iter_mut().zip(rhs.iter_mut()).zip(coord.iter()) {
            if *d == 0.0 {
                *d = 1.0;
                *r = c;
            }
        }
    }

    /// Solves the last assembled system in place: CG from the iterate,
    /// which holds the solution on return (see [`B2bSystem::solve_into`]).
    /// `scratch` must hold the right-hand side the last
    /// [`B2bRebuilder::rebuild`] assembled; the solve consumes it.
    pub fn solve(&mut self, scratch: &mut CgScratch, max_iters: usize, tol: f64) -> CgStats {
        let Self {
            movables,
            coord,
            sys,
            ..
        } = self;
        sys.solve_into(&mut coord[..*movables], scratch, max_iters, tol)
    }

    /// Sets the iterate to `positions` on this axis and rebuilds there —
    /// the tests' way to linearize at a given placement.
    #[cfg(test)]
    fn rebuild_at(
        &mut self,
        problem: &PlacementProblem,
        positions: &[(f64, f64)],
        anchors: Option<Anchors<'_>>,
        scratch: &mut CgScratch,
    ) {
        let axis = self.axis;
        for (c, p) in self.iterate_mut().iter_mut().zip(positions) {
            *c = match axis {
                Axis::X => p.0,
                Axis::Y => p.1,
            };
        }
        self.rebuild(problem, anchors, scratch);
    }
}

impl B2bSystem {
    /// Builds the B2B system for one axis, linearized at `positions`, and
    /// its right-hand side: a one-shot rebuild, the reference the tests
    /// hold the placer's warm rebuilds to.
    #[cfg(test)]
    fn build(
        problem: &PlacementProblem,
        positions: &[(f64, f64)],
        axis: Axis,
        anchors: Option<Anchors<'_>>,
    ) -> (Self, Vec<f64>) {
        let mut rb = B2bRebuilder::new(axis, problem);
        let mut scratch = CgScratch::default();
        rb.rebuild_at(problem, positions, anchors, &mut scratch);
        (rb.sys, scratch.r)
    }

    /// Number of rows (movable objects).
    #[cfg(test)]
    fn len(&self) -> usize {
        self.diag.len()
    }

    /// Number of stored off-diagonal entries.
    #[cfg(test)]
    fn nnz(&self) -> usize {
        self.val.len()
    }

    /// Row `i`'s off-diagonal entries `(columns, values)`, in assembly
    /// order.
    #[cfg(test)]
    fn row(&self, i: usize) -> (&[u32], &[f64]) {
        let p = self
            .order
            .iter()
            .position(|&r| r as usize == i)
            .expect("row in range");
        let tail = self.bucket[MAX_EXACT_ROW + 1] as usize;
        let entries = if p < tail {
            let d = (0..=MAX_EXACT_ROW)
                .rfind(|&d| self.bucket[d] as usize <= p)
                .expect("bucket 0 starts at 0");
            let first = self.bucket_entry[d] as usize + (p - self.bucket[d] as usize) * d;
            first..first + d
        } else {
            self.tail_ptr[p - tail] as usize..self.tail_ptr[p - tail + 1] as usize
        };
        (&self.col_idx[entries.clone()], &self.val[entries])
    }

    /// Solves `A x = rhs` with Jacobi-preconditioned CG from `x0` — the
    /// allocating test convenience over the placer's in-place solve.
    #[cfg(test)]
    fn solve(&self, rhs: &[f64], x0: &[f64], max_iters: usize, tol: f64) -> Vec<f64> {
        let mut x = x0.to_vec();
        let mut scratch = CgScratch::default();
        scratch.rhs(rhs.len()).copy_from_slice(rhs);
        self.solve_into(&mut x, &mut scratch, max_iters, tol);
        x
    }

    /// Assembles a system matrix directly from CSR parts (used by the
    /// eDensity backend's Poisson grid so it can reuse the CG kernels
    /// verbatim). `row_ptr`/`col_idx`/`val` hold the off-diagonal entries
    /// with the `apply` convention `(A x)_i = diag_i x_i − Σ_j val_ij x_j`.
    ///
    /// # Panics
    ///
    /// Panics if the parts disagree in length or a column is out of range.
    pub(crate) fn from_parts(
        diag: Vec<f64>,
        row_ptr: &[u32],
        col_idx: &[u32],
        val: &[f64],
    ) -> Self {
        let n = diag.len();
        assert!(row_ptr.len() == n + 1 && col_idx.len() == val.len());
        assert!(col_idx.iter().all(|&j| (j as usize) < n));
        let mut sys = Self {
            diag,
            ..Self::default()
        };
        let mut cursor: Vec<u32> = row_ptr.windows(2).map(|w| w[1] - w[0]).collect();
        sys.layout_rows(&mut cursor);
        for (i, &at) in cursor.iter().enumerate() {
            let src = row_ptr[i] as usize..row_ptr[i + 1] as usize;
            let dst = at as usize..at as usize + src.len();
            sys.col_idx[dst.clone()].copy_from_slice(&col_idx[src.clone()]);
            sys.val[dst].copy_from_slice(&val[src]);
        }
        sys
    }

    /// Lays the rows out by off-diagonal count with a counting sort:
    /// fills `order`/`bucket`/`bucket_entry`/`tail_ptr` and sizes
    /// `col_idx`/`val`. On entry `deg[i]` is row `i`'s entry count; on exit
    /// it is the index of the row's first entry — the caller's fill cursor.
    fn layout_rows(&mut self, deg: &mut [u32]) {
        const TAIL: usize = MAX_EXACT_ROW + 1;
        let n = deg.len();
        let mut count = [0u32; TAIL + 1];
        for &d in deg.iter() {
            count[(d as usize).min(TAIL)] += 1;
        }
        let mut next = [0u32; TAIL + 1];
        let (mut start, mut entries) = (0, 0);
        for d in 0..=TAIL {
            self.bucket[d] = start;
            next[d] = start;
            start += count[d];
            if d <= MAX_EXACT_ROW {
                self.bucket_entry[d] = entries;
                entries += d as u32 * count[d];
            }
        }
        self.order.resize(n, 0);
        for (i, &d) in deg.iter().enumerate() {
            let p = &mut next[(d as usize).min(TAIL)];
            self.order[*p as usize] = i as u32;
            *p += 1;
        }
        // Entries in storage order: the exact buckets' rows back to back,
        // then the tail's.
        let tail = self.bucket[TAIL] as usize;
        self.tail_ptr.clear();
        let mut entry = 0;
        for (p, &i) in self.order.iter().enumerate() {
            if p >= tail {
                self.tail_ptr.push(entry);
            }
            entry += std::mem::replace(&mut deg[i as usize], entry);
        }
        self.tail_ptr.push(entry);
        refill(&mut self.col_idx, entry as usize, 0);
        refill(&mut self.val, entry as usize, 0.0);
    }

    /// In-place Jacobi-preconditioned CG on the fused kernels
    /// ([`crate::kernels`]): two vector sweeps and one SpMV per iteration,
    /// all serial and fixed-order, so the iterates are bit-identical at
    /// every thread count. `x` holds the start on entry and the solution
    /// on exit; `scratch` holds the right-hand side on entry (written
    /// through [`CgScratch::rhs`]) and the final residual on exit, and all
    /// work vectors and reduction partials live in it, so a solve allocates
    /// nothing once the scratch has warmed up. Records nothing: the
    /// placer reports its lower-bound solves on the `place.cg.*` channel.
    ///
    /// # Panics
    ///
    /// Panics if `x` or the scratch's right-hand side is not one element
    /// per row.
    pub(crate) fn solve_into(
        &self,
        x: &mut [f64],
        scratch: &mut CgScratch,
        max_iters: usize,
        tol: f64,
    ) -> CgStats {
        let n = self.diag.len();
        assert_eq!(x.len(), n, "start vector length != system size");
        let CgScratch { r, p, ap, parts } = scratch;
        assert_eq!(r.len(), n, "right-hand side length != system size");
        p.resize(n, 0.0);
        ap.resize(n, 0.0);
        let rhs_norm: f64 = dot(r, r, parts).sqrt().max(1e-30);
        self.apply_into(x, ap);
        let rr0 = kernels::sub_dot(r, ap, parts);
        // `A·x` is spent: `ap` holds the preconditioned residual `z` until
        // the next SpMV overwrites it.
        let mut rz = kernels::jacobi_dot(ap, r, &self.diag, parts);
        p.copy_from_slice(ap);
        // Early exit on an already-converged starting point: warm-started
        // solves (incremental placement, successive-halving candidates)
        // often begin at the solution and would otherwise burn a full
        // SpMV + update sweep to move nowhere.
        let rel0 = rr0.sqrt() / rhs_norm;
        if rel0 < tol {
            return CgStats {
                iterations: 0,
                relative_residual: rel0,
            };
        }
        let mut iterations = 0;
        let mut relative_residual = rel0;
        for _ in 0..max_iters {
            self.apply_into(p, ap);
            let pap = dot(p, ap, parts);
            if pap <= 0.0 || !pap.is_finite() {
                // Zero, negative or NaN curvature: the direction carries no
                // descent information; stop at the current iterate rather
                // than propagate garbage.
                break;
            }
            let alpha = rz / pap;
            if !alpha.is_finite() {
                break;
            }
            iterations += 1;
            let rr = kernels::fused_step(x, r, p, ap, alpha, parts);
            relative_residual = rr.sqrt() / rhs_norm;
            if relative_residual < tol {
                break;
            }
            // The step has read `A·p`; `z` takes its place.
            let rz_new = kernels::jacobi_dot(ap, r, &self.diag, parts);
            let beta = rz_new / rz;
            if !beta.is_finite() {
                break;
            }
            rz = rz_new;
            kernels::xpay(p, beta, ap);
        }
        CgStats {
            iterations,
            relative_residual,
        }
    }

    /// Sparse matrix-vector product `out = A x`: each exact bucket, then
    /// the long-row tail. Each row accumulates `diag·x` then its entries in
    /// assembly order — bit-identical to the row-order CSR loop.
    ///
    /// # Panics
    ///
    /// Panics if `x` or `out` is not one element per row.
    fn apply_into(&self, x: &[f64], out: &mut [f64]) {
        let n = self.diag.len();
        assert!(x.len() == n && out.len() == n, "vector length != rows");
        for d in 0..=MAX_EXACT_ROW {
            let rows = self.bucket[d] as usize..self.bucket[d + 1] as usize;
            if !rows.is_empty() {
                self.apply_exact_rows(d, rows, x, out);
            }
        }
        let tail = self.bucket[MAX_EXACT_ROW + 1] as usize;
        for (p, bounds) in (tail..n).zip(self.tail_ptr.windows(2)) {
            let i = self.order[p] as usize;
            let entries = bounds[0] as usize..bounds[1] as usize;
            let mut acc = self.diag[i] * x[i];
            for (&j, &w) in self.col_idx[entries.clone()].iter().zip(&self.val[entries]) {
                acc -= w * x[j as usize];
            }
            out[i] = acc;
        }
    }

    /// Dispatches storage positions `rows` of exact bucket `d` to the
    /// kernel compiled for that row length.
    fn apply_exact_rows(&self, d: usize, rows: Range<usize>, x: &[f64], out: &mut [f64]) {
        macro_rules! dispatch {
            ($($len:literal)+) => {
                match d {
                    0 => {
                        for &i in &self.order[rows] {
                            let i = i as usize;
                            out[i] = self.diag[i] * x[i];
                        }
                    }
                    $($len => self.rows_of_len::<$len>(self.bucket_entry[d] as usize, rows, x, out),)+
                    _ => unreachable!("no exact bucket for rows of {d} entries"),
                }
            };
        }
        dispatch!(1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16);
    }

    /// The SpMV of storage positions `rows`, all of which hold rows of
    /// exactly `D` entries from entry `first` on: the entry arenas are
    /// walked as `[_; D]` blocks, so the inner loop has a compile-time trip
    /// count and no slice-bound tests.
    #[inline(always)]
    fn rows_of_len<const D: usize>(
        &self,
        first: usize,
        rows: Range<usize>,
        x: &[f64],
        out: &mut [f64],
    ) {
        let entries = first..first + rows.len() * D;
        let (cols, _) = self.col_idx[entries.clone()].as_chunks::<D>();
        let (vals, _) = self.val[entries].as_chunks::<D>();
        for ((&i, c), v) in self.order[rows].iter().zip(cols).zip(vals) {
            let i = i as usize;
            let mut acc = self.diag[i] * x[i];
            for k in 0..D {
                acc -= v[k] * x[c[k] as usize];
            }
            out[i] = acc;
        }
    }
}

/// The pre-refactor jagged (`Vec<Vec<_>>`) B2B implementation, kept
/// verbatim as the bitwise oracle for the CSR kernels and the two-pass
/// assembly. Test-only; not compiled into the library.
#[cfg(test)]
pub(crate) mod jagged_oracle {
    use super::{Anchors, Axis, MIN_DIST};
    use crate::kernels::VEC_CHUNK;
    use crate::problem::PlacementProblem;

    const EDGE_CHUNK: usize = 512;

    fn dot(a: &[f64], b: &[f64]) -> f64 {
        cp_parallel::par_sum(a.len().min(b.len()), VEC_CHUNK, |r| {
            let mut s = 0.0;
            for i in r {
                s += a[i] * b[i];
            }
            s
        })
    }

    pub struct JaggedSystem {
        pub diag: Vec<f64>,
        pub off: Vec<Vec<(u32, f64)>>,
        pub rhs: Vec<f64>,
    }

    impl JaggedSystem {
        pub fn build(
            problem: &PlacementProblem,
            positions: &[(f64, f64)],
            axis: Axis,
            anchors: Option<Anchors<'_>>,
        ) -> Self {
            let m = problem.movable_count();
            let coord = |v: u32| -> f64 {
                let (x, y) = problem.vertex_pos(v, positions);
                match axis {
                    Axis::X => x,
                    Axis::Y => y,
                }
            };
            let mut sys = Self {
                diag: vec![0.0; m],
                off: vec![Vec::new(); m],
                rhs: vec![0.0; m],
            };
            let add_pair = |sys: &mut Self, u: u32, v: u32, w: f64| {
                let (u, v) = (u as usize, v as usize);
                match (u < m, v < m) {
                    (true, true) => {
                        sys.diag[u] += w;
                        sys.diag[v] += w;
                        sys.off[u].push((v as u32, w));
                        sys.off[v].push((u as u32, w));
                    }
                    (true, false) => {
                        sys.diag[u] += w;
                        sys.rhs[u] += w * coord(v as u32);
                    }
                    (false, true) => {
                        sys.diag[v] += w;
                        sys.rhs[v] += w * coord(u as u32);
                    }
                    (false, false) => {}
                }
            };
            let pair_chunks: Vec<Vec<(u32, u32, f64)>> =
                cp_parallel::par_map_ranges(problem.hypergraph.edge_count(), EDGE_CHUNK, |range| {
                    let mut pairs: Vec<(u32, u32, f64)> = Vec::new();
                    for e in range {
                        let verts = problem.hypergraph.edge(e as u32);
                        let p = verts.len();
                        if p < 2 {
                            continue;
                        }
                        let w_net = problem.net_weights[e];
                        let (mut lo_i, mut hi_i) = (0usize, 0usize);
                        for (i, &v) in verts.iter().enumerate() {
                            if coord(v) < coord(verts[lo_i]) {
                                lo_i = i;
                            }
                            if coord(v) > coord(verts[hi_i]) {
                                hi_i = i;
                            }
                        }
                        let scale = w_net * 2.0 / (p as f64 - 1.0);
                        let b2b_w =
                            |a: u32, b: u32| scale / (coord(a) - coord(b)).abs().max(MIN_DIST);
                        let (lo, hi) = (verts[lo_i], verts[hi_i]);
                        if lo != hi {
                            pairs.push((lo, hi, b2b_w(lo, hi)));
                        }
                        for (i, &v) in verts.iter().enumerate() {
                            if i == lo_i || i == hi_i {
                                continue;
                            }
                            if v != lo {
                                pairs.push((v, lo, b2b_w(v, lo)));
                            }
                            if v != hi {
                                pairs.push((v, hi, b2b_w(v, hi)));
                            }
                        }
                    }
                    pairs
                });
            for chunk in &pair_chunks {
                for &(u, v, w) in chunk {
                    add_pair(&mut sys, u, v, w);
                }
            }
            if let Some(a) = anchors {
                for i in 0..m {
                    let (x, y) = a.targets[i];
                    let target = match axis {
                        Axis::X => x,
                        Axis::Y => y,
                    };
                    sys.diag[i] += a.weight;
                    sys.rhs[i] += a.weight * target;
                }
            }
            for (i, &(x, y)) in positions.iter().take(m).enumerate() {
                if sys.diag[i] == 0.0 {
                    sys.diag[i] = 1.0;
                    sys.rhs[i] = match axis {
                        Axis::X => x,
                        Axis::Y => y,
                    };
                }
            }
            sys
        }

        pub fn solve(&self, x0: &[f64], max_iters: usize, tol: f64) -> Vec<f64> {
            let n = self.diag.len();
            let mut x = x0.to_vec();
            let mut r = vec![0.0; n];
            let ax = self.apply(&x);
            cp_parallel::par_chunks_mut(&mut r, VEC_CHUNK, |_, off, slice| {
                for (k, ri) in slice.iter_mut().enumerate() {
                    *ri = self.rhs[off + k] - ax[off + k];
                }
            });
            let mut z = vec![0.0; n];
            cp_parallel::par_chunks_mut(&mut z, VEC_CHUNK, |_, off, slice| {
                for (k, zi) in slice.iter_mut().enumerate() {
                    *zi = r[off + k] / self.diag[off + k];
                }
            });
            let mut p = z.clone();
            let mut rz = dot(&r, &z);
            let rhs_norm: f64 = dot(&self.rhs, &self.rhs).sqrt().max(1e-30);
            let rel0 = dot(&r, &r).sqrt() / rhs_norm;
            if rel0 < tol {
                return x;
            }
            for _ in 0..max_iters {
                let ap = self.apply(&p);
                let pap = dot(&p, &ap);
                if pap <= 0.0 || !pap.is_finite() {
                    break;
                }
                let alpha = rz / pap;
                if !alpha.is_finite() {
                    break;
                }
                cp_parallel::par_chunks_mut(&mut x, VEC_CHUNK, |_, off, slice| {
                    for (k, xi) in slice.iter_mut().enumerate() {
                        *xi += alpha * p[off + k];
                    }
                });
                cp_parallel::par_chunks_mut(&mut r, VEC_CHUNK, |_, off, slice| {
                    for (k, ri) in slice.iter_mut().enumerate() {
                        *ri -= alpha * ap[off + k];
                    }
                });
                let rnorm = dot(&r, &r).sqrt();
                if rnorm / rhs_norm < tol {
                    break;
                }
                cp_parallel::par_chunks_mut(&mut z, VEC_CHUNK, |_, off, slice| {
                    for (k, zi) in slice.iter_mut().enumerate() {
                        *zi = r[off + k] / self.diag[off + k];
                    }
                });
                let rz_new = dot(&r, &z);
                let beta = rz_new / rz;
                if !beta.is_finite() {
                    break;
                }
                rz = rz_new;
                cp_parallel::par_chunks_mut(&mut p, VEC_CHUNK, |_, off, slice| {
                    for (k, pi) in slice.iter_mut().enumerate() {
                        *pi = z[off + k] + beta * *pi;
                    }
                });
            }
            x
        }

        pub fn apply(&self, x: &[f64]) -> Vec<f64> {
            let n = self.diag.len();
            let mut out = vec![0.0; n];
            cp_parallel::par_chunks_mut(&mut out, VEC_CHUNK, |_, off, slice| {
                for (k, oi) in slice.iter_mut().enumerate() {
                    let i = off + k;
                    let mut acc = self.diag[i] * x[i];
                    for &(j, w) in &self.off[i] {
                        acc -= w * x[j as usize];
                    }
                    *oi = acc;
                }
            });
            out
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::Object;
    use crate::soa::PlacementSoa;
    use crate::spreading::{spread_soa, SpreadArenas};
    use cp_graph::Hypergraph;
    use cp_netlist::floorplan::Rect;

    fn line_problem() -> PlacementProblem {
        // fixed(0,0) -- m0 -- m1 -- fixed(9,0); 2-pin nets.
        PlacementProblem {
            movable: vec![
                Object {
                    width: 1.0,
                    height: 1.0,
                },
                Object {
                    width: 1.0,
                    height: 1.0,
                },
            ]
            .into(),
            fixed: vec![(0.0, 0.0), (9.0, 0.0)],
            hypergraph: Hypergraph::new(
                4,
                vec![(vec![2, 0], 1.0), (vec![0, 1], 1.0), (vec![1, 3], 1.0)],
            )
            .into(),
            net_weights: vec![1.0, 1.0, 1.0],
            core: Rect::new(0.0, 0.0, 9.0, 9.0),
            region: vec![None, None],
            seed_positions: None,
            blockages: Vec::new(),
            density_target: 0.9,
        }
    }

    /// Two systems and their right-hand sides are equal bit for bit.
    fn assert_sys_bitwise_eq((a, a_rhs): (&B2bSystem, &[f64]), (b, b_rhs): (&B2bSystem, &[f64])) {
        assert_eq!(a.order, b.order);
        assert_eq!(a.bucket, b.bucket);
        assert_eq!(a.bucket_entry, b.bucket_entry);
        assert_eq!(a.tail_ptr, b.tail_ptr);
        assert_eq!(a.col_idx, b.col_idx);
        assert_eq!(bits(&a.diag), bits(&b.diag));
        assert_eq!(bits(&a.val), bits(&b.val));
        assert_eq!(bits(a_rhs), bits(b_rhs));
    }

    fn assert_matches_oracle(
        p: &PlacementProblem,
        pos: &[(f64, f64)],
        axis: Axis,
        anchors: Option<Anchors<'_>>,
    ) {
        let (csr, rhs) = B2bSystem::build(p, pos, axis, anchors);
        let jag = jagged_oracle::JaggedSystem::build(p, pos, axis, anchors);
        assert_eq!(bits(&csr.diag), bits(&jag.diag));
        assert_eq!(bits(&rhs), bits(&jag.rhs));
        // Row contents and order: the CSR row must equal the jagged row.
        for i in 0..csr.len() {
            let (cols, vals) = csr.row(i);
            let csr_row: Vec<(u32, u64)> = cols
                .iter()
                .zip(vals)
                .map(|(&j, &w)| (j, w.to_bits()))
                .collect();
            let jag_row: Vec<(u32, u64)> =
                jag.off[i].iter().map(|&(j, w)| (j, w.to_bits())).collect();
            assert_eq!(csr_row, jag_row, "row {i}");
        }
        // SpMV and full solves agree bit for bit.
        let m = p.movable_count();
        let x0: Vec<f64> = pos.iter().take(m).map(|&(x, _)| x * 0.75 + 0.1).collect();
        let mut ap = vec![0.0; m];
        csr.apply_into(&x0, &mut ap);
        assert_eq!(bits(&ap), bits(&jag.apply(&x0)));
        let solved = csr.solve(&rhs, &x0, 60, 1e-9);
        assert_eq!(bits(&solved), bits(&jag.solve(&x0, 60, 1e-9)));
    }

    #[test]
    fn csr_matches_jagged_oracle_on_line() {
        let p = line_problem();
        assert_matches_oracle(&p, &[(20.0, 3.0), (30.0, -2.0)], Axis::X, None);
        assert_matches_oracle(&p, &[(20.0, 3.0), (30.0, -2.0)], Axis::Y, None);
        let targets = [(1.0, 6.0), (8.0, 3.0)];
        for axis in [Axis::X, Axis::Y] {
            assert_matches_oracle(
                &p,
                &[(4.0, 1.0), (5.0, 2.0)],
                axis,
                Some(Anchors {
                    targets: &targets,
                    weight: 0.5,
                }),
            );
        }
    }

    #[test]
    fn reused_rebuild_matches_fresh_build() {
        let p = line_problem();
        let mut rb = B2bRebuilder::new(Axis::X, &p);
        let mut scratch = CgScratch::default();
        let fresh = |pos: &[(f64, f64)]| B2bSystem::build(&p, pos, Axis::X, None);
        let pos0 = vec![(20.0, 0.0), (30.0, 0.0)];
        rb.rebuild_at(&p, &pos0, None, &mut scratch);
        let (sys0, rhs0) = fresh(&pos0);
        assert_sys_bitwise_eq((&rb.sys, &scratch.r), (&sys0, &rhs0));
        // Move one cell: the rebuild on the warm buffers must equal a
        // from-scratch build.
        let pos1 = vec![(20.0, 0.0), (7.5, 0.0)];
        rb.rebuild_at(&p, &pos1, None, &mut scratch);
        let (sys1, rhs1) = fresh(&pos1);
        assert_sys_bitwise_eq((&rb.sys, &scratch.r), (&sys1, &rhs1));
        // No movement at all, after a solve has spent the right-hand
        // side: still identical.
        rb.solve(&mut scratch, 100, 1e-10);
        rb.rebuild_at(&p, &pos1, None, &mut scratch);
        assert_sys_bitwise_eq((&rb.sys, &scratch.r), (&sys1, &rhs1));
        // Nor over entry arenas a spread just wrote: sort keys (cell
        // indices as denormal bits), orders, ranks and staged positions,
        // longer than this system's two entries.
        spread_in_arenas(&p, &mut rb);
        assert!(rb.sys.val.len() > sys1.val.len() && rb.sys.col_idx.len() > sys1.col_idx.len());
        rb.rebuild_at(&p, &pos1, None, &mut scratch);
        assert_sys_bitwise_eq((&rb.sys, &scratch.r), (&sys1, &rhs1));
    }

    #[test]
    fn reserved_entry_arenas_serve_spreading_and_the_rebuild_in_place() {
        // Four movables on three four-pin nets: 30 entries, more than the
        // 8 keys and 16 cells spreading takes on the x axis.
        let mut p = line_problem();
        p.movable = vec![p.movable[0]; 4].into();
        p.region = vec![None; 4];
        p.fixed.clear();
        p.hypergraph = Hypergraph::new(4, vec![(vec![0, 1, 2, 3], 1.0); 3]).into();
        p.net_weights = vec![1.0; 3];
        let pos = [(1.0, 0.0), (4.0, 0.0), (2.0, 0.0), (8.0, 0.0)];
        let mut rb = B2bRebuilder::new(Axis::X, &p);
        rb.rebuild_at(&p, &pos, None, &mut CgScratch::default());
        let entries = rb.sys.val.len();
        let [need, _] = SpreadArenas::lengths(4);
        assert!(entries > need[0].max(need[1]), "{entries} entries");
        let mut rb = B2bRebuilder::new(Axis::X, &p);
        for (c, &(x, _)) in rb.iterate_mut().iter_mut().zip(&pos) {
            *c = x;
        }
        rb.reserve_entries(&p, need);
        let at = |rb: &B2bRebuilder| (rb.sys.val.as_ptr(), rb.sys.col_idx.as_ptr());
        let reserved = at(&rb);
        spread_in_arenas(&p, &mut rb);
        rb.rebuild(&p, None, &mut CgScratch::default());
        assert_eq!(at(&rb), reserved, "an arena was replaced");
        assert_eq!(rb.sys.val.len(), entries);
    }

    /// Spreads `rb`'s iterate on `rb`'s spent entry arenas (as the x
    /// axis's, whatever its axis) and a fresh rebuilder's, as the placer
    /// does between a solve and the next rebuild.
    pub(super) fn spread_in_arenas(p: &PlacementProblem, rb: &mut B2bRebuilder) {
        let mut other = B2bRebuilder::new(Axis::Y, p);
        let soa = PlacementSoa::from_problem(p);
        let (xs, keys_x, cells_x) = rb.iterate_and_spent_arenas();
        let (ys, keys_y, cells_y) = other.iterate_and_spent_arenas();
        let arenas = SpreadArenas {
            keys: [keys_x, keys_y],
            cells: [cells_x, cells_y],
        };
        spread_soa(p, &soa, xs, ys, arenas, &mut Vec::new());
    }

    #[test]
    fn solve_into_matches_allocating_solve() {
        let p = line_problem();
        let pos = vec![(20.0, 0.0), (30.0, 0.0)];
        let (sys, rhs) = B2bSystem::build(&p, &pos, Axis::X, None);
        let reference = sys.solve(&rhs, &[20.0, 30.0], 100, 1e-10);
        let mut scratch = CgScratch::default();
        let mut rb = B2bRebuilder::new(Axis::X, &p);
        rb.rebuild_at(&p, &pos, None, &mut scratch);
        rb.solve(&mut scratch, 100, 1e-10);
        assert_eq!(bits(&reference), bits(rb.iterate()));
        // Re-using warm scratch must not change anything either.
        rb.rebuild_at(&p, &pos, None, &mut scratch);
        rb.solve(&mut scratch, 100, 1e-10);
        assert_eq!(bits(&reference), bits(rb.iterate()));
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// The `(L + εI)` system of a `side × side` 4-neighbour grid, and a
    /// right-hand side that varies from cell to cell.
    fn grid_system(side: usize) -> (B2bSystem, Vec<f64>) {
        let n = side * side;
        let mut diag = vec![1e-3; n];
        let (mut row_ptr, mut col_idx) = (vec![0u32], Vec::new());
        for (i, d) in diag.iter_mut().enumerate() {
            let (x, y) = (i % side, i / side);
            let neighbours = [
                (x > 0, i.wrapping_sub(1)),
                (x + 1 < side, i + 1),
                (y > 0, i.wrapping_sub(side)),
                (y + 1 < side, i + side),
            ];
            for (_, j) in neighbours.into_iter().filter(|&(inside, _)| inside) {
                col_idx.push(j as u32);
                *d += 1.0;
            }
            row_ptr.push(col_idx.len() as u32);
        }
        let val = vec![1.0; col_idx.len()];
        let rhs = (0..n)
            .map(|i| ((i * 37 % 11) as f64 - 5.0) * 0.25)
            .collect();
        (B2bSystem::from_parts(diag, &row_ptr, &col_idx, &val), rhs)
    }

    #[test]
    fn shared_scratch_solves_like_fresh_ones_across_sizes() {
        // 3×3 fits one reduction chunk; 40×40 spans two, so its reductions
        // go through the scratch's partials.
        let (small, large) = (grid_system(3), grid_system(40));
        let solve = |(sys, rhs): &(B2bSystem, Vec<f64>), scratch: &mut CgScratch| {
            let mut x = vec![0.5; rhs.len()];
            scratch.rhs(rhs.len()).copy_from_slice(rhs);
            let stats = sys.solve_into(&mut x, scratch, 50, 1e-12);
            (
                bits(&x),
                stats.iterations,
                stats.relative_residual.to_bits(),
            )
        };
        let want_large = solve(&large, &mut CgScratch::default());
        let want_small = solve(&small, &mut CgScratch::default());
        assert!(want_large.1 > 1 && want_small.1 > 1);
        let mut shared = CgScratch::default();
        for (case, want) in [
            (&large, &want_large),
            (&small, &want_small),
            (&large, &want_large),
        ] {
            assert_eq!(&solve(case, &mut shared), want);
        }
        // The assembler's right-hand side too: a rebuild on the scratch the
        // large system just left solves like one on a fresh scratch.
        let p = line_problem();
        let pos = [(20.0, 0.0), (30.0, 0.0)];
        let rebuild_and_solve = |scratch: &mut CgScratch| {
            let mut rb = B2bRebuilder::new(Axis::X, &p);
            rb.rebuild_at(&p, &pos, None, scratch);
            rb.solve(scratch, 100, 1e-10);
            bits(rb.iterate())
        };
        assert_eq!(
            rebuild_and_solve(&mut shared),
            rebuild_and_solve(&mut CgScratch::default())
        );
    }

    #[test]
    fn pulls_stray_cells_into_the_hull() {
        // B2B reproduces HPWL, which is flat while movables stay between
        // their net extremes — so the meaningful invariant is that cells
        // starting *outside* the fixed hull converge into it and the
        // ordering along the chain is preserved.
        let p = line_problem();
        let mut pos = vec![(20.0, 0.0), (30.0, 0.0)];
        for _ in 0..30 {
            let (sys, rhs) = B2bSystem::build(&p, &pos, Axis::X, None);
            let x = sys.solve(&rhs, &[pos[0].0, pos[1].0], 100, 1e-10);
            pos[0].0 = x[0];
            pos[1].0 = x[1];
        }
        assert!(pos[0].0 > -0.5 && pos[0].0 < 9.5, "{pos:?}");
        assert!(pos[1].0 > -0.5 && pos[1].0 < 9.5, "{pos:?}");
        assert!(pos[0].0 <= pos[1].0 + 1e-9, "{pos:?}");
    }

    #[test]
    fn converged_start_returns_unchanged() {
        // Solve to convergence, then re-solve from the solution: the
        // initial-residual check must return the start bit-for-bit without
        // taking a CG step.
        let p = line_problem();
        let pos = vec![(3.0, 0.0), (6.0, 0.0)];
        let (sys, rhs) = B2bSystem::build(&p, &pos, Axis::X, None);
        let solved = sys.solve(&rhs, &[pos[0].0, pos[1].0], 200, 1e-12);
        let again = sys.solve(&rhs, &solved, 200, 1e-12);
        assert_eq!(bits(&solved), bits(&again));
    }

    #[test]
    fn heavier_net_wins() {
        // One movable between fixed pins at 0 and 9; the net to 9 carries
        // 10× the weight, so the linear HPWL objective is minimized at 9.
        let p = PlacementProblem {
            movable: vec![Object {
                width: 1.0,
                height: 1.0,
            }]
            .into(),
            fixed: vec![(0.0, 0.0), (9.0, 0.0)],
            hypergraph: Hypergraph::new(3, vec![(vec![0, 1], 1.0), (vec![0, 2], 1.0)]).into(),
            net_weights: vec![1.0, 10.0],
            core: Rect::new(0.0, 0.0, 9.0, 9.0),
            region: vec![None],
            seed_positions: None,
            blockages: Vec::new(),
            density_target: 0.9,
        };
        let mut pos = vec![(4.5, 0.0)];
        for _ in 0..40 {
            let (sys, rhs) = B2bSystem::build(&p, &pos, Axis::X, None);
            let x = sys.solve(&rhs, &[pos[0].0], 100, 1e-10);
            pos[0].0 = x[0];
        }
        assert!(pos[0].0 > 7.5, "{pos:?}");
    }

    #[test]
    fn anchors_pull_toward_targets() {
        let p = line_problem();
        let pos = vec![(4.5, 0.0), (4.5, 0.0)];
        let targets = [(1.0, 0.0), (8.0, 0.0)];
        let (sys, rhs) = B2bSystem::build(
            &p,
            &pos,
            Axis::X,
            Some(Anchors {
                targets: &targets,
                weight: 100.0, // dominates the nets
            }),
        );
        let x = sys.solve(&rhs, &[4.5, 4.5], 200, 1e-12);
        assert!((x[0] - 1.0).abs() < 0.6, "{x:?}");
        assert!((x[1] - 8.0).abs() < 0.6, "{x:?}");
    }

    #[test]
    fn isolated_objects_stay_put() {
        let p = PlacementProblem {
            movable: vec![Object {
                width: 1.0,
                height: 1.0,
            }]
            .into(),
            fixed: vec![],
            hypergraph: Hypergraph::new(1, vec![]).into(),
            net_weights: vec![],
            core: Rect::new(0.0, 0.0, 10.0, 10.0),
            region: vec![None],
            seed_positions: None,
            blockages: Vec::new(),
            density_target: 0.9,
        };
        let pos = vec![(3.0, 7.0)];
        let solve = |axis: Axis, x0: f64| {
            let (sys, rhs) = B2bSystem::build(&p, &pos, axis, None);
            sys.solve(&rhs, &[x0], 10, 1e-10)
        };
        let (sx, sy) = (solve(Axis::X, 3.0), solve(Axis::Y, 7.0));
        assert!((sx[0] - 3.0).abs() < 1e-9);
        assert!((sy[0] - 7.0).abs() < 1e-9);
    }

    #[test]
    fn y_axis_solve_pulls_into_hull() {
        let mut p = line_problem();
        p.fixed = vec![(0.0, 0.0), (0.0, 9.0)];
        let mut pos = vec![(0.0, -15.0), (0.0, 25.0)];
        for _ in 0..30 {
            let (sys, rhs) = B2bSystem::build(&p, &pos, Axis::Y, None);
            let y = sys.solve(&rhs, &[pos[0].1, pos[1].1], 100, 1e-10);
            pos[0].1 = y[0];
            pos[1].1 = y[1];
        }
        assert!(pos[0].1 > -0.5 && pos[0].1 < 9.5, "{pos:?}");
        assert!(pos[1].1 > -0.5 && pos[1].1 < 9.5, "{pos:?}");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::kernels::VEC_CHUNK;
    use crate::problem::Object;
    use cp_graph::Hypergraph;
    use cp_netlist::floorplan::Rect;
    use proptest::prelude::*;

    /// A randomized placement problem plus start positions and a sparse
    /// perturbation (for the reused-buffer rebuild property).
    #[derive(Debug, Clone)]
    struct Case {
        problem: PlacementProblem,
        pos0: Vec<(f64, f64)>,
        pos1: Vec<(f64, f64)>,
        anchor_weight: f64,
    }

    fn case_strategy() -> impl Strategy<Value = Case> {
        (1usize..8, 0usize..4)
            .prop_flat_map(|(m, f)| {
                let n = (m + f) as u32;
                let nets =
                    prop::collection::vec((prop::collection::vec(0..n, 2..5), 0.25f64..4.0), 0..10);
                let coords = prop::collection::vec(
                    ((-8.0f64..8.0), (-8.0f64..8.0)),
                    m + f + m, // fixed tail + perturbation deltas
                );
                // Which movables move between pos0 and pos1 (sparse):
                // a uniform draw per movable, thresholded below.
                let moved = prop::collection::vec(0.0f64..1.0, m);
                (Just((m, f)), nets, coords, moved, 0.0f64..0.6)
            })
            .prop_map(|((m, f), nets, coords, moved, anchor_weight)| {
                let net_weights: Vec<f64> = nets.iter().map(|(_, w)| *w).collect();
                let edges: Vec<(Vec<u32>, f64)> = nets.into_iter().map(|(v, _)| (v, 1.0)).collect();
                let problem = PlacementProblem {
                    movable: vec![
                        Object {
                            width: 1.0,
                            height: 1.0,
                        };
                        m
                    ]
                    .into(),
                    fixed: coords[m..m + f].to_vec(),
                    hypergraph: Hypergraph::new(m + f, edges).into(),
                    net_weights,
                    core: Rect::new(-10.0, -10.0, 10.0, 10.0),
                    region: vec![None; m],
                    seed_positions: None,
                    blockages: Vec::new(),
                    density_target: 0.9,
                };
                let pos0: Vec<(f64, f64)> = coords[..m].to_vec();
                let pos1: Vec<(f64, f64)> = (0..m)
                    .map(|i| {
                        if moved[i] < 0.3 {
                            coords[m + f + i]
                        } else {
                            pos0[i]
                        }
                    })
                    .collect();
                Case {
                    problem,
                    pos0,
                    pos1,
                    anchor_weight,
                }
            })
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    type SysFingerprint = (Vec<u32>, Vec<u32>, Vec<u32>, Vec<u64>, Vec<u64>, Vec<u64>);

    /// A system and its right-hand side, as comparable bits.
    fn sys_fingerprint(s: &B2bSystem, rhs: &[f64]) -> SysFingerprint {
        (
            s.order.clone(),
            s.tail_ptr.clone(),
            s.col_idx.clone(),
            bits(&s.diag),
            bits(&s.val),
            bits(rhs),
        )
    }

    /// A random system in plain CSR form plus an input vector: zero, one,
    /// a handful or a few 1,024-row chunks' worth of rows, each row empty,
    /// short (an exact bucket) or longer than the largest exact bucket.
    #[derive(Debug, Clone)]
    struct CsrCase {
        diag: Vec<f64>,
        row_ptr: Vec<u32>,
        col_idx: Vec<u32>,
        val: Vec<f64>,
        x: Vec<f64>,
    }

    fn csr_strategy() -> impl Strategy<Value = CsrCase> {
        (0u32..8, 2usize..24, VEC_CHUNK + 1..3 * VEC_CHUNK)
            .prop_flat_map(|(class, few, many)| {
                let n = match class {
                    0 => 0,
                    1 => 1,
                    2..=5 => few,
                    _ => many,
                };
                prop::collection::vec(0usize..2 * MAX_EXACT_ROW + 8, n)
            })
            .prop_flat_map(|lens| {
                let n = lens.len();
                let nnz: usize = lens.iter().sum();
                (
                    Just(lens),
                    prop::collection::vec(0..n.max(1) as u32, nnz),
                    prop::collection::vec(-2.0f64..2.0, nnz),
                    prop::collection::vec(0.5f64..4.0, n),
                    prop::collection::vec(-8.0f64..8.0, n),
                )
            })
            .prop_map(|(lens, col_idx, val, diag, x)| {
                let mut row_ptr = vec![0u32];
                for len in lens {
                    row_ptr.push(row_ptr[row_ptr.len() - 1] + len as u32);
                }
                CsrCase {
                    diag,
                    row_ptr,
                    col_idx,
                    val,
                    x,
                }
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The bucketed SpMV equals the plain serial row-order CSR loop
        /// bit for bit, at every thread count, and `row` hands back each
        /// row's entries in their original order.
        #[test]
        fn bucketed_spmv_matches_row_order_csr(case in csr_strategy()) {
            let n = case.diag.len();
            let entries = |i: usize| case.row_ptr[i] as usize..case.row_ptr[i + 1] as usize;
            let want: Vec<f64> = (0..n)
                .map(|i| {
                    let mut acc = case.diag[i] * case.x[i];
                    for e in entries(i) {
                        acc -= case.val[e] * case.x[case.col_idx[e] as usize];
                    }
                    acc
                })
                .collect();
            let sys = B2bSystem::from_parts(
                case.diag.clone(), &case.row_ptr, &case.col_idx, &case.val,
            );
            prop_assert_eq!(sys.len(), n);
            prop_assert_eq!(sys.nnz(), case.val.len());
            for i in 0..n {
                let (cols, vals) = sys.row(i);
                prop_assert_eq!(cols, &case.col_idx[entries(i)]);
                prop_assert_eq!(bits(vals), bits(&case.val[entries(i)]));
            }
            for threads in [1usize, 2, 4, 8] {
                let mut out = vec![f64::NAN; n];
                cp_parallel::with_threads(threads, || sys.apply_into(&case.x, &mut out));
                prop_assert_eq!(bits(&out), bits(&want), "threads = {}", threads);
            }
        }

        /// CSR build + SpMV + solve are bitwise-identical to the
        /// pre-refactor jagged implementation.
        #[test]
        fn csr_matches_jagged_oracle(case in case_strategy()) {
            let m = case.problem.movable_count();
            let targets: Vec<(f64, f64)> =
                (0..m).map(|i| (i as f64 - 2.0, 3.0 - i as f64)).collect();
            let anchors = Anchors { targets: &targets, weight: case.anchor_weight };
            for axis in [Axis::X, Axis::Y] {
                for a in [None, Some(anchors)] {
                    let (csr, rhs) = B2bSystem::build(&case.problem, &case.pos0, axis, a);
                    let jag = jagged_oracle::JaggedSystem::build(
                        &case.problem, &case.pos0, axis, a,
                    );
                    prop_assert_eq!(bits(&csr.diag), bits(&jag.diag));
                    prop_assert_eq!(bits(&rhs), bits(&jag.rhs));
                    let x0: Vec<f64> = case.pos0.iter()
                        .map(|&(x, y)| match axis { Axis::X => x, Axis::Y => y })
                        .collect();
                    let mut ap = vec![0.0; m];
                    csr.apply_into(&x0, &mut ap);
                    prop_assert_eq!(bits(&ap), bits(&jag.apply(&x0)));
                    let s_csr = csr.solve(&rhs, &x0, 40, 1e-9);
                    let s_jag = jag.solve(&x0, 40, 1e-9);
                    prop_assert_eq!(bits(&s_csr), bits(&s_jag));
                }
            }
        }

        /// A rebuild on buffers that held the previous linearization, or
        /// that a spread has just worked in, equals a from-scratch build
        /// at the new positions, bit for bit.
        #[test]
        fn reused_rebuild_matches_fresh(case in case_strategy()) {
            for axis in [Axis::X, Axis::Y] {
                let mut rb = B2bRebuilder::new(axis, &case.problem);
                let mut scratch = CgScratch::default();
                rb.rebuild_at(&case.problem, &case.pos0, None, &mut scratch);
                let (fresh0, rhs0) = B2bSystem::build(&case.problem, &case.pos0, axis, None);
                prop_assert_eq!(
                    sys_fingerprint(&rb.sys, &scratch.r), sys_fingerprint(&fresh0, &rhs0)
                );
                rb.rebuild_at(&case.problem, &case.pos1, None, &mut scratch);
                let (fresh1, rhs1) = B2bSystem::build(&case.problem, &case.pos1, axis, None);
                prop_assert_eq!(
                    sys_fingerprint(&rb.sys, &scratch.r), sys_fingerprint(&fresh1, &rhs1)
                );
                super::tests::spread_in_arenas(&case.problem, &mut rb);
                rb.rebuild_at(&case.problem, &case.pos1, None, &mut scratch);
                prop_assert_eq!(
                    sys_fingerprint(&rb.sys, &scratch.r), sys_fingerprint(&fresh1, &rhs1)
                );
            }
        }

        /// Build + solve are bitwise-invariant across 1/4/8 threads.
        #[test]
        fn thread_count_does_not_change_bits(case in case_strategy()) {
            let run = |threads: usize| {
                cp_parallel::with_threads(threads, || {
                    let mut rb = B2bRebuilder::new(Axis::X, &case.problem);
                    let mut scratch = CgScratch::default();
                    rb.rebuild_at(&case.problem, &case.pos0, None, &mut scratch);
                    rb.rebuild_at(&case.problem, &case.pos1, None, &mut scratch);
                    let fp = sys_fingerprint(&rb.sys, &scratch.r);
                    rb.solve(&mut scratch, 40, 1e-9);
                    (fp, bits(rb.iterate()))
                })
            };
            let t1 = run(1);
            let t4 = run(4);
            let t8 = run(8);
            prop_assert_eq!(&t1, &t4);
            prop_assert_eq!(&t1, &t8);
        }
    }
}
