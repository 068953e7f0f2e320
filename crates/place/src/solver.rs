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
//! is bit-identical to a row-order CSR loop. The CG kernels write into
//! caller-owned [`CgScratch`] buffers so a full solve allocates nothing,
//! and [`B2bRebuilder`] caches per-net B2B pairs between outer placement
//! iterations, regenerating only nets whose pin coordinates actually
//! changed (bitwise) since the previous linearization.
//!
//! Everything is deterministic across thread counts: pair generation is
//! chunked over fixed net ranges and consumed in chunk order, SpMV is
//! row-parallel with unchanged per-row accumulation order, and dot
//! products use `cp-parallel`'s fixed-order tree reduction.

use crate::kernels::{self, dot};
use crate::problem::PlacementProblem;
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

/// Hyperedges per parallel chunk when generating B2B pairs.
const EDGE_CHUNK: usize = 512;
/// Rows per parallel chunk in the SpMV (the CG vector kernels' geometry).
const VEC_CHUNK: usize = kernels::VEC_CHUNK;

/// Longest row that gets an exact-length SpMV bucket; rows with more
/// off-diagonal entries share the variable-length tail. B2B rows above
/// this are rare (extreme pins of high-fanout nets — 92 of 53,277 rows at
/// Jpeg 53k, where the rows peak at 4–6 entries) and long enough to
/// amortize their one loop-exit mispredict; 8 and 12 measured 20% and 3%
/// slower (EXPERIMENTS.md, "Placer outer iteration").
const MAX_EXACT_ROW: usize = 16;

/// One B2B two-pin edge: `(u, v, weight)` over global vertex ids.
type Pair = (u32, u32, f64);

/// Convergence facts from one CG solve, for the telemetry channel.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CgStats {
    /// CG iterations taken (0 when the start was already converged).
    pub iterations: usize,
    /// Final relative residual `‖r‖ / ‖b‖`.
    pub relative_residual: f64,
}

/// Feeds one solve's stats into the metrics registry (no-op below trace
/// level `Full`). [`B2bSystem::solve_into`] calls it itself; the placer's
/// axis-parallel lower bound runs [`B2bSystem::cg`] on two threads and
/// records X then Y afterwards, so the registry sees one fixed order.
pub(crate) fn record_cg(stats: &CgStats) {
    if !cp_trace::telemetry_enabled() {
        return;
    }
    cp_trace::counter_add("place.cg.solves", 1);
    cp_trace::observe("place.cg.iterations", stats.iterations as f64);
    cp_trace::observe("place.cg.residual", stats.relative_residual);
}

/// Reusable CG work vectors (residual, preconditioned residual, search
/// direction, `A·p`). Hold one per axis across outer placement iterations
/// and the solve path stops allocating entirely.
#[derive(Debug, Clone, Default)]
pub struct CgScratch {
    r: Vec<f64>,
    z: Vec<f64>,
    p: Vec<f64>,
    ap: Vec<f64>,
}

/// A sparse SPD system `A x = b` over the movable objects of one axis:
/// `(A x)_i = diag_i x_i − Σ_j val_ij x_j`, off-diagonal rows stored
/// grouped by length (see the module docs).
#[derive(Debug, Clone, Default)]
pub struct B2bSystem {
    diag: Vec<f64>,
    rhs: Vec<f64>,
    /// Rows in storage order: all rows with 0 off-diagonal entries, then
    /// 1, …, [`MAX_EXACT_ROW`], then the longer ones; ascending row id
    /// within each group.
    order: Vec<u32>,
    /// `ptr[p]..ptr[p+1]` bounds the entries of row `order[p]`.
    ptr: Vec<u32>,
    /// Storage position of each row (inverse of `order`).
    pos: Vec<u32>,
    /// `bucket[d]` is the storage position of the first row with exactly
    /// `d` entries; `bucket[MAX_EXACT_ROW + 1]` starts the long-row tail.
    bucket: [u32; MAX_EXACT_ROW + 2],
    col_idx: Vec<u32>,
    val: Vec<f64>,
}

/// Raw-pointer handle for disjoint-row writes from parallel chunks (same
/// pattern as `cp-parallel`'s chunk primitives).
struct SendPtr(*mut f64);
// SAFETY: only `B2bSystem::apply_into` builds one, and every chunk there
// writes a disjoint set of rows (`order` is a permutation).
unsafe impl Send for SendPtr {}
unsafe impl Sync for SendPtr {}

impl SendPtr {
    /// Accessor (rather than direct field access) so closures capture the
    /// `Send + Sync` wrapper, not the raw pointer field.
    fn get(&self) -> *mut f64 {
        self.0
    }
}

/// Anchor pseudo-nets: per-movable target position and weight.
#[derive(Debug, Clone, Copy)]
pub struct Anchors<'a> {
    /// Target coordinate per movable (this axis).
    pub target: &'a [f64],
    /// Pseudo-net weight per movable (0 disables).
    pub weight: &'a [f64],
}

/// Hands the B2B pairs of one net to `emit`, reading this axis's
/// coordinates from the flat `coord` array (movables first, then fixed).
#[inline]
fn net_pairs(verts: &[u32], w_net: f64, coord: &[f64], mut emit: impl FnMut(Pair)) {
    let p = verts.len();
    if p < 2 {
        return;
    }
    // Locate extreme pins on this axis.
    let (mut lo_i, mut hi_i) = (0usize, 0usize);
    for (i, &v) in verts.iter().enumerate() {
        if coord[v as usize] < coord[verts[lo_i] as usize] {
            lo_i = i;
        }
        if coord[v as usize] > coord[verts[hi_i] as usize] {
            hi_i = i;
        }
    }
    let scale = w_net * 2.0 / (p as f64 - 1.0);
    let b2b_w =
        |a: u32, b: u32| scale / (coord[a as usize] - coord[b as usize]).abs().max(MIN_DIST);
    let (lo, hi) = (verts[lo_i], verts[hi_i]);
    if lo != hi {
        emit((lo, hi, b2b_w(lo, hi)));
    }
    for (i, &v) in verts.iter().enumerate() {
        if i == lo_i || i == hi_i {
            continue;
        }
        if v != lo {
            emit((v, lo, b2b_w(v, lo)));
        }
        if v != hi {
            emit((v, hi, b2b_w(v, hi)));
        }
    }
}

/// The cached B2B pairs of one fixed range of [`EDGE_CHUNK`] nets, in
/// net order.
#[derive(Debug, Clone, Default)]
struct NetChunk {
    /// `ptr[k]..ptr[k+1]` bounds the pairs of the chunk's `k`-th net.
    ptr: Vec<u32>,
    pairs: Vec<Pair>,
    /// Nets regenerated (not kept) by the last rebuild.
    rebuilt: u32,
}

impl NetChunk {
    /// Regenerates the dirty nets among `nets` over their cached pairs
    /// and keeps the clean ones, so nothing is copied or allocated. A
    /// net's pair count is fixed by its pin count — except while all its
    /// pins share one coordinate and the extremes collapse — so a dirty
    /// net normally fits its span; returns `false` as soon as one does
    /// not, leaving the chunk to be regenerated from scratch.
    fn update_in_place(
        &mut self,
        nets: Range<usize>,
        problem: &PlacementProblem,
        coord: &[f64],
        prev: &[f64],
    ) -> bool {
        if self.ptr.len() != nets.len() + 1 {
            return false;
        }
        self.rebuilt = 0;
        for (k, e) in nets.enumerate() {
            let verts = problem.hypergraph.edge(e as u32);
            if verts
                .iter()
                .all(|&v| prev[v as usize].to_bits() == coord[v as usize].to_bits())
            {
                continue;
            }
            self.rebuilt += 1;
            let span = &mut self.pairs[self.ptr[k] as usize..self.ptr[k + 1] as usize];
            let mut used = 0;
            net_pairs(verts, problem.net_weights[e], coord, |pair| {
                if let Some(slot) = span.get_mut(used) {
                    *slot = pair;
                }
                used += 1;
            });
            if used != span.len() {
                return false;
            }
        }
        true
    }

    /// Regenerates every net of `nets`.
    fn regenerate(&mut self, nets: Range<usize>, problem: &PlacementProblem, coord: &[f64]) {
        self.rebuilt = nets.len() as u32;
        self.pairs.clear();
        self.ptr.clear();
        self.ptr.push(0);
        for e in nets {
            let verts = problem.hypergraph.edge(e as u32);
            net_pairs(verts, problem.net_weights[e], coord, |pair| {
                self.pairs.push(pair)
            });
            self.ptr.push(self.pairs.len() as u32);
        }
    }
}

/// Incremental per-axis B2B assembler.
///
/// Holds the flat coordinate array, the per-net B2B pair cache and the
/// assembled [`B2bSystem`] across outer placement iterations. On each
/// [`B2bRebuilder::rebuild`] only nets with at least one pin whose
/// coordinate changed (bitwise) since the last call regenerate their
/// pairs; clean nets keep their cached ones, which makes the rebuild
/// cost proportional to how much actually moved. The assembled system is
/// bit-identical to a from-scratch [`B2bSystem::build`] at the same
/// positions, at any thread count.
#[derive(Debug, Clone)]
pub struct B2bRebuilder {
    axis: Axis,
    /// This axis's coordinate per global vertex (movables then fixed).
    coord: Vec<f64>,
    /// Coordinates at the previous pair generation (empty before the
    /// first rebuild).
    prev_coord: Vec<f64>,
    /// Per-net pairs, one entry per fixed net chunk, in net order.
    chunks: Vec<NetChunk>,
    /// Per-row scratch: off-diagonal degree, then the fill cursor.
    deg: Vec<u32>,
    sys: B2bSystem,
}

impl B2bRebuilder {
    /// A rebuilder for one axis with empty caches; the first
    /// [`B2bRebuilder::rebuild`] regenerates every net.
    pub fn new(axis: Axis) -> Self {
        Self {
            axis,
            coord: Vec::new(),
            prev_coord: Vec::new(),
            chunks: Vec::new(),
            deg: Vec::new(),
            sys: B2bSystem::default(),
        }
    }

    /// The most recently assembled system.
    pub fn system(&self) -> &B2bSystem {
        &self.sys
    }

    /// Consumes the rebuilder, yielding the assembled system.
    pub fn into_system(self) -> B2bSystem {
        self.sys
    }

    /// (Re)builds the B2B system linearized at `positions`. Every buffer
    /// — coordinates, pair cache, system arenas — is reused, so from the
    /// second call on a rebuild allocates only when a buffer has to grow.
    ///
    /// Must be called with the same `problem` across a rebuilder's
    /// lifetime; a shape change falls back to a full regeneration.
    pub fn rebuild(
        &mut self,
        problem: &PlacementProblem,
        positions: &[(f64, f64)],
        anchors: Option<Anchors<'_>>,
    ) {
        let m = problem.movable_count();
        let nf = problem.fixed.len();
        let nets = problem.hypergraph.edge_count();
        let axis = self.axis;

        // Flat coordinates for this axis: movables from `positions`,
        // fixed from the problem. Branch-free lookup in the net kernel.
        self.coord.resize(m + nf, 0.0);
        match axis {
            Axis::X => {
                for (c, pos) in self.coord.iter_mut().zip(positions.iter().take(m)) {
                    *c = pos.0;
                }
                for (c, f) in self.coord[m..].iter_mut().zip(&problem.fixed) {
                    *c = f.0;
                }
            }
            Axis::Y => {
                for (c, pos) in self.coord.iter_mut().zip(positions.iter().take(m)) {
                    *c = pos.1;
                }
                for (c, f) in self.coord[m..].iter_mut().zip(&problem.fixed) {
                    *c = f.1;
                }
            }
        }

        // Pair generation: parallel over fixed net chunks. A net is dirty
        // iff any of its pins moved (bitwise) since the last rebuild;
        // dirty nets recompute, clean nets keep their cached pairs. Each
        // chunk holds its pairs in net order and the assembly below walks
        // the chunks in order, which reproduces the serial build bit for
        // bit.
        let all_dirty = self.prev_coord.len() != self.coord.len();
        self.chunks.resize_with(
            cp_parallel::chunk_count(nets, EDGE_CHUNK),
            NetChunk::default,
        );
        let coord = &self.coord;
        let prev = &self.prev_coord;
        cp_parallel::par_chunks_mut(&mut self.chunks, 1, |ci, _, chunk| {
            let chunk_nets = ci * EDGE_CHUNK..nets.min((ci + 1) * EDGE_CHUNK);
            if all_dirty || !chunk[0].update_in_place(chunk_nets.clone(), problem, coord, prev) {
                chunk[0].regenerate(chunk_nets, problem, coord);
            }
        });
        if cp_trace::telemetry_enabled() {
            let nets_rebuilt: u64 = self.chunks.iter().map(|c| u64::from(c.rebuilt)).sum();
            cp_trace::counter_add("place.b2b.nets_rebuilt", nets_rebuilt);
            cp_trace::counter_add(
                "place.b2b.nets_cached",
                (nets as u64).saturating_sub(nets_rebuilt),
            );
        }
        let pair_count: usize = self.chunks.iter().map(|c| c.pairs.len()).sum();
        assert!(
            pair_count < (u32::MAX / 2) as usize,
            "B2B pair count overflows the u32 arena index"
        );

        // Assembly from the pair cache, in net order, with the same
        // four-case scatter the jagged build used: count off-diagonal
        // degrees, lay the rows out by degree, then cursor-fill
        // `col_idx`/`val` while accumulating `diag`/`rhs` in pair order.
        let sys = &mut self.sys;
        sys.diag.clear();
        sys.diag.resize(m, 0.0);
        sys.rhs.clear();
        sys.rhs.resize(m, 0.0);
        self.deg.clear();
        self.deg.resize(m, 0);
        for chunk in &self.chunks {
            for &(u, v, _) in &chunk.pairs {
                if (u as usize) < m && (v as usize) < m {
                    self.deg[u as usize] += 1;
                    self.deg[v as usize] += 1;
                }
            }
        }
        // `deg` turns into each row's fill cursor.
        sys.layout_rows(&mut self.deg);
        for chunk in &self.chunks {
            for &(u, v, w) in &chunk.pairs {
                let (ui, vi) = (u as usize, v as usize);
                match (ui < m, vi < m) {
                    (true, true) => {
                        sys.diag[ui] += w;
                        sys.diag[vi] += w;
                        let cu = self.deg[ui] as usize;
                        sys.col_idx[cu] = v;
                        sys.val[cu] = w;
                        self.deg[ui] += 1;
                        let cv = self.deg[vi] as usize;
                        sys.col_idx[cv] = u;
                        sys.val[cv] = w;
                        self.deg[vi] += 1;
                    }
                    (true, false) => {
                        sys.diag[ui] += w;
                        sys.rhs[ui] += w * self.coord[vi];
                    }
                    (false, true) => {
                        sys.diag[vi] += w;
                        sys.rhs[vi] += w * self.coord[ui];
                    }
                    (false, false) => {}
                }
            }
        }
        if let Some(a) = anchors {
            for i in 0..m {
                let w = a.weight[i];
                if w > 0.0 {
                    sys.diag[i] += w;
                    sys.rhs[i] += w * a.target[i];
                }
            }
        }
        // Isolated objects stay where they are.
        for i in 0..m {
            if sys.diag[i] == 0.0 {
                sys.diag[i] = 1.0;
                sys.rhs[i] = self.coord[i];
            }
        }

        // The coords we just linearized at become the dirty-check baseline.
        std::mem::swap(&mut self.prev_coord, &mut self.coord);
    }
}

impl B2bSystem {
    /// Builds the B2B system for one axis, linearized at `positions`.
    ///
    /// One-shot wrapper over [`B2bRebuilder`]; callers that rebuild every
    /// outer iteration should hold a rebuilder instead and get the
    /// incremental path.
    pub fn build(
        problem: &PlacementProblem,
        positions: &[(f64, f64)],
        axis: Axis,
        anchors: Option<Anchors<'_>>,
    ) -> Self {
        let mut rb = B2bRebuilder::new(axis);
        rb.rebuild(problem, positions, anchors);
        rb.into_system()
    }

    /// Number of rows (movable objects).
    pub fn len(&self) -> usize {
        self.diag.len()
    }

    /// True when the system has no rows.
    pub fn is_empty(&self) -> bool {
        self.diag.is_empty()
    }

    /// Number of stored off-diagonal entries.
    pub fn nnz(&self) -> usize {
        self.val.len()
    }

    /// Row `i`'s off-diagonal entries `(columns, values)`, in assembly
    /// order.
    pub fn row(&self, i: usize) -> (&[u32], &[f64]) {
        let p = self.pos[i] as usize;
        let entries = self.ptr[p] as usize..self.ptr[p + 1] as usize;
        (&self.col_idx[entries.clone()], &self.val[entries])
    }

    /// Solves with Jacobi-preconditioned CG from `x0` — the allocating
    /// convenience over [`B2bSystem::solve_into`].
    ///
    /// The SpMV, dot products and vector updates run in parallel; dot
    /// products use fixed-order tree reductions and the element-wise
    /// kernels keep per-element arithmetic order, so the iterates are
    /// bit-identical for every thread count.
    pub fn solve(&self, x0: &[f64], max_iters: usize, tol: f64) -> Vec<f64> {
        let mut x = x0.to_vec();
        self.solve_into(&mut x, &mut CgScratch::default(), max_iters, tol, None);
        x
    }

    /// Assembles a system directly from CSR parts (used by the eDensity
    /// backend's Poisson grid so it can reuse the CG kernels verbatim).
    /// `row_ptr`/`col_idx`/`val` hold the off-diagonal entries with the
    /// `apply` convention `(A x)_i = diag_i x_i − Σ_j val_ij x_j`.
    ///
    /// # Panics
    ///
    /// Panics if the parts disagree in length or a column is out of range.
    pub(crate) fn from_parts(
        diag: Vec<f64>,
        row_ptr: &[u32],
        col_idx: &[u32],
        val: &[f64],
        rhs: Vec<f64>,
    ) -> Self {
        let n = diag.len();
        assert!(row_ptr.len() == n + 1 && rhs.len() == n && col_idx.len() == val.len());
        assert!(col_idx.iter().all(|&j| (j as usize) < n));
        let mut sys = Self {
            diag,
            rhs,
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

    /// Mutable right-hand side (the eDensity backend refreshes the charge
    /// vector on a fixed grid matrix each outer iteration).
    pub(crate) fn rhs_mut(&mut self) -> &mut [f64] {
        &mut self.rhs
    }

    /// Lays the rows out by off-diagonal count with a counting sort:
    /// fills `order`/`pos`/`ptr`/`bucket` and sizes `col_idx`/`val`. On
    /// entry `deg[i]` is row `i`'s entry count; on exit it is the index of
    /// the row's first entry — the caller's fill cursor.
    fn layout_rows(&mut self, deg: &mut [u32]) {
        const TAIL: usize = MAX_EXACT_ROW + 1;
        let n = deg.len();
        let mut count = [0u32; TAIL + 1];
        for &d in deg.iter() {
            count[(d as usize).min(TAIL)] += 1;
        }
        let mut next = [0u32; TAIL + 1];
        let mut start = 0;
        for d in 0..=TAIL {
            self.bucket[d] = start;
            next[d] = start;
            start += count[d];
        }
        self.order.resize(n, 0);
        self.pos.resize(n, 0);
        for (i, &d) in deg.iter().enumerate() {
            let p = &mut next[(d as usize).min(TAIL)];
            self.order[*p as usize] = i as u32;
            self.pos[i] = *p;
            *p += 1;
        }
        self.ptr.clear();
        let mut entry = 0;
        for &i in &self.order {
            self.ptr.push(entry);
            entry += std::mem::replace(&mut deg[i as usize], entry);
        }
        self.ptr.push(entry);
        self.col_idx.clear();
        self.col_idx.resize(entry as usize, 0);
        self.val.clear();
        self.val.resize(entry as usize, 0.0);
    }

    /// In-place CG solve: `x` holds the start on entry and the solution on
    /// exit, and all work vectors live in `scratch` — zero allocations
    /// once the scratch has warmed up to the system size. Jacobi
    /// preconditioning, or the caller-held IC(0) factorization when `ic`
    /// is given (so benchmarks can time factor and solve apart). Returns
    /// the convergence stats and reports them on the `place.cg.*`
    /// telemetry channel.
    pub fn solve_into(
        &self,
        x: &mut [f64],
        scratch: &mut CgScratch,
        max_iters: usize,
        tol: f64,
        ic: Option<&IcPreconditioner>,
    ) -> CgStats {
        let stats = self.cg(x, scratch, max_iters, tol, ic);
        record_cg(&stats);
        stats
    }

    /// The CG loop on the fused kernels ([`crate::kernels`]): two vector
    /// sweeps and one SpMV per iteration. `z = M⁻¹ r` is the fused Jacobi
    /// scale, or the IC(0) triangular solves when `ic` is given; those are
    /// serial and everything else fixed-order, so either way the iterates
    /// are bit-identical at every thread count. [`B2bSystem::solve_into`]
    /// without the telemetry record (see [`record_cg`]).
    pub(crate) fn cg(
        &self,
        x: &mut [f64],
        scratch: &mut CgScratch,
        max_iters: usize,
        tol: f64,
        ic: Option<&IcPreconditioner>,
    ) -> CgStats {
        let n = self.diag.len();
        assert_eq!(x.len(), n, "start vector length != system size");
        let CgScratch { r, z, p, ap } = scratch;
        r.resize(n, 0.0);
        z.resize(n, 0.0);
        p.resize(n, 0.0);
        ap.resize(n, 0.0);
        let precondition = |z: &mut [f64], r: &[f64]| match ic {
            Some(ic) => {
                ic.apply_to(r, z);
                dot(r, z)
            }
            None => kernels::jacobi_dot(z, r, &self.diag),
        };
        self.apply_into(x, ap);
        let rr0 = kernels::sub_dot(r, &self.rhs, ap);
        let mut rz = precondition(z, r);
        p.copy_from_slice(z);
        let rhs_norm: f64 = dot(&self.rhs, &self.rhs).sqrt().max(1e-30);
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
            let pap = dot(p, ap);
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
            let rr = kernels::fused_step(x, r, p, ap, alpha);
            relative_residual = rr.sqrt() / rhs_norm;
            if relative_residual < tol {
                break;
            }
            let rz_new = precondition(z, r);
            let beta = rz_new / rz;
            if !beta.is_finite() {
                break;
            }
            rz = rz_new;
            kernels::xpay(p, beta, z);
        }
        CgStats {
            iterations,
            relative_residual,
        }
    }

    /// Sparse matrix-vector product `out = A x`, row-parallel over fixed
    /// chunks of the storage order. Each row accumulates `diag·x` then its
    /// entries in assembly order — bit-identical to the serial row-order
    /// CSR loop at any thread count.
    ///
    /// # Panics
    ///
    /// Panics if `x` or `out` is not one element per row.
    pub fn apply_into(&self, x: &[f64], out: &mut [f64]) {
        let n = self.diag.len();
        assert!(x.len() == n && out.len() == n, "vector length != rows");
        let out = SendPtr(out.as_mut_ptr());
        cp_parallel::par_ranges(n, VEC_CHUNK, |_, chunk| {
            // The chunk's share of each exact bucket, then of the tail.
            for d in 0..=MAX_EXACT_ROW {
                let lo = chunk.start.max(self.bucket[d] as usize);
                let hi = chunk.end.min(self.bucket[d + 1] as usize);
                if lo < hi {
                    self.apply_exact_rows(d, lo..hi, x, &out);
                }
            }
            let lo = chunk.start.max(self.bucket[MAX_EXACT_ROW + 1] as usize);
            for p in lo..chunk.end {
                let i = self.order[p] as usize;
                let entries = self.ptr[p] as usize..self.ptr[p + 1] as usize;
                let mut acc = self.diag[i] * x[i];
                for (&j, &w) in self.col_idx[entries.clone()].iter().zip(&self.val[entries]) {
                    acc -= w * x[j as usize];
                }
                // SAFETY: `i < n == out.len()` (checked by `self.diag[i]`),
                // and `order` is a permutation, so no other storage
                // position — in this chunk or another — writes row `i`.
                unsafe { *out.get().add(i) = acc };
            }
        });
    }

    /// Dispatches storage positions `rows` of exact bucket `d` to the
    /// kernel compiled for that row length.
    fn apply_exact_rows(&self, d: usize, rows: Range<usize>, x: &[f64], out: &SendPtr) {
        macro_rules! dispatch {
            ($($len:literal)+) => {
                match d {
                    0 => {
                        for &i in &self.order[rows] {
                            let i = i as usize;
                            let acc = self.diag[i] * x[i];
                            // SAFETY: as in `rows_of_len`.
                            unsafe { *out.get().add(i) = acc };
                        }
                    }
                    $($len => self.rows_of_len::<$len>(rows, x, out),)+
                    _ => unreachable!("no exact bucket for rows of {d} entries"),
                }
            };
        }
        dispatch!(1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16);
    }

    /// The SpMV of storage positions `rows`, all of which hold rows of
    /// exactly `D` entries: the entry arenas are walked as `[_; D]` blocks,
    /// so the inner loop has a compile-time trip count and no slice-bound
    /// tests.
    #[inline(always)]
    fn rows_of_len<const D: usize>(&self, rows: Range<usize>, x: &[f64], out: &SendPtr) {
        let first = self.ptr[rows.start] as usize;
        let entries = first..first + rows.len() * D;
        let (cols, _) = self.col_idx[entries.clone()].as_chunks::<D>();
        let (vals, _) = self.val[entries].as_chunks::<D>();
        for ((&i, c), v) in self.order[rows].iter().zip(cols).zip(vals) {
            let i = i as usize;
            let mut acc = self.diag[i] * x[i];
            for k in 0..D {
                acc -= v[k] * x[c[k] as usize];
            }
            // SAFETY: `i < n == out.len()` (checked by `self.diag[i]`), and
            // `order` is a permutation, so no other storage position — in
            // this chunk or another — writes row `i`.
            unsafe { *out.get().add(i) = acc };
        }
    }
}

/// Incomplete-Cholesky IC(0) preconditioner: `M = L Lᵀ` with `L` on the
/// sparsity pattern of the (coalesced) lower triangle of `A`.
///
/// B2B systems are symmetric M-matrices (positive diagonals, non-positive
/// off-diagonals, diagonally dominant), for which IC(0) exists without
/// breakdown; a pivot floor guards degenerate inputs anyway. Applying the
/// preconditioner is two serial triangular sweeps — trivially bitwise
/// thread-invariant — and costs one pass over `nnz/2` entries each, which
/// at B2B's ~4–6 nnz/row is comparable to a single SpMV.
///
/// Modified-IC (moving the dropped Schur fill onto the diagonal to
/// preserve row sums) was evaluated here and *increased* iteration counts
/// on B2B systems (39→45 at 100k vars on the solver bench), so the
/// factorization stays plain IC(0).
#[derive(Debug, Clone)]
pub struct IcPreconditioner {
    /// `L`'s diagonal.
    ldiag: Vec<f64>,
    /// Reciprocal of `L`'s diagonal: the triangular sweeps sit on a
    /// serial dependency chain, so a multiply beats a divide there.
    linv: Vec<f64>,
    /// Strict lower triangle of `L`, CSR by rows, columns ascending.
    lptr: Vec<u32>,
    lcol: Vec<u32>,
    lval: Vec<f64>,
    /// Transpose of the strict lower triangle (strict upper, CSR by rows)
    /// for the backward sweep.
    uptr: Vec<u32>,
    ucol: Vec<u32>,
    uval: Vec<f64>,
}

impl IcPreconditioner {
    /// Factors `sys`'s matrix. Serial and deterministic.
    pub fn new(sys: &B2bSystem) -> Self {
        let n = sys.diag.len();
        // 1. Gather the strict lower triangle with duplicate columns
        //    coalesced (the pair arena stores one CSR entry per B2B pair,
        //    so parallel edges appear multiple times). Off-diagonal values
        //    follow the apply convention A_ij = -val.
        let mut lptr: Vec<u32> = Vec::with_capacity(n + 1);
        let mut lcol: Vec<u32> = Vec::new();
        let mut lval: Vec<f64> = Vec::new();
        let mut row: Vec<(u32, f64)> = Vec::new();
        lptr.push(0);
        for i in 0..n {
            row.clear();
            let (cols, vals) = sys.row(i);
            for (&j, &w) in cols.iter().zip(vals) {
                if (j as usize) < i {
                    row.push((j, -w));
                }
            }
            row.sort_unstable_by_key(|&(j, _)| j);
            let mut k = 0;
            while k < row.len() {
                let (j, mut v) = row[k];
                k += 1;
                while k < row.len() && row[k].0 == j {
                    v += row[k].1;
                    k += 1;
                }
                lcol.push(j);
                lval.push(v);
            }
            lptr.push(lcol.len() as u32);
        }
        // 2. Up-looking IC(0) factorization, then the transpose for the
        //    backward sweep.
        let mut ldiag = vec![0.0; n];
        Self::factor(&sys.diag, &lptr, &lcol, &mut lval, &mut ldiag);
        let (uptr, ucol, uval) = Self::transpose(n, &lptr, &lcol, &lval);
        let linv: Vec<f64> = ldiag.iter().map(|&d| 1.0 / d).collect();
        Self {
            ldiag,
            linv,
            lptr,
            lcol,
            lval,
            uptr,
            ucol,
            uval,
        }
    }

    /// Up-looking factorization in place over `lval`:
    /// `L_ij = (A_ij − Σ_{k<j} L_ik·L_jk) / L_jj`, then
    /// `L_ii = √(A_ii − Σ_k L_ik²)`, with a pivot floor so degenerate
    /// rows cannot produce a zero or imaginary pivot.
    fn factor(diag: &[f64], lptr: &[u32], lcol: &[u32], lval: &mut [f64], ldiag: &mut [f64]) {
        for i in 0..diag.len() {
            let row_i = lptr[i] as usize..lptr[i + 1] as usize;
            for idx in row_i.clone() {
                let j = lcol[idx] as usize;
                let mut s = lval[idx];
                let (mut a, mut b) = (row_i.start, lptr[j] as usize);
                let b_end = lptr[j + 1] as usize;
                while a < idx && b < b_end {
                    match lcol[a].cmp(&lcol[b]) {
                        std::cmp::Ordering::Equal => {
                            s -= lval[a] * lval[b];
                            a += 1;
                            b += 1;
                        }
                        std::cmp::Ordering::Less => a += 1,
                        std::cmp::Ordering::Greater => b += 1,
                    }
                }
                lval[idx] = s / ldiag[j];
            }
            let mut d = diag[i];
            for idx in row_i {
                d -= lval[idx] * lval[idx];
            }
            ldiag[i] = d.max(diag[i] * 1e-8).max(1e-30).sqrt();
        }
    }

    /// Transposes the strict lower triangle (CSR by rows) into the strict
    /// upper triangle for the backward sweep. Scattering rows in ascending
    /// order keeps each upper row's columns ascending.
    #[allow(clippy::type_complexity)]
    fn transpose(
        n: usize,
        lptr: &[u32],
        lcol: &[u32],
        lval: &[f64],
    ) -> (Vec<u32>, Vec<u32>, Vec<f64>) {
        let nnz = lcol.len();
        let mut ucount = vec![0u32; n];
        for &j in lcol {
            ucount[j as usize] += 1;
        }
        let mut uptr: Vec<u32> = Vec::with_capacity(n + 1);
        uptr.push(0);
        let mut acc = 0u32;
        let mut cursor = vec![0u32; n];
        for (j, &c) in ucount.iter().enumerate() {
            cursor[j] = acc;
            acc += c;
            uptr.push(acc);
        }
        let mut ucol = vec![0u32; nnz];
        let mut uval = vec![0.0; nnz];
        for i in 0..n {
            for idx in lptr[i] as usize..lptr[i + 1] as usize {
                let j = lcol[idx] as usize;
                let at = cursor[j] as usize;
                ucol[at] = i as u32;
                uval[at] = lval[idx];
                cursor[j] += 1;
            }
        }
        (uptr, ucol, uval)
    }

    /// Applies `M⁻¹` in place: forward solve `L y = z` (ascending rows),
    /// then backward solve `Lᵀ z = y` (descending rows). Serial.
    pub fn apply_in_place(&self, z: &mut [f64]) {
        let n = self.ldiag.len();
        for i in 0..n {
            let seg = self.lptr[i] as usize..self.lptr[i + 1] as usize;
            let mut s = z[i];
            for (&j, &w) in self.lcol[seg.clone()].iter().zip(&self.lval[seg]) {
                s -= w * z[j as usize];
            }
            z[i] = s * self.linv[i];
        }
        self.backward(z);
    }

    /// Applies `M⁻¹` out of place: bitwise-identical to copying `src` into
    /// `dst` and calling [`Self::apply_in_place`], but the forward sweep
    /// reads `src` directly, saving one full vector pass per CG iteration.
    pub fn apply_to(&self, src: &[f64], dst: &mut [f64]) {
        let n = self.ldiag.len();
        assert_eq!(src.len(), n);
        assert_eq!(dst.len(), n);
        for i in 0..n {
            let seg = self.lptr[i] as usize..self.lptr[i + 1] as usize;
            let mut s = src[i];
            for (&j, &w) in self.lcol[seg.clone()].iter().zip(&self.lval[seg]) {
                s -= w * dst[j as usize];
            }
            dst[i] = s * self.linv[i];
        }
        self.backward(dst);
    }

    /// Backward solve `Lᵀ z = y` (descending rows), shared tail of the
    /// in-place and out-of-place applies.
    fn backward(&self, z: &mut [f64]) {
        let n = self.ldiag.len();
        for i in (0..n).rev() {
            let seg = self.uptr[i] as usize..self.uptr[i + 1] as usize;
            let mut s = z[i];
            for (&j, &w) in self.ucol[seg.clone()].iter().zip(&self.uval[seg]) {
                s -= w * z[j as usize];
            }
            z[i] = s * self.linv[i];
        }
    }
}

/// The pre-refactor jagged (`Vec<Vec<_>>`) B2B implementation, kept
/// verbatim as the bitwise oracle for the CSR kernels and the incremental
/// rebuild. Test-only; not compiled into the library.
#[cfg(test)]
pub(crate) mod jagged_oracle {
    use super::{Anchors, Axis, MIN_DIST, VEC_CHUNK};
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
                    let w = a.weight[i];
                    if w > 0.0 {
                        sys.diag[i] += w;
                        sys.rhs[i] += w * a.target[i];
                    }
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
            ],
            fixed: vec![(0.0, 0.0), (9.0, 0.0)],
            hypergraph: Hypergraph::new(
                4,
                vec![(vec![2, 0], 1.0), (vec![0, 1], 1.0), (vec![1, 3], 1.0)],
            ),
            net_weights: vec![1.0, 1.0, 1.0],
            core: Rect::new(0.0, 0.0, 9.0, 9.0),
            region: vec![None, None],
            seed_positions: None,
            blockages: Vec::new(),
            density_target: 0.9,
        }
    }

    fn assert_sys_bitwise_eq(a: &B2bSystem, b: &B2bSystem) {
        assert_eq!(a.order, b.order);
        assert_eq!(a.ptr, b.ptr);
        assert_eq!(a.col_idx, b.col_idx);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&a.diag), bits(&b.diag));
        assert_eq!(bits(&a.val), bits(&b.val));
        assert_eq!(bits(&a.rhs), bits(&b.rhs));
    }

    fn assert_matches_oracle(
        p: &PlacementProblem,
        pos: &[(f64, f64)],
        axis: Axis,
        anchors: Option<Anchors<'_>>,
    ) {
        let csr = B2bSystem::build(p, pos, axis, anchors);
        let jag = jagged_oracle::JaggedSystem::build(p, pos, axis, anchors);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&csr.diag), bits(&jag.diag));
        assert_eq!(bits(&csr.rhs), bits(&jag.rhs));
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
        let solved = csr.solve(&x0, 60, 1e-9);
        assert_eq!(bits(&solved), bits(&jag.solve(&x0, 60, 1e-9)));
    }

    #[test]
    fn csr_matches_jagged_oracle_on_line() {
        let p = line_problem();
        assert_matches_oracle(&p, &[(20.0, 3.0), (30.0, -2.0)], Axis::X, None);
        assert_matches_oracle(&p, &[(20.0, 3.0), (30.0, -2.0)], Axis::Y, None);
        let targets = vec![1.0, 8.0];
        let weights = vec![0.5, 0.0];
        assert_matches_oracle(
            &p,
            &[(4.0, 1.0), (5.0, 2.0)],
            Axis::X,
            Some(Anchors {
                target: &targets,
                weight: &weights,
            }),
        );
    }

    #[test]
    fn incremental_rebuild_matches_fresh_build() {
        let p = line_problem();
        let mut rb = B2bRebuilder::new(Axis::X);
        let pos0 = vec![(20.0, 0.0), (30.0, 0.0)];
        rb.rebuild(&p, &pos0, None);
        assert_sys_bitwise_eq(rb.system(), &B2bSystem::build(&p, &pos0, Axis::X, None));
        // Move one cell: nets touching it regenerate, the rest come from
        // the cache — and the result must equal a from-scratch build.
        let pos1 = vec![(20.0, 0.0), (7.5, 0.0)];
        rb.rebuild(&p, &pos1, None);
        assert_sys_bitwise_eq(rb.system(), &B2bSystem::build(&p, &pos1, Axis::X, None));
        // No movement at all: fully cached rebuild, still identical.
        rb.rebuild(&p, &pos1, None);
        assert_sys_bitwise_eq(rb.system(), &B2bSystem::build(&p, &pos1, Axis::X, None));
    }

    #[test]
    fn solve_into_matches_allocating_solve() {
        let p = line_problem();
        let pos = vec![(20.0, 0.0), (30.0, 0.0)];
        let sys = B2bSystem::build(&p, &pos, Axis::X, None);
        let reference = sys.solve(&[20.0, 30.0], 100, 1e-10);
        let mut x = vec![20.0, 30.0];
        let mut scratch = CgScratch::default();
        sys.solve_into(&mut x, &mut scratch, 100, 1e-10, None);
        // Re-using warm scratch must not change anything either.
        let mut x2 = vec![20.0, 30.0];
        sys.solve_into(&mut x2, &mut scratch, 100, 1e-10, None);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&reference), bits(&x));
        assert_eq!(bits(&reference), bits(&x2));
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
            let sys = B2bSystem::build(&p, &pos, Axis::X, None);
            let x = sys.solve(&[pos[0].0, pos[1].0], 100, 1e-10);
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
        let sys = B2bSystem::build(&p, &pos, Axis::X, None);
        let solved = sys.solve(&[pos[0].0, pos[1].0], 200, 1e-12);
        let again = sys.solve(&solved, 200, 1e-12);
        assert_eq!(
            solved.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            again.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        );
    }

    #[test]
    fn heavier_net_wins() {
        // One movable between fixed pins at 0 and 9; the net to 9 carries
        // 10× the weight, so the linear HPWL objective is minimized at 9.
        let p = PlacementProblem {
            movable: vec![Object {
                width: 1.0,
                height: 1.0,
            }],
            fixed: vec![(0.0, 0.0), (9.0, 0.0)],
            hypergraph: Hypergraph::new(3, vec![(vec![0, 1], 1.0), (vec![0, 2], 1.0)]),
            net_weights: vec![1.0, 10.0],
            core: Rect::new(0.0, 0.0, 9.0, 9.0),
            region: vec![None],
            seed_positions: None,
            blockages: Vec::new(),
            density_target: 0.9,
        };
        let mut pos = vec![(4.5, 0.0)];
        for _ in 0..40 {
            let sys = B2bSystem::build(&p, &pos, Axis::X, None);
            let x = sys.solve(&[pos[0].0], 100, 1e-10);
            pos[0].0 = x[0];
        }
        assert!(pos[0].0 > 7.5, "{pos:?}");
    }

    #[test]
    fn anchors_pull_toward_targets() {
        let p = line_problem();
        let pos = vec![(4.5, 0.0), (4.5, 0.0)];
        let targets = vec![1.0, 8.0];
        let weights = vec![100.0, 100.0]; // dominate the nets
        let sys = B2bSystem::build(
            &p,
            &pos,
            Axis::X,
            Some(Anchors {
                target: &targets,
                weight: &weights,
            }),
        );
        let x = sys.solve(&[4.5, 4.5], 200, 1e-12);
        assert!((x[0] - 1.0).abs() < 0.6, "{x:?}");
        assert!((x[1] - 8.0).abs() < 0.6, "{x:?}");
    }

    #[test]
    fn isolated_objects_stay_put() {
        let p = PlacementProblem {
            movable: vec![Object {
                width: 1.0,
                height: 1.0,
            }],
            fixed: vec![],
            hypergraph: Hypergraph::new(1, vec![]),
            net_weights: vec![],
            core: Rect::new(0.0, 0.0, 10.0, 10.0),
            region: vec![None],
            seed_positions: None,
            blockages: Vec::new(),
            density_target: 0.9,
        };
        let pos = vec![(3.0, 7.0)];
        let sx = B2bSystem::build(&p, &pos, Axis::X, None).solve(&[3.0], 10, 1e-10);
        let sy = B2bSystem::build(&p, &pos, Axis::Y, None).solve(&[7.0], 10, 1e-10);
        assert!((sx[0] - 3.0).abs() < 1e-9);
        assert!((sy[0] - 7.0).abs() < 1e-9);
    }

    /// A chain of `m` movables between two fixed terminals — the worst
    /// case for Jacobi-CG (information crosses one link per iteration)
    /// and the shape the IC(0) factorization handles exactly.
    fn chain_problem(m: usize) -> PlacementProblem {
        let n = (m + 2) as u32;
        let mut edges: Vec<(Vec<u32>, f64)> = vec![(vec![m as u32, 0], 1.0)];
        for i in 0..m - 1 {
            edges.push((vec![i as u32, i as u32 + 1], 1.0));
        }
        edges.push((vec![m as u32 - 1, m as u32 + 1], 1.0));
        PlacementProblem {
            movable: vec![
                Object {
                    width: 1.0,
                    height: 1.0,
                };
                m
            ],
            fixed: vec![(0.0, 0.0), (100.0, 0.0)],
            hypergraph: Hypergraph::new(n as usize, edges),
            net_weights: vec![1.0; m + 1],
            core: Rect::new(0.0, 0.0, 100.0, 100.0),
            region: vec![None; m],
            seed_positions: None,
            blockages: Vec::new(),
            density_target: 0.9,
        }
    }

    #[test]
    fn ic_preconditioner_converges_where_jacobi_stalls() {
        // On a 400-long chain, 30 Jacobi-CG iterations barely move the
        // residual; IC(0) factors the tridiagonal exactly and converges
        // in a handful of iterations.
        let m = 400;
        let p = chain_problem(m);
        let pos: Vec<(f64, f64)> = (0..m).map(|_| (50.0, 0.0)).collect();
        let sys = B2bSystem::build(&p, &pos, Axis::X, None);
        let x0 = vec![50.0; m];
        let mut scratch = CgScratch::default();
        let mut plain = x0.clone();
        let plain_stats = sys.solve_into(&mut plain, &mut scratch, 30, 1e-8, None);
        let mut pre = x0.clone();
        let ic = IcPreconditioner::new(&sys);
        let pre_stats = sys.solve_into(&mut pre, &mut scratch, 30, 1e-8, Some(&ic));
        assert!(
            pre_stats.relative_residual < 1e-8,
            "IC(0) residual {}",
            pre_stats.relative_residual
        );
        assert!(
            pre_stats.relative_residual < plain_stats.relative_residual / 1e3,
            "IC(0) {} vs Jacobi {}",
            pre_stats.relative_residual,
            plain_stats.relative_residual
        );
        assert!(pre_stats.iterations < plain_stats.iterations);
    }

    #[test]
    fn preconditioned_solve_is_thread_count_invariant() {
        let m = 100;
        let p = chain_problem(m);
        let pos: Vec<(f64, f64)> = (0..m).map(|i| (1.0 + i as f64 * 0.2, 0.0)).collect();
        let sys = B2bSystem::build(&p, &pos, Axis::X, None);
        let run = |threads: usize| {
            cp_parallel::with_threads(threads, || {
                let mut x: Vec<f64> = pos.iter().map(|&(x, _)| x).collect();
                let mut scratch = CgScratch::default();
                let ic = IcPreconditioner::new(&sys);
                sys.solve_into(&mut x, &mut scratch, 50, 1e-10, Some(&ic));
                x.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            })
        };
        let t1 = run(1);
        assert_eq!(t1, run(4));
        assert_eq!(t1, run(8));
    }

    #[test]
    fn y_axis_solve_pulls_into_hull() {
        let mut p = line_problem();
        p.fixed = vec![(0.0, 0.0), (0.0, 9.0)];
        let mut pos = vec![(0.0, -15.0), (0.0, 25.0)];
        for _ in 0..30 {
            let sys = B2bSystem::build(&p, &pos, Axis::Y, None);
            let y = sys.solve(&[pos[0].1, pos[1].1], 100, 1e-10);
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
    use crate::problem::Object;
    use cp_graph::Hypergraph;
    use cp_netlist::floorplan::Rect;
    use proptest::prelude::*;

    /// A randomized placement problem plus start positions and a sparse
    /// perturbation (for the incremental-rebuild property).
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
                    ],
                    fixed: coords[m..m + f].to_vec(),
                    hypergraph: Hypergraph::new(m + f, edges),
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

    fn sys_fingerprint(s: &B2bSystem) -> SysFingerprint {
        (
            s.order.clone(),
            s.ptr.clone(),
            s.col_idx.clone(),
            bits(&s.diag),
            bits(&s.val),
            bits(&s.rhs),
        )
    }

    /// A random system in plain CSR form plus an input vector: zero, one,
    /// a handful or a few parallel chunks' worth of rows, each row empty,
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
                case.diag.clone(), &case.row_ptr, &case.col_idx, &case.val, vec![0.0; n],
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
            let targets: Vec<f64> = (0..m).map(|i| i as f64 - 2.0).collect();
            let weights = vec![case.anchor_weight; m];
            let anchors = Anchors { target: &targets, weight: &weights };
            for axis in [Axis::X, Axis::Y] {
                for a in [None, Some(anchors)] {
                    let csr = B2bSystem::build(&case.problem, &case.pos0, axis, a);
                    let jag = jagged_oracle::JaggedSystem::build(
                        &case.problem, &case.pos0, axis, a,
                    );
                    prop_assert_eq!(bits(&csr.diag), bits(&jag.diag));
                    prop_assert_eq!(bits(&csr.rhs), bits(&jag.rhs));
                    let x0: Vec<f64> = case.pos0.iter()
                        .map(|&(x, y)| match axis { Axis::X => x, Axis::Y => y })
                        .collect();
                    let mut ap = vec![0.0; m];
                    csr.apply_into(&x0, &mut ap);
                    prop_assert_eq!(bits(&ap), bits(&jag.apply(&x0)));
                    let s_csr = csr.solve(&x0, 40, 1e-9);
                    let s_jag = jag.solve(&x0, 40, 1e-9);
                    prop_assert_eq!(bits(&s_csr), bits(&s_jag));
                }
            }
        }

        /// An incremental rebuild after a sparse perturbation equals a
        /// from-scratch build at the new positions, bit for bit.
        #[test]
        fn incremental_rebuild_matches_fresh(case in case_strategy()) {
            for axis in [Axis::X, Axis::Y] {
                let mut rb = B2bRebuilder::new(axis);
                rb.rebuild(&case.problem, &case.pos0, None);
                let fresh0 = B2bSystem::build(&case.problem, &case.pos0, axis, None);
                prop_assert_eq!(sys_fingerprint(rb.system()), sys_fingerprint(&fresh0));
                rb.rebuild(&case.problem, &case.pos1, None);
                let fresh1 = B2bSystem::build(&case.problem, &case.pos1, axis, None);
                prop_assert_eq!(sys_fingerprint(rb.system()), sys_fingerprint(&fresh1));
            }
        }

        /// Preconditioned (IC(0)) and plain (Jacobi) CG solve the same
        /// SPD system, so run to tight tolerance they converge to the
        /// same fixed point — different iteration paths, same answer.
        /// Anchors on every movable keep the system strictly positive
        /// definite (a movable pair connected only to each other would
        /// otherwise make it singular, where the fixed point is not
        /// unique).
        #[test]
        fn preconditioned_and_plain_cg_share_a_fixed_point(case in case_strategy()) {
            let m = case.problem.movable_count();
            let targets: Vec<f64> = (0..m).map(|i| i as f64 - 2.0).collect();
            let weights = vec![case.anchor_weight.max(0.05); m];
            let anchors = Some(Anchors { target: &targets, weight: &weights });
            for axis in [Axis::X, Axis::Y] {
                let sys = B2bSystem::build(&case.problem, &case.pos0, axis, anchors);
                let x0: Vec<f64> = case.pos0.iter()
                    .map(|&(x, y)| match axis { Axis::X => x, Axis::Y => y })
                    .collect();
                let mut scratch = CgScratch::default();
                let mut plain = x0.clone();
                sys.solve_into(&mut plain, &mut scratch, 500, 1e-12, None);
                let mut pre = x0.clone();
                let ic = IcPreconditioner::new(&sys);
                sys.solve_into(&mut pre, &mut scratch, 500, 1e-12, Some(&ic));
                for i in 0..plain.len() {
                    let scale = plain[i].abs().max(1.0);
                    prop_assert!(
                        (plain[i] - pre[i]).abs() <= 1e-6 * scale,
                        "row {}: plain {} vs preconditioned {}",
                        i, plain[i], pre[i],
                    );
                }
            }
        }

        /// Build + solve are bitwise-invariant across 1/4/8 threads.
        #[test]
        fn thread_count_does_not_change_bits(case in case_strategy()) {
            let run = |threads: usize| {
                cp_parallel::with_threads(threads, || {
                    let mut rb = B2bRebuilder::new(Axis::X);
                    rb.rebuild(&case.problem, &case.pos0, None);
                    rb.rebuild(&case.problem, &case.pos1, None);
                    let fp = sys_fingerprint(rb.system());
                    let x0: Vec<f64> = case.pos1.iter().map(|&(x, _)| x).collect();
                    let mut x = x0.clone();
                    let mut scratch = CgScratch::default();
                    rb.system().solve_into(&mut x, &mut scratch, 40, 1e-9, None);
                    (fp, bits(&x))
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
