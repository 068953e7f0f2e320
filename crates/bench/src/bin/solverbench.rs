//! Solver micro-bench (hot-path kernels in isolation): builds synthetic
//! B2B systems at 10k / 100k / 1M variables and times
//!
//! - one SpMV (`B2bSystem::apply_into`, rows bucketed by length),
//!   min-of-N, reported as seconds and Mnnz/s,
//! - a full fixed-budget CG solve, with the non-SpMV share split out,
//! - convergence honesty: iterations and seconds to a relative residual
//!   of ≤ 1e-4 (capped) for plain Jacobi-CG vs IC(0)-preconditioned CG
//!   (factorization timed separately and included in the total),
//! - a full B2B rebuild from scratch vs an incremental rebuild after
//!   moving 1% of the cells (the cached-net fast path).
//!
//! Writes `BENCH_solver.json`. The synthetic netlists are seeded and the
//! kernels bitwise-deterministic, so per-size nnz and CG iteration
//! counts are stable across runs and machines — only the seconds vary.

use cp_graph::Hypergraph;
use cp_netlist::floorplan::Rect;
use cp_place::solver::{Axis, B2bRebuilder, CgScratch, CgStats, IcPreconditioner};
use cp_place::{Object, PlacementProblem};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::time::Instant;

const SIZES: [usize; 3] = [10_000, 100_000, 1_000_000];
const SPMV_REPS: usize = 20;
const CG_ITERS: usize = 60;
/// Convergence target for the iterations-to-tolerance rows.
const TOL: f64 = 1e-4;
/// Iteration cap for the to-tolerance rows: plain Jacobi-CG on the
/// chain-dominated synthetic may simply not get there — that is the
/// point, and the row reports `reached: false` honestly.
const TOL_CAP: usize = 500;
/// The solves are deterministic, so repeated runs differ only in wall
/// time; min-of-N filters scheduler noise out of the timed rows.
const SOLVE_REPS: usize = 3;

/// Synthetic placement problem: `n` movable cells in a square core,
/// `1.5 n` random 2–4-pin nets plus a connectivity chain, seeded
/// positions uniform over the core.
fn synthetic(n: usize, seed: u64) -> (PlacementProblem, Vec<(f64, f64)>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let side = (n as f64).sqrt().ceil().max(4.0) * 2.0;
    let mut edges: Vec<(Vec<u32>, f64)> = Vec::with_capacity(n + n / 2);
    // Chain keeps the graph connected so CG sees one coupled system.
    for i in 0..n.saturating_sub(1) {
        edges.push((vec![i as u32, i as u32 + 1], 1.0));
    }
    // IO nets tie a spread of cells to the corner terminals — the
    // boundary conditions that give CG real work to do.
    for i in (0..n).step_by((n / 64).max(1)) {
        edges.push((vec![i as u32, (n + (i % 2)) as u32], 2.0));
    }
    // Random nets may also pick the fixed terminals.
    for _ in 0..n / 2 {
        let pins = 2 + rng.random_range(0..3usize);
        let mut verts: Vec<u32> = (0..pins)
            .map(|_| rng.random_range(0..n + 2) as u32)
            .collect();
        verts.sort_unstable();
        verts.dedup();
        if verts.len() >= 2 {
            edges.push((verts, 0.5 + rng.random::<f64>()));
        }
    }
    let edge_count = edges.len();
    let problem = PlacementProblem {
        movable: vec![
            Object {
                width: 1.0,
                height: 1.0,
            };
            n
        ],
        fixed: vec![(0.0, 0.0), (side, side)],
        hypergraph: Hypergraph::new(n + 2, edges),
        net_weights: vec![1.0; edge_count],
        core: Rect::new(0.0, 0.0, side, side),
        region: vec![None; n],
        seed_positions: None,
        blockages: Vec::new(),
        density_target: 0.9,
    };
    let positions: Vec<(f64, f64)> = (0..n)
        .map(|_| (rng.random::<f64>() * side, rng.random::<f64>() * side))
        .collect();
    (problem, positions)
}

struct SizeResult {
    n: usize,
    nnz: usize,
    build_s: f64,
    incremental_s: f64,
    spmv_s: f64,
    /// Fixed-budget CG (the default Jacobi path).
    cg_s: f64,
    cg_iters: usize,
    cg_rel: f64,
    /// Plain Jacobi-CG to TOL (capped at TOL_CAP).
    tol_iters: usize,
    tol_s: f64,
    tol_rel: f64,
    /// IC(0)-preconditioned CG to TOL: factor time + solve time.
    ic_factor_s: f64,
    pcg_iters: usize,
    pcg_s: f64,
    pcg_rel: f64,
}

impl SizeResult {
    /// SpMV throughput, millions of stored off-diagonal entries per second.
    fn mnnz_per_s(&self) -> f64 {
        self.nnz as f64 / self.spmv_s.max(1e-12) / 1e6
    }

    /// The fixed-budget solve minus its SpMVs: the vector-kernel share.
    fn cg_non_spmv_s(&self) -> f64 {
        (self.cg_s - self.cg_iters as f64 * self.spmv_s).max(0.0)
    }
}

fn bench_size(n: usize) -> SizeResult {
    let (problem, positions) = synthetic(n, 0x5eed ^ n as u64);

    // Full-rebuild vs incremental-rebuild comparison with the allocator
    // warmth held equal: after a cold first build, alternate an
    // every-cell move (all nets dirty — the full re-derive path, warm
    // arenas) with a 1%-cell move (the cached-net fast path), min over
    // repeats. Timing the cold first build as "full" would flatter the
    // incremental row with allocation noise.
    let mut rb = B2bRebuilder::new(Axis::X);
    let mut cur = positions.clone();
    rb.rebuild(&problem, &cur, None);
    let mut rng = StdRng::seed_from_u64(97);
    let (mut build_s, mut incremental_s) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..SOLVE_REPS {
        // Uniform shift: every pin coordinate changes (all nets dirty)
        // while the pin ordering — and so the pair topology — stays put.
        for p in &mut cur {
            p.0 += 0.375;
        }
        let t0 = Instant::now();
        rb.rebuild(&problem, &cur, None);
        build_s = build_s.min(t0.elapsed().as_secs_f64());
        for _ in 0..(n / 100).max(1) {
            let i = rng.random_range(0..n);
            cur[i].0 += 0.75;
        }
        let t1 = Instant::now();
        rb.rebuild(&problem, &cur, None);
        incremental_s = incremental_s.min(t1.elapsed().as_secs_f64());
    }
    let nnz = rb.system().nnz();

    let sys = rb.system();
    let x: Vec<f64> = (0..sys.len()).map(|i| (i % 17) as f64 * 0.25).collect();
    let mut out = vec![0.0; sys.len()];
    let mut spmv_s = f64::INFINITY;
    for _ in 0..SPMV_REPS {
        let t = Instant::now();
        sys.apply_into(&x, &mut out);
        spmv_s = spmv_s.min(t.elapsed().as_secs_f64());
    }
    assert!(out.iter().all(|v| v.is_finite()));

    // Fixed-budget CG. Warm the scratch allocations outside the timed
    // region, then take the min over SOLVE_REPS deterministic repeats of
    // every solve row.
    let mut scratch = CgScratch::default();
    let mut cg_s = f64::INFINITY;
    let mut stats = CgStats::default();
    for rep in 0..=SOLVE_REPS {
        let mut sol = vec![0.0; sys.len()];
        let t = Instant::now();
        stats = sys.solve_into(&mut sol, &mut scratch, CG_ITERS, 1e-6, None);
        if rep > 0 {
            cg_s = cg_s.min(t.elapsed().as_secs_f64());
        }
    }

    // Convergence honesty: to-tolerance rows. Plain Jacobi first.
    let mut tol_s = f64::INFINITY;
    let mut tol_stats = CgStats::default();
    for _ in 0..SOLVE_REPS {
        let mut sol = vec![0.0; sys.len()];
        let t = Instant::now();
        tol_stats = sys.solve_into(&mut sol, &mut scratch, TOL_CAP, TOL, None);
        tol_s = tol_s.min(t.elapsed().as_secs_f64());
    }

    // IC(0)-preconditioned, factorization timed apart.
    let mut ic_factor_s = f64::INFINITY;
    let mut pcg_s = f64::INFINITY;
    let mut pcg_stats = CgStats::default();
    for _ in 0..SOLVE_REPS {
        let t = Instant::now();
        let ic = IcPreconditioner::new(sys);
        ic_factor_s = ic_factor_s.min(t.elapsed().as_secs_f64());
        let mut sol = vec![0.0; sys.len()];
        let t = Instant::now();
        pcg_stats = sys.solve_into(&mut sol, &mut scratch, TOL_CAP, TOL, Some(&ic));
        pcg_s = pcg_s.min(t.elapsed().as_secs_f64());
    }

    SizeResult {
        n,
        nnz,
        build_s,
        incremental_s,
        spmv_s,
        cg_s,
        cg_iters: stats.iterations,
        cg_rel: stats.relative_residual,
        tol_iters: tol_stats.iterations,
        tol_s,
        tol_rel: tol_stats.relative_residual,
        ic_factor_s,
        pcg_iters: pcg_stats.iterations,
        pcg_s,
        pcg_rel: pcg_stats.relative_residual,
    }
}

fn main() {
    println!(
        "# Solver kernels (CSR B2B): min-of-{SPMV_REPS} SpMV, {CG_ITERS}-iter CG budget, \
         to-tolerance rel {TOL:.0e} capped at {TOL_CAP}"
    );
    let results: Vec<SizeResult> = SIZES
        .iter()
        .map(|&n| {
            let r = bench_size(n);
            println!(
                "{:>9} vars: nnz {:>9}, build {:.4}s, incr {:.4}s ({:.1}x), spmv {:.5}s \
                 ({:.0} Mnnz/s), cg {:.3}s ({} iters, rel {:.2e}, non-spmv {:.3}s)",
                r.n,
                r.nnz,
                r.build_s,
                r.incremental_s,
                r.build_s / r.incremental_s.max(1e-12),
                r.spmv_s,
                r.mnnz_per_s(),
                r.cg_s,
                r.cg_iters,
                r.cg_rel,
                r.cg_non_spmv_s(),
            );
            println!(
                "           to rel {TOL:.0e}: jacobi {} iters {:.3}s (rel {:.2e}{}) | \
                 ic(0) factor {:.4}s + {} iters {:.3}s = {:.3}s (rel {:.2e}{})",
                r.tol_iters,
                r.tol_s,
                r.tol_rel,
                if r.tol_rel <= TOL {
                    ""
                } else {
                    ", NOT reached"
                },
                r.ic_factor_s,
                r.pcg_iters,
                r.pcg_s,
                r.ic_factor_s + r.pcg_s,
                r.pcg_rel,
                if r.pcg_rel <= TOL {
                    ""
                } else {
                    ", NOT reached"
                },
            );
            r
        })
        .collect();

    let sizes_json = results
        .iter()
        .map(|r| {
            format!(
                "    {{\"vars\": {}, \"nnz\": {}, \"build_s\": {:.6}, \
                 \"incremental_rebuild_s\": {:.6}, \"spmv_s\": {:.6}, \
                 \"spmv_mnnz_per_s\": {:.2}, \"cg_s\": {:.6}, \"cg_iters\": {}, \
                 \"cg_rel_residual\": {:e}, \"cg_non_spmv_s\": {:.6}, \
                 \"to_tol\": {{\"tol\": {:e}, \"cap\": {}, \
                 \"jacobi\": {{\"iters\": {}, \"secs\": {:.6}, \"rel\": {:e}, \"reached\": {}}}, \
                 \"ic0\": {{\"factor_s\": {:.6}, \"iters\": {}, \"solve_s\": {:.6}, \
                 \"total_s\": {:.6}, \"rel\": {:e}, \"reached\": {}}}}}}}",
                r.n,
                r.nnz,
                r.build_s,
                r.incremental_s,
                r.spmv_s,
                r.mnnz_per_s(),
                r.cg_s,
                r.cg_iters,
                r.cg_rel,
                r.cg_non_spmv_s(),
                TOL,
                TOL_CAP,
                r.tol_iters,
                r.tol_s,
                r.tol_rel,
                r.tol_rel <= TOL,
                r.ic_factor_s,
                r.pcg_iters,
                r.pcg_s,
                r.ic_factor_s + r.pcg_s,
                r.pcg_rel,
                r.pcg_rel <= TOL,
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let json = format!(
        "{{\n  \"bench\": \"solver_kernels\",\n  \"detected_cores\": {},\n  \
         \"spmv_reps\": {},\n  \"cg_iter_budget\": {},\n  \"sizes\": [\n{}\n  ]\n}}\n",
        cp_parallel::detected_cores(),
        SPMV_REPS,
        CG_ITERS,
        sizes_json
    );
    std::fs::write("BENCH_solver.json", &json).expect("write BENCH_solver.json");
    println!("\nwrote BENCH_solver.json");
}
