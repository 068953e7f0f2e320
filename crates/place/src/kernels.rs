//! Flat, batched, branch-free CG vector kernels over the solver's scratch
//! buffers.
//!
//! The conjugate-gradient loop's non-SpMV work is a closed set of
//! element-wise passes and reductions. Unfused, one iteration walks the
//! iterate, residual, preconditioned residual and direction vectors seven
//! times; at 10⁶ variables each pass streams 8 MB per vector, so the loop
//! is memory-bound on traffic that fusion removes. The kernels here fuse
//! the passes that read the same cache lines:
//!
//! - [`fused_step`] — iterate update, residual update *and* residual norm
//!   in one pass (the body of a CG step),
//! - [`jacobi_dot`] — diagonal preconditioner application fused with the
//!   `r·z` inner product,
//! - [`xpay`] / [`dot`] / [`sub_dot`] — the remaining primitive shapes;
//!   [`sub_dot`] turns the right-hand side into the residual in place.
//!
//! The kernels are serial loops. The placer's parallelism sits one level
//! up: above the axis-task cutoff the X and Y solves run as two `join`
//! tasks, which on two threads leaves each axis one thread, and below it
//! every system fits one chunk anyway (DESIGN.md, "Parallel execution").
//! A reduction over more than one chunk keeps its chunk partials in a
//! caller-owned buffer (the solver's `CgScratch`), so no kernel allocates
//! once that buffer has grown to the system's chunk count.
//!
//! **Bitwise contract.** Every fused kernel performs the same per-element
//! arithmetic in the same order as the unfused sequence it replaces. The
//! reductions sum fixed [`VEC_CHUNK`]-element partials and combine them
//! with `cp_parallel::tree_combine`, the shape `cp_parallel::par_sum`
//! reduces in, so a dot product here equals `cp-parallel`'s reduction at
//! any thread count. The jagged-oracle proptests in [`crate::solver`],
//! whose oracle runs the unfused loop on `cp-parallel`'s primitives, pin
//! this.

use std::ops::Range;

/// Vector elements per reduction partial in all CG kernels. One shared
/// constant keeps every kernel on the same partials, which is what makes
/// their reductions interchangeable bit for bit.
pub const VEC_CHUNK: usize = 1024;

/// Sums `partial(range)` over the fixed [`VEC_CHUNK`] ranges of `0..n`
/// and combines the partials pairwise with `cp_parallel::tree_combine`,
/// collecting them in `parts` (overwritten). A vector that fits one chunk
/// is its own partial and leaves `parts` alone.
fn chunked_sum(
    n: usize,
    parts: &mut Vec<f64>,
    mut partial: impl FnMut(Range<usize>) -> f64,
) -> f64 {
    if n <= VEC_CHUNK {
        return partial(0..n);
    }
    parts.clear();
    parts.extend(
        (0..n)
            .step_by(VEC_CHUNK)
            .map(|start| partial(start..(start + VEC_CHUNK).min(n))),
    );
    cp_parallel::tree_combine(parts, |a, b| a + b).unwrap_or(0.0)
}

/// Dot product `Σ a[i]·b[i]` (fixed chunks, fixed-order tree reduction).
pub fn dot(a: &[f64], b: &[f64], parts: &mut Vec<f64>) -> f64 {
    chunked_sum(a.len().min(b.len()), parts, |r| {
        let mut s = 0.0;
        for i in r {
            s += a[i] * b[i];
        }
        s
    })
}

/// `y = x + beta · y`, element-wise (the CG direction update).
pub fn xpay(y: &mut [f64], beta: f64, x: &[f64]) {
    for (k, yi) in y.iter_mut().enumerate() {
        *yi = x[k] + beta * *yi;
    }
}

/// Fused difference-and-norm in place: `r = r - ax`, returning `Σ r[i]²`.
/// Turns the right-hand side `b` held in `r` into the initial CG residual
/// `b - ax` and its norm in one pass.
pub fn sub_dot(r: &mut [f64], ax: &[f64], parts: &mut Vec<f64>) -> f64 {
    chunked_sum(r.len(), parts, |c| {
        let off = c.start;
        let mut s = 0.0;
        for (k, ri) in r[c].iter_mut().enumerate() {
            *ri -= ax[off + k];
            s += *ri * *ri;
        }
        s
    })
}

/// Fused Jacobi application and inner product: `z = r / diag`, returning
/// `Σ r[i]·z[i]`. One pass where the preconditioner apply + `dot(r, z)`
/// would take two; bit-identical to that sequence.
pub fn jacobi_dot(z: &mut [f64], r: &[f64], diag: &[f64], parts: &mut Vec<f64>) -> f64 {
    chunked_sum(z.len(), parts, |c| {
        let off = c.start;
        let mut s = 0.0;
        for (k, zi) in z[c].iter_mut().enumerate() {
            *zi = r[off + k] / diag[off + k];
            s += r[off + k] * *zi;
        }
        s
    })
}

/// The fused body of one CG step: `x += alpha · p`, `r -= alpha · ap`,
/// returning `Σ r[i]²` of the updated residual. Replaces two `axpy`
/// passes and a `dot` — three full memory sweeps — with one, and is
/// bit-identical to the unfused sequence.
///
/// # Panics
///
/// Panics if `x` and `r` differ in length.
pub fn fused_step(
    x: &mut [f64],
    r: &mut [f64],
    p: &[f64],
    ap: &[f64],
    alpha: f64,
    parts: &mut Vec<f64>,
) -> f64 {
    assert_eq!(x.len(), r.len(), "fused_step buffers differ");
    chunked_sum(x.len(), parts, |c| {
        let off = c.start;
        let mut s = 0.0;
        for (k, (xi, ri)) in x[c.clone()].iter_mut().zip(&mut r[c]).enumerate() {
            *xi += alpha * p[off + k];
            *ri -= alpha * ap[off + k];
            s += *ri * *ri;
        }
        s
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `y += alpha · x`, element-wise: the unfused reference pass.
    fn axpy(y: &mut [f64], alpha: f64, x: &[f64]) {
        for (yi, xi) in y.iter_mut().zip(x) {
            *yi += alpha * xi;
        }
    }

    /// `cp-parallel`'s reduction of `Σ a[i]·b[i]` over the kernels' chunks —
    /// the reference every kernel's sum must equal bit for bit.
    fn pool_dot(a: &[f64], b: &[f64], threads: usize) -> f64 {
        cp_parallel::with_threads(threads, || {
            cp_parallel::par_sum(a.len(), VEC_CHUNK, |r| {
                let mut s = 0.0;
                for i in r {
                    s += a[i] * b[i];
                }
                s
            })
        })
    }

    /// `out[i] = f(i)` through `cp-parallel`'s chunked writer.
    fn pool_fill(n: usize, threads: usize, f: impl Fn(usize) -> f64 + Sync) -> Vec<f64> {
        let mut out = vec![0.0; n];
        cp_parallel::with_threads(threads, || {
            cp_parallel::par_chunks_mut(&mut out, VEC_CHUNK, |_, off, s| {
                for (k, v) in s.iter_mut().enumerate() {
                    *v = f(off + k);
                }
            });
        });
        out
    }

    fn vecs(n: usize) -> (Vec<f64>, Vec<f64>, Vec<f64>, Vec<f64>) {
        let gen = |salt: u64| -> Vec<f64> {
            (0..n)
                .map(|i| {
                    let h = (i as u64)
                        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                        .wrapping_add(salt);
                    ((h % 4096) as f64 - 2048.0) * 1e-3
                })
                .collect()
        };
        (gen(1), gen(2), gen(3), gen(4))
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Multi-chunk sizes: a partial last chunk with an odd chunk count
    /// (the tree carries a tail up) and an exact power-of-two count.
    const TREE_SIZES: [usize; 2] = [5 * VEC_CHUNK + 3, 8 * VEC_CHUNK];

    #[test]
    fn fused_step_matches_unfused_sequence_bitwise() {
        // Sizes straddling the chunk boundary, so partial chunks and the
        // tree shapes are exercised; the partials buffer carries the last
        // size's partials (and starts out dirty) and must not leak them.
        let mut parts = vec![f64::NAN; 7];
        for n in [1usize, 7, VEC_CHUNK, VEC_CHUNK + 1, 3 * VEC_CHUNK + 17]
            .into_iter()
            .chain(TREE_SIZES)
        {
            let (x0, r0, p, ap) = vecs(n);
            let alpha = 0.3725;
            // Unfused reference: two axpys, then `cp-parallel`'s dot.
            let mut x_ref = x0.clone();
            let mut r_ref = r0.clone();
            axpy(&mut x_ref, alpha, &p);
            axpy(&mut r_ref, -alpha, &ap);
            let mut x = x0.clone();
            let mut r = r0.clone();
            let rr = fused_step(&mut x, &mut r, &p, &ap, alpha, &mut parts);
            assert_eq!(bits(&x_ref), bits(&x), "n={n}");
            assert_eq!(bits(&r_ref), bits(&r), "n={n}");
            for threads in [1usize, 4] {
                let rr_ref = pool_dot(&r_ref, &r_ref, threads);
                assert_eq!(rr_ref.to_bits(), rr.to_bits(), "n={n} t={threads}");
                let d = dot(&r_ref, &r_ref, &mut parts);
                assert_eq!(rr_ref.to_bits(), d.to_bits(), "n={n} t={threads}");
            }
        }
    }

    #[test]
    fn jacobi_dot_matches_divide_then_dot() {
        for n in [VEC_CHUNK + 99].into_iter().chain(TREE_SIZES) {
            let (r, mut d, _, _) = vecs(n);
            for v in d.iter_mut() {
                *v = v.abs() + 0.5; // positive diagonal
            }
            let mut z = vec![0.0; n];
            let got = jacobi_dot(&mut z, &r, &d, &mut Vec::new());
            for threads in [1usize, 4] {
                let z_ref = pool_fill(n, threads, |i| r[i] / d[i]);
                assert_eq!(bits(&z_ref), bits(&z), "n={n} t={threads}");
                let want = pool_dot(&r, &z_ref, threads);
                assert_eq!(want.to_bits(), got.to_bits(), "n={n} t={threads}");
            }
        }
    }

    #[test]
    fn sub_dot_matches_sub_then_dot() {
        for n in [VEC_CHUNK * 2].into_iter().chain(TREE_SIZES) {
            let (b, ax, _, _) = vecs(n);
            let mut r = b.clone();
            let got = sub_dot(&mut r, &ax, &mut Vec::new());
            for threads in [1usize, 4] {
                let r_ref = pool_fill(n, threads, |i| b[i] - ax[i]);
                assert_eq!(bits(&r_ref), bits(&r), "n={n} t={threads}");
                let want = pool_dot(&r_ref, &r_ref, threads);
                assert_eq!(want.to_bits(), got.to_bits(), "n={n} t={threads}");
            }
        }
    }

    #[test]
    fn xpay_is_the_direction_update() {
        for n in [513].into_iter().chain(TREE_SIZES) {
            let (p0, z, _, _) = vecs(n);
            let mut p = p0.clone();
            xpay(&mut p, 0.75, &z);
            for i in 0..n {
                assert_eq!(p[i].to_bits(), (z[i] + 0.75 * p0[i]).to_bits());
            }
        }
    }
}
