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
//! - [`axpy_dot`] — residual update and its norm in one pass,
//! - [`fused_step`] — iterate update, residual update *and* residual norm
//!   in one pass (the body of a CG step),
//! - [`jacobi_dot`] — diagonal preconditioner application fused with the
//!   `r·z` inner product,
//! - [`xpay`] / [`dot`] / [`sub_dot`] — the remaining primitive shapes.
//!
//! **Bitwise contract.** Every fused kernel performs the same per-element
//! arithmetic in the same order as the unfused sequence it replaces, over
//! the same fixed chunk geometry ([`VEC_CHUNK`]), and reduces partials
//! with `cp-parallel`'s fixed-order tree. The solver's CG loop on these
//! kernels is therefore bit-identical to the one-pass-per-operation loop
//! it replaced at every thread count; the jagged-oracle proptests in
//! [`crate::solver`], whose oracle still runs that loop, pin this.

/// Vector elements per parallel chunk in all CG kernels. One shared
/// constant keeps every kernel on the same chunk geometry, which is what
/// makes their reductions interchangeable bit for bit.
pub const VEC_CHUNK: usize = 1024;

/// Deterministic parallel dot product `Σ a[i]·b[i]` (fixed chunks,
/// fixed-order tree reduction — see `cp-parallel`).
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    cp_parallel::par_sum(a.len().min(b.len()), VEC_CHUNK, |r| {
        let mut s = 0.0;
        for i in r {
            s += a[i] * b[i];
        }
        s
    })
}

/// Fused update-and-norm: `y += alpha · x`, returning `Σ y[i]²` of the
/// updated vector. One pass where `axpy` + `dot(y, y)` would take two;
/// bit-identical to that sequence.
pub fn axpy_dot(y: &mut [f64], alpha: f64, x: &[f64]) -> f64 {
    cp_parallel::par_chunks_mut_sum(y, VEC_CHUNK, |_, off, slice| {
        let mut s = 0.0;
        for (k, yi) in slice.iter_mut().enumerate() {
            *yi += alpha * x[off + k];
            s += *yi * *yi;
        }
        s
    })
}

/// `y = x + beta · y`, element-wise (the CG direction update).
pub fn xpay(y: &mut [f64], beta: f64, x: &[f64]) {
    cp_parallel::par_chunks_mut(y, VEC_CHUNK, |_, off, slice| {
        for (k, yi) in slice.iter_mut().enumerate() {
            *yi = x[off + k] + beta * *yi;
        }
    });
}

/// Fused difference-and-norm: `r = b - ax`, returning `Σ r[i]²`. Produces
/// the initial CG residual and its norm in one pass.
pub fn sub_dot(r: &mut [f64], b: &[f64], ax: &[f64]) -> f64 {
    cp_parallel::par_chunks_mut_sum(r, VEC_CHUNK, |_, off, slice| {
        let mut s = 0.0;
        for (k, ri) in slice.iter_mut().enumerate() {
            *ri = b[off + k] - ax[off + k];
            s += *ri * *ri;
        }
        s
    })
}

/// Fused Jacobi application and inner product: `z = r / diag`, returning
/// `Σ r[i]·z[i]`. One pass where the preconditioner apply + `dot(r, z)`
/// would take two; bit-identical to that sequence.
pub fn jacobi_dot(z: &mut [f64], r: &[f64], diag: &[f64]) -> f64 {
    cp_parallel::par_chunks_mut_sum(z, VEC_CHUNK, |_, off, slice| {
        let mut s = 0.0;
        for (k, zi) in slice.iter_mut().enumerate() {
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
pub fn fused_step(x: &mut [f64], r: &mut [f64], p: &[f64], ap: &[f64], alpha: f64) -> f64 {
    cp_parallel::par_chunks2_mut_sum(x, r, VEC_CHUNK, |_, off, sx, sr| {
        let mut s = 0.0;
        for (k, (xi, ri)) in sx.iter_mut().zip(sr.iter_mut()).enumerate() {
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

    #[test]
    fn fused_step_matches_unfused_sequence_bitwise() {
        // Sizes straddling the chunk boundary, so partial chunks and the
        // tree shapes are exercised.
        for n in [1usize, 7, VEC_CHUNK, VEC_CHUNK + 1, 3 * VEC_CHUNK + 17] {
            let (x0, r0, p, ap) = vecs(n);
            let alpha = 0.3725;
            // Unfused reference: two axpys then a dot, seed order.
            let mut x_ref = x0.clone();
            let mut r_ref = r0.clone();
            axpy(&mut x_ref, alpha, &p);
            axpy(&mut r_ref, -alpha, &ap);
            let rr_ref = dot(&r_ref, &r_ref);
            for threads in [1usize, 4, 8] {
                let mut x = x0.clone();
                let mut r = r0.clone();
                let rr = cp_parallel::with_threads(threads, || {
                    fused_step(&mut x, &mut r, &p, &ap, alpha)
                });
                assert_eq!(bits(&x_ref), bits(&x), "n={n} t={threads}");
                assert_eq!(bits(&r_ref), bits(&r), "n={n} t={threads}");
                assert_eq!(rr_ref.to_bits(), rr.to_bits(), "n={n} t={threads}");
            }
        }
    }

    #[test]
    fn axpy_dot_matches_axpy_then_dot() {
        let n = 2 * VEC_CHUNK + 333;
        let (y0, x, _, _) = vecs(n);
        let mut y_ref = y0.clone();
        axpy(&mut y_ref, -1.25, &x);
        let want = dot(&y_ref, &y_ref);
        let mut y = y0.clone();
        let got = axpy_dot(&mut y, -1.25, &x);
        assert_eq!(bits(&y_ref), bits(&y));
        assert_eq!(want.to_bits(), got.to_bits());
    }

    #[test]
    fn jacobi_dot_matches_divide_then_dot() {
        let n = VEC_CHUNK + 99;
        let (r, mut d, _, _) = vecs(n);
        for v in d.iter_mut() {
            *v = v.abs() + 0.5; // positive diagonal
        }
        let mut z_ref = vec![0.0; n];
        cp_parallel::par_chunks_mut(&mut z_ref, VEC_CHUNK, |_, off, s| {
            for (k, zi) in s.iter_mut().enumerate() {
                *zi = r[off + k] / d[off + k];
            }
        });
        let want = dot(&r, &z_ref);
        let mut z = vec![0.0; n];
        let got = jacobi_dot(&mut z, &r, &d);
        assert_eq!(bits(&z_ref), bits(&z));
        assert_eq!(want.to_bits(), got.to_bits());
    }

    #[test]
    fn sub_dot_matches_sub_then_dot() {
        let n = VEC_CHUNK * 2;
        let (b, ax, _, _) = vecs(n);
        let mut r_ref = vec![0.0; n];
        cp_parallel::par_chunks_mut(&mut r_ref, VEC_CHUNK, |_, off, s| {
            for (k, ri) in s.iter_mut().enumerate() {
                *ri = b[off + k] - ax[off + k];
            }
        });
        let want = dot(&r_ref, &r_ref);
        let mut r = vec![0.0; n];
        let got = sub_dot(&mut r, &b, &ax);
        assert_eq!(bits(&r_ref), bits(&r));
        assert_eq!(want.to_bits(), got.to_bits());
    }

    #[test]
    fn xpay_is_the_direction_update() {
        let n = 513;
        let (p0, z, _, _) = vecs(n);
        let mut p = p0.clone();
        xpay(&mut p, 0.75, &z);
        for i in 0..n {
            assert_eq!(p[i].to_bits(), (z[i] + 0.75 * p0[i]).to_bits());
        }
    }
}
