//! Worker-count determinism matrix for the blocked kernels.
//!
//! The `ExecCtx` contract promises that results are a pure function of
//! the input — never of the worker count, pool reuse, or run number.
//! The lane kernels behind every blocked product (see `kr_linalg::simd`)
//! have a fixed schedule, so their results must be bitwise-stable across
//! all of those.

use kr_linalg::{ExecCtx, Matrix};

/// Ragged-enough shapes to split unevenly across 2 and 8 workers and to
/// exercise the panel kernels' vector and tail paths.
const SHAPES: [(usize, usize, usize); 4] = [(1, 1, 1), (7, 5, 3), (33, 17, 9), (64, 32, 21)];

fn mk(rows: usize, cols: usize, salt: u64) -> Matrix {
    Matrix::from_fn(rows, cols, |i, j| {
        let v = (i as u64)
            .wrapping_mul(2654435761)
            .wrapping_add((j as u64).wrapping_mul(40503))
            .wrapping_add(salt);
        ((v % 2048) as f64 - 1024.0) * 0.013
    })
}

fn bits(m: &Matrix) -> Vec<u64> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// Runs every blocked kernel under `exec` and returns the raw bits of
/// all outputs, concatenated in a fixed order.
fn all_kernels(exec: &ExecCtx, m: usize, d: usize, n: usize) -> Vec<u64> {
    let a = mk(m, d, 1);
    let b = mk(d, n, 2);
    let bt = mk(n, d, 3);
    let at = mk(d, m, 4);
    let y = mk(n, d, 5);
    let mut out = bits(&a.matmul_with(&b, exec).unwrap());
    out.extend(bits(&a.matmul_transpose_b_with(&bt, exec).unwrap()));
    out.extend(bits(&at.matmul_transpose_a_with(&b, exec).unwrap()));
    out.extend(bits(&a.pairwise_sqdist_with(&y, exec).unwrap()));
    out
}

#[test]
fn exec_determinism_simd_1_2_8_workers() {
    for (m, d, n) in SHAPES {
        let reference = all_kernels(&ExecCtx::serial(), m, d, n);
        // Same ctx again: run-to-run stability (scratch pools warm).
        let again = all_kernels(&ExecCtx::serial(), m, d, n);
        assert_eq!(reference, again, "serial rerun ({m}x{d}x{n})");
        for workers in [1usize, 2, 8] {
            let exec = ExecCtx::threaded(workers);
            let got = all_kernels(&exec, m, d, n);
            assert_eq!(reference, got, "workers={workers} ({m}x{d}x{n})");
            // Reusing the ctx (and its pool + scratch arena) must not
            // perturb results either.
            let reused = all_kernels(&exec, m, d, n);
            assert_eq!(reference, reused, "workers={workers} reuse");
        }
    }
}

#[test]
fn exec_determinism_exact_inputs_match_unfused_naive() {
    // Small-integer entries make every product and sum exact, so the
    // fused lane schedule must agree bitwise with an unfused naive
    // loop — across every worker count at once.
    let a = Matrix::from_fn(13, 7, |i, j| ((i * 7 + j * 3) % 9) as f64 - 4.0);
    let b = Matrix::from_fn(7, 11, |i, j| ((i * 5 + j) % 7) as f64 - 3.0);
    let reference = Matrix::from_fn(13, 11, |i, j| {
        let mut acc = 0.0f64;
        for p in 0..7 {
            acc += a.get(i, p) * b.get(p, j);
        }
        acc
    });
    for workers in [1usize, 2, 8] {
        let got = a.matmul_with(&b, &ExecCtx::threaded(workers)).unwrap();
        assert_eq!(bits(&reference), bits(&got), "workers={workers}");
    }
}
