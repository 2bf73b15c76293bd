//! Property-based tests for the linear-algebra kernels.

use kr_linalg::{ops, simd, ExecCtx, Matrix};
use proptest::prelude::*;

fn small_matrix(max_dim: usize) -> impl Strategy<Value = Matrix> {
    (1..=max_dim, 1..=max_dim).prop_flat_map(|(r, c)| {
        proptest::collection::vec(-100.0..100.0f64, r * c)
            .prop_map(move |data| Matrix::from_vec(r, c, data).unwrap())
    })
}

fn matrix_pair_same_shape(max_dim: usize) -> impl Strategy<Value = (Matrix, Matrix)> {
    (1..=max_dim, 1..=max_dim).prop_flat_map(|(r, c)| {
        let a = proptest::collection::vec(-100.0..100.0f64, r * c);
        let b = proptest::collection::vec(-100.0..100.0f64, r * c);
        (a, b).prop_map(move |(a, b)| {
            (
                Matrix::from_vec(r, c, a).unwrap(),
                Matrix::from_vec(r, c, b).unwrap(),
            )
        })
    })
}

/// Values drawn with a heavy share of signed zeros, so whole rows of
/// products come out `-0.0` and the accumulator's starting value shows.
fn zero_heavy() -> impl Strategy<Value = f64> {
    prop_oneof![Just(0.0f64), Just(-0.0f64), -4.0..4.0f64]
}

/// Test-local oracle: the textbook unfused triple loop, ascending `p`
/// per element (`acc += a * b`, two roundings per step).
fn naive_matmul(a: &Matrix, b: &Matrix) -> Matrix {
    Matrix::from_fn(a.nrows(), b.ncols(), |i, j| {
        let mut acc = 0.0f64;
        for p in 0..a.ncols() {
            acc += a.get(i, p) * b.get(p, j);
        }
        acc
    })
}

/// Test-local oracle for the pairwise kernel: the same norm expansion
/// `(‖x‖² + ‖c‖² − 2 x·c).max(0)`, every sum an unfused ascending loop.
fn naive_pairwise(x: &Matrix, c: &Matrix) -> Matrix {
    let dots = naive_matmul(x, &c.transpose());
    let norm = |r: &[f64]| {
        let mut acc = 0.0f64;
        for &v in r {
            acc += v * v;
        }
        acc
    };
    Matrix::from_fn(x.nrows(), c.nrows(), |i, j| {
        (norm(x.row(i)) + norm(c.row(j)) - 2.0 * dots.get(i, j)).max(0.0)
    })
}

fn approx_eq(a: &Matrix, b: &Matrix, tol: f64) -> bool {
    a.shape() == b.shape()
        && a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(&x, &y)| (x - y).abs() <= tol * (1.0 + x.abs().max(y.abs())))
}

proptest! {
    #[test]
    fn transpose_is_involution(m in small_matrix(8)) {
        prop_assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn matmul_identity_left_right(m in small_matrix(6)) {
        let il = Matrix::identity(m.nrows());
        let ir = Matrix::identity(m.ncols());
        prop_assert!(approx_eq(&il.matmul(&m).unwrap(), &m, 1e-12));
        prop_assert!(approx_eq(&m.matmul(&ir).unwrap(), &m, 1e-12));
    }

    #[test]
    fn matmul_transpose_identities(m in small_matrix(6), n in small_matrix(6)) {
        // (A B^T) with matching inner dims, checked against explicit transpose.
        if m.ncols() == n.ncols() {
            let fast = m.matmul_transpose_b(&n).unwrap();
            let slow = m.matmul(&n.transpose()).unwrap();
            prop_assert!(approx_eq(&fast, &slow, 1e-9));
        }
        if m.nrows() == n.nrows() {
            let fast = m.matmul_transpose_a(&n).unwrap();
            let slow = m.transpose().matmul(&n).unwrap();
            prop_assert!(approx_eq(&fast, &slow, 1e-9));
        }
    }

    #[test]
    fn hadamard_commutes((a, b) in matrix_pair_same_shape(8)) {
        prop_assert_eq!(a.hadamard(&b).unwrap(), b.hadamard(&a).unwrap());
    }

    #[test]
    fn add_sub_roundtrip((a, b) in matrix_pair_same_shape(8)) {
        let sum = a.add(&b).unwrap();
        let back = sum.sub(&b).unwrap();
        prop_assert!(approx_eq(&back, &a, 1e-9));
    }

    #[test]
    fn pairwise_sqdist_matches_naive((a, b) in matrix_pair_same_shape(6)) {
        let d = a.pairwise_sqdist(&b).unwrap();
        for i in 0..a.nrows() {
            for j in 0..b.nrows() {
                let naive = ops::sqdist(a.row(i), b.row(j));
                let fast = d.get(i, j);
                prop_assert!((naive - fast).abs() <= 1e-6 * (1.0 + naive), "i={i} j={j}");
                prop_assert!(fast >= 0.0);
            }
        }
    }

    #[test]
    fn self_distance_diag_is_small(m in small_matrix(6)) {
        let d = m.pairwise_sqdist(&m).unwrap();
        for i in 0..m.nrows() {
            prop_assert!(d.get(i, i).abs() <= 1e-6 * (1.0 + ops::sq_norm(m.row(i))));
        }
    }

    #[test]
    fn dot_cauchy_schwarz(v in proptest::collection::vec(-50.0..50.0f64, 1..32),
                          w in proptest::collection::vec(-50.0..50.0f64, 1..32)) {
        let n = v.len().min(w.len());
        let (v, w) = (&v[..n], &w[..n]);
        let lhs = ops::dot(v, w).abs();
        let rhs = (ops::sq_norm(v) * ops::sq_norm(w)).sqrt();
        prop_assert!(lhs <= rhs + 1e-6 * (1.0 + rhs));
    }

    #[test]
    fn softmax_is_distribution(mut v in proptest::collection::vec(-500.0..500.0f64, 1..16)) {
        ops::softmax_inplace(&mut v);
        let s: f64 = v.iter().sum();
        prop_assert!((s - 1.0).abs() < 1e-9);
        prop_assert!(v.iter().all(|&x| (0.0..=1.0).contains(&x)));
    }

    #[test]
    fn col_means_bounded_by_extremes(m in small_matrix(8)) {
        let means = m.col_means();
        // Col-heavy access goes through the blocked transpose: one
        // gather, then contiguous row reads per column.
        let mt = m.transpose();
        for (j, &mu) in means.iter().enumerate() {
            let col = mt.row(j);
            let gathered = m.col(j);
            prop_assert_eq!(col, gathered.as_slice());
            let lo = col.iter().cloned().fold(f64::INFINITY, f64::min);
            let hi = col.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            prop_assert!(mu >= lo - 1e-9 && mu <= hi + 1e-9);
        }
    }

    #[test]
    fn parallel_matches_serial(n in 0usize..200, threads in 1usize..8) {
        let serial_ctx = ExecCtx::serial();
        let mut serial = vec![0u64; n];
        kr_linalg::parallel::map_chunks_into(&serial_ctx, &mut serial, |start, s| {
            for (i, v) in s.iter_mut().enumerate() { *v = ((start + i) * 7) as u64; }
        });
        let par_ctx = ExecCtx::threaded(threads);
        let mut par = vec![0u64; n];
        kr_linalg::parallel::map_chunks_into(&par_ctx, &mut par, |start, s| {
            for (i, v) in s.iter_mut().enumerate() { *v = ((start + i) * 7) as u64; }
        });
        prop_assert_eq!(serial, par);
    }

    #[test]
    fn blocked_kernels_thread_and_tile_invariant(
        (a, b) in (1usize..10, 1usize..10, 1usize..10).prop_flat_map(|(m, k, n)| {
            let a = proptest::collection::vec(-50.0..50.0f64, m * k)
                .prop_map(move |v| Matrix::from_vec(m, k, v).unwrap());
            let b = proptest::collection::vec(-50.0..50.0f64, n * k)
                .prop_map(move |v| Matrix::from_vec(n, k, v).unwrap());
            (a, b)
        }),
        threads in 2usize..5,
    ) {
        let ctx = ExecCtx::threaded(threads)
            .with_tiling(kr_linalg::Tiling { mc: 2, kc: 3, nc: 3 });
        prop_assert_eq!(
            a.matmul_transpose_b_with(&b, &ctx).unwrap(),
            a.matmul_transpose_b(&b).unwrap()
        );
        prop_assert_eq!(
            a.pairwise_sqdist_with(&b, &ctx).unwrap(),
            a.pairwise_sqdist(&b).unwrap()
        );
        prop_assert_eq!(
            a.matmul_transpose_a_with(&a, &ctx).unwrap(),
            a.matmul_transpose_a(&a).unwrap()
        );
    }

    /// The blocked matmul fuses each multiply-add but keeps the
    /// per-element ascending-`k` order, so it matches a naive loop that
    /// uses `mul_add` bitwise — across threads and tile boundaries.
    #[test]
    fn simd_matmul_equals_fused_naive(
        (a, b) in (1usize..12, 1usize..12, 1usize..12).prop_flat_map(|(m, k, n)| {
            let a = proptest::collection::vec(-100.0..100.0f64, m * k)
                .prop_map(move |v| Matrix::from_vec(m, k, v).unwrap());
            let b = proptest::collection::vec(-100.0..100.0f64, k * n)
                .prop_map(move |v| Matrix::from_vec(k, n, v).unwrap());
            (a, b)
        }),
        threads in 1usize..5,
    ) {
        let (m, k) = a.shape();
        let n = b.ncols();
        let mut naive = Matrix::zeros(m, n);
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f64;
                for p in 0..k {
                    acc = a.get(i, p).mul_add(b.get(p, j), acc);
                }
                naive.set(i, j, acc);
            }
        }
        prop_assert_eq!(&a.matmul(&b).unwrap(), &naive);
        let ctx = ExecCtx::threaded(threads)
            .with_tiling(kr_linalg::Tiling { mc: 3, kc: 2, nc: 5 });
        prop_assert_eq!(&a.matmul_with(&b, &ctx).unwrap(), &naive);
    }

    /// Every blocked product agrees with its test-local unfused naive
    /// loop to 1e-10 relative tolerance on ragged shapes, including
    /// inner dimensions below the 4-wide lane width.
    #[test]
    fn simd_kernels_match_scalar_oracle(
        (a, b) in (1usize..16, 1usize..9, 1usize..16).prop_flat_map(|(m, d, n)| {
            let a = proptest::collection::vec(-100.0..100.0f64, m * d)
                .prop_map(move |v| Matrix::from_vec(m, d, v).unwrap());
            let b = proptest::collection::vec(-100.0..100.0f64, n * d)
                .prop_map(move |v| Matrix::from_vec(n, d, v).unwrap());
            (a, b)
        }),
    ) {
        let tol = 1e-10;
        let abt = naive_matmul(&a, &b.transpose());
        let pairs = [
            (abt.clone(), a.matmul(&b.transpose()).unwrap()),
            (abt, a.matmul_transpose_b(&b).unwrap()),
            (naive_matmul(&a.transpose(), &a), a.matmul_transpose_a(&a).unwrap()),
            (naive_pairwise(&a, &b), a.pairwise_sqdist(&b).unwrap()),
        ];
        for (s, v) in &pairs {
            prop_assert!(approx_eq(s, v, tol));
        }
    }

    /// On small-integer inputs every product and partial sum is exactly
    /// representable, so fusing and lane-splitting change nothing: the
    /// blocked products equal the unfused naive loops bitwise.
    #[test]
    fn simd_exact_on_integer_inputs(
        (a, b) in (1usize..10, 1usize..10, 1usize..10).prop_flat_map(|(m, d, n)| {
            let a = proptest::collection::vec(-8i32..=8, m * d)
                .prop_map(move |v| {
                    Matrix::from_vec(m, d, v.into_iter().map(f64::from).collect()).unwrap()
                });
            let b = proptest::collection::vec(-8i32..=8, n * d)
                .prop_map(move |v| {
                    Matrix::from_vec(n, d, v.into_iter().map(f64::from).collect()).unwrap()
                });
            (a, b)
        }),
    ) {
        let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let abt = bits(&naive_matmul(&a, &b.transpose()));
        prop_assert_eq!(&abt, &bits(&a.matmul(&b.transpose()).unwrap()));
        prop_assert_eq!(&abt, &bits(&a.matmul_transpose_b(&b).unwrap()));
        prop_assert_eq!(
            bits(&naive_pairwise(&a, &b)),
            bits(&a.pairwise_sqdist(&b).unwrap())
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// The scalar blocked kernels are bitwise `ops::dot` per row: signed
    /// zeros, empty rows (`d = 0`) and `rows % 4 != 0` tails included.
    /// Both `dot_block` (shared `x`) and `dot4` (four independent pairs)
    /// start each accumulator at `-0.0`, the neutral element of the
    /// f64 `Sum` that `ops::dot` folds from.
    #[test]
    fn dot_block_is_bitwise_ops_dot(
        (d, rows, jb, x, y) in (0usize..10, 0usize..11, 0usize..3).prop_flat_map(|(d, rows, jb)| {
            let x = proptest::collection::vec(zero_heavy(), d);
            let y = proptest::collection::vec(zero_heavy(), (jb + rows) * d);
            (Just(d), Just(rows), Just(jb), x, y)
        }),
    ) {
        let mut out = vec![f64::NAN; rows];
        ops::dot_block(&x, &y, d, jb, &mut out);
        let row = |r: usize| &y[(jb + r) * d..(jb + r + 1) * d];
        for (r, v) in out.iter().enumerate() {
            let want = ops::dot(&x, row(r));
            prop_assert!(v.to_bits() == want.to_bits(), "row {r}: {v:?} vs {want:?}");
        }
        for r0 in (0..rows.saturating_sub(3)).step_by(2) {
            let quad = ops::dot4([&x[..]; 4], [row(r0), row(r0 + 1), row(r0 + 2), row(r0 + 3)]);
            let pairs = ops::dot4([row(r0), row(r0 + 1), row(r0 + 2), row(r0 + 3)], [&x[..]; 4]);
            for q in 0..4 {
                let want = ops::dot(&x, row(r0 + q));
                prop_assert!(quad[q].to_bits() == want.to_bits(), "lane {q}: {:?} vs {want:?}", quad[q]);
                prop_assert_eq!(pairs[q].to_bits(), ops::dot(row(r0 + q), &x).to_bits());
            }
        }
    }

    /// Pins the expressions of the public blocked products: every entry
    /// of `matmul_transpose_b_with` is bitwise `simd::dot1` of its rows,
    /// and every entry of `pairwise_sqdist_with` is bitwise
    /// `(‖x‖² + ‖c‖² − 2·simd::dot1(x, c)).max(0)` with the norms from
    /// `ops::dot`. Signed zeros, `d = 0` and row counts that are not
    /// multiples of 4 included.
    #[test]
    fn blocked_products_are_bitwise_lane_dot1(
        (a, b) in (1usize..7, 0usize..6, 1usize..11).prop_flat_map(|(m, d, n)| {
            let a = proptest::collection::vec(zero_heavy(), m * d)
                .prop_map(move |v| Matrix::from_vec(m, d, v).unwrap());
            let b = proptest::collection::vec(zero_heavy(), n * d)
                .prop_map(move |v| Matrix::from_vec(n, d, v).unwrap());
            (a, b)
        }),
    ) {
        let exec = ExecCtx::serial();
        let prod = a.matmul_transpose_b_with(&b, &exec).unwrap();
        let dist = a.pairwise_sqdist_with(&b, &exec).unwrap();
        for i in 0..a.nrows() {
            for j in 0..b.nrows() {
                let (x, c) = (a.row(i), b.row(j));
                let dot = simd::dot1(x, c);
                let got = prod.get(i, j);
                prop_assert!(got.to_bits() == dot.to_bits(), "dot ({i}, {j}): {got:?} vs {dot:?}");
                let want = (ops::dot(x, x) + ops::dot(c, c) - 2.0 * dot).max(0.0);
                let got = dist.get(i, j);
                prop_assert!(got.to_bits() == want.to_bits(), "dist ({i}, {j}): {got:?} vs {want:?}");
            }
        }
    }
}
