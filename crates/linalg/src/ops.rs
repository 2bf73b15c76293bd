//! Free functions over `&[f64]` slices.
//!
//! These are the innermost kernels of the clustering algorithms. They are
//! deliberately written over plain slices so the compiler can vectorize
//! the loops, and so callers can apply them to matrix rows without copies.

/// Dot product of two equal-length slices.
///
/// Panics in debug builds if lengths differ; in release builds the shorter
/// length wins (callers in this workspace always pass equal lengths).
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b.iter()).map(|(&x, &y)| x * y).sum()
}

/// Four independent dot products, `out[r] = dot(xs[r], ys[r])`, advanced
/// together so their four add chains overlap in the pipeline.
///
/// Every accumulator starts at `-0.0` (the neutral element of f64
/// `Sum`, which [`dot`] folds from) and adds its products in ascending
/// index order, so each output is bitwise [`dot`] of its pair — signed
/// zeros and empty slices included. All eight slices must have the
/// length of `xs[0]`.
#[inline(always)]
pub fn dot4(xs: [&[f64]; 4], ys: [&[f64]; 4]) -> [f64; 4] {
    let d = xs[0].len();
    let (x0, x1, x2, x3) = (&xs[0][..d], &xs[1][..d], &xs[2][..d], &xs[3][..d]);
    let (y0, y1, y2, y3) = (&ys[0][..d], &ys[1][..d], &ys[2][..d], &ys[3][..d]);
    let mut acc = [-0.0f64; 4];
    for i in 0..d {
        acc[0] += x0[i] * y0[i];
        acc[1] += x1[i] * y1[i];
        acc[2] += x2[i] * y2[i];
        acc[3] += x3[i] * y3[i];
    }
    acc
}

/// Writes `out[j] = dot(x, y_row(jb + j))` for a block of rows of a
/// row-major `(rows × d)` buffer `y`, four rows at a time through
/// [`dot4`] so each loaded element of `x` feeds four accumulators; the
/// last `out.len() % 4` rows use [`dot`]. Every output is bitwise
/// [`dot`] of its row. This is the scalar kernel behind every full
/// nearest-centroid scan.
#[inline]
pub fn dot_block(x: &[f64], y: &[f64], d: usize, jb: usize, out: &mut [f64]) {
    debug_assert_eq!(x.len(), d);
    let x = &x[..d];
    let mut quads = out.chunks_exact_mut(4);
    let mut base = jb * d;
    for q in &mut quads {
        let r = &y[base..base + 4 * d];
        let ys = [&r[..d], &r[d..2 * d], &r[2 * d..3 * d], &r[3 * d..]];
        q.copy_from_slice(&dot4([x; 4], ys));
        base += 4 * d;
    }
    for o in quads.into_remainder() {
        *o = dot(x, &y[base..base + d]);
        base += d;
    }
}

/// Squared Euclidean distance between two equal-length slices.
#[inline]
pub fn sqdist(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b.iter())
        .map(|(&x, &y)| {
            let d = x - y;
            d * d
        })
        .sum()
}

/// Four independent squared distances, `out[r] = sqdist(xs[r], ys[r])`,
/// advanced together like [`dot4`]: each accumulator starts at `-0.0`
/// and adds its squared differences in ascending index order, so every
/// output is bitwise [`sqdist`] of its pair. All eight slices must have
/// the length of `xs[0]`.
#[inline(always)]
pub fn sqdist4(xs: [&[f64]; 4], ys: [&[f64]; 4]) -> [f64; 4] {
    let d = xs[0].len();
    let (x0, x1, x2, x3) = (&xs[0][..d], &xs[1][..d], &xs[2][..d], &xs[3][..d]);
    let (y0, y1, y2, y3) = (&ys[0][..d], &ys[1][..d], &ys[2][..d], &ys[3][..d]);
    let mut acc = [-0.0f64; 4];
    for i in 0..d {
        let (e0, e1, e2, e3) = (x0[i] - y0[i], x1[i] - y1[i], x2[i] - y2[i], x3[i] - y3[i]);
        acc[0] += e0 * e0;
        acc[1] += e1 * e1;
        acc[2] += e2 * e2;
        acc[3] += e3 * e3;
    }
    acc
}

/// Euclidean distance between two equal-length slices.
#[inline]
pub fn dist(a: &[f64], b: &[f64]) -> f64 {
    sqdist(a, b).sqrt()
}

/// Squared Euclidean norm.
#[inline]
pub fn sq_norm(a: &[f64]) -> f64 {
    dot(a, a)
}

/// `out += a`, elementwise.
#[inline]
pub fn add_assign(out: &mut [f64], a: &[f64]) {
    debug_assert_eq!(out.len(), a.len());
    for (o, &x) in out.iter_mut().zip(a.iter()) {
        *o += x;
    }
}

/// `out -= a`, elementwise.
#[inline]
pub fn sub_assign(out: &mut [f64], a: &[f64]) {
    debug_assert_eq!(out.len(), a.len());
    for (o, &x) in out.iter_mut().zip(a.iter()) {
        *o -= x;
    }
}

/// `out += alpha * a`, elementwise.
///
/// The body is unrolled with `chunks_exact` into 4-wide blocks so it
/// vectorizes; each element is still a single multiply and add, so the
/// unroll never changes results.
#[inline]
pub fn axpy(out: &mut [f64], alpha: f64, a: &[f64]) {
    debug_assert_eq!(out.len(), a.len());
    let mut o4 = out.chunks_exact_mut(4);
    let mut a4 = a.chunks_exact(4);
    for (o, x) in (&mut o4).zip(&mut a4) {
        o[0] += alpha * x[0];
        o[1] += alpha * x[1];
        o[2] += alpha * x[2];
        o[3] += alpha * x[3];
    }
    for (o, &x) in o4.into_remainder().iter_mut().zip(a4.remainder()) {
        *o += alpha * x;
    }
}

/// `out += a ⊙ b`, elementwise (accumulate a Hadamard product).
#[inline]
pub fn add_hadamard_assign(out: &mut [f64], a: &[f64], b: &[f64]) {
    debug_assert_eq!(out.len(), a.len());
    debug_assert_eq!(out.len(), b.len());
    for ((o, &x), &y) in out.iter_mut().zip(a.iter()).zip(b.iter()) {
        *o += x * y;
    }
}

/// `out += w * (a ⊙ a)`, elementwise (accumulate a weighted square).
#[inline]
pub fn add_weighted_square_assign(out: &mut [f64], w: f64, a: &[f64]) {
    debug_assert_eq!(out.len(), a.len());
    for (o, &x) in out.iter_mut().zip(a.iter()) {
        *o += w * x * x;
    }
}

/// Scales a slice in place.
#[inline]
pub fn scale_assign(out: &mut [f64], s: f64) {
    for o in out.iter_mut() {
        *o *= s;
    }
}

/// Elementwise aggregation `a ⊕ b` written into `out`.
///
/// `product = false` gives the sum aggregator, `true` the Hadamard
/// product — the two Khatri-Rao aggregators studied in the paper.
#[inline]
pub fn aggregate_into(out: &mut [f64], a: &[f64], b: &[f64], product: bool) {
    debug_assert_eq!(out.len(), a.len());
    debug_assert_eq!(out.len(), b.len());
    if product {
        for ((o, &x), &y) in out.iter_mut().zip(a.iter()).zip(b.iter()) {
            *o = x * y;
        }
    } else {
        for ((o, &x), &y) in out.iter_mut().zip(a.iter()).zip(b.iter()) {
            *o = x + y;
        }
    }
}

/// Elementwise aggregation `out ⊕= a` in place.
#[inline]
pub fn aggregate_assign(out: &mut [f64], a: &[f64], product: bool) {
    debug_assert_eq!(out.len(), a.len());
    if product {
        for (o, &x) in out.iter_mut().zip(a.iter()) {
            *o *= x;
        }
    } else {
        for (o, &x) in out.iter_mut().zip(a.iter()) {
            *o += x;
        }
    }
}

/// Index of the minimum value; ties resolve to the first occurrence.
///
/// Returns `None` for an empty slice. NaN entries are never selected
/// unless every entry is NaN (in which case index 0 is returned).
#[inline]
pub fn argmin(values: &[f64]) -> Option<usize> {
    if values.is_empty() {
        return None;
    }
    let mut best = 0;
    let mut best_v = values[0];
    for (i, &v) in values.iter().enumerate().skip(1) {
        if v < best_v || (best_v.is_nan() && !v.is_nan()) {
            best = i;
            best_v = v;
        }
    }
    Some(best)
}

/// Index of the maximum value; ties resolve to the first occurrence.
#[inline]
pub fn argmax(values: &[f64]) -> Option<usize> {
    if values.is_empty() {
        return None;
    }
    let mut best = 0;
    let mut best_v = values[0];
    for (i, &v) in values.iter().enumerate().skip(1) {
        if v > best_v || (best_v.is_nan() && !v.is_nan()) {
            best = i;
            best_v = v;
        }
    }
    Some(best)
}

/// Mean of a slice (0 for an empty slice).
#[inline]
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Population variance of a slice (0 for an empty slice).
#[inline]
pub fn variance(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let m = mean(values);
    values.iter().map(|&v| (v - m) * (v - m)).sum::<f64>() / values.len() as f64
}

/// In-place stable softmax.
#[inline]
pub fn softmax_inplace(values: &mut [f64]) {
    let max = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let mut sum = 0.0;
    for v in values.iter_mut() {
        *v = (*v - max).exp();
        sum += *v;
    }
    if sum > 0.0 {
        for v in values.iter_mut() {
            *v /= sum;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_basic() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
        assert_eq!(dot(&[], &[]), 0.0);
    }

    #[test]
    fn sqdist_basic() {
        assert_eq!(sqdist(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
        assert_eq!(dist(&[0.0, 0.0], &[3.0, 4.0]), 5.0);
    }

    #[test]
    fn aggregate_sum_and_product() {
        let mut out = vec![0.0; 3];
        aggregate_into(&mut out, &[1.0, 2.0, 3.0], &[10.0, 20.0, 30.0], false);
        assert_eq!(out, vec![11.0, 22.0, 33.0]);
        aggregate_into(&mut out, &[1.0, 2.0, 3.0], &[10.0, 20.0, 30.0], true);
        assert_eq!(out, vec![10.0, 40.0, 90.0]);
    }

    #[test]
    fn aggregate_assign_matches_into() {
        let a = [1.5, -2.0, 0.0];
        let b = [2.0, 3.0, -1.0];
        for &product in &[false, true] {
            let mut out1 = vec![0.0; 3];
            aggregate_into(&mut out1, &a, &b, product);
            let mut out2 = a.to_vec();
            aggregate_assign(&mut out2, &b, product);
            assert_eq!(out1, out2);
        }
    }

    #[test]
    fn argmin_ties_and_nan() {
        assert_eq!(argmin(&[3.0, 1.0, 1.0]), Some(1));
        assert_eq!(argmin(&[]), None);
        assert_eq!(argmin(&[f64::NAN, 2.0, 1.0]), Some(2));
        assert_eq!(argmin(&[f64::NAN, f64::NAN]), Some(0));
    }

    #[test]
    fn argmax_basic() {
        assert_eq!(argmax(&[3.0, 5.0, 5.0]), Some(1));
        assert_eq!(argmax(&[]), None);
    }

    #[test]
    fn accumulators() {
        let mut out = vec![1.0, 1.0];
        add_assign(&mut out, &[1.0, 2.0]);
        assert_eq!(out, vec![2.0, 3.0]);
        sub_assign(&mut out, &[1.0, 1.0]);
        assert_eq!(out, vec![1.0, 2.0]);
        axpy(&mut out, 2.0, &[1.0, 1.0]);
        assert_eq!(out, vec![3.0, 4.0]);
        add_hadamard_assign(&mut out, &[2.0, 2.0], &[3.0, 0.5]);
        assert_eq!(out, vec![9.0, 5.0]);
        add_weighted_square_assign(&mut out, 2.0, &[1.0, 2.0]);
        assert_eq!(out, vec![11.0, 13.0]);
        scale_assign(&mut out, 0.5);
        assert_eq!(out, vec![5.5, 6.5]);
    }

    #[test]
    fn stats_helpers() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
        assert_eq!(mean(&[]), 0.0);
        assert!((variance(&[1.0, 2.0, 3.0]) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn softmax_sums_to_one() {
        let mut v = vec![1.0, 2.0, 3.0];
        softmax_inplace(&mut v);
        assert!((v.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(v[2] > v[1] && v[1] > v[0]);
        // Extreme values must not overflow.
        let mut w = vec![1e9, 0.0];
        softmax_inplace(&mut w);
        assert!((w[0] - 1.0).abs() < 1e-12);
    }
}
