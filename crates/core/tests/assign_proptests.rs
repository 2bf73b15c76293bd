//! Property-based tests pinning the bounds-gated assignment engine
//! bitwise to the exhaustive scans.
//!
//! The engine's contract (see `kr_core::assign`) is that pruning is
//! *invisible* in the output: labels, per-point distances, centroids,
//! and inertia must carry the same bits as the exhaustive path, in
//! every `PruneMode`, at any worker count.
//! These properties sweep ragged shapes and the degenerate corners —
//! k = 1, duplicate centroids, zero-drift iterations — plus plain
//! end-to-end fits at 1/2/8 pool workers. Materialized Sum grids also
//! run the factored Khatri-Rao filter; its properties pin it to the
//! exhaustive scan on adversarial grids (exact ties, rounding sums,
//! three sets, a one-row set).

use kr_core::aggregator::Aggregator;
use kr_core::assign::AssignEngine;
use kr_core::kmeans::{nearest_assignments_with, KMeans};
use kr_core::kr_kmeans::{KrKMeans, KrVariant};
use kr_core::operator::{khatri_rao, CentroidIndexer};
use kr_linalg::{ExecCtx, Matrix, PruneMode, ThreadPool};
use proptest::prelude::*;
use std::sync::Arc;

/// Exhaustive reference through the public one-shot entry point (the
/// pruned engine is pinned to this, not the other way around).
fn exhaustive(data: &Matrix, centroids: &Matrix, exec: &ExecCtx) -> (Vec<usize>, Vec<f64>) {
    let off = exec.clone().with_prune_mode(PruneMode::Off);
    nearest_assignments_with(data, centroids, &off)
}

fn assert_bitwise(
    (labels, dmin): (&[usize], &[f64]),
    (ref_labels, ref_dmin): (&[usize], &[f64]),
    ctx: &str,
) {
    assert_eq!(labels, ref_labels, "{ctx}: labels diverged");
    for (i, (a, b)) in dmin.iter().zip(ref_dmin.iter()).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "{ctx}: dmin bits diverged at point {i}: {a} vs {b}"
        );
    }
}

fn ragged_case() -> impl Strategy<Value = (Matrix, Matrix)> {
    (1usize..=40, 1usize..=9, 1usize..=5).prop_flat_map(|(n, k, m)| {
        let dvals = proptest::collection::vec(-8.0..8.0f64, n * m);
        let cvals = proptest::collection::vec(-8.0..8.0f64, k * m);
        (dvals, cvals).prop_map(move |(d, c)| {
            (
                Matrix::from_vec(n, m, d).unwrap(),
                Matrix::from_vec(k, m, c).unwrap(),
            )
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Ragged shapes, several drifting iterations, all forced modes: the
    /// engine never departs from the exhaustive scan by a single bit.
    #[test]
    fn dense_pruned_is_bitwise_exhaustive((data, mut centroids) in ragged_case()) {
        let n = data.nrows();
        for mode in [PruneMode::Auto, PruneMode::Hamerly, PruneMode::Elkan] {
            let exec = ExecCtx::serial().with_prune_mode(mode);
            let mut engine = AssignEngine::new(&exec);
            engine.begin_fit(&data);
            let mut centroids = centroids.clone();
            let mut labels = vec![0usize; n];
            let mut dmin = vec![0.0f64; n];
            for it in 0..4 {
                engine.assign_dense(&data, &centroids, &mut labels, &mut dmin);
                let (rl, rd) = exhaustive(&data, &centroids, &exec);
                assert_bitwise(
                    (&labels, &dmin),
                    (&rl, &rd),
                    &format!("{mode:?} iter {it}"),
                );
                // Drift every centroid a little; iteration 2 is a
                // zero-drift round (stale-bound certification path).
                if it != 2 {
                    for c in 0..centroids.nrows() {
                        for (j, v) in centroids.row_mut(c).iter_mut().enumerate() {
                            *v += 0.03 * ((c + j + it) % 3) as f64;
                        }
                    }
                }
            }
        }
        // Silence the unused-mut lint without changing the strategy.
        centroids.row_mut(0)[0] += 0.0;
    }

    /// Duplicate centroids: pruned tie-breaks resolve to the lowest
    /// index exactly like the ascending exhaustive scan.
    #[test]
    fn duplicate_centroids_tie_break_bitwise(
        (data, mut centroids) in ragged_case(),
        dup in 0usize..64,
    ) {
        if centroids.nrows() > 1 {
            let src = dup % centroids.nrows();
            let dst = (dup / 7) % centroids.nrows();
            let row = centroids.row(src).to_vec();
            centroids.row_mut(dst).copy_from_slice(&row);
        }
        let n = data.nrows();
        for mode in [PruneMode::Hamerly, PruneMode::Elkan] {
            let exec = ExecCtx::serial().with_prune_mode(mode);
            let mut engine = AssignEngine::new(&exec);
            engine.begin_fit(&data);
            let mut labels = vec![0usize; n];
            let mut dmin = vec![0.0f64; n];
            for it in 0..3 {
                engine.assign_dense(&data, &centroids, &mut labels, &mut dmin);
                let (rl, rd) = exhaustive(&data, &centroids, &exec);
                assert_bitwise((&labels, &dmin), (&rl, &rd), &format!("{mode:?} iter {it}"));
            }
        }
    }

    /// End-to-end fits: pruning on vs. off produces bit-identical
    /// models (labels, centroids, inertia) through the whole Lloyd
    /// loop, restarts and empty-cluster reseeds included.
    #[test]
    fn kmeans_fit_pruned_equals_exhaustive(
        n in 6usize..30,
        m in 1usize..4,
        k in 1usize..5,
        seed in 0u64..1000,
    ) {
        let k = k.min(n);
        let data = Matrix::from_fn(n, m, |i, j| {
            ((i * 31 + j * 17 + seed as usize) % 29) as f64 * 0.37
        });
        let fit = |mode: PruneMode| {
            KMeans::new(k)
                .with_seed(seed)
                .with_n_init(2)
                .with_max_iter(30)
                .with_exec(ExecCtx::serial().with_prune_mode(mode))
                .fit(&data)
                .unwrap()
        };
        let reference = fit(PruneMode::Off);
        for mode in [PruneMode::Auto, PruneMode::Hamerly, PruneMode::Elkan] {
            let model = fit(mode);
            assert_eq!(model.labels, reference.labels, "mode {mode:?}");
            assert_eq!(
                model.inertia.to_bits(),
                reference.inertia.to_bits(),
                "mode {mode:?}"
            );
            assert_eq!(model.centroids, reference.centroids, "mode {mode:?}");
        }
    }

    /// The KR on-the-fly engine across both aggregators: bitwise equal
    /// to the exhaustive tuple sweep on ragged factor shapes.
    #[test]
    fn kr_otf_pruned_is_bitwise_exhaustive(
        n in 4usize..24,
        m in 1usize..4,
        h1 in 1usize..4,
        h2 in 1usize..4,
        seed in 0u64..500,
    ) {
        let data = Matrix::from_fn(n, m, |i, j| {
            ((i * 13 + j * 7 + seed as usize) % 23) as f64 * 0.4 - 2.0
        });
        let indexer = CentroidIndexer::new(vec![h1, h2]);
        for agg in [Aggregator::Sum, Aggregator::Product] {
            let mut sets = vec![
                Matrix::from_fn(h1, m, |i, j| ((i * 5 + j + 1) % 7) as f64 * 0.5 - 1.0),
                Matrix::from_fn(h2, m, |i, j| ((i * 3 + j + 2) % 5) as f64 * 0.6 - 1.0),
            ];
            let exec = ExecCtx::serial();
            let exec_off = exec.clone().with_prune_mode(PruneMode::Off);
            let mut engine = AssignEngine::new(&exec);
            engine.begin_fit(&data);
            let mut eng_off = AssignEngine::new(&exec_off);
            eng_off.begin_fit(&data);
            let mut labels = vec![0usize; n];
            let mut dmin = vec![0.0f64; n];
            let mut rl = vec![0usize; n];
            let mut rd = vec![0.0f64; n];
            for it in 0..4 {
                engine.assign_otf(&data, &sets, &indexer, agg, &mut labels, &mut dmin);
                eng_off.assign_otf(&data, &sets, &indexer, agg, &mut rl, &mut rd);
                assert_bitwise((&labels, &dmin), (&rl, &rd), &format!("{agg:?} iter {it}"));
                if it != 2 {
                    for s in sets.iter_mut() {
                        for r in 0..s.nrows() {
                            for v in s.row_mut(r).iter_mut() {
                                *v += 0.04;
                            }
                        }
                    }
                }
            }
        }
    }
}

/// Full fits at 1, 2, and 8 pool workers with pruning in every mode:
/// the pruned model matches the exhaustive serial reference bitwise.
#[test]
fn pruned_fits_bitwise_across_1_2_8_workers() {
    let data = kr_datasets::synthetic::blobs(300, 6, 8, 0.4, 7).data;
    let reference = KMeans::new(8)
        .with_seed(11)
        .with_n_init(2)
        .with_exec(ExecCtx::serial().with_prune_mode(PruneMode::Off))
        .fit(&data)
        .unwrap();
    for workers in [1usize, 2, 8] {
        let pool = Arc::new(ThreadPool::new(workers));
        for mode in [PruneMode::Auto, PruneMode::Hamerly, PruneMode::Elkan] {
            let exec = ExecCtx::threaded(workers + 1)
                .with_pool(Arc::clone(&pool))
                .with_prune_mode(mode);
            let model = KMeans::new(8)
                .with_seed(11)
                .with_n_init(2)
                .with_exec(exec)
                .fit(&data)
                .unwrap();
            assert_eq!(model.labels, reference.labels, "workers {workers} {mode:?}");
            assert_eq!(
                model.inertia.to_bits(),
                reference.inertia.to_bits(),
                "workers {workers} {mode:?}"
            );
            assert_eq!(model.centroids, reference.centroids);
            assert!(
                mode == PruneMode::Off || model.prune_stats.dists_skipped > 0,
                "pruning never engaged at workers {workers} {mode:?}"
            );
        }
    }
}

/// Both KrKMeans variants with pruning on vs. off: identical models.
#[test]
fn kr_fits_pruned_equal_exhaustive_both_variants() {
    let data = kr_datasets::synthetic::blobs(120, 4, 6, 0.5, 3).data;
    for variant in [KrVariant::TimeEfficient, KrVariant::MemoryEfficient] {
        let fit = |mode: PruneMode| {
            KrKMeans::new(vec![2, 3])
                .with_variant(variant)
                .with_seed(5)
                .with_n_init(2)
                .with_max_iter(40)
                .with_exec(ExecCtx::serial().with_prune_mode(mode))
                .fit(&data)
                .unwrap()
        };
        let reference = fit(PruneMode::Off);
        for mode in [PruneMode::Auto, PruneMode::Hamerly, PruneMode::Elkan] {
            let model = fit(mode);
            assert_eq!(model.labels, reference.labels, "{variant:?} {mode:?}");
            assert_eq!(
                model.inertia.to_bits(),
                reference.inertia.to_bits(),
                "{variant:?} {mode:?}"
            );
            for (a, b) in model
                .protocentroids
                .iter()
                .zip(reference.protocentroids.iter())
            {
                assert_eq!(a, b, "{variant:?} {mode:?}");
            }
        }
    }
}

/// An adversarial Sum-grid case: factor sets of the given sizes with
/// values in `[-4, 4)` around a common `offset` (data too), where set 0's
/// last row duplicates its first, so distinct grid rows tie exactly.
/// With a large offset every `a_i + b_j` of the grid rounds. Every
/// shape has Σh < ∏h, so the filter applies.
fn sum_grid_case() -> impl Strategy<Value = (Matrix, Vec<Matrix>)> {
    let shapes = prop_oneof![
        Just(vec![2usize, 3]),
        Just(vec![4, 3]),
        Just(vec![3, 1, 4]),
        Just(vec![2, 2, 3]),
        Just(vec![1, 3, 3]),
    ];
    let offset = prop_oneof![Just(0.0f64), Just(1.0e6), Just(3.7e9)];
    (shapes, offset, 4usize..40, 1usize..6).prop_flat_map(|(hs, offset, n, m)| {
        let total: usize = hs.iter().sum();
        let dvals = proptest::collection::vec(-4.0..4.0f64, n * m);
        let svals = proptest::collection::vec(-4.0..4.0f64, total * m);
        (dvals, svals).prop_map(move |(d, sv)| {
            let data = Matrix::from_vec(n, m, d.iter().map(|v| v + offset).collect()).unwrap();
            let mut sets = Vec::new();
            let mut off = 0;
            for &h in &hs {
                let mut set = Matrix::from_fn(h, m, |i, j| sv[(off + i) * m + j]);
                if h > 1 {
                    let first = set.row(0).to_vec();
                    set.row_mut(h - 1).copy_from_slice(&first);
                }
                off += h;
                sets.push(set);
            }
            // The offset goes on set 0 only, so grid rows sit near it.
            for v in sets[0].as_mut_slice() {
                *v += offset;
            }
            (data, sets)
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// `assign_grid` with the Sum aggregator (factored filter on) is
    /// bitwise the exhaustive scan over the materialized grid: labels
    /// and `dmin`, through drifting iterations, in every pruning mode at
    /// 1, 2 and 8 pool workers.
    #[test]
    fn sum_grid_filter_is_bitwise_exhaustive(
        (data, sets) in sum_grid_case(),
        workers in prop_oneof![Just(1usize), Just(2), Just(8)],
    ) {
        let n = data.nrows();
        let pool = Arc::new(ThreadPool::new(workers));
        for mode in [PruneMode::Auto, PruneMode::Hamerly, PruneMode::Elkan] {
            let exec = ExecCtx::threaded(workers + 1)
                .with_pool(Arc::clone(&pool))
                .with_prune_mode(mode);
            let mut engine = AssignEngine::new(&exec);
            engine.begin_fit(&data);
            let mut sets = sets.clone();
            let mut labels = vec![0usize; n];
            let mut dmin = vec![0.0f64; n];
            for it in 0..4 {
                let grid = khatri_rao(&sets, Aggregator::Sum).unwrap();
                engine.assign_grid(&data, &grid, &sets, Aggregator::Sum, &mut labels, &mut dmin);
                let (rl, rd) = exhaustive(&data, &grid, &exec);
                assert_bitwise(
                    (&labels, &dmin),
                    (&rl, &rd),
                    &format!("{mode:?} workers {workers} iter {it}"),
                );
                // Drift one set (iteration 2 keeps still); the duplicate
                // rows move together, so the ties survive.
                if it != 2 {
                    let l = it % sets.len();
                    for v in sets[l].as_mut_slice() {
                        *v += 0.05 * (it + 1) as f64;
                    }
                }
            }
        }
    }
}

/// The filter engages and is counted as documented on `PruneStats`: a
/// full-scan pass over a (10,10) Sum grid after warm-up computes fewer
/// than n·k exact distances, each point costing its Σh protocentroid
/// dots plus its verbatim re-evaluations, with every grid row the
/// filter rejects counted as skipped. The same sets under the Product
/// aggregator (no filter) compute all n·k.
#[test]
fn factored_filter_engages_on_a_10x10_grid() {
    let ds = kr_datasets::synthetic::blobs(400, 16, 12, 0.6, 21);
    let data = ds.data;
    let n = data.nrows();
    let sets = vec![
        data.select_rows(&(0..10).map(|i| i * 37).collect::<Vec<_>>()),
        Matrix::from_fn(10, 16, |i, j| ((i * 7 + j * 3) % 11) as f64 * 0.1 - 0.5),
    ];
    let k = 100;
    for mode in [PruneMode::Auto, PruneMode::Hamerly, PruneMode::Elkan] {
        let exec = ExecCtx::serial().with_prune_mode(mode);
        for agg in [Aggregator::Sum, Aggregator::Product] {
            let grid = khatri_rao(&sets, agg).unwrap();
            let mut engine = AssignEngine::new(&exec);
            engine.begin_fit(&data);
            let mut labels = vec![0usize; n];
            let mut dmin = vec![0.0f64; n];
            engine.assign_grid(&data, &grid, &sets, agg, &mut labels, &mut dmin);
            engine.begin_restart();
            engine.take_stats();
            engine.assign_grid(&data, &grid, &sets, agg, &mut labels, &mut dmin);
            let stats = engine.take_stats();
            let (rl, rd) = exhaustive(&data, &grid, &exec);
            assert_bitwise((&labels, &dmin), (&rl, &rd), &format!("{mode:?} {agg:?}"));
            let nk = (n * k) as u64;
            match agg {
                Aggregator::Sum => {
                    assert!(
                        stats.dists_computed < nk / 2,
                        "{mode:?}: filter computed {} of {nk}",
                        stats.dists_computed
                    );
                    assert_eq!(
                        stats.dists_computed + stats.dists_skipped,
                        nk + (n * 20) as u64,
                        "{mode:?}: every grid row is evaluated or skipped, plus Σh dots a point"
                    );
                }
                Aggregator::Product => {
                    assert_eq!(stats.dists_computed, nk, "{mode:?}");
                    assert_eq!(stats.dists_skipped, 0, "{mode:?}");
                }
            }
        }
    }
}
