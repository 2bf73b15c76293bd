//! The batch-fit workload, `table1_sweep`.
//!
//! Untraced jobs call `KrKMeans::fit`. Traced jobs replay the same steps
//! through the layers' public functions — the warm start
//! (`KMeans::fit` + `naive::decompose_centroids`), then per Lloyd
//! iteration `operator::khatri_rao`, `AssignEngine::assign_grid` and
//! `prop61_update_pass_with` — with a span around each call. The replay
//! seeds its restarts from its own RNG, so its models differ from the
//! untraced fits'; both pass the same output checks.

use crate::trace::{self, Tracer};
use crate::{check_fit, FitOut, JobRecord, LayerRecord, Metric, Size, Tally, Workers};
use kr_core::aggregator::Aggregator;
use kr_core::assign::AssignEngine;
use kr_core::kmeans::KMeans;
use kr_core::kr_kmeans::{prop61_update_pass_with, KrKMeans, KrVariant};
use kr_core::naive::decompose_centroids;
use kr_core::operator::khatri_rao;
use kr_datasets::table1::{Scale, Table1};
use kr_linalg::{ops, ExecCtx, Matrix};
use kr_metrics::external::adjusted_rand_index;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::time::Instant;

/// Convergence tolerance of both estimators' defaults.
const TOL: f64 = 1e-4;

/// The seed salt `KrKMeans` gives its warm-start candidate; the replay
/// uses it so its warm start factors the same k-Means solution.
const WARM_START_SALT: u64 = 0x9E37_79B9_7F4A_7C15;

#[derive(Debug, Clone)]
struct FitSpec {
    data: Matrix,
    truth: Vec<usize>,
    hs: Vec<usize>,
    agg: Aggregator,
    n_init: usize,
    max_iter: usize,
    seed: u64,
}

impl FitSpec {
    /// A time-efficient (materialized grid) `KrKMeans` fit with the warm
    /// start.
    fn fit(&self, exec: &ExecCtx) -> kr_core::Result<FitOut> {
        let m = KrKMeans::new(self.hs.clone())
            .with_aggregator(self.agg)
            .with_variant(KrVariant::TimeEfficient)
            .with_warm_start(true)
            .with_n_init(self.n_init)
            .with_max_iter(self.max_iter)
            .with_seed(self.seed)
            .with_exec(exec.clone())
            .fit(&self.data)?;
        Ok(FitOut {
            sets: m.protocentroids,
            agg: self.agg,
            labels: m.labels,
            inertia: m.inertia,
        })
    }
}

/// A set of fits run back to back as one job.
pub struct FitBench {
    specs: Vec<FitSpec>,
    workers: Workers,
    /// Mean ARI of the latest untraced job's fits.
    ari: f64,
}

impl FitBench {
    /// `table1_sweep`: the 13 Table-1 datasets at `Scale::Reduced`
    /// (data seed `seed`), each cut to an evenly spaced 300-row
    /// subsample, fitted by `KrKMeans` with its balanced `(h1, h2)`, the
    /// default sum aggregator, the time-efficient grid and the warm
    /// start, `n_init 2`, `max_iter 25`, fit seed `seed + 1`, serial.
    /// Seed 11 is the data of the `all_table1_datasets_cluster_end_to_end`
    /// test.
    pub fn table1(seed: u64, size: Size) -> Self {
        let (cap, max_iter) = match size {
            Size::Full => (300, 25),
            Size::Tiny => (40, 3),
        };
        let specs = Table1::ALL
            .iter()
            .map(|ds_id| {
                let ds = ds_id.load(Scale::Reduced, seed);
                let cap = cap.min(ds.n_samples());
                let idx: Vec<usize> = (0..cap).map(|i| i * ds.n_samples() / cap).collect();
                let (h1, h2) = ds_id.factor_pair();
                FitSpec {
                    data: ds.data.select_rows(&idx),
                    truth: idx.iter().map(|&i| ds.labels[i]).collect(),
                    hs: vec![h1, h2],
                    agg: Aggregator::Sum,
                    n_init: 2,
                    max_iter,
                    seed: seed + 1,
                }
            })
            .collect();
        FitBench {
            specs,
            workers: Workers::new(1),
            ari: f64::NAN,
        }
    }

    fn check(&self, spec: &FitSpec, fit: kr_core::Result<FitOut>, tally: &mut Tally) -> (f64, f64) {
        let fit = match fit {
            Ok(f) => f,
            Err(e) => {
                tally.unit(Some(format!("fit failed: {e}")));
                return (f64::NAN, f64::NAN);
            }
        };
        tally.unit(check_fit(&spec.data, &fit, &self.workers.exec()));
        let (n, m) = spec.data.shape();
        let objective = fit.inertia / (n * m) as f64;
        let ari = adjusted_rand_index(&fit.labels, &spec.truth).unwrap_or(f64::NAN);
        (objective, ari)
    }
}

impl crate::Bench for FitBench {
    fn job(&mut self, tally: &mut Tally) -> JobRecord {
        kr_bench::alloc_counter::reset_peak();
        let t0 = Instant::now();
        let mut steps_ms = Vec::with_capacity(self.specs.len());
        let fits: Vec<_> = self
            .specs
            .iter()
            .map(|s| {
                let ts = Instant::now();
                let fit = s.fit(&self.workers.exec());
                steps_ms.push(ts.elapsed().as_secs_f64() * 1e3);
                fit
            })
            .collect();
        let wall_s = t0.elapsed().as_secs_f64();
        let peak_bytes = kr_bench::alloc_counter::peak_since_reset();
        let (mut obj, mut ari) = (0.0, 0.0);
        for (spec, fit) in self.specs.iter().zip(fits) {
            let (o, a) = self.check(spec, fit, tally);
            obj += o;
            ari += a;
        }
        let k = self.specs.len() as f64;
        self.ari = ari / k;
        JobRecord {
            wall_s,
            peak_bytes,
            steps_ms,
            objective: obj / k,
        }
    }

    fn details(&self, jobs: &[JobRecord]) -> Vec<Metric> {
        vec![Metric {
            name: "ari",
            unit: "index",
            value: self.ari,
            samples: jobs.len() * self.specs.len(),
        }]
    }

    fn traced_job(&mut self, tracer: &Tracer, tally: &mut Tally) -> LayerRecord {
        let mut counts = Counts::default();
        let mut fits = Vec::with_capacity(self.specs.len());
        tracer.span("job", || {
            for spec in &self.specs {
                let exec = self.workers.exec();
                fits.push(replay(spec, &exec, tracer, &mut counts));
            }
        });
        let spans = tracer.job_spans(tracer.job());
        for (spec, fit) in self.specs.iter().zip(fits) {
            self.check(spec, fit, tally);
        }
        let wall_s = trace::total(&spans, "job");
        let assign_s = trace::total(&spans, "assign");
        let covered = trace::union_secs(&spans, |s| s.name != "job");
        let total = counts.computed + counts.skipped;
        let share = |name| trace::total(&spans, name) / wall_s;
        let values = [
            ("assign.self_share", assign_s / wall_s),
            ("assign.passes", counts.passes as f64),
            ("assign.gfma_per_s", counts.fma as f64 / assign_s / 1e9),
            ("assign.dists_computed", counts.computed as f64),
            ("assign.dists_skipped", counts.skipped as f64),
            (
                "assign.skip_ratio",
                if total > 0 {
                    counts.skipped as f64 / total as f64
                } else {
                    0.0
                },
            ),
            ("materialize.self_share", share("materialize")),
            ("update.self_share", share("update")),
            ("seed.self_share", share("seed")),
            // Serial: the pool does nothing.
            ("pool.efficiency", 1.0),
            ("trace.coverage", covered / wall_s),
        ];
        LayerRecord {
            wall_s,
            values: values.into_iter().collect(),
        }
    }
}

/// Assignment counters summed over a job's replayed fits.
#[derive(Debug, Default)]
struct Counts {
    passes: u64,
    computed: u64,
    skipped: u64,
    /// Σ dists_computed · m: fused multiply-adds of the computed
    /// distances.
    fma: u64,
}

fn sample_rows(data: &Matrix, k: usize, rng: &mut StdRng) -> Matrix {
    let n = data.nrows();
    let mut taken = vec![false; n];
    let mut idx = Vec::with_capacity(k);
    while idx.len() < k {
        let i = rng.gen_range(0..n);
        if !taken[i] {
            taken[i] = true;
            idx.push(i);
        }
    }
    data.select_rows(&idx)
}

/// Replays one fit through the public layer functions.
fn replay(
    spec: &FitSpec,
    exec: &ExecCtx,
    tracer: &Tracer,
    counts: &mut Counts,
) -> kr_core::Result<FitOut> {
    let data = &spec.data;
    let mut lloyd = Lloyd {
        spec,
        exec,
        tracer,
        engine: tracer.span("assign", || {
            let mut e = AssignEngine::new(exec);
            e.begin_fit(data);
            e
        }),
        passes: 0,
    };
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let mut best: Option<FitOut> = None;
    let mut keep = |fit: FitOut| {
        if best.as_ref().is_none_or(|b| fit.inertia < b.inertia) {
            best = Some(fit);
        }
    };
    for _ in 0..spec.n_init {
        let sets = spec
            .hs
            .iter()
            .map(|&h| sample_rows(data, h, &mut rng))
            .collect();
        keep(lloyd.run(sets, &mut rng));
    }
    let k: usize = spec.hs.iter().product();
    if data.nrows() >= k {
        let salt = spec.seed ^ WARM_START_SALT;
        let km = tracer.span("seed", || {
            KMeans::new(k)
                .with_n_init(2)
                .with_max_iter(spec.max_iter)
                .with_tol(TOL)
                .with_exec(exec.clone())
                .with_seed(salt)
                .fit(data)
        })?;
        let (sets, _) = tracer.span("seed", || {
            decompose_centroids(&km.centroids, &spec.hs, spec.agg, 500, TOL.min(1e-8), salt)
        });
        let mut wrng = StdRng::seed_from_u64(salt);
        keep(lloyd.run(sets, &mut wrng));
    }
    let stats = lloyd.engine.take_stats();
    counts.passes += lloyd.passes;
    counts.computed += stats.dists_computed;
    counts.skipped += stats.dists_skipped;
    counts.fma += stats.dists_computed * data.ncols() as u64;
    Ok(best.expect("n_init >= 1"))
}

struct Lloyd<'a> {
    spec: &'a FitSpec,
    exec: &'a ExecCtx,
    tracer: &'a Tracer,
    engine: AssignEngine,
    passes: u64,
}

impl Lloyd<'_> {
    /// One assignment pass.
    fn assign(&mut self, grid: &Matrix, sets: &[Matrix], labels: &mut [usize], dmin: &mut [f64]) {
        let (data, agg, engine) = (&self.spec.data, self.spec.agg, &mut self.engine);
        self.passes += 1;
        self.tracer.span("assign", || {
            engine.assign_grid(data, grid, sets, agg, labels, dmin)
        });
    }

    /// One restart from `sets`: Lloyd iterations until the centroids
    /// move less than the tolerance, then a final assignment.
    fn run(&mut self, mut sets: Vec<Matrix>, rng: &mut StdRng) -> FitOut {
        let spec = self.spec;
        let (data, agg, tracer) = (&spec.data, spec.agg, self.tracer);
        let n = data.nrows();
        self.engine.begin_restart();
        let materialize = |sets: &[Matrix]| {
            tracer.span("materialize", || {
                khatri_rao(sets, agg).expect("sets share a dimension")
            })
        };
        let mut grid = materialize(&sets);
        let mut labels = vec![0usize; n];
        let mut dmin = vec![0.0f64; n];
        for _ in 0..spec.max_iter {
            self.assign(&grid, &sets, &mut labels, &mut dmin);
            let update_seed = rng.next_u64();
            tracer.span("update", || {
                prop61_update_pass_with(data, &labels, &mut sets, agg, update_seed, self.exec)
            });
            // Movement is measured on the grids materialized anyway.
            let new = materialize(&sets);
            let movement = rows_sqdist(&grid, &new);
            grid = new;
            if movement < TOL {
                break;
            }
        }
        self.assign(&grid, &sets, &mut labels, &mut dmin);
        FitOut {
            sets,
            agg,
            inertia: dmin.iter().sum(),
            labels,
        }
    }
}

fn rows_sqdist(a: &Matrix, b: &Matrix) -> f64 {
    a.rows_iter()
        .zip(b.rows_iter())
        .map(|(x, y)| ops::sqdist(x, y))
        .sum()
}
