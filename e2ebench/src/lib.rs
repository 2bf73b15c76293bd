//! End-to-end benchmark of the Khatri-Rao clustering workspace.
//!
//! Three closed-loop workloads, each driven from one process by one
//! caller: the next fit, batch or round starts when the previous one
//! returns. The untraced mode times every step of repeated jobs and
//! reports the end-to-end metrics; the traced mode drives the same work
//! through the layers' public functions with a span around every call
//! ([`trace::Tracer`]) and reports per-layer metrics. Every output is
//! checked; a check that fails counts against `failed`.
//!
//! The library only ever sees the generated inputs: the workload seed
//! picks the data and the fit seeds, nothing else.

pub mod fed;
pub mod fit;
pub mod stream;
pub mod trace;

use kr_core::aggregator::Aggregator;
use kr_core::kmeans::nearest_assignments_with;
use kr_core::kr_kmeans::fixed_assignment_objective;
use kr_core::operator::khatri_rao;
use kr_linalg::{ops, ExecCtx, Matrix, ThreadPool};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Relative tolerance of the inertia re-computation checks.
pub const INERTIA_RTOL: f64 = 1e-9;

/// `reported` equals `recomputed` to [`INERTIA_RTOL`] (false on NaN).
pub fn close(reported: f64, recomputed: f64) -> bool {
    (reported - recomputed).abs() <= INERTIA_RTOL * recomputed.abs()
}

/// The end-to-end metrics every untraced run reports, with units: the
/// ones every workload has. Workload-specific figures (ARI, batch and
/// round latency, throughput, wire volume) are printed as details.
pub const E2E_METRICS: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("job_s", "s"),
    ("peak_heap_mib", "MiB"),
    ("objective", "sq/coord"),
];

/// The per-layer metrics every traced run reports, with units. A layer's
/// time is its self time as a share of the job's wall time (summed over
/// threads, so shares of layers that run on every worker can exceed 1);
/// a layer a workload never calls reads 0.
pub const LAYER_METRICS: [(&str, &str); 24] = [
    ("assign.self_share", "share"),
    ("assign.passes", "count"),
    ("assign.gfma_per_s", "GFMA/s"),
    ("assign.dists_computed", "count"),
    ("assign.dists_skipped", "count"),
    ("assign.skip_ratio", "ratio"),
    ("materialize.self_share", "share"),
    ("update.self_share", "share"),
    ("seed.self_share", "share"),
    ("pool.efficiency", "ratio"),
    ("stream.init_share", "share"),
    ("stream.observe_self_share", "share"),
    ("stream.skip_ratio", "ratio"),
    ("stream.cc_rebuilds", "count"),
    ("wire.encode_share", "share"),
    ("wire.decode_share", "share"),
    ("wire.frames", "count"),
    ("wire.frame_bytes", "bytes"),
    ("fed.client_share", "share"),
    ("fed.server_share", "share"),
    ("fed.frames_stale", "count"),
    ("fed.client_faults", "count"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_s", "s"),
];

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The 13 Table-1 datasets, one `KrKMeans` fit each (serial).
    Table1Sweep,
    /// `MiniBatchKrKMeans` over a replayed Blobs pool (serial).
    StreamMinibatch,
    /// Faulted, masked, quorum KR-FkM over the local transport
    /// (2 workers).
    FedQuorum,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [
        Workload::Table1Sweep,
        Workload::StreamMinibatch,
        Workload::FedQuorum,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Table1Sweep => "table1_sweep",
            Workload::StreamMinibatch => "stream_minibatch",
            Workload::FedQuorum => "fed_quorum",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input size: `Full` is the benchmark, `Tiny` the smoke test's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The benchmark's sizes.
    Full,
    /// Small inputs and few iterations, for the benchmark's own test.
    Tiny,
}

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Samples behind the value.
    pub samples: usize,
}

/// Everything one run produced.
#[derive(Debug, Clone)]
pub struct Report {
    /// The workload run.
    pub workload: Workload,
    /// Fits, batches, rounds and final-model checks attempted.
    pub attempted: u64,
    /// Those that errored, lost quorum or failed an output check.
    pub failed: u64,
    /// Descriptions of the first failures.
    pub problems: Vec<String>,
    /// The metrics of the mode run: [`E2E_METRICS`] untraced,
    /// [`LAYER_METRICS`] traced, in that order.
    pub metrics: Vec<Metric>,
    /// Display-only, workload-specific figures (printed, not gated).
    pub details: Vec<Metric>,
}

/// Counts attempted and failed units and keeps the first failure notes.
#[derive(Debug, Default)]
pub struct Tally {
    /// Units attempted.
    pub attempted: u64,
    /// Units failed.
    pub failed: u64,
    /// First failure descriptions.
    pub problems: Vec<String>,
}

impl Tally {
    /// Records one unit; `problem` is `None` when it passed.
    pub fn unit(&mut self, problem: Option<String>) {
        self.attempted += 1;
        if let Some(p) = problem {
            self.fail(p);
        }
    }

    /// Records a failure of a unit already counted as attempted.
    pub fn fail(&mut self, problem: String) {
        self.failed += 1;
        if self.problems.len() < 8 {
            self.problems.push(problem);
        }
    }
}

/// One untraced job's measurements.
#[derive(Debug, Clone)]
pub struct JobRecord {
    /// Wall time of the whole job.
    pub wall_s: f64,
    /// Peak heap above the level at job entry.
    pub peak_bytes: usize,
    /// Wall time of every step (fit, batch or round) in milliseconds,
    /// in job order; they need not cover the whole job.
    pub steps_ms: Vec<f64>,
    /// Mean over fits of inertia / (n·m).
    pub objective: f64,
}

/// One traced job's per-layer values.
#[derive(Debug, Clone)]
pub struct LayerRecord {
    /// Wall time of the traced job, re-timing excluded.
    pub wall_s: f64,
    /// Per-layer values by [`LAYER_METRICS`] name.
    pub values: BTreeMap<&'static str, f64>,
}

/// A workload ready to run: inputs generated, pool started.
pub trait Bench {
    /// Runs and checks one untraced job.
    fn job(&mut self, tally: &mut Tally) -> JobRecord;
    /// Runs and checks one traced job; spans go to `tracer`.
    fn traced_job(&mut self, tracer: &Tracer, tally: &mut Tally) -> LayerRecord;
    /// Display-only figures from the untraced jobs.
    fn details(&self, jobs: &[JobRecord]) -> Vec<Metric>;
}

pub use trace::Tracer;

/// A thread budget: the caller plus, above one thread, an explicit pool
/// of `threads - 1` workers started once at set-up.
#[derive(Debug, Clone)]
pub struct Workers {
    threads: usize,
    pool: Option<Arc<ThreadPool>>,
}

impl Workers {
    /// Starts the pool for `threads` threads (none for one).
    pub fn new(threads: usize) -> Self {
        Workers {
            threads,
            pool: (threads > 1).then(|| Arc::new(ThreadPool::new(threads - 1))),
        }
    }

    /// Threads, the caller's included.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// A fresh execution context on this budget. Each call gets its own
    /// empty scratch arena, as a caller building a new estimator does,
    /// so no job inherits buffers an earlier one grew.
    pub fn exec(&self) -> ExecCtx {
        match &self.pool {
            None => ExecCtx::serial(),
            Some(pool) => ExecCtx::serial()
                .with_threads(self.threads)
                .with_pool(Arc::clone(pool)),
        }
    }
}

fn setup(workload: Workload, seed: u64, size: Size) -> Box<dyn Bench> {
    match workload {
        Workload::Table1Sweep => Box::new(fit::FitBench::table1(seed, size)),
        Workload::StreamMinibatch => Box::new(stream::StreamBench::new(seed, size)),
        Workload::FedQuorum => Box::new(fed::FedBench::new(seed, size)),
    }
}

/// Runs `workload` for about `seconds` (at least one set-up and job)
/// and reports the mode's metrics. Traced runs alternate untraced and
/// traced jobs, and write their spans to `trace_path` when given.
pub fn run(
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    size: Size,
    trace_path: Option<&std::path::Path>,
) -> Report {
    let mut setup_s = Vec::new();
    let mut tally = Tally::default();
    let tracer = Tracer::default();
    let mut jobs: Vec<JobRecord> = Vec::new();
    let mut layers: Vec<LayerRecord> = Vec::new();
    let start = Instant::now();
    let mut bench;
    loop {
        // Every repetition sets up afresh, so set-up time is sampled
        // across the whole run rather than in one burst at its start.
        let t0 = Instant::now();
        bench = setup(workload, seed, size);
        setup_s.push(t0.elapsed().as_secs_f64());
        jobs.push(bench.job(&mut tally));
        if traced {
            tracer.set_job(layers.len() as u32);
            layers.push(bench.traced_job(&tracer, &mut tally));
        }
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    check_repeatable(&jobs, &mut tally);
    if let Some(path) = trace_path.filter(|_| traced) {
        if let Err(e) = tracer.write_jsonl(path) {
            eprintln!("could not write spans to {}: {e}", path.display());
        }
    }
    let walls: Vec<f64> = jobs.iter().map(|j| j.wall_s).collect();
    let metrics = if traced {
        layer_metrics(&layers, median(&walls))
    } else {
        e2e_metrics(&jobs, &setup_s)
    };
    let mut details = bench.details(&jobs);
    details.push(Metric {
        name: "job_s_p50",
        unit: "s",
        value: median(&walls),
        samples: jobs.len(),
    });
    details.push(Metric {
        name: "failed_share",
        unit: "ratio",
        value: tally.failed as f64 / tally.attempted.max(1) as f64,
        samples: tally.attempted as usize,
    });
    Report {
        workload,
        attempted: tally.attempted,
        failed: tally.failed,
        problems: tally.problems,
        metrics,
        details,
    }
}

/// Same inputs, same outputs: every repetition must reproduce the first
/// job's objective bit for bit.
fn check_repeatable(jobs: &[JobRecord], tally: &mut Tally) {
    for (i, j) in jobs.iter().enumerate().skip(1) {
        if j.objective.to_bits() != jobs[0].objective.to_bits() {
            tally.fail(format!(
                "job {i} objective {} differs from job 0's {}",
                j.objective, jobs[0].objective
            ));
        }
    }
}

fn e2e_metrics(jobs: &[JobRecord], setup_s: &[f64]) -> Vec<Metric> {
    let n = jobs.len();
    let peaks: Vec<f64> = jobs.iter().map(|j| j.peak_bytes as f64).collect();
    let values = [
        (median(setup_s), setup_s.len()),
        (fastest_steps_s(jobs), n),
        (median(&peaks) / (1u64 << 20) as f64, n),
        (jobs.last().expect("at least one job").objective, n),
    ];
    E2E_METRICS
        .iter()
        .zip(values)
        .map(|(&(name, unit), (value, samples))| Metric {
            name,
            unit,
            value,
            samples,
        })
        .collect()
}

/// The job's wall time with every step at its fastest repetition: the
/// sum over steps of their minimum over `jobs`, plus the least wall time
/// outside the steps. Every repetition runs the same steps on the same
/// inputs, and contention from outside the process only ever adds time,
/// so this estimates the job's own cost more steadily than the median
/// wall time, which a phase of contention lasting most of a run moves.
/// Jobs whose step counts differ count as one step each.
fn fastest_steps_s(jobs: &[JobRecord]) -> f64 {
    let split = |j: &JobRecord| {
        let mut steps: Vec<f64> = j.steps_ms.iter().map(|ms| ms / 1e3).collect();
        let covered: f64 = steps.iter().sum();
        steps.push(j.wall_s - covered);
        steps
    };
    let mut steps: Vec<Vec<f64>> = jobs.iter().map(split).collect();
    if steps.iter().any(|s| s.len() != steps[0].len()) {
        steps = jobs.iter().map(|j| vec![j.wall_s]).collect();
    }
    (0..steps[0].len())
        .map(|i| steps.iter().map(|s| s[i]).fold(f64::INFINITY, f64::min))
        .sum()
}

fn layer_metrics(layers: &[LayerRecord], untraced_job_s: f64) -> Vec<Metric> {
    let n = layers.len();
    let traced_walls: Vec<f64> = layers.iter().map(|l| l.wall_s).collect();
    LAYER_METRICS
        .iter()
        .map(|&(name, unit)| {
            let value = if name == "trace.overhead_s" {
                median(&traced_walls) - untraced_job_s
            } else {
                layers
                    .iter()
                    .map(|l| l.values.get(name).copied().unwrap_or(0.0))
                    .sum::<f64>()
                    / n as f64
            };
            Metric {
                name,
                unit,
                value,
                samples: n,
            }
        })
        .collect()
}

/// Median (mean of the middle pair for even counts); NaN when empty.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Linear-interpolated quantile `q` in `[0, 1]`; NaN when empty.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// A fitted model in the form the output checks need.
#[derive(Debug, Clone)]
pub struct FitOut {
    /// Protocentroid sets (one `k x m` set for plain k-Means).
    pub sets: Vec<Matrix>,
    /// Aggregator combining the sets.
    pub agg: Aggregator,
    /// Flat label per point.
    pub labels: Vec<usize>,
    /// Reported inertia.
    pub inertia: f64,
}

/// The two output checks every fitted model passes: the reported
/// inertia equals [`fixed_assignment_objective`] recomputed from the
/// protocentroids and labels (relative [`INERTIA_RTOL`]), and every label
/// is a nearest centroid by [`nearest_assignments_with`], ties allowed.
pub fn check_fit(data: &Matrix, fit: &FitOut, exec: &ExecCtx) -> Option<String> {
    let k: usize = fit.sets.iter().map(Matrix::nrows).product();
    if fit.labels.len() != data.nrows() {
        return Some(format!(
            "{} labels for {} points",
            fit.labels.len(),
            data.nrows()
        ));
    }
    if let Some(l) = fit.labels.iter().find(|&&l| l >= k) {
        return Some(format!("label {l} of {k} centroids"));
    }
    let recomputed = fixed_assignment_objective(data, &fit.labels, &fit.sets, fit.agg);
    if !close(fit.inertia, recomputed) {
        return Some(format!(
            "inertia {} but the labels give {recomputed}",
            fit.inertia
        ));
    }
    let centroids = khatri_rao(&fit.sets, fit.agg).expect("sets share a dimension");
    let (nearest, _) = nearest_assignments_with(data, &centroids, exec);
    let m = data.ncols() as f64;
    for (i, (&l, &best)) in fit.labels.iter().zip(nearest.iter()).enumerate() {
        if l == best {
            continue;
        }
        let x = data.row(i);
        let d_label = ops::sqdist(x, centroids.row(l));
        let d_best = ops::sqdist(x, centroids.row(best));
        // A tie is equal distance up to the rounding of a length-m
        // squared distance, which scales with the squared norms involved.
        let scale = ops::dot(x, x) + ops::dot(centroids.row(l), centroids.row(l));
        if d_label > d_best + 4.0 * m * f64::EPSILON * scale {
            return Some(format!(
                "point {i} is labelled {l} at {d_label} but {best} is at {d_best}"
            ));
        }
    }
    None
}
