//! The `stream_minibatch` workload: `MiniBatchKrKMeans` over a replayed
//! Blobs pool, one batch at a time.
//!
//! The traced job wraps each `observe` call: the first, which seeds the
//! protocentroids with a full fit, is `stream.init`; the rest are
//! `stream.observe`. The cross-batch bounds (`CcBounds`) and sufficient
//! statistics (`SuffStats`) live inside `observe`, so their work is that
//! span's self time; their counters come from the summarizer.

use crate::trace::{self, Tracer};
use crate::{
    check_fit, median, percentile, FitOut, JobRecord, LayerRecord, Metric, Size, Tally, Workers,
};
use kr_core::aggregator::Aggregator;
use kr_core::kmeans::nearest_assignments_with;
use kr_datasets::stream::ChunkedReplay;
use kr_linalg::Matrix;
use kr_stream::{MiniBatchKrKMeans, MiniBatchKrModel, StreamSummarizer};
use std::time::Instant;

/// The workload's inputs and settings.
pub struct StreamBench {
    pool: Matrix,
    hs: Vec<usize>,
    batch: usize,
    passes: usize,
    seed: u64,
    workers: Workers,
}

/// Counters of one job's summarizer.
struct StreamCounts {
    skip_ratio: f64,
    rebuilds: u64,
}

impl StreamBench {
    /// A 12 000 x 16 Blobs pool with 64 clusters (data seed `seed`),
    /// streamed 200 times over in 1000-row `ChunkedReplay` batches into a
    /// (8, 8) sum `MiniBatchKrKMeans` with fit seed `seed + 1`, serial.
    pub fn new(seed: u64, size: Size) -> Self {
        let (n, passes) = match size {
            Size::Full => (12_000, 200),
            Size::Tiny => (3000, 2),
        };
        let ds = kr_datasets::synthetic::blobs(n, 16, 64, 1.0, seed);
        StreamBench {
            pool: ds.data,
            hs: vec![8, 8],
            batch: 1000,
            passes,
            seed,
            workers: Workers::new(1),
        }
    }

    /// Streams every pass, calling `observe(first, summarizer, batch)` per
    /// batch; returns the finished model and the summarizer's counters.
    fn stream(
        &self,
        tally: &mut Tally,
        mut observe: impl FnMut(bool, &mut MiniBatchKrKMeans, &Matrix) -> kr_core::Result<()>,
    ) -> (kr_core::Result<MiniBatchKrModel>, StreamCounts) {
        let mut mb = MiniBatchKrKMeans::new(self.hs.clone())
            .with_seed(self.seed + 1)
            .with_exec(self.workers.exec());
        let mut replay = ChunkedReplay::new(&self.pool, self.batch, self.seed);
        let mut first = true;
        for _ in 0..self.passes {
            replay.reset();
            for batch in replay.by_ref() {
                let r = observe(first, &mut mb, &batch);
                tally.unit(r.err().map(|e| format!("batch failed: {e}")));
                first = false;
            }
        }
        let counts = StreamCounts {
            skip_ratio: mb.prune_stats().skip_ratio(),
            rebuilds: mb.prune_rebuilds(),
        };
        (mb.finalize(), counts)
    }

    /// Checks the final model over the pool; returns the objective.
    fn check(&self, model: kr_core::Result<MiniBatchKrModel>, tally: &mut Tally) -> f64 {
        let model = match model {
            Ok(m) => m,
            Err(e) => {
                tally.unit(Some(format!("finalize failed: {e}")));
                return f64::NAN;
            }
        };
        let exec = self.workers.exec();
        let (labels, dmin) = nearest_assignments_with(&self.pool, &model.centroids(), &exec);
        let fit = FitOut {
            sets: model.protocentroids,
            agg: Aggregator::Sum,
            inertia: dmin.iter().sum(),
            labels,
        };
        tally.unit(check_fit(&self.pool, &fit, &exec));
        let (n, m) = self.pool.shape();
        fit.inertia / (n * m) as f64
    }
}

impl crate::Bench for StreamBench {
    fn job(&mut self, tally: &mut Tally) -> JobRecord {
        kr_bench::alloc_counter::reset_peak();
        let t0 = Instant::now();
        let mut steps_ms = Vec::new();
        let (model, _) = self.stream(tally, |first, mb, batch| {
            let ts = Instant::now();
            let r = mb.observe(batch);
            // The seeding batch is a full fit, not a streaming step.
            if !first {
                steps_ms.push(ts.elapsed().as_secs_f64() * 1e3);
            }
            r
        });
        let wall_s = t0.elapsed().as_secs_f64();
        let peak_bytes = kr_bench::alloc_counter::peak_since_reset();
        let objective = self.check(model, tally);
        JobRecord {
            wall_s,
            peak_bytes,
            steps_ms,
            objective,
        }
    }

    fn traced_job(&mut self, tracer: &Tracer, tally: &mut Tally) -> LayerRecord {
        let (model, counts) = tracer.span("job", || {
            self.stream(tally, |first, mb, batch| {
                let name = if first {
                    "stream.init"
                } else {
                    "stream.observe"
                };
                tracer.span(name, || mb.observe(batch))
            })
        });
        self.check(model, tally);
        let spans = tracer.job_spans(tracer.job());
        let wall_s = trace::total(&spans, "job");
        let covered = trace::union_secs(&spans, |s| s.name != "job");
        let share = |name| trace::total(&spans, name) / wall_s;
        let values = [
            ("stream.init_share", share("stream.init")),
            ("stream.observe_self_share", share("stream.observe")),
            ("stream.skip_ratio", counts.skip_ratio),
            ("stream.cc_rebuilds", counts.rebuilds as f64),
            ("pool.efficiency", 1.0),
            ("trace.coverage", covered / wall_s),
        ];
        LayerRecord {
            wall_s,
            values: values.into_iter().collect(),
        }
    }

    fn details(&self, jobs: &[JobRecord]) -> Vec<Metric> {
        let batches: Vec<f64> = jobs
            .iter()
            .flat_map(|j| j.steps_ms.iter().copied())
            .collect();
        let walls: Vec<f64> = jobs.iter().map(|j| j.wall_s).collect();
        vec![
            Metric {
                name: "batch_ms_p50",
                unit: "ms",
                value: percentile(&batches, 0.5),
                samples: batches.len(),
            },
            Metric {
                name: "batch_ms_p99",
                unit: "ms",
                value: percentile(&batches, 0.99),
                samples: batches.len(),
            },
            Metric {
                name: "rows_per_s",
                unit: "1/s",
                value: (self.pool.nrows() * self.passes) as f64 / median(&walls),
                samples: jobs.len(),
            },
        ]
    }
}
