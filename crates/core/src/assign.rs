//! Bounds-gated nearest-centroid assignment: the shared engine every
//! Lloyd-style fitter in the workspace routes through.
//!
//! The engine eliminates most exact distance evaluations with
//! Elkan/Hamerly-style triangle-inequality bounds while keeping the
//! repo's signature contract: **pruned assignment is bitwise identical
//! to the exhaustive scan** — labels, per-point distances, and therefore
//! centroids, inertia, and `SuffStats` downstream — at any worker count.
//!
//! Every kernel value is the one scalar expression
//! `‖x‖² + ‖c‖² − 2·ops::dot(x, c)`. The blocked matrix products run the
//! lane kernels of [`kr_linalg::simd`] instead; assignment does not, so
//! moving it to lanes would change the exhaustive reference and every
//! pruned path with it, as one whole-path change.
//!
//! ## Why pruning can be bitwise-safe
//!
//! The exhaustive scans pick the lowest-index argmin by comparing
//! candidates in ascending order with a strict `<`. A candidate `c` may
//! therefore be skipped iff a *certified* lower bound on the value the
//! kernel **would compute** for `c` strictly exceeds an
//! already-computed exact value (the distance to the previous
//! assignment, or the running best of the scan). The final minimum is
//! never larger than that gate, so every skipped candidate satisfies
//! `d_c > final_min` strictly — it can change neither the argmin nor a
//! tie. Undecided candidates are evaluated with the caller's exact
//! kernel expression in the same ascending order (reusing the
//! already-computed bits where the expression repeats), which makes the
//! surviving comparison chain — hence labels and distances — identical
//! by construction. Bounds only ever *remove provably-losing work*;
//! they never substitute a value.
//!
//! Floating-point certification uses one conservative additive error
//! term for the expanded kernel `‖x‖² + ‖c‖² − 2⟨x,c⟩` (see
//! `kernel_error_bound`) plus relative slack on every square root and
//! bound decay, so a bound can under-prune but never mis-prune.
//!
//! ## Blocked and factored scans
//!
//! The full scans (the exhaustive reference, every session's first pass,
//! the Hamerly rescan) compute a point's dots four centroids at a time
//! through [`ops::dot_block`], and the Hamerly/Elkan evaluation against
//! the previous label runs four points at a time through [`ops::dot4`].
//! Each accumulator starts at `-0.0` and adds in ascending order, so
//! every value is bitwise `ops::dot`: blocking changes speed, not bits.
//!
//! For a materialized grid with the Sum aggregator, `p ≥ 2` sets and
//! Σh < ∏h, the full scans of the bounded modes run the **factored
//! filter**:
//! since `x·(θ_1[i] + θ_2[j]) = x·θ_1[i] + x·θ_2[j]`, a score
//! `‖x‖² + ‖c‖² − 2·Σ_l x·θ_l[t_l]` for every grid row costs Σh dots
//! instead of ∏h. `factored_error_bound` gives `E ≥ |score − kernel|`
//! (covering the rounding of the materialized sums and both dot
//! products). Only rows scoring within `2E` of the best score are
//! evaluated, verbatim and in ascending order; every other row computes
//! strictly above the exhaustive minimum, so the strict-`<` argmin, its
//! ties and `dmin` are the exhaustive scan's. Rejected rows still bound
//! Hamerly's runner-up and seed Elkan's lower bounds through
//! `score − E`. EXPERIMENTS.md ("Blocked and factored scans") derives `E`.
//!
//! ## Stateless batch scans
//!
//! [`scan_grid`] runs the same full scan once over points it has not
//! seen before, with no bound state: the mini-batch stream's path, where
//! every batch is new data and no per-point bound would outlive it. It
//! is one chunk-parallel pass whose buffers come from the `ExecCtx`
//! [`Scratch`] arena, so a batch builds no engine. Sum grids take the
//! factored filter, other grids the blocked scan, and `PruneMode::Off`
//! the exhaustive scan; all three give the exhaustive bits.
//!
//! ## Bound structures
//!
//! * **Hamerly** (large `k`): one lower bound per point on the distance
//!   to every non-assigned centroid, decayed each iteration by the
//!   maximum centroid drift. Whole-point skips cost O(1).
//! * **Elkan** (small `k`): per-(point, centroid) lower bounds decayed
//!   by per-centroid drift, plus a `k x k` lower-bound matrix on
//!   center–center distances rebuilt each iteration. For Khatri-Rao
//!   grids with the sum aggregator the matrix is rebuilt from
//!   per-factor Gram blocks in O((Σh)²·m + k²·p²) instead of O(k²·m).
//!
//! The deterministic mode heuristic (`Auto`, a pure function of
//! `(n, k, m)`) picks Elkan iff `k ≤ 96 && k² ≤ n && k ≤ 4m`; it is
//! overridable per context via [`kr_linalg::PruneMode`] / `KR_PRUNE`.
//! Memory-efficient (on-the-fly) Khatri-Rao assignment always uses the
//! single-bound structure plus a per-candidate norm gate
//! `d(x, c) ≥ |‖x‖ − ‖c‖|`, with per-factor drift combined per the
//! aggregator.
//!
//! All bound state lives in the [`kr_linalg::Scratch`] arena of the
//! engine's `ExecCtx`, so steady-state Lloyd iterations stay O(1)
//! allocations, and one engine serves every restart of a fit.
//! [`PruneStats`] counts exact evaluations, certified skips, and bound
//! refreshes for the benches (telemetry only — counters may differ
//! across thread counts even though results cannot). With the `obs`
//! feature the same counters are mirrored onto the trace schema as
//! `assign.dists_computed` / `assign.dists_skipped` /
//! `assign.bound_updates`, and every assignment pass opens an
//! `assign.pass` span labelled with `k`.

use crate::aggregator::Aggregator;
use crate::operator::{aggregate_tuple_into, CentroidIndexer};
use kr_linalg::{ops, parallel, ExecCtx, Matrix, PruneMode, Scratch};
use std::sync::atomic::{AtomicU64, Ordering};

/// Per-fit pruning counters, exposed on the fitted models.
///
/// Telemetry only: the counters never influence results, and chunk
/// scheduling may shift *when* a bound tightens, so they are not part of
/// the bitwise contract (labels/centroids/inertia are).
///
/// Counting rule: every length-`m` dot product the engine computes counts
/// once in `dists_computed` — a kernel evaluation, and under the
/// factored Khatri-Rao filter each of a point's Σh protocentroid dots
/// and each verbatim re-evaluation. `dists_computed · m` is therefore
/// the multiply-add count of the assignment dots. Grid rows the filter
/// rejects count in `dists_skipped`, like candidates a bound skips.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PruneStats {
    /// Length-`m` dot products computed: exact kernel evaluations plus
    /// the factored filter's protocentroid dots.
    pub dists_computed: u64,
    /// Candidate evaluations skipped under a certified bound or rejected
    /// by the factored filter.
    pub dists_skipped: u64,
    /// Bound refreshes (per-candidate tightenings, drift measurements,
    /// center–center matrix entries rebuilt).
    pub bound_updates: u64,
}

impl PruneStats {
    /// Accumulates `other` into `self`.
    pub fn merge(&mut self, other: PruneStats) {
        self.dists_computed += other.dists_computed;
        self.dists_skipped += other.dists_skipped;
        self.bound_updates += other.bound_updates;
    }

    /// Fraction of candidate evaluations that were skipped
    /// (`0.0` when nothing was counted).
    pub fn skip_ratio(&self) -> f64 {
        let total = self.dists_computed + self.dists_skipped;
        if total == 0 {
            0.0
        } else {
            self.dists_skipped as f64 / total as f64
        }
    }
}

/// Thread-shared counters: chunks accumulate locally and publish once
/// per chunk. Integer sums are commutative, so totals are deterministic
/// for a fixed schedule shape even though add order is not.
#[derive(Debug, Default)]
pub(crate) struct SharedStats {
    computed: AtomicU64,
    skipped: AtomicU64,
    updates: AtomicU64,
}

impl SharedStats {
    fn add(&self, computed: u64, skipped: u64, updates: u64) {
        // The obs counters mirror PruneStats onto the trace schema:
        // per-chunk increments, aggregated by `Snapshot::counter_total`.
        if computed > 0 {
            self.computed.fetch_add(computed, Ordering::Relaxed);
            kr_obs::counter!("assign.dists_computed", computed);
        }
        if skipped > 0 {
            self.skipped.fetch_add(skipped, Ordering::Relaxed);
            kr_obs::counter!("assign.dists_skipped", skipped);
        }
        if updates > 0 {
            self.updates.fetch_add(updates, Ordering::Relaxed);
            kr_obs::counter!("assign.bound_updates", updates);
        }
    }

    fn snapshot(&self) -> PruneStats {
        PruneStats {
            dists_computed: self.computed.load(Ordering::Relaxed),
            dists_skipped: self.skipped.load(Ordering::Relaxed),
            bound_updates: self.updates.load(Ordering::Relaxed),
        }
    }

    fn reset(&self) {
        self.computed.store(0, Ordering::Relaxed);
        self.skipped.store(0, Ordering::Relaxed);
        self.updates.store(0, Ordering::Relaxed);
    }
}

// ---------------------------------------------------------------------
// Conservative floating-point margins.
//
// Bounds are kept in *true-distance* space. The certification chain
// needs exactly one comparison to be reliable: "the value the kernel
// would compute for candidate c is strictly greater than this computed
// gate". Every helper below is slack in the safe direction, so a bound
// can only lose pruning power, never correctness.
// ---------------------------------------------------------------------

/// Relative slack applied to every square root and decay step.
const REL_SLACK: f64 = 1e-12;

/// Additive bound on `|computed − true|` for the expanded squared
/// distance `‖x‖² + ‖c‖² − 2⟨x,c⟩` at dimension `m`: the classic
/// `γ_m`-style term scaled by the largest magnitudes involved, with a
/// generous headroom constant. `2⁻⁴⁸ ≈ 16·ε` absorbs both the dot
/// products and the final cancellation.
fn kernel_error_bound(m: usize, max_x_sq: f64, max_c_sq: f64) -> f64 {
    let x = if max_x_sq > 0.0 { max_x_sq } else { 0.0 };
    let c = if max_c_sq > 0.0 { max_c_sq } else { 0.0 };
    let cross = (x * c).sqrt();
    (m as f64 + 64.0) * 2.0_f64.powi(-48) * (x + c + 2.0 * cross)
}

/// Additive bound `E` on `|factored score − kernel value|` for one point
/// of a Sum-aggregated grid with `p` factor sets (see "Blocked and
/// factored scans" in the module docs). `x_hi` bounds `‖x‖` and `b`
/// bounds both every grid-row norm and `Σ_l max_a ‖θ_l[a]‖`. The derived
/// bound is `u·(4.07(m+p)·x_hi·b + 2.01(‖x‖² + max‖c‖²))` with
/// `u = 2⁻⁵³`; the `2⁻⁴⁸` headroom is ≥ 15× that, which also absorbs the
/// roundings of the threshold and bound arithmetic built on `E`. The
/// `MIN_POSITIVE` term covers subnormal products.
fn factored_error_bound(m: usize, p: usize, xn: f64, max_c_sq: f64, x_hi: f64, b: f64) -> f64 {
    let w = m as f64 + p as f64 + 64.0;
    w * 2.0_f64.powi(-48) * (xn + max_c_sq + 2.0 * x_hi * b) + w * f64::MIN_POSITIVE
}

/// Lower bound on the **true** distance given a computed squared
/// distance with additive error at most `err`.
fn dist_lower(d_sq: f64, err: f64) -> f64 {
    let v = d_sq - err;
    if v > 0.0 {
        v.sqrt() * (1.0 - REL_SLACK)
    } else {
        0.0
    }
}

/// Upper bound on the **true** distance given a computed squared
/// distance with additive error at most `err`.
fn dist_upper(d_sq: f64, err: f64) -> f64 {
    let v = d_sq + err;
    if v > 0.0 {
        v.sqrt() * (1.0 + REL_SLACK)
    } else {
        0.0
    }
}

/// A floor below the value the kernel would *compute* for any candidate
/// whose true distance is at least `lo`: true squared distance is at
/// least `lo²`, and the computed value undershoots it by at most `err`.
/// Skipping is sound whenever this floor strictly exceeds a computed
/// gate.
fn certified_floor(lo: f64, err: f64) -> f64 {
    let l = if lo > 0.0 { lo } else { 0.0 };
    l * l * (1.0 - REL_SLACK) - err
}

/// Decays a true-distance lower bound by a drift upper bound `delta`
/// (triangle inequality), with downward slack absorbing the subtraction
/// rounding.
fn decay_lower(l: f64, delta: f64) -> f64 {
    let v = l - delta;
    if v > 0.0 {
        v * (1.0 - REL_SLACK)
    } else {
        0.0
    }
}

/// Upper bound on the true distance from a *directly computed*
/// sum-of-squares (`ops::sqdist` — no cancellation, so the error is a
/// tiny relative term).
fn drift_upper(d_sq: f64) -> f64 {
    let v = if d_sq > 0.0 { d_sq } else { 0.0 };
    (v * (1.0 + 1e-9)).sqrt() * (1.0 + REL_SLACK)
}

/// Lower bound on a true distance from a directly computed
/// sum-of-squares (center–center rebuilds).
fn cc_lower(d_sq: f64) -> f64 {
    let v = d_sq * (1.0 - 1e-9);
    if v > 0.0 {
        v.sqrt() * (1.0 - REL_SLACK)
    } else {
        0.0
    }
}

/// Lower bound on the true Euclidean norm from a computed squared norm.
fn norm_lower(sq: f64, m: usize) -> f64 {
    let g = (m as f64 + 64.0) * 2.0_f64.powi(-50);
    let v = sq * (1.0 - g);
    if v > 0.0 {
        v.sqrt() * (1.0 - REL_SLACK)
    } else {
        0.0
    }
}

/// Upper bound on the true Euclidean norm from a computed squared norm.
fn norm_upper(sq: f64, m: usize) -> f64 {
    let g = (m as f64 + 64.0) * 2.0_f64.powi(-50);
    let v = if sq > 0.0 { sq } else { 0.0 };
    (v * (1.0 + g)).sqrt() * (1.0 + REL_SLACK)
}

/// Which bound structure a session runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BoundMode {
    Hamerly,
    Elkan,
}

/// The deterministic `Auto` heuristic: a pure function of `(n, k, m)` so
/// every context, worker count, and run agrees. Elkan's n×k bound rows
/// and k² matrix only pay off when k is small in absolute terms,
/// relative to n (matrix rebuild cost), and relative to m (memory next
/// to the data itself).
fn auto_mode(n: usize, k: usize, m: usize) -> BoundMode {
    if k <= 96 && k * k <= n && k <= 4 * m {
        BoundMode::Elkan
    } else {
        BoundMode::Hamerly
    }
}

/// What kind of candidate set the current session's state describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SessionKind {
    None,
    Dense,
    Otf,
}

/// Swaps `buf` for a zeroed scratch buffer of `len` elements when its
/// size does not match (no-op on the steady-state path).
fn resize_buf(scratch: &Scratch, buf: &mut Vec<f64>, len: usize) {
    if buf.len() != len {
        scratch.put_f64(std::mem::take(buf));
        *buf = scratch.take_f64(len);
    }
}

// State-row layouts (one f64 row per point, parallel-chunked via
// `map_rows_into`; the interleaving keeps every per-point mutable in one
// buffer, which is what lets the pass stay safe-code under
// `#![forbid(unsafe_code)]`).
const HAMERLY_STRIDE: usize = 3; // [label, dmin, lower]
const OTF_STRIDE: usize = 8; // [best, label, runner, pruned_lb, lower, d_prev, decided, prev_label]

/// The shared bounds-gated assignment engine.
///
/// One engine serves a whole fit (all `n_init` restarts): call
/// [`AssignEngine::begin_fit`] once per dataset, then
/// [`AssignEngine::begin_restart`] at each restart, then one of the
/// `assign_*` entry points per Lloyd iteration. Results are bitwise
/// identical to the exhaustive scans in every mode; see the module docs
/// for the argument.
#[derive(Debug)]
pub struct AssignEngine {
    exec: ExecCtx,
    n: usize,
    m: usize,
    k: usize,
    stride: usize,
    session: SessionKind,
    mode: BoundMode,
    /// Bounds in `state` describe the snapshot in `prev`/`prev_sets`.
    ready: bool,
    max_x_sq: f64,
    /// Measured max candidate squared norm (on-the-fly sessions).
    max_c_sq: f64,
    x_norms: Vec<f64>,
    x_lo: Vec<f64>,
    x_hi: Vec<f64>,
    state: Vec<f64>,
    prev: Vec<f64>,
    drift: Vec<f64>,
    cc: Vec<f64>,
    prev_sets: Vec<Vec<f64>>,
    prev_sets_dims: Vec<(usize, usize)>,
    stats: SharedStats,
}

impl AssignEngine {
    /// Creates an engine bound to (a clone of) `exec`: its scratch
    /// arena, pool, and [`PruneMode`].
    pub fn new(exec: &ExecCtx) -> Self {
        AssignEngine {
            exec: exec.clone(),
            n: 0,
            m: 0,
            k: 0,
            stride: 0,
            session: SessionKind::None,
            mode: BoundMode::Hamerly,
            ready: false,
            max_x_sq: 0.0,
            max_c_sq: 0.0,
            x_norms: Vec::new(),
            x_lo: Vec::new(),
            x_hi: Vec::new(),
            state: Vec::new(),
            prev: Vec::new(),
            drift: Vec::new(),
            cc: Vec::new(),
            prev_sets: Vec::new(),
            prev_sets_dims: Vec::new(),
            stats: SharedStats::default(),
        }
    }

    /// Caches per-point norms for `data` and invalidates every bound.
    /// Must be called before the first `assign_*` on a dataset; the
    /// cached norms are the same `dot(x, x)` bits the exhaustive kernels
    /// recompute per point, so caching is bitwise-neutral.
    pub fn begin_fit(&mut self, data: &Matrix) {
        let (n, m) = data.shape();
        self.n = n;
        self.m = m;
        self.session = SessionKind::None;
        self.ready = false;
        let scratch = self.exec.scratch().clone();
        scratch.put_f64(std::mem::take(&mut self.x_norms));
        let mut xn = scratch.take_f64_uninit(0);
        data.row_sq_norms_into(&mut xn);
        self.x_norms = xn;
        let mut mx = 0.0;
        for &v in self.x_norms.iter() {
            if v > mx {
                mx = v;
            }
        }
        self.max_x_sq = mx;
        resize_buf(&scratch, &mut self.x_lo, n);
        resize_buf(&scratch, &mut self.x_hi, n);
        for i in 0..n {
            self.x_lo[i] = norm_lower(self.x_norms[i], m);
            self.x_hi[i] = norm_upper(self.x_norms[i], m);
        }
    }

    /// Invalidates bound state between restarts (cached data norms are
    /// kept — the dataset has not changed).
    pub fn begin_restart(&mut self) {
        self.ready = false;
    }

    /// Counters accumulated since construction or the last
    /// [`AssignEngine::take_stats`].
    pub fn stats(&self) -> PruneStats {
        self.stats.snapshot()
    }

    /// Returns and resets the accumulated counters.
    pub fn take_stats(&mut self) -> PruneStats {
        let s = self.stats.snapshot();
        self.stats.reset();
        s
    }

    fn resolved_mode(&self, k: usize) -> Option<BoundMode> {
        match self.exec.prune_mode() {
            PruneMode::Off => None,
            PruneMode::Hamerly => Some(BoundMode::Hamerly),
            PruneMode::Elkan => Some(BoundMode::Elkan),
            PruneMode::Auto => Some(auto_mode(self.n, k, self.m)),
        }
    }

    /// Nearest-centroid assignment against a dense centroid matrix —
    /// the `KMeans` / `WeightedKMeans` hot path. Bitwise identical to
    /// `exhaustive_dense` in every [`PruneMode`].
    pub fn assign_dense(
        &mut self,
        data: &Matrix,
        centroids: &Matrix,
        labels: &mut [usize],
        dmin: &mut [f64],
    ) {
        self.assign_dense_impl(data, centroids, None, Aggregator::Sum, labels, dmin);
    }

    /// Assignment against a materialized Khatri-Rao grid (the
    /// time-efficient `KrKMeans` variant): `grid` must be
    /// `khatri_rao(sets, agg)`. Identical results to
    /// [`AssignEngine::assign_dense`]. With the sum aggregator the full
    /// scans run the factored filter over `sets` (module docs, "Blocked
    /// and factored scans"), and the Elkan structure's center–center
    /// rebuild runs factored over `sets` instead of over grid rows.
    pub fn assign_grid(
        &mut self,
        data: &Matrix,
        grid: &Matrix,
        sets: &[Matrix],
        agg: Aggregator,
        labels: &mut [usize],
        dmin: &mut [f64],
    ) {
        self.assign_dense_impl(data, grid, Some(sets), agg, labels, dmin);
    }

    fn assign_dense_impl(
        &mut self,
        data: &Matrix,
        centroids: &Matrix,
        factors: Option<&[Matrix]>,
        agg: Aggregator,
        labels: &mut [usize],
        dmin: &mut [f64],
    ) {
        debug_assert_eq!(data.shape(), (self.n, self.m), "begin_fit saw other data");
        debug_assert_eq!(centroids.ncols(), self.m);
        let k = centroids.nrows();
        let _pass = kr_obs::span!("assign.pass", "k" => k);
        let Some(mode) = self.resolved_mode(k) else {
            exhaustive_dense(data, centroids, labels, dmin, &self.exec, Some(&self.stats));
            self.ready = false;
            return;
        };
        self.ensure_dense_session(k, mode);
        let scratch = self.exec.scratch().clone();
        let mut c_norms = scratch.take_f64_uninit(0);
        centroids.row_sq_norms_into(&mut c_norms);
        let mut max_c = 0.0;
        for &v in c_norms.iter() {
            if v > max_c {
                max_c = v;
            }
        }
        let err = kernel_error_bound(self.m, self.max_x_sq, max_c);
        let filter = match (factors, agg) {
            (Some(sets), Aggregator::Sum) => SumFilter::new(sets, k, self.m, max_c),
            _ => None,
        };
        let scan = FullScan {
            centroids,
            c_norms: &c_norms,
            err,
            filter,
        };
        if self.ready {
            let m = self.m;
            for c in 0..k {
                let s = ops::sqdist(&self.prev[c * m..(c + 1) * m], centroids.row(c));
                self.drift[c] = drift_upper(s);
            }
            self.stats.add(0, 0, k as u64);
            match mode {
                BoundMode::Hamerly => self.hamerly_pass(data, &scan),
                BoundMode::Elkan => {
                    self.rebuild_cc(centroids, factors, agg);
                    self.elkan_pass(data, &scan);
                }
            }
        } else {
            self.init_dense_pass(data, &scan, mode);
            self.ready = true;
        }
        for c in 0..k {
            let m = self.m;
            self.prev[c * m..(c + 1) * m].copy_from_slice(centroids.row(c));
        }
        for (i, row) in self.state.chunks_exact(self.stride).enumerate() {
            labels[i] = row[0] as usize;
            dmin[i] = row[1];
        }
        scratch.put_f64(c_norms);
    }

    fn ensure_dense_session(&mut self, k: usize, mode: BoundMode) {
        let stride = match mode {
            BoundMode::Hamerly => HAMERLY_STRIDE,
            BoundMode::Elkan => 2 + k,
        };
        if self.session == SessionKind::Dense
            && self.k == k
            && self.mode == mode
            && self.state.len() == self.n * stride
        {
            return;
        }
        self.session = SessionKind::Dense;
        self.k = k;
        self.mode = mode;
        self.stride = stride;
        self.ready = false;
        let scratch = self.exec.scratch().clone();
        resize_buf(&scratch, &mut self.state, self.n * stride);
        resize_buf(&scratch, &mut self.prev, k * self.m);
        resize_buf(&scratch, &mut self.drift, k);
        let cc_len = if mode == BoundMode::Elkan { k * k } else { 0 };
        resize_buf(&scratch, &mut self.cc, cc_len);
    }

    /// First assignment of a session: full scans (identical to the
    /// exhaustive path) that also seed the bounds.
    fn init_dense_pass(&mut self, data: &Matrix, scan: &FullScan<'_>, mode: BoundMode) {
        let k = self.k;
        let stride = self.stride;
        let elkan = mode == BoundMode::Elkan;
        let x_norms = &self.x_norms;
        let x_hi = &self.x_hi;
        let stats = &self.stats;
        let scratch = self.exec.scratch();
        parallel::map_rows_into(&self.exec, &mut self.state, stride, 1, |start, chunk| {
            let mut buf = scratch.take_f64_uninit(scan.buf_len());
            let (mut comp, mut skip, mut rows) = (0u64, 0u64, 0u64);
            for (off, row) in chunk.chunks_exact_mut(stride).enumerate() {
                let i = start + off;
                let (head, tail) = row.split_at_mut(2);
                let lower = if elkan { Some(tail) } else { None };
                let out = scan.scan(data.row(i), x_norms[i], x_hi[i], None, &mut buf, lower);
                head[0] = out.best as f64;
                head[1] = out.best_d.max(0.0);
                if !elkan {
                    row[2] = dist_lower(out.runner, scan.err);
                }
                comp += out.comp;
                skip += out.skip;
                rows += 1;
            }
            stats.add(comp, skip, rows * k as u64);
            scratch.put_f64(buf);
        });
    }

    /// Hamerly iteration: one exact evaluation per point (the previous
    /// assignment — `dmin` must be exact every iteration because it
    /// feeds inertia, and the evaluations run four points at a time),
    /// then either a certified whole-point skip or a full rescan that
    /// re-tightens the bound from the runner-up.
    fn hamerly_pass(&mut self, data: &Matrix, scan: &FullScan<'_>) {
        let k = self.k;
        let err = scan.err;
        let c_norms = scan.c_norms;
        let mut delta_max = 0.0;
        for &d in self.drift.iter() {
            if d > delta_max {
                delta_max = d;
            }
        }
        let x_norms = &self.x_norms;
        let x_hi = &self.x_hi;
        let stats = &self.stats;
        let scratch = self.exec.scratch();
        parallel::map_rows_into(
            &self.exec,
            &mut self.state,
            HAMERLY_STRIDE,
            1,
            |start, chunk| {
                let mut buf = scratch.take_f64_uninit(scan.buf_len());
                own_dots_into(data, scan.centroids, start, chunk, HAMERLY_STRIDE);
                let mut comp = 0u64;
                let mut skip = 0u64;
                let mut upd = 0u64;
                for (off, row) in chunk.chunks_exact_mut(HAMERLY_STRIDE).enumerate() {
                    let i = start + off;
                    let x = data.row(i);
                    let xn = x_norms[i];
                    let a = row[0] as usize;
                    let dot_a = row[1];
                    let d_a = xn + c_norms[a] - 2.0 * dot_a;
                    comp += 1;
                    let l = decay_lower(row[2], delta_max);
                    if certified_floor(l, err) > d_a {
                        // Every other candidate computes strictly above
                        // d_a: the exhaustive argmin is uniquely `a`.
                        row[1] = d_a.max(0.0);
                        row[2] = l;
                        skip += k as u64 - 1;
                        continue;
                    }
                    let out = scan.scan(x, xn, x_hi[i], Some((a, dot_a)), &mut buf, None);
                    row[0] = out.best as f64;
                    row[1] = out.best_d.max(0.0);
                    row[2] = dist_lower(out.runner, err);
                    comp += out.comp;
                    skip += out.skip;
                    upd += 1;
                }
                stats.add(comp, skip, upd);
                scratch.put_f64(buf);
            },
        );
    }

    /// Elkan iteration: per-candidate lower bounds decayed by
    /// per-centroid drift, sharpened by the center–center matrix
    /// (`s(a,c) − u ≤ d(x,c)`), with undecided candidates evaluated in
    /// ascending order against the running best. The exact evaluation
    /// against the previous assignment runs four points at a time.
    fn elkan_pass(&mut self, data: &Matrix, scan: &FullScan<'_>) {
        let k = self.k;
        let stride = self.stride;
        let (centroids, c_norms, err) = (scan.centroids, scan.c_norms, scan.err);
        let x_norms = &self.x_norms;
        let drift = &self.drift;
        let cc = &self.cc;
        let stats = &self.stats;
        parallel::map_rows_into(&self.exec, &mut self.state, stride, 1, |start, chunk| {
            own_dots_into(data, centroids, start, chunk, stride);
            let mut comp = 0u64;
            let mut skip = 0u64;
            let mut upd = 0u64;
            for (off, row) in chunk.chunks_exact_mut(stride).enumerate() {
                let i = start + off;
                let x = data.row(i);
                let xn = x_norms[i];
                let a = row[0] as usize;
                let d_a = xn + c_norms[a] - 2.0 * row[1];
                comp += 1;
                let u = dist_upper(d_a, err);
                let mut best = 0usize;
                let mut best_d = f64::INFINITY;
                for c in 0..k {
                    let l_dec = decay_lower(row[2 + c], drift[c]);
                    let d;
                    if c == a {
                        d = d_a;
                        row[2 + c] = dist_lower(d_a, err);
                        upd += 1;
                    } else {
                        let mut lb = l_dec;
                        let s_gate = cc[a * k + c] - u;
                        if s_gate > lb {
                            lb = s_gate;
                        }
                        let gate = if best_d < d_a { best_d } else { d_a };
                        if certified_floor(lb, err) > gate {
                            row[2 + c] = l_dec;
                            skip += 1;
                            continue;
                        }
                        d = xn + c_norms[c] - 2.0 * ops::dot(x, centroids.row(c));
                        comp += 1;
                        row[2 + c] = dist_lower(d, err);
                        upd += 1;
                    }
                    if d < best_d {
                        best_d = d;
                        best = c;
                    }
                }
                row[0] = best as f64;
                row[1] = best_d.max(0.0);
            }
            stats.add(comp, skip, upd);
        });
    }

    /// Rebuilds the center–center lower-bound matrix. Bounds are
    /// performance-only, so the factored Khatri-Rao path (sum
    /// aggregator) may compute them any way it likes without touching
    /// the bitwise contract.
    fn rebuild_cc(&mut self, centroids: &Matrix, factors: Option<&[Matrix]>, agg: Aggregator) {
        let k = self.k;
        if let Some(sets) = factors {
            if agg == Aggregator::Sum && self.rebuild_cc_factored(sets) {
                self.stats.add(0, 0, (k * k) as u64);
                return;
            }
        }
        for a in 0..k {
            self.cc[a * k + a] = 0.0;
            for b in (a + 1)..k {
                let lo = cc_lower(ops::sqdist(centroids.row(a), centroids.row(b)));
                self.cc[a * k + b] = lo;
                self.cc[b * k + a] = lo;
            }
        }
        self.stats.add(0, 0, (k * k) as u64);
    }

    /// Factored center–center rebuild for sum-aggregated Khatri-Rao
    /// grids: `‖c_i − c_j‖²` expands over per-factor Gram blocks
    /// `G[(l,a),(l',b)] = ⟨θ_l[a], θ_{l'}[b]⟩`, so the whole matrix
    /// costs O((Σh)²·m + k²·p²) instead of O(k²·m). Accumulation order
    /// is fixed (l-major), and the result carries a generous additive
    /// slack, so the bounds stay certified.
    fn rebuild_cc_factored(&mut self, sets: &[Matrix]) -> bool {
        let k = self.k;
        let m = self.m;
        let p = sets.len();
        if p == 0 {
            return false;
        }
        let scratch = self.exec.scratch().clone();
        let mut offs = scratch.take_usize(p + 1);
        let mut total = 0usize;
        for (l, s) in sets.iter().enumerate() {
            offs[l] = total;
            total += s.nrows();
        }
        offs[p] = total;
        let mut s_bound = 0.0;
        for s in sets.iter() {
            let mut mx = 0.0;
            for r in s.rows_iter() {
                let v = ops::sq_norm(r);
                if v > mx {
                    mx = v;
                }
            }
            s_bound += if mx > 0.0 { mx.sqrt() } else { 0.0 };
        }
        let cc_err =
            (m as f64 + (4 * p * p) as f64 + 64.0) * 2.0_f64.powi(-48) * 4.0 * s_bound * s_bound;
        let mut gram = scratch.take_f64_uninit(total * total);
        for l in 0..p {
            for a in 0..sets[l].nrows() {
                let ia = offs[l] + a;
                for l2 in l..p {
                    for b in 0..sets[l2].nrows() {
                        let ib = offs[l2] + b;
                        if ib < ia {
                            continue;
                        }
                        let g = ops::dot(sets[l].row(a), sets[l2].row(b));
                        gram[ia * total + ib] = g;
                        gram[ib * total + ia] = g;
                    }
                }
            }
        }
        // Mixed-radix digits of every flat index (last digit fastest,
        // matching `CentroidIndexer`).
        let mut tuples = scratch.take_usize(k * p);
        for flat in 0..k {
            let mut f = flat;
            for l in (0..p).rev() {
                let h = sets[l].nrows();
                tuples[flat * p + l] = f % h;
                f /= h;
            }
        }
        for i in 0..k {
            self.cc[i * k + i] = 0.0;
            for j in (i + 1)..k {
                let mut cc_sq = 0.0;
                for l in 0..p {
                    let ia = offs[l] + tuples[i * p + l];
                    let ja = offs[l] + tuples[j * p + l];
                    for l2 in 0..p {
                        let ib = offs[l2] + tuples[i * p + l2];
                        let jb = offs[l2] + tuples[j * p + l2];
                        cc_sq +=
                            gram[ia * total + ib] - gram[ia * total + jb] - gram[ja * total + ib]
                                + gram[ja * total + jb];
                    }
                }
                let lo = dist_lower(cc_sq, cc_err);
                self.cc[i * k + j] = lo;
                self.cc[j * k + i] = lo;
            }
        }
        scratch.put_usize(tuples);
        scratch.put_f64(gram);
        scratch.put_usize(offs);
        true
    }
}

impl AssignEngine {
    /// Assignment over the *implicit* Khatri-Rao grid (the
    /// memory-efficient `KrKMeans` variant): candidates are aggregated
    /// tuple-by-tuple, never materialized. Bitwise identical to
    /// `exhaustive_otf` in every [`PruneMode`].
    ///
    /// Pruning here is the single-bound structure plus a per-candidate
    /// norm gate (`d(x,c) ≥ |‖x‖ − ‖c‖|`): points whose bound certifies
    /// their previous assignment skip the whole tuple sweep; the rest
    /// are norm-gated per candidate against the running best. Drift is
    /// measured per factor set and combined per the aggregator
    /// (triangle inequality for sums, a telescoping product bound for
    /// Hadamard products).
    pub fn assign_otf(
        &mut self,
        data: &Matrix,
        sets: &[Matrix],
        indexer: &CentroidIndexer,
        agg: Aggregator,
        labels: &mut [usize],
        dmin: &mut [f64],
    ) {
        debug_assert_eq!(data.shape(), (self.n, self.m), "begin_fit saw other data");
        let k = indexer.n_centroids();
        let _pass = kr_obs::span!("assign.pass", "k" => k);
        assert!(
            (k as u128) < (1u128 << 53),
            "KR flat centroid index must stay below 2^53 for exact f64 label round-trips"
        );
        if self.exec.prune_mode() == PruneMode::Off {
            exhaustive_otf(
                data,
                sets,
                indexer,
                agg,
                labels,
                dmin,
                &self.exec,
                Some(&self.stats),
            );
            self.ready = false;
            return;
        }
        self.ensure_otf_session(k, sets);
        let scratch = self.exec.scratch().clone();
        let mut mu = scratch.take_f64(self.m);
        if self.ready {
            let delta_max = self.otf_delta_max(sets, agg);
            let radius = {
                let r = if self.max_c_sq > 0.0 {
                    self.max_c_sq.sqrt()
                } else {
                    0.0
                };
                r + delta_max
            };
            let err = kernel_error_bound(self.m, self.max_x_sq, radius * radius);
            self.otf_phase1_decide(data, sets, indexer, agg, delta_max, err, &mut mu, &scratch);
            self.otf_scan(data, sets, indexer, agg, err, &mut mu);
            self.otf_finalize(err);
        } else {
            for row in self.state.chunks_exact_mut(OTF_STRIDE) {
                row[0] = f64::INFINITY; // running best (clamped)
                row[1] = 0.0; // label
                row[2] = f64::INFINITY; // runner-up
                row[3] = f64::INFINITY; // min lower bound over skipped
                row[4] = 0.0; // lower bound (filled by finalize)
                row[5] = f64::INFINITY; // distance to previous label
                row[6] = 0.0; // decided flag
                row[7] = -1.0; // previous label (none)
            }
            // err is unknown before the first sweep (it needs the max
            // candidate norm); INFINITY disables every gate, making the
            // init sweep exhaustive while it measures and seeds bounds.
            self.otf_scan(data, sets, indexer, agg, f64::INFINITY, &mut mu);
            let err = kernel_error_bound(self.m, self.max_x_sq, self.max_c_sq);
            self.otf_finalize(err);
            self.ready = true;
        }
        self.snapshot_sets(sets);
        for (i, row) in self.state.chunks_exact(OTF_STRIDE).enumerate() {
            dmin[i] = row[0];
            labels[i] = row[1] as usize;
        }
        scratch.put_f64(mu);
    }

    fn ensure_otf_session(&mut self, k: usize, sets: &[Matrix]) {
        let dims_ok = self.prev_sets_dims.len() == sets.len()
            && self
                .prev_sets_dims
                .iter()
                .zip(sets.iter())
                .all(|(d, s)| *d == s.shape());
        if self.session == SessionKind::Otf
            && self.k == k
            && dims_ok
            && self.state.len() == self.n * OTF_STRIDE
        {
            return;
        }
        self.session = SessionKind::Otf;
        self.k = k;
        self.mode = BoundMode::Hamerly;
        self.stride = OTF_STRIDE;
        self.ready = false;
        let scratch = self.exec.scratch().clone();
        resize_buf(&scratch, &mut self.state, self.n * OTF_STRIDE);
        for buf in self.prev_sets.drain(..) {
            scratch.put_f64(buf);
        }
        self.prev_sets_dims.clear();
        for s in sets.iter() {
            let (h, m) = s.shape();
            self.prev_sets.push(scratch.take_f64(h * m));
            self.prev_sets_dims.push((h, m));
        }
    }

    /// Copies the factor sets into the drift snapshot (row by row —
    /// `Matrix` storage may pad rows for alignment).
    fn snapshot_sets(&mut self, sets: &[Matrix]) {
        for (l, s) in sets.iter().enumerate() {
            let (h, m) = self.prev_sets_dims[l];
            let dst = &mut self.prev_sets[l];
            for r in 0..h {
                dst[r * m..(r + 1) * m].copy_from_slice(s.row(r));
            }
        }
    }

    /// Largest row movement of one factor set since the snapshot, as a
    /// certified true-distance upper bound.
    fn factor_max_move(&self, l: usize, s: &Matrix) -> f64 {
        let (h, m) = self.prev_sets_dims[l];
        let prev = &self.prev_sets[l];
        let mut mx = 0.0;
        for r in 0..h {
            let d = ops::sqdist(&prev[r * m..(r + 1) * m], s.row(r));
            if d > mx {
                mx = d;
            }
        }
        drift_upper(mx)
    }

    /// Upper bound on how far *any* aggregated centroid moved since the
    /// snapshot, combined from per-factor movement. Sum: plain triangle
    /// inequality. Product: telescoping `∏new − ∏old`, each term padded
    /// by the max-abs of the other factors (old and new).
    fn otf_delta_max(&self, sets: &[Matrix], agg: Aggregator) -> f64 {
        let p = sets.len();
        let mut total = 0.0;
        match agg {
            Aggregator::Sum => {
                for (l, s) in sets.iter().enumerate() {
                    total += self.factor_max_move(l, s);
                }
            }
            Aggregator::Product => {
                let scratch = self.exec.scratch().clone();
                let mut maxabs = scratch.take_f64(p);
                for l in 0..p {
                    let mut ma = sets[l].max_abs();
                    for &v in self.prev_sets[l].iter() {
                        if v.abs() > ma {
                            ma = v.abs();
                        }
                    }
                    maxabs[l] = ma;
                }
                for (l, s) in sets.iter().enumerate() {
                    let mut coef = 1.0;
                    for (l2, &ma) in maxabs.iter().enumerate() {
                        if l2 != l {
                            coef *= ma;
                        }
                    }
                    total += coef * self.factor_max_move(l, s);
                }
                scratch.put_f64(maxabs);
            }
        }
        total * (1.0 + 1e-9)
    }

    /// Serial pre-pass: one exact distance per point (to its previous
    /// candidate, aggregated once per occupied label via a counting
    /// sort), deciding which points are certified before the tuple
    /// sweep. Exactly mirrors the on-the-fly kernel expression — the
    /// per-candidate clamp included — so the value doubles as the
    /// exhaustive result for decided points.
    #[allow(clippy::too_many_arguments)]
    fn otf_phase1_decide(
        &mut self,
        data: &Matrix,
        sets: &[Matrix],
        indexer: &CentroidIndexer,
        agg: Aggregator,
        delta_max: f64,
        err: f64,
        mu: &mut [f64],
        scratch: &Scratch,
    ) {
        let n = self.n;
        let k = self.k;
        let p = indexer.n_sets();
        let mut starts = scratch.take_usize(k + 1);
        for row in self.state.chunks_exact(OTF_STRIDE) {
            starts[row[1] as usize + 1] += 1;
        }
        for c in 0..k {
            starts[c + 1] += starts[c];
        }
        let mut order = scratch.take_usize(n);
        let mut cursor = scratch.take_usize(k);
        for (i, row) in self.state.chunks_exact(OTF_STRIDE).enumerate() {
            let a = row[1] as usize;
            order[starts[a] + cursor[a]] = i;
            cursor[a] += 1;
        }
        let mut tuple = scratch.take_usize(p);
        let state = &mut self.state;
        let x_norms = &self.x_norms;
        let mut comp = 0u64;
        let mut skip = 0u64;
        for a in 0..k {
            let (s, e) = (starts[a], starts[a + 1]);
            if s == e {
                continue;
            }
            indexer.to_tuple_into(a, &mut tuple);
            aggregate_tuple_into(mu, sets, &tuple, agg);
            let mu_norm = ops::sq_norm(mu);
            for &i in &order[s..e] {
                let row = &mut state[i * OTF_STRIDE..(i + 1) * OTF_STRIDE];
                let x = data.row(i);
                let d_a = (x_norms[i] + mu_norm - 2.0 * ops::dot(x, mu)).max(0.0);
                comp += 1;
                let l = decay_lower(row[4], delta_max);
                row[4] = l;
                row[5] = d_a;
                row[7] = a as f64;
                if certified_floor(l, err) > d_a {
                    row[0] = d_a;
                    row[1] = a as f64;
                    row[6] = 1.0;
                    skip += k as u64 - 1;
                } else {
                    row[0] = f64::INFINITY;
                    row[1] = 0.0;
                    row[2] = f64::INFINITY;
                    row[3] = f64::INFINITY;
                    row[6] = 0.0;
                }
            }
        }
        self.stats.add(comp, skip, 0);
        scratch.put_usize(tuple);
        scratch.put_usize(cursor);
        scratch.put_usize(order);
        scratch.put_usize(starts);
    }

    /// The tuple sweep: aggregates every candidate once (as the
    /// exhaustive path must), then updates only undecided points, each
    /// either norm-gated against its running best or evaluated with the
    /// exact kernel expression — reusing the phase-1 bits when the
    /// candidate *is* the previous assignment.
    fn otf_scan(
        &mut self,
        data: &Matrix,
        sets: &[Matrix],
        indexer: &CentroidIndexer,
        agg: Aggregator,
        err: f64,
        mu: &mut [f64],
    ) {
        let m = self.m;
        let x_norms = &self.x_norms;
        let x_lo = &self.x_lo;
        let x_hi = &self.x_hi;
        let stats = &self.stats;
        let exec = &self.exec;
        let state = &mut self.state;
        let mut max_mu = 0.0;
        indexer.for_each_tuple(|flat, tuple| {
            aggregate_tuple_into(mu, sets, tuple, agg);
            let mu_norm = ops::sq_norm(mu);
            if mu_norm > max_mu {
                max_mu = mu_norm;
            }
            let mu_lo = norm_lower(mu_norm, m);
            let mu_hi = norm_upper(mu_norm, m);
            let flat_f = flat as f64;
            let mu_ref: &[f64] = mu;
            parallel::map_rows_into(exec, state, OTF_STRIDE, 1, |start, chunk| {
                let mut comp = 0u64;
                let mut skip = 0u64;
                for (off, row) in chunk.chunks_exact_mut(OTF_STRIDE).enumerate() {
                    if row[6] != 0.0 {
                        continue;
                    }
                    let i = start + off;
                    let d;
                    if row[7] == flat_f {
                        // The previous assignment: phase 1 computed this
                        // exact expression already — same bits.
                        d = row[5];
                    } else {
                        let cur = row[0];
                        let d_prev = row[5];
                        let gate = if cur < d_prev { cur } else { d_prev };
                        let mut lb = x_lo[i] - mu_hi;
                        let alt = mu_lo - x_hi[i];
                        if alt > lb {
                            lb = alt;
                        }
                        if certified_floor(lb, err) > gate {
                            if lb < row[3] {
                                row[3] = lb;
                            }
                            skip += 1;
                            continue;
                        }
                        d = (x_norms[i] + mu_norm - 2.0 * ops::dot(data.row(i), mu_ref)).max(0.0);
                        comp += 1;
                    }
                    if d < row[0] {
                        row[2] = row[0];
                        row[0] = d;
                        row[1] = flat_f;
                    } else if d < row[2] {
                        row[2] = d;
                    }
                }
                stats.add(comp, skip, 0);
            });
        });
        self.max_c_sq = max_mu;
    }

    /// Re-tightens the per-point lower bound after a sweep: the minimum
    /// of the runner-up's certified distance and the smallest lower
    /// bound among norm-gated candidates — both valid on every
    /// non-winning candidate, so their min bounds all of them.
    fn otf_finalize(&mut self, err: f64) {
        let mut upd = 0u64;
        for row in self.state.chunks_exact_mut(OTF_STRIDE) {
            if row[6] != 0.0 {
                continue;
            }
            let lr = dist_lower(row[2], err);
            row[4] = if row[3] < lr { row[3] } else { lr };
            upd += 1;
        }
        self.stats.add(0, 0, upd);
    }
}

impl Drop for AssignEngine {
    fn drop(&mut self) {
        let scratch = self.exec.scratch().clone();
        scratch.put_f64(std::mem::take(&mut self.x_norms));
        scratch.put_f64(std::mem::take(&mut self.x_lo));
        scratch.put_f64(std::mem::take(&mut self.x_hi));
        scratch.put_f64(std::mem::take(&mut self.state));
        scratch.put_f64(std::mem::take(&mut self.prev));
        scratch.put_f64(std::mem::take(&mut self.drift));
        scratch.put_f64(std::mem::take(&mut self.cc));
        for buf in self.prev_sets.drain(..) {
            scratch.put_f64(buf);
        }
    }
}

/// Stores in slot 1 of every state row of `rows` (width `stride`, the
/// previous label in slot 0) the dot of its point (`first..`) with that
/// label's centroid — each point's exact evaluation against its previous
/// assignment — four points at a time through [`ops::dot4`]; every value
/// is bitwise `ops::dot`. Slot 1 is the point's `dmin`, which every
/// bounded pass overwrites once it has read the dot.
fn own_dots_into(data: &Matrix, centroids: &Matrix, first: usize, rows: &mut [f64], stride: usize) {
    let n = rows.len() / stride;
    let label = |rows: &[f64], q: usize| rows[q * stride] as usize;
    let mut q = 0;
    while q + 4 <= n {
        let xs = [0, 1, 2, 3].map(|r| data.row(first + q + r));
        let cs = [0, 1, 2, 3].map(|r| centroids.row(label(rows, q + r)));
        for (r, dot) in ops::dot4(xs, cs).into_iter().enumerate() {
            rows[(q + r) * stride + 1] = dot;
        }
        q += 4;
    }
    for q in q..n {
        rows[q * stride + 1] = ops::dot(data.row(first + q), centroids.row(label(rows, q)));
    }
}

/// One point's full-scan result.
struct ScanOut {
    best: usize,
    best_d: f64,
    /// A floor under the kernel value of every candidate but `best`.
    runner: f64,
    comp: u64,
    skip: u64,
}

/// The factored filter of a materialized Sum grid (module docs, "Blocked
/// and factored scans"): the grid is `khatri_rao(sets, Sum)`, so a grid
/// row's dot with `x` is, up to the bound `E`, the sum of the
/// protocentroid dots `x·θ_l[t_l]` — Σh dots per point instead of ∏h.
struct SumFilter<'a> {
    sets: &'a [Matrix],
    total_h: usize,
    max_c_sq: f64,
    /// Bounds every grid-row norm and `Σ_l max_a ‖θ_l[a]‖`.
    norm_b: f64,
}

impl<'a> SumFilter<'a> {
    /// The filter for a `k`-row grid over `sets`, or `None` when it does
    /// not apply or would not save dots: fewer than two sets, sets that
    /// do not span the grid, or `Σh ≥ k`.
    fn new(sets: &'a [Matrix], k: usize, m: usize, max_c_sq: f64) -> Option<Self> {
        let mut total_h = 0usize;
        let mut rows = 1usize;
        let mut theta = 0.0;
        for s in sets {
            if s.ncols() != m {
                return None;
            }
            total_h += s.nrows();
            rows = rows.saturating_mul(s.nrows());
            let mut mx = 0.0;
            for r in s.rows_iter() {
                let v = ops::sq_norm(r);
                if v > mx {
                    mx = v;
                }
            }
            theta += norm_upper(mx, m);
        }
        if sets.len() < 2 || rows != k || total_h >= k {
            return None;
        }
        let c = norm_upper(max_c_sq, m);
        Some(SumFilter {
            sets,
            total_h,
            max_c_sq,
            norm_b: if c > theta { c } else { theta },
        })
    }
}

/// Inputs shared by every full nearest-centroid scan of one pass: the
/// candidates, their squared norms, the kernel error bound `err` that
/// turns computed values into true-distance bounds, and the factored
/// filter when the candidates are a materialized Sum grid.
struct FullScan<'a> {
    centroids: &'a Matrix,
    c_norms: &'a [f64],
    err: f64,
    filter: Option<SumFilter<'a>>,
}

impl FullScan<'_> {
    /// Length of the per-chunk work buffer [`FullScan::scan`] needs.
    fn buf_len(&self) -> usize {
        self.centroids.nrows() + self.filter.as_ref().map_or(0, |f| f.total_h)
    }

    /// Nearest candidate of `x` with the exhaustive scan's strict-`<`
    /// ascending argmin and its exact kernel value. `own` is the label
    /// and already-computed dot of the previous assignment (its value is
    /// reused, not recomputed). With `lower`, every candidate's
    /// true-distance lower bound is written there (Elkan's init).
    fn scan(
        &self,
        x: &[f64],
        xn: f64,
        x_hi: f64,
        own: Option<(usize, f64)>,
        buf: &mut [f64],
        mut lower: Option<&mut [f64]>,
    ) -> ScanOut {
        if let Some(f) = &self.filter {
            if let Some(out) = self.scan_factored(f, x, xn, x_hi, own, buf, lower.as_deref_mut()) {
                return out;
            }
        }
        self.scan_blocked(x, xn, own, buf, lower)
    }

    /// Every candidate's kernel value, the dots four rows at a time
    /// through [`ops::dot_block`] (bitwise `ops::dot`).
    fn scan_blocked(
        &self,
        x: &[f64],
        xn: f64,
        own: Option<(usize, f64)>,
        buf: &mut [f64],
        mut lower: Option<&mut [f64]>,
    ) -> ScanOut {
        let (k, m) = self.centroids.shape();
        let cdata = self.centroids.as_slice();
        let dots = &mut buf[..k];
        let mut comp = k as u64;
        match own {
            Some((a, dot_a)) => {
                ops::dot_block(x, cdata, m, 0, &mut dots[..a]);
                ops::dot_block(x, cdata, m, a + 1, &mut dots[a + 1..]);
                dots[a] = dot_a;
                comp -= 1;
            }
            None => ops::dot_block(x, cdata, m, 0, dots),
        }
        let mut best = 0usize;
        let mut best_d = f64::INFINITY;
        let mut runner = f64::INFINITY;
        for (c, &dot) in dots.iter().enumerate() {
            let d = xn + self.c_norms[c] - 2.0 * dot;
            if let Some(l) = lower.as_deref_mut() {
                l[c] = dist_lower(d, self.err);
            }
            if d < best_d {
                runner = best_d;
                best_d = d;
                best = c;
            } else if d < runner {
                runner = d;
            }
        }
        ScanOut {
            best,
            best_d,
            runner,
            comp,
            skip: 0,
        }
    }

    /// The factored filter: scores every grid row from the Σh
    /// protocentroid dots, then evaluates verbatim, in ascending order,
    /// exactly the rows whose score is within `2E` of the best score
    /// (and within `E` of the previous assignment's exact value). Every
    /// other row computes strictly above the exhaustive minimum, so the
    /// argmin, its ties and `dmin` are the exhaustive scan's. `None`
    /// when `E` is not finite (non-finite or overflowing inputs): the
    /// caller falls back to the blocked scan.
    #[allow(clippy::too_many_arguments)]
    fn scan_factored(
        &self,
        f: &SumFilter<'_>,
        x: &[f64],
        xn: f64,
        x_hi: f64,
        own: Option<(usize, f64)>,
        buf: &mut [f64],
        mut lower: Option<&mut [f64]>,
    ) -> Option<ScanOut> {
        let (k, m) = self.centroids.shape();
        let (scores, pdots) = buf.split_at_mut(k);
        let mut off = 0;
        for s in f.sets {
            let h = s.nrows();
            ops::dot_block(x, s.as_slice(), m, 0, &mut pdots[off..off + h]);
            off += h;
        }
        // Σ_l x·θ_l[t_l] for every grid row, expanded set by set in the
        // grid's flat order (last digit fastest). In place: descending
        // `a` reads each `scores[a]` before any block overwrites it.
        let h0 = f.sets[0].nrows();
        scores[..h0].copy_from_slice(&pdots[..h0]);
        let (mut len, mut off) = (h0, h0);
        for s in &f.sets[1..] {
            let h = s.nrows();
            let p_l = &pdots[off..off + h];
            for a in (0..len).rev() {
                let q = scores[a];
                for (slot, &pv) in scores[a * h..(a + 1) * h].iter_mut().zip(p_l) {
                    *slot = q + pv;
                }
            }
            len *= h;
            off += h;
        }
        let mut s_min = f64::INFINITY;
        for (slot, &cn) in scores.iter_mut().zip(self.c_norms) {
            let s = xn + cn - 2.0 * *slot;
            *slot = s;
            if s < s_min {
                s_min = s;
            }
        }
        let e = factored_error_bound(m, f.sets.len(), xn, f.max_c_sq, x_hi, f.norm_b);
        if !(e.is_finite() && s_min < f64::INFINITY) {
            return None;
        }
        let mut thr = s_min + 2.0 * e;
        let own_d = own.map(|(a, dot_a)| (a, xn + self.c_norms[a] - 2.0 * dot_a));
        if let Some((_, d_a)) = own_d {
            if d_a + e < thr {
                thr = d_a + e;
            }
        }
        let (mut comp, mut skip) = (f.total_h as u64, 0u64);
        let mut rejected = f64::INFINITY;
        let mut best = 0usize;
        let mut best_d = f64::INFINITY;
        let mut runner = f64::INFINITY;
        for (c, &s) in scores.iter().enumerate() {
            let d = match own_d {
                Some((a, d_a)) if a == c => d_a,
                _ if s <= thr => {
                    comp += 1;
                    xn + self.c_norms[c] - 2.0 * ops::dot(x, self.centroids.row(c))
                }
                _ => {
                    // Computes at least s − E > the exhaustive minimum.
                    skip += 1;
                    let lb = s - e;
                    if lb < rejected {
                        rejected = lb;
                    }
                    if let Some(l) = lower.as_deref_mut() {
                        l[c] = dist_lower(lb, self.err);
                    }
                    continue;
                }
            };
            if let Some(l) = lower.as_deref_mut() {
                l[c] = dist_lower(d, self.err);
            }
            if d < best_d {
                runner = best_d;
                best_d = d;
                best = c;
            } else if d < runner {
                runner = d;
            }
        }
        Some(ScanOut {
            best,
            best_d,
            runner: if rejected < runner { rejected } else { runner },
            comp,
            skip,
        })
    }
}

/// The exhaustive dense scan — the single reference implementation every
/// caller deduplicates onto (formerly triplicated across `kmeans.rs`,
/// `baselines/weighted.rs`, and the streaming batch path). Chunk-
/// parallel over points; per-point work is independent of the chunk
/// split, so results are identical at any thread count. Each point's
/// dots run four centroids at a time through [`ops::dot_block`], bitwise
/// the one-at-a-time `ops::dot`.
pub(crate) fn exhaustive_dense(
    data: &Matrix,
    centroids: &Matrix,
    labels: &mut [usize],
    dmin: &mut [f64],
    exec: &ExecCtx,
    stats: Option<&SharedStats>,
) {
    full_scan_pass(data, centroids, None, labels, dmin, exec, stats);
}

/// One stateless nearest-candidate pass over a materialized grid
/// `grid = khatri_rao(sets, agg)`, for callers whose points are new on
/// every call (a mini-batch stream), so that no per-point bound would
/// outlive the pass. Under a bounded [`PruneMode`] every point runs the
/// engine's full scan: the factored filter when `agg` is the Sum
/// aggregator and it applies (module docs, "Blocked and factored
/// scans"), otherwise the blocked scan; `PruneMode::Off` runs the
/// exhaustive scan. Labels and `dmin` are bitwise the exhaustive scan's
/// in every mode and at any worker count. Returns the pass's counters.
pub fn scan_grid(
    data: &Matrix,
    grid: &Matrix,
    sets: &[Matrix],
    agg: Aggregator,
    labels: &mut [usize],
    dmin: &mut [f64],
    exec: &ExecCtx,
) -> PruneStats {
    let _pass = kr_obs::span!("assign.pass", "k" => grid.nrows());
    let stats = SharedStats::default();
    let factored = exec.prune_mode() != PruneMode::Off && agg == Aggregator::Sum;
    let sets = if factored { Some(sets) } else { None };
    full_scan_pass(data, grid, sets, labels, dmin, exec, Some(&stats));
    stats.snapshot()
}

/// A full scan of every point of `data` against `centroids`, through the
/// factored filter over `sets` when given and applicable, else blocked.
/// Chunk-parallel; all temporaries come from `exec`'s [`Scratch`] arena:
/// the centroid norms, one work buffer per chunk, and an interleaved
/// `(label, dmin)` buffer of `2n` f64 rows (labels round-trip exactly
/// through f64 below 2^53).
fn full_scan_pass(
    data: &Matrix,
    centroids: &Matrix,
    sets: Option<&[Matrix]>,
    labels: &mut [usize],
    dmin: &mut [f64],
    exec: &ExecCtx,
    stats: Option<&SharedStats>,
) {
    let n = data.nrows();
    let (k, m) = centroids.shape();
    debug_assert_eq!(labels.len(), n);
    debug_assert_eq!(dmin.len(), n);
    debug_assert!(
        (k as u128) < (1u128 << 53),
        "centroid count must stay below 2^53 for exact f64 label round-trips"
    );
    let scratch = exec.scratch();
    let mut c_norms = scratch.take_f64_uninit(0);
    centroids.row_sq_norms_into(&mut c_norms);
    let filter = sets.and_then(|s| {
        let mut max_c = 0.0;
        for &v in c_norms.iter() {
            if v > max_c {
                max_c = v;
            }
        }
        SumFilter::new(s, k, m, max_c)
    });
    // `err` only feeds bound outputs, which a stateless pass discards.
    let scan = FullScan {
        centroids,
        c_norms: &c_norms,
        err: 0.0,
        filter,
    };
    // Width-2 rows, every element written before the read-back below.
    let mut buf = scratch.take_f64_uninit(2 * n);
    parallel::map_rows_into(exec, &mut buf, 2, 1, |start, chunk| {
        let mut work = scratch.take_f64_uninit(scan.buf_len());
        let (mut comp, mut skip) = (0u64, 0u64);
        for (off, out) in chunk.chunks_exact_mut(2).enumerate() {
            let x = data.row(start + off);
            let xn = ops::sq_norm(x);
            let o = scan.scan(x, xn, norm_upper(xn, m), None, &mut work, None);
            out[0] = o.best as f64;
            out[1] = o.best_d.max(0.0);
            comp += o.comp;
            skip += o.skip;
        }
        if let Some(s) = stats {
            s.add(comp, skip, 0);
        }
        scratch.put_f64(work);
    });
    for (i, pair) in buf.chunks_exact(2).enumerate() {
        labels[i] = pair[0] as usize;
        dmin[i] = pair[1];
    }
    scratch.put_f64(buf);
    scratch.put_f64(c_norms);
}

/// The exhaustive on-the-fly scan over the implicit Khatri-Rao grid —
/// the reference every pruned [`AssignEngine::assign_otf`] run must
/// match bitwise. Enumerates all centroid combinations holding one
/// aggregated centroid at a time (Algorithm 1 lines 7-14 of the paper).
///
/// Temporaries — the per-point `(dmin, label)` running state (width-2
/// f64 rows; flat labels round-trip exactly through f64 below 2^53),
/// the point norms, and the single aggregated centroid — all recycle
/// through `exec`'s [`Scratch`] arena across Lloyd iterations.
#[allow(clippy::too_many_arguments)]
pub(crate) fn exhaustive_otf(
    data: &Matrix,
    sets: &[Matrix],
    indexer: &CentroidIndexer,
    agg: Aggregator,
    labels: &mut [usize],
    dmin: &mut [f64],
    exec: &ExecCtx,
    stats: Option<&SharedStats>,
) {
    let n = data.nrows();
    let m = data.ncols();
    // Flat labels ride through the f64 state buffer below; the
    // round-trip is exact only while every label fits in f64's integer
    // range. The KR flat index is the *product* of the set sizes, so
    // unlike a materialized centroid matrix this can overflow 2^53
    // without exhausting memory first — enforce it.
    assert!(
        (indexer.n_centroids() as u128) < (1u128 << 53),
        "KR flat centroid index must stay below 2^53 for exact f64 label round-trips"
    );
    let scratch = exec.scratch();
    let mut x_norms = scratch.take_f64_uninit(0);
    data.row_sq_norms_into(&mut x_norms);
    let mut state = scratch.take_f64_uninit(2 * n);
    for slot in state.chunks_exact_mut(2) {
        slot[0] = f64::INFINITY;
        slot[1] = 0.0;
    }
    let mut mu = scratch.take_f64(m);
    indexer.for_each_tuple(|flat, tuple| {
        aggregate_tuple_into(&mut mu, sets, tuple, agg);
        let mu_norm = ops::sq_norm(&mu);
        let mu_ref = &mu;
        let x_norms_ref = &x_norms;
        parallel::map_rows_into(exec, &mut state, 2, 1, |start, chunk| {
            let mut rows = 0u64;
            for (off, slot) in chunk.chunks_exact_mut(2).enumerate() {
                let i = start + off;
                let d = (x_norms_ref[i] + mu_norm - 2.0 * ops::dot(data.row(i), mu_ref)).max(0.0);
                if d < slot[0] {
                    slot[0] = d;
                    slot[1] = flat as f64;
                }
                rows += 1;
            }
            if let Some(s) = stats {
                s.add(rows, 0, 0);
            }
        });
    });
    for (i, slot) in state.chunks_exact(2).enumerate() {
        dmin[i] = slot[0];
        labels[i] = slot[1] as usize;
    }
    scratch.put_f64(mu);
    scratch.put_f64(state);
    scratch.put_f64(x_norms);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn margins_are_conservative() {
        let err = kernel_error_bound(16, 100.0, 50.0);
        assert!(err > 0.0 && err < 1e-9);
        assert!(dist_lower(4.0, err) <= 2.0);
        assert!(dist_upper(4.0, err) >= 2.0);
        assert!(dist_lower(-1.0, err) == 0.0);
        assert!(decay_lower(3.0, 1.0) <= 2.0);
        assert!(decay_lower(1.0, 5.0) == 0.0);
        // The floor never exceeds what a candidate at distance >= lo
        // can compute: floor <= lo^2 - err.
        let lo = 3.0;
        assert!(certified_floor(lo, err) <= lo * lo - err);
        assert!(certified_floor(-2.0, err) <= 0.0);
        assert!(norm_lower(9.0, 8) <= 3.0);
        assert!(norm_upper(9.0, 8) >= 3.0);
        assert!(cc_lower(25.0) <= 5.0);
        assert!(drift_upper(25.0) >= 5.0);
    }

    #[test]
    fn auto_heuristic_is_pure_and_sized() {
        assert_eq!(auto_mode(10_000, 16, 8), BoundMode::Elkan);
        assert_eq!(auto_mode(10_000, 128, 64), BoundMode::Hamerly); // k > 96
        assert_eq!(auto_mode(100, 64, 64), BoundMode::Hamerly); // k^2 > n
        assert_eq!(auto_mode(10_000, 64, 4), BoundMode::Hamerly); // k > 4m
        for _ in 0..3 {
            assert_eq!(auto_mode(6000, 64, 16), BoundMode::Elkan);
        }
    }

    #[test]
    fn stats_merge_and_ratio() {
        let mut a = PruneStats {
            dists_computed: 10,
            dists_skipped: 30,
            bound_updates: 5,
        };
        a.merge(PruneStats {
            dists_computed: 2,
            dists_skipped: 6,
            bound_updates: 1,
        });
        assert_eq!(a.dists_computed, 12);
        assert_eq!(a.dists_skipped, 36);
        assert_eq!(a.bound_updates, 6);
        assert!((a.skip_ratio() - 0.75).abs() < 1e-12);
        assert_eq!(PruneStats::default().skip_ratio(), 0.0);
    }

    /// Drives a few Lloyd-style iterations with drifting centroids and
    /// checks the pruned engine against the exhaustive scan bitwise, in
    /// both forced modes.
    #[test]
    fn dense_engine_matches_exhaustive_bitwise() {
        let data = Matrix::from_fn(60, 4, |i, j| ((i * 13 + j * 7) % 23) as f64 * 0.21);
        for mode in [PruneMode::Hamerly, PruneMode::Elkan, PruneMode::Auto] {
            let exec = ExecCtx::serial().with_prune_mode(mode);
            let mut engine = AssignEngine::new(&exec);
            engine.begin_fit(&data);
            let mut centroids = Matrix::from_fn(5, 4, |i, j| ((i * 5 + j) % 11) as f64 * 0.4);
            let mut labels = vec![0usize; 60];
            let mut dmin = vec![0.0f64; 60];
            let mut ref_labels = vec![0usize; 60];
            let mut ref_dmin = vec![0.0f64; 60];
            for it in 0..6 {
                engine.assign_dense(&data, &centroids, &mut labels, &mut dmin);
                exhaustive_dense(
                    &data,
                    &centroids,
                    &mut ref_labels,
                    &mut ref_dmin,
                    &exec,
                    None,
                );
                assert_eq!(labels, ref_labels, "mode {mode:?} iter {it}");
                for (i, (a, b)) in dmin.iter().zip(ref_dmin.iter()).enumerate() {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "mode {mode:?} iter {it} point {i}"
                    );
                }
                // Shrink centroids toward their cluster means (drift).
                for c in 0..centroids.nrows() {
                    let mut acc = vec![0.0f64; 4];
                    let mut cnt = 0usize;
                    for (i, &l) in labels.iter().enumerate() {
                        if l == c {
                            ops::add_assign(&mut acc, data.row(i));
                            cnt += 1;
                        }
                    }
                    if cnt > 0 {
                        let inv = 1.0 / cnt as f64;
                        for (cv, &s) in centroids.row_mut(c).iter_mut().zip(acc.iter()) {
                            *cv = 0.5 * *cv + 0.5 * s * inv;
                        }
                    }
                }
            }
            let stats = engine.take_stats();
            assert!(stats.dists_computed > 0);
        }
    }

    #[test]
    fn zero_drift_iterations_skip_everything_after_warmup() {
        let data = Matrix::from_fn(200, 3, |i, j| ((i * 3 + j) % 17) as f64);
        let centroids = Matrix::from_fn(4, 3, |i, j| (i * 4 + j) as f64 * 1.5);
        let exec = ExecCtx::serial().with_prune_mode(PruneMode::Hamerly);
        let mut engine = AssignEngine::new(&exec);
        engine.begin_fit(&data);
        let mut labels = vec![0usize; 200];
        let mut dmin = vec![0.0f64; 200];
        engine.assign_dense(&data, &centroids, &mut labels, &mut dmin);
        let warm = engine.take_stats();
        assert_eq!(warm.dists_computed, 200 * 4);
        // Same centroids again: zero drift, every point certified with
        // one exact evaluation (dmin stays exact by contract).
        engine.assign_dense(&data, &centroids, &mut labels, &mut dmin);
        let still = engine.take_stats();
        assert_eq!(still.dists_computed, 200);
        assert_eq!(still.dists_skipped, 200 * 3);
    }

    #[test]
    fn k_equals_one_never_breaks() {
        let data = Matrix::from_fn(10, 2, |i, j| (i + j) as f64);
        let centroids = Matrix::from_fn(1, 2, |_, j| j as f64 + 3.0);
        for mode in [PruneMode::Hamerly, PruneMode::Elkan] {
            let exec = ExecCtx::serial().with_prune_mode(mode);
            let mut engine = AssignEngine::new(&exec);
            engine.begin_fit(&data);
            let mut labels = vec![9usize; 10];
            let mut dmin = vec![0.0f64; 10];
            for _ in 0..3 {
                engine.assign_dense(&data, &centroids, &mut labels, &mut dmin);
                let mut rl = vec![0usize; 10];
                let mut rd = vec![0.0f64; 10];
                exhaustive_dense(&data, &centroids, &mut rl, &mut rd, &exec, None);
                assert_eq!(labels, rl);
                for (a, b) in dmin.iter().zip(rd.iter()) {
                    assert_eq!(a.to_bits(), b.to_bits());
                }
            }
        }
    }

    #[test]
    fn duplicate_centroids_tie_break_identically() {
        let data = Matrix::from_fn(30, 3, |i, j| ((i + j) % 7) as f64 * 0.9);
        // Rows 1 and 2 are identical: ties must resolve to the lower
        // index exactly as the exhaustive scan does.
        let centroids = Matrix::from_fn(4, 3, |i, j| {
            let r = if i == 2 { 1 } else { i };
            ((r * 3 + j) % 5) as f64
        });
        for mode in [PruneMode::Hamerly, PruneMode::Elkan] {
            let exec = ExecCtx::serial().with_prune_mode(mode);
            let mut engine = AssignEngine::new(&exec);
            engine.begin_fit(&data);
            let mut labels = vec![0usize; 30];
            let mut dmin = vec![0.0f64; 30];
            for _ in 0..4 {
                engine.assign_dense(&data, &centroids, &mut labels, &mut dmin);
                let mut rl = vec![0usize; 30];
                let mut rd = vec![0.0f64; 30];
                exhaustive_dense(&data, &centroids, &mut rl, &mut rd, &exec, None);
                assert_eq!(labels, rl, "mode {mode:?}");
                for (a, b) in dmin.iter().zip(rd.iter()) {
                    assert_eq!(a.to_bits(), b.to_bits());
                }
            }
        }
    }

    /// Drives the on-the-fly KR engine over drifting factor sets and
    /// pins it bitwise to the exhaustive tuple sweep, both aggregators.
    #[test]
    fn otf_engine_matches_exhaustive_bitwise() {
        let n = 40;
        let m = 3;
        let data = Matrix::from_fn(n, m, |i, j| ((i * 11 + j * 5) % 19) as f64 * 0.3);
        for agg in [Aggregator::Sum, Aggregator::Product] {
            let exec = ExecCtx::serial().with_prune_mode(PruneMode::Auto);
            let indexer = CentroidIndexer::new(vec![3, 4]);
            let mut sets = vec![
                Matrix::from_fn(3, m, |i, j| ((i * 2 + j) % 5) as f64 * 0.7 + 0.1),
                Matrix::from_fn(4, m, |i, j| ((i + j * 3) % 7) as f64 * 0.4 + 0.2),
            ];
            let mut engine = AssignEngine::new(&exec);
            engine.begin_fit(&data);
            let mut labels = vec![0usize; n];
            let mut dmin = vec![0.0f64; n];
            let mut rl = vec![0usize; n];
            let mut rd = vec![0.0f64; n];
            for it in 0..5 {
                engine.assign_otf(&data, &sets, &indexer, agg, &mut labels, &mut dmin);
                exhaustive_otf(&data, &sets, &indexer, agg, &mut rl, &mut rd, &exec, None);
                assert_eq!(labels, rl, "agg {agg:?} iter {it}");
                for (i, (a, b)) in dmin.iter().zip(rd.iter()).enumerate() {
                    assert_eq!(a.to_bits(), b.to_bits(), "agg {agg:?} iter {it} point {i}");
                }
                // Small factor drift (iteration 3 keeps everything
                // still: the zero-drift certification path).
                if it != 3 {
                    for s in sets.iter_mut() {
                        for r in 0..s.nrows() {
                            for v in s.row_mut(r).iter_mut() {
                                *v += 0.05;
                            }
                        }
                    }
                }
            }
            let stats = engine.take_stats();
            assert!(stats.dists_computed > 0, "agg {agg:?}");
            assert!(stats.dists_skipped > 0, "agg {agg:?}");
        }
    }

    /// The materialized-grid path with the factored center–center
    /// rebuild (Elkan over a KR sum grid) stays bitwise-exhaustive.
    #[test]
    fn grid_engine_factored_cc_matches_exhaustive() {
        use crate::operator::khatri_rao;
        let n = 50;
        let m = 4;
        let data = Matrix::from_fn(n, m, |i, j| ((i * 7 + j * 3) % 13) as f64 * 0.5);
        let exec = ExecCtx::serial().with_prune_mode(PruneMode::Elkan);
        let mut sets = vec![
            Matrix::from_fn(2, m, |i, j| ((i * 3 + j) % 4) as f64 * 0.8),
            Matrix::from_fn(3, m, |i, j| ((i + j * 2) % 5) as f64 * 0.6),
        ];
        let mut engine = AssignEngine::new(&exec);
        engine.begin_fit(&data);
        let mut labels = vec![0usize; n];
        let mut dmin = vec![0.0f64; n];
        for it in 0..4 {
            let grid = khatri_rao(&sets, Aggregator::Sum).unwrap();
            engine.assign_grid(&data, &grid, &sets, Aggregator::Sum, &mut labels, &mut dmin);
            let mut rl = vec![0usize; n];
            let mut rd = vec![0.0f64; n];
            exhaustive_dense(&data, &grid, &mut rl, &mut rd, &exec, None);
            assert_eq!(labels, rl, "iter {it}");
            for (a, b) in dmin.iter().zip(rd.iter()) {
                assert_eq!(a.to_bits(), b.to_bits(), "iter {it}");
            }
            for s in sets.iter_mut() {
                for r in 0..s.nrows() {
                    for v in s.row_mut(r).iter_mut() {
                        *v = 0.9 * *v + 0.03;
                    }
                }
            }
        }
    }

    /// The stateless grid scan: bitwise the exhaustive scan in every
    /// prune mode and at 1/2/8 threads, over drifting factor sets with a
    /// duplicated protocentroid (ties), for both aggregators. Under the
    /// bounded modes the Sum grid runs the factored filter — Σh dots plus
    /// the verbatim re-evaluations per point, the rest rejected — and the
    /// Product grid the blocked scan.
    #[test]
    fn scan_grid_matches_exhaustive_bitwise() {
        use crate::operator::khatri_rao;
        let (n, m) = (70, 3);
        let data = Matrix::from_fn(n, m, |i, j| ((i * 5 + j * 2) % 21) as f64 * 0.4);
        for agg in [Aggregator::Sum, Aggregator::Product] {
            let mut sets = vec![
                Matrix::from_fn(3, m, |i, j| ((i * 3 + j) % 5) as f64 * 1.3),
                Matrix::from_fn(4, m, |i, j| {
                    let r = if i == 3 { 1 } else { i };
                    ((r + j * 2) % 4) as f64 * 0.7 + 0.1
                }),
            ];
            for it in 0..4 {
                let grid = khatri_rao(&sets, agg).unwrap();
                let k = grid.nrows();
                let mut rl = vec![0usize; n];
                let mut rd = vec![0.0f64; n];
                exhaustive_dense(&data, &grid, &mut rl, &mut rd, &ExecCtx::serial(), None);
                for mode in [
                    PruneMode::Off,
                    PruneMode::Auto,
                    PruneMode::Hamerly,
                    PruneMode::Elkan,
                ] {
                    for threads in [1usize, 2, 8] {
                        let exec = ExecCtx::threaded(threads).with_prune_mode(mode);
                        let mut labels = vec![0usize; n];
                        let mut dmin = vec![0.0f64; n];
                        let stats =
                            scan_grid(&data, &grid, &sets, agg, &mut labels, &mut dmin, &exec);
                        let at = format!("agg {agg:?} iter {it} mode {mode:?} threads {threads}");
                        assert_eq!(labels, rl, "{at}");
                        for (a, b) in dmin.iter().zip(rd.iter()) {
                            assert_eq!(a.to_bits(), b.to_bits(), "{at}");
                        }
                        let total = stats.dists_computed + stats.dists_skipped;
                        if agg == Aggregator::Sum && mode != PruneMode::Off {
                            assert_eq!(total, (n * (k + 7)) as u64, "{at}");
                            assert!(stats.dists_skipped > 0, "{at}");
                        } else {
                            assert_eq!(stats.dists_computed, (n * k) as u64, "{at}");
                            assert_eq!(stats.dists_skipped, 0, "{at}");
                        }
                    }
                }
                for s in sets.iter_mut() {
                    for r in 0..s.nrows() {
                        for v in s.row_mut(r).iter_mut() {
                            *v = 0.9 * *v + 0.05 * it as f64;
                        }
                    }
                }
            }
        }
    }
}
