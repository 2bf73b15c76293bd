//! In-memory span recorder for the traced runs.
//!
//! Spans are taken around the benchmark's own calls into each layer's
//! public functions; the library itself is not instrumented. Every span
//! carries its job number (the identifier all spans of one job share),
//! the recording thread, and start/end offsets from the tracer's epoch.
//! Spans stay in memory until [`Tracer::write_jsonl`] writes them out at
//! the end of the run.

use std::io::Write;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer span name (`"assign"`, `"wire.encode"`, …).
    pub name: &'static str,
    /// The job this span belongs to; its parent is that job's `"job"`
    /// span.
    pub job: u32,
    /// Small per-process thread number.
    pub thread: u32,
    /// Start, in nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer's epoch.
    pub end_ns: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Shared span sink (cheap enough to lock once per span).
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    job: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

fn thread_number() -> u32 {
    static NEXT: AtomicU32 = AtomicU32::new(0);
    thread_local! {
        static ME: u32 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    ME.with(|me| *me)
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            job: AtomicU32::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Starts job `job`: later spans are tagged with it.
    pub fn set_job(&self, job: u32) {
        self.job.store(job, Ordering::Relaxed);
    }

    /// The job later spans are tagged with.
    pub fn job(&self) -> u32 {
        self.job.load(Ordering::Relaxed)
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        let span = Span {
            name,
            job: self.job.load(Ordering::Relaxed),
            thread: thread_number(),
            start_ns,
            end_ns,
        };
        self.spans.lock().expect("span sink poisoned").push(span);
        out
    }

    /// Spans recorded for `job`.
    pub fn job_spans(&self, job: u32) -> Vec<Span> {
        let spans = self.spans.lock().expect("span sink poisoned");
        spans.iter().filter(|s| s.job == job).copied().collect()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let spans = self.spans.lock().expect("span sink poisoned");
        for s in spans.iter() {
            let parent = if s.name == "job" { "null" } else { "\"job\"" };
            writeln!(
                out,
                "{{\"job\":{},\"name\":\"{}\",\"parent\":{},\"thread\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.job, s.name, parent, s.thread, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Total seconds of the spans named `name`.
pub fn total(spans: &[Span], name: &str) -> f64 {
    // Adding 0.0 turns the empty sum's -0.0 into 0.0.
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::secs)
        .sum::<f64>()
        + 0.0
}

/// Seconds covered by the union of the spans `keep` selects, across
/// every thread (overlapping intervals count once).
pub fn union_secs(spans: &[Span], keep: impl Fn(&Span) -> bool) -> f64 {
    let mut iv: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| keep(s))
        .map(|s| (s.start_ns, s.end_ns))
        .collect();
    iv.sort_unstable();
    let mut covered = 0u64;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in iv {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                covered += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        covered += ce - cs;
    }
    covered as f64 * 1e-9
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: "x",
            job: 0,
            thread: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn union_counts_overlap_once() {
        let spans = [span(0, 10), span(5, 20), span(30, 40)];
        let secs = union_secs(&spans, |_| true);
        assert!((secs - 30e-9).abs() < 1e-15);
    }
}
