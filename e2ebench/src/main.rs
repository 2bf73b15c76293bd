//! Benchmark command.
//!
//! ```text
//! kr-e2ebench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a table of every figure (name, value, unit, sample count),
//! then, as the last line, one JSON object with `correct`, `attempted`,
//! `failed` and the mode's `metrics`. Exits 1 when any output check
//! failed, 2 on a usage error.

use kr_e2ebench::{run, Report, Size, Workload};
use std::path::PathBuf;
use std::process::ExitCode;

kr_bench::install_counting_allocator!();

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workloads, mut seed, mut seconds, mut trace) = (None, None, None, false);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if value == "all" => workloads = Some(Workload::ALL.to_vec()),
            "--workload" => {
                let w =
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?;
                workloads = Some(vec![w]);
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(format!("bad seconds {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workloads: workloads.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace,
    })
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// Prints the table and the JSON line; true when every check passed and
/// every metric is a number.
fn print(report: &Report) -> bool {
    let name = report.workload.name();
    for m in report.metrics.iter().chain(&report.details) {
        println!(
            "{name:<17} {:<22} {:>16} {:<9} n={}",
            m.name,
            format!("{:.6}", m.value),
            m.unit,
            m.samples
        );
    }
    for p in &report.problems {
        println!("{name:<17} FAILED: {p}");
    }
    let finite = report.metrics.iter().all(|m| m.value.is_finite());
    let correct = report.failed == 0 && finite;
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted,
        report.failed,
        metrics.join(", ")
    );
    correct
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("usage: kr-e2ebench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>\n{e}");
            return ExitCode::from(2);
        }
    };
    let mut ok = true;
    for w in args.workloads {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("spans-{}-{}.jsonl", w.name(), args.seed));
        let report = run(
            w,
            args.seed,
            args.seconds,
            args.trace,
            Size::Full,
            Some(&path),
        );
        ok &= print(&report);
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
