//! Runs every workload at its tiny size, untraced and traced, under a
//! seed the benchmark never uses for tuning or claims: every output
//! check must pass and each mode must report exactly its metric list,
//! which must match `BENCHMARK.json`.

use kr_e2ebench::{run, Size, Workload, E2E_METRICS, LAYER_METRICS};

/// Held out: not used while tuning the benchmark or backing a claim.
const HELD_OUT_SEED: u64 = 90_210;

fn section<'a>(json: &'a str, key: &str) -> &'a str {
    let start = json.find(&format!("\"{key}\"")).expect("section present");
    let rest = &json[start..];
    let end = rest.find(']').expect("section is a list");
    &rest[..end]
}

#[test]
fn every_workload_passes_its_checks_at_tiny_size() {
    let manifest = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(manifest).expect("BENCHMARK.json beside the benchmark");
    for (key, list) in [
        ("end_to_end", &E2E_METRICS[..]),
        ("per_layer", &LAYER_METRICS[..]),
    ] {
        let sec = section(&json, key);
        assert_eq!(sec.matches("\"name\"").count(), list.len(), "{key} length");
        for (name, unit) in list {
            assert!(
                sec.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
                "{key}: {name}"
            );
        }
    }
    for w in Workload::ALL {
        assert!(
            json.contains(&format!("\"name\": \"{}\"", w.name())),
            "{}",
            w.name()
        );
        for (traced, list) in [(false, &E2E_METRICS[..]), (true, &LAYER_METRICS[..])] {
            let r = run(w, HELD_OUT_SEED, 0.0, traced, Size::Tiny, None);
            assert_eq!(
                r.failed,
                0,
                "{} traced={traced}: {:?}",
                w.name(),
                r.problems
            );
            assert!(r.attempted > 0);
            let names: Vec<&str> = r.metrics.iter().map(|m| m.name).collect();
            let want: Vec<&str> = list.iter().map(|(n, _)| *n).collect();
            assert_eq!(names, want, "{} traced={traced}", w.name());
            for m in &r.metrics {
                assert!(m.value.is_finite(), "{} {} = {}", w.name(), m.name, m.value);
            }
        }
    }
}
