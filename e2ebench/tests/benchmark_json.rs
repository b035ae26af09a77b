//! `BENCHMARK.json` at the repository root lists exactly the metrics the
//! benchmark prints.

use e2ebench::{END_TO_END, PER_LAYER};
use std::collections::BTreeSet;

fn names(json: &str, section: &str) -> BTreeSet<String> {
    let start = json
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"));
    let body = &json[start..];
    let end = body.find(']').expect("section closes");
    body[..end]
        .split("\"name\": \"")
        .skip(1)
        .map(|s| s.split('"').next().expect("quoted name").to_string())
        .collect()
}

#[test]
fn benchmark_json_matches_the_printed_metrics() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let want = |xs: &[&str]| xs.iter().map(|s| s.to_string()).collect::<BTreeSet<_>>();
    assert_eq!(names(&json, "end_to_end"), want(&END_TO_END));
    assert_eq!(names(&json, "per_layer"), want(&PER_LAYER));
    assert_eq!(
        names(&json, "workloads"),
        want(&["user-jit", "transparent-jit", "fleet-persist"])
    );
}
