//! Every workload at tiny scale, untraced and traced: every metric
//! `BENCHMARK.json` names is emitted with its unit, and every gate holds.

use perfbench::inputs::Scale;
use perfbench::workloads::WORKLOADS;
use perfbench::Args;
use std::path::Path;

/// `(name, unit)` of every entry of the `key` array in BENCHMARK.json.
fn catalogue(key: &str) -> Vec<(String, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("read BENCHMARK.json");
    let start = json
        .find(&format!("\"{key}\": ["))
        .expect("section present");
    let body = &json[start..start + json[start..].find(']').expect("section closes")];
    let field = |entry: &str, name: &str| {
        let at = entry
            .find(&format!("\"{name}\": \""))
            .expect("field present")
            + name.len()
            + 5;
        entry[at..at + entry[at..].find('"').expect("string closes")].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|entry| (field(entry, "name"), field(entry, "unit")))
        .collect()
}

fn run(workload: &str, trace: bool) {
    let args = Args {
        workload: workload.to_string(),
        seed: if trace { 8 } else { 7 },
        seconds: 0.0,
        trace,
        scale: Scale::Tiny,
    };
    let outcome = perfbench::run(&args, Path::new(env!("CARGO_TARGET_TMPDIR")));
    assert!(
        outcome.correct(),
        "{workload} (trace {trace}) failed: {:?}",
        outcome.failures
    );
    let rendered = outcome.render(trace);
    let result = rendered.lines().last().expect("a result line");
    assert!(
        result.starts_with("{\"correct\": true, \"attempted\": "),
        "{result}"
    );
    let section = if trace { "per_layer" } else { "end_to_end" };
    let expected = catalogue(section);
    assert!(!expected.is_empty());
    for (name, unit) in expected {
        let value = format!("\"{name}\": {{\"value\": ");
        let at = result
            .find(&value)
            .unwrap_or_else(|| panic!("{workload}: `{name}` missing"));
        let rest = &result[at + value.len()..];
        let unit_field = format!(", \"unit\": \"{unit}\"}}");
        let number = &rest[..rest
            .find(&unit_field)
            .unwrap_or_else(|| panic!("{workload}: `{name}` lacks unit {unit}"))];
        number
            .parse::<f64>()
            .unwrap_or_else(|e| panic!("{workload}: `{name}` = {number}: {e}"));
    }
}

#[test]
fn rc_serve_emits_every_metric() {
    run(WORKLOADS[0], false);
    run(WORKLOADS[0], true);
}

#[test]
fn er_apply_emits_every_metric() {
    run(WORKLOADS[1], false);
    run(WORKLOADS[1], true);
}
