//! Self-test: a smoke-size run of every workload, untraced and traced,
//! emits every metric `BENCHMARK.json` names as a finite number, and
//! the same seed generates the same inputs.

use perfbench::inputs::{self, Scale};
use perfbench::{Options, Workload};
use std::path::PathBuf;

/// Metric names `BENCHMARK.json` lists under `key`.
fn listed(key: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    let doc: serde::Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    let serde::Value::Object(doc) = doc else {
        panic!("BENCHMARK.json is not an object");
    };
    let Some(serde::Value::Array(metrics)) = doc.get(key) else {
        panic!("BENCHMARK.json has no {key} list");
    };
    metrics
        .iter()
        .map(|m| match m {
            serde::Value::Object(m) => match m.get("name") {
                Some(serde::Value::String(name)) => name.clone(),
                _ => panic!("a {key} entry has no name"),
            },
            _ => panic!("a {key} entry is not an object"),
        })
        .collect()
}

fn smoke(workload: Workload, trace: bool) -> Options {
    Options {
        workload,
        seed: 3,
        seconds: 0.4,
        trace,
        scale: Scale::SMOKE,
        work_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("perfbench-selftest"),
    }
}

// One test drives every workload in turn: the daemon's metrics registry
// is process-global, so concurrent runs would see each other's counters.
#[test]
fn every_workload_emits_every_listed_metric() {
    for (key, trace) in [("end_to_end", false), ("per_layer", true)] {
        let names = listed(key);
        assert!(!names.is_empty());
        for workload in Workload::ALL {
            let outcome = perfbench::run(&smoke(workload, trace))
                .unwrap_or_else(|e| panic!("{} failed: {e}", workload.name()));
            assert!(
                outcome.violations.is_empty(),
                "{}: {:?}",
                workload.name(),
                outcome.violations
            );
            assert!(outcome.attempted > 0);
            let emitted: Vec<&str> = outcome.metrics.iter().map(|m| m.name).collect();
            assert_eq!(emitted, names, "{} {key}", workload.name());
            for m in &outcome.metrics {
                assert!(
                    m.value.is_finite(),
                    "{} {}: {}",
                    workload.name(),
                    m.name,
                    m.value
                );
            }
        }
    }
}

/// Everything about session `index` that reaches the daemon or the
/// objective, as comparable text.
fn session_inputs(workload: Workload, seed: u64, index: usize) -> String {
    let s = inputs::session(workload, seed, index, &Scale::FULL);
    format!(
        "{} {} {:?} {:?} {:?} {:?} {:?}",
        s.label,
        s.rsl,
        s.characteristics,
        s.budget,
        s.engine,
        s.optimum,
        s.mix.frequencies()
    )
}

#[test]
fn the_same_seed_generates_the_same_inputs() {
    let prior = |seed| {
        let db = inputs::prior_experience(Workload::WarmStart, seed, &Scale::SMOKE);
        serde_json::to_string(&db).expect("db serializes")
    };
    assert_eq!(prior(11), prior(11));
    assert_ne!(prior(11), prior(12));
    for workload in Workload::ALL {
        for index in 0..6 {
            assert_eq!(
                session_inputs(workload, 11, index),
                session_inputs(workload, 11, index)
            );
            assert_ne!(
                session_inputs(workload, 11, index),
                session_inputs(workload, 12, index)
            );
        }
    }
}
