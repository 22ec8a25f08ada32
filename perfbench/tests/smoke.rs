//! A tiny run of every workload, untraced and traced, must answer every
//! question correctly and print every metric `BENCHMARK.json` names, with
//! its unit.

use iis_obs::Json;
use std::process::Command;

/// The metric names and units `BENCHMARK.json` lists under `section`.
fn declared(spec: &Json, section: &str) -> Vec<(String, String)> {
    spec.get(section)
        .and_then(Json::as_array)
        .expect("BENCHMARK.json lists the section")
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn every_workload_prints_every_metric_with_its_unit() {
    let spec_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let spec = Json::parse(&std::fs::read_to_string(spec_path).expect("BENCHMARK.json"))
        .expect("BENCHMARK.json is JSON");
    let workloads: Vec<String> = spec
        .get("workloads")
        .and_then(Json::as_array)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Json::as_str)
                .expect("workload name")
                .to_string()
        })
        .collect();
    assert_eq!(workloads, ["warm_zipf", "warm_batch", "cold_unique"]);
    // runs happen one at a time: each launches its own fleet
    for workload in &workloads {
        for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
            let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
                .args([
                    "--workload",
                    workload,
                    "--seed",
                    "3",
                    "--seconds",
                    "0",
                    "--trace",
                    trace,
                ])
                .current_dir(env!("CARGO_TARGET_TMPDIR"))
                .output()
                .expect("run perfbench");
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(
                out.status.success(),
                "{workload} trace {trace}: {}\n{stdout}",
                String::from_utf8_lossy(&out.stderr)
            );
            let last = Json::parse(stdout.lines().last().expect("a result line")).expect("JSON");
            assert_eq!(last.get("correct"), Some(&Json::Bool(true)));
            assert_eq!(last.get("failed").and_then(Json::as_u64), Some(0));
            assert!(last.get("attempted").and_then(Json::as_u64).unwrap_or(0) >= 1);
            let metrics = last
                .get("metrics")
                .and_then(Json::as_object)
                .expect("metrics");
            let names: Vec<&str> = metrics.iter().map(|(n, _)| n.as_str()).collect();
            let want = declared(&spec, section);
            assert_eq!(
                names,
                want.iter().map(|(n, _)| n.as_str()).collect::<Vec<_>>()
            );
            for ((_, m), (name, unit)) in metrics.iter().zip(&want) {
                assert_eq!(
                    m.get("unit").and_then(Json::as_str),
                    Some(unit.as_str()),
                    "{name}"
                );
                assert!(
                    m.get("value")
                        .and_then(Json::as_f64)
                        .is_some_and(f64::is_finite),
                    "{name}"
                );
            }
        }
    }
}
