//! Runs `benchrun --all --smoke` twice with one seed and checks what a
//! later change relies on: every workload reports every metric that
//! `BENCHMARK.json` names, under that name and unit; exact counts repeat
//! bit for bit; nothing fails.
//!
//! `cargo test --manifest-path benchrun/Cargo.toml` runs it; the repo's own
//! `cargo test` does not reach this package.

use std::collections::BTreeSet;
use std::process::Command;

use benchrun::json::Json;
use benchrun::spec;

fn spec_document() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json is readable"))
        .expect("BENCHMARK.json parses")
}

fn run_all(seed: u64) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_benchrun"))
        .args([
            "--all",
            "--smoke",
            "--seconds",
            "0.3",
            "--seed",
            &seed.to_string(),
        ])
        .output()
        .expect("benchrun starts");
    assert!(
        out.status.success(),
        "benchrun --all --smoke failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    Json::parse(stdout.lines().last().expect("a result document")).expect("the document parses")
}

fn names(list: &Json) -> Vec<(String, String)> {
    list.items()
        .iter()
        .map(|m| {
            let text = |key| {
                m.get(key)
                    .and_then(Json::as_str)
                    .expect("a string")
                    .to_string()
            };
            (text("name"), text("unit"))
        })
        .collect()
}

#[test]
fn benchmark_json_and_the_binary_agree_on_names_and_units() {
    let doc = spec_document();
    let workloads: Vec<String> = names_only(doc.get("workloads").expect("workloads"));
    assert_eq!(workloads, spec::WORKLOADS);
    let end_to_end: Vec<(String, String)> = spec::END_TO_END
        .iter()
        .map(|&(n, u)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(
        names(doc.get("end_to_end").expect("end_to_end")),
        end_to_end
    );
    let per_layer: Vec<(String, String)> = spec::per_layer()
        .into_iter()
        .map(|(n, u)| (n, u.to_string()))
        .collect();
    assert_eq!(names(doc.get("per_layer").expect("per_layer")), per_layer);

    let mut seen = BTreeSet::new();
    for (name, unit) in end_to_end.iter().chain(&per_layer) {
        assert!(seen.insert(name.clone()), "{name} is used twice");
        assert!(name.len() <= 64 && unit.len() <= 16);
        assert!(
            name.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
            "{name}"
        );
        assert!(
            unit.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
            "{unit}"
        );
    }
    for exact in spec::EXACT {
        assert!(
            per_layer.iter().any(|(n, _)| n == exact),
            "{exact} is not a per-layer metric"
        );
    }
    assert!(doc
        .get("end_to_end")
        .expect("end_to_end")
        .items()
        .iter()
        .any(|m| {
            m.get("name").and_then(Json::as_str) == Some("setup_s")
                && m.get("unit").and_then(Json::as_str) == Some("s")
                && m.get("better").and_then(Json::as_str) == Some("lower")
        }));
}

fn names_only(list: &Json) -> Vec<String> {
    list.items()
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Json::as_str)
                .expect("a name")
                .to_string()
        })
        .collect()
}

#[test]
fn smoke_run_reports_every_metric_and_exact_counts_repeat() {
    let spec_doc = spec_document();
    let (first, second) = (run_all(11), run_all(11));
    for workload in spec::WORKLOADS {
        for (run, list) in [("end_to_end", "end_to_end"), ("per_layer", "per_layer")] {
            let of = |doc: &Json| {
                doc.get("workloads")
                    .and_then(|w| w.get(workload))
                    .and_then(|w| w.get(run))
                    .unwrap_or_else(|| panic!("{workload}/{run} is missing"))
                    .clone()
            };
            let (a, b) = (of(&first), of(&second));
            assert_eq!(
                a.get("correct").and_then(Json::as_bool),
                Some(true),
                "{workload}/{run}"
            );
            assert_eq!(
                a.get("failed").and_then(Json::as_f64),
                Some(0.0),
                "{workload}/{run}"
            );
            assert!(
                a.get("attempted")
                    .and_then(Json::as_f64)
                    .expect("attempted")
                    >= 1.0
            );
            let metrics = a.get("metrics").expect("metrics");
            let wanted = names(spec_doc.get(list).expect("a metric list"));
            assert_eq!(metrics.members().len(), wanted.len(), "{workload}/{run}");
            for (name, unit) in &wanted {
                let m = metrics
                    .get(name)
                    .unwrap_or_else(|| panic!("{workload}/{run} lacks {name}"));
                assert_eq!(
                    m.get("unit").and_then(Json::as_str),
                    Some(unit.as_str()),
                    "{name}"
                );
                let value = m.get("value").and_then(Json::as_f64).expect("a value");
                assert!(value.is_finite(), "{workload}/{name} is {value}");
                if run == "end_to_end" {
                    assert!(value > 0.0, "{workload}/{name} is {value}");
                }
            }
            if run == "per_layer" {
                for name in spec::EXACT {
                    let value = |doc: &Json| doc.get("metrics")?.get(name)?.get("value")?.as_f64();
                    assert_eq!(value(&a), value(&b), "{workload}/{name} does not repeat");
                }
                if workload != "ingest_recover" {
                    // The read workloads never reach the storage layer.
                    for (name, _) in wanted.iter().filter(|(n, _)| n.starts_with("storage.")) {
                        assert_eq!(
                            metrics
                                .get(name)
                                .and_then(|m| m.get("value"))
                                .and_then(Json::as_f64),
                            Some(0.0),
                            "{workload}/{name}"
                        );
                    }
                }
            }
        }
    }
    let failed_share = |w: &str| {
        first
            .get("workloads")?
            .get(w)?
            .get("per_layer")?
            .get("metrics")?
            .get("failed_share")?
            .get("value")?
            .as_f64()
    };
    assert_eq!(failed_share("ingest_recover"), Some(0.0));
}

#[test]
fn an_unknown_workload_is_a_usage_error_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_benchrun"))
        .args([
            "--workload",
            "no_such_workload",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("benchrun starts");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
