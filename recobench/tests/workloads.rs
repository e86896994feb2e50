//! The benchmark's own checks: seeded inputs keep their shape, every
//! workload runs clean at minimum size, and every metric `BENCHMARK.json`
//! names is emitted with its unit.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

use recobench::instances::{pipeline_cases, prove_cases, serve_pool, shape, Case, FAMILY_REPEATS};
use recobench::{Options, Workload, END_TO_END, PER_LAYER};
use recopack_json::Json;

fn repo_file(name: &str) -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join(name);
    let text = std::fs::read_to_string(&path).expect("readable repository file");
    Json::parse(&text).expect("valid JSON")
}

fn texts(cases: &[Case]) -> BTreeSet<&str> {
    cases.iter().map(|c| c.text.as_str()).collect()
}

fn drawn_texts(cases: &[Case]) -> BTreeSet<&str> {
    cases
        .iter()
        .filter(|c| c.kind == "random" || c.kind == "layered")
        .map(|c| c.text.as_str())
        .collect()
}

#[test]
fn two_seeds_give_different_texts_with_the_same_shape() {
    let sets: [fn(u64) -> Vec<Case>; 3] = [prove_cases, pipeline_cases, serve_pool];
    for cases_for in sets {
        let (a, b) = (cases_for(101), cases_for(102));
        assert_eq!(shape(&a), shape(&b), "same counts per kind and size class");
        let (da, db) = (drawn_texts(&a), drawn_texts(&b));
        assert!(!da.is_empty());
        let shared = da.intersection(&db).count();
        assert!(
            shared * 100 < da.len(),
            "the seeds share {shared} of {} drawn texts",
            da.len()
        );
        let again = cases_for(101);
        assert_eq!(
            texts(&again),
            texts(&a),
            "the same seed gives the same inputs"
        );
    }
}

#[test]
fn prove_families_cross_check_the_committed_baseline() {
    let baseline = repo_file("benches/baseline.json");
    let cases = baseline
        .get("cases")
        .and_then(Json::as_array)
        .expect("cases");
    let expected: u64 = ["quad5", "quad6", "quad7", "mixed64", "mixed56"]
        .iter()
        .map(|family| {
            cases
                .iter()
                .find(|c| c.get("instance").and_then(Json::as_str) == Some(&format!("{family}_t1")))
                .and_then(|c| c.get("stats")?.get("nodes")?.as_u64())
                .expect("the baseline has every family")
        })
        .sum();
    let cases = prove_cases(7);
    let families: Vec<&Case> = cases.iter().filter(|c| c.kind == "family").collect();
    assert_eq!(families.len(), 5 * FAMILY_REPEATS);
    let distinct: BTreeMap<&str, u64> = families
        .iter()
        .map(|c| (c.name.as_str(), c.nodes))
        .collect();
    assert_eq!(distinct.values().sum::<u64>(), expected);
}

#[test]
fn benchmark_json_names_every_workload_and_metric_with_its_unit() {
    let doc = repo_file("BENCHMARK.json");
    let names = |key: &str| -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_array)
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(Json::as_str).expect("field").to_string();
                (field("name"), field("unit"))
            })
            .collect()
    };
    let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(names("end_to_end"), own(&END_TO_END));
    assert_eq!(names("per_layer"), own(&PER_LAYER));
    let workloads: Vec<&str> = doc
        .get("workloads")
        .and_then(Json::as_array)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, ours);
}

/// Runs one workload for a minimum-size window and checks it ran clean
/// and reported every metric of its kind, in order, with its unit.
fn run_clean(workload: Workload, seed: u64, trace: bool) -> Vec<(&'static str, f64, &'static str)> {
    let options = Options {
        workload,
        seed,
        seconds: 0.2,
        trace,
    };
    let outcome = recobench::run(&options).expect("the run completes");
    assert_eq!(outcome.tally.failed, 0, "{:?}", outcome.tally.errors);
    assert!(outcome.tally.attempted > 0);
    let reported = outcome.reported(trace).expect("every metric measured");
    let list: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    let names: Vec<(&str, &str)> = reported.iter().map(|&(n, _, u)| (n, u)).collect();
    assert_eq!(names, list);
    let line = outcome.result_line(trace).expect("result line");
    let doc = Json::parse(&line).expect("valid JSON");
    assert_eq!(doc.get("correct").and_then(Json::as_bool), Some(true));
    for (name, unit) in list {
        let metric = doc
            .get("metrics")
            .and_then(|m| m.get(name))
            .expect("metric");
        assert_eq!(metric.get("unit").and_then(Json::as_str), Some(*unit));
    }
    if trace {
        let error_rate = reported
            .iter()
            .find(|m| m.0 == "error_rate")
            .expect("error_rate");
        assert_eq!(error_rate.1, 0.0);
    }
    reported
}

fn value(reported: &[(&'static str, f64, &'static str)], name: &str) -> f64 {
    reported
        .iter()
        .find(|m| m.0 == name)
        .map(|m| m.1)
        .expect("reported")
}

#[test]
fn minimum_size_untraced_runs_are_clean() {
    for (i, workload) in Workload::ALL.into_iter().enumerate() {
        let reported = run_clean(workload, 200 + i as u64, false);
        assert_eq!(value(&reported, "success_rate"), 1.0);
        for (name, value, _) in reported {
            assert!(value > 0.0, "{} {name} reads {value}", workload.name());
        }
    }
}

#[test]
fn minimum_size_traced_runs_are_clean() {
    for (i, workload) in Workload::ALL.into_iter().enumerate() {
        let reported = run_clean(workload, 300 + i as u64, true);
        let family_nodes = value(&reported, "search.family_nodes");
        match workload {
            Workload::Prove | Workload::ServeProve => {
                assert!(family_nodes > 200_000.0, "{family_nodes}");
                assert!(value(&reported, "search.nodes") > family_nodes);
            }
            _ => assert_eq!(family_nodes, 0.0),
        }
        if workload == Workload::ServeMixed {
            assert!(value(&reported, "cache.hit_ratio") > 0.0);
        }
    }
}
