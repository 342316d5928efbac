//! The benchmark's self-test, at the smallest size: every workload runs
//! once untraced and once traced, every metric `BENCHMARK.json` names is
//! emitted with its unit, and the output checks fire on a corrupted
//! expected row.

use std::collections::BTreeMap;

use smtx_perfbench::command::{self, guard, Mode};
use smtx_perfbench::fleet::{self, JobList};
use smtx_perfbench::metrics;
use smtx_perfbench::rep::RepOut;
use smtx_perfbench::spec::{Size, Spec, Workload};
use smtx_serve::json::Json;

const SEED: u64 = 7;

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn listed(bench: &Json, key: &str) -> BTreeMap<String, String> {
    bench
        .get(key)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |f: &str| {
                m.get(f)
                    .and_then(Json::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn fleet_expected(spec: &Spec) -> Vec<String> {
    fleet::expected_rows(&spec.fleet(Size::Tiny))
}

fn tiny_reps(w: Workload, spec: &Spec) -> (RepOut, RepOut, RepOut) {
    let expected = if w == Workload::FleetClosed {
        fleet_expected(spec)
    } else {
        Vec::new()
    };
    let (setup, _) = command::run_rep(w, SEED, 0, Mode::Setup, Size::Tiny, spec, &expected);
    let (plain, _) = command::run_rep(w, SEED, 1, Mode::Plain, Size::Tiny, spec, &expected);
    let (traced, spans) = command::run_rep(w, SEED, 2, Mode::Traced, Size::Tiny, spec, &expected);
    assert_eq!(setup.failed, 0, "{}: {:?}", w.name(), setup.errors);
    assert!(
        setup.values.get("setup_s").is_some_and(|&s| s > 0.0),
        "{}: a set-up-only process reports setup_s",
        w.name()
    );
    for r in [&plain, &traced] {
        assert!(r.attempted >= 1, "{}: nothing attempted", w.name());
        assert_eq!(r.failed, 0, "{}: {:?}", w.name(), r.errors);
    }
    assert!(
        !spans.is_empty(),
        "{}: the traced run recorded no spans",
        w.name()
    );
    (setup, plain, traced)
}

#[test]
fn every_workload_runs_and_emits_every_listed_metric() {
    let spec = Spec::load();
    let bench = benchmark_json();
    let names: Vec<&str> = bench
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).expect("workload name"))
        .collect();
    assert_eq!(
        names,
        Workload::ALL.map(Workload::name),
        "BENCHMARK.json lists exactly the built workloads"
    );

    for w in Workload::ALL {
        let (setup, plain, traced) = tiny_reps(w, &spec);
        let (failed, errors) = guard(&[plain.clone(), traced.clone()]);
        assert_eq!(
            failed,
            0,
            "{}: traced and untraced runs disagree: {errors:?}",
            w.name()
        );
        for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
            let report = metrics::report(
                trace,
                std::slice::from_ref(&setup),
                std::slice::from_ref(&plain),
                std::slice::from_ref(&traced),
                plain.attempted,
                0,
            );
            let emitted: BTreeMap<String, String> = report
                .iter()
                .map(|(n, u, _)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(
                emitted,
                listed(&bench, key),
                "{}: {key} names and units",
                w.name()
            );
            if !trace {
                for (name, _, value) in &report {
                    assert!(*value > 0.0, "{}: end-to-end {name} is {value}", w.name());
                }
            }
        }
    }
}

#[test]
fn output_checks_fire_on_a_corrupted_expected_row() {
    let corrupt = |rows: &str| rows.replacen("\"cells\": [", "\"cells\": [9", 1);
    let spec = Spec::load();

    // Figure workloads: the traced rows must equal the untraced rows.
    let (plain, _) = command::run_rep(
        Workload::Fig7Smt,
        SEED,
        0,
        Mode::Plain,
        Size::Tiny,
        &spec,
        &[],
    );
    let mut bad = plain.clone();
    bad.rows = corrupt(&bad.rows);
    assert_ne!(bad.rows, plain.rows);
    let (failed, errors) = guard(&[plain.clone(), bad]);
    assert!(
        failed > 0 && errors[0].contains("rows differ"),
        "{errors:?}"
    );
    assert!(command::check_rows(&plain.rows, &corrupt(&plain.rows)).is_err());

    // Fleet: each served result must equal the in-process rows.
    let mut expected = fleet_expected(&spec);
    expected[0] = corrupt(&expected[0]);
    let (out, _) = command::run_rep(
        Workload::FleetClosed,
        SEED,
        0,
        Mode::Plain,
        Size::Tiny,
        &spec,
        &expected,
    );
    assert!(
        out.failed >= 1,
        "a corrupted expected row must count as a failure"
    );
    assert!(
        out.errors.iter().any(|e| e.contains("served rows differ")),
        "{:?}",
        out.errors
    );
}

#[test]
fn fleet_job_lists_are_seeded_per_repetition() {
    let size = Spec::load().fleet(Size::Full);
    let list = JobList::for_rep(SEED, 3, &size);
    assert_eq!(list, JobList::for_rep(SEED, 3, &size), "seeded");
    assert_ne!(
        list,
        JobList::for_rep(SEED, 4, &size),
        "one list per repetition"
    );
    assert_eq!(list.seeds.len(), size.jobs);
    assert!(list.seeds.iter().all(|&s| s < size.spread));
    assert_eq!(
        list.repeat_share(),
        1.0 - list.distinct() as f64 / size.jobs as f64
    );
}

#[test]
fn command_flags_are_validated() {
    let spec = Spec::load();
    let args = |v: &[&str]| command::parse(v.iter().map(|s| s.to_string()), &spec);
    let ok = args(&[
        "--workload",
        "fig7-smt",
        "--seed",
        "3",
        "--seconds",
        "5",
        "--trace",
        "1",
    ])
    .unwrap();
    assert_eq!(
        (ok.workload, ok.seed, ok.seconds, ok.trace),
        (Workload::Fig7Smt, 3, 5, true)
    );
    assert_eq!(
        args(&["--workload", "fleet-closed"]).unwrap().seed,
        spec.default_seed()
    );
    for bad in [
        &["--seed", "1"][..],
        &["--workload", "fig9"],
        &["--workload", "fig7-smt", "--trace", "2"],
        &["--bogus", "1"],
    ] {
        assert!(args(bad).is_err(), "{bad:?} must be rejected");
    }
}
