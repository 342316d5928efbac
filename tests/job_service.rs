//! The job service as both daemons serve it (DESIGN.md §10, §15).
//!
//! `smtxd` and `smtx-coord` answer the same HTTP API from one job table.
//! This suite pins what the two must agree on:
//!
//! 1. **Metric names** — the `/metrics` name sets of a node and of a
//!    coordinator match the checked-in lists in `tests/metric_names.txt`,
//!    so no scraper-visible name is renamed or dropped.
//! 2. **Transient failures are not sticky** — a job that failed only
//!    because its deadline ran out is recomputed when the same spec is
//!    submitted again, on a node and through a coordinator.
//! 3. **Unknown spec keys are rejected** — a misspelt key answers 400
//!    naming the key instead of silently running with a default.

use std::collections::BTreeSet;
use std::time::{Duration, Instant};

use smtx_fleet::CoordConfig;
use smtx_serve::http::client_request;
use smtx_serve::json::Json;
use smtx_serve::{server, ServiceConfig};

const TIMEOUT: Duration = Duration::from_secs(120);

/// A job long enough to keep a one-worker node busy while a second job
/// waits behind it.
const LONG: &str = r#"{"kernel": "gcc", "insts": 200000, "mechanism": "multithreaded"}"#;

fn get(addr: &str, path: &str) -> (u16, String) {
    let r = client_request(addr, "GET", path, None, TIMEOUT).expect("GET");
    (r.status, r.body)
}

fn post(addr: &str, path: &str, body: &str) -> (u16, String) {
    let r = client_request(addr, "POST", path, Some(body), TIMEOUT).expect("POST");
    (r.status, r.body)
}

fn id_of(resp: &str) -> String {
    Json::parse(resp).unwrap().get("id").unwrap().as_str().unwrap().to_string()
}

/// Polls until `id` is terminal; returns `Ok(result bytes)` or
/// `Err(error text)`.
fn wait(addr: &str, id: &str) -> Result<String, String> {
    let deadline = Instant::now() + TIMEOUT;
    loop {
        assert!(Instant::now() < deadline, "job {id} did not settle in time");
        let (s, meta) = get(addr, &format!("/v1/jobs/{id}"));
        assert_eq!(s, 200, "status poll: {meta}");
        let v = Json::parse(&meta).unwrap();
        match v.get("state").and_then(Json::as_str) {
            Some("done") => {
                let (rs, result) = get(addr, &format!("/v1/jobs/{id}/result"));
                assert_eq!(rs, 200, "result fetch: {result}");
                return Ok(result);
            }
            Some("failed") => {
                return Err(v.get("error").and_then(Json::as_str).unwrap_or("").to_string())
            }
            _ => std::thread::sleep(Duration::from_millis(20)),
        }
    }
}

fn one_worker() -> ServiceConfig {
    ServiceConfig { workers: 1, runner_jobs: 2, ..ServiceConfig::default() }
}

fn coord_over(node: &server::Handle) -> smtx_fleet::CoordHandle {
    smtx_fleet::start(
        "127.0.0.1:0",
        CoordConfig { nodes: vec![node.addr().to_string()], ..CoordConfig::default() },
    )
    .expect("coordinator")
}

/// The names exposed on `addr`'s `/metrics` page.
fn metric_names(addr: &str) -> BTreeSet<String> {
    let (s, text) = get(addr, "/metrics");
    assert_eq!(s, 200, "{text}");
    text.lines().filter_map(|l| l.split_whitespace().next()).map(String::from).collect()
}

#[test]
fn metric_name_sets_match_the_checked_in_lists() {
    let node = server::start("127.0.0.1:0", one_worker()).expect("node");
    let coord = coord_over(&node);
    let mut got = metric_names(&node.addr().to_string());
    got.extend(metric_names(&coord.addr().to_string()));
    let want: BTreeSet<String> = include_str!("metric_names.txt")
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(String::from)
        .collect();
    let missing: Vec<&String> = want.difference(&got).collect();
    let extra: Vec<&String> = got.difference(&want).collect();
    assert!(
        missing.is_empty() && extra.is_empty(),
        "metric names drifted; missing {missing:?}, unexpected {extra:?}"
    );
    coord.shutdown_and_join();
    node.shutdown_and_join();
}

/// Queues `doomed` with a 1 ms deadline behind [`LONG`] on `addr`, checks
/// that it fails by deadline, then resubmits it without a deadline and
/// checks that it is queued afresh and completes.
fn deadline_failure_is_recomputed(addr: &str) {
    let (s, b) = post(addr, "/v1/jobs", LONG);
    assert_eq!(s, 202, "{b}");
    let spec = r#""kernel": "compress", "insts": 1000, "mechanism": "perfect""#;
    let (s, b) = post(addr, "/v1/jobs", &format!("{{{spec}, \"deadline_ms\": 1}}"));
    assert_eq!(s, 202, "{b}");
    let id = id_of(&b);
    let err = wait(addr, &id).expect_err("a 1 ms deadline behind a long job cannot be met");
    assert!(err.contains("deadline"), "failure must name the deadline: {err}");

    let (s, b) = post(addr, "/v1/jobs", &format!("{{{spec}}}"));
    assert_eq!(s, 202, "a deadline failure must not answer a resubmission: {b}");
    assert_eq!(id_of(&b), id, "the resubmission is the same job");
    let result = wait(addr, &id).expect("the resubmitted job runs");
    assert!(result.contains("compress/perfect"), "{result}");
}

#[test]
fn deadline_failures_are_not_sticky_on_a_node() {
    let node = server::start("127.0.0.1:0", one_worker()).expect("node");
    deadline_failure_is_recomputed(&node.addr().to_string());
    node.shutdown_and_join();
}

#[test]
fn deadline_failures_are_not_sticky_through_a_coordinator() {
    let node = server::start("127.0.0.1:0", one_worker()).expect("node");
    let coord = coord_over(&node);
    deadline_failure_is_recomputed(&coord.addr().to_string());
    coord.shutdown_and_join();
    node.shutdown_and_join();
}

#[test]
fn unknown_spec_keys_are_rejected_by_name() {
    let node = server::start("127.0.0.1:0", one_worker()).expect("node");
    let coord = coord_over(&node);
    let typo = r#"{"kernel": "compress", "insts": 1000, "mechansim": "traditional"}"#;
    for addr in [node.addr().to_string(), coord.addr().to_string()] {
        let (s, b) = post(&addr, "/v1/jobs", typo);
        assert_eq!(s, 400, "{addr}: {b}");
        assert!(b.contains("mechansim"), "the error must name the key: {b}");
    }
    coord.shutdown_and_join();
    node.shutdown_and_join();
}
