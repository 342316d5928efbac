//! Loopback integration of the `smtxd` service (DESIGN.md §10).
//!
//! The guarantees held here are the service's reason to exist:
//!
//! 1. **Byte-identity** — rows served to a client are byte-identical to
//!    what the figure binary computes for the same spec, and N concurrent
//!    clients asking for the same job all receive byte-identical bodies.
//! 2. **Cache sharing** — overlapping specs from different clients hit the
//!    daemon's shared result + checkpoint caches (asserted via
//!    `RunnerStats` and `/metrics`).
//! 3. **Graceful shutdown** — a drain under load finishes every accepted
//!    job, answers new submissions with 503, and then exits.

use std::time::Duration;

use smtx_bench::{figures, Args, Experiment};
use smtx_serve::http::client_request;
use smtx_serve::json::Json;
use smtx_serve::{server, JobState, ServiceConfig};

const TIMEOUT: Duration = Duration::from_secs(120);

fn get(addr: &str, path: &str) -> (u16, String) {
    let r = client_request(addr, "GET", path, None, TIMEOUT).expect("GET");
    (r.status, r.body)
}

fn post(addr: &str, path: &str, body: &str) -> (u16, String) {
    let r = client_request(addr, "POST", path, Some(body), TIMEOUT).expect("POST");
    (r.status, r.body)
}

fn submit_and_wait(addr: &str, body: &str) -> String {
    let (status, resp) = post(addr, "/v1/jobs", body);
    assert!(status == 202 || status == 200, "submit got {status}: {resp}");
    let id = Json::parse(&resp).unwrap().get("id").unwrap().as_str().unwrap().to_string();
    loop {
        let (s, meta) = get(addr, &format!("/v1/jobs/{id}"));
        assert_eq!(s, 200, "status poll: {meta}");
        let state =
            Json::parse(&meta).unwrap().get("state").unwrap().as_str().unwrap().to_string();
        match state.as_str() {
            "done" => {
                let (rs, result) = get(addr, &format!("/v1/jobs/{id}/result"));
                assert_eq!(rs, 200, "result fetch: {result}");
                return result;
            }
            "failed" => panic!("job failed: {meta}"),
            _ => std::thread::sleep(Duration::from_millis(50)),
        }
    }
}

/// The core guarantee: N concurrent clients, overlapping specs, every
/// result byte-identical to the figure binary's computation, and the
/// shared checkpoint cache hit across jobs.
#[test]
fn concurrent_clients_get_byte_identical_rows_and_share_caches() {
    // skip > 0 engages the tier-1 checkpoint cache; table2 and fig5 at the
    // same (seed, skip) share per-kernel checkpoints across *jobs*.
    let config = ServiceConfig {
        workers: 2,
        runner_jobs: 2,
        skip: 2_000,
        ..ServiceConfig::default()
    };
    let handle = server::start("127.0.0.1:0", config).expect("bind loopback");
    let addr = handle.addr().to_string();

    let (hs, hb) = get(&addr, "/healthz");
    assert_eq!(hs, 200, "{hb}");

    // Malformed submissions are rejected up front, never queued.
    for (body, want) in [
        ("{not json", 400),
        ("{\"experiment\": \"fig9\"}", 400),
        ("{\"kernel\": \"spice\"}", 400),
        ("{}", 400),
    ] {
        let (s, b) = post(&addr, "/v1/jobs", body);
        assert_eq!(s, want, "`{body}` → {b}");
    }
    let (s, b) = get(&addr, "/v1/jobs/0000000000000000");
    assert_eq!(s, 404, "{b}");

    // Six concurrent clients: four ask for the same table2, two for fig5.
    let spec_a = r#"{"experiment": "table2", "insts": 4000, "seed": 42}"#;
    let spec_b = r#"{"experiment": "fig5", "insts": 4000, "seed": 42}"#;
    let clients: Vec<_> = (0..6)
        .map(|i| {
            let addr = addr.clone();
            let body = if i < 4 { spec_a } else { spec_b };
            std::thread::spawn(move || submit_and_wait(&addr, body))
        })
        .collect();
    let results: Vec<String> = clients.into_iter().map(|t| t.join().expect("client")).collect();

    // All clients of one spec got byte-identical bodies.
    assert!(results[..4].iter().all(|r| *r == results[0]), "table2 bodies must agree");
    assert!(results[4..].iter().all(|r| *r == results[4]), "fig5 bodies must agree");
    assert_ne!(results[0], results[4]);

    // Served rows are byte-identical to the figure binaries' computation:
    // run the same figure bodies in-process and compare the rows fragment
    // (wall clock and cache counters legitimately differ).
    for (name, served) in [("table2", &results[0]), ("fig5", &results[4])] {
        let args = Args { insts: 4_000, seed: 42, skip: 2_000, jobs: 2, ..Args::default() };
        let mut exp = Experiment::with_args(name, args).quiet();
        assert!(figures::run_named(name, &mut exp));
        let rows = exp.into_report().rows_json();
        assert!(
            served.contains(&rows),
            "{name}: served body must embed the binary's exact rows fragment\nwant:\n{rows}\ngot:\n{served}"
        );
    }

    // Cache sharing across jobs: fig5 re-simulates the kernels table2's
    // budget probes touched, so the shared runner must have served repeat
    // keys from cache, and — with skip > 0 — reused checkpoints.
    let stats = handle.service().executor.runner.stats();
    assert!(stats.cache_hits > 0, "shared result cache must hit: {stats:?}");
    assert!(stats.checkpoint_hits > 0, "shared checkpoint cache must hit: {stats:?}");
    let (_, metrics) = get(&addr, "/metrics");
    assert!(
        metrics.contains(&format!("smtxd_runner_checkpoint_hits {}", stats.checkpoint_hits)),
        "metrics expose runner counters:\n{metrics}"
    );
    assert!(metrics.contains("smtxd_jobs_accepted 2\n"), "dedup kept accepts at 2:\n{metrics}");
    assert!(metrics.contains("smtxd_jobs_deduped 4\n"), "4 submissions deduped:\n{metrics}");

    handle.shutdown_and_join();
}

/// Graceful shutdown under load: accepted jobs drain to completion, new
/// submissions get 503, and the daemon exits.
#[test]
fn shutdown_drains_in_flight_jobs_and_rejects_new_ones() {
    let config = ServiceConfig { workers: 1, runner_jobs: 2, ..ServiceConfig::default() };
    let handle = server::start("127.0.0.1:0", config).expect("bind loopback");
    let addr = handle.addr().to_string();
    let service = handle.service();

    // Queue three jobs on a single worker, then immediately begin draining
    // while at most one has started.
    let mut ids = Vec::new();
    for body in [
        r#"{"kernel": "compress", "insts": 3000, "mechanism": "traditional"}"#,
        r#"{"kernel": "gcc", "insts": 3000, "mechanism": "multithreaded"}"#,
        r#"{"kernel": "vortex", "insts": 3000, "mechanism": "perfect"}"#,
    ] {
        let (s, b) = post(&addr, "/v1/jobs", body);
        assert_eq!(s, 202, "{b}");
        ids.push(Json::parse(&b).unwrap().get("id").unwrap().as_str().unwrap().to_string());
    }

    let (s, b) = post(&addr, "/v1/shutdown", "");
    assert_eq!(s, 200, "{b}");

    // New work is refused while draining (503), not silently dropped.
    let late = r#"{"kernel": "applu", "insts": 3000, "mechanism": "perfect"}"#;
    let (s, b) = post(&addr, "/v1/jobs", late);
    assert_eq!(s, 503, "draining must refuse new jobs: {b}");

    // The daemon exits only after the queue drains...
    handle.join();

    // ...and every accepted job finished with a result.
    for id in &ids {
        match service.state(id) {
            Some(JobState::Done(json)) => {
                assert!(json.contains("\"experiment\": \"run\""), "{id}: {json}");
            }
            other => panic!("job {id} must drain to Done, got {other:?}"),
        }
    }
    assert_eq!(
        service.metrics.jobs_completed.load(std::sync::atomic::Ordering::Relaxed),
        3
    );
    assert!(
        service.metrics.jobs_rejected_shutdown.load(std::sync::atomic::Ordering::Relaxed) >= 1
    );

    // The listener is gone: a fresh connection must fail.
    assert!(client_request(&addr, "GET", "/healthz", None, Duration::from_secs(2)).is_err());
}

/// A body larger than the HTTP layer's `MAX_BODY` is refused at the
/// header stage — counted as a bad request, never parsed or queued.
#[test]
fn oversized_bodies_are_rejected_before_queueing() {
    let config = ServiceConfig { workers: 1, runner_jobs: 1, ..ServiceConfig::default() };
    let handle = server::start("127.0.0.1:0", config).expect("bind loopback");
    let addr = handle.addr().to_string();

    let huge = format!(r#"{{"kernel": "compress", "pad": "{}"}}"#, "x".repeat(2 * 1024 * 1024));
    // The server answers 400 from the Content-Length header alone and
    // closes; depending on timing the client sees the 400 or a reset
    // while still streaming the body. Both are a refusal.
    match client_request(&addr, "POST", "/v1/jobs", Some(&huge), TIMEOUT) {
        Ok(resp) => {
            assert_eq!(resp.status, 400, "{}", resp.body);
            assert!(resp.body.contains("body too large"), "{}", resp.body);
        }
        Err(e) => eprintln!("client aborted mid-body as expected: {e}"),
    }

    let (_, metrics) = get(&addr, "/metrics");
    assert!(
        metrics.contains("smtxd_bad_requests 1\n"),
        "the refusal must be counted:\n{metrics}"
    );
    // Nothing was queued or executed.
    assert!(metrics.contains("smtxd_jobs_accepted 0\n"), "{metrics}");
    handle.shutdown_and_join();
}

/// A queued job whose deadline lapses before a worker picks it up fails
/// with a deadline error instead of running late.
#[test]
fn deadline_expires_for_jobs_stuck_in_queue() {
    let config = ServiceConfig { workers: 1, runner_jobs: 2, ..ServiceConfig::default() };
    let handle = server::start("127.0.0.1:0", config).expect("bind loopback");
    let addr = handle.addr().to_string();

    // Occupy the single worker with a long job, then queue a job that can
    // only start after its 1 ms deadline has long expired.
    let long = r#"{"kernel": "gcc", "insts": 200000, "mechanism": "multithreaded"}"#;
    let (s, b) = post(&addr, "/v1/jobs", long);
    assert_eq!(s, 202, "{b}");
    let doomed = r#"{"kernel": "compress", "insts": 1000, "mechanism": "perfect", "deadline_ms": 1}"#;
    let (s, b) = post(&addr, "/v1/jobs", doomed);
    assert_eq!(s, 202, "{b}");
    let id = Json::parse(&b).unwrap().get("id").unwrap().as_str().unwrap().to_string();

    // Poll until the doomed job leaves the queue.
    let state = loop {
        let (s, meta) = get(&addr, &format!("/v1/jobs/{id}"));
        assert_eq!(s, 200, "{meta}");
        let state =
            Json::parse(&meta).unwrap().get("state").unwrap().as_str().unwrap().to_string();
        if state != "queued" && state != "running" {
            break state;
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    assert_eq!(state, "failed", "an expired job must fail, not run");

    let (s, body) = get(&addr, &format!("/v1/jobs/{id}/result"));
    assert_eq!(s, 409, "{body}");
    assert!(body.contains("deadline"), "failure must name the deadline: {body}");
    let (_, metrics) = get(&addr, "/metrics");
    assert!(metrics.contains("smtxd_deadline_expired 1\n"), "{metrics}");
    handle.shutdown_and_join();
}

/// End-to-end trace capture: a `"trace": true` kernel run serves its
/// binary trace at `/trace`; untraced jobs 404 there.
#[test]
fn traced_jobs_serve_their_trace_download() {
    let config = ServiceConfig { workers: 1, runner_jobs: 1, ..ServiceConfig::default() };
    let handle = server::start("127.0.0.1:0", config).expect("bind loopback");
    let addr = handle.addr().to_string();

    // Pin the single worker so the traced job sits in the queue long
    // enough to probe its pre-completion /trace answer.
    let long = r#"{"kernel": "gcc", "insts": 100000, "mechanism": "multithreaded"}"#;
    let (s, b) = post(&addr, "/v1/jobs", long);
    assert_eq!(s, 202, "{b}");

    let spec = r#"{"kernel": "compress", "insts": 2000, "mechanism": "multithreaded", "trace": true}"#;
    let (s, b) = post(&addr, "/v1/jobs", spec);
    assert_eq!(s, 202, "{b}");
    let id = Json::parse(&b).unwrap().get("id").unwrap().as_str().unwrap().to_string();
    // /trace before completion is a conflict, not a 404 or an empty body.
    let (s, b) = get(&addr, &format!("/v1/jobs/{id}/trace"));
    assert_eq!(s, 409, "{b}");
    submit_and_wait(&addr, spec);

    // client_request decodes bodies lossily, so assert on the ASCII magic
    // prefix rather than the full binary payload (the unit tests in
    // smtx-serve cover exact bytes).
    let (s, body) = get(&addr, &format!("/v1/jobs/{id}/trace"));
    assert_eq!(s, 200);
    assert!(body.starts_with("SMTXTRC"), "trace body must start with the format magic");

    // The same spec without trace capture has a different id and no trace.
    let untraced = r#"{"kernel": "compress", "insts": 2000, "mechanism": "multithreaded"}"#;
    let (s, b) = post(&addr, "/v1/jobs", untraced);
    assert!(s == 202 || s == 200, "{b}");
    let plain_id = Json::parse(&b).unwrap().get("id").unwrap().as_str().unwrap().to_string();
    assert_ne!(plain_id, id, "traced and untraced specs must not dedup together");
    submit_and_wait(&addr, untraced);
    let (s, b) = get(&addr, &format!("/v1/jobs/{plain_id}/trace"));
    assert_eq!(s, 404, "{b}");
    assert!(b.contains("did not request trace capture"), "{b}");
    handle.shutdown_and_join();
}

/// The service config plumbs the two-tier flags into the shared runner,
/// and a served report describes the daemon's engine (not client args).
#[test]
fn served_report_describes_the_daemon_engine() {
    let config = ServiceConfig {
        workers: 1,
        runner_jobs: 1,
        skip: 1_000,
        ..ServiceConfig::default()
    };
    let handle = server::start("127.0.0.1:0", config).expect("bind loopback");
    let addr = handle.addr().to_string();
    let result =
        submit_and_wait(&addr, r#"{"kernel": "compress", "insts": 2000, "mechanism": "perfect"}"#);
    let v = Json::parse(&result).expect("result is valid JSON");
    assert_eq!(v.get("skip").unwrap().as_u64(), Some(1_000));
    assert_eq!(v.get("jobs").unwrap().as_u64(), Some(1));
    assert_eq!(v.get("experiment").unwrap().as_str(), Some("run"));
    handle.shutdown_and_join();
}

/// Batch submission: one request carrying many specs, answered as an
/// NDJSON stream with one terminal frame per job as results land, result
/// bytes verbatim (byte-identical to the per-job result endpoint), fed to
/// the queue lazily so a batch may exceed `queue_cap`.
#[test]
fn batch_submission_streams_byte_identical_results() {
    use std::collections::BTreeMap;
    use std::io::{BufRead, Read};

    // queue_cap 2 < the batch's 4 jobs: the streamer must feed lazily.
    let config =
        ServiceConfig { workers: 2, runner_jobs: 2, queue_cap: 2, ..ServiceConfig::default() };
    let handle = server::start("127.0.0.1:0", config).expect("bind loopback");
    let addr = handle.addr().to_string();

    let body = r#"{"jobs": [
        {"experiment": "table2", "insts": 3000, "seed": 7},
        {"kernel": "spice"},
        {"kernel": "compress", "insts": 3000, "mechanism": "multithreaded"},
        {"experiment": "table2", "insts": 3000, "seed": 7}
    ]}"#;
    let (status, mut r) =
        smtx_serve::http::client_stream(&addr, "POST", "/v1/batch", Some(body), TIMEOUT)
            .expect("batch stream");
    assert_eq!(status, 200);

    let mut header = None;
    let mut trailer = false;
    let mut done: BTreeMap<u64, String> = BTreeMap::new();
    let mut failed: BTreeMap<u64, String> = BTreeMap::new();
    loop {
        let mut line = String::new();
        if r.read_line(&mut line).expect("frame line") == 0 {
            break;
        }
        let v = Json::parse(line.trim_end()).expect("frame is JSON");
        if v.get("done").and_then(Json::as_bool) == Some(true) {
            trailer = true;
            assert_eq!(v.get("batch").and_then(Json::as_u64), Some(4));
            continue;
        }
        if let Some(n) = v.get("batch").and_then(Json::as_u64) {
            header = Some(n);
            continue;
        }
        let index = v.get("index").and_then(Json::as_u64).expect("frame has index");
        match v.get("state").and_then(Json::as_str) {
            Some("done") => {
                let n = v.get("result_bytes").and_then(Json::as_u64).expect("result_bytes");
                let mut bytes = vec![0u8; usize::try_from(n).unwrap()];
                r.read_exact(&mut bytes).expect("verbatim result bytes");
                let mut sep = [0u8; 1];
                r.read_exact(&mut sep).expect("separator");
                assert_eq!(sep[0], b'\n', "frame separator after result bytes");
                done.insert(index, String::from_utf8(bytes).expect("result is UTF-8"));
            }
            Some("failed") => {
                failed.insert(
                    index,
                    v.get("error").and_then(Json::as_str).unwrap_or_default().to_string(),
                );
            }
            s => panic!("unexpected frame state {s:?}: {line}"),
        }
    }
    assert_eq!(header, Some(4), "header frame announces the batch size");
    assert!(trailer, "stream ends with the done trailer");
    assert_eq!(done.len(), 3, "three valid jobs: {done:?} / {failed:?}");
    assert_eq!(failed.len(), 1);
    assert!(failed[&1].contains("kernel"), "bad spec error names the field: {}", failed[&1]);

    // Duplicate specs inside one batch dedup to the same job and stream
    // the same bytes.
    assert_eq!(done[&0], done[&3], "identical specs must stream identical bytes");
    // The streamed result is byte-identical to the per-job endpoint's.
    let direct = submit_and_wait(&addr, r#"{"experiment": "table2", "insts": 3000, "seed": 7}"#);
    assert_eq!(done[&0], direct, "streamed bytes equal the result endpoint's");

    let (_, metrics) = get(&addr, "/metrics");
    assert!(metrics.contains("smtxd_batch_requests 1\n"), "{metrics}");
    assert!(metrics.contains("smtxd_batch_jobs 4\n"), "{metrics}");
    handle.shutdown_and_join();
}
