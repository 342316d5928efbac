//! Loopback integration of the `smtx-coord` fleet (DESIGN.md §15).
//!
//! The guarantees held here are the fleet's reason to exist:
//!
//! 1. **Byte-identity** — a result fetched through the coordinator is
//!    byte-identical to the executing node's own result endpoint, and its
//!    rows embed exactly what the figure binary computes for the spec.
//! 2. **Shared result store** — resubmitting a finished spec is answered
//!    from the fleet-wide store without dispatching, and a hit produced by
//!    a node other than the spec's home (here: after failover) is counted
//!    cross-node.
//! 3. **Work stealing** — jobs homed to a deep node run elsewhere, and
//!    the steal is counted.
//! 4. **Failure redispatch** — killing a node mid-job re-dispatches its
//!    in-flight work to a survivor, results stay byte-identical, and
//!    deadlines are honored rather than hanging the client.

use std::time::{Duration, Instant};

use smtx_bench::{figures, Args, Experiment};
use smtx_fleet::{home_of, CoordConfig};
use smtx_serve::http::client_request;
use smtx_serve::json::Json;
use smtx_serve::{server, JobSpec, ServiceConfig};

const TIMEOUT: Duration = Duration::from_secs(120);

fn get(addr: &str, path: &str) -> (u16, String) {
    let r = client_request(addr, "GET", path, None, TIMEOUT).expect("GET");
    (r.status, r.body)
}

fn post(addr: &str, path: &str, body: &str) -> (u16, String) {
    let r = client_request(addr, "POST", path, Some(body), TIMEOUT).expect("POST");
    (r.status, r.body)
}

fn submit(addr: &str, body: &str) -> String {
    let (status, resp) = post(addr, "/v1/jobs", body);
    assert!(status == 202 || status == 200, "submit got {status}: {resp}");
    Json::parse(&resp).unwrap().get("id").unwrap().as_str().unwrap().to_string()
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
                return Err(v
                    .get("error")
                    .and_then(Json::as_str)
                    .unwrap_or("unreported")
                    .to_string())
            }
            _ => std::thread::sleep(Duration::from_millis(20)),
        }
    }
}

/// Reads one `name value` gauge out of a `/metrics` exposition.
fn metric(text: &str, name: &str) -> u64 {
    text.lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.trim().parse().ok())
        .unwrap_or_else(|| panic!("metric {name} missing from:\n{text}"))
}

fn node_config() -> ServiceConfig {
    ServiceConfig { workers: 1, runner_jobs: 2, ..ServiceConfig::default() }
}

/// Byte-identity plus the shared result store: a result through the
/// coordinator equals the executing node's own bytes and embeds the figure
/// binary's exact rows; a resubmission is served from the store and
/// counted as a cross-node hit; a batch through the coordinator streams
/// the same bytes again.
#[test]
fn coordinator_serves_node_bytes_and_counts_cross_node_store_hits() {
    let n0 = server::start("127.0.0.1:0", node_config()).expect("node 0");
    let n1 = server::start("127.0.0.1:0", node_config()).expect("node 1");
    let coord = smtx_fleet::start(
        "127.0.0.1:0",
        CoordConfig {
            nodes: vec![n0.addr().to_string(), n1.addr().to_string()],
            // No stealing here: only the failover below moves a job off
            // its home, so the cross-node classification is deterministic.
            steal_depth: u64::MAX,
            dispatchers: 2,
            ..CoordConfig::default()
        },
    )
    .expect("coordinator");
    let addr = coord.addr().to_string();

    let (hs, hb) = get(&addr, "/healthz");
    assert_eq!(hs, 200, "{hb}");
    // Malformed specs are rejected at the coordinator, never forwarded.
    let (s, b) = post(&addr, "/v1/jobs", r#"{"kernel": "spice"}"#);
    assert_eq!(s, 400, "{b}");

    // A spec homed to node 0, whose node is cleanly shut down first: the
    // coordinator's refused submit marks node 0 dead and redispatches the
    // job to node 1.
    let (spec, seed) = (0u64..)
        .map(|seed| (format!(r#"{{"experiment": "table2", "insts": 3000, "seed": {seed}}}"#), seed))
        .find(|(body, _)| {
            let spec = JobSpec::from_json(&Json::parse(body).unwrap()).unwrap();
            home_of(&spec.id(), 2) == 0
        })
        .unwrap();
    n0.shutdown_and_join();
    let id = submit(&addr, &spec);
    let via_coord = wait(&addr, &id).expect("fleet job");

    // Byte-identity, hop by hop: the coordinator's body is the executing
    // node's result endpoint's body, verbatim...
    let (ns, node_bytes) = get(&n1.addr().to_string(), &format!("/v1/jobs/{id}/result"));
    assert_eq!(ns, 200, "the job must have run on node 1: {node_bytes}");
    assert_eq!(via_coord, node_bytes, "coordinator must not alter result bytes");
    // ...and its rows embed exactly what the figure binary computes.
    let args = Args { insts: 3_000, seed, jobs: 2, ..Args::default() };
    let mut exp = Experiment::with_args("table2", args).quiet();
    assert!(figures::run_named("table2", &mut exp));
    let rows = exp.into_report().rows_json();
    assert!(via_coord.contains(&rows), "served rows must match the binary's:\n{rows}");

    // Resubmission: answered from the fleet store without dispatching.
    // The spec's home is node 0; node 1 produced the entry — a cross-node
    // hit by construction.
    let (s, b) = post(&addr, "/v1/jobs", &spec);
    assert_eq!(s, 200, "{b}");
    assert!(b.contains("\"deduped\": true"), "{b}");
    let again = wait(&addr, &id).expect("stored job");
    assert_eq!(again, via_coord, "store must return the original bytes");
    let (_, m) = get(&addr, "/metrics");
    assert_eq!(metric(&m, "smtx_coord_jobs_accepted"), 1);
    assert_eq!(metric(&m, "smtx_coord_jobs_completed"), 1);
    assert_eq!(metric(&m, "smtx_coord_store_hits"), 1);
    assert_eq!(metric(&m, "smtx_coord_store_cross_node_hits"), 1);
    assert_eq!(metric(&m, "smtx_coord_store_insertions"), 1);
    assert_eq!(metric(&m, "smtx_coord_steals"), 0);
    assert_eq!(metric(&m, "smtx_coord_redispatches"), 1, "the refused submit");
    assert_eq!(metric(&m, "smtx_coord_node_alive_0"), 0);
    assert_eq!(metric(&m, "smtx_coord_node_dispatched_0"), 1, "the refused submit");
    assert_eq!(metric(&m, "smtx_coord_node_dispatched_1"), 1);

    // A batch through the coordinator: the stored spec streams the same
    // bytes yet again; an invalid spec fails in its own frame.
    let batch = format!(
        "{{\"jobs\": [{spec}, {{\"kernel\": \"spice\"}}]}}",
    );
    let (status, mut r) =
        smtx_serve::http::client_stream(&addr, "POST", "/v1/batch", Some(&batch), TIMEOUT)
            .expect("batch stream");
    assert_eq!(status, 200);
    use std::io::{BufRead, Read};
    let mut streamed = None;
    let mut failed = 0;
    let mut trailer = false;
    loop {
        let mut line = String::new();
        if r.read_line(&mut line).expect("frame line") == 0 {
            break;
        }
        let v = Json::parse(line.trim_end()).expect("frame is JSON");
        if v.get("done").and_then(Json::as_bool) == Some(true) {
            trailer = true;
            continue;
        }
        match v.get("state").and_then(Json::as_str) {
            Some("done") => {
                let n = v.get("result_bytes").and_then(Json::as_u64).expect("result_bytes");
                let mut bytes = vec![0u8; usize::try_from(n).unwrap()];
                r.read_exact(&mut bytes).expect("verbatim result bytes");
                let mut sep = [0u8; 1];
                r.read_exact(&mut sep).expect("separator");
                streamed = Some(String::from_utf8(bytes).expect("result is UTF-8"));
            }
            Some("failed") => failed += 1,
            _ => {}
        }
    }
    assert!(trailer, "batch stream must end with the trailer");
    assert_eq!(failed, 1, "the invalid spec fails in its own frame");
    assert_eq!(streamed.as_deref(), Some(via_coord.as_str()), "batch streams the stored bytes");
    let (_, m) = get(&addr, "/metrics");
    assert_eq!(metric(&m, "smtx_coord_batch_requests"), 1);
    assert_eq!(metric(&m, "smtx_coord_batch_jobs"), 2);
    assert_eq!(metric(&m, "smtx_coord_store_hits"), 2, "batch resubmit hits the store too");

    coord.shutdown_and_join();
    n1.shutdown_and_join();
}

/// Work stealing: several jobs all homed (by digest) to the same node run
/// concurrently anyway — the deep home is stolen from, the steal is
/// counted, and every job still completes.
#[test]
fn jobs_homed_to_a_deep_node_are_stolen_to_an_idle_one() {
    let n0 = server::start("127.0.0.1:0", node_config()).expect("node 0");
    let n1 = server::start("127.0.0.1:0", node_config()).expect("node 1");
    let coord = smtx_fleet::start(
        "127.0.0.1:0",
        CoordConfig {
            nodes: vec![n0.addr().to_string(), n1.addr().to_string()],
            steal_depth: 1,
            dispatchers: 8,
            ..CoordConfig::default()
        },
    )
    .expect("coordinator");
    let addr = coord.addr().to_string();

    // Craft four distinct specs that all home to node 0 under the shard
    // map — placement is a pure function of the digest, so the test can
    // predict it exactly.
    let mut specs = Vec::new();
    let mut seed = 0u64;
    while specs.len() < 4 {
        let body = format!(
            r#"{{"kernel": "compress", "insts": 60000, "mechanism": "multithreaded", "seed": {seed}}}"#
        );
        let spec = JobSpec::from_json(&Json::parse(&body).unwrap()).unwrap();
        if home_of(&spec.id(), 2) == 0 {
            specs.push(body);
        }
        seed += 1;
    }

    // Submit all four back to back; each node has one worker, so node 0
    // goes a job deep immediately and the rest must steal to node 1.
    let ids: Vec<String> = specs.iter().map(|s| submit(&addr, s)).collect();
    for id in &ids {
        let _ = wait(&addr, id).unwrap_or_else(|e| panic!("job {id} failed: {e}"));
    }

    let (_, m) = get(&addr, "/metrics");
    assert_eq!(metric(&m, "smtx_coord_jobs_completed"), 4);
    assert!(metric(&m, "smtx_coord_steals") >= 1, "a deep home must be stolen from:\n{m}");
    assert!(
        metric(&m, "smtx_coord_node_dispatched_1") >= 1,
        "a stolen job must actually land on node 1:\n{m}"
    );
    assert_eq!(metric(&m, "smtx_coord_redispatches"), 0, "no node died here");

    coord.shutdown_and_join();
    n0.shutdown_and_join();
    n1.shutdown_and_join();
}

/// Node death mid-job: the in-flight job re-dispatches to a survivor, the
/// result is byte-identical to what a healthy run computes, and a job
/// whose deadline cannot survive the failover fails cleanly instead of
/// hanging the client.
#[test]
fn killing_a_node_redispatches_in_flight_jobs_without_changing_bytes() {
    let n0 = server::start("127.0.0.1:0", node_config()).expect("node 0");
    let n1 = server::start("127.0.0.1:0", node_config()).expect("node 1");
    let coord = smtx_fleet::start(
        "127.0.0.1:0",
        CoordConfig {
            nodes: vec![n0.addr().to_string(), n1.addr().to_string()],
            steal_depth: u64::MAX, // placement sticks to the home node
            dispatchers: 4,
            node_timeout_ms: 2_000,
            ..CoordConfig::default()
        },
    )
    .expect("coordinator");
    let addr = coord.addr().to_string();

    // A spec homed to node 0, slow enough to still be running when the
    // node dies under it.
    let (body, args) = {
        let mut seed = 0u64;
        loop {
            let body = format!(r#"{{"experiment": "fig5", "insts": 20000, "seed": {seed}}}"#);
            let spec = JobSpec::from_json(&Json::parse(&body).unwrap()).unwrap();
            if home_of(&spec.id(), 2) == 0 {
                break (body, Args { insts: 20_000, seed, jobs: 2, ..Args::default() });
            }
            seed += 1;
        }
    };
    let id = submit(&addr, &body);

    // Wait until the job is verifiably in flight to node 0, then kill the
    // node out from under it (listener gone, no drain — a crash as seen
    // from the network).
    let t0 = Instant::now();
    loop {
        let (_, m) = get(&addr, "/metrics");
        if metric(&m, "smtx_coord_node_dispatched_0") >= 1 {
            break;
        }
        assert!(t0.elapsed() < TIMEOUT, "job never dispatched to node 0:\n{m}");
        std::thread::sleep(Duration::from_millis(5));
    }
    n0.abort();

    // The job must still complete — re-dispatched to node 1 — and the
    // rows must be exactly what the figure binary computes: where a job
    // runs can never change what it answers.
    let rescued = wait(&addr, &id).expect("job must survive its node");
    let mut exp = Experiment::with_args("fig5", args).quiet();
    assert!(figures::run_named("fig5", &mut exp));
    let rows = exp.into_report().rows_json();
    assert!(rescued.contains(&rows), "rescued rows must match the binary's:\n{rows}");

    let (_, m) = get(&addr, "/metrics");
    assert!(metric(&m, "smtx_coord_redispatches") >= 1, "the failover must be counted:\n{m}");
    assert_eq!(metric(&m, "smtx_coord_node_alive_0"), 0, "node 0 must be marked dead:\n{m}");
    assert_eq!(metric(&m, "smtx_coord_jobs_completed"), 1);

    // Deadlines survive failover logic: a job that cannot finish in 1 ms
    // fails with a deadline error instead of hanging the client.
    let doomed = submit(&addr, r#"{"experiment": "fig5", "insts": 20000, "seed": 999, "deadline_ms": 1}"#);
    let err = wait(&addr, &doomed).expect_err("a 1 ms deadline cannot be met");
    assert!(err.contains("deadline"), "failure must name the deadline: {err}");

    coord.shutdown_and_join();
    n1.shutdown_and_join();
}
