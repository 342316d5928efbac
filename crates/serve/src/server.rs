//! The TCP front end both daemons share: event-loop reactor, routing,
//! the batch stream, and graceful shutdown, over a [`Service`] with any
//! [`Executor`] — `smtxd` serves [`Local`], `smtx-coord` serves
//! `smtx_fleet::coord::Remote`.
//!
//! ## API
//!
//! | method & path            | meaning |
//! |--------------------------|---------|
//! | `POST /v1/jobs`          | submit a job spec → `202` queued, `200` deduped, `400` invalid, `429` queue full, `503` draining |
//! | `POST /v1/batch`         | submit many specs at once → `200` NDJSON stream, one terminal frame per job as results land |
//! | `GET /v1/jobs/<id>`      | status metadata (state, spec, error) |
//! | `GET /v1/jobs/<id>/result` | the finished report JSON, **verbatim** `Report::to_json` — byte-comparable with a figure binary's `--json` file |
//! | `GET /v1/jobs/<id>/trace` | the captured binary trace (`application/octet-stream`) of a finished `"trace": true` kernel run (a coordinator answers 404: traces stay on the executing node) |
//! | `GET /metrics`           | plaintext counters |
//! | `GET /healthz`           | liveness (`503` once draining) |
//! | `POST /v1/shutdown`      | begin draining; the daemon exits after in-flight jobs finish (a coordinator given `{"fleet": true}` then shuts its nodes down too) |
//!
//! Connections are serviced by the nonblocking reactor in
//! [`crate::eventloop`] — one thread multiplexes every client, so held or
//! slow connections cost a buffer, not an OS thread.
//!
//! ## The batch stream
//!
//! `POST /v1/batch` takes `{"jobs": [<spec>, ...]}` (plus an optional
//! top-level `"deadline_ms"` applied to each job) and answers with a
//! close-delimited `application/x-ndjson` stream:
//!
//! ```text
//! {"batch": 3}
//! {"index": 1, "id": "...", "state": "failed", "error": "..."}
//! {"index": 0, "id": "...", "state": "done", "result_bytes": 512}
//! <exactly 512 verbatim bytes of Report::to_json>
//! {"index": 2, "id": "...", "state": "done", "result_bytes": 507}
//! <exactly 507 verbatim bytes of Report::to_json>
//! {"done": true, "batch": 3}
//! ```
//!
//! Terminal frames are emitted **as jobs finish**, in completion order;
//! `result_bytes` counts the verbatim report bytes that follow the frame's
//! newline (followed by one separating newline), so byte-identity with
//! `GET /v1/jobs/<id>/result` — and with a figure binary's `--json` — is
//! preserved through the stream. Specs are fed to the queue lazily as
//! capacity frees, so one batch may carry more jobs than `queue_cap`.
//!
//! Shutdown is *graceful by construction*: draining flips before the
//! shutdown response is written, so racing submissions get `503` rather
//! than connection resets, queued and running jobs run to completion, and
//! only then does the reactor stop.

use std::collections::VecDeque;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use crate::eventloop::{self, Outcome, Router, Streamer};
use crate::http::{BadRequest, Request};
use crate::json::{quote, Json};
use crate::metrics::Metrics;
use crate::service::{Executor, JobSpec, JobState, Local, Service, ServiceConfig, Submit};

const JSON: &str = "application/json";
const TEXT: &str = "text/plain; charset=utf-8";
const NDJSON: &str = "application/x-ndjson";

/// A running daemon: the bound address, the shared service, and the join
/// handle for the reactor thread.
pub struct Handle<E: Executor = Local> {
    svc: Arc<Service<E>>,
    /// The reactor stop flag (the shutdown watcher flips it once the
    /// drain completes).
    stopped: Arc<AtomicBool>,
    addr: SocketAddr,
    reactor: Option<JoinHandle<()>>,
}

impl<E: Executor> Handle<E> {
    /// The address the daemon actually bound (port 0 resolves here).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared service state (tests assert cache counters through it).
    #[must_use]
    pub fn service(&self) -> Arc<Service<E>> {
        Arc::clone(&self.svc)
    }

    /// Waits for the daemon to exit (i.e. for a shutdown to complete).
    pub fn join(mut self) {
        if let Some(t) = self.reactor.take() {
            if let Err(panic) = t.join() {
                std::panic::resume_unwind(panic);
            }
        }
    }

    /// Programmatic shutdown (what `POST /v1/shutdown` does, without the
    /// fleet fan-out): drain in-flight jobs, stop accepting, wait for the
    /// daemon to exit.
    pub fn shutdown_and_join(self) {
        self.svc.begin_shutdown();
        self.svc.wait_drained();
        self.stopped.store(true, Ordering::SeqCst);
        self.join();
    }

    /// Ungraceful exit for failure-injection tests: the reactor drops the
    /// listener and every open connection on its next tick — clients see
    /// resets, queued jobs are abandoned — and the worker pool is told to
    /// wind down so the process can still be joined. This simulates a
    /// node crash as observed from the network.
    pub fn abort(self) {
        self.svc.begin_shutdown();
        self.stopped.store(true, Ordering::SeqCst);
        // Deliberately NOT joining: a crashed node does not wait for its
        // in-flight work. The reactor thread unblocks on its next tick
        // and exits once the (drained) workers do.
    }
}

/// Binds `addr` and serves a [`Local`] service built from `config` (the
/// `smtxd` daemon); returns immediately.
pub fn start(addr: &str, config: ServiceConfig) -> std::io::Result<Handle> {
    let listener = TcpListener::bind(addr)?;
    let local = Local::new(&config);
    serve(listener, Service::new(config, local))
}

/// Serves `svc` on `listener`: spawns its worker pool and the reactor, and
/// returns immediately.
pub fn serve<E: Executor>(
    listener: TcpListener,
    svc: Arc<Service<E>>,
) -> std::io::Result<Handle<E>> {
    let addr = listener.local_addr()?;
    let stopped = Arc::new(AtomicBool::new(false));
    let workers: Vec<JoinHandle<()>> = (0..svc.config.workers.max(1))
        .map(|_| {
            let svc = Arc::clone(&svc);
            std::thread::spawn(move || svc.worker_loop())
        })
        .collect();
    let reactor = {
        let router: Arc<dyn Router> =
            Arc::new(Daemon { svc: Arc::clone(&svc), stopped: Arc::clone(&stopped) });
        let stopped = Arc::clone(&stopped);
        let svc = Arc::clone(&svc);
        std::thread::spawn(move || {
            eventloop::run(listener, &router, &stopped);
            // The reactor only exits when `stopped` is set, which every
            // path reaches via a drain; workers exit once the queue runs
            // dry. An abort also drains — it just doesn't wait.
            svc.begin_shutdown();
            for w in workers {
                if let Err(panic) = w.join() {
                    std::panic::resume_unwind(panic);
                }
            }
        })
    };
    Ok(Handle { svc, stopped, addr, reactor: Some(reactor) })
}

/// Error-body helper: every non-2xx answer is still JSON.
fn err_body(msg: &str) -> String {
    format!("{{\"error\": {}}}\n", quote(msg))
}

fn full(status: u16, content_type: &'static str, body: impl Into<Vec<u8>>) -> Outcome {
    Outcome::Full { status, content_type, body: body.into() }
}

/// The router: the HTTP surface documented at the top of this module,
/// served from the reactor thread.
struct Daemon<E: Executor> {
    svc: Arc<Service<E>>,
    stopped: Arc<AtomicBool>,
}

impl<E: Executor> Router for Daemon<E> {
    /// Routes one request. The only binary-bodied answer is the trace
    /// download; the only streaming answer is the batch submission.
    fn route(&self, req: &Request) -> Outcome {
        let svc = &self.svc;
        Metrics::inc(&svc.metrics.http_requests);
        if req.method == "GET" {
            if let Some(id) =
                req.path.strip_prefix("/v1/jobs/").and_then(|r| r.strip_suffix("/trace"))
            {
                return job_trace(id, svc);
            }
        }
        match (req.method.as_str(), req.path.as_str()) {
            ("POST", "/v1/jobs") => post_job(req, svc),
            ("POST", "/v1/batch") => post_batch(req, svc),
            ("POST", "/v1/shutdown") => {
                let (reply, pass_on) = svc.executor.shutdown_reply(&req.body);
                self.begin_shutdown_async(pass_on);
                full(200, JSON, reply)
            }
            ("GET", "/metrics") => full(200, TEXT, svc.metrics_text()),
            ("GET", "/healthz") => {
                if svc.draining() {
                    full(503, JSON, err_body("draining"))
                } else {
                    full(200, JSON, "{\"ok\": true}\n")
                }
            }
            ("GET", path) => {
                if let Some(rest) = path.strip_prefix("/v1/jobs/") {
                    job_get(rest, svc)
                } else {
                    full(404, JSON, err_body(&format!("no such path `{path}`")))
                }
            }
            (method, path) => full(405, JSON, err_body(&format!("{method} {path} not supported"))),
        }
    }

    fn bad_request(&self, err: &BadRequest) -> Outcome {
        Metrics::inc(&self.svc.metrics.bad_requests);
        full(400, JSON, err_body(&err.0))
    }
}

impl<E: Executor> Daemon<E> {
    /// The HTTP-triggered shutdown: draining flips *before* the handler
    /// answers — a submission racing the shutdown response can only see
    /// 503, never a connection reset — and the drain-wait runs on a
    /// watcher thread (the reactor must keep running to deliver the
    /// response and any open batch streams).
    fn begin_shutdown_async(&self, pass_on: bool) {
        if self.svc.draining() {
            return;
        }
        self.svc.begin_shutdown();
        let svc = Arc::clone(&self.svc);
        let stopped = Arc::clone(&self.stopped);
        std::thread::spawn(move || {
            svc.wait_drained();
            svc.executor.drained(pass_on);
            stopped.store(true, Ordering::SeqCst);
        });
    }
}

fn job_trace<E: Executor>(id: &str, svc: &Service<E>) -> Outcome {
    if let Some(why) = svc.executor.trace_refusal() {
        return full(404, JSON, err_body(why));
    }
    match svc.state(id) {
        None => full(404, JSON, err_body(&format!("unknown job `{id}`"))),
        Some(JobState::Done(_)) => match svc.trace(id) {
            Some(bytes) => full(200, "application/octet-stream", bytes),
            None => full(404, JSON, err_body("job did not request trace capture")),
        },
        Some(JobState::Failed(e)) => full(409, JSON, err_body(&format!("job failed: {e}"))),
        Some(s) => full(409, JSON, err_body(&format!("job is {}", s.name()))),
    }
}

fn parse_spec_body<E: Executor>(body: &[u8], svc: &Service<E>) -> Result<Json, Outcome> {
    let text = std::str::from_utf8(body).map_err(|_| {
        Metrics::inc(&svc.metrics.bad_requests);
        full(400, JSON, err_body("body is not UTF-8"))
    })?;
    Json::parse(text).map_err(|e| {
        Metrics::inc(&svc.metrics.bad_requests);
        full(400, JSON, err_body(&format!("invalid JSON: {e}")))
    })
}

/// `POST /v1/jobs`.
fn post_job<E: Executor>(req: &Request, svc: &Service<E>) -> Outcome {
    let parsed = match parse_spec_body(&req.body, svc) {
        Ok(v) => v,
        Err(out) => return out,
    };
    let spec = match JobSpec::from_json(&parsed) {
        Ok(s) => s,
        Err(e) => {
            Metrics::inc(&svc.metrics.bad_requests);
            return full(400, JSON, err_body(&e));
        }
    };
    let deadline_ms = parsed.get("deadline_ms").and_then(Json::as_u64);
    match svc.submit(spec, deadline_ms) {
        Submit::Accepted(id) => {
            full(202, JSON, format!("{{\"id\": {}, \"state\": \"queued\"}}\n", quote(&id)))
        }
        Submit::Deduped(id) => {
            let state = svc.state(&id).map_or("unknown", |s| s.name());
            full(
                200,
                JSON,
                format!(
                    "{{\"id\": {}, \"state\": {}, \"deduped\": true}}\n",
                    quote(&id),
                    quote(state)
                ),
            )
        }
        Submit::QueueFull => full(429, JSON, err_body("queue full, retry later")),
        Submit::Draining => full(503, JSON, err_body("shutting down")),
    }
}

/// `POST /v1/batch`: validate every spec up front, then hand a
/// [`BatchStreamer`] to the reactor. Invalid specs become per-index error
/// frames rather than failing the whole batch — the stream's shape is the
/// contract, not the specs' validity.
fn post_batch<E: Executor>(req: &Request, svc: &Arc<Service<E>>) -> Outcome {
    let parsed = match parse_spec_body(&req.body, svc) {
        Ok(v) => v,
        Err(out) => return out,
    };
    let Some(jobs) = parsed.get("jobs").and_then(Json::as_arr) else {
        Metrics::inc(&svc.metrics.bad_requests);
        return full(400, JSON, err_body("body must carry a \"jobs\" array"));
    };
    if jobs.is_empty() {
        Metrics::inc(&svc.metrics.bad_requests);
        return full(400, JSON, err_body("\"jobs\" must not be empty"));
    }
    let deadline_ms = parsed.get("deadline_ms").and_then(Json::as_u64);
    let mut queue = VecDeque::new();
    let mut frames = Vec::new();
    for (index, entry) in jobs.iter().enumerate() {
        match JobSpec::from_json(entry) {
            Ok(spec) => queue.push_back((index, spec)),
            Err(e) => frames.push(format!(
                "{{\"index\": {index}, \"state\": \"failed\", \"error\": {}}}\n",
                quote(&e)
            )),
        }
    }
    Metrics::inc(&svc.metrics.batch_requests);
    svc.metrics.batch_jobs.fetch_add(jobs.len() as u64, Ordering::Relaxed);
    Outcome::Stream {
        status: 200,
        content_type: NDJSON,
        streamer: Box::new(BatchStreamer {
            svc: Arc::clone(svc),
            total: jobs.len(),
            deadline_ms,
            queue,
            inflight: Vec::new(),
            early_frames: frames,
            header_sent: false,
        }),
    }
}

/// Drives one batch: submits specs as queue capacity frees, watches their
/// states, and emits one terminal frame per job in completion order.
struct BatchStreamer<E: Executor> {
    svc: Arc<Service<E>>,
    total: usize,
    deadline_ms: Option<u64>,
    /// Specs not yet accepted by the queue (head blocked on capacity).
    queue: VecDeque<(usize, JobSpec)>,
    /// Submitted jobs awaiting a terminal state.
    inflight: Vec<(usize, String)>,
    /// Validation-failure frames, flushed right after the header.
    early_frames: Vec<String>,
    header_sent: bool,
}

impl<E: Executor> Streamer for BatchStreamer<E> {
    fn poll(&mut self, out: &mut Vec<u8>) -> bool {
        if !self.header_sent {
            self.header_sent = true;
            out.extend_from_slice(format!("{{\"batch\": {}}}\n", self.total).as_bytes());
            for f in self.early_frames.drain(..) {
                out.extend_from_slice(f.as_bytes());
            }
        }
        // Feed the queue until it pushes back; order within the batch is
        // preserved, completion order is not (that's what frames are for).
        while let Some((index, spec)) = self.queue.pop_front() {
            match self.svc.submit(spec.clone(), self.deadline_ms) {
                Submit::Accepted(id) | Submit::Deduped(id) => self.inflight.push((index, id)),
                Submit::QueueFull => {
                    self.queue.push_front((index, spec));
                    break;
                }
                Submit::Draining => out.extend_from_slice(
                    format!(
                        "{{\"index\": {index}, \"state\": \"failed\", \"error\": \"shutting down\"}}\n"
                    )
                    .as_bytes(),
                ),
            }
        }
        // Harvest whatever finished since the last tick.
        let mut still = Vec::with_capacity(self.inflight.len());
        for (index, id) in self.inflight.drain(..) {
            match self.svc.state(&id) {
                Some(JobState::Done(json)) => {
                    out.extend_from_slice(
                        format!(
                            "{{\"index\": {index}, \"id\": {}, \"state\": \"done\", \"result_bytes\": {}}}\n",
                            quote(&id),
                            json.len()
                        )
                        .as_bytes(),
                    );
                    out.extend_from_slice(json.as_bytes());
                    out.push(b'\n');
                }
                Some(JobState::Failed(e)) => out.extend_from_slice(
                    format!(
                        "{{\"index\": {index}, \"id\": {}, \"state\": \"failed\", \"error\": {}}}\n",
                        quote(&id),
                        quote(&e)
                    )
                    .as_bytes(),
                ),
                Some(_) => still.push((index, id)),
                // Only possible if the result table's LRU evicted the job
                // before this stream read it — answer honestly.
                None => out.extend_from_slice(
                    format!(
                        "{{\"index\": {index}, \"id\": {}, \"state\": \"failed\", \"error\": \"result evicted before it was streamed\"}}\n",
                        quote(&id)
                    )
                    .as_bytes(),
                ),
            }
        }
        self.inflight = still;
        if self.queue.is_empty() && self.inflight.is_empty() {
            out.extend_from_slice(format!("{{\"done\": true, \"batch\": {}}}\n", self.total).as_bytes());
            return true;
        }
        false
    }
}

fn job_get<E: Executor>(rest: &str, svc: &Service<E>) -> Outcome {
    if let Some(id) = rest.strip_suffix("/result") {
        return match svc.state(id) {
            // The stored payload IS Report::to_json() — returned verbatim,
            // no re-serialization, so clients can diff it byte-for-byte
            // against a figure binary's --json file.
            Some(JobState::Done(json)) => full(200, JSON, json),
            Some(JobState::Failed(e)) => full(409, JSON, err_body(&format!("job failed: {e}"))),
            Some(s) => full(409, JSON, err_body(&format!("job is {}", s.name()))),
            None => full(404, JSON, err_body(&format!("unknown job `{id}`"))),
        };
    }
    match svc.status_json(rest) {
        Some(body) => full(200, JSON, body),
        None => full(404, JSON, err_body(&format!("unknown job `{rest}`"))),
    }
}
