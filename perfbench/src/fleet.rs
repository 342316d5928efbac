//! The `fleet-closed` workload: `smtx-coord` in front of two one-worker
//! `smtxd` nodes, all in this process on loopback, driven closed-loop by
//! `nproc` client threads. Each client submits a job, polls its status,
//! fetches the result, and only then submits the next.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use smtx_bench::runner::hist_quantile_ms;
use smtx_bench::{config_with_idle, Args, Experiment, Runner};
use smtx_core::ExnMechanism;
use smtx_fleet::coord::{self, CoordConfig, CoordHandle};
use smtx_rng::{rngs::StdRng, RngExt, SeedableRng};
use smtx_serve::http::client_request;
use smtx_serve::json::Json;
use smtx_serve::server::{self, Handle};
use smtx_serve::ServiceConfig;
use smtx_workloads::Kernel;

use crate::measure::{self, median, process_cpu, quantile};
use crate::rep::RepOut;
use crate::span::{self, Recorder, Span};
use crate::spec::{FleetSize, Spec};

const TIMEOUT: Duration = Duration::from_secs(30);

/// The exception mechanism and idle contexts the job service runs a spec
/// that names neither with (its defaults), and the paper's Fig. 5 column
/// that mechanism belongs to.
const MECHANISM: (ExnMechanism, usize, &str) = (ExnMechanism::Multithreaded, 1, "multi(1)");

/// One kernel-run job spec, as `smtx-loadgen` submits it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobSpec {
    /// Workload kernel.
    pub kernel: Kernel,
    /// Workload seed.
    pub seed: u64,
    /// Requested per-thread budget.
    pub insts: u64,
}

impl JobSpec {
    /// The submission body, field for field what `smtx-loadgen` sends.
    #[must_use]
    pub fn body(&self, deadline_ms: u64) -> String {
        format!(
            "{{\"kernel\": \"{}\", \"insts\": {}, \"seed\": {}, \"deadline_ms\": {deadline_ms}}}",
            self.kernel.name(),
            self.insts,
            self.seed
        )
    }
}

impl FleetSize {
    /// The spec with workload seed `seed`.
    #[must_use]
    pub fn spec(&self, seed: u64) -> JobSpec {
        JobSpec {
            kernel: self.kernel,
            seed,
            insts: self.insts,
        }
    }
}

/// One repetition's job list: `jobs` workload seeds drawn from
/// `0..spread` in submission order, as `smtx-loadgen` pre-draws them from
/// its `--seed`. A seed that came up before repeats that spec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobList {
    /// Each job's workload seed, in submission order.
    pub seeds: Vec<u64>,
}

impl JobList {
    /// Draws the list for `seed`.
    #[must_use]
    pub fn new(seed: u64, size: &FleetSize) -> JobList {
        let mut rng = StdRng::seed_from_u64(seed);
        JobList {
            seeds: (0..size.jobs)
                .map(|_| rng.random_range(0..size.spread))
                .collect(),
        }
    }

    /// The list repetition `index` of a run with seed `seed` submits. Each
    /// repetition draws its own list, so a run measures the traffic rather
    /// than one draw of it, and the same run seed gives the same lists.
    #[must_use]
    pub fn for_rep(seed: u64, index: u64, size: &FleetSize) -> JobList {
        JobList::new(seed.wrapping_mul(1_000_003).wrapping_add(index), size)
    }

    /// Distinct specs in the list.
    #[must_use]
    pub fn distinct(&self) -> usize {
        let mut seen = self.seeds.clone();
        seen.sort_unstable();
        seen.dedup();
        seen.len()
    }

    /// Share of the submitted jobs that repeat an earlier spec.
    #[must_use]
    pub fn repeat_share(&self) -> f64 {
        1.0 - self.distinct() as f64 / self.seeds.len().max(1) as f64
    }
}

/// The rows a node must serve for every spec the traffic can submit,
/// indexed by workload seed, computed on one in-process [`Runner`] exactly
/// as the job service computes a kernel run.
#[must_use]
pub fn expected_rows(size: &FleetSize) -> Vec<String> {
    let runner = Arc::new(Runner::new(0));
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<String>> = (0..size.spread)
        .map(|_| Mutex::new(String::new()))
        .collect();
    std::thread::scope(|s| {
        for _ in 0..runner.jobs() {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= slots.len() {
                    break;
                }
                *slots[i].lock().expect("expected slot") =
                    kernel_run_rows(&runner, &size.spec(i as u64));
            });
        }
    });
    slots
        .into_iter()
        .map(|m| m.into_inner().expect("expected slot"))
        .collect()
}

/// The body of the job service's kernel run, on `runner`.
fn kernel_run_rows(runner: &Arc<Runner>, spec: &JobSpec) -> String {
    let (mech, idle, _) = MECHANISM;
    let args = Args {
        insts: spec.insts,
        seed: spec.seed,
        ..Args::default()
    };
    let mut exp = Experiment::on_runner("run", args, Arc::clone(runner)).quiet();
    let cfg = config_with_idle(mech, idle);
    let insts = exp.runner.insts_for(spec.kernel, spec.seed, spec.insts);
    let run = exp.runner.run(spec.kernel, spec.seed, insts, &cfg);
    let penalty = exp
        .runner
        .penalty_per_miss(spec.kernel, spec.seed, insts, &cfg);
    exp.report.columns = ["cycles", "ipc", "arch_misses", "penalty_per_miss"]
        .map(String::from)
        .to_vec();
    exp.emit_row(
        &format!("{}/{}", spec.kernel.name(), mech.label()),
        &[
            run.cycles as f64,
            run.ipc(),
            run.arch_misses as f64,
            penalty,
        ],
    );
    exp.into_report().rows_json()
}

/// The `"columns"`/`"rows"` tail of a served report — the part that must
/// be byte-identical to the in-process computation (wall clock and cache
/// counters legitimately differ).
#[must_use]
pub fn rows_of(result: &str) -> Option<&str> {
    let start = result.find("  \"columns\": ")?;
    result[start..].strip_suffix("}\n")
}

/// A running fleet.
struct Fleet {
    nodes: Vec<Handle>,
    coord: CoordHandle,
}

impl Fleet {
    /// Starts two one-worker nodes and a default coordinator over them,
    /// and waits until all three answer `/healthz`.
    fn start() -> std::io::Result<Fleet> {
        let nodes = (0..2)
            .map(|_| {
                server::start(
                    "127.0.0.1:0",
                    ServiceConfig {
                        workers: 1,
                        ..ServiceConfig::default()
                    },
                )
            })
            .collect::<std::io::Result<Vec<_>>>()?;
        let config = CoordConfig {
            nodes: nodes.iter().map(|n| n.addr().to_string()).collect(),
            ..CoordConfig::default()
        };
        let coord = coord::start("127.0.0.1:0", config)?;
        let fleet = Fleet { nodes, coord };
        for addr in fleet.addrs() {
            let deadline = Instant::now() + TIMEOUT;
            while client_request(&addr, "GET", "/healthz", None, TIMEOUT)
                .map(|r| r.status)
                .ok()
                != Some(200)
            {
                if Instant::now() > deadline {
                    return Err(std::io::Error::other(format!(
                        "{addr} never became healthy"
                    )));
                }
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        Ok(fleet)
    }

    /// Coordinator first, then the nodes.
    fn addrs(&self) -> Vec<String> {
        std::iter::once(self.coord.addr())
            .chain(self.nodes.iter().map(Handle::addr))
            .map(|a| a.to_string())
            .collect()
    }

    /// Drains and joins every server.
    fn stop(self) {
        self.coord.shutdown_and_join();
        for n in self.nodes {
            n.shutdown_and_join();
        }
    }
}

/// One client-side job: what came back and what it cost.
#[derive(Default)]
struct Outcome {
    latency_ms: f64,
    polls: u64,
    result: String,
    penalty: Option<f64>,
    rejected: bool,
    error: Option<String>,
}

fn id_of(body: &str) -> Option<String> {
    Json::parse(body)
        .ok()?
        .get("id")?
        .as_str()
        .map(String::from)
}

/// Submits one job, polls it to a terminal state and fetches its result,
/// with a span around each request — and around parsing the result —
/// when tracing.
fn run_job(
    addr: &str,
    body: &str,
    job: u64,
    poll: Duration,
    mut rec: Option<&mut Recorder>,
) -> Outcome {
    let mut out = Outcome::default();
    let t0 = Instant::now();
    let mut call = |name: &'static str, method: &str, path: &str, body: Option<&str>| {
        let req = || client_request(addr, method, path, body, TIMEOUT);
        match rec.as_deref_mut() {
            Some(r) => r.span(name, job, |_| req()),
            None => req(),
        }
    };
    let submit = match call("serve.submit", "POST", "/v1/jobs", Some(body)) {
        Ok(r) => r,
        Err(e) => {
            out.error = Some(format!("submit: {e}"));
            return out;
        }
    };
    let id = match (submit.status, id_of(&submit.body)) {
        (200 | 202, Some(id)) => id,
        (status, _) => {
            out.rejected = matches!(status, 429 | 503);
            out.error = Some(format!("submit answered {status}: {}", submit.body.trim()));
            return out;
        }
    };
    let mut done = submit.body.contains("\"state\": \"done\"");
    while !done {
        if t0.elapsed() > TIMEOUT {
            out.error = Some(format!("job {id} did not finish in {TIMEOUT:?}"));
            return out;
        }
        std::thread::sleep(poll);
        out.polls += 1;
        let status = match call("serve.poll", "GET", &format!("/v1/jobs/{id}"), None) {
            Ok(r) => r,
            Err(e) => {
                out.error = Some(format!("poll: {e}"));
                return out;
            }
        };
        let state = Json::parse(&status.body)
            .ok()
            .and_then(|v| v.get("state").and_then(Json::as_str).map(String::from));
        match state.as_deref() {
            Some("done") => done = true,
            Some("queued" | "running") => {}
            _ => {
                out.error = Some(format!("job {id}: {}", status.body.trim()));
                return out;
            }
        }
    }
    match call("serve.fetch", "GET", &format!("/v1/jobs/{id}/result"), None) {
        Ok(r) if r.status == 200 => out.result = r.body,
        Ok(r) => out.error = Some(format!("result answered {}", r.status)),
        Err(e) => out.error = Some(format!("result: {e}")),
    }
    out.latency_ms = t0.elapsed().as_secs_f64() * 1e3;
    if let Some(r) = rec {
        out.penalty = r.span("json.parse", job, |_| penalty_of(&out.result));
    }
    out
}

/// The served penalty per miss of one result, or `None` if the result does
/// not parse.
fn penalty_of(result: &str) -> Option<f64> {
    let v = Json::parse(result).ok()?;
    v.get("rows")?
        .as_arr()?
        .first()?
        .get("cells")?
        .as_arr()?
        .get(3)?
        .as_f64()
}

/// Counters and histograms from one `/metrics` page.
fn scrape(addr: &str) -> BTreeMap<String, u64> {
    client_request(addr, "GET", "/metrics", None, TIMEOUT)
        .map(|r| {
            r.body
                .lines()
                .filter_map(|l| {
                    let (k, v) = l.split_once(' ')?;
                    Some((k.to_string(), v.trim().parse().ok()?))
                })
                .collect()
        })
        .unwrap_or_default()
}

/// Re-buckets a cumulative `_le_` histogram summed over `pages`.
fn hist(pages: &[BTreeMap<String, u64>], prefix: &str) -> [u64; 8] {
    let bounds = ["1", "4", "16", "64", "256", "1024", "4096", "inf"];
    let cum: Vec<u64> = bounds
        .iter()
        .map(|b| {
            pages
                .iter()
                .map(|p| p.get(&format!("{prefix}_le_{b}")).copied().unwrap_or(0))
                .sum()
        })
        .collect();
    std::array::from_fn(|i| cum[i] - if i == 0 { 0 } else { cum[i - 1] })
}

/// A fresh process's one fleet start-up, timed until all three servers
/// answer `/healthz`, then a clean stop.
#[must_use]
pub fn setup_only() -> RepOut {
    let mut out = RepOut::default();
    let t = Instant::now();
    match Fleet::start() {
        Ok(f) => {
            out.set("setup_s", t.elapsed().as_secs_f64());
            Fleet::stop(f);
        }
        Err(e) => out.fail(format!("fleet start: {e}")),
    }
    out
}

/// Repetition `index` of a fleet run with seed `seed`. `expected` holds
/// the rows of every spec, by workload seed; `traced` adds a span per
/// submit, poll, fetch and parse.
#[must_use]
pub fn rep(
    seed: u64,
    index: u64,
    size: &FleetSize,
    spec: &Spec,
    expected: &[String],
    traced: bool,
) -> (RepOut, Vec<Span>) {
    let list = JobList::for_rep(seed, index, size);
    let mut out = RepOut {
        attempted: list.seeds.len() as u64,
        ..RepOut::default()
    };

    let t = Instant::now();
    let fleet = match Fleet::start() {
        Ok(f) => f,
        Err(e) => {
            out.failed = out.attempted;
            out.errors.push(format!("fleet start: {e}"));
            return (out, Vec::new());
        }
    };
    out.set("setup_s", t.elapsed().as_secs_f64());
    let addrs = fleet.addrs();
    let poll = Duration::from_millis(spec.poll_ms());

    let origin = Instant::now();
    let cpu0 = process_cpu();
    let next = AtomicUsize::new(0);
    let outcomes: Vec<Mutex<Outcome>> = list
        .seeds
        .iter()
        .map(|_| Mutex::new(Outcome::default()))
        .collect();
    let per_thread: Vec<Vec<Span>> = std::thread::scope(|s| {
        let clients: Vec<_> = (0..measure::nproc())
            .map(|_| {
                s.spawn(|| {
                    let mut rec = traced.then(|| Recorder::new(origin));
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&s) = list.seeds.get(i) else { break };
                        let body = size.spec(s).body(spec.deadline_ms());
                        let outcome = match rec.as_mut() {
                            Some(r) => r.span("client.job", i as u64, |r| {
                                run_job(&addrs[0], &body, i as u64, poll, Some(r))
                            }),
                            None => run_job(&addrs[0], &body, i as u64, poll, None),
                        };
                        *outcomes[i].lock().expect("outcome slot") = outcome;
                    }
                    rec.map(Recorder::into_spans).unwrap_or_default()
                })
            })
            .collect();
        clients
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let wall = origin.elapsed().as_secs_f64();
    let cpu = (process_cpu() - cpu0).as_secs_f64();
    let outcomes: Vec<Outcome> = outcomes
        .into_iter()
        .map(|m| m.into_inner().expect("outcome slot"))
        .collect();

    let pages: Vec<BTreeMap<String, u64>> = addrs.iter().map(|a| scrape(a)).collect();
    Fleet::stop(fleet);

    // Output checks: every result's rows against the in-process rows.
    let spans = span::merge(per_thread);
    let mut rows = vec![String::new(); expected.len()];
    let mut penalties = Vec::new();
    let mut rejected = 0u64;
    for (i, o) in outcomes.iter().enumerate() {
        let u = usize::try_from(list.seeds[i]).expect("seeds are below spread");
        rejected += u64::from(o.rejected);
        if let Some(e) = &o.error {
            out.fail(format!("job {i}: {e}"));
            continue;
        }
        match rows_of(&o.result) {
            Some(got) if expected.get(u).is_some_and(|e| e == got) => {
                if rows[u].is_empty() {
                    rows[u] = got.to_string();
                    match o.penalty.or_else(|| penalty_of(&o.result)) {
                        Some(p) => penalties.push(p),
                        None => out.fail(format!("job {i}: result does not parse")),
                    }
                }
            }
            _ => out.fail(format!(
                "job {i}: served rows differ from the in-process rows"
            )),
        }
    }
    out.rows = rows.concat();

    let latencies: Vec<f64> = outcomes
        .iter()
        .filter(|o| o.error.is_none())
        .map(|o| o.latency_ms)
        .collect();
    let completed = latencies.len() as f64;
    let c = &pages[0];
    let get = |k: &str| c.get(k).copied().unwrap_or(0);
    let nodes_sum = |k: &str| {
        pages[1..]
            .iter()
            .map(|p| p.get(k).copied().unwrap_or(0))
            .sum::<u64>()
    };
    let accepted = get("smtx_coord_jobs_accepted");
    let deduped = get("smtx_coord_jobs_deduped");
    let paper = spec.paper_fig5_average(MECHANISM.2);
    let gap = (penalties.iter().sum::<f64>() / penalties.len().max(1) as f64 - paper).abs() / paper
        * 100.0;
    let q_ms = |h: [u64; 8]| hist_quantile_ms(&h, 50).map_or(0.0, |v| v as f64);

    out.set("wall_s", wall);
    out.set("cpu_s", cpu);
    out.set("peak_rss_mb", measure::peak_rss_mb());
    out.set("jobs_per_s", completed / wall);
    out.set("fleet.repeat_share", list.repeat_share());
    out.set("fleet.job_p50_ms", median(&latencies));
    out.set("fleet.job_p90_ms", quantile(&latencies, 0.9));
    out.set("model.paper_gap_pct", gap);
    out.set(
        "serve.polls_per_job",
        outcomes.iter().map(|o| o.polls).sum::<u64>() as f64 / completed.max(1.0),
    );
    out.set(
        "serve.queue_wait_p50_ms",
        q_ms(hist(&pages[1..], "smtxd_queue_wait_ms")),
    );
    out.set(
        "serve.exec_p50_ms",
        q_ms(hist(&pages[1..], "smtxd_exec_ms")),
    );
    out.set(
        "serve.rejected",
        (rejected
            + get("smtx_coord_jobs_rejected_full")
            + get("smtx_coord_jobs_rejected_shutdown")
            + nodes_sum("smtxd_jobs_rejected_full")
            + nodes_sum("smtxd_jobs_rejected_shutdown")) as f64,
    );
    out.set(
        "fleet.hit_ratio",
        deduped as f64 / (accepted + deduped).max(1) as f64,
    );
    out.set(
        "fleet.cross_node_hits",
        get("smtx_coord_store_cross_node_hits") as f64,
    );
    out.set("fleet.steals", get("smtx_coord_steals") as f64);
    out.set("fleet.redispatches", get("smtx_coord_redispatches") as f64);
    if traced {
        out.set("trace.wall_s", wall);
        out.set(
            "serve.submit_ms",
            median(&span::durations_ms(&spans, "serve.submit")),
        );
        out.set(
            "json.parse_ms",
            median(&span::durations_ms(&spans, "json.parse")),
        );
        for (layer, s) in span::layer_self_s(&spans) {
            out.set(&format!("self.{layer}_s"), s);
        }
    }
    let failures = get("smtx_coord_jobs_failed") + get("smtx_coord_deadline_expired");
    if failures > 0 {
        out.fail(format!(
            "the coordinator reports {failures} failed or expired jobs"
        ));
    }
    // Each distinct spec is accepted once and every repeat deduplicated,
    // whichever client submits first; a dedup race shows here.
    out.set_exact("fleet.jobs_accepted", accepted);
    out.set_exact("fleet.jobs_deduped", deduped);
    (out, spans)
}
