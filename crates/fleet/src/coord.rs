//! `smtx-coord`: the fleet coordinator.
//!
//! The coordinator fronts N `smtxd` nodes behind the **same HTTP API** a
//! single node speaks — it *is* the node's job service
//! ([`smtx_serve::Service`], router, batch stream) with a [`Remote`]
//! executor in place of the node's local runner, so `smtx-client` and the
//! load generator work against either unchanged. What the executor adds
//! (DESIGN.md §15):
//!
//! * **Sharded placement** — each job's home node is a pure function of
//!   its spec digest ([`home_of`]), so the same spec always lands on the
//!   same node and re-uses that node's runner caches. `--placement` can
//!   swap in round-robin placement.
//! * **Work stealing** — when a job's home node already has
//!   `steal_depth` jobs outstanding, the job is dispatched to the
//!   least-loaded alive node instead (counted in `smtx_coord_steals`).
//! * **Shared result store** — the job table's finished records are the
//!   fleet's content-addressed result store: keyed by spec digest, each
//!   remembering its producing node. A submission whose result is stored
//!   is answered without dispatching; hits produced by a *different* node
//!   than placement would pick now are counted as
//!   `smtx_coord_store_cross_node_hits`.
//! * **Failure redispatch** — a node that stops answering mid-job is
//!   marked dead; its in-flight jobs re-queue (front of the line) and run
//!   elsewhere, bounded by each job's deadline. Results are byte-identical
//!   wherever they run — the simulator is deterministic.
//!
//! Dispatchers forward jobs over the node's own public API (`POST
//! /v1/jobs`, then status polls) as the canonical [`JobSpec::to_json`]
//! body with `deadline_ms` set to the time actually remaining —
//! `deadline_ms` is not part of the spec digest, so the job id is
//! identical on the node and the coordinator.

use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use smtx_serve::http::client_request;
use smtx_serve::json::Json;
use smtx_serve::server::{self, Handle};
use smtx_serve::{Exec, Executor, JobSpec, Service, ServiceConfig};
use smtx_util::StableHasher;

/// How a job picks its node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// Home node = spec digest modulo node count ([`home_of`]): the same
    /// spec always lands on the same node and reuses its runner caches.
    Shard,
    /// Rotate through nodes in dispatch order. Store hits do **not**
    /// advance the pointer — a served-from-store job dispatched nothing.
    RoundRobin,
}

impl Placement {
    /// Parses a `--placement` flag value.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Placement> {
        match name {
            "shard" => Some(Placement::Shard),
            "round-robin" => Some(Placement::RoundRobin),
            _ => None,
        }
    }

    /// The flag spelling.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Placement::Shard => "shard",
            Placement::RoundRobin => "round-robin",
        }
    }
}

/// The home node of job `id` among `nodes` nodes: a stable hash of the
/// digest, so placement is a pure function of the spec (and of nothing
/// else — not arrival order, not load).
#[must_use]
pub fn home_of(id: &str, nodes: usize) -> usize {
    if nodes == 0 {
        return 0;
    }
    let mut h = StableHasher::new();
    h.write(id.as_bytes());
    usize::try_from(h.finish() % nodes as u64).unwrap_or(0)
}

/// Tuning knobs for one coordinator instance.
#[derive(Debug, Clone)]
pub struct CoordConfig {
    /// Node addresses (`HOST:PORT`), in shard order.
    pub nodes: Vec<String>,
    /// Placement policy.
    pub placement: Placement,
    /// Dispatcher threads forwarding jobs to nodes.
    pub dispatchers: usize,
    /// Steal threshold: a home node with this many jobs outstanding is
    /// "deep", and new work for it goes to the least-loaded node instead.
    pub steal_depth: u64,
    /// Most jobs allowed to wait for a dispatcher (backpressure bound).
    pub queue_cap: usize,
    /// Most finished job records retained (LRU beyond) — the finished
    /// records are the fleet's result store.
    pub results_cap: usize,
    /// Deadline applied to jobs that do not request one, milliseconds.
    pub default_deadline_ms: u64,
    /// Per-request timeout against a node, milliseconds — also how fast a
    /// dead node is detected.
    pub node_timeout_ms: u64,
    /// Status-poll interval while a job runs on a node, milliseconds.
    pub poll_ms: u64,
}

impl Default for CoordConfig {
    fn default() -> CoordConfig {
        CoordConfig {
            nodes: Vec::new(),
            placement: Placement::Shard,
            dispatchers: 8,
            steal_depth: 2,
            queue_cap: 256,
            results_cap: 512,
            default_deadline_ms: 600_000,
            node_timeout_ms: 5_000,
            poll_ms: 20,
        }
    }
}

/// One fleet member as the coordinator sees it.
#[derive(Debug)]
pub struct Node {
    /// The node's `HOST:PORT`.
    pub addr: String,
    alive: AtomicBool,
    outstanding: AtomicU64,
    dispatched: AtomicU64,
}

impl Node {
    /// Whether the node is still considered reachable.
    #[must_use]
    pub fn alive(&self) -> bool {
        self.alive.load(Ordering::Relaxed)
    }

    /// Jobs currently dispatched to the node and not yet terminal.
    #[must_use]
    pub fn outstanding(&self) -> u64 {
        self.outstanding.load(Ordering::Relaxed)
    }

    /// Total jobs ever dispatched to the node.
    #[must_use]
    pub fn dispatched(&self) -> u64 {
        self.dispatched.load(Ordering::Relaxed)
    }
}

/// The executor that runs each job on a fleet node: placement, stealing,
/// forwarding, and node-failure handling. All counters are relaxed:
/// observability only.
#[derive(Debug)]
pub struct Remote {
    /// Tuning knobs the coordinator was built with.
    pub config: CoordConfig,
    /// Fleet members, in shard order.
    pub nodes: Vec<Node>,
    /// The round-robin pointer.
    rr_next: AtomicUsize,
    /// Submissions answered from a stored result (no dispatch).
    store_hits: AtomicU64,
    /// Store hits whose producing node differs from where placement would
    /// send the job now — one node's work reused in another's stead.
    store_cross_node_hits: AtomicU64,
    /// Results fetched from nodes into the store.
    store_insertions: AtomicU64,
    /// Stored results LRU-evicted from the job table.
    store_evictions: AtomicU64,
    /// Jobs dispatched away from a live home node that had reached the
    /// steal depth.
    steals: AtomicU64,
    /// Jobs re-queued after their node died or went unreachable mid-run.
    redispatches: AtomicU64,
}

/// A running coordinator: bound address, shared service, reactor handle.
pub type CoordHandle = Handle<Remote>;

impl Remote {
    /// An executor over `config.nodes`, all presumed alive.
    fn new(config: CoordConfig) -> Remote {
        let nodes = config
            .nodes
            .iter()
            .map(|addr| Node {
                addr: addr.clone(),
                alive: AtomicBool::new(true),
                outstanding: AtomicU64::new(0),
                dispatched: AtomicU64::new(0),
            })
            .collect();
        Remote {
            config,
            nodes,
            rr_next: AtomicUsize::new(0),
            store_hits: AtomicU64::new(0),
            store_cross_node_hits: AtomicU64::new(0),
            store_insertions: AtomicU64::new(0),
            store_evictions: AtomicU64::new(0),
            steals: AtomicU64::new(0),
            redispatches: AtomicU64::new(0),
        }
    }

    fn inc(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Where placement *would* send job `id` right now, without committing
    /// anything (round-robin does not advance). Used to classify store
    /// hits as same-node or cross-node.
    fn peek_target(&self, id: &str) -> usize {
        match self.config.placement {
            Placement::Shard => home_of(id, self.nodes.len()),
            Placement::RoundRobin => self.rr_next.load(Ordering::Relaxed) % self.nodes.len().max(1),
        }
    }

    /// The alive node with the fewest outstanding jobs (ties to the lowest
    /// index); `None` when every node is dead.
    fn least_loaded(&self) -> Option<usize> {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.alive())
            .min_by_key(|(i, n)| (n.outstanding(), *i))
            .map(|(i, _)| i)
    }

    /// Commits a placement for `id` and reserves a slot on the chosen node:
    /// home per policy, stolen to the least-loaded node when the home is
    /// dead or `steal_depth` deep. The home's depth check and reservation
    /// are one atomic step, so concurrent dispatchers cannot all squeeze
    /// onto a shallow home.
    fn place(&self, id: &str) -> Option<usize> {
        let n = self.nodes.len();
        if n == 0 {
            return None;
        }
        let home = match self.config.placement {
            Placement::Shard => home_of(id, n),
            Placement::RoundRobin => self.rr_next.fetch_add(1, Ordering::Relaxed) % n,
        };
        let node = &self.nodes[home];
        let reserved = node.alive()
            && node
                .outstanding
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |o| {
                    (o < self.config.steal_depth).then_some(o + 1)
                })
                .is_ok();
        let chosen = if reserved {
            home
        } else {
            let chosen = self.least_loaded()?;
            // Routing around a dead home is failover (counted per job as a
            // redispatch when it dies mid-run), not a steal; only a live-
            // but-deep home counts.
            if node.alive() && chosen != home {
                Self::inc(&self.steals);
            }
            self.nodes[chosen].outstanding.fetch_add(1, Ordering::Relaxed);
            chosen
        };
        self.nodes[chosen].dispatched.fetch_add(1, Ordering::Relaxed);
        Some(chosen)
    }

    /// Marks node `ix` dead; the job goes back to the front of the queue —
    /// it has waited longest.
    fn down(&self, ix: usize, why: String) -> Exec {
        self.nodes[ix].alive.store(false, Ordering::Relaxed);
        Self::inc(&self.redispatches);
        Exec::Retry { front: true, reason: format!("last node error: {why}") }
    }

    /// Node-facing timeout: never longer than the job has left to live.
    fn node_timeout(&self, deadline: Instant) -> Duration {
        Duration::from_millis(self.config.node_timeout_ms)
            .min(deadline.saturating_duration_since(Instant::now()))
            .max(Duration::from_millis(10))
    }

    /// Forwards one job to node `ix` over its public API and waits for a
    /// terminal state, bounded by the job's deadline.
    fn forward(&self, ix: usize, id: &str, spec: &JobSpec, deadline: Instant) -> Exec {
        let expired = || Exec::Failed { error: "deadline exceeded".to_string(), transient: true };
        let addr = &self.nodes[ix].addr;
        let remaining = deadline.saturating_duration_since(Instant::now());
        if remaining.is_zero() {
            return expired();
        }
        let mut body = spec.to_json();
        let left_ms = u64::try_from(remaining.as_millis()).unwrap_or(u64::MAX).max(1);
        body.set("deadline_ms", Json::num_u64(left_ms));
        let timeout = self.node_timeout(deadline);
        let resp = match client_request(addr, "POST", "/v1/jobs", Some(&body.to_text()), timeout) {
            Ok(r) => r,
            Err(e) => return self.down(ix, format!("submit: {e}")),
        };
        match resp.status {
            200 | 202 => {}
            429 => {
                // The node queue pushed back; give it a beat, then requeue
                // at the back (the node stays alive).
                std::thread::sleep(Duration::from_millis(10));
                return Exec::Retry {
                    front: false,
                    reason: format!("last node error: node {ix} queue full"),
                };
            }
            503 => return self.down(ix, "node draining".to_string()),
            s => {
                return Exec::Failed {
                    error: format!("node {ix} rejected job ({s}): {}", resp.body.trim()),
                    transient: false,
                }
            }
        }
        loop {
            if Instant::now() > deadline {
                return expired();
            }
            std::thread::sleep(Duration::from_millis(self.config.poll_ms.max(1)));
            let path = format!("/v1/jobs/{id}");
            let st = match client_request(addr, "GET", &path, None, self.node_timeout(deadline)) {
                Ok(r) => r,
                Err(e) => return self.down(ix, format!("status poll: {e}")),
            };
            if st.status != 200 {
                // A vanished record (node restarted, result evicted) is
                // indistinguishable from loss — recompute elsewhere.
                return self.down(ix, format!("status poll answered {}", st.status));
            }
            let parsed = Json::parse(&st.body).ok();
            let field = |key: &str| {
                parsed.as_ref().and_then(|v| v.get(key)).and_then(Json::as_str).map(String::from)
            };
            match field("state").as_deref() {
                Some("done") => {
                    let path = format!("/v1/jobs/{id}/result");
                    let timeout = self.node_timeout(deadline);
                    let res = match client_request(addr, "GET", &path, None, timeout) {
                        Ok(r) => r,
                        Err(e) => return self.down(ix, format!("result fetch: {e}")),
                    };
                    if res.status != 200 {
                        return self.down(ix, format!("result fetch answered {}", res.status));
                    }
                    Self::inc(&self.store_insertions);
                    return Exec::Done { json: res.body, trace: None, node: Some(ix) };
                }
                Some("failed") => {
                    let error = field("error").unwrap_or_else(|| "node reported failure".into());
                    // The node-side deadline is this job's own, forwarded.
                    let transient = error.starts_with("deadline exceeded");
                    return Exec::Failed { error, transient };
                }
                Some(_) => {}
                None => return self.down(ix, "malformed status payload".to_string()),
            }
        }
    }

    /// Posts `/v1/shutdown` to every node still marked alive (the
    /// `{"fleet": true}` shutdown fan-out). Errors are ignored — a node
    /// that cannot be reached is already as shut down as it gets.
    fn shutdown_fleet(&self) {
        for node in self.nodes.iter().filter(|n| n.alive()) {
            let timeout = Duration::from_millis(self.config.node_timeout_ms);
            let _ = client_request(&node.addr, "POST", "/v1/shutdown", None, timeout);
        }
    }
}

impl Executor for Remote {
    const NAMES: (&'static str, &'static str) = ("smtx_coord", "dispatchers");

    fn execute(&self, id: &str, spec: &JobSpec, deadline: Instant) -> Exec {
        let Some(ix) = self.place(id) else {
            return Exec::Failed { error: "no alive nodes".to_string(), transient: true };
        };
        let exec = self.forward(ix, id, spec, deadline);
        self.nodes[ix].outstanding.fetch_sub(1, Ordering::Relaxed);
        exec
    }

    fn hit(&self, id: &str, node: Option<usize>) {
        Self::inc(&self.store_hits);
        if node != Some(self.peek_target(id)) {
            Self::inc(&self.store_cross_node_hits);
        }
    }

    fn evicted(&self) {
        Self::inc(&self.store_evictions);
    }

    fn render_metrics(&self, out: &mut String) {
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        let insertions = load(&self.store_insertions);
        let evictions = load(&self.store_evictions);
        let lines = [
            ("store_hits", load(&self.store_hits)),
            ("store_cross_node_hits", load(&self.store_cross_node_hits)),
            ("store_insertions", insertions),
            ("store_evictions", evictions),
            ("steals", load(&self.steals)),
            ("redispatches", load(&self.redispatches)),
            // Every stored result was inserted once and leaves only by
            // eviction.
            ("store_size", insertions.saturating_sub(evictions)),
            ("nodes_total", self.nodes.len() as u64),
            ("nodes_alive", self.nodes.iter().filter(|n| n.alive()).count() as u64),
        ];
        for (name, value) in lines {
            out.push_str(&format!("smtx_coord_{name} {value}\n"));
        }
        for (i, node) in self.nodes.iter().enumerate() {
            out.push_str(&format!("smtx_coord_node_alive_{i} {}\n", u64::from(node.alive())));
            out.push_str(&format!("smtx_coord_node_outstanding_{i} {}\n", node.outstanding()));
            out.push_str(&format!("smtx_coord_node_dispatched_{i} {}\n", node.dispatched()));
        }
    }

    fn trace_refusal(&self) -> Option<&'static str> {
        Some("the coordinator does not proxy traces; fetch them from the executing node")
    }

    fn shutdown_reply(&self, body: &[u8]) -> (String, bool) {
        let fleet = Json::parse(&String::from_utf8_lossy(body))
            .ok()
            .and_then(|v| v.get("fleet").and_then(Json::as_bool))
            .unwrap_or(false);
        (format!("{{\"draining\": true, \"fleet\": {fleet}}}\n"), fleet)
    }

    fn drained(&self, pass_on: bool) {
        if pass_on {
            self.shutdown_fleet();
        }
    }
}

/// Binds `addr` and serves the job service over a [`Remote`] executor:
/// spawns the dispatcher pool and the reactor, and returns immediately.
///
/// # Errors
///
/// Fails when the address cannot be bound or no nodes were configured.
pub fn start(addr: &str, config: CoordConfig) -> std::io::Result<CoordHandle> {
    if config.nodes.is_empty() {
        return Err(std::io::Error::other("a coordinator needs at least one node"));
    }
    let listener = TcpListener::bind(addr)?;
    let table = ServiceConfig {
        workers: config.dispatchers,
        queue_cap: config.queue_cap,
        results_cap: config.results_cap,
        default_deadline_ms: config.default_deadline_ms,
        ..ServiceConfig::default()
    };
    server::serve(listener, Service::new(table, Remote::new(config)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn remote(placement: Placement, steal_depth: u64, nodes: &[&str]) -> Remote {
        Remote::new(CoordConfig {
            nodes: nodes.iter().map(|s| s.to_string()).collect(),
            placement,
            steal_depth,
            ..CoordConfig::default()
        })
    }

    #[test]
    fn home_is_a_stable_pure_function_of_the_digest() {
        assert_eq!(home_of("abc", 3), home_of("abc", 3));
        assert!(home_of("abc", 3) < 3);
        assert_eq!(home_of("anything", 1), 0);
        // Different digests spread (sanity, not a distribution claim).
        let spread: std::collections::BTreeSet<usize> =
            (0..32).map(|i| home_of(&format!("job-{i}"), 4)).collect();
        assert!(spread.len() > 1);
    }

    #[test]
    fn placement_names_round_trip() {
        for p in [Placement::Shard, Placement::RoundRobin] {
            assert_eq!(Placement::from_name(p.name()), Some(p));
        }
        assert_eq!(Placement::from_name("random"), None);
    }

    #[test]
    fn deep_home_steals_to_the_least_loaded_node() {
        let r = remote(Placement::Shard, 1, &["a:1", "b:2", "c:3"]);
        let id = "some-job";
        let home = home_of(id, 3);
        // Shallow home: stays put, no steal; the slot is now taken.
        assert_eq!(r.place(id), Some(home));
        assert_eq!(r.steals.load(Ordering::Relaxed), 0);
        // Home one deep: stolen to an idle node.
        let chosen = r.place(id).unwrap();
        assert_ne!(chosen, home);
        assert_eq!(r.steals.load(Ordering::Relaxed), 1);
        // Dead home: failover, but not a steal.
        r.nodes[home].alive.store(false, Ordering::Relaxed);
        let chosen = r.place(id).unwrap();
        assert_ne!(chosen, home);
        assert_eq!(r.steals.load(Ordering::Relaxed), 1, "no second steal");
        for n in &r.nodes {
            n.alive.store(false, Ordering::Relaxed);
        }
        assert_eq!(r.place(id), None, "no alive node, no placement");
    }

    #[test]
    fn store_hits_classify_cross_node_against_the_next_placement() {
        let r = remote(Placement::RoundRobin, 2, &["a:1", "b:2"]);
        // Round-robin would target node 0 now: node 1's result is reused
        // across the fleet boundary, node 0's is not.
        r.hit("x", Some(1));
        r.hit("y", Some(0));
        assert_eq!(r.store_hits.load(Ordering::Relaxed), 2);
        assert_eq!(r.store_cross_node_hits.load(Ordering::Relaxed), 1);
        // A hit does not advance the pointer; a placement does.
        assert_eq!(r.place("z"), Some(0));
        r.hit("y", Some(0));
        assert_eq!(r.store_cross_node_hits.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn metrics_text_carries_fleet_gauges() {
        let r = remote(Placement::Shard, 2, &["a:1", "b:2"]);
        r.nodes[1].alive.store(false, Ordering::Relaxed);
        let table = ServiceConfig { workers: 8, ..ServiceConfig::default() };
        let text = Service::new(table, r).metrics_text();
        assert!(text.contains("smtx_coord_store_hits 0\n"));
        assert!(text.contains("smtx_coord_dispatchers_total 8\n"));
        assert!(text.contains("smtx_coord_nodes_total 2\n"));
        assert!(text.contains("smtx_coord_nodes_alive 1\n"));
        assert!(text.contains("smtx_coord_node_alive_0 1\n"));
        assert!(text.contains("smtx_coord_node_alive_1 0\n"));
        assert!(text.contains("smtx_coord_queue_wait_ms_le_inf 0\n"));
    }

    #[test]
    fn shutdown_reply_reads_the_fleet_flag() {
        let r = remote(Placement::Shard, 2, &["a:1"]);
        assert!(!r.shutdown_reply(b"").1);
        let (body, fleet) = r.shutdown_reply(br#"{"fleet": true}"#);
        assert!(fleet);
        assert_eq!(body, "{\"draining\": true, \"fleet\": true}\n");
    }
}
