//! The four interprocedural rules.
//!
//! On top of the resolved summaries from [`crate::resolve`] (built from
//! the [`SCOPE2`] files only), this module runs workspace-global
//! fixpoints and emits findings for:
//!
//! - **lock-order** — build the acquired-while-held graph over lock
//!   classes (direct acquisitions plus, transitively, the acquire-set of
//!   every callee, with `SelfLock` substituted at call sites) and report
//!   every cycle with a witness site per edge. Any cycle is a potential
//!   deadlock between two threads taking the locks in opposite orders.
//! - **no-lock-across-io** — no lock class may be held across an I/O
//!   operation, directly or through a call chain that reaches one.
//! - **no-blocking-in-reactor** — functions reachable from event-loop
//!   callbacks (`Router`/`Streamer` impls) must not perform blocking
//!   operations (I/O, `Condvar` waits, `thread::sleep`, `join`).
//!   Closures handed to `thread::spawn` are separate roots, not part of
//!   the spawning function, so fire-and-forget shutdown helpers stay
//!   clean.
//! - **digest-taint** — every `MachineConfig` field read during
//!   `Machine` stepping must be covered by `MachineConfig::digest`, and
//!   scheduling-only knobs (checkpoint intervals, idle skipping,
//!   tracing) must *not* be digested: they may not change simulated
//!   results, so digesting them would split result-cache keys that are
//!   semantically identical.
//!
//! Soundness: unresolvable calls (trait objects, std library) are
//! leaves assumed not to lock or block — the documented
//! under-approximation (DESIGN.md §11). Everything the resolver *can*
//! see is over-approximated: a lock is considered held from acquisition
//! to the end of its lexical extent, and all calls in that span count.

use std::collections::{BTreeMap, BTreeSet};

use crate::resolve::{substitute, Class, FnId, RSummary, Workspace};
use crate::rules::LintViolation;
use crate::summaries::FileFacts;

/// Crates covered by the interprocedural analysis.
pub const SCOPE2: [&str; 6] = [
    "crates/core/src/",
    "crates/bench/src/",
    "crates/serve/src/",
    "crates/fleet/src/",
    "crates/util/src/",
    "crates/asm/src/",
];

/// Event-loop callback traits: impls of these are reactor roots.
const REACTOR_TRAITS: [&str; 2] = ["Router", "Streamer"];

/// Scheduling-only knobs that must never enter the config digest.
const DIGEST_DENY: [&str; 6] = ["intervals", "idle_skip", "epoch_len", "check", "trace", "tracer"];

/// The digest-taint rule's view of `MachineConfig`.
#[derive(Debug, Clone, Default)]
pub struct DigestReport {
    /// All declared `MachineConfig` fields.
    pub fields: Vec<String>,
    /// Fields written into the digest by `MachineConfig::digest`.
    pub digested: Vec<String>,
    /// Fields read inside the stepping scope (`machine/`, `window.rs`).
    pub read: Vec<String>,
}

fn fn_label(ws: &Workspace, id: FnId) -> String {
    let fun = ws.fun(id);
    match &fun.self_ty {
        Some(ty) => format!("{ty}::{}", fun.name),
        None => fun.name.clone(),
    }
}

/// Runs the four rules over the [`SCOPE2`] files' facts. Findings come
/// back unallowed and unsorted; the caller applies `lint:allow` and the
/// one reporting order to every rule at once.
#[must_use]
#[allow(clippy::too_many_lines)]
pub(crate) fn interprocedural(files: Vec<FileFacts>) -> (Vec<LintViolation>, DigestReport) {
    let ws = Workspace::build(files);
    let gc = ws.guard_classes();
    let ids: Vec<FnId> = ws.live_fns().collect();
    let sums: BTreeMap<FnId, RSummary> = ids.iter().map(|id| (*id, ws.summarize(*id, &gc))).collect();
    let path_of = |id: FnId| ws.files[id.file].path.clone();
    let mut findings: Vec<LintViolation> = Vec::new();

    // --- transitive acquire sets (lock-order) ---
    let mut trans_acq: BTreeMap<FnId, BTreeSet<Class>> = ids
        .iter()
        .map(|id| (*id, sums[id].acquires.iter().map(|a| a.class.clone()).collect()))
        .collect();
    loop {
        let mut changed = false;
        for id in &ids {
            let mut add: BTreeSet<Class> = BTreeSet::new();
            for c in &sums[id].calls {
                for k in &trans_acq[&c.callee] {
                    add.insert(substitute(k.clone(), c.recv_lock.as_ref()));
                }
            }
            let set = trans_acq.get_mut(id).expect("seeded");
            for k in add {
                changed |= set.insert(k);
            }
        }
        if !changed {
            break;
        }
    }

    // --- acquired-while-held edge graph, with one witness per edge ---
    type Witness = (String, usize, String); // (path, line, description)
    let mut edges: BTreeMap<(Class, Class), Witness> = BTreeMap::new();
    let mut record = |from: &Class, to: &Class, w: Witness| {
        if from == to || *from == Class::SelfLock || *to == Class::SelfLock {
            return;
        }
        edges.entry((from.clone(), to.clone())).or_insert(w);
    };
    for id in &ids {
        let s = &sums[id];
        for a in &s.acquires {
            for h in &a.held {
                let desc =
                    format!("`{h}` held while acquiring `{}` via {} in {}", a.class, a.what, fn_label(&ws, *id));
                record(h, &a.class, (path_of(*id), a.line, desc));
            }
        }
        for c in &s.calls {
            if c.held.is_empty() {
                continue;
            }
            for k in &trans_acq[&c.callee] {
                let k = substitute(k.clone(), c.recv_lock.as_ref());
                for h in &c.held {
                    let desc = format!(
                        "`{h}` held across call to {}(), which acquires `{k}` (in {})",
                        c.name,
                        fn_label(&ws, *id)
                    );
                    record(h, &k, (path_of(*id), c.line, desc));
                }
            }
        }
    }
    let mut adj: BTreeMap<Class, BTreeSet<Class>> = BTreeMap::new();
    for (from, to) in edges.keys() {
        adj.entry(from.clone()).or_default().insert(to.clone());
    }
    let mut cycles: BTreeSet<Vec<Class>> = BTreeSet::new();
    for start in adj.keys() {
        let mut stack = vec![(start.clone(), vec![start.clone()])];
        while let Some((cur, route)) = stack.pop() {
            let Some(nexts) = adj.get(&cur) else { continue };
            for n in nexts {
                if n == start && route.len() >= 2 {
                    cycles.insert(route.clone());
                } else if n > start && !route.contains(n) && route.len() < 12 {
                    let mut r = route.clone();
                    r.push(n.clone());
                    stack.push((n.clone(), r));
                }
            }
        }
    }
    for cycle in &cycles {
        let mut parts = Vec::new();
        let mut anchor: Option<(String, usize)> = None;
        for i in 0..cycle.len() {
            let from = &cycle[i];
            let to = &cycle[(i + 1) % cycle.len()];
            if let Some((p, l, d)) = edges.get(&(from.clone(), to.clone())) {
                if anchor.is_none() {
                    anchor = Some((p.clone(), *l));
                }
                parts.push(format!("{p}:{l}: {d}"));
            }
        }
        let ring: Vec<String> = cycle.iter().chain(cycle.first()).map(|c| format!("`{c}`")).collect();
        let (path, line) = anchor.unwrap_or_default();
        findings.push(LintViolation {
            path,
            line,
            rule: "lock-order",
            message: format!(
                "lock-order cycle {}: two threads taking these locks in opposite order can \
                 deadlock; witnesses: {}",
                ring.join(" -> "),
                parts.join("; ")
            ),
            allowed: false,
        });
    }

    // --- transitive I/O / blocking reach (first witness, synchronous rounds) ---
    let reach = |want_io: bool| -> BTreeMap<FnId, String> {
        let mut map: BTreeMap<FnId, String> = BTreeMap::new();
        for id in &ids {
            if let Some(op) = sums[id].ops.iter().find(|o| !want_io || o.io) {
                map.insert(*id, format!("{} at {}:{}", op.what, path_of(*id), op.line));
            }
        }
        loop {
            let mut add: Vec<(FnId, String)> = Vec::new();
            for id in &ids {
                if map.contains_key(id) {
                    continue;
                }
                if let Some(c) = sums[id].calls.iter().find(|c| map.contains_key(&c.callee)) {
                    add.push((*id, format!("{}() -> {}", c.name, map[&c.callee])));
                }
            }
            if add.is_empty() {
                break;
            }
            for (id, d) in add {
                map.insert(id, d);
            }
        }
        map
    };
    let trans_io = reach(true);

    // --- no-lock-across-io ---
    for id in &ids {
        let s = &sums[id];
        for op in &s.ops {
            if !op.io || op.held.is_empty() {
                continue;
            }
            let held: Vec<String> = op.held.iter().map(|h| format!("`{h}`")).collect();
            findings.push(LintViolation {
                path: path_of(*id),
                line: op.line,
                rule: "no-lock-across-io",
                message: format!(
                    "lock class {} held across I/O ({} in {}): drop the guard before \
                     touching the stream, or justify with `// lint:allow(no-lock-across-io): ...`",
                    held.join(", "),
                    op.what,
                    fn_label(&ws, *id)
                ),
                allowed: false,
            });
        }
        for c in &s.calls {
            if c.held.is_empty() {
                continue;
            }
            if let Some(desc) = trans_io.get(&c.callee) {
                let held: Vec<String> = c.held.iter().map(|h| format!("`{h}`")).collect();
                findings.push(LintViolation {
                    path: path_of(*id),
                    line: c.line,
                    rule: "no-lock-across-io",
                    message: format!(
                        "lock class {} held across call to {}(), which reaches I/O: {}",
                        held.join(", "),
                        c.name,
                        desc
                    ),
                    allowed: false,
                });
            }
        }
    }

    // --- no-blocking-in-reactor: BFS from Router/Streamer impls ---
    let roots: Vec<FnId> = ids
        .iter()
        .copied()
        .filter(|id| {
            ws.fun(*id).trait_name.as_deref().is_some_and(|t| REACTOR_TRAITS.contains(&t))
        })
        .collect();
    let mut origin: BTreeMap<FnId, String> = BTreeMap::new();
    let mut queue: Vec<FnId> = Vec::new();
    for r in &roots {
        origin.insert(*r, fn_label(&ws, *r));
        queue.push(*r);
    }
    let mut qi = 0;
    while qi < queue.len() {
        let id = queue[qi];
        qi += 1;
        let via = origin[&id].clone();
        for c in &sums[&id].calls {
            if let std::collections::btree_map::Entry::Vacant(e) = origin.entry(c.callee) {
                e.insert(format!("{} -> {}", via, fn_label(&ws, c.callee)));
                queue.push(c.callee);
            }
        }
    }
    let mut seen_sites: BTreeSet<(String, usize)> = BTreeSet::new();
    for id in &queue {
        for op in &sums[id].ops {
            let site = (path_of(*id), op.line);
            if !seen_sites.insert(site.clone()) {
                continue;
            }
            findings.push(LintViolation {
                path: site.0,
                line: site.1,
                rule: "no-blocking-in-reactor",
                message: format!(
                    "blocking operation ({}) reachable from event-loop callback: {}; \
                     reactor callbacks must hand blocking work to worker threads",
                    op.what, origin[id]
                ),
                allowed: false,
            });
        }
    }

    // --- digest-taint ---
    let mut digest = DigestReport::default();
    let mut digested_at: BTreeMap<String, (String, usize)> = BTreeMap::new();
    for f in &ws.files {
        for (name, fields) in &f.structs {
            if name == "MachineConfig" {
                digest.fields = fields.iter().map(|(n, _, _)| n.clone()).collect();
            }
        }
        for fun in &f.fns {
            if fun.name == "digest" && fun.self_ty.as_deref() == Some("MachineConfig") && !fun.is_test
            {
                for (field, line) in &fun.digest_writes {
                    digested_at
                        .entry(field.clone())
                        .or_insert_with(|| (f.path.clone(), *line));
                }
            }
        }
    }
    digest.digested = digested_at.keys().cloned().collect();
    let mut read_at: BTreeMap<String, (String, usize)> = BTreeMap::new();
    for f in &ws.files {
        let stepping = f.path.starts_with("crates/core/src/machine")
            || f.path == "crates/core/src/window.rs";
        if !stepping {
            continue;
        }
        for (field, line) in &f.config_reads {
            if digest.fields.contains(field) {
                read_at.entry(field.clone()).or_insert_with(|| (f.path.clone(), *line));
            }
        }
    }
    digest.read = read_at.keys().cloned().collect();
    if !digest.fields.is_empty() {
        for (field, (path, line)) in &read_at {
            if !digested_at.contains_key(field) {
                findings.push(LintViolation {
                    path: path.clone(),
                    line: *line,
                    rule: "digest-taint",
                    message: format!(
                        "MachineConfig field `{field}` is read during stepping but not \
                         covered by MachineConfig::digest(): two configs differing in \
                         `{field}` would share a result-cache key"
                    ),
                    allowed: false,
                });
            }
        }
        for (field, (path, line)) in &digested_at {
            if DIGEST_DENY.contains(&field.as_str()) {
                findings.push(LintViolation {
                    path: path.clone(),
                    line: *line,
                    rule: "digest-taint",
                    message: format!(
                        "scheduling-only knob `{field}` must not enter MachineConfig::digest(): \
                         it cannot change simulated results, so digesting it splits \
                         semantically identical cache keys"
                    ),
                    allowed: false,
                });
            }
        }
    }

    (findings, digest)
}

#[cfg(test)]
mod tests {
    use crate::{analyze_sources, Analysis};

    fn run(files: &[(&str, &str)]) -> Analysis {
        let owned: Vec<(String, String)> =
            files.iter().map(|(p, s)| ((*p).to_string(), (*s).to_string())).collect();
        analyze_sources(&owned)
    }

    #[test]
    fn opposite_lock_order_is_a_cycle() {
        let a = run(&[(
            "crates/fleet/src/coord.rs",
            "struct A { m: Mutex<u64> } struct B { n: Mutex<u64> }\n\
             impl A { fn f(&self, b: &B) { let g = self.m.lock().unwrap(); b.n.lock().unwrap(); } }\n\
             impl B { fn f(&self, a: &A) { let g = self.n.lock().unwrap(); a.m.lock().unwrap(); } }",
        )]);
        let cycles: Vec<_> = a.findings.iter().filter(|f| f.rule == "lock-order").collect();
        assert_eq!(cycles.len(), 1, "{:?}", a.findings);
        assert!(cycles[0].message.contains("A.m"), "{}", cycles[0].message);
    }

    #[test]
    fn consistent_lock_order_is_clean() {
        let a = run(&[(
            "crates/fleet/src/coord.rs",
            "struct A { m: Mutex<u64> } struct B { n: Mutex<u64> }\n\
             impl A { fn f(&self, b: &B) { let g = self.m.lock().unwrap(); b.n.lock().unwrap(); } }\n\
             impl B { fn g(&self) { let g = self.n.lock().unwrap(); } }",
        )]);
        assert!(a.findings.iter().all(|f| f.rule != "lock-order"), "{:?}", a.findings);
    }

    #[test]
    fn io_under_guard_fires_and_dropped_guard_is_clean() {
        let fire = run(&[(
            "crates/bench/src/runner.rs",
            "struct R { f: Mutex<u64> }\n\
             impl R { fn w(&self, s: &mut TcpStream) { let g = self.f.lock().unwrap(); \
             s.write_all(b\"x\").ok(); } }",
        )]);
        assert_eq!(
            fire.findings.iter().filter(|f| f.rule == "no-lock-across-io").count(),
            1,
            "{:?}",
            fire.findings
        );
        let clean = run(&[(
            "crates/bench/src/runner.rs",
            "struct R { f: Mutex<u64> }\n\
             impl R { fn w(&self, s: &mut TcpStream) { let g = self.f.lock().unwrap(); \
             drop(g); s.write_all(b\"x\").ok(); } }",
        )]);
        assert!(
            clean.findings.iter().all(|f| f.rule != "no-lock-across-io"),
            "{:?}",
            clean.findings
        );
    }

    #[test]
    fn transitive_io_through_a_callee_is_found() {
        let a = run(&[(
            "crates/serve/src/server.rs",
            "struct S { m: Mutex<u64> }\n\
             impl S { fn hot(&self, t: &mut TcpStream) { let g = self.m.lock().unwrap(); \
             self.emit(t); }\n\
             fn emit(&self, t: &mut TcpStream) { t.write_all(b\"x\").ok(); } }",
        )]);
        let v: Vec<_> = a.findings.iter().filter(|f| f.rule == "no-lock-across-io").collect();
        assert_eq!(v.len(), 1, "{:?}", a.findings);
        assert!(v[0].message.contains("emit"), "{}", v[0].message);
    }

    #[test]
    fn reactor_reaching_sleep_fires_but_spawned_closure_does_not() {
        let fire = run(&[(
            "crates/serve/src/server.rs",
            "struct D { n: u64 }\n\
             impl Router for D { fn route(&self) { self.slow(); } }\n\
             impl D { fn slow(&self) { std::thread::sleep(d); } }",
        )]);
        let v: Vec<_> =
            fire.findings.iter().filter(|f| f.rule == "no-blocking-in-reactor").collect();
        assert_eq!(v.len(), 1, "{:?}", fire.findings);
        assert!(v[0].message.contains("D::route"), "{}", v[0].message);
        let clean = run(&[(
            "crates/serve/src/server.rs",
            "struct D { n: u64 }\n\
             impl Router for D { fn route(&self) { \
             std::thread::spawn(move || { std::thread::sleep(d); }); } }",
        )]);
        assert!(
            clean.findings.iter().all(|f| f.rule != "no-blocking-in-reactor"),
            "{:?}",
            clean.findings
        );
    }

    #[test]
    fn mutual_recursion_terminates_and_still_reports() {
        let a = run(&[(
            "crates/fleet/src/coord.rs",
            "struct A { m: Mutex<u64> } struct B { n: Mutex<u64> }\n\
             impl A { fn f(&self, b: &B, d: u64) { let g = self.m.lock().unwrap(); b.g(self, d); } }\n\
             impl B { fn g(&self, a: &A, d: u64) { let g = self.n.lock().unwrap(); a.f(self, d); } }",
        )]);
        assert_eq!(a.findings.iter().filter(|f| f.rule == "lock-order").count(), 1);
    }

    #[test]
    fn digest_membership_both_directions() {
        let config = "pub struct MachineConfig { pub width: u64, pub intervals: u64 }\n\
                      impl MachineConfig { pub fn digest(&self) -> u64 { \
                      h.write_u64(self.width); 0 } }";
        let machine = "fn step(config: &MachineConfig) { let w = config.width; }";
        let clean = run(&[
            ("crates/core/src/config.rs", config),
            ("crates/core/src/machine/mod.rs", machine),
        ]);
        assert!(clean.findings.is_empty(), "{:?}", clean.findings);
        assert_eq!(clean.digest.digested, vec!["width".to_string()]);

        // A stepping read of an undigested field fires.
        let fire = run(&[
            ("crates/core/src/config.rs", config),
            (
                "crates/core/src/machine/mod.rs",
                "fn step(config: &MachineConfig) { let w = config.width + config.intervals; }",
            ),
        ]);
        assert_eq!(fire.findings.len(), 1, "{:?}", fire.findings);
        assert!(fire.findings[0].message.contains("intervals"));

        // Digesting a deny-listed knob fires.
        let fire2 = run(&[
            (
                "crates/core/src/config.rs",
                "pub struct MachineConfig { pub width: u64, pub intervals: u64 }\n\
                 impl MachineConfig { pub fn digest(&self) -> u64 { \
                 h.write_u64(self.width); h.write_u64(self.intervals); 0 } }",
            ),
            ("crates/core/src/machine/mod.rs", machine),
        ]);
        assert_eq!(fire2.findings.len(), 1, "{:?}", fire2.findings);
        assert!(fire2.findings[0].message.contains("scheduling-only"));
    }

    #[test]
    fn allow_directive_marks_findings_allowed() {
        let a = run(&[(
            "crates/bench/src/runner.rs",
            "struct R { f: Mutex<u64> }\n\
             impl R {\n\
             // lint:allow(no-lock-across-io): segment appends are serialized on purpose\n\
             fn w(&self, s: &mut TcpStream) {\n\
             let g = self.f.lock().unwrap();\n\
             s.write_all(b\"x\").ok(); } }",
        )]);
        let v: Vec<_> = a.findings.iter().filter(|f| f.rule == "no-lock-across-io").collect();
        assert_eq!(v.len(), 1, "{:?}", a.findings);
        assert!(v[0].allowed, "{v:?}");
        assert!(a.errors().is_empty());
    }
}
