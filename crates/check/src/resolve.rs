//! Workspace-wide name resolution and per-function resolved summaries.
//!
//! Takes the symbolic per-file facts from [`crate::summaries`] and
//! produces, for every non-test function: lock acquisitions mapped to
//! **named lock classes**, resolved call edges (method calls through
//! receiver-type chains, free calls through same-file scope and `use`
//! aliases, path calls through associated-function and module
//! qualifiers), and blocking / I/O operations — each annotated with the
//! set of lock classes *held* at that token position, computed from
//! guard intervals (let-bound guards live to their enclosing block or a
//! `drop(g)`, temporaries to their statement).
//!
//! Lock classes come from a small annotation table ([`LOCK_CLASSES`]):
//! each `Mutex`/`RwLock`/`ShardMap` field of interest gets its own
//! class. `ShardMap`'s internal shard locks are the special
//! [`Class::SelfLock`], substituted with the concrete field class at
//! each call site (`self.checkpoints.remove(..)` acquires
//! `runner.checkpoints`), so two different `ShardMap` instances never
//! alias one class. Unannotated lock fields get a derived
//! `Owner.field` class; locks behind unresolvable receivers get a
//! per-file `stem:chain` class. Unresolvable *calls* become leaves
//! (assumed lock-, I/O- and blocking-free) — the documented
//! under-approximation of this analysis (DESIGN.md §16).

use std::collections::BTreeMap;

use crate::summaries::{CallEv, FileFacts, FnFact, GuardEv, LocalHint, OpKind};

/// A lock class: a named lock, or the shard lock of the receiving
/// `ShardMap` (substituted with the concrete field class at call sites).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum Class {
    /// `ShardMap`'s own shard locks, before substitution.
    SelfLock,
    /// A named lock class (e.g. `svc.inner`, `runner.trace_file`).
    Named(String),
}

impl std::fmt::Display for Class {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Class::SelfLock => write!(f, "<shard>"),
            Class::Named(n) => write!(f, "{n}"),
        }
    }
}

/// The lock-class annotation table: `(owner type, field, class)`.
/// `@self` marks the shard-lock vector inside `ShardMap` itself.
pub const LOCK_CLASSES: [(&str, &str, &str); 8] = [
    ("Service", "inner", "svc.inner"),
    ("Runner", "ck_lru", "runner.ck_lru"),
    ("Runner", "trace_file", "runner.trace_file"),
    ("Runner", "sims", "runner.sims"),
    ("Runner", "refs", "runner.refs"),
    ("Runner", "mixes", "runner.mixes"),
    ("Runner", "checkpoints", "runner.checkpoints"),
    ("ShardMap", "shards", "@self"),
];

/// Receiver base types whose `.read(..)` / `.write(..)` count as I/O.
pub const IO_TYPES: [&str; 5] = ["TcpStream", "TcpListener", "File", "BufWriter", "BufReader"];

/// Methods whose closure argument runs *under* the receiver's lock.
pub const CLOSURE_UNDER_LOCK: [&str; 1] = ["get_or_insert_with"];

/// Identifies a function: `(file index, fn index within the file)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct FnId {
    /// Index into the workspace's file list.
    pub file: usize,
    /// Index into that file's `fns`.
    pub idx: usize,
}

/// A struct's field table: field name → `(base type, is lock)`.
type FieldTable = BTreeMap<String, (String, bool)>;

/// The workspace: all file facts plus the name-resolution indexes.
pub struct Workspace {
    /// Per-file facts, in sorted path order.
    pub files: Vec<FileFacts>,
    /// Struct name → candidate `(file, field table)` entries.
    types: BTreeMap<String, Vec<(usize, FieldTable)>>,
    /// `(self type, method name)` → candidates.
    methods: BTreeMap<(String, String), Vec<FnId>>,
    /// Free-function name → candidates.
    free: BTreeMap<String, Vec<FnId>>,
    /// Method name → candidates across all types (unique-name fallback).
    method_names: BTreeMap<String, Vec<FnId>>,
}

/// What a receiver chain resolves to.
#[derive(Debug, Clone, Default)]
pub struct ChainInfo {
    /// Base type of the chain's value, when known.
    pub final_ty: Option<String>,
    /// Lock class, when the chain ends at a lock-carrying field.
    pub lock: Option<Class>,
}

/// One resolved lock acquisition.
#[derive(Debug, Clone)]
pub struct Acq {
    /// The acquired class.
    pub class: Class,
    /// 1-based line.
    pub line: usize,
    /// Classes already held at this site.
    pub held: Vec<Class>,
    /// Human-readable site description.
    pub what: String,
}

/// One resolved call edge.
#[derive(Debug, Clone)]
pub struct RCall {
    /// The callee.
    pub callee: FnId,
    /// Receiver's lock class (drives `SelfLock` substitution).
    pub recv_lock: Option<Class>,
    /// Classes held across the call.
    pub held: Vec<Class>,
    /// 1-based line.
    pub line: usize,
    /// Callee name as written.
    pub name: String,
}

/// One resolved blocking / I/O operation.
#[derive(Debug, Clone)]
pub struct ROp {
    /// Human-readable operation.
    pub what: String,
    /// 1-based line.
    pub line: usize,
    /// Classes held at this site.
    pub held: Vec<Class>,
    /// Whether the op is I/O (all ops are blocking).
    pub io: bool,
}

/// The resolved summary of one function.
#[derive(Debug, Clone, Default)]
pub struct RSummary {
    /// Lock acquisitions with held-sets.
    pub acquires: Vec<Acq>,
    /// Resolved calls with held-sets.
    pub calls: Vec<RCall>,
    /// Blocking / I/O operations with held-sets.
    pub ops: Vec<ROp>,
}

impl Workspace {
    /// Builds the workspace indexes over `files`. Test functions and
    /// spawned-closure bodies are excluded from every index (closures
    /// are analyzed as roots, never called by name).
    #[must_use]
    pub fn build(files: Vec<FileFacts>) -> Workspace {
        let mut ws = Workspace {
            files,
            types: BTreeMap::new(),
            methods: BTreeMap::new(),
            free: BTreeMap::new(),
            method_names: BTreeMap::new(),
        };
        for (fi, f) in ws.files.iter().enumerate() {
            for (name, fields) in &f.structs {
                let table: FieldTable = fields
                    .iter()
                    .map(|(n, b, l)| (n.clone(), (b.clone(), *l)))
                    .collect();
                ws.types.entry(name.clone()).or_default().push((fi, table));
            }
        }
        let mut methods: BTreeMap<(String, String), Vec<FnId>> = BTreeMap::new();
        let mut free: BTreeMap<String, Vec<FnId>> = BTreeMap::new();
        let mut by_name: BTreeMap<String, Vec<FnId>> = BTreeMap::new();
        for (fi, f) in ws.files.iter().enumerate() {
            for (xi, fun) in f.fns.iter().enumerate() {
                if fun.is_test || fun.spawned_from.is_some() {
                    continue;
                }
                let id = FnId { file: fi, idx: xi };
                if let Some(ty) = &fun.self_ty {
                    methods.entry((ty.clone(), fun.name.clone())).or_default().push(id);
                    by_name.entry(fun.name.clone()).or_default().push(id);
                } else {
                    free.entry(fun.name.clone()).or_default().push(id);
                }
            }
        }
        ws.methods = methods;
        ws.free = free;
        ws.method_names = by_name;
        ws
    }

    /// The facts of function `id`.
    #[must_use]
    pub fn fun(&self, id: FnId) -> &FnFact {
        &self.files[id.file].fns[id.idx]
    }

    /// Every analyzable function: non-test, in workspace order.
    pub fn live_fns(&self) -> impl Iterator<Item = FnId> + '_ {
        self.files.iter().enumerate().flat_map(|(fi, f)| {
            f.fns
                .iter()
                .enumerate()
                .filter(|(_, fun)| !fun.is_test)
                .map(move |(xi, _)| FnId { file: fi, idx: xi })
        })
    }

    fn annotated(owner: &str, field: &str) -> Option<Class> {
        LOCK_CLASSES.iter().find(|(t, f, _)| *t == owner && *f == field).map(|(_, _, c)| {
            if *c == "@self" {
                Class::SelfLock
            } else {
                Class::Named((*c).to_string())
            }
        })
    }

    fn field_of(&self, file: usize, ty: &str, field: &str) -> Option<(String, bool)> {
        let cands = self.types.get(ty)?;
        let table = cands
            .iter()
            .find(|(fi, _)| *fi == file)
            .or_else(|| cands.first())
            .map(|(_, t)| t)?;
        table.get(field).cloned()
    }

    /// Resolves the base type of identifier `name` in function `id`'s
    /// environment (locals first, then parameters, then `self`).
    fn env_type(&self, id: FnId, name: &str, depth: usize) -> Option<String> {
        if depth > 4 {
            return None;
        }
        let fun = self.fun(id);
        if name == "self" {
            return fun.self_ty.clone();
        }
        // Last matching local hint wins (shadowing).
        for (n, hint) in fun.locals.iter().rev() {
            if n != name {
                continue;
            }
            match hint {
                LocalHint::Ty(t) => return Some(t.clone()),
                LocalHint::Alias(chain) => {
                    // `let x = Arc::clone(x);` re-binds the same name: skip
                    // the self-referential hint and fall through to params.
                    if chain.len() == 1 && chain[0] == name {
                        break;
                    }
                    return self.chain_info(id, chain, depth + 1).final_ty;
                }
            }
        }
        fun.params
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, b)| b.clone())
            .filter(|b| b != "-" && !b.is_empty())
    }

    /// Resolves a receiver chain to its value type and lock class.
    #[must_use]
    pub fn chain_info(&self, id: FnId, chain: &[String], depth: usize) -> ChainInfo {
        let mut info = ChainInfo::default();
        if chain.is_empty() || chain[0] == "#" || depth > 6 {
            return info;
        }
        let Some(mut cur) = self.env_type(id, &chain[0], depth) else {
            return info;
        };
        if chain.len() == 1 {
            info.final_ty = Some(cur);
            return info;
        }
        for (k, seg) in chain.iter().enumerate().skip(1) {
            let Some((base, lock)) = self.field_of(id.file, &cur, seg) else {
                return ChainInfo::default();
            };
            let last = k == chain.len() - 1;
            if last {
                if lock || base == "ShardMap" {
                    info.lock = Some(
                        Workspace::annotated(&cur, seg)
                            .unwrap_or_else(|| Class::Named(format!("{cur}.{seg}"))),
                    );
                }
                info.final_ty = Some(base);
                return info;
            }
            cur = base;
        }
        info
    }

    fn pick(cands: &[FnId], file: usize) -> Option<FnId> {
        cands.iter().find(|id| id.file == file).or_else(|| cands.first()).copied()
    }

    /// Maps a crate path segment (`smtx_serve`) to its directory prefix.
    fn crate_dir(seg: &str) -> Option<String> {
        seg.strip_prefix("smtx_").map(|rest| format!("crates/{rest}/"))
    }

    fn file_stem(path: &str) -> String {
        let base = path.rsplit('/').next().unwrap_or(path);
        let stem = base.strip_suffix(".rs").unwrap_or(base);
        if stem == "mod" || stem == "lib" || stem == "main" {
            let mut parts: Vec<&str> = path.split('/').collect();
            parts.pop();
            parts.pop().map_or_else(|| stem.to_string(), str::to_string)
        } else {
            stem.to_string()
        }
    }

    /// Resolves a call event to `(callee, receiver lock class)`;
    /// `None` means the callee is a leaf outside the analysis.
    #[must_use]
    pub fn resolve_call(&self, id: FnId, c: &CallEv) -> Option<(FnId, Option<Class>)> {
        if !c.path.is_empty() {
            // Path-qualified: `Q::name(..)`.
            let q = c.path.last().map(String::as_str).unwrap_or("");
            let qname = if q == "Self" {
                self.fun(id).self_ty.clone().unwrap_or_default()
            } else {
                q.to_string()
            };
            if qname.chars().next().is_some_and(char::is_uppercase) {
                let cands = self.methods.get(&(qname, c.name.clone()))?;
                return Some((Workspace::pick(cands, id.file)?, None));
            }
            // Module-qualified free call: match the callee's file stem.
            let cands = self.free.get(&c.name)?;
            let hit = cands
                .iter()
                .find(|x| Workspace::file_stem(&self.files[x.file].path) == qname)?;
            return Some((*hit, None));
        }
        if !c.chain.is_empty() {
            let info = self.chain_info(id, &c.chain, 0);
            if let Some(ty) = &info.final_ty {
                let cands = self.methods.get(&(ty.clone(), c.name.clone()))?;
                return Some((Workspace::pick(cands, id.file)?, info.lock));
            }
            // Unknown receiver: unique-method-name fallback, so calls like
            // `svc.wait_drained()` on an untyped local still link — unless
            // the call passes arguments the candidate cannot take (a
            // slice's `join(", ")` is not a zero-argument `Handle::join`).
            if c.name.len() >= 4 && !self.free.contains_key(&c.name) {
                if let Some(&[only]) = self.method_names.get(&c.name).map(Vec::as_slice) {
                    let passes_args = c.args_end > c.pos + 2;
                    let takes_args = self.fun(only).params.iter().any(|(n, _)| n != "self");
                    if takes_args || !passes_args {
                        return Some((only, info.lock));
                    }
                }
            }
            return None;
        }
        // Free call: same file, then `use` alias, then unique global name.
        if let Some(cands) = self.free.get(&c.name) {
            if let Some(hit) = cands.iter().find(|x| x.file == id.file) {
                return Some((*hit, None));
            }
            for u in &self.files[id.file].uses {
                if u.alias == c.name {
                    let real = u.path.last().cloned().unwrap_or_default();
                    let dir = u.path.first().and_then(|s| Workspace::crate_dir(s));
                    let pool = self.free.get(&real)?;
                    let hit = pool.iter().find(|x| {
                        dir.as_ref().is_none_or(|d| self.files[x.file].path.starts_with(d))
                    })?;
                    return Some((*hit, None));
                }
            }
            if cands.len() == 1 {
                return Some((cands[0], None));
            }
            return None;
        }
        // Aliased import whose real name differs from the alias.
        for u in &self.files[id.file].uses {
            if u.alias == c.name {
                let real = u.path.last().cloned().unwrap_or_default();
                let dir = u.path.first().and_then(|s| Workspace::crate_dir(s));
                if let Some(pool) = self.free.get(&real) {
                    if let Some(hit) = pool.iter().find(|x| {
                        dir.as_ref().is_none_or(|d| self.files[x.file].path.starts_with(d))
                    }) {
                        return Some((*hit, None));
                    }
                }
            }
        }
        None
    }

    /// Computes the guard class returned by each guard-returning
    /// function (e.g. `Service::lock` → `svc.inner`,
    /// `ShardMap::lock_shard` → `SelfLock`), iterating to cover guard
    /// helpers that delegate to other guard helpers.
    #[must_use]
    pub fn guard_classes(&self) -> BTreeMap<FnId, Class> {
        let mut out: BTreeMap<FnId, Class> = BTreeMap::new();
        for _ in 0..3 {
            let mut changed = false;
            for id in self.live_fns() {
                if out.contains_key(&id) || !self.fun(id).returns_guard {
                    continue;
                }
                let fun = self.fun(id);
                let mut class = fun
                    .guards
                    .first()
                    .map(|g| self.guard_event_class(id, g, &out));
                if class.is_none() {
                    for c in &fun.calls {
                        if let Some((callee, recv)) = self.resolve_call(id, c) {
                            if let Some(k) = out.get(&callee) {
                                class = Some(substitute(k.clone(), recv.as_ref()));
                                break;
                            }
                        }
                    }
                }
                if let Some(k) = class {
                    out.insert(id, k);
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        out
    }

    /// The class acquired by a direct `.lock()` / `.try_lock()` site.
    fn guard_event_class(&self, id: FnId, g: &GuardEv, gc: &BTreeMap<FnId, Class>) -> Class {
        let info = self.chain_info(id, &g.chain, 0);
        if let Some(c) = info.lock {
            return c;
        }
        // `.lock()` may be a guard-returning *method* (`self.lock()`).
        if let Some(ty) = &info.final_ty {
            if let Some(cands) = self.methods.get(&(ty.clone(), g.method.clone())) {
                if let Some(callee) = Workspace::pick(cands, id.file) {
                    if let Some(k) = gc.get(&callee) {
                        return substitute(k.clone(), info.lock.as_ref());
                    }
                }
            }
        }
        // Unresolvable receiver: derive a per-file class from the chain.
        let stem = Workspace::file_stem(&self.files[id.file].path);
        let chain = if g.chain.is_empty() { "?".to_string() } else { g.chain.join(".") };
        Class::Named(format!("{stem}:{chain}"))
    }

    /// Builds the resolved summary of function `id`.
    #[must_use]
    #[allow(clippy::too_many_lines)]
    pub fn summarize(&self, id: FnId, gc: &BTreeMap<FnId, Class>) -> RSummary {
        let fun = self.fun(id);
        // Guard intervals: (class, start, end).
        let mut intervals: Vec<(Class, usize, usize)> = Vec::new();
        let mut acq_sites: Vec<(Class, usize, usize, String)> = Vec::new(); // (class, pos, line, what)
        for g in &fun.guards {
            let class = self.guard_event_class(id, g, gc);
            let end = end_with_drops(g.end, g.pos, g.binding.as_deref(), &fun.drops);
            if g.method == "lock" {
                intervals.push((class.clone(), g.pos, end));
            }
            acq_sites.push((class, g.pos, g.line, format!(".{}()", g.method)));
        }
        struct Edge {
            callee: FnId,
            recv_lock: Option<Class>,
            pos: usize,
            line: usize,
            name: String,
        }
        let mut edges: Vec<Edge> = Vec::new();
        for c in &fun.calls {
            let resolved = self.resolve_call(id, c);
            if let Some((callee, recv)) = &resolved {
                if self.fun(*callee).returns_guard {
                    if let Some(k) = gc.get(callee) {
                        let class = substitute(k.clone(), recv.as_ref());
                        let end =
                            end_with_drops(c.guard_end, c.pos, c.guard_binding.as_deref(), &fun.drops);
                        intervals.push((class.clone(), c.pos, end));
                        acq_sites.push((class, c.pos, c.line, format!("{}()", c.name)));
                    }
                }
                edges.push(Edge {
                    callee: *callee,
                    recv_lock: recv.clone(),
                    pos: c.pos,
                    line: c.line,
                    name: c.name.clone(),
                });
            }
            // A closure passed to `get_or_insert_with(..)` runs under the
            // receiver's shard lock: model the argument span as held.
            if CLOSURE_UNDER_LOCK.contains(&c.name.as_str()) {
                let info = self.chain_info(id, &c.chain, 0);
                if let Some(k) = info.lock {
                    intervals.push((k, c.pos, c.args_end));
                }
            }
        }
        let held_at = |pos: usize| -> Vec<Class> {
            let mut held: Vec<Class> = intervals
                .iter()
                .filter(|(_, s, e)| *s < pos && pos < *e)
                .map(|(c, _, _)| c.clone())
                .collect();
            held.sort();
            held.dedup();
            held
        };
        let mut out = RSummary::default();
        for (class, pos, line, what) in acq_sites {
            let held: Vec<Class> = held_at(pos).into_iter().filter(|h| *h != class).collect();
            out.acquires.push(Acq { class, line, held, what });
        }
        for e in edges {
            out.calls.push(RCall {
                callee: e.callee,
                recv_lock: e.recv_lock,
                held: held_at(e.pos),
                line: e.line,
                name: e.name,
            });
        }
        for op in &fun.ops {
            let io = match op.kind {
                OpKind::Io => true,
                OpKind::Block => false,
                OpKind::MaybeIo => {
                    let info = self.chain_info(id, &op.chain, 0);
                    let is_stream =
                        info.final_ty.as_deref().is_some_and(|t| IO_TYPES.contains(&t));
                    if !is_stream {
                        continue; // e.g. Hasher::write — not I/O, not blocking
                    }
                    true
                }
            };
            out.ops.push(ROp { what: op.what.clone(), line: op.line, held: held_at(op.pos), io });
        }
        out
    }
}

/// Substitutes `SelfLock` with the receiver's concrete class when known.
#[must_use]
pub fn substitute(class: Class, recv: Option<&Class>) -> Class {
    match (&class, recv) {
        (Class::SelfLock, Some(r)) => r.clone(),
        _ => class,
    }
}

/// Applies `drop(binding)` truncation to a guard interval.
fn end_with_drops(end: usize, start: usize, binding: Option<&str>, drops: &[(usize, String)]) -> usize {
    let Some(b) = binding else { return end };
    drops
        .iter()
        .filter(|(pos, name)| name == b && *pos > start && *pos < end)
        .map(|(pos, _)| *pos)
        .min()
        .unwrap_or(end)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::summaries::scan;
    use crate::syntax::parse;

    fn ws(files: &[(&str, &str)]) -> Workspace {
        Workspace::build(files.iter().map(|(p, s)| scan(&parse(p, s))).collect())
    }

    #[test]
    fn annotated_fields_resolve_to_their_class() {
        let w = ws(&[(
            "crates/serve/src/service.rs",
            "struct Service { inner: Mutex<Inner> } \
             impl Service { fn f(&self) { self.inner.lock().unwrap(); } }",
        )]);
        let id = FnId { file: 0, idx: 0 };
        let info = w.chain_info(id, &["self".into(), "inner".into()], 0);
        assert_eq!(info.lock, Some(Class::Named("svc.inner".into())));
    }

    #[test]
    fn shard_fields_substitute_self_lock() {
        let w = ws(&[
            (
                "crates/util/src/shard.rs",
                "pub struct ShardMap<K, V> { shards: Vec<Mutex<M>> } \
                 impl<K, V> ShardMap<K, V> { pub fn remove(&self, k: &K) { self.shards[0].lock().unwrap(); } }",
            ),
            (
                "crates/bench/src/runner.rs",
                "pub struct Runner { checkpoints: ShardMap<K, V> } \
                 impl Runner { fn f(&self) { self.checkpoints.remove(&1); } }",
            ),
        ]);
        // Inside ShardMap: the shard vector is SelfLock.
        let shard_fn = FnId { file: 0, idx: 0 };
        let info = w.chain_info(shard_fn, &["self".into(), "shards".into()], 0);
        assert_eq!(info.lock, Some(Class::SelfLock));
        // Outside: the Runner field names the class for substitution.
        let runner_fn = FnId { file: 1, idx: 0 };
        let info = w.chain_info(runner_fn, &["self".into(), "checkpoints".into()], 0);
        assert_eq!(info.lock, Some(Class::Named("runner.checkpoints".into())));
    }

    #[test]
    fn free_calls_resolve_through_use_aliases_across_crates() {
        let w = ws(&[
            (
                "crates/fleet/src/coord.rs",
                "use smtx_serve::http::client_request;\nfn f() { client_request(1); }",
            ),
            ("crates/serve/src/http.rs", "pub fn client_request(x: u64) {}"),
        ]);
        let id = FnId { file: 0, idx: 0 };
        let call = &w.fun(id).calls[0];
        let (callee, _) = w.resolve_call(id, call).expect("resolves");
        assert_eq!(w.files[callee.file].path, "crates/serve/src/http.rs");
    }

    #[test]
    fn unique_name_fallback_respects_arguments() {
        let w = ws(&[(
            "crates/serve/src/server.rs",
            "struct Handle { n: u64 }\n\
             impl Handle { fn close(self) {} }\n\
             fn f() { let parts = a(); parts.close(\", \"); let h = b(); h.close(); }",
        )]);
        let f = w.live_fns().find(|id| w.fun(*id).name == "f").expect("f");
        let calls: Vec<&CallEv> = w.fun(f).calls.iter().filter(|c| c.name == "close").collect();
        assert!(w.resolve_call(f, calls[0]).is_none(), "an argument rules Handle::close out");
        assert!(w.resolve_call(f, calls[1]).is_some(), "a bare close() still links");
    }

    #[test]
    fn method_and_free_fn_with_the_same_name_stay_distinct() {
        let w = ws(&[(
            "crates/serve/src/server.rs",
            "pub fn route(req: u64) {}\n\
             struct Daemon { n: u64 }\n\
             impl Daemon { fn route(&self) { route(1); } }",
        )]);
        // Daemon::route's body call resolves to the free fn, not itself.
        let method = w
            .live_fns()
            .find(|id| w.fun(*id).self_ty.is_some())
            .expect("method");
        let call = &w.fun(method).calls[0];
        let (callee, _) = w.resolve_call(method, call).expect("resolves");
        assert!(w.fun(callee).self_ty.is_none(), "picked the free fn");
    }

    #[test]
    fn guard_helper_classes_propagate() {
        let w = ws(&[(
            "crates/serve/src/service.rs",
            "struct Service { inner: Mutex<Inner> } impl Service { \
             fn lock(&self) -> MutexGuard<'_, Inner> { self.inner.lock().unwrap() } \
             fn submit(&self) { let g = self.lock(); g.push(1); } }",
        )]);
        let gc = w.guard_classes();
        assert_eq!(gc.len(), 1);
        assert_eq!(gc.values().next(), Some(&Class::Named("svc.inner".into())));
        // submit's summary shows the helper call as an acquisition.
        let submit = w.live_fns().find(|id| w.fun(*id).name == "submit").unwrap();
        let s = w.summarize(submit, &gc);
        assert!(s.acquires.iter().any(|a| a.class == Class::Named("svc.inner".into())));
    }
}
