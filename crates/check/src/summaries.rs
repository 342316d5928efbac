//! Per-file facts for the interprocedural pass: a single walk over each
//! function body of a parsed [`SynFile`] that records, with token
//! positions, every lock acquisition site, call site, blocking / I/O
//! operation, guard extent and local-variable type hint — all
//! *symbolic* (receiver chains as identifier lists, callees by name).
//! Name resolution, lock-class assignment and held-set computation
//! happen later, in [`crate::resolve`], from these facts plus the
//! workspace-wide index.

use crate::lexer::TokenKind;
use crate::syntax::{self, StructDef, SynFile, UseDecl};

/// A type hint for a `let`-bound local, harvested syntactically.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LocalHint {
    /// Explicit annotation or `Type::new(..)` construction.
    Ty(String),
    /// `let x = other;` / `let x = Arc::clone(&a.b);` — aliases a chain.
    Alias(Vec<String>),
}

/// A direct `.lock()` / `.try_lock()` site.
#[derive(Debug, Clone)]
pub struct GuardEv {
    /// Token position of the method name.
    pub pos: usize,
    /// 1-based source line.
    pub line: usize,
    /// `lock` or `try_lock`.
    pub method: String,
    /// Receiver chain (`self.inner` → `["self", "inner"]`).
    pub chain: Vec<String>,
    /// Token position the guard is held until (exclusive). `try_lock`
    /// sites record an acquisition but no held interval (the guard is
    /// conditional), so this equals `pos`.
    pub end: usize,
    /// Variable name for `let g = ...lock()...;` bindings.
    pub binding: Option<String>,
}

/// A call site (method, free function, or path-qualified).
#[derive(Debug, Clone)]
pub struct CallEv {
    /// Token position of the callee name.
    pub pos: usize,
    /// 1-based source line.
    pub line: usize,
    /// Callee name.
    pub name: String,
    /// Method receiver chain; empty for free and path calls.
    pub chain: Vec<String>,
    /// Qualifying path segments (`Metrics::inc` → `["Metrics"]`);
    /// empty for method and free calls.
    pub path: Vec<String>,
    /// Token position of the call's closing parenthesis.
    pub args_end: usize,
    /// If the callee turns out to return a guard: held-until position.
    pub guard_end: usize,
    /// Binding name when the call result is `let`-bound.
    pub guard_binding: Option<String>,
}

/// What kind of operation an [`OpEv`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// Definitely I/O (`write_all`, `File::create`, ...). Also blocking.
    Io,
    /// Blocking but not I/O (`thread::sleep`, `Condvar::wait`, `join`).
    Block,
    /// `.read(..)` / `.write(..)` — I/O only if the receiver resolves to
    /// a stream type (protects `Hasher::write` from false positives).
    MaybeIo,
}

/// A blocking or I/O operation site.
#[derive(Debug, Clone)]
pub struct OpEv {
    /// Token position of the operation name.
    pub pos: usize,
    /// 1-based source line.
    pub line: usize,
    /// Human-readable operation (`thread::sleep`, `write_all`, ...).
    pub what: String,
    /// Operation category.
    pub kind: OpKind,
    /// Receiver chain when the op is a method call.
    pub chain: Vec<String>,
}

/// Everything recorded about one function (or spawned-closure body).
#[derive(Debug, Clone)]
pub struct FnFact {
    /// Function name; spawned closures get `parent::spawn@line`.
    pub name: String,
    /// Impl self type, when a method.
    pub self_ty: Option<String>,
    /// Trait name for `impl Tr for Ty` methods (reactor-root discovery).
    pub trait_name: Option<String>,
    /// 1-based line of the definition.
    pub line: usize,
    /// Parameter `(name, base type)` pairs.
    pub params: Vec<(String, String)>,
    /// Whether the declared return type mentions a lock guard.
    pub returns_guard: bool,
    /// Under `#[cfg(test)]` / `#[test]`.
    pub is_test: bool,
    /// For spawned-closure bodies: index (in the same file) of the
    /// function whose environment the closure captures.
    pub spawned_from: Option<usize>,
    /// Local type hints in declaration order.
    pub locals: Vec<(String, LocalHint)>,
    /// Direct lock sites.
    pub guards: Vec<GuardEv>,
    /// Call sites.
    pub calls: Vec<CallEv>,
    /// Blocking / I/O sites.
    pub ops: Vec<OpEv>,
    /// `drop(name)` positions, ending a named guard early.
    pub drops: Vec<(usize, String)>,
    /// `self.<field>` accesses when this function is named `digest`
    /// (the digest-taint rule's coverage set).
    pub digest_writes: Vec<(String, usize)>,
}

/// One struct's facts: `(name, fields)`, each field being
/// `(name, base type, is lock)`.
pub type StructFacts = (String, Vec<(String, String, bool)>);

/// The per-file summary: everything the global phase needs.
#[derive(Debug, Clone)]
pub struct FileFacts {
    /// Workspace-relative path.
    pub path: String,
    /// Flattened `use` declarations.
    pub uses: Vec<UseDecl>,
    /// Struct definitions (field name → base type).
    pub structs: Vec<StructFacts>,
    /// Function facts; spawned closures follow their parent.
    pub fns: Vec<FnFact>,
    /// `config.<field>` access sites outside test code (digest-taint).
    pub config_reads: Vec<(String, usize)>,
}

const IO_ALWAYS: [&str; 8] = [
    "write_all", "read_exact", "read_to_end", "read_to_string", "read_line", "flush", "sync_all",
    "write_fmt",
];
const WAITS: [&str; 4] = ["wait", "wait_timeout", "wait_while", "wait_timeout_while"];
const PATH_IO_TYPES: [&str; 5] = ["File", "TcpStream", "TcpListener", "OpenOptions", "UdpSocket"];
const GUARD_SUFFIXES: [&str; 4] = ["expect", "unwrap", "unwrap_or_else", "unwrap_or_default"];
const KEYWORDS: [&str; 12] =
    ["if", "while", "match", "for", "return", "loop", "in", "as", "let", "move", "else", "break"];

/// Summarizes one parsed source file into its [`FileFacts`].
#[must_use]
pub fn scan(sf: &SynFile) -> FileFacts {
    let mut fns: Vec<FnFact> = Vec::new();
    for def in &sf.fns {
        let mut fact = FnFact {
            name: def.name.clone(),
            self_ty: def.self_ty.clone(),
            trait_name: def.trait_name.clone(),
            line: def.line,
            params: def.params.clone(),
            returns_guard: def.returns_guard,
            is_test: def.is_test,
            spawned_from: None,
            locals: Vec::new(),
            guards: Vec::new(),
            calls: Vec::new(),
            ops: Vec::new(),
            drops: Vec::new(),
            digest_writes: Vec::new(),
        };
        let mut synth = Vec::new();
        scan_body(sf, def.body, &mut fact, &mut synth);
        let parent_idx = fns.len();
        fns.push(fact);
        for mut s in synth {
            s.spawned_from = Some(parent_idx);
            fns.push(s);
        }
    }
    // `config.<field>` sites, skipping method calls and test code.
    let toks = &sf.lexed.tokens;
    let mut config_reads = Vec::new();
    for i in 0..toks.len() {
        if toks[i].text == "config"
            && toks.get(i + 1).is_some_and(|t| t.text == ".")
            && toks.get(i + 2).is_some_and(|t| t.kind == TokenKind::Ident)
            && toks.get(i + 3).is_none_or(|t| t.text != "(")
            && !sf.test_mask[i]
        {
            config_reads.push((toks[i + 2].text.clone(), toks[i].line));
        }
    }
    FileFacts {
        path: sf.path.clone(),
        uses: sf.uses.clone(),
        structs: sf
            .structs
            .iter()
            .map(|s: &StructDef| {
                (
                    s.name.clone(),
                    s.fields.iter().map(|f| (f.name.clone(), f.base.clone(), f.lock)).collect(),
                )
            })
            .collect(),
        fns,
        config_reads,
    }
}

/// Walks a receiver chain backward from the method-name token at `m`.
/// Returns `(chain, start_idx)`; an unresolvable head (a call result)
/// contributes a leading `"#"` sentinel.
fn chain_back(sf: &SynFile, m: usize) -> (Vec<String>, usize) {
    let toks = &sf.lexed.tokens;
    let mut chain: Vec<String> = Vec::new();
    if m < 2 || toks[m - 1].text != "." {
        return (chain, m);
    }
    let mut p = m - 2;
    let mut start = m;
    loop {
        let t = &toks[p];
        if t.kind == TokenKind::Ident {
            chain.push(t.text.clone());
            start = p;
            if p >= 2 && toks[p - 1].text == "." {
                p -= 2;
                continue;
            }
            if p >= 1 && toks[p - 1].text == "::" {
                // Path-qualified head (`T::CONST.method()`): opaque.
                chain.push("#".to_string());
            }
            break;
        }
        match t.text.as_str() {
            "]" => {
                let o = sf.open_of[p];
                if o == usize::MAX || o == 0 {
                    chain.push("#".to_string());
                    break;
                }
                p = o - 1;
            }
            "?" => {
                if p == 0 {
                    break;
                }
                p -= 1;
            }
            _ => {
                // Call results and literals are opaque chain heads.
                if t.text == ")" || t.kind == TokenKind::Str {
                    chain.push("#".to_string());
                }
                break;
            }
        }
    }
    chain.reverse();
    (chain, start)
}

/// Computes how long the value produced at call `m` (name token, with
/// `(` at `m + 1`) is held: walks trailing `.expect(..)`-style suffixes,
/// then — for `let`-bound terminal statements — to the enclosing block's
/// close, otherwise to the end of the statement.
fn extent(
    sf: &SynFile,
    body_hi: usize,
    block_end: usize,
    m: usize,
    chain_start: usize,
) -> (usize, Option<String>) {
    let toks = &sf.lexed.tokens;
    let open = m + 1;
    let close = sf.close_of.get(open).copied().unwrap_or(usize::MAX).min(body_hi);
    let mut j = close + 1;
    while j + 2 < body_hi
        && toks[j].text == "."
        && GUARD_SUFFIXES.contains(&toks[j + 1].text.as_str())
        && toks.get(j + 2).is_some_and(|t| t.text == "(")
    {
        j = sf.close_of[j + 2] + 1;
    }
    let terminal = toks.get(j).is_some_and(|t| t.text == ";");
    let s = chain_start;
    let mut binding = None;
    if s >= 3 && toks[s - 1].text == "=" && toks[s - 2].kind == TokenKind::Ident {
        let let_bound = toks[s - 3].text == "let"
            || (s >= 4 && toks[s - 3].text == "mut" && toks[s - 4].text == "let");
        if let_bound {
            binding = Some(toks[s - 2].text.clone());
        }
    }
    if binding.is_some() && terminal {
        return (block_end, binding);
    }
    // Temporary: held to the end of the statement (or enclosing group).
    let mut depth = 0i32;
    let mut k = j;
    while k < body_hi {
        match toks[k].text.as_str() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => {
                if depth == 0 {
                    return (k, None);
                }
                depth -= 1;
            }
            ";" if depth == 0 => return (k, None),
            _ => {}
        }
        k += 1;
    }
    (body_hi, None)
}

/// Scans one body token range into `out`, collecting spawned-closure
/// bodies as separate synthetic functions in `synth`.
#[allow(clippy::too_many_lines)]
fn scan_body(sf: &SynFile, range: (usize, usize), out: &mut FnFact, synth: &mut Vec<FnFact>) {
    let (lo, hi) = range;
    let toks = &sf.lexed.tokens;
    let collect_digest = out.name == "digest" || out.name.starts_with("digest::");
    let mut blocks: Vec<usize> = Vec::new(); // close indices of open braces
    let mut i = lo;
    while i < hi {
        let t = &toks[i];
        let txt = t.text.as_str();
        match txt {
            "{" => {
                blocks.push(sf.close_of[i].min(hi));
                i += 1;
                continue;
            }
            "}" => {
                if blocks.last() == Some(&i) {
                    blocks.pop();
                }
                i += 1;
                continue;
            }
            _ => {}
        }
        if t.kind != TokenKind::Ident {
            i += 1;
            continue;
        }
        let next_is_paren = toks.get(i + 1).is_some_and(|x| x.text == "(");
        let prev = if i > 0 { toks[i - 1].text.as_str() } else { "" };
        let block_end = blocks.last().copied().unwrap_or(hi);

        // `drop(name)` ends a named guard early.
        if txt == "drop"
            && next_is_paren
            && toks.get(i + 2).is_some_and(|x| x.kind == TokenKind::Ident)
            && toks.get(i + 3).is_some_and(|x| x.text == ")")
        {
            out.drops.push((i, toks[i + 2].text.clone()));
            i += 4;
            continue;
        }

        // `let` local hints (alias / constructed type).
        if txt == "let" {
            harvest_local_hint(sf, i, hi, out);
            i += 1;
            continue;
        }

        // `self.<field>` accesses inside `digest`.
        if collect_digest
            && txt == "self"
            && toks.get(i + 1).is_some_and(|x| x.text == ".")
            && toks.get(i + 2).is_some_and(|x| x.kind == TokenKind::Ident)
            && toks.get(i + 3).is_none_or(|x| x.text != "(")
        {
            out.digest_writes.push((toks[i + 2].text.clone(), t.line));
        }

        if !next_is_paren {
            i += 1;
            continue;
        }

        // --- calls and operations (ident followed by `(`) ---
        if prev == "." {
            let (chain, chain_start) = chain_back(sf, i);
            if txt == "spawn" {
                i = spawn_closure(sf, i + 1, hi, out, synth, t.line);
                continue;
            }
            if txt == "lock" || txt == "try_lock" {
                // Stdio handle locks exist to serialize the stream itself;
                // holding one across its own writes is the idiom, not a
                // hazard, so they never form a lock class.
                if chain.last().is_some_and(|h| {
                    matches!(h.as_str(), "stdout" | "stderr" | "stdin")
                }) {
                    i += 1;
                    continue;
                }
                let (end, binding) = extent(sf, hi, block_end, i, chain_start);
                let (end, binding) =
                    if txt == "try_lock" { (i, None) } else { (end, binding) };
                out.guards.push(GuardEv {
                    pos: i,
                    line: t.line,
                    method: txt.to_string(),
                    chain,
                    end,
                    binding,
                });
            } else if WAITS.contains(&txt) {
                out.ops.push(OpEv {
                    pos: i,
                    line: t.line,
                    what: format!("{txt}()"),
                    kind: OpKind::Block,
                    chain,
                });
            } else if txt == "join" && toks.get(i + 2).is_some_and(|x| x.text == ")") {
                out.ops.push(OpEv {
                    pos: i,
                    line: t.line,
                    what: "join()".to_string(),
                    kind: OpKind::Block,
                    chain,
                });
            } else if IO_ALWAYS.contains(&txt) {
                out.ops.push(OpEv {
                    pos: i,
                    line: t.line,
                    what: txt.to_string(),
                    kind: OpKind::Io,
                    chain,
                });
            } else if txt == "read" || txt == "write" {
                out.ops.push(OpEv {
                    pos: i,
                    line: t.line,
                    what: txt.to_string(),
                    kind: OpKind::MaybeIo,
                    chain,
                });
            } else {
                let (guard_end, guard_binding) = extent(sf, hi, block_end, i, chain_start);
                out.calls.push(CallEv {
                    pos: i,
                    line: t.line,
                    name: txt.to_string(),
                    chain,
                    path: Vec::new(),
                    args_end: sf.close_of.get(i + 1).copied().unwrap_or(i + 1).min(hi),
                    guard_end,
                    guard_binding,
                });
            }
            i += 1;
            continue;
        }
        if prev == "::" {
            // Path call: collect leading segments.
            let mut segs = vec![txt.to_string()];
            let mut p = i - 1;
            while p >= 1 && toks[p].text == "::" && toks[p - 1].kind == TokenKind::Ident {
                segs.push(toks[p - 1].text.clone());
                if p < 2 {
                    break;
                }
                p -= 2;
            }
            segs.reverse();
            let last = segs.last().cloned().unwrap_or_default();
            let has_thread = segs.iter().any(|s| s == "thread");
            if last == "spawn" && has_thread {
                i = spawn_closure(sf, i + 1, hi, out, synth, t.line);
                continue;
            }
            if last == "sleep" && has_thread {
                out.ops.push(OpEv {
                    pos: i,
                    line: t.line,
                    what: "thread::sleep".to_string(),
                    kind: OpKind::Block,
                    chain: Vec::new(),
                });
            } else if segs.iter().any(|s| s == "fs")
                || segs.first().is_some_and(|s| PATH_IO_TYPES.contains(&s.as_str()))
            {
                out.ops.push(OpEv {
                    pos: i,
                    line: t.line,
                    what: segs.join("::"),
                    kind: OpKind::Io,
                    chain: Vec::new(),
                });
            } else {
                let (guard_end, guard_binding) = extent(sf, hi, block_end, i, i);
                segs.pop();
                out.calls.push(CallEv {
                    pos: i,
                    line: t.line,
                    name: txt.to_string(),
                    chain: Vec::new(),
                    path: segs,
                    args_end: sf.close_of.get(i + 1).copied().unwrap_or(i + 1).min(hi),
                    guard_end,
                    guard_binding,
                });
            }
            i += 1;
            continue;
        }
        // Free call: skip keywords, macros (`name!`), and CamelCase
        // constructors (real associated calls arrive path-qualified).
        if !KEYWORDS.contains(&txt) && !txt.chars().next().is_some_and(char::is_uppercase) {
            let (guard_end, guard_binding) = extent(sf, hi, block_end, i, i);
            out.calls.push(CallEv {
                pos: i,
                line: t.line,
                name: txt.to_string(),
                chain: Vec::new(),
                path: Vec::new(),
                args_end: sf.close_of.get(i + 1).copied().unwrap_or(i + 1).min(hi),
                guard_end,
                guard_binding,
            });
        }
        i += 1;
    }
}

/// Records a type hint for `let [mut] name (: Ty)? = rhs`.
fn harvest_local_hint(sf: &SynFile, i: usize, hi: usize, out: &mut FnFact) {
    let toks = &sf.lexed.tokens;
    let mut j = i + 1;
    if toks.get(j).is_some_and(|t| t.text == "mut") {
        j += 1;
    }
    let Some(name_tok) = toks.get(j) else { return };
    if name_tok.kind != TokenKind::Ident {
        return; // tuple / struct pattern: no hint
    }
    let name = name_tok.text.clone();
    j += 1;
    if toks.get(j).is_some_and(|t| t.text == ":") {
        // Explicit annotation: type tokens up to `=` or `;`.
        let mut ty = Vec::new();
        let mut k = j + 1;
        let mut angle = 0i32;
        while k < hi {
            match toks[k].text.as_str() {
                "<" => angle += 1,
                ">" if toks[k - 1].text != "-" => angle -= 1,
                "=" | ";" if angle <= 0 => break,
                _ => {}
            }
            ty.push(toks[k].text.clone());
            k += 1;
        }
        let (base, _) = syntax::base_of_type(&ty);
        if !base.is_empty() {
            out.locals.push((name, LocalHint::Ty(base)));
        }
        return;
    }
    if toks.get(j).is_none_or(|t| t.text != "=") {
        return;
    }
    let mut r = j + 1;
    if toks.get(r).is_some_and(|t| t.text == "&") {
        r += 1;
    }
    // `Arc::clone(&chain)` → alias of chain.
    if toks.get(r).is_some_and(|t| t.text == "Arc")
        && toks.get(r + 1).is_some_and(|t| t.text == "::")
        && toks.get(r + 2).is_some_and(|t| t.text == "clone")
        && toks.get(r + 3).is_some_and(|t| t.text == "(")
    {
        let mut k = r + 4;
        if toks.get(k).is_some_and(|t| t.text == "&") {
            k += 1;
        }
        if let Some(chain) = read_chain_forward(sf, &mut k, hi) {
            out.locals.push((name, LocalHint::Alias(chain)));
        }
        return;
    }
    // `Ty::new(..)` → constructed type (skip transparent wrappers).
    if toks.get(r).is_some_and(|t| t.kind == TokenKind::Ident && t.text.chars().next().is_some_and(char::is_uppercase))
        && toks.get(r + 1).is_some_and(|t| t.text == "::")
        && toks.get(r + 2).is_some_and(|t| t.text == "new")
        && toks.get(r + 3).is_some_and(|t| t.text == "(")
    {
        let base = toks[r].text.clone();
        if !matches!(base.as_str(), "Arc" | "Rc" | "Box" | "Vec" | "VecDeque") {
            out.locals.push((name, LocalHint::Ty(base)));
        }
        return;
    }
    // `other` / `a.b` / `a.b.clone()` → alias.
    let mut k = r;
    if let Some(mut chain) = read_chain_forward(sf, &mut k, hi) {
        let after = toks.get(k).map_or("", |t| t.text.as_str());
        if after == ";" {
            if chain.last().is_some_and(|s| matches!(s.as_str(), "clone" | "as_ref" | "to_owned")) {
                chain.pop();
            }
            if !chain.is_empty() {
                out.locals.push((name, LocalHint::Alias(chain)));
            }
        }
    }
}

/// Reads a forward `a.b.c` chain at `*k` (advancing it), allowing a
/// trailing `.clone()`-style call; returns `None` if no chain starts.
fn read_chain_forward(sf: &SynFile, k: &mut usize, hi: usize) -> Option<Vec<String>> {
    let toks = &sf.lexed.tokens;
    let mut chain = Vec::new();
    while *k < hi {
        let t = toks.get(*k)?;
        if t.kind != TokenKind::Ident {
            break;
        }
        chain.push(t.text.clone());
        *k += 1;
        if toks.get(*k).is_some_and(|t| t.text == "(") {
            // Method call: consume `()` and stop (only no-arg suffixes).
            *k = sf.close_of.get(*k).copied().unwrap_or(*k).min(hi) + 1;
            break;
        }
        if toks.get(*k).is_some_and(|t| t.text == ".") {
            *k += 1;
            continue;
        }
        break;
    }
    if chain.is_empty() {
        None
    } else {
        Some(chain)
    }
}

/// Parses a `thread::spawn(move || ...)`-style closure argument at the
/// call's `(` (index `open`); the closure body becomes a synthetic
/// function in `synth` and the parent scan resumes past it. Returns the
/// resume position.
fn spawn_closure(
    sf: &SynFile,
    open: usize,
    hi: usize,
    out: &mut FnFact,
    synth: &mut Vec<FnFact>,
    line: usize,
) -> usize {
    let toks = &sf.lexed.tokens;
    let call_close = sf.close_of.get(open).copied().unwrap_or(usize::MAX).min(hi);
    let mut k = open + 1;
    if toks.get(k).is_some_and(|t| t.text == "move") {
        k += 1;
    }
    if toks.get(k).is_none_or(|t| t.text != "|") {
        return open; // `spawn(func)` — not a closure literal
    }
    let mut k2 = k + 1;
    while k2 < call_close && toks[k2].text != "|" {
        k2 += 1;
    }
    let body_start = k2 + 1;
    let (range, resume) = if toks.get(body_start).is_some_and(|t| t.text == "{") {
        let close = sf.close_of[body_start].min(hi);
        ((body_start + 1, close), close + 1)
    } else {
        ((body_start, call_close), call_close)
    };
    let mut fact = FnFact {
        name: format!("{}::spawn@{line}", out.name),
        self_ty: out.self_ty.clone(),
        trait_name: None,
        line,
        params: out.params.clone(),
        returns_guard: false,
        is_test: out.is_test,
        spawned_from: None, // fixed up by the caller of scan_body
        locals: out.locals.clone(),
        guards: Vec::new(),
        calls: Vec::new(),
        ops: Vec::new(),
        drops: Vec::new(),
        digest_writes: Vec::new(),
    };
    let mut nested = Vec::new();
    scan_body(sf, range, &mut fact, &mut nested);
    synth.push(fact);
    synth.extend(nested);
    resume
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan_src(src: &str) -> FileFacts {
        scan(&syntax::parse("crates/x/src/a.rs", src))
    }

    #[test]
    fn let_bound_guard_extends_to_block_end_temp_to_statement() {
        let src = "impl C { fn a(&self) { let g = self.inner.lock().unwrap(); use_it(); } \
                   fn b(&self) { self.inner.lock().unwrap().push(1); after(); } }";
        let f = scan_src(src);
        let a = &f.fns[0];
        assert_eq!(a.guards.len(), 1);
        assert!(a.guards[0].binding.is_some());
        // `use_it()` must fall inside the guard interval.
        let call = a.calls.iter().find(|c| c.name == "use_it").unwrap();
        assert!(call.pos < a.guards[0].end);
        let b = &f.fns[1];
        // `after()` must fall outside the temp-guard interval.
        let call = b.calls.iter().find(|c| c.name == "after").unwrap();
        assert!(call.pos > b.guards[0].end);
    }

    #[test]
    fn spawn_closures_become_synthetic_fns() {
        let src = "fn outer(ctx: &Ctx) { std::thread::spawn(move || { ctx.svc.wait_drained(); }); after(); }";
        let f = scan_src(src);
        assert_eq!(f.fns.len(), 2);
        assert!(f.fns[1].name.contains("spawn@"));
        assert_eq!(f.fns[1].spawned_from, Some(0));
        // The wait_drained call lives in the closure, not the parent.
        assert!(f.fns[0].calls.iter().all(|c| c.name != "wait_drained"));
        assert!(f.fns[1].calls.iter().any(|c| c.name == "wait_drained"));
        // The parent still sees code after the spawn.
        assert!(f.fns[0].calls.iter().any(|c| c.name == "after"));
    }

    #[test]
    fn receiver_chains_skip_index_groups() {
        let src = "impl S { fn f(&self, i: usize) { self.shards[i].lock().unwrap(); } }";
        let f = scan_src(src);
        assert_eq!(f.fns[0].guards[0].chain, vec!["self", "shards"]);
    }

    #[test]
    fn hasher_write_is_maybe_io_not_io() {
        let f = scan_src("fn f(h: &mut H) { h.write(&[1]); }");
        assert_eq!(f.fns[0].ops.len(), 1);
        assert_eq!(f.fns[0].ops[0].kind, OpKind::MaybeIo);
    }
}
