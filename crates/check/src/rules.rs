//! The lint rules and the per-file rule engine.
//!
//! Each rule has a kebab-case name, a path scope (relative to the workspace
//! root), and a token-level pattern. Escapes use
//! `// lint:allow(rule-name): one-line justification` — trailing on the
//! offending line, or on its own line immediately before it (in which case
//! a brace block opened by that next line is covered in full). The `no-`
//! prefix is optional in the directive.
//!
//! Code under `#[cfg(test)]` / `#[test]` items is not linted: test scaffolds
//! may use wall clocks, unwraps, and unordered maps freely — determinism
//! rules protect simulated results, not test harnesses.

use crate::lexer::{lex, Lexed, TokenKind};

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LintViolation {
    /// Workspace-relative path of the file.
    pub path: String,
    /// 1-based line of the offending token.
    pub line: usize,
    /// Rule name (kebab-case, `no-` prefix included).
    pub rule: &'static str,
    /// What fired and what to do instead.
    pub message: String,
    /// Whether a `lint:allow` directive suppresses this finding.
    pub allowed: bool,
}

impl std::fmt::Display for LintViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.path, self.line, self.rule, self.message)
    }
}

/// Rule names, in reporting order (also the documentation order in
/// DESIGN.md §11).
pub const RULE_NAMES: [&str; 5] = [
    "no-unordered-iteration",
    "no-wallclock-in-core",
    "no-float-in-model",
    "no-silent-narrowing",
    "no-unwrap-in-serve",
];

/// Result-affecting paths where unordered-container iteration is banned.
const UNORDERED_SCOPE: [&str; 7] = [
    "crates/core/src/",
    "crates/mem/src/",
    "crates/bench/src/",
    "crates/serve/src/",
    "crates/trace/src/",
    "crates/fleet/src/",
    "crates/asm/src/",
];
/// Simulated-time crates where wall-clock types are banned. The trace
/// crate is in scope: analysis must attribute *simulated* cycles only.
const WALLCLOCK_SCOPE: [&str; 6] = [
    "crates/core/src/",
    "crates/isa/src/",
    "crates/mem/src/",
    "crates/branch/src/",
    "crates/trace/src/",
    "crates/asm/src/",
];
/// Cycle-model state and statistics: integer-exact only.
const FLOAT_SCOPE: [&str; 4] = [
    "crates/core/src/machine/",
    "crates/core/src/stats.rs",
    "crates/core/src/thread.rs",
    "crates/core/src/dyninst.rs",
];
/// Counter-carrying files where `as`-truncation is banned. The checkpoint
/// module and the runner joined the scope with the interval-parallel
/// engine: both now account cache sizes (`approx_bytes`,
/// `checkpoint_bytes`) that must stay integer-exact.
const NARROWING_SCOPE: [&str; 4] = [
    "crates/core/src/stats.rs",
    "crates/core/src/checkpoint.rs",
    "crates/bench/src/report.rs",
    "crates/bench/src/runner.rs",
];
/// Service-side code that must degrade gracefully (400 for malformed
/// requests, recovered poison for locks), never panic: the request
/// parsers, the shared event loop, and the whole fleet coordinator.
const UNWRAP_SCOPE: [&str; 6] = [
    "crates/serve/src/http.rs",
    "crates/serve/src/json.rs",
    "crates/serve/src/eventloop.rs",
    "crates/serve/src/server.rs",
    "crates/serve/src/service.rs",
    "crates/fleet/src/",
];

fn in_scope(path: &str, scope: &[&str]) -> bool {
    scope.iter().any(|p| path.starts_with(p))
}

/// Precomputed per-file context shared by all rules.
struct FileCtx {
    lexed: Lexed,
    /// `skip[i]` — token `i` belongs to a `#[cfg(test)]`/`#[test]` item.
    skip: Vec<bool>,
    /// `(rule, first_line, last_line)` ranges covered by allow directives.
    allowed: Vec<(String, usize, usize)>,
}

impl FileCtx {
    fn new(src: &str) -> FileCtx {
        let lexed = lex(src);
        let skip = test_item_mask(&lexed);
        let allowed = allow_ranges(&lexed);
        FileCtx { lexed, skip, allowed }
    }

    fn is_allowed(&self, rule: &str, line: usize) -> bool {
        let bare = rule.strip_prefix("no-").unwrap_or(rule);
        self.allowed.iter().any(|(name, lo, hi)| {
            (line >= *lo && line <= *hi) && {
                let n = name.strip_prefix("no-").unwrap_or(name);
                n == bare
            }
        })
    }

    fn fire(
        &self,
        out: &mut Vec<LintViolation>,
        path: &str,
        rule: &'static str,
        idx: usize,
        message: String,
    ) {
        let line = self.lexed.tokens[idx].line;
        if !self.skip[idx] {
            let allowed = self.is_allowed(rule, line);
            out.push(LintViolation { path: path.to_string(), line, rule, message, allowed });
        }
    }
}

/// Marks every token inside a `#[cfg(test)]`- or `#[test]`-attributed item.
pub(crate) fn test_item_mask(lexed: &Lexed) -> Vec<bool> {
    let toks = &lexed.tokens;
    let mut skip = vec![false; toks.len()];
    let mut i = 0;
    while i < toks.len() {
        let is_attr_start = toks[i].text == "#"
            && toks.get(i + 1).is_some_and(|t| t.text == "[");
        if !is_attr_start {
            i += 1;
            continue;
        }
        // Collect the attribute tokens up to the matching `]`.
        let mut j = i + 2;
        let mut depth = 1;
        let mut is_test_attr = false;
        let mut saw_cfg = false;
        while j < toks.len() && depth > 0 {
            match toks[j].text.as_str() {
                "[" => depth += 1,
                "]" => depth -= 1,
                "cfg" => saw_cfg = true,
                "test" => is_test_attr = true,
                _ => {}
            }
            j += 1;
        }
        // `#[test]` or `#[cfg(test)]` (conservatively: any cfg mentioning
        // `test`). Other attributes fall through unskipped.
        if !(is_test_attr && (saw_cfg || j == i + 4)) {
            i = j;
            continue;
        }
        // Skip the attributed item: to the end of a `{ ... }` block, or a
        // `;` at depth 0 for block-less items (`#[cfg(test)] use ...;`).
        let item_start = i;
        let mut k = j;
        let mut brace = 0usize;
        while k < toks.len() {
            match toks[k].text.as_str() {
                "{" => brace += 1,
                "}" => {
                    brace -= 1;
                    if brace == 0 {
                        k += 1;
                        break;
                    }
                }
                ";" if brace == 0 => {
                    k += 1;
                    break;
                }
                _ => {}
            }
            k += 1;
        }
        for s in skip.iter_mut().take(k).skip(item_start) {
            *s = true;
        }
        i = k;
    }
    skip
}

/// Expands each allow directive into a covered line range.
pub(crate) fn allow_ranges(lexed: &Lexed) -> Vec<(String, usize, usize)> {
    let toks = &lexed.tokens;
    let mut out = Vec::new();
    for a in &lexed.allows {
        if !a.standalone {
            out.push((a.rule.clone(), a.line, a.line));
            continue;
        }
        // Standalone comment: cover the next code line; if that line opens
        // a brace block, extend coverage to the matching close.
        let Some(first) = toks.iter().position(|t| t.line > a.line) else {
            out.push((a.rule.clone(), a.line, a.line + 1));
            continue;
        };
        let code_line = toks[first].line;
        let mut end_line = code_line;
        let mut i = first;
        while i < toks.len() && toks[i].line == code_line && toks[i].text != "{" {
            i += 1;
        }
        if i < toks.len() && toks[i].text == "{" {
            let mut depth = 0usize;
            while i < toks.len() {
                match toks[i].text.as_str() {
                    "{" => depth += 1,
                    "}" => {
                        depth -= 1;
                        if depth == 0 {
                            end_line = toks[i].line;
                            break;
                        }
                    }
                    _ => {}
                }
                i += 1;
            }
        }
        out.push((a.rule.clone(), a.line, end_line));
    }
    out
}

/// Lints one source file given its workspace-relative path (forward
/// slashes). Returns unsuppressed findings in source order.
#[must_use]
pub fn lint_source(rel_path: &str, src: &str) -> Vec<LintViolation> {
    let mut all = lint_source_all(rel_path, src);
    all.retain(|v| !v.allowed);
    all
}

/// Like [`lint_source`] but also returns `lint:allow`-suppressed
/// findings, with [`LintViolation::allowed`] set.
#[must_use]
pub fn lint_source_all(rel_path: &str, src: &str) -> Vec<LintViolation> {
    let path = rel_path.replace('\\', "/");
    if !path.ends_with(".rs") {
        return Vec::new();
    }
    let ctx = FileCtx::new(src);
    let toks = &ctx.lexed.tokens;
    let mut out = Vec::new();

    for i in 0..toks.len() {
        let t = &toks[i];
        let next = toks.get(i + 1);

        if in_scope(&path, &UNORDERED_SCOPE)
            && t.kind == TokenKind::Ident
            && matches!(t.text.as_str(), "HashMap" | "HashSet" | "FastHashMap" | "FastHashSet")
            && next.is_none_or(|n| n.text != "::")
        {
            ctx.fire(
                &mut out,
                &path,
                "no-unordered-iteration",
                i,
                format!(
                    "`{}` in a result-affecting path: use BTreeMap/BTreeSet or a sorted \
                     drain, or justify with `// lint:allow(no-unordered-iteration): ...`",
                    t.text
                ),
            );
        }

        if in_scope(&path, &WALLCLOCK_SCOPE)
            && t.kind == TokenKind::Ident
            && matches!(t.text.as_str(), "Instant" | "SystemTime")
        {
            ctx.fire(
                &mut out,
                &path,
                "no-wallclock-in-core",
                i,
                format!(
                    "`{}` in simulated-time code: the cycle model must never read the \
                     wall clock",
                    t.text
                ),
            );
        }

        if in_scope(&path, &FLOAT_SCOPE) {
            let is_float_ident =
                t.kind == TokenKind::Ident && matches!(t.text.as_str(), "f32" | "f64");
            let is_float_literal = t.kind == TokenKind::Number
                && (t.text.contains('.') || t.text.ends_with("f32") || t.text.ends_with("f64"));
            if is_float_ident || is_float_literal {
                ctx.fire(
                    &mut out,
                    &path,
                    "no-float-in-model",
                    i,
                    format!(
                        "float `{}` in cycle-model state or stats: counters must stay \
                         integer-exact for byte-identical rows",
                        t.text
                    ),
                );
            }
        }

        if in_scope(&path, &NARROWING_SCOPE)
            && t.kind == TokenKind::Ident
            && t.text == "as"
            && next.is_some_and(|n| {
                n.kind == TokenKind::Ident
                    && matches!(
                        n.text.as_str(),
                        "u8" | "u16" | "u32" | "i8" | "i16" | "i32" | "usize" | "isize"
                    )
            })
        {
            let target = next.map(|n| n.text.clone()).unwrap_or_default();
            ctx.fire(
                &mut out,
                &path,
                "no-silent-narrowing",
                i,
                format!(
                    "`as {target}` can truncate a counter silently: use TryFrom or widen \
                     the destination"
                ),
            );
        }

        if in_scope(&path, &UNWRAP_SCOPE) && t.kind == TokenKind::Ident {
            let prev_is_dot = i > 0 && toks[i - 1].text == ".";
            let method_panic =
                matches!(t.text.as_str(), "unwrap" | "expect") && prev_is_dot;
            let macro_panic = matches!(t.text.as_str(), "panic" | "unreachable")
                && next.is_some_and(|n| n.text == "!");
            if method_panic || macro_panic {
                ctx.fire(
                    &mut out,
                    &path,
                    "no-unwrap-in-serve",
                    i,
                    format!(
                        "`{}` in the request-parsing path: malformed input must produce \
                         a 400 response, not a panic",
                        t.text
                    ),
                );
            }
        }
    }
    out
}

/// Recursively lints every `.rs` file under `<root>/crates/*/src`, in
/// sorted path order.
///
/// # Errors
///
/// Returns an error string if the tree cannot be read.
pub fn lint_root(root: &std::path::Path) -> Result<(Vec<LintViolation>, usize), String> {
    let (mut out, count) = lint_root_all(root)?;
    out.retain(|v| !v.allowed);
    Ok((out, count))
}

/// Like [`lint_root`] but also returns `lint:allow`-suppressed
/// findings, with [`LintViolation::allowed`] set.
///
/// # Errors
///
/// Returns an error string if the tree cannot be read.
pub fn lint_root_all(root: &std::path::Path) -> Result<(Vec<LintViolation>, usize), String> {
    let files = workspace_rs_files(root)?;
    let mut out = Vec::new();
    let count = files.len();
    for f in files {
        let rel = f
            .strip_prefix(root)
            .map_err(|_| "file outside root".to_string())?
            .to_string_lossy()
            .replace('\\', "/");
        let text =
            std::fs::read_to_string(&f).map_err(|e| format!("cannot read {}: {e}", f.display()))?;
        out.extend(lint_source_all(&rel, &text));
    }
    Ok((out, count))
}

/// Every `.rs` file under `<root>/crates/*/src`, in sorted path order.
pub(crate) fn workspace_rs_files(
    root: &std::path::Path,
) -> Result<Vec<std::path::PathBuf>, String> {
    let crates_dir = root.join("crates");
    let mut files = Vec::new();
    let mut crate_dirs: Vec<_> = std::fs::read_dir(&crates_dir)
        .map_err(|e| format!("cannot read {}: {e}", crates_dir.display()))?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    crate_dirs.sort();
    for dir in crate_dirs {
        let src = dir.join("src");
        if src.is_dir() {
            collect_rs(&src, &mut files)?;
        }
    }
    files.sort();
    Ok(files)
}

/// Serializes findings as a JSON array (no external dependencies): one
/// object per finding with `path`, `line`, `rule`, `allowed`, and
/// `message` keys, in input order.
#[must_use]
pub fn findings_to_json(findings: &[LintViolation]) -> String {
    fn esc(s: &str) -> String {
        let mut out = String::with_capacity(s.len() + 2);
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\t' => out.push_str("\\t"),
                '\r' => out.push_str("\\r"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out
    }
    let mut out = String::from("[");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n  {{\"path\":\"{}\",\"line\":{},\"rule\":\"{}\",\"allowed\":{},\"message\":\"{}\"}}",
            esc(&f.path),
            f.line,
            esc(f.rule),
            f.allowed,
            esc(&f.message)
        ));
    }
    if !findings.is_empty() {
        out.push('\n');
    }
    out.push_str("]\n");
    out
}

fn collect_rs(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) -> Result<(), String> {
    let mut entries: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("cannot read {}: {e}", dir.display()))?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .collect();
    entries.sort();
    for p in entries {
        if p.is_dir() {
            collect_rs(&p, out)?;
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructor_paths_ride_on_the_declaration() {
        // `FastHashMap::default()` alone must not fire; the type position
        // (declaration) is where the rule bites.
        let v = lint_source(
            "crates/core/src/machine/mod.rs",
            "fn f() { let w = FastHashMap::default(); }",
        );
        assert!(v.is_empty(), "{v:?}");
        let v = lint_source(
            "crates/core/src/machine/mod.rs",
            "struct S { w: FastHashMap<u64, u64> }",
        );
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "no-unordered-iteration");
    }

    #[test]
    fn out_of_scope_paths_are_ignored() {
        let v = lint_source("crates/util/src/lib.rs", "use std::collections::HashMap;");
        assert!(v.is_empty());
        let v = lint_source("crates/bench/src/runner.rs", "use std::collections::HashMap;");
        assert_eq!(v.len(), 1);
    }

    #[test]
    fn trailing_allow_covers_only_its_line() {
        let src = "use a::HashMap; // lint:allow(unordered-iteration): keyed probes only\nuse b::HashSet;\n";
        let v = lint_source("crates/mem/src/x.rs", src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].line, 2);
    }

    #[test]
    fn standalone_allow_covers_a_block() {
        let src = "// lint:allow(no-float-in-model): derived metric, not state\npub fn ipc() -> f64 {\n    let x: f64 = 0.0;\n    x\n}\nconst BAD: f64 = 1.5;\n";
        let v = lint_source("crates/core/src/stats.rs", src);
        assert_eq!(v.len(), 2, "{v:?}"); // only the const outside the block
        assert!(v.iter().all(|x| x.line == 6));
    }

    #[test]
    fn cfg_test_items_are_not_linted() {
        let src = "#[cfg(test)]\nmod tests {\n    use std::time::Instant;\n    #[test]\n    fn t() { let _ = 1.5f64; }\n}\n";
        let v = lint_source("crates/core/src/machine/mod.rs", src);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn narrowing_and_widening_are_distinguished() {
        let fire = lint_source("crates/bench/src/report.rs", "fn f(x: u64) -> u32 { x as u32 }");
        assert_eq!(fire.len(), 1);
        let ok = lint_source("crates/bench/src/report.rs", "fn f(x: u32) -> u64 { x as u64 }");
        assert!(ok.is_empty());
    }

    #[test]
    fn unwrap_or_variants_do_not_fire() {
        let ok = lint_source(
            "crates/serve/src/http.rs",
            "fn f(x: Option<u64>) -> u64 { x.unwrap_or(0).max(x.unwrap_or_default()) }",
        );
        assert!(ok.is_empty(), "{ok:?}");
        let fire = lint_source("crates/serve/src/http.rs", "fn f(x: Option<u64>) -> u64 { x.unwrap() }");
        assert_eq!(fire.len(), 1);
    }
}
