//! `smtx-check`: the workspace's correctness-analysis layer.
//!
//! Two parts, one discipline:
//!
//! * **`smtx-lint`** — one std-only static analyzer over the workspace's
//!   own sources, run as `cargo run -p smtx-check -- lint`. Each file is
//!   lexed and parsed once ([`syntax::parse`]: tokens, test-item mask,
//!   `lint:allow` ranges, items), and that one scan feeds nine
//!   hard-gated rules ([`RULE_NAMES`]):
//!   - five token rules ([`rules`]) enforcing the determinism and
//!     robustness the simulator's byte-identical-rows contract depends
//!     on: no unordered iteration in result paths, no wall clocks in
//!     simulated time, no floats in the cycle model, no silent counter
//!     narrowing, no panics in request parsing;
//!   - four interprocedural concurrency rules ([`rules2`]) over
//!     per-function summaries ([`summaries`]) and a workspace call graph
//!     ([`resolve`]): lock-order cycles, locks held across I/O, blocking
//!     in reactor callbacks, config-digest taint.
//! * **Splice verification** ([`splice`]) — a trace-level checker of the
//!   paper's §4.1/Fig. 1c retirement-splice contract, complementing the
//!   runtime `--check` sanitizer that lives in `smtx-core` (see
//!   `Machine::set_check`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

pub mod lexer;
pub mod resolve;
pub mod rules;
pub mod rules2;
pub mod splice;
pub mod summaries;
pub mod syntax;

pub use rules::{findings_to_json, LintViolation, RULE_NAMES};
pub use rules2::DigestReport;
pub use splice::{verify_trace, HandlerSpec};

/// The result of one analyzer run.
#[derive(Debug, Clone, Default)]
pub struct Analysis {
    /// Findings of all nine rules, including `lint:allow`-suppressed ones,
    /// in [`RULE_NAMES`] order, then by path, line and message.
    pub findings: Vec<LintViolation>,
    /// Number of files read.
    pub files: usize,
    /// Digest-membership derivation (empty when no `MachineConfig`).
    pub digest: DigestReport,
}

impl Analysis {
    /// Findings not suppressed by a `lint:allow` directive.
    #[must_use]
    pub fn errors(&self) -> Vec<&LintViolation> {
        self.findings.iter().filter(|f| !f.allowed).collect()
    }
}

/// Analyzes in-memory `(workspace-relative path, source)` pairs: one
/// parse per file, the token rules on every file within their scopes,
/// and the interprocedural rules over the [`rules2::SCOPE2`] files. This is also
/// the mutation-testing entry point.
#[must_use]
pub fn analyze_sources(files: &[(String, String)]) -> Analysis {
    let mut findings = Vec::new();
    let mut facts = Vec::new();
    let mut allows = BTreeMap::new();
    for (path, src) in files {
        let sf = syntax::parse(path, src);
        rules::token_findings(&sf, &mut findings);
        if rules2::SCOPE2.iter().any(|s| path.starts_with(s)) {
            facts.push(summaries::scan(&sf));
        }
        allows.insert(sf.path, sf.allows);
    }
    let (interprocedural, digest) = rules2::interprocedural(facts);
    findings.extend(interprocedural);
    for f in &mut findings {
        f.allowed = allows.get(&f.path).is_some_and(|a| syntax::is_allowed(a, f.rule, f.line));
    }
    let rank = |r: &str| RULE_NAMES.iter().position(|n| *n == r);
    findings.sort_by(|a, b| {
        (rank(a.rule), &a.path, a.line, &a.message).cmp(&(rank(b.rule), &b.path, b.line, &b.message))
    });
    Analysis { findings, files: files.len(), digest }
}

/// Analyzes every `.rs` file under `<root>/crates/*/src`.
///
/// # Errors
///
/// Returns an error string if the tree cannot be read.
pub fn lint_root(root: &Path) -> Result<Analysis, String> {
    Ok(analyze_sources(&workspace_sources(root)?))
}

/// Every `.rs` file under `<root>/crates/*/src` as `(workspace-relative
/// path, source)`, in sorted path order.
///
/// # Errors
///
/// Returns an error string if the tree cannot be read.
pub fn workspace_sources(root: &Path) -> Result<Vec<(String, String)>, String> {
    let mut paths = Vec::new();
    for dir in sorted_entries(&root.join("crates"))? {
        let src = dir.join("src");
        if src.is_dir() {
            collect_rs(&src, &mut paths)?;
        }
    }
    paths.sort();
    paths
        .into_iter()
        .map(|p| {
            let rel = p
                .strip_prefix(root)
                .map_err(|_| "file outside root".to_string())?
                .to_string_lossy()
                .replace('\\', "/");
            let src = std::fs::read_to_string(&p)
                .map_err(|e| format!("cannot read {}: {e}", p.display()))?;
            Ok((rel, src))
        })
        .collect()
}

fn sorted_entries(dir: &Path) -> Result<Vec<PathBuf>, String> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("cannot read {}: {e}", dir.display()))?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .collect();
    entries.sort();
    Ok(entries)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    for p in sorted_entries(dir)? {
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

    /// Unallowed findings for one in-memory file.
    fn errors(path: &str, src: &str) -> Vec<LintViolation> {
        let a = analyze_sources(&[(path.to_string(), src.to_string())]);
        a.findings.into_iter().filter(|f| !f.allowed).collect()
    }

    #[test]
    fn constructor_paths_ride_on_the_declaration() {
        // `FastHashMap::default()` alone must not fire; the type position
        // (declaration) is where the rule bites.
        let v = errors("crates/core/src/machine/mod.rs", "fn f() { let w = FastHashMap::default(); }");
        assert!(v.is_empty(), "{v:?}");
        let v = errors("crates/core/src/machine/mod.rs", "struct S { w: FastHashMap<u64, u64> }");
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "no-unordered-iteration");
    }

    #[test]
    fn out_of_scope_paths_are_ignored() {
        let v = errors("crates/util/src/lib.rs", "use std::collections::HashMap;");
        assert!(v.is_empty());
        let v = errors("crates/bench/src/runner.rs", "use std::collections::HashMap;");
        assert_eq!(v.len(), 1);
    }

    #[test]
    fn trailing_allow_covers_only_its_line() {
        let src = "use a::HashMap; // lint:allow(unordered-iteration): keyed probes only\nuse b::HashSet;\n";
        let v = errors("crates/mem/src/x.rs", src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].line, 2);
    }

    #[test]
    fn standalone_allow_covers_a_block() {
        let src = "// lint:allow(no-float-in-model): derived metric, not state\npub fn ipc() -> f64 {\n    let x: f64 = 0.0;\n    x\n}\nconst BAD: f64 = 1.5;\n";
        let v = errors("crates/core/src/stats.rs", src);
        assert_eq!(v.len(), 2, "{v:?}"); // only the const outside the block
        assert!(v.iter().all(|x| x.line == 6));
    }

    #[test]
    fn cfg_test_items_are_not_linted() {
        let src = "#[cfg(test)]\nmod tests {\n    use std::time::Instant;\n    #[test]\n    fn t() { let _ = 1.5f64; }\n}\n\
                   #[cfg(all(test, feature = \"x\"))]\nfn helper() -> f64 { 2.5 }\n";
        let v = errors("crates/core/src/machine/mod.rs", src);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn cfg_not_test_items_are_linted() {
        let v = errors("crates/core/src/stats.rs", "#[cfg(not(test))]\npub fn prod() -> f64 { 1.5 }\n");
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v.iter().all(|x| x.rule == "no-float-in-model" && x.line == 2), "{v:?}");
    }

    #[test]
    fn hex_literals_spelling_a_float_suffix_are_integers() {
        for lit in ["0x1f32", "0xff64"] {
            let v = errors("crates/core/src/stats.rs", &format!("pub const MASK: u64 = {lit};"));
            assert!(v.is_empty(), "{lit}: {v:?}");
        }
    }

    #[test]
    fn exponent_literals_are_floats() {
        for lit in ["1e9", "1e-3"] {
            let src = format!("pub fn scale() -> u64 {{ {lit} as u64 }}");
            let v = errors("crates/core/src/stats.rs", &src);
            assert_eq!(v.len(), 1, "{lit}: {v:?}");
            assert_eq!(v[0].rule, "no-float-in-model");
            assert!(v[0].message.starts_with(&format!("float `{lit}` ")), "{v:?}");
        }
    }

    #[test]
    fn narrowing_and_widening_are_distinguished() {
        let fire = errors("crates/bench/src/report.rs", "fn f(x: u64) -> u32 { x as u32 }");
        assert_eq!(fire.len(), 1);
        let ok = errors("crates/bench/src/report.rs", "fn f(x: u32) -> u64 { x as u64 }");
        assert!(ok.is_empty());
    }

    #[test]
    fn unwrap_or_variants_do_not_fire() {
        let ok = errors(
            "crates/serve/src/http.rs",
            "fn f(x: Option<u64>) -> u64 { x.unwrap_or(0).max(x.unwrap_or_default()) }",
        );
        assert!(ok.is_empty(), "{ok:?}");
        let fire = errors("crates/serve/src/http.rs", "fn f(x: Option<u64>) -> u64 { x.unwrap() }");
        assert_eq!(fire.len(), 1);
    }

    #[test]
    fn findings_sort_by_rule_order_then_path_and_line() {
        let files = [
            ("crates/serve/src/http.rs", "fn f(x: Option<u64>) -> u64 { x.unwrap() }"),
            ("crates/bench/src/runner.rs", "\nuse std::collections::HashMap;"),
            ("crates/bench/src/report.rs", "use std::collections::HashMap;"),
        ];
        let a = analyze_sources(&files.map(|(p, s)| (p.to_string(), s.to_string())));
        let got: Vec<(&str, &str, usize)> =
            a.findings.iter().map(|f| (f.rule, f.path.as_str(), f.line)).collect();
        assert_eq!(
            got,
            [
                ("no-unordered-iteration", "crates/bench/src/report.rs", 1),
                ("no-unordered-iteration", "crates/bench/src/runner.rs", 2),
                ("no-unwrap-in-serve", "crates/serve/src/http.rs", 1),
            ]
        );
        assert_eq!(a.files, 3);
    }
}
