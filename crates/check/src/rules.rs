//! The finding type, the rule list, and the five token rules.
//!
//! Each token rule has a kebab-case name, a path scope (relative to the
//! workspace root), and a token-level pattern, and runs over the token
//! stream [`crate::syntax::parse`] already produced for the file. Escapes
//! use `// lint:allow(rule-name): one-line justification` — trailing on
//! the offending line, or on its own line immediately before it (in which
//! case a brace block opened by that next line is covered in full). The
//! `no-` prefix is optional in the directive.
//!
//! Test-only items ([`crate::syntax::is_test_attr`]) are not linted: test
//! scaffolds may use wall clocks, unwraps, and unordered maps freely —
//! determinism rules protect simulated results, not test harnesses.

use crate::lexer::TokenKind;
use crate::syntax::SynFile;

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

/// All nine rule names in reporting order (also the documentation order
/// in DESIGN.md §11): the five token rules, then the four
/// interprocedural ones ([`crate::rules2`]).
pub const RULE_NAMES: [&str; 9] = [
    "no-unordered-iteration",
    "no-wallclock-in-core",
    "no-float-in-model",
    "no-silent-narrowing",
    "no-unwrap-in-serve",
    "lock-order",
    "no-lock-across-io",
    "no-blocking-in-reactor",
    "digest-taint",
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

/// Whether a number token is a float literal: no `0x`/`0o`/`0b` prefix,
/// and a `.`, an `f32`/`f64` suffix, or a decimal exponent (`1e9`,
/// `1e-3`). Hex digits can spell `f32` or `e`, so `0x1f32` is an integer.
fn is_float_literal(lit: &str) -> bool {
    if ["0x", "0o", "0b"].iter().any(|p| lit.starts_with(p)) {
        return false;
    }
    let exponent = lit.trim_start_matches(|c: char| c.is_ascii_digit() || c == '_');
    lit.contains('.')
        || lit.ends_with("f32")
        || lit.ends_with("f64")
        || exponent.starts_with(['e', 'E'])
}

/// Runs the five token rules over one parsed file, each within its path
/// scope, skipping test-only items. Findings come back unallowed; the
/// caller applies `lint:allow` to every rule at once.
pub(crate) fn token_findings(sf: &SynFile, out: &mut Vec<LintViolation>) {
    let path = sf.path.as_str();
    let toks = &sf.lexed.tokens;
    let mut fire = |rule: &'static str, i: usize, message: String| {
        if !sf.test_mask[i] {
            out.push(LintViolation {
                path: path.to_string(),
                line: toks[i].line,
                rule,
                message,
                allowed: false,
            });
        }
    };
    let unordered = in_scope(path, &UNORDERED_SCOPE);
    let wallclock = in_scope(path, &WALLCLOCK_SCOPE);
    let float = in_scope(path, &FLOAT_SCOPE);
    let narrowing = in_scope(path, &NARROWING_SCOPE);
    let unwrap = in_scope(path, &UNWRAP_SCOPE);

    for (i, t) in toks.iter().enumerate() {
        let text = t.text.as_str();
        let next = toks.get(i + 1).map_or("", |n| n.text.as_str());
        let next_ident = toks.get(i + 1).is_some_and(|n| n.kind == TokenKind::Ident);
        let ident = t.kind == TokenKind::Ident;

        if unordered
            && ident
            && matches!(text, "HashMap" | "HashSet" | "FastHashMap" | "FastHashSet")
            && next != "::"
        {
            fire(
                "no-unordered-iteration",
                i,
                format!(
                    "`{text}` in a result-affecting path: use BTreeMap/BTreeSet or a sorted \
                     drain, or justify with `// lint:allow(no-unordered-iteration): ...`"
                ),
            );
        }

        if wallclock && ident && matches!(text, "Instant" | "SystemTime") {
            fire(
                "no-wallclock-in-core",
                i,
                format!(
                    "`{text}` in simulated-time code: the cycle model must never read the \
                     wall clock"
                ),
            );
        }

        if float
            && ((ident && matches!(text, "f32" | "f64"))
                || (t.kind == TokenKind::Number && is_float_literal(text)))
        {
            fire(
                "no-float-in-model",
                i,
                format!(
                    "float `{text}` in cycle-model state or stats: counters must stay \
                     integer-exact for byte-identical rows"
                ),
            );
        }

        if narrowing
            && ident
            && text == "as"
            && next_ident
            && matches!(next, "u8" | "u16" | "u32" | "i8" | "i16" | "i32" | "usize" | "isize")
        {
            fire(
                "no-silent-narrowing",
                i,
                format!(
                    "`as {next}` can truncate a counter silently: use TryFrom or widen \
                     the destination"
                ),
            );
        }

        if unwrap && ident {
            let method_panic =
                matches!(text, "unwrap" | "expect") && i > 0 && toks[i - 1].text == ".";
            let macro_panic = matches!(text, "panic" | "unreachable") && next == "!";
            if method_panic || macro_panic {
                fire(
                    "no-unwrap-in-serve",
                    i,
                    format!(
                        "`{text}` in the request-parsing path: malformed input must produce \
                         a 400 response, not a panic"
                    ),
                );
            }
        }
    }
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
