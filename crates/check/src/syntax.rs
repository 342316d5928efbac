//! A lightweight item-level Rust syntax layer on top of [`crate::lexer`].
//!
//! [`parse`] is the analyzer's one per-file scan: it lexes the file once
//! and computes, once each, the bracket matching, the test-item mask
//! (the single "is this test code?" decision, [`is_test_attr`]), the
//! `lint:allow` ranges, and the items the interprocedural pass needs:
//! `use` declarations (flattened, alias-aware), struct
//! definitions with field types reduced to base identifiers, and
//! functions — free or inside `impl` blocks — with parameter types,
//! return-type classification (guard-returning or not) and body token
//! ranges. It is deliberately **not** a full parser: function bodies
//! stay flat token ranges (scanned by [`crate::summaries`]), generics
//! are skipped over, trait *definitions* are ignored (only `impl`
//! blocks matter), and any unrecognized construct is stepped over
//! token by token. Std-only, like the lexer it sits on.

use crate::lexer::{lex, Lexed, Token, TokenKind};

/// One `use` declaration, flattened: `use a::b::{c, d as e};` yields
/// `(c, [a, b, c])` and `(e, [a, b, d])`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UseDecl {
    /// The name this import binds in the file.
    pub alias: String,
    /// Full path segments of the imported item.
    pub path: Vec<String>,
}

/// One struct field, its type reduced to a base identifier.
#[derive(Debug, Clone)]
pub struct FieldDef {
    /// Field name.
    pub name: String,
    /// Base type identifier after unwrapping references and the
    /// transparent wrappers `Arc`/`Rc`/`Box`/`Vec`/`VecDeque`/`Option`
    /// (e.g. `Mutex`, `Service`, `TcpStream`, `ShardMap`).
    pub base: String,
    /// Whether the unwrapped type is `Mutex` or `RwLock`.
    pub lock: bool,
}

/// One struct definition.
#[derive(Debug, Clone)]
pub struct StructDef {
    /// Struct name.
    pub name: String,
    /// Named fields (tuple and unit structs parse to an empty list).
    pub fields: Vec<FieldDef>,
}

/// One function definition (free or method) with its body range.
#[derive(Debug, Clone)]
pub struct FnDef {
    /// Function name.
    pub name: String,
    /// `Some(Type)` for functions inside `impl Type` / `impl Tr for Type`.
    pub self_ty: Option<String>,
    /// `Some(Tr)` for functions inside `impl Tr for Type`.
    pub trait_name: Option<String>,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Parameter `(name, base type)` pairs; `self` carries the impl type.
    pub params: Vec<(String, String)>,
    /// Whether the return type mentions a `MutexGuard`-style guard.
    pub returns_guard: bool,
    /// Whether the function sits inside a test-only item ([`is_test_attr`]).
    pub is_test: bool,
    /// Token index range of the body, exclusive of the outer braces.
    pub body: (usize, usize),
}

/// A `lint:allow` directive's covered range: `(rule, first_line, last_line)`.
pub type AllowRange = (String, usize, usize);

/// A parsed source file: tokens plus the item structure above them.
#[derive(Debug)]
pub struct SynFile {
    /// Workspace-relative path.
    pub path: String,
    /// The underlying token stream (with allow directives).
    pub lexed: Lexed,
    /// `close_of[i]` is the index of the bracket matching an opening
    /// `(`/`[`/`{` at `i` (`usize::MAX` when unmatched or not a bracket).
    pub close_of: Vec<usize>,
    /// `open_of[i]` is the inverse map for closing brackets.
    pub open_of: Vec<usize>,
    /// `test_mask[i]`: token `i` belongs to a test-only item.
    pub test_mask: Vec<bool>,
    /// Line ranges covered by `lint:allow` directives.
    pub allows: Vec<AllowRange>,
    /// Flattened `use` declarations.
    pub uses: Vec<UseDecl>,
    /// Struct definitions.
    pub structs: Vec<StructDef>,
    /// Function definitions, in source order.
    pub fns: Vec<FnDef>,
}

/// Wrappers that [`base_of_type`] looks through to find the base type.
const WRAPPERS: [&str; 6] = ["Arc", "Rc", "Box", "Vec", "VecDeque", "Option"];

fn is_ident(toks: &[Token], i: usize) -> bool {
    toks.get(i).is_some_and(|t| t.kind == TokenKind::Ident)
}

fn text(toks: &[Token], i: usize) -> &str {
    toks.get(i).map_or("", |t| t.text.as_str())
}

/// Reduces a type token sequence to `(base identifier, is-lock)`,
/// unwrapping references, lifetimes, slices and the [`WRAPPERS`].
pub(crate) fn base_of_type(t: &[String]) -> (String, bool) {
    let mut i = 0;
    let mut base = String::new();
    loop {
        while i < t.len() {
            match t[i].as_str() {
                "&" | "mut" | "dyn" | "[" => i += 1,
                "'" => i += 2,
                _ => break,
            }
        }
        let mut last = String::new();
        while i < t.len() && (t[i] == "::" || t[i].chars().next().is_some_and(|c| c.is_ascii_alphabetic() || c == '_')) {
            if t[i] != "::" {
                last.clone_from(&t[i]);
            }
            i += 1;
        }
        if last.is_empty() {
            return (base, false);
        }
        base = last;
        if matches!(base.as_str(), "Mutex" | "RwLock") {
            return (base, true);
        }
        if WRAPPERS.contains(&base.as_str()) && i < t.len() && t[i] == "<" {
            i += 1;
            continue;
        }
        return (base, false);
    }
}

/// Parses `src` into a [`SynFile`].
#[must_use]
pub fn parse(path: &str, src: &str) -> SynFile {
    let lexed = lex(src);
    let n = lexed.tokens.len();
    let mut close_of = vec![usize::MAX; n];
    let mut open_of = vec![usize::MAX; n];
    let mut stack: Vec<usize> = Vec::new();
    for (i, tok) in lexed.tokens.iter().enumerate() {
        match tok.text.as_str() {
            "(" | "[" | "{" => stack.push(i),
            ")" | "]" | "}" => {
                if let Some(o) = stack.pop() {
                    close_of[o] = i;
                    open_of[i] = o;
                }
            }
            _ => {}
        }
    }
    let test_mask = test_mask(&lexed.tokens, &close_of);
    let allows = allow_ranges(&lexed, &close_of);
    let mut out = SynFile {
        path: path.to_string(),
        lexed,
        close_of,
        open_of,
        test_mask,
        allows,
        uses: Vec::new(),
        structs: Vec::new(),
        fns: Vec::new(),
    };
    parse_items(&mut out, 0, n, None, None);
    out
}

/// Whether the attribute bracketed by `[` at `open` and `]` at `close`
/// makes its item test-only: exactly `#[test]`, `#[cfg(test)]`, or
/// `#[cfg(all(..))]` with `test` among the `all` arguments. Anything else
/// — `#[cfg(not(test))]`, `#[cfg(any(test, ..))]` — may be compiled into
/// the real build, so it is linted.
#[must_use]
pub fn is_test_attr(toks: &[Token], open: usize, close: usize) -> bool {
    let t = |k: usize| if k < close { text(toks, k) } else { "" };
    if close == open + 2 {
        return t(open + 1) == "test";
    }
    if t(open + 1) != "cfg" || t(open + 2) != "(" {
        return false;
    }
    match t(open + 3) {
        "test" => close == open + 5,
        "all" if t(open + 4) == "(" => {
            // Only a direct argument counts: `all(not(test), ..)` is not test-only.
            let mut depth = 0i32;
            (open + 5..close).any(|k| {
                match t(k) {
                    "(" => depth += 1,
                    ")" => depth -= 1,
                    _ => {}
                }
                depth == 0
                    && t(k) == "test"
                    && matches!(t(k - 1), "(" | ",")
                    && matches!(t(k + 1), "," | ")")
            })
        }
        _ => false,
    }
}

/// Marks every token of a test-only item (see [`is_test_attr`]): from
/// the attribute to the end of the item's first `{..}` block, or to its
/// `;` outside any bracket group.
fn test_mask(toks: &[Token], close_of: &[usize]) -> Vec<bool> {
    let n = toks.len();
    let after = |k: usize| close_of[k].saturating_add(1).min(n);
    let mut mask = vec![false; n];
    let mut i = 0;
    while i + 1 < n {
        if toks[i].text != "#" || toks[i + 1].text != "[" {
            i += 1;
            continue;
        }
        let close = close_of[i + 1];
        if close == usize::MAX {
            break;
        }
        if !is_test_attr(toks, i + 1, close) {
            i = close + 1;
            continue;
        }
        let mut k = close + 1;
        let end = loop {
            match toks.get(k).map(|t| t.text.as_str()) {
                None | Some("}" | ")" | "]") => break k.min(n),
                Some("{") => break after(k),
                Some(";") => break k + 1,
                Some("(" | "[") => k = after(k),
                _ => k += 1,
            }
        };
        mask[i..end].fill(true);
        i = end;
    }
    mask
}

/// Expands each allow directive into a covered line range. A trailing
/// directive covers its own line; a standalone one covers the next code
/// line, extended over a brace block that line opens.
fn allow_ranges(lexed: &Lexed, close_of: &[usize]) -> Vec<AllowRange> {
    let toks = &lexed.tokens;
    let mut out = Vec::new();
    for a in &lexed.allows {
        if !a.standalone {
            out.push((a.rule.clone(), a.line, a.line));
            continue;
        }
        let Some(first) = toks.iter().position(|t| t.line > a.line) else {
            out.push((a.rule.clone(), a.line, a.line + 1));
            continue;
        };
        let code_line = toks[first].line;
        let brace = (first..toks.len())
            .take_while(|&i| toks[i].line == code_line)
            .find(|&i| toks[i].text == "{");
        let end_line = brace
            .and_then(|i| toks.get(close_of[i]))
            .map_or(code_line, |t| t.line);
        out.push((a.rule.clone(), a.line, end_line));
    }
    out
}

/// Whether an allow range covers `rule` at `line`; the `no-` prefix is
/// optional on both sides.
#[must_use]
pub fn is_allowed(allows: &[AllowRange], rule: &str, line: usize) -> bool {
    let bare = rule.strip_prefix("no-").unwrap_or(rule);
    allows.iter().any(|(name, lo, hi)| {
        (*lo..=*hi).contains(&line) && name.strip_prefix("no-").unwrap_or(name) == bare
    })
}

/// Skips a balanced `<...>` group starting at `i` (which must point at
/// `<`); `->` arrows inside do not close the group.
fn skip_angles(toks: &[Token], mut i: usize) -> usize {
    let mut depth = 0usize;
    while i < toks.len() {
        match toks[i].text.as_str() {
            "<" => depth += 1,
            ">" if i > 0 && toks[i - 1].text != "-" => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    return i + 1;
                }
            }
            _ => {}
        }
        i += 1;
    }
    i
}

/// Parses the items in token range `[lo, hi)`.
fn parse_items(
    f: &mut SynFile,
    lo: usize,
    hi: usize,
    self_ty: Option<&str>,
    trait_name: Option<&str>,
) {
    let mut i = lo;
    while i < hi {
        let toks = &f.lexed.tokens;
        match text(toks, i) {
            "#" => {
                // `#[attr]` or `#![attr]`: test-ness lives in `test_mask`.
                let open = if text(toks, i + 1) == "!" { i + 2 } else { i + 1 };
                i = if text(toks, open) == "[" { f.close_of[open].min(hi) + 1 } else { i + 1 };
            }
            "pub" => {
                i += 1;
                if text(toks, i) == "(" {
                    i = f.close_of[i].min(hi) + 1;
                }
            }
            "use" => {
                let end = stmt_semicolon(toks, i + 1, hi);
                let mut uses = Vec::new();
                use_tree(toks, i + 1, end, Vec::new(), &mut uses, f, 0);
                f.uses.extend(uses);
                i = end + 1;
            }
            "mod" => {
                // `mod name { ... }` or `mod name;`
                let mut j = i + 1;
                while j < hi && text(toks, j) != "{" && text(toks, j) != ";" {
                    j += 1;
                }
                if text(toks, j) == "{" {
                    let close = f.close_of[j].min(hi);
                    parse_items(f, j + 1, close, None, None);
                    i = close + 1;
                } else {
                    i = j + 1;
                }
            }
            "struct" => {
                i = parse_struct(f, i, hi);
            }
            "enum" | "union" | "trait" => {
                // Skip the whole definition (trait default bodies are
                // intentionally not analyzed; only impl blocks are).
                let mut j = i + 1;
                while j < hi && text(toks, j) != "{" && text(toks, j) != ";" {
                    if text(toks, j) == "<" {
                        j = skip_angles(toks, j);
                    } else {
                        j += 1;
                    }
                }
                i = if text(toks, j) == "{" { f.close_of[j].min(hi) + 1 } else { j + 1 };
            }
            "impl" => {
                i = parse_impl(f, i, hi);
            }
            "fn" => {
                i = parse_fn(f, i, hi, self_ty, trait_name);
            }
            "const" | "static" | "type" => {
                if text(toks, i + 1) == "fn" {
                    i += 1; // `const fn` qualifier
                } else {
                    i = stmt_semicolon(toks, i + 1, hi) + 1;
                }
            }
            "macro_rules" => {
                let mut j = i + 1;
                while j < hi && text(toks, j) != "{" {
                    j += 1;
                }
                i = if j < hi { f.close_of[j].min(hi) + 1 } else { hi };
            }
            _ => i += 1,
        }
    }
}

/// Finds the `;` ending a block-less item, respecting nested brackets.
fn stmt_semicolon(toks: &[Token], mut i: usize, hi: usize) -> usize {
    let mut depth = 0i32;
    while i < hi {
        match text(toks, i) {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => depth -= 1,
            ";" if depth <= 0 => return i,
            _ => {}
        }
        i += 1;
    }
    hi.saturating_sub(1)
}

/// Expands one `use` tree, pushing an alias per imported leaf.
fn use_tree(
    toks: &[Token],
    mut i: usize,
    end: usize,
    mut path: Vec<String>,
    out: &mut Vec<UseDecl>,
    f: &SynFile,
    depth: usize,
) -> usize {
    if depth > 8 {
        return end;
    }
    while i < end {
        if is_ident(toks, i) && text(toks, i) != "as" {
            path.push(text(toks, i).to_string());
            i += 1;
        } else {
            match text(toks, i) {
                "::" | "*" => i += 1,
                "as" => {
                    let alias = text(toks, i + 1).to_string();
                    if !alias.is_empty() {
                        out.push(UseDecl { alias, path: path.clone() });
                    }
                    return i + 2;
                }
                "{" => {
                    let close = f.close_of[i].min(end);
                    let mut j = i + 1;
                    while j < close {
                        j = use_tree(toks, j, close, path.clone(), out, f, depth + 1);
                        if text(toks, j) == "," {
                            j += 1;
                        } else if j <= close && !is_ident(toks, j) && text(toks, j) != "{" {
                            break;
                        }
                    }
                    return close + 1;
                }
                _ => break,
            }
        }
    }
    // A plain path leaf: binds its last segment (`self` binds the parent).
    if path.last().is_some_and(|s| s == "self") {
        path.pop();
    }
    if let Some(last) = path.last() {
        out.push(UseDecl { alias: last.clone(), path: path.clone() });
    }
    i
}

/// Parses a struct definition starting at the `struct` keyword.
fn parse_struct(f: &mut SynFile, i: usize, hi: usize) -> usize {
    let toks = &f.lexed.tokens;
    let name = text(toks, i + 1).to_string();
    let mut j = i + 2;
    if text(toks, j) == "<" {
        j = skip_angles(toks, j);
    }
    match text(toks, j) {
        "{" => {
            let close = f.close_of[j].min(hi);
            let fields = parse_fields(f, j + 1, close);
            f.structs.push(StructDef { name, fields });
            close + 1
        }
        "(" => {
            // Tuple struct: no named fields to track.
            f.structs.push(StructDef { name, fields: Vec::new() });
            stmt_semicolon(toks, f.close_of[j].min(hi) + 1, hi) + 1
        }
        _ => {
            f.structs.push(StructDef { name, fields: Vec::new() });
            j + 1
        }
    }
}

/// Parses named fields in `[lo, hi)` (the inside of a struct's braces).
fn parse_fields(f: &SynFile, lo: usize, hi: usize) -> Vec<FieldDef> {
    let toks = &f.lexed.tokens;
    let mut out = Vec::new();
    let mut i = lo;
    while i < hi {
        match text(toks, i) {
            "#" if text(toks, i + 1) == "[" => {
                i = f.close_of[i + 1].min(hi) + 1;
            }
            "pub" => {
                i += 1;
                if text(toks, i) == "(" {
                    i = f.close_of[i].min(hi) + 1;
                }
            }
            _ if is_ident(toks, i) && text(toks, i + 1) == ":" => {
                let name = text(toks, i).to_string();
                let mut j = i + 2;
                let mut ty = Vec::new();
                let mut angle = 0i32;
                let mut depth = 0i32;
                while j < hi {
                    match text(toks, j) {
                        "<" => angle += 1,
                        ">" if text(toks, j - 1) != "-" => angle -= 1,
                        "(" | "[" | "{" => depth += 1,
                        ")" | "]" | "}" => depth -= 1,
                        "," if angle <= 0 && depth <= 0 => break,
                        _ => {}
                    }
                    ty.push(text(toks, j).to_string());
                    j += 1;
                }
                let (base, lock) = base_of_type(&ty);
                out.push(FieldDef { name, base, lock });
                i = j + 1;
            }
            _ => i += 1,
        }
    }
    out
}

/// Parses an `impl` block starting at the `impl` keyword; its functions
/// are parsed with the impl's self type and (when present) trait name.
fn parse_impl(f: &mut SynFile, i: usize, hi: usize) -> usize {
    let toks = &f.lexed.tokens;
    let mut j = i + 1;
    if text(toks, j) == "<" {
        j = skip_angles(toks, j);
    }
    let mut first: Vec<String> = Vec::new();
    let mut second: Vec<String> = Vec::new();
    let mut cur = &mut first;
    while j < hi {
        match text(toks, j) {
            "for" => {
                cur = &mut second;
                j += 1;
            }
            "where" => {
                while j < hi && text(toks, j) != "{" {
                    j += 1;
                }
                break;
            }
            "{" => break,
            "<" => j = skip_angles(toks, j),
            "::" | "&" | "dyn" | "'" => j += 1,
            _ if is_ident(toks, j) => {
                cur.push(text(toks, j).to_string());
                j += 1;
            }
            _ => j += 1,
        }
    }
    if text(toks, j) != "{" {
        return j + 1;
    }
    let close = f.close_of[j].min(hi);
    let (self_ty, trait_name) = if second.is_empty() {
        (first.last().cloned(), None)
    } else {
        (second.last().cloned(), first.last().cloned())
    };
    parse_items(f, j + 1, close, self_ty.as_deref(), trait_name.as_deref());
    close + 1
}

/// Parses a function starting at the `fn` keyword.
fn parse_fn(
    f: &mut SynFile,
    i: usize,
    hi: usize,
    self_ty: Option<&str>,
    trait_name: Option<&str>,
) -> usize {
    let toks = &f.lexed.tokens;
    let name = text(toks, i + 1).to_string();
    let line = toks.get(i).map_or(0, |t| t.line);
    let mut j = i + 2;
    if text(toks, j) == "<" {
        j = skip_angles(toks, j);
    }
    if text(toks, j) != "(" {
        return j;
    }
    let params_close = f.close_of[j].min(hi);
    let params = parse_params(f, j + 1, params_close, self_ty);
    let mut k = params_close + 1;
    let mut returns_guard = false;
    if text(toks, k) == "-" && text(toks, k + 1) == ">" {
        k += 2;
        let mut depth = 0i32;
        while k < hi {
            match text(toks, k) {
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                "{" | ";" if depth <= 0 => break,
                "where" if depth <= 0 => break,
                t if t.ends_with("Guard") => returns_guard = true,
                _ => {}
            }
            k += 1;
        }
    }
    if text(toks, k) == "where" {
        let mut depth = 0i32;
        while k < hi {
            match text(toks, k) {
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                "{" if depth <= 0 => break,
                _ => {}
            }
            k += 1;
        }
    }
    if text(toks, k) != "{" {
        // Signature only (shouldn't happen outside trait defs): skip.
        return k + 1;
    }
    let close = f.close_of[k].min(hi);
    f.fns.push(FnDef {
        name,
        self_ty: self_ty.map(str::to_string),
        trait_name: trait_name.map(str::to_string),
        line,
        params,
        returns_guard,
        is_test: f.test_mask[i],
        body: (k + 1, close),
    });
    close + 1
}

/// Parses a parameter list in `[lo, hi)` into `(name, base type)` pairs.
fn parse_params(f: &SynFile, lo: usize, hi: usize, self_ty: Option<&str>) -> Vec<(String, String)> {
    let toks = &f.lexed.tokens;
    let mut out = Vec::new();
    // Split at top-level commas (angle-aware: `->` does not close `<`).
    let mut bounds = vec![lo];
    let mut angle = 0i32;
    let mut depth = 0i32;
    let mut i = lo;
    while i < hi {
        match text(toks, i) {
            "<" => angle += 1,
            ">" if i > 0 && text(toks, i - 1) != "-" => angle -= 1,
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => depth -= 1,
            "," if angle <= 0 && depth <= 0 => bounds.push(i + 1),
            _ => {}
        }
        i += 1;
    }
    bounds.push(hi + 1);
    for w in bounds.windows(2) {
        let (a, b) = (w[0], (w[1] - 1).min(hi));
        if a >= b {
            continue;
        }
        // `self` in any flavor carries the impl type.
        let names: Vec<&str> = (a..b).map(|k| text(toks, k)).collect();
        if let Some(pos) = names.iter().position(|t| *t == "self") {
            // A receiver (`self`, `&self`, `&mut self`, `&'a self`) has no
            // `:` before the `self` token; `x: Arc<Self>` does not match.
            if !names[..pos].contains(&":") {
                out.push(("self".to_string(), self_ty.unwrap_or("-").to_string()));
                continue;
            }
        }
        // `pattern: Type` — take the first ident of the pattern.
        let Some(colon) = (a..b).find(|&k| text(toks, k) == ":") else {
            continue;
        };
        let mut name = String::new();
        for k in a..colon {
            if is_ident(toks, k) && text(toks, k) != "mut" && text(toks, k) != "ref" {
                name = text(toks, k).to_string();
                break;
            }
        }
        if name.is_empty() || name == "_" {
            continue;
        }
        let ty: Vec<String> = (colon + 1..b).map(|k| text(toks, k).to_string()).collect();
        let (base, _) = base_of_type(&ty);
        out.push((name, base));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn impl_blocks_carry_self_type_and_trait() {
        let f = parse(
            "crates/x/src/a.rs",
            "impl Router for Daemon { fn route(&self, req: &Request) -> Response { bad() } }\n\
             impl Daemon { fn helper(&self) {} }",
        );
        assert_eq!(f.fns.len(), 2);
        assert_eq!(f.fns[0].name, "route");
        assert_eq!(f.fns[0].self_ty.as_deref(), Some("Daemon"));
        assert_eq!(f.fns[0].trait_name.as_deref(), Some("Router"));
        assert_eq!(f.fns[1].trait_name, None);
        assert_eq!(f.fns[0].params[1], ("req".to_string(), "Request".to_string()));
    }

    #[test]
    fn struct_fields_unwrap_to_base_types() {
        let f = parse(
            "crates/x/src/a.rs",
            "struct S { inner: Mutex<Inner>, svc: Arc<Service>, shards: Vec<Mutex<Map<K, V>>>, n: u64 }",
        );
        let s = &f.structs[0];
        assert_eq!(s.fields[0].base, "Mutex");
        assert!(s.fields[0].lock);
        assert_eq!(s.fields[1].base, "Service");
        assert!(!s.fields[1].lock);
        assert!(s.fields[2].lock, "Vec<Mutex<..>> unwraps to the Mutex");
        assert_eq!(s.fields[3].base, "u64");
    }

    #[test]
    fn use_groups_flatten_with_aliases() {
        let f = parse(
            "crates/x/src/a.rs",
            "use smtx_serve::http::{client_request, respond as reply};\nuse std::sync::Arc;",
        );
        assert!(f
            .uses
            .iter()
            .any(|u| u.alias == "client_request" && u.path.join("::") == "smtx_serve::http::client_request"));
        assert!(f.uses.iter().any(|u| u.alias == "reply" && u.path.last().unwrap() == "respond"));
        assert!(f.uses.iter().any(|u| u.alias == "Arc"));
    }

    #[test]
    fn guard_returning_fns_are_flagged() {
        let f = parse(
            "crates/x/src/a.rs",
            "impl C { fn lock(&self) -> MutexGuard<'_, Inner> { self.inner.lock().unwrap() } \
             fn peek(&self) -> u64 { 3 } }",
        );
        assert!(f.fns[0].returns_guard);
        assert!(!f.fns[1].returns_guard);
    }

    #[test]
    fn cfg_test_items_are_marked() {
        let f = parse(
            "crates/x/src/a.rs",
            "#[cfg(test)]\nmod tests { fn helper() {} #[test] fn t() {} }\nfn live() {}",
        );
        assert!(f.fns.iter().find(|x| x.name == "helper").unwrap().is_test);
        assert!(f.fns.iter().find(|x| x.name == "t").unwrap().is_test);
        assert!(!f.fns.iter().find(|x| x.name == "live").unwrap().is_test);
    }

    #[test]
    fn only_attributes_that_imply_test_are_test_only() {
        let test_only = |attr: &str| {
            let src = format!("{attr}\nfn f() -> [u8; 2] {{ [0; 2] }}\nfn live() {{}}");
            let f = parse("crates/x/src/a.rs", &src);
            assert!(!f.fns[1].is_test, "{attr} leaked past its item");
            f.fns[0].is_test
        };
        assert!(test_only("#[test]"));
        assert!(test_only("#[cfg(test)]"));
        assert!(test_only("#[cfg(all(test, feature = \"x\"))]"));
        assert!(test_only("#[cfg(all(unix, test))]"));
        assert!(!test_only("#[cfg(not(test))]"));
        assert!(!test_only("#[cfg(any(test, unix))]"));
        assert!(!test_only("#[cfg(all(not(test), unix))]"));
        assert!(!test_only("#[cfg_attr(test, derive(Debug))]"));
    }
}
