//! A minimal hand-rolled Rust lexer for the lint pass (std-only, same
//! constraint as `smtx-rng`).
//!
//! Produces identifier / number / punctuation tokens with 1-based line
//! numbers, skipping comments, strings, and char literals so rule patterns
//! never fire on prose or literal text. Comments are scanned (not
//! discarded) for `lint:allow(rule)` escape directives before being
//! dropped from the token stream.

/// The coarse kind of a [`Token`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// An identifier or keyword.
    Ident,
    /// A numeric literal (integer or float, suffix included).
    Number,
    /// Punctuation; `::` is fused into a single token, everything else is
    /// one character.
    Punct,
    /// A string / char literal, collapsed to a placeholder token. The
    /// literal text is dropped (rules must never fire on prose), but the
    /// placeholder keeps argument lists honest — `join(", ")` must not
    /// look like the zero-argument thread `join()`.
    Str,
}

/// One lexed token.
#[derive(Debug, Clone)]
pub struct Token {
    /// The token text.
    pub text: String,
    /// What kind of token this is.
    pub kind: TokenKind,
    /// 1-based source line.
    pub line: usize,
}

/// One `lint:allow(rule)` directive found in a comment.
#[derive(Debug, Clone)]
pub struct Allow {
    /// The rule name inside the parentheses (with or without the `no-`
    /// prefix; matching accepts both).
    pub rule: String,
    /// 1-based line the directive appears on.
    pub line: usize,
    /// `true` when the comment stands on its own line (the directive then
    /// covers the next code line, extended over a brace block it opens);
    /// `false` when it trails code (covers only its own line).
    pub standalone: bool,
}

/// The result of lexing one source file.
#[derive(Debug, Default)]
pub struct Lexed {
    /// Code tokens in order.
    pub tokens: Vec<Token>,
    /// Allow directives harvested from comments.
    pub allows: Vec<Allow>,
}

fn is_ident_start(c: char) -> bool {
    c.is_ascii_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// Whether a number literal's text so far is a decimal mantissa followed
/// by `e`/`E`, so a following sign belongs to the exponent (`1e-3`).
fn is_decimal_exponent_start(lit: &[char]) -> bool {
    let Some((last, mantissa)) = lit.split_last() else { return false };
    matches!(last, 'e' | 'E')
        && !mantissa.is_empty()
        && mantissa.iter().all(|c| c.is_ascii_digit() || matches!(c, '_' | '.'))
}

/// Extracts every `lint:allow(NAME)` directive from a comment's text.
fn harvest_allows(text: &str, line: usize, standalone: bool, out: &mut Vec<Allow>) {
    let mut rest = text;
    while let Some(at) = rest.find("lint:allow(") {
        rest = &rest[at + "lint:allow(".len()..];
        if let Some(close) = rest.find(')') {
            let rule = rest[..close].trim().to_string();
            if !rule.is_empty() {
                out.push(Allow { rule, line, standalone });
            }
            rest = &rest[close + 1..];
        } else {
            break;
        }
    }
}

/// Lexes `src`, returning code tokens plus allow directives.
#[must_use]
pub fn lex(src: &str) -> Lexed {
    let chars: Vec<char> = src.chars().collect();
    let mut out = Lexed::default();
    let mut i = 0;
    let mut line = 1usize;
    let mut code_on_line = false;

    while i < chars.len() {
        let c = chars[i];
        match c {
            '\n' => {
                line += 1;
                code_on_line = false;
                i += 1;
            }
            c if c.is_whitespace() => i += 1,
            '/' if chars.get(i + 1) == Some(&'/') => {
                let start = i;
                while i < chars.len() && chars[i] != '\n' {
                    i += 1;
                }
                let text: String = chars[start..i].iter().collect();
                harvest_allows(&text, line, !code_on_line, &mut out.allows);
            }
            '/' if chars.get(i + 1) == Some(&'*') => {
                let standalone = !code_on_line;
                let start_line = line;
                let start = i;
                i += 2;
                let mut depth = 1;
                while i < chars.len() && depth > 0 {
                    if chars[i] == '/' && chars.get(i + 1) == Some(&'*') {
                        depth += 1;
                        i += 2;
                    } else if chars[i] == '*' && chars.get(i + 1) == Some(&'/') {
                        depth -= 1;
                        i += 2;
                    } else {
                        if chars[i] == '\n' {
                            line += 1;
                        }
                        i += 1;
                    }
                }
                let text: String = chars[start..i.min(chars.len())].iter().collect();
                harvest_allows(&text, start_line, standalone, &mut out.allows);
            }
            '"' => {
                let start_line = line;
                i += 1;
                while i < chars.len() {
                    match chars[i] {
                        '\\' => {
                            // An escaped newline (line continuation) still
                            // advances the line counter.
                            if chars.get(i + 1) == Some(&'\n') {
                                line += 1;
                            }
                            i += 2;
                        }
                        '"' => {
                            i += 1;
                            break;
                        }
                        '\n' => {
                            line += 1;
                            i += 1;
                        }
                        _ => i += 1,
                    }
                }
                out.tokens.push(Token {
                    text: "\"\"".to_string(),
                    kind: TokenKind::Str,
                    line: start_line,
                });
                code_on_line = true;
            }
            '\'' => {
                // Char literal vs lifetime: `'\...'` and `'x'` are
                // literals; anything else (`'a`, `'_`) is a lifetime and
                // only the quote is consumed.
                if chars.get(i + 1) == Some(&'\\') {
                    i += 2; // quote + backslash
                    while i < chars.len() && chars[i] != '\'' {
                        i += 1;
                    }
                    i += 1;
                    out.tokens.push(Token { text: "''".to_string(), kind: TokenKind::Str, line });
                } else if chars.get(i + 2) == Some(&'\'') {
                    i += 3;
                    out.tokens.push(Token { text: "''".to_string(), kind: TokenKind::Str, line });
                } else {
                    i += 1;
                }
                code_on_line = true;
            }
            c if is_ident_start(c) => {
                // Raw/byte string prefixes (r", r#", b", br", b') lex as
                // literals, not identifiers.
                let mut j = i;
                if c == 'r' || c == 'b' {
                    let mut k = i + 1;
                    let mut raw = c == 'r';
                    if c == 'b' && chars.get(k) == Some(&'r') {
                        raw = true;
                        k += 1;
                    }
                    let mut hashes = 0;
                    if raw {
                        while chars.get(k) == Some(&'#') {
                            hashes += 1;
                            k += 1;
                        }
                    }
                    if chars.get(k) == Some(&'"') {
                        // Consume the (raw or byte) string body.
                        let start_line = line;
                        i = k + 1;
                        while i < chars.len() {
                            if chars[i] == '\n' {
                                line += 1;
                                i += 1;
                            } else if !raw && chars[i] == '\\' {
                                if chars.get(i + 1) == Some(&'\n') {
                                    line += 1;
                                }
                                i += 2;
                            } else if chars[i] == '"' {
                                let mut h = 0;
                                while h < hashes && chars.get(i + 1 + h) == Some(&'#') {
                                    h += 1;
                                }
                                i += 1;
                                if h == hashes {
                                    i += hashes;
                                    break;
                                }
                            } else {
                                i += 1;
                            }
                        }
                        out.tokens.push(Token {
                            text: "\"\"".to_string(),
                            kind: TokenKind::Str,
                            line: start_line,
                        });
                        code_on_line = true;
                        continue;
                    }
                    if c == 'b' && !raw && chars.get(i + 1) == Some(&'\'') {
                        i += 2;
                        while i < chars.len() && chars[i] != '\'' {
                            if chars[i] == '\\' {
                                i += 1;
                            }
                            i += 1;
                        }
                        i += 1;
                        out.tokens.push(Token {
                            text: "''".to_string(),
                            kind: TokenKind::Str,
                            line,
                        });
                        code_on_line = true;
                        continue;
                    }
                }
                while j < chars.len() && is_ident_continue(chars[j]) {
                    j += 1;
                }
                out.tokens.push(Token {
                    text: chars[i..j].iter().collect(),
                    kind: TokenKind::Ident,
                    line,
                });
                code_on_line = true;
                i = j;
            }
            c if c.is_ascii_digit() => {
                let mut j = i;
                while j < chars.len()
                    && (is_ident_continue(chars[j])
                        || (chars[j] == '.'
                            && chars.get(j + 1).is_some_and(char::is_ascii_digit))
                        || (matches!(chars[j], '+' | '-')
                            && chars.get(j + 1).is_some_and(char::is_ascii_digit)
                            && is_decimal_exponent_start(&chars[i..j])))
                {
                    j += 1;
                }
                out.tokens.push(Token {
                    text: chars[i..j].iter().collect(),
                    kind: TokenKind::Number,
                    line,
                });
                code_on_line = true;
                i = j;
            }
            ':' if chars.get(i + 1) == Some(&':') => {
                out.tokens.push(Token { text: "::".to_string(), kind: TokenKind::Punct, line });
                code_on_line = true;
                i += 2;
            }
            c => {
                out.tokens.push(Token { text: c.to_string(), kind: TokenKind::Punct, line });
                code_on_line = true;
                i += 1;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comments_and_strings_are_skipped() {
        let lexed = lex("let a = 1; // HashMap in a comment\nlet b = \"HashMap\";\n");
        assert!(lexed.tokens.iter().all(|t| t.text != "HashMap"));
    }

    #[test]
    fn lifetimes_do_not_eat_code() {
        let lexed = lex("fn f<'a>(x: &'a HashMap<u64, u64>) {}");
        assert!(lexed.tokens.iter().any(|t| t.text == "HashMap"));
    }

    #[test]
    fn allow_directives_are_harvested() {
        let lexed = lex("// lint:allow(no-unordered-iteration): keyed probes\nuse x::HashMap;\nlet y = 1; // lint:allow(no-float-in-model): trailing\n");
        assert_eq!(lexed.allows.len(), 2);
        assert!(lexed.allows[0].standalone);
        assert_eq!(lexed.allows[0].line, 1);
        assert!(!lexed.allows[1].standalone);
        assert_eq!(lexed.allows[1].line, 3);
    }

    #[test]
    fn double_colon_is_fused() {
        let lexed = lex("HashMap::new()");
        assert_eq!(lexed.tokens[1].text, "::");
    }

    #[test]
    fn float_literals_keep_their_dot() {
        let lexed = lex("let x = 0.5; let r = 0..32;");
        assert!(lexed.tokens.iter().any(|t| t.text == "0.5"));
        assert!(lexed.tokens.iter().any(|t| t.kind == TokenKind::Number && t.text == "0"));
    }

    #[test]
    fn signed_exponents_stay_in_decimal_literals_only() {
        let lexed = lex("a = 1e-3; b = 2.5E+4; c = 0x1e-3; d = n-1;");
        let texts: Vec<String> = lexed.tokens.into_iter().map(|t| t.text).collect();
        assert!(texts.contains(&"1e-3".to_string()), "{texts:?}");
        assert!(texts.contains(&"2.5E+4".to_string()), "{texts:?}");
        assert!(texts.contains(&"0x1e".to_string()), "{texts:?}");
        assert!(texts.contains(&"1".to_string()), "{texts:?}");
    }

    #[test]
    fn escaped_newline_in_string_counts_the_line() {
        let lexed = lex("let a = \"x\\\ny\";\nlet b = 1;");
        let b = lexed.tokens.iter().find(|t| t.text == "b").expect("b");
        assert_eq!(b.line, 3);
    }

    #[test]
    fn raw_strings_are_skipped() {
        let lexed = lex("let j = r#\"{\"HashMap\": 1}\"#; let k = 2;");
        assert!(lexed.tokens.iter().all(|t| t.text != "HashMap"));
        assert!(lexed.tokens.iter().any(|t| t.text == "k"));
    }
}
