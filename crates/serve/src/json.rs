//! A minimal JSON reader for request bodies and client-side responses.
//!
//! The repo builds offline, so — like `smtx_bench::report`'s hand-rolled
//! emitter — parsing is done in-tree rather than via serde. The grammar
//! supported is full JSON; the value model keeps integers exact up to
//! `u64::MAX` (seeds and instruction budgets are `u64`, and a parser that
//! round-tripped them through `f64` would corrupt large seeds silently).

use std::collections::BTreeMap;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number; the raw text is kept so integers stay exact.
    Num(f64, String),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object (insertion order irrelevant to every caller).
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Parses `text` as a single JSON value (trailing whitespace allowed,
    /// trailing garbage rejected).
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser { text, bytes: text.as_bytes(), pos: 0 };
        p.skip_ws();
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing garbage at byte {}", p.pos));
        }
        Ok(v)
    }

    /// Member lookup on an object; `None` for absent keys or non-objects.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an exact non-negative integer, if it is one.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(_, raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The value as a float, if numeric.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v, _) => Some(*v),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Serializes the value back to JSON text. Numbers are emitted as
    /// their **raw parsed text**, so integers up to `u64::MAX` survive a
    /// parse → mutate → serialize round trip exactly — which is what lets
    /// the fleet coordinator rewrite one field of a job spec (its
    /// per-node deadline) without perturbing seeds or budgets. Object
    /// members are emitted in key order; spec digests hash parsed fields,
    /// not body text, so member order never affects job identity.
    #[must_use]
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(_, raw) => out.push_str(raw),
            Json::Str(s) => out.push_str(&quote(s)),
            Json::Arr(v) => {
                out.push('[');
                for (i, item) in v.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(m) => {
                out.push('{');
                for (i, (k, v)) in m.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    out.push_str(&quote(k));
                    out.push_str(": ");
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Inserts (or replaces) an object member. No-op on non-objects.
    pub fn set(&mut self, key: &str, value: Json) {
        if let Json::Obj(m) = self {
            m.insert(key.to_string(), value);
        }
    }

    /// An exact integer number value (raw text is the decimal rendering;
    /// the `f64` mirror may round for huge `n`, but exact readers go
    /// through the raw text — see [`Json::as_u64`]).
    #[must_use]
    pub fn num_u64(n: u64) -> Json {
        Json::Num(n as f64, n.to_string())
    }
}

/// Escapes `s` as a JSON string literal (with quotes).
#[must_use]
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

const MAX_DEPTH: usize = 32;

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", b as char, self.pos))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        if depth > MAX_DEPTH {
            return Err("nesting too deep".to_string());
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(b) => Err(format!("unexpected `{}` at byte {}", b as char, self.pos)),
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')) {
            self.pos += 1;
        }
        let raw = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| format!("bad number at byte {start}"))?;
        let v: f64 = raw.parse().map_err(|e| format!("bad number `{raw}`: {e}"))?;
        Ok(Json::Num(v, raw.to_string()))
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                                16,
                            )
                            .map_err(|_| "bad \\u escape")?;
                            // Surrogate pairs are not needed by any caller;
                            // map lone surrogates to the replacement char.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar. Every token before it is
                    // ASCII, so `pos` is on a char boundary; decoding only
                    // this scalar keeps a long string linear.
                    let Some(c) = self.text.get(self.pos..).and_then(|rest| rest.chars().next())
                    else {
                        return Err(format!("bad string at byte {}", self.pos));
                    };
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, String> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, String> {
        self.eat(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let v = self.value(depth + 1)?;
            map.insert(key, v);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(map));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_values() {
        let v = Json::parse(
            r#"{"experiment": "fig5", "insts": 20000, "nested": {"a": [1, 2.5, true, null]}, "s": "q\"\\n"}"#,
        )
        .unwrap();
        assert_eq!(v.get("experiment").unwrap().as_str(), Some("fig5"));
        assert_eq!(v.get("insts").unwrap().as_u64(), Some(20_000));
        let arr = v.get("nested").unwrap().get("a").unwrap().as_arr().unwrap();
        assert_eq!(arr[0].as_u64(), Some(1));
        assert_eq!(arr[1].as_f64(), Some(2.5));
        assert_eq!(arr[2].as_bool(), Some(true));
        assert_eq!(arr[3], Json::Null);
    }

    #[test]
    fn big_u64_survives_exactly() {
        let v = Json::parse("{\"seed\": 18446744073709551615}").unwrap();
        assert_eq!(v.get("seed").unwrap().as_u64(), Some(u64::MAX));
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in ["", "{", "{\"a\":}", "[1,]", "{\"a\":1} x", "\"abc", "nul", "1e", "--1"] {
            assert!(Json::parse(bad).is_err(), "`{bad}` must be rejected");
        }
    }

    #[test]
    fn report_json_round_trips() {
        let mut r = smtx_bench::Report::new("fig5", 1000, 42, 4);
        r.columns = vec!["a".into()];
        r.push_row("compress", &[1.5]);
        let v = Json::parse(&r.to_json()).unwrap();
        assert_eq!(v.get("experiment").unwrap().as_str(), Some("fig5"));
        assert_eq!(v.get("rows").unwrap().as_arr().unwrap().len(), 1);
    }

    #[test]
    fn quote_escapes() {
        assert_eq!(quote("a\"b"), "\"a\\\"b\"");
        assert_eq!(Json::parse(&quote("tab\there")).unwrap().as_str(), Some("tab\there"));
    }

    #[test]
    fn serializer_round_trips_exactly() {
        // u64::MAX does not survive f64; the raw-text path must carry it.
        let text = r#"{"seed": 18446744073709551615, "neg": -2.5, "arr": [1, true, null], "s": "a\"b"}"#;
        let v = Json::parse(text).unwrap();
        let again = Json::parse(&v.to_text()).unwrap();
        assert_eq!(v, again);
        assert_eq!(again.get("seed").unwrap().as_u64(), Some(u64::MAX));
    }

    #[test]
    fn set_rewrites_one_member_without_touching_others() {
        let mut v = Json::parse(r#"{"kernel": "compress", "seed": 9007199254740993}"#).unwrap();
        v.set("deadline_ms", Json::num_u64(1500));
        let out = v.to_text();
        assert_eq!(
            out,
            r#"{"deadline_ms": 1500, "kernel": "compress", "seed": 9007199254740993}"#
        );
        // 2^53+1 is exactly the first integer f64 cannot hold.
        assert_eq!(Json::parse(&out).unwrap().get("seed").unwrap().as_u64(), Some(9007199254740993));
    }
}
