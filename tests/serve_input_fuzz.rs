//! No request a client can send panics the service's hand-rolled input
//! layer. `smtxd` and `smtx-coord` share it: `http::try_parse` frames each
//! request out of the event loop's buffer, `Json::parse` reads the body,
//! and `JobSpec::from_json` validates it. Every input, random or a mutation
//! of a valid request, must come back as `Ok` or `Err`.
//!
//! The inputs are seeded (`smtx-rng`), so a failure names the seed and the
//! case, and reruns identically.

use std::panic::{catch_unwind, AssertUnwindSafe};

use smtx_rng::rngs::StdRng;
use smtx_rng::{RngExt, SeedableRng};
use smtx_serve::http::{try_parse, MAX_BODY};
use smtx_serve::{JobSpec, Json};

const CASES_PER_SEED: usize = 20_000;
const SEEDS: std::ops::Range<u64> = 0..8;

/// Valid job bodies, the base of every mutation.
const BODIES: [&str; 8] = [
    r#"{"experiment": "fig5", "insts": 5000, "seed": 7}"#,
    r#"{"experiment": "table2", "insts": 3000, "check": true, "deadline_ms": 1500}"#,
    r#"{"kernel": "compress", "insts": 3000, "mechanism": "multithreaded", "idle": 3}"#,
    r#"{"kernel": "gcc", "mechanism": "hardware", "trace": true, "check": false}"#,
    r#"{"kernel": "vortex", "seed": 18446744073709551615, "insts": 50000000}"#,
    r#"{"jobs": [{"experiment": "fig7", "insts": 4000}, {"kernel": "murphi"}]}"#,
    r#"{"s": "q\"\\n\u00e9\u0041", "a": [1, -2.5e3, true, null, {}], "o": {"x": []}}"#,
    r#"[0, 1e999, -0, 1.5E+2, "\ud800"]"#,
];

/// Fragments spliced into inputs: the tokens a parser branches on.
const TOKENS: [&str; 24] = [
    "{",
    "}",
    "[",
    "]",
    "\"",
    "\\",
    "\\u",
    "\\u12",
    ":",
    ",",
    "-",
    "1e",
    "0.",
    "true",
    "nul",
    "\r\n",
    "\n\n",
    "\r\n\r\n",
    "Content-Length: ",
    "content-length:99999999999999999999",
    "GET / HTTP/1.1",
    "POST /v1/jobs HTTP/1.0",
    "\u{e9}",
    "\u{fffd}",
];

fn request(body: &str) -> Vec<u8> {
    format!(
        "POST /v1/jobs HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// One random edit of `bytes`: flip, insert, delete, splice a token,
/// truncate, or duplicate a slice.
fn mutate(rng: &mut StdRng, bytes: &mut Vec<u8>) {
    let at = |rng: &mut StdRng, len: usize| rng.random_range(0..=len);
    match rng.random_range(0..6u32) {
        0 if !bytes.is_empty() => {
            let i = rng.random_range(0..bytes.len());
            bytes[i] ^= 1 << rng.random_range(0..8u32);
        }
        1 => {
            let i = at(rng, bytes.len());
            bytes.insert(i, rng.random::<u8>());
        }
        2 if !bytes.is_empty() => {
            let i = rng.random_range(0..bytes.len());
            bytes.remove(i);
        }
        3 => {
            let i = at(rng, bytes.len());
            let token = TOKENS[rng.random_range(0..TOKENS.len())].as_bytes();
            bytes.splice(i..i, token.iter().copied());
        }
        4 => {
            let i = at(rng, bytes.len());
            bytes.truncate(i);
        }
        _ if !bytes.is_empty() => {
            let a = rng.random_range(0..bytes.len());
            let b = rng.random_range(a..=bytes.len()).min(a + 64);
            let copy = bytes[a..b].to_vec();
            let i = at(rng, bytes.len());
            bytes.splice(i..i, copy);
        }
        _ => bytes.push(b'{'),
    }
}

/// The input for case `case` of `seed`: random bytes, a mutated body, or a
/// mutated whole request.
fn input(rng: &mut StdRng, case: usize) -> Vec<u8> {
    let mut bytes = match case % 3 {
        0 => (0..rng.random_range(0..96usize))
            .map(|_| rng.random::<u8>())
            .collect(),
        1 => BODIES[rng.random_range(0..BODIES.len())]
            .as_bytes()
            .to_vec(),
        _ => request(BODIES[rng.random_range(0..BODIES.len())]),
    };
    for _ in 0..rng.random_range(1..=6u32) {
        mutate(rng, &mut bytes);
    }
    bytes
}

/// Runs `bytes` through every layer that reads it, checking the
/// properties that hold whenever a layer accepts.
fn exercise(bytes: &[u8]) {
    if let Ok(Some((req, used))) = try_parse(bytes) {
        assert!(used <= bytes.len() && req.body.len() <= MAX_BODY);
        assert!(req.path.starts_with('/'), "accepted path {:?}", req.path);
        if let Ok(body) = std::str::from_utf8(&req.body) {
            exercise_json(body);
        }
    }
    if let Ok(text) = std::str::from_utf8(bytes) {
        exercise_json(text);
    }
}

fn exercise_json(text: &str) {
    let Ok(v) = Json::parse(text) else { return };
    assert_eq!(
        Json::parse(&v.to_text()).as_ref(),
        Ok(&v),
        "serializer round trip"
    );
    let specs = match v.get("jobs").and_then(Json::as_arr) {
        Some(batch) => batch.to_vec(),
        None => vec![v],
    };
    for spec in &specs {
        if let Ok(job) = JobSpec::from_json(spec) {
            let again = JobSpec::from_json(&job.to_json()).expect("canonical body validates");
            assert_eq!(again, job, "canonical body round trip");
            assert_eq!(again.id(), job.id());
            let _ = job.describe();
        }
    }
}

fn fuzz_seed(seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    for case in 0..CASES_PER_SEED {
        let bytes = input(&mut rng, case);
        let outcome = catch_unwind(AssertUnwindSafe(|| exercise(&bytes)));
        assert!(
            outcome.is_ok(),
            "seed {seed} case {case} panicked on {:?}",
            String::from_utf8_lossy(&bytes)
        );
    }
}

#[test]
fn mutated_requests_and_bodies_never_panic() {
    for seed in SEEDS {
        fuzz_seed(seed);
    }
}

/// Valid inputs reach the deep layers: the mutations start from bodies
/// that parse and specs that validate.
#[test]
fn the_unmutated_corpus_is_accepted() {
    for body in BODIES {
        let v = Json::parse(body).unwrap_or_else(|e| panic!("{body}: {e}"));
        assert_eq!(Json::parse(&v.to_text()), Ok(v));
        let (req, used) = try_parse(&request(body))
            .expect("well formed")
            .expect("complete");
        assert_eq!(
            (req.method.as_str(), req.path.as_str()),
            ("POST", "/v1/jobs")
        );
        assert_eq!(
            (used, req.body.as_slice()),
            (request(body).len(), body.as_bytes())
        );
    }
    for body in &BODIES[..5] {
        JobSpec::from_json(&Json::parse(body).unwrap()).unwrap_or_else(|e| panic!("{body}: {e}"));
    }
}

/// A body at the size limit, one long string, must parse in linear time:
/// the reactor thread parses bodies, and a parser that re-validated the
/// rest of the input per character would hold it for tens of seconds.
#[test]
fn a_max_size_string_body_parses() {
    let value = "\u{e9}a".repeat((MAX_BODY - 16) / 3);
    let body = format!("{{\"kernel\": \"{value}\"}}");
    assert!(body.len() <= MAX_BODY);
    let (req, _) = try_parse(&request(&body))
        .expect("well formed")
        .expect("complete");
    let v = Json::parse(std::str::from_utf8(&req.body).unwrap()).expect("parses");
    assert_eq!(v.get("kernel").and_then(Json::as_str), Some(value.as_str()));
    // The error quotes a bounded prefix of the name, not all of it.
    let err = JobSpec::from_json(&v).unwrap_err();
    assert!(err.starts_with("unknown kernel"), "{err}");
    assert!(err.len() < 1024, "a {}-byte error", err.len());
}
