//! `smtx-client` — the CLI for `smtxd`.
//!
//! ```text
//! smtx-client submit --experiment fig5 --insts 20000 --wait
//! smtx-client submit --kernel compress --mechanism traditional
//! smtx-client status <id>
//! smtx-client result <id> --out fig5.json
//! smtx-client metrics
//! smtx-client shutdown
//! ```
//!
//! All subcommands take `--addr HOST:PORT` (default `127.0.0.1:7717`).
//! `submit --wait` polls until the job finishes and prints the result JSON
//! — byte-identical to what the matching figure binary writes via
//! `--json` (rows and columns; wall clock and cache counters describe the
//! daemon's run).

use std::time::Duration;

use smtx_rng::{rngs::StdRng, RngExt, SeedableRng};
use smtx_serve::http::{client_request, client_stream, PollPace};
use smtx_serve::json::{quote, Json};

const USAGE: &str = "usage: smtx-client [--addr HOST:PORT] [--retries N] [--backoff-ms B] <command>
  submit (--experiment NAME | --kernel NAME [--mechanism M] [--idle N])
         [--insts N] [--seed N] [--check on|off] [--trace on|off]
         [--deadline-ms N] [--wait] [--out PATH]
         (--trace on captures a binary event trace, kernel runs only;
          download it from GET /v1/jobs/<id>/trace once the job is done)
  batch --file PATH [--deadline-ms N]
        (PATH holds a JSON array of job specs, or `-` for stdin;
         the NDJSON result stream is copied to stdout as jobs finish)
  status <id>
  result <id> [--out PATH]
  metrics
  shutdown [--fleet]
        (--fleet asks a coordinator to shut its nodes down too)";

const TIMEOUT: Duration = Duration::from_secs(30);

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!("{USAGE}");
    std::process::exit(2);
}

/// Connection settings shared by every subcommand: the daemon address
/// plus the transient-failure retry policy (off unless `--retries` asks).
struct Conn {
    addr: String,
    retries: u32,
    backoff_ms: u64,
}

impl Conn {
    /// Sleeps out attempt number `attempt`: exponential base doubling per
    /// attempt, half of it jittered so colliding clients spread out.
    fn backoff(&self, attempt: u32) {
        let base = self.backoff_ms.saturating_mul(1 << attempt.min(10)).max(1);
        let seed = u64::from(std::process::id()) ^ u64::from(attempt);
        let jitter = StdRng::seed_from_u64(seed).random_range(0..=base / 2);
        std::thread::sleep(Duration::from_millis(base / 2 + jitter));
    }

    /// Issues one request. Transient failures — connection-level errors
    /// and the two explicit back-off answers (429 queue-full, 503
    /// draining) — retry up to `--retries` times; anything else is a real
    /// answer to report. With retries exhausted, the last 429/503 is
    /// returned as-is so subcommands report it like any other rejection.
    fn request(&self, method: &str, path: &str, body: Option<&str>) -> (u16, String) {
        let mut attempt = 0u32;
        loop {
            match client_request(&self.addr, method, path, body, TIMEOUT) {
                Ok(r) if (r.status == 429 || r.status == 503) && attempt < self.retries => {
                    eprintln!(
                        "retry {}/{} after HTTP {} ({method} {path})",
                        attempt + 1,
                        self.retries,
                        r.status
                    );
                    self.backoff(attempt);
                    attempt += 1;
                }
                Ok(r) => return (r.status, r.body),
                Err(e) if attempt < self.retries => {
                    eprintln!("retry {}/{} after {e} ({method} {path})", attempt + 1, self.retries);
                    self.backoff(attempt);
                    attempt += 1;
                }
                Err(e) => {
                    eprintln!("error: {method} {path} against {}: {e}", self.addr);
                    std::process::exit(1);
                }
            }
        }
    }
}

fn write_out(out: Option<&str>, body: &str) {
    match out {
        Some(path) => {
            std::fs::write(path, body).unwrap_or_else(|e| {
                eprintln!("error: cannot write {path}: {e}");
                std::process::exit(1);
            });
            eprintln!("wrote {path}");
        }
        None => print!("{body}"),
    }
}

struct Submit {
    experiment: Option<String>,
    kernel: Option<String>,
    mechanism: Option<String>,
    idle: Option<u64>,
    insts: Option<u64>,
    seed: Option<u64>,
    check: Option<bool>,
    trace: Option<bool>,
    deadline_ms: Option<u64>,
    wait: bool,
    out: Option<String>,
}

fn parse_submit(mut it: impl Iterator<Item = String>) -> Submit {
    let mut s = Submit {
        experiment: None,
        kernel: None,
        mechanism: None,
        idle: None,
        insts: None,
        seed: None,
        check: None,
        trace: None,
        deadline_ms: None,
        wait: false,
        out: None,
    };
    while let Some(arg) = it.next() {
        let mut value_for = |flag: &str| {
            it.next().unwrap_or_else(|| die(&format!("{flag} requires a value")))
        };
        let num = |flag: &str, v: String| -> u64 {
            v.parse().unwrap_or_else(|e| die(&format!("{flag}: {e}")))
        };
        match arg.as_str() {
            "--experiment" => s.experiment = Some(value_for("--experiment")),
            "--kernel" => s.kernel = Some(value_for("--kernel")),
            "--mechanism" => s.mechanism = Some(value_for("--mechanism")),
            "--idle" => s.idle = Some(num("--idle", value_for("--idle"))),
            "--insts" => s.insts = Some(num("--insts", value_for("--insts"))),
            "--seed" => s.seed = Some(num("--seed", value_for("--seed"))),
            "--check" => {
                s.check = Some(match value_for("--check").as_str() {
                    "on" => true,
                    "off" => false,
                    other => die(&format!("--check: expected `on` or `off`, got `{other}`")),
                });
            }
            "--trace" => {
                s.trace = Some(match value_for("--trace").as_str() {
                    "on" => true,
                    "off" => false,
                    other => die(&format!("--trace: expected `on` or `off`, got `{other}`")),
                });
            }
            "--deadline-ms" => {
                s.deadline_ms = Some(num("--deadline-ms", value_for("--deadline-ms")));
            }
            "--wait" => s.wait = true,
            "--out" => s.out = Some(value_for("--out")),
            other => die(&format!("unknown argument `{other}`")),
        }
    }
    if s.experiment.is_some() == s.kernel.is_some() {
        die("submit needs exactly one of --experiment or --kernel");
    }
    s
}

fn submit_body(s: &Submit) -> String {
    let mut fields = Vec::new();
    if let Some(e) = &s.experiment {
        fields.push(format!("\"experiment\": {}", quote(e)));
    }
    if let Some(k) = &s.kernel {
        fields.push(format!("\"kernel\": {}", quote(k)));
    }
    if let Some(m) = &s.mechanism {
        fields.push(format!("\"mechanism\": {}", quote(m)));
    }
    if let Some(i) = s.idle {
        fields.push(format!("\"idle\": {i}"));
    }
    if let Some(i) = s.insts {
        fields.push(format!("\"insts\": {i}"));
    }
    if let Some(v) = s.seed {
        fields.push(format!("\"seed\": {v}"));
    }
    if let Some(c) = s.check {
        fields.push(format!("\"check\": {c}"));
    }
    if let Some(t) = s.trace {
        fields.push(format!("\"trace\": {t}"));
    }
    if let Some(d) = s.deadline_ms {
        fields.push(format!("\"deadline_ms\": {d}"));
    }
    format!("{{{}}}", fields.join(", "))
}

/// Polls until the job leaves queued/running, then fetches the result.
fn wait_result(conn: &Conn, id: &str) -> String {
    let mut pace = PollPace::new(Duration::from_millis(100));
    loop {
        pace.wait();
        let (status, body) = conn.request("GET", &format!("/v1/jobs/{id}"), None);
        if status != 200 {
            eprintln!("error: status poll failed ({status}): {body}");
            std::process::exit(1);
        }
        let state = Json::parse(&body)
            .ok()
            .and_then(|v| v.get("state").and_then(|s| s.as_str().map(String::from)))
            .unwrap_or_else(|| die("malformed status payload"));
        match state.as_str() {
            "done" => {
                let (rs, result) = conn.request("GET", &format!("/v1/jobs/{id}/result"), None);
                if rs != 200 {
                    eprintln!("error: result fetch failed ({rs}): {result}");
                    std::process::exit(1);
                }
                return result;
            }
            "failed" => {
                eprintln!("error: job failed: {body}");
                std::process::exit(1);
            }
            _ => {}
        }
    }
}

/// Submits a spec file to `/v1/batch` and copies the NDJSON stream to
/// stdout as frames land. Exits nonzero if any job failed or the stream
/// ended without the `{"done": true}` trailer.
fn run_batch(conn: &Conn, mut it: impl Iterator<Item = String>) {
    use std::io::{BufRead, Read, Write};
    let mut file = None;
    let mut deadline_ms = None;
    while let Some(arg) = it.next() {
        let mut value_for =
            |flag: &str| it.next().unwrap_or_else(|| die(&format!("{flag} requires a value")));
        match arg.as_str() {
            "--file" => file = Some(value_for("--file")),
            "--deadline-ms" => {
                let v = value_for("--deadline-ms");
                deadline_ms =
                    Some(v.parse::<u64>().unwrap_or_else(|e| die(&format!("--deadline-ms: {e}"))));
            }
            other => die(&format!("unknown argument `{other}`")),
        }
    }
    let file = file.unwrap_or_else(|| die("batch needs --file PATH"));
    let text = if file == "-" {
        let mut buf = String::new();
        match std::io::stdin().read_to_string(&mut buf) {
            Ok(_) => buf,
            Err(e) => {
                eprintln!("error: cannot read stdin: {e}");
                std::process::exit(1);
            }
        }
    } else {
        std::fs::read_to_string(&file).unwrap_or_else(|e| {
            eprintln!("error: cannot read {file}: {e}");
            std::process::exit(1);
        })
    };
    // Accept either a bare array of specs or a ready-made body.
    let trimmed = text.trim();
    let body = if trimmed.starts_with('[') {
        match deadline_ms {
            Some(d) => format!("{{\"jobs\": {trimmed}, \"deadline_ms\": {d}}}"),
            None => format!("{{\"jobs\": {trimmed}}}"),
        }
    } else {
        trimmed.to_string()
    };
    let (status, reader) = match client_stream(&conn.addr, "POST", "/v1/batch", Some(&body), TIMEOUT)
    {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: POST /v1/batch against {}: {e}", conn.addr);
            std::process::exit(1);
        }
    };
    if status != 200 {
        let mut rest = String::new();
        let mut reader = reader;
        let _ = reader.read_to_string(&mut rest);
        eprintln!("error: batch rejected ({status}): {}", rest.trim());
        std::process::exit(1);
    }
    let stdout = std::io::stdout();
    let mut failed = 0u64;
    let mut saw_trailer = false;
    for line in reader.lines() {
        let line = match line {
            Ok(l) => l,
            Err(e) => {
                eprintln!("error: stream read: {e}");
                std::process::exit(1);
            }
        };
        {
            let mut out = stdout.lock();
            let _ = out.write_all(line.as_bytes());
            let _ = out.write_all(b"\n");
            let _ = out.flush();
        }
        if let Ok(v) = Json::parse(&line) {
            if v.get("state").and_then(|s| s.as_str().map(String::from)).as_deref()
                == Some("failed")
            {
                failed += 1;
            }
            if v.get("done").and_then(Json::as_bool) == Some(true) {
                saw_trailer = true;
            }
        }
    }
    if !saw_trailer {
        eprintln!("error: batch stream ended without a trailer");
        std::process::exit(1);
    }
    if failed > 0 {
        eprintln!("error: {failed} batch jobs failed");
        std::process::exit(1);
    }
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let mut conn = Conn { addr: "127.0.0.1:7717".to_string(), retries: 0, backoff_ms: 100 };
    // Global flags lead the command and may come in any order.
    while let Some(flag) = args
        .first()
        .filter(|f| matches!(f.as_str(), "--addr" | "--retries" | "--backoff-ms"))
        .cloned()
    {
        if args.len() < 2 {
            die(&format!("{flag} requires a value"));
        }
        let value = args[1].clone();
        match flag.as_str() {
            "--addr" => conn.addr = value,
            "--retries" => {
                conn.retries =
                    value.parse().unwrap_or_else(|e| die(&format!("--retries: {e}")));
            }
            "--backoff-ms" => {
                conn.backoff_ms =
                    value.parse().unwrap_or_else(|e| die(&format!("--backoff-ms: {e}")));
            }
            _ => unreachable!("matched above"),
        }
        args.drain(..2);
    }
    let Some(command) = args.first().cloned() else { die("missing command") };
    let rest = args.into_iter().skip(1);
    match command.as_str() {
        "submit" => {
            let s = parse_submit(rest);
            let (status, body) = conn.request("POST", "/v1/jobs", Some(&submit_body(&s)));
            if status != 202 && status != 200 {
                eprintln!("error: submit rejected ({status}): {body}");
                std::process::exit(1);
            }
            let id = Json::parse(&body)
                .ok()
                .and_then(|v| v.get("id").and_then(|s| s.as_str().map(String::from)))
                .unwrap_or_else(|| die("malformed submit response"));
            if s.wait {
                write_out(s.out.as_deref(), &wait_result(&conn, &id));
            } else {
                print!("{body}");
            }
        }
        "batch" => run_batch(&conn, rest),
        "status" => {
            let id = rest.last().unwrap_or_else(|| die("status needs a job id"));
            let (status, body) = conn.request("GET", &format!("/v1/jobs/{id}"), None);
            if status != 200 {
                eprintln!("error: status failed ({status}): {body}");
                std::process::exit(1);
            }
            print!("{body}");
        }
        "result" => {
            let mut it = rest;
            let id = it.next().unwrap_or_else(|| die("result needs a job id"));
            let out = match (it.next().as_deref(), it.next()) {
                (None, _) => None,
                (Some("--out"), Some(path)) => Some(path),
                _ => die("result takes an id and optionally --out PATH"),
            };
            let (status, body) = conn.request("GET", &format!("/v1/jobs/{id}/result"), None);
            if status != 200 {
                eprintln!("error: result failed ({status}): {body}");
                std::process::exit(1);
            }
            write_out(out.as_deref(), &body);
        }
        "metrics" => {
            let (status, body) = conn.request("GET", "/metrics", None);
            if status != 200 {
                eprintln!("error: metrics failed ({status}): {body}");
                std::process::exit(1);
            }
            print!("{body}");
        }
        "shutdown" => {
            let body = match rest.last().as_deref() {
                None => None,
                Some("--fleet") => Some("{\"fleet\": true}"),
                Some(other) => die(&format!("unknown argument `{other}`")),
            };
            let (status, body) = conn.request("POST", "/v1/shutdown", body);
            if status != 200 {
                eprintln!("error: shutdown failed ({status}): {body}");
                std::process::exit(1);
            }
            print!("{body}");
        }
        other => die(&format!("unknown command `{other}`")),
    }
}
