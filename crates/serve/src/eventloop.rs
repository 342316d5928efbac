//! A nonblocking, readiness-polling HTTP event loop.
//!
//! The thread-per-connection accept loop `smtxd` shipped with pins one OS
//! thread per client — fine for a handful of figure submissions, fatal for
//! a fleet front end holding hundreds of concurrent connections. This
//! module replaces it with a single reactor thread multiplexing every
//! connection over nonblocking sockets:
//!
//! ```text
//!            accept (nonblocking)
//!                 │
//!   ┌─────────────▼──────────────┐
//!   │ Reading ──try_parse──▶ route(Request)                │
//!   │    │                        │          reactor tick  │
//!   │  timeout                ┌───┴────┐                   │
//!   │    ▼                    ▼        ▼                   │
//!   │  Closed ◀── done ── Writing   Streaming ◀─ poll() ──│
//!   └────────────────────────────────────────────────────┘
//! ```
//!
//! Per-connection state is exactly one of: **Reading** (accumulate bytes
//! until [`crate::http::try_parse`] yields a request), **Writing** (drain
//! a fully-materialized response), or **Streaming** (a [`Streamer`] is
//! polled for more body bytes each tick; the response is close-delimited).
//! The loop is pure `std`: no `epoll`/`kqueue` binding exists in the
//! standard library and the workspace forbids unsafe code and external
//! crates, so readiness is discovered by attempting the nonblocking I/O
//! itself. A pass that makes no progress sleeps, and the sleep is paced by
//! activity ([`idle_sleep`]): 20 µs after the last progress, doubling on
//! each further idle pass up to 1 ms. A fixed 1 ms sleep was the whole
//! latency of most served requests — 97% of the fleet benchmark's jobs are
//! store hits that take microseconds — so it put `serve.submit_ms` at
//! 1.09 ms and the coordinator's `fleet.job_p50_ms` at 2.20 ms; paced
//! (with the coordinator's own poll pacing), they read 0.14 ms and
//! 0.28 ms. An idle daemon is back to 1 ms sleeps within ~1.3 ms of its
//! last activity, so its idle CPU does not grow.
//!
//! Routing is abstracted behind [`Router`] so both `smtxd` and the fleet
//! coordinator (`crates/fleet`) run on this same loop.

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::http::{response_head, try_parse, BadRequest, Request};

/// Per-connection idle deadline: a connection that makes no progress for
/// this long is dropped (a stalled client cannot pin reactor state
/// forever). Streaming connections refresh every poll — their lifetime is
/// bounded by the job deadlines behind the stream instead.
pub const SOCKET_TIMEOUT: Duration = Duration::from_secs(30);

/// Most connections held concurrently; accepts beyond this are dropped
/// until someone closes. Far above the load generator's 256-connection
/// floor, far below any fd limit.
pub const MAX_CONNS: usize = 1024;

/// Longest reactor sleep: what a pass without progress sleeps once the
/// loop has been idle for ~1.3 ms.
const IDLE_SLEEP: Duration = Duration::from_millis(1);

/// Reactor sleep after the first pass without progress.
const IDLE_SLEEP_MIN: Duration = Duration::from_micros(20);

/// The reactor's sleep after a pass, given its sleep after the previous
/// one: none after progress, [`IDLE_SLEEP_MIN`] after the first idle pass,
/// then doubling on each further idle pass up to [`IDLE_SLEEP`].
fn idle_sleep(prev: Duration, progressed: bool) -> Duration {
    if progressed {
        Duration::ZERO
    } else if prev.is_zero() {
        IDLE_SLEEP_MIN
    } else {
        (prev * 2).min(IDLE_SLEEP)
    }
}

/// Read chunk size per `read` call.
const READ_CHUNK: usize = 16 * 1024;

/// An incremental response body: the event loop polls it every tick and
/// writes whatever it appends. Used for batch submission, where result
/// frames land as jobs finish.
pub trait Streamer: Send {
    /// Appends any newly-available bytes to `out`. Returns `true` when the
    /// stream is complete (the connection closes once `out` drains).
    fn poll(&mut self, out: &mut Vec<u8>) -> bool;
}

/// What a [`Router`] answers a request with.
pub enum Outcome {
    /// A fully-materialized response, written with a `content-length`.
    Full {
        /// HTTP status code.
        status: u16,
        /// `content-type` header value.
        content_type: &'static str,
        /// Complete body bytes.
        body: Vec<u8>,
    },
    /// A close-delimited streaming response driven by a [`Streamer`].
    Stream {
        /// HTTP status code (sent immediately, before the body exists).
        status: u16,
        /// `content-type` header value.
        content_type: &'static str,
        /// Polled for body bytes every reactor tick.
        streamer: Box<dyn Streamer>,
    },
}

/// Routes parsed requests to responses. Implementations count their own
/// metrics; the loop itself stays policy-free.
pub trait Router: Send + Sync {
    /// Answer one request.
    fn route(&self, req: &Request) -> Outcome;

    /// Answer a malformed request (the loop closes the connection after).
    fn bad_request(&self, err: &BadRequest) -> Outcome;
}

enum ConnState {
    Reading { buf: Vec<u8> },
    Writing { buf: Vec<u8>, off: usize },
    Streaming { streamer: Box<dyn Streamer>, buf: Vec<u8>, off: usize, done: bool },
}

struct Conn {
    stream: TcpStream,
    state: ConnState,
    deadline: Instant,
}

/// Runs the reactor until `stopped` flips, then drops the listener and
/// every open connection. Blocks the calling thread; the server spawns it.
pub fn run(listener: TcpListener, router: &Arc<dyn Router>, stopped: &Arc<AtomicBool>) {
    // lint:allow(no-unwrap-in-serve): startup configuration, before any
    // request exists — a listener that cannot go nonblocking cannot serve
    // at all, and failing loudly at boot beats a silently blocking server.
    listener.set_nonblocking(true).expect("listener nonblocking");
    let mut conns: VecDeque<Conn> = VecDeque::new();
    let mut sleep = Duration::ZERO;
    while !stopped.load(Ordering::SeqCst) {
        let mut progressed = false;

        // Accept everything ready right now.
        loop {
            match listener.accept() {
                Ok((stream, _)) if conns.len() < MAX_CONNS => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    conns.push_back(Conn {
                        stream,
                        state: ConnState::Reading { buf: Vec::new() },
                        deadline: Instant::now() + SOCKET_TIMEOUT,
                    });
                    progressed = true;
                }
                // At capacity: drop the connection (close is refusal
                // enough; the client retries or fails fast).
                Ok(_) => progressed = true,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(_) => break,
            }
        }

        // One pass over every connection; finished ones drop out.
        let now = Instant::now();
        for _ in 0..conns.len() {
            let Some(mut conn) = conns.pop_front() else { break };
            match step(&mut conn, router, now) {
                Step::Progress => {
                    progressed = true;
                    conns.push_back(conn);
                }
                Step::Idle => conns.push_back(conn),
                Step::Close => progressed = true,
            }
        }

        sleep = idle_sleep(sleep, progressed);
        if !sleep.is_zero() {
            std::thread::sleep(sleep);
        }
    }
}

enum Step {
    Progress,
    Idle,
    Close,
}

/// Advances one connection as far as it will go without blocking.
fn step(conn: &mut Conn, router: &Arc<dyn Router>, now: Instant) -> Step {
    let mut progressed = false;
    loop {
        match &mut conn.state {
            ConnState::Reading { buf } => {
                let mut chunk = [0u8; READ_CHUNK];
                match conn.stream.read(&mut chunk) {
                    Ok(0) => return Step::Close, // peer went away mid-request
                    Ok(n) => {
                        buf.extend_from_slice(&chunk[..n]);
                        conn.deadline = now + SOCKET_TIMEOUT;
                        progressed = true;
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => {
                        if !try_route(conn, router) && conn.deadline <= now {
                            return Step::Close;
                        }
                        return if progressed { Step::Progress } else { Step::Idle };
                    }
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(_) => return Step::Close,
                }
                // Parse eagerly so a complete request answers this tick
                // even while the client keeps the connection open.
                if try_route(conn, router) {
                    progressed = true;
                }
            }
            ConnState::Writing { buf, off } => match conn.stream.write(&buf[*off..]) {
                Ok(0) => return Step::Close,
                Ok(n) => {
                    *off += n;
                    conn.deadline = now + SOCKET_TIMEOUT;
                    progressed = true;
                    if *off == buf.len() {
                        let _ = conn.stream.flush();
                        return Step::Close; // one request per connection
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    if conn.deadline <= now {
                        return Step::Close;
                    }
                    return if progressed { Step::Progress } else { Step::Idle };
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return Step::Close,
            },
            ConnState::Streaming { streamer, buf, off, done } => {
                // Job deadlines bound the stream's lifetime; the socket
                // deadline only guards the transport, so it refreshes on
                // every serviced tick.
                conn.deadline = now + SOCKET_TIMEOUT;
                if !*done {
                    *done = streamer.poll(buf);
                }
                if *off < buf.len() {
                    match conn.stream.write(&buf[*off..]) {
                        Ok(0) => return Step::Close,
                        Ok(n) => {
                            *off += n;
                            progressed = true;
                            // Keep the buffer from growing without bound
                            // across a long batch.
                            if *off == buf.len() {
                                buf.clear();
                                *off = 0;
                            }
                            continue;
                        }
                        Err(e) if e.kind() == ErrorKind::WouldBlock => {}
                        Err(e) if e.kind() == ErrorKind::Interrupted => {}
                        Err(_) => return Step::Close,
                    }
                }
                if *done && *off == buf.len() {
                    let _ = conn.stream.flush();
                    return Step::Close;
                }
                return if progressed { Step::Progress } else { Step::Idle };
            }
        }
    }
}

/// If `Reading` holds a complete (or malformed) request, routes it and
/// flips the connection to its response state. Returns whether it did.
fn try_route(conn: &mut Conn, router: &Arc<dyn Router>) -> bool {
    let ConnState::Reading { buf } = &conn.state else { return false };
    let outcome = match try_parse(buf) {
        Ok(None) => return false,
        Ok(Some((req, _consumed))) => router.route(&req),
        Err(e) => router.bad_request(&e),
    };
    conn.state = match outcome {
        Outcome::Full { status, content_type, body } => {
            let mut out = response_head(status, content_type, Some(body.len())).into_bytes();
            out.extend_from_slice(&body);
            ConnState::Writing { buf: out, off: 0 }
        }
        Outcome::Stream { status, content_type, streamer } => ConnState::Streaming {
            streamer,
            buf: response_head(status, content_type, None).into_bytes(),
            off: 0,
            done: false,
        },
    };
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufRead;

    struct Echo;
    impl Router for Echo {
        fn route(&self, req: &Request) -> Outcome {
            Outcome::Full {
                status: 200,
                content_type: "text/plain; charset=utf-8",
                body: format!("{} {} {}", req.method, req.path, req.body.len()).into_bytes(),
            }
        }
        fn bad_request(&self, err: &BadRequest) -> Outcome {
            Outcome::Full {
                status: 400,
                content_type: "text/plain; charset=utf-8",
                body: err.0.clone().into_bytes(),
            }
        }
    }

    /// N ticks of a counter, one per reactor poll.
    struct Ticker(u32);
    impl Streamer for Ticker {
        fn poll(&mut self, out: &mut Vec<u8>) -> bool {
            if self.0 == 0 {
                return true;
            }
            self.0 -= 1;
            out.extend_from_slice(format!("tick {}\n", self.0).as_bytes());
            self.0 == 0
        }
    }

    struct Streamy;
    impl Router for Streamy {
        fn route(&self, _req: &Request) -> Outcome {
            Outcome::Stream {
                status: 200,
                content_type: "application/x-ndjson",
                streamer: Box::new(Ticker(3)),
            }
        }
        fn bad_request(&self, err: &BadRequest) -> Outcome {
            Echo.bad_request(err)
        }
    }

    fn boot(router: Arc<dyn Router>) -> (String, Arc<AtomicBool>, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let stopped = Arc::new(AtomicBool::new(false));
        let t = {
            let stopped = Arc::clone(&stopped);
            std::thread::spawn(move || run(listener, &router, &stopped))
        };
        (addr, stopped, t)
    }

    #[test]
    fn idle_sleep_doubles_to_the_cap_and_progress_resets_it() {
        let mut sleep = Duration::ZERO;
        let mut schedule = Vec::new();
        for _ in 0..8 {
            sleep = idle_sleep(sleep, false);
            schedule.push(sleep.as_micros());
        }
        assert_eq!(schedule, [20, 40, 80, 160, 320, 640, 1000, 1000]);
        // ~1.3 ms of idling reaches the 1 ms cap.
        assert_eq!(schedule[..6].iter().sum::<u128>(), 1260);
        assert_eq!(idle_sleep(IDLE_SLEEP, true), Duration::ZERO);
        assert_eq!(idle_sleep(Duration::ZERO, true), Duration::ZERO);
        assert_eq!(idle_sleep(idle_sleep(IDLE_SLEEP, true), false), IDLE_SLEEP_MIN);
    }

    #[test]
    fn serves_requests_split_across_writes() {
        let (addr, stopped, t) = boot(Arc::new(Echo));
        let mut s = TcpStream::connect(&addr).unwrap();
        s.write_all(b"POST /he").unwrap();
        s.flush().unwrap();
        std::thread::sleep(Duration::from_millis(20));
        s.write_all(b"llo HTTP/1.1\r\ncontent-length: 3\r\n\r\nabc").unwrap();
        let resp = crate::http::client_request(&addr, "GET", "/x", None, Duration::from_secs(5))
            .unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body, "GET /x 0");
        let mut split = String::new();
        s.read_to_string(&mut split).unwrap();
        assert!(split.contains("POST /hello 3"), "{split}");
        stopped.store(true, Ordering::SeqCst);
        t.join().unwrap();
    }

    #[test]
    fn streams_arrive_incrementally_and_close_delimit() {
        let (addr, stopped, t) = boot(Arc::new(Streamy));
        let (status, mut r) =
            crate::http::client_stream(&addr, "GET", "/s", None, Duration::from_secs(5)).unwrap();
        assert_eq!(status, 200);
        let mut lines = Vec::new();
        loop {
            let mut line = String::new();
            if r.read_line(&mut line).unwrap() == 0 {
                break;
            }
            lines.push(line.trim_end().to_string());
        }
        assert_eq!(lines, ["tick 2", "tick 1", "tick 0"]);
        stopped.store(true, Ordering::SeqCst);
        t.join().unwrap();
    }

    #[test]
    fn hundreds_of_held_connections_do_not_pin_threads() {
        let (addr, stopped, t) = boot(Arc::new(Echo));
        // 300 connections all send a *partial* request and hold it open;
        // a thread-per-connection server would be 300 threads deep here.
        let mut held: Vec<TcpStream> = (0..300)
            .map(|_| {
                let mut s = TcpStream::connect(&addr).unwrap();
                s.write_all(b"GET /held HTTP/1.1\r\n").unwrap();
                s
            })
            .collect();
        // The loop still answers a fresh, complete request promptly.
        let resp = crate::http::client_request(&addr, "GET", "/now", None, Duration::from_secs(5))
            .unwrap();
        assert_eq!(resp.body, "GET /now 0");
        // Completing the held requests drains them all.
        for s in &mut held {
            s.write_all(b"\r\n").unwrap();
        }
        for mut s in held {
            let mut out = String::new();
            s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
            s.read_to_string(&mut out).unwrap();
            assert!(out.contains("GET /held 0"), "{out}");
        }
        stopped.store(true, Ordering::SeqCst);
        t.join().unwrap();
    }

    #[test]
    fn malformed_requests_get_400_and_close() {
        let (addr, stopped, t) = boot(Arc::new(Echo));
        let mut s = TcpStream::connect(&addr).unwrap();
        s.write_all(b"nonsense\r\n\r\n").unwrap();
        let mut out = String::new();
        s.read_to_string(&mut out).unwrap();
        assert!(out.starts_with("HTTP/1.1 400"), "{out}");
        stopped.store(true, Ordering::SeqCst);
        t.join().unwrap();
    }
}
