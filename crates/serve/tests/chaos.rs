//! Fault-injection tests for the daemon, driven by the `rob-chaos`
//! harness: injected worker panics, corrupted persistence, a stalled
//! request path, client-disconnect cancellation, and a cancelling drain.
//!
//! Every test arms a [`chaos::plan`] (possibly empty) and holds the
//! returned guard for its whole body — the guard's global lock keeps
//! armed injection points from leaking into a concurrently running test
//! in this binary.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use campaign::pool::CancelToken;
use campaign::JobSpec;
use rob_verify::{Verdict, Verification};
use serve::{Disposition, Request, Response, ServeRunner, Server, ServerConfig, VerifyRequest};

fn open(addr: std::net::SocketAddr, request: &Request) -> (TcpStream, BufReader<TcpStream>) {
    let stream = TcpStream::connect(addr).expect("connect");
    let mut writer = stream.try_clone().expect("clone");
    writeln!(writer, "{}", request.to_json()).expect("send");
    writer.flush().expect("flush");
    (writer, BufReader::new(stream))
}

fn read_terminal(reader: &mut BufReader<TcpStream>) -> Response {
    let mut events = 0;
    loop {
        let mut line = String::new();
        let n = reader.read_line(&mut line).expect("read");
        assert_ne!(n, 0, "server closed mid-request");
        if line.trim().is_empty() {
            continue;
        }
        let response = Response::parse(&line).expect("parse response");
        if let Response::Event { .. } = response {
            events += 1;
            assert!(events < 1000, "event stream never terminated");
            continue;
        }
        return response;
    }
}

fn roundtrip(addr: std::net::SocketAddr, request: &Request) -> Response {
    let (_writer, mut reader) = open(addr, request);
    read_terminal(&mut reader)
}

fn canned() -> Verification {
    Verification {
        verdict: Verdict::Verified,
        timings: Default::default(),
        stats: Default::default(),
        diagnostics: Vec::new(),
        degraded: None,
    }
}

fn canned_runner(solves: &Arc<AtomicUsize>) -> ServeRunner {
    let solves = Arc::clone(solves);
    Arc::new(
        move |_job: &JobSpec, _cancel: &CancelToken, _deadline: Option<Duration>| {
            solves.fetch_add(1, Ordering::SeqCst);
            Ok(canned())
        },
    )
}

fn temp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rob-serve-chaos-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(name)
}

/// Tentpole: panics injected into the worker run path are contained by
/// the pool — the affected requests get structured errors and the daemon
/// stays fully serviceable afterwards.
#[test]
fn daemon_survives_injected_worker_panics() {
    let guard = chaos::plan(7).panic_at("serve.worker.run", 2).arm();
    let solves = Arc::new(AtomicUsize::new(0));
    let handle = Server::start(ServerConfig {
        workers: 2,
        runner: canned_runner(&solves),
        ..ServerConfig::default()
    })
    .expect("start");
    let addr = handle.addr();

    // Two requests absorb the two injected panics.
    for (size, width) in [(4usize, 1usize), (6, 1)] {
        let crashed = roundtrip(addr, &Request::Verify(VerifyRequest::new(size, width)));
        let Response::Error { message } = &crashed else {
            panic!("expected contained crash, got {crashed:?}");
        };
        assert!(message.contains("injected panic"), "{message}");
    }
    assert_eq!(guard.fired(), vec!["serve.worker.run", "serve.worker.run"]);
    assert_eq!(solves.load(Ordering::SeqCst), 0, "panic precedes the solve");

    // Panic budget exhausted: both keys (never cached — a crash is not a
    // result) now solve, and the daemon answers control traffic.
    for (size, width) in [(4usize, 1usize), (6, 1)] {
        let ok = roundtrip(addr, &Request::Verify(VerifyRequest::new(size, width)));
        assert!(
            matches!(
                ok,
                Response::Result {
                    disposition: Disposition::Miss,
                    ..
                }
            ),
            "after the panics the same key must solve: {ok:?}"
        );
    }
    assert_eq!(solves.load(Ordering::SeqCst), 2);
    assert_eq!(roundtrip(addr, &Request::Ping), Response::Pong);
    let Response::Stats(s) = roundtrip(addr, &Request::Stats) else {
        panic!()
    };
    assert_eq!(s.jobs_served, 2, "only completed solves count as served");
    handle.shutdown();
}

/// Tentpole: a corrupted shutdown flush degrades the next startup to a
/// cold cache — the bad record is skipped and counted, the daemon serves
/// (re-solving instead of crashing or serving garbage).
#[test]
fn corrupt_journal_flush_degrades_to_cold_cache() {
    // Seed 16 steers `mangle` to the trailing-garbage branch (invalid
    // UTF-8), so the flushed record is unambiguously rejected on replay.
    let guard = chaos::plan(16).corrupt_at("serve.cache.flush-line").arm();
    let store = temp_path("chaos-corrupt.jsonl");
    std::fs::remove_file(&store).ok();
    let request = Request::Verify(VerifyRequest::new(8, 2));

    let solves = Arc::new(AtomicUsize::new(0));
    let first = Server::start(ServerConfig {
        workers: 1,
        persist_path: Some(store.clone()),
        runner: canned_runner(&solves),
        ..ServerConfig::default()
    })
    .expect("start first");
    assert!(matches!(
        roundtrip(first.addr(), &request),
        Response::Result {
            disposition: Disposition::Miss,
            ..
        }
    ));
    // The drain flushes the store; the armed point corrupts the line.
    first.shutdown();
    assert_eq!(guard.fired(), vec!["serve.cache.flush-line"]);
    // Keep holding the guard: releasing it would let another chaos test
    // arm its plan inside the second daemon. Replay and re-solve never
    // reach the flush point, so they still run un-injected.

    let second = Server::start(ServerConfig {
        workers: 1,
        persist_path: Some(store.clone()),
        runner: canned_runner(&solves),
        ..ServerConfig::default()
    })
    .expect("corrupt journal must not fail startup");
    let replay = second.replay_report().expect("store configured");
    assert_eq!(replay.loaded, 0, "the corrupted record must not be served");
    assert_eq!(replay.rejected, 1, "…but it is counted, not fatal");
    let again = roundtrip(second.addr(), &request);
    assert!(
        matches!(
            again,
            Response::Result {
                disposition: Disposition::Miss,
                ..
            }
        ),
        "cold cache re-solves: {again:?}"
    );
    assert_eq!(solves.load(Ordering::SeqCst), 2);
    second.shutdown();
    std::fs::remove_file(&store).ok();
}

/// A stall injected at the request entry point delays the answer but
/// does not wedge the connection or the daemon.
#[test]
fn stalled_request_path_still_answers() {
    let _guard = chaos::plan(3)
        .stall_at("serve.verify", Duration::from_millis(60))
        .arm();
    let solves = Arc::new(AtomicUsize::new(0));
    let handle = Server::start(ServerConfig {
        workers: 1,
        runner: canned_runner(&solves),
        ..ServerConfig::default()
    })
    .expect("start");
    let started = Instant::now();
    let response = roundtrip(handle.addr(), &Request::Verify(VerifyRequest::new(4, 1)));
    assert!(matches!(response, Response::Result { .. }), "{response:?}");
    assert!(
        started.elapsed() >= Duration::from_millis(60),
        "the stall must actually delay the answer"
    );
    handle.shutdown();
}

/// A client that disconnects mid-job trips the job's cancel token: a
/// cooperative runner observes the flip and winds down instead of
/// solving for nobody, and the daemon keeps serving.
#[test]
fn disconnect_cancels_a_cooperative_runner() {
    let _guard = chaos::plan(1).arm(); // no faults; serializes vs other chaos tests
    let observed_cancel = Arc::new(AtomicBool::new(false));
    let observed = Arc::clone(&observed_cancel);
    let handle = Server::start(ServerConfig {
        workers: 1,
        runner: Arc::new(
            move |job: &JobSpec, cancel: &CancelToken, _deadline: Option<Duration>| {
                if job.label().starts_with("rob4") {
                    // Occupies the single worker so the rob6 job sits queued
                    // long enough for the client's RST to land.
                    std::thread::sleep(Duration::from_millis(250));
                    return Ok(canned());
                }
                // Cooperative: poll the token; give up only well past any
                // plausible test timing.
                let deadline = Instant::now() + Duration::from_secs(5);
                while Instant::now() < deadline {
                    if cancel.is_cancelled() {
                        observed.store(true, Ordering::SeqCst);
                        return Ok(Verification::cancelled(
                            Default::default(),
                            Default::default(),
                        ));
                    }
                    std::thread::sleep(Duration::from_millis(2));
                }
                Ok(canned())
            },
        ),
        ..ServerConfig::default()
    })
    .expect("start");
    let addr = handle.addr();

    // Fill the worker, then queue the target job and hang up on it. The
    // `queued` event is written while we are still connected; the
    // `started` event (sent once the worker picks the job up, after our
    // RST has landed) fails the write and flips the token.
    let (_w_filler, mut r_filler) = open(addr, &Request::Verify(VerifyRequest::new(4, 1)));
    std::thread::sleep(Duration::from_millis(50));
    {
        let (writer, mut reader) = open(addr, &Request::Verify(VerifyRequest::new(6, 1)));
        let mut queued = String::new();
        reader.read_line(&mut queued).expect("queued event");
        assert!(queued.contains("queued"), "{queued}");
        drop(writer);
        drop(reader);
    }
    assert!(matches!(
        read_terminal(&mut r_filler),
        Response::Result { .. }
    ));

    // The abandoned job winds down via its token well before its 5 s
    // give-up horizon.
    let deadline = Instant::now() + Duration::from_secs(3);
    while !observed_cancel.load(Ordering::SeqCst) {
        assert!(
            Instant::now() < deadline,
            "runner never observed the disconnect cancellation"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    // Cancelled work is not a result: the key must re-solve, not hit.
    let repeat = roundtrip(addr, &Request::Verify(VerifyRequest::new(6, 1)));
    assert!(
        matches!(
            repeat,
            Response::Result {
                disposition: Disposition::Miss,
                ..
            }
        ),
        "a cancelled job must never be cached: {repeat:?}"
    );
    handle.shutdown();
}

/// With `cancel_on_drain`, shutdown trips every outstanding token: the
/// in-flight cooperative job winds down, the queued job resolves as
/// cancelled, and both clients get structured errors — promptly.
#[test]
fn cancel_on_drain_unblocks_in_flight_and_queued_jobs() {
    let _guard = chaos::plan(2).arm(); // no faults; serializes vs other chaos tests
    let handle = Server::start(ServerConfig {
        workers: 1,
        cancel_on_drain: true,
        runner: Arc::new(
            |_job: &JobSpec, cancel: &CancelToken, _deadline: Option<Duration>| {
                let deadline = Instant::now() + Duration::from_secs(10);
                while Instant::now() < deadline {
                    if cancel.is_cancelled() {
                        return Ok(Verification::cancelled(
                            Default::default(),
                            Default::default(),
                        ));
                    }
                    std::thread::sleep(Duration::from_millis(2));
                }
                Ok(canned())
            },
        ),
        ..ServerConfig::default()
    })
    .expect("start");
    let addr = handle.addr();

    let clients: Vec<_> = [(4usize, 1usize), (6, 1)]
        .into_iter()
        .map(|(size, width)| {
            std::thread::spawn(move || {
                roundtrip(addr, &Request::Verify(VerifyRequest::new(size, width)))
            })
        })
        .collect();
    // Wait until one job occupies the worker and the other is queued.
    loop {
        let Response::Stats(s) = roundtrip(addr, &Request::Stats) else {
            panic!()
        };
        if s.active_jobs == 1 && s.queue_depth == 1 {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }

    let drained = Instant::now();
    handle.shutdown();
    assert!(
        drained.elapsed() < Duration::from_secs(5),
        "cancel-on-drain must not wait out a 10 s job"
    );
    for client in clients {
        let response = client.join().expect("client thread");
        let Response::Error { message } = &response else {
            panic!("drained job must answer with an error: {response:?}");
        };
        assert!(message.contains("cancelled"), "{message}");
    }
}
