//! In-process integration tests of simulation-as-a-service: a real
//! `Server` on a loopback port, real `Client`s, a real on-disk result
//! store — asserting the cache contract end to end: a warm replay is
//! 100% hits with byte-identical responses, concurrent identical
//! requests deduplicate to one simulation, and shutdown is clean.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::Shutdown;
use std::path::PathBuf;
use std::sync::{mpsc, Arc, Barrier};
use std::time::Duration;

use iss_sim::host_time::HostTimer;
use iss_sim::{Client, Record, ServeOptions, ServeStats, Server};

/// A 4-point sweep (2 benchmarks × 2 models), small enough to simulate
/// in milliseconds.
const SWEEP_SPEC: &str = r#"
schema = "iss-scenario/v1"
name = "serve-test"
seed = 7
model = "interval"

[machine]
baseline = "hpca2010"

[workload]
kind = "single"
benchmark = "gcc"
length = 2000

[sweep]
benchmarks = ["gcc", "mcf"]
models = ["interval", "one-ipc"]
"#;

/// A single-point spec for the coalescing test.
const POINT_SPEC: &str = r#"
schema = "iss-scenario/v1"
name = "serve-point"
seed = 11
model = "interval"

[machine]
baseline = "hpca2010"

[workload]
kind = "single"
benchmark = "twolf"
length = 2500
"#;

fn cache_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("iss-serve-tests-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Binds a server on a free loopback port and serves it on a background
/// thread. Returns the bound address and the join handle whose `Ok(())`
/// is the clean-shutdown witness.
fn start(tag: &str, workers: usize) -> (String, std::thread::JoinHandle<Result<(), String>>) {
    let options = ServeOptions {
        workers,
        cache_dir: cache_dir(tag),
        cache_max_bytes: None,
        evict_on_start: false,
    };
    let server = Server::bind("127.0.0.1:0", &options).expect("bind");
    let addr = server.local_addr().expect("local addr");
    let handle = std::thread::spawn(move || server.serve());
    (addr, handle)
}

#[test]
fn a_warm_replay_is_all_hits_and_byte_identical() {
    let (addr, handle) = start("warm", 2);
    let mut client = Client::connect(&addr).expect("connect");

    let cold = client.run(SWEEP_SPEC).expect("cold run");
    assert_eq!(cold.jobs, 4);
    assert_eq!(cold.misses, 4, "an empty store must simulate everything");
    assert_eq!(cold.hits, 0);
    assert_eq!(cold.records.len(), 4);
    assert_eq!(cold.events.len(), 4);
    assert!(cold.records.iter().all(|r| r.failure.is_none()));

    let warm = client.run(SWEEP_SPEC).expect("warm run");
    assert_eq!(warm.hits, 4, "a replay must be 100% cache hits");
    assert_eq!(warm.misses, 0);
    assert!((warm.hit_rate() - 1.0).abs() < f64::EPSILON);
    assert_eq!(
        warm.record_lines, cold.record_lines,
        "cached responses must be byte-identical to the fresh simulation"
    );
    assert!(
        warm.events.iter().all(|e| e.source == "cache"),
        "every point must come from the store"
    );

    let stats = client.stats().expect("stats");
    assert_eq!(stats.requests, 2);
    assert_eq!(stats.jobs, 8);
    assert_eq!(stats.hits, 4);
    assert_eq!(stats.misses, 4);
    assert_eq!(stats.entries, 4);
    assert!(stats.busy_seconds > 0.0);
    assert!(stats.uptime_seconds > 0.0);
    assert!(stats.worker_utilization() <= 1.0);

    // Another sweep over the same points hits under its own name.
    let renamed = client
        .run(&SWEEP_SPEC.replace("serve-test", "serve-renamed"))
        .expect("renamed run");
    assert_eq!(renamed.hits, 4);
    assert!(renamed.records.iter().all(|r| r.sweep == "serve-renamed"));

    client.shutdown().expect("shutdown");
    assert_eq!(
        handle.join().expect("join"),
        Ok(()),
        "shutdown must be clean"
    );
}

/// A kept-open connection answers store hits in well under a millisecond.
/// A line that leaves in two writes without `TCP_NODELAY` waits for the
/// peer's delayed ACK instead: 88 ms per request on a Linux loopback.
#[test]
fn store_hits_on_a_kept_open_connection_do_not_wait_for_delayed_acks() {
    let (addr, handle) = start("latency", 2);
    let mut client = Client::connect(&addr).expect("connect");
    assert_eq!(client.run(POINT_SPEC).expect("cold run").misses, 1);
    let requests = 50;
    let timer = HostTimer::start();
    for _ in 0..requests {
        assert_eq!(client.run(POINT_SPEC).expect("warm run").hits, 1);
    }
    let mean_ms = timer.elapsed_seconds() * 1e3 / f64::from(requests);
    assert!(
        mean_ms < 20.0,
        "a store hit on a kept-open connection took {mean_ms:.2} ms on average"
    );
    client.shutdown().expect("shutdown");
    assert_eq!(handle.join().expect("join"), Ok(()));
}

#[test]
fn concurrent_identical_requests_deduplicate_to_one_simulation() {
    let (addr, handle) = start("dedupe", 4);
    let clients = 4;
    let barrier = Arc::new(Barrier::new(clients));
    let mut joins = Vec::new();
    for _ in 0..clients {
        let addr = addr.clone();
        let barrier = Arc::clone(&barrier);
        joins.push(std::thread::spawn(move || {
            let mut client = Client::connect(&addr).expect("connect");
            barrier.wait();
            client.run(POINT_SPEC).expect("run")
        }));
    }
    let outcomes: Vec<_> = joins.into_iter().map(|j| j.join().expect("join")).collect();

    let first = &outcomes[0].record_lines;
    for outcome in &outcomes {
        assert_eq!(outcome.jobs, 1);
        assert_eq!(
            &outcome.record_lines, first,
            "every requester must see bit-identical responses"
        );
    }
    let mut client = Client::connect(&addr).expect("connect");
    let stats = client.stats().expect("stats");
    assert_eq!(
        stats.misses, 1,
        "identical concurrent requests must run exactly one simulation"
    );
    assert_eq!(
        stats.hits + stats.coalesced,
        clients as u64 - 1,
        "the rest must be answered from cache or the in-flight slot"
    );
    client.shutdown().expect("shutdown");
    assert_eq!(handle.join().expect("join"), Ok(()));
}

#[test]
fn evict_empties_the_store_and_bad_requests_keep_the_connection_alive() {
    let (addr, handle) = start("evict", 2);
    let mut client = Client::connect(&addr).expect("connect");

    // A malformed spec answers with an error event, not a dead socket.
    let err = client.run("schema = \"nope\"").expect_err("bad spec");
    assert!(!err.is_empty());

    let cold = client.run(SWEEP_SPEC).expect("cold run");
    assert_eq!(cold.misses, 4);
    assert_eq!(client.evict().expect("evict"), 4);
    let recold = client.run(SWEEP_SPEC).expect("re-cold run");
    assert_eq!(
        recold.misses, 4,
        "an evicted store must simulate everything again"
    );
    // Two *fresh* simulations agree on every deterministic field (only
    // `host_seconds` differs run to run — byte-identity is the promise
    // between a cached response and the simulation that populated it).
    let canonical = |o: &iss_sim::serve::RunOutcome| {
        o.records.iter().map(Record::canonical).collect::<Vec<_>>()
    };
    assert_eq!(
        canonical(&recold),
        canonical(&cold),
        "re-simulation reproduces the same deterministic fields"
    );

    client.shutdown().expect("shutdown");
    assert_eq!(handle.join().expect("join"), Ok(()));
}

#[test]
fn the_store_outlives_the_server_across_restarts() {
    let options = ServeOptions {
        workers: 2,
        cache_dir: cache_dir("restart"),
        cache_max_bytes: None,
        evict_on_start: false,
    };
    let run_once = |options: &ServeOptions| {
        let server = Server::bind("127.0.0.1:0", options).expect("bind");
        let addr = server.local_addr().expect("local addr");
        let handle = std::thread::spawn(move || server.serve());
        let mut client = Client::connect(&addr).expect("connect");
        let outcome = client.run(SWEEP_SPEC).expect("run");
        client.shutdown().expect("shutdown");
        assert_eq!(handle.join().expect("join"), Ok(()));
        outcome
    };
    let cold = run_once(&options);
    assert_eq!(cold.misses, 4);
    let warm = run_once(&options);
    assert_eq!(warm.hits, 4, "a fresh server must reuse the on-disk store");
    assert_eq!(warm.record_lines, cold.record_lines);

    // `--evict` clears it on startup.
    let evicting = ServeOptions {
        evict_on_start: true,
        ..options
    };
    let recold = run_once(&evicting);
    assert_eq!(recold.misses, 4, "--evict must start from an empty store");
}

/// Mapped regions of this process (one line each in `/proc/self/maps`).
#[cfg(target_os = "linux")]
fn mapping_count() -> usize {
    std::fs::read_to_string("/proc/self/maps")
        .expect("read /proc/self/maps")
        .lines()
        .count()
}

/// A closed connection must not keep its thread's stack mapped until
/// shutdown: hundreds of short connections leave the mapping count close
/// to where it started, and the server still answers.
#[cfg(target_os = "linux")]
#[test]
fn closed_connections_release_their_threads() {
    const CONNECTIONS: usize = 400;
    let (addr, handle) = start("reap", 1);
    // Warm up once so lazily mapped state (allocator arenas, the store)
    // is not counted as growth.
    Client::connect(&addr)
        .expect("connect")
        .stats()
        .expect("stats");
    let before = mapping_count();
    for _ in 0..CONNECTIONS {
        drop(Client::connect(&addr).expect("connect"));
    }
    let mut client = Client::connect(&addr).expect("connect");
    let stats = client.stats().expect("stats after many connections");
    assert_eq!(
        stats.requests, 0,
        "stats requests are not simulation requests"
    );
    // A closed connection's thread exits on its own once it reads the
    // hang-up, and tests running beside this one map and unmap stacks of
    // their own, so wait up to 10 s for the count to settle rather than
    // sampling one instant. A thread that keeps its stack never settles.
    let mut grown = mapping_count().saturating_sub(before);
    for _ in 0..500 {
        if grown < CONNECTIONS / 4 {
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
        grown = mapping_count().saturating_sub(before);
    }
    assert!(
        grown < CONNECTIONS / 4,
        "{grown} new mappings after {CONNECTIONS} closed connections"
    );
    client.shutdown().expect("shutdown");
    assert_eq!(handle.join().expect("join"), Ok(()));
}

/// Opens a raw connection with a read timeout, so a server that never
/// answers fails the test instead of hanging it.
fn raw_connect(addr: &str) -> (std::net::TcpStream, BufReader<std::net::TcpStream>) {
    let stream = std::net::TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    let reader = BufReader::new(stream.try_clone().expect("clone"));
    (stream, reader)
}

fn read_line(reader: &mut BufReader<std::net::TcpStream>) -> String {
    let mut line = String::new();
    reader.read_line(&mut line).expect("a response line");
    line
}

/// A deeply nested request is an error event, not a stack overflow that
/// aborts the server (and every other client) with it.
#[test]
fn a_deeply_nested_request_is_an_error_and_the_server_lives_on() {
    let (addr, handle) = start("deep", 1);
    let (mut stream, mut reader) = raw_connect(&addr);
    let deep = format!("{}\n", "[".repeat(10_000));
    stream.write_all(deep.as_bytes()).expect("send");
    let answer = read_line(&mut reader);
    assert!(answer.contains("\"event\": \"error\""), "{answer}");
    assert!(answer.contains("nesting"), "{answer}");

    stream.write_all(b"{\"cmd\": \"stats\"}\n").expect("send");
    let stats = read_line(&mut reader);
    assert!(stats.contains("\"event\": \"stats\""), "{stats}");
    // Shutdown joins every connection thread; close this one first.
    drop((stream, reader));

    Client::connect(&addr)
        .expect("connect")
        .shutdown()
        .expect("shutdown");
    assert_eq!(handle.join().expect("join"), Ok(()));
}

/// A line that never ends cannot grow the server's heap without limit:
/// past the bound the client gets one error event and then EOF.
#[test]
fn an_over_long_request_line_is_an_error_and_closes_the_connection() {
    let (addr, handle) = start("long", 1);
    let (stream, mut reader) = raw_connect(&addr);
    // The server stops reading at the bound, so the rest of the write may
    // block or fail; send from another thread and ignore the outcome.
    let mut writer = stream.try_clone().expect("clone");
    let sender = std::thread::spawn(move || {
        let chunk = vec![b' '; 64 * 1024];
        for _ in 0..(2 * iss_sim::serve::MAX_REQUEST_BYTES as usize / chunk.len()) {
            if writer.write_all(&chunk).is_err() {
                break;
            }
        }
    });
    let answer = read_line(&mut reader);
    assert!(answer.contains("\"event\": \"error\""), "{answer}");
    assert!(answer.contains("longer than"), "{answer}");
    let mut rest = Vec::new();
    match reader.read_to_end(&mut rest) {
        Ok(_) => assert!(rest.is_empty(), "nothing after the error event"),
        // The server closed with unread bytes in its socket, which resets
        // the connection: closed all the same.
        Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::ConnectionReset, "{e}"),
    }
    drop(stream);
    sender.join().expect("sender");

    Client::connect(&addr)
        .expect("connect")
        .shutdown()
        .expect("shutdown");
    assert_eq!(handle.join().expect("join"), Ok(()));
}

/// How long a request to a healthy server may take before the test calls
/// the server wedged.
const DEADLINE: Duration = Duration::from_secs(10);

/// Runs `f` on its own thread and returns its result, failing the test
/// if it takes longer than [`DEADLINE`] instead of hanging it.
fn within_deadline<T: Send + 'static>(what: &str, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    match rx.recv_timeout(DEADLINE) {
        Ok(value) => value,
        Err(mpsc::RecvTimeoutError::Timeout) => panic!("{what} did not return within {DEADLINE:?}"),
        Err(mpsc::RecvTimeoutError::Disconnected) => panic!("{what} panicked"),
    }
}

/// A fresh client's `stats`, answered within [`DEADLINE`].
fn fresh_stats(addr: &str) -> ServeStats {
    let addr = addr.to_string();
    within_deadline("a fresh client's stats", move || {
        Client::connect(&addr).and_then(|mut c| c.stats())
    })
    .expect("stats")
}

/// Reads until the server closes the connection; every line it sent on
/// the way must be an error event.
fn expect_closed_with_errors_only(mut reader: BufReader<std::net::TcpStream>) {
    let mut rest = Vec::new();
    match reader.read_to_end(&mut rest) {
        Ok(_) => {
            let text = String::from_utf8_lossy(&rest);
            assert!(
                text.lines().all(|l| l.contains("\"event\": \"error\"")),
                "{text}"
            );
        }
        Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::ConnectionReset, "{e}"),
    }
}

/// Clients that break the line protocol wedge nothing: after half a line
/// and a half-close, after a `run` whose client hangs up before reading,
/// and after a non-UTF-8 line (an error event on a connection that stays
/// open), a fresh client is still answered. The
/// abandoned request's simulation lands in the store, not in the
/// coalescing map, and shutdown still returns.
#[test]
fn misbehaving_clients_wedge_nothing() {
    let (addr, handle) = start("misbehave", 2);

    // Half a request line, then a half-close: EOF arrives mid-line.
    let (mut stream, reader) = raw_connect(&addr);
    stream.write_all(b"{\"cmd\": \"sta").expect("send");
    stream.shutdown(Shutdown::Write).expect("half-close");
    expect_closed_with_errors_only(reader);
    drop(stream);
    assert_eq!(fresh_stats(&addr).requests, 0);

    // A `run` whose client hangs up before reading a line of the answer.
    let (mut stream, reader) = raw_connect(&addr);
    let request = format!(
        "{{\"cmd\": \"run\", \"spec_toml\": \"{}\"}}\n",
        iss_sim::jsonval::escape(POINT_SPEC)
    );
    stream.write_all(request.as_bytes()).expect("send");
    drop((stream, reader));
    // The server finishes the request for nobody; wait until it counts it.
    let timer = HostTimer::start();
    let mut stats = fresh_stats(&addr);
    while stats.requests == 0 {
        assert!(
            timer.elapsed_seconds() < DEADLINE.as_secs_f64(),
            "the abandoned run was never finished: {stats:?}"
        );
        std::thread::sleep(Duration::from_millis(20));
        stats = fresh_stats(&addr);
    }
    assert_eq!(stats.misses, 1, "{stats:?}");

    // A non-UTF-8 line is an error event, and the connection still
    // answers the next request.
    let (mut stream, mut reader) = raw_connect(&addr);
    stream.write_all(b"\xff\xfe{\x80}\n").expect("send");
    let answer = read_line(&mut reader);
    assert!(answer.contains("\"event\": \"error\""), "{answer}");
    assert!(answer.contains("UTF-8"), "{answer}");
    stream.write_all(b"{\"cmd\": \"stats\"}\n").expect("send");
    let stats = read_line(&mut reader);
    assert!(stats.contains("\"event\": \"stats\""), "{stats}");
    drop((stream, reader));
    let stats = fresh_stats(&addr);
    assert_eq!((stats.requests, stats.misses), (1, 1), "{stats:?}");

    // The replay is a store hit: the abandoned simulation was kept. With
    // the store emptied, the point simulates afresh; a coalescing slot the
    // abandoned request left behind would answer it instead.
    let replay_addr = addr.clone();
    let (replay, rerun, misses) = within_deadline("the replay and re-run", move || {
        let mut client = Client::connect(&replay_addr).expect("connect");
        let replay = client.run(POINT_SPEC).expect("replay");
        let after_replay = client.stats().expect("stats").misses;
        assert_eq!(client.evict().expect("evict"), 1);
        let rerun = client.run(POINT_SPEC).expect("re-run");
        let after_rerun = client.stats().expect("stats").misses;
        client.shutdown().expect("shutdown");
        (replay, rerun, [after_replay, after_rerun])
    });
    assert_eq!(replay.hits, 1);
    assert_eq!(replay.events[0].source, "cache");
    assert_eq!(rerun.events[0].source, "simulated");
    assert_eq!(misses, [1, 2]);

    let served = within_deadline("serve after shutdown", move || handle.join());
    assert_eq!(served.expect("join"), Ok(()));
}

/// A client that stays connected without sending anything does not keep
/// `serve` from returning after a `shutdown`; it reads EOF instead.
#[test]
fn an_idle_connection_does_not_block_shutdown() {
    let (addr, handle) = start("idle", 1);
    // One answered request proves the server has accepted the connection
    // and its thread now waits for the next line.
    let (mut idle, mut reader) = raw_connect(&addr);
    idle.write_all(b"{\"cmd\": \"stats\"}\n").expect("send");
    let stats = read_line(&mut reader);
    assert!(stats.contains("\"event\": \"stats\""), "{stats}");

    let shutdown_addr = addr.clone();
    within_deadline("shutdown", move || {
        Client::connect(&shutdown_addr).and_then(|mut c| c.shutdown())
    })
    .expect("shutdown");
    let served = within_deadline("serve with an idle client connected", move || handle.join());
    assert_eq!(served.expect("join"), Ok(()));

    let mut rest = Vec::new();
    reader.read_to_end(&mut rest).expect("EOF");
    assert!(rest.is_empty(), "{}", String::from_utf8_lossy(&rest));
    drop(idle);
}
