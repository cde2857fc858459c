//! In-process integration tests of simulation-as-a-service: a real
//! `Server` on a loopback port, real `Client`s, a real on-disk result
//! store — asserting the cache contract end to end: a warm replay is
//! 100% hits with byte-identical responses, concurrent identical
//! requests deduplicate to one simulation, and shutdown is clean.

use std::path::PathBuf;
use std::sync::{Arc, Barrier};

use iss_sim::{Client, Record, ServeOptions, Server};

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

    client.shutdown().expect("shutdown");
    assert_eq!(
        handle.join().expect("join"),
        Ok(()),
        "shutdown must be clean"
    );
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
    let grown = mapping_count().saturating_sub(before);
    assert!(
        grown < CONNECTIONS / 4,
        "{grown} new mappings after {CONNECTIONS} closed connections"
    );
    client.shutdown().expect("shutdown");
    assert_eq!(handle.join().expect("join"), Ok(()));
}
