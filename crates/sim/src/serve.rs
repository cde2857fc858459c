//! Simulation as a service: the long-running server behind `iss serve`.
//!
//! The paper's point is that cheap models make design-space exploration
//! affordable; in production most sweep traffic re-requests the same
//! design points, so the marginal cost of a hot scenario should be a
//! cache read, not a simulation. This module is that server: a TCP
//! listener speaking line-delimited JSON, a bounded worker pool executing
//! misses through the [`crate::batch`] engine (panic isolation included),
//! and the persistent [`ResultStore`] answering repeats with the cached
//! [`Record`] — byte-identical to the fresh response that populated it,
//! because the store keeps the lossless JSONL encoding. The store is
//! shared with `iss sweep`, and a cached record always answers under the
//! requesting sweep's names ([`ScenarioSpec::relabel`]).
//!
//! ## Protocol
//!
//! One JSON object per line in both directions. Requests:
//!
//! * `{"cmd": "run", "spec_toml": "<scenario TOML>"}` — expand the spec
//!   and answer every point, from cache when possible;
//! * `{"cmd": "stats"}` — server counters (see [`ServeStats`]);
//! * `{"cmd": "evict"}` — drop every cache entry;
//! * `{"cmd": "shutdown"}` — acknowledge, then stop accepting and exit
//!   the accept loop cleanly.
//!
//! A `run` streams progress — one
//! `{"event": "job", "index": i, "total": n, "name": ..., "digest": ...,
//! "source": "cache"|"simulated"|"coalesced"}` line per point as it
//! completes (completion order, the index identifies the point) — then a
//! final `{"event": "done", ...}` carrying every record in expansion
//! order. Failures are `{"event": "error", "message": ...}`. A request
//! line longer than [`MAX_REQUEST_BYTES`] gets one error event, and then
//! the server closes the connection.
//!
//! Identical points racing through different connections **coalesce**:
//! the first requester simulates, the rest block on the same in-flight
//! slot and reuse its record, so a thundering herd of one hot scenario
//! costs one simulation. Quarantined (failed) records are returned but
//! never cached — a crash must not be memoized as an answer.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};

use crate::batch::{try_run_batch_with_threads, SimJob};
use crate::host_time::HostTimer;
use crate::jsonval::{self, Json};
use crate::scenario::jsonl::{record_from_json, render_record_line};
use crate::scenario::{Record, ScenarioSpec, SweepSpec};
use crate::store::{CacheKey, ResultStore};

/// Locks a mutex, recovering the data from a poisoned lock — every value
/// the server shares across threads stays consistent under panics because
/// the batch engine already isolates simulation panics.
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Configuration of one server instance.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Concurrent simulations allowed across all connections.
    pub workers: usize,
    /// Result-store directory.
    pub cache_dir: PathBuf,
    /// Result-store size bound in bytes (`None` = unbounded).
    pub cache_max_bytes: Option<u64>,
    /// Drop every existing cache entry at startup (`iss serve --evict`).
    pub evict_on_start: bool,
}

/// Server counters, as returned by the `stats` command.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ServeStats {
    /// `run` requests handled.
    pub requests: u64,
    /// Points processed across all requests.
    pub jobs: u64,
    /// Points answered from the result store.
    pub hits: u64,
    /// Points that had to simulate.
    pub misses: u64,
    /// Points that reused another request's in-flight simulation.
    pub coalesced: u64,
    /// Points that simulated and came back quarantined.
    pub failures: u64,
    /// Wall-clock seconds spent inside simulations (worker busy time).
    pub busy_seconds: f64,
    /// Wall-clock seconds since the server started.
    pub uptime_seconds: f64,
    /// Size of the simulation worker pool.
    pub workers: u64,
    /// Live entries in the result store.
    pub entries: u64,
    /// Total bytes of the result store.
    pub store_bytes: u64,
    /// Entries evicted by the LRU bound since startup.
    pub evictions: u64,
    /// Corrupt/torn entries dropped since startup.
    pub dropped_corrupt: u64,
}

impl ServeStats {
    /// Fraction of worker capacity spent simulating since startup
    /// (`busy_seconds / (uptime × workers)`), in `[0, 1]`.
    #[must_use]
    pub fn worker_utilization(&self) -> f64 {
        let capacity = self.uptime_seconds * self.workers as f64;
        if capacity <= 0.0 {
            0.0
        } else {
            (self.busy_seconds / capacity).min(1.0)
        }
    }
}

/// How one point of a `run` request was answered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobEvent {
    /// Expansion-order index of the point.
    pub index: usize,
    /// Point count of the request.
    pub total: usize,
    /// Scenario name of the point.
    pub name: String,
    /// Cache-key digest of the point.
    pub digest: String,
    /// `cache`, `simulated` or `coalesced`.
    pub source: String,
}

/// The parsed outcome of one `run` request.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Points the request expanded to.
    pub jobs: usize,
    /// Points answered from the result store.
    pub hits: usize,
    /// Points that simulated.
    pub misses: usize,
    /// Points that reused an in-flight simulation.
    pub coalesced: usize,
    /// Streaming progress events, in completion order.
    pub events: Vec<JobEvent>,
    /// One record per point, in expansion order.
    pub records: Vec<Record>,
    /// The records re-rendered through the lossless JSONL codec — the
    /// byte-identity witness the load harness compares across replays.
    pub record_lines: Vec<String>,
}

impl RunOutcome {
    /// Fraction of points answered from cache, in `[0, 1]`.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        if self.jobs == 0 {
            0.0
        } else {
            self.hits as f64 / self.jobs as f64
        }
    }
}

/// A single in-flight simulation that identical concurrent requests
/// block on instead of repeating.
struct Inflight {
    slot: Mutex<Option<Result<Record, String>>>,
    ready: Condvar,
}

impl Inflight {
    fn new() -> Inflight {
        Inflight {
            slot: Mutex::new(None),
            ready: Condvar::new(),
        }
    }

    fn resolve(&self, result: Result<Record, String>) {
        *lock(&self.slot) = Some(result);
        self.ready.notify_all();
    }

    fn wait(&self) -> Result<Record, String> {
        let mut slot = lock(&self.slot);
        loop {
            if let Some(result) = slot.as_ref() {
                return result.clone();
            }
            slot = self
                .ready
                .wait(slot)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// Counting semaphore bounding concurrent simulations across every
/// connection — the worker pool.
struct Gate {
    slots: Mutex<usize>,
    freed: Condvar,
}

impl Gate {
    fn new(slots: usize) -> Gate {
        Gate {
            slots: Mutex::new(slots),
            freed: Condvar::new(),
        }
    }

    fn acquire(&self) {
        let mut slots = lock(&self.slots);
        while *slots == 0 {
            slots = self
                .freed
                .wait(slots)
                .unwrap_or_else(PoisonError::into_inner);
        }
        *slots -= 1;
    }

    fn release(&self) {
        *lock(&self.slots) += 1;
        self.freed.notify_one();
    }
}

/// Mutable counters behind the `stats` command.
#[derive(Debug, Default)]
struct Counters {
    requests: u64,
    jobs: u64,
    hits: u64,
    misses: u64,
    coalesced: u64,
    failures: u64,
    busy_seconds: f64,
}

/// State shared by every connection thread.
struct Shared {
    store: Mutex<ResultStore>,
    inflight: Mutex<BTreeMap<String, Arc<Inflight>>>,
    gate: Gate,
    counters: Mutex<Counters>,
    shutdown: AtomicBool,
    timer: HostTimer,
    workers: usize,
}

/// The `iss serve` server: a bound listener plus the shared store, worker
/// gate and counters.
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
}

impl Server {
    /// Binds the listener and opens (optionally evicting) the result
    /// store. `addr` accepts the usual `host:port` forms; port `0` picks a
    /// free port (see [`Server::local_addr`]).
    ///
    /// # Errors
    ///
    /// Returns bind and store-open failures.
    pub fn bind(addr: &str, options: &ServeOptions) -> Result<Server, String> {
        let listener = TcpListener::bind(addr).map_err(|e| format!("cannot bind `{addr}`: {e}"))?;
        let mut store = ResultStore::open(&options.cache_dir, options.cache_max_bytes)?;
        if options.evict_on_start {
            store.clear()?;
        }
        Ok(Server {
            listener,
            shared: Arc::new(Shared {
                store: Mutex::new(store),
                inflight: Mutex::new(BTreeMap::new()),
                gate: Gate::new(options.workers.max(1)),
                counters: Mutex::new(Counters::default()),
                shutdown: AtomicBool::new(false),
                timer: HostTimer::start(),
                workers: options.workers.max(1),
            }),
        })
    }

    /// The address the listener actually bound (resolves port `0`).
    ///
    /// # Errors
    ///
    /// Returns the socket introspection failure.
    pub fn local_addr(&self) -> Result<String, String> {
        self.listener
            .local_addr()
            .map(|a| a.to_string())
            .map_err(|e| format!("cannot read the bound address: {e}"))
    }

    /// Accepts connections until a `shutdown` command arrives, one thread
    /// per connection, then joins every live connection thread and returns.
    ///
    /// # Errors
    ///
    /// Returns accept-loop failures; a clean shutdown returns `Ok(())`.
    pub fn serve(self) -> Result<(), String> {
        let addr = self.local_addr()?;
        let mut handles = Vec::new();
        for stream in self.listener.incoming() {
            if self.shared.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let stream = stream.map_err(|e| format!("accept failed: {e}"))?;
            let shared = Arc::clone(&self.shared);
            let self_addr = addr.clone();
            // Reap connections that have closed: an exited thread keeps its
            // stack mapped until it is joined.
            handles.retain(|h: &std::thread::JoinHandle<()>| !h.is_finished());
            handles.push(std::thread::spawn(move || {
                handle_connection(&shared, stream, &self_addr);
            }));
        }
        for handle in handles {
            let _ = handle.join();
        }
        Ok(())
    }
}

/// Longest request line the server reads, in bytes without the newline.
/// A scenario spec is a few KB; the bound stops a client that never sends
/// a newline from growing the server's heap without limit.
pub const MAX_REQUEST_BYTES: u64 = 1 << 20;

/// Reads request lines off one connection until EOF, shutdown, or a line
/// longer than [`MAX_REQUEST_BYTES`].
fn handle_connection(shared: &Arc<Shared>, stream: TcpStream, self_addr: &str) {
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let writer = Mutex::new(write_half);
    let mut reader = BufReader::new(stream);
    let mut buf = Vec::new();
    loop {
        buf.clear();
        // One byte past the bound tells an over-long line from one that fits.
        match (&mut reader)
            .take(MAX_REQUEST_BYTES + 1)
            .read_until(b'\n', &mut buf)
        {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
        if buf.last() == Some(&b'\n') {
            buf.pop();
        } else if buf.len() as u64 > MAX_REQUEST_BYTES {
            send_error(
                &writer,
                &format!("request line longer than {MAX_REQUEST_BYTES} bytes"),
            );
            break;
        }
        let Ok(line) = std::str::from_utf8(&buf) else {
            break;
        };
        if line.trim().is_empty() {
            continue;
        }
        match handle_request(shared, &writer, line) {
            Ok(keep_going) => {
                if !keep_going {
                    // Shutdown: poke the accept loop so it observes the
                    // flag instead of blocking on the next connection.
                    let _ = TcpStream::connect(self_addr);
                    break;
                }
            }
            Err(message) => send_error(&writer, &message),
        }
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
    }
}

/// Writes one `error` event line.
fn send_error(writer: &Mutex<TcpStream>, message: &str) {
    send_line(
        writer,
        &format!(
            "{{\"event\": \"error\", \"message\": \"{}\"}}",
            jsonval::escape(message)
        ),
    );
}

/// Writes one response line, ignoring a disconnected client.
fn send_line(writer: &Mutex<TcpStream>, line: &str) {
    let mut w = lock(writer);
    let _ = w.write_all(line.as_bytes());
    let _ = w.write_all(b"\n");
    let _ = w.flush();
}

/// Dispatches one request line. Returns `Ok(false)` when the connection
/// handled a shutdown and the accept loop must stop.
fn handle_request(
    shared: &Arc<Shared>,
    writer: &Mutex<TcpStream>,
    line: &str,
) -> Result<bool, String> {
    let request = jsonval::parse(line)?;
    let cmd = request
        .get("cmd")
        .and_then(Json::as_str)
        .ok_or_else(|| "request has no `cmd` field".to_string())?;
    match cmd {
        "run" => {
            let spec = request
                .get("spec_toml")
                .and_then(Json::as_str)
                .ok_or_else(|| "`run` needs a `spec_toml` string".to_string())?;
            handle_run(shared, writer, spec)?;
            Ok(true)
        }
        "stats" => {
            send_line(writer, &render_stats_line(&snapshot_stats(shared)));
            Ok(true)
        }
        "evict" => {
            let dropped = lock(&shared.store).clear()?;
            send_line(
                writer,
                &format!("{{\"event\": \"evicted\", \"entries\": {dropped}}}"),
            );
            Ok(true)
        }
        "shutdown" => {
            shared.shutdown.store(true, Ordering::SeqCst);
            send_line(writer, "{\"event\": \"shutdown\"}");
            Ok(false)
        }
        other => Err(format!(
            "unknown command `{other}` (known: run, stats, evict, shutdown)"
        )),
    }
}

/// One answered design point: the record plus where it came from
/// (`"cache"`, `"simulated"` or `"coalesced"`).
type PointOutcome = Result<(Record, &'static str), String>;

/// Answers one `run` request: expands the spec, answers every point from
/// cache / coalescing / simulation on the worker pool, streams a `job`
/// event per completion, then a `done` event with the records in
/// expansion order.
fn handle_run(
    shared: &Arc<Shared>,
    writer: &Mutex<TcpStream>,
    spec_toml: &str,
) -> Result<(), String> {
    let sweep = SweepSpec::from_toml(spec_toml)?;
    let points = sweep.expand()?;
    let jobs = points
        .iter()
        .map(ScenarioSpec::to_job)
        .collect::<Result<Vec<_>, _>>()?;
    let keys = {
        let store = lock(&shared.store);
        points
            .iter()
            .map(|p| store.key_for(p))
            .collect::<Result<Vec<_>, _>>()?
    };
    let total = points.len();
    let results: Vec<Mutex<Option<PointOutcome>>> = (0..total).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let request_threads = shared.workers.min(total).max(1);
    std::thread::scope(|scope| {
        for _ in 0..request_threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::SeqCst);
                if i >= total {
                    break;
                }
                let outcome = answer_point(shared, &points[i], &jobs[i], &keys[i], &sweep.name);
                if let Ok((_, source)) = &outcome {
                    send_line(
                        writer,
                        &format!(
                            "{{\"event\": \"job\", \"index\": {i}, \"total\": {total}, \
                             \"name\": \"{}\", \"digest\": \"{}\", \"source\": \"{source}\"}}",
                            jsonval::escape(&points[i].name),
                            keys[i].digest()
                        ),
                    );
                }
                *lock(&results[i]) = Some(outcome);
            });
        }
    });

    let mut records = Vec::with_capacity(total);
    let (mut hits, mut misses, mut coalesced, mut failures) = (0u64, 0u64, 0u64, 0u64);
    for (i, cell) in results.iter().enumerate() {
        let outcome = lock(cell)
            .take()
            .ok_or_else(|| "a point was never answered".to_string())?;
        let (record, source) = outcome?;
        match source {
            "cache" => hits += 1,
            "coalesced" => coalesced += 1,
            _ => misses += 1,
        }
        if record.failure.is_some() {
            failures += 1;
        }
        records.push(points[i].relabel(&sweep.name, record));
    }
    {
        let mut counters = lock(&shared.counters);
        counters.requests += 1;
        counters.jobs += total as u64;
        counters.hits += hits;
        counters.misses += misses;
        counters.coalesced += coalesced;
        counters.failures += failures;
    }
    let mut done = format!(
        "{{\"event\": \"done\", \"sweep\": \"{}\", \"jobs\": {total}, \"hits\": {hits}, \
         \"misses\": {misses}, \"coalesced\": {coalesced}, \"records\": [",
        jsonval::escape(&sweep.name)
    );
    for (i, record) in records.iter().enumerate() {
        if i > 0 {
            done.push_str(", ");
        }
        done.push_str(&render_record_line(record));
    }
    done.push_str("]}");
    send_line(writer, &done);
    Ok(())
}

/// Answers one point: result store first, then in-flight coalescing, then
/// a worker-pool simulation (whose record is cached unless quarantined).
fn answer_point(
    shared: &Arc<Shared>,
    point: &ScenarioSpec,
    job: &SimJob,
    key: &CacheKey,
    sweep_name: &str,
) -> Result<(Record, &'static str), String> {
    let digest = key.digest();
    if let Some(record) = lock(&shared.store).get(key) {
        return Ok((record, "cache"));
    }
    let (leader, entry) = {
        let mut inflight = lock(&shared.inflight);
        match inflight.get(&digest) {
            Some(entry) => (false, Arc::clone(entry)),
            None => {
                let entry = Arc::new(Inflight::new());
                inflight.insert(digest.clone(), Arc::clone(&entry));
                (true, entry)
            }
        }
    };
    if !leader {
        return entry.wait().map(|record| (record, "coalesced"));
    }
    // Double-checked: a previous leader may have filled the store between
    // our miss and our registration — then this is a hit, not a repeat
    // simulation (`misses` counts actual simulations exactly).
    // Bind the lookup before matching: a `match` scrutinee's lock guard
    // would otherwise stay held across the simulation (and deadlock the
    // `put`).
    let cached = lock(&shared.store).get(key);
    let source;
    let result = match cached {
        Some(record) => {
            source = "cache";
            Ok(record)
        }
        None => {
            source = "simulated";
            let result = simulate_point(shared, point, job, sweep_name);
            if let Ok(record) = &result {
                if record.failure.is_none() {
                    // A store write failure degrades to a cache miss on
                    // the next request; the response is already correct.
                    let _ = lock(&shared.store).put(key, record);
                }
            }
            result
        }
    };
    entry.resolve(result.clone());
    lock(&shared.inflight).remove(&digest);
    result.map(|record| (record, source))
}

/// Runs one job on the worker pool through the batch engine (panic
/// isolation: a crash comes back as a quarantined record, not a dead
/// connection).
fn simulate_point(
    shared: &Arc<Shared>,
    point: &ScenarioSpec,
    job: &SimJob,
    sweep_name: &str,
) -> Result<Record, String> {
    shared.gate.acquire();
    let timer = HostTimer::start();
    let outcome = try_run_batch_with_threads(std::slice::from_ref(job), 1).pop();
    let busy = timer.elapsed_seconds();
    shared.gate.release();
    lock(&shared.counters).busy_seconds += busy;
    let outcome = outcome.ok_or_else(|| "the batch engine returned no outcome".to_string())?;
    point.outcome_record(sweep_name, outcome)
}

/// Assembles the `stats` response from the counters, the store, and the
/// uptime timer.
fn snapshot_stats(shared: &Arc<Shared>) -> ServeStats {
    let store = lock(&shared.store);
    let counters = lock(&shared.counters);
    ServeStats {
        requests: counters.requests,
        jobs: counters.jobs,
        hits: counters.hits,
        misses: counters.misses,
        coalesced: counters.coalesced,
        failures: counters.failures,
        busy_seconds: counters.busy_seconds,
        uptime_seconds: shared.timer.elapsed_seconds(),
        workers: shared.workers as u64,
        entries: store.len() as u64,
        store_bytes: store.total_bytes(),
        evictions: store.stats.evictions,
        dropped_corrupt: store.stats.dropped_corrupt,
    }
}

/// One `stats` field: a counter, or a seconds figure.
enum StatsField {
    Count(fn(&mut ServeStats) -> &mut u64),
    Seconds(fn(&mut ServeStats) -> &mut f64),
}

/// The `stats` line's fields in wire order: the one list both
/// [`render_stats_line`] and [`stats_from_json`] walk.
const STATS_FIELDS: [(&str, StatsField); 13] = [
    ("requests", StatsField::Count(|s| &mut s.requests)),
    ("jobs", StatsField::Count(|s| &mut s.jobs)),
    ("hits", StatsField::Count(|s| &mut s.hits)),
    ("misses", StatsField::Count(|s| &mut s.misses)),
    ("coalesced", StatsField::Count(|s| &mut s.coalesced)),
    ("failures", StatsField::Count(|s| &mut s.failures)),
    ("busy_seconds", StatsField::Seconds(|s| &mut s.busy_seconds)),
    (
        "uptime_seconds",
        StatsField::Seconds(|s| &mut s.uptime_seconds),
    ),
    ("workers", StatsField::Count(|s| &mut s.workers)),
    ("entries", StatsField::Count(|s| &mut s.entries)),
    ("store_bytes", StatsField::Count(|s| &mut s.store_bytes)),
    ("evictions", StatsField::Count(|s| &mut s.evictions)),
    (
        "dropped_corrupt",
        StatsField::Count(|s| &mut s.dropped_corrupt),
    ),
];

fn render_stats_line(stats: &ServeStats) -> String {
    let mut stats = *stats;
    let mut line = String::from("{\"event\": \"stats\"");
    for (name, field) in &STATS_FIELDS {
        let value = match field {
            StatsField::Count(get) => get(&mut stats).to_string(),
            StatsField::Seconds(get) => get(&mut stats).to_string(),
        };
        line.push_str(&format!(", \"{name}\": {value}"));
    }
    line.push('}');
    line
}

fn stats_from_json(value: &Json) -> Result<ServeStats, String> {
    let mut stats = ServeStats::default();
    for (name, field) in &STATS_FIELDS {
        let raw = value.get(name);
        match field {
            StatsField::Count(get) => {
                *get(&mut stats) = raw.and_then(Json::as_u64).ok_or_else(|| {
                    format!("stats field `{name}` must be a non-negative integer")
                })?;
            }
            StatsField::Seconds(get) => {
                *get(&mut stats) = raw
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("stats field `{name}` must be a number"))?;
            }
        }
    }
    Ok(stats)
}

/// A line-protocol client for an `iss serve` instance — the piece the
/// load-test harness, the integration tests, and scripting share.
pub struct Client {
    reader: BufReader<TcpStream>,
}

impl Client {
    /// Connects to a serving address (`host:port`).
    ///
    /// # Errors
    ///
    /// Returns the connection failure.
    pub fn connect(addr: &str) -> Result<Client, String> {
        let stream =
            TcpStream::connect(addr).map_err(|e| format!("cannot connect to `{addr}`: {e}"))?;
        Ok(Client {
            reader: BufReader::new(stream),
        })
    }

    fn send(&mut self, line: &str) -> Result<(), String> {
        let stream = self.reader.get_mut();
        stream
            .write_all(line.as_bytes())
            .and_then(|()| stream.write_all(b"\n"))
            .and_then(|()| stream.flush())
            .map_err(|e| format!("cannot send request: {e}"))
    }

    fn read_event(&mut self) -> Result<Json, String> {
        let mut line = String::new();
        let n = self
            .reader
            .read_line(&mut line)
            .map_err(|e| format!("cannot read response: {e}"))?;
        if n == 0 {
            return Err("the server closed the connection".to_string());
        }
        let value = jsonval::parse(line.trim_end())?;
        if value.get("event").and_then(Json::as_str) == Some("error") {
            return Err(value
                .get("message")
                .and_then(Json::as_str)
                .unwrap_or("unspecified server error")
                .to_string());
        }
        Ok(value)
    }

    /// Submits a scenario spec and collects the streamed response.
    ///
    /// # Errors
    ///
    /// Returns transport errors and server-side `error` events.
    pub fn run(&mut self, spec_toml: &str) -> Result<RunOutcome, String> {
        self.send(&format!(
            "{{\"cmd\": \"run\", \"spec_toml\": \"{}\"}}",
            jsonval::escape(spec_toml)
        ))?;
        let mut events = Vec::new();
        loop {
            let value = self.read_event()?;
            match value.get("event").and_then(Json::as_str) {
                Some("job") => {
                    let field = |key: &str| -> Result<usize, String> {
                        value
                            .get(key)
                            .and_then(Json::as_usize)
                            .ok_or_else(|| format!("job event field `{key}` must be an integer"))
                    };
                    let text = |key: &str| {
                        value
                            .get(key)
                            .and_then(Json::as_str)
                            .unwrap_or_default()
                            .to_string()
                    };
                    events.push(JobEvent {
                        index: field("index")?,
                        total: field("total")?,
                        name: text("name"),
                        digest: text("digest"),
                        source: text("source"),
                    });
                }
                Some("done") => {
                    let count = |key: &str| -> Result<usize, String> {
                        value
                            .get(key)
                            .and_then(Json::as_usize)
                            .ok_or_else(|| format!("done event field `{key}` must be an integer"))
                    };
                    let items = value
                        .get("records")
                        .and_then(Json::as_arr)
                        .ok_or_else(|| "done event has no `records` array".to_string())?;
                    let records = items
                        .iter()
                        .map(record_from_json)
                        .collect::<Result<Vec<_>, _>>()?;
                    // The codec is lossless, so re-rendering reproduces the
                    // server's bytes exactly.
                    let record_lines = records.iter().map(render_record_line).collect();
                    return Ok(RunOutcome {
                        jobs: count("jobs")?,
                        hits: count("hits")?,
                        misses: count("misses")?,
                        coalesced: count("coalesced")?,
                        events,
                        records,
                        record_lines,
                    });
                }
                other => {
                    return Err(format!("unexpected response event {other:?}"));
                }
            }
        }
    }

    /// Fetches the server counters.
    ///
    /// # Errors
    ///
    /// Returns transport and protocol errors.
    pub fn stats(&mut self) -> Result<ServeStats, String> {
        self.send("{\"cmd\": \"stats\"}")?;
        stats_from_json(&self.read_event()?)
    }

    /// Drops every cache entry; returns how many were dropped.
    ///
    /// # Errors
    ///
    /// Returns transport and protocol errors.
    pub fn evict(&mut self) -> Result<usize, String> {
        self.send("{\"cmd\": \"evict\"}")?;
        self.read_event()?
            .get("entries")
            .and_then(Json::as_usize)
            .ok_or_else(|| "evict response has no `entries` count".to_string())
    }

    /// Asks the server to stop accepting and exit its accept loop.
    ///
    /// # Errors
    ///
    /// Returns transport and protocol errors.
    pub fn shutdown(&mut self) -> Result<(), String> {
        self.send("{\"cmd\": \"shutdown\"}")?;
        match self.read_event()?.get("event").and_then(Json::as_str) {
            Some("shutdown") => Ok(()),
            other => Err(format!("unexpected shutdown response {other:?}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_stats() -> ServeStats {
        ServeStats {
            requests: 1,
            jobs: 2,
            hits: 3,
            misses: 4,
            coalesced: 5,
            failures: 6,
            busy_seconds: 0.25,
            uptime_seconds: 1.5,
            workers: 7,
            entries: 8,
            store_bytes: 9,
            evictions: 10,
            dropped_corrupt: 11,
        }
    }

    #[test]
    fn stats_line_is_pinned_field_for_field() {
        assert_eq!(
            render_stats_line(&sample_stats()),
            "{\"event\": \"stats\", \"requests\": 1, \"jobs\": 2, \"hits\": 3, \
             \"misses\": 4, \"coalesced\": 5, \"failures\": 6, \"busy_seconds\": 0.25, \
             \"uptime_seconds\": 1.5, \"workers\": 7, \"entries\": 8, \"store_bytes\": 9, \
             \"evictions\": 10, \"dropped_corrupt\": 11}"
        );
    }

    #[test]
    fn stats_line_round_trips_and_rejects_a_missing_field() {
        let line = render_stats_line(&sample_stats());
        let parsed = stats_from_json(&jsonval::parse(&line).unwrap()).unwrap();
        assert_eq!(parsed, sample_stats());
        let cut = line.replace("\"evictions\": 10, ", "");
        let err = stats_from_json(&jsonval::parse(&cut).unwrap()).unwrap_err();
        assert!(err.contains("`evictions`"), "got: {err}");
    }
}
