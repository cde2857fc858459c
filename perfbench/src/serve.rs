//! The serve phase: an in-process `iss serve` server and a request stream
//! replayed against it by two closed-loop clients, each the program's own
//! `Client` on one kept-open connection.
//!
//! The stream is a pure function of `(seed, client, index)`, so it needs
//! no state and repeats exactly for a seed. Popularity is skewed, so most
//! requests are cache reads; a fixed share are first-time points (misses
//! that write to the store); and every [`PAIR_EVERY`]-th request is one new
//! point sent by both clients at once, so the two requests coalesce on one
//! simulation.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

use iss_sim::serve::{Client, ServeStats, Server};

use crate::workload::Pool;

/// The cheap models the pool's points run under.
pub const MODELS: [&str; 2] = ["interval", "one-ipc"];

/// Every `PAIR_EVERY`-th request is sent by both clients at once. A choice,
/// like the other mix parameters: no measured traffic exists for it, and
/// the README shows that the end-to-end metrics do not depend on it.
pub const PAIR_EVERY: u64 = 40;

/// Per-mille of the remaining requests that ask for a first-time point (a
/// choice: enough that the store's write path runs in every run).
const FRESH_PER_MILLE: u64 = 30;

/// One design point of the pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Point {
    pub program: usize,
    pub model: usize,
    pub seed: u64,
}

/// splitmix64's output function: a cheap, well-mixed hash.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The request stream of one run.
pub struct RequestStream {
    seed: u64,
    programs: u64,
    hot: u64,
}

impl RequestStream {
    pub fn new(pool: &Pool, seed: u64) -> Self {
        RequestStream {
            seed,
            programs: pool.programs.len() as u64,
            hot: pool.hot_points,
        }
    }

    /// A point no other request asks for, drawn from `h`.
    fn fresh(&self, h: u64, id: u64) -> Point {
        Point {
            program: ((h >> 8) % self.programs) as usize,
            model: ((h >> 40) % MODELS.len() as u64) as usize,
            seed: self.seed.wrapping_add(id),
        }
    }

    /// Request `i` of client `conn`, and whether it is a coalescing pair
    /// (the same point at the same index for both clients).
    pub fn request(&self, conn: u64, i: u64) -> (Point, bool) {
        if i % PAIR_EVERY == PAIR_EVERY - 1 {
            let h = mix64(self.seed ^ mix64(i));
            return (self.fresh(h, (3 << 40) + i), true);
        }
        let h = mix64(self.seed ^ mix64((conn << 48) ^ i));
        if h % 1000 < FRESH_PER_MILLE {
            return (self.fresh(h, ((1 + conn) << 40) + i), false);
        }
        // Cubing a uniform draw skews popularity towards low ranks.
        let u = (h >> 11) as f64 / (1u64 << 53) as f64;
        let k = ((u * u * u) * self.hot as f64) as u64;
        let point = Point {
            program: (k % self.programs) as usize,
            model: ((k / self.programs) % MODELS.len() as u64) as usize,
            seed: self.seed.wrapping_add(k),
        };
        (point, false)
    }
}

/// The scenario file a client sends for `point`.
pub fn spec_toml(pool: &Pool, point: &Point) -> String {
    let program = pool.programs[point.program];
    let workload = if program.threads == 1 {
        format!("kind = \"single\"\nbenchmark = \"{}\"\n", program.benchmark)
    } else {
        format!(
            "kind = \"multithreaded\"\nbenchmark = \"{}\"\nthreads = {}\n",
            program.benchmark, program.threads
        )
    };
    format!(
        "schema = \"iss-scenario/v1\"\nname = \"serve-replay\"\nseed = {}\nmodel = \"{}\"\n\n\
         [machine]\nbaseline = \"hpca2010\"\n\n[workload]\n{workload}length = {}\n",
        point.seed, MODELS[point.model], pool.length
    )
}

/// What the replay observed.
pub struct Replay {
    pub attempted: u64,
    pub problems: Vec<String>,
    /// Latency of every answered request, milliseconds.
    pub latencies_ms: Vec<f64>,
    /// The latencies of the requests the server did not answer from its
    /// store (simulated or coalesced), also in `latencies_ms`.
    pub miss_latencies_ms: Vec<f64>,
    /// Responses that repeat the first response's canonical record but
    /// not its bytes (the point was evicted and simulated again).
    pub resimulated: u64,
    /// Seconds spent opening connections.
    pub connect_s: f64,
    /// Wall seconds from the first request to the last answer.
    pub wall_s: f64,
    /// The server's own counters at the end.
    pub server: ServeStats,
}

/// Shared by the two client threads.
struct Shared<'a> {
    addr: String,
    pool: &'a Pool,
    stream: &'a RequestStream,
    deadline: Instant,
    barrier: Barrier,
    stop: AtomicBool,
    /// The first response per point, as its line and its canonical record:
    /// every later response must repeat the line byte for byte, or — when
    /// the store evicted the point and the server simulated it again, which
    /// gives a new `host_seconds` — the canonical record.
    baselines: Mutex<BTreeMap<Point, (String, String)>>,
}

/// What one client observed.
#[derive(Default)]
struct Part {
    attempted: u64,
    problems: Vec<String>,
    latencies_ms: Vec<f64>,
    miss_latencies_ms: Vec<f64>,
    resimulated: u64,
    connect_s: f64,
}

/// Serves on `server` and replays the stream from two closed-loop clients
/// for about `seconds`, then reads the server's counters and shuts it
/// down. The clients stop together at the first coalescing pair past the
/// deadline, so neither is left waiting or mid-request.
pub fn replay(
    server: Server,
    pool: &Pool,
    stream: &RequestStream,
    seconds: f64,
) -> Result<Replay, String> {
    let addr = server.local_addr()?;
    let handle = std::thread::spawn(move || server.serve());
    let start = Instant::now();
    let shared = Shared {
        addr: addr.clone(),
        pool,
        stream,
        deadline: start + Duration::from_secs_f64(seconds),
        barrier: Barrier::new(2),
        stop: AtomicBool::new(false),
        baselines: Mutex::new(BTreeMap::new()),
    };
    let mut total = Part::default();
    std::thread::scope(|scope| {
        let shared = &shared;
        let clients: Vec<_> = (0u64..2)
            .map(|client| scope.spawn(move || replay_client(shared, client)))
            .collect();
        for client in clients {
            match client.join() {
                Ok(part) => {
                    total.attempted += part.attempted;
                    total.problems.extend(part.problems);
                    total.latencies_ms.extend(part.latencies_ms);
                    total.miss_latencies_ms.extend(part.miss_latencies_ms);
                    total.resimulated += part.resimulated;
                    total.connect_s += part.connect_s;
                }
                Err(_) => total.problems.push("a client thread panicked".to_string()),
            }
        }
    });
    let wall_s = start.elapsed().as_secs_f64();
    let stats = Client::connect(&addr)?.stats();
    let shutdown = Client::connect(&addr).and_then(|mut c| c.shutdown());
    let joined = handle
        .join()
        .map_err(|_| "the server thread panicked".to_string())?;
    shutdown?;
    joined?;
    Ok(Replay {
        attempted: total.attempted,
        problems: total.problems,
        latencies_ms: total.latencies_ms,
        miss_latencies_ms: total.miss_latencies_ms,
        resimulated: total.resimulated,
        connect_s: total.connect_s,
        wall_s,
        server: stats?,
    })
}

/// One closed-loop client: it sends its next request once the previous
/// answer is in, through the program's own `Client` on one kept-open
/// connection (reconnecting only after an error).
fn replay_client(shared: &Shared, client: u64) -> Part {
    let mut out = Part::default();
    let mut conn: Option<Client> = None;
    for i in 0.. {
        let (point, paired) = shared.stream.request(client, i);
        if paired {
            if shared.barrier.wait().is_leader() {
                shared
                    .stop
                    .store(Instant::now() >= shared.deadline, Ordering::SeqCst);
            }
            shared.barrier.wait();
            if shared.stop.load(Ordering::SeqCst) {
                return out;
            }
        }
        out.attempted += 1;
        let c = match conn.as_mut() {
            Some(c) => c,
            None => {
                let t = Instant::now();
                let connected = Client::connect(&shared.addr);
                out.connect_s += t.elapsed().as_secs_f64();
                match connected {
                    Ok(c) => conn.insert(c),
                    Err(e) => {
                        out.problems.push(format!("client {client}: {e}"));
                        continue;
                    }
                }
            }
        };
        let text = spec_toml(shared.pool, &point);
        let t = Instant::now();
        let outcome = c.run(&text);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        let outcome = match outcome {
            Ok(outcome) => outcome,
            Err(e) => {
                // The connection may hold half a response: start afresh.
                conn = None;
                out.problems
                    .push(format!("request {i} of client {client}: {e}"));
                continue;
            }
        };
        let (record, line) = match (outcome.records.as_slice(), outcome.record_lines.as_slice()) {
            ([record], [line]) => (record, line),
            (records, _) => {
                out.problems.push(format!(
                    "request {i} of client {client}: {} records for one point",
                    records.len()
                ));
                continue;
            }
        };
        if let Some(failure) = &record.failure {
            out.problems
                .push(format!("request {i}: quarantined: {}", failure.message));
            continue;
        }
        if record.instructions != shared.pool.length {
            out.problems.push(format!(
                "request {i}: retired {} instructions, the point has {}",
                record.instructions, shared.pool.length
            ));
            continue;
        }
        {
            let mut baselines = shared
                .baselines
                .lock()
                .expect("no client panics while holding the baselines");
            match baselines.get(&point) {
                Some((first, _)) if first == line => {}
                Some((_, canonical)) if *canonical == record.canonical() => out.resimulated += 1,
                Some(_) => {
                    out.problems.push(format!(
                        "request {i}: response differs from the first response for its point"
                    ));
                    continue;
                }
                None => {
                    baselines.insert(point, (line.clone(), record.canonical()));
                }
            }
        }
        out.latencies_ms.push(ms);
        if outcome.hits == 0 {
            out.miss_latencies_ms.push(ms);
        }
    }
    unreachable!("the request index space is unbounded")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{shape, Workload};

    fn first(stream: &RequestStream, conn: u64, n: u64) -> Vec<(Point, bool)> {
        (0..n).map(|i| stream.request(conn, i)).collect()
    }

    #[test]
    fn request_stream_is_deterministic_for_a_seed() {
        let pool = shape(Workload::ServeReplay).pool;
        let a = RequestStream::new(&pool, 7);
        let b = RequestStream::new(&pool, 7);
        assert_eq!(first(&a, 0, 2_000), first(&b, 0, 2_000));
        assert_eq!(first(&a, 1, 2_000), first(&b, 1, 2_000));
        let c = RequestStream::new(&pool, 8);
        assert_ne!(first(&a, 0, 2_000), first(&c, 0, 2_000));
    }

    #[test]
    fn pairs_coincide_and_popularity_is_skewed() {
        let pool = shape(Workload::ServeReplay).pool;
        let s = RequestStream::new(&pool, 3);
        let (a, b) = (first(&s, 0, 4_000), first(&s, 1, 4_000));
        let mut counts: BTreeMap<Point, u64> = BTreeMap::new();
        let mut fresh = 0;
        for (i, ((p0, pair0), (p1, pair1))) in a.iter().zip(&b).enumerate() {
            assert_eq!(*pair0, (i as u64 + 1).is_multiple_of(PAIR_EVERY));
            assert_eq!(pair0, pair1);
            if *pair0 {
                assert_eq!(p0, p1, "a pair is one point for both clients");
            } else {
                assert!(p0.program < pool.programs.len() && p0.model < MODELS.len());
                *counts.entry(*p0).or_default() += 1;
                if p0.seed.wrapping_sub(3) >= pool.hot_points {
                    fresh += 1;
                }
            }
        }
        // A few percent first-time points; the most popular point is asked
        // for far more often than an even spread would.
        assert!((40..200).contains(&fresh), "fresh {fresh}");
        let top = counts.values().max().copied().unwrap_or(0);
        assert!(top > 4 * 3_900 / pool.hot_points, "top {top}");
    }

    #[test]
    fn spec_files_parse_to_the_pool_length() {
        let pool = shape(Workload::ServeReplay).pool;
        let s = RequestStream::new(&pool, 1);
        for i in 0..200 {
            let (p, _) = s.request(0, i);
            let sweep = iss_sim::scenario::SweepSpec::from_toml(&spec_toml(&pool, &p))
                .expect("generated spec parses");
            let points = sweep.expand().expect("generated spec expands");
            assert_eq!(points.len(), 1);
            assert_eq!(
                iss_sim::store::workload_instructions(&points[0].workload),
                pool.length
            );
        }
    }
}
