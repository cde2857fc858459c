//! Persistent digest-keyed result store: the one place finished records
//! persist, behind both `iss serve` and `iss sweep`.
//!
//! Most production sweep traffic re-requests the same design points, so
//! serving a hot scenario should cost a file read, not a simulation, and an
//! interrupted sweep should resume by re-running only the points the store
//! does not hold. This module is a content-addressed on-disk cache of
//! [`Record`]s keyed by a [`CacheKey`] — **(crate version, point digest,
//! seed, scale)** — with an explicit invalidation story:
//!
//! * the key embeds the crate version, so a code upgrade misses cleanly
//!   (stale entries linger only until the LRU bound reclaims them);
//! * the key embeds the canonical point digest (resolved config +
//!   workload + model + seed), so *any* spec change is a different key;
//! * every entry file repeats its key fields in a header, and a `get`
//!   whose header disagrees with the requested key — or whose body does
//!   not parse (a torn write, manual tampering, disk corruption) — is
//!   treated as a **miss**: the bad entry is dropped and re-simulated,
//!   never returned and never a crash;
//! * a configurable byte bound evicts least-recently-used entries so the
//!   store stays finite under unbounded distinct traffic.
//!
//! Recency is tracked by an append-only access log (`lru.log`, one key per
//! line) replayed at open and compacted on eviction — deliberately not
//! file mtimes, which would put the host wall clock into eviction order.
//! Writes go through a per-process temp file + rename so a crash mid-`put`
//! leaves a torn temp file (ignored) rather than a corrupt entry, and two
//! processes sharing a directory never write the same temp file.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use crate::jsonval::{self, Json};
use crate::scenario::jsonl::{record_from_json, render_record_line};
use crate::scenario::{fnv1a_hex, Record, ScenarioSpec};
use crate::workload::WorkloadSpec;

/// Schema tag of every entry file's header object.
pub const ENTRY_SCHEMA: &str = "iss-cache-entry/v1";

/// File name of the append-only access log inside a store directory.
const LRU_LOG: &str = "lru.log";

/// Prefix of entry file names (`entry-<key>.json`).
const ENTRY_PREFIX: &str = "entry-";

/// The cache identity of one simulation point: everything that must match
/// for a stored record to answer a request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheKey {
    /// Crate version the record was produced by (`CARGO_PKG_VERSION`).
    pub version: String,
    /// Canonical point digest ([`ScenarioSpec::digest`]): resolved config,
    /// workload, model and seed.
    pub point_digest: String,
    /// Workload generation seed (already inside the point digest; repeated
    /// so key mismatches are explainable field by field).
    pub seed: u64,
    /// Total simulated instructions of the workload — the scale axis.
    pub scale: u64,
}

impl CacheKey {
    /// The key for a scenario point under a given crate version.
    ///
    /// # Errors
    ///
    /// Propagates the point's machine-resolution error.
    pub fn for_point(point: &ScenarioSpec, version: &str) -> Result<CacheKey, String> {
        Ok(CacheKey {
            version: version.to_string(),
            point_digest: point.digest()?,
            seed: point.seed,
            scale: workload_instructions(&point.workload),
        })
    }

    /// FNV-1a digest of the full key — the content address an entry file
    /// is stored under.
    #[must_use]
    pub fn digest(&self) -> String {
        fnv1a_hex(&format!(
            "{}|{}|{}|{}",
            self.version, self.point_digest, self.seed, self.scale
        ))
    }
}

/// Total instructions a workload simulates (the `scale` key component).
#[must_use]
pub fn workload_instructions(workload: &WorkloadSpec) -> u64 {
    match workload {
        WorkloadSpec::Single { length, .. } => *length,
        WorkloadSpec::MultiprogramHomogeneous {
            copies,
            length_per_copy,
            ..
        } => length_per_copy.saturating_mul(*copies as u64),
        WorkloadSpec::Multiprogram {
            benchmarks,
            length_per_copy,
        } => length_per_copy.saturating_mul(benchmarks.len() as u64),
        WorkloadSpec::Multithreaded { total_length, .. } => *total_length,
    }
}

/// Hit/miss/eviction counters of one store instance (process lifetime,
/// not persisted).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// `get` calls answered from disk.
    pub hits: u64,
    /// `get` calls with no (valid) entry.
    pub misses: u64,
    /// Entries evicted by the LRU byte bound.
    pub evictions: u64,
    /// Entries dropped because they were corrupt, torn, or keyed wrong.
    pub dropped_corrupt: u64,
}

/// A persistent content-addressed result store rooted at one directory.
///
/// One entry per [`CacheKey`], one file per entry. Several processes may
/// share a directory (`iss serve` and `iss sweep` both default to
/// `.iss-cache`): entries are committed atomically, but an instance's size
/// and recency view covers only the entries on disk at `open` plus its own
/// traffic.
#[derive(Debug)]
pub struct ResultStore {
    dir: PathBuf,
    version: String,
    max_bytes: Option<u64>,
    /// Monotonic access counter; higher = more recently used.
    seq: u64,
    /// key digest → last access sequence.
    access: BTreeMap<String, u64>,
    /// key digest → entry file size in bytes.
    sizes: BTreeMap<String, u64>,
    /// Lines appended to `lru.log` since the last compaction.
    log_lines: u64,
    /// Process-lifetime counters.
    pub stats: StoreStats,
}

impl ResultStore {
    /// Opens (creating if needed) the store at `dir` under this crate's
    /// version, with an optional total-size bound in bytes.
    ///
    /// # Errors
    ///
    /// Returns directory-creation and scan errors.
    pub fn open(dir: &Path, max_bytes: Option<u64>) -> Result<ResultStore, String> {
        Self::open_with_version(dir, max_bytes, env!("CARGO_PKG_VERSION"))
    }

    /// [`ResultStore::open`] under an explicit version string — the hook
    /// the version-bump invalidation tests use.
    ///
    /// # Errors
    ///
    /// Returns directory-creation and scan errors.
    pub fn open_with_version(
        dir: &Path,
        max_bytes: Option<u64>,
        version: &str,
    ) -> Result<ResultStore, String> {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create cache dir `{}`: {e}", dir.display()))?;
        let mut store = ResultStore {
            dir: dir.to_path_buf(),
            version: version.to_string(),
            max_bytes,
            seq: 0,
            access: BTreeMap::new(),
            sizes: BTreeMap::new(),
            log_lines: 0,
            stats: StoreStats::default(),
        };
        store.scan_entries()?;
        store.replay_lru_log()?;
        // Anything the log never mentioned (an older log was truncated,
        // or the entry predates the log) counts as least recently used in
        // deterministic file-name order, below every logged entry.
        store.enforce_bound()?;
        Ok(store)
    }

    /// The crate version this store's keys are scoped to.
    #[must_use]
    pub fn version(&self) -> &str {
        &self.version
    }

    /// The cache key of a scenario point under this store's version.
    ///
    /// # Errors
    ///
    /// Propagates the point's machine-resolution error.
    pub fn key_for(&self, point: &ScenarioSpec) -> Result<CacheKey, String> {
        CacheKey::for_point(point, &self.version)
    }

    fn entry_path(&self, key_digest: &str) -> PathBuf {
        self.dir.join(format!("{ENTRY_PREFIX}{key_digest}.json"))
    }

    fn scan_entries(&mut self) -> Result<(), String> {
        let entries = std::fs::read_dir(&self.dir)
            .map_err(|e| format!("cannot list cache dir `{}`: {e}", self.dir.display()))?;
        let mut found: Vec<(String, u64)> = Vec::new();
        for entry in entries {
            let entry = entry
                .map_err(|e| format!("cannot list cache dir `{}`: {e}", self.dir.display()))?;
            let name = entry.file_name().to_string_lossy().into_owned();
            let Some(stem) = name
                .strip_prefix(ENTRY_PREFIX)
                .and_then(|s| s.strip_suffix(".json"))
            else {
                continue;
            };
            let bytes = entry
                .metadata()
                .map_err(|e| format!("cannot stat cache entry `{name}`: {e}"))?
                .len();
            found.push((stem.to_string(), bytes));
        }
        found.sort();
        for (key, bytes) in found {
            self.seq += 1;
            self.access.insert(key.clone(), self.seq);
            self.sizes.insert(key, bytes);
        }
        Ok(())
    }

    fn replay_lru_log(&mut self) -> Result<(), String> {
        let path = self.dir.join(LRU_LOG);
        let Ok(text) = std::fs::read_to_string(&path) else {
            return Ok(()); // no log yet
        };
        for line in text.lines() {
            let key = line.trim();
            if key.is_empty() {
                continue;
            }
            self.log_lines += 1;
            // Log lines for entries that no longer exist are stale noise.
            if self.sizes.contains_key(key) {
                self.seq += 1;
                self.access.insert(key.to_string(), self.seq);
            }
        }
        Ok(())
    }

    fn touch(&mut self, key_digest: &str) -> Result<(), String> {
        self.seq += 1;
        self.access.insert(key_digest.to_string(), self.seq);
        let path = self.dir.join(LRU_LOG);
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(|e| format!("cannot append to `{}`: {e}", path.display()))?;
        writeln!(f, "{key_digest}").map_err(|e| format!("cannot append to access log: {e}"))?;
        self.log_lines += 1;
        // Keep the log from growing without bound under hit-heavy traffic.
        if self.log_lines > 16 * (self.sizes.len() as u64 + 1) {
            self.compact_log()?;
        }
        Ok(())
    }

    /// Rewrites `lru.log` with one line per live entry, in LRU order.
    fn compact_log(&mut self) -> Result<(), String> {
        let mut by_seq: Vec<(u64, &String)> = self
            .sizes
            .keys()
            .map(|k| (self.access.get(k).copied().unwrap_or(0), k))
            .collect();
        by_seq.sort();
        let text: String = by_seq.iter().map(|(_, k)| format!("{k}\n")).collect();
        let tmp = self.dir.join("lru.log.tmp");
        let path = self.dir.join(LRU_LOG);
        std::fs::write(&tmp, &text).map_err(|e| format!("cannot write access log: {e}"))?;
        std::fs::rename(&tmp, &path).map_err(|e| format!("cannot replace access log: {e}"))?;
        self.log_lines = self.sizes.len() as u64;
        Ok(())
    }

    /// Number of live entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.sizes.len()
    }

    /// Whether the store holds no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.sizes.is_empty()
    }

    /// Total bytes of all live entry files.
    #[must_use]
    pub fn total_bytes(&self) -> u64 {
        self.sizes.values().sum()
    }

    /// Looks a key up. A missing, corrupt, torn, version-mismatched or
    /// wrongly keyed entry is a **miss** (the bad file is dropped), never
    /// an error: the caller simply re-simulates.
    pub fn get(&mut self, key: &CacheKey) -> Option<Record> {
        let digest = key.digest();
        if !self.sizes.contains_key(&digest) {
            self.stats.misses += 1;
            return None;
        }
        let path = self.entry_path(&digest);
        match std::fs::read_to_string(&path)
            .map_err(|e| e.to_string())
            .and_then(|text| parse_entry(&text, key))
        {
            Ok(record) => {
                self.stats.hits += 1;
                // A failed log append must not fail the lookup; the entry
                // merely stays at its old recency.
                let _ = self.touch(&digest);
                Some(record)
            }
            Err(_) => {
                self.stats.dropped_corrupt += 1;
                self.stats.misses += 1;
                let _ = std::fs::remove_file(&path);
                self.sizes.remove(&digest);
                self.access.remove(&digest);
                None
            }
        }
    }

    /// Stores a record under a key (replacing any previous entry), then
    /// enforces the byte bound by evicting least-recently-used entries.
    ///
    /// # Errors
    ///
    /// Returns file-system errors; the store's in-memory view stays
    /// consistent with the directory either way.
    pub fn put(&mut self, key: &CacheKey, record: &Record) -> Result<(), String> {
        let digest = key.digest();
        let text = render_entry(key, record);
        let tmp = self
            .dir
            .join(format!("put-{digest}-{}.tmp", std::process::id()));
        let path = self.entry_path(&digest);
        std::fs::write(&tmp, &text)
            .map_err(|e| format!("cannot write cache entry `{}`: {e}", tmp.display()))?;
        std::fs::rename(&tmp, &path)
            .map_err(|e| format!("cannot commit cache entry `{}`: {e}", path.display()))?;
        self.sizes.insert(digest.clone(), text.len() as u64);
        self.touch(&digest)?;
        self.enforce_bound()
    }

    /// Evicts least-recently-used entries until the total size fits the
    /// bound. The most recently used entry always survives, even when it
    /// alone exceeds the bound — an oversized record is better cached than
    /// re-simulated forever.
    fn enforce_bound(&mut self) -> Result<(), String> {
        let Some(max) = self.max_bytes else {
            return Ok(());
        };
        let evictions = self.stats.evictions;
        while self.total_bytes() > max && self.sizes.len() > 1 {
            let Some((_, victim)) = self
                .sizes
                .keys()
                .map(|k| (self.access.get(k).copied().unwrap_or(0), k.clone()))
                .min()
            else {
                break;
            };
            let path = self.entry_path(&victim);
            match std::fs::remove_file(&path) {
                // Another process sharing the directory got there first.
                Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
                    return Err(format!(
                        "cannot evict cache entry `{}`: {e}",
                        path.display()
                    ));
                }
                _ => {}
            }
            self.sizes.remove(&victim);
            self.access.remove(&victim);
            self.stats.evictions += 1;
        }
        if self.stats.evictions > evictions {
            self.compact_log()?;
        }
        Ok(())
    }

    /// Removes every entry (and the access log). Returns how many entries
    /// were dropped.
    ///
    /// # Errors
    ///
    /// Returns the first file-system error.
    pub fn clear(&mut self) -> Result<usize, String> {
        let keys: Vec<String> = self.sizes.keys().cloned().collect();
        let dropped = keys.len();
        for key in keys {
            let path = self.entry_path(&key);
            std::fs::remove_file(&path)
                .map_err(|e| format!("cannot remove cache entry `{}`: {e}", path.display()))?;
        }
        let _ = std::fs::remove_file(self.dir.join(LRU_LOG));
        self.sizes.clear();
        self.access.clear();
        self.log_lines = 0;
        Ok(dropped)
    }
}

/// Renders one entry file: a single JSON line with the key fields and the
/// record (lossless JSONL codec, so a cached response is byte-identical
/// to the fresh one that populated it).
fn render_entry(key: &CacheKey, record: &Record) -> String {
    format!(
        "{{\"schema\": \"{ENTRY_SCHEMA}\", \"key\": \"{}\", \"version\": \"{}\", \
         \"point_digest\": \"{}\", \"seed\": {}, \"scale\": {}, \"record\": {}}}\n",
        key.digest(),
        jsonval::escape(&key.version),
        jsonval::escape(&key.point_digest),
        key.seed,
        key.scale,
        render_record_line(record)
    )
}

/// Parses and validates one entry file against the requested key.
fn parse_entry(text: &str, key: &CacheKey) -> Result<Record, String> {
    let v = jsonval::parse(text.trim_end())?;
    let field = |name: &str| -> String {
        v.get(name)
            .and_then(Json::as_str)
            .unwrap_or_default()
            .to_string()
    };
    if field("schema") != ENTRY_SCHEMA {
        return Err(format!("entry schema is `{}`", field("schema")));
    }
    if field("key") != key.digest()
        || field("version") != key.version
        || field("point_digest") != key.point_digest
        || v.get("seed").and_then(Json::as_u64) != Some(key.seed)
        || v.get("scale").and_then(Json::as_u64) != Some(key.scale)
    {
        return Err("entry key fields do not match the requested key".to_string());
    }
    record_from_json(
        v.get("record")
            .ok_or_else(|| "entry has no `record` object".to_string())?,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("iss-store-tests-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn point(benchmark: &str, length: u64) -> ScenarioSpec {
        ScenarioSpec::new(WorkloadSpec::single(benchmark, length), 7)
    }

    fn simulate(p: &ScenarioSpec) -> Record {
        let summary =
            crate::runner::run(p.model, &p.resolved_config().unwrap(), &p.workload, p.seed);
        p.to_record("store-test", summary).unwrap()
    }

    #[test]
    fn keys_embed_version_point_seed_and_scale() {
        let p = point("gcc", 2_000);
        let a = CacheKey::for_point(&p, "1.0.0").unwrap();
        assert_eq!(a.seed, 7);
        assert_eq!(a.scale, 2_000);
        let b = CacheKey::for_point(&p, "2.0.0").unwrap();
        assert_ne!(a.digest(), b.digest(), "version is part of the key");
        let mut other = point("gcc", 2_000);
        other.seed = 8;
        let c = CacheKey::for_point(&other, "1.0.0").unwrap();
        assert_ne!(a.digest(), c.digest(), "seed is part of the key");
        let d = CacheKey::for_point(&point("gcc", 3_000), "1.0.0").unwrap();
        assert_ne!(a.digest(), d.digest(), "scale is part of the key");
        let e = CacheKey::for_point(&point("mcf", 2_000), "1.0.0").unwrap();
        assert_ne!(a.digest(), e.digest(), "the spec is part of the key");
    }

    #[test]
    fn workload_instructions_covers_every_shape() {
        assert_eq!(workload_instructions(&WorkloadSpec::single("gcc", 5)), 5);
        assert_eq!(
            workload_instructions(&WorkloadSpec::homogeneous("gcc", 3, 5)),
            15
        );
        assert_eq!(
            workload_instructions(&WorkloadSpec::multithreaded("vips", 4, 100)),
            100
        );
        assert_eq!(
            workload_instructions(&WorkloadSpec::Multiprogram {
                benchmarks: vec!["gcc".into(), "mcf".into()],
                length_per_copy: 9
            }),
            18
        );
    }

    #[test]
    fn miss_then_put_then_hit_round_trips_byte_identically() {
        let dir = test_dir("roundtrip");
        let mut store = ResultStore::open_with_version(&dir, None, "1").unwrap();
        let p = point("gcc", 1_500);
        let key = CacheKey::for_point(&p, "1").unwrap();
        assert!(store.get(&key).is_none());
        assert_eq!(store.stats.misses, 1);
        let record = simulate(&p);
        store.put(&key, &record).unwrap();
        let cached = store.get(&key).expect("hit after put");
        assert_eq!(store.stats.hits, 1);
        // Byte identity, host_seconds included: the codec is lossless.
        assert_eq!(render_record_line(&cached), render_record_line(&record));
        // A different point still misses.
        let other = CacheKey::for_point(&point("mcf", 1_500), "1").unwrap();
        assert!(store.get(&other).is_none());
    }

    #[test]
    fn entries_survive_reopen_and_version_bumps_miss_cleanly() {
        let dir = test_dir("reopen");
        let p = point("gcc", 1_500);
        let record = simulate(&p);
        let key_v1 = CacheKey::for_point(&p, "1").unwrap();
        {
            let mut store = ResultStore::open_with_version(&dir, None, "1").unwrap();
            store.put(&key_v1, &record).unwrap();
        }
        let mut store = ResultStore::open_with_version(&dir, None, "1").unwrap();
        assert_eq!(store.len(), 1);
        assert!(store.get(&key_v1).is_some(), "entries persist across opens");
        // The same point under a bumped version is a different key: a
        // clean miss, not a stale hit and not an error.
        let mut bumped = ResultStore::open_with_version(&dir, None, "2").unwrap();
        let key_v2 = CacheKey::for_point(&p, "2").unwrap();
        assert!(bumped.get(&key_v2).is_none());
        assert_eq!(bumped.stats.dropped_corrupt, 0);
    }

    #[test]
    fn corrupt_and_torn_entries_are_misses_not_crashes() {
        let dir = test_dir("corrupt");
        let p = point("gcc", 1_500);
        let key = CacheKey::for_point(&p, "1").unwrap();
        let record = simulate(&p);
        for garbage in [
            "not json at all",
            "{\"schema\": \"iss-cache-entry/v1\"", // torn mid-object
            "{\"schema\": \"wrong/v9\", \"key\": \"x\"}", // wrong schema
        ] {
            let mut store = ResultStore::open_with_version(&dir, None, "1").unwrap();
            store.put(&key, &record).unwrap();
            let path = store.entry_path(&key.digest());
            std::fs::write(&path, garbage).unwrap();
            assert!(
                store.get(&key).is_none(),
                "corrupt entry must miss: {garbage}"
            );
            assert_eq!(store.stats.dropped_corrupt, 1);
            assert!(!path.exists(), "the bad entry is dropped");
            // And the slot is usable again.
            store.put(&key, &record).unwrap();
            assert!(store.get(&key).is_some());
            store.clear().unwrap();
        }
    }

    #[test]
    fn an_entry_keyed_for_another_point_is_refused() {
        let dir = test_dir("wrongkey");
        let a = point("gcc", 1_500);
        let b = point("mcf", 1_500);
        let key_a = CacheKey::for_point(&a, "1").unwrap();
        let key_b = CacheKey::for_point(&b, "1").unwrap();
        let mut store = ResultStore::open_with_version(&dir, None, "1").unwrap();
        store.put(&key_a, &simulate(&a)).unwrap();
        // Smuggle a's entry under b's address.
        std::fs::copy(
            store.entry_path(&key_a.digest()),
            store.entry_path(&key_b.digest()),
        )
        .unwrap();
        let mut store = ResultStore::open_with_version(&dir, None, "1").unwrap();
        assert!(store.get(&key_b).is_none(), "wrongly keyed entry must miss");
        assert_eq!(store.stats.dropped_corrupt, 1);
        assert!(store.get(&key_a).is_some(), "the honest entry still hits");
    }

    #[test]
    fn the_byte_bound_evicts_least_recently_used_first() {
        let dir = test_dir("lru");
        let mut store = ResultStore::open_with_version(&dir, None, "1").unwrap();
        let points: Vec<ScenarioSpec> = ["gcc", "mcf", "gzip"]
            .iter()
            .map(|b| point(b, 1_200))
            .collect();
        let keys: Vec<CacheKey> = points
            .iter()
            .map(|p| CacheKey::for_point(p, "1").unwrap())
            .collect();
        for (p, k) in points.iter().zip(&keys) {
            store.put(k, &simulate(p)).unwrap();
        }
        assert_eq!(store.len(), 3);
        let entry_bytes = store.total_bytes() / 3;
        // Touch the oldest entry so mcf becomes the LRU victim.
        assert!(store.get(&keys[0]).is_some());
        drop(store);
        // Reopen with a bound that fits two entries: the LRU (mcf) goes.
        let mut store =
            ResultStore::open_with_version(&dir, Some(entry_bytes * 2 + entry_bytes / 2), "1")
                .unwrap();
        assert_eq!(store.len(), 2);
        assert_eq!(store.stats.evictions, 1);
        assert!(store.get(&keys[0]).is_some(), "recently used gcc survives");
        assert!(store.get(&keys[1]).is_none(), "LRU mcf was evicted");
        assert!(store.get(&keys[2]).is_some(), "gzip survives");
        assert!(store.total_bytes() <= entry_bytes * 3);
    }

    #[test]
    fn only_a_put_that_evicts_compacts_the_access_log() {
        let dir = test_dir("compact-on-evict");
        let points: Vec<ScenarioSpec> = ["gcc", "mcf", "gzip"]
            .iter()
            .map(|b| point(b, 1_200))
            .collect();
        let keys: Vec<CacheKey> = points
            .iter()
            .map(|p| CacheKey::for_point(p, "1").unwrap())
            .collect();
        let records: Vec<Record> = points.iter().map(simulate).collect();
        let entry_bytes = render_entry(&keys[0], &records[0]).len() as u64;
        let mut store =
            ResultStore::open_with_version(&dir, Some(entry_bytes * 2 + entry_bytes / 2), "1")
                .unwrap();
        for (k, r) in keys.iter().zip(&records) {
            store.put(k, r).unwrap();
        }
        assert_eq!(store.stats.evictions, 1, "the third put evicts gcc");
        assert!(store.get(&keys[1]).is_some());
        // Re-putting gzip fits the bound and evicts nothing, so the log
        // keeps mcf's duplicate access line.
        store.put(&keys[2], &records[2]).unwrap();
        assert_eq!(store.stats.evictions, 1);
        let log = std::fs::read_to_string(dir.join(LRU_LOG)).unwrap();
        let mcf = keys[1].digest();
        assert_eq!(
            log.lines().filter(|l| *l == mcf).count(),
            2,
            "an eviction-free put must not compact the log:\n{log}"
        );
    }

    #[test]
    fn the_most_recent_entry_survives_even_an_undersized_bound() {
        let dir = test_dir("tinybound");
        let mut store = ResultStore::open_with_version(&dir, Some(1), "1").unwrap();
        let p = point("gcc", 1_200);
        let key = CacheKey::for_point(&p, "1").unwrap();
        store.put(&key, &simulate(&p)).unwrap();
        assert_eq!(store.len(), 1, "a lone oversized entry is kept");
        let q = point("mcf", 1_200);
        let key_q = CacheKey::for_point(&q, "1").unwrap();
        store.put(&key_q, &simulate(&q)).unwrap();
        assert_eq!(store.len(), 1, "the older entry was evicted");
        assert!(store.get(&key_q).is_some());
        assert!(store.get(&key).is_none());
    }

    #[test]
    fn clear_empties_the_store() {
        let dir = test_dir("clear");
        let mut store = ResultStore::open_with_version(&dir, None, "1").unwrap();
        let p = point("gcc", 1_200);
        let key = CacheKey::for_point(&p, "1").unwrap();
        store.put(&key, &simulate(&p)).unwrap();
        assert_eq!(store.clear().unwrap(), 1);
        assert!(store.is_empty());
        assert_eq!(store.total_bytes(), 0);
        assert!(store.get(&key).is_none());
        let reopened = ResultStore::open_with_version(&dir, None, "1").unwrap();
        assert!(reopened.is_empty(), "clear persists");
    }

    #[test]
    fn hit_heavy_traffic_compacts_the_access_log() {
        let dir = test_dir("compact");
        let mut store = ResultStore::open_with_version(&dir, None, "1").unwrap();
        let p = point("gcc", 1_200);
        let key = CacheKey::for_point(&p, "1").unwrap();
        store.put(&key, &simulate(&p)).unwrap();
        for _ in 0..200 {
            assert!(store.get(&key).is_some());
        }
        let log = std::fs::read_to_string(dir.join(LRU_LOG)).unwrap();
        assert!(
            log.lines().count() <= 64,
            "log must compact under hit-heavy traffic, got {} lines",
            log.lines().count()
        );
    }
}
