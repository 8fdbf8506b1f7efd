//! Disk-backed content-addressed store for compilation and simulation results.
//!
//! Entries are addressed by two FNV-1a digests — one over the canonical
//! [`CompilationKey`] (the sweep point) and one over the loop's full structure
//! (name, trip count, operation kinds, dependence edges) — so a cache entry is
//! valid exactly when both the configuration and the loop are bit-identical to
//! the ones that produced it.  The corpus is procedurally generated from a
//! seed, which makes the loop digest a complete fingerprint: two runs with the
//! same `(corpus_size, seed)` address the same entries, and any change to the
//! generator changes the digests and silently misses instead of serving stale
//! data.
//!
//! Layout: one JSON file per entry under a version directory,
//!
//! ```text
//! <cache_dir>/v{STORE_VERSION}/c_{key:016x}_{loop:016x}.json         compile
//! <cache_dir>/v{STORE_VERSION}/s_{key:016x}_{loop:016x}_{trip}.json  simulate
//! ```
//!
//! Bumping [`STORE_VERSION`] (on any change to the summary schema, the digest
//! recipe, or the pipeline's observable numbers) retires every prior entry at
//! once: old versions live in a different directory that is simply never read.
//! Each file additionally embeds the version and both digests and is verified
//! on load, so a truncated, corrupted, or hand-edited entry degrades to a
//! recompute, never to a wrong answer.  Writes go through a temporary file and
//! an atomic rename, so a crashed writer cannot leave a half-written entry
//! under the final name.  All I/O is best-effort: a read-only or full disk
//! disables persistence but never fails a compilation.

use std::fs;
use std::hash::{Hash, Hasher};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use serde::{de, json, Serialize, Value};
use vliw_ddg::Loop;

use crate::error::VliwError;
use crate::session::artifact::{LoopSummary, SimSummary};
use crate::session::key::CompilationKey;

/// Version of the on-disk schema.  Bump on any change to [`LoopSummary`],
/// [`SimSummary`], the digest recipe, or the numeric behaviour of the pipeline.
///
/// 2: simulated torus and crossbar runs count values on non-ring links toward
/// those links' peaks (they were left out of every pool).
/// 3: `PartitionOptions` lost its transit-move flag, which changes the hash of
/// every [`CompilationKey`] and so every file name.
pub const STORE_VERSION: u32 = 3;

/// FNV-1a, 64-bit: a tiny, dependency-free [`Hasher`] whose output is stable
/// across processes and platforms — unlike [`std::collections::hash_map::DefaultHasher`],
/// whose algorithm is explicitly unspecified and randomly keyed.  Stability is
/// the whole point here: the digest *is* the disk address.
pub struct Fnv64(u64);

impl Fnv64 {
    const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// A fresh hasher at the FNV offset basis.
    pub fn new() -> Self {
        Fnv64(Self::OFFSET_BASIS)
    }
}

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64::new()
    }
}

impl Hasher for Fnv64 {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Stable digest of a canonical compilation key (the sweep point).
pub fn key_digest(key: &CompilationKey) -> u64 {
    let mut h = Fnv64::new();
    key.hash(&mut h);
    h.finish()
}

/// Stable digest of a loop's complete structure: name, trip count, operation
/// kinds in id order, and every dependence edge.
pub fn loop_digest(lp: &Loop) -> u64 {
    let mut h = Fnv64::new();
    lp.name.hash(&mut h);
    lp.trip_count.hash(&mut h);
    lp.ddg.num_ops().hash(&mut h);
    for op in lp.ddg.ops() {
        op.kind.hash(&mut h);
    }
    for e in lp.ddg.edges() {
        e.src.hash(&mut h);
        e.dst.hash(&mut h);
        e.kind.hash(&mut h);
        e.latency.hash(&mut h);
        e.distance.hash(&mut h);
    }
    h.finish()
}

/// How many disk probes hit/missed, for the daemon's stats surface.
#[derive(Debug, Default)]
pub struct PersistCounters {
    /// Entries served from disk.
    pub loads: AtomicU64,
    /// Entries written to disk.
    pub writes: AtomicU64,
    /// Load attempts rejected as corrupt, truncated, or version-mismatched.
    pub rejects: AtomicU64,
}

/// A handle to one versioned cache directory.
pub struct PersistStore {
    root: PathBuf,
    counters: PersistCounters,
}

impl PersistStore {
    /// Opens (creating if needed) the [`STORE_VERSION`] subdirectory of `dir`.
    pub fn open(dir: &Path) -> Result<PersistStore, VliwError> {
        let root = dir.join(format!("v{STORE_VERSION}"));
        fs::create_dir_all(&root)
            .map_err(|e| VliwError::Io(format!("create cache dir {}: {e}", root.display())))?;
        Ok(PersistStore { root, counters: PersistCounters::default() })
    }

    /// The versioned directory entries live in.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Disk-probe counters accumulated so far: (loads, writes, rejects).
    pub fn counter_values(&self) -> (u64, u64, u64) {
        (
            self.counters.loads.load(Ordering::Relaxed),
            self.counters.writes.load(Ordering::Relaxed),
            self.counters.rejects.load(Ordering::Relaxed),
        )
    }

    fn compile_path(&self, key: u64, lp: u64) -> PathBuf {
        self.root.join(format!("c_{key:016x}_{lp:016x}.json"))
    }

    fn sim_path(&self, key: u64, lp: u64, trip_count: u64) -> PathBuf {
        self.root.join(format!("s_{key:016x}_{lp:016x}_{trip_count}.json"))
    }

    /// Loads a compilation result, or `None` on miss / corruption / mismatch.
    pub fn load_compile(&self, key: u64, lp: u64) -> Option<Result<LoopSummary, VliwError>> {
        let entries = self.load_envelope(&self.compile_path(key, lp), key, lp)?;
        let parsed: Result<_, de::Error> = (|| {
            if let Ok(summary) = de::field::<LoopSummary>(&entries, "ok") {
                return Ok(Ok(summary));
            }
            Ok(Err(de::field::<VliwError>(&entries, "err")?))
        })();
        self.accept(parsed)
    }

    /// Persists a compilation result (both successes and scheduling failures,
    /// so a warm run replays failures without recompiling them). Best-effort.
    pub fn store_compile(&self, key: u64, lp: u64, result: &Result<LoopSummary, VliwError>) {
        let path = self.compile_path(key, lp);
        match result {
            Ok(summary) => self.write_envelope(&path, key, lp, "ok", summary),
            Err(e) => self.write_envelope(&path, key, lp, "err", e),
        }
    }

    /// Loads a simulation summary, or `None` on miss / corruption / mismatch.
    pub fn load_sim(&self, key: u64, lp: u64, trip_count: u64) -> Option<SimSummary> {
        let entries = self.load_envelope(&self.sim_path(key, lp, trip_count), key, lp)?;
        self.accept(de::field::<SimSummary>(&entries, "run"))
    }

    /// Persists a simulation summary. Best-effort.
    pub fn store_sim(&self, key: u64, lp: u64, trip_count: u64, run: &SimSummary) {
        let path = self.sim_path(key, lp, trip_count);
        self.write_envelope(&path, key, lp, "run", run);
    }

    /// Reads `path`, parses it, and verifies the version/digest envelope.
    /// Returns the entry fields on success; counts a reject on any mismatch.
    fn load_envelope(&self, path: &Path, key: u64, lp: u64) -> Option<Vec<(String, Value)>> {
        let _span = vliw_obs::span!("persist/io", lp);
        let text = fs::read_to_string(path).ok()?;
        let verified: Result<Vec<(String, Value)>, de::Error> = (|| {
            let value: Value =
                serde_json::from_str(&text).map_err(|e| de::Error::custom(e.to_string()))?;
            let Value::Object(entries) = value else {
                return Err(de::Error::unexpected("object", &value));
            };
            let version: u32 = de::field(&entries, "store_version")?;
            let entry_key: String = de::field(&entries, "key")?;
            let entry_loop: String = de::field(&entries, "loop")?;
            if version != STORE_VERSION
                || entry_key != format!("{key:016x}")
                || entry_loop != format!("{lp:016x}")
            {
                return Err(de::Error::custom("envelope digest mismatch"));
            }
            Ok(entries)
        })();
        // Only the reject is counted here: the load is counted once, by the
        // caller's `accept` over the payload parse.
        match verified {
            Ok(entries) => Some(entries),
            Err(_) => {
                self.counters.rejects.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    fn accept<T>(&self, parsed: Result<T, de::Error>) -> Option<T> {
        match parsed {
            Ok(v) => {
                self.counters.loads.fetch_add(1, Ordering::Relaxed);
                Some(v)
            }
            Err(_) => {
                self.counters.rejects.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Streams the envelope `{store_version, key, loop, <tag>: body}` into a
    /// tmp file and renames it into place.
    fn write_envelope<T: Serialize>(&self, path: &Path, key: u64, lp: u64, tag: &str, body: &T) {
        let _span = vliw_obs::span!("persist/io", lp);
        let envelope = Envelope { key, lp, tag, body };
        // Unique tmp name per writer so concurrent stores of the same entry
        // cannot interleave; the rename makes the final name appear atomically.
        let tmp = path.with_extension(format!("tmp.{:x}", thread_token()));
        let write = (|| {
            let mut f = fs::File::create(&tmp)?;
            serde_json::to_writer(&mut f, &envelope).map_err(std::io::Error::other)?;
            f.sync_data().ok();
            fs::rename(&tmp, path)
        })();
        match write {
            Ok(()) => {
                self.counters.writes.fetch_add(1, Ordering::Relaxed);
            }
            Err(_) => {
                let _ = fs::remove_file(&tmp);
            }
        }
    }
}

/// One persisted entry: the version/digest header the loader verifies, then
/// the payload under its tag (`ok` / `err` for compilations, `run` for
/// simulations).
struct Envelope<'a, T> {
    key: u64,
    lp: u64,
    tag: &'a str,
    body: &'a T,
}

impl<T: Serialize> Serialize for Envelope<'_, T> {
    fn write_json(&self, w: &mut json::Writer<'_>) -> std::io::Result<()> {
        w.object(|o| {
            o.field("store_version", &STORE_VERSION)?;
            o.field("key", &format!("{:016x}", self.key))?;
            o.field("loop", &format!("{:016x}", self.lp))?;
            o.field(self.tag, self.body)
        })
    }
}

impl std::fmt::Debug for PersistStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (loads, writes, rejects) = self.counter_values();
        f.debug_struct("PersistStore")
            .field("root", &self.root)
            .field("loads", &loads)
            .field("writes", &writes)
            .field("rejects", &rejects)
            .finish()
    }
}

/// A process- and thread-unique token for temporary file names.
fn thread_token() -> u64 {
    use std::sync::atomic::AtomicU64;
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    (u64::from(std::process::id()) << 20) | (n & 0xf_ffff)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vliw_ddg::{kernels, LatencyModel};

    fn digests() -> (u64, u64) {
        let lp = kernels::dot_product(LatencyModel::default(), 100);
        let key = CompilationKey::of(&crate::pipeline::CompilerConfig::paper_defaults(
            vliw_machine::Machine::paper_single(6),
        ));
        (key_digest(&key), loop_digest(&lp))
    }

    #[test]
    fn digests_are_stable_and_structure_sensitive() {
        let lat = LatencyModel::default;
        let a = kernels::dot_product(lat(), 100);
        assert_eq!(loop_digest(&a), loop_digest(&kernels::dot_product(lat(), 100)));
        assert_ne!(loop_digest(&a), loop_digest(&kernels::dot_product(lat(), 101)));
        assert_ne!(loop_digest(&a), loop_digest(&kernels::daxpy(lat(), 100)));
        let (k, _) = digests();
        assert_eq!(k, digests().0, "key digest must be deterministic");
    }

    #[test]
    fn fnv_matches_the_reference_vectors() {
        // Published FNV-1a test vectors.
        let mut h = Fnv64::new();
        h.write(b"");
        assert_eq!(h.finish(), 0xcbf2_9ce4_8422_2325);
        let mut h = Fnv64::new();
        h.write(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
        let mut h = Fnv64::new();
        h.write(b"foobar");
        assert_eq!(h.finish(), 0x85944171f73967e8);
    }
}
