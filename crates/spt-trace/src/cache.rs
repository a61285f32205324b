//! The content-addressed on-disk artifact cache (`.spt-cache/`).
//!
//! Artifacts are keyed by a hash over everything that determines their
//! content: module or function IR content hash, entry name, arguments,
//! machine configuration (for simulation memos), analysis context (for
//! function units) and the artifact's format version. A key therefore *is*
//! the artifact identity — files are immutable once written, and any IR or
//! input change produces a new key rather than invalidating in place.
//!
//! Robustness contract: a missing file is a [`LoadOutcome::Miss`]; any
//! unreadable, truncated, corrupt or stale-version file is a
//! [`LoadOutcome::Corrupt`] that callers treat as a miss: recompute and
//! store again — never a panic, never a poisoned result. A corrupt file is
//! additionally **evicted on detection**: keys are content addresses, so
//! the only way a key can hold bad bytes is a torn or damaged write, and
//! deleting it turns every subsequent probe into a clean
//! [`LoadOutcome::Miss`] until the recomputed artifact is stored — one bad
//! file can never permanently poison its key. Stores are atomic (unique
//! temp file + rename) so parallel writers and killed processes can only
//! ever leave whole files or invisible temp droppings, and store errors are
//! silently ignored (the cache is an accelerator, not a source of truth).

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use spt_sim::{LoopSimStats, MachineConfig, SimResult};

use crate::codec::{get_varint, put_varint, Fnv};
use crate::func_unit::{FuncAnalysisUnit, FUNC_UNIT_FORMAT_VERSION};

/// Magic prefix of simulation-memo artifact files.
const SIM_MAGIC: &[u8; 8] = b"SPTSIMRS";

/// Bumped on any change to the `SimResult` encoding; folded into every
/// sim-memo key and written into every memo, so stale-format entries miss.
const SIM_FORMAT_VERSION: u32 = 1;

/// Uniquifier for temp-file names within one process.
static TMP_COUNTER: AtomicU64 = AtomicU64::new(0);

/// Observable eviction/store counters of one [`ArtifactCache`] (shared by
/// all clones of it, so a service handing cache handles to worker threads
/// still sees one coherent set of numbers).
#[derive(Debug, Default)]
pub struct CacheCounters {
    /// Files deleted because their contents failed validation.
    pub corrupt_evictions: AtomicU64,
    /// Files deleted by byte-budget enforcement (oldest-first).
    pub budget_evictions: AtomicU64,
    /// Successful artifact stores.
    pub stores: AtomicU64,
}

impl CacheCounters {
    /// Total evictions, both corrupt-entry and budget-driven.
    pub fn evictions(&self) -> u64 {
        self.corrupt_evictions.load(Ordering::Relaxed)
            + self.budget_evictions.load(Ordering::Relaxed)
    }
}

/// Result of a cache probe.
#[derive(Clone, Debug, PartialEq)]
pub enum LoadOutcome<T> {
    /// The artifact was present and decoded cleanly.
    Hit(T),
    /// No artifact under this key.
    Miss,
    /// An artifact exists but cannot be trusted (truncated, corrupt, stale
    /// format version, unreadable). The file has been evicted; callers
    /// recompute and store, exactly as on a miss.
    Corrupt(String),
}

/// A directory of immutable, content-addressed execution artifacts.
#[derive(Clone, Debug)]
pub struct ArtifactCache {
    dir: PathBuf,
    /// Total on-disk byte budget; `None` leaves the directory unbounded
    /// (the historical behavior).
    byte_budget: Option<u64>,
    counters: Arc<CacheCounters>,
}

impl ArtifactCache {
    /// A cache rooted at `dir` (created lazily on first store).
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        ArtifactCache {
            dir: dir.into(),
            byte_budget: None,
            counters: Arc::new(CacheCounters::default()),
        }
    }

    /// A cache rooted at `dir` whose total file size is kept at or below
    /// `budget` bytes: every store re-checks the directory and deletes the
    /// oldest artifacts (by modification time, then name) until the total
    /// fits. A budget smaller than a single artifact may evict the artifact
    /// that was just written — the cache is an accelerator, so an
    /// over-budget store simply never sticks.
    pub fn with_byte_budget(dir: impl Into<PathBuf>, budget: u64) -> Self {
        let mut cache = Self::new(dir);
        cache.byte_budget = Some(budget);
        cache
    }

    /// Installs (or with `None` removes) the on-disk byte budget.
    pub fn set_byte_budget(&mut self, budget: Option<u64>) {
        self.byte_budget = budget;
    }

    /// The shared eviction/store counters (one set per cache lineage: every
    /// clone of this cache reports into the same counters).
    pub fn counters(&self) -> &Arc<CacheCounters> {
        &self.counters
    }

    /// Total bytes currently held by artifact files under the cache root
    /// (temp droppings excluded). 0 when the directory does not exist.
    pub fn disk_bytes(&self) -> u64 {
        let Ok(entries) = std::fs::read_dir(&self.dir) else {
            return 0;
        };
        entries
            .flatten()
            .filter(|e| !e.file_name().to_string_lossy().starts_with(".tmp-"))
            .filter_map(|e| e.metadata().ok())
            .map(|m| m.len())
            .sum()
    }

    /// The cache root.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Key for a simulation-result memo. The machine configuration enters
    /// through its canonical `Debug` rendering, so any parameter change —
    /// including future fields — changes the key.
    pub fn sim_key(module_hash: u64, entry: &str, args: &[i64], machine: &MachineConfig) -> u64 {
        let mut h = Fnv::new();
        h.update(b"sim");
        h.update_u64(SIM_FORMAT_VERSION as u64);
        h.update_u64(module_hash);
        h.update(entry.as_bytes());
        h.update_u64(args.len() as u64);
        for &a in args {
            h.update_u64(a as u64);
        }
        h.update(format!("{machine:?}").as_bytes());
        h.finish()
    }

    fn path_for(&self, kind: &str, key: u64) -> PathBuf {
        self.dir.join(format!("{kind}-{key:016x}.bin"))
    }

    /// Write `bytes` at `path` atomically; errors are ignored by contract.
    /// With a byte budget configured, the store is followed by budget
    /// enforcement, so the directory never stays over budget past one call.
    fn store_bytes(&self, path: &Path, bytes: &[u8]) {
        if std::fs::create_dir_all(&self.dir).is_err() {
            return;
        }
        let tmp = self.dir.join(format!(
            ".tmp-{}-{}",
            std::process::id(),
            TMP_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        if std::fs::write(&tmp, bytes).is_ok() && std::fs::rename(&tmp, path).is_err() {
            let _ = std::fs::remove_file(&tmp);
        } else {
            self.counters.stores.fetch_add(1, Ordering::Relaxed);
        }
        self.enforce_budget();
    }

    /// Deletes the oldest artifacts (modification time, then name, so ties
    /// within one mtime granule break deterministically) until the directory
    /// total fits the configured byte budget. No-op without a budget.
    fn enforce_budget(&self) {
        let Some(budget) = self.byte_budget else {
            return;
        };
        let Ok(entries) = std::fs::read_dir(&self.dir) else {
            return;
        };
        let mut files: Vec<(std::time::SystemTime, PathBuf, u64)> = entries
            .flatten()
            .filter(|e| !e.file_name().to_string_lossy().starts_with(".tmp-"))
            .filter_map(|e| {
                let meta = e.metadata().ok()?;
                let mtime = meta.modified().ok()?;
                Some((mtime, e.path(), meta.len()))
            })
            .collect();
        let mut total: u64 = files.iter().map(|(_, _, len)| len).sum();
        if total <= budget {
            return;
        }
        files.sort_by(|a, b| a.0.cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
        for (_, path, len) in files {
            if total <= budget {
                break;
            }
            if std::fs::remove_file(&path).is_ok() {
                self.counters
                    .budget_evictions
                    .fetch_add(1, Ordering::Relaxed);
                total = total.saturating_sub(len);
            }
        }
    }

    fn load_bytes(&self, path: &Path) -> LoadOutcome<Vec<u8>> {
        match std::fs::read(path) {
            Ok(bytes) => {
                Self::stamp_access(path);
                LoadOutcome::Hit(bytes)
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => LoadOutcome::Miss,
            Err(e) => {
                self.evict(path);
                LoadOutcome::Corrupt(format!("unreadable cache file: {e}"))
            }
        }
    }

    /// Bumps the file's modification time to "now" on a successful load, so
    /// [`ArtifactCache::enforce_budget`]'s oldest-mtime eviction order is a
    /// least-recently-*used* order rather than creation order — a hot entry
    /// that is read on every run keeps renewing its lease. Errors are ignored
    /// by the usual accelerator contract (a read-only cache directory simply
    /// degrades back to FIFO eviction).
    fn stamp_access(path: &Path) {
        let _ = std::fs::File::options()
            .append(true)
            .open(path)
            .and_then(|f| f.set_modified(std::time::SystemTime::now()));
    }

    /// Deletes a cache file whose contents failed validation. Files are
    /// immutable once written, so a bad file can only be a torn/damaged
    /// write; removing it makes the next probe a clean [`LoadOutcome::Miss`]
    /// instead of returning the same corruption forever. Deletion errors are
    /// ignored by the same contract as store errors.
    fn evict(&self, path: &Path) {
        if std::fs::remove_file(path).is_ok() {
            self.counters
                .corrupt_evictions
                .fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Probe for a simulation-result memo under `key`.
    pub fn load_sim(&self, key: u64) -> LoadOutcome<SimResult> {
        let path = self.path_for("sim", key);
        match self.load_bytes(&path) {
            LoadOutcome::Hit(bytes) => match decode_sim(&bytes) {
                Ok(r) => LoadOutcome::Hit(r),
                Err(e) => {
                    self.evict(&path);
                    LoadOutcome::Corrupt(format!("{}: {e}", path.display()))
                }
            },
            LoadOutcome::Miss => LoadOutcome::Miss,
            LoadOutcome::Corrupt(e) => LoadOutcome::Corrupt(e),
        }
    }

    /// Store a simulation-result memo under `key`.
    pub fn store_sim(&self, key: u64, result: &SimResult) {
        self.store_bytes(&self.path_for("sim", key), &encode_sim(result));
    }

    /// Key for a function-granular analysis unit: the function's own content
    /// hash, its index in the module (instruction/block indices in the unit
    /// are function-local, but profile slices are keyed by function id), and
    /// a context hash folding everything else the analysis reads (config,
    /// globals, callee effect summaries, profile slice — computed by the
    /// pipeline's incremental layer). The format version participates so a
    /// codec change retires old entries to clean misses.
    pub fn func_unit_key(function_hash: u64, func_index: u64, context_hash: u64) -> u64 {
        let mut h = Fnv::new();
        h.update(b"func");
        h.update_u64(FUNC_UNIT_FORMAT_VERSION as u64);
        h.update_u64(function_hash);
        h.update_u64(func_index);
        h.update_u64(context_hash);
        h.finish()
    }

    /// Probe for a function-analysis unit under `key`.
    pub fn load_func_unit(&self, key: u64) -> LoadOutcome<FuncAnalysisUnit> {
        let path = self.path_for("func", key);
        match self.load_bytes(&path) {
            LoadOutcome::Hit(bytes) => match FuncAnalysisUnit::from_bytes(&bytes) {
                Ok(u) => LoadOutcome::Hit(u),
                Err(e) => {
                    self.evict(&path);
                    LoadOutcome::Corrupt(format!("{}: {e}", path.display()))
                }
            },
            LoadOutcome::Miss => LoadOutcome::Miss,
            LoadOutcome::Corrupt(e) => LoadOutcome::Corrupt(e),
        }
    }

    /// Store a function-analysis unit under `key`.
    pub fn store_func_unit(&self, key: u64, unit: &FuncAnalysisUnit) {
        self.store_bytes(&self.path_for("func", key), &unit.to_bytes());
    }
}

/// Canonical bit-exact byte encoding of a [`SimResult`] — the same format
/// the sim-memo artifact files use. The compile service's wire protocol
/// reuses it so daemon-served results are byte-comparable to local ones.
pub fn sim_to_bytes(result: &SimResult) -> Vec<u8> {
    encode_sim(result)
}

/// Inverse of [`sim_to_bytes`].
///
/// # Errors
///
/// Returns a description of the first framing/checksum/version problem.
pub fn sim_from_bytes(bytes: &[u8]) -> Result<SimResult, String> {
    decode_sim(bytes)
}

/// Serialize a [`SimResult`] bit-exactly (f64 rates via `to_bits`, loop
/// stats sorted by tag so the encoding is canonical).
fn encode_sim(r: &SimResult) -> Vec<u8> {
    let mut out = Vec::with_capacity(64 + r.memory.len() * 3);
    out.extend_from_slice(SIM_MAGIC);
    put_varint(&mut out, SIM_FORMAT_VERSION as u64);
    match r.ret {
        Some(v) => {
            out.push(1);
            put_varint(&mut out, v);
        }
        None => out.push(0),
    }
    put_varint(&mut out, r.cycles);
    put_varint(&mut out, r.insts);
    put_varint(&mut out, r.memory.len() as u64);
    for &w in &r.memory {
        put_varint(&mut out, w);
    }
    let mut tags: Vec<u32> = r.loops.keys().copied().collect();
    tags.sort_unstable();
    put_varint(&mut out, tags.len() as u64);
    for tag in tags {
        let s = r.loops[&tag];
        put_varint(&mut out, tag as u64);
        for f in [
            s.forks,
            s.commits,
            s.kills,
            s.free_insts,
            s.reexec_insts,
            s.reexec_cycles,
            s.main_insts,
            s.loop_cycles,
            s.seq_cycles,
            s.wasted_insts,
        ] {
            put_varint(&mut out, f);
        }
    }
    out.extend_from_slice(&r.cache_hit_rate.to_bits().to_le_bytes());
    out.extend_from_slice(&r.branch_miss_rate.to_bits().to_le_bytes());
    let mut h = Fnv::new();
    h.update(&out);
    out.extend_from_slice(&h.finish().to_le_bytes());
    out
}

fn decode_sim(buf: &[u8]) -> Result<SimResult, String> {
    if buf.len() < SIM_MAGIC.len() + 8 {
        return Err("sim memo truncated".into());
    }
    if &buf[..SIM_MAGIC.len()] != SIM_MAGIC {
        return Err("bad sim memo magic".into());
    }
    let (body, tail) = buf.split_at(buf.len() - 8);
    let mut h = Fnv::new();
    h.update(body);
    let mut raw = [0u8; 8];
    raw.copy_from_slice(tail);
    if h.finish() != u64::from_le_bytes(raw) {
        return Err("sim memo checksum mismatch".into());
    }

    let mut pos = SIM_MAGIC.len();
    let take = |pos: &mut usize| get_varint(body, pos).ok_or("sim memo truncated");
    let version = take(&mut pos)?;
    if version != SIM_FORMAT_VERSION as u64 {
        return Err(format!(
            "stale sim memo version {version} (expected {SIM_FORMAT_VERSION})"
        ));
    }
    let ret = match body.get(pos).copied().ok_or("sim memo truncated")? {
        0 => {
            pos += 1;
            None
        }
        1 => {
            pos += 1;
            Some(take(&mut pos)?)
        }
        _ => return Err("bad ret tag in sim memo".into()),
    };
    let cycles = take(&mut pos)?;
    let insts = take(&mut pos)?;
    let mem_len = take(&mut pos)? as usize;
    let mut memory = Vec::with_capacity(mem_len.min(1 << 24));
    for _ in 0..mem_len {
        memory.push(take(&mut pos)?);
    }
    let nloops = take(&mut pos)? as usize;
    let mut loops = std::collections::HashMap::with_capacity(nloops.min(1 << 16));
    for _ in 0..nloops {
        let tag = take(&mut pos)? as u32;
        let mut f = [0u64; 10];
        for slot in &mut f {
            *slot = take(&mut pos)?;
        }
        loops.insert(
            tag,
            LoopSimStats {
                forks: f[0],
                commits: f[1],
                kills: f[2],
                free_insts: f[3],
                reexec_insts: f[4],
                reexec_cycles: f[5],
                main_insts: f[6],
                loop_cycles: f[7],
                seq_cycles: f[8],
                wasted_insts: f[9],
            },
        );
    }
    let need = pos + 16;
    if body.len() != need {
        return Err("sim memo truncated".into());
    }
    let mut raw = [0u8; 8];
    raw.copy_from_slice(&body[pos..pos + 8]);
    let cache_hit_rate = f64::from_bits(u64::from_le_bytes(raw));
    raw.copy_from_slice(&body[pos + 8..pos + 16]);
    let branch_miss_rate = f64::from_bits(u64::from_le_bytes(raw));

    Ok(SimResult {
        ret,
        cycles,
        insts,
        memory,
        loops,
        cache_hit_rate,
        branch_miss_rate,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "spt-cache-test-{}-{}-{tag}",
            std::process::id(),
            TMP_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn sample_sim() -> SimResult {
        let mut loops = std::collections::HashMap::new();
        loops.insert(
            3u32,
            LoopSimStats {
                forks: 1,
                commits: 2,
                kills: 3,
                free_insts: 4,
                reexec_insts: 5,
                reexec_cycles: 6,
                main_insts: 7,
                loop_cycles: 8,
                seq_cycles: 9,
                wasted_insts: 10,
            },
        );
        loops.insert(1u32, LoopSimStats::default());
        SimResult {
            ret: Some(42),
            cycles: 1000,
            insts: 500,
            memory: vec![1, 2, 3, u64::MAX],
            loops,
            cache_hit_rate: 0.987654321,
            branch_miss_rate: 0.0123456789,
        }
    }

    fn sim_eq(a: &SimResult, b: &SimResult) -> bool {
        a.ret == b.ret
            && a.cycles == b.cycles
            && a.insts == b.insts
            && a.memory == b.memory
            && a.loops == b.loops
            && a.cache_hit_rate.to_bits() == b.cache_hit_rate.to_bits()
            && a.branch_miss_rate.to_bits() == b.branch_miss_rate.to_bits()
    }

    #[test]
    fn sim_memo_round_trip() {
        let r = sample_sim();
        let decoded = decode_sim(&encode_sim(&r)).unwrap();
        assert!(sim_eq(&r, &decoded));
    }

    #[test]
    fn sim_store_and_load() {
        let cache = ArtifactCache::new(temp_dir("simrt"));
        let r = sample_sim();
        assert!(matches!(cache.load_sim(7), LoadOutcome::Miss));
        cache.store_sim(7, &r);
        match cache.load_sim(7) {
            LoadOutcome::Hit(got) => assert!(sim_eq(&r, &got)),
            other => panic!("expected hit, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn corrupt_file_is_reported_not_fatal_and_evicted() {
        let cache = ArtifactCache::new(temp_dir("corrupt"));
        let r = sample_sim();
        cache.store_sim(9, &r);
        let path = cache.path_for("sim", 9);
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x5a;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(cache.load_sim(9), LoadOutcome::Corrupt(_)));
        // Detection evicted the bad file: the second probe is a clean Miss
        // (one torn write can never permanently poison its key) and a
        // re-store makes the key healthy again.
        assert!(!path.exists(), "corrupt sim memo should have been deleted");
        assert!(matches!(cache.load_sim(9), LoadOutcome::Miss));
        cache.store_sim(9, &r);
        assert!(matches!(cache.load_sim(9), LoadOutcome::Hit(_)));
        // Truncation too.
        std::fs::write(&path, &bytes[..bytes.len() / 3]).unwrap();
        assert!(matches!(cache.load_sim(9), LoadOutcome::Corrupt(_)));
        assert!(matches!(cache.load_sim(9), LoadOutcome::Miss));
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn byte_budget_evicts_least_recently_used_first() {
        let dir = temp_dir("budget");
        let r = sample_sim();
        let one = encode_sim(&r).len() as u64;
        // Room for roughly two artifacts.
        let cache = ArtifactCache::with_byte_budget(&dir, one * 2 + one / 2);
        cache.store_sim(1, &r);
        // Distinct mtimes so the eviction order is unambiguous even on
        // coarse-granularity filesystems.
        std::thread::sleep(std::time::Duration::from_millis(20));
        cache.store_sim(2, &r);
        std::thread::sleep(std::time::Duration::from_millis(20));
        // A hit renews key 1's lease (access stamp), so the cold key 2 —
        // not the oldest-created key 1 — is the next victim.
        assert!(matches!(cache.load_sim(1), LoadOutcome::Hit(_)));
        std::thread::sleep(std::time::Duration::from_millis(20));
        cache.store_sim(3, &r);
        assert!(
            cache.disk_bytes() <= one * 2 + one / 2,
            "directory over budget: {} bytes",
            cache.disk_bytes()
        );
        assert!(cache.counters().budget_evictions.load(Ordering::Relaxed) >= 1);
        assert!(matches!(cache.load_sim(2), LoadOutcome::Miss));
        assert!(matches!(cache.load_sim(1), LoadOutcome::Hit(_)));
        assert!(matches!(cache.load_sim(3), LoadOutcome::Hit(_)));
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn load_hits_bump_the_access_stamp() {
        let cache = ArtifactCache::new(temp_dir("stamp"));
        let r = sample_sim();
        cache.store_sim(5, &r);
        let path = cache.path_for("sim", 5);
        let created = std::fs::metadata(&path).unwrap().modified().unwrap();
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert!(matches!(cache.load_sim(5), LoadOutcome::Hit(_)));
        let touched = std::fs::metadata(&path).unwrap().modified().unwrap();
        assert!(
            touched > created,
            "hit must renew the entry's mtime lease ({created:?} -> {touched:?})"
        );
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn func_unit_store_and_load() {
        let cache = ArtifactCache::new(temp_dir("funcunit"));
        let unit = FuncAnalysisUnit {
            fragments: vec![crate::func_unit::LoopFragment {
                header: 2,
                canonical: true,
                cost_bits: 1.25f64.to_bits(),
                move_insts: vec![0, 3],
                ..Default::default()
            }],
        };
        let key = ArtifactCache::func_unit_key(0xabcd, 1, 0x1234);
        assert!(matches!(cache.load_func_unit(key), LoadOutcome::Miss));
        cache.store_func_unit(key, &unit);
        assert_eq!(
            match cache.load_func_unit(key) {
                LoadOutcome::Hit(u) => u,
                other => panic!("expected hit, got {other:?}"),
            },
            unit
        );
        // Corruption degrades to Corrupt then Miss, like every other kind.
        let path = cache.path_for("func", key);
        std::fs::write(&path, b"scribble").unwrap();
        assert!(matches!(cache.load_func_unit(key), LoadOutcome::Corrupt(_)));
        assert!(matches!(cache.load_func_unit(key), LoadOutcome::Miss));
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn unbudgeted_cache_never_evicts_on_store() {
        let cache = ArtifactCache::new(temp_dir("nobudget"));
        let r = sample_sim();
        for k in 0..8 {
            cache.store_sim(k, &r);
        }
        assert_eq!(cache.counters().budget_evictions.load(Ordering::Relaxed), 0);
        assert_eq!(cache.counters().stores.load(Ordering::Relaxed), 8);
        for k in 0..8 {
            assert!(matches!(cache.load_sim(k), LoadOutcome::Hit(_)));
        }
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn corrupt_evictions_are_counted() {
        let cache = ArtifactCache::new(temp_dir("corrupt-count"));
        let r = sample_sim();
        cache.store_sim(4, &r);
        let path = cache.path_for("sim", 4);
        std::fs::write(&path, b"garbage").unwrap();
        assert!(matches!(cache.load_sim(4), LoadOutcome::Corrupt(_)));
        assert_eq!(
            cache.counters().corrupt_evictions.load(Ordering::Relaxed),
            1
        );
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn sim_bytes_round_trip_public() {
        let r = sample_sim();
        let bytes = sim_to_bytes(&r);
        let decoded = sim_from_bytes(&bytes).unwrap();
        assert!(sim_eq(&r, &decoded));
        assert!(sim_from_bytes(&bytes[..bytes.len() - 2]).is_err());
    }

    #[test]
    fn keys_separate_inputs() {
        let m1 = MachineConfig::default();
        let mut m2 = MachineConfig::default();
        m2.fork_overhead += 1;
        let k1 = ArtifactCache::sim_key(1, "main", &[5], &m1);
        assert_ne!(k1, ArtifactCache::sim_key(2, "main", &[5], &m1));
        assert_ne!(k1, ArtifactCache::sim_key(1, "other", &[5], &m1));
        assert_ne!(k1, ArtifactCache::sim_key(1, "main", &[6], &m1));
        assert_ne!(k1, ArtifactCache::sim_key(1, "main", &[5], &m2));
        let f1 = ArtifactCache::func_unit_key(10, 0, 99);
        assert_ne!(f1, ArtifactCache::func_unit_key(11, 0, 99));
        assert_ne!(f1, ArtifactCache::func_unit_key(10, 1, 99));
        assert_ne!(f1, ArtifactCache::func_unit_key(10, 0, 98));
    }
}
