//! The artifact store: the one memo behind the pipeline, the simulation
//! harnesses and the compile daemon.
//!
//! Every product it holds — a function's pass-1 analysis, a whole compile,
//! the daemon's compiled program, a simulation result — is a pure function
//! of IR content and inputs, so its key is a content address built in this
//! module ([`sim_key`], [`func_unit_key`], [`compile_key`], [`unit_key`]),
//! each folding its kind tag first and, for a kind that persists, its
//! format version.
//! Entries are immutable: a changed input is a new key, and nothing is ever
//! invalidated.
//!
//! Two tiers. **Memory** is a sharded LRU under one byte budget for every
//! kind but the disk-only [`Kind::Compile`]: a key's high bits pick its
//! shard, and each shard evicts its least-recently-used entries, of any
//! kind, until it fits `budget / shards`; a value larger than a whole shard
//! is refused (an oversize rejection). Kinds flagged
//! [`Artifact::HELD_ENCODED`] (the function units) are held as their
//! codec's body bytes and decoded on every hit. **Disk** (optional) is a
//! directory of immutable `{kind}-{key:016x}.bin` files for the kinds with
//! a [`Codec`]. The store is their one framer: each file is the kind tag,
//! the kind's format version, the body its codec writes in
//! `spt_ir::codec`'s byte format, and a checksum
//! ([`spt_trace::codec::seal`]). Stores are atomic (temp file, then
//! rename); a file that fails to read, to match its kind, version and
//! checksum, or to decode is deleted and reads as a miss, since a
//! content-addressed file can only hold bad bytes after a torn or damaged
//! write; an optional byte budget deletes the least recently used files (a
//! hit renews a file's mtime). Only files with the store's own names are
//! counted or deleted.
//!
//! The store is an accelerator, not a source of truth: no I/O error
//! surfaces, and every answer is byte-identical with it on, off, cold or
//! warm (pinned by `tests/trace_equivalence.rs`,
//! `tests/incremental_equivalence.rs` and `spt-serve`'s
//! `daemon_equivalence`). One [`KindStats`] row per [`Kind`] counts both
//! tiers.

use std::any::Any;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::SystemTime;

use spt_ir::codec::Reader;
use spt_sim::{LoopSimStats, MachineConfig, SimResult};
use spt_trace::codec::{seal, unseal, Fnv};
use spt_trace::{decode_sim, encode_sim, FuncAnalysisUnit};

use crate::compile_memo::CompileMemo;
use crate::config::CompilerConfig;
use crate::incremental::fold_debug;
use crate::pipeline::ProfilingInput;

/// The store under the name the function-granular pipeline API first used
/// (`sptbench` still compiles against it).
pub type IncrementalCache = Store;

/// Number of [`Kind`]s.
const KINDS: usize = 4;

/// The kinds of artifact the store holds; each has one counter row.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// The daemon's compiled program (its `CompiledUnit`, keyed by the
    /// request); memory-only.
    Unit,
    /// A [`SimResult`] memo; persists.
    Sim,
    /// One function's pass-1 analysis ([`FuncAnalysisUnit`]); persists.
    FuncAnalysis,
    /// One whole compile (a [`CompileMemo`]: the SPT module and its
    /// report); disk-only. A compile only repeats across processes —
    /// inside one, the daemon's compiled units already serve repeats — so
    /// holding one in memory would only grow a long-lived store on every
    /// edit.
    Compile,
}

impl Kind {
    /// Every kind, in counter-row order.
    pub const ALL: [Kind; KINDS] = [Kind::Unit, Kind::Sim, Kind::FuncAnalysis, Kind::Compile];

    /// The kind's name in `stats` keys.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Unit => "unit",
            Kind::Sim => "sim",
            Kind::FuncAnalysis => "func_analysis",
            Kind::Compile => "compile",
        }
    }

    /// Whether the memory tier never holds values of this kind: they are
    /// read from and written to disk only, and without a disk tier the
    /// store neither holds nor computes them.
    pub fn disk_only(self) -> bool {
        self == Kind::Compile
    }

    /// The kind tag of its keys and frames, and the prefix of its file
    /// names.
    fn tag(self) -> &'static str {
        match self {
            Kind::FuncAnalysis => "func",
            k => k.name(),
        }
    }
}

/// A value the store can hold.
pub trait Artifact: Any + Send + Sync + Sized {
    /// The kind's counter row and key tag.
    const KIND: Kind;
    /// The kind's byte form; kinds without one stay in memory.
    const CODEC: Option<Codec<Self>> = None;
    /// Whether the memory tier holds values as their [`Artifact::CODEC`]
    /// body, for kinds whose resident values should cost little more than
    /// their encoding: one allocation of those bytes, billed at their
    /// length and decoded on every hit. Other kinds are held as the shared
    /// value itself.
    const HELD_ENCODED: bool = false;
    /// Bytes billed against the memory budget for a value held as itself:
    /// the resident size to within a small factor, which is all a budget
    /// needs.
    fn billed_bytes(&self) -> u64;
}

/// The byte form of a kind that persists: a body in `spt_ir::codec`'s
/// format, with no magic, version or checksum of its own.
pub struct Codec<A> {
    /// The body's format version. Bump it on any change to the encoding,
    /// or to what the kind's producer computes for the same inputs: the
    /// kind's keys fold it and its frames carry it, so files written before
    /// a bump are never probed again.
    pub version: u32,
    /// Appends a value's body.
    pub encode: fn(&A, &mut Vec<u8>),
    /// Reads a body; `None` when the bytes are not one.
    pub decode: fn(&mut Reader<'_>) -> Option<A>,
}

impl<A> Codec<A> {
    /// Decodes `body` whole: bytes left over reject it.
    fn decode_all(&self, body: &[u8]) -> Option<A> {
        let mut r = Reader::new(body, 0);
        (self.decode)(&mut r).filter(|_| r.at_end())
    }
}

/// A memo holds the final memory as its digest (the memo path stores
/// nothing else), so it bills only its counters and loop stats.
impl Artifact for SimResult {
    const KIND: Kind = Kind::Sim;
    /// 3: the body lost its magic, version and checksum to the store's
    /// frame. 4: the final memory image gave way to its digest.
    const CODEC: Option<Codec<Self>> = Some(Codec {
        version: 4,
        encode: encode_sim,
        decode: decode_sim,
    });
    fn billed_bytes(&self) -> u64 {
        let loop_bytes = std::mem::size_of::<(u32, LoopSimStats)>() * self.loops.len();
        (std::mem::size_of::<SimResult>() + loop_bytes) as u64
    }
}

/// A long-lived store (the daemon's, an edit-recompile loop's) gains two
/// units per edit and keeps them, so units are held encoded: its memory
/// grows by about the encoded size per edit, and each hit decodes one.
impl Artifact for FuncAnalysisUnit {
    const KIND: Kind = Kind::FuncAnalysis;
    /// 3: `search_visited` counts the budget-bounded partition search's
    /// nodes. 4: the body lost its magic, version and checksum to the
    /// store's frame.
    const CODEC: Option<Codec<Self>> = Some(Codec {
        version: 4,
        encode: FuncAnalysisUnit::encode,
        decode: FuncAnalysisUnit::decode,
    });
    const HELD_ENCODED: bool = true;
    /// Never billed: the memory tier holds the encoded bytes.
    fn billed_bytes(&self) -> u64 {
        0
    }
}

impl Artifact for CompileMemo {
    const KIND: Kind = Kind::Compile;
    /// 2: reports count the budget-bounded partition search's visited
    /// nodes. 3: the body lost its magic, version and checksum to the
    /// store's frame, and report floats are 8-byte bit patterns.
    const CODEC: Option<Codec<Self>> = Some(Codec {
        version: 3,
        encode: CompileMemo::encode,
        decode: CompileMemo::decode,
    });
    /// Never billed: the memory tier does not hold compiles.
    fn billed_bytes(&self) -> u64 {
        0
    }
}

/// Where a [`Store::get`] hit was found.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tier {
    /// The memory tier.
    Memory,
    /// The disk directory (the value is now also in memory).
    Disk,
}

/// One kind's counters. Memory evictions are charged to the evicted
/// entry's kind, whichever kind's insertion made room.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KindStats {
    /// Memory probes that found a value of this kind.
    pub hits: u64,
    /// Memory probes for this kind that did not.
    pub misses: u64,
    /// Values admitted to memory.
    pub insertions: u64,
    /// Values evicted from memory to make room.
    pub evictions: u64,
    /// Values refused because they exceed a whole shard's budget.
    pub oversize_rejections: u64,
    /// Resident bytes.
    pub bytes: u64,
    /// Resident entries.
    pub entries: u64,
    /// Disk probes that decoded a value.
    pub disk_hits: u64,
    /// Files written (a completed rename).
    pub disk_stores: u64,
    /// Files deleted by the disk byte budget.
    pub disk_budget_evictions: u64,
    /// Files deleted because they failed to read or decode.
    pub disk_corrupt_evictions: u64,
}

/// How the memory tier holds a value.
enum Held {
    /// The shared value itself.
    Shared(Arc<dyn Any + Send + Sync>),
    /// The body its kind's codec writes ([`Artifact::HELD_ENCODED`]).
    Encoded(Box<[u8]>),
}

/// The codec a kind's memory-tier values are held in, if any.
fn held_codec<A: Artifact>() -> Option<Codec<A>> {
    A::CODEC.filter(|_| A::HELD_ENCODED)
}

/// One resident value and its accounting.
struct Entry {
    value: Held,
    kind: Kind,
    bytes: u64,
    last_used: u64,
}

/// One memory shard: its map, recency clock, occupancy and per-kind
/// counters, all under the shard's lock so a snapshot is consistent.
#[derive(Default)]
struct Shard {
    map: HashMap<u64, Entry>,
    clock: u64,
    bytes: u64,
    rows: [KindStats; KINDS],
}

impl Shard {
    fn remove(&mut self, key: u64) -> Option<Entry> {
        let entry = self.map.remove(&key)?;
        self.bytes -= entry.bytes;
        let row = &mut self.rows[entry.kind as usize];
        row.bytes -= entry.bytes;
        row.entries -= 1;
        Some(entry)
    }
}

/// Disk counters of one kind (shared by every thread using the store).
#[derive(Default)]
struct DiskRow {
    hits: AtomicU64,
    stores: AtomicU64,
    budget_evictions: AtomicU64,
    corrupt_evictions: AtomicU64,
}

/// The disk tier: a directory of `{kind}-{key:016x}.bin` files.
struct Disk {
    dir: PathBuf,
    budget: Option<u64>,
    rows: [DiskRow; KINDS],
}

/// Uniquifier for temp-file names within one process.
static TMP_COUNTER: AtomicU64 = AtomicU64::new(0);

impl Disk {
    fn path(&self, kind: Kind, key: u64) -> PathBuf {
        self.dir.join(format!("{}-{key:016x}.bin", kind.tag()))
    }

    fn count(&self, kind: Kind, counter: fn(&DiskRow) -> &AtomicU64) {
        counter(&self.rows[kind as usize]).fetch_add(1, Ordering::Relaxed);
    }

    /// The value of `A` stored under `key`: its file must hold a frame of
    /// `A`'s kind and version around a body `codec` decodes whole. A file
    /// that does not is deleted.
    fn load<A: Artifact>(&self, key: u64, codec: &Codec<A>) -> Option<A> {
        let path = self.path(A::KIND, key);
        let bytes = match std::fs::read(&path) {
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return None,
            read => read.ok(),
        };
        let value = bytes
            .as_deref()
            .and_then(|frame| unseal(frame, A::KIND.tag(), codec.version))
            .and_then(|body| codec.decode_all(body));
        match value {
            Some(value) => {
                // Renew the file's lease, so the budget's oldest-mtime order is
                // least-recently-used, not creation order. A read-only
                // directory degrades to FIFO eviction.
                let _ = std::fs::File::options()
                    .append(true)
                    .open(&path)
                    .and_then(|f| f.set_modified(SystemTime::now()));
                self.count(A::KIND, |r| &r.hits);
                Some(value)
            }
            None => {
                if std::fs::remove_file(&path).is_ok() {
                    self.count(A::KIND, |r| &r.corrupt_evictions);
                }
                None
            }
        }
    }

    /// Writes `bytes` atomically, counting only a completed rename and
    /// removing the temp file on every failure path, then enforces the
    /// budget.
    fn store(&self, kind: Kind, key: u64, bytes: &[u8]) {
        if std::fs::create_dir_all(&self.dir).is_err() {
            return;
        }
        let tmp = self.dir.join(format!(
            ".tmp-{}-{}",
            std::process::id(),
            TMP_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        match std::fs::write(&tmp, bytes).and_then(|()| std::fs::rename(&tmp, self.path(kind, key)))
        {
            Ok(()) => self.count(kind, |r| &r.stores),
            Err(_) => {
                let _ = std::fs::remove_file(&tmp);
            }
        }
        self.enforce_budget();
    }

    /// Every file in the directory with a name the store writes: its
    /// modification time, path, kind and length.
    fn files(&self) -> Vec<(SystemTime, PathBuf, Kind, u64)> {
        let Ok(entries) = std::fs::read_dir(&self.dir) else {
            return Vec::new();
        };
        entries
            .flatten()
            .filter_map(|e| {
                let kind = store_file_kind(&e.file_name().to_string_lossy())?;
                let meta = e.metadata().ok()?;
                Some((meta.modified().ok()?, e.path(), kind, meta.len()))
            })
            .collect()
    }

    /// Deletes the oldest store files (mtime, then name, so ties within one
    /// mtime granule break deterministically) until the total fits the
    /// budget. A budget smaller than one file may delete the file just
    /// written: an over-budget store simply never sticks.
    fn enforce_budget(&self) {
        let Some(budget) = self.budget else {
            return;
        };
        let mut files = self.files();
        let mut total: u64 = files.iter().map(|f| f.3).sum();
        if total <= budget {
            return;
        }
        files.sort_by(|a, b| a.0.cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
        for (_, path, kind, len) in files {
            if total <= budget {
                break;
            }
            if std::fs::remove_file(&path).is_ok() {
                self.count(kind, |r| &r.budget_evictions);
                total = total.saturating_sub(len);
            }
        }
    }
}

/// The kind of a file named like the store's own (`{tag}-{key:016x}.bin`);
/// `None` for every other name.
fn store_file_kind(name: &str) -> Option<Kind> {
    let (tag, key) = name.strip_suffix(".bin")?.split_once('-')?;
    let is_key = key.len() == 16 && key.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f'));
    Kind::ALL.into_iter().find(|k| is_key && k.tag() == tag)
}

/// The two-tier artifact store (see the module docs). Thread-safe: the
/// daemon's workers and the pipeline's parallel stages share one instance.
pub struct Store {
    shards: Vec<Mutex<Shard>>,
    shard_budget: u64,
    disk: Option<Disk>,
}

impl Store {
    /// A store whose memory tier holds `mem_budget_bytes` over `shards`
    /// shards (at least 1; a zero budget admits nothing), over the disk
    /// directory `dir` (created on first store) when given, which
    /// `disk_budget_bytes` bounds when given.
    pub fn new(
        mem_budget_bytes: u64,
        shards: usize,
        dir: Option<PathBuf>,
        disk_budget_bytes: Option<u64>,
    ) -> Self {
        let shards = shards.max(1);
        Store {
            shard_budget: mem_budget_bytes / shards as u64,
            shards: (0..shards).map(|_| Mutex::default()).collect(),
            disk: dir.map(|dir| Disk {
                dir,
                budget: disk_budget_bytes,
                rows: Default::default(),
            }),
        }
    }

    /// A memory-only store.
    pub fn in_memory(mem_budget_bytes: u64, shards: usize) -> Self {
        Self::new(mem_budget_bytes, shards, None, None)
    }

    /// The store a plain [`crate::transform_module_timed`] call compiles
    /// through: `None` when the artifact store is disabled or has no
    /// `cache_dir` (nothing would persist, and a single compile never
    /// re-probes its own stores), otherwise a 32 MiB memory tier over that
    /// directory.
    pub fn from_config(config: &CompilerConfig) -> Option<Self> {
        let dir = config.trace.cache_dir.clone()?;
        config
            .trace
            .enabled
            .then(|| Self::new(32 << 20, 4, Some(dir), None))
    }

    fn shard(&self, key: u64) -> MutexGuard<'_, Shard> {
        // High bits pick the shard: the map consumes the low bits, and FNV
        // mixes the whole word. A poisoned lock is still consistent: every
        // update below completes before anything that can panic.
        let idx = (key >> 48) as usize % self.shards.len();
        self.shards[idx]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Whether the store has a disk tier, the only home of disk-only kinds.
    pub fn has_disk(&self) -> bool {
        self.disk.is_some()
    }

    /// Looks `key` up as kind `A`: memory first, then disk for kinds with a
    /// codec. A disk hit is promoted into memory, unless the kind is
    /// disk-only, which never touches the memory tier.
    pub fn get<A: Artifact>(&self, key: u64) -> Option<(Arc<A>, Tier)> {
        let memory = !A::KIND.disk_only();
        if memory {
            if let Some(hit) = self.mem_get(key) {
                return Some((hit, Tier::Memory));
            }
        }
        let codec = A::CODEC?;
        let value = Arc::new(self.disk.as_ref()?.load(key, &codec)?);
        if memory {
            self.mem_insert(key, value.clone());
        }
        Some((value, Tier::Disk))
    }

    /// Stores `value` under `key`: on disk for kinds with a codec, framed
    /// with the body written straight into the frame's buffer, and in
    /// memory unless the kind is disk-only.
    pub fn put<A: Artifact>(&self, key: u64, value: Arc<A>) {
        if let (Some(codec), Some(disk)) = (A::CODEC, &self.disk) {
            let frame = seal(A::KIND.tag(), codec.version, |out| {
                (codec.encode)(&value, out)
            });
            disk.store(A::KIND, key, &frame);
        }
        if !A::KIND.disk_only() {
            self.mem_insert(key, value);
        }
    }

    fn mem_get<A: Artifact>(&self, key: u64) -> Option<Arc<A>> {
        let mut shard = self.shard(key);
        shard.clock += 1;
        let clock = shard.clock;
        let hit = shard.map.get_mut(&key).and_then(|entry| {
            let value = match (&entry.value, held_codec::<A>()) {
                (Held::Shared(value), _) => value.clone().downcast::<A>().ok()?,
                (Held::Encoded(body), Some(codec)) if entry.kind == A::KIND => {
                    Arc::new(codec.decode_all(body)?)
                }
                _ => return None,
            };
            entry.last_used = clock;
            Some(value)
        });
        let row = &mut shard.rows[A::KIND as usize];
        if hit.is_some() {
            row.hits += 1;
        } else {
            row.misses += 1;
        }
        hit
    }

    /// Admits `value`, evicting least-recently-used entries of any kind
    /// until the shard fits. Re-inserting a key replaces its value (keys are
    /// content addresses, so only the accounting can differ).
    fn mem_insert<A: Artifact>(&self, key: u64, value: Arc<A>) {
        let (value, bytes) = match held_codec::<A>() {
            Some(codec) => {
                let mut body = Vec::new();
                (codec.encode)(&value, &mut body);
                let len = body.len() as u64;
                (Held::Encoded(body.into_boxed_slice()), len)
            }
            None => {
                let bytes = value.billed_bytes();
                (Held::Shared(value), bytes)
            }
        };
        let mut shard = self.shard(key);
        if bytes > self.shard_budget {
            shard.rows[A::KIND as usize].oversize_rejections += 1;
            return;
        }
        shard.clock += 1;
        let clock = shard.clock;
        shard.remove(key);
        while shard.bytes + bytes > self.shard_budget {
            let Some(victim) = shard
                .map
                .iter()
                .min_by_key(|(k, e)| (e.last_used, **k))
                .map(|(k, _)| *k)
            else {
                break;
            };
            if let Some(evicted) = shard.remove(victim) {
                shard.rows[evicted.kind as usize].evictions += 1;
            }
        }
        shard.bytes += bytes;
        let row = &mut shard.rows[A::KIND as usize];
        row.insertions += 1;
        row.bytes += bytes;
        row.entries += 1;
        shard.map.insert(
            key,
            Entry {
                value,
                kind: A::KIND,
                bytes,
                last_used: clock,
            },
        );
    }

    /// The counter row of `kind`, summed over shards.
    pub fn stats(&self, kind: Kind) -> KindStats {
        let k = kind as usize;
        let mut s = KindStats::default();
        for shard in &self.shards {
            let row = shard.lock().unwrap_or_else(PoisonError::into_inner).rows[k];
            s.hits += row.hits;
            s.misses += row.misses;
            s.insertions += row.insertions;
            s.evictions += row.evictions;
            s.oversize_rejections += row.oversize_rejections;
            s.bytes += row.bytes;
            s.entries += row.entries;
        }
        if let Some(disk) = &self.disk {
            let row = &disk.rows[k];
            s.disk_hits = row.hits.load(Ordering::Relaxed);
            s.disk_stores = row.stores.load(Ordering::Relaxed);
            s.disk_budget_evictions = row.budget_evictions.load(Ordering::Relaxed);
            s.disk_corrupt_evictions = row.corrupt_evictions.load(Ordering::Relaxed);
        }
        s
    }

    /// Total bytes of the store's files on disk (other files in the
    /// directory excluded); `None` without a disk tier.
    pub fn disk_bytes(&self) -> Option<u64> {
        let disk = self.disk.as_ref()?;
        Some(disk.files().iter().map(|f| f.3).sum())
    }
}

/// A hasher that has folded `kind`'s tag and, for a kind that persists,
/// its format `version`: the start of every key.
fn kind_hasher(kind: Kind, version: Option<u32>) -> Fnv {
    let mut h = Fnv::new();
    h.update(kind.tag().as_bytes());
    if let Some(version) = version {
        h.update_u64(version as u64);
    }
    h
}

/// [`kind_hasher`] of `A`, with its codec's version.
fn key_hasher<A: Artifact>() -> Fnv {
    kind_hasher(A::KIND, A::CODEC.map(|codec| codec.version))
}

/// Key of a [`SimResult`] memo: the simulated module's content hash, the
/// entry, its arguments and the machine. The machine enters through its
/// canonical `Debug` rendering, so any parameter change — future fields
/// included — changes the key.
pub fn sim_key(module_hash: u64, entry: &str, args: &[i64], machine: &MachineConfig) -> u64 {
    let mut h = key_hasher::<SimResult>();
    h.update_u64(module_hash);
    h.update(entry.as_bytes());
    h.update_u64(args.len() as u64);
    for &a in args {
        h.update_u64(a as u64);
    }
    h.update(format!("{machine:?}").as_bytes());
    h.finish()
}

/// Key of a function's pass-1 analysis unit: the function's own content
/// hash, its index in the module (unit contents are function-local, but
/// profile slices are keyed by function id), and the context hash of
/// everything else the analysis reads
/// ([`crate::incremental::ModuleContext::func_context_hash`]).
pub fn func_unit_key(function_hash: u64, func_index: u64, context_hash: u64) -> u64 {
    let mut h = key_hasher::<FuncAnalysisUnit>();
    h.update_u64(function_hash);
    h.update_u64(func_index);
    h.update_u64(context_hash);
    h.finish()
}

/// Key of a whole compile ([`Kind::Compile`]): the input module's content
/// hash, the profiling input (entry and arguments, through their canonical
/// `Debug` rendering, streamed), the
/// configuration's [`crate::incremental::config_context_hash`] and the
/// interpreter's call-depth limit — everything a compile reads.
pub fn compile_key(
    module_hash: u64,
    input: &ProfilingInput,
    config_hash: u64,
    max_depth: usize,
) -> u64 {
    let mut h = key_hasher::<CompileMemo>();
    h.update_u64(module_hash);
    fold_debug(&mut h, input);
    h.update_u64(config_hash);
    h.update_u64(max_depth as u64);
    h.finish()
}

/// Key of the daemon's compiled unit: the compile request itself — source
/// text, configuration id, entry and training input — so a warm request
/// costs one pass over its source and no IR hashing. The kind never
/// outlives the process, so its keys fold no format version.
pub fn unit_key(source: &str, config_id: u8, entry: &str, train: i64) -> u64 {
    let mut h = kind_hasher(Kind::Unit, None);
    h.update_u64(source.len() as u64);
    h.update(source.as_bytes());
    h.update(&[config_id]);
    h.update_u64(entry.len() as u64);
    h.update(entry.as_bytes());
    h.update_u64(train as u64);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use spt_sim::FinalMemory;
    use spt_trace::{sim_to_bytes, LoopFragment};
    use std::path::Path;

    /// A test value of kind `Unit` billed at its payload.
    struct Blob(u64);

    impl Artifact for Blob {
        const KIND: Kind = Kind::Unit;
        fn billed_bytes(&self) -> u64 {
            self.0
        }
    }

    /// A second test kind (`FuncAnalysis`), to mix kinds in one budget.
    struct Other(u64);

    impl Artifact for Other {
        const KIND: Kind = Kind::FuncAnalysis;
        fn billed_bytes(&self) -> u64 {
            self.0
        }
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("spt-store-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// A store over `dir` with no memory tier, so every probe reads disk.
    fn disk_only(dir: &Path, budget: Option<u64>) -> Store {
        Store::new(0, 1, Some(dir.to_path_buf()), budget)
    }

    fn sample_sim() -> Arc<SimResult> {
        let stats = LoopSimStats {
            forks: 1,
            commits: 2,
            reexec_insts: 5,
            ..LoopSimStats::default()
        };
        Arc::new(SimResult {
            ret: Some(42),
            cycles: 1000,
            insts: 500,
            memory: FinalMemory::Digest(0x5eed_d16e_57ed),
            loops: [(3, stats), (1, LoopSimStats::default())].into(),
            cache_hit_rate: 0.987654321,
            branch_miss_rate: 0.0123456789,
        })
    }

    fn sample_unit() -> FuncAnalysisUnit {
        FuncAnalysisUnit {
            fragments: vec![LoopFragment {
                header: 2,
                canonical: true,
                cost_bits: 1.25f64.to_bits(),
                move_insts: vec![0, 3],
                ..Default::default()
            }],
        }
    }

    /// The body `A`'s codec writes for `value`.
    fn body<A: Artifact>(value: &A) -> Vec<u8> {
        let mut out = Vec::new();
        (A::CODEC.expect("a persisted kind").encode)(value, &mut out);
        out
    }

    fn sim_path(dir: &Path, key: u64) -> PathBuf {
        dir.join(format!("sim-{key:016x}.bin"))
    }

    fn file_count(dir: &Path) -> usize {
        std::fs::read_dir(dir).map_or(0, |entries| entries.count())
    }

    #[test]
    fn memory_hits_misses_and_counters() {
        let store = Store::in_memory(4096, 4);
        assert!(store.get::<Blob>(1).is_none());
        store.put(1, Arc::new(Blob(8)));
        let (hit, tier) = store.get::<Blob>(1).unwrap();
        assert_eq!((hit.0, tier), (8, Tier::Memory));
        let s = store.stats(Kind::Unit);
        assert_eq!(
            (s.hits, s.misses, s.insertions, s.bytes, s.entries),
            (1, 1, 1, 8, 1)
        );
        assert_eq!(store.disk_bytes(), None);
        // Re-inserting a key replaces it without double billing.
        store.put(1, Arc::new(Blob(8)));
        let s = store.stats(Kind::Unit);
        assert_eq!((s.bytes, s.entries, s.evictions), (8, 1, 0));
    }

    #[test]
    fn a_value_probed_as_another_kind_is_a_miss() {
        let store = Store::in_memory(4096, 1);
        store.put(5, Arc::new(Blob(8)));
        assert!(store.get::<Other>(5).is_none());
        assert!(store.get::<SimResult>(5).is_none());
        assert_eq!(store.stats(Kind::FuncAnalysis).misses, 1);
        assert_eq!(store.stats(Kind::Sim).misses, 1);
        assert_eq!(store.get::<Blob>(5).map(|(b, _)| b.0), Some(8));
    }

    #[test]
    fn one_budget_evicts_the_coldest_entry_of_any_kind() {
        let store = Store::in_memory(100, 1); // one shard: exact arithmetic
        let resident = |store: &Store| {
            let (u, e) = (store.stats(Kind::Unit), store.stats(Kind::FuncAnalysis));
            (u.bytes + e.bytes, u.entries + e.entries)
        };
        store.put(1, Arc::new(Blob(30)));
        store.put(2, Arc::new(Other(30)));
        store.put(3, Arc::new(Blob(30)));
        // Touch 1 so 2, of the other kind, is the coldest.
        assert!(store.get::<Blob>(1).is_some());
        store.put(4, Arc::new(Other(30)));
        assert!(store.get::<Other>(2).is_none(), "coldest entry survived");
        assert_eq!(store.stats(Kind::FuncAnalysis).evictions, 1);
        // Now 3 is the coldest: an `Other` insertion evicts a `Blob`.
        store.put(5, Arc::new(Other(30)));
        assert!(store.get::<Blob>(3).is_none());
        assert_eq!(store.stats(Kind::Unit).evictions, 1);
        assert!(store.get::<Blob>(1).is_some() && store.get::<Other>(5).is_some());
        assert_eq!(resident(&store), (90, 3));
        for k in 10..20 {
            store.put(k, Arc::new(Blob(30)));
        }
        assert_eq!(resident(&store), (90, 3));
        assert_eq!(
            store.stats(Kind::Unit).evictions + store.stats(Kind::FuncAnalysis).evictions,
            12
        );
    }

    #[test]
    fn oversize_values_are_rejected_and_a_zero_budget_admits_nothing() {
        let store = Store::in_memory(64, 2); // 32 bytes per shard
        store.put(5, Arc::new(Blob(33)));
        assert!(store.get::<Blob>(5).is_none());
        let s = store.stats(Kind::Unit);
        assert_eq!((s.oversize_rejections, s.bytes), (1, 0));
        let none = Store::in_memory(0, 4);
        none.put(9, Arc::new(Blob(1)));
        assert!(none.get::<Blob>(9).is_none());
        assert_eq!(none.stats(Kind::Unit).oversize_rejections, 1);
    }

    #[test]
    fn keys_spread_over_shards() {
        let store = Store::in_memory(8 << 20, 8);
        for i in 0..256u64 {
            store.put(func_unit_key(i, 0, 0), Arc::new(Blob(16)));
        }
        let populated = store
            .shards
            .iter()
            .filter(|s| !s.lock().unwrap().map.is_empty());
        assert!(populated.count() >= 6);
    }

    #[test]
    fn disk_hits_are_promoted_into_memory() {
        let dir = temp_dir("funcunit");
        let unit = Arc::new(sample_unit());
        let key = func_unit_key(0xabcd, 1, 0x1234);
        let warm = Store::new(1 << 20, 2, Some(dir.clone()), None);
        assert!(warm.get::<FuncAnalysisUnit>(key).is_none());
        warm.put(key, unit.clone());
        assert_eq!(warm.get(key), Some((unit.clone(), Tier::Memory)));
        // A fresh memory tier over the same directory hits on disk once;
        // the promoted value serves the next probe from memory.
        let cold = Store::new(1 << 20, 2, Some(dir.clone()), None);
        assert_eq!(cold.get(key), Some((unit.clone(), Tier::Disk)));
        assert_eq!(cold.get(key), Some((unit, Tier::Memory)));
        let s = cold.stats(Kind::FuncAnalysis);
        assert_eq!((s.disk_hits, s.hits, s.misses, s.entries), (1, 1, 1, 1));
        assert_eq!(file_count(&dir), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn packed_kinds_are_held_as_their_bytes() {
        let unit = FuncAnalysisUnit {
            fragments: vec![LoopFragment {
                header: 4,
                move_insts: vec![1, 2, 300],
                search_visited: 112,
                ..Default::default()
            }],
        };
        let store = Store::in_memory(1 << 20, 2);
        store.put(9, Arc::new(unit.clone()));
        let s = store.stats(Kind::FuncAnalysis);
        assert_eq!((s.entries, s.bytes), (1, body(&unit).len() as u64));
        for _ in 0..2 {
            let (got, tier) = store.get::<FuncAnalysisUnit>(9).expect("held");
            assert_eq!((&*got, tier), (&unit, Tier::Memory));
        }
        // The bytes decode only as their own kind.
        assert!(store.get::<Other>(9).is_none());
        assert!(store.get::<Blob>(9).is_none());
    }

    #[test]
    fn memory_only_kinds_never_write_a_file() {
        let dir = temp_dir("memonly");
        let store = Store::new(1 << 20, 2, Some(dir.clone()), None);
        store.put(1, Arc::new(Blob(8)));
        assert_eq!(store.get::<Blob>(1).map(|(b, _)| b.0), Some(8));
        assert_eq!(file_count(&dir), 0);
        assert!(disk_only(&dir, None).get::<Blob>(1).is_none());
        assert_eq!(store.disk_bytes(), Some(0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn sample_compile() -> Arc<CompileMemo> {
        let mut module = spt_ir::Module::new();
        module.add_global("g", 2, spt_ir::Ty::I64);
        Arc::new(CompileMemo {
            module,
            report: crate::CompilationReport {
                config_name: "best".into(),
                profile_total_cycles: 7,
                ..Default::default()
            },
        })
    }

    #[test]
    fn compiles_live_on_disk_only() {
        let compile = sample_compile();
        let none = Store::in_memory(1 << 20, 2);
        assert!(!none.has_disk());
        none.put(3, compile.clone());
        assert!(none.get::<CompileMemo>(3).is_none());
        assert_eq!(none.stats(Kind::Compile), KindStats::default());

        let dir = temp_dir("compile");
        let store = Store::new(1 << 20, 2, Some(dir.clone()), None);
        store.put(3, compile.clone());
        let s = store.stats(Kind::Compile);
        assert_eq!(
            (s.insertions, s.entries, s.bytes, s.disk_stores),
            (0, 0, 0, 1)
        );
        assert!(dir.join(format!("compile-{:016x}.bin", 3)).exists());
        // Every probe reads the file; none is promoted into memory.
        for _ in 0..2 {
            let (got, tier) = store.get::<CompileMemo>(3).expect("stored");
            assert_eq!(tier, Tier::Disk);
            assert_eq!(got.module, compile.module);
            assert_eq!(format!("{:?}", got.report), format!("{:?}", compile.report));
        }
        let s = store.stats(Kind::Compile);
        assert_eq!((s.hits, s.misses, s.entries, s.disk_hits), (0, 0, 0, 2));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_files_are_evicted_and_then_miss_cleanly() {
        let dir = temp_dir("corrupt");
        let r = sample_sim();
        disk_only(&dir, None).put(7, r.clone());
        let good = std::fs::read(sim_path(&dir, 7)).unwrap();
        let (got, want) = (disk_only(&dir, None).get::<SimResult>(7).unwrap().0, &r);
        assert_eq!(sim_to_bytes(&got), sim_to_bytes(want), "round trip");
        let mut flipped = good.clone();
        flipped[good.len() / 2] ^= 0x5a;
        for bad in [
            flipped,
            good[..good.len() / 3].to_vec(),
            b"scribble".to_vec(),
        ] {
            std::fs::write(sim_path(&dir, 7), bad).unwrap();
            let store = disk_only(&dir, None);
            assert!(store.get::<SimResult>(7).is_none(), "damage was served");
            assert!(!sim_path(&dir, 7).exists(), "damage was not evicted");
            assert!(store.get::<SimResult>(7).is_none());
            let s = store.stats(Kind::Sim);
            assert_eq!((s.disk_corrupt_evictions, s.disk_hits), (1, 0));
            // A re-store makes the key healthy again.
            store.put(7, r.clone());
            assert_eq!(std::fs::read(sim_path(&dir, 7)).unwrap(), good);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disk_budget_evicts_least_recently_used_first() {
        let dir = temp_dir("budget");
        let r = sample_sim();
        disk_only(&dir, None).put(0, r.clone());
        let one = std::fs::metadata(sim_path(&dir, 0)).unwrap().len();
        std::fs::remove_file(sim_path(&dir, 0)).unwrap();
        let budget = one * 2 + one / 2; // room for two memos
        let store = disk_only(&dir, Some(budget));
        let tick = || std::thread::sleep(std::time::Duration::from_millis(20));
        store.put(1, r.clone());
        tick();
        store.put(2, r.clone());
        tick();
        // A hit renews key 1's lease (its mtime), so the cold key 2 — not
        // the oldest-created key 1 — is the next victim.
        assert!(store.get::<SimResult>(1).is_some());
        tick();
        store.put(3, r);
        assert!(store.disk_bytes().unwrap() <= budget);
        assert_eq!(store.stats(Kind::Sim).disk_budget_evictions, 1);
        assert!(store.get::<SimResult>(2).is_none());
        assert!(store.get::<SimResult>(1).is_some() && store.get::<SimResult>(3).is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn no_budget_never_evicts_and_foreign_files_are_never_touched() {
        let dir = temp_dir("foreign");
        std::fs::create_dir_all(&dir).unwrap();
        let foreign = [
            "notes.txt",
            "sim-123.bin",
            "sim-00000000000000FF.bin",
            ".tmp-x",
        ];
        for name in foreign {
            std::fs::write(dir.join(name), vec![b'x'; 4000]).unwrap();
        }
        let unbounded = disk_only(&dir, None);
        let bounded = disk_only(&dir, Some(3000));
        assert_eq!(bounded.disk_bytes(), Some(0));
        for k in 0..8 {
            unbounded.put(k, sample_sim());
        }
        assert_eq!(unbounded.stats(Kind::Sim).disk_stores, 8);
        assert!((0..8).all(|k| unbounded.get::<SimResult>(k).is_some()));
        bounded.put(8, sample_sim());
        for name in foreign {
            assert!(dir.join(name).exists(), "the store deleted {name}");
        }
        let s = bounded.stats(Kind::Sim);
        assert_eq!((s.disk_stores, s.disk_budget_evictions), (1, 0));
        assert_eq!(unbounded.stats(Kind::Sim).disk_budget_evictions, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_writes_are_not_counted_and_leave_no_temp_file() {
        // The rename fails: a directory squats on the artifact's name.
        let dir = temp_dir("failed-write");
        std::fs::create_dir_all(sim_path(&dir, 4).join("inside")).unwrap();
        let store = disk_only(&dir, None);
        store.put(4, sample_sim());
        assert_eq!(store.stats(Kind::Sim).disk_stores, 0);
        assert_eq!(file_count(&dir), 1, "a temp file was left behind");
        let _ = std::fs::remove_dir_all(&dir);
        // The temp write fails: procfs refuses new files, even to root.
        #[cfg(target_os = "linux")]
        {
            let store = disk_only(Path::new("/proc/self"), None);
            store.put(4, sample_sim());
            assert_eq!(store.stats(Kind::Sim).disk_stores, 0);
        }
    }

    /// The format version of each persisted kind.
    fn version(kind: Kind) -> Option<u32> {
        match kind {
            Kind::Unit => None,
            Kind::Sim => SimResult::CODEC.map(|c| c.version),
            Kind::FuncAnalysis => FuncAnalysisUnit::CODEC.map(|c| c.version),
            Kind::Compile => CompileMemo::CODEC.map(|c| c.version),
        }
    }

    /// The persisted kinds.
    const PERSISTED: [Kind; 3] = [Kind::Sim, Kind::FuncAnalysis, Kind::Compile];

    /// Whether `store` serves `key` as `kind`'s value.
    fn hit(store: &Store, kind: Kind, key: u64) -> bool {
        match kind {
            Kind::Sim => store.get::<SimResult>(key).is_some(),
            Kind::FuncAnalysis => store.get::<FuncAnalysisUnit>(key).is_some(),
            Kind::Compile => store.get::<CompileMemo>(key).is_some(),
            Kind::Unit => unreachable!("memory-only"),
        }
    }

    /// For each persisted kind, a file with any byte flipped, cut short,
    /// holding another kind's sound frame, or carrying the kind's previous
    /// version reads as a miss and is evicted, and a re-store writes the
    /// original bytes back.
    #[test]
    fn every_persisted_kind_evicts_damaged_foreign_and_stale_frames() {
        let dir = temp_dir("frames");
        let store = disk_only(&dir, None);
        let key = 0x5eed;
        let path = |kind: Kind| dir.join(format!("{}-{key:016x}.bin", kind.tag()));
        let put = |kind: Kind| match kind {
            Kind::Sim => store.put(key, sample_sim()),
            Kind::FuncAnalysis => store.put(key, Arc::new(sample_unit())),
            Kind::Compile => store.put(key, sample_compile()),
            Kind::Unit => unreachable!("memory-only"),
        };
        for kind in PERSISTED {
            put(kind);
            let good = std::fs::read(path(kind)).unwrap();
            let version = version(kind).unwrap();
            let mut bad: Vec<Vec<u8>> = (0..good.len())
                .map(|i| {
                    let mut flipped = good.clone();
                    flipped[i] ^= 1 << (i % 8);
                    flipped
                })
                .collect();
            bad.extend((0..good.len()).map(|cut| good[..cut].to_vec()));
            let body = unseal(&good, kind.tag(), version).expect("a sound frame");
            bad.push(seal(kind.tag(), version - 1, |out| {
                out.extend_from_slice(body)
            }));
            for other in PERSISTED.into_iter().filter(|&k| k != kind) {
                put(other);
                bad.push(std::fs::read(path(other)).unwrap());
                std::fs::remove_file(path(other)).unwrap();
            }
            for (n, bytes) in bad.iter().enumerate() {
                std::fs::write(path(kind), bytes).unwrap();
                assert!(!hit(&store, kind, key), "{kind:?}: bad file {n} was served");
                assert!(!path(kind).exists(), "{kind:?}: bad file {n} was kept");
                put(kind);
                assert_eq!(std::fs::read(path(kind)).unwrap(), good, "{kind:?}");
            }
            let s = store.stats(kind);
            assert_eq!(
                (s.disk_hits, s.disk_corrupt_evictions),
                (0, bad.len() as u64)
            );
            assert!(hit(&store, kind, key), "{kind:?}: the re-store is unsound");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn keys_separate_every_input_and_every_kind() {
        let m1 = MachineConfig::default();
        let mut m2 = MachineConfig::default();
        m2.fork_overhead += 1;
        let groups = [
            vec![
                sim_key(1, "main", &[5], &m1),
                sim_key(2, "main", &[5], &m1),
                sim_key(1, "other", &[5], &m1),
                sim_key(1, "main", &[6], &m1),
                sim_key(1, "main", &[5, 0], &m1),
                sim_key(1, "main", &[5], &m2),
            ],
            {
                let input = |entry: &str, arg: i64| ProfilingInput::new(entry, [arg]);
                let key = |input: &ProfilingInput| compile_key(1, input, 100, 256);
                vec![
                    key(&input("main", 5)),
                    compile_key(2, &input("main", 5), 100, 256),
                    key(&input("other", 5)),
                    key(&input("main", 6)),
                    key(&ProfilingInput::new("main", [5, 0])),
                    compile_key(1, &input("main", 5), 101, 256),
                    compile_key(1, &input("main", 5), 100, 255),
                ]
            },
            vec![func_unit_key(10, 0, 99), func_unit_key(11, 0, 99)],
            vec![func_unit_key(10, 1, 99), func_unit_key(10, 0, 98)],
            vec![
                unit_key("src", 1, "main", 40),
                unit_key("src2", 1, "main", 40),
                unit_key("src", 2, "main", 40),
                unit_key("src", 1, "mainx", 40),
                unit_key("src", 1, "main", 41),
                unit_key("srcm", 1, "ain", 40),
            ],
            // Every kind tag and format version starts from its own state,
            // so a store written before a format bump serves nothing after.
            vec![
                kind_hasher(Kind::Unit, None).finish(),
                key_hasher::<SimResult>().finish(),
                key_hasher::<FuncAnalysisUnit>().finish(),
                key_hasher::<CompileMemo>().finish(),
            ],
            PERSISTED
                .map(|k| kind_hasher(k, version(k).map(|v| v - 1)).finish())
                .to_vec(),
        ];
        let mut all: Vec<u64> = groups.concat();
        let n = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n, "two inputs share a key");
    }
}
