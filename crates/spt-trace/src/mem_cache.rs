//! Sharded, byte-bounded in-memory LRU for hot compilation artifacts.
//!
//! The compile daemon keeps decoded frontend modules, whole compiled units
//! (transformed module + report renderings), `SimResult`s and
//! per-function analysis/emission units *hot* in front of the on-disk
//! `.spt-cache/`: a warm probe costs one shard lock and an `Arc` clone
//! instead of file I/O plus deserialization. Keys are 64-bit content
//! addresses (FNV over the artifact kind, `Module::content_hash` or
//! `Function::content_hash`, configuration hash, entry, and inputs — see
//! `spt-serve`'s service layer and `spt-core`'s incremental cache), so an
//! entry is immutable: a changed input is a new key, never an in-place
//! update.
//!
//! Layout: `shards` independent [`Mutex`]-guarded maps; a key's shard is
//! picked by its high bits (the low bits already position entries within the
//! map). Each shard enforces `budget / shards` bytes by evicting its
//! least-recently-used entries — recency is a per-shard logical clock bumped
//! on every hit, and eviction scans for the minimum, which is linear but
//! cheap at the entry counts a shard holds (artifacts are kilobytes to
//! megabytes, so a shard's budget caps it at a few hundred entries).
//! An artifact larger than a whole shard budget is simply not admitted
//! (counted as an oversize rejection): the cache is an accelerator and must
//! never be forced over its bound by one giant value.
//!
//! Counters (hits, misses, insertions, evictions, oversize rejections,
//! resident bytes/entries) are per-shard and lock-protected alongside the
//! data, so a [`ShardStats`] snapshot is always internally consistent.

use std::collections::HashMap;
use std::sync::Mutex;

/// One cached value: the artifact plus its billed size.
struct Entry<V> {
    value: V,
    bytes: u64,
    last_used: u64,
}

/// A shard: its map, recency clock, byte occupancy and counters.
struct Shard<V> {
    map: HashMap<u64, Entry<V>>,
    clock: u64,
    bytes: u64,
    hits: u64,
    misses: u64,
    insertions: u64,
    evictions: u64,
    oversize_rejections: u64,
}

impl<V> Default for Shard<V> {
    fn default() -> Self {
        Shard {
            map: HashMap::new(),
            clock: 0,
            bytes: 0,
            hits: 0,
            misses: 0,
            insertions: 0,
            evictions: 0,
            oversize_rejections: 0,
        }
    }
}

/// Counter snapshot of one shard (or the whole cache, summed).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Probes that found their key.
    pub hits: u64,
    /// Probes that did not.
    pub misses: u64,
    /// Values admitted.
    pub insertions: u64,
    /// Values removed to make room.
    pub evictions: u64,
    /// Values refused because they exceed a whole shard's budget.
    pub oversize_rejections: u64,
    /// Resident artifact bytes.
    pub bytes: u64,
    /// Resident entries.
    pub entries: u64,
}

impl ShardStats {
    /// Accumulates `other` into `self` (for whole-cache totals).
    fn absorb(&mut self, other: &ShardStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.insertions += other.insertions;
        self.evictions += other.evictions;
        self.oversize_rejections += other.oversize_rejections;
        self.bytes += other.bytes;
        self.entries += other.entries;
    }
}

/// The sharded byte-bounded LRU. `V` is cloned out on hit, so callers use
/// cheap handles (`Arc<...>`) as values.
pub struct ShardedLru<V> {
    shards: Vec<Mutex<Shard<V>>>,
    shard_budget: u64,
}

impl<V: Clone> ShardedLru<V> {
    /// A cache of `shards` shards splitting `total_budget_bytes` evenly.
    /// `shards` is clamped to at least 1; a zero budget disables admission
    /// entirely (every insert is an oversize rejection), which keeps the
    /// bound trivially enforced rather than special-cased.
    pub fn new(shards: usize, total_budget_bytes: u64) -> Self {
        let shards = shards.max(1);
        ShardedLru {
            shard_budget: total_budget_bytes / shards as u64,
            shards: (0..shards).map(|_| Mutex::new(Shard::default())).collect(),
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Per-shard byte budget.
    pub fn shard_budget(&self) -> u64 {
        self.shard_budget
    }

    fn shard_for(&self, key: u64) -> &Mutex<Shard<V>> {
        // High bits pick the shard: HashMap already consumes the low bits,
        // and FNV mixes the whole word, so either end is well distributed.
        let idx = (key >> 48) as usize % self.shards.len();
        &self.shards[idx]
    }

    /// Looks up `key`, refreshing its recency on hit.
    pub fn get(&self, key: u64) -> Option<V> {
        let mut shard = lock(self.shard_for(key));
        shard.clock += 1;
        let clock = shard.clock;
        match shard.map.get_mut(&key) {
            Some(entry) => {
                entry.last_used = clock;
                let v = entry.value.clone();
                shard.hits += 1;
                Some(v)
            }
            None => {
                shard.misses += 1;
                None
            }
        }
    }

    /// Admits `value` under `key`, evicting least-recently-used entries
    /// until the shard fits its budget. Values larger than the whole shard
    /// budget are rejected. Re-inserting an existing key replaces the value
    /// (keys are content addresses, so the bytes can only be identical —
    /// replacement keeps the accounting exact anyway).
    pub fn insert(&self, key: u64, value: V, bytes: u64) {
        let mut shard = lock(self.shard_for(key));
        if bytes > self.shard_budget {
            shard.oversize_rejections += 1;
            return;
        }
        shard.clock += 1;
        let clock = shard.clock;
        if let Some(old) = shard.map.remove(&key) {
            shard.bytes -= old.bytes;
        }
        while shard.bytes + bytes > self.shard_budget {
            let Some((&victim, _)) = shard.map.iter().min_by_key(|(k, e)| (e.last_used, **k))
            else {
                break;
            };
            if let Some(evicted) = shard.map.remove(&victim) {
                shard.bytes -= evicted.bytes;
                shard.evictions += 1;
            }
        }
        shard.bytes += bytes;
        shard.insertions += 1;
        shard.map.insert(
            key,
            Entry {
                value,
                bytes,
                last_used: clock,
            },
        );
    }

    /// Counter snapshot of shard `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn shard_stats(&self, idx: usize) -> ShardStats {
        let shard = lock(&self.shards[idx]);
        ShardStats {
            hits: shard.hits,
            misses: shard.misses,
            insertions: shard.insertions,
            evictions: shard.evictions,
            oversize_rejections: shard.oversize_rejections,
            bytes: shard.bytes,
            entries: shard.map.len() as u64,
        }
    }

    /// Whole-cache totals (summed over shards).
    pub fn stats(&self) -> ShardStats {
        let mut total = ShardStats::default();
        for i in 0..self.shards.len() {
            total.absorb(&self.shard_stats(i));
        }
        total
    }
}

/// Locks a shard, ignoring poisoning: a panicking holder can only have been
/// inside `get`/`insert`, both of which leave the map and its accounting
/// consistent at every await-free step that can panic (allocator aborts
/// aside, which kill the process anyway).
fn lock<V>(m: &Mutex<Shard<V>>) -> std::sync::MutexGuard<'_, Shard<V>> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_miss_and_counters() {
        let cache: ShardedLru<u32> = ShardedLru::new(4, 4096);
        assert_eq!(cache.get(1), None);
        cache.insert(1, 11, 8);
        assert_eq!(cache.get(1), Some(11));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.insertions), (1, 1, 1));
        assert_eq!(s.bytes, 8);
        assert_eq!(s.entries, 1);
    }

    #[test]
    fn byte_budget_is_enforced_per_shard() {
        // One shard so the arithmetic is exact.
        let cache: ShardedLru<u64> = ShardedLru::new(1, 100);
        for k in 0..10 {
            cache.insert(k, k, 30);
        }
        let s = cache.stats();
        assert!(s.bytes <= 100, "resident {} bytes over budget", s.bytes);
        assert_eq!(s.entries, 3);
        assert_eq!(s.evictions, 7);
    }

    #[test]
    fn lru_evicts_the_coldest() {
        let cache: ShardedLru<u64> = ShardedLru::new(1, 90);
        cache.insert(1, 1, 30);
        cache.insert(2, 2, 30);
        cache.insert(3, 3, 30);
        // Touch 1 so 2 is now the coldest.
        assert_eq!(cache.get(1), Some(1));
        cache.insert(4, 4, 30);
        assert_eq!(cache.get(2), None, "coldest entry should be the victim");
        assert_eq!(cache.get(1), Some(1));
        assert_eq!(cache.get(3), Some(3));
        assert_eq!(cache.get(4), Some(4));
    }

    #[test]
    fn oversize_values_are_rejected_not_admitted() {
        let cache: ShardedLru<u64> = ShardedLru::new(2, 64); // 32/shard
        cache.insert(5, 5, 33);
        assert_eq!(cache.get(5), None);
        let s = cache.stats();
        assert_eq!(s.oversize_rejections, 1);
        assert_eq!(s.bytes, 0);
    }

    #[test]
    fn reinsert_replaces_without_double_billing() {
        let cache: ShardedLru<u64> = ShardedLru::new(1, 100);
        cache.insert(7, 1, 40);
        cache.insert(7, 1, 40);
        let s = cache.stats();
        assert_eq!(s.bytes, 40);
        assert_eq!(s.entries, 1);
    }

    #[test]
    fn zero_budget_admits_nothing() {
        let cache: ShardedLru<u64> = ShardedLru::new(4, 0);
        cache.insert(9, 9, 1);
        assert_eq!(cache.get(9), None);
        assert_eq!(cache.stats().bytes, 0);
    }

    #[test]
    fn keys_spread_over_shards() {
        let cache: ShardedLru<u64> = ShardedLru::new(8, 8 << 20);
        // Mix keys the way the service does (FNV output): high bits vary.
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for i in 0..256u64 {
            h = (h ^ i).wrapping_mul(0x100_0000_01b3);
            cache.insert(h, i, 16);
        }
        let populated = (0..8).filter(|&i| cache.shard_stats(i).entries > 0).count();
        assert!(populated >= 6, "only {populated}/8 shards populated");
    }
}
