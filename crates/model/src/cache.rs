//! The latent cache (§4.2.2).
//!
//! P1 computes the metadata tower's per-layer latents; P2's content tower
//! needs exactly those latents as its cross-attention keys/values. The
//! cache stores them between phases so P2 never recomputes the metadata
//! tower — the mechanism behind the *TASTE without caching* ablation's
//! slowdown (§6.3). Keys are `(table, chunk)` pairs; capacity is bounded
//! with FIFO eviction (entries are written once and read at most once in
//! a normal two-phase pass). Cached latents are plain matrices, not tape
//! nodes: P2 re-enters whichever execution backend serves the request
//! (see [`taste_nn::Forward`]) by loading them as leaves.
//!
//! ## Persistence
//!
//! A resumed detection run ([`save`](LatentCache::save) /
//! [`restore`](LatentCache::restore)) can keep its P1 latents across a
//! process death: entries are the records of a
//! [`taste_core::durable::FramedLog`], so a torn write at process kill
//! truncates cleanly and a bit-rotted entry is detected, skipped, and
//! counted instead of silently skewing P2 inference. A record whose
//! checksum holds is still outside input: it is shape- and
//! finiteness-checked ([`CachedMeta::validate`]) before it is cached,
//! because `predict_meta` / `predict_content` index straight into it.

use parking_lot::Mutex;
use rustc_hash::FxHashMap;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::path::Path;
use std::sync::Arc;
use taste_core::durable::FramedLog;
use taste_core::{Result, TableId, TasteError};
use taste_nn::Matrix;

/// Cached output of one metadata-tower pass over one chunk.
#[derive(Debug, Clone)]
pub struct CachedMeta {
    /// Per-layer latents `[Encode_0, ..., Encode_L]`.
    pub layer_latents: Vec<Matrix>,
    /// `[COL]` marker positions within the chunk's metadata sequence.
    pub col_marker_pos: Vec<usize>,
}

impl CachedMeta {
    /// Checks what the model bodies assume of an encoding: at least one
    /// layer, every layer's buffer as long as its shape says, all layers
    /// one shape, every value finite, every marker inside the sequence.
    ///
    /// # Errors
    /// [`TasteError::Corrupt`] naming the first violation.
    pub fn validate(&self) -> Result<()> {
        let shape = self.layer_latents.first().map(Matrix::shape).ok_or_else(|| TasteError::corrupt("no layer latents"))?;
        for (i, m) in self.layer_latents.iter().enumerate() {
            let (rows, cols) = m.shape();
            if rows.checked_mul(cols) != Some(m.len()) {
                return Err(TasteError::corrupt(format!("layer {i}: {} values for shape {rows}x{cols}", m.len())));
            }
            if m.shape() != shape {
                return Err(TasteError::corrupt(format!("layer {i} is {rows}x{cols}, layer 0 is {shape:?}")));
            }
            if !m.all_finite() {
                return Err(TasteError::corrupt(format!("layer {i} contains non-finite values")));
            }
        }
        match self.col_marker_pos.iter().find(|&&p| p >= shape.0) {
            Some(p) => Err(TasteError::corrupt(format!("column marker at row {p} of {}", shape.0))),
            None => Ok(()),
        }
    }
}

/// Cache key: table id plus chunk index within the table.
pub type CacheKey = (TableId, u32);

struct Inner {
    map: FxHashMap<CacheKey, Arc<CachedMeta>>,
    order: VecDeque<CacheKey>,
    hits: u64,
    misses: u64,
}

/// Bounded, thread-safe latent cache.
pub struct LatentCache {
    inner: Mutex<Inner>,
    capacity: usize,
}

impl LatentCache {
    /// Creates a cache bounded to `capacity` entries.
    ///
    /// # Panics
    /// Panics when `capacity == 0`.
    pub fn new(capacity: usize) -> LatentCache {
        assert!(capacity > 0, "cache capacity must be positive");
        LatentCache {
            inner: Mutex::new(Inner {
                map: FxHashMap::default(),
                order: VecDeque::new(),
                hits: 0,
                misses: 0,
            }),
            capacity,
        }
    }

    /// Stores a chunk's metadata latents.
    pub fn put(&self, key: CacheKey, value: Arc<CachedMeta>) {
        let mut inner = self.inner.lock();
        if inner.map.insert(key, value).is_none() {
            inner.order.push_back(key);
            if inner.order.len() > self.capacity {
                if let Some(evicted) = inner.order.pop_front() {
                    inner.map.remove(&evicted);
                }
            }
        }
    }

    /// Fetches a chunk's latents, counting hit/miss.
    pub fn get(&self, key: &CacheKey) -> Option<Arc<CachedMeta>> {
        let mut inner = self.inner.lock();
        match inner.map.get(key).cloned() {
            Some(v) => {
                inner.hits += 1;
                Some(v)
            }
            None => {
                inner.misses += 1;
                None
            }
        }
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.inner.lock().map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `(hits, misses)` counters.
    pub fn stats(&self) -> (u64, u64) {
        let inner = self.inner.lock();
        (inner.hits, inner.misses)
    }

    /// Clears entries and counters.
    pub fn clear(&self) {
        let mut inner = self.inner.lock();
        inner.map.clear();
        inner.order.clear();
        inner.hits = 0;
        inner.misses = 0;
    }

    /// Persists every cached entry to `path` as one [`FramedLog`],
    /// rewritten atomically — so neither a crash mid-save nor a power
    /// loss after it leaves a half-written cache under the real name.
    /// Returns the number of entries written.
    pub fn save(&self, path: &Path) -> Result<usize> {
        let mut payloads = Vec::new();
        {
            let inner = self.inner.lock();
            // Insertion order keeps the file deterministic for a given
            // run and preserves FIFO age across a save/restore cycle.
            for key in &inner.order {
                let Some(value) = inner.map.get(key) else { continue };
                let entry = PersistedEntry {
                    table: key.0 .0,
                    chunk: key.1,
                    layer_latents: value.layer_latents.clone(),
                    col_marker_pos: value.col_marker_pos.clone(),
                };
                payloads.push(
                    serde_json::to_vec(&entry).map_err(|e| TasteError::Serde(format!("cache entry encode: {e}")))?,
                );
            }
        }
        FramedLog::at(path).rewrite(payloads.iter().map(Vec::as_slice))?;
        Ok(payloads.len())
    }

    /// Restores entries persisted by [`save`](LatentCache::save) into
    /// this cache (on top of whatever it already holds, subject to the
    /// capacity bound).
    ///
    /// Records that fail their checksum, do not decode, or decode to an
    /// entry that fails [`CachedMeta::validate`] are quarantined —
    /// skipped and counted in [`CacheRestoreStats::corrupt`] — and a torn
    /// tail stops the restore at the last whole record. Neither is an
    /// error: a restored cache is an optimization, and P2 recomputes any
    /// latent that did not survive.
    pub fn restore(&self, path: &Path) -> Result<CacheRestoreStats> {
        let mut loaded = 0;
        // Checksum-valid but undecodable or malformed: written by an
        // incompatible version, or by something that is not this program.
        // Quarantine it too.
        let scan = FramedLog::at(path).scan(false, |payload| {
            let Ok(e) = serde_json::from_slice::<PersistedEntry>(payload) else { return false };
            let meta = CachedMeta { layer_latents: e.layer_latents, col_marker_pos: e.col_marker_pos };
            if meta.validate().is_err() {
                return false;
            }
            self.put((TableId(e.table), e.chunk), Arc::new(meta));
            loaded += 1;
            true
        })?;
        Ok(CacheRestoreStats { loaded, corrupt: scan.corrupt as usize, torn_tail: scan.torn_bytes > 0 })
    }
}

/// One cache entry as persisted on disk.
#[derive(Serialize, Deserialize)]
struct PersistedEntry {
    table: u32,
    chunk: u32,
    layer_latents: Vec<Matrix>,
    col_marker_pos: Vec<usize>,
}

/// What [`LatentCache::restore`] found on disk.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheRestoreStats {
    /// Entries restored intact.
    pub loaded: usize,
    /// Records quarantined for a checksum, decode or validation failure.
    pub corrupt: usize,
    /// Whether the file ended in a torn (partially written) record.
    pub torn_tail: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use taste_core::checksum::encode_record;

    fn entry(n: usize) -> Arc<CachedMeta> {
        Arc::new(CachedMeta {
            layer_latents: vec![Matrix::zeros(n, 4)],
            col_marker_pos: vec![0],
        })
    }

    #[test]
    fn put_get_roundtrip_counts_hits() {
        let cache = LatentCache::new(4);
        let key = (TableId(1), 0);
        assert!(cache.get(&key).is_none());
        cache.put(key, entry(3));
        let got = cache.get(&key).unwrap();
        assert_eq!(got.layer_latents[0].rows(), 3);
        assert_eq!(cache.stats(), (1, 1));
    }

    #[test]
    fn fifo_eviction_respects_capacity() {
        let cache = LatentCache::new(2);
        cache.put((TableId(0), 0), entry(1));
        cache.put((TableId(1), 0), entry(1));
        cache.put((TableId(2), 0), entry(1));
        assert_eq!(cache.len(), 2);
        assert!(cache.get(&(TableId(0), 0)).is_none(), "oldest evicted");
        assert!(cache.get(&(TableId(2), 0)).is_some());
    }

    #[test]
    fn reinsert_does_not_duplicate_order() {
        let cache = LatentCache::new(2);
        cache.put((TableId(0), 0), entry(1));
        cache.put((TableId(0), 0), entry(2));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.get(&(TableId(0), 0)).unwrap().layer_latents[0].rows(), 2);
    }

    #[test]
    fn clear_resets_state() {
        let cache = LatentCache::new(2);
        cache.put((TableId(0), 0), entry(1));
        let _ = cache.get(&(TableId(0), 0));
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.stats(), (0, 0));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_rejected() {
        let _ = LatentCache::new(0);
    }

    fn temp_path(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!(
            "taste-cache-{tag}-{}-{:?}.bin",
            std::process::id(),
            std::thread::current().id()
        ))
    }

    fn filled_cache(n: u32) -> LatentCache {
        let cache = LatentCache::new(64);
        for i in 0..n {
            cache.put((TableId(i), i % 3), entry(1 + i as usize));
        }
        cache
    }

    #[test]
    fn save_restore_roundtrip_preserves_entries() {
        let path = temp_path("roundtrip");
        let cache = filled_cache(5);
        assert_eq!(cache.save(&path).unwrap(), 5);
        let restored = LatentCache::new(64);
        let stats = restored.restore(&path).unwrap();
        assert_eq!(stats, CacheRestoreStats { loaded: 5, corrupt: 0, torn_tail: false });
        assert_eq!(restored.len(), 5);
        for i in 0..5u32 {
            let got = restored.get(&(TableId(i), i % 3)).expect("entry survives");
            let want = cache.get(&(TableId(i), i % 3)).unwrap();
            assert_eq!(got.layer_latents, want.layer_latents);
            assert_eq!(got.col_marker_pos, want.col_marker_pos);
        }
        std::fs::remove_file(&path).ok();
    }

    /// The saved bytes of a fixed cache, pinned by CRC32C at the commit
    /// before the stores moved onto `taste_core::durable`.
    #[test]
    fn saved_bytes_are_pinned() {
        let path = temp_path("pinned");
        let cache = LatentCache::new(8);
        for i in 0..3u32 {
            let layer = |k: f32| Matrix::full(1 + i as usize, 2, k * 0.25 - 0.5);
            let meta = CachedMeta { layer_latents: vec![layer(i as f32), layer(i as f32 + 1.0)], col_marker_pos: vec![0, i as usize] };
            cache.put((TableId(10 + i), i), Arc::new(meta));
        }
        assert_eq!(cache.save(&path).unwrap(), 3);
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!((bytes.len(), taste_core::checksum::crc32c(&bytes)), (527, 0x8c77_1bdb));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_record_is_quarantined_not_fatal() {
        let path = temp_path("corrupt");
        filled_cache(4).save(&path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip a payload byte of the first record (header is 16 bytes).
        bytes[20] ^= 0x55;
        std::fs::write(&path, &bytes).unwrap();
        let restored = LatentCache::new(64);
        let stats = restored.restore(&path).unwrap();
        assert_eq!(stats.corrupt, 1);
        assert_eq!(stats.loaded, 3);
        assert!(!stats.torn_tail);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_stops_at_last_whole_record() {
        let path = temp_path("torn");
        filled_cache(4).save(&path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        // Cut the file mid-way through the final record.
        std::fs::write(&path, &bytes[..bytes.len() - 7]).unwrap();
        let restored = LatentCache::new(64);
        let stats = restored.restore(&path).unwrap();
        assert_eq!(stats.loaded, 3);
        assert!(stats.torn_tail);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn malformed_but_checksum_valid_records_are_quarantined() {
        // Hand-built, correctly framed records: the checksum holds, the
        // JSON decodes, and the entry would panic (or be served) inside
        // `predict_meta` / `predict_content`. One per failure mode
        // `CachedMeta::validate` names, between two intact records.
        let good = |table: u32| format!(
            r#"{{"table":{table},"chunk":0,"layer_latents":[{{"rows":2,"cols":2,"data":[1.0,2.0,3.0,4.0]}},{{"rows":2,"cols":2,"data":[5.0,6.0,7.0,8.0]}}],"col_marker_pos":[0,1]}}"#
        );
        let bad = [
            // A buffer shorter than its declared shape.
            r#"{"table":10,"chunk":0,"layer_latents":[{"rows":2,"cols":2,"data":[1.0]}],"col_marker_pos":[0]}"#,
            // Layers that disagree on rows / width.
            r#"{"table":11,"chunk":0,"layer_latents":[{"rows":2,"cols":1,"data":[1.0,2.0]},{"rows":1,"cols":2,"data":[1.0,2.0]}],"col_marker_pos":[0]}"#,
            // A value no f32 can hold (see `from_json_rejects_non_finite_values`).
            r#"{"table":12,"chunk":0,"layer_latents":[{"rows":1,"cols":2,"data":[1.0,1e39]}],"col_marker_pos":[0]}"#,
            // A column marker past the last row.
            r#"{"table":13,"chunk":0,"layer_latents":[{"rows":2,"cols":1,"data":[1.0,2.0]}],"col_marker_pos":[0,2]}"#,
            // No layers at all.
            r#"{"table":14,"chunk":0,"layer_latents":[],"col_marker_pos":[]}"#,
        ];
        let mut bytes = encode_record(good(1).as_bytes());
        for payload in bad {
            bytes.extend_from_slice(&encode_record(payload.as_bytes()));
        }
        bytes.extend_from_slice(&encode_record(good(2).as_bytes()));
        let path = temp_path("malformed");
        std::fs::write(&path, &bytes).unwrap();

        let restored = LatentCache::new(64);
        let stats = restored.restore(&path).unwrap();
        assert_eq!(stats, CacheRestoreStats { loaded: 2, corrupt: bad.len(), torn_tail: false });
        assert_eq!(restored.len(), 2, "no malformed entry is cached");
        for table in [1, 2] {
            let got = restored.get(&(TableId(table), 0)).expect("intact record loads");
            assert_eq!(got.col_marker_pos, vec![0, 1]);
            assert_eq!(got.layer_latents[1].as_slice(), &[5.0, 6.0, 7.0, 8.0]);
        }
        for table in 10..15 {
            assert!(restored.get(&(TableId(table), 0)).is_none(), "table {table} must not be cached");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn restore_of_missing_file_errors() {
        let restored = LatentCache::new(4);
        assert!(restored.restore(std::path::Path::new("/nonexistent/cache.bin")).is_err());
    }

    #[test]
    fn concurrent_access_is_safe() {
        let cache = Arc::new(LatentCache::new(64));
        let mut handles = Vec::new();
        for t in 0..4 {
            let cache = Arc::clone(&cache);
            handles.push(std::thread::spawn(move || {
                for i in 0..50u32 {
                    let key = (TableId(t), i);
                    cache.put(key, entry(1));
                    assert!(cache.get(&key).is_some() || cache.len() == 64);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert!(cache.len() <= 64);
    }
}
