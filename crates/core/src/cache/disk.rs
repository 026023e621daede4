//! The persistent on-disk tier: append-only segments plus an index.
//!
//! A cache directory holds three kinds of files:
//!
//! * `seg-<pid>-<n>-<nanos>.pldseg` — append-only **segment** files, one
//!   per writer instance, carrying the actual products. Each record is
//!   `[kind u8][hash u64][cost f64][len u64][sum u64][payload]` (a
//!   `RecordHeader`, then the product) in the crate's one codec, `sum` being
//!   the payload's FNV-1a checksum. A writer only ever appends to its *own*
//!   segment, so any number of concurrent builder processes can write
//!   without locks.
//! * `index.pldidx` — the **index** mapping stage keys to (segment,
//!   offset, length, checksum, cost, last-access) records, plus the LRU
//!   logical clock, with a whole-file FNV trailer. It is published
//!   atomically (temp file + rename) and is strictly a cache of the
//!   segment scan: [`DiskCache::open`] loads it when intact, then scans
//!   every segment for records the index misses, so a torn or stale or
//!   missing index can *lose eviction/LRU metadata* but never products.
//! * `compact.lock` — advisory lock taken with `create_new` by
//!   [`DiskCache::compact`]; everything else is lock-free.
//!
//! Every failure mode degrades: a corrupt index is ignored, a corrupt
//! segment record ends that segment's scan, a checksum-failed read is a
//! miss. Nothing in this module panics on bad bytes.

use std::collections::HashMap;
use std::fs;
use std::io::{self, Read as _, Seek as _, SeekFrom, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{SystemTime, UNIX_EPOCH};

use crate::cache::evict::{eviction_order, EvictCandidate};
use crate::codec::{self, codec_struct, Codec, Cursor};
use crate::flow::fnv;
use crate::store::{StageKey, StageProduct, FORMAT_VERSION};

/// Magic leading every segment file; the digit is the store codec's format
/// version, and a file of another version is skipped like an unreadable one.
const SEG_MAGIC: &[u8; 8] = &versioned(*b"PLDSEG?\0");
/// Magic leading the index file.
const IDX_MAGIC: &[u8; 8] = &versioned(*b"PLDIDX?\0");

/// `magic` with its 7th byte the digit of [`FORMAT_VERSION`].
const fn versioned(mut magic: [u8; 8]) -> [u8; 8] {
    const { assert!(FORMAT_VERSION < 10, "the magic holds one digit") };
    magic[6] = b'0' + FORMAT_VERSION as u8;
    magic
}

/// Index file name within a cache directory.
const INDEX_FILE: &str = "index.pldidx";
/// Advisory compaction lock file name.
const LOCK_FILE: &str = "compact.lock";

/// Distinguishes segments created by the same process in the same nanosecond.
static SEG_SERIAL: AtomicU64 = AtomicU64::new(0);

/// Where one product lives on disk.
#[derive(Debug, Clone, PartialEq)]
struct IndexEntry {
    /// Segment file name (relative to the cache directory).
    seg: String,
    /// Byte offset of the payload within the segment.
    offset: u64,
    /// Payload length in bytes.
    len: u64,
    /// FNV-1a checksum of the payload.
    sum: u64,
    /// Saved virtual seconds on a hit (the recompute cost).
    cost: f64,
    /// Logical access clock at the last fetch (0 = never fetched).
    last_access: u64,
}

codec_struct! { IndexEntry { seg, offset, len, sum, cost, last_access } }

/// What precedes each payload in a segment. Nothing checksums it: `len` is
/// whatever a torn write left there.
struct RecordHeader {
    key: StageKey,
    cost: f64,
    len: usize,
    sum: u64,
}

codec_struct! { RecordHeader { key, cost, len, sum } }

impl RecordHeader {
    /// The encoded header of a record carrying `payload`.
    fn of(key: StageKey, cost: f64, payload: &[u8], sum: u64) -> Vec<u8> {
        codec::encode(&RecordHeader {
            key,
            cost,
            len: payload.len(),
            sum,
        })
    }
}

/// The persistent tier of a [`super::TieredCache`]. See the [module
/// docs](self) for the on-disk layout and concurrency story.
#[derive(Debug)]
pub struct DiskCache {
    dir: PathBuf,
    entries: HashMap<StageKey, IndexEntry>,
    /// Monotonic LRU clock; persisted in the index so recency survives.
    clock: u64,
    /// This writer's private append segment (created on first append).
    seg_name: String,
    seg: Option<fs::File>,
    seg_len: u64,
    /// Whether the in-memory index has diverged from the published file.
    dirty: bool,
}

impl DiskCache {
    /// Opens (or creates) a cache directory.
    ///
    /// Loads the index if intact (any corruption silently discards it),
    /// then scans every segment file to recover records the index misses
    /// — so products appended by writers that crashed before publishing,
    /// or by writers still running, are all visible. Lock-free.
    ///
    /// # Errors
    ///
    /// Only filesystem errors (directory creation/listing) are reported;
    /// corrupt contents degrade to a cold start.
    pub fn open(dir: impl AsRef<Path>) -> io::Result<DiskCache> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        let (mut clock, mut entries) = match fs::read(dir.join(INDEX_FILE)) {
            Ok(bytes) => parse_index(&bytes).unwrap_or_default(),
            Err(_) => Default::default(),
        };
        for name in segment_names(&dir)? {
            if let Ok(bytes) = fs::read(dir.join(&name)) {
                scan_segment(&name, &bytes, &mut entries);
            }
        }
        for e in entries.values() {
            clock = clock.max(e.last_access);
        }
        let nanos = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map_or(0, |d| d.as_nanos() as u64);
        let seg_name = format!(
            "seg-{}-{}-{}.pldseg",
            std::process::id(),
            SEG_SERIAL.fetch_add(1, Ordering::Relaxed),
            nanos
        );
        Ok(DiskCache {
            dir,
            entries,
            clock,
            seg_name,
            seg: None,
            seg_len: 0,
            dirty: false,
        })
    }

    /// The cache directory.
    pub fn dir(&self) -> &PathBuf {
        &self.dir
    }

    /// Number of indexed products.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache indexes nothing.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Live payload bytes across all indexed products (excludes record
    /// headers and dead bytes awaiting compaction).
    pub fn live_bytes(&self) -> u64 {
        self.entries.values().map(|e| e.len).sum()
    }

    /// Whether a product is indexed under `key`.
    pub fn contains(&self, key: StageKey) -> bool {
        self.entries.contains_key(&key)
    }

    /// Every indexed stage key.
    pub fn keys(&self) -> impl Iterator<Item = StageKey> + '_ {
        self.entries.keys().copied()
    }

    /// Bumps `key`'s LRU stamp without reading it (an L1 hit still counts
    /// as recent use of the persistent copy).
    pub fn touch(&mut self, key: StageKey) {
        if let Some(e) = self.entries.get_mut(&key) {
            self.clock += 1;
            e.last_access = self.clock;
            self.dirty = true;
        }
    }

    /// Reads and verifies a product, bumping its LRU stamp. A checksum or
    /// decode failure (torn write, vanished segment) drops the entry and
    /// returns `None` — a miss, never an error.
    pub fn read(&mut self, key: StageKey) -> Option<StageProduct> {
        match self.read_unstamped(key) {
            Some(p) => {
                self.touch(key);
                Some(p)
            }
            None => {
                if self.entries.remove(&key).is_some() {
                    self.dirty = true;
                }
                None
            }
        }
    }

    /// [`DiskCache::read`] without the LRU stamp or entry drop — the
    /// side-effect-free form snapshots use.
    pub fn read_unstamped(&self, key: StageKey) -> Option<StageProduct> {
        let e = self.entries.get(&key)?;
        let mut f = fs::File::open(self.dir.join(&e.seg)).ok()?;
        f.seek(SeekFrom::Start(e.offset)).ok()?;
        let mut payload = vec![0u8; e.len as usize];
        f.read_exact(&mut payload).ok()?;
        if fnv(&payload) != e.sum {
            return None;
        }
        codec::decode(&payload).ok()
    }

    /// Appends a product to this writer's segment and indexes it. The
    /// record (payload + checksum) is durable as soon as this returns;
    /// only the index metadata waits for [`DiskCache::publish`]. Appends
    /// under an already-present key are ignored (keep-first).
    pub fn append(&mut self, key: StageKey, product: &StageProduct, cost: f64) {
        if self.entries.contains_key(&key) {
            return;
        }
        let payload = codec::encode(product);
        let sum = fnv(&payload);
        let mut record = RecordHeader::of(key, cost, &payload, sum);
        let header_len = record.len() as u64;
        record.extend_from_slice(&payload);
        if self.write_record(&record).is_err() {
            // Disk write failed: keep the product out of the index rather
            // than point at bytes that never landed.
            return;
        }
        let offset = self.seg_len + header_len;
        self.seg_len += record.len() as u64;
        self.entries.insert(
            key,
            IndexEntry {
                seg: self.seg_name.clone(),
                offset,
                len: payload.len() as u64,
                sum,
                cost,
                last_access: 0,
            },
        );
        self.dirty = true;
    }

    fn write_record(&mut self, record: &[u8]) -> io::Result<()> {
        if self.seg.is_none() {
            let mut f = fs::File::create(self.dir.join(&self.seg_name))?;
            f.write_all(SEG_MAGIC)?;
            self.seg = Some(f);
            self.seg_len = SEG_MAGIC.len() as u64;
        }
        let f = self.seg.as_mut().expect("segment just created");
        f.write_all(record)?;
        f.flush()
    }

    /// Publishes the index atomically (write to a temp file, rename over
    /// `index.pldidx`). Concurrent publishers race last-writer-wins; a
    /// lost race loses only metadata the next open's segment scan
    /// recovers. No-op when nothing changed.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors from the temp write or rename.
    pub fn publish(&mut self) -> io::Result<()> {
        if !self.dirty {
            return Ok(());
        }
        // Unique per publish, not just per process: two cache instances in
        // one process (threads sharing a dir) must not steal each other's
        // temp file mid-rename.
        let serial = SEG_SERIAL.fetch_add(1, Ordering::Relaxed);
        let tmp = self
            .dir
            .join(format!("{INDEX_FILE}.tmp-{}-{serial}", std::process::id()));
        fs::write(&tmp, self.index_bytes())?;
        fs::rename(&tmp, self.dir.join(INDEX_FILE))?;
        self.dirty = false;
        Ok(())
    }

    /// Evicts lowest saved-vtime-per-byte entries (ties: least recently
    /// used first) until live bytes fit `budget`. Returns the evicted
    /// keys. The freed bytes become dead record space reclaimed by the
    /// next [`DiskCache::compact`]; until then a rescan by a later open
    /// may resurrect them, after which the budget simply re-evicts.
    pub fn enforce_budget(&mut self, budget: u64) -> Vec<StageKey> {
        let mut live = self.live_bytes();
        if live <= budget {
            return Vec::new();
        }
        let candidates: Vec<EvictCandidate> = self
            .entries
            .iter()
            .map(|(key, e)| EvictCandidate {
                key: *key,
                cost_seconds: e.cost,
                bytes: e.len,
                last_access: e.last_access,
            })
            .collect();
        let mut evicted = Vec::new();
        for victim in eviction_order(&candidates) {
            if live <= budget {
                break;
            }
            self.entries.remove(&victim.key);
            live -= victim.bytes;
            evicted.push(victim.key);
        }
        self.dirty = true;
        evicted
    }

    /// Rewrites every indexed product into one fresh segment, publishes
    /// the index, and deletes all other segment files — reclaiming dead
    /// bytes from evictions, supersessions and crashed writers.
    ///
    /// Guarded by the advisory `compact.lock` (`create_new`): returns
    /// `Ok(false)` without touching anything when another process holds
    /// it. Readers stay lock-free; one that loaded its index before a
    /// compaction finds old segments gone and degrades those reads to
    /// misses. Crash-safe: the new segment and index are published via
    /// rename before any old file is deleted, so a crash mid-compaction
    /// leaves at worst extra segments the next open rescans.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors from the rewrite; the lock is always
    /// released.
    pub fn compact(&mut self) -> io::Result<bool> {
        let lock = self.dir.join(LOCK_FILE);
        match fs::OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(&lock)
        {
            Ok(_) => {}
            Err(e) if e.kind() == io::ErrorKind::AlreadyExists => return Ok(false),
            Err(e) => return Err(e),
        }
        let result = self.compact_locked();
        let _ = fs::remove_file(&lock);
        result.map(|()| true)
    }

    fn compact_locked(&mut self) -> io::Result<()> {
        // Materialize every live product first; unreadable ones drop out.
        let mut keys: Vec<StageKey> = self.entries.keys().copied().collect();
        keys.sort_by_key(|k| (k.kind, k.hash));
        let mut live: Vec<(StageKey, StageProduct)> = Vec::with_capacity(keys.len());
        for key in keys {
            match self.read_unstamped(key) {
                Some(p) => live.push((key, p)),
                None => {
                    self.entries.remove(&key);
                }
            }
        }
        // Write the replacement segment under a temp name, then rename.
        let new_name = format!("seg-{}-compact-{}.pldseg", std::process::id(), self.clock);
        let tmp = self.dir.join(format!("{new_name}.tmp"));
        let mut out: Vec<u8> = SEG_MAGIC.to_vec();
        for (key, product) in &live {
            let e = &self.entries[key];
            let (cost, sum, last_access) = (e.cost, e.sum, e.last_access);
            let payload = codec::encode(product);
            let header = RecordHeader::of(*key, cost, &payload, sum);
            let offset = (out.len() + header.len()) as u64;
            out.extend_from_slice(&header);
            out.extend_from_slice(&payload);
            self.entries.insert(
                *key,
                IndexEntry {
                    seg: new_name.clone(),
                    offset,
                    len: payload.len() as u64,
                    sum,
                    cost,
                    last_access,
                },
            );
        }
        fs::write(&tmp, &out)?;
        fs::rename(&tmp, self.dir.join(&new_name))?;
        self.dirty = true;
        self.publish()?;
        // Only now is it safe to drop every other segment — and any index
        // temp file a crashed publisher left behind.
        for name in segment_names(&self.dir)? {
            if name != new_name {
                let _ = fs::remove_file(self.dir.join(&name));
            }
        }
        if let Ok(listing) = fs::read_dir(&self.dir) {
            for entry in listing.flatten() {
                let name = entry.file_name();
                if !name
                    .to_string_lossy()
                    .starts_with(concat!("index.pldidx", ".tmp-"))
                {
                    continue;
                }
                // Only visibly stale temp files: a fresh one may belong to
                // a publisher racing us through its write→rename window.
                let stale = entry
                    .metadata()
                    .and_then(|m| m.modified())
                    .ok()
                    .and_then(|t| t.elapsed().ok())
                    .is_some_and(|age| age.as_secs() > 600);
                if stale {
                    let _ = fs::remove_file(entry.path());
                }
            }
        }
        // This writer's append segment (if any) was deleted too; start a
        // fresh one for future appends.
        self.seg = None;
        self.seg_len = 0;
        self.seg_name = format!(
            "seg-{}-{}-post-compact.pldseg",
            std::process::id(),
            SEG_SERIAL.fetch_add(1, Ordering::Relaxed)
        );
        Ok(())
    }

    fn index_bytes(&self) -> Vec<u8> {
        let mut out = IDX_MAGIC.to_vec();
        self.clock.put(&mut out);
        let mut entries: Vec<_> = self.entries.iter().collect();
        entries.sort_by_key(|(k, _)| (k.kind, k.hash));
        codec::write_pairs(&mut out, &entries);
        codec::seal(&mut out);
        out
    }
}

/// Segment file names in the directory, sorted for deterministic scans.
fn segment_names(dir: &Path) -> io::Result<Vec<String>> {
    let mut names = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name().to_string_lossy().into_owned();
        if name.starts_with("seg-") && name.ends_with(".pldseg") {
            names.push(name);
        }
    }
    names.sort();
    Ok(names)
}

/// Parses an index file; `None` on any corruption (bad magic, short file,
/// checksum mismatch, malformed entry).
fn parse_index(bytes: &[u8]) -> Option<(u64, HashMap<StageKey, IndexEntry>)> {
    let body = codec::unseal(bytes).ok()?.strip_prefix(IDX_MAGIC)?;
    let (clock, entries): (u64, Vec<(StageKey, IndexEntry)>) = codec::decode(body).ok()?;
    Some((clock, entries.into_iter().collect()))
}

/// Scans one segment's bytes, filing records the index missed. A
/// malformed or truncated record ends the scan (append-only files can
/// only be torn at the tail).
fn scan_segment(name: &str, bytes: &[u8], entries: &mut HashMap<StageKey, IndexEntry>) {
    let mut c = Cursor::new(bytes);
    if !c
        .take(SEG_MAGIC.len())
        .is_ok_and(|magic| magic == SEG_MAGIC)
    {
        return;
    }
    while c.remaining() > 0 {
        let Ok(header) = RecordHeader::get(&mut c) else {
            return;
        };
        let offset = c.pos() as u64;
        if c.take(header.len).is_err() {
            return;
        }
        entries.entry(header.key).or_insert(IndexEntry {
            seg: name.to_string(),
            offset,
            len: header.len as u64,
            sum: header.sum,
            cost: header.cost,
            last_access: 0,
        });
    }
}

#[cfg(test)]
mod tests {
    /// One format version: a bump of the store codec's must move the magics,
    /// or a cache directory would decode old payloads with the new codec.
    #[test]
    fn magics_carry_the_store_format_version() {
        let digit = b'0' + crate::store::FORMAT_VERSION as u8;
        assert_eq!((super::SEG_MAGIC[6], super::IDX_MAGIC[6]), (digit, digit));
    }
}
