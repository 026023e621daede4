//! The persistent on-disk tier: append-only segments plus an index.
//!
//! A cache directory holds two kinds of files, and no lock:
//!
//! * `seg-<pid>-<n>-<nanos>.pldseg` — append-only **segment** files, one
//!   per writer instance, carrying the actual products. Each record is
//!   `[kind u8][hash u64][len u64][sum u64][payload]` (a `RecordHeader`,
//!   then the product) in the crate's one codec, `sum` being the FNV-1a
//!   checksum of the key's encoding and the payload. A writer only ever
//!   appends to its *own* segment, so any number of concurrent builder
//!   processes can write without locks.
//! * `index.pldidx` — the **index**: a segment table naming each segment
//!   once with the byte length its records cover, and the stage keys mapped
//!   to (segment number, offset, length, checksum) records — every copy
//!   of a key, when two writers appended it — with a whole-file FNV
//!   trailer. It is overwritten in place at each publish and is a cache of
//!   the segment scan: [`DiskCache::open`] loads it when intact, then
//!   scans each segment only past its covered length (a segment the table
//!   misses from its magic on), so records appended since the publish are
//!   found and nothing the publisher already saw is read again. A torn,
//!   missing or other-version index falls back to scanning every segment
//!   whole, so it costs a scan but never loses a product.
//!
//! Nothing is ever evicted or rewritten: a copy leaves the index only when
//! it fails its checksum, and a read falls back to the key's next copy.
//! Every failure mode degrades: a corrupt index is ignored, a corrupt
//! segment record ends that segment's scan, a read with no copy that
//! verifies is a miss. Nothing in this module panics on bad bytes.

use std::collections::HashMap;
use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::{SystemTime, UNIX_EPOCH};

use crate::codec::{self, codec_struct, Codec, Cursor};
use crate::flow::fnv;
use crate::store::{StageKey, StageProduct};

/// The one on-disk format version, of the cache directory's segments and
/// index. It moves when a product's encoding does (5: `HintsProduct`'s
/// origin; 6: `PnrProduct` without the seed race's fields; 7: `OptProduct`
/// without channel depths) or how keys are derived (8: from input records'
/// codec bytes), or when the directory's layout does (9: the index's
/// segment table, and segment records checksummed with their key; 10:
/// records and index entries without eviction cost or access stamp, an
/// index without an access clock, and with every copy of a key); files of
/// any other version are a cold start.
pub(crate) const FORMAT_VERSION: u32 = 10;

/// Magic leading every segment file; its last two bytes are the decimal
/// digits of [`FORMAT_VERSION`], and a file of another version is skipped
/// like an unreadable one.
const SEG_MAGIC: &[u8; 8] = &versioned(*b"PLDSEG??");
/// Magic leading the index file.
const IDX_MAGIC: &[u8; 8] = &versioned(*b"PLDIDX??");

/// `magic` ending in the two digits of [`FORMAT_VERSION`]. Up to v9 the
/// magic ended in one digit and a NUL, so no older file matches.
const fn versioned(mut magic: [u8; 8]) -> [u8; 8] {
    const { assert!(10 <= FORMAT_VERSION && FORMAT_VERSION < 100, "two digits") };
    magic[6] = b'0' + (FORMAT_VERSION / 10) as u8;
    magic[7] = b'0' + (FORMAT_VERSION % 10) as u8;
    magic
}

/// Index file name within a cache directory.
const INDEX_FILE: &str = "index.pldidx";

/// Distinguishes segments created by the same process in the same nanosecond.
static SEG_SERIAL: AtomicU64 = AtomicU64::new(0);

/// Where one product lives on disk.
#[derive(Debug, Clone, PartialEq)]
struct IndexEntry {
    /// Number of the segment in the index's segment table.
    seg: u32,
    /// Byte offset of the payload within the segment.
    offset: u64,
    /// Payload length in bytes.
    len: u64,
    /// FNV-1a checksum of the key's encoding followed by the payload.
    sum: u64,
}

codec_struct! { IndexEntry { seg, offset, len, sum } }

/// One segment file the index knows.
#[derive(Debug)]
struct Segment {
    /// File name (relative to the cache directory).
    name: String,
    /// Bytes from the file's start that this cache has scanned or written,
    /// ending at a record boundary: the next open scans from here. 0 when
    /// the magic was never read.
    covered: u64,
    /// The handle fetches read through, opened once.
    file: OnceLock<Option<fs::File>>,
}

impl Segment {
    fn new(name: String, covered: u64) -> Segment {
        Segment {
            name,
            covered,
            file: OnceLock::new(),
        }
    }
}

/// What precedes each payload in a segment. `sum` covers `key` with the
/// payload, so a record whose key a flipped bit moved verifies under no key;
/// nothing covers `len`, which is whatever a torn write left there.
struct RecordHeader {
    key: StageKey,
    len: usize,
    sum: u64,
}

codec_struct! { RecordHeader { key, len, sum } }

/// The persistent tier of a [`super::TieredCache`]. See the [module
/// docs](self) for the on-disk layout and concurrency story.
#[derive(Debug)]
pub struct DiskCache {
    dir: PathBuf,
    /// The first copy filed of each key.
    entries: HashMap<StageKey, IndexEntry>,
    /// Further copies of keys in `entries`, filed when two writers
    /// appended the same key: a read falls back to them in turn.
    spares: HashMap<StageKey, Vec<IndexEntry>>,
    /// The segment table: every segment an entry may point at, by number.
    segs: Vec<Segment>,
    /// This writer's private append segment, once created: its number in
    /// `segs` and its write handle. Its `covered` is the bytes written.
    own: Option<(u32, fs::File)>,
    /// Whether the in-memory index has diverged from the published file.
    dirty: bool,
    /// Segment bytes read by the scan at open.
    #[cfg(test)]
    scanned: u64,
}

impl DiskCache {
    /// Opens (or creates) a cache directory.
    ///
    /// Loads the index if intact (any corruption silently discards it),
    /// then scans each segment file past the length the index's segment
    /// table says its records cover — so products appended by writers that
    /// crashed before publishing, or by writers still running, are all
    /// visible, and bytes the publisher already indexed are not read again.
    /// Without an intact index every segment is scanned whole. Lock-free.
    ///
    /// # Errors
    ///
    /// Only filesystem errors (directory creation/listing) are reported;
    /// corrupt contents degrade to a cold start.
    pub fn open(dir: impl AsRef<Path>) -> io::Result<DiskCache> {
        DiskCache::load(dir.as_ref(), false)
    }

    /// [`DiskCache::open`], scanning every segment from its magic on
    /// (`whole`) or only past its covered length.
    fn load(dir: &Path, whole: bool) -> io::Result<DiskCache> {
        fs::create_dir_all(dir)?;
        let (segs, entries, spares) = fs::read(dir.join(INDEX_FILE))
            .ok()
            .and_then(|bytes| parse_index(&bytes))
            .unwrap_or_default();
        let mut cache = DiskCache {
            dir: dir.to_path_buf(),
            entries,
            spares,
            segs: segs
                .into_iter()
                .map(|(name, covered)| Segment::new(name, if whole { 0 } else { covered }))
                .collect(),
            own: None,
            dirty: false,
            #[cfg(test)]
            scanned: 0,
        };
        let known: HashMap<String, u32> = (cache.segs.iter().enumerate())
            .map(|(n, s)| (s.name.clone(), n as u32))
            .collect();
        for (name, len) in segment_files(dir)? {
            let n = match known.get(&name) {
                Some(&n) => n,
                None => cache.add_segment(name, 0),
            };
            cache.scan(n, len);
        }
        Ok(cache)
    }

    /// Files the records of segment `n` (`len` bytes long) past its covered
    /// length, and moves `covered` to the end of the last complete one. A
    /// record still being written ends the scan, and the next open starts
    /// from it again.
    fn scan(&mut self, n: u32, len: u64) {
        let seg = &mut self.segs[n as usize];
        if len <= seg.covered {
            return;
        }
        let Ok(file) = fs::File::open(self.dir.join(&seg.name)) else {
            return;
        };
        let mut from = seg.covered;
        if from < SEG_MAGIC.len() as u64 {
            let mut magic = [0u8; SEG_MAGIC.len()];
            #[cfg(test)]
            {
                self.scanned += magic.len() as u64;
            }
            if read_at(&file, &mut magic, 0).is_err() || magic != *SEG_MAGIC {
                return;
            }
            from = magic.len() as u64;
        }
        let mut bytes = vec![0u8; (len - from) as usize];
        #[cfg(test)]
        {
            self.scanned += bytes.len() as u64;
        }
        if read_at(&file, &mut bytes, from).is_err() {
            return;
        }
        seg.covered = scan_records(n, from, &bytes, &mut self.entries, &mut self.spares);
        // The scan's handle serves this segment's fetches.
        let _ = seg.file.set(Some(file));
    }

    /// Appends `name` to the segment table and returns its number.
    fn add_segment(&mut self, name: String, covered: u64) -> u32 {
        self.segs.push(Segment::new(name, covered));
        (self.segs.len() - 1) as u32
    }

    /// Number of indexed products.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache indexes nothing.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Payload bytes across all indexed products (excludes record headers,
    /// records no key indexes, and copies past a key's first).
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

    /// Reads the product indexed under `key` from the first of its copies
    /// that verifies against its checksum: `None` when the key is not
    /// indexed, or each copy's bytes are gone or torn, or fail the checksum
    /// or the decode.
    pub fn read(&self, key: StageKey) -> Option<StageProduct> {
        let first = self.entries.get(&key)?;
        std::iter::once(first)
            .chain(self.spares.get(&key).into_iter().flatten())
            .find_map(|e| self.read_copy(key, e))
    }

    /// Reads and verifies the copy of `key`'s product at `e`.
    fn read_copy(&self, key: StageKey, e: &IndexEntry) -> Option<StageProduct> {
        let seg = self.segs.get(e.seg as usize)?;
        let file = seg
            .file
            .get_or_init(|| fs::File::open(self.dir.join(&seg.name)).ok())
            .as_ref()?;
        let mut keyed = codec::encode(&key);
        let at = keyed.len();
        keyed.resize(at + e.len as usize, 0);
        read_at(file, &mut keyed[at..], e.offset).ok()?;
        if fnv(&keyed) != e.sum {
            return None;
        }
        codec::decode(&keyed[at..]).ok()
    }

    /// [`DiskCache::read`], dropping each copy that fails to read before
    /// one verifies — with none left, the key is a miss, never an error —
    /// so the next publish forgets them.
    pub fn fetch(&mut self, key: StageKey) -> Option<StageProduct> {
        while let Some(e) = self.entries.get(&key) {
            if let Some(product) = self.read_copy(key, e) {
                return Some(product);
            }
            self.dirty = true;
            let mut rest = self.spares.remove(&key).unwrap_or_default();
            match rest.pop() {
                Some(next) => self.entries.insert(key, next),
                None => self.entries.remove(&key),
            };
            if !rest.is_empty() {
                self.spares.insert(key, rest);
            }
        }
        None
    }

    /// Appends a product to this writer's segment and indexes it. Nothing
    /// syncs the record to the device: it is in the file (and visible to
    /// every opener) once this returns, and the index metadata waits for
    /// [`DiskCache::publish`]. Appends under an already-present key are
    /// ignored (keep-first).
    pub fn append(&mut self, key: StageKey, product: &StageProduct) {
        if self.entries.contains_key(&key) {
            return;
        }
        let mut keyed = codec::encode(&key);
        let at = keyed.len();
        product.put(&mut keyed);
        let (sum, payload) = (fnv(&keyed), &keyed[at..]);
        let mut record = codec::encode(&RecordHeader {
            key,
            len: payload.len(),
            sum,
        });
        let header_len = record.len() as u64;
        record.extend_from_slice(payload);
        let Ok(seg) = self.write_record(&record) else {
            // Disk write failed: keep the product out of the index rather
            // than point at bytes that never landed.
            return;
        };
        let covered = &mut self.segs[seg as usize].covered;
        let offset = *covered + header_len;
        *covered += record.len() as u64;
        self.entries.insert(
            key,
            IndexEntry {
                seg,
                offset,
                len: payload.len() as u64,
                sum,
            },
        );
        self.dirty = true;
    }

    /// Writes `record` at the end of this writer's segment, creating it
    /// first if needed, and returns the segment's number. A failed write may
    /// have landed part of the record, so the segment is given up: the next
    /// record starts a fresh one, and this one's covered length stays at its
    /// last whole record.
    fn write_record(&mut self, record: &[u8]) -> io::Result<u32> {
        if self.own.is_none() {
            let name = fresh_segment_name();
            let path = self.dir.join(&name);
            let mut f = fs::File::create(&path)?;
            if let Err(e) = f.write_all(SEG_MAGIC) {
                let _ = fs::remove_file(&path);
                return Err(e);
            }
            let n = self.add_segment(name, SEG_MAGIC.len() as u64);
            self.own = Some((n, f));
        }
        let (n, f) = self.own.as_mut().expect("segment just created");
        let n = *n;
        if let Err(e) = f.write_all(record) {
            self.own = None;
            return Err(e);
        }
        Ok(n)
    }

    /// Publishes the index by overwriting `index.pldidx` in place. No-op
    /// when nothing changed since the last publish: only an append or a
    /// dropped entry changes the index.
    ///
    /// Not a temp file renamed over the old index: on ext4 a rename over an
    /// existing file forces writeback of the new one, most of a publish's
    /// cost. The index is a checksummed cache of the segment scan, so a
    /// reader that races the write, a crash mid-write, or two publishers
    /// writing at once leave at worst a torn index, which the next open
    /// detects and replaces with a whole scan. Otherwise concurrent
    /// publishers race last-writer-wins, and a lost race loses only
    /// metadata the next open's scan past the covered lengths recovers.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors from the write.
    pub fn publish(&mut self) -> io::Result<()> {
        if !self.dirty {
            return Ok(());
        }
        let bytes = self.index_bytes();
        let mut f = fs::OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(false)
            .open(self.dir.join(INDEX_FILE))?;
        f.write_all(&bytes)?;
        f.set_len(bytes.len() as u64)?;
        self.dirty = false;
        Ok(())
    }

    fn index_bytes(&self) -> Vec<u8> {
        let mut out = IDX_MAGIC.to_vec();
        let segs: Vec<_> = self.segs.iter().map(|s| (&s.name, &s.covered)).collect();
        codec::write_pairs(&mut out, &segs);
        codec::write_pairs(&mut out, &by_key(&self.entries));
        codec::write_pairs(&mut out, &by_key(&self.spares));
        codec::seal(&mut out);
        out
    }
}

/// `map`'s pairs sorted by key, so equal indexes publish equal bytes.
fn by_key<V>(map: &HashMap<StageKey, V>) -> Vec<(&StageKey, &V)> {
    let mut pairs: Vec<_> = map.iter().collect();
    pairs.sort_by_key(|(k, _)| (k.kind, k.hash));
    pairs
}

/// A segment name no other writer uses.
fn fresh_segment_name() -> String {
    let nanos = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos() as u64);
    format!(
        "seg-{}-{}-{}.pldseg",
        std::process::id(),
        SEG_SERIAL.fetch_add(1, Ordering::Relaxed),
        nanos
    )
}

/// Reads exactly `buf.len()` bytes at `offset`, leaving no cursor behind.
#[cfg(unix)]
fn read_at(file: &fs::File, buf: &mut [u8], offset: u64) -> io::Result<()> {
    std::os::unix::fs::FileExt::read_exact_at(file, buf, offset)
}

/// Reads exactly `buf.len()` bytes at `offset`.
#[cfg(not(unix))]
fn read_at(mut file: &fs::File, buf: &mut [u8], offset: u64) -> io::Result<()> {
    use std::io::{Read as _, Seek as _};
    file.seek(io::SeekFrom::Start(offset))?;
    file.read_exact(buf)
}

/// Segment file names in the directory with their lengths, sorted for
/// deterministic scans.
fn segment_files(dir: &Path) -> io::Result<Vec<(String, u64)>> {
    let mut files = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name().to_string_lossy().into_owned();
        if name.starts_with("seg-") && name.ends_with(".pldseg") {
            // A file gone since the listing is skipped like an empty one.
            let len = entry.metadata().map_or(0, |m| m.len());
            files.push((name, len));
        }
    }
    files.sort();
    Ok(files)
}

/// What an index file holds: the segment table as (name, covered length)
/// rows, the first copy of each key, and the keys' further copies.
type Index = (
    Vec<(String, u64)>,
    HashMap<StageKey, IndexEntry>,
    HashMap<StageKey, Vec<IndexEntry>>,
);

/// Parses an index file; `None` on any corruption (bad magic, short file,
/// checksum mismatch, malformed entry, an entry naming no segment, a
/// further copy of a key with no first). The entries, written as a `Vec`
/// of pairs, are read straight into the map.
fn parse_index(bytes: &[u8]) -> Option<Index> {
    let body = codec::unseal(bytes).ok()?.strip_prefix(IDX_MAGIC)?;
    let mut c = Cursor::new(body);
    let segs = Vec::<(String, u64)>::get(&mut c).ok()?;
    let known = |e: &IndexEntry| (e.seg as usize) < segs.len();
    let n = c.len_prefix().ok()?;
    let mut entries = HashMap::with_capacity(n);
    for _ in 0..n {
        let (key, e) = <(StageKey, IndexEntry)>::get(&mut c).ok()?;
        if !known(&e) {
            return None;
        }
        entries.insert(key, e);
    }
    let mut spares = HashMap::new();
    for (key, copies) in Vec::<(StageKey, Vec<IndexEntry>)>::get(&mut c).ok()? {
        if !entries.contains_key(&key) || !copies.iter().all(known) {
            return None;
        }
        spares.insert(key, copies);
    }
    (c.remaining() == 0).then_some((segs, entries, spares))
}

/// Files the records in `bytes` — segment `seg` from byte `base` on, a
/// record boundary — as the first copy of their key or, when `entries` has
/// one, a further copy in `spares` (unless it is that same record), and
/// returns where the last complete record ends (`base` if none). A
/// malformed or truncated record ends the scan (append-only files can only
/// be torn at the tail).
fn scan_records(
    seg: u32,
    base: u64,
    bytes: &[u8],
    entries: &mut HashMap<StageKey, IndexEntry>,
    spares: &mut HashMap<StageKey, Vec<IndexEntry>>,
) -> u64 {
    let mut c = Cursor::new(bytes);
    let mut end = 0;
    while c.remaining() > 0 {
        let Ok(header) = RecordHeader::get(&mut c) else {
            break;
        };
        let offset = base + c.pos() as u64;
        if c.take(header.len).is_err() {
            break;
        }
        end = c.pos();
        let copy = IndexEntry {
            seg,
            offset,
            len: header.len as u64,
            sum: header.sum,
        };
        match entries.get(&header.key) {
            None => {
                entries.insert(header.key, copy);
            }
            Some(first) if *first != copy => {
                let more = spares.entry(header.key).or_default();
                if !more.contains(&copy) {
                    more.push(copy);
                }
            }
            Some(_) => {}
        }
    }
    base + end as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::{Driver, LoadOp};
    use crate::store::StageKind;
    use proptest::prelude::*;
    use std::collections::HashSet;
    use std::io::Seek as _;
    use std::sync::Arc;

    fn tmp_dir(tag: &str) -> PathBuf {
        let serial = SEG_SERIAL.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!(
            "pld-disk-test-{tag}-{}-{serial}",
            std::process::id()
        ));
        fs::remove_dir_all(&dir).ok();
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn key(hash: u64) -> StageKey {
        StageKind::LinkDriver.key(hash)
    }

    /// The one product filed under `key(hash)`; sizes vary with the hash.
    fn product(hash: u64) -> StageProduct {
        StageProduct::Driver(Arc::new(Driver {
            loads: vec![LoadOp::Overlay; hash as usize % 7 + 1],
            links: Vec::new(),
        }))
    }

    fn put(cache: &mut DiskCache, hash: u64) {
        cache.append(key(hash), &product(hash));
    }

    /// The file name of `cache`'s own append segment, once it has one.
    fn own_segment(cache: &DiskCache) -> Option<&str> {
        let (n, _) = cache.own.as_ref()?;
        Some(&cache.segs[*n as usize].name)
    }

    /// One format version: a bump must move the magics, or a cache
    /// directory would decode old payloads with the new codec.
    #[test]
    fn magics_carry_the_format_version() {
        assert_eq!(
            (&SEG_MAGIC[..], &IDX_MAGIC[..]),
            (&b"PLDSEG10"[..], &b"PLDIDX10"[..])
        );
    }

    /// A write that fails after part of its record landed gives the segment
    /// up: every product appended afterwards goes to a fresh segment at the
    /// right offset and reads back, before and after a reopen, with the
    /// index and without it.
    #[test]
    fn appends_after_a_failed_write_read_back() {
        let dir = tmp_dir("failed-write");
        let mut cache = DiskCache::open(&dir).unwrap();
        put(&mut cache, 1);
        let torn = own_segment(&cache).unwrap().to_string();
        // Five bytes of a record land, then the handle refuses writes.
        let (_, file) = cache.own.as_mut().unwrap();
        file.write_all(&[0xab; 5]).unwrap();
        *file = fs::File::open(dir.join(&torn)).unwrap();
        put(&mut cache, 2);
        assert!(!cache.contains(key(2)), "a failed append is not indexed");
        for hash in 3..7 {
            put(&mut cache, hash);
        }
        assert_ne!(own_segment(&cache), Some(torn.as_str()));
        let served = [1, 3, 4, 5, 6];
        for hash in served {
            assert_eq!(cache.read(key(hash)), Some(product(hash)));
        }
        cache.publish().unwrap();
        drop(cache);
        let back = DiskCache::open(&dir).unwrap();
        for hash in served {
            assert_eq!(back.read(key(hash)), Some(product(hash)));
        }
        fs::remove_file(dir.join(INDEX_FILE)).unwrap();
        let scanned = DiskCache::open(&dir).unwrap();
        for hash in served {
            assert_eq!(scanned.read(key(hash)), Some(product(hash)));
        }
        assert_eq!(scanned.len(), served.len());
        fs::remove_dir_all(&dir).ok();
    }

    /// An open reads what changed since the last publish: nothing when the
    /// index covers every segment, exactly the records appended since when
    /// a writer went on after it published, and every segment whole when
    /// the index is gone.
    #[test]
    fn open_scans_only_past_the_covered_lengths() {
        let dir = tmp_dir("covered");
        let mut a = DiskCache::open(&dir).unwrap();
        for hash in 0..3 {
            put(&mut a, hash);
        }
        a.publish().unwrap();
        drop(a);
        let mut b = DiskCache::open(&dir).unwrap();
        assert_eq!(b.scanned, 0);
        put(&mut b, 3);
        b.publish().unwrap();
        let published = fs::metadata(dir.join(own_segment(&b).unwrap()))
            .unwrap()
            .len();
        put(&mut b, 4);
        let seg_len = fs::metadata(dir.join(own_segment(&b).unwrap()))
            .unwrap()
            .len();

        let c = DiskCache::open(&dir).unwrap();
        assert_eq!(c.scanned, seg_len - published, "only record 4 is read");
        for hash in 0..5 {
            assert_eq!(c.read(key(hash)), Some(product(hash)));
        }
        b.publish().unwrap();
        drop(b);
        assert_eq!(DiskCache::open(&dir).unwrap().scanned, 0);

        fs::remove_file(dir.join(INDEX_FILE)).unwrap();
        let whole: u64 = segment_files(&dir)
            .unwrap()
            .iter()
            .map(|(_, len)| len)
            .sum();
        let d = DiskCache::open(&dir).unwrap();
        assert_eq!(d.scanned, whole);
        assert_eq!(d.len(), 5);
        fs::remove_dir_all(&dir).ok();
    }

    /// A record another writer is still writing when a cache opens ends
    /// that cache's scan short of it, and what the cache publishes covers
    /// only the records before it: the next open finds it once complete.
    #[test]
    fn a_record_half_written_at_open_is_found_by_the_next_open() {
        let dir = tmp_dir("half-written");
        let mut writer = DiskCache::open(&dir).unwrap();
        put(&mut writer, 1);
        let seg = dir.join(own_segment(&writer).unwrap());
        let whole = fs::read(&seg).unwrap();
        put(&mut writer, 2);
        let record = fs::read(&seg).unwrap()[whole.len()..].to_vec();
        // Roll the file back to half of record 2, as a reader racing the
        // write would see it.
        let half = whole.len() + record.len() / 2;
        fs::OpenOptions::new()
            .write(true)
            .open(&seg)
            .unwrap()
            .set_len(half as u64)
            .unwrap();

        let mut reader = DiskCache::open(&dir).unwrap();
        assert!(reader.contains(key(1)) && !reader.contains(key(2)));
        put(&mut reader, 3);
        reader.publish().unwrap();
        drop(reader);
        let mut f = fs::OpenOptions::new().append(true).open(&seg).unwrap();
        f.write_all(&record[record.len() / 2..]).unwrap();

        let next = DiskCache::open(&dir).unwrap();
        for hash in 1..4 {
            assert_eq!(next.read(key(hash)), Some(product(hash)));
        }
        drop(writer);
        fs::remove_dir_all(&dir).ok();
    }

    /// When two writers filed the same key, a copy that fails its checksum
    /// falls back to the other, whichever copy an open met first. A fetch
    /// drops the copies it finds corrupt, and the published index keeps
    /// every other copy.
    #[test]
    fn a_corrupt_copy_falls_back_to_another_writers_copy() {
        // 0: the copy an open meets second is corrupt; 1: the first one.
        for corrupt in 0..2 {
            let dir = tmp_dir("two-copies");
            let mut writers = [
                DiskCache::open(&dir).unwrap(),
                DiskCache::open(&dir).unwrap(),
            ];
            for w in &mut writers {
                put(w, 1);
                put(w, 2);
            }
            // The index files writer 1's copies; writer 0's are scanned.
            writers[1].publish().unwrap();
            let seg = dir.join(own_segment(&writers[corrupt]).unwrap());
            let e = writers[corrupt].entries[&key(1)].clone();
            let mut bytes = fs::read(&seg).unwrap();
            bytes[(e.offset + e.len - 1) as usize] ^= 1;
            fs::write(&seg, &bytes).unwrap();
            drop(writers);

            let mut cache = DiskCache::open(&dir).unwrap();
            assert_eq!(cache.spares[&key(1)].len(), 1, "both copies filed");
            assert_eq!(cache.read(key(1)), Some(product(1)));
            assert_eq!(cache.fetch(key(1)), Some(product(1)));
            assert_eq!(cache.fetch(key(2)), Some(product(2)));
            let met_corrupt = corrupt == 1;
            assert_eq!(cache.spares.contains_key(&key(1)), !met_corrupt);
            cache.publish().unwrap();
            drop(cache);

            let back = DiskCache::open(&dir).unwrap();
            assert_eq!(back.read(key(1)), Some(product(1)));
            assert_eq!(back.spares.contains_key(&key(1)), !met_corrupt);
            assert_eq!(back.spares[&key(2)].len(), 1, "intact copies stay");
            fs::remove_dir_all(&dir).ok();
        }
    }

    /// One step of [`reopen_serves_what_a_whole_scan_serves`].
    #[derive(Debug)]
    enum Op {
        /// The main writer appends a product.
        Put(u64),
        /// The main writer (`true`) or the second one publishes its index.
        Publish(bool),
        /// The main writer goes away without publishing.
        Drop,
        /// A second, long-lived writer appends a product.
        Second(u64),
        /// The main writer reads every key, dropping what fails to verify.
        ReadAll,
        /// A segment no live writer appends to is cut short.
        Truncate(usize, usize),
        /// One bit of any cache file flips.
        Flip(usize, usize, u8),
        /// The index file is deleted.
        DeleteIndex,
    }

    const KEYS: u64 = 12;

    /// The step a generated `(selector, a, b, bit)` draw stands for.
    fn op((sel, a, b, bit): (u8, usize, usize, u8)) -> Op {
        let hash = a as u64 % KEYS;
        match sel % 13 {
            0..=3 => Op::Put(hash),
            4 | 5 => Op::Publish(a % 2 == 0),
            6 => Op::Drop,
            7 | 8 => Op::Second(hash),
            9 => Op::ReadAll,
            10 => Op::Truncate(a, b),
            11 => Op::Flip(a, b, bit),
            _ => Op::DeleteIndex,
        }
    }

    /// The cache files in `dir`, sorted, minus `skip`.
    fn files(dir: &Path, skip: &[Option<&str>]) -> Vec<PathBuf> {
        let mut files: Vec<PathBuf> = fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| {
                let name = p.file_name().unwrap().to_str().unwrap();
                !skip.contains(&Some(name))
            })
            .collect();
        files.sort();
        files
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Whatever happened to the directory, an open that starts from the
        /// index's covered lengths serves what an open scanning every
        /// segment whole serves. Two exceptions: a key a published index
        /// dropped when it failed its checksum stays dropped, because its
        /// record lies in a covered range; and once a bit flip may have torn
        /// a record header inside a covered range, the whole scan stops
        /// there while the covered open reads on, so it may serve more.
        /// Whatever it serves is the product put.
        #[test]
        fn reopen_serves_what_a_whole_scan_serves(
            draws in proptest::collection::vec(
                (any::<u8>(), any::<usize>(), any::<usize>(), 0u8..8), 1..40),
        ) {
            let dir = tmp_dir("vs-whole-scan");
            let mut main: Option<DiskCache> = None;
            let mut second: Option<DiskCache> = None;
            // Keys each writer dropped and has not yet published.
            let (mut main_drops, mut second_drops) = (HashSet::new(), HashSet::new());
            let mut dropped: HashSet<u64> = HashSet::new();
            let mut flipped = false;
            for step in draws.into_iter().map(op) {
                match step {
                    Op::Put(hash) => {
                        let cache = main.get_or_insert_with(|| DiskCache::open(&dir).unwrap());
                        put(cache, hash);
                    }
                    Op::Publish(is_main) => {
                        let (cache, drops) = if is_main {
                            (&mut main, &mut main_drops)
                        } else {
                            (&mut second, &mut second_drops)
                        };
                        if let Some(cache) = cache {
                            cache.publish().unwrap();
                            dropped.extend(drops.drain());
                        }
                    }
                    Op::Drop => {
                        main = None;
                        main_drops.clear();
                    }
                    Op::Second(hash) => {
                        let cache = second.get_or_insert_with(|| DiskCache::open(&dir).unwrap());
                        put(cache, hash);
                    }
                    Op::ReadAll => {
                        if let Some(cache) = &mut main {
                            for hash in 0..KEYS {
                                if cache.contains(key(hash)) && cache.fetch(key(hash)).is_none() {
                                    main_drops.insert(hash);
                                }
                            }
                        }
                    }
                    Op::Truncate(pick, at) => {
                        let live = [main.as_ref().and_then(own_segment), second.as_ref().and_then(own_segment)];
                        let segs: Vec<PathBuf> = files(&dir, &live)
                            .into_iter()
                            .filter(|p| p.extension().is_some_and(|x| x == "pldseg"))
                            .collect();
                        if !segs.is_empty() {
                            let path = &segs[pick % segs.len()];
                            let len = fs::metadata(path).unwrap().len();
                            let f = fs::OpenOptions::new().write(true).open(path).unwrap();
                            f.set_len(at as u64 % (len + 1)).unwrap();
                        }
                    }
                    Op::Flip(pick, at, bit) => {
                        let all = files(&dir, &[]);
                        if !all.is_empty() {
                            let path = &all[pick % all.len()];
                            let mut bytes = fs::read(path).unwrap();
                            if !bytes.is_empty() {
                                let at = at % bytes.len();
                                bytes[at] ^= 1 << bit;
                                // In place: a writer's handle sees the flip.
                                let mut f = fs::OpenOptions::new().write(true).open(path).unwrap();
                                f.seek(io::SeekFrom::Start(at as u64)).unwrap();
                                f.write_all(&bytes[at..=at]).unwrap();
                                flipped = true;
                            }
                        }
                    }
                    Op::DeleteIndex => {
                        fs::remove_file(dir.join(INDEX_FILE)).ok();
                    }
                }

                let covered = DiskCache::open(&dir).unwrap();
                let whole = DiskCache::load(&dir, true).unwrap();
                for hash in 0..KEYS {
                    let (got, want) = (covered.read(key(hash)), whole.read(key(hash)));
                    if let Some(got) = &got {
                        prop_assert_eq!(got, &product(hash), "key {} served a wrong product", hash);
                    }
                    if want.is_some() && !dropped.contains(&hash) {
                        prop_assert!(got.is_some(), "key {} lost, not dropped by a publish", hash);
                    }
                    if !flipped {
                        prop_assert!(got.is_none() || want.is_some(), "key {} resurrected", hash);
                    }
                }
            }
            drop((main, second));
            fs::remove_dir_all(&dir).ok();
        }
    }
}
