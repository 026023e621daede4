//! The tiered artifact cache: one [`CacheBackend`] trait, many stores.
//!
//! [`ArtifactStore`] makes every compile flow a driver over one in-memory
//! content-addressed map; this module makes that map the **L1** of a tiered
//! cache over a persistent on-disk **L2** ([`DiskCache`]), so warm rebuilds
//! survive across processes — the paper's "incremental refinement" loop
//! extended from one editor session to a whole team (and a whole serving
//! fleet) sharing one store directory.
//!
//! * [`CacheBackend`] — the trait every build driver ([`crate::build()`],
//!   [`crate::build_batch`], [`crate::BuildCache`], the runtime's hot swap)
//!   is generic over. [`ArtifactStore`] implements it (memory-only), and so
//!   does [`TieredCache`].
//! * [`TieredCache`] — L1 in-memory store over an optional L2
//!   [`DiskCache`]; fetches promote L2 products into L1, puts write
//!   through. Opening the same directory from many processes (or many
//!   [`Fleet`](crate) devices) shares one cache, and nothing takes a lock.
//!   Nothing is evicted either: the directory keeps every product filed.

pub mod disk;

pub use disk::DiskCache;

use std::io;
use std::path::Path;
use std::sync::Arc;

use crate::store::{
    ArtifactStore, HlsProduct, PnrProduct, SoftProduct, StageKey, StageKind, StageProduct,
};

/// `fn fetch_x: Kind => Variant(Product);`: the product filed under the key
/// of stage `Kind` with hash `hash`, if it is a `Variant`.
macro_rules! typed_fetches {
    ($( $(#[$doc:meta])* fn $name:ident: $kind:ident => $variant:ident($t:ty); )*) => {$(
        $(#[$doc])*
        fn $name(&mut self, hash: u64) -> Option<Arc<$t>> {
            match self.fetch(StageKind::$kind.key(hash))? {
                StageProduct::$variant(p) => Some(p),
                _ => None,
            }
        }
    )*};
}

/// What every compile driver needs from an artifact cache.
///
/// The build graph plans by fetching: one fetch per stage, and a hit *is*
/// the product in hand — a shared handle, never a copy — while a miss of any
/// cause (absent, unreadable on disk) means the stage runs. A fetch
/// may promote across tiers, hence `&mut self`. New products are filed with
/// [`CacheBackend::put`]. Batch compiles take a [`CacheBackend::snapshot`]
/// per farm job and [`CacheBackend::absorb`] the results back.
pub trait CacheBackend {
    /// Whether a product is indexed under `key` in any tier. An index is not
    /// a promise: only [`CacheBackend::fetch`] says whether the product can
    /// still be read.
    fn contains(&self, key: StageKey) -> bool;

    /// Fetches a product — a handle sharing the cache's allocation —
    /// promoting it into the fastest tier on the way.
    fn fetch(&mut self, key: StageKey) -> Option<StageProduct>;

    /// Files a product under its key (keep-first on collision, like
    /// [`ArtifactStore::insert`]).
    fn put(&mut self, key: StageKey, product: StageProduct);

    /// Number of products visible across all tiers.
    fn len(&self) -> usize;

    /// Whether the cache holds nothing.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of visible products of one stage kind.
    fn count_kind(&self, kind: StageKind) -> usize;

    /// A self-contained in-memory view of every visible product — what a
    /// farm job builds against so it never touches the shared cache.
    fn snapshot(&self) -> ArtifactStore;

    /// Absorbs a job's store: every entry not already present is filed
    /// (write-through on tiered backends). Entries already present are
    /// left alone — the keep-first collision policy.
    fn absorb(&mut self, delta: ArtifactStore) {
        for (key, product) in delta.into_entries() {
            if !self.contains(key) {
                self.put(key, product);
            }
        }
    }

    typed_fetches! {
        /// Typed fetch of an HLS product.
        fn fetch_hls: HlsLower => Hls(HlsProduct);
        /// Typed fetch of a P&R product.
        fn fetch_pnr: PlaceRoute => Pnr(PnrProduct);
        /// Typed fetch of a softcore product.
        fn fetch_soft: SoftcoreCc => Soft(SoftProduct);
        /// Typed fetch of a packed artifact.
        fn fetch_pack: BitstreamPack => Pack(crate::artifact::Xclbin);
        /// Typed fetch of a generated driver.
        fn fetch_driver: LinkDriver => Driver(crate::artifact::Driver);
        /// Typed fetch of an optimized-graph product.
        fn fetch_opt: KpnOptimize => Opt(crate::store::OptProduct);
        /// Typed fetch of warm-start P&R hints.
        fn fetch_hints: PnrHints => Hints(crate::store::HintsProduct);
    }
}

/// The in-memory store is the memory-only backend (and the L1 of
/// [`TieredCache`]): exactly the pre-refactor behavior.
impl CacheBackend for ArtifactStore {
    fn contains(&self, key: StageKey) -> bool {
        self.get(key).is_some()
    }

    fn fetch(&mut self, key: StageKey) -> Option<StageProduct> {
        self.get(key).cloned()
    }

    fn put(&mut self, key: StageKey, product: StageProduct) {
        self.insert(key, product);
    }

    fn len(&self) -> usize {
        ArtifactStore::len(self)
    }

    fn count_kind(&self, kind: StageKind) -> usize {
        ArtifactStore::count_kind(self, kind)
    }

    fn snapshot(&self) -> ArtifactStore {
        self.clone()
    }

    fn absorb(&mut self, delta: ArtifactStore) {
        self.merge(delta);
    }
}

/// An L1 in-memory [`ArtifactStore`] over an optional persistent L2
/// [`DiskCache`].
///
/// `TieredCache::new()` is memory-only and behaves exactly like a bare
/// [`ArtifactStore`]; [`TieredCache::open`] attaches a shared store
/// directory. Products fetched out of L2 are promoted into L1; products
/// filed while building are written through to L2 immediately (append-only
/// segments), so a crash loses nothing that was filed. The L2 index is
/// published by [`TieredCache::persist`].
#[derive(Default)]
pub struct TieredCache {
    l1: ArtifactStore,
    l2: Option<DiskCache>,
}

impl TieredCache {
    /// Creates a memory-only cache (no L2).
    pub fn new() -> TieredCache {
        TieredCache::default()
    }

    /// Opens (or creates) a shared persistent cache directory as the L2.
    ///
    /// Lock-free: the index is loaded, then each segment is scanned past
    /// the length the index covers (whole, without an intact index), and
    /// this instance gets its own fresh append segment, so any number of
    /// builder processes can hold the same directory open. Corrupt
    /// index/segment bytes, and files of another format version, degrade to
    /// a cold start, never an error.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors (directory creation); corrupt cache
    /// *contents* are skipped, not reported.
    pub fn open(dir: impl AsRef<Path>) -> io::Result<TieredCache> {
        Ok(TieredCache {
            l1: ArtifactStore::new(),
            l2: Some(DiskCache::open(dir)?),
        })
    }

    /// The L1 in-memory store.
    pub fn l1(&self) -> &ArtifactStore {
        &self.l1
    }

    /// Payload bytes in the persistent tier (0 when memory-only).
    pub fn disk_bytes(&self) -> u64 {
        self.l2.as_ref().map_or(0, DiskCache::live_bytes)
    }

    /// Publishes the L2 index ([`DiskCache::publish`]). A no-op for a
    /// memory-only cache, and for a directory whose index nothing changed.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors from the index publish.
    pub fn persist(&mut self) -> io::Result<()> {
        match &mut self.l2 {
            Some(l2) => l2.publish(),
            None => Ok(()),
        }
    }

    /// Keys only the persistent tier holds (products no fetch has promoted
    /// since the directory was opened). With L1's own counts kept per kind,
    /// one walk of the L2 index sizes the whole cache.
    fn l2_only(&self) -> impl Iterator<Item = StageKey> + '_ {
        self.l2
            .iter()
            .flat_map(DiskCache::keys)
            .filter(|k| self.l1.get(*k).is_none())
    }
}

impl CacheBackend for TieredCache {
    fn contains(&self, key: StageKey) -> bool {
        self.l1.get(key).is_some() || self.l2.as_ref().is_some_and(|l2| l2.contains(key))
    }

    fn fetch(&mut self, key: StageKey) -> Option<StageProduct> {
        if let Some(p) = self.l1.get(key) {
            return Some(p.clone());
        }
        let p = self.l2.as_mut()?.fetch(key)?;
        self.l1.insert(key, p.clone());
        Some(p)
    }

    fn put(&mut self, key: StageKey, product: StageProduct) {
        if let Some(l2) = &mut self.l2 {
            l2.append(key, &product);
        }
        self.l1.insert(key, product);
    }

    fn len(&self) -> usize {
        self.l1.len() + self.l2_only().count()
    }

    fn count_kind(&self, kind: StageKind) -> usize {
        self.l1.count_kind(kind) + self.l2_only().filter(|k| k.kind == kind).count()
    }

    fn snapshot(&self) -> ArtifactStore {
        // L1 is shared by handle; only products no one has fetched yet are
        // read off disk.
        let mut view = self.l1.clone();
        if let Some(l2) = &self.l2 {
            for key in self.l2_only() {
                if let Some(product) = l2.read(key) {
                    view.insert(key, product);
                }
            }
        }
        view
    }
}

impl Drop for TieredCache {
    /// Best-effort index publish so a cache that was never explicitly
    /// persisted still leaves its metadata behind (the segments themselves
    /// were written through at `put` time and survive regardless).
    fn drop(&mut self) {
        if let Some(l2) = &mut self.l2 {
            let _ = l2.publish();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::Driver;

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos();
        let dir = std::env::temp_dir().join(format!(
            "pld-cache-test-{tag}-{}-{nanos}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn driver_product(n: usize) -> StageProduct {
        StageProduct::Driver(Arc::new(Driver {
            loads: vec![crate::artifact::LoadOp::Overlay; n],
            links: Vec::new(),
        }))
    }

    fn key(hash: u64) -> StageKey {
        StageKey {
            kind: StageKind::LinkDriver,
            hash,
        }
    }

    #[test]
    fn memory_only_tiered_cache_matches_artifact_store() {
        let mut tiered = TieredCache::new();
        let mut plain = ArtifactStore::new();
        for h in 0..4 {
            tiered.put(key(h), driver_product(h as usize));
            CacheBackend::put(&mut plain, key(h), driver_product(h as usize));
        }
        assert_eq!(CacheBackend::len(&tiered), CacheBackend::len(&plain));
        for h in 0..4 {
            assert_eq!(tiered.fetch(key(h)), plain.fetch(key(h)));
        }
        assert_eq!(tiered.snapshot(), plain.snapshot());
    }

    #[test]
    fn products_survive_reopen_and_promote_into_l1() {
        let dir = tmp_dir("reopen");
        {
            let mut cache = TieredCache::open(&dir).unwrap();
            cache.put(key(7), driver_product(3));
            cache.persist().unwrap();
        }
        let mut cache = TieredCache::open(&dir).unwrap();
        assert!(cache.contains(key(7)));
        assert!(cache.l1().get(key(7)).is_none(), "not in L1 before fetch");
        assert_eq!(cache.fetch(key(7)), Some(driver_product(3)));
        assert!(cache.l1().get(key(7)).is_some(), "promoted on fetch");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unpersisted_products_recover_from_the_segment_scan() {
        let dir = tmp_dir("scan");
        {
            let mut cache = TieredCache::open(&dir).unwrap();
            cache.put(key(9), driver_product(1));
            // No persist: simulate a crash before the index publish. The
            // Drop publish is also skipped by removing the index after.
        }
        std::fs::remove_file(dir.join("index.pldidx")).ok();
        let mut cache = TieredCache::open(&dir).unwrap();
        assert_eq!(cache.fetch(key(9)), Some(driver_product(1)));
        std::fs::remove_dir_all(&dir).ok();
    }
}
