//! Property tests for the persistent artifact cache: stores round-trip
//! through a cache directory, corrupted or truncated cache files — and
//! intact ones of another format version — degrade to a cold start instead
//! of panicking, and concurrent writer instances never corrupt each other.

use dfg::{Graph, GraphBuilder, Target};
use kir::{Expr, KernelBuilder, Scalar, Stmt};
use pld::{
    build, ArtifactStore, CacheBackend, CompileOptions, Driver, LoadOp, OptLevel, StageKey,
    StageKind, StageProduct, TieredCache,
};
use proptest::prelude::*;

fn tmp_dir(tag: &str) -> std::path::PathBuf {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .unwrap()
        .as_nanos();
    let dir = std::env::temp_dir().join(format!(
        "pld-cache-props-{tag}-{}-{nanos}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn stage(name: &str, addend: i64) -> kir::Kernel {
    KernelBuilder::new(name)
        .input("in", Scalar::uint(32))
        .output("out", Scalar::uint(32))
        .local("x", Scalar::uint(32))
        .body([Stmt::for_pipelined(
            "i",
            0..16,
            [
                Stmt::read("x", "in"),
                Stmt::write("out", Expr::var("x").add(Expr::cint(addend))),
            ],
        )])
        .build()
        .unwrap()
}

fn pipeline() -> Graph {
    let mut b = GraphBuilder::new("pipe");
    let a = b.add("a", stage("a", 1), Target::hw_auto());
    let c = b.add("c", stage("c", 2), Target::riscv_auto());
    let d = b.add("d", stage("d", 3), Target::hw_auto());
    b.ext_input("Input_1", a, "in");
    b.connect("l1", a, "out", c, "in");
    b.connect("l2", c, "out", d, "in");
    b.ext_output("Output_1", d, "out");
    b.build().unwrap()
}

/// A store holding every product kind the real flow produces.
fn built_store() -> ArtifactStore {
    let mut store = ArtifactStore::new();
    build(&pipeline(), &CompileOptions::new(OptLevel::O1), &mut store).unwrap();
    store
}

fn driver_product(loads: &[u8]) -> StageProduct {
    StageProduct::Driver(std::sync::Arc::new(Driver {
        loads: loads
            .iter()
            .map(|&i| match i % 3 {
                0 => LoadOp::Overlay,
                1 => LoadOp::PageBitstream {
                    artifact: i as usize,
                },
                _ => LoadOp::SoftcoreImage {
                    artifact: i as usize,
                },
            })
            .collect(),
        links: Vec::new(),
    }))
}

fn driver_key(hash: u64) -> StageKey {
    StageKey {
        kind: StageKind::LinkDriver,
        hash,
    }
}

/// `store` written to a fresh cache directory, published, and read back by
/// a second opener.
fn through_a_directory(store: &ArtifactStore, tag: &str) -> ArtifactStore {
    let dir = tmp_dir(tag);
    {
        let mut cache = TieredCache::open(&dir).unwrap();
        cache.absorb(store.clone());
        cache.persist().unwrap();
    }
    let back = TieredCache::open(&dir).unwrap().snapshot();
    std::fs::remove_dir_all(&dir).ok();
    back
}

/// All real product kinds survive a cache directory bit-identically.
#[test]
fn built_store_round_trips() {
    let store = built_store();
    assert!(store.len() >= 7, "want all stage kinds represented");
    assert_eq!(through_a_directory(&store, "round-trip"), store);
}

/// A cache directory written under another format version is a cold start:
/// its segments and index are skipped whole (no error, no panic), nothing in
/// them is served, and the directory takes new writes.
#[test]
fn other_format_versions_are_a_cold_start() {
    // Every cache file leads with an 8-byte magic ending in the format
    // version: two digits since v10, one digit and a NUL before (v2-v4
    // segments and indexes carried a '3').
    for old in [
        *b"3\0", *b"5\0", *b"6\0", *b"7\0", *b"8\0", *b"9\0", *b"11", *b"01",
    ] {
        let dir = tmp_dir("old-version");
        {
            let mut cache = TieredCache::open(&dir).unwrap();
            cache.put(driver_key(1), driver_product(&[1, 2, 3]));
            cache.persist().unwrap();
        }
        for entry in std::fs::read_dir(&dir).unwrap() {
            let path = entry.unwrap().path();
            let mut bytes = std::fs::read(&path).unwrap();
            assert_eq!(
                bytes[6..8],
                *b"10",
                "{path:?} does not lead with the current version"
            );
            bytes[6..8].copy_from_slice(&old);
            std::fs::write(&path, &bytes).unwrap();
        }
        let mut cache = TieredCache::open(&dir).unwrap();
        assert_eq!(CacheBackend::len(&cache), 0, "{:?}", old);
        assert_eq!(cache.fetch(driver_key(1)), None);
        cache.put(driver_key(1), driver_product(&[1, 2, 3]));
        cache.persist().unwrap();
        drop(cache);
        let mut back = TieredCache::open(&dir).unwrap();
        assert_eq!(back.fetch(driver_key(1)), Some(driver_product(&[1, 2, 3])));
        std::fs::remove_dir_all(&dir).ok();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random stores holding every product variant round-trip through a
    /// cache directory, product for product: what an `-O0` and an optimized,
    /// hint-filing `-O1` build of a generated app leave (kernels from
    /// `dfg::generate`, hints from `pnr::extract_hints` on real runs) plus random drivers.
    #[test]
    fn random_store_round_trips(
        seed in any::<u64>(),
        drivers in proptest::collection::vec(
            (any::<u64>(), proptest::collection::vec(any::<u8>(), 0..6)), 0..8),
    ) {
        let app = dfg::generate::generate(&dfg::GenConfig { seed, tokens: 16, max_stages: 3 });
        let o1 = CompileOptions {
            incremental_pnr: true,
            optimize: Some(dfg::OptimizerConfig::default()),
            ..CompileOptions::new(OptLevel::O1)
        };
        let mut store = ArtifactStore::new();
        for options in [&CompileOptions::new(OptLevel::O0), &o1] {
            build(&app.graph, options, &mut store).unwrap();
        }
        for kind in StageKind::ALL {
            prop_assert!(store.count_kind(kind) > 0, "{}: no {} product", app.family, kind);
        }
        let mut keys = Vec::new();
        for (i, (hash, loads)) in drivers.iter().enumerate() {
            // Index-salted hash: duplicate random hashes would trip the
            // keep-first collision debug-assert with unequal products.
            keys.push(driver_key(hash ^ (i as u64) << 48));
            store.insert(keys[i], driver_product(loads));
        }
        let back = through_a_directory(&store, "random-round-trip");
        for key in keys {
            prop_assert_eq!(back.get(key), store.get(key));
        }
        prop_assert!(back == store);
    }

    /// Flipping or truncating any byte of any cache file, or tearing a segment
    /// record's header, never panics and never serves a wrong product: every key either hits with the
    /// original bytes or degrades to a miss, and the cache accepts new
    /// writes afterwards (cold start, not a wedge).
    #[test]
    fn corrupted_cache_files_degrade_to_cold_start(
        file_pick in any::<usize>(),
        pos in any::<usize>(),
        damage in 0u8..3,
        bit in 0u8..8,
    ) {
        let dir = tmp_dir("corrupt");
        let products: Vec<(StageKey, StageProduct)> = (0u64..4)
            .map(|h| (driver_key(h), driver_product(&[h as u8; 3])))
            .collect();
        {
            let mut cache = TieredCache::open(&dir).unwrap();
            for (k, p) in &products {
                cache.put(*k, p.clone());
            }
            cache.persist().unwrap();
        }

        // Corrupt one cache file at an arbitrary position.
        let mut files: Vec<std::path::PathBuf> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        files.sort();
        prop_assert!(!files.is_empty());
        // Records recoverable after the damage, when that is known exactly.
        let mut intact = None;
        let target = if damage == 2 {
            // A torn record header: with the index gone the segment scan
            // reads record `torn`'s un-checksummed length as `u64::MAX`.
            std::fs::remove_file(dir.join("index.pldidx")).unwrap();
            files.iter().find(|f| f.extension().is_some_and(|e| e == "pldseg")).unwrap()
        } else {
            &files[file_pick % files.len()]
        };
        let mut bytes = std::fs::read(target).unwrap();
        if bytes.is_empty() {
            std::fs::remove_dir_all(&dir).ok();
            return Ok(());
        }
        match damage {
            0 => {
                let at = pos % bytes.len();
                bytes[at] ^= 1 << bit;
            }
            1 => bytes.truncate(pos % bytes.len()),
            _ => {
                // [magic 8] then per record [kind 1][hash 8][len 8][sum 8][payload].
                let torn = pos % products.len();
                let mut len_at = 8 + 9;
                for _ in 0..torn {
                    let len = u64::from_le_bytes(bytes[len_at..len_at + 8].try_into().unwrap());
                    len_at += 16 + len as usize + 9;
                }
                bytes[len_at..len_at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
                intact = Some(torn);
            }
        }
        std::fs::write(target, &bytes).unwrap();

        let mut cache = TieredCache::open(&dir).unwrap();
        for (i, (k, p)) in products.iter().enumerate() {
            // A miss is acceptable (degraded to cold start); a hit must be
            // the original product.
            let got = cache.fetch(*k);
            if let Some(got) = &got {
                prop_assert_eq!(got, p, "corruption served wrong product");
            }
            // A torn header loses its record and the rest of the segment,
            // and nothing before it.
            if let Some(intact) = intact {
                prop_assert_eq!(got.is_some(), i < intact, "record {}", i);
            }
        }
        // Still writable: re-put everything and a reopen sees it all.
        for (k, p) in &products {
            cache.put(*k, p.clone());
        }
        cache.persist().unwrap();
        drop(cache);
        let mut back = TieredCache::open(&dir).unwrap();
        for (k, p) in &products {
            let got = back.fetch(*k);
            prop_assert_eq!(got.as_ref(), Some(p));
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Two concurrent writer instances over one directory never corrupt
    /// each other: a fresh open sees the union of both write sets.
    #[test]
    fn concurrent_writers_preserve_both_write_sets(
        n_a in 1usize..6,
        n_b in 1usize..6,
    ) {
        let dir = tmp_dir("writers");
        let write_set = |tag: u64, n: usize| -> Vec<(StageKey, StageProduct)> {
            (0..n as u64)
                .map(|h| (driver_key(tag << 32 | h), driver_product(&[h as u8, tag as u8])))
                .collect()
        };
        let set_a = write_set(1, n_a);
        let set_b = write_set(2, n_b);
        let spawn = |dir: std::path::PathBuf, set: Vec<(StageKey, StageProduct)>| {
            std::thread::spawn(move || {
                let mut cache = TieredCache::open(&dir).unwrap();
                for (k, p) in set {
                    cache.put(k, p);
                }
                cache.persist().unwrap();
            })
        };
        let ta = spawn(dir.clone(), set_a.clone());
        let tb = spawn(dir.clone(), set_b.clone());
        ta.join().unwrap();
        tb.join().unwrap();

        let mut cache = TieredCache::open(&dir).unwrap();
        for (k, p) in set_a.iter().chain(&set_b) {
            let got = cache.fetch(*k);
            prop_assert_eq!(got.as_ref(), Some(p), "lost {}", k);
        }
        prop_assert_eq!(CacheBackend::len(&cache), n_a + n_b);
        std::fs::remove_dir_all(&dir).ok();
    }
}
