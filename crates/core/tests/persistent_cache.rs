//! Acceptance tests for the persistent shared artifact cache (DESIGN.md
//! §5c): a second builder *process* (modeled as a second `BuildCache`
//! instance over the same directory) rebuilds an edited Rosetta app with
//! zero HLS/P&R executions for the unchanged operators, and warm builds
//! against the persistent store reproduce a fresh compile bit-identically.

use dfg::{Graph, GraphBuilder, Target};
use kir::{Expr, KernelBuilder, Scalar, Stmt, VarDecl};
use pld::{compile, BuildCache, CompileOptions, OptLevel, StageKind};
use rosetta::Scale;

mod common;
use common::hits_and_misses;

fn tmp_dir(tag: &str) -> std::path::PathBuf {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .unwrap()
        .as_nanos();
    let dir = std::env::temp_dir().join(format!(
        "pld-persistent-{tag}-{}-{nanos}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A source edit that changes the operator's content hash without changing
/// its behaviour: an unused scalar local, the IR stand-in for touching the
/// C file.
fn edit_op(graph: &mut Graph, name: &str) {
    let op = graph
        .operators
        .iter_mut()
        .find(|o| o.name == name)
        .unwrap_or_else(|| panic!("no operator {name}"));
    op.kernel.locals.push(VarDecl {
        name: "dbg_spare".into(),
        ty: Scalar::uint(32),
    });
}

fn stage(name: &str, addend: i64) -> kir::Kernel {
    KernelBuilder::new(name)
        .input("in", Scalar::uint(32))
        .output("out", Scalar::uint(32))
        .local("x", Scalar::uint(32))
        .body([Stmt::for_pipelined(
            "i",
            0..32,
            [
                Stmt::read("x", "in"),
                Stmt::write("out", Expr::var("x").add(Expr::cint(addend))),
            ],
        )])
        .build()
        .unwrap()
}

fn pipeline(addends: [i64; 3]) -> Graph {
    let mut b = GraphBuilder::new("pipe");
    let a = b.add("a", stage("a", addends[0]), Target::hw_auto());
    let c = b.add("c", stage("c", addends[1]), Target::hw_auto());
    let d = b.add("d", stage("d", addends[2]), Target::hw_auto());
    b.ext_input("Input_1", a, "in");
    b.connect("l1", a, "out", c, "in");
    b.connect("l2", c, "out", d, "in");
    b.ext_output("Output_1", d, "out");
    b.build().unwrap()
}

/// The ISSUE's acceptance criterion: builder process 2 on the same cache
/// directory rebuilds an edited Rosetta app with zero HLS/P&R executions
/// for unchanged operators and an operator hit rate ≥ 80%.
#[test]
fn second_instance_rebuilds_edited_rosetta_app_warm() {
    let dir = tmp_dir("rosetta-warm");
    let opts = CompileOptions::new(OptLevel::O1);
    let bench = rosetta::spam::bench(Scale::Tiny);

    // Process 1: cold build, persist, exit.
    {
        let mut cache = BuildCache::open_dir(&dir).unwrap();
        cache.compile(&bench.graph, &opts).unwrap();
        assert!(cache.last_report().unwrap().total_executions() > 0);
        cache.persist().unwrap();
    }

    // Process 2: fresh instance over the same directory, one edited
    // operator.
    let mut edited = bench.graph.clone();
    edit_op(&mut edited, "dot_1");
    let mut cache = BuildCache::open_dir(&dir).unwrap();
    let app = cache.compile(&edited, &opts).unwrap();
    let report = cache.last_report().unwrap();

    // Only the edited operator compiles; every other operator is served
    // entirely from the persistent store.
    assert_eq!(report.executions(StageKind::HlsLower), 1);
    assert_eq!(report.executions(StageKind::PlaceRoute), 1);
    for op in &report.operators {
        if op.name != "dot_1" {
            assert_eq!(op.executions, 0, "unchanged {} recompiled", op.name);
        }
    }
    let (warm, cold) = hits_and_misses(&cache);
    let rate = warm as f64 / (warm + cold) as f64;
    assert!(rate >= 0.8, "operator hit rate {rate} below 0.8");

    // Bit-identical to compiling the edited graph from scratch.
    let fresh = compile(&edited, &opts).unwrap();
    let hashes = |app: &pld::CompiledApp| app.artifacts.iter().map(|x| x.hash).collect::<Vec<_>>();
    assert_eq!(hashes(&fresh), hashes(&app));
    assert_eq!(fresh.driver, app.driver);
    std::fs::remove_dir_all(&dir).ok();
}

/// A third no-edit instance executes nothing at all.
#[test]
fn unedited_reopen_executes_zero_stages() {
    let dir = tmp_dir("noop");
    let g = pipeline([1, 2, 3]);
    let opts = CompileOptions::new(OptLevel::O1);
    {
        let mut cache = BuildCache::open_dir(&dir).unwrap();
        cache.compile(&g, &opts).unwrap();
        cache.persist().unwrap();
    }
    let mut cache = BuildCache::open_dir(&dir).unwrap();
    cache.compile(&g, &opts).unwrap();
    let report = cache.last_report().unwrap();
    assert_eq!(report.total_executions(), 0);
    assert_eq!(report.hit_rate(), 1.0);
    std::fs::remove_dir_all(&dir).ok();
}

/// Only an append or a dropped entry changes the index, so a rebuild that
/// hits everything leaves nothing to publish: its persist leaves
/// `index.pldidx` byte for byte as the first persist wrote it.
#[test]
fn a_hit_only_rebuild_publishes_nothing() {
    let dir = tmp_dir("hit-only");
    let g = pipeline([4, 5, 6]);
    let opts = CompileOptions::new(OptLevel::O1);
    let index = dir.join("index.pldidx");
    let mut cache = BuildCache::open_dir(&dir).unwrap();
    cache.compile(&g, &opts).unwrap();
    cache.persist().unwrap();
    let published = std::fs::read(&index).unwrap();

    cache.compile(&g, &opts).unwrap();
    assert_eq!(cache.last_report().unwrap().total_executions(), 0);
    cache.persist().unwrap();
    let after = std::fs::read(&index).unwrap();
    assert!(after == published, "the hit-only rebuild rewrote the index");
    drop(cache);
    std::fs::remove_dir_all(&dir).ok();
}

/// A flipped bit in a segment payload under an intact index: the index still
/// lists the product (`contains` says yes) but its checksum fails (`read`
/// says no). The plan's fetch is a miss, the stage runs again, and the build
/// equals a fresh compile — whichever kind of product took the hit.
#[test]
fn a_corrupt_segment_under_an_intact_index_is_a_miss_not_a_panic() {
    let dir = tmp_dir("bitflip");
    let opts = CompileOptions::new(OptLevel::O1);
    let graph = rosetta::spam::bench(Scale::Tiny).graph;
    let fresh = compile(&graph, &opts).unwrap();
    {
        let mut cache = BuildCache::open_dir(&dir).unwrap();
        cache.compile(&graph, &opts).unwrap();
        cache.persist().unwrap();
    }
    let segments: Vec<(std::path::PathBuf, Vec<u8>)> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "pldseg"))
        .map(|p| (p.clone(), std::fs::read(&p).unwrap()))
        .collect();
    assert!(!segments.is_empty(), "the cold build wrote no segment");

    // One flipped byte in every segment, at an offset that moves through the
    // file from round to round (past the 8-byte magic, up to the last byte),
    // so HLS netlists, P&R products, packed artifacts and the driver all get
    // hit in some round.
    const ROUNDS: usize = 12;
    let hashes = |app: &pld::CompiledApp| app.artifacts.iter().map(|x| x.hash).collect::<Vec<_>>();
    let mut redone = 0;
    for round in 0..ROUNDS {
        for (path, bytes) in &segments {
            let mut bad = bytes.clone();
            let at = 8 + (bad.len() - 9) * round / (ROUNDS - 1);
            bad[at] ^= 0x10;
            std::fs::write(path, bad).unwrap();
        }
        let mut cache = BuildCache::open_dir(&dir).unwrap();
        let app = cache
            .compile(&graph, &opts)
            .unwrap_or_else(|e| panic!("round {round}: {e}"));
        assert_eq!(hashes(&app), hashes(&fresh), "round {round}");
        assert_eq!(app.driver, fresh.driver, "round {round}");
        redone += cache.last_report().unwrap().total_executions();
    }
    assert!(redone > 0, "no round's flip landed in a product");
    std::fs::remove_dir_all(&dir).ok();
}
