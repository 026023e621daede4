//! Acceptance tests for the staged build graph: phase-level incrementality
//! (a seed-only edit re-runs P&R against the cached HLS netlist), no-op
//! rebuilds that execute nothing, on-disk store round-trips, and virtual-time
//! recalibration that recompiles nothing because seconds are derived from
//! stored work measures at materialization time.

use dfg::{Graph, GraphBuilder, Target};
use kir::{Expr, KernelBuilder, Scalar, Stmt};
use pld::{
    build, compile, ArtifactStore, CacheBackend, CompileOptions, OptLevel, StageKind, TieredCache,
    VtimeModel,
};

fn kernel(name: &str, value: Expr) -> kir::Kernel {
    KernelBuilder::new(name)
        .input("in", Scalar::uint(32))
        .output("out", Scalar::uint(32))
        .local("x", Scalar::uint(32))
        .body([Stmt::for_pipelined(
            "i",
            0..32,
            [Stmt::read("x", "in"), Stmt::write("out", value)],
        )])
        .build()
        .unwrap()
}

fn stage(name: &str, addend: i64) -> kir::Kernel {
    kernel(name, Expr::var("x").add(Expr::cint(addend)))
}

fn pipeline(addends: [i64; 3], targets: [Target; 3]) -> Graph {
    let mut b = GraphBuilder::new("pipe");
    let a = b.add("a", stage("a", addends[0]), targets[0]);
    let c = b.add("c", stage("c", addends[1]), targets[1]);
    let d = b.add("d", stage("d", addends[2]), targets[2]);
    b.ext_input("Input_1", a, "in");
    b.connect("l1", a, "out", c, "in");
    b.connect("l2", c, "out", d, "in");
    b.ext_output("Output_1", d, "out");
    b.build().unwrap()
}

fn hw3() -> [Target; 3] {
    [Target::hw_auto(), Target::hw_auto(), Target::hw_auto()]
}

#[test]
fn seed_only_change_redoes_pnr_but_reuses_hls_netlists() {
    let g = pipeline([1, 2, 3], hw3());
    let mut store = ArtifactStore::new();
    let opts = CompileOptions::new(OptLevel::O1);
    let (_, first) = build(&g, &opts, &mut store).unwrap();
    assert_eq!(first.executions(StageKind::HlsLower), 3);
    assert_eq!(first.executions(StageKind::PlaceRoute), 3);

    let reseeded = CompileOptions { seed: 99, ..opts };
    let (app, report) = build(&g, &reseeded, &mut store).unwrap();
    // Per operator: HLS hit, P&R + pack executed.
    assert_eq!(report.hits(StageKind::HlsLower), 3);
    assert_eq!(report.executions(StageKind::HlsLower), 0);
    assert_eq!(report.executions(StageKind::PlaceRoute), 3);
    assert_eq!(report.executions(StageKind::BitstreamPack), 3);
    // The reseeded build is cheaper than from scratch by exactly the HLS
    // phase: executed time has hls == 0 while the fresh estimate does not.
    assert_eq!(app.vtime_serial.hls, 0.0);
    assert!(report.fresh_vtime_serial.hls > 0.0);
    assert!(app.vtime_serial.pnr > 0.0);
}

#[test]
fn noop_rebuild_executes_zero_stages() {
    let g = pipeline([1, 2, 3], hw3());
    let mut store = ArtifactStore::new();
    let opts = CompileOptions::new(OptLevel::O1);
    let (first, _) = build(&g, &opts, &mut store).unwrap();
    let (second, report) = build(&g, &opts, &mut store).unwrap();
    assert_eq!(report.total_executions(), 0);
    assert_eq!(report.hit_rate(), 1.0);
    assert_eq!(report.critical_path_seconds, 0.0);
    assert_eq!(second.vtime_parallel.total(), 0.0);
    // Identical outputs, down to the artifact hashes and the driver.
    let hashes = |app: &pld::CompiledApp| app.artifacts.iter().map(|x| x.hash).collect::<Vec<_>>();
    assert_eq!(hashes(&first), hashes(&second));
    assert_eq!(first.driver, second.driver);
}

#[test]
fn store_round_trips_through_disk_with_identical_hashes() {
    let g = pipeline(
        [1, 2, 3],
        [Target::hw_auto(), Target::riscv_auto(), Target::hw_auto()],
    );
    let mut store = ArtifactStore::new();
    let opts = CompileOptions::new(OptLevel::O1);
    let (first, _) = build(&g, &opts, &mut store).unwrap();

    let dir = std::env::temp_dir().join(format!("pld-build-graph-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    {
        let mut cache = TieredCache::open(&dir).unwrap();
        cache.absorb(store.clone());
        cache.persist().unwrap();
    }
    let mut back = TieredCache::open(&dir).unwrap();
    assert_eq!(back.snapshot(), store);

    // A build against the reopened directory is a full cache hit and
    // reproduces the artifacts bit-identically.
    let (again, report) = build(&g, &opts, &mut back).unwrap();
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(report.total_executions(), 0);
    for (a, b) in first.artifacts.iter().zip(&again.artifacts) {
        assert_eq!(a.hash, b.hash);
        assert_eq!(a, b);
    }
    assert_eq!(first.driver, again.driver);
}

#[test]
fn vtime_recalibration_recompiles_nothing() {
    let g = pipeline([1, 2, 3], hw3());
    let mut store = ArtifactStore::new();
    let opts = CompileOptions::new(OptLevel::O1);
    let (_, first) = build(&g, &opts, &mut store).unwrap();

    // Double the P&R cost model: stage keys don't cover the vtime model, so
    // nothing re-runs — the stored work measures are just repriced.
    let recal = CompileOptions {
        vtime: VtimeModel {
            pnr_per_work: VtimeModel::default().pnr_per_work * 2.0,
            pnr_fixed: VtimeModel::default().pnr_fixed * 2.0,
            ..VtimeModel::default()
        },
        ..opts
    };
    let (app, report) = build(&g, &recal, &mut store).unwrap();
    assert_eq!(report.total_executions(), 0);
    assert_eq!(app.vtime_parallel.total(), 0.0);
    // The from-scratch estimate reflects the new calibration.
    assert!(report.fresh_vtime_serial.pnr > first.fresh_vtime_serial.pnr * 1.9);
    assert_eq!(report.fresh_vtime_serial.hls, first.fresh_vtime_serial.hls);
}

#[test]
fn fresh_vtime_report_matches_a_fresh_compile() {
    // The report's from-scratch estimate is bit-identical to what a fresh
    // `compile` (empty ephemeral store) records as the app's own cost.
    let g = pipeline(
        [4, 5, 6],
        [Target::hw_auto(), Target::riscv_auto(), Target::hw_auto()],
    );
    let opts = CompileOptions::new(OptLevel::O1);
    let fresh = compile(&g, &opts).unwrap();

    let mut store = ArtifactStore::new();
    build(&g, &opts, &mut store).unwrap(); // warm the store
    let (warm, report) = build(&g, &opts, &mut store).unwrap();
    assert_eq!(report.total_executions(), 0);
    assert_eq!(report.fresh_vtime_serial, fresh.vtime_serial);
    assert_eq!(report.fresh_vtime_parallel, fresh.vtime_parallel);
    // And the warm build's outputs equal the fresh build's.
    let hashes = |app: &pld::CompiledApp| app.artifacts.iter().map(|x| x.hash).collect::<Vec<_>>();
    assert_eq!(hashes(&fresh), hashes(&warm));
}

#[test]
fn stores_are_shared_across_opt_levels() {
    // -O0 and -O1 of the same graph share nothing for hardware targets (the
    // -O0 flow forces softcore), but two -O1 compiles of different graphs
    // share the stages of their common operators — one store serves all.
    let g1 = pipeline([1, 2, 3], hw3());
    // Shares a and c with g1; d has one more operator, so its netlist is new.
    let mut g2 = pipeline([1, 2, 99], hw3());
    g2.operators[2].kernel = kernel("d", Expr::var("x").add(Expr::cint(99)).xor(Expr::cint(1)));
    let mut store = ArtifactStore::new();
    let opts = CompileOptions::new(OptLevel::O1);
    build(&g1, &opts, &mut store).unwrap();
    let (_, report) = build(&g2, &opts, &mut store).unwrap();
    assert_eq!(report.hits(StageKind::HlsLower), 2);
    assert_eq!(report.executions(StageKind::HlsLower), 1);
    assert_eq!(report.executions(StageKind::PlaceRoute), 1);
}

/// `a → b → c → d`: `a` and `c` on hardware, `b` and `d` on softcores, each
/// softcore operator with an array of the given number of 64-bit words (30
/// 000 overflow a softcore page's memory). `d` does more work than `b`, so it
/// leads the farm's longest-first order.
fn mixed(words: [u64; 2]) -> Graph {
    let soft = |name: &str, words: u64, passes: usize| {
        let pass = Stmt::for_pipelined(
            "i",
            0..32,
            [Stmt::read("x", "in"), Stmt::write("out", Expr::var("x"))],
        );
        KernelBuilder::new(name)
            .input("in", Scalar::uint(32))
            .output("out", Scalar::uint(32))
            .local("x", Scalar::uint(32))
            .array("buf", Scalar::uint(64), words)
            .body(vec![pass; passes])
            .build()
            .unwrap()
    };
    let mut b = GraphBuilder::new("mixed");
    let a = b.add("a", stage("a", 1), Target::hw_auto());
    let s1 = b.add("b", soft("b", words[0], 1), Target::riscv_auto());
    let c = b.add("c", stage("c", 2), Target::hw_auto());
    let s2 = b.add("d", soft("d", words[1], 2), Target::riscv_auto());
    b.ext_input("Input_1", a, "in");
    b.connect("l1", a, "out", s1, "in");
    b.connect("l2", s1, "out", c, "in");
    b.connect("l3", c, "out", s2, "in");
    b.ext_output("Output_1", s2, "out");
    b.build().unwrap()
}

#[test]
fn a_failed_chain_is_the_builds_error_and_the_healthy_ones_are_filed() {
    let too_large = |e: &pld::CompileError| match e {
        pld::CompileError::Softcore {
            op,
            error: softcore::CcError::MemoryTooLarge { .. },
        } => Some(op.clone()),
        _ => None,
    };
    for jobs in [1, 2] {
        let opts = CompileOptions {
            jobs,
            ..CompileOptions::new(OptLevel::O1)
        };
        // One operator fails: its typed error, not a panicked job's.
        let mut store = ArtifactStore::new();
        let err = build(&mixed([30_000, 16]), &opts, &mut store).unwrap_err();
        assert_eq!(
            too_large(&err).as_deref(),
            Some("b"),
            "jobs = {jobs}: {err}"
        );
        // Every healthy chain is filed: both hardware pages whole, and the
        // other softcore operator's compile and pack.
        assert_eq!(store.count_kind(StageKind::HlsLower), 2);
        assert_eq!(store.count_kind(StageKind::PlaceRoute), 2);
        assert_eq!(store.count_kind(StageKind::SoftcoreCc), 1);
        assert_eq!(store.count_kind(StageKind::BitstreamPack), 3);
        assert_eq!(store.count_kind(StageKind::LinkDriver), 0);
        // Fixed, the rebuild runs only the failed operator's chain (and the
        // link).
        let (_, report) = build(&mixed([16, 16]), &opts, &mut store).unwrap();
        assert_eq!(report.hits(StageKind::HlsLower), 2);
        assert_eq!(report.hits(StageKind::PlaceRoute), 2);
        assert_eq!(report.hits(StageKind::SoftcoreCc), 1);
        assert_eq!(report.hits(StageKind::BitstreamPack), 3);
        assert_eq!(report.total_executions(), 3, "jobs = {jobs}");

        // Two operators fail: the error is the first's in operator order,
        // though the other's job is the longer one.
        let mut store = ArtifactStore::new();
        let err = build(&mixed([30_000, 30_000]), &opts, &mut store).unwrap_err();
        assert_eq!(
            too_large(&err).as_deref(),
            Some("b"),
            "jobs = {jobs}: {err}"
        );
        assert_eq!(store.count_kind(StageKind::PlaceRoute), 2);
    }
}
