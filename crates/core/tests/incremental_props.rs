//! BuildCache properties: the operator-level hit/miss accounting of its
//! build reports is exact over arbitrary edit sequences — the store is content-addressed, so an edit
//! misses exactly when it produces a version never compiled before, and
//! reverting to any previously built version is a hit — and a
//! page-assignment-only change is treated as dirty (an artifact is only
//! reusable on the page it was built for). With warm-start P&R on, whatever
//! route an edit sequence took to a version, building that version again
//! executes nothing.

use std::collections::HashSet;

use dfg::{Graph, GraphBuilder, Target};
use kir::{Expr, KernelBuilder, Scalar, Stmt};
use pld::{BuildCache, CompileOptions, OptLevel, StageKind};
use proptest::prelude::*;

mod common;
use common::hits_and_misses;

fn stage(name: &str, addend: i64) -> kir::Kernel {
    KernelBuilder::new(name)
        .input("in", Scalar::uint(32))
        .output("out", Scalar::uint(32))
        .local("x", Scalar::uint(32))
        .body([Stmt::for_pipelined(
            "i",
            0..8,
            [
                Stmt::read("x", "in"),
                Stmt::write("out", Expr::var("x").add(Expr::cint(addend))),
            ],
        )])
        .build()
        .unwrap()
}

fn pipeline(addends: [i64; 4]) -> Graph {
    let mut b = GraphBuilder::new("pipe");
    let mut prev = None;
    for (i, &addend) in addends.iter().enumerate() {
        let id = b.add(
            format!("s{i}"),
            stage(&format!("s{i}"), addend),
            Target::riscv_auto(),
        );
        match prev {
            None => b.ext_input("Input_1", id, "in"),
            Some(p) => {
                b.connect(format!("l{i}"), p, "out", id, "in");
            }
        }
        prev = Some(id);
    }
    b.ext_output("Output_1", prev.unwrap(), "out");
    b.build().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Across any edit sequence, every operator compile is exactly one hit
    /// or one miss — hits + misses == builds × operators — and the misses
    /// are exactly the edits that produce a version the content-addressed
    /// store has never compiled before. Reverting to any earlier version is
    /// a hit: the store keeps every version, like a Makefile plus ccache.
    #[test]
    fn cache_accounting_is_exact_over_edit_sequences(
        edits in proptest::collection::vec((0usize..4, 1i64..6), 0..8),
    ) {
        let n_builds = edits.len() + 1;
        let mut addends = [1i64, 2, 3, 4];
        let mut seen: [HashSet<i64>; 4] = Default::default();
        for (op, &a) in addends.iter().enumerate() {
            seen[op].insert(a);
        }
        let mut cache = BuildCache::new();
        let opts = CompileOptions::new(OptLevel::O0);

        cache.compile(&pipeline(addends), &opts).unwrap();
        let (mut hits, mut misses) = hits_and_misses(&cache);
        prop_assert_eq!((hits, misses), (0, 4));

        let mut expected_hits = 0;
        let mut expected_misses = 4;
        for (op, addend) in edits {
            let fresh = seen[op].insert(addend);
            addends[op] = addend;
            cache.compile(&pipeline(addends), &opts).unwrap();
            let (h, m) = hits_and_misses(&cache);
            (hits, misses) = (hits + h, misses + m);
            expected_misses += fresh as usize;
            expected_hits += 4 - fresh as usize;
            prop_assert_eq!(hits, expected_hits);
            prop_assert_eq!(misses, expected_misses);

            // Stage-level accounting agrees: a softcore operator is two
            // stages (compile + pack); only a freshly edited one executes.
            // (The app-wide LinkDriver stage is keyed on the whole artifact
            // vector, so it may legitimately execute even on a revert.)
            let report = cache.last_report().unwrap();
            prop_assert_eq!(report.executions(StageKind::SoftcoreCc), fresh as u64);
            prop_assert_eq!(report.hits(StageKind::SoftcoreCc), 4 - fresh as u64);
            prop_assert_eq!(report.executions(StageKind::BitstreamPack), fresh as u64);
            prop_assert_eq!(report.hits(StageKind::BitstreamPack), 4 - fresh as u64);
            let driver = report.hits(StageKind::LinkDriver)
                + report.executions(StageKind::LinkDriver);
            prop_assert_eq!(driver, 1);
        }
        prop_assert_eq!(hits + misses, 4 * n_builds);
    }
}

/// One operator version of the hardware pipeline below: its addend (a new
/// one alone leaves the netlist as it was), whether its body has one more
/// operator (a structural edit small enough for the warm start to hold),
/// whether its body is the heavy one (an edit large enough to trip warm
/// P&R's quality guard when it arrives or leaves), and whether it is
/// retargeted to RISC-V.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Version {
    addend: i64,
    grown: bool,
    heavy: bool,
    riscv: bool,
}

fn hw_pipeline(versions: &[Version; 3]) -> Graph {
    let mut b = GraphBuilder::new("hw_pipe");
    let mut prev = None;
    for (i, v) in versions.iter().enumerate() {
        let x = || Expr::var("x");
        let mut value = x().add(Expr::cint(v.addend));
        if v.grown {
            value = value.xor(Expr::cint(1));
        }
        for k in 1..=if v.heavy { 6 } else { 0 } {
            value = value
                .mul(x().add(Expr::cint(k)))
                .xor(x().shr(Expr::cint(k)));
        }
        let name = format!("s{i}");
        let kernel = KernelBuilder::new(&name)
            .input("in", Scalar::uint(32))
            .output("out", Scalar::uint(32))
            .local("x", Scalar::uint(32))
            .body([Stmt::for_pipelined(
                "i",
                0..16,
                [Stmt::read("x", "in"), Stmt::write("out", value)],
            )])
            .build()
            .unwrap();
        let page = i as u32;
        let target = if v.riscv {
            Target::riscv(page)
        } else {
            Target::hw(page)
        };
        let id = b.add(name, kernel, target);
        match prev {
            None => b.ext_input("Input_1", id, "in"),
            Some(p) => {
                b.connect(format!("l{i}"), p, "out", id, "in");
            }
        }
        prev = Some(id);
    }
    b.ext_output("Output_1", prev.unwrap(), "out");
    b.build().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The paper's Sec. 6 promise, "only the pages with changing logic are
    /// recompiled", at its limit: no logic changed, so nothing is compiled.
    /// Over seeded edit sequences through one on-disk `BuildCache` with
    /// `incremental_pnr` on — new constants that leave the netlist as it
    /// was, small structural edits that survive the warm start, large ones
    /// that fall back, retargets to RISC-V and back, returns to
    /// an earlier version — every build immediately repeated executes no
    /// stage, returns the same artifacts and leaves no page to reload; also
    /// when the cache is persisted, dropped and reopened in between.
    #[test]
    fn a_no_change_rebuild_executes_nothing(
        edits in proptest::collection::vec(
            (0usize..3, 0u8..6, 1i64..4, any::<bool>()), 1..6),
    ) {
        let dir = std::env::temp_dir().join(format!(
            "pld-incr-props-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        let opts = CompileOptions {
            incremental_pnr: true,
            ..CompileOptions::new(OptLevel::O1)
        };
        let start = |addend| Version { addend, grown: false, heavy: false, riscv: false };
        let mut versions = [start(11), start(12), start(13)];
        let mut history = vec![versions];
        let mut cache = BuildCache::open_dir(&dir).unwrap();
        cache.compile(&hw_pipeline(&versions), &opts).unwrap();

        for (op, kind, pick, reopen) in edits {
            let v = &mut versions[op];
            match kind {
                0 => v.addend += pick,
                1 => v.grown = !v.grown,
                2 => v.heavy = !v.heavy,
                3 => v.riscv = true,
                4 => v.riscv = false,
                _ => *v = history[pick as usize % history.len()][op],
            }
            history.push(versions);
            let graph = hw_pipeline(&versions);
            let app = cache.compile(&graph, &opts).unwrap();
            if reopen {
                cache.persist().unwrap();
                drop(cache);
                cache = BuildCache::open_dir(&dir).unwrap();
            }

            let again = cache.compile(&graph, &opts).unwrap();
            let report = cache.last_report().unwrap();
            prop_assert_eq!(report.total_executions(), 0, "{:?}", &report.stages);
            prop_assert_eq!(again.compile_seconds(), 0.0);
            let artifacts = |app: &pld::CompiledApp| -> Vec<_> {
                let hash_of = |a: Option<usize>| app.artifacts[a.unwrap()].hash;
                app.operators.iter().map(|o| (o.page, hash_of(o.artifact))).collect()
            };
            prop_assert_eq!(artifacts(&again), artifacts(&app), "a page would reload");
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Swapping two operators' insertion order changes nothing about their
/// sources — only the automatic page assignment. The cache must still
/// recompile both: an artifact is bound to the page it was built for.
#[test]
fn page_assignment_only_change_is_dirty() {
    let two = |reversed: bool| -> Graph {
        let mut b = GraphBuilder::new("two");
        let addend = |name: &str| if name == "a" { 1 } else { 2 };
        let (first, second) = if reversed { ("b", "a") } else { ("a", "b") };
        let f = b.add(first, stage(first, addend(first)), Target::riscv_auto());
        let s = b.add(second, stage(second, addend(second)), Target::riscv_auto());
        let (a, bb) = if reversed { (s, f) } else { (f, s) };
        b.ext_input("Input_1", a, "in");
        b.connect("l", a, "out", bb, "in");
        b.ext_output("Output_1", bb, "out");
        b.build().unwrap()
    };

    let mut cache = BuildCache::new();
    let opts = CompileOptions::new(OptLevel::O0);
    let app1 = cache.compile(&two(false), &opts).unwrap();
    assert_eq!(hits_and_misses(&cache), (0, 2));

    let g1 = two(false);
    let g2 = two(true);
    let app2 = cache.compile(&g2, &opts).unwrap();
    let page_of = |app: &pld::CompiledApp, name: &str| {
        app.operators
            .iter()
            .find(|o| o.name == name)
            .unwrap()
            .page
            .unwrap()
    };
    for name in ["a", "b"] {
        // The sources are bit-identical: same kernel, same declared target.
        let op1 = g1.operators.iter().find(|o| o.name == name).unwrap();
        let op2 = g2.operators.iter().find(|o| o.name == name).unwrap();
        assert_eq!(format!("{:?}", op1.kernel), format!("{:?}", op2.kernel));
        assert_eq!(op1.target, op2.target);
        // ...but the automatic assignment moved both operators.
        assert_ne!(page_of(&app1, name), page_of(&app2, name));
    }
    // A pure page move reuses nothing: softcore images are packed for their
    // page and the resolved target (hence the content hash) names it.
    assert_eq!(hits_and_misses(&cache), (0, 2));
}

/// ROADMAP item 1c, pinned as it stands: hints are filed only by a P&R run,
/// so a version whose `PlaceRoute` stage hit (a new constant leaves the
/// netlist, and so the stage key, as it was) files no hint for its kernel
/// version, and the structural edit after it finds no hint of the version
/// it edits and places cold. The same edit made straight from the placed
/// version warm-starts.
#[test]
fn the_edit_after_a_hit_only_version_places_cold() {
    let opts = CompileOptions {
        incremental_pnr: true,
        ..CompileOptions::new(OptLevel::O1)
    };
    let start = |addend| Version {
        addend,
        grown: false,
        heavy: false,
        riscv: false,
    };
    let placed = [start(11), start(12), start(13)];
    let mut constant = placed;
    constant[0].addend += 1;
    let grown = |mut versions: [Version; 3]| {
        versions[0].grown = true;
        hw_pipeline(&versions)
    };
    // (P&R runs, hint lookups, hint hits, warm-started runs) of a build.
    let placement = |cache: &BuildCache| {
        let r = cache.last_report().unwrap();
        let pnr = r.executions(StageKind::PlaceRoute);
        (pnr, r.hint_fetches, r.hint_hits, r.warm_pnr_ops)
    };

    let mut cache = BuildCache::new();
    cache.compile(&hw_pipeline(&placed), &opts).unwrap();
    cache.compile(&grown(placed), &opts).unwrap();
    assert_eq!(placement(&cache), (1, 1, 1, 1), "straight edit: warm");

    let mut cache = BuildCache::new();
    cache.compile(&hw_pipeline(&placed), &opts).unwrap();
    cache.compile(&hw_pipeline(&constant), &opts).unwrap();
    assert_eq!(
        placement(&cache),
        (0, 0, 0, 0),
        "the constant edit's P&R hits"
    );
    cache.compile(&grown(constant), &opts).unwrap();
    assert_eq!(placement(&cache), (1, 1, 0, 0), "the edit after it: cold");
}
