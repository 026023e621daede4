//! Incremental compilation: rebuild only what changed.
//!
//! "We develop a standard Makefile configuration so only the pages with
//! changing logic must be recompiled" (paper Sec. 6). The [`BuildCache`] is
//! the staged build graph ([`mod@crate::build`]) over a [`TieredCache`],
//! holding the last graph it built. Each build's [`BuildReport`] says which
//! operators executed which stages. Because every stage key covers *all* of
//! its inputs — kernel
//! source for HLS, the HLS netlist for P&R, resolved target, page rect,
//! device, seed — an edit to any of them forces exactly the affected stages
//! to re-run, in parallel on the build farm, while everything else (down to
//! the HLS netlist behind a seed-only P&R rerun, or the placed page behind
//! an edit that only changed constants) is reused.

use dfg::Graph;
use std::io;
use std::path::Path;

use crate::build::{build_graphs, kernel_hashes, BuildReport, Hashed, Memo};
use crate::cache::{CacheBackend, TieredCache};
use crate::flow::{CompileError, CompileOptions, CompiledApp};
use crate::store::{ArtifactStore, StageKind};

/// A persistent build cache across compiles of the same application,
/// backed by a [`TieredCache`]: an in-memory L1 (the classic
/// [`ArtifactStore`]) and, when opened on a directory, a persistent
/// on-disk L2 shared with other builder processes.
#[derive(Default)]
pub struct BuildCache {
    cache: TieredCache,
    last_report: Option<BuildReport>,
    /// The source the last successful build compiled, with its kernels'
    /// content hashes: the next build's warm-start context, and the reason
    /// it hashes only the kernels that differ. A copy of the caller's graph
    /// (compared by value), so no edit made through the caller's own graph,
    /// however it is made, can leave a hash stale.
    last: Option<(Graph, Vec<u64>)>,
    /// The other hashes the last build took, for the next to copy.
    memo: Memo,
}

impl BuildCache {
    /// Creates an empty, memory-only cache.
    pub fn new() -> BuildCache {
        BuildCache::default()
    }

    /// Opens a cache over a shared persistent store directory: stage
    /// products survive this process and are visible to every other
    /// builder (or fleet device) holding the same directory open. See
    /// [`TieredCache::open`].
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors; corrupt cache contents degrade to a
    /// cold start.
    pub fn open_dir(dir: impl AsRef<Path>) -> io::Result<BuildCache> {
        Ok(BuildCache {
            cache: TieredCache::open(dir)?,
            ..BuildCache::default()
        })
    }

    /// Number of cached packed artifacts (one per operator version/page the
    /// cache has ever built).
    pub fn len(&self) -> usize {
        self.cache.count_kind(StageKind::BitstreamPack)
    }

    /// Whether the cache holds nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The in-memory (L1) stage store.
    pub fn store(&self) -> &ArtifactStore {
        self.cache.l1()
    }

    /// The backing tiered cache.
    pub fn cache(&self) -> &TieredCache {
        &self.cache
    }

    /// Mutable access to the backing tiered cache.
    pub fn cache_mut(&mut self) -> &mut TieredCache {
        &mut self.cache
    }

    /// Stage-level accounting of the most recent [`BuildCache::compile`].
    pub fn last_report(&self) -> Option<&BuildReport> {
        self.last_report.as_ref()
    }

    /// Publishes the persistent index ([`TieredCache::persist`]). No-op for
    /// a memory-only cache.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn persist(&mut self) -> io::Result<()> {
        self.cache.persist()
    }

    /// Compiles a graph, reusing every stage whose inputs are unchanged.
    ///
    /// Paged levels get full phase-level incrementality. An `-O3` request
    /// also runs through the store — its HLS stages are shared with paged
    /// compiles of the same kernels — but the monolithic stitch and P&R have
    /// no separately reusable parts (exactly the paper's complaint).
    ///
    /// # Errors
    ///
    /// See [`CompileError`].
    pub fn compile(
        &mut self,
        graph: &Graph,
        options: &CompileOptions,
    ) -> Result<CompiledApp, CompileError> {
        let prev = self.last.as_ref().map(|(graph, kernels)| Hashed {
            graph,
            kernels: kernels.as_slice(),
        });
        // An unchanged graph keeps the copy held and its hashes; a changed
        // one hashes the kernels that differ from it.
        let fresh = match prev {
            Some(p) if p.graph == graph => None,
            _ => Some(kernel_hashes(graph, prev)),
        };
        let kernels = fresh.as_deref().or(prev.map(|p| p.kernels));
        let source = Hashed {
            graph,
            kernels: kernels.unwrap_or_default(),
        };
        if fresh.is_some() {
            self.memo.graph_hash = None;
        }
        let source = (source, prev, &mut self.memo);
        let built =
            build_graphs(vec![source], options, &mut self.cache, options.jobs).swap_remove(0);
        let (app, report) = built.inspect_err(|_| {
            // The hash taken is of a source `last` does not hold.
            self.memo.graph_hash = None;
        })?;
        self.last_report = Some(report);
        if let Some(kernels) = fresh {
            match &mut self.last {
                // After an edit, copy the operator it touched, not the graph.
                Some((held, hashes)) if held.operators.len() == graph.operators.len() => {
                    for (h, op) in held.operators.iter_mut().zip(&graph.operators) {
                        if h != op {
                            h.clone_from(op);
                        }
                    }
                    held.name.clone_from(&graph.name);
                    held.edges.clone_from(&graph.edges);
                    held.ext_inputs.clone_from(&graph.ext_inputs);
                    held.ext_outputs.clone_from(&graph.ext_outputs);
                    *hashes = kernels;
                }
                last => *last = Some((graph.clone(), kernels)),
            }
        }
        Ok(app)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::hits_and_misses;
    use crate::flow::OptLevel;
    use crate::store::{HintsProduct, StageKey, StageProduct};
    use dfg::{GraphBuilder, Target};
    use kir::{Expr, KernelBuilder, Scalar, Stmt};
    use pnr::PnrHints;

    /// The kernel every operator of the test graphs runs: read `x`, write
    /// `value`.
    fn stage_body(name: &str, value: Expr) -> kir::Kernel {
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
        stage_body(name, Expr::var("x").add(Expr::cint(addend)))
    }

    /// `stage` with one more operator in its body: a structural edit. A new
    /// addend alone leaves the netlist, and so the `PlaceRoute` key, as it was.
    fn grown_stage(name: &str, addend: i64) -> kir::Kernel {
        stage_body(
            name,
            Expr::var("x").add(Expr::cint(addend)).xor(Expr::cint(1)),
        )
    }

    /// `stage` with a second adder: another structural edit.
    fn twice_stage(name: &str, addend: i64) -> kir::Kernel {
        stage_body(
            name,
            Expr::var("x").add(Expr::cint(addend)).add(Expr::cint(1)),
        )
    }

    fn pipeline(addends: [i64; 3]) -> Graph {
        pipeline_with(addends, stage, Target::hw(1))
    }

    /// The pipeline with `c` structurally edited.
    fn grown(addends: [i64; 3]) -> Graph {
        pipeline_with(addends, grown_stage, Target::hw(1))
    }

    /// The three-stage pipeline with `c`'s kernel and target chosen freely.
    fn pipeline_with(
        addends: [i64; 3],
        c_kernel: impl Fn(&str, i64) -> kir::Kernel,
        c_target: Target,
    ) -> Graph {
        let mut b = GraphBuilder::new("pipe");
        let a = b.add("a", stage("a", addends[0]), Target::hw(0));
        let c = b.add("c", c_kernel("c", addends[1]), c_target);
        let d = b.add("d", stage("d", addends[2]), Target::hw(2));
        b.ext_input("Input_1", a, "in");
        b.connect("l1", a, "out", c, "in");
        b.connect("l2", c, "out", d, "in");
        b.ext_output("Output_1", d, "out");
        b.build().unwrap()
    }

    /// `stage` grown by a dozen operators: an edit too large for the layout
    /// it starts from, so the warm run trips the quality guard.
    fn heavy_stage(name: &str, addend: i64) -> kir::Kernel {
        let x = || Expr::var("x");
        let mut value = x().add(Expr::cint(addend));
        for k in 1..=6 {
            value = value
                .mul(x().add(Expr::cint(k)))
                .xor(x().shr(Expr::cint(k)));
        }
        stage_body(name, value)
    }

    fn warm_options() -> CompileOptions {
        CompileOptions {
            incremental_pnr: true,
            ..CompileOptions::new(OptLevel::O1)
        }
    }

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("pld-incr-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn hashes(app: &CompiledApp) -> Vec<u64> {
        app.artifacts.iter().map(|x| x.hash).collect()
    }

    /// An edit session over operator `c`: every way a version comes to be
    /// placed. Each step is (what it is, the source, warm runs and fallbacks
    /// its build makes in a cache that has built every earlier step).
    fn edit_session() -> Vec<(&'static str, Graph, (u64, u64))> {
        let hw = Target::hw(1);
        vec![
            ("cold build", pipeline([1, 2, 3]), (0, 0)),
            ("body edit, warm run survives", grown([1, 99, 3]), (1, 0)),
            (
                "large edit, the guard falls back",
                pipeline_with([1, 5, 3], heavy_stage, hw),
                (1, 1),
            ),
            (
                "retarget to RISC-V",
                pipeline_with([1, 5, 3], heavy_stage, Target::riscv(1)),
                (0, 0),
            ),
            (
                "and back",
                pipeline_with([1, 5, 3], heavy_stage, hw),
                (0, 0),
            ),
            ("return to an earlier version", grown([1, 99, 3]), (0, 0)),
            ("and to the first", pipeline([1, 2, 3]), (0, 0)),
            (
                "a second edit of it",
                pipeline_with([1, 7, 3], twice_stage, hw),
                (1, 0),
            ),
            (
                "its constants alone",
                pipeline_with([1, 9, 3], twice_stage, hw),
                (0, 0),
            ),
        ]
    }

    /// Asserts that rebuilding `graph`, which `cache` has just built as
    /// `app`, executes no stage and changes no artifact.
    fn assert_rebuild_is_free(cache: &mut BuildCache, graph: &Graph, app: &CompiledApp, at: &str) {
        let again = cache.compile(graph, &warm_options()).unwrap();
        let report = cache.last_report().unwrap();
        assert_eq!(report.total_executions(), 0, "{at}: {:?}", report.stages);
        assert_eq!(report.hit_rate(), 1.0, "{at}");
        assert_eq!(hashes(&again), hashes(app), "{at}");
        assert_eq!(again.compile_seconds(), 0.0, "{at}");
        // Every page holds the artifact it held: an incremental reload has
        // no page to load.
        let on_page = |app: &CompiledApp, i: usize| {
            let op = &app.operators[i];
            (op.page, op.artifact.map(|a| app.artifacts[a].hash))
        };
        let reload: Vec<usize> = (0..app.operators.len())
            .filter(|&i| on_page(&again, i) != on_page(app, i))
            .collect();
        assert!(reload.is_empty(), "{at}: operators {reload:?} reload");
    }

    /// The promise itself (paper Sec. 6, "only the pages with changing logic
    /// are recompiled"): whatever route a version took to its bitstream —
    /// cold, warm from the previous version's layout, warm and fallen back,
    /// through a retarget, or cached from earlier — building it again
    /// executes nothing.
    #[test]
    fn a_no_change_rebuild_executes_nothing() {
        let mut cache = BuildCache::new();
        for (at, graph, (warm, fell_back)) in edit_session() {
            let app = cache.compile(&graph, &warm_options()).unwrap();
            let report = cache.last_report().unwrap();
            assert_eq!(
                (report.warm_pnr_ops, report.warm_fallbacks),
                (warm, fell_back),
                "{at}"
            );
            assert_rebuild_is_free(&mut cache, &graph, &app, at);
        }
    }

    /// The same across processes: `persist`, drop, `open_dir`. The reopened
    /// cache has compiled nothing, so it has no previous version to consult
    /// and nothing in memory: the pointer is followed off the disk.
    #[test]
    fn a_no_change_rebuild_executes_nothing_across_reopen() {
        let dir = tmp_dir("reopen");
        let mut cache = BuildCache::open_dir(&dir).unwrap();
        for (at, graph, _) in edit_session() {
            let app = cache.compile(&graph, &warm_options()).unwrap();
            cache.persist().unwrap();
            drop(cache);
            cache = BuildCache::open_dir(&dir).unwrap();
            assert_rebuild_is_free(&mut cache, &graph, &app, at);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The stage keys of operator `c` of a `pipeline` graph, as the plan forms
    /// them: (plain `PlaceRoute`, [the netlist's `PnrHints`, this version's]).
    fn keys_of_c(graph: &Graph) -> (StageKey, [StageKey; 2]) {
        use crate::build::{kernel_hash, HintOf, StageInputs};
        use crate::flow::fnv;
        let opts = warm_options();
        let kernel = &graph.operators[1].kernel;
        let hls = hlsim::compile(kernel).unwrap();
        let netlist = crate::store::HlsProduct::new(hls.netlist, hls.report).netlist_hash();
        let rect = opts.floorplan.pages[1].rect;
        let device = fnv(&crate::codec::encode(&opts.floorplan.device));
        let hints = |of| {
            let name = "c".to_string();
            StageInputs::PnrHints {
                name,
                of,
                rect,
                device,
            }
            .key()
        };
        let seed = opts.seed ^ fnv(b"c");
        (
            StageInputs::PlaceRoute {
                netlist,
                rect,
                device,
                seed,
                warm: None,
            }
            .key(),
            [
                hints(HintOf::Netlist(netlist)),
                hints(HintOf::Lineage(kernel_hash(kernel))),
            ],
        )
    }

    /// A warm-edited `c`, built through `cache`: the app, and the hint the
    /// build filed for the new version.
    fn warm_edit(cache: &mut BuildCache) -> (Graph, CompiledApp, std::sync::Arc<HintsProduct>) {
        let g2 = grown([1, 99, 3]);
        cache
            .compile(&pipeline([1, 2, 3]), &warm_options())
            .unwrap();
        let app = cache.compile(&g2, &warm_options()).unwrap();
        let report = cache.last_report().unwrap();
        assert_eq!((report.warm_pnr_ops, report.warm_fallbacks), (1, 0));
        let (plain, [by_netlist, own]) = keys_of_c(&g2);
        assert!(
            !cache.cache().contains(plain),
            "a surviving warm run has no plain key"
        );
        let hint = cache.cache_mut().fetch_hints(own.hash).unwrap();
        // One hint, filed for the netlist and for the version.
        let other = cache.cache_mut().fetch_hints(by_netlist.hash).unwrap();
        assert!(std::sync::Arc::ptr_eq(&hint, &other));
        (g2, app, hint)
    }

    /// A warm run from the version's own layout places `c` anew: after a
    /// structural edit it need not reproduce the run that layout came from.
    /// Every other page keeps its artifact.
    fn assert_only_c_changed(rebuilt: &CompiledApp, app: &CompiledApp) {
        let (rebuilt, app) = (hashes(rebuilt), hashes(app));
        assert_eq!(
            (rebuilt.len(), &rebuilt[..2], rebuilt[3]),
            (4, &app[..2], app[3])
        );
    }

    /// The pointer degrades safely, 1: the product it names is gone while
    /// the hint survived. The version's own layout is then the warm start —
    /// one run, on `c`'s page alone — and its product is found again under
    /// the key that run formed.
    #[test]
    fn an_evicted_origin_costs_one_warm_run_from_the_versions_own_hint() {
        let mut built = BuildCache::new();
        let (g2, app, hint) = warm_edit(&mut built);
        let origin = StageKind::PlaceRoute.key(hint.origin());

        // The on-disk tier of another process, which holds every product but
        // the origin.
        let dir = tmp_dir("evicted");
        let mut disk = crate::cache::DiskCache::open(&dir).unwrap();
        for (key, product) in built.store().clone().into_entries() {
            if key != origin {
                disk.append(key, &product);
            }
        }
        assert!(!disk.contains(origin) && disk.len() == built.store().len() - 1);
        disk.publish().unwrap();
        drop(disk);

        let mut cache = BuildCache::open_dir(&dir).unwrap();
        let rebuilt = cache.compile(&g2, &warm_options()).unwrap();
        let report = cache.last_report().unwrap();
        assert_eq!(report.executions(StageKind::PlaceRoute), 1);
        // A bitstream is only known once its page is placed, so a page that
        // is placed is packed.
        assert_eq!(report.executions(StageKind::BitstreamPack), 1);
        assert_eq!(report.executions(StageKind::HlsLower), 0);
        assert_eq!((report.hint_fetches, report.hint_hits), (1, 1));
        assert_eq!((report.warm_pnr_ops, report.warm_fallbacks), (1, 0));
        assert_only_c_changed(&rebuilt, &app);
        assert_rebuild_is_free(&mut cache, &g2, &rebuilt, "after the warm run");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The pointer degrades safely, 2: a bit of the product it names flipped
    /// on disk. The fetch fails its checksum, which is a miss like any other.
    #[test]
    fn a_corrupt_origin_is_a_miss_not_a_panic() {
        let dir = tmp_dir("flipped");
        let mut cache = BuildCache::open_dir(&dir).unwrap();
        let (g2, app, hint) = warm_edit(&mut cache);
        let origin = cache.cache_mut().fetch_pnr(hint.origin()).unwrap();
        cache.persist().unwrap();
        drop(cache);

        let payload = crate::codec::encode(&StageProduct::Pnr(origin));
        let mut flipped = 0;
        for entry in std::fs::read_dir(&dir).unwrap() {
            let path = entry.unwrap().path();
            let mut bytes = std::fs::read(&path).unwrap();
            if let Some(at) = bytes.windows(payload.len()).position(|w| w == payload) {
                bytes[at + payload.len() / 2] ^= 0x10;
                std::fs::write(&path, bytes).unwrap();
                flipped += 1;
            }
        }
        assert_eq!(flipped, 1, "the origin product is stored once");

        let mut cache = BuildCache::open_dir(&dir).unwrap();
        let rebuilt = cache.compile(&g2, &warm_options()).unwrap();
        let report = cache.last_report().unwrap();
        assert_eq!(report.executions(StageKind::PlaceRoute), 1);
        assert_eq!(report.warm_pnr_ops, 1);
        assert_only_c_changed(&rebuilt, &app);
        assert_rebuild_is_free(&mut cache, &g2, &rebuilt, "after the re-run");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The pointer degrades safely, 3: a hint for another region is ignored
    /// whole — neither followed nor replayed — while the same hint for this
    /// page's region is followed.
    #[test]
    fn a_hint_for_another_region_is_ignored() {
        let g = pipeline([1, 2, 3]);
        let mut built = BuildCache::new();
        let app = built.compile(&g, &warm_options()).unwrap();
        let (plain, hints) = keys_of_c(&g);
        let elsewhere = StageKind::PlaceRoute.key(0x0e15e);
        let hint = built.cache_mut().fetch_hints(hints[1].hash).unwrap();
        assert_eq!(hint.origin(), plain.hash);

        // `c`'s product moved out from under its plain key, and hints that
        // point at where it went: for another region, then for this one.
        let store_with = |region: fabric::Rect| {
            let mut store = ArtifactStore::new();
            for (key, product) in built.store().clone().into_entries() {
                let moved = PnrHints {
                    region,
                    ..hint.hints().clone()
                };
                match key {
                    k if k == plain => store.insert(elsewhere, product),
                    k if hints.contains(&k) => store.insert(
                        k,
                        StageProduct::Hints(HintsProduct::new(moved, elsewhere.hash).into()),
                    ),
                    k => store.insert(k, product),
                }
            }
            let mut cache = BuildCache::new();
            for (key, product) in store.into_entries() {
                cache.cache_mut().put(key, product);
            }
            cache
        };

        let rect = hint.hints().region;
        let mut cache = store_with(rect);
        assert_rebuild_is_free(&mut cache, &g, &app, "followed");

        let mut cache = store_with(fabric::Rect::new(rect.x0 + 1, rect.y0, rect.w, rect.h));
        let rebuilt = cache.compile(&g, &warm_options()).unwrap();
        let report = cache.last_report().unwrap();
        assert_eq!(report.executions(StageKind::PlaceRoute), 1);
        assert_eq!((report.hint_fetches, report.hint_hits), (1, 0));
        assert_eq!(report.warm_pnr_ops, 0, "ran cold");
        assert_eq!(hashes(&rebuilt), hashes(&app));
        assert_rebuild_is_free(&mut cache, &g, &app, "after the cold run");
    }

    /// Six hardware stages in a chain.
    fn six_stages() -> Graph {
        let mut b = GraphBuilder::new("six");
        let ids: Vec<_> = (0..6)
            .map(|i| {
                let name = format!("s{i}");
                b.add(name.clone(), stage(&name, i + 1), Target::hw_auto())
            })
            .collect();
        b.ext_input("Input_1", ids[0], "in");
        for (i, w) in ids.windows(2).enumerate() {
            b.connect(format!("l{i}"), w[0], "out", w[1], "in");
        }
        b.ext_output("Output_1", ids[5], "out");
        b.build().unwrap()
    }

    /// Planning costs what the edit costs. A no-change rebuild encodes no
    /// kernel and leaves every `Hls`/`Pnr`/`Hints` product the one shared
    /// allocation it was (the build held handles, never copies, and let go
    /// of them all); a one-operator body edit encodes that operator's kernel
    /// and no other.
    #[test]
    fn a_rebuild_hashes_and_copies_only_what_the_edit_touched() {
        use crate::build::KERNELS_HASHED;
        use crate::store::StageProduct;
        use std::sync::Arc;
        let hashed = || KERNELS_HASHED.with(|n| n.replace(0));
        let handles = |cache: &BuildCache| -> Vec<(StageKey, StageProduct)> {
            let mut all = cache.store().clone().into_entries();
            all.retain(|(k, _)| {
                use StageKind::*;
                matches!(k.kind, HlsLower | PlaceRoute | PnrHints)
            });
            all
        };
        let shared = |a: &StageProduct, b: &StageProduct| match (a, b) {
            (StageProduct::Hls(a), StageProduct::Hls(b)) => {
                Arc::ptr_eq(a, b) && Arc::strong_count(a) == 3
            }
            (StageProduct::Pnr(a), StageProduct::Pnr(b)) => {
                Arc::ptr_eq(a, b) && Arc::strong_count(a) == 3
            }
            // One hint is filed for the netlist and for the version.
            (StageProduct::Hints(a), StageProduct::Hints(b)) => {
                Arc::ptr_eq(a, b) && Arc::strong_count(a) == 6
            }
            _ => false,
        };

        let mut g = six_stages();
        let opts = CompileOptions {
            incremental_pnr: true,
            ..CompileOptions::new(OptLevel::O1)
        };
        let mut cache = BuildCache::new();
        hashed();
        cache.compile(&g, &opts).unwrap();
        assert_eq!(hashed(), 6, "the warm-up build hashes every kernel once");
        let first = handles(&cache);
        assert_eq!(first.len(), 24, "6 x (hls, pnr, two hints)");

        cache.compile(&g, &opts).unwrap();
        assert_eq!(cache.last_report().unwrap().total_executions(), 0);
        assert_eq!(hashed(), 0, "a no-change rebuild hashes no kernel");
        // `first`, `second` and the store: three handles, one allocation.
        let second = handles(&cache);
        assert_eq!(first.len(), second.len());
        for ((ka, a), (kb, b)) in first.iter().zip(&second) {
            assert!(ka == kb && shared(a, b), "{ka} was copied or is still held");
        }

        g.operators[2].kernel.locals.push(kir::VarDecl {
            name: "spare".into(),
            ty: Scalar::uint(32),
        });
        cache.compile(&g, &opts).unwrap();
        assert_eq!(hashed(), 1, "a one-operator edit hashes one kernel");
        let report = cache.last_report().unwrap();
        assert_eq!(report.executions(StageKind::HlsLower), 1);
        assert_eq!(report.hits(StageKind::HlsLower), 5);
    }

    /// The optimizer's stage costs what the edit costs too. A rebuild of an
    /// unchanged source takes its `KpnOptimize` key from the last build;
    /// after a one-operator body edit the optimizer runs again, and of the
    /// kernels it rewrites only those that differ from its last run's at
    /// the same position are hashed.
    #[test]
    fn an_optimizer_rerun_hashes_only_the_kernels_that_differ() {
        use crate::build::KERNELS_HASHED;
        let hashed = || KERNELS_HASHED.with(|n| n.replace(0));
        let mut g = six_stages();
        // Unfused, the six stages stay six kernels (fused, they are one).
        let config = dfg::OptimizerConfig {
            fuse: false,
            ..dfg::OptimizerConfig::default()
        };
        let opts = CompileOptions {
            optimize: Some(config),
            ..CompileOptions::new(OptLevel::O1)
        };
        let mut cache = BuildCache::new();
        hashed();
        cache.compile(&g, &opts).unwrap();
        let first = cache.memo.opt.clone().unwrap();
        let rewritten = first.graph().operators.len();
        assert_eq!(hashed(), 6 + rewritten as u64, "every kernel once");
        let key = cache.memo.graph_hash;

        cache.compile(&g, &opts).unwrap();
        assert_eq!(hashed(), 0, "a no-change rebuild hashes no kernel");
        assert_eq!(cache.memo.graph_hash, key, "nor the graph again");

        g.operators[2].kernel = stage("s2", 40);
        cache.compile(&g, &opts).unwrap();
        let report = cache.last_report().unwrap();
        assert_eq!(report.executions(StageKind::KpnOptimize), 1);
        assert_ne!(cache.memo.graph_hash, key);
        let second = cache.memo.opt.clone().unwrap();
        let (old, new) = (&first.graph().operators, &second.graph().operators);
        let differ = (new.iter().enumerate())
            .filter(|(i, op)| old.get(*i).is_none_or(|o| o.kernel != op.kernel))
            .count();
        assert!(
            0 < differ && differ < new.len(),
            "{differ} of {}",
            new.len()
        );
        assert_eq!(
            hashed(),
            1 + differ as u64,
            "the edit, then what it rewrote"
        );
        let fresh =
            crate::store::OptProduct::new(second.graph().clone(), second.summary.clone(), None);
        assert_eq!(second.kernel_hashes(), fresh.kernel_hashes());
    }

    /// `c`'s placed-and-routed bitstream in `app`.
    fn bitstream_of_c(app: &CompiledApp) -> pnr::Bitstream {
        match &app.artifacts[app.operators[1].artifact.unwrap()].kind {
            crate::artifact::XclbinKind::Page { bitstream, .. } => bitstream.clone(),
            other => panic!("`c` is not a hardware page: {other:?}"),
        }
    }

    /// The early cutoff: an edit that changes only constants leaves the
    /// netlist as it was, and with it the `PlaceRoute` key. HLS runs again,
    /// and so does packing — the source is new, so the artifact is and the
    /// page reloads — but synthesis and P&R cost nothing; with or without
    /// warm starts.
    #[test]
    fn a_constant_only_edit_skips_synthesis_and_pnr() {
        use crate::build::kernel_hash;
        let (g1, g2) = (pipeline([1, 2, 3]), pipeline([1, 99, 3]));
        let (k1, k2) = (&g1.operators[1].kernel, &g2.operators[1].kernel);
        assert_ne!(kernel_hash(k1), kernel_hash(k2));
        assert_eq!(keys_of_c(&g1).0, keys_of_c(&g2).0, "one PlaceRoute key");
        for options in [CompileOptions::new(OptLevel::O1), warm_options()] {
            let mut cache = BuildCache::new();
            let before = cache.compile(&g1, &options).unwrap();
            let after = cache.compile(&g2, &options).unwrap();
            let report = cache.last_report().unwrap();
            assert_eq!(report.hits(StageKind::PlaceRoute), 3);
            assert_eq!(report.executions(StageKind::HlsLower), 1);
            assert_eq!(report.executions(StageKind::BitstreamPack), 1);
            assert_eq!((report.hint_fetches, report.warm_pnr_ops), (0, 0));
            let c = &after.operators[1];
            assert_eq!((c.vtime.syn, c.vtime.pnr), (0.0, 0.0));
            assert!(c.vtime.hls > 0.0 && c.vtime.bit > 0.0, "{:?}", c.vtime);
            // The same layout, packed as a new artifact for the same page.
            assert_eq!(bitstream_of_c(&after), bitstream_of_c(&before));
            assert_eq!(c.page, before.operators[1].page);
            let (old, new) = (hashes(&before), hashes(&after));
            assert_ne!(old[2], new[2]);
            assert_eq!((&old[..2], old[3]), (&new[..2], new[3]));
        }
    }

    /// A structure placed before is a P&R hit whatever the constants: `c` is
    /// warm-edited twice, then given the first edit's structure with new
    /// constants. That structure's product was a warm run, so no plain key
    /// names it; the hint filed for its netlist points at it. With `reopen`,
    /// the cache is persisted and opened again first, so the pointer and the
    /// product come off the disk and there is no previous version to consult.
    fn repeated_structure_hits_through_the_netlist_pointer(reopen: bool) {
        let dir = tmp_dir(if reopen { "pointer-reopen" } else { "pointer" });
        let mut cache = BuildCache::open_dir(&dir).unwrap();
        cache
            .compile(&pipeline([1, 2, 3]), &warm_options())
            .unwrap();
        let first = cache.compile(&grown([1, 99, 3]), &warm_options()).unwrap();
        let hw = Target::hw(1);
        let second = pipeline_with([1, 7, 3], twice_stage, hw);
        cache.compile(&second, &warm_options()).unwrap();
        let report = cache.last_report().unwrap();
        assert_eq!((report.warm_pnr_ops, report.warm_fallbacks), (1, 0));
        if reopen {
            cache.persist().unwrap();
            drop(cache);
            cache = BuildCache::open_dir(&dir).unwrap();
        }

        let again = grown([1, 5, 3]);
        assert!(!cache.cache().contains(keys_of_c(&again).0), "no plain key");
        let app = cache.compile(&again, &warm_options()).unwrap();
        let report = cache.last_report().unwrap();
        assert_eq!(report.executions(StageKind::PlaceRoute), 0);
        assert_eq!(report.hits(StageKind::PlaceRoute), 3);
        assert_eq!(report.executions(StageKind::HlsLower), 1);
        assert_eq!((report.hint_fetches, report.warm_pnr_ops), (0, 0));
        assert_eq!(bitstream_of_c(&app), bitstream_of_c(&first));
        let c = &app.operators[1];
        assert_eq!((c.vtime.syn, c.vtime.pnr), (0.0, 0.0));
        assert_rebuild_is_free(&mut cache, &again, &app, "the repeated structure");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_repeated_structure_hits_through_the_netlist_pointer() {
        repeated_structure_hits_through_the_netlist_pointer(false);
    }

    #[test]
    fn a_repeated_structure_hits_through_the_netlist_pointer_across_reopen() {
        repeated_structure_hits_through_the_netlist_pointer(true);
    }

    #[test]
    fn second_identical_build_is_all_hits() {
        let g = pipeline([1, 2, 3]);
        let mut cache = BuildCache::new();
        let opts = CompileOptions::new(OptLevel::O1);
        let first = cache.compile(&g, &opts).unwrap();
        assert_eq!(hits_and_misses(&cache), (0, 3));
        let second = cache.compile(&g, &opts).unwrap();
        assert_eq!(hits_and_misses(&cache), (3, 0));
        // Rebuild costs nothing; linking information identical.
        assert_eq!(second.vtime_parallel.total(), 0.0);
        assert_eq!(first.driver, second.driver);
        // A no-op rebuild performs zero stage executions of any kind.
        let report = cache.last_report().unwrap();
        assert_eq!(report.total_executions(), 0);
        assert_eq!(report.hit_rate(), 1.0);
    }

    #[test]
    fn editing_one_operator_recompiles_one() {
        let g1 = pipeline([1, 2, 3]);
        let g2 = pipeline([1, 99, 3]);
        let mut cache = BuildCache::new();
        let opts = CompileOptions::new(OptLevel::O1);
        let full = cache.compile(&g1, &opts).unwrap();
        let incr = cache.compile(&g2, &opts).unwrap();
        assert_eq!(hits_and_misses(&cache), (2, 1));
        // The incremental build's cost is one page compile, well below the
        // three-page full build.
        assert!(incr.vtime_serial.total() < full.vtime_serial.total() * 0.6);
        // Unchanged artifacts are bit-identical.
        assert_eq!(incr.artifacts[1].hash, full.artifacts[1].hash); // a
        assert_ne!(incr.artifacts[2].hash, full.artifacts[2].hash); // c changed
        assert_eq!(incr.artifacts[3].hash, full.artifacts[3].hash); // d
    }

    #[test]
    fn retarget_is_a_change() {
        // Flipping a pragma HW -> RISCV recompiles that operator only.
        let g1 = pipeline([1, 2, 3]);
        let mut b = GraphBuilder::new("pipe");
        let a = b.add("a", stage("a", 1), Target::hw(0));
        let c = b.add("c", stage("c", 2), Target::riscv(1));
        let d = b.add("d", stage("d", 3), Target::hw(2));
        b.ext_input("Input_1", a, "in");
        b.connect("l1", a, "out", c, "in");
        b.connect("l2", c, "out", d, "in");
        b.ext_output("Output_1", d, "out");
        let g2 = b.build().unwrap();

        let mut cache = BuildCache::new();
        let opts = CompileOptions::new(OptLevel::O1);
        cache.compile(&g1, &opts).unwrap();
        let app2 = cache.compile(&g2, &opts).unwrap();
        assert_eq!(hits_and_misses(&cache), (2, 1));
        assert!(app2.operators[1].soft.is_some());
        // The retargeted compile is a seconds-scale -O0 job.
        assert!(app2.vtime_serial.total() < 10.0);
    }

    #[test]
    fn seed_change_forces_pnr_but_reuses_hls() {
        // The regression the old operator-level key missed: `options.seed`
        // was not part of the cache identity, so a reseeded compile silently
        // reused stale placements. With staged keys the P&R stage re-runs —
        // against the cached HLS netlist.
        let g = pipeline([1, 2, 3]);
        let mut cache = BuildCache::new();
        let opts = CompileOptions::new(OptLevel::O1);
        cache.compile(&g, &opts).unwrap();
        assert_eq!(hits_and_misses(&cache), (0, 3));

        let reseeded = CompileOptions { seed: 99, ..opts };
        cache.compile(&g, &reseeded).unwrap();
        // Every operator is a (operator-level) miss...
        assert_eq!(hits_and_misses(&cache), (0, 3));
        let report = cache.last_report().unwrap();
        // ...but each one's HLS stage is a hit: only P&R and packing re-ran.
        assert_eq!(report.hits(StageKind::HlsLower), 3);
        assert_eq!(report.executions(StageKind::HlsLower), 0);
        assert_eq!(report.executions(StageKind::PlaceRoute), 3);
        assert_eq!(report.executions(StageKind::BitstreamPack), 3);
    }

    #[test]
    fn incremental_pnr_warm_starts_the_edited_page() {
        let g1 = pipeline([1, 2, 3]);
        let g2 = grown([1, 99, 3]);
        let mut cache = BuildCache::new();
        let opts = CompileOptions {
            incremental_pnr: true,
            ..CompileOptions::new(OptLevel::O1)
        };
        let full = cache.compile(&g1, &opts).unwrap();
        let incr = cache.compile(&g2, &opts).unwrap();
        let report = cache.last_report().unwrap();
        // Exactly the edited operator's P&R missed, probed a hint, found
        // the one filed by the first build, and ran warm.
        assert_eq!(report.hint_fetches, 1);
        assert_eq!(report.hint_hits, 1);
        assert_eq!(report.warm_pnr_ops, 1);
        assert_eq!(report.warm_fallbacks, 0);
        // The warm rerun's executed P&R time is far below the cold one.
        let warm_op = incr.operators.iter().find(|o| o.name == "c").unwrap();
        let cold_op = full.operators.iter().find(|o| o.name == "c").unwrap();
        assert!(
            warm_op.vtime.pnr < cold_op.vtime.pnr / 3.0,
            "warm {} vs cold {}",
            warm_op.vtime.pnr,
            cold_op.vtime.pnr
        );
        // The from-scratch estimate still prices the stage cold.
        assert!(report.fresh_vtime_parallel.pnr > warm_op.vtime.pnr);
        // Unchanged operators' artifacts are untouched.
        assert_eq!(incr.artifacts[1].hash, full.artifacts[1].hash);
        assert_eq!(incr.artifacts[3].hash, full.artifacts[3].hash);

        // The follow-up build of the unchanged edit finds the warm product
        // through the hint that build filed. That is a `PlaceRoute` hit like
        // any other, and no probe that arms a warm run.
        cache.compile(&g2, &opts).unwrap();
        let report = cache.last_report().unwrap();
        assert_eq!(report.total_executions(), 0);
        assert_eq!(report.hits(StageKind::PlaceRoute), 3);
        assert_eq!(report.hit_rate(), 1.0);
        let c = report.operators.iter().find(|o| o.name == "c").unwrap();
        assert_eq!((c.hits, c.executions), (3, 0));
        assert_eq!((report.hint_fetches, report.hint_hits), (0, 0));
        assert_eq!((report.warm_pnr_ops, report.warm_fallbacks), (0, 0));
    }

    #[test]
    fn warm_artifacts_identical_across_farm_widths() {
        let g1 = pipeline([1, 2, 3]);
        let g2 = pipeline([4, 99, 3]);
        let hashes_at = |jobs: usize| {
            let mut cache = BuildCache::new();
            let opts = CompileOptions {
                incremental_pnr: true,
                jobs,
                ..CompileOptions::new(OptLevel::O1)
            };
            cache.compile(&g1, &opts).unwrap();
            let app = cache.compile(&g2, &opts).unwrap();
            app.artifacts.iter().map(|x| x.hash).collect::<Vec<_>>()
        };
        let one = hashes_at(1);
        assert_eq!(one, hashes_at(2));
        assert_eq!(one, hashes_at(8));
    }

    #[test]
    fn incremental_pnr_off_by_default_changes_nothing() {
        let g1 = pipeline([1, 2, 3]);
        let g2 = pipeline([1, 99, 3]);
        let mut cache = BuildCache::new();
        let opts = CompileOptions::new(OptLevel::O1);
        cache.compile(&g1, &opts).unwrap();
        cache.compile(&g2, &opts).unwrap();
        let report = cache.last_report().unwrap();
        assert_eq!(report.hint_fetches, 0);
        assert_eq!(report.warm_pnr_ops, 0);
        assert_eq!(cache.store().count_kind(StageKind::PnrHints), 0);
    }

    #[test]
    fn parallel_rebuild_time_is_max_not_sum() {
        // Dirty operators rebuild on the farm: the app's parallel virtual
        // time must be the slowest dirty operator, not the serial sum.
        let g1 = pipeline([1, 2, 3]);
        let g2 = pipeline([7, 8, 3]); // two dirty operators
        let mut cache = BuildCache::new();
        let opts = CompileOptions::new(OptLevel::O1);
        cache.compile(&g1, &opts).unwrap();
        let incr = cache.compile(&g2, &opts).unwrap();
        let dirty: Vec<_> = incr
            .operators
            .iter()
            .filter(|o| o.vtime.total() > 0.0)
            .collect();
        assert_eq!(dirty.len(), 2);
        // Parallel = phase-wise max over the dirty operators (clean ones
        // contribute zero); serial = the sum.
        let expected_parallel = dirty[0].vtime.parallel_max(&dirty[1].vtime);
        let expected_serial = dirty[0].vtime.add(&dirty[1].vtime);
        assert_eq!(incr.vtime_parallel, expected_parallel);
        assert_eq!(incr.vtime_serial, expected_serial);
        assert!(incr.vtime_parallel.total() < incr.vtime_serial.total());
    }
}
