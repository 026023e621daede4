//! The content-addressed artifact store shared by every compile flow.
//!
//! Each compile is a DAG of typed stages ([`StageKind`]); every stage
//! product is filed under a [`StageKey`] — a content hash covering *all* of
//! the stage's inputs (kernel source, resolved target, page rectangle,
//! device, seed, ...: the fields of `build::StageInputs`, one record per key
//! shape).
//! `-O0`, `-O1` and `-O3` compiles, the [`crate::BuildCache`], and the
//! runtime's hot-swap path are all drivers over one store, so a netlist
//! synthesized for an `-O1` page compile is a cache hit for the same
//! operator in an `-O3` stitch, and vice versa.
//!
//! The store lives in memory. What survives a process is a cache
//! directory ([`crate::cache::DiskCache`]): the Makefile-style `.o`
//! directory of the paper's Sec. 6, with content hashes in place of
//! timestamps. What a product looks like in bytes is the crate-private
//! `codec` module's business, not this one's.

use std::collections::HashMap;
use std::fmt;
use std::io;
use std::sync::Arc;

use hlsim::HlsReport;
use netlist::Netlist;
use pnr::{Bitstream, TimingReport};
use softcore::SoftBinary;

use crate::artifact::{Driver, Xclbin};
use crate::build::{kernel_hashes, Hashed};
use crate::codec::{self, Codec, Cursor};
use crate::flow::{fnv, OptSummary};

/// The typed stages of the compile pipeline (the build graph's node kinds).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum StageKind {
    /// High-level synthesis: kernel source → operator netlist + report.
    HlsLower,
    /// Page-scoped placement and routing: netlist → bitstream + timing.
    PlaceRoute,
    /// Artifact packing: bitstream / softcore binary → loadable `Xclbin`.
    BitstreamPack,
    /// Softcore compilation: kernel source → RV32 binary.
    SoftcoreCc,
    /// Driver generation: link table + load schedule for the whole app.
    LinkDriver,
    /// KPN optimization: source graph + optimizer config → rewritten graph
    /// and a pass report.
    KpnOptimize,
    /// Warm-start P&R hints: placement and route state of a prior run of
    /// the same operator lineage, fetched as an *optimization input* for
    /// incremental P&R (never required for correctness — see
    /// [`pnr::place_and_route_incremental`]'s quality guard).
    PnrHints,
}

impl StageKind {
    /// Every stage kind, in pipeline order.
    pub const ALL: [StageKind; 7] = [
        StageKind::KpnOptimize,
        StageKind::HlsLower,
        StageKind::PnrHints,
        StageKind::PlaceRoute,
        StageKind::BitstreamPack,
        StageKind::SoftcoreCc,
        StageKind::LinkDriver,
    ];

    /// The key of this stage kind with input hash `hash`.
    pub fn key(self, hash: u64) -> StageKey {
        StageKey { kind: self, hash }
    }
}

impl fmt::Display for StageKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StageKind::HlsLower => write!(f, "hls-lower"),
            StageKind::PlaceRoute => write!(f, "place-route"),
            StageKind::BitstreamPack => write!(f, "bitstream-pack"),
            StageKind::SoftcoreCc => write!(f, "softcore-cc"),
            StageKind::LinkDriver => write!(f, "link-driver"),
            StageKind::KpnOptimize => write!(f, "kpn-optimize"),
            StageKind::PnrHints => write!(f, "pnr-hints"),
        }
    }
}

/// Content-addressed identity of one stage execution: the stage kind plus a
/// hash over every input that can change the stage's product.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StageKey {
    /// Which stage this key addresses.
    pub kind: StageKind,
    /// Content hash over all stage inputs.
    pub hash: u64,
}

impl fmt::Display for StageKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{:016x}", self.kind, self.hash)
    }
}

/// Product of an [`StageKind::HlsLower`] execution.
///
/// The netlist is everything P&R reads of the kernel, so a
/// [`StageKind::PlaceRoute`] key names the netlist by
/// [`HlsProduct::netlist_hash`], not the kernel source: an edit that leaves
/// the netlist's structure as it was (constants live in the source, not in
/// the netlist) is a P&R hit.
#[derive(Debug, Clone, PartialEq)]
pub struct HlsProduct {
    netlist: Netlist,
    netlist_hash: u64,
    /// The synthesis report (resources, II, cycle counts, HLS work units).
    pub report: HlsReport,
}

impl HlsProduct {
    /// Wraps an HLS run's output, fingerprinting the netlist once.
    pub fn new(netlist: Netlist, report: HlsReport) -> HlsProduct {
        HlsProduct {
            netlist_hash: fnv(&codec::encode(&netlist)),
            netlist,
            report,
        }
    }

    /// The synthesized operator netlist (pre leaf-interface wrapping).
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// FNV-1a over the netlist's canonical encoding. Taken when the product
    /// is made or decoded, never per lookup.
    pub fn netlist_hash(&self) -> u64 {
        self.netlist_hash
    }
}

/// Product of a [`StageKind::PlaceRoute`] execution.
#[derive(Debug, Clone, PartialEq)]
pub struct PnrProduct {
    /// The page-scoped partial bitstream.
    pub bitstream: Bitstream,
    /// Post-P&R static timing.
    pub timing: TimingReport,
    /// P&R work units (SA moves + router relaxations) — the measure the
    /// virtual-time model converts to seconds, stored so a recalibration
    /// reprices the stage without re-running it.
    pub work_units: u64,
    /// Cell count of the wrapped (leaf-interfaced) netlist that was placed,
    /// the logic-synthesis work measure.
    pub wrapped_cells: u64,
    /// The per-operator P&R seed that produced this product.
    pub seed: u64,
    /// Work units a cold P&R of this page costs: what from-scratch virtual
    /// time prices the stage at. `work_units` for a cold run or
    /// a warm run the quality guard discarded; for a surviving warm run, the
    /// hint's cold estimate (at least `work_units`).
    pub cold_work: u64,
}

/// Product of a [`StageKind::SoftcoreCc`] execution.
#[derive(Debug, Clone, PartialEq)]
pub struct SoftProduct {
    /// The compiled RV32 operator binary (pre page packing).
    pub binary: SoftBinary,
}

/// Product of a [`StageKind::KpnOptimize`] execution: the rewritten graph
/// plus everything the downstream build and runtime need from the optimizer.
/// Filing it in the store makes graph optimization itself an incremental
/// stage — recompiling an unchanged app (or the same app under the same
/// optimizer config) reuses the rewritten graph instead of re-running the
/// passes, and every per-kernel stage below keys on the *optimized* kernels,
/// so fused/split operators cache like hand-written ones.
#[derive(Debug, Clone, PartialEq)]
pub struct OptProduct {
    graph: dfg::Graph,
    /// [`crate::build::kernel_hash`] of each operator of `graph`, in order:
    /// computed when the product is made or decoded, so no build that
    /// fetches it hashes the rewritten kernels again.
    kernel_hashes: Vec<u64>,
    /// What the passes did: fused and split operators, balance before/after.
    pub summary: OptSummary,
}

impl OptProduct {
    /// Wraps an optimizer run's output, hashing the rewritten kernels once:
    /// a kernel equal to the one at the same position of `prev`, the
    /// product of an earlier run, keeps that one's hash.
    pub fn new(graph: dfg::Graph, summary: OptSummary, prev: Option<&OptProduct>) -> OptProduct {
        let prev = prev.map(|p| Hashed {
            graph: &p.graph,
            kernels: &p.kernel_hashes,
        });
        OptProduct {
            kernel_hashes: kernel_hashes(&graph, prev),
            graph,
            summary,
        }
    }

    /// The optimized graph.
    pub fn graph(&self) -> &dfg::Graph {
        &self.graph
    }

    /// Content hash of each operator's kernel, in graph operator order.
    pub(crate) fn kernel_hashes(&self) -> &[u64] {
        &self.kernel_hashes
    }
}

/// Product of a [`StageKind::PnrHints`] filing: prior placement and route
/// state an incremental P&R run warm-starts from.
///
/// Unlike every other product, hints never become part of a shipped
/// artifact — they only *steer* a future PlaceRoute execution. To keep
/// content addressing sound, a PlaceRoute key that consumed hints folds
/// [`HintsProduct::content_hash`] into its input hash, so a warm product
/// can never alias the cold product of the same netlist.
/// The hint filed for a netlist or a kernel version is also a *pointer* to
/// the finished P&R it came from ([`HintsProduct::origin`]): a rebuild that
/// lowers to that netlist, or of the unchanged version, fetches that product
/// instead of placing the page again.
#[derive(Debug, Clone, PartialEq)]
pub struct HintsProduct {
    hints: pnr::PnrHints,
    content_hash: u64,
    origin: u64,
}

impl HintsProduct {
    /// Wraps hints freshly extracted from the P&R product filed under the
    /// PlaceRoute key with hash `origin`, fingerprinting them once.
    pub fn new(hints: pnr::PnrHints, origin: u64) -> HintsProduct {
        HintsProduct {
            content_hash: fnv(&codec::encode(&hints)),
            hints,
            origin,
        }
    }

    /// The replayable prior P&R state.
    pub fn hints(&self) -> &pnr::PnrHints {
        &self.hints
    }

    /// FNV-1a over the hints' canonical encoding — the lineage fingerprint
    /// folded into a warm PlaceRoute key. Taken when the product is made or
    /// decoded, never per lookup.
    pub fn content_hash(&self) -> u64 {
        self.content_hash
    }

    /// Hash of the PlaceRoute key the product these hints were extracted from
    /// is filed under. A warm run makes the same of a layout wherever it came
    /// from, so this is no part of [`HintsProduct::content_hash`].
    pub fn origin(&self) -> u64 {
        self.origin
    }
}

/// One stored stage product. Every variant holds its product behind an
/// [`Arc`], so a clone — a fetch, a snapshot, a farm job's input — is a
/// pointer copy and the store, the plan and the jobs share one allocation.
#[derive(Debug, Clone, PartialEq)]
pub enum StageProduct {
    /// An HLS netlist + report.
    Hls(Arc<HlsProduct>),
    /// A placed-and-routed page bitstream.
    Pnr(Arc<PnrProduct>),
    /// A compiled softcore binary.
    Soft(Arc<SoftProduct>),
    /// A packed, loadable artifact.
    Pack(Arc<Xclbin>),
    /// A generated load-and-link driver.
    Driver(Arc<Driver>),
    /// An optimized dataflow graph.
    Opt(Arc<OptProduct>),
    /// Warm-start P&R hints.
    Hints(Arc<HintsProduct>),
}

/// The shared, content-addressed artifact store.
///
/// See the [module docs](self) for the role it plays; [`mod@crate::build`] for
/// the drivers that populate it.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct ArtifactStore {
    entries: HashMap<StageKey, StageProduct>,
    /// Entries per stage kind, indexed by `kind as usize` (entries are only
    /// ever added).
    counts: [usize; StageKind::ALL.len()],
}

impl ArtifactStore {
    /// Creates an empty store.
    pub fn new() -> ArtifactStore {
        ArtifactStore::default()
    }

    /// Number of stored stage products.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the store holds nothing.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of stored products of one stage kind.
    pub fn count_kind(&self, kind: StageKind) -> usize {
        self.counts[kind as usize]
    }

    /// Looks up a stage product.
    pub fn get(&self, key: StageKey) -> Option<&StageProduct> {
        self.entries.get(&key)
    }

    /// Files a stage product under its key.
    ///
    /// Collision policy: **keep-first**. Content addressing means two
    /// products filed under one key are the same work, so the incumbent
    /// wins and the duplicate is dropped — debug builds additionally
    /// assert the two products are equal, which is what turns a silent
    /// hash collision (or a non-deterministic stage) into a loud failure
    /// instead of a quietly corrupted cache.
    pub fn insert(&mut self, key: StageKey, product: StageProduct) {
        match self.entries.entry(key) {
            std::collections::hash_map::Entry::Occupied(existing) => {
                debug_assert_eq!(
                    *existing.get(),
                    product,
                    "stage key {key} filed with two different products"
                );
            }
            std::collections::hash_map::Entry::Vacant(slot) => {
                slot.insert(product);
                self.counts[key.kind as usize] += 1;
            }
        }
    }

    /// Absorbs every entry of another store. Content addressing makes
    /// this conflict-free — equal keys name equal products — so merging
    /// the per-worker stores of a batch compile (or per-device caches
    /// across a fleet) is a union, not a reconciliation. Entries already
    /// present keep the incumbent product ([`ArtifactStore::insert`]'s
    /// keep-first policy, equality-asserted in debug builds).
    pub fn merge(&mut self, other: ArtifactStore) {
        for (key, product) in other.entries {
            self.insert(key, product);
        }
    }

    /// Consumes the store into its entries, sorted by `(kind, hash)` so
    /// downstream appends (e.g. into an on-disk segment) are deterministic.
    pub(crate) fn into_entries(self) -> Vec<(StageKey, StageProduct)> {
        let mut entries: Vec<_> = self.entries.into_iter().collect();
        entries.sort_by_key(|(k, _)| (k.kind, k.hash));
        entries
    }

    /// The store's entries in the crate codec, sorted by `(kind, hash)`:
    /// what the store weighs in bytes. No file holds this encoding; a cache
    /// directory files each product in its own record.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        let mut entries: Vec<_> = self.entries.iter().collect();
        entries.sort_by_key(|(k, _)| (k.kind, k.hash));
        codec::write_pairs(&mut out, &entries);
        out
    }
}

impl Codec for OptProduct {
    fn put(&self, out: &mut Vec<u8>) {
        self.graph.put(out);
        self.summary.put(out);
    }

    fn get(c: &mut Cursor) -> io::Result<Self> {
        // The graph's field list, each kernel hashed from the bytes decoded.
        let name = Codec::get(c)?;
        let n = c.len_prefix()?;
        let (mut operators, mut kernel_hashes) = (Vec::with_capacity(n), Vec::with_capacity(n));
        for _ in 0..n {
            let name = Codec::get(c)?;
            let start = c.pos();
            let kernel = Codec::get(c)?;
            kernel_hashes.push(fnv(c.since(start)));
            let target = Codec::get(c)?;
            operators.push(dfg::OperatorInst {
                name,
                kernel,
                target,
            });
        }
        let graph = dfg::Graph {
            name,
            operators,
            edges: Codec::get(c)?,
            ext_inputs: Codec::get(c)?,
            ext_outputs: Codec::get(c)?,
        };
        Ok(OptProduct {
            graph,
            kernel_hashes,
            summary: Codec::get(c)?,
        })
    }
}

impl Codec for HlsProduct {
    fn put(&self, out: &mut Vec<u8>) {
        self.netlist.put(out);
        self.report.put(out);
    }

    fn get(c: &mut Cursor) -> io::Result<Self> {
        // The fingerprint is FNV over exactly the bytes being decoded.
        let start = c.pos();
        let netlist = Codec::get(c)?;
        Ok(HlsProduct {
            netlist,
            netlist_hash: fnv(c.since(start)),
            report: Codec::get(c)?,
        })
    }
}

impl Codec for HintsProduct {
    fn put(&self, out: &mut Vec<u8>) {
        self.hints.put(out);
        self.origin.put(out);
    }

    fn get(c: &mut Cursor) -> io::Result<Self> {
        // The fingerprint is FNV over exactly the bytes being decoded.
        let start = c.pos();
        let hints = Codec::get(c)?;
        Ok(HintsProduct {
            hints,
            content_hash: fnv(c.since(start)),
            origin: Codec::get(c)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::{LinkOp, LoadOp, XclbinKind};
    use crate::cache::CacheBackend;
    use netlist::{CellKind, Resources};
    use noc::PortAddr;
    use softcore::PackedBinary;

    fn sample_store() -> ArtifactStore {
        let mut store = ArtifactStore::new();
        let netlist = {
            let mut n = Netlist::new("op");
            let a = n.add_cell("add", CellKind::Adder { width: 32 });
            let r = n.add_cell("reg", CellKind::Register { width: 32 });
            n.add_net(a, vec![r], 32);
            n
        };
        let report = HlsReport {
            name: "op".into(),
            resources: Resources::luts(32),
            cells: 2,
            nets: 1,
            intrinsic_ns: 1.5,
            top_ii: 1,
            invocation_cycles: 64,
            overlay_cycles: 80,
            input_words: vec![("in".into(), 64)],
            output_words: vec![("out".into(), 64)],
            hls_work: 123,
        };
        store.insert(
            StageKey {
                kind: StageKind::HlsLower,
                hash: 11,
            },
            StageProduct::Hls(Arc::new(HlsProduct::new(netlist, report))),
        );
        store.insert(
            StageKey {
                kind: StageKind::PlaceRoute,
                hash: 22,
            },
            StageProduct::Pnr(Arc::new(PnrProduct {
                bitstream: Bitstream {
                    design: "op".into(),
                    region: fabric::Rect::new(2, 0, 10, 10),
                    config_bits: 4096,
                    payload_hash: 0xdead_beef,
                },
                timing: TimingReport {
                    critical_ns: 3.2,
                    fmax_mhz: 312.5,
                    slr_crossings: 0,
                    worst_net_ns: 0.8,
                },
                work_units: 999,
                wrapped_cells: 7,
                seed: 0xfeed,
                cold_work: 1299,
            })),
        );
        store.insert(
            StageKey {
                kind: StageKind::BitstreamPack,
                hash: 33,
            },
            StageProduct::Pack(Arc::new(Xclbin {
                name: "op.xclbin".into(),
                kind: XclbinKind::Softcore {
                    page: fabric::PageId(3),
                    binary: PackedBinary {
                        operator: "op".into(),
                        page: 3,
                        records: vec![(0, vec![1, 2, 3, 4]), (64, vec![9])],
                    },
                },
                hash: 0x1234,
            })),
        );
        store.insert(
            StageKey {
                kind: StageKind::LinkDriver,
                hash: 44,
            },
            StageProduct::Driver(Arc::new(Driver {
                loads: vec![LoadOp::Overlay, LoadOp::PageBitstream { artifact: 1 }],
                links: vec![LinkOp {
                    src_leaf: 0,
                    stream: 1,
                    dest: PortAddr { leaf: 2, port: 3 },
                }],
            })),
        );
        store.insert(
            StageKind::SoftcoreCc.key(66),
            StageProduct::Soft(Arc::new(SoftProduct {
                binary: SoftBinary {
                    name: "op".into(),
                    code: vec![0x0000_0013, 0x0010_0073],
                    data_init: vec![(256, vec![7, 0, 0, 0])],
                    mem_bytes: 4096,
                    intrinsics: vec![
                        softcore::firmware::Intrinsic::Bin {
                            op: kir::BinOp::Max,
                            lhs: kir::Scalar::fixed(16, 8),
                            rhs: kir::Scalar::int(8),
                        },
                        softcore::firmware::Intrinsic::BitRange {
                            arg: kir::Scalar::uint(32),
                            hi: 7,
                            lo: 0,
                        },
                    ],
                    in_ports: 1,
                    out_ports: 1,
                    entry: 0,
                },
            })),
        );
        store.insert(
            StageKind::KpnOptimize.key(77),
            StageProduct::Opt(Arc::new(sample_opt())),
        );
        store.insert(
            StageKind::PnrHints.key(55),
            StageProduct::Hints(Arc::new(sample_hints())),
        );
        store
    }

    fn sample_opt() -> OptProduct {
        use kir::{Expr, KernelBuilder, Scalar, Stmt};
        let kernel = KernelBuilder::new("k")
            .input("in", Scalar::uint(32))
            .output("out", Scalar::fixed(16, 8))
            .local("x", Scalar::uint(32))
            .array("rom", Scalar::uint(8), 4)
            .body([Stmt::for_loop(
                "i",
                0..4,
                [
                    Stmt::read("x", "in"),
                    Stmt::if_else(
                        Expr::var("x").lt(Expr::cint(2)),
                        [Stmt::write(
                            "out",
                            Expr::index("rom", Expr::var("i")).add(Expr::var("x").neg()),
                        )],
                        [Stmt::write("out", Expr::var("x").cast(Scalar::int(8)))],
                    ),
                ],
            )])
            .build()
            .unwrap();
        let mut b = dfg::GraphBuilder::new("app");
        let op = b.add("op", kernel, dfg::Target::hw_auto());
        b.ext_input("Input_1", op, "in");
        b.ext_output("Output_1", op, "out");
        let summary = OptSummary {
            fused: vec!["a__b".into()],
            fissioned: vec!["c".into()],
            balance_before: 0.5,
            balance_after: 0.9,
        };
        OptProduct::new(b.build().unwrap(), summary, None)
    }

    fn sample_hints() -> HintsProduct {
        let hints = pnr::PnrHints {
            region: fabric::Rect::new(2, 0, 10, 10),
            cell_ids: vec![1, 2, 3],
            assignment: vec![(2, 0), (3, 1), (4, 2)],
            net_ids: vec![7, 8],
            routes: vec![vec![vec![(2, 0), (3, 0)]], vec![vec![(3, 1)]]],
            history: vec![0.0, 0.5, 1.5],
            wirelength: 12,
            fmax_mhz: 301.5,
            work_units: 4242,
        };
        HintsProduct::new(hints, 0x0419)
    }

    /// The store decoded from the codec bytes of its sorted entries.
    fn round_trip(store: &ArtifactStore) -> ArtifactStore {
        let bytes = codec::encode(&store.clone().into_entries());
        let mut back = ArtifactStore::new();
        for (key, product) in codec::decode::<Vec<(StageKey, StageProduct)>>(&bytes).unwrap() {
            back.insert(key, product);
        }
        back
    }

    /// Every product's encoding, byte for byte: the sorted entries of a
    /// store holding one product of every [`StageProduct`] variant encode to
    /// the bytes they did under format v9, whose single-file store wrapped
    /// them in a 12-byte header and an 8-byte checksum. A change to any
    /// field list, tag or primitive moves this. The same store's file was
    /// 1459 bytes in v5 and 1443 in v6 (two `u32`s and a `u64` fewer in its
    /// one `PnrProduct`); v7 dropped the 8-byte length of its one
    /// `OptProduct`'s empty depth vector. v8 moved how keys are derived, and
    /// v9 and v10 the cache directory's layout, not how products encode.
    #[test]
    fn product_bytes_are_pinned() {
        let bytes = codec::encode(&sample_store().into_entries());
        assert_eq!(
            (bytes.len(), fnv(&bytes)),
            (1443 - 8 - 20, 0xaf39_7a84_a6c2_977d)
        );
    }

    /// Every product's encoding, byte for byte, on real products: the
    /// sorted entries of the store the six Rosetta apps leave after an `-O0`
    /// build and an optimized, hint-filing `-O1` build encode to the bytes
    /// they did under format v9, whose single-file store wrapped them in a
    /// 12-byte header and an 8-byte checksum. In v5 that file was 499 938
    /// bytes: v6 dropped two `u32`s and a `u64` from every `PlaceRoute`
    /// product; v7 dropped every `KpnOptimize` product's depth vector (an
    /// 8-byte length for each of the six, plus 8 bytes for each of their 28
    /// edges) and moved those products' keys, and nothing else. v8 derives
    /// every key, and the source hashes that artifact hashes mix in, from
    /// codec bytes: the values of the keys, of the hints' origins and of the
    /// artifact hashes moved, and no length did.
    #[test]
    fn rosetta_product_bytes_are_pinned() {
        use crate::flow::{CompileOptions, OptLevel};
        let mut store = ArtifactStore::new();
        let o1 = CompileOptions {
            incremental_pnr: true,
            optimize: Some(dfg::OptimizerConfig::default()),
            ..CompileOptions::new(OptLevel::O1)
        };
        for bench in rosetta::suite(rosetta::Scale::Tiny) {
            for options in [&CompileOptions::new(OptLevel::O0), &o1] {
                crate::build(&bench.graph, options, &mut store).unwrap();
            }
        }
        for kind in StageKind::ALL {
            assert!(store.count_kind(kind) > 0, "no {kind} product is pinned");
        }
        let n_pnr = store.count_kind(StageKind::PlaceRoute);
        let n_opt = store.count_kind(StageKind::KpnOptimize);
        let n_hints = store.count_kind(StageKind::PnrHints);
        let n = store.len();
        let bytes = codec::encode(&store.into_entries());
        // Keying `PlaceRoute` on the HLS netlist moved those keys and added,
        // per P&R run, a second filing of its hint, under its netlist's key:
        // a 9-byte key and 153 254 bytes of hint encodings across the 30.
        let second_filings = n_hints - n_pnr;
        assert_eq!(
            bytes.len(),
            499_938 - 16 * n_pnr - 8 * (n_opt + 28) + 9 * second_filings + 153_254 - 20
        );
        assert_eq!(
            (n, n_pnr, n_opt, n_hints, fnv(&bytes)),
            (228, 30, 6, 60, 0x183c_23e9_db87_75ed)
        );
    }

    #[test]
    fn round_trips_through_the_codec() {
        let store = sample_store();
        let back = round_trip(&store);
        for kind in StageKind::ALL {
            assert_eq!(back.count_kind(kind), 1);
        }
        assert_eq!(back, store);
    }

    #[test]
    fn opt_product_hashes_its_kernels_at_decode() {
        let product = sample_opt();
        assert_eq!(
            product.kernel_hashes(),
            [crate::build::kernel_hash(
                &product.graph().operators[0].kernel
            )]
        );
        let mut back = round_trip(&sample_store());
        assert_eq!(back.fetch_opt(77).as_deref(), Some(&product));
    }

    #[test]
    fn hints_fingerprint_survives_the_round_trip() {
        let product = sample_hints();
        let fingerprint = product.content_hash();
        let mut back = round_trip(&sample_store());
        // Decoding takes the fingerprint from the payload bytes, construction
        // from an encoding of the hints: the same bytes, so the same hash.
        assert_eq!(back.fetch_hints(55).as_deref(), Some(&product));
        assert_eq!(back.fetch_hints(55).unwrap().content_hash(), fingerprint);
        assert_eq!(back.fetch_hints(55).unwrap().origin(), 0x0419);
        // Where the layout came from is not part of what a warm run makes of
        // it: the pointer stays out of the fingerprint.
        let elsewhere = HintsProduct::new(product.hints().clone(), 7);
        assert_eq!(elsewhere.content_hash(), fingerprint);
        assert_eq!(fingerprint, fnv(&codec::encode(product.hints())));
    }

    #[test]
    fn netlist_hash_survives_the_round_trip() {
        let mut store = sample_store();
        let product = store.fetch_hls(11).unwrap();
        let mut back = round_trip(&store);
        // Decoding takes the hash from the payload bytes, construction from
        // an encoding of the netlist: the same bytes, so the same hash.
        let decoded = back.fetch_hls(11).unwrap();
        assert_eq!(decoded.as_ref(), product.as_ref());
        assert_eq!(decoded.netlist_hash(), product.netlist_hash());
        assert_eq!(
            product.netlist_hash(),
            fnv(&codec::encode(product.netlist()))
        );
        // What P&R reads is the netlist alone: the report is no part of it.
        let report = HlsReport {
            hls_work: 1,
            ..product.report.clone()
        };
        let relowered = HlsProduct::new(product.netlist().clone(), report);
        assert_eq!(relowered.netlist_hash(), product.netlist_hash());
    }

    /// Bad bytes are an error, never a panic or an allocation the input
    /// could not back: every proper prefix of every product kind's encoding,
    /// the encoding with its first length prefix claiming `u64::MAX`
    /// elements, and a driver whose NoC leaf does not fit its `u16`.
    #[test]
    fn bad_bytes_are_an_error_never_a_panic() {
        let is_invalid = |bytes: &[u8]| {
            codec::decode::<StageProduct>(bytes)
                .is_err_and(|e| e.kind() == io::ErrorKind::InvalidData)
        };
        for (key, product) in sample_store().into_entries() {
            let bytes = codec::encode(&product);
            assert_eq!(codec::decode::<StageProduct>(&bytes).unwrap(), product);
            for cut in 0..bytes.len() {
                assert!(is_invalid(&bytes[..cut]), "{key}: prefix of {cut} bytes");
            }
            // After the tag every product leads with a name or a list, except
            // hints, which lead with their 16-byte region.
            let len_at = if key.kind == StageKind::PnrHints {
                17
            } else {
                1
            };
            let mut huge = bytes.clone();
            huge[len_at..len_at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
            assert!(is_invalid(&huge), "{key}: length prefix of u64::MAX");
            // Anything else smashed the same way may decode, to something
            // else; it must not panic.
            for at in 0..bytes.len() - 8 {
                let mut smashed = bytes.clone();
                smashed[at..at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
                let _ = codec::decode::<StageProduct>(&smashed);
            }
        }
        let driver = Driver {
            loads: vec![],
            links: vec![LinkOp {
                src_leaf: 0xffff,
                stream: 0,
                dest: PortAddr { leaf: 1, port: 0 },
            }],
        };
        let mut bytes = codec::encode(&StageProduct::Driver(Arc::new(driver)));
        // [tag][loads: 0u64][links: 1u64][src_leaf as u32]...: 0xffff -> 0x1ffff.
        assert_eq!(bytes[17..21], 0xffffu32.to_le_bytes());
        bytes[19] = 1;
        assert!(is_invalid(&bytes), "a leaf of 0x1ffff is not leaf 0xffff");
    }

    #[test]
    fn insert_keeps_first_product_for_identical_keys() {
        let mut store = sample_store();
        let key = StageKey {
            kind: StageKind::HlsLower,
            hash: 11,
        };
        let before = store.get(key).cloned().unwrap();
        // Re-filing the same product under the same key is the normal
        // content-addressed duplicate (batch merges):
        // keep-first makes it a no-op.
        store.insert(key, before.clone());
        assert_eq!(store.get(key), Some(&before));
        assert_eq!(store.count_kind(StageKind::HlsLower), 1);

        // Merge follows the same policy.
        let mut other = ArtifactStore::new();
        other.insert(key, before.clone());
        let fresh_key = StageKey {
            kind: StageKind::HlsLower,
            hash: 99,
        };
        other.insert(fresh_key, before.clone());
        store.merge(other);
        assert_eq!(store.get(key), Some(&before));
        assert_eq!(store.count_kind(StageKind::HlsLower), 2);
    }

    #[test]
    #[should_panic(expected = "filed with two different products")]
    #[cfg(debug_assertions)]
    fn colliding_products_assert_in_debug() {
        let mut store = sample_store();
        let key = StageKey {
            kind: StageKind::HlsLower,
            hash: 11,
        };
        let mut different = store.get(key).cloned().unwrap();
        if let StageProduct::Hls(h) = &mut different {
            Arc::make_mut(h).report.hls_work += 1;
        }
        store.insert(key, different);
    }
}
