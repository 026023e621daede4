//! The content-addressed artifact store shared by every compile flow.
//!
//! Each compile is a DAG of typed stages ([`StageKind`]); every stage
//! product is filed under a [`StageKey`] — a content hash covering *all* of
//! the stage's inputs (kernel source, resolved target, page rectangle,
//! device, seed, ...; see [`mod@crate::build`] for the exact key composition).
//! `-O0`, `-O1` and `-O3` compiles, the [`crate::BuildCache`], and the
//! runtime's hot-swap path are all drivers over one store, so a netlist
//! synthesized for an `-O1` page compile is a cache hit for the same
//! operator in an `-O3` stitch, and vice versa.
//!
//! The store lives in memory and round-trips through a self-contained
//! on-disk format ([`ArtifactStore::save`] / [`ArtifactStore::load`]), so
//! caches survive across processes — the Makefile-style `.o` directory of
//! the paper's Sec. 6, with content hashes in place of timestamps. (The
//! workspace's vendored `serde` is an offline no-op facade, so the format
//! is a hand-rolled tagged binary encoding rather than a derived one.)

use std::collections::HashMap;
use std::fmt;
use std::io;
use std::path::Path;
use std::sync::Arc;

use hlsim::HlsReport;
use netlist::{CellKind, Netlist, Resources};
use noc::PortAddr;
use pnr::{Bitstream, TimingReport};
use softcore::{PackedBinary, SoftBinary};

use crate::artifact::{Driver, LinkOp, LoadOp, Xclbin, XclbinKind};
use crate::build::kernel_hash;
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
    /// with per-edge channel depths and a pass report.
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

    pub(crate) fn tag(self) -> u8 {
        match self {
            StageKind::HlsLower => 0,
            StageKind::PlaceRoute => 1,
            StageKind::BitstreamPack => 2,
            StageKind::SoftcoreCc => 3,
            StageKind::LinkDriver => 4,
            StageKind::KpnOptimize => 5,
            StageKind::PnrHints => 6,
        }
    }

    pub(crate) fn from_tag(tag: u8) -> io::Result<StageKind> {
        Ok(match tag {
            0 => StageKind::HlsLower,
            1 => StageKind::PlaceRoute,
            2 => StageKind::BitstreamPack,
            3 => StageKind::SoftcoreCc,
            4 => StageKind::LinkDriver,
            5 => StageKind::KpnOptimize,
            6 => StageKind::PnrHints,
            _ => return Err(corrupt("unknown stage kind")),
        })
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
#[derive(Debug, Clone, PartialEq)]
pub struct HlsProduct {
    /// The synthesized operator netlist (pre leaf-interface wrapping).
    pub netlist: Netlist,
    /// The synthesis report (resources, II, cycle counts, HLS work units).
    pub report: HlsReport,
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
    /// The P&R seed that produced this product — the winner when seeds were
    /// raced, the (single) configured seed otherwise.
    pub winning_seed: u64,
    /// Seed attempts raced for this product (1 = no racing).
    pub race_attempts: u32,
    /// Attempts the build is charged for: the deterministic horizon of the
    /// race (the winner and every lower-indexed attempt; attempts cancelled
    /// above the horizon cost nothing). 1 when not raced.
    pub race_charged: u32,
    /// Slowest charged attempt's work units — the race's latency on a farm
    /// wide enough to run every attempt concurrently. Equals `work_units`
    /// when not raced.
    pub race_latency_work: u64,
    /// Summed work units across charged attempts — the race's cost on one
    /// serial build machine. Equals `work_units` when not raced.
    pub race_total_work: u64,
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
    /// [`kernel_hash`] of each operator of `graph`, in order: computed when
    /// the product is made or decoded, so no build that fetches it hashes
    /// the rewritten kernels again.
    kernel_hashes: Vec<u64>,
    /// Solved per-edge FIFO depths, indexed like the graph's edges.
    pub edge_depths: Vec<u64>,
    /// What the passes did: fused and split operators, balance before/after.
    pub summary: OptSummary,
}

impl OptProduct {
    /// Wraps an optimizer run's output, hashing the rewritten kernels once.
    pub fn new(graph: dfg::Graph, edge_depths: Vec<u64>, summary: OptSummary) -> OptProduct {
        OptProduct {
            kernel_hashes: graph
                .operators
                .iter()
                .map(|op| kernel_hash(&op.kernel))
                .collect(),
            graph,
            edge_depths,
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
/// The hint filed for a kernel version is also a *pointer* to that version's
/// finished P&R ([`HintsProduct::origin`]): a rebuild of the unchanged version
/// fetches that product instead of placing the page again.
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
        let mut out = Vec::new();
        put_hints(&mut out, &hints);
        HintsProduct {
            content_hash: fnv(&out),
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
#[derive(Debug, Default, Clone)]
pub struct ArtifactStore {
    entries: HashMap<StageKey, StageProduct>,
    /// Entries per stage kind, indexed by [`StageKind::tag`] (entries are
    /// only ever added).
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
        self.counts[kind.tag() as usize]
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
                self.counts[key.kind.tag() as usize] += 1;
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

    /// Serializes the whole store into its on-disk byte format: magic,
    /// `FORMAT_VERSION`, count, the entries sorted by `(kind, hash)`, and a
    /// whole-payload FNV-1a checksum so bit rot is detected at load instead
    /// of decoding into garbage artifacts.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        put_u32(&mut out, FORMAT_VERSION);
        put_u64(&mut out, self.entries.len() as u64);
        let mut keys: Vec<&StageKey> = self.entries.keys().collect();
        keys.sort_by_key(|k| (k.kind, k.hash));
        for key in keys {
            out.push(key.kind.tag());
            put_u64(&mut out, key.hash);
            put_product(&mut out, &self.entries[key]);
        }
        let sum = fnv(&out);
        put_u64(&mut out, sum);
        out
    }

    /// Reconstructs a store from [`ArtifactStore::to_bytes`] output. There
    /// is one format version: bytes written under any other are refused, and
    /// a cache directory that finds them starts cold.
    ///
    /// # Errors
    ///
    /// Returns [`io::ErrorKind::InvalidData`] on a bad magic, version,
    /// checksum mismatch, or truncated/garbled payload.
    pub fn from_bytes(bytes: &[u8]) -> io::Result<ArtifactStore> {
        let mut c = Cursor { buf: bytes, pos: 0 };
        if c.take(MAGIC.len())? != MAGIC {
            return Err(corrupt("bad magic"));
        }
        if c.u32()? != FORMAT_VERSION {
            return Err(corrupt("unsupported store format version"));
        }
        // The trailer checksums everything before it.
        if bytes.len() < c.pos + 8 {
            return Err(corrupt("store file too short for checksum"));
        }
        let end = bytes.len() - 8;
        let want = u64::from_le_bytes(bytes[end..].try_into().unwrap());
        if fnv(&bytes[..end]) != want {
            return Err(corrupt("store checksum mismatch"));
        }
        let n = c.u64()? as usize;
        let mut store = ArtifactStore::new();
        for _ in 0..n {
            let kind = StageKind::from_tag(c.u8()?)?;
            let hash = c.u64()?;
            let product = get_product(&mut c)?;
            // Not `insert`: a duplicate key in a file is bad input, not a
            // non-deterministic stage to assert on.
            if store
                .entries
                .insert(StageKey { kind, hash }, product)
                .is_none()
            {
                store.counts[kind.tag() as usize] += 1;
            }
        }
        if c.pos != end {
            return Err(corrupt("trailing bytes after last entry"));
        }
        Ok(store)
    }

    /// Persists the store to `path` (atomically via a sibling temp file).
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn save(&self, path: impl AsRef<Path>) -> io::Result<()> {
        let path = path.as_ref();
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, self.to_bytes())?;
        std::fs::rename(&tmp, path)
    }

    /// Loads a store previously written by [`ArtifactStore::save`].
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors and format errors from
    /// [`ArtifactStore::from_bytes`].
    pub fn load(path: impl AsRef<Path>) -> io::Result<ArtifactStore> {
        ArtifactStore::from_bytes(&std::fs::read(path)?)
    }
}

const MAGIC: &[u8] = b"PLDSTORE";
/// The one on-disk format version, of the single-file store and of the cache
/// directory's segments and index. It moves when a product's encoding does
/// (5: [`HintsProduct::origin`]); bytes of any other version are a cold start.
pub(crate) const FORMAT_VERSION: u32 = 5;

/// Encodes one stage product in the store's tagged binary layout — the
/// same bytes an [`ArtifactStore::to_bytes`] entry carries, reused by the
/// persistent cache's append-only segment records.
pub(crate) fn encode_product(p: &StageProduct) -> Vec<u8> {
    let mut out = Vec::new();
    put_product(&mut out, p);
    out
}

/// Decodes one [`encode_product`] payload.
pub(crate) fn decode_product(bytes: &[u8]) -> io::Result<StageProduct> {
    let mut c = Cursor { buf: bytes, pos: 0 };
    let product = get_product(&mut c)?;
    if c.pos != bytes.len() {
        return Err(corrupt("trailing bytes after product"));
    }
    Ok(product)
}

pub(crate) fn corrupt(msg: &'static str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

// ---------------------------------------------------------------------------
// Encoding primitives. Little-endian fixed-width integers, f64 as raw bits,
// length-prefixed strings and byte arrays.

pub(crate) fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_i32(out: &mut Vec<u8>, v: i32) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

pub(crate) fn put_f32(out: &mut Vec<u8>, v: f32) {
    put_u32(out, v.to_bits());
}

pub(crate) fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u64(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

pub(crate) fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    put_u64(out, b.len() as u64);
    out.extend_from_slice(b);
}

pub(crate) struct Cursor<'a> {
    pub(crate) buf: &'a [u8],
    pub(crate) pos: usize,
}

impl<'a> Cursor<'a> {
    pub(crate) fn take(&mut self, n: usize) -> io::Result<&'a [u8]> {
        if self.pos + n > self.buf.len() {
            return Err(corrupt("unexpected end of store file"));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub(crate) fn u8(&mut self) -> io::Result<u8> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn u32(&mut self) -> io::Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub(crate) fn u64(&mut self) -> io::Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub(crate) fn i32(&mut self) -> io::Result<i32> {
        Ok(i32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub(crate) fn f64(&mut self) -> io::Result<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    pub(crate) fn f32(&mut self) -> io::Result<f32> {
        Ok(f32::from_bits(self.u32()?))
    }

    pub(crate) fn usize(&mut self) -> io::Result<usize> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| corrupt("length does not fit usize"))
    }

    pub(crate) fn str(&mut self) -> io::Result<String> {
        let n = self.usize()?;
        String::from_utf8(self.take(n)?.to_vec()).map_err(|_| corrupt("invalid utf-8"))
    }

    pub(crate) fn bytes(&mut self) -> io::Result<Vec<u8>> {
        let n = self.usize()?;
        Ok(self.take(n)?.to_vec())
    }
}

// ---------------------------------------------------------------------------
// Domain encoders/decoders.

fn put_rect(out: &mut Vec<u8>, r: fabric::Rect) {
    put_u32(out, r.x0);
    put_u32(out, r.y0);
    put_u32(out, r.w);
    put_u32(out, r.h);
}

fn get_rect(c: &mut Cursor) -> io::Result<fabric::Rect> {
    Ok(fabric::Rect {
        x0: c.u32()?,
        y0: c.u32()?,
        w: c.u32()?,
        h: c.u32()?,
    })
}

fn put_resources(out: &mut Vec<u8>, r: Resources) {
    put_u64(out, r.luts);
    put_u64(out, r.ffs);
    put_u64(out, r.bram18);
    put_u64(out, r.dsp);
}

fn get_resources(c: &mut Cursor) -> io::Result<Resources> {
    Ok(Resources {
        luts: c.u64()?,
        ffs: c.u64()?,
        bram18: c.u64()?,
        dsp: c.u64()?,
    })
}

fn put_cell_kind(out: &mut Vec<u8>, kind: CellKind) {
    match kind {
        CellKind::Adder { width } => {
            out.push(0);
            put_u32(out, width);
        }
        CellKind::Mult { width } => {
            out.push(1);
            put_u32(out, width);
        }
        CellKind::Divider { width } => {
            out.push(2);
            put_u32(out, width);
        }
        CellKind::Logic { width } => {
            out.push(3);
            put_u32(out, width);
        }
        CellKind::Shifter { width } => {
            out.push(4);
            put_u32(out, width);
        }
        CellKind::Comparator { width } => {
            out.push(5);
            put_u32(out, width);
        }
        CellKind::Mux { width } => {
            out.push(6);
            put_u32(out, width);
        }
        CellKind::Register { width } => {
            out.push(7);
            put_u32(out, width);
        }
        CellKind::BramPort { bits } => {
            out.push(8);
            put_u64(out, bits);
        }
        CellKind::Fsm { states } => {
            out.push(9);
            put_u32(out, states);
        }
        CellKind::StreamIn { width } => {
            out.push(10);
            put_u32(out, width);
        }
        CellKind::StreamOut { width } => {
            out.push(11);
            put_u32(out, width);
        }
        CellKind::FifoBuf { width, depth } => {
            out.push(12);
            put_u32(out, width);
            put_u32(out, depth);
        }
        CellKind::Const { width } => {
            out.push(13);
            put_u32(out, width);
        }
    }
}

fn get_cell_kind(c: &mut Cursor) -> io::Result<CellKind> {
    Ok(match c.u8()? {
        0 => CellKind::Adder { width: c.u32()? },
        1 => CellKind::Mult { width: c.u32()? },
        2 => CellKind::Divider { width: c.u32()? },
        3 => CellKind::Logic { width: c.u32()? },
        4 => CellKind::Shifter { width: c.u32()? },
        5 => CellKind::Comparator { width: c.u32()? },
        6 => CellKind::Mux { width: c.u32()? },
        7 => CellKind::Register { width: c.u32()? },
        8 => CellKind::BramPort { bits: c.u64()? },
        9 => CellKind::Fsm { states: c.u32()? },
        10 => CellKind::StreamIn { width: c.u32()? },
        11 => CellKind::StreamOut { width: c.u32()? },
        12 => CellKind::FifoBuf {
            width: c.u32()?,
            depth: c.u32()?,
        },
        13 => CellKind::Const { width: c.u32()? },
        _ => return Err(corrupt("unknown cell kind")),
    })
}

fn put_netlist(out: &mut Vec<u8>, n: &Netlist) {
    put_str(out, &n.name);
    put_u64(out, n.cells.len() as u64);
    for cell in &n.cells {
        put_str(out, &cell.name);
        put_cell_kind(out, cell.kind);
    }
    put_u64(out, n.nets.len() as u64);
    for net in &n.nets {
        put_u64(out, net.driver.0 as u64);
        put_u64(out, net.sinks.len() as u64);
        for s in &net.sinks {
            put_u64(out, s.0 as u64);
        }
        put_u32(out, net.width);
    }
}

fn get_netlist(c: &mut Cursor) -> io::Result<Netlist> {
    let name = c.str()?;
    let n_cells = c.usize()?;
    let mut cells = Vec::with_capacity(n_cells.min(1 << 20));
    for _ in 0..n_cells {
        let name = c.str()?;
        let kind = get_cell_kind(c)?;
        cells.push(netlist::Cell { name, kind });
    }
    let n_nets = c.usize()?;
    let mut nets = Vec::with_capacity(n_nets.min(1 << 20));
    for _ in 0..n_nets {
        let driver = netlist::CellId(c.usize()?);
        let n_sinks = c.usize()?;
        let mut sinks = Vec::with_capacity(n_sinks.min(1 << 20));
        for _ in 0..n_sinks {
            sinks.push(netlist::CellId(c.usize()?));
        }
        let width = c.u32()?;
        nets.push(netlist::Net {
            driver,
            sinks,
            width,
        });
    }
    Ok(Netlist { name, cells, nets })
}

fn put_word_list(out: &mut Vec<u8>, words: &[(String, u64)]) {
    put_u64(out, words.len() as u64);
    for (name, n) in words {
        put_str(out, name);
        put_u64(out, *n);
    }
}

fn get_word_list(c: &mut Cursor) -> io::Result<Vec<(String, u64)>> {
    let n = c.usize()?;
    let mut v = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        let name = c.str()?;
        let words = c.u64()?;
        v.push((name, words));
    }
    Ok(v)
}

fn put_hls_report(out: &mut Vec<u8>, r: &HlsReport) {
    put_str(out, &r.name);
    put_resources(out, r.resources);
    put_u64(out, r.cells as u64);
    put_u64(out, r.nets as u64);
    put_f64(out, r.intrinsic_ns);
    put_u64(out, r.top_ii);
    put_u64(out, r.invocation_cycles);
    put_u64(out, r.overlay_cycles);
    put_word_list(out, &r.input_words);
    put_word_list(out, &r.output_words);
    put_u64(out, r.hls_work);
}

fn get_hls_report(c: &mut Cursor) -> io::Result<HlsReport> {
    Ok(HlsReport {
        name: c.str()?,
        resources: get_resources(c)?,
        cells: c.usize()?,
        nets: c.usize()?,
        intrinsic_ns: c.f64()?,
        top_ii: c.u64()?,
        invocation_cycles: c.u64()?,
        overlay_cycles: c.u64()?,
        input_words: get_word_list(c)?,
        output_words: get_word_list(c)?,
        hls_work: c.u64()?,
    })
}

fn put_bitstream(out: &mut Vec<u8>, b: &Bitstream) {
    put_str(out, &b.design);
    put_rect(out, b.region);
    put_u64(out, b.config_bits);
    put_u64(out, b.payload_hash);
}

fn get_bitstream(c: &mut Cursor) -> io::Result<Bitstream> {
    Ok(Bitstream {
        design: c.str()?,
        region: get_rect(c)?,
        config_bits: c.u64()?,
        payload_hash: c.u64()?,
    })
}

fn put_timing(out: &mut Vec<u8>, t: &TimingReport) {
    put_f64(out, t.critical_ns);
    put_f64(out, t.fmax_mhz);
    put_u32(out, t.slr_crossings);
    put_f64(out, t.worst_net_ns);
}

fn get_timing(c: &mut Cursor) -> io::Result<TimingReport> {
    Ok(TimingReport {
        critical_ns: c.f64()?,
        fmax_mhz: c.f64()?,
        slr_crossings: c.u32()?,
        worst_net_ns: c.f64()?,
    })
}

fn put_scalar(out: &mut Vec<u8>, s: kir::Scalar) {
    match s {
        kir::Scalar::Int { width, signed } => {
            out.push(0);
            put_u32(out, width);
            out.push(signed as u8);
        }
        kir::Scalar::Fixed {
            width,
            int_bits,
            signed,
        } => {
            out.push(1);
            put_u32(out, width);
            put_i32(out, int_bits);
            out.push(signed as u8);
        }
    }
}

fn get_scalar(c: &mut Cursor) -> io::Result<kir::Scalar> {
    Ok(match c.u8()? {
        0 => kir::Scalar::Int {
            width: c.u32()?,
            signed: c.u8()? != 0,
        },
        1 => kir::Scalar::Fixed {
            width: c.u32()?,
            int_bits: c.i32()?,
            signed: c.u8()? != 0,
        },
        _ => return Err(corrupt("unknown scalar kind")),
    })
}

fn put_u128(out: &mut Vec<u8>, v: u128) {
    put_u64(out, v as u64);
    put_u64(out, (v >> 64) as u64);
}

fn get_u128(c: &mut Cursor) -> io::Result<u128> {
    let lo = c.u64()?;
    let hi = c.u64()?;
    Ok(u128::from(lo) | (u128::from(hi) << 64))
}

fn put_expr(out: &mut Vec<u8>, e: &kir::Expr) {
    match e {
        kir::Expr::Const { raw, ty } => {
            out.push(0);
            put_u128(out, *raw as u128);
            put_scalar(out, *ty);
        }
        kir::Expr::Var(name) => {
            out.push(1);
            put_str(out, name);
        }
        kir::Expr::ArrayGet { array, index } => {
            out.push(2);
            put_str(out, array);
            put_expr(out, index);
        }
        kir::Expr::Un { op, arg } => {
            out.push(3);
            put_debug_name(out, op);
            put_expr(out, arg);
        }
        kir::Expr::Bin { op, lhs, rhs } => {
            out.push(4);
            put_debug_name(out, op);
            put_expr(out, lhs);
            put_expr(out, rhs);
        }
        kir::Expr::Cast { ty, arg } => {
            out.push(5);
            put_scalar(out, *ty);
            put_expr(out, arg);
        }
        kir::Expr::Select {
            cond,
            then_val,
            else_val,
        } => {
            out.push(6);
            put_expr(out, cond);
            put_expr(out, then_val);
            put_expr(out, else_val);
        }
        kir::Expr::BitRange { arg, hi, lo } => {
            out.push(7);
            put_expr(out, arg);
            put_u32(out, *hi);
            put_u32(out, *lo);
        }
    }
}

fn get_expr(c: &mut Cursor) -> io::Result<kir::Expr> {
    Ok(match c.u8()? {
        0 => kir::Expr::Const {
            raw: get_u128(c)? as i128,
            ty: get_scalar(c)?,
        },
        1 => kir::Expr::Var(c.str()?),
        2 => kir::Expr::ArrayGet {
            array: c.str()?,
            index: Box::new(get_expr(c)?),
        },
        3 => kir::Expr::Un {
            op: get_un_op(c)?,
            arg: Box::new(get_expr(c)?),
        },
        4 => kir::Expr::Bin {
            op: get_bin_op(c)?,
            lhs: Box::new(get_expr(c)?),
            rhs: Box::new(get_expr(c)?),
        },
        5 => kir::Expr::Cast {
            ty: get_scalar(c)?,
            arg: Box::new(get_expr(c)?),
        },
        6 => kir::Expr::Select {
            cond: Box::new(get_expr(c)?),
            then_val: Box::new(get_expr(c)?),
            else_val: Box::new(get_expr(c)?),
        },
        7 => kir::Expr::BitRange {
            arg: Box::new(get_expr(c)?),
            hi: c.u32()?,
            lo: c.u32()?,
        },
        _ => return Err(corrupt("unknown expression kind")),
    })
}

fn put_stmts(out: &mut Vec<u8>, stmts: &[kir::Stmt]) {
    put_u64(out, stmts.len() as u64);
    for s in stmts {
        put_stmt(out, s);
    }
}

fn get_stmts(c: &mut Cursor) -> io::Result<Vec<kir::Stmt>> {
    let n = c.usize()?;
    let mut v = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        v.push(get_stmt(c)?);
    }
    Ok(v)
}

fn put_stmt(out: &mut Vec<u8>, s: &kir::Stmt) {
    match s {
        kir::Stmt::Assign { var, value } => {
            out.push(0);
            put_str(out, var);
            put_expr(out, value);
        }
        kir::Stmt::ArraySet {
            array,
            index,
            value,
        } => {
            out.push(1);
            put_str(out, array);
            put_expr(out, index);
            put_expr(out, value);
        }
        kir::Stmt::Read { var, port } => {
            out.push(2);
            put_str(out, var);
            put_str(out, port);
        }
        kir::Stmt::Write { port, value } => {
            out.push(3);
            put_str(out, port);
            put_expr(out, value);
        }
        kir::Stmt::For {
            var,
            begin,
            end,
            step,
            pipeline,
            unroll,
            body,
        } => {
            out.push(4);
            put_str(out, var);
            put_u64(out, *begin as u64);
            put_u64(out, *end as u64);
            put_u64(out, *step as u64);
            out.push(*pipeline as u8);
            put_u32(out, *unroll);
            put_stmts(out, body);
        }
        kir::Stmt::If {
            cond,
            then_body,
            else_body,
        } => {
            out.push(5);
            put_expr(out, cond);
            put_stmts(out, then_body);
            put_stmts(out, else_body);
        }
    }
}

fn get_stmt(c: &mut Cursor) -> io::Result<kir::Stmt> {
    Ok(match c.u8()? {
        0 => kir::Stmt::Assign {
            var: c.str()?,
            value: get_expr(c)?,
        },
        1 => kir::Stmt::ArraySet {
            array: c.str()?,
            index: get_expr(c)?,
            value: get_expr(c)?,
        },
        2 => kir::Stmt::Read {
            var: c.str()?,
            port: c.str()?,
        },
        3 => kir::Stmt::Write {
            port: c.str()?,
            value: get_expr(c)?,
        },
        4 => kir::Stmt::For {
            var: c.str()?,
            begin: c.u64()? as i64,
            end: c.u64()? as i64,
            step: c.u64()? as i64,
            pipeline: c.u8()? != 0,
            unroll: c.u32()?,
            body: get_stmts(c)?,
        },
        5 => kir::Stmt::If {
            cond: get_expr(c)?,
            then_body: get_stmts(c)?,
            else_body: get_stmts(c)?,
        },
        _ => return Err(corrupt("unknown statement kind")),
    })
}

fn put_kernel(out: &mut Vec<u8>, k: &kir::Kernel) {
    put_str(out, &k.name);
    for ports in [&k.inputs, &k.outputs] {
        put_u64(out, ports.len() as u64);
        for p in ports {
            put_str(out, &p.name);
            put_scalar(out, p.elem);
        }
    }
    put_u64(out, k.locals.len() as u64);
    for v in &k.locals {
        put_str(out, &v.name);
        put_scalar(out, v.ty);
    }
    put_u64(out, k.arrays.len() as u64);
    for a in &k.arrays {
        put_str(out, &a.name);
        put_scalar(out, a.elem);
        put_u64(out, a.len);
        match &a.init {
            None => out.push(0),
            Some(init) => {
                out.push(1);
                put_u64(out, init.len() as u64);
                for w in init {
                    put_u128(out, *w);
                }
            }
        }
    }
    put_stmts(out, &k.body);
}

fn get_kernel(c: &mut Cursor) -> io::Result<kir::Kernel> {
    let name = c.str()?;
    let mut ports = [Vec::new(), Vec::new()];
    for list in &mut ports {
        let n = c.usize()?;
        for _ in 0..n {
            list.push(kir::PortDecl {
                name: c.str()?,
                elem: get_scalar(c)?,
            });
        }
    }
    let [inputs, outputs] = ports;
    let n_locals = c.usize()?;
    let mut locals = Vec::with_capacity(n_locals.min(1 << 16));
    for _ in 0..n_locals {
        locals.push(kir::VarDecl {
            name: c.str()?,
            ty: get_scalar(c)?,
        });
    }
    let n_arrays = c.usize()?;
    let mut arrays = Vec::with_capacity(n_arrays.min(1 << 16));
    for _ in 0..n_arrays {
        let name = c.str()?;
        let elem = get_scalar(c)?;
        let len = c.u64()?;
        let init = match c.u8()? {
            0 => None,
            1 => {
                let n = c.usize()?;
                let mut words = Vec::with_capacity(n.min(1 << 20));
                for _ in 0..n {
                    words.push(get_u128(c)?);
                }
                Some(words)
            }
            _ => return Err(corrupt("unknown array init flag")),
        };
        arrays.push(kir::ArrayDecl {
            name,
            elem,
            len,
            init,
        });
    }
    Ok(kir::Kernel {
        name,
        inputs,
        outputs,
        locals,
        arrays,
        body: get_stmts(c)?,
    })
}

fn put_target(out: &mut Vec<u8>, t: dfg::Target) {
    let (tag, page) = match t {
        dfg::Target::Hw { page } => (0u8, page),
        dfg::Target::Riscv { page } => (1u8, page),
    };
    out.push(tag);
    match page {
        None => out.push(0),
        Some(p) => {
            out.push(1);
            put_u32(out, p);
        }
    }
}

fn get_target(c: &mut Cursor) -> io::Result<dfg::Target> {
    let tag = c.u8()?;
    let page = match c.u8()? {
        0 => None,
        1 => Some(c.u32()?),
        _ => return Err(corrupt("unknown target page flag")),
    };
    Ok(match tag {
        0 => dfg::Target::Hw { page },
        1 => dfg::Target::Riscv { page },
        _ => return Err(corrupt("unknown target kind")),
    })
}

fn put_graph(out: &mut Vec<u8>, g: &dfg::Graph) {
    put_str(out, &g.name);
    put_u64(out, g.operators.len() as u64);
    for op in &g.operators {
        put_str(out, &op.name);
        put_kernel(out, &op.kernel);
        put_target(out, op.target);
    }
    put_u64(out, g.edges.len() as u64);
    for e in &g.edges {
        put_str(out, &e.name);
        put_u64(out, e.from.0 .0 as u64);
        put_str(out, &e.from.1);
        put_u64(out, e.to.0 .0 as u64);
        put_str(out, &e.to.1);
        put_scalar(out, e.elem);
    }
    for ports in [&g.ext_inputs, &g.ext_outputs] {
        put_u64(out, ports.len() as u64);
        for p in ports {
            put_str(out, &p.name);
            put_u64(out, p.op.0 as u64);
            put_str(out, &p.port);
            put_scalar(out, p.elem);
        }
    }
}

fn get_graph(c: &mut Cursor) -> io::Result<dfg::Graph> {
    let name = c.str()?;
    let n_ops = c.usize()?;
    let mut operators = Vec::with_capacity(n_ops.min(1 << 16));
    for _ in 0..n_ops {
        operators.push(dfg::OperatorInst {
            name: c.str()?,
            kernel: get_kernel(c)?,
            target: get_target(c)?,
        });
    }
    let n_edges = c.usize()?;
    let mut edges = Vec::with_capacity(n_edges.min(1 << 16));
    for _ in 0..n_edges {
        edges.push(dfg::StreamEdge {
            name: c.str()?,
            from: (dfg::OpId(c.usize()?), c.str()?),
            to: (dfg::OpId(c.usize()?), c.str()?),
            elem: get_scalar(c)?,
        });
    }
    let mut ports = [Vec::new(), Vec::new()];
    for list in &mut ports {
        let n = c.usize()?;
        for _ in 0..n {
            list.push(dfg::ExtPort {
                name: c.str()?,
                op: dfg::OpId(c.usize()?),
                port: c.str()?,
                elem: get_scalar(c)?,
            });
        }
    }
    let [ext_inputs, ext_outputs] = ports;
    Ok(dfg::Graph {
        name,
        operators,
        edges,
        ext_inputs,
        ext_outputs,
    })
}

fn put_opt(out: &mut Vec<u8>, p: &OptProduct) {
    put_graph(out, &p.graph);
    put_u64(out, p.edge_depths.len() as u64);
    for d in &p.edge_depths {
        put_u64(out, *d);
    }
    for names in [&p.summary.fused, &p.summary.fissioned] {
        put_u64(out, names.len() as u64);
        for n in names {
            put_str(out, n);
        }
    }
    put_f64(out, p.summary.balance_before);
    put_f64(out, p.summary.balance_after);
}

fn get_opt(c: &mut Cursor) -> io::Result<OptProduct> {
    let graph = get_graph(c)?;
    let n = c.usize()?;
    let mut edge_depths = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        edge_depths.push(c.u64()?);
    }
    let mut lists = [Vec::new(), Vec::new()];
    for list in &mut lists {
        let n = c.usize()?;
        for _ in 0..n {
            list.push(c.str()?);
        }
    }
    let [fused, fissioned] = lists;
    let summary = OptSummary {
        fused,
        fissioned,
        balance_before: c.f64()?,
        balance_after: c.f64()?,
    };
    Ok(OptProduct::new(graph, edge_depths, summary))
}

fn put_coord_list(out: &mut Vec<u8>, coords: &[(u32, u32)]) {
    put_u64(out, coords.len() as u64);
    for &(x, y) in coords {
        put_u32(out, x);
        put_u32(out, y);
    }
}

fn get_coord_list(c: &mut Cursor) -> io::Result<Vec<(u32, u32)>> {
    let n = c.usize()?;
    let mut v = Vec::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        v.push((c.u32()?, c.u32()?));
    }
    Ok(v)
}

fn put_hints(out: &mut Vec<u8>, h: &pnr::PnrHints) {
    put_rect(out, h.region);
    put_u64(out, h.cell_ids.len() as u64);
    for &id in &h.cell_ids {
        put_u64(out, id);
    }
    put_coord_list(out, &h.assignment);
    put_u64(out, h.net_ids.len() as u64);
    for &id in &h.net_ids {
        put_u64(out, id);
    }
    put_u64(out, h.routes.len() as u64);
    for sink_paths in &h.routes {
        put_u64(out, sink_paths.len() as u64);
        for path in sink_paths {
            put_coord_list(out, path);
        }
    }
    put_u64(out, h.history.len() as u64);
    for &v in &h.history {
        put_f32(out, v);
    }
    put_u64(out, h.wirelength);
    put_f64(out, h.fmax_mhz);
    put_u64(out, h.work_units);
}

fn get_hints(c: &mut Cursor) -> io::Result<pnr::PnrHints> {
    let region = get_rect(c)?;
    let n_cells = c.usize()?;
    let mut cell_ids = Vec::with_capacity(n_cells.min(1 << 20));
    for _ in 0..n_cells {
        cell_ids.push(c.u64()?);
    }
    let assignment = get_coord_list(c)?;
    let n_nets = c.usize()?;
    let mut net_ids = Vec::with_capacity(n_nets.min(1 << 20));
    for _ in 0..n_nets {
        net_ids.push(c.u64()?);
    }
    let n_routes = c.usize()?;
    let mut routes = Vec::with_capacity(n_routes.min(1 << 20));
    for _ in 0..n_routes {
        let n_sinks = c.usize()?;
        let mut sink_paths = Vec::with_capacity(n_sinks.min(1 << 16));
        for _ in 0..n_sinks {
            sink_paths.push(get_coord_list(c)?);
        }
        routes.push(sink_paths);
    }
    let n_hist = c.usize()?;
    let mut history = Vec::with_capacity(n_hist.min(1 << 24));
    for _ in 0..n_hist {
        history.push(c.f32()?);
    }
    Ok(pnr::PnrHints {
        region,
        cell_ids,
        assignment,
        net_ids,
        routes,
        history,
        wirelength: c.u64()?,
        fmax_mhz: c.f64()?,
        work_units: c.u64()?,
    })
}

/// Unit enums encode as their `Debug` name: one place to maintain, and the
/// decoder rejects unknown names instead of silently remapping.
fn put_debug_name(out: &mut Vec<u8>, v: impl fmt::Debug) {
    put_str(out, &format!("{v:?}"));
}

fn get_bin_op(c: &mut Cursor) -> io::Result<kir::BinOp> {
    use kir::BinOp::*;
    Ok(match c.str()?.as_str() {
        "Add" => Add,
        "Sub" => Sub,
        "Mul" => Mul,
        "Div" => Div,
        "Rem" => Rem,
        "And" => And,
        "Or" => Or,
        "Xor" => Xor,
        "Shl" => Shl,
        "Shr" => Shr,
        "Eq" => Eq,
        "Ne" => Ne,
        "Lt" => Lt,
        "Le" => Le,
        "Gt" => Gt,
        "Ge" => Ge,
        "LAnd" => LAnd,
        "LOr" => LOr,
        "Min" => Min,
        "Max" => Max,
        _ => return Err(corrupt("unknown binary op")),
    })
}

fn get_un_op(c: &mut Cursor) -> io::Result<kir::UnOp> {
    use kir::UnOp::*;
    Ok(match c.str()?.as_str() {
        "Neg" => Neg,
        "Not" => Not,
        "LNot" => LNot,
        "Abs" => Abs,
        _ => return Err(corrupt("unknown unary op")),
    })
}

fn put_intrinsic(out: &mut Vec<u8>, i: &softcore::firmware::Intrinsic) {
    use softcore::firmware::Intrinsic::*;
    match i {
        Bin { op, lhs, rhs } => {
            out.push(0);
            put_debug_name(out, op);
            put_scalar(out, *lhs);
            put_scalar(out, *rhs);
        }
        Un { op, arg } => {
            out.push(1);
            put_debug_name(out, op);
            put_scalar(out, *arg);
        }
        Cast { from, to } => {
            out.push(2);
            put_scalar(out, *from);
            put_scalar(out, *to);
        }
        Select { cond, t, e } => {
            out.push(3);
            put_scalar(out, *cond);
            put_scalar(out, *t);
            put_scalar(out, *e);
        }
        BitRange { arg, hi, lo } => {
            out.push(4);
            put_scalar(out, *arg);
            put_u32(out, *hi);
            put_u32(out, *lo);
        }
    }
}

fn get_intrinsic(c: &mut Cursor) -> io::Result<softcore::firmware::Intrinsic> {
    use softcore::firmware::Intrinsic::*;
    Ok(match c.u8()? {
        0 => Bin {
            op: get_bin_op(c)?,
            lhs: get_scalar(c)?,
            rhs: get_scalar(c)?,
        },
        1 => Un {
            op: get_un_op(c)?,
            arg: get_scalar(c)?,
        },
        2 => Cast {
            from: get_scalar(c)?,
            to: get_scalar(c)?,
        },
        3 => Select {
            cond: get_scalar(c)?,
            t: get_scalar(c)?,
            e: get_scalar(c)?,
        },
        4 => BitRange {
            arg: get_scalar(c)?,
            hi: c.u32()?,
            lo: c.u32()?,
        },
        _ => return Err(corrupt("unknown intrinsic")),
    })
}

fn put_records(out: &mut Vec<u8>, records: &[(u32, Vec<u8>)]) {
    put_u64(out, records.len() as u64);
    for (addr, bytes) in records {
        put_u32(out, *addr);
        put_bytes(out, bytes);
    }
}

fn get_records(c: &mut Cursor) -> io::Result<Vec<(u32, Vec<u8>)>> {
    let n = c.usize()?;
    let mut v = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        let addr = c.u32()?;
        let bytes = c.bytes()?;
        v.push((addr, bytes));
    }
    Ok(v)
}

fn put_soft_binary(out: &mut Vec<u8>, b: &SoftBinary) {
    put_str(out, &b.name);
    put_u64(out, b.code.len() as u64);
    for w in &b.code {
        put_u32(out, *w);
    }
    put_records(out, &b.data_init);
    put_u32(out, b.mem_bytes);
    put_u64(out, b.intrinsics.len() as u64);
    for i in &b.intrinsics {
        put_intrinsic(out, i);
    }
    put_u32(out, b.in_ports);
    put_u32(out, b.out_ports);
    put_u32(out, b.entry);
}

fn get_soft_binary(c: &mut Cursor) -> io::Result<SoftBinary> {
    let name = c.str()?;
    let n_code = c.usize()?;
    let mut code = Vec::with_capacity(n_code.min(1 << 20));
    for _ in 0..n_code {
        code.push(c.u32()?);
    }
    let data_init = get_records(c)?;
    let mem_bytes = c.u32()?;
    let n_intr = c.usize()?;
    let mut intrinsics = Vec::with_capacity(n_intr.min(1 << 16));
    for _ in 0..n_intr {
        intrinsics.push(get_intrinsic(c)?);
    }
    Ok(SoftBinary {
        name,
        code,
        data_init,
        mem_bytes,
        intrinsics,
        in_ports: c.u32()?,
        out_ports: c.u32()?,
        entry: c.u32()?,
    })
}

fn put_xclbin(out: &mut Vec<u8>, x: &Xclbin) {
    put_str(out, &x.name);
    match &x.kind {
        XclbinKind::Overlay => out.push(0),
        XclbinKind::Page { page, bitstream } => {
            out.push(1);
            put_u32(out, page.0);
            put_bitstream(out, bitstream);
        }
        XclbinKind::Softcore { page, binary } => {
            out.push(2);
            put_u32(out, page.0);
            put_str(out, &binary.operator);
            put_u32(out, binary.page);
            put_records(out, &binary.records);
        }
        XclbinKind::Kernel { bitstream } => {
            out.push(3);
            put_bitstream(out, bitstream);
        }
    }
    put_u64(out, x.hash);
}

fn get_xclbin(c: &mut Cursor) -> io::Result<Xclbin> {
    let name = c.str()?;
    let kind = match c.u8()? {
        0 => XclbinKind::Overlay,
        1 => XclbinKind::Page {
            page: fabric::PageId(c.u32()?),
            bitstream: get_bitstream(c)?,
        },
        2 => XclbinKind::Softcore {
            page: fabric::PageId(c.u32()?),
            binary: PackedBinary {
                operator: c.str()?,
                page: c.u32()?,
                records: get_records(c)?,
            },
        },
        3 => XclbinKind::Kernel {
            bitstream: get_bitstream(c)?,
        },
        _ => return Err(corrupt("unknown xclbin kind")),
    };
    let hash = c.u64()?;
    Ok(Xclbin { name, kind, hash })
}

fn put_driver(out: &mut Vec<u8>, d: &Driver) {
    put_u64(out, d.loads.len() as u64);
    for load in &d.loads {
        match load {
            LoadOp::Overlay => out.push(0),
            LoadOp::PageBitstream { artifact } => {
                out.push(1);
                put_u64(out, *artifact as u64);
            }
            LoadOp::SoftcoreImage { artifact } => {
                out.push(2);
                put_u64(out, *artifact as u64);
            }
        }
    }
    put_u64(out, d.links.len() as u64);
    for l in &d.links {
        put_u32(out, l.src_leaf as u32);
        out.push(l.stream);
        put_u32(out, l.dest.leaf as u32);
        out.push(l.dest.port);
    }
}

fn get_driver(c: &mut Cursor) -> io::Result<Driver> {
    let n_loads = c.usize()?;
    let mut loads = Vec::with_capacity(n_loads.min(1 << 16));
    for _ in 0..n_loads {
        loads.push(match c.u8()? {
            0 => LoadOp::Overlay,
            1 => LoadOp::PageBitstream {
                artifact: c.usize()?,
            },
            2 => LoadOp::SoftcoreImage {
                artifact: c.usize()?,
            },
            _ => return Err(corrupt("unknown load op")),
        });
    }
    let n_links = c.usize()?;
    let mut links = Vec::with_capacity(n_links.min(1 << 16));
    for _ in 0..n_links {
        links.push(LinkOp {
            src_leaf: c.u32()? as u16,
            stream: c.u8()?,
            dest: PortAddr {
                leaf: c.u32()? as u16,
                port: c.u8()?,
            },
        });
    }
    Ok(Driver { loads, links })
}

fn put_product(out: &mut Vec<u8>, p: &StageProduct) {
    match p {
        StageProduct::Hls(h) => {
            out.push(0);
            put_netlist(out, &h.netlist);
            put_hls_report(out, &h.report);
        }
        StageProduct::Pnr(p) => {
            out.push(1);
            put_bitstream(out, &p.bitstream);
            put_timing(out, &p.timing);
            put_u64(out, p.work_units);
            put_u64(out, p.wrapped_cells);
            put_u64(out, p.winning_seed);
            put_u32(out, p.race_attempts);
            put_u32(out, p.race_charged);
            put_u64(out, p.race_latency_work);
            put_u64(out, p.race_total_work);
        }
        StageProduct::Soft(s) => {
            out.push(2);
            put_soft_binary(out, &s.binary);
        }
        StageProduct::Pack(x) => {
            out.push(3);
            put_xclbin(out, x);
        }
        StageProduct::Driver(d) => {
            out.push(4);
            put_driver(out, d);
        }
        StageProduct::Opt(p) => {
            out.push(5);
            put_opt(out, p);
        }
        StageProduct::Hints(h) => {
            out.push(6);
            put_hints(out, &h.hints);
            put_u64(out, h.origin);
        }
    }
}

fn get_product(c: &mut Cursor) -> io::Result<StageProduct> {
    Ok(match c.u8()? {
        0 => StageProduct::Hls(Arc::new(HlsProduct {
            netlist: get_netlist(c)?,
            report: get_hls_report(c)?,
        })),
        1 => StageProduct::Pnr(Arc::new(PnrProduct {
            bitstream: get_bitstream(c)?,
            timing: get_timing(c)?,
            work_units: c.u64()?,
            wrapped_cells: c.u64()?,
            winning_seed: c.u64()?,
            race_attempts: c.u32()?,
            race_charged: c.u32()?,
            race_latency_work: c.u64()?,
            race_total_work: c.u64()?,
        })),
        2 => StageProduct::Soft(Arc::new(SoftProduct {
            binary: get_soft_binary(c)?,
        })),
        3 => StageProduct::Pack(Arc::new(get_xclbin(c)?)),
        4 => StageProduct::Driver(Arc::new(get_driver(c)?)),
        5 => StageProduct::Opt(Arc::new(get_opt(c)?)),
        6 => {
            // The fingerprint is FNV over exactly the bytes being decoded.
            let start = c.pos;
            let hints = get_hints(c)?;
            StageProduct::Hints(Arc::new(HintsProduct {
                hints,
                content_hash: fnv(&c.buf[start..c.pos]),
                origin: c.u64()?,
            }))
        }
        _ => return Err(corrupt("unknown product kind")),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheBackend;

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
            StageProduct::Hls(Arc::new(HlsProduct { netlist, report })),
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
                winning_seed: 0xfeed,
                race_attempts: 4,
                race_charged: 2,
                race_latency_work: 700,
                race_total_work: 1299,
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
        store
    }

    #[test]
    fn round_trips_through_bytes() {
        let store = sample_store();
        let bytes = store.to_bytes();
        let back = ArtifactStore::from_bytes(&bytes).unwrap();
        assert_eq!(back.len(), store.len());
        for kind in StageKind::ALL {
            assert_eq!(back.count_kind(kind), store.count_kind(kind));
        }
        for (key, product) in &store.entries {
            assert_eq!(back.get(*key), Some(product));
        }
        // Serialization is deterministic (sorted keys).
        assert_eq!(bytes, back.to_bytes());
    }

    #[test]
    fn opt_product_round_trips() {
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
        let graph = b.build().unwrap();

        let summary = OptSummary {
            fused: vec!["a__b".into()],
            fissioned: vec!["c".into()],
            balance_before: 0.5,
            balance_after: 0.9,
        };
        let product = OptProduct::new(graph, vec![], summary);
        assert_eq!(
            product.kernel_hashes(),
            [kernel_hash(&product.graph().operators[0].kernel)]
        );
        let mut store = ArtifactStore::new();
        store.insert(
            StageKey {
                kind: StageKind::KpnOptimize,
                hash: 77,
            },
            StageProduct::Opt(Arc::new(product.clone())),
        );
        let mut back = ArtifactStore::from_bytes(&store.to_bytes()).unwrap();
        assert_eq!(back.fetch_opt(77).as_deref(), Some(&product));
    }

    #[test]
    fn hints_product_round_trips() {
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
        let product = HintsProduct::new(hints, 0x0419);
        let fingerprint = product.content_hash();
        let mut store = ArtifactStore::new();
        store.insert(
            StageKey {
                kind: StageKind::PnrHints,
                hash: 55,
            },
            StageProduct::Hints(Arc::new(product.clone())),
        );
        let mut back = ArtifactStore::from_bytes(&store.to_bytes()).unwrap();
        // Decoding takes the fingerprint from the payload bytes, construction
        // from an encoding of the hints: the same bytes, so the same hash.
        assert_eq!(back.fetch_hints(55).as_deref(), Some(&product));
        assert_eq!(back.fetch_hints(55).unwrap().content_hash(), fingerprint);
        assert_eq!(back.fetch_hints(55).unwrap().origin(), 0x0419);
        // Where the layout came from is not part of what a warm run makes of
        // it: the pointer stays out of the fingerprint.
        let elsewhere = HintsProduct::new(product.hints().clone(), 7);
        assert_eq!(elsewhere.content_hash(), fingerprint);
        let mut encoded = Vec::new();
        put_hints(&mut encoded, product.hints());
        assert_eq!(fingerprint, fnv(&encoded));
    }

    #[test]
    fn rejects_garbage() {
        assert!(ArtifactStore::from_bytes(b"not a store").is_err());
        let mut bytes = sample_store().to_bytes();
        bytes.truncate(bytes.len() - 3);
        assert!(ArtifactStore::from_bytes(&bytes).is_err());
        let mut extra = sample_store().to_bytes();
        extra.push(0);
        assert!(ArtifactStore::from_bytes(&extra).is_err());
    }

    #[test]
    fn checksum_catches_bit_flips() {
        let bytes = sample_store().to_bytes();
        for at in [MAGIC.len() + 4, bytes.len() / 2, bytes.len() - 9] {
            let mut flipped = bytes.clone();
            flipped[at] ^= 0x40;
            assert!(
                ArtifactStore::from_bytes(&flipped).is_err(),
                "bit flip at {at} went undetected"
            );
        }
    }

    /// One format version: bytes of any other are refused whole (and a cache
    /// directory that finds them starts cold), however intact they are.
    #[test]
    fn other_format_versions_are_refused() {
        let bytes = sample_store().to_bytes();
        for version in [2u32, 3, 4, FORMAT_VERSION + 1] {
            let mut old = bytes[..bytes.len() - 8].to_vec();
            old[MAGIC.len()..MAGIC.len() + 4].copy_from_slice(&version.to_le_bytes());
            let sum = fnv(&old);
            put_u64(&mut old, sum);
            let err = ArtifactStore::from_bytes(&old).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "version {version}");
            // v2 had no checksum trailer at all.
            old.truncate(old.len() - 8);
            assert!(ArtifactStore::from_bytes(&old).is_err());
        }
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
        // content-addressed duplicate (batch merges, speculative compiles):
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

    #[test]
    fn save_and_load() {
        let dir = std::env::temp_dir().join("pld-store-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.pldstore");
        let store = sample_store();
        store.save(&path).unwrap();
        let back = ArtifactStore::load(&path).unwrap();
        assert_eq!(back.to_bytes(), store.to_bytes());
        std::fs::remove_file(&path).ok();
    }
}
