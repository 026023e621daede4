#![warn(missing_docs)]
//! `pld-runtime`: a multi-tenant page scheduler serving many PLD apps on
//! a fleet of fabrics with hot-swap reconfiguration.
//!
//! The paper compiles one application at a time; this crate is the serving
//! layer its Sec. 9 gestures at — "the infrastructure overlay could be
//! shared by multiple applications". [`Fleet`] is the one front end: every
//! app is submitted, admitted, located, served, evicted, migrated and
//! retired through it, and a single card is simply a fleet of one. Apps
//! arrive pre-compiled ([`pld::CompiledApp`]); the fleet:
//!
//! * queues them behind a bound that pushes back instead of buffering
//!   unboundedly, and places them on a device at each scheduling pass
//!   ([`Fleet::pump`]);
//! * **relocates** their artifacts onto whatever same-type pages are free
//!   ([`allocator`]) — page types group identical resource mixes (Tab. 1),
//!   so an `-O1` bitstream or repacked softcore image is placeable on any
//!   free page of its type;
//! * **evicts** the least-recently-used tenant of an equal or lower QoS
//!   class under pressure; a returning tenant replays its `LoadOp`s and
//!   pays the load bill again.
//!
//! Each device is a [`Runtime`]: its pages, its persistent linking network,
//! its residents and its counters. Only the fleet admits onto or removes
//! from a device. What a caller does on one device directly is
//! **hot-swap** an edited operator ([`swap`]): recompile through the
//! [`pld::BuildCache`], reload only the changed pages, re-send only the
//! affected routes' configuration packets — every swap is charged its
//! measured downtime, artifact transfer plus link cycles at the 200 MHz
//! overlay clock. [`RuntimeStats`] and [`FleetStats`] are plain counters:
//! admissions, evictions, swaps, migrations, requests, occupancy,
//! cumulative downtime and each tenant's served share.

pub mod allocator;
pub mod device_state;
pub mod fleet;
pub mod stats;
pub mod swap;

use std::collections::{BTreeMap, HashMap};
use std::fmt;

use fabric::{Floorplan, PageId};
use kir::types::Value;
use noc::PortAddr;
use pld::{replay_loads, CompileError, CompiledApp, LinkOp, LoadOp};

use allocator::{AllocError, PlacedOperator};
use device_state::{DeviceState, PageBinding};

pub use fleet::{
    Admission, AdmissionTicket, DeviceId, EvictClass, Executor, Fleet, FleetAppId, FleetError,
    FleetEvent, QosSpec, TenantId,
};
pub use stats::{FleetStats, RuntimeStats, TenantShare};
pub use swap::SwapReport;

/// Runtime operation failures.
#[derive(Debug)]
pub enum RuntimeError {
    /// The app id has never been seen or is no longer tracked.
    UnknownApp(FleetAppId),
    /// The app is known but not currently on the fabric (evicted or still
    /// queued); resubmit it.
    NotResident(FleetAppId),
    /// The app was compiled against a different floorplan than this card.
    FloorplanMismatch,
    /// Recompilation during a hot swap failed.
    Compile(CompileError),
    /// Placement failed.
    Alloc(AllocError),
    /// A hot swap changed the operator set; tear down and resubmit instead.
    OperatorSetChanged,
    /// The shared DMA leaf has no free stream registers left.
    DmaStreamsExhausted,
    /// Functional execution of a request failed.
    Execution(String),
    /// The app's resident state vanished partway through an operation that
    /// verified it up front — a mis-sequenced evict/swap. The fabric may
    /// hold partial state for the app; tear it down and resubmit.
    ResidencyLost(FleetAppId),
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::UnknownApp(id) => write!(f, "unknown app {id}"),
            RuntimeError::NotResident(id) => write!(f, "app {id} is not resident"),
            RuntimeError::FloorplanMismatch => {
                write!(f, "app compiled for a different floorplan than this fabric")
            }
            RuntimeError::Compile(e) => write!(f, "hot-swap recompile failed: {e}"),
            RuntimeError::Alloc(e) => write!(f, "placement failed: {e}"),
            RuntimeError::OperatorSetChanged => {
                write!(f, "hot swap changed the operator set; resubmit the app")
            }
            RuntimeError::DmaStreamsExhausted => {
                write!(f, "no free DMA stream registers on the shared leaf")
            }
            RuntimeError::Execution(e) => write!(f, "request execution failed: {e}"),
            RuntimeError::ResidencyLost(id) => {
                write!(f, "app {id} lost residency mid-operation (evict/swap race)")
            }
        }
    }
}

impl std::error::Error for RuntimeError {}

impl From<CompileError> for RuntimeError {
    fn from(e: CompileError) -> RuntimeError {
        RuntimeError::Compile(e)
    }
}

impl From<AllocError> for RuntimeError {
    fn from(e: AllocError) -> RuntimeError {
        RuntimeError::Alloc(e)
    }
}

/// Why [`Runtime::admit`] handed an app back. The fleet branches on this
/// alone: evict a victim and retry, or give up on this device.
#[derive(Debug)]
pub(crate) enum Refusal {
    /// Does not fit on the pages free right now; eviction may open room.
    NoCapacity,
    /// This device will not take the app as it stands.
    Error(RuntimeError),
}

/// One application resident on the fabric.
#[derive(Debug)]
pub(crate) struct ResidentApp {
    pub(crate) name: String,
    pub(crate) app: CompiledApp,
    /// `app.graph` compiled for the interpreter once, at install; a hot
    /// swap recompiles only the operators it edits.
    pub(crate) code: dfg::CompiledGraph,
    pub(crate) placement: Vec<PlacedOperator>,
    /// The remapped link table as programmed into the network.
    pub(crate) links: Vec<LinkOp>,
    pub(crate) dma_in_base: u8,
    pub(crate) dma_in_width: u8,
    pub(crate) dma_out_base: u8,
    pub(crate) dma_out_width: u8,
    /// LRU tick of the last served request (or admission).
    pub(crate) last_used: u64,
    /// Link cycles measured at admission — the relink half of a full
    /// reload, used as the hot-swap comparison baseline.
    pub(crate) admit_link_cycles: u64,
}

/// One device's serving state: its pages, its persistent linking network,
/// the apps resident on it (keyed by the [`FleetAppId`] the fleet admitted
/// them under) and its counters. Only the [`Fleet`] admits and removes
/// apps; reach a device through [`Fleet::runtime_mut`] to hot-swap one.
#[derive(Debug)]
pub struct Runtime {
    device: DeviceState,
    resident: BTreeMap<FleetAppId, ResidentApp>,
    stats: RuntimeStats,
    tick: u64,
}

impl Runtime {
    /// Brings up the overlay on an empty card.
    pub fn new(floorplan: Floorplan) -> Runtime {
        let device = DeviceState::new(floorplan);
        let mut stats = RuntimeStats {
            pages_total: device.floorplan.pages.len(),
            ..RuntimeStats::default()
        };
        // The overlay bring-up is the fabric's first downtime.
        stats.cumulative_downtime_seconds += device.overlay_seconds;
        Runtime {
            device,
            resident: BTreeMap::new(),
            stats,
            tick: 0,
        }
    }

    /// Read-only view of the device state.
    pub fn device(&self) -> &DeviceState {
        &self.device
    }

    /// Number of currently unbound pages.
    pub fn free_pages(&self) -> usize {
        self.device.floorplan.pages.len() - self.device.occupied()
    }

    /// Whether the app places onto the pages free *right now* (exact
    /// page-type-aware check, no eviction).
    pub fn fits_now(&self, app: &CompiledApp) -> bool {
        allocator::plan(&self.device.floorplan, &self.device.free_map(), app).is_ok()
    }

    /// Whether an app currently holds pages on this device.
    pub fn is_resident(&self, id: FleetAppId) -> bool {
        self.resident.contains_key(&id)
    }

    /// The placement of a resident app.
    pub fn placement_of(&self, id: FleetAppId) -> Option<&[PlacedOperator]> {
        self.resident.get(&id).map(|r| r.placement.as_slice())
    }

    /// Serves one request against a resident app: runs the code compiled at
    /// admission and freshens its LRU position.
    pub(crate) fn run(
        &mut self,
        id: FleetAppId,
        inputs: &[(&str, Vec<Value>)],
    ) -> Result<HashMap<String, Vec<Value>>, RuntimeError> {
        let resident = self
            .resident
            .get_mut(&id)
            .ok_or(RuntimeError::NotResident(id))?;
        let (outputs, _) = resident
            .code
            .run(inputs)
            .map_err(|e| RuntimeError::Execution(e.to_string()))?;
        self.tick += 1;
        resident.last_used = self.tick;
        self.stats.requests += 1;
        Ok(outputs)
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> RuntimeStats {
        let mut stats = self.stats.clone();
        stats.pages_occupied = self.device.occupied();
        stats
    }

    // ---- fleet-only residency -------------------------------------------

    /// One placement attempt against the current free map, no eviction:
    /// on success the app is resident under `id` and the bring-up bill
    /// (downtime seconds) and its pages come back; on refusal the app
    /// comes back so the fleet can evict and retry, or try another device.
    /// `code` is the interpreter code of an app that arrives from another
    /// device: it is taken on success, and an app without it is compiled
    /// here.
    pub(crate) fn admit(
        &mut self,
        id: FleetAppId,
        name: &str,
        app: Box<CompiledApp>,
        code: &mut Option<dfg::CompiledGraph>,
    ) -> Result<(f64, Vec<PageId>), (Box<CompiledApp>, Refusal)> {
        if app.floorplan != self.device.floorplan {
            return Err((app, Refusal::Error(RuntimeError::FloorplanMismatch)));
        }
        if let Err(e) = allocator::feasible(&self.device.floorplan, &app) {
            return Err((app, Refusal::Error(RuntimeError::Alloc(e))));
        }
        match allocator::plan(&self.device.floorplan, &self.device.free_map(), &app) {
            Ok(placement) => self.install(id, name.to_string(), app, code, placement),
            Err(_) => Err((app, Refusal::NoCapacity)),
        }
    }

    /// Removes a resident app from the fabric — its routes torn down, its
    /// pages released — and hands back its name, compiled form and
    /// interpreter code. The [`CompiledApp`] still carries its `LoadOp`
    /// tape, so replaying it on another device re-admits the app
    /// bit-identically (a migration, which carries the code along).
    /// Eviction, retirement and migration all leave through here; only the
    /// fleet's victim path counts an eviction.
    pub(crate) fn remove(
        &mut self,
        id: FleetAppId,
    ) -> Result<(String, CompiledApp, dfg::CompiledGraph), RuntimeError> {
        let resident = self
            .resident
            .remove(&id)
            .ok_or(RuntimeError::NotResident(id))?;
        self.device.unlink(&resident.links);
        for p in &resident.placement {
            self.device.release(p.actual);
        }
        Ok((resident.name, resident.app, resident.code))
    }

    /// `(id, last_used_tick)` for every resident app — the raw material
    /// for the fleet's `(class, last_used, id)` victim order.
    pub(crate) fn resident_usage(&self) -> Vec<(FleetAppId, u64)> {
        self.resident
            .iter()
            .map(|(&id, r)| (id, r.last_used))
            .collect()
    }

    // ---- internals ----------------------------------------------------

    fn install(
        &mut self,
        id: FleetAppId,
        name: String,
        app: Box<CompiledApp>,
        code: &mut Option<dfg::CompiledGraph>,
        placement: Vec<PlacedOperator>,
    ) -> Result<(f64, Vec<PageId>), (Box<CompiledApp>, Refusal)> {
        // Carve this tenant's register ranges out of the shared DMA leaves.
        let (in_width, out_width) = dma_widths(&app);
        let in_use_in: Vec<(u8, u8)> = self
            .resident
            .values()
            .map(|r| (r.dma_in_base, r.dma_in_width))
            .collect();
        let in_use_out: Vec<(u8, u8)> = self
            .resident
            .values()
            .map(|r| (r.dma_out_base, r.dma_out_width))
            .collect();
        let (Some(dma_in_base), Some(dma_out_base)) = (
            alloc_base(&in_use_in, in_width),
            alloc_base(&in_use_out, out_width),
        ) else {
            return Err((app, Refusal::Error(RuntimeError::DmaStreamsExhausted)));
        };

        let links = remap_links(&app, &placement, &self.device, dma_in_base, dma_out_base);

        // Replay the app's LoadOps (minus the already-resident overlay)
        // onto the relocated pages, then link — both sides are charged as
        // downtime.
        let page_ops: Vec<LoadOp> = app
            .driver
            .loads
            .iter()
            .filter(|op| !matches!(op, LoadOp::Overlay))
            .cloned()
            .collect();
        let load = replay_loads(&app, &page_ops);
        let artifact_seconds =
            load.overlay_seconds + load.bitstream_seconds + load.softcore_seconds;
        let link_cycles = self.device.link(&links);
        let downtime_seconds = artifact_seconds + pld::vtime::overlay_seconds(link_cycles);

        // Everything just transferred is now in the device-local bitstream
        // cache; fleet placement prefers devices that already hold an
        // app's artifacts (the transfer is still billed above — the cache
        // informs placement, it does not discount downtime).
        for artifact in &app.artifacts {
            self.device.note_loaded(artifact.hash);
        }

        for p in &placement {
            self.device.bind(
                p.actual,
                PageBinding {
                    app: id,
                    operator: p.op,
                },
            );
        }
        self.tick += 1;
        let pages: Vec<PageId> = placement.iter().map(|p| p.actual).collect();
        self.resident.insert(
            id,
            ResidentApp {
                name,
                code: code.take().unwrap_or_else(|| dfg::compile(&app.graph)),
                app: *app,
                placement,
                links,
                dma_in_base,
                dma_in_width: in_width,
                dma_out_base,
                dma_out_width: out_width,
                last_used: self.tick,
                admit_link_cycles: link_cycles,
            },
        );
        self.stats.admitted += 1;
        self.stats.cumulative_downtime_seconds += downtime_seconds;
        Ok((downtime_seconds, pages))
    }

    pub(crate) fn resident_mut(&mut self, id: FleetAppId) -> Option<&mut ResidentApp> {
        self.resident.get_mut(&id)
    }

    pub(crate) fn resident_ref(&self, id: FleetAppId) -> Option<&ResidentApp> {
        self.resident.get(&id)
    }

    pub(crate) fn device_mut(&mut self) -> &mut DeviceState {
        &mut self.device
    }

    pub(crate) fn stats_mut(&mut self) -> &mut RuntimeStats {
        &mut self.stats
    }

    pub(crate) fn bump_tick(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }
}

/// Stream-register / port widths this app needs on the shared DMA leaves.
fn dma_widths(app: &CompiledApp) -> (u8, u8) {
    let dma_in = app.dma_in_leaf();
    let dma_out = app.dma_out_leaf();
    let in_width = app
        .driver
        .links
        .iter()
        .filter(|l| l.src_leaf == dma_in)
        .map(|l| l.stream + 1)
        .max()
        .unwrap_or(0);
    let out_width = app
        .driver
        .links
        .iter()
        .filter(|l| l.dest.leaf == dma_out)
        .map(|l| l.dest.port + 1)
        .max()
        .unwrap_or(0);
    (in_width, out_width)
}

/// Smallest base such that `[base, base+width)` avoids every in-use range.
fn alloc_base(in_use: &[(u8, u8)], width: u8) -> Option<u8> {
    if width == 0 {
        return Some(0);
    }
    'candidate: for base in 0..=(255u16 - width as u16) {
        let base = base as u8;
        for &(b, w) in in_use {
            if w > 0 && base < b.saturating_add(w) && b < base.saturating_add(width) {
                continue 'candidate;
            }
        }
        return Some(base);
    }
    None
}

/// Rewrites an app's home-coordinate link table into fabric coordinates:
/// page leaves move to the operators' actual pages; the app-private DMA
/// leaves fold onto the shared DMA endpoints at this tenant's register
/// bases.
pub(crate) fn remap_links(
    app: &CompiledApp,
    placement: &[PlacedOperator],
    device: &DeviceState,
    dma_in_base: u8,
    dma_out_base: u8,
) -> Vec<LinkOp> {
    let home_to_actual: HashMap<u16, u16> = placement
        .iter()
        .map(|p| (p.home.0 as u16, p.actual.0 as u16))
        .collect();
    let app_dma_in = app.dma_in_leaf();
    let app_dma_out = app.dma_out_leaf();
    app.driver
        .links
        .iter()
        .map(|l| {
            let (src_leaf, stream) = if l.src_leaf == app_dma_in {
                (device.dma_in_leaf(), l.stream + dma_in_base)
            } else {
                (home_to_actual[&l.src_leaf], l.stream)
            };
            let dest = if l.dest.leaf == app_dma_out {
                PortAddr {
                    leaf: device.dma_out_leaf(),
                    port: l.dest.port + dma_out_base,
                }
            } else {
                PortAddr {
                    leaf: home_to_actual[&l.dest.leaf],
                    port: l.dest.port,
                }
            };
            LinkOp {
                src_leaf,
                stream,
                dest,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfg::{GraphBuilder, Target};
    use kir::{Expr, KernelBuilder, Scalar, Stmt};
    use pld::{compile, CompileOptions, OptLevel};

    fn tiny_app() -> Box<CompiledApp> {
        let k = KernelBuilder::new("k")
            .input("in", Scalar::uint(32))
            .output("out", Scalar::uint(32))
            .local("x", Scalar::uint(32))
            .body([Stmt::for_pipelined(
                "i",
                0..8,
                [Stmt::read("x", "in"), Stmt::write("out", Expr::var("x"))],
            )])
            .build()
            .unwrap();
        let mut b = GraphBuilder::new("tiny");
        let a = b.add("a", k, Target::riscv_auto());
        b.ext_input("Input_1", a, "in");
        b.ext_output("Output_1", a, "out");
        Box::new(compile(&b.build().unwrap(), &CompileOptions::new(OptLevel::O0)).unwrap())
    }

    #[test]
    fn alloc_base_packs_ranges() {
        assert_eq!(alloc_base(&[], 2), Some(0));
        assert_eq!(alloc_base(&[(0, 2)], 2), Some(2));
        assert_eq!(alloc_base(&[(0, 2), (4, 2)], 2), Some(2));
        assert_eq!(alloc_base(&[(0, 2), (4, 2)], 3), Some(6));
        // Zero-width tenants don't block anything.
        assert_eq!(alloc_base(&[(0, 0)], 1), Some(0));
    }

    #[test]
    fn exhausted_dma_registers_refuse_with_the_typed_error() {
        let mut fleet = Fleet::new(1, &Floorplan::u50());
        let first = fleet.submit(TenantId(0), "first", *tiny_app()).unwrap();
        fleet.pump();
        // Let the first tenant hold every DMA input stream register.
        let card = fleet.runtime_mut(DeviceId(0)).unwrap();
        let resident = card.resident_mut(first).unwrap();
        (resident.dma_in_base, resident.dma_in_width) = (0, 255);

        let (app, refusal) = card
            .admit(FleetAppId(99), "probe", tiny_app(), &mut None)
            .unwrap_err();
        assert!(
            matches!(refusal, Refusal::Error(RuntimeError::DmaStreamsExhausted)),
            "{refusal:?}"
        );
        assert_eq!(app.graph.name, "tiny", "the app comes back for retry");
        assert!(!card.is_resident(FleetAppId(99)));

        // The fleet rejects without evicting anyone, and says why.
        let second = fleet.submit(TenantId(0), "second", *app).unwrap();
        let events = fleet.pump();
        assert!(
            matches!(&events[..], [FleetEvent::Rejected { app, reason, .. }]
                if *app == second && reason == "dev0: no free DMA stream registers on the shared leaf"),
            "{events:?}"
        );
        assert!(fleet.is_resident(first));
    }
}
