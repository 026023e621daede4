#![warn(missing_docs)]
//! `pld-runtime`: a multi-tenant page scheduler serving many PLD apps on
//! one fabric with hot-swap reconfiguration.
//!
//! The paper compiles one application at a time; this crate is the serving
//! layer its Sec. 9 gestures at — "the infrastructure overlay could be
//! shared by multiple applications". The runtime owns the card: the 22-page
//! floorplan, a persistent linking network, and the table of which tenant's
//! artifact occupies each page. Applications arrive pre-compiled
//! ([`pld::CompiledApp`]); the runtime:
//!
//! * admits them through a **bounded queue** ([`admission`]) that pushes
//!   back instead of buffering unboundedly;
//! * **relocates** their artifacts onto whatever same-type pages are free
//!   ([`allocator`]) — page types group identical resource mixes (Tab. 1),
//!   so an `-O1` bitstream or repacked softcore image is placeable on any
//!   free page of its type;
//! * **evicts** least-recently-used tenants under pressure; a returning
//!   tenant replays its `LoadOp`s and pays the load bill again;
//! * **hot-swaps** an edited operator ([`swap`]): recompile through the
//!   [`pld::BuildCache`], reload only the changed pages, re-send only the
//!   affected routes' configuration packets — every swap is charged its
//!   measured downtime, artifact transfer plus link cycles at the 200 MHz
//!   overlay clock;
//! * reports it all as [`RuntimeStats`]: occupancy, queue depth, counters,
//!   cumulative downtime, and per-app latency histograms.

pub mod admission;
pub mod allocator;
pub mod codec;
pub mod device_state;
pub mod fleet;
pub mod stats;
pub mod swap;

use std::collections::{BTreeMap, HashMap};
use std::fmt;

use fabric::{Floorplan, PageId};
use kir::types::Value;
use noc::PortAddr;
use pld::{replay_loads, CompileError, CompiledApp, LinkOp, LoadOp, OptLevel};

pub use admission::QueueFull;
use admission::{AdmissionQueue, PendingRequest};
use allocator::{AllocError, PlacedOperator};
use device_state::{DeviceState, PageBinding};
use stats::{AppLatency, LatencyHistogram, RuntimeStats};

pub use fleet::{
    Admission, AdmissionTicket, DeviceId, EvictClass, Executor, Fleet, FleetAppId, FleetError,
    FleetEvent, FleetStats, QosSpec, TenantId, TenantShare,
};
pub use stats::RuntimeStats as Stats;
pub use swap::SwapReport;

/// Identity of one submitted application.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AppId(pub u64);

impl fmt::Display for AppId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "app{}", self.0)
    }
}

/// What happened during a [`Runtime::poll`] scheduling pass.
#[derive(Debug, Clone, PartialEq)]
pub enum RuntimeEvent {
    /// The app is on the fabric; `downtime_seconds` is its bring-up bill.
    #[allow(missing_docs)]
    Admitted {
        id: AppId,
        name: String,
        downtime_seconds: f64,
        pages: Vec<PageId>,
    },
    /// The app cannot run here (infeasible shape, or nothing left to evict).
    #[allow(missing_docs)]
    Rejected {
        id: AppId,
        name: String,
        reason: String,
    },
    /// A resident app was displaced to make room.
    #[allow(missing_docs)]
    Evicted { id: AppId, name: String },
}

/// Runtime operation failures.
#[derive(Debug)]
pub enum RuntimeError {
    /// The app id has never been seen or is no longer tracked.
    UnknownApp(AppId),
    /// The app is known but not currently on the fabric (evicted or still
    /// queued); resubmit it.
    NotResident(AppId),
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
    ResidencyLost(AppId),
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

/// A successful single-shot admission ([`Runtime::admit_direct`]).
#[derive(Debug, Clone, PartialEq)]
pub struct AdmitOutcome {
    /// The id assigned to the now-resident app.
    pub id: AppId,
    /// The bring-up bill: artifact transfer plus link cycles.
    pub downtime_seconds: f64,
    /// The pages the app landed on.
    pub pages: Vec<PageId>,
}

/// Why a single-shot admission was refused — typed, and carrying the app
/// back so the caller (the fleet's placement loop) can retry elsewhere.
#[derive(Debug)]
pub enum AdmitError {
    /// Compiled against a different floorplan than this device.
    FloorplanMismatch,
    /// Can never fit on this device, even empty (page-type deficit).
    Infeasible(AllocError),
    /// Does not fit right now; eviction may open up capacity.
    NoCapacity(AllocError),
    /// Placement succeeded but installation failed (e.g. the shared DMA
    /// leaf ran out of stream registers).
    Install(String),
}

impl fmt::Display for AdmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdmitError::FloorplanMismatch => write!(f, "compiled for a different floorplan"),
            AdmitError::Infeasible(e) => write!(f, "{e}"),
            AdmitError::NoCapacity(e) => write!(f, "no capacity: {e}"),
            AdmitError::Install(reason) => write!(f, "{reason}"),
        }
    }
}

/// A refused admission: the error plus the app, returned for retry.
#[derive(Debug)]
pub struct AdmitRefusal {
    /// The compiled app, handed back untouched.
    pub app: Box<CompiledApp>,
    /// Why this device refused it.
    pub error: AdmitError,
}

/// One application resident on the fabric.
#[derive(Debug)]
pub(crate) struct ResidentApp {
    pub(crate) name: String,
    pub(crate) app: CompiledApp,
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

/// The page scheduler: owns the device and serves many apps on it.
#[derive(Debug)]
pub struct Runtime {
    device: DeviceState,
    queue: AdmissionQueue,
    resident: BTreeMap<u64, ResidentApp>,
    stats: RuntimeStats,
    next_id: u64,
    tick: u64,
    /// When set, [`Runtime::run`] serves `-O0` apps through the cosim
    /// engine instead of the functional interpreter.
    cosim_serving: bool,
}

impl Runtime {
    /// Default admission-queue bound.
    pub const DEFAULT_QUEUE_BOUND: usize = 8;

    /// Brings up the runtime on a floorplan with the default queue bound.
    pub fn new(floorplan: Floorplan) -> Runtime {
        Runtime::with_queue_bound(floorplan, Runtime::DEFAULT_QUEUE_BOUND)
    }

    /// Brings up the runtime with an explicit admission-queue bound.
    pub fn with_queue_bound(floorplan: Floorplan, bound: usize) -> Runtime {
        let device = DeviceState::new(floorplan);
        let mut stats = RuntimeStats {
            pages_total: device.floorplan.pages.len(),
            ..RuntimeStats::default()
        };
        // The overlay bring-up is the fabric's first downtime.
        stats.cumulative_downtime_seconds += device.overlay_seconds;
        Runtime {
            device,
            queue: AdmissionQueue::new(bound),
            resident: BTreeMap::new(),
            stats,
            next_id: 0,
            tick: 0,
            cosim_serving: false,
        }
    }

    /// Opts serving into (or with `false` back out of) cycle-accurate
    /// cosim execution: [`Runtime::run`] — and therefore the fleet's
    /// `run_app` path — drives resident `-O0` apps through
    /// [`pld::cosim_o0`]. Outputs are identical to the functional
    /// interpreter by the Kahn property; what changes is fidelity (overlay
    /// cycle counts drive the latency histogram) and wall-clock. Apps
    /// compiled at other levels keep the functional path.
    pub fn set_cosim_serving(&mut self, on: bool) {
        self.cosim_serving = on;
    }

    /// Whether cosim serving is on.
    pub fn cosim_serving(&self) -> bool {
        self.cosim_serving
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

    /// Ids of currently resident apps.
    pub fn resident_ids(&self) -> Vec<AppId> {
        self.resident.keys().map(|&k| AppId(k)).collect()
    }

    /// Whether an app currently holds pages.
    pub fn is_resident(&self, id: AppId) -> bool {
        self.resident.contains_key(&id.0)
    }

    /// The placement of a resident app.
    pub fn placement_of(&self, id: AppId) -> Option<&[PlacedOperator]> {
        self.resident.get(&id.0).map(|r| r.placement.as_slice())
    }

    /// The submitted name of a resident app.
    pub fn name_of(&self, id: AppId) -> Option<&str> {
        self.resident.get(&id.0).map(|r| r.name.as_str())
    }

    /// Submits a compiled app for admission.
    ///
    /// # Errors
    ///
    /// Returns [`QueueFull`] (with the app inside, for retry) when the
    /// admission queue is at its bound; the rejection is counted.
    pub fn submit(&mut self, name: &str, app: CompiledApp) -> Result<AppId, QueueFull> {
        let id = AppId(self.next_id);
        let request = PendingRequest {
            id,
            name: name.to_string(),
            app: Box::new(app),
        };
        match self.queue.push(request) {
            Ok(()) => {
                self.next_id += 1;
                Ok(id)
            }
            Err(full) => {
                self.stats.rejected += 1;
                Err(full)
            }
        }
    }

    /// Runs one scheduling pass: drains the admission queue, placing each
    /// app (evicting least-recently-used tenants when out of pages) or
    /// rejecting it, and reports what happened.
    pub fn poll(&mut self) -> Vec<RuntimeEvent> {
        let mut events = Vec::new();
        while let Some(request) = self.queue.pop() {
            self.try_admit(request, &mut events);
        }
        events
    }

    /// Serves one request against a resident app: runs the dataflow graph
    /// functionally, stamps the latency into the app's histogram, and
    /// freshens its LRU position.
    ///
    /// # Errors
    ///
    /// See [`RuntimeError`].
    pub fn run(
        &mut self,
        id: AppId,
        inputs: &[(&str, Vec<Value>)],
    ) -> Result<HashMap<String, Vec<Value>>, RuntimeError> {
        let cosim = self.cosim_serving
            && self
                .resident
                .get(&id.0)
                .is_some_and(|r| r.app.level == OptLevel::O0);
        if cosim {
            return self.run_with(id, inputs, cosim_serve);
        }
        self.run_with(id, inputs, |app, inputs| {
            dfg::run_graph(&app.graph, inputs)
                .map(|(outputs, _)| outputs)
                .map_err(|e| e.to_string())
        })
    }

    /// [`Runtime::run`] on the multithreaded engine: one OS thread per
    /// operator, tokens moved in chunks over bounded channels
    /// ([`dfg::run_graph_threaded`], which sizes each channel from the
    /// compiled graph's rates). Same outputs by the Kahn property; lower
    /// wall-clock latency on wide graphs, and that is what lands in the
    /// histogram.
    ///
    /// # Errors
    ///
    /// See [`RuntimeError`].
    pub fn run_threaded(
        &mut self,
        id: AppId,
        inputs: &[(&str, Vec<Value>)],
    ) -> Result<HashMap<String, Vec<Value>>, RuntimeError> {
        self.run_with(id, inputs, |app, inputs| {
            dfg::run_graph_threaded(&app.graph, inputs)
                .map(|(outputs, _)| outputs)
                .map_err(|e| e.to_string())
        })
    }

    fn run_with(
        &mut self,
        id: AppId,
        inputs: &[(&str, Vec<Value>)],
        engine: impl FnOnce(
            &CompiledApp,
            &[(&str, Vec<Value>)],
        ) -> Result<HashMap<String, Vec<Value>>, String>,
    ) -> Result<HashMap<String, Vec<Value>>, RuntimeError> {
        let resident = self
            .resident
            .get_mut(&id.0)
            .ok_or(RuntimeError::NotResident(id))?;
        let t0 = std::time::Instant::now();
        let outputs = engine(&resident.app, inputs).map_err(RuntimeError::Execution)?;
        let seconds = t0.elapsed().as_secs_f64();
        self.tick += 1;
        resident.last_used = self.tick;
        self.stats.requests += 1;
        self.stats
            .latencies
            .entry(id.0)
            .or_insert_with(|| AppLatency {
                name: resident.name.clone(),
                histogram: LatencyHistogram::default(),
            })
            .histogram
            .record(seconds);
        Ok(outputs)
    }

    /// Forcibly removes an app from the fabric, tearing down its routes.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::NotResident`] if it holds no pages.
    pub fn evict(&mut self, id: AppId) -> Result<(), RuntimeError> {
        if !self.resident.contains_key(&id.0) {
            return Err(RuntimeError::NotResident(id));
        }
        self.evict_internal(id)
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> RuntimeStats {
        let mut stats = self.stats.clone();
        stats.queue_depth = self.queue.depth();
        stats.pages_occupied = self.device.occupied();
        stats
    }

    // ---- internals ----------------------------------------------------

    fn try_admit(&mut self, request: PendingRequest, events: &mut Vec<RuntimeEvent>) {
        let PendingRequest { id, name, mut app } = request;
        loop {
            match self.admit_once(id, &name, app) {
                Ok(outcome) => {
                    events.push(RuntimeEvent::Admitted {
                        id,
                        name,
                        downtime_seconds: outcome.downtime_seconds,
                        pages: outcome.pages,
                    });
                    return;
                }
                Err(refusal) => match refusal.error {
                    AdmitError::NoCapacity(_) => match self.lru_victim() {
                        Some(victim) => {
                            let victim_name = self.resident[&victim.0].name.clone();
                            if self.evict_internal(victim).is_err() {
                                // The victim vanished between selection and
                                // eviction — bail out rather than loop on a
                                // placement that will never open up.
                                self.reject(id, &name, "eviction raced with a teardown", events);
                                return;
                            }
                            events.push(RuntimeEvent::Evicted {
                                id: victim,
                                name: victim_name,
                            });
                            app = refusal.app;
                        }
                        None => {
                            self.reject(id, &name, "no capacity and nothing left to evict", events);
                            return;
                        }
                    },
                    error => {
                        self.reject(id, &name, &error.to_string(), events);
                        return;
                    }
                },
            }
        }
    }

    /// One placement attempt against the current free map — no eviction,
    /// no queue. Both the [`Runtime::poll`] eviction loop and the fleet's
    /// cross-device placement are built on this; the fleet treats a
    /// [`AdmitError::NoCapacity`] refusal as "pick a victim or try the
    /// next device" rather than looping locally.
    fn admit_once(
        &mut self,
        id: AppId,
        name: &str,
        app: Box<CompiledApp>,
    ) -> Result<AdmitOutcome, AdmitRefusal> {
        if app.floorplan != self.device.floorplan {
            return Err(AdmitRefusal {
                app,
                error: AdmitError::FloorplanMismatch,
            });
        }
        if let Err(e) = allocator::feasible(&self.device.floorplan, &app) {
            return Err(AdmitRefusal {
                app,
                error: AdmitError::Infeasible(e),
            });
        }
        match allocator::plan(&self.device.floorplan, &self.device.free_map(), &app) {
            Ok(placement) => match self.install(id, name.to_string(), app, placement) {
                Ok(outcome) => Ok(outcome),
                Err((app, reason)) => Err(AdmitRefusal {
                    app,
                    error: AdmitError::Install(reason),
                }),
            },
            Err(e) => Err(AdmitRefusal {
                app,
                error: AdmitError::NoCapacity(e),
            }),
        }
    }

    /// Single-shot admission: one placement attempt, no eviction, no
    /// queue. On success the app is resident under a freshly assigned id;
    /// on refusal the app comes back inside the [`AdmitRefusal`] so the
    /// caller can retry after evicting, or on another device.
    ///
    /// This is the fleet's entry point; [`Runtime::submit`] + [`Runtime::poll`]
    /// remain the single-device path and share the same internals.
    ///
    /// # Errors
    ///
    /// Returns [`AdmitRefusal`] carrying the app and an [`AdmitError`].
    pub fn admit_direct(
        &mut self,
        name: &str,
        app: Box<CompiledApp>,
    ) -> Result<AdmitOutcome, AdmitRefusal> {
        let id = AppId(self.next_id);
        let outcome = self.admit_once(id, name, app)?;
        self.next_id += 1;
        Ok(outcome)
    }

    /// Removes a resident app from the fabric and hands back its name and
    /// compiled form — the first half of a live migration. The routes are
    /// torn down and the pages released exactly as in an eviction (and
    /// counted as one); the returned [`CompiledApp`] still carries its
    /// `LoadOp` tape, so replaying it on another device re-admits the app
    /// bit-identically.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::NotResident`] if the app holds no pages.
    pub fn take_resident(&mut self, id: AppId) -> Result<(String, CompiledApp), RuntimeError> {
        if !self.resident.contains_key(&id.0) {
            return Err(RuntimeError::NotResident(id));
        }
        let resident = self
            .resident
            .remove(&id.0)
            .ok_or(RuntimeError::ResidencyLost(id))?;
        self.device.unlink(&resident.links);
        for p in &resident.placement {
            self.device.release(p.actual);
        }
        self.stats.evicted += 1;
        Ok((resident.name, resident.app))
    }

    /// `(id, last_used_tick)` for every resident app — the raw material
    /// for eviction policies richer than this runtime's own LRU (the
    /// fleet's QoS classes sort on `(class, last_used)`).
    pub fn resident_usage(&self) -> Vec<(AppId, u64)> {
        self.resident
            .iter()
            .map(|(&id, r)| (AppId(id), r.last_used))
            .collect()
    }

    /// Sets (or with `None` lifts) the NoC data-injection credit budget on
    /// every page a resident app occupies — the enforcement half of the
    /// fleet's per-tenant token-rate fair-share.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::NotResident`] if the app holds no pages.
    pub fn set_app_inject_budget(
        &mut self,
        id: AppId,
        budget: Option<u32>,
    ) -> Result<(), RuntimeError> {
        let resident = self
            .resident
            .get(&id.0)
            .ok_or(RuntimeError::NotResident(id))?;
        let pages: Vec<PageId> = resident.placement.iter().map(|p| p.actual).collect();
        for page in pages {
            self.device.set_page_inject_budget(page, budget);
        }
        Ok(())
    }

    fn reject(&mut self, id: AppId, name: &str, reason: &str, events: &mut Vec<RuntimeEvent>) {
        self.stats.rejected += 1;
        events.push(RuntimeEvent::Rejected {
            id,
            name: name.to_string(),
            reason: reason.to_string(),
        });
    }

    fn install(
        &mut self,
        id: AppId,
        name: String,
        app: Box<CompiledApp>,
        placement: Vec<PlacedOperator>,
    ) -> Result<AdmitOutcome, (Box<CompiledApp>, String)> {
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
        let Some(dma_in_base) = alloc_base(&in_use_in, in_width) else {
            return Err((app, "DMA input stream registers exhausted".into()));
        };
        let Some(dma_out_base) = alloc_base(&in_use_out, out_width) else {
            return Err((app, "DMA output ports exhausted".into()));
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
        let downtime_seconds = artifact_seconds + DeviceState::link_seconds(link_cycles);

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
            id.0,
            ResidentApp {
                name,
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
        Ok(AdmitOutcome {
            id,
            downtime_seconds,
            pages,
        })
    }

    fn evict_internal(&mut self, id: AppId) -> Result<(), RuntimeError> {
        let resident = self
            .resident
            .remove(&id.0)
            .ok_or(RuntimeError::ResidencyLost(id))?;
        self.device.unlink(&resident.links);
        for p in &resident.placement {
            self.device.release(p.actual);
        }
        self.stats.evicted += 1;
        Ok(())
    }

    fn lru_victim(&self) -> Option<AppId> {
        self.resident
            .iter()
            .min_by_key(|(id, r)| (r.last_used, **id))
            .map(|(&id, _)| AppId(id))
    }

    pub(crate) fn resident_mut(&mut self, id: AppId) -> Option<&mut ResidentApp> {
        self.resident.get_mut(&id.0)
    }

    pub(crate) fn resident_ref(&self, id: AppId) -> Option<&ResidentApp> {
        self.resident.get(&id.0)
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

/// Cycle budget for one cosim-served request — generous enough for any
/// workload the functional interpreter finishes in reasonable wall-clock.
const COSIM_SERVE_BUDGET: u64 = 2_000_000_000;

/// Serves one request through [`pld::cosim_o0`]: the functional
/// interpreter first fixes the expected output word counts (exact by the
/// Kahn property — the emulated fabric produces the same streams), then
/// the app's page cores run cycle-accurately and the collected words
/// convert back to typed values.
fn cosim_serve(
    app: &CompiledApp,
    inputs: &[(&str, Vec<Value>)],
) -> Result<HashMap<String, Vec<Value>>, String> {
    let (functional, _) = dfg::run_graph(&app.graph, inputs).map_err(|e| e.to_string())?;
    let word_inputs: Vec<Vec<u32>> = app
        .graph
        .ext_inputs
        .iter()
        .map(|p| {
            inputs
                .iter()
                .find(|(name, _)| *name == p.name)
                .map(|(_, values)| kir::wire::stream_to_words(values))
                .unwrap_or_default()
        })
        .collect();
    let expected: Vec<usize> = app
        .graph
        .ext_outputs
        .iter()
        .map(|p| {
            functional
                .get(&p.name)
                .map(|values| kir::wire::stream_to_words(values).len())
                .unwrap_or(0)
        })
        .collect();
    let out = pld::cosim_o0(app, &word_inputs, &expected, COSIM_SERVE_BUDGET)
        .map_err(|e| e.to_string())?;
    Ok(app
        .graph
        .ext_outputs
        .iter()
        .zip(out.outputs)
        .map(|(p, words)| (p.name.clone(), kir::wire::words_to_stream(p.elem, &words)))
        .collect())
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

    #[test]
    fn alloc_base_packs_ranges() {
        assert_eq!(alloc_base(&[], 2), Some(0));
        assert_eq!(alloc_base(&[(0, 2)], 2), Some(2));
        assert_eq!(alloc_base(&[(0, 2), (4, 2)], 2), Some(2));
        assert_eq!(alloc_base(&[(0, 2), (4, 2)], 3), Some(6));
        // Zero-width tenants don't block anything.
        assert_eq!(alloc_base(&[(0, 0)], 1), Some(0));
    }
}
