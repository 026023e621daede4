//! Fleet-scale serving: N devices behind the one admission front end.
//!
//! Each [`Runtime`] is one card's state: its pages, linking network and
//! residents. The fleet is the only thing that admits onto or removes
//! from a card, so a single card is a fleet of one. It is the paper's
//! "shared infrastructure overlay" taken to its operational conclusion —
//! PLD apps admitted, placed, migrated and evicted like processes on a
//! cluster:
//!
//! * **Admission** is a bounded queue drained by scheduling passes
//!   ([`Fleet::pump`]). [`Fleet::submit_async`] returns an
//!   [`AdmissionTicket`] future ([`reactor`]) that resolves when a pass
//!   lands the app on a device; [`Fleet::submit`] returns just its id.
//!   Apps no single device could ever host are refused up front with
//!   [`FleetError::Unplaceable`] carrying each device's page-type deficit.
//! * **Placement** is cache-aware best-fit bin packing:
//!   prefer the device whose local bitstream cache already holds the
//!   app's artifacts, then the tightest page fit. The cache informs
//!   placement only — a re-admission still pays its full transfer bill.
//! * **Migration** ([`Fleet::migrate`]) reuses the LoadOp-replay
//!   re-admission path as a live-migration primitive: take the app's
//!   compiled state off device A, replay its loads on device B. The app's
//!   outputs are bit-identical afterwards (the Kahn property — state
//!   lives in the artifacts, not the fabric).
//! * **QoS** ([`qos`]) is per-tenant: eviction priority classes (a
//!   request only displaces apps of equal or lower class, least recently
//!   used first) and a fair-share weight, against which
//!   [`FleetStats::fairness_index`] scores each tenant's served requests.
//!   Requests run on the interpreter code compiled at admission, so no
//!   data flit enters a device's linking network: it carries only the
//!   configuration packets that link pages.
//!
//! `examples/serving.rs` runs a fleet of one card; `examples/serving_fleet.rs`
//! runs a fleet of several.

mod placement;
pub mod qos;
pub mod reactor;

pub use qos::{EvictClass, QosSpec};
pub use reactor::{AdmissionTicket, Executor};

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::fmt;
use std::sync::{Arc, Mutex};

use fabric::{Floorplan, PageId};
use kir::types::Value;
use pld::CompiledApp;

use crate::allocator::AllocError;
use crate::stats::{FleetStats, TenantShare};
use crate::{Refusal, Runtime, RuntimeError};
use reactor::TicketState;

/// Index of one device in the fleet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DeviceId(pub usize);

impl fmt::Display for DeviceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "dev{}", self.0)
    }
}

/// Identity of one tenant (QoS accounting unit).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TenantId(pub u32);

impl fmt::Display for TenantId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// Identity of one submitted app, stable across devices and migrations.
/// Each device keys its residents by it too.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FleetAppId(pub u64);

impl fmt::Display for FleetAppId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fapp{}", self.0)
    }
}

/// A resolved admission: where the app landed and what it cost.
#[derive(Debug, Clone, PartialEq)]
pub struct Admission {
    /// The fleet-wide app id.
    pub app: FleetAppId,
    /// The device the app landed on.
    pub device: DeviceId,
    /// The bring-up bill (artifact transfer + link cycles).
    pub downtime_seconds: f64,
    /// The pages the app occupies on that device.
    pub pages: Vec<PageId>,
}

/// What happened during a [`Fleet::pump`] scheduling pass.
#[derive(Debug, Clone, PartialEq)]
pub enum FleetEvent {
    /// The app landed on a device.
    #[allow(missing_docs)]
    Admitted {
        app: FleetAppId,
        device: DeviceId,
        downtime_seconds: f64,
    },
    /// No device could take the app.
    #[allow(missing_docs)]
    Rejected {
        app: FleetAppId,
        name: String,
        reason: String,
    },
    /// A resident app was displaced by QoS eviction.
    #[allow(missing_docs)]
    Evicted { app: FleetAppId, device: DeviceId },
}

/// Fleet operation failures.
#[derive(Debug)]
pub enum FleetError {
    /// The fleet admission queue is at its bound; the app comes back for
    /// retry.
    QueueFull {
        /// The submitted app, returned untouched.
        app: Box<CompiledApp>,
    },
    /// No device in the fleet could ever host this app, even empty. One
    /// page-type deficit per device explains why.
    Unplaceable {
        /// The submitted app's name.
        name: String,
        /// Each device's reason (page-type deficit or shape mismatch).
        deficits: Vec<(DeviceId, AllocError)>,
    },
    /// A placement pass gave up on the app (capacity held by apps its
    /// tenant's class may not evict, or install failures everywhere).
    Rejected {
        /// The fleet-wide id the submission was assigned.
        app: FleetAppId,
        /// Why placement gave up: no reclaimable capacity, or the last
        /// device that refused the app outright and its [`RuntimeError`].
        reason: String,
    },
    /// A migration failed at the destination; `restored` tells whether
    /// the app was re-admitted on its source device or is now evicted.
    MigrationFailed {
        /// The app that was being moved.
        app: FleetAppId,
        /// The destination that refused it.
        to: DeviceId,
        /// Whether the app still serves from its source device.
        restored: bool,
    },
    /// The fleet-wide app id has never been seen.
    UnknownApp(FleetAppId),
    /// The app is known but not resident anywhere (queued, evicted, or
    /// rejected); resubmit it.
    NotResident(FleetAppId),
    /// The device index is out of range.
    UnknownDevice(DeviceId),
    /// A device operation failed underneath the fleet.
    Device(RuntimeError),
}

impl fmt::Display for FleetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FleetError::QueueFull { .. } => write!(f, "fleet admission queue is full"),
            FleetError::Unplaceable { name, deficits } => {
                write!(f, "app '{name}' fits no device in the fleet:")?;
                for (dev, e) in deficits {
                    write!(f, " [{dev}: {e}]")?;
                }
                Ok(())
            }
            FleetError::Rejected { app, reason } => write!(f, "{app} rejected: {reason}"),
            FleetError::MigrationFailed { app, to, restored } => write!(
                f,
                "migration of {app} to {to} failed ({})",
                if *restored {
                    "restored on source"
                } else {
                    "app is no longer resident"
                }
            ),
            FleetError::UnknownApp(app) => write!(f, "unknown fleet app {app}"),
            FleetError::NotResident(app) => write!(f, "fleet app {app} is not resident"),
            FleetError::UnknownDevice(dev) => write!(f, "unknown device {dev}"),
            FleetError::Device(e) => write!(f, "device error: {e}"),
        }
    }
}

impl std::error::Error for FleetError {}

/// Registry entry for one submitted app.
#[derive(Debug)]
struct FleetApp {
    name: String,
    tenant: TenantId,
    /// The device index while resident.
    location: Option<usize>,
}

/// One queued admission request.
struct PendingFleet {
    id: FleetAppId,
    name: String,
    tenant: TenantId,
    app: Box<CompiledApp>,
    ticket: Arc<Mutex<TicketState>>,
}

#[derive(Debug, Default)]
struct TenantState {
    spec: QosSpec,
    served: u64,
}

/// N devices behind one admission front-end: cross-device placement,
/// live migration, and per-tenant QoS. See the [module docs](self).
pub struct Fleet {
    devices: Vec<Runtime>,
    apps: BTreeMap<FleetAppId, FleetApp>,
    queue: VecDeque<PendingFleet>,
    queue_bound: usize,
    tenants: BTreeMap<u32, TenantState>,
    next_id: u64,
    submitted: u64,
    admitted: u64,
    rejected: u64,
    evicted: u64,
    migrations: u64,
    migration_downtime_seconds: f64,
}

impl Fleet {
    /// Default bound on the fleet admission queue.
    pub const DEFAULT_QUEUE_BOUND: usize = 4096;

    /// A homogeneous fleet of `n` simulated cards on one floorplan.
    pub fn new(n: usize, floorplan: &Floorplan) -> Fleet {
        Fleet::with_queue_bound(
            (0..n).map(|_| Runtime::new(floorplan.clone())).collect(),
            Fleet::DEFAULT_QUEUE_BOUND,
        )
    }

    /// A fleet over explicit devices (heterogeneous fleets included) with
    /// an explicit admission-queue bound.
    pub fn with_queue_bound(devices: Vec<Runtime>, bound: usize) -> Fleet {
        Fleet {
            devices,
            apps: BTreeMap::new(),
            queue: VecDeque::new(),
            queue_bound: bound,
            tenants: BTreeMap::new(),
            next_id: 0,
            submitted: 0,
            admitted: 0,
            rejected: 0,
            evicted: 0,
            migrations: 0,
            migration_downtime_seconds: 0.0,
        }
    }

    /// Registers (or updates) a tenant's QoS contract. Unregistered
    /// tenants get [`QosSpec::default`].
    pub fn set_tenant(&mut self, tenant: TenantId, spec: QosSpec) {
        self.tenants.entry(tenant.0).or_default().spec = spec;
    }

    /// Read-only access to one device.
    pub fn device(&self, device: DeviceId) -> Option<&Runtime> {
        self.devices.get(device.0)
    }

    /// Mutable access to one card's [`Runtime`] — for the single-device
    /// operation the fleet does not mediate: hot-swapping a resident app.
    /// Admission and removal stay with the fleet.
    pub fn runtime_mut(&mut self, device: DeviceId) -> Option<&mut Runtime> {
        self.devices.get_mut(device.0)
    }

    /// Requests waiting for a scheduling pass.
    pub fn queue_depth(&self) -> usize {
        self.queue.len()
    }

    /// The submitted name of a known app.
    pub fn name_of(&self, app: FleetAppId) -> Option<&str> {
        self.apps.get(&app).map(|a| a.name.as_str())
    }

    /// Where an app currently lives: its device, and the id that device
    /// keys it by (the app's own id).
    pub fn locate(&self, app: FleetAppId) -> Option<(DeviceId, FleetAppId)> {
        self.apps
            .get(&app)
            .and_then(|a| a.location)
            .map(|dev| (DeviceId(dev), app))
    }

    /// Whether an app is resident on some device.
    pub fn is_resident(&self, app: FleetAppId) -> bool {
        self.locate(app).is_some()
    }

    /// [`Fleet::submit_async`] for callers that only need the app's id;
    /// pair it with [`Fleet::pump`].
    ///
    /// # Errors
    ///
    /// As [`Fleet::submit_async`].
    pub fn submit(
        &mut self,
        tenant: TenantId,
        name: &str,
        app: CompiledApp,
    ) -> Result<FleetAppId, FleetError> {
        self.submit_async(tenant, name, app).map(|t| t.app())
    }

    /// Submits an app for admission, returning an [`AdmissionTicket`]
    /// future that resolves at the scheduling pass that places (or
    /// rejects) the app.
    ///
    /// # Errors
    ///
    /// [`FleetError::QueueFull`] (app returned inside) at the queue
    /// bound; [`FleetError::Unplaceable`] with per-device deficits when
    /// no device could ever host the app. Both fail synchronously, before
    /// a ticket exists.
    pub fn submit_async(
        &mut self,
        tenant: TenantId,
        name: &str,
        app: CompiledApp,
    ) -> Result<AdmissionTicket, FleetError> {
        if self.queue.len() >= self.queue_bound {
            self.rejected += 1;
            return Err(FleetError::QueueFull { app: Box::new(app) });
        }
        let app = Box::new(app);
        if let Err(deficits) = placement::feasible_devices(&self.devices, &app) {
            self.rejected += 1;
            return Err(FleetError::Unplaceable {
                name: name.to_string(),
                deficits,
            });
        }
        let id = FleetAppId(self.next_id);
        self.next_id += 1;
        self.submitted += 1;
        self.tenants.entry(tenant.0).or_default();
        self.apps.insert(
            id,
            FleetApp {
                name: name.to_string(),
                tenant,
                location: None,
            },
        );
        let state = Arc::new(Mutex::new(TicketState::default()));
        self.queue.push_back(PendingFleet {
            id,
            name: name.to_string(),
            tenant,
            app,
            ticket: Arc::clone(&state),
        });
        Ok(AdmissionTicket { id, state })
    }

    /// One scheduling pass: drains the admission queue, placing each app
    /// across the fleet (cache-aware best fit, then QoS eviction) or
    /// rejecting it, resolving any [`AdmissionTicket`]s along the way.
    pub fn pump(&mut self) -> Vec<FleetEvent> {
        let mut events = Vec::new();
        let pending: Vec<PendingFleet> = self.queue.drain(..).collect();
        for request in pending {
            self.place(request, &mut events);
        }
        events
    }

    fn place(&mut self, request: PendingFleet, events: &mut Vec<FleetEvent>) {
        let PendingFleet {
            id,
            name,
            tenant,
            mut app,
            ticket,
        } = request;
        let requester_class = self.spec_of(tenant).evict;
        let candidates = match placement::feasible_devices(&self.devices, &app) {
            Ok(c) => c,
            Err(deficits) => {
                let reason = FleetError::Unplaceable {
                    name: name.clone(),
                    deficits,
                }
                .to_string();
                self.reject(id, name, reason, ticket, events);
                return;
            }
        };

        // Pass 1: devices with room right now, best (cache, fit) first.
        for i in placement::fitting_now(&self.devices, &candidates, &app) {
            match self.devices[i].admit(id, &name, app, &mut None) {
                Ok(landed) => {
                    self.finish_admit(id, i, landed, ticket, events);
                    return;
                }
                Err((back, _)) => app = back,
            }
        }

        // Pass 2: evict within the requester's class budget, best device
        // first.
        let mut reason = "no device has capacity this tenant's class may reclaim".to_string();
        for i in placement::rank(&self.devices, &candidates, &app) {
            loop {
                match self.devices[i].admit(id, &name, app, &mut None) {
                    Ok(landed) => {
                        self.finish_admit(id, i, landed, ticket, events);
                        return;
                    }
                    Err((back, refusal)) => {
                        app = back;
                        if let Refusal::Error(e) = refusal {
                            // This device will never take it.
                            reason = format!("{}: {e}", DeviceId(i));
                            break;
                        }
                        match self.victim_on(i, requester_class) {
                            Some(victim) => {
                                if let Some(event) = self.evict_local(i, victim) {
                                    events.push(event);
                                } else {
                                    break;
                                }
                            }
                            None => break, // Nothing this class may evict.
                        }
                    }
                }
            }
        }

        self.reject(id, name, reason, ticket, events);
    }

    fn finish_admit(
        &mut self,
        id: FleetAppId,
        device: usize,
        (downtime_seconds, pages): (f64, Vec<PageId>),
        ticket: Arc<Mutex<TicketState>>,
        events: &mut Vec<FleetEvent>,
    ) {
        self.settle(id, device);
        self.admitted += 1;
        events.push(FleetEvent::Admitted {
            app: id,
            device: DeviceId(device),
            downtime_seconds,
        });
        reactor::resolve(
            &ticket,
            Ok(Admission {
                app: id,
                device: DeviceId(device),
                downtime_seconds,
                pages,
            }),
        );
    }

    /// Records that `app` now lives on `device`: every path that lands an
    /// app on a device (admission, migration, restore after a failed
    /// migration) goes through here.
    fn settle(&mut self, app: FleetAppId, device: usize) {
        if let Some(entry) = self.apps.get_mut(&app) {
            entry.location = Some(device);
        }
    }

    /// Marks a known app as resident nowhere.
    fn unsettle(&mut self, app: FleetAppId) {
        if let Some(entry) = self.apps.get_mut(&app) {
            entry.location = None;
        }
    }

    fn reject(
        &mut self,
        id: FleetAppId,
        name: String,
        reason: String,
        ticket: Arc<Mutex<TicketState>>,
        events: &mut Vec<FleetEvent>,
    ) {
        self.rejected += 1;
        events.push(FleetEvent::Rejected {
            app: id,
            name,
            reason: reason.clone(),
        });
        reactor::resolve(&ticket, Err(FleetError::Rejected { app: id, reason }));
    }

    /// The best victim on a device that `class` may displace: lowest
    /// eviction class first, then least recently used.
    fn victim_on(&self, device: usize, class: EvictClass) -> Option<FleetAppId> {
        self.devices[device]
            .resident_usage()
            .into_iter()
            .filter_map(|(id, last_used)| {
                let victim_class = self.spec_of(self.apps.get(&id)?.tenant).evict;
                (victim_class <= class).then_some((victim_class, last_used, id))
            })
            .min()
            .map(|(_, _, id)| id)
    }

    /// Evicts `victim` from `device` under pressure — the one path that
    /// counts an eviction, on the device and fleet-wide.
    fn evict_local(&mut self, device: usize, victim: FleetAppId) -> Option<FleetEvent> {
        self.devices[device].remove(victim).ok()?;
        self.devices[device].stats_mut().evicted += 1;
        self.unsettle(victim);
        self.evicted += 1;
        Some(FleetEvent::Evicted {
            app: victim,
            device: DeviceId(device),
        })
    }

    /// Serves one request against a resident app and accounts the
    /// tenant's service share.
    ///
    /// # Errors
    ///
    /// See [`FleetError`].
    pub fn run(
        &mut self,
        app: FleetAppId,
        inputs: &[(&str, Vec<Value>)],
    ) -> Result<HashMap<String, Vec<Value>>, FleetError> {
        let fleet_app = self.apps.get(&app).ok_or(FleetError::UnknownApp(app))?;
        let device = fleet_app.location.ok_or(FleetError::NotResident(app))?;
        let tenant = fleet_app.tenant;
        let outputs = self.devices[device]
            .run(app, inputs)
            .map_err(FleetError::Device)?;
        self.tenants.entry(tenant.0).or_default().served += 1;
        Ok(outputs)
    }

    /// Retires a resident app, releasing its pages back to its device —
    /// voluntary departure (a serving lease expiring, an app shutting
    /// down), as opposed to a pressure-driven [`FleetEvent::Evicted`].
    /// The id stays known to [`Fleet::name_of`] but the app no longer
    /// serves; re-[`Fleet::submit`] to bring it back.
    ///
    /// # Errors
    ///
    /// [`FleetError::UnknownApp`] / [`FleetError::NotResident`] for ids
    /// the fleet is not currently hosting.
    pub fn retire(&mut self, app: FleetAppId) -> Result<(), FleetError> {
        let fleet_app = self.apps.get(&app).ok_or(FleetError::UnknownApp(app))?;
        let device = fleet_app.location.ok_or(FleetError::NotResident(app))?;
        self.devices[device]
            .remove(app)
            .map_err(FleetError::Device)?;
        self.unsettle(app);
        Ok(())
    }

    /// Live-migrates a resident app to another device: takes its
    /// compiled state off the source (LoadOp tape included) and replays
    /// it on the destination, evicting within the tenant's class budget
    /// if needed. Returns the migration's downtime bill. On destination
    /// failure the app is restored onto its source device when possible.
    /// No [`FleetEvent`] reports a migration: the evictions it makes on the
    /// destination show only in the devices' counters
    /// ([`FleetStats::per_device`]'s `evicted`) and the fleet's
    /// ([`FleetStats::evicted`]).
    ///
    /// # Errors
    ///
    /// See [`FleetError`]; [`FleetError::MigrationFailed`] reports
    /// whether the app still serves from its source.
    pub fn migrate(&mut self, app: FleetAppId, to: DeviceId) -> Result<f64, FleetError> {
        let fleet_app = self.apps.get(&app).ok_or(FleetError::UnknownApp(app))?;
        let src = fleet_app.location.ok_or(FleetError::NotResident(app))?;
        let tenant = fleet_app.tenant;
        if to.0 >= self.devices.len() {
            return Err(FleetError::UnknownDevice(to));
        }
        if src == to.0 {
            return Ok(0.0);
        }
        let (name, compiled, code) = self.devices[src].remove(app).map_err(FleetError::Device)?;
        self.unsettle(app);
        let class = self.spec_of(tenant).evict;
        let mut boxed = Box::new(compiled);
        let mut code = Some(code);
        loop {
            match self.devices[to.0].admit(app, &name, boxed, &mut code) {
                Ok((downtime_seconds, _)) => {
                    self.settle(app, to.0);
                    self.migrations += 1;
                    self.migration_downtime_seconds += downtime_seconds;
                    return Ok(downtime_seconds);
                }
                Err((back, refusal)) => {
                    boxed = back;
                    if matches!(refusal, Refusal::NoCapacity) {
                        if let Some(victim) = self.victim_on(to.0, class) {
                            if self.evict_local(to.0, victim).is_some() {
                                continue;
                            }
                        }
                    }
                    // Destination refused for good: restore on the source.
                    let restored = self.devices[src]
                        .admit(app, &name, boxed, &mut code)
                        .is_ok();
                    if restored {
                        self.settle(app, src);
                    }
                    return Err(FleetError::MigrationFailed { app, to, restored });
                }
            }
        }
    }

    /// Fleet-wide statistics snapshot.
    pub fn stats(&self) -> FleetStats {
        FleetStats {
            devices: self.devices.len(),
            submitted: self.submitted,
            admitted: self.admitted,
            rejected: self.rejected,
            evicted: self.evicted,
            migrations: self.migrations,
            migration_downtime_seconds: self.migration_downtime_seconds,
            queue_depth: self.queue.len(),
            apps_resident: self.apps.values().filter(|a| a.location.is_some()).count(),
            per_device: self.devices.iter().map(Runtime::stats).collect(),
            tenants: self
                .tenants
                .iter()
                .map(|(&t, state)| TenantShare {
                    tenant: TenantId(t),
                    weight: state.spec.weight,
                    evict: state.spec.evict,
                    served: state.served,
                })
                .collect(),
        }
    }

    fn spec_of(&self, tenant: TenantId) -> QosSpec {
        self.tenants
            .get(&tenant.0)
            .map(|t| t.spec)
            .unwrap_or_default()
    }
}
