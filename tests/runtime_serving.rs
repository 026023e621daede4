//! Multi-tenant serving integration, all through the fleet front end: many
//! apps on a fleet of one card, admission backpressure, LRU eviction with
//! re-admission, and hot-swap downtime strictly below a full-app reload —
//! then several cards: cross-device placement, QoS eviction classes, async
//! admission tickets, and bit-identical live migration.

use dfg::{Graph, GraphBuilder, Target};
use fabric::Floorplan;
use kir::types::Value;
use kir::{Expr, KernelBuilder, Scalar, Stmt};
use pld::{BuildCache, CompileOptions, OptLevel};
use pld_runtime::{
    DeviceId, EvictClass, Executor, Fleet, FleetAppId, FleetError, FleetEvent, QosSpec, Runtime,
    TenantId,
};
use proptest::prelude::*;

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

/// A linear pipeline of `n` operators, each adding `addend`.
fn pipeline(name: &str, n: usize, addend: i64) -> Graph {
    let mut b = GraphBuilder::new(name);
    let mut prev = None;
    for i in 0..n {
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

fn words(values: std::ops::Range<u32>) -> Vec<Value> {
    values
        .map(|v| Value::Int(aplib::DynInt::from_raw(32, false, v as u128)))
        .collect()
}

fn to_u32s(values: &[Value]) -> Vec<u32> {
    values.iter().map(|v| v.raw() as u32).collect()
}

fn compile_o0(graph: &Graph) -> pld::CompiledApp {
    pld::compile(graph, &CompileOptions::new(OptLevel::O0)).unwrap()
}

/// The one card of a fleet of one.
const CARD: DeviceId = DeviceId(0);

#[test]
fn admission_queue_pushes_back_at_its_bound() {
    let mut fleet = Fleet::with_queue_bound(vec![Runtime::new(Floorplan::u50())], 2);
    let t = TenantId(0);
    fleet
        .submit(t, "a", compile_o0(&pipeline("a", 2, 1)))
        .unwrap();
    fleet
        .submit(t, "b", compile_o0(&pipeline("b", 2, 2)))
        .unwrap();
    // Third submission before any scheduling pass: refused, app returned.
    let refused = match fleet.submit(t, "c", compile_o0(&pipeline("c", 2, 3))) {
        Err(FleetError::QueueFull { app }) => app,
        other => panic!("expected QueueFull, got {other:?}"),
    };
    assert_eq!(refused.graph.name, "c");
    assert_eq!(fleet.stats().rejected, 1);
    assert_eq!(fleet.queue_depth(), 2);

    // After draining, the refused app is admissible.
    let events = fleet.pump();
    assert_eq!(events.len(), 2);
    let id_c = fleet.submit(t, "c", *refused).unwrap();
    let events = fleet.pump();
    assert!(
        matches!(&events[..], [FleetEvent::Admitted { app, .. }] if *app == id_c),
        "{events:?}"
    );
}

#[test]
fn serving_many_tenants_with_eviction_and_readmission() {
    let fp = Floorplan::u50(); // 22 pages
    let mut fleet = Fleet::new(1, &fp);
    let t = TenantId(0);

    // Three 7-page tenants: 21 of 22 pages occupied.
    let mut ids = Vec::new();
    for (i, name) in ["alpha", "beta", "gamma"].iter().enumerate() {
        let id = fleet
            .submit(t, name, compile_o0(&pipeline(name, 7, i as i64 + 1)))
            .unwrap();
        ids.push(id);
    }
    let events = fleet.pump();
    assert_eq!(
        events
            .iter()
            .filter(|e| matches!(e, FleetEvent::Admitted { .. }))
            .count(),
        3
    );
    let stats = fleet.stats().per_device.remove(0);
    assert_eq!(stats.pages_occupied, 21);
    assert!((stats.occupancy() - 21.0 / 22.0).abs() < 1e-12);
    assert!(stats.cumulative_downtime_seconds > 0.0);

    // Serve requests so LRU order is gamma-fresh, alpha-stale.
    let input = words(0..8);
    for &id in &ids[1..] {
        let out = fleet.run(id, &[("Input_1", input.clone())]).unwrap();
        assert_eq!(out["Output_1"].len(), 8);
    }
    assert_eq!(fleet.stats().per_device[0].requests, 2);

    // A fourth 7-page tenant does not fit in the 1 free page: the
    // least-recently-used tenant (alpha) is evicted to make room.
    let id_d = fleet
        .submit(t, "delta", compile_o0(&pipeline("delta", 7, 9)))
        .unwrap();
    let events = fleet.pump();
    assert_eq!(events.len(), 2, "{events:?}");
    assert_eq!(
        events[0],
        FleetEvent::Evicted {
            app: ids[0],
            device: CARD
        }
    );
    assert!(matches!(&events[1], FleetEvent::Admitted { app, .. } if *app == id_d));
    assert!(!fleet.is_resident(ids[0]));
    assert_eq!(fleet.stats().evicted, 1);
    assert_eq!(fleet.stats().per_device[0].evicted, 1);

    // Serving the evicted tenant fails until it is re-admitted; the
    // re-admission replays its loads and is charged downtime again.
    assert!(matches!(
        fleet.run(ids[0], &[("Input_1", input.clone())]),
        Err(FleetError::NotResident(_))
    ));
    let downtime_before = fleet.stats().per_device[0].cumulative_downtime_seconds;
    let id_a2 = fleet
        .submit(t, "alpha", compile_o0(&pipeline("alpha", 7, 1)))
        .unwrap();
    let events = fleet.pump();
    // Re-admitting 7 pages with 1 free evicts again: beta is LRU now.
    assert_eq!(events.len(), 2, "{events:?}");
    assert_eq!(
        events[0],
        FleetEvent::Evicted {
            app: ids[1],
            device: CARD
        }
    );
    assert!(matches!(&events[1], FleetEvent::Admitted { app, .. } if *app == id_a2));
    assert!(fleet.stats().per_device[0].cumulative_downtime_seconds > downtime_before);

    // The re-admitted tenant serves correctly.
    let out = fleet.run(id_a2, &[("Input_1", input)]).unwrap();
    let expected: Vec<u32> = (0..8).map(|v| v + 7).collect(); // 7 stages × +1
    assert_eq!(to_u32s(&out["Output_1"]), expected);
}

#[test]
fn unplaceable_apps_are_rejected_not_queued_forever() {
    let mut fleet = Fleet::new(1, &Floorplan::u50());
    // An -O3 monolith has no per-page artifacts: it cannot share a fabric
    // and is refused at submission instead of evicting tenants forever.
    let graph = pipeline("monolith", 2, 1);
    let app = pld::compile(&graph, &CompileOptions::new(OptLevel::O3)).unwrap();
    assert!(matches!(
        fleet.submit(TenantId(0), "monolith", app),
        Err(FleetError::Unplaceable { .. })
    ));
    assert!(fleet.pump().is_empty());
    let stats = fleet.stats();
    assert_eq!(stats.rejected, 1);
    assert_eq!(stats.per_device[0].pages_occupied, 0);
}

#[test]
fn hot_swap_downtime_beats_full_reload() {
    let mut cache = BuildCache::new();
    let opts = CompileOptions::new(OptLevel::O0);
    let graph = pipeline("editme", 4, 2);
    let app = cache.compile(&graph, &opts).unwrap();
    let homes: Vec<u32> = app
        .operators
        .iter()
        .filter_map(|o| o.page.map(|p| p.0))
        .collect();

    let mut fleet = Fleet::new(1, &Floorplan::u50());
    let t = TenantId(0);
    // A second tenant shares the fabric; its routes must survive the swap.
    let other = fleet
        .submit(t, "bystander", compile_o0(&pipeline("bystander", 3, 5)))
        .unwrap();
    let id = fleet.submit(t, "editme", app).unwrap();
    fleet.pump();
    assert!(fleet.is_resident(other) && fleet.is_resident(id));
    let bystander_out_before =
        fleet.run(other, &[("Input_1", words(0..8))]).unwrap()["Output_1"].clone();

    // The edit: re-pin one operator to a page the app does not use —
    // exactly the pragma flip of the paper's development loop.
    // Pin the tail stage: earlier stages' assignments don't depend on it,
    // so exactly one operator is dirtied.
    let mut edited = graph.clone();
    let spare = (0..22u32).rev().find(|p| !homes.contains(p)).unwrap();
    edited.operators[3].target = Target::riscv(spare);

    let (device, local) = fleet.locate(id).unwrap();
    let report = fleet
        .runtime_mut(device)
        .unwrap()
        .hot_swap(local, &edited, &mut cache, &opts)
        .unwrap();
    assert_eq!(report.recompiled, vec!["s3".to_string()]);
    assert_eq!(report.swapped_pages.len(), 1);
    assert!(report.artifact_seconds > 0.0);
    assert!(report.link_packets > 0);
    assert!(
        report.downtime_seconds < report.full_reload_seconds,
        "hot-swap {}s must beat full reload {}s",
        report.downtime_seconds,
        report.full_reload_seconds
    );

    // The swapped app still serves, and so does the bystander.
    let out = fleet.run(id, &[("Input_1", words(0..8))]).unwrap();
    assert_eq!(to_u32s(&out["Output_1"]), (8..16).collect::<Vec<u32>>()); // 4 stages × +2
    let bystander_out = fleet.run(other, &[("Input_1", words(0..8))]).unwrap()["Output_1"].clone();
    assert_eq!(bystander_out, bystander_out_before);

    let stats = fleet.stats().per_device.remove(0);
    assert_eq!(stats.swaps, 1);
    assert_eq!(stats.requests, 3);
}

#[test]
fn fleet_packs_best_fit_then_spills_to_the_next_device() {
    let fp = Floorplan::u50();
    let mut fleet = Fleet::new(2, &fp);
    let t = TenantId(0);
    let mut ids = Vec::new();
    for (i, name) in ["a", "b", "c", "d"].iter().enumerate() {
        ids.push(
            fleet
                .submit(t, name, compile_o0(&pipeline(name, 7, i as i64 + 1)))
                .unwrap(),
        );
    }
    let events = fleet.pump();
    assert!(
        events
            .iter()
            .all(|e| matches!(e, FleetEvent::Admitted { .. })),
        "{events:?}"
    );
    // Best-fit packs dev0 to 21 of 22 pages; the fourth 7-page app
    // spills to dev1 instead of evicting anyone.
    for &id in &ids[..3] {
        assert_eq!(fleet.locate(id).unwrap().0, DeviceId(0));
    }
    assert_eq!(fleet.locate(ids[3]).unwrap().0, DeviceId(1));
    assert_eq!(fleet.stats().evicted, 0);

    // Serving routes to the right device.
    let out = fleet.run(ids[3], &[("Input_1", words(0..8))]).unwrap();
    let expected: Vec<u32> = (0..8).map(|v| v + 7 * 4).collect();
    assert_eq!(to_u32s(&out["Output_1"]), expected);
}

#[test]
fn placement_prefers_the_device_with_cached_bitstreams() {
    let fp = Floorplan::u50();
    let mut fleet = Fleet::new(2, &fp);
    let t = TenantId(0);
    // A full-card app takes dev0, so `warm` lands on dev1 and leaves its
    // artifacts in dev1's cache.
    let filler = fleet
        .submit(t, "filler", compile_o0(&pipeline("filler", 22, 1)))
        .unwrap();
    let app = compile_o0(&pipeline("warm", 4, 9));
    let seeded = fleet.submit(t, "warm", app.clone()).unwrap();
    fleet.pump();
    assert_eq!(fleet.locate(filler).unwrap().0, DeviceId(0));
    assert_eq!(fleet.locate(seeded).unwrap().0, DeviceId(1));

    // Both cards empty again: best-fit and index order both say dev0, so
    // only the artifact cache can say dev1.
    fleet.retire(filler).unwrap();
    fleet.retire(seeded).unwrap();
    let id = fleet.submit(t, "warm", app).unwrap();
    fleet.pump();
    assert_eq!(
        fleet.locate(id).unwrap().0,
        DeviceId(1),
        "cache affinity must beat index order"
    );
}

#[test]
fn qos_classes_bound_who_a_tenant_may_evict() {
    let fp = Floorplan::u50();
    let mut fleet = Fleet::new(1, &fp);
    let (tg, ts, tr) = (TenantId(0), TenantId(1), TenantId(2));
    fleet.set_tenant(
        tg,
        QosSpec {
            weight: 1,
            evict: EvictClass::Guaranteed,
        },
    );
    fleet.set_tenant(
        ts,
        QosSpec {
            weight: 1,
            evict: EvictClass::Standard,
        },
    );
    fleet.set_tenant(
        tr,
        QosSpec {
            weight: 1,
            evict: EvictClass::Revocable,
        },
    );

    // Three 7-page tenants fill 21 of 22 pages.
    let g = fleet
        .submit(tg, "g", compile_o0(&pipeline("g", 7, 1)))
        .unwrap();
    let s = fleet
        .submit(ts, "s", compile_o0(&pipeline("s", 7, 2)))
        .unwrap();
    let r = fleet
        .submit(tr, "r", compile_o0(&pipeline("r", 7, 3)))
        .unwrap();
    fleet.pump();
    // Touch the revocable app so it is most-recently-used: the QoS class
    // must outrank recency in victim selection.
    fleet.run(r, &[("Input_1", words(0..8))]).unwrap();

    // A revocable tenant may only reclaim revocable pages: `r` goes,
    // even though `g` and `s` are staler.
    let r2 = fleet
        .submit(tr, "r2", compile_o0(&pipeline("r2", 7, 4)))
        .unwrap();
    let events = fleet.pump();
    assert!(
        matches!(events[0], FleetEvent::Evicted { app, .. } if app == r),
        "{events:?}"
    );
    assert!(matches!(events[1], FleetEvent::Admitted { app, .. } if app == r2));
    assert!(fleet.is_resident(g) && fleet.is_resident(s));

    // A standard tenant reclaims the lowest class first: r2, not s.
    let s2 = fleet
        .submit(ts, "s2", compile_o0(&pipeline("s2", 7, 5)))
        .unwrap();
    let events = fleet.pump();
    assert!(
        matches!(events[0], FleetEvent::Evicted { app, .. } if app == r2),
        "{events:?}"
    );
    assert!(matches!(events[1], FleetEvent::Admitted { app, .. } if app == s2));

    // No revocable pages left on the card: a revocable tenant is
    // rejected rather than touching guaranteed or standard residents.
    let r3 = fleet
        .submit(tr, "r3", compile_o0(&pipeline("r3", 7, 6)))
        .unwrap();
    let events = fleet.pump();
    assert!(
        matches!(&events[..], [FleetEvent::Rejected { app, reason, .. }]
            if *app == r3 && reason.contains("class")),
        "{events:?}"
    );
    assert!(fleet.is_resident(g) && fleet.is_resident(s) && fleet.is_resident(s2));
}

#[test]
fn async_tickets_park_until_a_scheduling_pass() {
    use std::cell::RefCell;
    use std::rc::Rc;

    let fp = Floorplan::u50();
    let fleet = Rc::new(RefCell::new(Fleet::new(1, &fp)));
    let mut pool = Executor::new();
    let results = Rc::new(RefCell::new(Vec::new()));
    for (name, addend) in [("x", 1), ("y", 2)] {
        let ticket = fleet
            .borrow_mut()
            .submit_async(TenantId(0), name, compile_o0(&pipeline(name, 2, addend)))
            .unwrap();
        let results = Rc::clone(&results);
        pool.spawn(async move {
            let adm = ticket.await.expect("admitted");
            results.borrow_mut().push((adm.app, adm.device));
        });
    }
    // No scheduling pass yet: the futures park instead of busy-waiting.
    assert_eq!(pool.run_until_stalled(), 0);
    assert_eq!(pool.pending(), 2);
    assert!(results.borrow().is_empty());

    let events = fleet.borrow_mut().pump();
    assert_eq!(events.len(), 2, "{events:?}");
    assert_eq!(pool.run_until_stalled(), 2);
    assert_eq!(pool.pending(), 0);
    let got = results.borrow();
    assert_eq!(got.len(), 2);
    assert!(got.iter().all(|(_, d)| *d == DeviceId(0)));
}

/// The pages an app occupies on the card that hosts it.
fn pages_of(runtime: &Runtime, id: FleetAppId) -> Vec<fabric::PageId> {
    runtime
        .placement_of(id)
        .expect("resident")
        .iter()
        .map(|p| p.actual)
        .collect()
}

#[test]
fn failed_migration_restores_the_app_on_its_source() {
    let fp = Floorplan::u50();
    let mut fleet = Fleet::new(2, &fp);
    let (t, tg) = (TenantId(0), TenantId(1));
    fleet.set_tenant(
        tg,
        QosSpec {
            weight: 1,
            evict: EvictClass::Guaranteed,
        },
    );
    let a = fleet
        .submit(t, "a", compile_o0(&pipeline("a", 2, 1)))
        .unwrap();
    let b = fleet
        .submit(t, "b", compile_o0(&pipeline("b", 2, 2)))
        .unwrap();
    fleet.pump();
    // A guaranteed tenant fills dev1, so a standard tenant's migration
    // there finds nothing it may evict and is refused for good.
    let g = fleet
        .submit(tg, "g", compile_o0(&pipeline("g", 22, 3)))
        .unwrap();
    fleet.pump();
    assert_eq!(fleet.locate(g).unwrap().0, DeviceId(1));
    // a's freed pages are where the restore lands b.
    fleet.retire(a).unwrap();
    let (dev, local) = fleet.locate(b).unwrap();
    let before = pages_of(fleet.device(dev).unwrap(), local);

    match fleet.migrate(b, DeviceId(1)) {
        Err(FleetError::MigrationFailed { restored: true, .. }) => {}
        other => panic!("expected a restored migration failure, got {other:?}"),
    }
    let (dev, local) = fleet.locate(b).unwrap();
    assert_eq!(dev, DeviceId(0), "restored on its source");
    let after = pages_of(fleet.device(dev).unwrap(), local);
    assert_ne!(after, before, "the restore moved b to other pages");
    let out = fleet.run(b, &[("Input_1", words(0..8))]).unwrap();
    let expected: Vec<u32> = (0..8).map(|v| v + 4).collect();
    assert_eq!(to_u32s(&out["Output_1"]), expected);
}

#[test]
fn retire_releases_pages_without_counting_as_an_eviction() {
    let fp = Floorplan::u50();
    let mut fleet = Fleet::new(1, &fp);
    let id = fleet
        .submit(TenantId(0), "tmp", compile_o0(&pipeline("tmp", 12, 1)))
        .unwrap();
    fleet.pump();
    assert!(fleet.is_resident(id));

    fleet.retire(id).unwrap();
    assert!(!fleet.is_resident(id));
    assert_eq!(fleet.name_of(id), Some("tmp"));
    assert_eq!(fleet.stats().evicted, 0, "retirement is not QoS pressure");
    assert_eq!(fleet.stats().per_device[0].evicted, 0);
    assert!(matches!(fleet.retire(id), Err(FleetError::NotResident(_))));

    // The pages are genuinely free: a 12-page app fits again without
    // evicting anyone.
    let id2 = fleet
        .submit(TenantId(0), "next", compile_o0(&pipeline("next", 12, 2)))
        .unwrap();
    let events = fleet.pump();
    assert!(
        matches!(&events[..], [FleetEvent::Admitted { app, .. }] if *app == id2),
        "{events:?}"
    );
}

#[test]
fn unplaceable_fleet_submissions_carry_per_device_deficits() {
    let fp = Floorplan::u50();
    let mut fleet = Fleet::new(3, &fp);
    // An -O3 monolith has no per-page artifacts: no device could ever
    // host it, and the refusal itemizes why for each one.
    let graph = pipeline("monolith", 2, 1);
    let app = pld::compile(&graph, &CompileOptions::new(OptLevel::O3)).unwrap();
    match fleet.submit(TenantId(0), "monolith", app) {
        Err(FleetError::Unplaceable { name, deficits }) => {
            assert_eq!(name, "monolith");
            assert_eq!(deficits.len(), 3);
            let devices: Vec<usize> = deficits.iter().map(|(d, _)| d.0).collect();
            assert_eq!(devices, vec![0, 1, 2]);
        }
        other => panic!("expected Unplaceable, got {other:?}"),
    }
    assert_eq!(fleet.stats().rejected, 1);
    assert_eq!(fleet.queue_depth(), 0, "unplaceable apps never queue");
}

#[test]
fn build_batch_matches_serial_builds_and_merges_the_store() {
    let opts = CompileOptions::new(OptLevel::O0);
    let graphs: Vec<Graph> = (0..6)
        .map(|i| pipeline(&format!("b{i}"), 2, i as i64 + 1))
        .collect();
    let mut batch_store = pld::ArtifactStore::new();
    let batch = pld::build_batch(&graphs, &opts, &mut batch_store, 3);
    assert_eq!(batch.len(), 6);
    for (graph, result) in graphs.iter().zip(&batch) {
        let (app, _) = result.as_ref().expect("batch job succeeds");
        let mut solo_store = pld::ArtifactStore::new();
        let (solo, _) = pld::build(graph, &opts, &mut solo_store).expect("serial build");
        // Content addressing: the concurrent build produces bit-identical
        // artifacts to the serial one.
        let batch_hashes: Vec<u64> = app.artifacts.iter().map(|x| x.hash).collect();
        let solo_hashes: Vec<u64> = solo.artifacts.iter().map(|x| x.hash).collect();
        assert_eq!(batch_hashes, solo_hashes);
        // And every stage product landed in the merged store.
        assert!(batch_store.len() >= solo_store.len());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Live migration is invisible to tenants: serving an app that has
    /// been bounced across devices by LoadOp-replay re-admission is
    /// bit-identical to serving the same app on a fleet that never
    /// migrates, after every hop of an arbitrary itinerary.
    #[test]
    fn migrated_serving_is_bit_identical_to_never_migrating(
        stages in 1usize..4,
        addend in 1i64..40,
        hops in proptest::collection::vec(0usize..3, 1..5),
    ) {
        let fp = Floorplan::u50();
        let app = compile_o0(&pipeline("m", stages, addend));
        let input = words(0..8);

        let mut still = Fleet::new(1, &fp);
        let still_id = still.submit(TenantId(0), "m", app.clone()).unwrap();
        still.pump();
        let reference = still.run(still_id, &[("Input_1", input.clone())]).unwrap();
        let expected: Vec<u32> = (0..8).map(|v| v + (addend * stages as i64) as u32).collect();
        prop_assert_eq!(&to_u32s(&reference["Output_1"]), &expected);

        let mut roaming = Fleet::new(3, &fp);
        let id = roaming.submit(TenantId(0), "m", app).unwrap();
        roaming.pump();
        let out = roaming.run(id, &[("Input_1", input.clone())]).unwrap();
        prop_assert_eq!(&out, &reference);
        for &to in &hops {
            roaming.migrate(id, DeviceId(to)).unwrap();
            prop_assert_eq!(roaming.locate(id).unwrap().0, DeviceId(to));
            let out = roaming.run(id, &[("Input_1", input.clone())]).unwrap();
            prop_assert_eq!(&out, &reference);
        }
        // A migration is not an eviction on either end.
        prop_assert!(roaming.stats().per_device.iter().all(|d| d.evicted == 0));
    }
}
