//! Serving multiple apps on one fabric — through the fleet's device
//! abstraction at N = 1.
//!
//! The paper's flow compiles and loads one application at a time; this
//! example runs the multi-tenant serving layer on top of it. A fleet of
//! exactly one 22-page XCU50 card hosts several Rosetta benchmarks at
//! once — the degenerate case of `examples/serving_fleet.rs`, exercising
//! the same admission, placement and eviction code path the multi-device
//! fleet uses:
//!
//! 1. four apps are compiled at `-O0` and admitted through the bounded
//!    fleet queue (a fifth submission bounces off the bound —
//!    backpressure);
//! 2. requests are served against each resident app;
//! 3. more apps arrive; when the card is out of pages, the
//!    least-recently-used tenants of equal-or-lower QoS class are
//!    evicted to make room;
//! 4. one operator of a resident app is "edited" (its pragma re-pinned)
//!    and hot-swapped in place on its device: one page reloads, a
//!    handful of config packets re-send, everything else keeps running —
//!    and the measured downtime is compared against a full-app reload.
//!
//! Run with: `cargo run --release --example serving`

use dfg::Target;
use fabric::Floorplan;
use pld::{BuildCache, CompileOptions, OptLevel};
use pld_runtime::{Fleet, FleetAppId, FleetError, FleetEvent, Runtime, TenantId};
use rosetta::{suite, Scale};

fn main() {
    let opts = CompileOptions::new(OptLevel::O0);
    let mut cache = BuildCache::new();

    // The six Rosetta benchmarks, compiled for softcore pages (-O0).
    let benches = suite(Scale::Tiny);
    println!("compiling {} apps at -O0:", benches.len());
    let apps: Vec<_> = benches
        .iter()
        .map(|b| {
            let app = cache
                .compile(&b.graph, &opts)
                .expect("rosetta compiles at -O0");
            println!(
                "  {:<18} {} operators -> {} pages",
                b.name,
                b.graph.operators.len(),
                app.operators.len()
            );
            app
        })
        .collect();

    // A fleet of one card: 22 pages, fleet queue bound 4.
    let fp = Floorplan::u50();
    let mut fleet = Fleet::with_queue_bound(vec![Runtime::new(fp.clone())], 4);
    let tenant = TenantId(0);
    println!(
        "\nfleet up: 1 device, {} pages, queue bound {}",
        fp.pages.len(),
        4
    );

    // --- Admission with backpressure -------------------------------------
    let mut ids: Vec<FleetAppId> = Vec::new();
    let mut overflow = Vec::new();
    for (bench, app) in benches.iter().zip(&apps) {
        match fleet.submit(tenant, bench.name, app.clone()) {
            Ok(id) => ids.push(id),
            Err(FleetError::QueueFull { app }) => {
                println!("queue full: `{}` refused (resubmit later)", bench.name);
                overflow.push(*app);
            }
            Err(e) => println!("`{}` refused: {e}", bench.name),
        }
    }
    let events = fleet.pump();
    report(&fleet, &events);

    // The refused apps get in once the queue drains.
    for app in overflow {
        let name = benches
            .iter()
            .find(|b| b.graph.name == app.graph.name)
            .map(|b| b.name)
            .expect("known bench");
        match fleet.submit(tenant, name, app) {
            Ok(id) => ids.push(id),
            Err(e) => println!("`{name}` refused again: {e}"),
        }
    }
    let events = fleet.pump();
    report(&fleet, &events);
    println!();
    print_counters(&fleet);

    // --- Serve requests ---------------------------------------------------
    // Run each resident tenant's workload (evicted tenants would need
    // re-admission first).
    let mut served = 0;
    for &id in &ids {
        if !fleet.is_resident(id) {
            continue;
        }
        let name = fleet.name_of(id).expect("known app").to_string();
        let bench = benches
            .iter()
            .find(|b| b.name == name)
            .expect("known bench");
        let inputs = bench.input_refs();
        if fleet.run(id, &inputs).is_ok() {
            served += 1;
        }
    }
    println!("served {served} requests across resident tenants");
    assert!(served > 0, "no resident tenant served a request");

    // --- Hot swap ----------------------------------------------------------
    // "Edit" the most recently admitted resident app: re-pin its last
    // operator to a spare page — the pragma flip of the paper's
    // incremental-development loop — and hot-swap it in place on its
    // device.
    let id = *ids
        .iter()
        .rev()
        .find(|&&id| fleet.is_resident(id))
        .expect("something is resident");
    let name = fleet.name_of(id).expect("resident").to_string();
    let bench = benches
        .iter()
        .find(|b| b.name == name)
        .expect("known bench");
    let mut edited = bench.graph.clone();
    let app = cache.compile(&edited, &opts).expect("recompile");
    let homes: Vec<u32> = app
        .operators
        .iter()
        .filter_map(|o| o.page.map(|p| p.0))
        .collect();
    let spare = (0..22u32)
        .rev()
        .find(|p| !homes.contains(p))
        .expect("a spare page");
    let last = edited.operators.len() - 1;
    edited.operators[last].target = Target::riscv(spare);

    let (device, local) = fleet.locate(id).expect("resident");
    let rt = fleet.runtime_mut(device).expect("device exists");
    let report = rt
        .hot_swap(local, &edited, &mut cache, &opts)
        .unwrap_or_else(|e| panic!("hot swap of `{}` failed: {e}", bench.name));
    println!(
        "\nhot swap of `{}` on {device}: recompiled {:?}, reloaded {} page(s), {} config packets",
        bench.name,
        report.recompiled,
        report.swapped_pages.len(),
        report.link_packets
    );
    println!(
        "  downtime {:>9.3} ms   (full reload would be {:>9.3} ms, {:.1}x more)",
        report.downtime_seconds * 1e3,
        report.full_reload_seconds * 1e3,
        report.full_reload_seconds / report.downtime_seconds.max(1e-12)
    );
    assert!(
        report.downtime_seconds > 0.0 && report.downtime_seconds < report.full_reload_seconds,
        "hot swap downtime {} s must be positive and below a full reload's {} s",
        report.downtime_seconds,
        report.full_reload_seconds
    );

    println!("\nfinal statistics:");
    print_counters(&fleet);
}

/// The card's counters: occupancy, residency changes, requests, downtime.
fn print_counters(fleet: &Fleet) {
    let stats = &fleet.stats().per_device[0];
    println!(
        "pages {}/{} occupied | admitted {} evicted {} swaps {}",
        stats.pages_occupied, stats.pages_total, stats.admitted, stats.evicted, stats.swaps
    );
    println!(
        "requests {} | cumulative downtime {:.3} ms",
        stats.requests,
        stats.cumulative_downtime_seconds * 1e3
    );
}

fn report(fleet: &Fleet, events: &[FleetEvent]) {
    for e in events {
        let name = |app: &FleetAppId| fleet.name_of(*app).unwrap_or("?").to_string();
        match e {
            FleetEvent::Admitted {
                app,
                device,
                downtime_seconds,
            } => println!(
                "admitted `{}` on {device} ({:.3} ms downtime)",
                name(app),
                downtime_seconds * 1e3
            ),
            FleetEvent::Rejected { name, reason, .. } => {
                println!("rejected `{name}`: {reason}")
            }
            FleetEvent::Evicted { app, device } => {
                println!("evicted `{}` from {device} (LRU)", name(app))
            }
        }
    }
}
