//! The paper's shape claims (EXPERIMENTS.md), checked on the suite at the
//! scale `results/` is rendered at. Where the reproduction sits outside a
//! band of the paper today, the test names the app and pins its value, as
//! the table prints it, as a recorded gap: a move either way shows here, and
//! no band is widened to let an app in.

use std::sync::OnceLock;

use fabric::Floorplan;
use pld::execute::OVERLAY_MHZ;
use pld::report::vitis_baseline_area;
use pld::{area, CompiledApp};
use pld_repro::perf::perf_o3;
use pld_repro::{compile_suite, CompiledSuiteEntry, Suite};
use rosetta::Scale;

fn suite() -> &'static Suite {
    static SUITE: OnceLock<Suite> = OnceLock::new();
    SUITE.get_or_init(|| compile_suite(Scale::Small))
}

/// Checks `value`, printed with `digits` decimals as its table prints it,
/// against the band `lo..=hi` of the paper. An app in `gaps` must sit
/// outside the band at exactly its pinned print; any other app inside it.
fn in_band_or_recorded_gap(
    app: &str,
    value: f64,
    digits: usize,
    (lo, hi): (f64, f64),
    gaps: &[(&str, &str)],
) {
    let printed = format!("{value:.digits$}");
    match gaps.iter().find(|(name, _)| *name == app) {
        Some((_, pinned)) => {
            assert_eq!(printed, *pinned, "{app}: the recorded gap moved");
            assert!(
                !(lo..=hi).contains(&value),
                "{app}: {printed} is in the band {lo}..={hi} now; drop its gap"
            );
        }
        None => assert!(
            (lo..=hi).contains(&value),
            "{app}: {printed} outside the band {lo}..={hi}"
        ),
    }
}

fn each(check: impl Fn(&str, &CompiledSuiteEntry)) {
    let suite = suite();
    assert_eq!(suite.entries.len(), 6, "the six Rosetta apps");
    for e in &suite.entries {
        check(e.bench.name, e);
    }
}

/// Tab. 2: `-O0` < `-O1` < `-O3` compile time on every app.
#[test]
fn compile_time_orders_o0_below_o1_below_o3() {
    each(|app, e| {
        let [o0, o1, o3] = [&e.o0, &e.o1, &e.o3].map(CompiledApp::compile_seconds);
        assert!(o0 < o1 && o1 < o3, "{app}: {o0} / {o1} / {o3}");
    });
}

/// Tab. 2: the fused "Vitis" baseline compiles within a few percent of the
/// decomposed `-O3` build.
#[test]
fn the_fused_baseline_compiles_within_a_few_percent_of_o3() {
    each(|app, e| {
        let vitis = e.vitis.as_ref().expect("a monolithic app has a baseline");
        let off = vitis.vtime.total() / e.o3.compile_seconds() - 1.0;
        assert!(off.abs() < 0.03, "{app}: {:.1}% off -O3", off * 100.0);
    });
}

/// Tab. 2: P&R is the largest phase of a monolithic compile.
#[test]
fn place_and_route_is_the_largest_monolithic_phase() {
    each(|app, e| {
        let t = e.o3.vtime_serial;
        assert!(
            t.pnr > t.hls.max(t.syn).max(t.bit).max(t.riscv),
            "{app}: {t:?}"
        );
    });
}

/// Tab. 2: `-O1` is 4.2–7.3× faster to compile than `-O3` in the paper.
#[test]
fn o1_compile_speedup_is_in_the_paper_band_or_a_recorded_gap() {
    let gaps = [("3D Rendering", "1.7"), ("Optical Flow", "2.5")];
    each(|app, e| {
        let speedup = e.o3.compile_seconds() / e.o1.compile_seconds();
        in_band_or_recorded_gap(app, speedup, 1, (4.2, 7.3), &gaps);
    });
}

/// Tab. 3: `-O1` runs at the overlay clock and is no faster than `-O3`.
#[test]
fn o1_runs_at_the_overlay_clock_and_no_faster_than_o3() {
    each(|app, e| {
        let (o1, o3) = (e.o1_perf(), perf_o3(&e.o3).expect("-O3 model"));
        assert_eq!(o1.fmax_mhz, OVERLAY_MHZ, "{app}");
        assert!(
            o1.seconds_per_input >= o3.seconds_per_input,
            "{app}: -O1 {} s vs -O3 {} s",
            o1.seconds_per_input,
            o3.seconds_per_input
        );
    });
}

/// Tab. 3: `-O1` is 1.5–10× and `-O0` 10³–10⁵× slower than `-O3` in the
/// paper.
#[test]
fn slowdowns_over_o3_are_in_the_paper_bands_or_recorded_gaps() {
    let o1_gaps = [
        ("3D Rendering", "1.3"),
        ("Face Detection", "1.4"),
        ("Binary NN", "1.1"),
    ];
    let o0_gaps = [
        ("Digit Recognition", "917"),
        ("Spam Filter", "274"),
        ("Face Detection", "313"),
        ("Binary NN", "499"),
    ];
    each(|app, e| {
        let o3 = perf_o3(&e.o3).expect("-O3 model").seconds_per_input;
        let o1 = e.o1_perf().seconds_per_input / o3;
        in_band_or_recorded_gap(app, o1, 1, (1.5, 10.0), &o1_gaps);
        let o0 = e.o0_perf().seconds_per_input / o3;
        in_band_or_recorded_gap(app, o0, 0, (1e3, 1e5), &o0_gaps);
    });
}

/// Tab. 1: 22 pages in four types, of 7, 7, 7 and 1 pages.
#[test]
fn the_floorplan_has_22_pages_in_four_types_of_7_7_7_1() {
    let fp = Floorplan::u50();
    assert_eq!(fp.pages.len(), 22);
    assert_eq!(fp.type_count(), 4);
    let counts: Vec<usize> = (1..=4).map(|ty| fp.pages_of_type(ty).count()).collect();
    assert_eq!(counts, [7, 7, 7, 1]);
}

/// Tab. 4: the fused baseline uses fewer LUTs than `-O3` (no link FIFOs),
/// and `-O3` fewer than `-O1` (one leaf interface per operator).
#[test]
fn lut_order_is_baseline_below_o3_below_o1() {
    each(|app, e| {
        let vitis = vitis_baseline_area(&e.o1).luts;
        let (o3, o1) = (area(&e.o3).resources.luts, area(&e.o1).resources.luts);
        assert!(vitis < o3 && o3 < o1, "{app}: {vitis} / {o3} / {o1}");
    });
}
