//! `-O3` runs its as-built and fused-baseline P&R legs as two farm jobs.
//! Farm width must not show in anything the compile returns: the legs are
//! pure functions of (netlist, device, region, opts), so one lane and eight
//! give the same bits, and a leg that fails to route fails the same way.

use pld::{build, ArtifactStore, CompileError, CompileOptions, OptLevel};
use rosetta::{suite, Scale};

/// Everything a farm-width change could move, in comparable form.
#[derive(Debug, PartialEq)]
struct O3Fingerprint {
    artifact_hashes: Vec<u64>,
    timing: pnr::TimingReport,
    work_units: u64,
    fused_timing: Option<pnr::TimingReport>,
    fused_vtime: Option<pld::PhaseTimes>,
    vtime_serial: pld::PhaseTimes,
    stages: Vec<(pld::StageKind, pld::StageCount)>,
    fused_netlist_cells: Vec<netlist::CellKind>,
}

fn o3(graph: &dfg::Graph, jobs: usize, seed: u64) -> Result<O3Fingerprint, CompileError> {
    let options = CompileOptions {
        jobs,
        seed,
        ..CompileOptions::new(OptLevel::O3)
    };
    let (app, report) = build(graph, &options, &mut ArtifactStore::new())?;
    let mono = app.monolithic.as_ref().expect("-O3 is monolithic");
    let fused = pld::flow::fused_baseline_netlist(&app.graph, &mono.netlist, &mono.offsets);
    Ok(O3Fingerprint {
        artifact_hashes: app.artifacts.iter().map(|x| x.hash).collect(),
        timing: mono.timing.clone(),
        work_units: mono.work_units,
        fused_timing: mono.fused_timing.clone(),
        fused_vtime: mono.fused_vtime,
        vtime_serial: app.vtime_serial,
        stages: report.stages.iter().map(|(k, c)| (*k, *c)).collect(),
        fused_netlist_cells: fused.cells.into_iter().map(|c| c.kind).collect(),
    })
}

#[test]
fn o3_is_bit_identical_at_any_farm_width() {
    for bench in suite(Scale::Small) {
        let serial = o3(&bench.graph, 1, 1).unwrap_or_else(|e| panic!("{}: {e}", bench.name));
        assert!(
            serial.fused_timing.is_some() && serial.fused_vtime.is_some(),
            "{}: the fused baseline routes, so both legs are compared",
            bench.name
        );
        for jobs in [2, 8] {
            let wide = o3(&bench.graph, jobs, 1).unwrap_or_else(|e| panic!("{}: {e}", bench.name));
            assert_eq!(serial, wide, "{} at jobs = {jobs}", bench.name);
        }
    }
}

#[test]
fn unroutable_as_built_leg_is_a_typed_error_at_any_farm_width() {
    let optical = suite(Scale::Small)
        .into_iter()
        .find(|b| b.name == "Optical Flow")
        .expect("Optical Flow is in the suite");
    for jobs in [1, 2] {
        match o3(&optical.graph, jobs, 9) {
            Err(CompileError::Pnr {
                error: pnr::PnrError::Unroutable { .. },
                ..
            }) => {}
            other => panic!("jobs = {jobs}: expected Pnr(Unroutable), got {other:?}"),
        }
    }
}
