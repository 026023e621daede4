//! Farm width must not show in anything a compile returns. `-O3` runs its
//! one monolithic P&R as a farm job, and `-O1` runs one job per operator
//! whose chain misses a stage: HLS or the softcore compile, then P&R — cold,
//! warm-started from a hint, or a hit the job's own probe finds — and
//! packing. Each job is a pure function of its operator's inputs and of a
//! store no job writes while the round runs, so one lane and eight give the
//! same bits, and a P&R that fails to route fails the same way.

use kir::{Expr, Scalar, Stmt, VarDecl};
use pld::{build, ArtifactStore, BuildCache, CompileError, CompileOptions, OptLevel};
use pld::{StageCount, StageKind};
use rosetta::{suite, Scale};

/// Everything a farm-width change could move, in comparable form.
#[derive(Debug, PartialEq)]
struct O3Fingerprint {
    artifact_hashes: Vec<u64>,
    timing: pnr::TimingReport,
    work_units: u64,
    vtime_serial: pld::PhaseTimes,
    stages: Vec<(StageKind, StageCount)>,
}

fn o3(graph: &dfg::Graph, jobs: usize, seed: u64) -> Result<O3Fingerprint, CompileError> {
    let options = CompileOptions {
        jobs,
        seed,
        ..CompileOptions::new(OptLevel::O3)
    };
    let (app, report) = build(graph, &options, &mut ArtifactStore::new())?;
    let mono = app.monolithic.as_ref().expect("-O3 is monolithic");
    Ok(O3Fingerprint {
        artifact_hashes: app.artifacts.iter().map(|x| x.hash).collect(),
        timing: mono.timing.clone(),
        work_units: mono.work_units,
        vtime_serial: app.vtime_serial,
        stages: report.stages.iter().map(|(k, c)| (*k, *c)).collect(),
    })
}

/// One paged build, and the store it leaves, in comparable form.
#[derive(Debug, PartialEq)]
struct PagedFingerprint {
    store: ArtifactStore,
    artifact_hashes: Vec<u64>,
    driver: pld::Driver,
    vtime: [pld::PhaseTimes; 4],
    stages: Vec<(StageKind, StageCount)>,
    hint_fetches: u64,
    hint_hits: u64,
    warm_runs: u64,
    warm_fallbacks: u64,
}

fn paged(
    store: &ArtifactStore,
    app: &pld::CompiledApp,
    report: &pld::BuildReport,
) -> PagedFingerprint {
    PagedFingerprint {
        store: store.clone(),
        artifact_hashes: app.artifacts.iter().map(|x| x.hash).collect(),
        driver: app.driver.clone(),
        vtime: [
            app.vtime_serial,
            app.vtime_parallel,
            report.fresh_vtime_serial,
            report.fresh_vtime_parallel,
        ],
        stages: report.stages.iter().map(|(k, c)| (*k, *c)).collect(),
        hint_fetches: report.hint_fetches,
        hint_hits: report.hint_hits,
        warm_runs: report.warm_pnr_ops,
        warm_fallbacks: report.warm_fallbacks,
    }
}

/// `graph` with a dead assignment appended to its first hardware operator:
/// a body edit whose netlist differs by a few cells.
fn body_edited(graph: &dfg::Graph) -> dfg::Graph {
    let mut g = graph.clone();
    let op = g
        .operators
        .iter_mut()
        .find(|o| matches!(o.target, dfg::Target::Hw { .. }))
        .expect("an -O1 app has a hardware operator");
    op.kernel.locals.push(VarDecl {
        name: "edit".into(),
        ty: Scalar::uint(32),
    });
    let value = Expr::cint(0x5a5a)
        .xor(Expr::cint(0x0f0f))
        .add(Expr::cint(7));
    op.kernel.body.push(Stmt::assign("edit", value));
    g
}

/// The first literal of `e` that is no array index, depth first.
fn literal(e: &mut Expr) -> Option<&mut i128> {
    match e {
        Expr::Const { raw, .. } => Some(raw),
        Expr::Var(_) | Expr::ArrayGet { .. } => None,
        Expr::Un { arg, .. } | Expr::Cast { arg, .. } | Expr::BitRange { arg, .. } => literal(arg),
        Expr::Bin { lhs, rhs, .. } => literal(lhs).or_else(|| literal(rhs)),
        Expr::Select {
            cond,
            then_val,
            else_val,
        } => literal(cond)
            .or_else(|| literal(then_val))
            .or_else(|| literal(else_val)),
    }
}

/// The first literal of `body` that is no array index, depth first.
fn body_literal(body: &mut [Stmt]) -> Option<&mut i128> {
    body.iter_mut().find_map(|s| match s {
        Stmt::Assign { value, .. } | Stmt::Write { value, .. } => literal(value),
        Stmt::ArraySet { value, .. } => literal(value),
        Stmt::Read { .. } => None,
        Stmt::For { body, .. } => body_literal(body),
        Stmt::If {
            cond,
            then_body,
            else_body,
        } => literal(cond)
            .or_else(|| body_literal(then_body))
            .or_else(|| body_literal(else_body)),
    })
}

/// `graph` with one literal changed in a hardware operator other than the
/// first (the first that has a literal outside an array index): a
/// constant-only edit, which lowers to the netlist it had (a constant's cell
/// carries its width, not its value).
fn constant_edited(graph: &dfg::Graph) -> dfg::Graph {
    let mut g = graph.clone();
    let literal = g
        .operators
        .iter_mut()
        .filter(|o| matches!(o.target, dfg::Target::Hw { .. }))
        .skip(1)
        .find_map(|o| body_literal(&mut o.kernel.body))
        .expect("a second hardware operator has a literal");
    *literal ^= 1;
    g
}

/// `-O1` at farm width `jobs`: a cold build, then, with incremental P&R, a
/// cold build, a warm one through a body edit, and a constant-only edit of a
/// second operator, whose job lowers it and then finds its P&R.
fn o1(graph: &dfg::Graph, jobs: usize) -> Vec<PagedFingerprint> {
    let cold = CompileOptions {
        jobs,
        ..CompileOptions::new(OptLevel::O1)
    };
    let mut store = ArtifactStore::new();
    let (app, report) = build(graph, &cold, &mut store).unwrap();
    let mut prints = vec![paged(&store, &app, &report)];
    let warm = CompileOptions {
        incremental_pnr: true,
        ..cold
    };
    let mut cache = BuildCache::new();
    let edited = body_edited(graph);
    let constant = constant_edited(&edited);
    for g in [graph.clone(), edited, constant] {
        let app = cache.compile(&g, &warm).unwrap();
        prints.push(paged(cache.store(), &app, cache.last_report().unwrap()));
    }
    prints
}

#[test]
fn builds_are_bit_identical_at_any_farm_width() {
    for bench in suite(Scale::Small) {
        let serial = o3(&bench.graph, 1, 1).unwrap_or_else(|e| panic!("{}: {e}", bench.name));
        let serial_o1 = o1(&bench.graph, 1);
        assert_eq!(
            serial_o1[2].warm_runs, 1,
            "{}: the edit runs warm",
            bench.name
        );
        let stage = |kind| serial_o1[3].stages.iter().find(|s| s.0 == kind).unwrap().1;
        assert_eq!(
            (
                stage(StageKind::HlsLower).executions,
                stage(StageKind::PlaceRoute).executions
            ),
            (1, 0),
            "{}: the constant edit lowers one netlist, whose P&R hits",
            bench.name
        );
        for jobs in [2, 8] {
            let wide = o3(&bench.graph, jobs, 1).unwrap_or_else(|e| panic!("{}: {e}", bench.name));
            assert_eq!(serial, wide, "{} at jobs = {jobs}", bench.name);
            for (at, (s, w)) in serial_o1.iter().zip(o1(&bench.graph, jobs)).enumerate() {
                assert!(
                    *s == w,
                    "{}: -O1 build {at} differs at jobs = {jobs}",
                    bench.name
                );
            }
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
