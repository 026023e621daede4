//! The four workloads and what they share: sizing, compile options, and
//! the checks every compiled app goes through.

pub mod cosim_o0;
pub mod edit_loop;
pub mod fleet_serve;
pub mod rosetta_cold;

use std::collections::HashSet;
use std::path::PathBuf;

use dfg::Graph;
use pld::{CompileOptions, CompiledApp, LoadReport, OptLevel};
use rosetta::Scale;

use crate::apps::AppCase;
use crate::edits::same_function;
use crate::host::farm_jobs;
use crate::layers::Layers;
use crate::recorder::{Failure, Recorder};

/// Workload names, fixed: later issues cite them.
pub const NAMES: [&str; 4] = ["rosetta_cold", "edit_loop", "cosim_o0", "fleet_serve"];

/// The `--seconds` the workloads' base counts are sized for, and the
/// `run_seconds` of `BENCHMARK.json`. Twenty, not ten: the host's speed
/// drifts by several percent over tens of seconds, and a run has to span
/// enough of that for ten runs to agree (README, *Steadiness*).
pub const BASE_SECONDS: f64 = 20.0;

/// How much work one run does.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Rosetta scale: `Medium` for measurement, `Tiny` for `--smoke`.
    pub scale: Scale,
    /// Multiplier on every workload's base pass or turn count. 1.0 is the
    /// count that fills about twenty seconds on the reference 2-core host;
    /// `--seconds S` sets it to `S / 20`. The *work* is fixed by this
    /// number, not the time it takes, so that two builds of the repository
    /// run the same turns and their exact metrics can be compared.
    pub factor: f64,
    pub smoke: bool,
}

impl Size {
    pub fn measure(seconds: f64) -> Size {
        Size {
            scale: Scale::Medium,
            factor: seconds / BASE_SECONDS,
            smoke: false,
        }
    }

    pub fn smoke() -> Size {
        Size {
            scale: Scale::Tiny,
            factor: 0.0,
            smoke: true,
        }
    }

    /// The traced run measures half the work untraced and the same half
    /// traced, so that it costs about what an untraced run does.
    pub fn half(self) -> Size {
        Size {
            factor: self.factor / 2.0,
            ..self
        }
    }

    /// `base * factor` rounded, at least `min` (the smoke size is `min`).
    pub fn count(&self, base: usize, min: usize) -> usize {
        ((base as f64 * self.factor).round() as usize).max(min)
    }

    /// Tokens per external input of a generated app.
    pub fn tokens(&self, measure: u64) -> u64 {
        if self.smoke {
            64
        } else {
            measure
        }
    }
}

/// One workload: seeded set-up (inputs, goldens, caches, warm-up pass), a
/// timed region of checked turns, and final checks.
pub trait Workload: Sized {
    /// Builds every input from `seed` and runs the warm-up pass. `traced`
    /// tells set-up that the timed region will replay layers, for state
    /// only a replay needs.
    fn setup(seed: u64, size: &Size, traced: bool) -> Self;

    /// The timed region.
    fn run(&mut self, size: &Size, rec: &mut Recorder, ly: &mut Layers);

    /// Checks that span the whole run, and clean-up. Failures found here
    /// are recorded as failed zero-second turns of class `final/...`.
    fn finish(self, rec: &mut Recorder, ly: &mut Layers);

    /// Sizing facts for the report (pass and turn counts).
    fn sizing(&self, size: &Size) -> Vec<(&'static str, u64)>;
}

/// Options of every compile in the benchmark: farm width 2 (or `nproc` if
/// smaller), no seed racing, and speculation never enabled.
pub fn compile_options(level: OptLevel, pnr_seed: u64) -> CompileOptions {
    CompileOptions {
        jobs: farm_jobs(),
        seed: pnr_seed,
        ..CompileOptions::new(level)
    }
}

/// A scratch directory under `benchmark/out/` in the working directory (the
/// benchmark writes nowhere else), removed when dropped.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    /// A fresh, empty directory unique to this process and `tag`.
    pub fn create(tag: &str) -> std::io::Result<ScratchDir> {
        let path = PathBuf::from("benchmark")
            .join("out")
            .join(format!("tmp-{}-{tag}", std::process::id()));
        if path.exists() {
            std::fs::remove_dir_all(&path)?;
        }
        std::fs::create_dir_all(&path)?;
        Ok(ScratchDir(path))
    }

    pub fn path(&self) -> &std::path::Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        // Best effort: a leftover directory is ignored by git and harmless.
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Hashes of every artifact of `app`, overlay first.
pub fn artifact_hashes(app: &CompiledApp) -> Vec<u64> {
    app.artifacts.iter().map(|a| a.hash).collect()
}

/// Structural checks on a compiled app: it is what was asked for and every
/// operator got what its target needs.
pub fn check_compiled(app: &CompiledApp, level: OptLevel) -> Result<(), Failure> {
    let fail = |what: &str| Err(Failure::check(what));
    if app.level != level {
        return fail("level");
    }
    if app.operators.len() != app.graph.operators.len() {
        return fail("operator_count");
    }
    if level == OptLevel::O3 {
        let ok = app.artifacts.len() == 1
            && app
                .monolithic
                .as_ref()
                .is_some_and(|m| m.timing.fmax_mhz > 0.0 && m.netlist.cell_count() > 0);
        return if ok { Ok(()) } else { fail("monolithic") };
    }
    let mut pages = HashSet::new();
    for op in &app.operators {
        let (Some(page), Some(artifact)) = (op.page, op.artifact) else {
            return fail("unpaged_operator");
        };
        if !pages.insert(page) || artifact >= app.artifacts.len() {
            return fail("page_map");
        }
        if app.artifacts[artifact].page() != Some(page) {
            return fail("artifact_page");
        }
        let built = if op.target.is_hw() {
            op.hls.is_some() && op.timing.as_ref().is_some_and(|t| t.fmax_mhz > 0.0)
        } else {
            op.soft.is_some()
        };
        if !built {
            return fail("operator_product");
        }
    }
    if app.driver.loads.len() != 1 + app.operators.len() {
        return fail("driver_loads");
    }
    if app.driver.links.len() != app.ir.links.len() {
        return fail("driver_links");
    }
    Ok(())
}

/// The program a build compiled computes the set-up golden. Where it is the
/// case's own graph up to dead body edits and pragmas, which
/// [`same_function`] shows statically, the golden the interpreter took from
/// that graph stands. Any other graph (the KPN optimizer's rewrite, or a
/// compile that changed the program) is run and its outputs compared.
pub fn check_function(case: &AppCase, built: &Graph) -> Result<(), Failure> {
    if same_function(&case.graph, built) {
        return Ok(());
    }
    match dfg::run_graph(built, &case.input_refs()) {
        Ok((out, _)) if out == *case.golden() => Ok(()),
        Ok(_) => Err(Failure::check("output_mismatch")),
        Err(_) => Err(Failure::check("output_run_failed")),
    }
}

/// A full bring-up moved bytes, took modelled time, and linked every link.
pub fn check_load(app: &CompiledApp, load: &LoadReport) -> Result<(), Failure> {
    if load.payload_bytes == 0 || load.total_seconds() <= 0.0 {
        return Err(Failure::check("load_empty"));
    }
    if load.link_packets != app.driver.links.len() {
        return Err(Failure::check("load_links"));
    }
    Ok(())
}

/// Adds a compiled app's stage accounting and modelled phase seconds to the
/// counters.
pub fn count_build(ly: &mut Layers, app: &CompiledApp, report: &pld::BuildReport) {
    ly.add("core.stage_hits", report.total_hits() as f64);
    ly.add("core.stage_executions", report.total_executions() as f64);
    ly.add("core.vtime_hls_s", app.vtime_serial.hls);
    ly.add("core.vtime_syn_s", app.vtime_serial.syn);
    ly.add("core.vtime_pnr_s", app.vtime_serial.pnr);
    ly.add("core.vtime_bit_s", app.vtime_serial.bit);
    ly.add("pnr.warm_ops", report.warm_pnr_ops as f64);
    ly.add("pnr.warm_fallbacks", report.warm_fallbacks as f64);
    ly.add("pnr.hint_fetches", report.hint_fetches as f64);
    ly.add("pnr.hint_hits", report.hint_hits as f64);
}

/// Books a bring-up: its modelled downtime, and its link and modelled-time
/// fields in the counters. The link cycles it simulated are the caller's
/// to add to the turn's.
pub fn count_load(rec: &mut Recorder, ly: &mut Layers, load: &LoadReport) {
    rec.down(load.total_seconds());
    ly.add("core.load_vtime_s", load.total_seconds());
    ly.add("noc.link_packets", load.link_packets as f64);
    ly.add("noc.link_cycles", load.link_cycles as f64);
}
