//! Per-turn records, the failure tally, and the end-to-end metrics computed
//! from them.

use std::collections::BTreeMap;

use pld::execute::PerfError;
use pld::{CompileError, CosimError};
use pld_runtime::{FleetError, RuntimeError};

use crate::stats::{geomean, median, percentile};

/// Why a turn failed: a short dotted kind for the tally.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Failure(pub String);

impl Failure {
    /// The harness's own check rejected an output.
    pub fn check(what: &str) -> Failure {
        Failure(format!("check.{what}"))
    }
}

impl From<&CompileError> for Failure {
    fn from(e: &CompileError) -> Failure {
        Failure(
            match e {
                CompileError::PageAssignment { .. } => "compile.page_assignment",
                CompileError::Hls { .. } => "compile.hls",
                CompileError::Pnr { error, .. } => match error {
                    pnr::PnrError::DoesNotFit { .. } => "compile.pnr.does_not_fit",
                    pnr::PnrError::BadNetlist(_) => "compile.pnr.bad_netlist",
                    pnr::PnrError::Unroutable { .. } => "compile.pnr.unroutable",
                },
                CompileError::Softcore { .. } => "compile.softcore",
                CompileError::JobPanicked { .. } => "compile.job_panicked",
            }
            .to_string(),
        )
    }
}

impl From<&CosimError> for Failure {
    fn from(e: &CosimError) -> Failure {
        Failure(
            match e {
                CosimError::WrongLevel => "cosim.wrong_level",
                CosimError::Trap { .. } => "cosim.trap",
                CosimError::CycleBudget { .. } => "cosim.cycle_budget",
            }
            .to_string(),
        )
    }
}

impl From<&PerfError> for Failure {
    fn from(e: &PerfError) -> Failure {
        Failure(
            match e {
                PerfError::Graph(_) => "execute.graph",
                PerfError::Softcore { .. } => "execute.softcore",
                PerfError::CycleBudget { .. } => "execute.cycle_budget",
                PerfError::WrongLevel { .. } => "execute.wrong_level",
            }
            .to_string(),
        )
    }
}

impl From<&RuntimeError> for Failure {
    fn from(e: &RuntimeError) -> Failure {
        let kind = match e {
            RuntimeError::Compile(c) => return Failure(format!("runtime.{}", Failure::from(c).0)),
            RuntimeError::UnknownApp(_) => "runtime.unknown_app",
            RuntimeError::NotResident(_) => "runtime.not_resident",
            RuntimeError::FloorplanMismatch => "runtime.floorplan_mismatch",
            RuntimeError::Alloc(_) => "runtime.alloc",
            RuntimeError::OperatorSetChanged => "runtime.operator_set_changed",
            RuntimeError::DmaStreamsExhausted => "runtime.dma_streams_exhausted",
            RuntimeError::Execution(_) => "runtime.execution",
            RuntimeError::ResidencyLost(_) => "runtime.residency_lost",
        };
        Failure(kind.to_string())
    }
}

impl From<&FleetError> for Failure {
    fn from(e: &FleetError) -> Failure {
        let kind = match e {
            FleetError::Device(d) => return Failure(format!("fleet.{}", Failure::from(d).0)),
            FleetError::QueueFull { .. } => "fleet.queue_full",
            FleetError::Unplaceable { .. } => "fleet.unplaceable",
            FleetError::Rejected { .. } => "fleet.admission_rejected",
            FleetError::MigrationFailed { .. } => "fleet.migration_failed",
            FleetError::UnknownApp(_) => "fleet.unknown_app",
            FleetError::NotResident(_) => "fleet.not_resident",
            FleetError::UnknownDevice(_) => "fleet.unknown_device",
        };
        Failure(kind.to_string())
    }
}

/// Fewest turns a 90th percentile is taken over: 12 samples lie beyond it.
pub const P90_MIN_TURNS: usize = 120;

/// Everything the timed region of one workload run produced.
#[derive(Default)]
pub struct Recorder {
    class_names: Vec<String>,
    /// `(class, wall seconds)` per attempted turn, in order.
    turns: Vec<(usize, f64)>,
    /// Index of the first turn of every region but the first.
    region_starts: Vec<usize>,
    final_checks: u64,
    failed: u64,
    failures: BTreeMap<String, u64>,
    /// Modelled seconds the turns' calls returned (see [`Recorder::modelled`]).
    vtime_s: f64,
    /// Simulated cycles, and the turns that simulated any.
    sim_cycles: u64,
    sim_turns: u64,
    /// Modelled downtime, and the loads, swaps and migrations it was for.
    downtime_s: f64,
    loads: u64,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder::default()
    }

    fn class(&mut self, name: &str) -> usize {
        match self.class_names.iter().position(|n| n == name) {
            Some(i) => i,
            None => {
                self.class_names.push(name.to_string());
                self.class_names.len() - 1
            }
        }
    }

    /// Records one attempted turn of class `class` (`app/kind`) that took
    /// `seconds` of calls into the system, and how it ended.
    pub fn turn(&mut self, class: &str, seconds: f64, outcome: Result<(), Failure>) {
        let c = self.class(class);
        self.turns.push((c, seconds));
        if let Err(Failure(kind)) = outcome {
            self.failed += 1;
            *self.failures.entry(kind).or_insert(0) += 1;
        }
    }

    /// Records a check that spans the run (made after the timed region).
    /// It counts as attempted, and as failed if it failed, but has no time.
    pub fn final_check(&mut self, outcome: Result<(), Failure>) {
        self.final_checks += 1;
        if let Err(Failure(kind)) = outcome {
            self.failed += 1;
            *self.failures.entry(kind).or_insert(0) += 1;
        }
    }

    /// Adds modelled seconds a call of the current turn returned: virtual
    /// compile time, a load's or swap's downtime, simulated card time.
    pub fn modelled(&mut self, seconds: f64) {
        self.vtime_s += seconds;
    }

    /// Counts the cycles the current turn simulated: an overlay run, or the
    /// linking network delivering a load's configuration packets.
    pub fn simulated(&mut self, cycles: u64) {
        self.sim_cycles += cycles;
        self.sim_turns += 1;
    }

    /// Counts one bring-up, incremental reload, hot swap or migration and
    /// the modelled seconds its pages were down (also [`modelled`] time).
    ///
    /// [`modelled`]: Recorder::modelled
    pub fn down(&mut self, seconds: f64) {
        self.downtime_s += seconds;
        self.loads += 1;
        self.modelled(seconds);
    }

    /// Ends a region: a stretch of the timed run that does the same kind of
    /// work as every other (a pass, a period of the kind cycle, a few
    /// waves). Throughput is taken per region and reported as the median,
    /// so that a stretch the host slowed down does not move it.
    pub fn end_region(&mut self) {
        if self.region_starts.last().copied().unwrap_or(0) < self.turns.len() {
            self.region_starts.push(self.turns.len());
        }
    }

    /// Turns recorded so far: the id of the next turn.
    pub fn turns(&self) -> u64 {
        self.turns.len() as u64
    }

    pub fn attempted(&self) -> u64 {
        self.turns.len() as u64 + self.final_checks
    }

    pub fn failed(&self) -> u64 {
        self.failed
    }

    pub fn failures(&self) -> &BTreeMap<String, u64> {
        &self.failures
    }

    /// The class of every attempted turn, in order: index `i` is the turn
    /// whose spans carry turn id `i`.
    pub fn turn_classes(&self) -> Vec<&str> {
        self.turns
            .iter()
            .map(|(c, _)| self.class_names[*c].as_str())
            .collect()
    }

    /// Seconds spent inside turns (checks and harness bookkeeping between
    /// turns are not part of any turn).
    pub fn timed_seconds(&self) -> f64 {
        self.turns.iter().map(|(_, s)| s).sum()
    }

    /// The recorded turns split at the region ends, regions merged so that
    /// each part holds at least `min_turns` (a short tail joins the part
    /// before it).
    fn parts(&self, min_turns: usize) -> Vec<&[(usize, f64)]> {
        let mut parts: Vec<&[(usize, f64)]> = Vec::new();
        let mut start = 0;
        for &end in self.region_starts.iter().chain([&self.turns.len()]) {
            if end - start >= min_turns.max(1) {
                parts.push(&self.turns[start..end]);
                start = end;
            }
        }
        if start < self.turns.len() {
            let from = parts.pop().map_or(start, |last| start - last.len());
            parts.push(&self.turns[from..]);
        }
        parts
    }

    /// Median over regions of the region's turns per second of turn time.
    pub fn turns_per_s(&self) -> Option<f64> {
        let rates: Vec<f64> = self
            .parts(1)
            .iter()
            .map(|region| region.len() as f64 / region.iter().map(|(_, s)| s).sum::<f64>())
            .collect();
        median(&rates).filter(|r| r.is_finite())
    }

    /// Modelled seconds per attempted turn.
    pub fn vtime_s_per_turn(&self) -> Option<f64> {
        (self.vtime_s > 0.0).then(|| self.vtime_s / self.turns.len() as f64)
    }

    /// Simulated cycles per turn that simulated any.
    pub fn sim_cycles_per_turn(&self) -> Option<f64> {
        (self.sim_turns > 0).then(|| self.sim_cycles as f64 / self.sim_turns as f64)
    }

    /// Modelled downtime in ms per load, swap or migration.
    pub fn downtime_ms_per_swap(&self) -> Option<f64> {
        (self.loads > 0).then(|| self.downtime_s * 1e3 / self.loads as f64)
    }

    /// `(class name, samples, median ms)` per turn class, in first-seen
    /// order: every app and kind in its own row.
    pub fn class_rows(&self) -> Vec<(String, usize, f64)> {
        let mut by_class: Vec<Vec<f64>> = vec![Vec::new(); self.class_names.len()];
        for (c, s) in &self.turns {
            by_class[*c].push(s * 1e3);
        }
        self.class_names
            .iter()
            .zip(by_class)
            .map(|(n, ms)| {
                let m = median(&ms).expect("a class exists once a turn recorded it");
                (n.clone(), ms.len(), m)
            })
            .collect()
    }

    /// Geometric mean over turn classes of each class's median wall ms. A
    /// pooled median would sit between two classes of different cost and
    /// jump with the mix; the geomean weighs every class's shift equally.
    pub fn turn_ms_geomean(&self) -> Option<f64> {
        let medians: Vec<f64> = self.class_rows().into_iter().map(|(_, _, m)| m).collect();
        geomean(&medians)
    }

    /// 90th percentile of the turn times, taken over every stretch of whole
    /// regions with at least [`P90_MIN_TURNS`] turns and reported as the
    /// median over stretches: a percentile this far out moves with the
    /// slowest tenth of its sample, so one disturbed stretch of the run must
    /// not supply it.
    pub fn turn_ms_p90(&self) -> Option<f64> {
        let per_part: Vec<f64> = self
            .parts(P90_MIN_TURNS)
            .iter()
            .filter_map(|part| {
                let ms: Vec<f64> = part.iter().map(|(_, s)| s * 1e3).collect();
                percentile(&ms, 0.9)
            })
            .collect();
        median(&per_part)
    }

    /// Median wall ms of the turns whose class name ends in `suffix`.
    pub fn median_ms_of(&self, suffix: &str) -> Option<f64> {
        let ms: Vec<f64> = self
            .turns
            .iter()
            .filter(|(c, _)| self.class_names[*c].ends_with(suffix))
            .map(|(_, s)| s * 1e3)
            .collect();
        median(&ms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tallies_failures_by_kind_and_keeps_their_time() {
        let mut r = Recorder::new();
        r.turn("a/x", 0.010, Ok(()));
        r.turn("a/x", 0.030, Err(Failure::check("output_mismatch")));
        r.turn("b/x", 0.002, Ok(()));
        let unroutable = CompileError::Pnr {
            op: "k".into(),
            error: pnr::PnrError::Unroutable { overused_edges: 2 },
        };
        r.turn("b/y", 0.008, Err(Failure::from(&unroutable)));
        assert_eq!(r.attempted(), 4);
        assert_eq!(r.failed(), 2);
        assert_eq!(r.failures()["compile.pnr.unroutable"], 1);
        assert_eq!(r.failures()["check.output_mismatch"], 1);
        assert!((r.timed_seconds() - 0.05).abs() < 1e-12);
        assert!((r.turns_per_s().unwrap() - 80.0).abs() < 1e-9);
        assert_eq!(r.vtime_s_per_turn(), None);
        r.modelled(6.0);
        r.down(2.0);
        r.simulated(500);
        assert_eq!(r.vtime_s_per_turn(), Some(2.0));
        assert_eq!(r.downtime_ms_per_swap(), Some(2000.0));
        assert_eq!(r.sim_cycles_per_turn(), Some(500.0));
        // Class medians 20, 2, 8 ms.
        let rows = r.class_rows();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0], ("a/x".to_string(), 2, 20.0));
        let g = r.turn_ms_geomean().unwrap();
        assert!((g - (20.0f64 * 2.0 * 8.0).cbrt()).abs() < 1e-9);
        assert_eq!(r.turn_ms_p90(), Some(30.0));
        assert_eq!(r.median_ms_of("/x"), Some(10.0));
    }

    #[test]
    fn throughput_is_the_median_region() {
        let mut r = Recorder::new();
        // Regions at 100, 50 (a slow stretch) and 100 turns per second.
        for seconds in [0.01, 0.02, 0.01] {
            r.turn("a", seconds, Ok(()));
            r.turn("a", seconds, Ok(()));
            r.end_region();
            r.end_region();
        }
        assert!((r.turns_per_s().unwrap() - 100.0).abs() < 1e-9);
        assert!((r.timed_seconds() - 0.08).abs() < 1e-12);
        // Too few turns for a percentile per region: one over all of them.
        assert_eq!(r.parts(P90_MIN_TURNS).len(), 1);
        assert_eq!(r.turn_ms_p90(), Some(20.0));
    }

    #[test]
    fn p90_is_the_median_over_stretches_of_whole_regions() {
        let mut r = Recorder::new();
        // Six regions of 60 turns at 1 ms, the third and fourth disturbed
        // (9 ms), then a tail of 10 turns.
        for region in 0..6 {
            for _ in 0..60 {
                let slow = region == 2 || region == 3;
                r.turn("a", if slow { 0.009 } else { 0.001 }, Ok(()));
            }
            r.end_region();
        }
        for _ in 0..10 {
            r.turn("a", 0.001, Ok(()));
        }
        let sizes = |min| -> Vec<usize> { r.parts(min).iter().map(|p| p.len()).collect() };
        assert_eq!(sizes(P90_MIN_TURNS), [120, 120, 130]);
        assert_eq!(sizes(1), [60, 60, 60, 60, 60, 60, 10]);
        // Stretch p90s are 1, 9 and 1 ms; pooled, the p90 would be 9 ms.
        assert_eq!(r.turn_ms_p90(), Some(1.0));
    }

    #[test]
    fn nested_errors_keep_their_origin() {
        let e = FleetError::Device(RuntimeError::Compile(CompileError::Hls {
            op: "k".into(),
            error: kir::CheckError::DuplicateName("x".into()),
        }));
        assert_eq!(Failure::from(&e).0, "fleet.runtime.compile.hls");
    }
}
