//! The metric catalogue: every metric the benchmark reports, with its unit,
//! direction, and whether it is *exact* (a modelled or counted quantity
//! that repeats bit for bit for the same seed and size) or *wall* (host
//! time, subject to the host's noise).
//!
//! `BENCHMARK.json` lists the same names, units and directions (a unit test
//! holds the two together); its schema has no field for exactness, so that
//! marking lives here and is printed by `pldbench metrics`.

use Better::{Higher, Lower};
use Kind::{Exact, Wall};

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// Where a metric's value comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Host time or memory: noisy, compared by medians within a bound.
    Wall,
    /// Modelled, simulated or counted: must repeat bit for bit.
    Exact,
}

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::Wall => "wall",
            Kind::Exact => "exact",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub kind: Kind,
    /// The share of the parent's median by which an `end_to_end` metric of
    /// `BENCHMARK.json` may worsen; per-layer metrics carry no bound.
    pub bound: Option<f64>,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    kind: Kind,
    bound: f64,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        kind,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better, kind: Kind) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        kind,
        bound: None,
    }
}

/// Regression bound of the host-time metrics: the widest the driver's schema
/// allows. ISSUE.md asked for 10%, and the driver refused the benchmark at
/// that bound: in its two sets of ten runs of one commit the middle half of
/// `turn_ms_geomean` spread by 7.1% and 10.3% on `rosetta_cold`, by 7.0% and
/// 10.0% on `edit_loop`. The host's speed drifts that much over minutes, a
/// whole run sits inside one such stretch, and no statistic taken within a
/// run removes it (README, *Steadiness*). A bound has to be about three
/// times the spread the same code shows.
const TIME_BOUND: f64 = 0.25;

/// Regression bound of `peak_rss_mb`. It does not move with the host's speed
/// but with where the farm's threads leave the allocator's arenas: ten runs
/// of `edit_loop` spread by up to 5.6% (38 to 44 MiB), and a bound has to be
/// three times that, so it is 20% where ISSUE.md says 10%.
const RSS_BOUND: f64 = 0.2;

/// Regression bound of the modelled metrics. They repeat bit for bit for
/// one seed (`pldbench check`). The driver compares medians over ten seeds,
/// across which `edit_loop`'s spread by up to 0.14% (the seed sets each
/// app's phase in the kind cycle) and the others' by less than 0.01%; a
/// bound must be three times the spread, and 0 would reject that.
const EXACT_BOUND: f64 = 0.01;

/// End-to-end metrics every workload reports on the untraced run: the
/// `end_to_end` list of `BENCHMARK.json`.
///
/// The driver's schema wants every one of them from every workload and
/// never 0, so the three modelled ones are defined over what every
/// workload's turns return (see the README's glossary) rather than, as
/// ISSUE.md has them, for two workloads or one each.
pub const END_TO_END: [MetricDef; 8] = [
    e2e("setup_s", "s", Lower, Wall, TIME_BOUND),
    e2e("turns_per_s", "1/s", Higher, Wall, TIME_BOUND),
    e2e("turn_ms_geomean", "ms", Lower, Wall, TIME_BOUND),
    e2e("turn_ms_p90", "ms", Lower, Wall, TIME_BOUND),
    e2e("peak_rss_mb", "MiB", Lower, Wall, RSS_BOUND),
    // The units of the modelled times say so: they are not host time, and
    // the driver must not take them for measurements that never vary.
    e2e("vtime_s_per_turn", "s_modelled", Lower, Exact, EXACT_BOUND),
    e2e("sim_cycles_per_turn", "cycle", Lower, Exact, EXACT_BOUND),
    e2e(
        "downtime_ms_per_swap",
        "ms_modelled",
        Lower,
        Exact,
        EXACT_BOUND,
    ),
];

/// Metrics of the traced run: the `per_layer` list of `BENCHMARK.json`. A
/// metric a workload does not exercise reads 0 in the contract line and is
/// left out of `pldbench run`'s own report.
///
/// The first two are ISSUE.md's other end-to-end metrics. `failed_ratio`
/// is 0 on a healthy run, which the schema does not allow an `end_to_end`
/// metric to be; every result line carries `failed` and `attempted`, and
/// `correct` is false when any turn failed. `sim_mcycles_per_s` exists for
/// `cosim_o0` alone and is the reciprocal of that workload's
/// `turn_ms_geomean` over `cosim` turns, which is bounded.
pub const PER_LAYER: [MetricDef; 72] = [
    layer("sim_mcycles_per_s", "Mcycle/s", Higher, Wall),
    layer("failed_ratio", "ratio", Lower, Exact),
    layer("kir.interp_busy_s", "s", Lower, Wall),
    layer("kir.interp_tokens_per_s", "1/s", Higher, Wall),
    layer("dfg.exec_busy_s", "s", Lower, Wall),
    layer("dfg.exec_tokens_per_s", "1/s", Higher, Wall),
    layer("dfg.opt_busy_s", "s", Lower, Wall),
    layer("dfg.opt_rewrites", "count", Higher, Exact),
    layer("hlsim.busy_s", "s", Lower, Wall),
    layer("hlsim.kernels", "count", Lower, Exact),
    layer("hlsim.cells_out", "count", Lower, Exact),
    layer("pnr.place_busy_s", "s", Lower, Wall),
    layer("pnr.place_moves", "count", Lower, Exact),
    layer("pnr.place_moves_per_s", "1/s", Higher, Wall),
    layer("pnr.route_busy_s", "s", Lower, Wall),
    layer("pnr.route_relaxations", "count", Lower, Exact),
    layer("pnr.route_iterations", "count", Lower, Exact),
    layer("pnr.route_nets_rerouted", "count", Lower, Exact),
    layer("pnr.timing_busy_s", "s", Lower, Wall),
    layer("pnr.unroutable", "count", Lower, Exact),
    layer("pnr.wirelength", "count", Lower, Exact),
    layer("pnr.fmax_mhz_geomean", "MHz", Higher, Exact),
    layer("pnr.warm_busy_s", "s", Lower, Wall),
    layer("pnr.warm_ops", "count", Higher, Exact),
    layer("pnr.warm_fallback_ratio", "ratio", Lower, Exact),
    layer("pnr.hint_hit_ratio", "ratio", Higher, Exact),
    layer("softcore.cc_busy_s", "s", Lower, Wall),
    layer("softcore.cc_code_bytes", "B", Lower, Exact),
    layer("softcore.exec_busy_s", "s", Lower, Wall),
    layer("softcore.exec_instructions", "count", Lower, Exact),
    layer("softcore.exec_minstr_per_s", "Minstr/s", Higher, Wall),
    layer("noc.step_busy_s", "s", Lower, Wall),
    layer("noc.flits_delivered", "count", Higher, Exact),
    layer("noc.flits_per_cycle", "1/cycle", Higher, Exact),
    layer("noc.deflections", "count", Lower, Exact),
    layer("noc.link_packets", "count", Lower, Exact),
    layer("noc.link_cycles", "cycle", Lower, Exact),
    layer("core.stage_hits", "count", Higher, Exact),
    layer("core.stage_executions", "count", Lower, Exact),
    layer("core.stage_hit_ratio", "ratio", Higher, Exact),
    layer("core.build_noop_ms", "ms", Lower, Wall),
    layer("core.cache_open_busy_s", "s", Lower, Wall),
    layer("core.cache_persist_busy_s", "s", Lower, Wall),
    layer("core.cache_warm_rebuild_ms", "ms", Lower, Wall),
    layer("core.store_products", "count", Lower, Exact),
    layer("core.store_bytes", "B", Lower, Exact),
    layer("core.load_busy_s", "s", Lower, Wall),
    layer("core.load_vtime_s", "s", Lower, Exact),
    layer("core.cosim_busy_s", "s", Lower, Wall),
    layer("core.cosim_instructions", "count", Lower, Exact),
    layer("core.cosim_mcycles_per_s.compute", "Mcycle/s", Higher, Wall),
    layer(
        "core.cosim_mcycles_per_s.transport",
        "Mcycle/s",
        Higher,
        Wall,
    ),
    layer("core.execute_busy_s", "s", Lower, Wall),
    layer("core.vtime_hls_s", "s", Lower, Exact),
    layer("core.vtime_syn_s", "s", Lower, Exact),
    layer("core.vtime_pnr_s", "s", Lower, Exact),
    layer("core.vtime_bit_s", "s", Lower, Exact),
    layer("core.unattributed_s", "s", Lower, Wall),
    layer("runtime.admit_busy_s", "s", Lower, Wall),
    layer("runtime.request_busy_s", "s", Lower, Wall),
    layer("runtime.swap_busy_s", "s", Lower, Wall),
    layer("runtime.migrate_busy_s", "s", Lower, Wall),
    layer("runtime.admitted", "count", Higher, Exact),
    layer("runtime.rejected", "count", Lower, Exact),
    layer("runtime.evicted", "count", Lower, Exact),
    layer("runtime.swap_pages_reloaded", "count", Lower, Exact),
    layer("runtime.swap_downtime_s", "s", Lower, Exact),
    layer("runtime.migrate_downtime_s", "s", Lower, Exact),
    layer("runtime.occupancy", "ratio", Higher, Exact),
    layer("runtime.fairness_jain", "ratio", Higher, Exact),
    layer("trace.coverage", "ratio", Higher, Wall),
    layer("trace.overhead_ratio", "ratio", Lower, Wall),
];

/// The metrics `pldbench check` requires to repeat bit for bit across two
/// runs of the same seed and size.
pub const CHECKED_EXACT: [&str; 7] = [
    "vtime_s_per_turn",
    "sim_cycles_per_turn",
    "downtime_ms_per_swap",
    "pnr.place_moves",
    "pnr.route_relaxations",
    "core.stage_hits",
    "softcore.exec_instructions",
];

pub fn lookup(name: &str) -> Option<&'static MetricDef> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let mut seen = HashSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(valid_name(m.name), "{}", m.name);
            assert!(valid_unit(m.unit), "{} unit {}", m.name, m.unit);
            assert!(seen.insert(m.name), "{} listed twice", m.name);
        }
        // The driver's schema: no bound above 0.25. `setup_s` has the
        // largest; the modelled ones are tighter than any wall one.
        let bound = |m: &MetricDef| m.bound.expect("end-to-end metrics are bounded");
        let setup = bound(lookup("setup_s").expect("setup_s is end to end"));
        assert!(END_TO_END.iter().all(|m| match m.kind {
            Kind::Wall => (0.1..=0.25).contains(&bound(m)) && bound(m) <= setup,
            Kind::Exact => bound(m) < 0.1,
        }));
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
        for name in CHECKED_EXACT {
            assert_eq!(lookup(name).map(|m| m.kind), Some(Kind::Exact), "{name}");
        }
    }

    /// `BENCHMARK.json` is hand-written to the driver's schema; this keeps
    /// it equal to the catalogue the program reports from.
    #[test]
    fn benchmark_json_lists_the_catalogue() {
        let json = include_str!("../../BENCHMARK.json");
        let section = |key: &str, next: &str| -> String {
            let from = json.find(&format!("\"{key}\"")).expect(key);
            let to = json[from..].find(&format!("\"{next}\"")).map(|i| from + i);
            json[from..to.unwrap_or(json.len())].to_string()
        };
        let e2e = section("end_to_end", "per_layer");
        let per_layer = section("per_layer", "\u{0}");
        let entries = |text: &str| text.matches("\"name\"").count();
        assert_eq!(entries(&e2e), END_TO_END.len());
        assert_eq!(entries(&per_layer), PER_LAYER.len());
        for (defs, text) in [(&END_TO_END[..], &e2e), (&PER_LAYER[..], &per_layer)] {
            for m in defs {
                let mut entry = format!(
                    "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
                    m.name,
                    m.unit,
                    m.better.name()
                );
                if let Some(b) = m.bound {
                    entry.push_str(&format!(", \"bound\": {b}"));
                }
                entry.push('}');
                assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
            }
        }
        for w in crate::workloads::NAMES {
            assert!(json.contains(&format!("{{\"name\": \"{w}\", \"why\": ")));
        }
    }
}
