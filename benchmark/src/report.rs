//! From a run's records to named metric values.

use std::collections::BTreeMap;

use crate::layers::{Layers, REPLAYED_CALLS};
use crate::recorder::Recorder;
use crate::trace::{busy_by_name, self_seconds, Span};

/// Metric values by catalogue name. A metric the workload did not exercise
/// is absent.
pub type Values = BTreeMap<&'static str, f64>;

fn put(values: &mut Values, name: &'static str, v: Option<f64>) {
    if let Some(v) = v.filter(|v| v.is_finite()) {
        values.insert(name, v);
    }
}

fn ratio(num: f64, den: f64) -> Option<f64> {
    (den > 0.0).then(|| num / den)
}

/// End-to-end metrics of an untraced timed region.
pub fn end_to_end(rec: &Recorder, setup_s: f64, peak_rss_mb: Option<f64>) -> Values {
    let mut v = Values::new();
    put(&mut v, "setup_s", Some(setup_s));
    put(&mut v, "turns_per_s", rec.turns_per_s());
    put(&mut v, "turn_ms_geomean", rec.turn_ms_geomean());
    put(&mut v, "turn_ms_p90", rec.turn_ms_p90());
    put(&mut v, "peak_rss_mb", peak_rss_mb);
    put(&mut v, "vtime_s_per_turn", rec.vtime_s_per_turn());
    put(&mut v, "sim_cycles_per_turn", rec.sim_cycles_per_turn());
    put(&mut v, "downtime_ms_per_swap", rec.downtime_ms_per_swap());
    v
}

/// Span name of each `*_busy_s` metric.
const BUSY: [(&str, &str); 20] = [
    ("kir.interp_busy_s", "kir.interp"),
    ("dfg.exec_busy_s", "dfg.exec"),
    ("dfg.opt_busy_s", "dfg.opt"),
    ("hlsim.busy_s", "hlsim"),
    ("pnr.place_busy_s", "pnr.place"),
    ("pnr.route_busy_s", "pnr.route"),
    ("pnr.timing_busy_s", "pnr.timing"),
    ("pnr.warm_busy_s", "pnr.warm"),
    ("softcore.cc_busy_s", "softcore.cc"),
    ("softcore.exec_busy_s", "softcore.exec"),
    ("noc.step_busy_s", "noc.step"),
    ("core.cache_open_busy_s", "core.cache_open"),
    ("core.cache_persist_busy_s", "core.cache_persist"),
    ("core.load_busy_s", "core.load"),
    ("core.cosim_busy_s", "core.cosim"),
    ("core.execute_busy_s", "core.execute"),
    ("runtime.admit_busy_s", "runtime.admit"),
    ("runtime.request_busy_s", "runtime.request"),
    ("runtime.swap_busy_s", "runtime.swap"),
    ("runtime.migrate_busy_s", "runtime.migrate"),
];

/// Counters reported under their own name when the run touched them.
const PLAIN_COUNTS: [&str; 34] = [
    "dfg.opt_rewrites",
    "hlsim.kernels",
    "hlsim.cells_out",
    "pnr.place_moves",
    "pnr.route_relaxations",
    "pnr.route_iterations",
    "pnr.route_nets_rerouted",
    "pnr.unroutable",
    "pnr.wirelength",
    "pnr.warm_ops",
    "softcore.cc_code_bytes",
    "softcore.exec_instructions",
    "noc.flits_delivered",
    "noc.deflections",
    "noc.link_packets",
    "noc.link_cycles",
    "core.stage_hits",
    "core.stage_executions",
    "core.store_products",
    "core.store_bytes",
    "core.load_vtime_s",
    "core.cosim_instructions",
    "core.vtime_hls_s",
    "core.vtime_syn_s",
    "core.vtime_pnr_s",
    "core.vtime_bit_s",
    "runtime.admitted",
    "runtime.rejected",
    "runtime.evicted",
    "runtime.swap_pages_reloaded",
    "runtime.swap_downtime_s",
    "runtime.migrate_downtime_s",
    "runtime.occupancy",
    "runtime.fairness_jain",
];

/// How much of the replayed top-level calls' time the layer replays
/// account for, overall and per turn kind.
pub struct Coverage {
    pub coverage: Option<f64>,
    pub unattributed_s: f64,
    /// `(kind, top-level seconds, replayed seconds)` per turn kind (the last
    /// path segment of the turn's class).
    pub by_kind: Vec<(String, f64, f64)>,
}

/// For every turn: the wall seconds of its replayed top-level calls, and
/// the layer self time under its `replay` span. The replay runs on one
/// thread; a compile ran its farm jobs on two lanes, so where the host
/// really runs two lanes side by side a compile turn's replay can take
/// longer than the compile did, and its ratio exceed 1 (see the README).
pub fn coverage(spans: &[Span], rec: &Recorder) -> Coverage {
    let own = self_seconds(spans);
    let mut in_replay = vec![false; spans.len()];
    // Per turn: top-level seconds, replayed seconds.
    let mut per_turn: BTreeMap<u64, (f64, f64)> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let Some(p) = s.parent else { continue };
        in_replay[i] = in_replay[p] || spans[p].name == "replay";
        let entry = per_turn.entry(s.turn).or_default();
        if in_replay[i] {
            entry.1 += own[i];
        } else if spans[p].name == "turn" && REPLAYED_CALLS.contains(&s.name) {
            entry.0 += s.seconds();
        }
    }
    let classes = rec.turn_classes();
    let mut by_kind: Vec<(String, f64, f64)> = Vec::new();
    let (mut top, mut replayed, mut unattributed) = (0.0, 0.0, 0.0);
    for (turn, (t, r)) in &per_turn {
        if *t == 0.0 {
            continue;
        }
        top += t;
        replayed += r;
        unattributed += (t - r).max(0.0);
        let kind = classes
            .get(*turn as usize)
            .and_then(|c| c.rsplit('/').next())
            .unwrap_or("?");
        match by_kind.iter_mut().find(|(k, _, _)| k == kind) {
            Some(row) => {
                row.1 += t;
                row.2 += r;
            }
            None => by_kind.push((kind.to_string(), *t, *r)),
        }
    }
    Coverage {
        coverage: ratio(replayed, top),
        unattributed_s: unattributed,
        by_kind,
    }
}

/// Per-layer metrics of a traced timed region. `untraced` is the record of
/// the same turns run without tracing just before.
pub fn per_layer(traced: &Recorder, ly: &Layers, untraced: &Recorder) -> (Values, Coverage) {
    let mut v = Values::new();
    put(
        &mut v,
        "failed_ratio",
        ratio(
            (traced.failed() + untraced.failed()) as f64,
            (traced.attempted() + untraced.attempted()) as f64,
        ),
    );
    let cosim = |what: &str| {
        ly.count(&format!("core.cosim_{what}.compute"))
            + ly.count(&format!("core.cosim_{what}.transport"))
    };
    put(
        &mut v,
        "sim_mcycles_per_s",
        ratio(cosim("cycles") / 1e6, cosim("wall_s")),
    );

    let busy = busy_by_name(ly.tr.spans());
    for (metric, span) in BUSY {
        put(&mut v, metric, busy.get(span).copied());
    }
    for name in PLAIN_COUNTS {
        let c = ly.count(name);
        if c != 0.0 {
            v.insert(name, c);
        }
    }
    let busy_of = |span: &str| busy.get(span).copied().unwrap_or(0.0);
    put(
        &mut v,
        "kir.interp_tokens_per_s",
        ratio(ly.count("kir.interp_tokens"), busy_of("kir.interp")),
    );
    put(
        &mut v,
        "dfg.exec_tokens_per_s",
        ratio(ly.count("dfg.exec_tokens"), busy_of("dfg.exec")),
    );
    put(
        &mut v,
        "pnr.place_moves_per_s",
        ratio(ly.count("pnr.place_moves"), busy_of("pnr.place")),
    );
    put(&mut v, "pnr.fmax_mhz_geomean", ly.fmax_geomean());
    put(
        &mut v,
        "pnr.warm_fallback_ratio",
        ratio(ly.count("pnr.warm_fallbacks"), ly.count("pnr.warm_ops")),
    );
    put(
        &mut v,
        "pnr.hint_hit_ratio",
        ratio(ly.count("pnr.hint_hits"), ly.count("pnr.hint_fetches")),
    );
    put(
        &mut v,
        "softcore.exec_minstr_per_s",
        ratio(
            ly.count("softcore.exec_instructions") / 1e6,
            busy_of("softcore.exec"),
        ),
    );
    put(
        &mut v,
        "noc.flits_per_cycle",
        ratio(ly.count("noc.flits_delivered"), ly.count("noc.cycles")),
    );
    let lookups = ly.count("core.stage_hits") + ly.count("core.stage_executions");
    put(
        &mut v,
        "core.stage_hit_ratio",
        ratio(ly.count("core.stage_hits"), lookups),
    );
    put(&mut v, "core.build_noop_ms", traced.median_ms_of("/noop"));
    put(
        &mut v,
        "core.cache_warm_rebuild_ms",
        ly.sample_median("core.cache_warm_rebuild_ms"),
    );
    for (metric, cycles, wall) in [
        (
            "core.cosim_mcycles_per_s.compute",
            "core.cosim_cycles.compute",
            "core.cosim_wall_s.compute",
        ),
        (
            "core.cosim_mcycles_per_s.transport",
            "core.cosim_cycles.transport",
            "core.cosim_wall_s.transport",
        ),
    ] {
        put(
            &mut v,
            metric,
            ratio(ly.count(cycles) / 1e6, ly.count(wall)),
        );
    }

    let cov = coverage(ly.tr.spans(), traced);
    put(&mut v, "trace.coverage", cov.coverage);
    if cov.coverage.is_some() {
        v.insert("core.unattributed_s", cov.unattributed_s);
    }
    put(
        &mut v,
        "trace.overhead_ratio",
        ratio(traced.timed_seconds(), untraced.timed_seconds()),
    );
    (v, cov)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{END_TO_END, PER_LAYER};

    #[test]
    fn every_reported_name_is_in_the_catalogue() {
        for (metric, _) in BUSY {
            assert!(PER_LAYER.iter().any(|m| m.name == metric), "{metric}");
        }
        for name in PLAIN_COUNTS {
            assert!(PER_LAYER.iter().any(|m| m.name == name), "{name}");
        }
        let rec = Recorder::new();
        assert!(end_to_end(&rec, 1.0, Some(2.0)).keys().all(|k| END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .any(|m| m.name == *k)));
    }

    #[test]
    fn coverage_counts_replayed_calls_and_layer_self_time() {
        let span = |name, start, end, parent| Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            turn: 0,
        };
        let spans = vec![
            span("turn", 0, 1000, None),
            span("core.compile", 0, 400, Some(0)),
            span("core.load", 400, 450, Some(0)),
            span("replay", 450, 900, Some(0)),
            span("hlsim", 460, 560, Some(3)),
            span("dfg.exec", 600, 800, Some(3)),
            span("kir.interp", 600, 750, Some(5)),
        ];
        let mut rec = Recorder::new();
        rec.turn("app/-O1", 450e-9, Ok(()));
        let c = coverage(&spans, &rec);
        // Replayed: 100 + (200 - 150) + 150 = 300 of the 400 in core.compile;
        // core.load is a layer call itself and is not part of the ratio.
        assert!((c.coverage.unwrap() - 0.75).abs() < 1e-12);
        assert!((c.unattributed_s - 100e-9).abs() < 1e-18);
        assert_eq!(c.by_kind.len(), 1);
        assert_eq!(c.by_kind[0].0, "-O1");
    }
}
