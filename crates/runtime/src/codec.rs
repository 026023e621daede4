//! JSON rendering of [`RuntimeStats`] snapshots, hand-formatted so a caller
//! can splice a device's block into a larger report at any nesting depth
//! ([`crate::fleet::FleetStats::to_json`] embeds one per device).

use crate::stats::RuntimeStats;

/// Renders a snapshot as a JSON object (no trailing newline), 2-space
/// indented, every line prefixed by `indent` — so callers can splice it
/// into a larger hand-formatted report at any nesting depth.
pub fn to_json_indented(stats: &RuntimeStats, indent: &str) -> String {
    render_json(stats, indent, true)
}

/// [`to_json_indented`] without the per-app latency map — the compact
/// per-device block a fleet-level report embeds N of (a fleet serving
/// thousands of apps does not want every app's histogram in its KPI file).
pub fn summary_json_indented(stats: &RuntimeStats, indent: &str) -> String {
    render_json(stats, indent, false)
}

fn render_json(stats: &RuntimeStats, indent: &str, include_apps: bool) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let field = |out: &mut String, key: &str, value: String, last: bool| {
        out.push_str(indent);
        out.push_str("  \"");
        out.push_str(key);
        out.push_str("\": ");
        out.push_str(&value);
        out.push_str(if last { "\n" } else { ",\n" });
    };
    field(&mut out, "admitted", stats.admitted.to_string(), false);
    field(&mut out, "rejected", stats.rejected.to_string(), false);
    field(&mut out, "evicted", stats.evicted.to_string(), false);
    field(&mut out, "swaps", stats.swaps.to_string(), false);
    field(&mut out, "requests", stats.requests.to_string(), false);
    field(
        &mut out,
        "cumulative_downtime_ms",
        format!("{:.4}", stats.cumulative_downtime_seconds * 1e3),
        false,
    );
    field(
        &mut out,
        "queue_depth",
        stats.queue_depth.to_string(),
        false,
    );
    field(
        &mut out,
        "pages_total",
        stats.pages_total.to_string(),
        false,
    );
    field(
        &mut out,
        "pages_occupied",
        stats.pages_occupied.to_string(),
        false,
    );
    field(
        &mut out,
        "occupancy",
        format!("{:.4}", stats.occupancy()),
        !include_apps,
    );
    if include_apps {
        out.push_str(indent);
        out.push_str("  \"apps\": {");
        let mut first = true;
        for (id, lat) in &stats.latencies {
            if !first {
                out.push(',');
            }
            first = false;
            let h = &lat.histogram;
            out.push('\n');
            out.push_str(indent);
            out.push_str(&format!(
                "    \"{}#{}\": {{ \"requests\": {}, \"mean_ms\": {:.4}, \"p50_ms\": {:.4}, \"p99_ms\": {:.4}, \"max_ms\": {:.4} }}",
                escape(&lat.name),
                id,
                h.count(),
                h.mean_seconds() * 1e3,
                h.percentile(0.50) * 1e3,
                h.percentile(0.99) * 1e3,
                h.max_seconds() * 1e3,
            ));
        }
        if !first {
            out.push('\n');
            out.push_str(indent);
            out.push_str("  ");
        }
        out.push_str("}\n");
    }
    out.push_str(indent);
    out.push('}');
    out
}

/// [`to_json_indented`] at top level.
pub fn to_json(stats: &RuntimeStats) -> String {
    to_json_indented(stats, "")
}

fn escape(s: &str) -> String {
    s.chars()
        .flat_map(|ch| match ch {
            '"' | '\\' => vec!['\\', ch],
            c if c.is_control() => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::{AppLatency, LatencyHistogram};

    fn sample() -> RuntimeStats {
        let mut stats = RuntimeStats {
            admitted: 7,
            rejected: 2,
            evicted: 3,
            swaps: 1,
            requests: 40,
            cumulative_downtime_seconds: 0.125,
            queue_depth: 4,
            pages_total: 22,
            pages_occupied: 21,
            ..RuntimeStats::default()
        };
        let mut h = LatencyHistogram::default();
        h.record(2e-6);
        h.record(3e-4);
        stats.latencies.insert(
            5,
            AppLatency {
                name: "alpha \"quoted\"".into(),
                histogram: h,
            },
        );
        stats
    }

    #[test]
    fn json_has_the_kpi_keys_and_escapes_names() {
        let json = to_json(&sample());
        for key in [
            "\"admitted\": 7",
            "\"cumulative_downtime_ms\": 125.0000",
            "\"occupancy\": 0.9545",
            "\"p99_ms\"",
            "\"alpha \\\"quoted\\\"#5\"",
        ] {
            assert!(json.contains(key), "missing {key} in:\n{json}");
        }
        // Empty-apps snapshot still renders a closed object.
        let empty = to_json(&RuntimeStats::default());
        assert!(empty.contains("\"apps\": {}"));
    }
}
