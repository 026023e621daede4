//! Fleet-level serving statistics: admission latency, migrations,
//! per-tenant service shares, and one [`RuntimeStats`] block per device.

use crate::fleet::qos::{self, EvictClass};
use crate::fleet::TenantId;
use crate::stats::{LatencyHistogram, RuntimeStats};

/// One tenant's service record, for the fairness accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantShare {
    /// The tenant.
    pub tenant: TenantId,
    /// Fair-share weight from its [`crate::fleet::QosSpec`].
    pub weight: u32,
    /// Eviction class from its [`crate::fleet::QosSpec`].
    pub evict: EvictClass,
    /// Requests served for this tenant across the fleet.
    pub served: u64,
}

/// A snapshot of the fleet's serving statistics.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FleetStats {
    /// Number of devices in the fleet.
    pub devices: usize,
    /// Apps accepted into the admission queue so far.
    pub submitted: u64,
    /// Successful admissions (a migration's re-admission not included).
    pub admitted: u64,
    /// Refused submissions and failed placements.
    pub rejected: u64,
    /// Apps displaced by fleet-level QoS eviction.
    pub evicted: u64,
    /// Completed live migrations.
    pub migrations: u64,
    /// Downtime billed to migrations (the destination's bring-up cost).
    pub migration_downtime_seconds: f64,
    /// Requests waiting in the fleet admission queue (snapshot).
    pub queue_depth: usize,
    /// Apps currently resident somewhere in the fleet (snapshot).
    pub apps_resident: usize,
    /// Wall-clock submit→admitted latency across all admissions.
    pub admission: LatencyHistogram,
    /// Per-device serving statistics, in device order.
    pub per_device: Vec<RuntimeStats>,
    /// Per-tenant service shares, in tenant order.
    pub tenants: Vec<TenantShare>,
}

impl FleetStats {
    /// Jain's fairness index over the tenants' weight-normalized service
    /// (`served / weight`); 1.0 is perfectly weighted-fair.
    pub fn fairness_index(&self) -> f64 {
        let shares: Vec<f64> = self
            .tenants
            .iter()
            .map(|t| t.served as f64 / t.weight.max(1) as f64)
            .collect();
        qos::fairness_index(&shares)
    }

    /// Renders the snapshot as a JSON report: fleet
    /// counters, admission percentiles, per-tenant shares, and one
    /// compact per-device block.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"serving\": {\n");
        let field = |out: &mut String, key: &str, value: String| {
            out.push_str(&format!("    \"{key}\": {value},\n"));
        };
        field(&mut out, "devices", self.devices.to_string());
        field(&mut out, "submitted", self.submitted.to_string());
        field(&mut out, "admitted", self.admitted.to_string());
        field(&mut out, "rejected", self.rejected.to_string());
        field(&mut out, "evicted", self.evicted.to_string());
        field(&mut out, "migrations", self.migrations.to_string());
        field(
            &mut out,
            "migration_downtime_ms",
            format!("{:.4}", self.migration_downtime_seconds * 1e3),
        );
        field(&mut out, "queue_depth", self.queue_depth.to_string());
        field(&mut out, "apps_resident", self.apps_resident.to_string());
        field(
            &mut out,
            "p50_admission_ms",
            format!("{:.4}", self.admission.percentile(0.50) * 1e3),
        );
        field(
            &mut out,
            "p99_admission_ms",
            format!("{:.4}", self.admission.percentile(0.99) * 1e3),
        );
        field(
            &mut out,
            "max_admission_ms",
            format!("{:.4}", self.admission.max_seconds() * 1e3),
        );
        field(
            &mut out,
            "fairness_index",
            format!("{:.4}", self.fairness_index()),
        );
        out.push_str("    \"tenants\": {");
        for (k, t) in self.tenants.iter().enumerate() {
            if k > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n      \"{}\": {{ \"weight\": {}, \"evict\": \"{}\", \"served\": {} }}",
                t.tenant, t.weight, t.evict, t.served
            ));
        }
        if !self.tenants.is_empty() {
            out.push_str("\n    ");
        }
        out.push_str("},\n");
        out.push_str("    \"fleet_devices\": [");
        for (k, dev) in self.per_device.iter().enumerate() {
            if k > 0 {
                out.push(',');
            }
            out.push_str("\n      ");
            out.push_str(&device_json(dev, "      "));
        }
        if !self.per_device.is_empty() {
            out.push_str("\n    ");
        }
        out.push_str("]\n  }\n}\n");
        out
    }
}

/// One device's counters as a JSON object, every line after the first
/// prefixed by `indent`. It leaves out the per-app latency map: a fleet
/// serving thousands of apps does not want every app's histogram in its
/// KPI file.
fn device_json(stats: &RuntimeStats, indent: &str) -> String {
    let fields = [
        ("admitted", stats.admitted.to_string()),
        ("evicted", stats.evicted.to_string()),
        ("swaps", stats.swaps.to_string()),
        ("requests", stats.requests.to_string()),
        (
            "cumulative_downtime_ms",
            format!("{:.4}", stats.cumulative_downtime_seconds * 1e3),
        ),
        ("pages_total", stats.pages_total.to_string()),
        ("pages_occupied", stats.pages_occupied.to_string()),
        ("occupancy", format!("{:.4}", stats.occupancy())),
    ];
    let body: Vec<String> = fields
        .iter()
        .map(|(key, value)| format!("{indent}  \"{key}\": {value}"))
        .collect();
    format!("{{\n{}\n{indent}}}", body.join(",\n"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::QosSpec;

    #[test]
    fn json_report_carries_the_gated_keys() {
        let mut stats = FleetStats {
            devices: 2,
            submitted: 10,
            admitted: 9,
            rejected: 1,
            per_device: vec![
                RuntimeStats {
                    admitted: 7,
                    cumulative_downtime_seconds: 0.125,
                    pages_total: 22,
                    pages_occupied: 21,
                    ..RuntimeStats::default()
                },
                RuntimeStats::default(),
            ],
            tenants: vec![
                TenantShare {
                    tenant: TenantId(0),
                    weight: 2,
                    evict: EvictClass::Guaranteed,
                    served: 20,
                },
                TenantShare {
                    tenant: TenantId(1),
                    weight: 1,
                    evict: EvictClass::Revocable,
                    served: 10,
                },
            ],
            ..FleetStats::default()
        };
        stats.admission.record(1e-4);
        let json = stats.to_json();
        for key in [
            "\"devices\": 2",
            "\"p50_admission_ms\"",
            "\"p99_admission_ms\"",
            "\"fairness_index\": 1.0000",
            "\"t0\": { \"weight\": 2, \"evict\": \"guaranteed\", \"served\": 20 }",
            "\"fleet_devices\": [",
            "\"admitted\": 7",
            "\"cumulative_downtime_ms\": 125.0000",
            "\"occupancy\": 0.9545",
        ] {
            assert!(json.contains(key), "missing {key} in:\n{json}");
        }
        // The per-device blocks are the compact form: no per-app maps.
        assert!(!json.contains("\"apps\""));
        let spec = QosSpec::default();
        assert_eq!(spec.weight, 1);
    }

    #[test]
    fn fairness_reflects_weighted_shares() {
        let even = FleetStats {
            tenants: vec![
                TenantShare {
                    tenant: TenantId(0),
                    weight: 4,
                    evict: EvictClass::Standard,
                    served: 40,
                },
                TenantShare {
                    tenant: TenantId(1),
                    weight: 1,
                    evict: EvictClass::Standard,
                    served: 10,
                },
            ],
            ..FleetStats::default()
        };
        assert!((even.fairness_index() - 1.0).abs() < 1e-12);
        assert_eq!(FleetStats::default().fairness_index(), 1.0);
    }
}
