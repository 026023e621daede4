//! Serving statistics: plain counters, occupancy and per-tenant service
//! shares, per device ([`RuntimeStats`]) and fleet-wide ([`FleetStats`]).

use crate::fleet::{EvictClass, TenantId};

/// A snapshot of one device's serving counters.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RuntimeStats {
    /// Applications admitted onto the fabric (re-admissions count again).
    pub admitted: u64,
    /// Applications evicted to make room for others (the fleet's victim
    /// path; retirements and migrations are not evictions).
    pub evicted: u64,
    /// Hot-swap reconfigurations performed.
    pub swaps: u64,
    /// Requests served across all apps.
    pub requests: u64,
    /// Seconds of page downtime charged so far (admissions, re-admissions
    /// and hot-swaps all pay their load-and-link bill here).
    pub cumulative_downtime_seconds: f64,
    /// Pages in the floorplan.
    pub pages_total: usize,
    /// Pages currently bound to a resident operator (snapshot).
    pub pages_occupied: usize,
}

impl RuntimeStats {
    /// Fraction of pages occupied, 0..=1.
    pub fn occupancy(&self) -> f64 {
        if self.pages_total == 0 {
            0.0
        } else {
            self.pages_occupied as f64 / self.pages_total as f64
        }
    }
}

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
        dfg::opt::jain(&shares)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn occupancy_is_a_fraction() {
        let stats = RuntimeStats {
            pages_total: 22,
            pages_occupied: 11,
            ..Default::default()
        };
        assert!((stats.occupancy() - 0.5).abs() < 1e-12);
        assert_eq!(RuntimeStats::default().occupancy(), 0.0);
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
