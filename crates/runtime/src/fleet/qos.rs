//! Per-tenant quality of service: eviction priority classes and a
//! fair-share weight.
//!
//! Eviction priority is a three-level class lattice: a tenant's app may
//! only displace apps of an equal or lower class. The weight is the
//! yardstick of the fairness accounting: [`crate::FleetStats::fairness_index`]
//! is Jain's index over each tenant's requests served per unit of weight.

use std::fmt;

/// Eviction priority, lowest first: a request may evict a resident app
/// only if the victim's class is `<=` the requester's.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum EvictClass {
    /// Preemptible at any time (batch / best-effort tenants).
    Revocable,
    /// The default: evictable by Standard and Guaranteed requesters.
    #[default]
    Standard,
    /// Evictable only to place another Guaranteed app.
    Guaranteed,
}

impl fmt::Display for EvictClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvictClass::Revocable => write!(f, "revocable"),
            EvictClass::Standard => write!(f, "standard"),
            EvictClass::Guaranteed => write!(f, "guaranteed"),
        }
    }
}

/// A tenant's QoS contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QosSpec {
    /// Fair-share weight: the fairness accounting divides a tenant's
    /// served requests by it. Clamped to `>= 1`.
    pub weight: u32,
    /// Eviction priority of the tenant's apps.
    pub evict: EvictClass,
}

impl Default for QosSpec {
    fn default() -> QosSpec {
        QosSpec {
            weight: 1,
            evict: EvictClass::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evict_classes_order_lowest_first() {
        assert!(EvictClass::Revocable < EvictClass::Standard);
        assert!(EvictClass::Standard < EvictClass::Guaranteed);
        assert_eq!(EvictClass::default(), EvictClass::Standard);
        assert_eq!(QosSpec::default().weight, 1);
    }
}
