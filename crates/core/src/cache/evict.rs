//! Cost-weighted LRU eviction for the persistent tier.
//!
//! When the on-disk cache exceeds its byte budget, something has to go.
//! Plain LRU treats a 4 KB softcore binary and a 4 KB placed-and-routed
//! page as equals, but recomputing the former costs milliseconds of virtual
//! tool time while the latter re-runs synthesis and a cold P&R. The eviction
//! rule therefore ranks victims by **saved virtual seconds per byte** —
//! what one cached byte is worth — and evicts the cheapest first, breaking
//! ties oldest-access-first (the LRU part), then by key so the order is
//! total and deterministic.

use crate::store::{StageKey, StageProduct};
use crate::vtime::VtimeModel;
use crate::XclbinKind;

/// Virtual tool-seconds a cache hit on `product` saves — the recompute
/// cost of the stage execution that produced it, priced by `vt`.
///
/// P&R products are priced at their *cold* cost ([`PnrProduct::cold_work`]),
/// since that is what a rebuild without a hint pays; pack and driver stages
/// are cheap-but-nonzero constants so they still order sensibly among
/// themselves.
///
/// [`PnrProduct::cold_work`]: crate::store::PnrProduct::cold_work
pub fn saved_vtime_seconds(vt: &VtimeModel, product: &StageProduct) -> f64 {
    match product {
        StageProduct::Hls(h) => vt.hls_seconds(h.report.hls_work),
        StageProduct::Pnr(p) => vt.syn_seconds(p.wrapped_cells) + vt.pnr_seconds(p.cold_work),
        StageProduct::Soft(s) => vt.riscv_seconds(s.binary.load_bytes()),
        StageProduct::Pack(x) => match &x.kind {
            XclbinKind::Page { bitstream, .. } | XclbinKind::Kernel { bitstream } => {
                vt.bit_seconds(bitstream.config_bits)
            }
            // Packing a softcore binary (or re-emitting the overlay) is a
            // copy, not a tool run.
            XclbinKind::Softcore { .. } | XclbinKind::Overlay => 0.05,
        },
        StageProduct::Driver(_) => 0.01,
        // Graph optimization is pure host-side rewriting — cheap to redo,
        // so these entries are the first to go under byte pressure.
        StageProduct::Opt(_) => 0.01,
        // A hint hit does not *replace* a stage run; it turns a cold P&R
        // into a warm one. Its value is the difference between the prior
        // cold run's cost and the (much cheaper) warm rerun, approximated
        // as most of the prior cold cost.
        StageProduct::Hints(h) => (vt.pnr_seconds(h.hints().work_units) * 0.75).max(0.05),
    }
}

/// One persistent-tier entry as the eviction policy sees it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvictCandidate {
    /// The entry's stage key.
    pub key: StageKey,
    /// Saved virtual seconds if this entry is hit (its recompute cost).
    pub cost_seconds: f64,
    /// Payload bytes the entry occupies on disk.
    pub bytes: u64,
    /// Logical access clock of the last fetch (higher = more recent).
    pub last_access: u64,
}

impl EvictCandidate {
    /// Saved virtual seconds per stored byte — the entry's keep-value.
    pub fn value_per_byte(&self) -> f64 {
        self.cost_seconds / (self.bytes.max(1) as f64)
    }
}

/// Returns the candidates in eviction order: ascending saved-vtime-per-
/// byte, ties broken by ascending last access (least recently used goes
/// first), then by key so the order is total. Evicting a prefix of this
/// order frees space at minimum lost value.
pub fn eviction_order(candidates: &[EvictCandidate]) -> Vec<EvictCandidate> {
    let mut order = candidates.to_vec();
    order.sort_by(|a, b| {
        a.value_per_byte()
            .total_cmp(&b.value_per_byte())
            .then(a.last_access.cmp(&b.last_access))
            .then(a.key.kind.cmp(&b.key.kind))
            .then(a.key.hash.cmp(&b.key.hash))
    });
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::StageKind;

    fn cand(hash: u64, cost: f64, bytes: u64, last: u64) -> EvictCandidate {
        EvictCandidate {
            key: StageKey {
                kind: StageKind::PlaceRoute,
                hash,
            },
            cost_seconds: cost,
            bytes,
            last_access: last,
        }
    }

    #[test]
    fn cheap_per_byte_goes_first_lru_breaks_ties() {
        let cands = [
            cand(1, 100.0, 10, 5), // 10 s/B — expensive, keep
            cand(2, 1.0, 10, 9),   // 0.1 s/B, recent
            cand(3, 1.0, 10, 2),   // 0.1 s/B, old — first victim of the tie
            cand(4, 0.5, 1000, 1), // 0.0005 s/B — overall first victim
        ];
        let order = eviction_order(&cands);
        let hashes: Vec<u64> = order.iter().map(|c| c.key.hash).collect();
        assert_eq!(hashes, vec![4, 3, 2, 1]);
    }

    #[test]
    fn zero_byte_entries_do_not_divide_by_zero() {
        let order = eviction_order(&[cand(1, 1.0, 0, 0), cand(2, 2.0, 0, 0)]);
        assert_eq!(order[0].key.hash, 1);
    }
}
