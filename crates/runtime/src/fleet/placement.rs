//! Cross-device placement: feasibility screening and cache-aware
//! bin-packing.
//!
//! Ranking is lexicographic: prefer the device whose local bitstream
//! cache already holds the most of the app's artifacts (a returning
//! tenant lands where its pages were loaded before), then the tightest
//! fit (fewest free pages — classic best-fit bin packing, keeping big
//! holes open for big apps), then the lowest index for determinism.

use pld::CompiledApp;

use crate::allocator::{self, AllocError};
use crate::fleet::DeviceId;
use crate::Runtime;

/// The content hashes an app would transfer on admission — what the
/// cache-affinity score counts against each device.
pub(crate) fn artifact_hashes(app: &CompiledApp) -> Vec<u64> {
    app.artifacts.iter().map(|x| x.hash).collect()
}

/// Screens every device for feasibility-when-empty. `Ok` is the indices
/// that could ever host the app; `Err` is the per-device deficit table
/// for [`crate::fleet::FleetError::Unplaceable`].
pub(crate) fn feasible_devices(
    devices: &[Runtime],
    app: &CompiledApp,
) -> Result<Vec<usize>, Vec<(DeviceId, AllocError)>> {
    let mut feasible = Vec::new();
    let mut deficits = Vec::new();
    for (i, dev) in devices.iter().enumerate() {
        match allocator::feasible(&dev.device().floorplan, app) {
            Ok(()) => feasible.push(i),
            Err(e) => deficits.push((DeviceId(i), e)),
        }
    }
    if feasible.is_empty() {
        Err(deficits)
    } else {
        Ok(feasible)
    }
}

/// Ranks `candidates` (device indices) for this app, best first:
/// cache hits descending, then free pages ascending, then index.
pub(crate) fn rank(devices: &[Runtime], candidates: &[usize], app: &CompiledApp) -> Vec<usize> {
    let hashes = artifact_hashes(app);
    let mut ranked: Vec<usize> = candidates.to_vec();
    ranked.sort_by_key(|&i| {
        let cached = devices[i].device().cached_artifacts(&hashes);
        (usize::MAX - cached, devices[i].free_pages(), i)
    });
    ranked
}

/// The subset of `candidates` where the app places without any eviction,
/// in rank order.
pub(crate) fn fitting_now(
    devices: &[Runtime],
    candidates: &[usize],
    app: &CompiledApp,
) -> Vec<usize> {
    rank(devices, candidates, app)
        .into_iter()
        .filter(|&i| devices[i].fits_now(app))
        .collect()
}
