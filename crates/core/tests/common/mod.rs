//! Build-report counts shared by the build-cache tests. Integration tests
//! take it with `mod common;` after importing `BuildCache`; the crate's own
//! unit tests and the root package's tests include the file by path.

use super::BuildCache;

/// Operators of `cache`'s last build served whole from the store (hits),
/// and operators that executed a stage (misses).
pub fn hits_and_misses(cache: &BuildCache) -> (usize, usize) {
    let ops = &cache.last_report().expect("a build ran").operators;
    let hits = ops.iter().filter(|o| o.executions == 0).count();
    (hits, ops.len() - hits)
}
