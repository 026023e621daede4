//! PathFinder-style negotiated-congestion routing.
//!
//! Each net's driver→sink connection is found by A* over the tile grid with
//! the admissible Manhattan-distance heuristic (every edge costs at least
//! 1.0, so the straight-line tile distance never overestimates). Congestion
//! is negotiated PathFinder-style: occupancy persists across iterations and
//! only the nets crossing an overused edge are ripped up and rerouted, with
//! a history cost accumulating on chronically contested edges and a present
//! overuse penalty that escalates every iteration — so congested pages
//! converge to a legal routing instead of first-come-first-served overuse.

use fabric::{Device, Rect};
use netlist::Netlist;
use std::collections::BinaryHeap;

use crate::place::Placement;
use crate::{PnrError, PnrHints, PnrOptions};

/// Routing-channel capacity: wires available per tile-boundary edge.
pub const CHANNEL_CAPACITY: u32 = 48;

/// Maximum negotiation iterations before declaring the design unroutable.
pub const MAX_ITERATIONS: u32 = 12;

/// How much each unit of overuse escalates the present-cost penalty per
/// negotiation iteration (PathFinder's `pres_fac` growth).
const PRES_FAC_GROWTH: f64 = 1.6;

/// A routed design: one tile path per net (driver tile → each sink tile).
#[derive(Debug, Clone)]
pub struct RoutedDesign {
    /// Per net, per sink: the tile path walked, including both endpoints.
    pub routes: Vec<Vec<Vec<(u32, u32)>>>,
    /// Edges still overused at exit (zero for a successful route).
    pub overused_edges: u32,
    /// Negotiation iterations used.
    pub iterations: u32,
    /// Total edge relaxations performed (a compile-effort measure).
    pub edges_relaxed: u64,
    /// Total routed wire length in tile edges.
    pub wirelength: u64,
    /// Net reroutes performed across all negotiation iterations (every net
    /// counts once in iteration one; afterwards only ripped-up nets count).
    pub nets_rerouted: u64,
    /// Final per-edge PathFinder history costs, indexed like the internal
    /// edge graph (`(region.w * region.h) * 4` directed edges). Carried in
    /// `PnrHints` so a warm rerun starts with the congestion knowledge the
    /// cold run paid iterations to learn.
    pub history: Vec<f32>,
}

struct EdgeGraph {
    region: Rect,
    /// Occupancy per directed edge; edges are (tile, direction 0..4).
    occupancy: Vec<u32>,
    history: Vec<f32>,
    /// Present-overuse penalty factor, escalated every iteration.
    pres_fac: f64,
}

const DIRS: [(i64, i64); 4] = [(1, 0), (-1, 0), (0, 1), (0, -1)];

impl EdgeGraph {
    fn new(region: Rect) -> EdgeGraph {
        let n = (region.w * region.h) as usize * 4;
        EdgeGraph {
            region,
            occupancy: vec![0; n],
            history: vec![0.0; n],
            pres_fac: 2.0,
        }
    }

    fn tile_index(&self, x: u32, y: u32) -> usize {
        ((x - self.region.x0) * self.region.h + (y - self.region.y0)) as usize
    }

    fn edge_index(&self, x: u32, y: u32, dir: usize) -> usize {
        self.tile_index(x, y) * 4 + dir
    }

    fn in_region(&self, x: i64, y: i64) -> bool {
        x >= self.region.x0 as i64
            && x < (self.region.x0 + self.region.w) as i64
            && y >= self.region.y0 as i64
            && y < (self.region.y0 + self.region.h) as i64
    }

    /// Base edge cost is 1.0, so the Manhattan tile distance is an
    /// admissible (and consistent) A* heuristic.
    fn edge_cost(&self, idx: usize) -> f64 {
        let occ = self.occupancy[idx];
        let present = if occ >= CHANNEL_CAPACITY {
            1.0 + (occ - CHANNEL_CAPACITY + 1) as f64 * self.pres_fac
        } else {
            1.0 + occ as f64 / CHANNEL_CAPACITY as f64 * 0.25
        };
        present + self.history[idx] as f64
    }
}

#[derive(PartialEq)]
struct QueueEntry {
    /// Estimated total cost: path cost so far plus heuristic-to-target.
    est: f64,
    /// Path cost so far (the Dijkstra distance).
    cost: f64,
    tile: (u32, u32),
}

impl Eq for QueueEntry {}

impl Ord for QueueEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Min-heap by estimate; ties broken on coordinates for determinism.
        other
            .est
            .partial_cmp(&self.est)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| other.tile.cmp(&self.tile))
    }
}

impl PartialOrd for QueueEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// A* from `from` to `to` over the edge graph; returns the tile path and
/// counts relaxations.
fn shortest_path(
    graph: &EdgeGraph,
    from: (u32, u32),
    to: (u32, u32),
    relaxed: &mut u64,
) -> Vec<(u32, u32)> {
    search::<true>(graph, from, to, relaxed)
}

/// Plain Dijkstra: [`shortest_path`] without the heuristic. Kept as the
/// oracle the tests hold A* to — the heuristic must never change path cost.
#[cfg(test)]
fn dijkstra(
    graph: &EdgeGraph,
    from: (u32, u32),
    to: (u32, u32),
    relaxed: &mut u64,
) -> Vec<(u32, u32)> {
    search::<false>(graph, from, to, relaxed)
}

fn search<const HEURISTIC: bool>(
    graph: &EdgeGraph,
    from: (u32, u32),
    to: (u32, u32),
    relaxed: &mut u64,
) -> Vec<(u32, u32)> {
    if from == to {
        return vec![from];
    }
    let n = (graph.region.w * graph.region.h) as usize;
    let mut dist = vec![f64::INFINITY; n];
    let mut prev: Vec<u32> = vec![u32::MAX; n];
    let start = graph.tile_index(from.0, from.1);
    let h = |x: u32, y: u32| -> f64 {
        if HEURISTIC {
            (x.abs_diff(to.0) + y.abs_diff(to.1)) as f64
        } else {
            0.0
        }
    };
    dist[start] = 0.0;
    let mut heap = BinaryHeap::new();
    heap.push(QueueEntry {
        est: h(from.0, from.1),
        cost: 0.0,
        tile: from,
    });

    while let Some(QueueEntry { cost, tile, .. }) = heap.pop() {
        let ti = graph.tile_index(tile.0, tile.1);
        if cost > dist[ti] {
            continue;
        }
        if tile == to {
            break;
        }
        for (d, (dx, dy)) in DIRS.iter().enumerate() {
            let nx = tile.0 as i64 + dx;
            let ny = tile.1 as i64 + dy;
            if !graph.in_region(nx, ny) {
                continue;
            }
            *relaxed += 1;
            let edge = graph.edge_index(tile.0, tile.1, d);
            let next_cost = cost + graph.edge_cost(edge);
            let ni = graph.tile_index(nx as u32, ny as u32);
            if next_cost < dist[ni] {
                dist[ni] = next_cost;
                prev[ni] = (ti * 4 + d) as u32;
                heap.push(QueueEntry {
                    est: next_cost + h(nx as u32, ny as u32),
                    cost: next_cost,
                    tile: (nx as u32, ny as u32),
                });
            }
        }
    }

    // Reconstruct.
    let mut path = vec![to];
    let mut cur = graph.tile_index(to.0, to.1);
    while cur != start {
        let code = prev[cur];
        if code == u32::MAX {
            return Vec::new(); // unreachable within region (shouldn't happen)
        }
        let from_tile = (code / 4) as usize;
        let x = graph.region.x0 + (from_tile as u32) / graph.region.h;
        let y = graph.region.y0 + (from_tile as u32) % graph.region.h;
        path.push((x, y));
        cur = from_tile;
    }
    path.reverse();
    path
}

/// Routes all nets of a placed design inside `region` (or the whole device
/// when the abstract shell is off, modelling full-context routing).
///
/// # Errors
///
/// Returns [`PnrError::Unroutable`] if congestion cannot be resolved in
/// [`MAX_ITERATIONS`].
pub fn route(
    netlist: &Netlist,
    device: &Device,
    region: Rect,
    placement: &Placement,
    options: &PnrOptions,
) -> Result<RoutedDesign, PnrError> {
    negotiate(netlist, device, region, placement, options, None, 1)
}

/// Stable content-derived identity per net: a hash of the driver's and
/// sinks' cell identities plus the bus width. A net keeps its identity
/// across unrelated edits, so its prior route can be considered for replay.
pub fn net_identities(netlist: &Netlist, cell_ids: &[u64]) -> Vec<u64> {
    netlist
        .nets
        .iter()
        .map(|net| {
            let mut h = cell_ids[net.driver.0].rotate_left(17) ^ net.width as u64;
            for s in &net.sinks {
                h = h
                    .rotate_left(9)
                    .wrapping_mul(0x100_0000_01b3)
                    .wrapping_add(cell_ids[s.0]);
            }
            h
        })
        .collect()
}

/// Nets per warm negotiation round below which the parallel machinery is
/// skipped: searching a handful of nets sequentially (Gauss–Seidel, each
/// net seeing the previous commits) converges faster than a Jacobi round
/// and avoids thread-spawn overhead. The choice depends only on the net
/// count — never on the worker count — so results stay byte-identical at
/// every worker count.
const PARALLEL_THRESHOLD: usize = 8;

/// PathFinder negotiation, cold (`hint: None`) or warm-started from a prior
/// run's routes and history.
///
/// A warm start seeds the history costs when the geometry matches, then
/// replays every prior route whose net identity matches and whose
/// endpoints did not move; only the rest enter the first round. A cold
/// start replays nothing, so its first round routes every net in ascending
/// order. Later rounds rip up every net crossing an overused edge.
///
/// The round shape is the one start-dependent branch. A cold round rips up
/// each net just before re-searching it, and commits each sink's path
/// before the next sink's search. A warm round rips up the whole round
/// first; with `PARALLEL_THRESHOLD` (8) or more nets it searches them in
/// parallel against *frozen* congestion (a Jacobi round: no net sees this
/// round's other reroutes) and commits in ascending net order, otherwise
/// it searches them in order, each net seeing the previous commits. Both
/// the freeze and the commit order are independent of `workers`, so the
/// routed design is byte-identical at every worker count; `workers` only
/// sets how many OS threads share the search.
///
/// # Errors
///
/// Returns [`PnrError::Unroutable`] if congestion cannot be resolved in
/// [`MAX_ITERATIONS`].
pub(crate) fn negotiate(
    netlist: &Netlist,
    device: &Device,
    region: Rect,
    placement: &Placement,
    options: &PnrOptions,
    hint: Option<&PnrHints>,
    workers: usize,
) -> Result<RoutedDesign, PnrError> {
    let route_region = if options.abstract_shell {
        region
    } else {
        Rect::new(0, 0, device.width, device.height)
    };
    let mut graph = EdgeGraph::new(route_region);
    let n_nets = netlist.nets.len();
    let mut routes: Vec<Vec<Vec<(u32, u32)>>> = vec![Vec::new(); n_nets];
    // Edges each net currently occupies, for incremental rip-up.
    let mut net_edges: Vec<Vec<u32>> = vec![Vec::new(); n_nets];
    let mut to_route: Vec<usize> = match hint {
        None => (0..n_nets).collect(),
        Some(h) => {
            // Stale or foreign history is ignored rather than trusted.
            if h.history.len() == graph.history.len() {
                graph.history.copy_from_slice(&h.history);
            }
            replay(
                netlist,
                placement,
                h,
                &mut graph,
                &mut routes,
                &mut net_edges,
            )
        }
    };
    let warm = hint.is_some();

    let mut edges_relaxed = 0u64;
    let mut nets_rerouted = 0u64;
    let mut iterations = 0;
    let mut overused = 0;
    for iter in 0..MAX_ITERATIONS {
        iterations = iter + 1;
        // Every pass sweeps the whole loaded routing context (the overuse
        // scans below); charge that to the effort measure — it is the cost
        // an abstract shell avoids.
        edges_relaxed += graph.occupancy.len() as u64;
        nets_rerouted += to_route.len() as u64;

        if warm {
            // Rip up every net in this round first, so the frozen graph the
            // parallel searches see excludes all of them symmetrically.
            for &ni in &to_route {
                rip_up(&mut graph, &mut net_edges[ni], units(netlist, ni));
            }
        }
        if warm && to_route.len() >= PARALLEL_THRESHOLD {
            let searched = search_frozen(netlist, placement, &graph, &to_route, workers);
            for (ni, sink_paths, relaxed) in searched {
                edges_relaxed += relaxed;
                for path in &sink_paths {
                    occupy(&mut graph, &mut net_edges[ni], path, units(netlist, ni));
                }
                routes[ni] = sink_paths;
            }
        } else {
            // Gauss–Seidel: each net sees the previous commits. A cold net
            // is ripped up (a no-op in round one) and occupies each sink's
            // path before the next sink is searched.
            for &ni in &to_route {
                let net = &netlist.nets[ni];
                let units = units(netlist, ni);
                if !warm {
                    rip_up(&mut graph, &mut net_edges[ni], units);
                }
                let from = placement.assignment[net.driver.0];
                let mut sink_paths = Vec::with_capacity(net.sinks.len());
                for s in &net.sinks {
                    let to = placement.assignment[s.0];
                    let path = shortest_path(&graph, from, to, &mut edges_relaxed);
                    if !warm {
                        occupy(&mut graph, &mut net_edges[ni], &path, units);
                    }
                    sink_paths.push(path);
                }
                if warm {
                    for path in &sink_paths {
                        occupy(&mut graph, &mut net_edges[ni], path, units);
                    }
                }
                routes[ni] = sink_paths;
            }
        }

        overused = graph
            .occupancy
            .iter()
            .filter(|&&o| o > CHANNEL_CAPACITY)
            .count() as u32;
        if overused == 0 {
            break;
        }
        // Negotiation: overuse becomes history cost for the next iteration,
        // and the present penalty escalates.
        for (i, &o) in graph.occupancy.iter().enumerate() {
            if o > CHANNEL_CAPACITY {
                graph.history[i] += (o - CHANNEL_CAPACITY) as f32 * 0.5;
            }
        }
        graph.pres_fac *= PRES_FAC_GROWTH;
        // Rip up and reroute only the nets (replayed ones included) crossing
        // an overused edge, in ascending net order (deterministic regardless
        // of how congestion arose).
        to_route = (0..n_nets)
            .filter(|&ni| {
                net_edges[ni]
                    .iter()
                    .any(|&e| graph.occupancy[e as usize] > CHANNEL_CAPACITY)
            })
            .collect();
    }

    if overused > 0 {
        return Err(PnrError::Unroutable {
            overused_edges: overused,
        });
    }

    let wirelength = routes
        .iter()
        .flat_map(|sink_paths| sink_paths.iter())
        .map(|p| p.len().saturating_sub(1) as u64)
        .sum();

    Ok(RoutedDesign {
        routes,
        overused_edges: 0,
        iterations,
        edges_relaxed,
        wirelength,
        nets_rerouted,
        history: graph.history,
    })
}

/// The warm start's replay pass: keeps a prior net's routing when its
/// identity matches and every path still starts at the (possibly re-placed)
/// driver tile, ends at the matching sink tile, and stays inside the
/// routing region. Returns the nets left to route, ascending.
///
/// The replayed set is a subset of a legal prior routing with identical
/// widths, so its occupancy cannot exceed what the prior run carried — any
/// residual overuse against *new* routing is negotiated afterwards.
fn replay(
    netlist: &Netlist,
    placement: &Placement,
    hint: &PnrHints,
    graph: &mut EdgeGraph,
    routes: &mut [Vec<Vec<(u32, u32)>>],
    net_edges: &mut [Vec<u32>],
) -> Vec<usize> {
    let cell_ids = crate::place::cell_identities(netlist);
    let ids = net_identities(netlist, &cell_ids);
    // Occurrence-paired identity match, like the placer's cell matching.
    let mut pool: std::collections::HashMap<u64, Vec<usize>> = Default::default();
    for (i, &id) in hint.net_ids.iter().enumerate() {
        pool.entry(id).or_default().push(i);
    }
    let mut taken: std::collections::HashMap<u64, usize> = Default::default();
    let mut to_route = Vec::new();
    for (ni, net) in netlist.nets.iter().enumerate() {
        let prior = (|| {
            let occurrences = pool.get(&ids[ni])?;
            let k = taken.entry(ids[ni]).or_insert(0);
            let pi = *occurrences.get(*k)?;
            *k += 1;
            Some(&hint.routes[pi])
        })();
        let from = placement.assignment[net.driver.0];
        let replayable = prior.is_some_and(|prior| {
            prior.len() == net.sinks.len()
                && prior.iter().zip(&net.sinks).all(|(path, sink)| {
                    path.first() == Some(&from)
                        && path.last() == Some(&placement.assignment[sink.0])
                        && path
                            .windows(2)
                            .all(|w| w[0].0.abs_diff(w[1].0) + w[0].1.abs_diff(w[1].1) == 1)
                        && path
                            .iter()
                            .all(|&(x, y)| graph.in_region(x as i64, y as i64))
                })
        });
        match prior {
            Some(prior) if replayable => {
                for path in prior {
                    occupy(graph, &mut net_edges[ni], path, units(netlist, ni));
                }
                routes[ni] = prior.clone();
            }
            _ => to_route.push(ni),
        }
    }
    to_route
}

/// Capacity units a net occupies on every edge it crosses.
fn units(netlist: &Netlist, ni: usize) -> u32 {
    netlist.nets[ni].width.div_ceil(8).max(1)
}

fn step_dir(from: (u32, u32), to: (u32, u32)) -> usize {
    DIRS.iter()
        .position(|&(dx, dy)| {
            (from.0 as i64 + dx, from.1 as i64 + dy) == (to.0 as i64, to.1 as i64)
        })
        .expect("path steps are unit moves")
}

/// Releases the edges a net occupies.
fn rip_up(graph: &mut EdgeGraph, edges: &mut Vec<u32>, units: u32) {
    for &e in edges.iter() {
        graph.occupancy[e as usize] -= units;
    }
    edges.clear();
}

/// Occupies the edges one path walks and records them against its net.
fn occupy(graph: &mut EdgeGraph, edges: &mut Vec<u32>, path: &[(u32, u32)], units: u32) {
    for w in path.windows(2) {
        let e = graph.edge_index(w[0].0, w[0].1, step_dir(w[0], w[1]));
        graph.occupancy[e] += units;
        edges.push(e as u32);
    }
}

/// Searches every net of `to_route` against the frozen congestion state,
/// splitting the list across `workers` threads. Results come back in
/// `to_route` order regardless of thread scheduling: each thread owns a
/// contiguous chunk and chunks are concatenated in order.
#[allow(clippy::type_complexity)]
fn search_frozen(
    netlist: &Netlist,
    placement: &Placement,
    graph: &EdgeGraph,
    to_route: &[usize],
    workers: usize,
) -> Vec<(usize, Vec<Vec<(u32, u32)>>, u64)> {
    let search_one = |ni: usize| {
        let net = &netlist.nets[ni];
        let from = placement.assignment[net.driver.0];
        let mut relaxed = 0u64;
        let sink_paths = net
            .sinks
            .iter()
            .map(|s| shortest_path(graph, from, placement.assignment[s.0], &mut relaxed))
            .collect();
        (ni, sink_paths, relaxed)
    };
    let workers = workers.max(1).min(to_route.len());
    if workers == 1 {
        return to_route.iter().map(|&ni| search_one(ni)).collect();
    }
    let chunk = to_route.len().div_ceil(workers);
    std::thread::scope(|scope| {
        let handles: Vec<_> = to_route
            .chunks(chunk)
            .map(|c| scope.spawn(move || c.iter().map(|&ni| search_one(ni)).collect::<Vec<_>>()))
            .collect();
        let mut out = Vec::with_capacity(to_route.len());
        for h in handles {
            out.extend(h.join().expect("router worker panicked"));
        }
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::place::place;
    use netlist::CellKind;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn placed_chain(len: usize) -> (Netlist, Device, Rect, Placement) {
        let mut nl = Netlist::new("chain");
        let mut prev = nl.add_cell("c0", CellKind::Adder { width: 32 });
        for i in 1..len {
            let c = nl.add_cell(format!("c{i}"), CellKind::Adder { width: 32 });
            nl.add_net(prev, vec![c], 32);
            prev = c;
        }
        let fp = fabric::Floorplan::u50();
        let region = fp.pages[0].rect;
        let placement = place(&nl, &fp.device, region, &PnrOptions::default()).unwrap();
        (nl, fp.device, region, placement)
    }

    #[test]
    fn routes_connect_placed_endpoints() {
        let (nl, device, region, placement) = placed_chain(30);
        let routed = route(&nl, &device, region, &placement, &PnrOptions::default()).unwrap();
        for (ni, net) in nl.nets.iter().enumerate() {
            for (si, sink) in net.sinks.iter().enumerate() {
                let path = &routed.routes[ni][si];
                assert_eq!(
                    path.first().copied().unwrap(),
                    placement.assignment[net.driver.0]
                );
                assert_eq!(path.last().copied().unwrap(), placement.assignment[sink.0]);
                // Unit steps only.
                for w in path.windows(2) {
                    let d = (w[1].0 as i64 - w[0].0 as i64).abs()
                        + (w[1].1 as i64 - w[0].1 as i64).abs();
                    assert_eq!(d, 1);
                }
            }
        }
        assert_eq!(routed.overused_edges, 0);
        assert!(routed.wirelength > 0);
        assert!(routed.nets_rerouted >= nl.nets.len() as u64);
    }

    #[test]
    fn full_context_routing_relaxes_more_edges() {
        let (nl, device, region, placement) = placed_chain(20);
        let fast = route(&nl, &device, region, &placement, &PnrOptions::default()).unwrap();
        let slow = route(
            &nl,
            &device,
            region,
            &placement,
            &PnrOptions {
                abstract_shell: false,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(
            slow.edges_relaxed > fast.edges_relaxed,
            "full-context {} vs scoped {}",
            slow.edges_relaxed,
            fast.edges_relaxed
        );
    }

    #[test]
    fn trivial_self_route_is_empty_walk() {
        let (nl, device, region, mut placement) = placed_chain(2);
        // Force both cells onto the same tile.
        placement.assignment[1] = placement.assignment[0];
        let routed = route(&nl, &device, region, &placement, &PnrOptions::default()).unwrap();
        assert_eq!(routed.routes[0][0].len(), 1);
        assert_eq!(routed.wirelength, 0);
    }

    /// Sums the current edge costs along a returned path.
    fn path_cost(graph: &EdgeGraph, path: &[(u32, u32)]) -> f64 {
        let mut cost = 0.0;
        for w in path.windows(2) {
            let dir = step_dir(w[0], w[1]);
            cost += graph.edge_cost(graph.edge_index(w[0].0, w[0].1, dir));
        }
        cost
    }

    /// Property (a): the Manhattan heuristic is admissible, so A* must find
    /// paths of exactly the same cost as plain Dijkstra — over randomly
    /// congested graphs and random endpoint pairs.
    #[test]
    fn astar_cost_equals_dijkstra_cost() {
        let region = Rect::new(3, 2, 12, 9);
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..40 {
            let mut graph = EdgeGraph::new(region);
            // Random congestion and history: non-uniform edge costs.
            for i in 0..graph.occupancy.len() {
                graph.occupancy[i] = rng.gen_range(0..(CHANNEL_CAPACITY + 12));
                if rng.gen_range(0..4u32) == 0 {
                    graph.history[i] = rng.gen_range(0..5u32) as f32 * 0.5;
                }
            }
            for _ in 0..8 {
                let from = (
                    region.x0 + rng.gen_range(0..region.w),
                    region.y0 + rng.gen_range(0..region.h),
                );
                let to = (
                    region.x0 + rng.gen_range(0..region.w),
                    region.y0 + rng.gen_range(0..region.h),
                );
                let mut ra = 0u64;
                let mut rd = 0u64;
                let astar = shortest_path(&graph, from, to, &mut ra);
                let dijkstra = dijkstra(&graph, from, to, &mut rd);
                let ca = path_cost(&graph, &astar);
                let cd = path_cost(&graph, &dijkstra);
                assert!(
                    (ca - cd).abs() < 1e-9,
                    "A* cost {ca} != Dijkstra cost {cd} for {from:?}->{to:?}"
                );
                assert!(ra <= rd, "A* relaxed more ({ra}) than Dijkstra ({rd})");
            }
        }
    }

    /// Property (a) on whole netlists: route a random placed netlist, then
    /// re-search every connection on the final congestion state with both
    /// searches and compare costs.
    #[test]
    fn astar_matches_dijkstra_on_placed_netlists() {
        let fp = fabric::Floorplan::u50();
        let region = fp.pages[1].rect;
        let mut rng = StdRng::seed_from_u64(11);
        for case in 0..6u64 {
            let mut nl = Netlist::new("r");
            let n_cells = 8 + case as usize * 4;
            let ids: Vec<_> = (0..n_cells)
                .map(|i| nl.add_cell(format!("c{i}"), CellKind::Adder { width: 32 }))
                .collect();
            for _ in 0..n_cells * 2 {
                let a = ids[rng.gen_range(0..n_cells)];
                let b = ids[rng.gen_range(0..n_cells)];
                nl.add_net(a, vec![b], 32);
            }
            let opts = PnrOptions {
                seed: case + 1,
                ..Default::default()
            };
            let placement = place(&nl, &fp.device, region, &opts).unwrap();
            let routed = route(&nl, &fp.device, region, &placement, &opts).unwrap();
            // Rebuild the final congestion state from the returned routes.
            let mut graph = EdgeGraph::new(region);
            for (ni, net) in nl.nets.iter().enumerate() {
                let units = net.width.div_ceil(8).max(1);
                for path in &routed.routes[ni] {
                    for w in path.windows(2) {
                        let dir = step_dir(w[0], w[1]);
                        let e = graph.edge_index(w[0].0, w[0].1, dir);
                        graph.occupancy[e] += units;
                    }
                }
            }
            for net in &nl.nets {
                let from = placement.assignment[net.driver.0];
                for s in &net.sinks {
                    let to = placement.assignment[s.0];
                    let mut ra = 0u64;
                    let mut rd = 0u64;
                    let astar = shortest_path(&graph, from, to, &mut ra);
                    let dijkstra = dijkstra(&graph, from, to, &mut rd);
                    let ca = path_cost(&graph, &astar);
                    let cd = path_cost(&graph, &dijkstra);
                    assert!((ca - cd).abs() < 1e-9, "net cost {ca} != {cd}");
                }
            }
        }
    }

    /// A deliberately congested but routable case: many wide nets between
    /// the same two tiles must spread over detours instead of stacking on
    /// one edge. First-come-first-served routing leaves the direct edge
    /// overused; negotiation must converge to a legal solution.
    #[test]
    fn congested_parallel_nets_converge() {
        let fp = fabric::Floorplan::u50();
        let region = fp.pages[0].rect;
        let mut nl = Netlist::new("cong");
        let mut drivers = Vec::new();
        let mut sinks = Vec::new();
        // All drivers share one corner tile, which has exactly two outgoing
        // edges (2 × 48 = 96 capacity units): 20 nets of width 32 demand 80
        // units — infeasible on the single direct edge (capacity 48), but
        // feasible once negotiation spreads them over both.
        const N: usize = 20;
        for i in 0..N {
            drivers.push(nl.add_cell(format!("d{i}"), CellKind::Register { width: 32 }));
            sinks.push(nl.add_cell(format!("s{i}"), CellKind::Register { width: 32 }));
        }
        for i in 0..N {
            // width 32 → 4 capacity units per edge; 20 nets want 80 units
            // through the single direct edge of capacity 48.
            nl.add_net(drivers[i], vec![sinks[i]], 32);
        }
        let mut placement = place(&nl, &fp.device, region, &PnrOptions::default()).unwrap();
        // Pin all drivers to one tile's coordinates and all sinks to an
        // adjacent tile's: every net now wants the same unit edge.
        let (dx, dy) = (region.x0, region.y0);
        for i in 0..N {
            placement.assignment[drivers[i].0] = (dx, dy);
            placement.assignment[sinks[i].0] = (dx, dy + 1);
        }
        let routed = route(&nl, &fp.device, region, &placement, &PnrOptions::default())
            .expect("negotiation must converge: detours exist");
        assert!(routed.iterations > 1, "expected congestion negotiation");
        // Independently verify no edge is over capacity.
        let mut graph = EdgeGraph::new(region);
        for (ni, net) in nl.nets.iter().enumerate() {
            let units = net.width.div_ceil(8).max(1);
            for path in &routed.routes[ni] {
                for w in path.windows(2) {
                    let dir = step_dir(w[0], w[1]);
                    let e = graph.edge_index(w[0].0, w[0].1, dir);
                    graph.occupancy[e] += units;
                }
            }
        }
        assert!(
            graph.occupancy.iter().all(|&o| o <= CHANNEL_CAPACITY),
            "an edge is over capacity after negotiation"
        );
    }
}
