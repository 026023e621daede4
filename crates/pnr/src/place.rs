//! Simulated-annealing placement with VPR-style incremental net costs.
//!
//! The hot loop evaluates one candidate move per iteration. Instead of
//! rescanning every pin of every touched net (the classic textbook form,
//! kept below as a `#[cfg(test)]` reference), the placer keeps a
//! cell-major state:
//!
//! * one hot record per cell — coordinates, adjacency range, slot and
//!   demand;
//! * per adjacency entry of a two-pin net (two pins on two distinct
//!   cells), the partner's coordinates, the net weight and the index of the
//!   partner's mirror entry, which an accepted move rewrites; such a net's
//!   HPWL is the Manhattan distance to the partner;
//! * per multi-pin net, a `NetBox` — the bounding box plus the number of
//!   pins on each of its four boundaries — which shifts in O(1) unless the
//!   moved cell held the last pin on a shrinking boundary, which triggers a
//!   single-net rescan.
//!
//! A cell whose nets are all two-pin also keeps its partners' bounding
//! box, its weight sum `W` and its summed cost `bef`. A move to a site at
//! L1 distance `D` from the box costs at least `W·D`, so when
//! `W·D·(1−η) − bef ≥ T·UPHILL_CUTOFF·(1+η)` the move is rejected before
//! any net is summed. The margin η (`BOUND_MARGIN`) covers the rounding
//! of both f64 sums, so such a move is one the exact path rejects at the
//! cutoff, which draws no random: the result stays bit-identical. The box
//! and `bef` are refreshed lazily (an accepted move marks its partners
//! stale; a stale cell re-takes both during its next exact evaluation),
//! and the bound switches on from the first temperature step in which at
//! least half the moves were cutoff rejections.
//!
//! All scratch storage is hoisted out of the loop, so steady-state move
//! evaluation performs no heap allocation. Results are bit-identical to the
//! reference implementation for any seed: the incremental path reproduces
//! the reference's floating-point summation order exactly (asserted by the
//! A/B tests at the bottom of this file).

use fabric::{ColumnKind, Device, Rect};
use netlist::{CellKind, Netlist};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

use crate::{PnrError, PnrHints, PnrOptions};

/// A legal assignment of every cell to a tile.
#[derive(Debug, Clone)]
pub struct Placement {
    /// Tile coordinates per cell, indexed by cell id.
    pub assignment: Vec<(u32, u32)>,
    /// Final wirelength cost (sum of per-net half-perimeter wirelengths,
    /// weighted by bus width).
    pub cost: f64,
    /// Total annealing moves evaluated (a compile-effort measure).
    pub moves_evaluated: u64,
}

/// The tile kind a cell must sit on, and its demand against that tile's
/// primary capacity.
///
/// A multiplier binds to a DSP column, an array to a BRAM column, everything
/// else to CLB fabric; the secondary LUT slice of DSP/BRAM macros is small
/// and folded into the primary demand, keeping legality one-dimensional per
/// tile (documented model simplification).
pub(crate) fn site_requirements(kind: &CellKind) -> (ColumnKind, u64) {
    let r = kind.resources();
    if r.dsp > 0 {
        (ColumnKind::Dsp, r.dsp)
    } else if r.bram18 > 0 {
        (ColumnKind::Bram, r.bram18)
    } else {
        // LUT-equivalents: FFs pack two per LUT site in this model.
        (ColumnKind::Clb, r.luts.max(r.ffs / 2).max(1))
    }
}

pub(crate) fn tile_capacity(kind: ColumnKind) -> u64 {
    match kind {
        ColumnKind::Clb => kind.tile_resources().luts,
        ColumnKind::Bram => kind.tile_resources().bram18,
        ColumnKind::Dsp => kind.tile_resources().dsp,
    }
}

/// Remaining tile capacities inside the placement region. The candidate-site
/// lists per column kind live outside (see [`survey`]) so the annealing loop
/// can borrow them while mutating capacities.
struct Grid {
    /// Remaining capacity per tile (indexed by region-local x, y).
    free: Vec<u64>,
}

/// A candidate tile: its device coordinates plus its precomputed slot in
/// [`Grid::free`], so the move loop never redoes the index arithmetic.
#[derive(Clone, Copy)]
struct Site {
    x: u32,
    y: u32,
    slot: u32,
}

/// Scans the region once, returning the capacity grid and the candidate-site
/// list per column kind. The site lists are built exactly once per placement
/// run and only borrowed afterwards — the annealing loop never clones or
/// reallocates them.
fn survey(device: &Device, region: Rect) -> (Grid, [Vec<Site>; 3]) {
    let mut sites: [Vec<Site>; 3] = Default::default();
    let mut free = vec![0u64; (region.w * region.h) as usize];
    for x in region.x0..region.x0 + region.w {
        for y in region.y0..region.y0 + region.h {
            if device.is_reserved_col(x) {
                continue;
            }
            let kind = device.columns[x as usize];
            let slot = Grid::local_index(&region, x, y);
            sites[kind_index(kind)].push(Site {
                x,
                y,
                slot: slot as u32,
            });
            free[slot] = tile_capacity(kind);
        }
    }
    (Grid { free }, sites)
}

impl Grid {
    fn local_index(region: &Rect, x: u32, y: u32) -> usize {
        ((x - region.x0) * region.h + (y - region.y0)) as usize
    }

    fn free_slot(&self, slot: u32) -> u64 {
        self.free[slot as usize]
    }

    fn take_slot(&mut self, slot: u32, amount: u64) {
        self.free[slot as usize] -= amount;
    }

    fn give_slot(&mut self, slot: u32, amount: u64) {
        self.free[slot as usize] += amount;
    }
}

/// Uniform index in `0..n` from a single generator word via a widening
/// multiply (Lemire's method). The annealing loop draws two indices per
/// move; `gen_range` would cost two generator words plus a 128-bit modulo
/// per draw, which dominates the move evaluation itself once net costs are
/// incremental. Used by both the incremental and reference paths, so the
/// shared RNG stream (and therefore the A/B bit-identity) is unaffected.
#[inline]
fn draw_index(rng: &mut StdRng, n: usize) -> usize {
    (((rng.next_u64() as u128) * (n as u128)) >> 64) as usize
}

/// Uphill moves costing more than this many temperatures are rejected
/// without evaluating `exp` or drawing an acceptance random: their accept
/// probability (`< exp(-20)` ≈ 2e-9) is below one in a billion moves.
const UPHILL_CUTOFF: f64 = 20.0;

fn kind_index(kind: ColumnKind) -> usize {
    match kind {
        ColumnKind::Clb => 0,
        ColumnKind::Bram => 1,
        ColumnKind::Dsp => 2,
    }
}

fn net_hpwl(assignment: &[(u32, u32)], net: &netlist::Net) -> f64 {
    let (dx, dy) = assignment[net.driver.0];
    let mut min_x = dx;
    let mut max_x = dx;
    let mut min_y = dy;
    let mut max_y = dy;
    for s in &net.sinks {
        let (x, y) = assignment[s.0];
        min_x = min_x.min(x);
        max_x = max_x.max(x);
        min_y = min_y.min(y);
        max_y = max_y.max(y);
    }
    let weight = 1.0 + (net.width as f64).log2() / 8.0;
    ((max_x - min_x) + (max_y - min_y)) as f64 * weight
}

/// A net's bounding box with per-boundary pin counts (VPR's incremental
/// bounding-box structure). The counts let a pin move update the box in O(1)
/// in every case except shrinking past the last pin on a boundary.
#[derive(Debug, Clone, Copy)]
struct NetBox {
    min_x: u32,
    max_x: u32,
    min_y: u32,
    max_y: u32,
    on_min_x: u32,
    on_max_x: u32,
    on_min_y: u32,
    on_max_y: u32,
}

impl NetBox {
    fn new(x: u32, y: u32) -> NetBox {
        NetBox {
            min_x: x,
            max_x: x,
            min_y: y,
            max_y: y,
            on_min_x: 1,
            on_max_x: 1,
            on_min_y: 1,
            on_max_y: 1,
        }
    }

    fn add(&mut self, x: u32, y: u32) {
        if x < self.min_x {
            self.min_x = x;
            self.on_min_x = 1;
        } else if x == self.min_x {
            self.on_min_x += 1;
        }
        if x > self.max_x {
            self.max_x = x;
            self.on_max_x = 1;
        } else if x == self.max_x {
            self.on_max_x += 1;
        }
        if y < self.min_y {
            self.min_y = y;
            self.on_min_y = 1;
        } else if y == self.min_y {
            self.on_min_y += 1;
        }
        if y > self.max_y {
            self.max_y = y;
            self.on_max_y = 1;
        } else if y == self.max_y {
            self.on_max_y += 1;
        }
    }

    /// Builds the box from a net's pins, with the moved cell's pins read at
    /// the candidate position instead of the committed assignment.
    fn scan(pins: &[u32], assignment: &[(u32, u32)], moved: u32, to: (u32, u32)) -> NetBox {
        let coord = |p: u32| {
            if p == moved {
                to
            } else {
                assignment[p as usize]
            }
        };
        let (x0, y0) = coord(pins[0]);
        let mut b = NetBox::new(x0, y0);
        for &p in &pins[1..] {
            let (x, y) = coord(p);
            b.add(x, y);
        }
        b
    }

    /// Half-perimeter wirelength. Uses the same expression as [`net_hpwl`]
    /// so cached values stay bit-identical to a fresh recompute.
    fn hpwl(&self, weight: f64) -> f64 {
        ((self.max_x - self.min_x) + (self.max_y - self.min_y)) as f64 * weight
    }

    /// Moves `m` coincident pins from `old` to `new` along one axis.
    /// Returns `false` when the last pins leave a shrinking boundary, in
    /// which case the box is stale and the caller must [`NetBox::scan`].
    fn shift_x(&mut self, old: u32, new: u32, m: u32) -> bool {
        shift_axis(
            &mut self.min_x,
            &mut self.max_x,
            &mut self.on_min_x,
            &mut self.on_max_x,
            old,
            new,
            m,
        )
    }

    fn shift_y(&mut self, old: u32, new: u32, m: u32) -> bool {
        shift_axis(
            &mut self.min_y,
            &mut self.max_y,
            &mut self.on_min_y,
            &mut self.on_max_y,
            old,
            new,
            m,
        )
    }
}

fn shift_axis(
    min: &mut u32,
    max: &mut u32,
    on_min: &mut u32,
    on_max: &mut u32,
    old: u32,
    new: u32,
    m: u32,
) -> bool {
    if old == new {
        return true;
    }
    // Grow first: a new extreme replaces the boundary outright, landing on
    // an existing boundary joins it.
    if new < *min {
        *min = new;
        *on_min = m;
    } else if new == *min {
        *on_min += m;
    }
    if new > *max {
        *max = new;
        *on_max = m;
    } else if new == *max {
        *on_max += m;
    }
    // Shrink second. If the moved pins were alone on the boundary the new
    // extreme is unknown without a rescan.
    if old == *min {
        if *on_min <= m {
            return false;
        }
        *on_min -= m;
    }
    if old == *max {
        if *on_max <= m {
            return false;
        }
        *on_max -= m;
    }
    true
}

pub(crate) fn fnv(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Stable content-derived identity per macro-cell: a hash of the cell's
/// name and kind. Identities survive unrelated edits elsewhere in the
/// kernel — HLS regenerates unchanged cells with the same names and kinds —
/// so a prior placement can be replayed onto the matching cells of the
/// edited netlist (the warm start of [`crate::place_and_route_incremental`]).
pub fn cell_identities(netlist: &Netlist) -> Vec<u64> {
    netlist
        .cells
        .iter()
        .map(|c| fnv(c.name.as_bytes()) ^ fnv(format!("{:?}", c.kind).as_bytes()).rotate_left(1))
        .collect()
}

/// Pairs each cell of the new netlist with a prior coordinate by identity.
/// Duplicate identities match occurrence-by-occurrence (k-th new occurrence
/// to k-th prior occurrence), so the pairing is injective and deterministic.
fn match_prior(
    ids: &[u64],
    prior_ids: &[u64],
    prior_assignment: &[(u32, u32)],
) -> Vec<Option<(u32, u32)>> {
    use std::collections::HashMap;
    let mut pool: HashMap<u64, Vec<usize>> = HashMap::new();
    for (i, &id) in prior_ids.iter().enumerate() {
        pool.entry(id).or_default().push(i);
    }
    let mut taken: HashMap<u64, usize> = HashMap::new();
    ids.iter()
        .map(|id| {
            let occurrences = pool.get(id)?;
            let k = taken.entry(*id).or_insert(0);
            if *k < occurrences.len() {
                let coord = prior_assignment[occurrences[*k]];
                *k += 1;
                Some(coord)
            } else {
                None
            }
        })
        .collect()
}

/// One adjacency entry: a net touching a cell.
///
/// `other` is the opposite endpoint's cell id when the net has exactly two
/// pins on two distinct cells — the overwhelmingly common case in macro
/// netlists — and `u32::MAX` otherwise. The cell-major move loop turns
/// each such entry into an [`Entry`] carrying the partner's coordinates. A
/// net is two-pin-distinct for *all* cells touching it or for none, so the
/// `boxes` and `cached` entries of a two-pin net are never read after the
/// initial cost sum and go stale.
#[derive(Clone, Copy)]
struct Adj {
    net: u32,
    /// How many of the net's pins belong to the cell (a cell can appear as
    /// driver and sink, or as a repeated sink).
    mult: u32,
    other: u32,
}

/// Per-run placement state shared by the incremental and reference paths:
/// everything the move loop needs, prepared once before annealing starts.
struct PlacerState {
    assignment: Vec<(u32, u32)>,
    /// Primary-capacity demand per cell; `u64::MAX` marks a pinned
    /// multi-tile macro the annealer must not move.
    cell_demand: Vec<u64>,
    /// Site-list index (per [`kind_index`]) per cell, precomputed so the
    /// move loop never re-derives resource requirements.
    cell_kind: Vec<u8>,
    /// Each cell's current slot in [`Grid::free`], so capacity bookkeeping
    /// on accepted moves needs no coordinate-to-index arithmetic.
    cell_slot: Vec<u32>,
    /// Flattened adjacency: `adj_data[adj_off[c]..adj_off[c+1]]` are the
    /// nets touching cell `c`, net ids ascending.
    adj_off: Vec<u32>,
    adj_data: Vec<Adj>,
    /// Flat pin list per net (driver first, then sinks) via `pin_off`.
    pins: Vec<u32>,
    pin_off: Vec<u32>,
    /// Per-net bus-width weight, precomputed once.
    weights: Vec<f64>,
    /// Incremental state: bounding box and cached weighted HPWL per net,
    /// kept current for multi-pin nets only.
    boxes: Vec<NetBox>,
    cached: Vec<f64>,
}

impl PlacerState {
    fn net_pins(&self, ni: usize) -> &[u32] {
        &self.pins[self.pin_off[ni] as usize..self.pin_off[ni + 1] as usize]
    }
}

/// Adjacency index and flat pin lists. Pin occurrences are kept in the
/// net's declaration order (driver, then sinks) because the cost sums
/// add one term per occurrence; collapsing duplicates into a multiply
/// would change floating-point rounding versus the reference.
#[allow(clippy::type_complexity)]
fn build_net_index(netlist: &Netlist) -> (Vec<u32>, Vec<Adj>, Vec<u32>, Vec<u32>, Vec<f64>) {
    let n_nets = netlist.nets.len();
    let mut adj: Vec<Vec<Adj>> = vec![Vec::new(); netlist.cells.len()];
    let mut pins: Vec<u32> = Vec::new();
    let mut pin_off: Vec<u32> = Vec::with_capacity(n_nets + 1);
    pin_off.push(0);
    for (ni, net) in netlist.nets.iter().enumerate() {
        for c in std::iter::once(net.driver).chain(net.sinks.iter().copied()) {
            pins.push(c.0 as u32);
            let v = &mut adj[c.0];
            match v.last_mut() {
                Some(a) if a.net == ni as u32 => a.mult += 1,
                _ => v.push(Adj {
                    net: ni as u32,
                    mult: 1,
                    other: u32::MAX,
                }),
            }
        }
        // Mark two-pin nets on distinct cells for the fast path.
        let np = &pins[pin_off[ni] as usize..];
        if let &[a, b] = np {
            if a != b {
                adj[a as usize].last_mut().unwrap().other = b;
                adj[b as usize].last_mut().unwrap().other = a;
            }
        }
        pin_off.push(pins.len() as u32);
    }
    let mut adj_off: Vec<u32> = Vec::with_capacity(netlist.cells.len() + 1);
    let mut adj_data: Vec<Adj> = Vec::with_capacity(pins.len());
    adj_off.push(0);
    for v in &adj {
        adj_data.extend_from_slice(v);
        adj_off.push(adj_data.len() as u32);
    }
    let weights: Vec<f64> = netlist
        .nets
        .iter()
        .map(|n| 1.0 + (n.width as f64).log2() / 8.0)
        .collect();
    (adj_off, adj_data, pins, pin_off, weights)
}

/// Places `netlist` into `region` by simulated annealing.
///
/// # Errors
///
/// Returns [`PnrError::DoesNotFit`] if any resource class of the design
/// exceeds the region's capacity.
pub fn place(
    netlist: &Netlist,
    device: &Device,
    region: Rect,
    options: &PnrOptions,
) -> Result<Placement, PnrError> {
    anneal::<false>(netlist, device, region, options, None)
}

/// The pre-optimization placer: full per-net HPWL recompute on every move.
/// Kept as the ground truth the incremental path is A/B-tested against;
/// both paths share the proposal loop and RNG stream, so for any seed and
/// start state the outputs must be bit-identical.
#[cfg(test)]
pub(crate) fn place_reference(
    netlist: &Netlist,
    device: &Device,
    region: Rect,
    options: &PnrOptions,
    hint: Option<&PnrHints>,
) -> Result<Placement, PnrError> {
    anneal::<true>(netlist, device, region, options, hint)
}

/// Chebyshev radius of the candidate-site neighbourhood a warm start may
/// move a cell within. Unchanged cells start where the prior run left them,
/// so only local cleanup is needed; bounding the move space keeps
/// refinement cost proportional to the edit, not the page.
const LOCALITY_RADIUS: u32 = 6;

/// The annealer, cold (`hint: None`) or warm-started from a prior run.
///
/// A warm start replays matched single-tile cells at their prior
/// coordinates (cells are matched by [`cell_identities`]), then both starts
/// place the remaining cells greedily in cell order, so a cold start is a
/// warm start that replays nothing. What the hint changes is data:
///
/// * the RNG salt;
/// * the movable set — cold draws from every cell (a pinned multi-tile
///   macro is drawn and skipped), warm from the *dirty* cells only: the
///   greedily placed ones plus every movable cell sharing a net with one;
/// * the candidate sites — cold draws from every site of the cell's kind,
///   warm from those within `LOCALITY_RADIUS` (6 tiles) of its start;
/// * the schedule — warm starts at a tenth of the cold temperature and
///   cools faster.
///
/// `moves_evaluated` of a warm run therefore scales with the edit size, not
/// the design. The result is deterministic for a given (netlist, options,
/// hint) and independent of any parallelism in the surrounding build.
///
/// `REFERENCE` selects the full-recompute oracle (`place_reference`).
pub(crate) fn anneal<const REFERENCE: bool>(
    netlist: &Netlist,
    device: &Device,
    region: Rect,
    options: &PnrOptions,
    hint: Option<&PnrHints>,
) -> Result<Placement, PnrError> {
    let (salt, t0_per_net, cooling) = match hint {
        None => (0x706c_6163, 2.0, 0.88),
        Some(_) => (0x706c_6163 ^ 0x7761_726d, 0.2, 0.8),
    };
    let mut rng = StdRng::seed_from_u64(options.seed ^ salt);
    let (mut grid, site_lists) = survey(device, region);

    // Feasibility check per resource class.
    let demand = netlist.resources();
    let capacity = device.region_resources(&region);
    if !demand.fits_in(&capacity) {
        return Err(PnrError::DoesNotFit {
            what: format!("demand {demand} exceeds region capacity {capacity}"),
        });
    }

    let n_cells = netlist.cells.len();
    let mut assignment = vec![(0u32, 0u32); n_cells];
    let mut cell_demand = vec![0u64; n_cells];
    let mut cell_kind = vec![0u8; n_cells];
    let mut cell_slot = vec![0u32; n_cells];
    let mut seeded = vec![false; n_cells];

    // Replay: matched single-tile cells go back to their prior coordinates
    // when the slot is still the right kind and has capacity. The prior
    // assignment was legal and matching is injective, so replay conflicts
    // only arise against cells placed greedily below — checked per slot.
    let matched = hint.map(|h| match_prior(&cell_identities(netlist), &h.cell_ids, &h.assignment));
    for (i, cell) in netlist.cells.iter().enumerate() {
        let (kind, amount) = site_requirements(&cell.kind);
        cell_demand[i] = amount;
        cell_kind[i] = kind_index(kind) as u8;
        if amount > tile_capacity(kind) {
            continue; // multi-tile macro: greedy pass
        }
        let Some((x, y)) = matched.as_ref().and_then(|m| m[i]) else {
            continue;
        };
        if !region.contains(x, y) || device.is_reserved_col(x) || device.columns[x as usize] != kind
        {
            continue;
        }
        let slot = Grid::local_index(&region, x, y) as u32;
        if grid.free_slot(slot) < amount {
            continue;
        }
        grid.take_slot(slot, amount);
        assignment[i] = (x, y);
        cell_slot[i] = slot;
        seeded[i] = true;
    }

    // Greedy placement of everything the replay did not seat: scan sites of
    // the right kind from a random start.
    let mut greedy: Vec<u32> = Vec::new();
    for (i, cell) in netlist.cells.iter().enumerate() {
        if seeded[i] {
            continue;
        }
        let (kind, amount) = site_requirements(&cell.kind);
        let sites = &site_lists[kind_index(kind)];
        if sites.is_empty() {
            return Err(PnrError::DoesNotFit {
                what: format!("region has no {kind:?} sites for cell `{}`", cell.name),
            });
        }
        let start = rng.gen_range(0..sites.len());
        if amount <= tile_capacity(kind) {
            let mut placed = false;
            for probe in 0..sites.len() {
                let s = sites[(start + probe) % sites.len()];
                if grid.free_slot(s.slot) >= amount {
                    grid.take_slot(s.slot, amount);
                    assignment[i] = (s.x, s.y);
                    cell_slot[i] = s.slot;
                    placed = true;
                    break;
                }
            }
            if !placed {
                return Err(PnrError::DoesNotFit {
                    what: format!("no site with {amount} free units for cell `{}`", cell.name),
                });
            }
            greedy.push(i as u32);
        } else {
            // A macro wider than one tile (iterative dividers, the leaf
            // interface, wide unrolled datapaths) spreads across several
            // sites; its primary coordinate anchors timing and wiring, and
            // the annealer leaves it pinned.
            let mut remaining = amount;
            let mut anchor = None;
            for probe in 0..sites.len() {
                let s = sites[(start + probe) % sites.len()];
                let free = grid.free_slot(s.slot);
                if free == 0 {
                    continue;
                }
                let take = free.min(remaining);
                grid.take_slot(s.slot, take);
                if anchor.is_none() {
                    anchor = Some((s.x, s.y));
                    cell_slot[i] = s.slot;
                }
                remaining -= take;
                if remaining == 0 {
                    break;
                }
            }
            match anchor {
                Some(a) if remaining == 0 => assignment[i] = a,
                _ => {
                    return Err(PnrError::DoesNotFit {
                        what: format!(
                            "multi-tile cell `{}` needs {amount} units, {remaining} unplaced",
                            cell.name
                        ),
                    })
                }
            }
            // Multi-tile cells never move: mark them pinned.
            cell_demand[i] = u64::MAX;
        }
    }

    let n_nets = netlist.nets.len();
    let (adj_off, adj_data, pins, pin_off, weights) = build_net_index(netlist);
    let mut st = PlacerState {
        assignment,
        cell_demand,
        cell_kind,
        cell_slot,
        adj_off,
        adj_data,
        pins,
        pin_off,
        weights,
        boxes: Vec::with_capacity(n_nets),
        cached: Vec::with_capacity(n_nets),
    };

    // Initial boxes, cached HPWLs, and total cost — summed in net order,
    // matching the reference's `Iterator::sum` over `net_hpwl`.
    let mut cost = 0.0f64;
    for ni in 0..n_nets {
        let b = NetBox::scan(st.net_pins(ni), &st.assignment, u32::MAX, (0, 0));
        let h = b.hpwl(st.weights[ni]);
        st.boxes.push(b);
        st.cached.push(h);
        cost += h;
    }

    // The movable set and each movable cell's candidate sites. A pinned
    // macro's empty list makes the move loop skip it before the site draw.
    let (movable, local) = match hint {
        None => ((0..n_cells as u32).collect(), Vec::new()),
        Some(_) => {
            let movable = dirty_frontier(&st, greedy);
            let local: Vec<Vec<Site>> = movable
                .iter()
                .map(|&c| {
                    let (cx, cy) = st.assignment[c as usize];
                    site_lists[st.cell_kind[c as usize] as usize]
                        .iter()
                        .filter(|s| {
                            s.x.abs_diff(cx) <= LOCALITY_RADIUS
                                && s.y.abs_diff(cy) <= LOCALITY_RADIUS
                        })
                        .copied()
                        .collect()
                })
                .collect();
            (movable, local)
        }
    };
    let candidates: Vec<&[Site]> = match hint {
        None => movable
            .iter()
            .map(|&c| match st.cell_demand[c as usize] {
                u64::MAX => &[][..],
                _ => &site_lists[st.cell_kind[c as usize] as usize][..],
            })
            .collect(),
        Some(_) => local.iter().map(Vec::as_slice).collect(),
    };
    // Annealing schedule: effort scales superlinearly with the movable cell
    // count, the behaviour Sec. 2.2 attributes to production placers.
    // Without the abstract shell the placer drags the whole device context
    // through every temperature step (Sec. 4.1), modelled as a context sweep
    // per step.
    let n_movable = movable.len().max(2);
    let moves_per_temp = ((n_movable as f64).powf(4.0 / 3.0) * 8.0 * options.effort).ceil() as u64;
    let context_tiles = if options.abstract_shell {
        0u64
    } else {
        (device.width * device.height) as u64
    };

    let schedule = Schedule {
        moves_per_temp,
        context_tiles,
        t0: (cost / n_nets.max(1) as f64).max(1.0) * t0_per_net,
        cooling,
    };
    let (cost, moves_evaluated) = if REFERENCE {
        reference_moves(
            netlist,
            &mut st,
            &mut grid,
            &mut rng,
            &movable,
            &candidates,
            &schedule,
            cost,
        )
    } else {
        cell_major_moves(
            &mut st,
            &mut grid,
            &mut rng,
            &movable,
            &candidates,
            &schedule,
            cost,
        )
    };

    Ok(Placement {
        assignment: st.assignment,
        cost: cost.max(0.0),
        moves_evaluated,
    })
}

/// The annealing schedule: `moves_per_temp` proposals per temperature step,
/// `context_tiles` charged per step, cooling from `t0` by `cooling` until
/// the temperature falls to [`MIN_TEMP`].
struct Schedule {
    moves_per_temp: u64,
    context_tiles: u64,
    t0: f64,
    cooling: f64,
}

/// The temperature at which annealing stops.
const MIN_TEMP: f64 = 0.005;

/// The reference move loop: every move rescans every pin of every net the
/// moved cell touches, before and after a trial mutation of the assignment.
/// Returns the final cost and the moves evaluated.
#[allow(clippy::too_many_arguments)]
fn reference_moves(
    netlist: &Netlist,
    st: &mut PlacerState,
    grid: &mut Grid,
    rng: &mut StdRng,
    movable: &[u32],
    candidates: &[&[Site]],
    schedule: &Schedule,
    mut cost: f64,
) -> (f64, u64) {
    let mut moves_evaluated = 0u64;
    let mut temperature = schedule.t0;
    // An empty movable set (an empty netlist, or an edit that dirtied
    // nothing) skips annealing.
    while !movable.is_empty() && temperature > MIN_TEMP {
        for _ in 0..schedule.moves_per_temp {
            moves_evaluated += 1;
            let mi = draw_index(rng, movable.len());
            let cell = movable[mi] as usize;
            let sites = candidates[mi];
            if sites.is_empty() {
                continue; // pinned macro, or no site nearby
            }
            let amount = st.cell_demand[cell];
            let s = sites[draw_index(rng, sites.len())];
            let (nx, ny) = (s.x, s.y);
            let (ox, oy) = st.assignment[cell];
            if (nx, ny) == (ox, oy) || grid.free_slot(s.slot) < amount {
                continue;
            }
            let entries = st.adj_off[cell] as usize..st.adj_off[cell + 1] as usize;
            let mut before = 0.0f64;
            for i in entries.clone() {
                let a = st.adj_data[i];
                for _ in 0..a.mult {
                    before += net_hpwl(&st.assignment, &netlist.nets[a.net as usize]);
                }
            }
            st.assignment[cell] = (nx, ny);
            let mut after = 0.0f64;
            for i in entries {
                let a = st.adj_data[i];
                for _ in 0..a.mult {
                    after += net_hpwl(&st.assignment, &netlist.nets[a.net as usize]);
                }
            }
            let delta = after - before;
            // Uphill moves beyond the cutoff have acceptance probability
            // below exp(-UPHILL_CUTOFF) ~ 2e-9: reject outright and skip
            // both the exp and the acceptance draw.
            let accept = delta <= 0.0
                || (delta < temperature * UPHILL_CUTOFF
                    && rng.gen::<f64>() < (-delta / temperature).exp());
            if accept {
                grid.give_slot(st.cell_slot[cell], amount);
                grid.take_slot(s.slot, amount);
                st.cell_slot[cell] = s.slot;
                cost += delta;
            } else {
                st.assignment[cell] = (ox, oy);
            }
        }
        // Full-context carry cost: touch every tile of the device once per
        // temperature step when the abstract shell is off.
        moves_evaluated += schedule.context_tiles;
        temperature *= schedule.cooling;
    }
    (cost, moves_evaluated)
}

/// Relative margin of the early reject's lower bound. It absorbs the
/// rounding of the f64 sums on both sides of the test: a cell with `k` nets
/// rounds its summed cost and its weight sum `W` by at most about
/// `(2k + 3)·2^-53` relative, far below this margin for any cell degree a
/// netlist can have.
const BOUND_MARGIN: f64 = 1e-9;

/// [`HotCell::bound`] states. A cell with a net that is not two-pin on two
/// distinct cells has no bound; a bounded cell's partner box and `bef` are
/// either current (`FRESH`) or must be re-taken at its next exact
/// evaluation (`STALE`).
const NO_BOUND: u8 = 0;
const STALE: u8 = 1;
const FRESH: u8 = 2;

/// One cell's hot record: everything a move of the cell reads before its
/// nets, in one place.
#[derive(Clone, Copy)]
struct HotCell {
    x: u32,
    y: u32,
    /// The cell's adjacency entries: `entries[lo..hi]`.
    lo: u32,
    hi: u32,
    /// Current slot in [`Grid::free`].
    slot: u32,
    /// Primary-capacity demand (saturated for pinned macros, which are
    /// never drawn).
    demand: u32,
    /// Bounding box of the cell's two-pin partners (`FRESH` only).
    min_x: u32,
    max_x: u32,
    min_y: u32,
    max_y: u32,
    /// Sum of the cell's net weights (bounded cells only).
    w: f64,
    /// The cell's summed cost at its current position, bit-identical to
    /// the exact path's `before` (`FRESH` only).
    bef: f64,
    bound: u8,
}

impl HotCell {
    /// L1 distance from `(x, y)` to the partner box.
    fn box_distance(&self, x: u32, y: u32) -> u32 {
        x.saturating_sub(self.max_x)
            + self.min_x.saturating_sub(x)
            + y.saturating_sub(self.max_y)
            + self.min_y.saturating_sub(y)
    }
}

/// One adjacency entry of the cell-major state, in net order.
#[derive(Clone, Copy)]
struct Entry {
    /// The net's bus-width weight.
    w: f64,
    /// Two-pin entries: the partner's coordinates, rewritten through
    /// `link` whenever the partner moves.
    px: u32,
    py: u32,
    /// Two-pin entries: the index of the partner's entry for the same net
    /// (its mirror). Multi-pin entries: the net id.
    link: u32,
    /// The net's pins on this cell; `0` marks a two-pin entry.
    mult: u32,
}

/// The cell's two-pin cost with the cell at `(x, y)`: one term per entry,
/// summed in entry order — the exact path's summation order.
fn two_pin_cost(entries: &[Entry], x: u32, y: u32) -> f64 {
    let mut sum = 0.0f64;
    for e in entries {
        sum += (x.abs_diff(e.px) + y.abs_diff(e.py)) as f64 * e.w;
    }
    sum
}

/// Builds the cell-major state: one [`HotCell`] per cell, the adjacency
/// entries, and each entry's owning cell.
fn cell_major(st: &PlacerState) -> (Vec<HotCell>, Vec<Entry>, Vec<u32>) {
    let n_cells = st.assignment.len();
    let mut cells = Vec::with_capacity(n_cells);
    let mut entries = Vec::with_capacity(st.adj_data.len());
    let mut owner = Vec::with_capacity(st.adj_data.len());
    for c in 0..n_cells {
        let (lo, hi) = (st.adj_off[c], st.adj_off[c + 1]);
        let mut w = 0.0f64;
        let mut bound = if lo < hi { STALE } else { NO_BOUND };
        for a in &st.adj_data[lo as usize..hi as usize] {
            let weight = st.weights[a.net as usize];
            w += weight;
            // `W·D` bounds the cost from below only over non-negative
            // weights (a zero-width bus has weight -inf).
            if weight < 0.0 {
                bound = NO_BOUND;
            }
            entries.push(if a.other == u32::MAX {
                bound = NO_BOUND;
                Entry {
                    w: weight,
                    px: 0,
                    py: 0,
                    link: a.net,
                    mult: a.mult,
                }
            } else {
                let p = a.other as usize;
                let (plo, phi) = (st.adj_off[p] as usize, st.adj_off[p + 1] as usize);
                let k = st.adj_data[plo..phi].partition_point(|b| b.net < a.net);
                let (px, py) = st.assignment[p];
                Entry {
                    w: weight,
                    px,
                    py,
                    link: (plo + k) as u32,
                    mult: 0,
                }
            });
            owner.push(c as u32);
        }
        let (x, y) = st.assignment[c];
        cells.push(HotCell {
            x,
            y,
            lo,
            hi,
            slot: st.cell_slot[c],
            demand: u32::try_from(st.cell_demand[c]).unwrap_or(u32::MAX),
            min_x: 0,
            max_x: 0,
            min_y: 0,
            max_y: 0,
            w,
            bef: 0.0,
            bound,
        });
    }
    (cells, entries, owner)
}

/// The incremental move loop over the cell-major state. Returns the final
/// cost and the moves evaluated, bit-identical to [`reference_moves`].
///
/// Two-pin nets read the partner's coordinates from the entry itself;
/// multi-pin nets shift their [`NetBox`]. Once the bound is on, a move of a
/// `FRESH` cell to a site at L1 distance `D` from its partner box is
/// rejected before any net is summed when `W·D·(1−η) − bef ≥
/// T·UPHILL_CUTOFF·(1+η)`: every partner is at least `D` away, so the
/// exact delta would reach the cutoff, and a cutoff rejection draws no
/// random. The bound switches on after the first temperature step in which
/// at least half the moves were cutoff rejections; before that, mostly
/// accepted moves would pay for bookkeeping that rejects nothing.
fn cell_major_moves(
    st: &mut PlacerState,
    grid: &mut Grid,
    rng: &mut StdRng,
    movable: &[u32],
    candidates: &[&[Site]],
    schedule: &Schedule,
    mut cost: f64,
) -> (f64, u64) {
    let (mut cells, mut entries, owner) = cell_major(st);
    // Multi-pin nets a move touches, hoisted out of the loop: steady-state
    // evaluation allocates nothing.
    let mut touched: Vec<(u32, NetBox, f64)> = Vec::with_capacity(8);
    let mut bound_on = false;
    let mut moves_evaluated = 0u64;
    let mut temperature = schedule.t0;
    while !movable.is_empty() && temperature > MIN_TEMP {
        let cutoff = temperature * UPHILL_CUTOFF;
        let reject_at = cutoff * (1.0 + BOUND_MARGIN);
        let mut cutoff_rejects = 0u64;
        for _ in 0..schedule.moves_per_temp {
            moves_evaluated += 1;
            let mi = draw_index(rng, movable.len());
            let ci = movable[mi] as usize;
            let sites = candidates[mi];
            if sites.is_empty() {
                continue; // pinned macro, or no site nearby
            }
            let s = sites[draw_index(rng, sites.len())];
            let (nx, ny) = (s.x, s.y);
            let c = cells[ci];
            if (nx, ny) == (c.x, c.y) || grid.free_slot(s.slot) < u64::from(c.demand) {
                continue;
            }
            let span = c.lo as usize..c.hi as usize;
            if c.bound == FRESH
                && c.w * c.box_distance(nx, ny) as f64 * (1.0 - BOUND_MARGIN) - c.bef >= reject_at
            {
                debug_assert!(
                    {
                        let before = two_pin_cost(&entries[span.clone()], c.x, c.y);
                        let after = two_pin_cost(&entries[span], nx, ny);
                        before.to_bits() == c.bef.to_bits() && after - before >= cutoff
                    },
                    "early reject of a move the exact path does not reject at the cutoff"
                );
                continue;
            }
            touched.clear();
            let (before, after) = if c.bound == NO_BOUND {
                let mut before = 0.0f64;
                let mut after = 0.0f64;
                for e in &entries[span.clone()] {
                    if e.mult == 0 {
                        // Two-pin net: HPWL is the Manhattan distance to
                        // the partner; no box bookkeeping.
                        before += (c.x.abs_diff(e.px) + c.y.abs_diff(e.py)) as f64 * e.w;
                        after += (nx.abs_diff(e.px) + ny.abs_diff(e.py)) as f64 * e.w;
                        continue;
                    }
                    let niu = e.link as usize;
                    let mut nb = st.boxes[niu];
                    let ok = nb.shift_x(c.x, nx, e.mult) && nb.shift_y(c.y, ny, e.mult);
                    if !ok {
                        nb = NetBox::scan(st.net_pins(niu), &st.assignment, ci as u32, (nx, ny));
                    }
                    let h = nb.hpwl(e.w);
                    // One term per pin occurrence, matching the reference's
                    // summation order bit for bit.
                    for _ in 0..e.mult {
                        before += st.cached[niu];
                        after += h;
                    }
                    touched.push((e.link, nb, h));
                }
                (before, after)
            } else {
                let es = &entries[span.clone()];
                let before = if c.bound == FRESH {
                    c.bef
                } else {
                    let before = two_pin_cost(es, c.x, c.y);
                    if bound_on {
                        // Re-take the box and `bef` as a by-product.
                        let hc = &mut cells[ci];
                        hc.min_x = es.iter().map(|e| e.px).min().unwrap_or(0);
                        hc.max_x = es.iter().map(|e| e.px).max().unwrap_or(0);
                        hc.min_y = es.iter().map(|e| e.py).min().unwrap_or(0);
                        hc.max_y = es.iter().map(|e| e.py).max().unwrap_or(0);
                        hc.bef = before;
                        hc.bound = FRESH;
                    }
                    before
                };
                (before, two_pin_cost(es, nx, ny))
            };
            let delta = after - before;
            // Uphill moves beyond the cutoff have acceptance probability
            // below exp(-UPHILL_CUTOFF) ~ 2e-9: reject outright and skip
            // both the exp and the acceptance draw.
            let accept = if delta <= 0.0 {
                true
            } else if delta < cutoff {
                rng.gen::<f64>() < (-delta / temperature).exp()
            } else {
                cutoff_rejects += 1;
                false
            };
            if !accept {
                continue;
            }
            grid.give_slot(c.slot, u64::from(c.demand));
            grid.take_slot(s.slot, u64::from(c.demand));
            cost += delta;
            st.assignment[ci] = (nx, ny);
            for k in span {
                let e = entries[k];
                if e.mult != 0 {
                    continue;
                }
                let m = e.link as usize;
                entries[m].px = nx;
                entries[m].py = ny;
                if bound_on {
                    let p = &mut cells[owner[m] as usize].bound;
                    *p = (*p).min(STALE);
                }
            }
            for &(ni, nb, h) in &touched {
                st.boxes[ni as usize] = nb;
                st.cached[ni as usize] = h;
            }
            // The partner box is unchanged and `after` is the summed cost
            // at the new position, so a fresh cell stays fresh.
            let hc = &mut cells[ci];
            hc.x = nx;
            hc.y = ny;
            hc.slot = s.slot;
            hc.bef = after;
        }
        if !bound_on && 2 * cutoff_rejects >= schedule.moves_per_temp {
            bound_on = true;
        }
        // Full-context carry cost: touch every tile of the device once per
        // temperature step when the abstract shell is off.
        moves_evaluated += schedule.context_tiles;
        temperature *= schedule.cooling;
    }
    (cost, moves_evaluated)
}

/// The warm start's movable set: the greedily placed cells plus every
/// movable cell sharing a net with one, pinned macros excluded, ascending.
fn dirty_frontier(st: &PlacerState, mut dirty: Vec<u32>) -> Vec<u32> {
    let mut in_dirty = vec![false; st.assignment.len()];
    for &c in &dirty {
        in_dirty[c as usize] = true;
    }
    for k in 0..dirty.len() {
        let c = dirty[k] as usize;
        for a in &st.adj_data[st.adj_off[c] as usize..st.adj_off[c + 1] as usize] {
            for &p in st.net_pins(a.net as usize) {
                if !in_dirty[p as usize] && st.cell_demand[p as usize] != u64::MAX {
                    in_dirty[p as usize] = true;
                    dirty.push(p);
                }
            }
        }
    }
    dirty.sort_unstable();
    dirty
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::CellKind;

    fn small_netlist() -> Netlist {
        let mut nl = Netlist::new("t");
        let a = nl.add_cell("a", CellKind::StreamIn { width: 32 });
        let b = nl.add_cell("b", CellKind::Adder { width: 32 });
        let c = nl.add_cell("c", CellKind::Mult { width: 18 });
        let d = nl.add_cell("d", CellKind::BramPort { bits: 4096 });
        let e = nl.add_cell("e", CellKind::StreamOut { width: 32 });
        nl.add_net(a, vec![b], 32);
        nl.add_net(b, vec![c, d], 32);
        nl.add_net(c, vec![e], 32);
        nl.add_net(d, vec![e], 32);
        nl
    }

    fn page() -> (Device, Rect) {
        let fp = fabric::Floorplan::u50();
        (fp.device, fp.pages[0].rect)
    }

    #[test]
    fn placement_is_legal() {
        let (device, region) = page();
        let nl = small_netlist();
        let p = place(&nl, &device, region, &PnrOptions::default()).unwrap();
        // Every cell inside the region, on a tile of its kind.
        for (i, &(x, y)) in p.assignment.iter().enumerate() {
            assert!(
                region.contains(x, y),
                "cell {i} at ({x},{y}) outside region"
            );
            let (want, _) = site_requirements(&nl.cells[i].kind);
            assert_eq!(device.columns[x as usize], want, "cell {i}");
        }
    }

    #[test]
    fn capacity_respected_per_tile() {
        let (device, region) = page();
        let nl = small_netlist();
        let p = place(&nl, &device, region, &PnrOptions::default()).unwrap();
        let mut used: std::collections::HashMap<(u32, u32), u64> = Default::default();
        for (i, &(x, y)) in p.assignment.iter().enumerate() {
            let (_, amount) = site_requirements(&nl.cells[i].kind);
            *used.entry((x, y)).or_default() += amount;
        }
        for ((x, _y), amount) in used {
            let cap = tile_capacity(device.columns[x as usize]);
            assert!(amount <= cap, "tile overloaded: {amount} > {cap}");
        }
    }

    #[test]
    fn annealing_reduces_cost_vs_random_start() {
        // Build a chain: optimal placement keeps neighbours adjacent, so the
        // final cost must be far below a spread-out random placement's cost.
        let mut nl = Netlist::new("chain");
        let mut prev = nl.add_cell("c0", CellKind::Adder { width: 8 });
        for i in 1..60 {
            let c = nl.add_cell(format!("c{i}"), CellKind::Adder { width: 8 });
            nl.add_net(prev, vec![c], 8);
            prev = c;
        }
        let (device, region) = page();
        let p = place(&nl, &device, region, &PnrOptions::default()).unwrap();
        // 59 nets on a 10-tall page; a good placement keeps mean HPWL ~1-2.
        assert!(p.cost < 59.0 * 4.0, "cost {}", p.cost);
    }

    #[test]
    fn effort_scales_moves() {
        let (device, region) = page();
        let nl = small_netlist();
        let lo = place(
            &nl,
            &device,
            region,
            &PnrOptions {
                effort: 0.5,
                ..Default::default()
            },
        )
        .unwrap();
        let hi = place(
            &nl,
            &device,
            region,
            &PnrOptions {
                effort: 2.0,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(hi.moves_evaluated > lo.moves_evaluated);
    }

    #[test]
    fn no_abstract_shell_costs_more_work() {
        let (device, region) = page();
        let nl = small_netlist();
        let fast = place(&nl, &device, region, &PnrOptions::default()).unwrap();
        let slow = place(
            &nl,
            &device,
            region,
            &PnrOptions {
                abstract_shell: false,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(slow.moves_evaluated > fast.moves_evaluated * 2);
    }

    #[test]
    fn missing_site_kind_reported() {
        // A region with no DSP columns cannot host a multiplier.
        let device = Device::xcu50();
        let region = Rect::new(2, 0, 3, 10); // cols 2-4: CLB only
        let mut nl = Netlist::new("m");
        let a = nl.add_cell("a", CellKind::Mult { width: 32 });
        let b = nl.add_cell("b", CellKind::Register { width: 32 });
        nl.add_net(a, vec![b], 32);
        let err = place(&nl, &device, region, &PnrOptions::default()).unwrap_err();
        assert!(matches!(err, PnrError::DoesNotFit { .. }));
    }

    /// Random netlists for the A/B test, adversarial on purpose: repeated
    /// sinks, driver-as-sink self loops, wide fanout, mixed cell kinds.
    fn random_netlist(rng: &mut StdRng, n_cells: usize, n_nets: usize) -> Netlist {
        let mut nl = Netlist::new("rand");
        let mut ids = Vec::with_capacity(n_cells);
        for i in 0..n_cells {
            let kind = match rng.gen_range(0..5) {
                0 => CellKind::Adder { width: 32 },
                1 => CellKind::Mult { width: 18 },
                2 => CellKind::Register { width: 32 },
                3 => CellKind::BramPort { bits: 4096 },
                _ => CellKind::Logic { width: 16 },
            };
            ids.push(nl.add_cell(format!("c{i}"), kind));
        }
        for _ in 0..n_nets {
            let driver = ids[rng.gen_range(0..n_cells)];
            let n_sinks = 1 + rng.gen_range(0..4usize);
            let mut sinks = Vec::with_capacity(n_sinks);
            for _ in 0..n_sinks {
                sinks.push(ids[rng.gen_range(0..n_cells)]);
            }
            let width = 1u32 << rng.gen_range(0..7u32);
            nl.add_net(driver, sinks, width);
        }
        nl
    }

    #[test]
    fn incremental_matches_reference_bit_for_bit() {
        let (device, region) = page();
        let mut gen = StdRng::seed_from_u64(0xab);
        for case in 0..12u64 {
            let n_cells = 4 + (case as usize % 5) * 7;
            let nl = random_netlist(&mut gen, n_cells, n_cells * 2);
            let opts = PnrOptions {
                seed: case * 7 + 1,
                effort: 0.5,
                ..Default::default()
            };
            let fast = place(&nl, &device, region, &opts).unwrap();
            let slow = place_reference(&nl, &device, region, &opts, None).unwrap();
            assert_eq!(fast.assignment, slow.assignment, "case {case}");
            assert_eq!(
                fast.cost.to_bits(),
                slow.cost.to_bits(),
                "case {case}: {} vs {}",
                fast.cost,
                slow.cost
            );
            assert_eq!(fast.moves_evaluated, slow.moves_evaluated, "case {case}");
        }
    }

    /// The warm start's bookkeeping against the full recompute: a random
    /// netlist is placed cold, then a small edit of it (appended cells, one
    /// renamed cell) is annealed from that placement on both paths.
    #[test]
    fn warm_matches_reference_bit_for_bit() {
        let (device, region) = page();
        let mut gen = StdRng::seed_from_u64(0xcd);
        for case in 0..12u64 {
            let n_cells = 6 + (case as usize % 4) * 9;
            let base = random_netlist(&mut gen, n_cells, n_cells * 2);
            let opts = PnrOptions {
                seed: case * 5 + 3,
                effort: 0.5,
                ..Default::default()
            };
            let prior = place(&base, &device, region, &opts).unwrap();
            let hint = PnrHints {
                region,
                cell_ids: cell_identities(&base),
                assignment: prior.assignment,
                net_ids: Vec::new(),
                routes: Vec::new(),
                history: Vec::new(),
                wirelength: 0,
                fmax_mhz: 0.0,
                work_units: 0,
            };
            let mut edited = base.clone();
            edited.cells[case as usize % n_cells].name.push_str("_v2");
            for k in 0..1 + case as usize % 3 {
                let c = edited.add_cell(format!("e{k}"), CellKind::Adder { width: 16 });
                let driver = netlist::CellId(gen.gen_range(0..n_cells));
                edited.add_net(driver, vec![c], 1 << gen.gen_range(0..7u32));
            }
            let fast = anneal::<false>(&edited, &device, region, &opts, Some(&hint)).unwrap();
            let slow = place_reference(&edited, &device, region, &opts, Some(&hint)).unwrap();
            assert!(fast.moves_evaluated > 0, "case {case}: nothing annealed");
            assert_eq!(fast.assignment, slow.assignment, "case {case}");
            assert_eq!(fast.cost.to_bits(), slow.cost.to_bits(), "case {case}");
            assert_eq!(fast.moves_evaluated, slow.moves_evaluated, "case {case}");
        }
    }

    /// HLS-shaped netlists, where the early reject is live: a pipeline
    /// backbone of two-pin nets (cell degree 1–4), one hub with a fanout
    /// tail to ~12, a multi-pin net per eight cells with repeated pins, and
    /// `n_macros` pinned multi-tile macros. At least 80% of nets are
    /// two-pin.
    fn hls_netlist(seed: u64, n_cells: usize, n_macros: usize) -> Netlist {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut nl = Netlist::new("hls");
        let ids: Vec<_> = (0..n_cells)
            .map(|i| {
                let kind = match rng.gen_range(0..8) {
                    0 => CellKind::Mult { width: 18 },
                    1 => CellKind::BramPort { bits: 4096 },
                    2 | 3 => CellKind::Register { width: 32 },
                    4 => CellKind::Logic { width: 16 },
                    _ => CellKind::Adder { width: 32 },
                };
                nl.add_cell(format!("c{i}"), kind)
            })
            .collect();
        for i in 1..n_cells {
            let driver = i - 1 - rng.gen_range(0..i.min(3));
            nl.add_net(ids[driver], vec![ids[i]], 1 << rng.gen_range(0..6u32));
        }
        let hub = rng.gen_range(0..n_cells);
        for _ in 0..rng.gen_range(4..12) {
            let sink = rng.gen_range(0..n_cells);
            if sink != hub {
                nl.add_net(ids[hub], vec![ids[sink]], 1);
            }
        }
        for _ in 0..n_cells / 8 {
            // Sinks from a small window, so pins repeat (the driver too).
            let base = rng.gen_range(0..n_cells.saturating_sub(4).max(1));
            let sinks = (0..2 + rng.gen_range(0..3))
                .map(|_| ids[base + rng.gen_range(0..4.min(n_cells - base))])
                .collect();
            nl.add_net(ids[base], sinks, 32);
        }
        for k in 0..n_macros {
            let m = nl.add_cell(format!("m{k}"), CellKind::Logic { width: 800 });
            nl.add_net(m, vec![ids[rng.gen_range(0..n_cells)]], 32);
            nl.add_net(ids[rng.gen_range(0..n_cells)], vec![m], 32);
        }
        nl
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(12))]

        /// Cold and warm runs on HLS-shaped netlists at full effort, where
        /// most moves late in the schedule are early rejects, against the
        /// full recompute. The warm run starts from the cold result with
        /// every fifth hint coordinate shifted, so shifted cells that land
        /// off their column kind are placed greedily.
        #[test]
        fn hls_shaped_matches_reference_cold_and_warm(
            seed in proptest::prelude::any::<u64>(),
            n_cells in 8usize..48,
            n_macros in 0usize..3,
        ) {
            let (device, region) = page();
            let nl = hls_netlist(seed, n_cells, n_macros);
            let opts = PnrOptions {
                seed: seed >> 32,
                effort: 1.0,
                ..Default::default()
            };
            let fast = place(&nl, &device, region, &opts).unwrap();
            let slow = place_reference(&nl, &device, region, &opts, None).unwrap();
            proptest::prop_assert_eq!(&fast.assignment, &slow.assignment);
            proptest::prop_assert_eq!(fast.cost.to_bits(), slow.cost.to_bits());
            proptest::prop_assert_eq!(fast.moves_evaluated, slow.moves_evaluated);

            let mut prior = fast.assignment;
            for (x, y) in prior.iter_mut().step_by(5) {
                *x = (*x + 1).min(region.x0 + region.w - 1);
                *y = region.y0 + (*y - region.y0 + 2) % region.h;
            }
            let hint = PnrHints {
                region,
                cell_ids: cell_identities(&nl),
                assignment: prior,
                net_ids: Vec::new(),
                routes: Vec::new(),
                history: Vec::new(),
                wirelength: 0,
                fmax_mhz: 0.0,
                work_units: 0,
            };
            let fast = anneal::<false>(&nl, &device, region, &opts, Some(&hint)).unwrap();
            let slow = place_reference(&nl, &device, region, &opts, Some(&hint)).unwrap();
            proptest::prop_assert_eq!(&fast.assignment, &slow.assignment);
            proptest::prop_assert_eq!(fast.cost.to_bits(), slow.cost.to_bits());
            proptest::prop_assert_eq!(fast.moves_evaluated, slow.moves_evaluated);
        }
    }

    #[test]
    fn incremental_matches_reference_on_chain() {
        // The chain exercises long sequences of boundary-shrink rescans.
        let mut nl = Netlist::new("chain");
        let mut prev = nl.add_cell("c0", CellKind::Adder { width: 8 });
        for i in 1..40 {
            let c = nl.add_cell(format!("c{i}"), CellKind::Adder { width: 8 });
            nl.add_net(prev, vec![c], 8);
            prev = c;
        }
        let (device, region) = page();
        for seed in [1u64, 2, 99] {
            let opts = PnrOptions {
                seed,
                ..Default::default()
            };
            let fast = place(&nl, &device, region, &opts).unwrap();
            let slow = place_reference(&nl, &device, region, &opts, None).unwrap();
            assert_eq!(fast.assignment, slow.assignment, "seed {seed}");
            assert_eq!(fast.cost.to_bits(), slow.cost.to_bits(), "seed {seed}");
            assert_eq!(fast.moves_evaluated, slow.moves_evaluated);
        }
    }

    /// Assertion-free smoke measurement: prints the evaluated-moves-per-
    /// second rate so effort-accounting regressions are visible in test
    /// logs without making CI timing-sensitive.
    #[test]
    fn moves_per_sec_smoke() {
        let mut nl = Netlist::new("smoke");
        let mut prev = nl.add_cell("c0", CellKind::Adder { width: 32 });
        for i in 1..50 {
            let c = nl.add_cell(format!("c{i}"), CellKind::Adder { width: 32 });
            nl.add_net(prev, vec![c], 32);
            prev = c;
        }
        let (device, region) = page();
        let t0 = std::time::Instant::now();
        let p = place(&nl, &device, region, &PnrOptions::default()).unwrap();
        let secs = t0.elapsed().as_secs_f64().max(1e-9);
        println!(
            "placer smoke: {} moves in {:.3}s = {:.0} moves/sec",
            p.moves_evaluated,
            secs,
            p.moves_evaluated as f64 / secs
        );
    }
}
