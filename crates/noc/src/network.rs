//! The butterfly-fat-tree network: topology and cycle stepping.

use std::fmt;

use crate::leaf::{LeafInterface, PortAddr};
use crate::switch::{arbitrate, Flit, FlitKind};

/// Aggregate network statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NocStats {
    /// Data flits injected into the network.
    pub injected: u64,
    /// Data flits delivered to their destination port.
    pub delivered: u64,
    /// Configuration writes applied.
    pub config_writes: u64,
    /// Deflection events across all switches.
    pub deflections: u64,
    /// Sum of per-flit latencies (inject → deliver), in cycles.
    pub total_latency: u64,
    /// Worst single-flit latency.
    pub max_latency: u64,
}

/// Injection failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectError {
    /// The output stream has no destination configured.
    #[allow(missing_docs)]
    NotLinked { leaf: usize, stream: usize },
    /// The leaf's outgoing FIFO is full (backpressure).
    #[allow(missing_docs)]
    Backpressure { leaf: usize },
}

impl fmt::Display for InjectError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InjectError::NotLinked { leaf, stream } => {
                write!(
                    f,
                    "leaf {leaf} stream {stream} has no destination configured"
                )
            }
            InjectError::Backpressure { leaf } => {
                write!(f, "leaf {leaf} outgoing FIFO full")
            }
        }
    }
}

impl std::error::Error for InjectError {}

/// A cycle-level butterfly-fat-tree NoC with deflection-routed single-flit
/// packets (the paper's Hoplite BFT, Sec. 4.3).
///
/// Stepping cost is proportional to the number of flits in flight, not the
/// number of switches: occupancy lists (`up_occ`/`down_occ`, plus
/// `queued_leaves` for pending injections) identify exactly the switches
/// and leaves with work each cycle, so an idle or lightly-loaded network of
/// thousands of leaves steps in near-constant time while producing
/// cycle-for-cycle identical behavior to the dense sweep.
#[derive(Debug)]
pub struct BftNoc {
    n_leaves: usize,
    levels: usize,
    leaves: Vec<LeafInterface>,
    /// `up[l][i]`: flit in flight upward from node `i` of level `l`.
    up: Vec<Vec<Option<Flit>>>,
    /// `down[l][i]`: flit in flight downward to node `i` of level `l`.
    down: Vec<Vec<Option<Flit>>>,
    /// Occupied indices of `up[l]` / `down[l]`, duplicate-free.
    up_occ: Vec<Vec<usize>>,
    down_occ: Vec<Vec<usize>>,
    /// Double-buffer scratch reused across steps; all-`None` (and for the
    /// occupancy lists, all-empty) between calls.
    up_next: Vec<Vec<Option<Flit>>>,
    down_next: Vec<Vec<Option<Flit>>>,
    up_occ_next: Vec<Vec<usize>>,
    down_occ_next: Vec<Vec<usize>>,
    /// Leaves whose out FIFO is non-empty, duplicate-free (`has_queued` is
    /// the membership bitmap).
    queued_leaves: Vec<usize>,
    has_queued: Vec<bool>,
    /// Flits inside the tree (sum of occupancy list lengths).
    tree_flits: usize,
    /// Flits waiting in leaf out FIFOs.
    queued_flits: usize,
    /// Per-step scratch for active switch / leaf index sets.
    active: Vec<usize>,
    inputs_scratch: Vec<Flit>,
    cycle: u64,
    stats: NocStats,
}

impl BftNoc {
    /// Creates a network for `clients` leaves (rounded up to a power of two),
    /// each leaf with `ports` output streams / input ports and an output
    /// FIFO of `queue_depth` flits.
    ///
    /// # Panics
    ///
    /// Panics if `clients < 2`.
    pub fn new(clients: usize, ports: usize, queue_depth: usize) -> BftNoc {
        assert!(clients >= 2, "a linking network needs at least two clients");
        let n_leaves = clients.next_power_of_two();
        let levels = n_leaves.trailing_zeros() as usize;
        let slots = || -> Vec<Vec<Option<Flit>>> {
            (0..levels).map(|l| vec![None; n_leaves >> l]).collect()
        };
        let occ = || -> Vec<Vec<usize>> { (0..levels).map(|_| Vec::new()).collect() };
        BftNoc {
            n_leaves,
            levels,
            leaves: (0..n_leaves)
                .map(|_| LeafInterface::new(ports, ports, queue_depth))
                .collect(),
            up: slots(),
            down: slots(),
            up_next: slots(),
            down_next: slots(),
            up_occ: occ(),
            down_occ: occ(),
            up_occ_next: occ(),
            down_occ_next: occ(),
            queued_leaves: Vec::new(),
            has_queued: vec![false; n_leaves],
            tree_flits: 0,
            queued_flits: 0,
            active: Vec::new(),
            inputs_scratch: Vec::with_capacity(3),
            cycle: 0,
            stats: NocStats::default(),
        }
    }

    /// Records that `leaf`'s out FIFO gained a flit.
    fn note_queued(&mut self, leaf: usize) {
        self.queued_flits += 1;
        if !self.has_queued[leaf] {
            self.has_queued[leaf] = true;
            self.queued_leaves.push(leaf);
        }
    }

    /// Number of leaves (power of two).
    pub fn leaf_count(&self) -> usize {
        self.n_leaves
    }

    /// Current cycle.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Statistics so far.
    pub fn stats(&self) -> NocStats {
        self.stats
    }

    /// Immutable access to a leaf interface.
    pub fn leaf(&self, leaf: usize) -> &LeafInterface {
        &self.leaves[leaf]
    }

    /// Directly writes a leaf's destination register (loader-side linking).
    pub fn set_dest(&mut self, leaf: usize, stream: usize, addr: PortAddr) {
        self.leaves[leaf].set_dest(stream, addr);
    }

    /// Tears down one stream's route, leaving every other register intact —
    /// the unlink half of the paper's re-linking story, used when a page's
    /// tenant is evicted or hot-swapped.
    pub fn clear_dest(&mut self, leaf: usize, stream: usize) {
        self.leaves[leaf].clear_dest(stream);
    }

    /// Sends an in-band configuration packet from `src_leaf` that, on
    /// delivery, points `dest_leaf`'s register `reg` at `addr` — the paper's
    /// "few packets per page to link it into the network".
    ///
    /// # Errors
    ///
    /// Returns [`InjectError::Backpressure`] when the source FIFO is full.
    pub fn send_config(
        &mut self,
        src_leaf: usize,
        dest_leaf: u16,
        reg: u8,
        addr: PortAddr,
    ) -> Result<(), InjectError> {
        let flit = Flit {
            dest_leaf,
            dest_port: reg,
            src_leaf: src_leaf as u16,
            seq: 0, // config writes apply on arrival; the loader orders them
            payload: addr.encode(),
            kind: FlitKind::Config,
            birth: self.cycle,
        };
        if !self.leaves[src_leaf].out_queue.try_push(flit) {
            return Err(InjectError::Backpressure { leaf: src_leaf });
        }
        self.note_queued(src_leaf);
        Ok(())
    }

    /// Injects one data word from `leaf`'s output `stream`.
    ///
    /// The lookup/stamp work happens inside the leaf interface
    /// ([`LeafInterface::inject_local`]); this wrapper immediately folds the
    /// new flit into the network's global bookkeeping.
    ///
    /// # Errors
    ///
    /// See [`InjectError`].
    pub fn inject(&mut self, leaf: usize, stream: usize, word: u32) -> Result<(), InjectError> {
        let now = self.cycle;
        self.leaves[leaf].inject_local(leaf, stream, word, now)?;
        self.commit_injections(leaf);
        Ok(())
    }

    /// Folds flits injected locally into `leaf` (via
    /// [`LeafInterface::inject_local`] through [`leaf_mut`](Self::leaf_mut))
    /// into the global scheduler bookkeeping: queued-flit counts, the
    /// queued-leaf set, and injection stats. The windowed cosim engine
    /// calls this at each barrier, in ascending leaf order. Idempotent when
    /// nothing is pending.
    pub fn commit_injections(&mut self, leaf: usize) {
        let n = self.leaves[leaf].take_pending_injects();
        if n > 0 {
            self.stats.injected += n as u64;
            self.queued_flits += n as usize;
            if !self.has_queued[leaf] {
                self.has_queued[leaf] = true;
                self.queued_leaves.push(leaf);
            }
        }
    }

    /// Exclusive access to the leaf interface at `leaf`, for the cosim
    /// engine's in-window execution. Local injections made through it must
    /// be folded in with [`commit_injections`](Self::commit_injections)
    /// before the next [`step`](Self::step).
    pub fn leaf_mut(&mut self, leaf: usize) -> &mut LeafInterface {
        &mut self.leaves[leaf]
    }

    /// Pops a delivered word from `leaf`'s input `port`.
    pub fn try_recv(&mut self, leaf: usize, port: u8) -> Option<u32> {
        self.leaves[leaf].try_recv(port)
    }

    /// Words pending on `leaf`'s input `port`.
    pub fn pending(&self, leaf: usize, port: u8) -> usize {
        self.leaves[leaf].pending(port)
    }

    /// Monotone count of data deliveries into `leaf`'s input ports. While
    /// this is unchanged, no `pending` count on the leaf can have grown.
    pub fn rx_events(&self, leaf: usize) -> u64 {
        self.leaves[leaf].rx_seq
    }

    /// Monotone count of uplink slots freed from `leaf`'s out FIFO. While
    /// this is unchanged, a full out FIFO is still full.
    pub fn tx_events(&self, leaf: usize) -> u64 {
        self.leaves[leaf].tx_seq
    }

    /// Whether any flit is still in flight inside the tree.
    pub fn in_flight(&self) -> bool {
        self.tree_flits > 0 || self.queued_flits > 0
    }

    /// Flits currently anywhere in the network: tree slots plus leaf out
    /// FIFOs.
    pub fn active_flits(&self) -> usize {
        self.tree_flits + self.queued_flits
    }

    /// Flits currently inside the switch tree (excluding leaf out FIFOs).
    pub fn tree_flits(&self) -> usize {
        self.tree_flits
    }

    /// Earliest birth cycle among the flits at the front of any leaf's out
    /// FIFO (`None` when nothing is queued). Injection order makes each
    /// front flit its leaf's earliest, so this is the next cycle at which
    /// any queued flit can possibly enter the tree — with an empty tree,
    /// every step before it is a no-op.
    pub fn next_ripe_birth(&self) -> Option<u64> {
        self.queued_leaves
            .iter()
            .filter_map(|&i| self.leaves[i].out_queue.peek().map(|f| f.birth))
            .min()
    }

    /// Whether no queued flit is eligible for uplink entry this cycle —
    /// either nothing is queued, or every front flit is future-born
    /// (cosim windows stamp flits with the injecting core's local
    /// cycle, which may run ahead of the network clock).
    fn no_ripe_queued(&self) -> bool {
        self.queued_flits == 0 || self.next_ripe_birth().is_none_or(|b| b > self.cycle)
    }

    /// Advances the clock by `n` cycles without stepping. Exact only while
    /// every skipped [`step`](Self::step) would have been a no-op: the
    /// switch tree is empty and no queued flit ripens before the target
    /// cycle (debug-asserted). The cosim driver uses this to jump its loop
    /// clock over idle stretches, so that flit birth cycles (stamped in
    /// loop time) stay comparable with the network clock that gates uplink
    /// entry.
    pub fn skip_idle_cycles(&mut self, n: u64) {
        debug_assert!(
            self.tree_flits == 0
                && self
                    .next_ripe_birth()
                    .is_none_or(|b| b >= self.cycle.saturating_add(n)),
            "idle clock skip over a movable flit"
        );
        self.cycle += n;
    }

    /// Advances the network by one clock cycle.
    ///
    /// Only switches with at least one input flit and leaves with incoming
    /// or queued traffic are visited; an idle network advances in O(1). The
    /// flit movement itself is identical to a dense sweep over every switch,
    /// because a switch with no inputs produces no outputs.
    pub fn step(&mut self) {
        // Unripe queued flits (birth in the future) cannot pop this cycle,
        // so for fast-path purposes they are as good as absent.
        if self.tree_flits == 0 && self.no_ripe_queued() {
            self.cycle += 1;
            return;
        }
        // A lone flit with no poppable out FIFOs — the dominant busy case
        // on a lightly loaded tree — moves one uncontended hop without the
        // full sweep machinery.
        if self.tree_flits == 1 && self.no_ripe_queued() && self.levels > 0 {
            self.step_single_flit();
            self.cycle += 1;
            return;
        }
        let levels = self.levels;
        let mut next_up = std::mem::take(&mut self.up_next);
        let mut next_down = std::mem::take(&mut self.down_next);
        let mut next_up_occ = std::mem::take(&mut self.up_occ_next);
        let mut next_down_occ = std::mem::take(&mut self.down_occ_next);
        let mut active = std::mem::take(&mut self.active);

        // Switches: level-l switch index s has children at level l-1 nodes
        // (2s, 2s+1); its own "node index" at level l is s. The switch at
        // the top (l == levels) is the root.
        let mut inputs = std::mem::take(&mut self.inputs_scratch);
        for l in 1..=levels {
            // A level with no upward or downward flits has no active
            // switches — skip the set construction entirely.
            if self.up_occ[l - 1].is_empty() && (l == levels || self.down_occ[l].is_empty()) {
                continue;
            }
            active.clear();
            for &i in &self.up_occ[l - 1] {
                active.push(i / 2);
            }
            if l < levels {
                active.extend_from_slice(&self.down_occ[l]);
            }
            // Lightly-loaded cycles have one or two active switches; the
            // sort machinery costs more than it saves there.
            if active.len() > 1 {
                active.sort_unstable();
                active.dedup();
            }
            for &s in &active {
                if let Some(f) = self.up[l - 1][2 * s] {
                    inputs.push(f);
                }
                if let Some(f) = self.up[l - 1][2 * s + 1] {
                    inputs.push(f);
                }
                if l < levels {
                    if let Some(f) = self.down[l][s] {
                        inputs.push(f);
                    }
                }
                let lo = (s << l) as u16;
                let hi = ((s + 1) << l) as u16;
                let mid = lo + (1u16 << (l - 1));
                let has_up = l < levels;
                let (out, deflections) = arbitrate(&mut inputs, (lo, hi), mid, has_up);
                self.stats.deflections += deflections as u64;
                if out[0].is_some() {
                    next_down[l - 1][2 * s] = out[0];
                    next_down_occ[l - 1].push(2 * s);
                }
                if out[1].is_some() {
                    next_down[l - 1][2 * s + 1] = out[1];
                    next_down_occ[l - 1].push(2 * s + 1);
                }
                if has_up && out[2].is_some() {
                    next_up[l][s] = out[2];
                    next_up_occ[l].push(s);
                }
                inputs.clear();
            }
        }
        self.inputs_scratch = inputs;

        // Leaves: deliver incoming (bouncing mis-deflected flits back up),
        // then inject one flit onto the uplink if it is free. Only leaves
        // with a down flit or a non-empty out FIFO can do either.
        active.clear();
        active.extend_from_slice(&self.down_occ[0]);
        active.extend_from_slice(&self.queued_leaves);
        if active.len() > 1 {
            active.sort_unstable();
            active.dedup();
        }
        for &i in &active {
            let leaf = &mut self.leaves[i];
            if let Some(flit) = self.down[0][i] {
                if flit.dest_leaf as usize != i {
                    // Deflection routed this flit to the wrong leaf; the
                    // leaf interface turns it straight around (taking the
                    // uplink slot ahead of local injection). `birth` is
                    // preserved, so the eventual delivery latency still
                    // counts from first injection.
                    self.stats.deflections += 1;
                    next_up[0][i] = Some(flit);
                    next_up_occ[0].push(i);
                } else {
                    let latency = self.cycle.saturating_sub(flit.birth);
                    match flit.kind {
                        FlitKind::Data => {
                            leaf.deliver(flit.src_leaf, flit.dest_port, flit.seq, flit.payload);
                            leaf.rx_seq += 1;
                            self.stats.delivered += 1;
                            self.stats.total_latency += latency;
                            self.stats.max_latency = self.stats.max_latency.max(latency);
                        }
                        FlitKind::Config => {
                            leaf.apply_config(flit.dest_port, flit.payload);
                            self.stats.config_writes += 1;
                        }
                    }
                }
            }
            // Birth gating: a flit injected by a core running *ahead* of the
            // network clock (cosim windows) carries its true birth cycle
            // and may not enter the tree before that cycle — exactly when
            // the cycle-by-cycle schedule would have injected it. For flits
            // born at or before the current cycle (every flit outside the
            // windowed engine) this is the plain uplink pop.
            if next_up[0][i].is_none()
                && leaf.out_queue.peek().is_some_and(|f| f.birth <= self.cycle)
            {
                if let Some(flit) = leaf.out_queue.try_pop() {
                    next_up[0][i] = Some(flit);
                    next_up_occ[0].push(i);
                    self.queued_flits -= 1;
                    leaf.tx_seq += 1;
                }
            }
        }
        // Drop drained leaves from the queued set.
        let leaves = &self.leaves;
        let has_queued = &mut self.has_queued;
        self.queued_leaves.retain(|&i| {
            let keep = !leaves[i].out_queue.is_empty();
            if !keep {
                has_queued[i] = false;
            }
            keep
        });

        // Clear exactly the slots that were occupied, making the old arrays
        // clean scratch for the next step, then swap the double buffers.
        for l in 0..levels {
            for &i in &self.up_occ[l] {
                self.up[l][i] = None;
            }
            for &i in &self.down_occ[l] {
                self.down[l][i] = None;
            }
            self.up_occ[l].clear();
            self.down_occ[l].clear();
        }
        self.tree_flits = next_up_occ.iter().map(Vec::len).sum::<usize>()
            + next_down_occ.iter().map(Vec::len).sum::<usize>();
        self.up_next = std::mem::replace(&mut self.up, next_up);
        self.down_next = std::mem::replace(&mut self.down, next_down);
        self.up_occ_next = std::mem::replace(&mut self.up_occ, next_up_occ);
        self.down_occ_next = std::mem::replace(&mut self.down_occ, next_down_occ);
        self.active = active;
        self.cycle += 1;
    }

    /// Hops a lone in-flight flit toward delivery for as many consecutive
    /// cycles as the single-flit fast path stays valid, stopping at
    /// `limit`, at delivery, or one cycle before the earliest queued flit
    /// ripens. Returns the cycles advanced (0 when the fast path does not
    /// apply right now). Equivalent to calling [`step`](Self::step) that
    /// many times — each hop IS the single-flit body of `step` — but
    /// without per-cycle dispatch, so the driver can batch a flit's whole
    /// flight. During the batched stretch no delivery, pop, or event
    /// counter change can occur before the final hop, which is why the
    /// caller only needs to re-check its wake conditions once on return.
    pub fn run_lone_flit(&mut self, limit: u64) -> u64 {
        if self.levels == 0 {
            return 0;
        }
        // Queue membership can't change while we only hop the tree flit,
        // so the earliest ripening cycle is a constant for the whole run.
        let limit = match self.next_ripe_birth() {
            Some(b) if b <= self.cycle => return 0,
            Some(b) => limit.min(b),
            None => limit,
        };
        let start = self.cycle;
        while self.tree_flits == 1 && self.cycle < limit {
            self.step_single_flit();
            self.cycle += 1;
        }
        self.cycle - start
    }

    /// Moves the single in-flight flit one hop. With no other flit and no
    /// queued traffic there is no contention, so the move mirrors what the
    /// dense sweep would do — including root deflection and the wrong-leaf
    /// bounce — while touching only the slots involved.
    fn step_single_flit(&mut self) {
        // Locate the flit: exactly one occupancy list has one entry.
        let mut pos = None;
        for l in 0..self.levels {
            if let Some(&i) = self.up_occ[l].first() {
                pos = Some((true, l, i));
                break;
            }
            if let Some(&i) = self.down_occ[l].first() {
                pos = Some((false, l, i));
                break;
            }
        }
        let Some((is_up, l, i)) = pos else {
            debug_assert!(false, "tree_flits == 1 with empty occupancy");
            return;
        };
        if !is_up && l == 0 {
            // Arrival at leaf `i`.
            let flit = self.down[0][i].take().expect("occupancy list is exact");
            self.down_occ[0].clear();
            if flit.dest_leaf as usize != i {
                // Mis-deflected: bounce straight back up (uplink is free).
                self.stats.deflections += 1;
                self.up[0][i] = Some(flit);
                self.up_occ[0].push(i);
                return;
            }
            self.tree_flits = 0;
            let latency = self.cycle.saturating_sub(flit.birth);
            match flit.kind {
                FlitKind::Data => {
                    self.leaves[i].deliver(flit.src_leaf, flit.dest_port, flit.seq, flit.payload);
                    self.leaves[i].rx_seq += 1;
                    self.stats.delivered += 1;
                    self.stats.total_latency += latency;
                    self.stats.max_latency = self.stats.max_latency.max(latency);
                }
                FlitKind::Config => {
                    self.leaves[i].apply_config(flit.dest_port, flit.payload);
                    self.stats.config_writes += 1;
                }
            }
            return;
        }
        // Through a switch: an up flit at level `l` feeds the switch at
        // level `l + 1` above node `i`; a down flit at level `l >= 1` feeds
        // switch `(l, i)` itself.
        let (sl, s, flit) = if is_up {
            let f = self.up[l][i].take().expect("occupancy list is exact");
            self.up_occ[l].clear();
            (l + 1, i / 2, f)
        } else {
            let f = self.down[l][i].take().expect("occupancy list is exact");
            self.down_occ[l].clear();
            (l, i, f)
        };
        let lo = (s << sl) as u16;
        let hi = ((s + 1) << sl) as u16;
        let mid = lo + (1u16 << (sl - 1));
        if flit.dest_leaf >= lo && flit.dest_leaf < hi {
            let child = 2 * s + usize::from(flit.dest_leaf >= mid);
            self.down[sl - 1][child] = Some(flit);
            self.down_occ[sl - 1].push(child);
        } else if sl < self.levels {
            self.up[sl][s] = Some(flit);
            self.up_occ[sl].push(s);
        } else {
            // Out-of-range destination at the root: deflect down the left
            // child, as the general arbitration would.
            self.stats.deflections += 1;
            self.down[sl - 1][2 * s] = Some(flit);
            self.down_occ[sl - 1].push(2 * s);
        }
    }

    /// Steps until the network drains or `max_cycles` elapse; returns the
    /// cycles stepped.
    pub fn drain(&mut self, max_cycles: u64) -> u64 {
        let mut stepped = 0;
        while self.in_flight() && stepped < max_cycles {
            self.step();
            stepped += 1;
        }
        stepped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn linked_net(n: usize) -> BftNoc {
        let mut net = BftNoc::new(n, 2, 64);
        for i in 0..net.leaf_count() {
            let dest = ((i + 1) % net.leaf_count()) as u16;
            net.set_dest(
                i,
                0,
                PortAddr {
                    leaf: dest,
                    port: 0,
                },
            );
        }
        net
    }

    #[test]
    fn single_flit_delivered() {
        let mut net = linked_net(8);
        net.inject(0, 0, 42).unwrap();
        net.drain(100);
        assert_eq!(net.try_recv(1, 0), Some(42));
        assert_eq!(net.stats().delivered, 1);
    }

    #[test]
    fn all_to_next_neighbour_delivers_everything_in_order() {
        let mut net = linked_net(16);
        for round in 0..20u32 {
            for leaf in 0..16 {
                net.inject(leaf, 0, round * 100 + leaf as u32).unwrap();
            }
            // Interleave stepping so FIFOs don't overflow.
            for _ in 0..4 {
                net.step();
            }
        }
        net.drain(10_000);
        assert_eq!(net.stats().delivered, 320);
        for leaf in 0..16usize {
            let src = (leaf + 15) % 16;
            for round in 0..20u32 {
                assert_eq!(
                    net.try_recv(leaf, 0),
                    Some(round * 100 + src as u32),
                    "leaf {leaf} round {round}"
                );
            }
        }
    }

    #[test]
    fn hotspot_traffic_still_delivers_all() {
        // Every leaf hammers leaf 0: deflection must not lose or duplicate.
        let mut net = BftNoc::new(8, 1, 256);
        for i in 1..8 {
            net.set_dest(i, 0, PortAddr { leaf: 0, port: 0 });
        }
        let mut sent = 0u64;
        for round in 0..50u32 {
            for leaf in 1..8usize {
                if net.inject(leaf, 0, round * 8 + leaf as u32).is_ok() {
                    sent += 1;
                }
            }
            net.step();
            net.step();
        }
        net.drain(20_000);
        assert_eq!(net.stats().delivered, sent);
        let mut got = 0;
        while net.try_recv(0, 0).is_some() {
            got += 1;
        }
        assert_eq!(got, sent);
        // Hotspot contention must cause deflections.
        assert!(net.stats().deflections > 0);
    }

    #[test]
    fn config_packets_relink_without_recompile() {
        let mut net = BftNoc::new(8, 2, 16);
        // Host (leaf 7) configures leaf 2's stream 1 to feed leaf 5 port 0.
        net.send_config(7, 2, 1, PortAddr { leaf: 5, port: 0 })
            .unwrap();
        net.drain(100);
        assert_eq!(net.stats().config_writes, 1);
        net.inject(2, 1, 777).unwrap();
        net.drain(100);
        assert_eq!(net.try_recv(5, 0), Some(777));
    }

    #[test]
    fn clear_dest_unlinks_one_stream_only() {
        let mut net = BftNoc::new(8, 2, 16);
        net.set_dest(2, 0, PortAddr { leaf: 5, port: 0 });
        net.set_dest(2, 1, PortAddr { leaf: 6, port: 0 });
        net.clear_dest(2, 0);
        assert_eq!(
            net.inject(2, 0, 1),
            Err(InjectError::NotLinked { leaf: 2, stream: 0 })
        );
        // The sibling stream and its route are untouched.
        net.inject(2, 1, 42).unwrap();
        net.drain(100);
        assert_eq!(net.try_recv(6, 0), Some(42));
        // A config packet re-establishes the cleared route.
        net.send_config(7, 2, 0, PortAddr { leaf: 3, port: 1 })
            .unwrap();
        net.drain(100);
        net.inject(2, 0, 7).unwrap();
        net.drain(100);
        assert_eq!(net.try_recv(3, 1), Some(7));
    }

    #[test]
    fn unlinked_stream_rejected() {
        let mut net = BftNoc::new(4, 1, 4);
        assert_eq!(
            net.inject(0, 0, 1),
            Err(InjectError::NotLinked { leaf: 0, stream: 0 })
        );
    }

    #[test]
    fn backpressure_when_fifo_full() {
        let mut net = BftNoc::new(4, 1, 2);
        net.set_dest(0, 0, PortAddr { leaf: 1, port: 0 });
        assert!(net.inject(0, 0, 1).is_ok());
        assert!(net.inject(0, 0, 2).is_ok());
        assert_eq!(
            net.inject(0, 0, 3),
            Err(InjectError::Backpressure { leaf: 0 })
        );
        net.drain(50);
        assert!(net.inject(0, 0, 3).is_ok());
    }

    #[test]
    fn latency_grows_with_distance() {
        // Leaves 0→1 share the level-1 switch; 0→15 crosses the root.
        let mut near = BftNoc::new(16, 1, 4);
        near.set_dest(0, 0, PortAddr { leaf: 1, port: 0 });
        near.inject(0, 0, 1).unwrap();
        near.drain(100);
        let near_lat = near.stats().max_latency;

        let mut far = BftNoc::new(16, 1, 4);
        far.set_dest(0, 0, PortAddr { leaf: 15, port: 0 });
        far.inject(0, 0, 1).unwrap();
        far.drain(100);
        let far_lat = far.stats().max_latency;
        assert!(far_lat > near_lat, "far {far_lat} vs near {near_lat}");
    }

    #[test]
    fn deflection_storm_latency_counts_from_first_inject() {
        // 2-leaf hot spot: both leaves stream to leaf 0, so the two uplinks
        // collide at the root every cycle and the loser deflects down to
        // leaf 1, bounces, and retries. If latency were measured from the
        // re-injection after a deflection, every delivery would read as a
        // couple of cycles; measured from first injection, the tail of the
        // burst must wait for the whole burst to squeeze through leaf 0's
        // single down-link.
        let mut net = BftNoc::new(2, 1, 128);
        net.set_dest(0, 0, PortAddr { leaf: 0, port: 0 });
        net.set_dest(1, 0, PortAddr { leaf: 0, port: 0 });
        let mut sent = 0u64;
        for w in 0..40u32 {
            net.inject(0, 0, w).unwrap();
            net.inject(1, 0, 1000 + w).unwrap();
            sent += 2;
        }
        net.drain(10_000);
        let stats = net.stats();
        assert_eq!(stats.delivered, sent);
        assert!(stats.deflections > 0, "hot spot must deflect");
        // All flits were born at cycle 0 and leaf 0 accepts at most one
        // flit per cycle, so the last delivery is at least `sent` cycles
        // after its injection.
        assert!(
            stats.max_latency >= sent,
            "max_latency {} counts re-injection, not first inject",
            stats.max_latency
        );
        // Deliveries are spread over ~`sent` cycles, so the latency *sum*
        // must be quadratic in the burst, not linear.
        assert!(
            stats.total_latency >= sent * sent / 4,
            "total_latency {} too small for a hot-spot burst",
            stats.total_latency
        );
    }

    #[test]
    fn idle_steps_advance_time_without_touching_switches() {
        // O(active) stepping: a big idle network must step in ~no time and
        // behave identically afterwards.
        let mut net = BftNoc::new(1024, 1, 4);
        for _ in 0..100_000 {
            net.step();
        }
        assert_eq!(net.cycle(), 100_000);
        assert!(!net.in_flight());
        net.set_dest(0, 0, PortAddr { leaf: 9, port: 0 });
        net.inject(0, 0, 7).unwrap();
        assert!(net.in_flight());
        net.drain(100);
        assert_eq!(net.try_recv(9, 0), Some(7));
        assert!(!net.in_flight());
        assert_eq!(net.active_flits(), 0);
    }

    #[test]
    fn local_injection_commits_at_barrier_and_respects_birth() {
        let mut net = linked_net(8);
        // Inject straight into leaf 0, as the cosim does inside a window:
        // one word due now (cycle 0) and one born three cycles in the
        // future by a core running ahead of the clock.
        let leaf = net.leaf_mut(0);
        leaf.inject_local(0, 0, 10, 0).unwrap();
        leaf.inject_local(0, 0, 20, 3).unwrap();
        // Nothing is visible to the scheduler until the barrier commit.
        assert_eq!(net.active_flits(), 0);
        net.commit_injections(0);
        assert_eq!(net.active_flits(), 2);
        assert_eq!(net.stats().injected, 2);
        // The first word leaves immediately; the future-born word must not
        // enter the tree before cycle 3.
        net.step();
        assert_eq!(net.active_flits(), 2, "future-born flit held in FIFO");
        net.drain(100);
        assert_eq!(net.try_recv(1, 0), Some(10));
        assert_eq!(net.try_recv(1, 0), Some(20));
        // Birth gating delays entry to cycle 3, so its latency (measured
        // from birth) stays small even though it was queued at cycle 0.
        assert_eq!(net.stats().delivered, 2);
    }

    #[test]
    fn rounds_up_to_power_of_two() {
        let net = BftNoc::new(23, 1, 4);
        assert_eq!(net.leaf_count(), 32);
    }

    #[test]
    fn uplink_is_one_word_per_cycle() {
        // 100 words from one leaf need >= 100 cycles to drain: the paper's
        // leaf-interface bandwidth bottleneck.
        let mut net = BftNoc::new(4, 1, 128);
        net.set_dest(0, 0, PortAddr { leaf: 2, port: 0 });
        for w in 0..100 {
            net.inject(0, 0, w).unwrap();
        }
        let cycles = net.drain(10_000);
        assert!(cycles >= 100, "drained in {cycles} cycles");
        assert_eq!(net.stats().delivered, 100);
    }
}
