//! Leaf interfaces: the per-page clients of the linking network.

use std::collections::{BTreeMap, VecDeque};

use crate::network::InjectError;
use crate::switch::{Flit, FlitKind};

/// A destination entry in a leaf's linking table: where one of the page's
/// output streams is to be delivered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PortAddr {
    /// Destination leaf index.
    pub leaf: u16,
    /// Destination input-port index at that leaf.
    pub port: u8,
}

impl PortAddr {
    /// Encodes the entry into a configuration-packet payload.
    pub fn encode(self) -> u32 {
        (self.leaf as u32) << 8 | self.port as u32
    }

    /// Decodes an entry from a configuration-packet payload.
    pub fn decode(word: u32) -> PortAddr {
        PortAddr {
            leaf: (word >> 8) as u16,
            port: word as u8,
        }
    }
}

/// A leaf's bounded outgoing flit queue. It never blocks: a push into a
/// full queue fails, exactly as a hardware producer sees `full` asserted,
/// and the producer retries on a later cycle.
#[derive(Debug, Clone)]
pub(crate) struct OutQueue {
    flits: VecDeque<Flit>,
    capacity: usize,
}

impl OutQueue {
    fn new(capacity: usize) -> OutQueue {
        OutQueue {
            flits: VecDeque::with_capacity(capacity),
            capacity,
        }
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.flits.is_empty()
    }

    pub(crate) fn is_full(&self) -> bool {
        self.flits.len() == self.capacity
    }

    /// Enqueues `flit` unless the queue is full; returns whether it did.
    pub(crate) fn try_push(&mut self, flit: Flit) -> bool {
        if self.is_full() {
            return false;
        }
        self.flits.push_back(flit);
        true
    }

    pub(crate) fn try_pop(&mut self) -> Option<Flit> {
        self.flits.pop_front()
    }

    pub(crate) fn peek(&self) -> Option<&Flit> {
        self.flits.front()
    }
}

/// Per-(source leaf, input port) stream reassembly state.
#[derive(Debug, Clone)]
struct ReorderSlot {
    key: (u16, u8),
    /// Next expected sequence number.
    expected: u32,
    /// Early arrivals buffered until their predecessors land.
    pending: BTreeMap<u32, u32>,
}

/// The standard leaf interface wrapped around every page (paper Sec. 4.1):
/// destination registers stamp packet headers onto outgoing stream words;
/// per-port receive FIFOs reassemble incoming streams.
///
/// "We set control registers in the leaf interface to add appropriate packet
/// destination headers to data... These control registers can be changed
/// with control packets on the network, so that operators can be re-linked
/// without recompiling the source or destination pages" (Sec. 4.3).
#[derive(Debug, Clone)]
pub struct LeafInterface {
    /// Destination table: one entry per output stream of the page.
    dest_table: Vec<Option<PortAddr>>,
    /// Outgoing flit queue feeding the single uplink (one flit per cycle).
    pub(crate) out_queue: OutQueue,
    /// Receive queues, one per input port. Unbounded in the simulator; the
    /// consumer model applies backpressure by not consuming (see crate docs).
    recv: Vec<VecDeque<u32>>,
    /// Reorder state per (source leaf, input port): next expected sequence
    /// number and the buffer of early arrivals. Deflection routing may
    /// overtake within a stream; this restores FIFO delivery. A leaf talks
    /// to a handful of sources at most, so a linearly-scanned list beats a
    /// hash map on the per-flit delivery path.
    reorder: Vec<ReorderSlot>,
    /// Per-output-stream sequence counters stamped onto injected flits.
    pub(crate) seq_counters: Vec<u32>,
    /// Monotone count of data deliveries into this leaf's input ports.
    /// While this is unchanged, no `pending` count can have grown.
    pub(crate) rx_seq: u64,
    /// Monotone count of uplink slots freed from the out FIFO. While this
    /// is unchanged, a full out FIFO is still full.
    pub(crate) tx_seq: u64,
    /// Flits pushed by [`LeafInterface::inject_local`] but not yet folded
    /// into the network's global bookkeeping. The windowed cosim engine
    /// injects into leaves between barriers and commits these counts (in
    /// leaf order) at each barrier.
    pub(crate) pending_injects: u32,
}

impl LeafInterface {
    /// Creates a leaf with `out_streams` destination registers, `in_ports`
    /// receive queues, and an output FIFO of `queue_depth` flits.
    pub fn new(out_streams: usize, in_ports: usize, queue_depth: usize) -> LeafInterface {
        LeafInterface {
            dest_table: vec![None; out_streams],
            out_queue: OutQueue::new(queue_depth.max(1)),
            recv: vec![VecDeque::new(); in_ports],
            reorder: Vec::new(),
            seq_counters: vec![0; out_streams],
            rx_seq: 0,
            tx_seq: 0,
            pending_injects: 0,
        }
    }

    /// Monotone count of data deliveries into this leaf's input ports.
    pub fn rx_events(&self) -> u64 {
        self.rx_seq
    }

    /// Monotone count of uplink slots freed from the out FIFO.
    pub fn tx_events(&self) -> u64 {
        self.tx_seq
    }

    /// Injects one data word on output `stream` directly into this leaf's
    /// out FIFO, performing the destination lookup and sequence stamping
    /// locally. `self_leaf` is this leaf's index (used in
    /// errors and the flit source header); `now` is the cycle the flit is
    /// born — under the windowed cosim engine this can lie *ahead* of the
    /// network's clock, and the uplink holds such flits back until their
    /// birth cycle arrives.
    ///
    /// The flit is not yet visible to the network scheduler: the count of
    /// locally injected flits accumulates in `pending_injects` until
    /// [`crate::BftNoc::commit_injections`] folds it into the global
    /// bookkeeping. Within one network, `inject` does that immediately.
    ///
    /// # Errors
    ///
    /// See [`InjectError`].
    pub fn inject_local(
        &mut self,
        self_leaf: usize,
        stream: usize,
        word: u32,
        now: u64,
    ) -> Result<(), InjectError> {
        let addr = self.dest(stream).ok_or(InjectError::NotLinked {
            leaf: self_leaf,
            stream,
        })?;
        if self.out_queue.is_full() {
            return Err(InjectError::Backpressure { leaf: self_leaf });
        }
        let seq = self.next_seq(stream);
        let pushed = self.out_queue.try_push(Flit {
            dest_leaf: addr.leaf,
            dest_port: addr.port,
            src_leaf: self_leaf as u16,
            seq,
            payload: word,
            kind: FlitKind::Data,
            birth: now,
        });
        debug_assert!(pushed, "is_full was checked above");
        self.pending_injects += 1;
        Ok(())
    }

    /// Takes the count of locally injected, not-yet-committed flits.
    pub(crate) fn take_pending_injects(&mut self) -> u32 {
        std::mem::take(&mut self.pending_injects)
    }

    /// Allocates the next sequence number for output stream `stream`.
    pub(crate) fn next_seq(&mut self, stream: usize) -> u32 {
        if stream >= self.seq_counters.len() {
            self.seq_counters.resize(stream + 1, 0);
        }
        let s = self.seq_counters[stream];
        self.seq_counters[stream] += 1;
        s
    }

    /// Reads a destination register.
    pub fn dest(&self, stream: usize) -> Option<PortAddr> {
        self.dest_table.get(stream).copied().flatten()
    }

    /// Writes a destination register (normally done by config packets; the
    /// loader uses this for directly attached leaves).
    pub fn set_dest(&mut self, stream: usize, addr: PortAddr) {
        if stream >= self.dest_table.len() {
            self.dest_table.resize(stream + 1, None);
        }
        self.dest_table[stream] = Some(addr);
    }

    /// Clears a destination register, unlinking the stream. Injection on a
    /// cleared stream fails with `NotLinked` until it is re-configured —
    /// how a runtime tears down one route of a departing tenant without
    /// touching its neighbours' registers.
    pub fn clear_dest(&mut self, stream: usize) {
        if let Some(entry) = self.dest_table.get_mut(stream) {
            *entry = None;
        }
    }

    /// Applies a delivered configuration packet.
    pub(crate) fn apply_config(&mut self, reg: u8, payload: u32) {
        self.set_dest(reg as usize, PortAddr::decode(payload));
    }

    /// Queues a received data word on input port `port`, restoring
    /// per-source FIFO order from the sequence tag.
    pub(crate) fn deliver(&mut self, src: u16, port: u8, seq: u32, payload: u32) {
        let p = port as usize;
        if p >= self.recv.len() {
            self.recv.resize(p + 1, VecDeque::new());
        }
        let idx = match self.reorder.iter().position(|s| s.key == (src, port)) {
            Some(i) => i,
            None => {
                self.reorder.push(ReorderSlot {
                    key: (src, port),
                    expected: 0,
                    pending: BTreeMap::new(),
                });
                self.reorder.len() - 1
            }
        };
        let slot = &mut self.reorder[idx];
        if seq == slot.expected {
            self.recv[p].push_back(payload);
            slot.expected += 1;
            // Release any buffered successors.
            while let Some(w) = slot.pending.remove(&slot.expected) {
                self.recv[p].push_back(w);
                slot.expected += 1;
            }
        } else {
            slot.pending.insert(seq, payload);
        }
    }

    /// Words buffered out of order, awaiting their predecessors.
    pub fn reorder_pending(&self) -> usize {
        self.reorder.iter().map(|s| s.pending.len()).sum()
    }

    /// Pops a received word from input port `port`.
    pub fn try_recv(&mut self, port: u8) -> Option<u32> {
        self.recv.get_mut(port as usize)?.pop_front()
    }

    /// Number of words waiting on input port `port`.
    pub fn pending(&self, port: u8) -> usize {
        self.recv.get(port as usize).map(VecDeque::len).unwrap_or(0)
    }

    /// Whether the outgoing queue has room for another flit.
    pub fn can_inject(&self) -> bool {
        !self.out_queue.is_full()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn port_addr_roundtrip() {
        for leaf in [0u16, 1, 22, 255, 1000] {
            for port in [0u8, 1, 7, 255] {
                let a = PortAddr { leaf, port };
                assert_eq!(PortAddr::decode(a.encode()), a);
            }
        }
    }

    #[test]
    fn dest_table_config() {
        let mut leaf = LeafInterface::new(2, 2, 4);
        assert_eq!(leaf.dest(0), None);
        leaf.apply_config(1, PortAddr { leaf: 9, port: 3 }.encode());
        assert_eq!(leaf.dest(1), Some(PortAddr { leaf: 9, port: 3 }));
        // Config can grow the table (registers are sparse addresses).
        leaf.apply_config(5, PortAddr { leaf: 1, port: 1 }.encode());
        assert_eq!(leaf.dest(5), Some(PortAddr { leaf: 1, port: 1 }));
    }

    #[test]
    fn out_of_order_arrivals_are_reordered() {
        let mut leaf = LeafInterface::new(1, 1, 4);
        leaf.deliver(3, 0, 2, 300);
        leaf.deliver(3, 0, 0, 100);
        assert_eq!(leaf.reorder_pending(), 1);
        assert_eq!(leaf.try_recv(0), Some(100));
        assert_eq!(leaf.try_recv(0), None); // 1 still missing
        leaf.deliver(3, 0, 1, 200);
        assert_eq!(leaf.try_recv(0), Some(200));
        assert_eq!(leaf.try_recv(0), Some(300));
        assert_eq!(leaf.reorder_pending(), 0);
    }

    #[test]
    fn streams_from_different_sources_are_independent() {
        let mut leaf = LeafInterface::new(1, 1, 4);
        leaf.deliver(1, 0, 0, 10);
        leaf.deliver(2, 0, 0, 20);
        leaf.deliver(1, 0, 1, 11);
        assert_eq!(leaf.try_recv(0), Some(10));
        assert_eq!(leaf.try_recv(0), Some(20));
        assert_eq!(leaf.try_recv(0), Some(11));
    }

    #[test]
    fn receive_queues_in_order() {
        let mut leaf = LeafInterface::new(1, 2, 4);
        leaf.deliver(0, 1, 0, 10);
        leaf.deliver(0, 1, 1, 20);
        leaf.deliver(0, 0, 0, 99);
        assert_eq!(leaf.pending(1), 2);
        assert_eq!(leaf.try_recv(1), Some(10));
        assert_eq!(leaf.try_recv(1), Some(20));
        assert_eq!(leaf.try_recv(1), None);
        assert_eq!(leaf.try_recv(0), Some(99));
        assert_eq!(leaf.try_recv(7), None);
    }
}
