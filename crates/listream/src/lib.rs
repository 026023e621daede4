#![warn(missing_docs)]
//! Latency-insensitive stream links.
//!
//! The PLD compute model (paper Sec. 3.2) connects operators with
//! *latency-insensitive stream links*: FIFOs with data presence, blocking
//! reads, and backpressure that stalls the producer. Because synchronization
//! is integrated into the link, "if either the producer or consumer run
//! faster or slower from being mapped to FPGA or processor substrates, this
//! doesn't change the functional behavior of the computation."
//!
//! Two implementations of the same abstraction live here:
//!
//! * [`SimFifo`] — a cycle-stepped FIFO used inside the hardware simulators
//!   (actor network, NoC leaf interfaces), with occupancy and stall
//!   statistics.
//! * [`channel`] — a threaded Kahn-process-network link built on a bounded
//!   single-producer, single-consumer ring, used by the host (`x86`)
//!   execution mode where every operator runs as an OS thread. Tokens move
//!   in batches ([`StreamWriter::write_batch`] /
//!   [`StreamReader::read_batch`]), many per lock acquisition.
//!
//! Both preserve the two invariants every latency-insensitive design relies
//! on: tokens arrive in order, and no token is ever dropped or duplicated.

mod fifo;
mod ring;
mod threaded;

pub use fifo::{FifoStats, SimFifo};
pub use threaded::{channel, LinkStats, ReadError, StreamReader, StreamWriter, WriteError};

/// The standard 32-bit stream payload.
///
/// PLD's leaf interfaces and linking network carry 32-bit words ("each stream
/// datawidth is 4-bytes, matching the datawidth of the 32b processor",
/// Sec. 5.2); wider operator types are serialized into word sequences.
pub type Word = u32;
