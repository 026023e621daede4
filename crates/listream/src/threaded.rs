//! Threaded Kahn-process-network stream links.
//!
//! Used by the host execution mode (the paper's "X86 g++" column in Tab. 3),
//! where each dataflow operator runs as an OS thread and the latency-
//! insensitive links become bounded channels: reads block on empty
//! (data presence) and writes block on full (backpressure).
//!
//! Tokens move in batches ([`StreamWriter::write_batch`] /
//! [`StreamReader::read_batch`]): a batch changes only how many tokens move
//! per lock acquisition, never their order. Each link has one writer and
//! one reader, as a Kahn channel does, so neither endpoint is `Clone`.

use std::fmt;
use std::sync::Arc;

use crate::ring::Ring;

/// Error returned by [`StreamReader::read_batch`] when the stream is closed
/// and drained: the producer has finished and no tokens remain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadError;

impl fmt::Display for ReadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "stream closed: producer finished and FIFO drained")
    }
}

impl std::error::Error for ReadError {}

/// Error returned by [`StreamWriter::write_batch`] when the consumer side
/// has hung up, so the tokens can never be delivered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteError;

impl fmt::Display for WriteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "stream closed: consumer hung up")
    }
}

impl std::error::Error for WriteError {}

/// Cumulative stall counts observed on one stream link, readable from either
/// endpoint. An episode is one call that had to park (however many wakeups it
/// took), so the numbers compare meaningfully across chunk sizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LinkStats {
    /// Backpressure episodes: a write found the FIFO full and blocked.
    pub write_blocks: u64,
    /// Starvation episodes: a read found the FIFO empty and blocked.
    pub read_blocks: u64,
}

impl LinkStats {
    /// Total stall episodes on the link, both directions.
    pub fn total(&self) -> u64 {
        self.write_blocks + self.read_blocks
    }
}

/// Producer endpoint of a latency-insensitive stream link.
pub struct StreamWriter<T> {
    ring: Arc<Ring<T>>,
}

/// Consumer endpoint of a latency-insensitive stream link.
pub struct StreamReader<T> {
    ring: Arc<Ring<T>>,
}

impl<T> fmt::Debug for StreamWriter<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StreamWriter").finish_non_exhaustive()
    }
}

impl<T> fmt::Debug for StreamReader<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StreamReader").finish_non_exhaustive()
    }
}

impl<T> Drop for StreamWriter<T> {
    fn drop(&mut self) {
        self.ring.close_writer();
    }
}

impl<T> Drop for StreamReader<T> {
    fn drop(&mut self) {
        self.ring.close_reader();
    }
}

/// Creates a latency-insensitive stream link of the given FIFO depth.
///
/// # Panics
///
/// Panics if `capacity` is zero (a rendezvous channel is not a FIFO and can
/// deadlock a Kahn network that assumes at least one token of slack).
///
/// # Examples
///
/// ```
/// let (tx, rx) = listream::channel::<u32>(4);
/// let producer = std::thread::spawn(move || {
///     let mut batch: Vec<u32> = (0..10).collect();
///     tx.write_batch(&mut batch).unwrap();
/// });
/// let mut got = Vec::new();
/// while rx.read_batch(&mut got, usize::MAX).is_ok() {}
/// producer.join().unwrap();
/// assert_eq!(got, (0..10).collect::<Vec<_>>());
/// ```
pub fn channel<T>(capacity: usize) -> (StreamWriter<T>, StreamReader<T>) {
    assert!(capacity > 0, "stream FIFO capacity must be at least 1");
    let ring = Arc::new(Ring::new(capacity));
    (
        StreamWriter {
            ring: Arc::clone(&ring),
        },
        StreamReader { ring },
    )
}

impl<T> StreamWriter<T> {
    /// Writes every token in `buf`, in order, blocking for FIFO space as
    /// needed; each wakeup moves the whole prefix that fits under one lock
    /// acquisition. On success `buf` is left empty and ready for reuse.
    ///
    /// # Errors
    ///
    /// Returns [`WriteError`] if the reader has been dropped; any tokens
    /// not yet transferred are discarded, since no consumer can ever
    /// receive them.
    pub fn write_batch(&self, buf: &mut Vec<T>) -> Result<(), WriteError> {
        self.ring.write_batch(buf)
    }

    /// Snapshot of the link's cumulative stall counters.
    pub fn stats(&self) -> LinkStats {
        stats(&self.ring)
    }
}

impl<T> StreamReader<T> {
    /// Appends up to `max` tokens to `out`, blocking until at least one is
    /// available, and returns how many arrived. A single lock acquisition
    /// drains everything currently queued (capped at `max`).
    ///
    /// # Errors
    ///
    /// Returns [`ReadError`] once the writer is dropped and the FIFO is
    /// drained — the stream's end-of-computation condition.
    pub fn read_batch(&self, out: &mut Vec<T>, max: usize) -> Result<usize, ReadError> {
        self.ring.read_batch(out, max)
    }

    /// Snapshot of the link's cumulative stall counters.
    pub fn stats(&self) -> LinkStats {
        stats(&self.ring)
    }
}

fn stats<T>(ring: &Ring<T>) -> LinkStats {
    let (write_blocks, read_blocks) = ring.stalls();
    LinkStats {
        write_blocks,
        read_blocks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    /// Spins until `cond` holds. A stall counter moves under the ring's lock
    /// just before its call parks, so waiting on one (rather than sleeping)
    /// pins the interleaving a test needs.
    fn wait_until(cond: impl Fn() -> bool) {
        while !cond() {
            thread::yield_now();
        }
    }

    /// Reads until the stream closes.
    fn drain(rx: &StreamReader<u32>, max: usize) -> Vec<u32> {
        let mut got = Vec::new();
        while rx.read_batch(&mut got, max).is_ok() {}
        got
    }

    #[test]
    fn tokens_arrive_in_order() {
        // Batches of uneven sizes through a ring narrower than most of
        // them, drained in reads of yet another size.
        let (tx, rx) = channel::<u32>(3);
        let producer = thread::spawn(move || {
            let mut next = 0u32;
            for len in [1u32, 7, 2, 30, 60] {
                let mut batch: Vec<u32> = (next..next + len).collect();
                tx.write_batch(&mut batch).unwrap();
                assert!(batch.is_empty());
                next += len;
            }
        });
        let got = drain(&rx, 5);
        producer.join().unwrap();
        assert_eq!(got, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn backpressure_blocks_producer() {
        let (tx, rx) = channel::<u32>(2);
        let writer = thread::spawn(move || {
            let mut batch = vec![1, 2, 3, 4, 5];
            tx.write_batch(&mut batch).unwrap();
            tx
        });
        // The FIFO holds two tokens; the writer is parked on the rest.
        wait_until(|| rx.stats().write_blocks == 1);
        assert!(!writer.is_finished());
        let mut got = Vec::new();
        assert_eq!(rx.read_batch(&mut got, 16), Ok(2));
        assert_eq!(got, vec![1, 2]);
        while got.len() < 5 {
            rx.read_batch(&mut got, 16).unwrap();
        }
        assert_eq!(got, vec![1, 2, 3, 4, 5]);
        let tx = writer.join().unwrap();
        assert_eq!(tx.stats().write_blocks, 1);
    }

    #[test]
    fn read_after_close_errors() {
        let (tx, rx) = channel::<u32>(2);
        tx.write_batch(&mut vec![9]).unwrap();
        drop(tx);
        let mut out = Vec::new();
        assert_eq!(rx.read_batch(&mut out, 16), Ok(1));
        assert_eq!(out, vec![9]);
        assert_eq!(rx.read_batch(&mut out, 16), Err(ReadError));
    }

    #[test]
    fn write_after_reader_gone_errors() {
        let (tx, rx) = channel::<u32>(1);
        drop(rx);
        assert_eq!(tx.write_batch(&mut vec![1]), Err(WriteError));

        // A writer parked on a full FIFO observes the hangup and returns.
        let (tx, rx) = channel::<u32>(1);
        let writer = thread::spawn(move || tx.write_batch(&mut vec![1, 2, 3]));
        wait_until(|| rx.stats().write_blocks == 1);
        drop(rx);
        assert_eq!(writer.join().unwrap(), Err(WriteError));
    }

    #[test]
    fn blocking_read_waits_for_data() {
        let (tx, rx) = channel::<u32>(2);
        let reader = thread::spawn(move || {
            let mut out = Vec::new();
            rx.read_batch(&mut out, 16).unwrap();
            out
        });
        wait_until(|| tx.stats().read_blocks == 1);
        tx.write_batch(&mut vec![7]).unwrap();
        assert_eq!(reader.join().unwrap(), vec![7]);
    }

    #[test]
    fn pipeline_of_three_stages_runs_to_completion() {
        // unpack -> double -> sum, the shape of the paper's Fig. 2 graph.
        let (tx0, rx0) = channel::<u32>(2);
        let (tx1, rx1) = channel::<u32>(2);
        let stage1 = thread::spawn(move || {
            let mut buf = Vec::new();
            while rx0.read_batch(&mut buf, 3).is_ok() {
                buf.iter_mut().for_each(|v| *v *= 2);
                tx1.write_batch(&mut buf).unwrap();
            }
        });
        let sum = thread::spawn(move || drain(&rx1, 4).into_iter().map(u64::from).sum::<u64>());
        for chunk in (0..1000u32).collect::<Vec<_>>().chunks(9) {
            tx0.write_batch(&mut chunk.to_vec()).unwrap();
        }
        drop(tx0);
        stage1.join().unwrap();
        assert_eq!(sum.join().unwrap(), (0..1000u64).map(|i| i * 2).sum());
    }

    #[test]
    fn write_batch_roundtrips_through_narrow_fifo() {
        // Batch far larger than the FIFO: the writer must hand it over in
        // capacity-sized slices while the reader drains concurrently.
        let (tx, rx) = channel::<u32>(4);
        let producer = thread::spawn(move || {
            let mut buf: Vec<u32> = (0..1000).collect();
            tx.write_batch(&mut buf).unwrap();
            assert!(buf.is_empty());
        });
        let got = drain(&rx, usize::MAX);
        producer.join().unwrap();
        assert_eq!(got, (0..1000).collect::<Vec<_>>());
    }

    #[test]
    fn stall_counters_track_block_episodes() {
        let (tx, rx) = channel::<u32>(1);
        assert_eq!(tx.stats(), LinkStats::default());

        // Reader parks first, writer then satisfies it: one starvation.
        let reader = thread::spawn(move || {
            let mut out = Vec::new();
            rx.read_batch(&mut out, 1).unwrap();
            (out, rx)
        });
        wait_until(|| tx.stats().read_blocks == 1);
        tx.write_batch(&mut vec![1]).unwrap();
        let (out, rx) = reader.join().unwrap();
        assert_eq!(out, vec![1]);
        assert_eq!(rx.stats().read_blocks, 1);

        // Fill the FIFO, park the writer, then drain: one backpressure.
        tx.write_batch(&mut vec![2]).unwrap();
        let writer = thread::spawn(move || {
            tx.write_batch(&mut vec![3]).unwrap();
            tx
        });
        wait_until(|| rx.stats().write_blocks == 1);
        let mut out = Vec::new();
        assert_eq!(rx.read_batch(&mut out, 1), Ok(1));
        assert_eq!(out, vec![2]);
        let tx = writer.join().unwrap();
        assert_eq!(tx.stats().write_blocks, 1);
        // Both endpoints observe the same shared counters.
        assert_eq!(tx.stats(), rx.stats());
    }
}
