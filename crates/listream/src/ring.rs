//! Bounded ring shared between the two endpoints of a threaded stream link.
//!
//! One mutex-protected `VecDeque` plus a pair of condvars: a batch moves as
//! many tokens as fit under a single lock acquisition, which is where the
//! host KPN engine gets its throughput — one lock round-trip and one wakeup
//! per chunk instead of per token. A Kahn link has exactly one producer and
//! one consumer, so each side's liveness is a single flag, cleared when its
//! endpoint drops.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, PoisonError};

use crate::{ReadError, WriteError};

/// Shared state of one stream link. The two endpoints hold this behind an
/// `Arc` and clear their side's flag on drop, so hangup on either side is
/// observable from the other.
pub(crate) struct Ring<T> {
    state: Mutex<State<T>>,
    /// Signalled when tokens are pushed or the writer leaves.
    not_empty: Condvar,
    /// Signalled when tokens are popped or the reader leaves.
    not_full: Condvar,
    /// Backpressure episodes: a write call found the FIFO full and parked.
    write_blocks: AtomicU64,
    /// Starvation episodes: a read call found the FIFO empty and parked.
    read_blocks: AtomicU64,
}

struct State<T> {
    queue: VecDeque<T>,
    capacity: usize,
    writer_alive: bool,
    reader_alive: bool,
}

impl<T> Ring<T> {
    pub(crate) fn new(capacity: usize) -> Ring<T> {
        Ring {
            state: Mutex::new(State {
                queue: VecDeque::with_capacity(capacity.min(4096)),
                capacity,
                writer_alive: true,
                reader_alive: true,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            write_blocks: AtomicU64::new(0),
            read_blocks: AtomicU64::new(0),
        }
    }

    /// Cumulative (backpressure, starvation) episode counts. An episode is
    /// one call that had to park, however many wakeups it took to proceed —
    /// counting wakeups would conflate stalling with condvar spurious-wake
    /// behaviour.
    pub(crate) fn stalls(&self) -> (u64, u64) {
        (
            self.write_blocks.load(Ordering::Relaxed),
            self.read_blocks.load(Ordering::Relaxed),
        )
    }

    /// Marks the writer gone. Runs in `Drop`, so it must not panic: storing
    /// one flag leaves the state valid even behind a poisoned lock.
    pub(crate) fn close_writer(&self) {
        self.state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .writer_alive = false;
        // A reader blocked on an empty queue must observe end-of-stream.
        self.not_empty.notify_all();
    }

    /// Marks the reader gone; see [`Ring::close_writer`].
    pub(crate) fn close_reader(&self) {
        self.state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .reader_alive = false;
        // A writer blocked on a full queue must observe the hangup.
        self.not_full.notify_all();
    }

    /// Moves every token out of `buf` into the ring, blocking for space as
    /// needed. Each wakeup transfers the whole prefix that fits.
    pub(crate) fn write_batch(&self, buf: &mut Vec<T>) -> Result<(), WriteError> {
        let mut pending = buf.drain(..);
        let mut st = self.state.lock().unwrap();
        let mut parked = false;
        loop {
            if !st.reader_alive {
                // The remaining tokens can never be delivered; `pending`
                // drops them on the way out.
                return Err(WriteError);
            }
            let space = st.capacity - st.queue.len();
            if space > 0 {
                let before = st.queue.len();
                st.queue.extend(pending.by_ref().take(space));
                if st.queue.len() > before {
                    self.not_empty.notify_all();
                }
                if pending.len() == 0 {
                    return Ok(());
                }
            }
            if !parked {
                parked = true;
                self.write_blocks.fetch_add(1, Ordering::Relaxed);
            }
            st = self.not_full.wait(st).unwrap();
        }
    }

    /// Appends up to `max` queued tokens to `out`, blocking until at least
    /// one is available or the stream closes. Returns how many were moved.
    pub(crate) fn read_batch(&self, out: &mut Vec<T>, max: usize) -> Result<usize, ReadError> {
        if max == 0 {
            return Ok(0);
        }
        let mut st = self.state.lock().unwrap();
        let mut parked = false;
        loop {
            if !st.queue.is_empty() {
                let n = st.queue.len().min(max);
                out.extend(st.queue.drain(..n));
                drop(st);
                self.not_full.notify_all();
                return Ok(n);
            }
            if !st.writer_alive {
                return Err(ReadError);
            }
            if !parked {
                parked = true;
                self.read_blocks.fetch_add(1, Ordering::Relaxed);
            }
            st = self.not_empty.wait(st).unwrap();
        }
    }
}
