//! Deterministic fork-join shard pool: the host-thread engine under the
//! parallel cosim.
//!
//! The parallel `-O0` engine shards softcore cores across host worker
//! threads and advances each shard through a bounded window of cycles
//! between barriers (the BEE thesis: emulation performance from massive
//! parallelism over processor-based emulation). This module owns the
//! host-thread mechanics and nothing else: a pool of long-lived workers
//! that, once per *phase*, each receive their shard (moved through a
//! channel), run one user-supplied work function over it, and move it
//! back. Between phases the driver thread owns every shard outright —
//! there is no shared mutable state, no locks around the payloads, and
//! nothing for the scheduler to reorder.
//!
//! Determinism is by construction, not by discipline:
//!
//! * the work function sees exactly one shard plus a per-phase context
//!   value — shard-mates cannot observe each other within a phase;
//! * the driver inspects shards only between phases, in shard order;
//! * therefore the sequence of (phase context, shard states) is a pure
//!   function of the initial shards and the driver's logic, regardless of
//!   how many OS threads execute the phases or how they interleave.
//!
//! With `threads <= 1` no worker threads (or channels) are created at
//! all: [`ShardPool::phase`] runs every shard inline on the caller's
//! thread through the *same* code path the workers use. The single-thread
//! cosim is literally the parallel engine at `threads = 1`, not a second
//! implementation.

use std::sync::mpsc;

/// Iterations to spin on an empty channel before parking in a blocking
/// `recv`. Phase hand-offs are short relative to a window of simulated
/// cycles; spinning briefly avoids paying a futex sleep/wake per barrier.
const SPIN: u32 = 1 << 14;

/// `recv` with a bounded spin prefix (see [`SPIN`]).
fn recv_spin<X>(rx: &mpsc::Receiver<X>) -> Result<X, mpsc::RecvError> {
    for _ in 0..SPIN {
        match rx.try_recv() {
            Ok(x) => return Ok(x),
            Err(mpsc::TryRecvError::Empty) => std::hint::spin_loop(),
            Err(mpsc::TryRecvError::Disconnected) => return Err(mpsc::RecvError),
        }
    }
    rx.recv()
}

/// A pool of shards, optionally backed by worker threads, advanced in
/// lock-step phases. Created by [`with_shard_pool`]; driven by calling
/// [`ShardPool::phase`] and inspecting [`ShardPool::shards_mut`] between
/// phases.
pub struct ShardPool<'a, T, C, W> {
    work: &'a W,
    /// Shard `k` lives here whenever it is not in flight during `phase`.
    shards: Vec<Option<T>>,
    /// Per-worker dispatch channels; empty in inline (single-thread) mode.
    /// Shards stripe across `workers + 1` lanes — lane 0 is the driver
    /// thread itself (which would otherwise idle at the barrier), so shard
    /// `k` goes to worker `(k % lanes) - 1` unless `k % lanes == 0`.
    txs: Vec<mpsc::Sender<(C, usize, T)>>,
    done: Option<mpsc::Receiver<(usize, T)>>,
}

impl<T, C: Clone, W: Fn(&C, &mut T)> ShardPool<'_, T, C, W> {
    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Worker threads backing the pool (0 = inline mode).
    pub fn workers(&self) -> usize {
        self.txs.len()
    }

    /// Runs one phase: every shard is advanced once by the work function
    /// with `ctx`, in parallel across the pool's threads (or inline, with
    /// identical semantics, when there are none). Returns after *all*
    /// shards finish — the barrier. On return the driver again owns every
    /// shard.
    pub fn phase(&mut self, ctx: C) {
        if self.txs.is_empty() {
            for shard in self.shards.iter_mut() {
                (self.work)(&ctx, shard.as_mut().expect("shard in place"));
            }
            return;
        }
        let lanes = self.txs.len() + 1;
        let mut sent = 0;
        for k in 0..self.shards.len() {
            if k % lanes != 0 {
                let shard = self.shards[k].take().expect("shard in place");
                self.txs[k % lanes - 1]
                    .send((ctx.clone(), k, shard))
                    .expect("worker alive");
                sent += 1;
            }
        }
        for k in (0..self.shards.len()).step_by(lanes) {
            (self.work)(&ctx, self.shards[k].as_mut().expect("shard in place"));
        }
        let done = self.done.as_ref().expect("pooled mode has a receiver");
        for _ in 0..sent {
            let (k, shard) = recv_spin(done).expect("worker alive");
            self.shards[k] = Some(shard);
        }
    }

    /// Mutable access to every shard, in shard order (between phases the
    /// driver owns them all).
    pub fn shards_mut(&mut self) -> impl Iterator<Item = &mut T> {
        self.shards
            .iter_mut()
            .map(|s| s.as_mut().expect("shard in place"))
    }
}

/// Builds a [`ShardPool`] over `shards` backed by `threads` host threads
/// (including the caller's: `threads - 1` workers are spawned, and shard 0
/// runs on the caller's thread inside [`ShardPool::phase`]), runs `drive`
/// with it, tears the workers down, and returns `drive`'s result.
///
/// `threads <= 1` — or a single shard — spawns nothing and runs every
/// phase inline. More threads than shards are clamped to the shard count.
// `W` is a type parameter, not `&dyn Fn`: in inline mode `phase` calls the
// work function once per shard per window, and through a trait object that
// call is direct only while the inliner happens to fold `phase` into a caller
// that knows the callee (worth 9-18% of a compute-bound cosim turn).
pub fn with_shard_pool<T, C, W, R>(
    threads: usize,
    shards: Vec<T>,
    work: &W,
    drive: impl FnOnce(&mut ShardPool<'_, T, C, W>) -> R,
) -> R
where
    T: Send,
    C: Send + Clone,
    W: Fn(&C, &mut T) + Sync,
{
    let n_workers = threads
        .saturating_sub(1)
        .min(shards.len().saturating_sub(1));
    let shards: Vec<Option<T>> = shards.into_iter().map(Some).collect();
    if n_workers == 0 {
        let mut pool = ShardPool {
            work,
            shards,
            txs: Vec::new(),
            done: None,
        };
        return drive(&mut pool);
    }
    std::thread::scope(|s| {
        let (done_tx, done_rx) = mpsc::channel::<(usize, T)>();
        let mut txs = Vec::with_capacity(n_workers);
        for _ in 0..n_workers {
            let (tx, rx) = mpsc::channel::<(C, usize, T)>();
            txs.push(tx);
            let done = done_tx.clone();
            s.spawn(move || {
                while let Ok((ctx, k, mut shard)) = recv_spin(&rx) {
                    work(&ctx, &mut shard);
                    if done.send((k, shard)).is_err() {
                        break;
                    }
                }
            });
        }
        let mut pool = ShardPool {
            work,
            shards,
            txs,
            done: Some(done_rx),
        };
        let out = drive(&mut pool);
        // Dropping the pool closes the dispatch channels; the workers'
        // `recv` fails and they exit, letting the scope join them.
        drop(pool);
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_sum(threads: usize, shards: Vec<Vec<u64>>, phases: u64) -> Vec<Vec<u64>> {
        let work = |ctx: &u64, shard: &mut Vec<u64>| {
            for v in shard.iter_mut() {
                *v = v.wrapping_mul(31).wrapping_add(*ctx);
            }
        };
        with_shard_pool(threads, shards, &work, |pool| {
            for p in 0..phases {
                pool.phase(p);
            }
            pool.shards_mut().map(|s| s.clone()).collect()
        })
    }

    #[test]
    fn results_identical_across_thread_counts() {
        let shards: Vec<Vec<u64>> = (0..7).map(|k| (k * 10..k * 10 + 5).collect()).collect();
        let golden = run_sum(1, shards.clone(), 20);
        for threads in [2, 3, 4, 8, 32] {
            assert_eq!(run_sum(threads, shards.clone(), 20), golden, "{threads}");
        }
    }

    #[test]
    fn inline_mode_spawns_no_workers() {
        let work = |_: &(), _: &mut u32| {};
        with_shard_pool(1, vec![1u32, 2, 3], &work, |pool| {
            assert_eq!(pool.workers(), 0);
            assert_eq!(pool.shard_count(), 3);
            pool.phase(());
        });
    }

    #[test]
    fn workers_clamped_to_shards() {
        let work = |_: &(), s: &mut u32| *s += 1;
        with_shard_pool(16, vec![0u32, 0], &work, |pool| {
            assert_eq!(pool.workers(), 1);
            pool.phase(());
            let vals: Vec<u32> = pool.shards_mut().map(|s| *s).collect();
            assert_eq!(vals, vec![1, 1]);
        });
    }

    #[test]
    fn driver_owns_shards_between_phases() {
        let work = |ctx: &u32, s: &mut u32| *s += ctx;
        with_shard_pool(4, vec![0u32; 4], &work, |pool| {
            pool.phase(5);
            for s in pool.shards_mut() {
                assert_eq!(*s, 5);
                *s = 100; // driver-side mutation must stick
            }
            pool.phase(1);
            for s in pool.shards_mut() {
                assert_eq!(*s, 101);
            }
        });
    }
}
