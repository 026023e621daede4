//! Full-system `-O0` co-simulation: softcores on the linking network.
//!
//! The most literal execution model in the reproduction: every page's
//! PicoRV32-class core runs its *compiled binary* instruction by
//! instruction, its memory-mapped stream ports wired to the leaf interfaces
//! of a cycle-level BFT network, with the DMA engine feeding and draining
//! external streams — the complete Fig. 3/Fig. 4 system. Blocking loads
//! stall cores until flits arrive; backpressure stalls writers; the Kahn
//! property guarantees the outputs match the host interpreter bit for bit,
//! and the integration tests assert exactly that.
//!
//! (The `-O1` performance model in [`crate::execute`] uses fluid actors for
//! speed; this module trades speed for fidelity and doubles as the
//! reference the actor model is sanity-checked against.)

use noc::{BftNoc, LeafInterface};
use softcore::{with_shard_pool, Cpu, StepResult, StreamIo};
use std::collections::VecDeque;
use std::fmt;

use crate::artifact::XclbinKind;
use crate::flow::{CompiledApp, OptLevel};

/// Result of a completed co-simulation.
#[derive(Debug, Clone)]
pub struct CosimOutput {
    /// Output word streams per external output, in declaration order.
    pub outputs: Vec<Vec<u32>>,
    /// Overlay cycles simulated.
    pub cycles: u64,
    /// Instructions retired across all cores.
    pub instructions: u64,
    /// Seconds of card time at the 200 MHz overlay clock.
    pub seconds: f64,
}

/// Co-simulation failures.
#[derive(Debug)]
pub enum CosimError {
    /// The app must be compiled at `-O0` (every operator a softcore image).
    WrongLevel,
    /// A core trapped.
    #[allow(missing_docs)]
    Trap { op: String, pc: u32 },
    /// The system did not drain within the cycle budget (deadlock or
    /// insufficient input).
    #[allow(missing_docs)]
    CycleBudget { cycles: u64 },
}

impl fmt::Display for CosimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CosimError::WrongLevel => write!(f, "co-simulation requires an -O0 app"),
            CosimError::Trap { op, pc } => write!(f, "softcore `{op}` trapped at {pc:#x}"),
            CosimError::CycleBudget { cycles } => {
                write!(f, "system did not complete within {cycles} cycles")
            }
        }
    }
}

impl std::error::Error for CosimError {}

/// Tuning knobs for the co-simulation loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CosimConfig {
    /// Skip stepping cores that are provably still blocked on a stream
    /// (nothing pending on the read port / out FIFO still full), charging
    /// the skipped stall cycles in one jump when the core unblocks. A
    /// stalled step has no architectural effect besides `cycles +=
    /// STALL` — the PC does not advance — so reported cycle counts,
    /// instruction counts, and outputs are identical with this on or off;
    /// only the wall-clock cost of simulating stalls changes.
    pub skip_ahead: bool,
    /// Execute cores through the softcore's pre-decoded basic-block cache
    /// ([`softcore::Cpu::run_ahead`]): after each externally-visible step,
    /// a core burns through its private straight-line work in one tight
    /// dispatch loop and then *sleeps* until the loop cycle of its next
    /// stream access, halt, or trap — which executes through the decoded
    /// micro-op ([`softcore::Cpu::step_cached`], semantics mirroring the
    /// reference `step()` case for case) at exactly the cycle the
    /// decode-per-step loop would have reached it. Architectural state,
    /// cycle counts,
    /// instruction counts, and outputs are bit-identical with this on or
    /// off; only host throughput changes.
    pub block_cache: bool,
    /// Host threads driving the sharded engine (block-cache mode only).
    /// Cores are sharded across `threads` workers and advanced through
    /// bounded windows of cycles between deterministic barriers at the NoC
    /// boundary; the schedule is a pure function of (firmware, stream
    /// inputs), so results are bit-identical for *every* value, including
    /// `1` — the single-thread cosim is the same engine run inline, not a
    /// second code path.
    pub threads: usize,
    /// Cycle width of the run-ahead window between barriers (clamped to at
    /// least 1). Within a window a core may retire several
    /// externally-visible stream accesses against its leaf's buffered
    /// words without a barrier; any access that *cannot* be proven to
    /// resolve identically in the serial schedule ends the window early and
    /// is retried at its exact cycle. Purely a host-throughput knob.
    pub window: u64,
}

/// Default [`CosimConfig::window`]: wide enough to batch several visible
/// stream accesses of a compute-heavy operator per barrier, small enough
/// that ambiguous-access retries stay cheap.
pub const DEFAULT_COSIM_WINDOW: u64 = 4096;

impl Default for CosimConfig {
    fn default() -> CosimConfig {
        CosimConfig {
            skip_ahead: true,
            block_cache: true,
            threads: 1,
            window: DEFAULT_COSIM_WINDOW,
        }
    }
}

/// Why a core's last access stalled, as recorded by its leaf adapter.
#[derive(Debug, Clone, Copy)]
enum Stalled {
    /// Blocking stream load on this port.
    Read(u32),
    /// Backpressured stream store.
    Write,
}

/// A parked core's wake condition, for the skip-ahead check. `seen` caches
/// the leaf's NoC event counter at the last (failed) poll: the condition
/// can only flip when the counter moves, so the per-cycle check is a single
/// integer compare until the leaf actually sees traffic.
#[derive(Debug, Clone, Copy)]
enum Blocked {
    /// Blocking stream load: wake when a word is pending on this port.
    Read { port: u32, seen: u64 },
    /// Backpressured stream store: wake when the leaf's out FIFO has room.
    Write { seen: u64 },
}

struct CoreState {
    name: String,
    leaf: usize,
    cpu: Cpu,
    halted: bool,
    /// `Some` while the core's next step is known to stall again.
    blocked: Option<Blocked>,
    /// Loop cycle at which the core blocked; the stall cycles it would
    /// have burned are charged arithmetically on wakeup.
    blocked_at: u64,
    /// Block-cache mode: the loop cycle at which this core's next
    /// externally-visible instruction must run. Everything before it has
    /// already been executed by `run_ahead`, so the loop skips the core
    /// until then.
    wake: u64,
}

/// One cycle's worth of stream I/O for a core, adapted onto its NoC leaf.
/// Records why an access stalled so the cosim loop can sleep the core.
struct LeafIo<'n> {
    net: &'n mut BftNoc,
    leaf: usize,
    stalled: Option<Stalled>,
}

impl StreamIo for LeafIo<'_> {
    fn read(&mut self, port: u32) -> Option<u32> {
        let word = self.net.try_recv(self.leaf, port as u8);
        if word.is_none() {
            self.stalled = Some(Stalled::Read(port));
        }
        word
    }

    fn write(&mut self, port: u32, word: u32) -> bool {
        let ok = self.net.inject(self.leaf, port as usize, word).is_ok();
        if !ok {
            self.stalled = Some(Stalled::Write);
        }
        ok
    }
}

/// A halt or trap discovered *mid-window* by a worker. The core's
/// architectural state already reflects it (nothing else touches the core
/// in between), but the system-level effect — the halted count, the error
/// return — must land at the exact loop cycle the serial engine would
/// reach it, so the driver defers it until `wake`.
#[derive(Debug, Clone, Copy)]
enum Pending {
    Halt,
    Trap { pc: u32 },
}

/// One core plus its leaf, as moved between the driver and a worker
/// thread each phase. `leaf` holds a blank placeholder while the real leaf
/// interface sits in the network, and the real leaf during a phase (the
/// driver swaps them at the barrier); the network is never stepped while a
/// real leaf is out.
struct Shard {
    core: CoreState,
    leaf: LeafInterface,
    /// Genuine stall (at the window's first cycle, where the leaf state is
    /// exact) recorded by the worker for the driver's skip-ahead parking.
    stalled: Option<Stalled>,
    /// Deferred halt/trap, applied by the driver at `core.wake`.
    pending: Option<Pending>,
}

/// Per-phase context handed to every window worker. Pure data — the
/// schedule a worker derives from it is a function of (core state, leaf
/// state, this context) only, which is what makes the engine deterministic
/// across host thread counts.
#[derive(Debug, Clone, Copy)]
struct WindowCtx {
    /// The loop cycle at the barrier: the window covers `[cycles, cycles +
    /// window)`.
    cycles: u64,
    max_cycles: u64,
    window: u64,
}

/// Stream I/O adapter for in-window execution: reads pop the (swapped-out)
/// leaf's receive FIFOs directly, writes are born into its out FIFO
/// stamped with the *local* cycle `now`, which may run ahead of the
/// network clock — the uplink holds such flits until their birth cycle, so
/// they enter the network on exactly the cycle the serial engine would
/// have injected them.
struct WindowIo<'l> {
    leaf: &'l mut LeafInterface,
    leaf_idx: usize,
    now: u64,
    stalled: Option<Stalled>,
}

impl StreamIo for WindowIo<'_> {
    fn read(&mut self, port: u32) -> Option<u32> {
        let word = self.leaf.try_recv(port as u8);
        if word.is_none() {
            self.stalled = Some(Stalled::Read(port));
        }
        word
    }

    fn write(&mut self, port: u32, word: u32) -> bool {
        let ok = self
            .leaf
            .inject_local(self.leaf_idx, port as usize, word, self.now)
            .is_ok();
        if !ok {
            self.stalled = Some(Stalled::Write);
        }
        ok
    }
}

/// Advances one due core through the window `[ctx.cycles, ctx.cycles +
/// ctx.window)` — the per-shard work function run (possibly concurrently)
/// by the pool workers. Every architectural decision is provably identical
/// to the serial schedule:
///
/// * the first visible access executes at the window's opening cycle,
///   where the leaf state is *exact* (the network has fully advanced to
///   it), so successes, stalls, halts and traps there are all genuine;
/// * later accesses run against a leaf the network hasn't touched since
///   the barrier. A read that succeeds consumed a word that was already
///   buffered — deliveries only append behind it, so the serial schedule
///   pops the same word at the same cycle. A write that succeeds had
///   queue room and credits at the barrier; both only improve as the
///   network drains, so the serial inject succeeds too, and the birth
///   stamp defers its network entry to the exact serial cycle;
/// * an access that *fails* mid-window is ambiguous — the serial schedule
///   might have delivered a word (or drained the queue) by then. The
///   stall charge is undone, the pc is unchanged, and the window ends
///   with `wake` at the access cycle: the driver re-runs it there as the
///   opening (exact) access of a later window;
/// * halts and traps end the window and are deferred to their cycle via
///   [`Pending`].
fn advance_window(ctx: &WindowCtx, shard: &mut Shard) {
    let Shard {
        core,
        leaf,
        stalled,
        pending,
    } = shard;
    advance_window_on(ctx, core, leaf, stalled, pending);
}

/// [`advance_window`] against an explicit leaf interface: the driver's
/// inline (no-worker) mode borrows the leaf straight out of the network
/// ([`BftNoc::leaf_mut`]) instead of swapping it into the shard — same
/// work, zero hand-off cost.
fn advance_window_on(
    ctx: &WindowCtx,
    core: &mut CoreState,
    leaf: &mut LeafInterface,
    stalled: &mut Option<Stalled>,
    pending: &mut Option<Pending>,
) {
    if core.halted || core.blocked.is_some() || pending.is_some() || core.wake > ctx.cycles {
        return;
    }
    let start = ctx.cycles;
    let limit = start.saturating_add(ctx.window).min(ctx.max_cycles);
    let mut u = start;
    loop {
        // Invariant: u < limit <= max_cycles, so the fuel math can't wrap
        // and a spinning core re-surfaces exactly at the budget.
        let fuel = ctx.max_cycles - u - 1;
        let (result, ran, io_stalled) = {
            let mut io = WindowIo {
                leaf: &mut *leaf,
                leaf_idx: core.leaf,
                now: u,
                stalled: None,
            };
            let (result, ran) = core.cpu.step_then_run(&mut io, fuel, u64::MAX);
            (result, ran, io.stalled)
        };
        match result {
            StepResult::Ok => {
                core.wake = u + 1 + ran;
                if core.wake >= limit {
                    return;
                }
                u = core.wake;
            }
            StepResult::Stall => {
                if u == start {
                    // Exact: the stall is real; keep its cycle charge and
                    // hand the reason to the driver for parking.
                    *stalled = io_stalled;
                } else {
                    // Ambiguous: the serial schedule may have delivered by
                    // cycle `u`. Undo the stall charge (a stalled step has
                    // no other architectural effect) and retry at `u`.
                    core.cpu.cycles -= softcore::firmware::cycles::STALL;
                    core.wake = u;
                }
                return;
            }
            StepResult::Halt => {
                *pending = Some(Pending::Halt);
                core.wake = u;
                return;
            }
            StepResult::Trap { pc } => {
                *pending = Some(Pending::Trap { pc });
                core.wake = u;
                return;
            }
        }
    }
}

/// Runs a compiled `-O0` application cycle-accurately: cores and network
/// advance in lockstep at the overlay clock, with the default
/// [`CosimConfig`] (block cache and stall skip-ahead enabled).
///
/// # Errors
///
/// See [`CosimError`].
pub fn cosim_o0(
    app: &CompiledApp,
    inputs: &[Vec<u32>],
    expected_output_words: &[usize],
    max_cycles: u64,
) -> Result<CosimOutput, CosimError> {
    cosim_o0_with(
        app,
        inputs,
        expected_output_words,
        max_cycles,
        CosimConfig::default(),
    )
}

/// DMA in: offer one word per cycle to the input leaf's single uplink.
/// Returns whether a word was accepted.
fn dma_inject(net: &mut BftNoc, dma_in: usize, queues: &mut [VecDeque<u32>]) -> bool {
    for (stream, q) in queues.iter_mut().enumerate() {
        if let Some(&w) = q.front() {
            if net.inject(dma_in, stream, w).is_ok() {
                q.pop_front();
                return true;
            }
            return false; // single uplink: first pending stream owns the slot
        }
    }
    false
}

/// DMA out: drain arrivals on the output leaf into the output buffers.
fn dma_drain(net: &mut BftNoc, dma_out: usize, outputs: &mut [Vec<u32>]) {
    for (port, out) in outputs.iter_mut().enumerate() {
        while let Some(w) = net.try_recv(dma_out, port as u8) {
            out.push(w);
        }
    }
}

/// Whether every expected output stream has been fully collected.
fn drained(outputs: &[Vec<u32>], want: &[usize]) -> bool {
    outputs.iter().zip(want).all(|(got, w)| got.len() >= *w)
}

/// The instantiated system state shared by both driver loops.
struct CosimSys<'a> {
    cores: Vec<CoreState>,
    net: BftNoc,
    dma_queues: Vec<VecDeque<u32>>,
    outputs: Vec<Vec<u32>>,
    expected: &'a [usize],
    dma_in: usize,
    dma_out: usize,
    max_cycles: u64,
}

impl CosimSys<'_> {
    /// The decode-per-step driver loop — the differential oracle the
    /// block-cached and windowed engines are checked against, cycle for
    /// cycle. Kept structurally as it shipped (full per-cycle core scan,
    /// unconditional network step and DMA drain every cycle) so that it
    /// stays too simple to share a bug with them.
    fn run_decode_per_step(
        mut self,
        skip_ahead: bool,
    ) -> Result<(Vec<Vec<u32>>, u64, u64), CosimError> {
        let mut cycles = 0u64;
        loop {
            // Completion: every core halted and all outputs collected.
            let all_halted = self.cores.iter().all(|c| c.halted);
            if all_halted && drained(&self.outputs, self.expected) {
                break;
            }
            if cycles >= self.max_cycles {
                return Err(CosimError::CycleBudget { cycles });
            }

            dma_inject(&mut self.net, self.dma_in, &mut self.dma_queues);

            // Each core executes one step against its leaf. A core known to
            // be blocked is skipped until its wakeup condition holds; the
            // wakeup check is exactly the condition under which the stalled
            // access would have succeeded, so the core re-steps on the same
            // cycle it would have in the unskipped loop.
            let mut any_stepped = false;
            for core in self.cores.iter_mut() {
                if core.halted {
                    continue;
                }
                if skip_ahead {
                    if let Some(blocked) = &mut core.blocked {
                        // Fast path: the leaf's event counter is unchanged
                        // since the last poll, so the stalled access would
                        // still stall.
                        let ready = match blocked {
                            Blocked::Read { port, seen } => {
                                let seq = self.net.rx_events(core.leaf);
                                *seen != seq && {
                                    *seen = seq;
                                    self.net.pending(core.leaf, *port as u8) > 0
                                }
                            }
                            Blocked::Write { seen } => {
                                let seq = self.net.tx_events(core.leaf);
                                *seen != seq && {
                                    *seen = seq;
                                    self.net.leaf(core.leaf).can_inject()
                                }
                            }
                        };
                        if !ready {
                            continue;
                        }
                        // A stalled step only adds STALL to the cycle
                        // counter; settle every skipped stall — the cycles
                        // after the one that blocked, up to (not including)
                        // this one — in one arithmetic jump.
                        core.cpu.cycles +=
                            (cycles - core.blocked_at - 1) * softcore::firmware::cycles::STALL;
                        core.blocked = None;
                    }
                }
                any_stepped = true;
                let (result, stalled) = {
                    let mut io = LeafIo {
                        net: &mut self.net,
                        leaf: core.leaf,
                        stalled: None,
                    };
                    (core.cpu.step(&mut io), io.stalled)
                };
                match result {
                    StepResult::Ok => {}
                    StepResult::Stall => {
                        if skip_ahead {
                            // Snapshot the leaf's event counter now, before
                            // this cycle's `net.step()`: any delivery or
                            // uplink pop after this point moves it and
                            // forces a real poll.
                            core.blocked_at = cycles;
                            core.blocked = stalled.map(|s| match s {
                                Stalled::Read(port) => Blocked::Read {
                                    port,
                                    seen: self.net.rx_events(core.leaf),
                                },
                                Stalled::Write => Blocked::Write {
                                    seen: self.net.tx_events(core.leaf),
                                },
                            });
                        }
                    }
                    StepResult::Halt => core.halted = true,
                    StepResult::Trap { pc } => {
                        return Err(CosimError::Trap {
                            op: core.name.clone(),
                            pc,
                        })
                    }
                }
            }

            // Dead state: every live core is parked on a stream that can
            // never move (no flit in flight, nothing left to inject). The
            // system can only burn its budget; jump straight to that
            // outcome — the reported cycle count is exactly what the
            // unskipped loop would produce.
            if !any_stepped
                && !self.net.in_flight()
                && self.dma_queues.iter().all(VecDeque::is_empty)
                && skip_ahead
            {
                return Err(CosimError::CycleBudget {
                    cycles: self.max_cycles,
                });
            }

            self.net.step();
            cycles += 1;
            dma_drain(&mut self.net, self.dma_out, &mut self.outputs);
        }
        let instructions = self.cores.iter().map(|c| c.cpu.instructions).sum();
        Ok((self.outputs, cycles, instructions))
    }

    /// The sharded block-cached driver loop — the single engine behind
    /// every `block_cache` run, at *any* thread count (`threads = 1` runs
    /// the identical phases inline). Each iteration:
    ///
    /// 1. **Solo A** (driver): completion and budget checks, DMA input
    ///    injection, and the blocked-core wake scan (leaf event counters,
    ///    stall settlement) — everything that needs the whole network.
    /// 2. **Phase** (parallel): if any core is due, the driver swaps each
    ///    core's leaf interface out of the network and hands (core, leaf)
    ///    to the shard pool; workers advance due cores through a bounded
    ///    window of cycles ([`advance_window`]), reading only words
    ///    already buffered and writing birth-stamped flits. Shard-mates
    ///    can't observe each other, so the outcome is a pure function of
    ///    the barrier state — bit-identical for every thread count.
    /// 3. **Solo B** (driver): swap the leaves back and commit their
    ///    pending injections in leaf order, apply deferred stalls, halts
    ///    and traps in core-index order at their exact cycles, then the
    ///    serial tail: one network step, the delivery-gated DMA drain, and
    ///    the idle jump / quiet fast-forward over cycles where no core can
    ///    act.
    ///
    /// Cycle accounting is bit-identical to the decode-per-step loop —
    /// pinned by the cycle-exactness tests and the thread-count matrix.
    fn run_parallel(
        self,
        skip_ahead: bool,
        threads: usize,
        window: u64,
    ) -> Result<(Vec<Vec<u32>>, u64, u64), CosimError> {
        let CosimSys {
            cores,
            mut net,
            mut dma_queues,
            mut outputs,
            expected,
            dma_in,
            dma_out,
            max_cycles,
        } = self;
        let n_cores = cores.len();
        let window = window.max(1);
        // One shard per core: the pool stripes them across worker lanes,
        // and `shards_mut()` iterates them in core-index order — the same
        // order the serial scan visits cores, which the trap/halt
        // application below relies on.
        let shards: Vec<Shard> = cores
            .into_iter()
            .map(|core| Shard {
                core,
                leaf: LeafInterface::new(0, 0, 1),
                stalled: None,
                pending: None,
            })
            .collect();
        with_shard_pool(
            threads,
            shards,
            &advance_window,
            move |pool| -> Result<(Vec<Vec<u32>>, u64, u64), CosimError> {
                let mut halted = 0usize;
                let mut is_drained = drained(&outputs, expected);
                let mut dma_left: usize = dma_queues.iter().map(VecDeque::len).sum();
                let mut dma_rx_seen = net.rx_events(dma_out);
                let mut cycles = 0u64;
                // Blocked-core watch list for the quiet fast-forward,
                // reused across iterations: (leaf, is_read, counter at
                // last poll).
                let mut watch: Vec<(usize, bool, u64)> = Vec::with_capacity(n_cores);
                loop {
                    if halted == n_cores && is_drained {
                        break;
                    }
                    if cycles >= max_cycles {
                        return Err(CosimError::CycleBudget { cycles });
                    }

                    if dma_left > 0 && dma_inject(&mut net, dma_in, &mut dma_queues) {
                        dma_left -= 1;
                    }

                    // Solo A: wake blocked cores whose leaf saw traffic
                    // (settling their skipped stall cycles in one jump)
                    // and find whether any core is due this cycle.
                    let mut any_due = false;
                    for shard in pool.shards_mut() {
                        let core = &mut shard.core;
                        if core.halted {
                            continue;
                        }
                        if let Some(blocked) = &mut core.blocked {
                            let ready = match blocked {
                                Blocked::Read { port, seen } => {
                                    let seq = net.rx_events(core.leaf);
                                    *seen != seq && {
                                        *seen = seq;
                                        net.pending(core.leaf, *port as u8) > 0
                                    }
                                }
                                Blocked::Write { seen } => {
                                    let seq = net.tx_events(core.leaf);
                                    *seen != seq && {
                                        *seen = seq;
                                        net.leaf(core.leaf).can_inject()
                                    }
                                }
                            };
                            if ready {
                                core.cpu.cycles += (cycles - core.blocked_at - 1)
                                    * softcore::firmware::cycles::STALL;
                                core.blocked = None;
                            }
                        }
                        if core.blocked.is_none() && shard.pending.is_none() && cycles >= core.wake
                        {
                            any_due = true;
                        }
                    }

                    // Phase: every due core advances through the window
                    // against its leaf. A due core always executes at
                    // least its opening access, so `any_due` doubles as
                    // the serial loop's `any_stepped`.
                    let mut any_stepped = any_due;
                    if any_due {
                        let ctx = WindowCtx {
                            cycles,
                            max_cycles,
                            window,
                        };
                        if pool.workers() == 0 {
                            // Inline: one host thread means no hand-off —
                            // advance each core against the real leaf in
                            // place (shard order = core-index = leaf
                            // order, as below). Same work function, same
                            // schedule, zero swap traffic.
                            for shard in pool.shards_mut() {
                                let leaf_idx = shard.core.leaf;
                                advance_window_on(
                                    &ctx,
                                    &mut shard.core,
                                    net.leaf_mut(leaf_idx),
                                    &mut shard.stalled,
                                    &mut shard.pending,
                                );
                                net.commit_injections(leaf_idx);
                            }
                        } else {
                            for shard in pool.shards_mut() {
                                net.swap_leaf(shard.core.leaf, &mut shard.leaf);
                            }
                            pool.phase(ctx);
                            // Solo B begins: return the leaves and fold
                            // their in-window injections into the
                            // network's global bookkeeping, in leaf
                            // (= core-index) order.
                            for shard in pool.shards_mut() {
                                net.swap_leaf(shard.core.leaf, &mut shard.leaf);
                                net.commit_injections(shard.core.leaf);
                            }
                        }
                    }

                    // Apply phase outcomes in core-index order — the order
                    // the serial scan steps cores, so same-cycle traps
                    // resolve to the same core — and collect the wake
                    // bookkeeping for the fast paths.
                    let mut next_due = u64::MAX;
                    let mut any_runnable = false;
                    watch.clear();
                    for shard in pool.shards_mut() {
                        let core = &mut shard.core;
                        if core.halted {
                            continue;
                        }
                        if skip_ahead {
                            if let Some(s) = shard.stalled.take() {
                                core.blocked_at = cycles;
                                core.blocked = Some(match s {
                                    Stalled::Read(port) => Blocked::Read {
                                        port,
                                        seen: net.rx_events(core.leaf),
                                    },
                                    Stalled::Write => Blocked::Write {
                                        seen: net.tx_events(core.leaf),
                                    },
                                });
                            }
                        } else {
                            shard.stalled = None;
                        }
                        if shard.pending.is_some() && cycles >= core.wake {
                            // The deferred halt/trap's cycle has arrived:
                            // serially the core would have stepped into it
                            // right now.
                            any_stepped = true;
                            match shard.pending.take().expect("checked above") {
                                Pending::Halt => {
                                    core.halted = true;
                                    halted += 1;
                                    continue;
                                }
                                Pending::Trap { pc } => {
                                    return Err(CosimError::Trap {
                                        op: core.name.clone(),
                                        pc,
                                    });
                                }
                            }
                        }
                        match core.blocked {
                            None => {
                                any_runnable = true;
                                // A core that just stalled un-parked
                                // (skip-ahead off) keeps a stale wake; it
                                // is due again next cycle.
                                next_due = next_due.min(core.wake.max(cycles + 1));
                            }
                            Some(Blocked::Read { seen, .. }) => {
                                watch.push((core.leaf, true, seen));
                            }
                            Some(Blocked::Write { seen }) => {
                                watch.push((core.leaf, false, seen));
                            }
                        }
                    }

                    // Idle window: no core stepped, nothing queued for
                    // DMA, and the network carries no flit — each cycle
                    // until the next sleeper wakes is an exact no-op
                    // iteration.
                    if !any_stepped && dma_left == 0 && !net.in_flight() {
                        if any_runnable {
                            debug_assert!(next_due > cycles, "a due core must have stepped");
                            // Keep the (empty) network's clock in lockstep
                            // with the jumped loop clock: in-window flits are
                            // birth-stamped in loop time, and the uplink
                            // holds them until the *network* clock reaches
                            // that cycle.
                            let to = next_due.min(max_cycles);
                            net.skip_idle_cycles(to - cycles);
                            cycles = to;
                            continue;
                        }
                        // No sleeper will ever wake: the system is dead
                        // and can only burn its budget.
                        if skip_ahead {
                            return Err(CosimError::CycleBudget { cycles: max_cycles });
                        }
                    }

                    net.step();
                    cycles += 1;

                    // New output words can only exist if the output leaf's
                    // delivery counter moved.
                    let rx = net.rx_events(dma_out);
                    if rx != dma_rx_seen {
                        dma_rx_seen = rx;
                        dma_drain(&mut net, dma_out, &mut outputs);
                        is_drained = drained(&outputs, expected);
                    }

                    // Quiet fast-forward: while no core can possibly act —
                    // every sleeper is short of its wake cycle and no
                    // blocked core's leaf has seen a NoC event — a full
                    // loop iteration reduces to DMA injection plus a
                    // network step. Run exactly that until something
                    // becomes due.
                    let all_halted = halted == n_cores;
                    while cycles < next_due
                        && cycles < max_cycles
                        && (dma_left > 0 || net.in_flight())
                        && !(all_halted && is_drained)
                        && watch.iter().all(|&(leaf, is_read, seen)| {
                            if is_read {
                                net.rx_events(leaf) == seen
                            } else {
                                net.tx_events(leaf) == seen
                            }
                        })
                    {
                        // Batch skip: with nothing left to inject and an
                        // empty switch tree, every step until the earliest
                        // queued flit ripens is a no-op — jump straight to
                        // that cycle instead of stepping through.
                        if dma_left == 0 && net.tree_flits() == 0 {
                            if let Some(ripe) = net.next_ripe_birth() {
                                if ripe > cycles {
                                    let to = ripe.min(next_due).min(max_cycles);
                                    net.skip_idle_cycles(to - cycles);
                                    cycles = to;
                                    continue;
                                }
                            }
                        }
                        // Lone-flit batch: hop the only in-flight flit all
                        // the way to its event (delivery, a queued flit
                        // ripening, or the next due cycle) in one call.
                        // Event counters can only move on the final hop, so
                        // the per-step watch re-check is deferred to the
                        // loop condition after the batch.
                        if dma_left == 0 && net.tree_flits() == 1 {
                            let hopped = net.run_lone_flit(next_due.min(max_cycles));
                            if hopped > 0 {
                                cycles += hopped;
                                let rx = net.rx_events(dma_out);
                                if rx != dma_rx_seen {
                                    dma_rx_seen = rx;
                                    dma_drain(&mut net, dma_out, &mut outputs);
                                    is_drained = drained(&outputs, expected);
                                }
                                continue;
                            }
                        }
                        if dma_left > 0 && dma_inject(&mut net, dma_in, &mut dma_queues) {
                            dma_left -= 1;
                        }
                        net.step();
                        cycles += 1;
                        let rx = net.rx_events(dma_out);
                        if rx != dma_rx_seen {
                            dma_rx_seen = rx;
                            dma_drain(&mut net, dma_out, &mut outputs);
                            is_drained = drained(&outputs, expected);
                        }
                    }
                }
                let instructions = pool.shards_mut().map(|s| s.core.cpu.instructions).sum();
                Ok((outputs, cycles, instructions))
            },
        )
    }
}

/// [`cosim_o0`] with explicit loop tuning.
///
/// # Errors
///
/// See [`CosimError`].
pub fn cosim_o0_with(
    app: &CompiledApp,
    inputs: &[Vec<u32>],
    expected_output_words: &[usize],
    max_cycles: u64,
    config: CosimConfig,
) -> Result<CosimOutput, CosimError> {
    if app.level != OptLevel::O0 {
        return Err(CosimError::WrongLevel);
    }

    // Instantiate every page core from its packed image. In block-cache
    // mode each core immediately runs ahead through its private prologue:
    // one retired instruction corresponds to one loop cycle, so a core
    // that retires `ran` instructions sleeps until loop cycle `ran`, where
    // its first stream access (or halt/trap) is due.
    let mut cores: Vec<CoreState> = Vec::new();
    for op in &app.operators {
        let binary = op.soft.as_ref().ok_or(CosimError::WrongLevel)?;
        let leaf = op.page.expect("paged flow").0 as usize;
        let mut cpu = binary.instantiate();
        let wake = if config.block_cache {
            // The superblock JIT tier rides on the block cache: hot block
            // entries are trace-linked after a few executions. Purely a
            // throughput tier — bit-identity is pinned by the softcore
            // differential suite and the cycle-exactness tests here.
            cpu.set_superblock_threshold(softcore::DEFAULT_SUPERBLOCK_THRESHOLD);
            cpu.run_ahead(max_cycles, u64::MAX)
        } else {
            0
        };
        cores.push(CoreState {
            name: op.name.clone(),
            leaf,
            cpu,
            halted: false,
            blocked: None,
            blocked_at: 0,
            wake,
        });
    }

    // The network, linked by the generated driver.
    let n_pages = app.floorplan.pages.len();
    let mut net = BftNoc::new(n_pages + 2, 8, 64);
    for link in &app.driver.links {
        net.set_dest(link.src_leaf as usize, link.stream as usize, link.dest);
    }
    let dma_in = app.dma_in_leaf() as usize;
    let dma_out = app.dma_out_leaf() as usize;

    let sys = CosimSys {
        cores,
        net,
        dma_queues: inputs.iter().map(|v| v.iter().copied().collect()).collect(),
        outputs: expected_output_words.iter().map(|_| Vec::new()).collect(),
        expected: expected_output_words,
        dma_in,
        dma_out,
        max_cycles,
    };
    let (outputs, cycles, instructions) = if config.block_cache {
        sys.run_parallel(config.skip_ahead, config.threads, config.window)?
    } else {
        sys.run_decode_per_step(config.skip_ahead)?
    };
    Ok(CosimOutput {
        outputs,
        cycles,
        instructions,
        seconds: crate::vtime::overlay_seconds(cycles),
    })
}

/// [`cosim_o0`] sharded across `threads` host worker threads with the
/// default run-ahead window. The schedule is a pure function of (firmware,
/// stream inputs): outputs, cycle counts, and instruction counts are
/// bit-identical to [`cosim_o0`] — and to each other — for every thread
/// count. Threads only change host wall-clock.
///
/// # Errors
///
/// See [`CosimError`].
pub fn cosim_o0_parallel(
    app: &CompiledApp,
    inputs: &[Vec<u32>],
    expected_output_words: &[usize],
    max_cycles: u64,
    threads: usize,
) -> Result<CosimOutput, CosimError> {
    cosim_o0_with(
        app,
        inputs,
        expected_output_words,
        max_cycles,
        CosimConfig {
            threads,
            ..CosimConfig::default()
        },
    )
}

/// Convenience: checks an artifact really is a softcore image (used by
/// loader-side assertions and tests).
pub fn is_softcore_artifact(kind: &XclbinKind) -> bool {
    matches!(kind, XclbinKind::Softcore { .. })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::{compile, CompileOptions};
    use dfg::{GraphBuilder, Target};
    use kir::{Expr, KernelBuilder, Scalar, Stmt};

    fn stage(name: &str, mul: i64, n: i64) -> kir::Kernel {
        KernelBuilder::new(name)
            .input("in", Scalar::uint(32))
            .output("out", Scalar::uint(32))
            .local("x", Scalar::uint(32))
            .body([Stmt::for_loop(
                "i",
                0..n,
                [
                    Stmt::read("x", "in"),
                    Stmt::write(
                        "out",
                        Expr::var("x").mul(Expr::cint(mul)).add(Expr::var("i")),
                    ),
                ],
            )])
            .build()
            .unwrap()
    }

    #[test]
    fn full_system_matches_golden() {
        const N: i64 = 24;
        let mut b = GraphBuilder::new("sys");
        let a = b.add("a", stage("a", 3, N), Target::hw_auto());
        let c = b.add("c", stage("c", 5, N), Target::hw_auto());
        b.ext_input("Input_1", a, "in");
        b.connect("l", a, "out", c, "in");
        b.ext_output("Output_1", c, "out");
        let g = b.build().unwrap();

        let app = compile(&g, &CompileOptions::new(OptLevel::O0)).unwrap();
        let input: Vec<u32> = (10..10 + N as u32).collect();

        let golden = {
            let vals: Vec<kir::types::Value> = input
                .iter()
                .map(|&w| kir::types::Value::Int(aplib::DynInt::from_raw(32, false, w as u128)))
                .collect();
            let (out, _) = dfg::run_graph(&g, &[("Input_1", vals)]).unwrap();
            kir::wire::stream_to_words(&out["Output_1"])
        };

        let result = cosim_o0(&app, &[input], &[golden.len()], 50_000_000).unwrap();
        assert_eq!(result.outputs[0], golden);
        assert!(result.instructions > 0);
        // The softcore system is slow: thousands of cycles for 24 tokens.
        assert!(result.cycles > N as u64 * 10);
    }

    /// All four skip-ahead × block-cache combinations (single-threaded,
    /// default window).
    fn config_matrix() -> [CosimConfig; 4] {
        let mut out = [CosimConfig::default(); 4];
        let mut i = 0;
        for skip_ahead in [false, true] {
            for block_cache in [false, true] {
                out[i] = CosimConfig {
                    skip_ahead,
                    block_cache,
                    ..CosimConfig::default()
                };
                i += 1;
            }
        }
        out
    }

    /// Thread counts × window widths for the parallel engine, including
    /// degenerate windows (1 forces a barrier per visible access) and a
    /// window far wider than any burst in the test apps.
    fn parallel_matrix() -> Vec<CosimConfig> {
        let mut out = Vec::new();
        for threads in [1usize, 2, 4] {
            for window in [1u64, 3, 64, DEFAULT_COSIM_WINDOW, u64::MAX / 2] {
                out.push(CosimConfig {
                    threads,
                    window,
                    ..CosimConfig::default()
                });
            }
        }
        out
    }

    #[test]
    fn fast_paths_are_cycle_exact() {
        const N: i64 = 24;
        let mut b = GraphBuilder::new("sys");
        let a = b.add("a", stage("a", 3, N), Target::hw_auto());
        let c = b.add("c", stage("c", 5, N), Target::hw_auto());
        b.ext_input("Input_1", a, "in");
        b.connect("l", a, "out", c, "in");
        b.ext_output("Output_1", c, "out");
        let g = b.build().unwrap();
        let app = compile(&g, &CompileOptions::new(OptLevel::O0)).unwrap();
        let input: Vec<u32> = (10..10 + N as u32).collect();
        let want = N as usize;

        // Reference: decode-per-step, no stall skipping.
        let reference = cosim_o0_with(
            &app,
            std::slice::from_ref(&input),
            &[want],
            50_000_000,
            CosimConfig {
                skip_ahead: false,
                block_cache: false,
                ..CosimConfig::default()
            },
        )
        .unwrap();
        for config in config_matrix() {
            let got = cosim_o0_with(
                &app,
                std::slice::from_ref(&input),
                &[want],
                50_000_000,
                config,
            )
            .unwrap();
            assert_eq!(got.outputs, reference.outputs, "{config:?}");
            assert_eq!(got.cycles, reference.cycles, "{config:?}");
            assert_eq!(got.instructions, reference.instructions, "{config:?}");
            assert_eq!(got.seconds, reference.seconds, "{config:?}");
        }
    }

    /// The tentpole determinism claim: the sharded engine is bit-identical
    /// to the decode-per-step oracle — outputs, cycles, instructions, and
    /// virtual seconds — for every (threads, window) combination, and
    /// therefore identical across thread counts.
    #[test]
    fn parallel_engine_is_bit_identical_across_threads_and_windows() {
        const N: i64 = 24;
        let mut b = GraphBuilder::new("sys");
        let a = b.add("a", stage("a", 3, N), Target::hw_auto());
        let c = b.add("c", stage("c", 5, N), Target::hw_auto());
        let d = b.add("d", stage("d", 7, N), Target::hw_auto());
        b.ext_input("Input_1", a, "in");
        b.ext_input("Input_2", d, "in");
        b.connect("l", a, "out", c, "in");
        b.ext_output("Output_1", c, "out");
        b.ext_output("Output_2", d, "out");
        let g = b.build().unwrap();
        let app = compile(&g, &CompileOptions::new(OptLevel::O0)).unwrap();
        let inputs = vec![
            (10..10 + N as u32).collect::<Vec<u32>>(),
            (90..90 + N as u32).collect::<Vec<u32>>(),
        ];
        let want = [N as usize, N as usize];

        let oracle = cosim_o0_with(
            &app,
            &inputs,
            &want,
            50_000_000,
            CosimConfig {
                skip_ahead: false,
                block_cache: false,
                ..CosimConfig::default()
            },
        )
        .unwrap();
        for config in parallel_matrix() {
            let got = cosim_o0_with(&app, &inputs, &want, 50_000_000, config).unwrap();
            assert_eq!(got.outputs, oracle.outputs, "{config:?}");
            assert_eq!(got.cycles, oracle.cycles, "{config:?}");
            assert_eq!(got.instructions, oracle.instructions, "{config:?}");
            assert_eq!(got.seconds, oracle.seconds, "{config:?}");
        }
    }

    /// A starved system must report the identical budget error — same
    /// cycle count — for every thread count and window width: the blocked
    /// cores park, the dead-state detector fires, and neither depends on
    /// the phase structure.
    #[test]
    fn parallel_engine_reports_budget_errors_identically() {
        let mut b = GraphBuilder::new("sys");
        let a = b.add("a", stage("a", 1, 8), Target::hw_auto());
        b.ext_input("Input_1", a, "in");
        b.ext_output("Output_1", a, "out");
        let g = b.build().unwrap();
        let app = compile(&g, &CompileOptions::new(OptLevel::O0)).unwrap();
        let budget = 3_000_000u64;
        for config in parallel_matrix() {
            let err = cosim_o0_with(&app, &[vec![1, 2]], &[8], budget, config).unwrap_err();
            match err {
                CosimError::CycleBudget { cycles } => assert_eq!(cycles, budget, "{config:?}"),
                other => panic!("unexpected error under {config:?}: {other:?}"),
            }
        }
    }

    #[test]
    fn cosim_o0_parallel_matches_cosim_o0() {
        const N: i64 = 16;
        let mut b = GraphBuilder::new("sys");
        let a = b.add("a", stage("a", 3, N), Target::hw_auto());
        b.ext_input("Input_1", a, "in");
        b.ext_output("Output_1", a, "out");
        let g = b.build().unwrap();
        let app = compile(&g, &CompileOptions::new(OptLevel::O0)).unwrap();
        let input: Vec<u32> = (1..=N as u32).collect();
        let serial = cosim_o0(
            &app,
            std::slice::from_ref(&input),
            &[N as usize],
            50_000_000,
        )
        .unwrap();
        for threads in [1, 2, 4, 8] {
            let par = cosim_o0_parallel(
                &app,
                std::slice::from_ref(&input),
                &[N as usize],
                50_000_000,
                threads,
            )
            .unwrap();
            assert_eq!(par.outputs, serial.outputs, "threads={threads}");
            assert_eq!(par.cycles, serial.cycles, "threads={threads}");
            assert_eq!(par.instructions, serial.instructions, "threads={threads}");
        }
    }

    #[test]
    fn dead_state_fast_forward_reports_the_same_budget_error() {
        let mut b = GraphBuilder::new("sys");
        let a = b.add("a", stage("a", 1, 8), Target::hw_auto());
        b.ext_input("Input_1", a, "in");
        b.ext_output("Output_1", a, "out");
        let g = b.build().unwrap();
        let app = compile(&g, &CompileOptions::new(OptLevel::O0)).unwrap();
        // Starved system: the fast paths detect the dead state and jump
        // straight to the budget, but must report the identical error the
        // cycle-by-cycle loop reaches the slow way.
        let budget = 5_000_000u64;
        for config in config_matrix() {
            let err = cosim_o0_with(&app, &[vec![1, 2]], &[8], budget, config).unwrap_err();
            match err {
                CosimError::CycleBudget { cycles } => assert_eq!(cycles, budget, "{config:?}"),
                other => panic!("unexpected error under {config:?}: {other:?}"),
            }
        }
    }

    #[test]
    fn wrong_level_rejected() {
        let mut b = GraphBuilder::new("sys");
        let a = b.add("a", stage("a", 1, 2), Target::hw_auto());
        b.ext_input("Input_1", a, "in");
        b.ext_output("Output_1", a, "out");
        let g = b.build().unwrap();
        let app = compile(&g, &CompileOptions::new(OptLevel::O1)).unwrap();
        assert!(matches!(
            cosim_o0(&app, &[vec![]], &[0], 100),
            Err(CosimError::WrongLevel)
        ));
    }

    #[test]
    fn starved_system_hits_cycle_budget() {
        let mut b = GraphBuilder::new("sys");
        let a = b.add("a", stage("a", 1, 8), Target::hw_auto());
        b.ext_input("Input_1", a, "in");
        b.ext_output("Output_1", a, "out");
        let g = b.build().unwrap();
        let app = compile(&g, &CompileOptions::new(OptLevel::O0)).unwrap();
        // Only 2 of 8 inputs: the core blocks forever on its stream port.
        let err = cosim_o0(&app, &[vec![1, 2]], &[8], 20_000).unwrap_err();
        assert!(matches!(err, CosimError::CycleBudget { .. }));
    }
}
