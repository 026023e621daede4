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
//! One engine ([`cosim_o0`]) and one oracle ([`cosim_o0_reference`]): the
//! engine advances block-cached cores through windows of cycles between
//! NoC barriers; the oracle steps every core and the network once per
//! cycle through the decode-per-step interpreter. Outputs, cycle counts and
//! instruction counts are identical by construction, and the tests below
//! check it on generated apps.
//!
//! (The `-O1` performance model in [`crate::execute`] uses fluid actors for
//! speed; this module trades speed for fidelity and doubles as the
//! reference the actor model is sanity-checked against.)

use noc::{BftNoc, LeafInterface};
use softcore::{Cpu, StepResult, StreamIo};
use std::collections::VecDeque;
use std::fmt;

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
    /// The app must be compiled at `-O0` (every operator a softcore image
    /// on a page).
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

/// Cycle width of the run-ahead window between barriers: wide enough to
/// batch several visible stream accesses of a compute-heavy operator per
/// barrier, small enough that ambiguous-access retries stay cheap. Any
/// width gives identical results; this one is only a host-throughput
/// choice.
const COSIM_WINDOW: u64 = 4096;

/// Why a core's last access stalled.
#[derive(Debug, Clone, Copy)]
enum Stalled {
    /// Blocking stream load on this port.
    Read(u32),
    /// Backpressured stream store.
    Write,
}

/// A parked core's wake condition. `seen` caches the leaf's NoC event
/// counter at the last (failed) poll: the condition can only flip when the
/// counter moves, so the per-cycle check is a single integer compare until
/// the leaf actually sees traffic.
#[derive(Debug, Clone, Copy)]
enum Blocked {
    /// Blocking stream load: wake when a word is pending on this port.
    Read { port: u32, seen: u64 },
    /// Backpressured stream store: wake when the leaf's out FIFO has room.
    Write { seen: u64 },
}

/// A halt or trap discovered *mid-window*. The core's architectural state
/// already reflects it (nothing else touches the core in between), but the
/// system-level effect — the halted count, the error return — must land at
/// the exact loop cycle the cycle-by-cycle schedule would reach it, so the
/// driver defers it until `wake`.
#[derive(Debug, Clone, Copy)]
enum Pending {
    Halt,
    Trap { pc: u32 },
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
    /// The loop cycle at which this core's next externally-visible
    /// instruction must run. Everything before it has already been
    /// executed by `run_ahead`, so the loop skips the core until then.
    wake: u64,
    /// Genuine stall at a window's opening cycle (where the leaf state is
    /// exact), left for the driver to park the core on.
    stalled: Option<Stalled>,
    /// Deferred halt/trap, applied by the driver at `wake`.
    pending: Option<Pending>,
}

/// One cycle's worth of stream I/O for a core in the oracle, adapted onto
/// its NoC leaf.
struct LeafIo<'n> {
    net: &'n mut BftNoc,
    leaf: usize,
}

impl StreamIo for LeafIo<'_> {
    fn read(&mut self, port: u32) -> Option<u32> {
        self.net.try_recv(self.leaf, port as u8)
    }

    fn write(&mut self, port: u32, word: u32) -> bool {
        self.net.inject(self.leaf, port as usize, word).is_ok()
    }
}

/// Stream I/O adapter for in-window execution: reads pop the leaf's
/// receive FIFOs directly, writes are born into its out FIFO stamped with
/// the *local* cycle `now`, which may run ahead of the network clock — the
/// uplink holds such flits until their birth cycle, so they enter the
/// network on exactly the cycle the cycle-by-cycle schedule would have
/// injected them.
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

/// Advances one due core through the window `[start, limit)` against its
/// leaf, borrowed straight out of the network ([`BftNoc::leaf_mut`]).
/// Every architectural decision is provably identical to the
/// cycle-by-cycle schedule:
///
/// * the first visible access executes at the window's opening cycle,
///   where the leaf state is *exact* (the network has fully advanced to
///   it), so successes, stalls, halts and traps there are all genuine;
/// * later accesses run against a leaf the network hasn't touched since
///   the barrier. A read that succeeds consumed a word that was already
///   buffered — deliveries only append behind it, so the cycle-by-cycle
///   schedule pops the same word at the same cycle. A write that succeeds
///   had queue room and credits at the barrier; both only improve as the
///   network drains, so the cycle-by-cycle inject succeeds too, and the
///   birth stamp defers its network entry to the exact cycle;
/// * an access that *fails* mid-window is ambiguous — the cycle-by-cycle
///   schedule might have delivered a word (or drained the queue) by then.
///   The stall charge is undone, the pc is unchanged, and the window ends
///   with `wake` at the access cycle: the driver re-runs it there as the
///   opening (exact) access of a later window;
/// * halts and traps end the window and are deferred to their cycle via
///   [`Pending`].
///
/// Kept out of line: inlined into the driver loop, compute-bound cosim
/// turns measured 3–8% slower.
#[inline(never)]
fn advance_window(
    core: &mut CoreState,
    leaf: &mut LeafInterface,
    start: u64,
    limit: u64,
    max_cycles: u64,
) {
    if core.halted || core.blocked.is_some() || core.pending.is_some() || core.wake > start {
        return;
    }
    let mut u = start;
    loop {
        // Invariant: u < limit <= max_cycles, so the fuel math can't wrap
        // and a spinning core re-surfaces exactly at the budget.
        let fuel = max_cycles - u - 1;
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
                    core.stalled = io_stalled;
                } else {
                    // Ambiguous: the cycle-by-cycle schedule may have
                    // delivered by cycle `u`. Undo the stall charge (a
                    // stalled step has no other architectural effect) and
                    // retry at `u`.
                    core.cpu.cycles -= softcore::firmware::cycles::STALL;
                    core.wake = u;
                }
                return;
            }
            StepResult::Halt => {
                core.pending = Some(Pending::Halt);
                core.wake = u;
                return;
            }
            StepResult::Trap { pc } => {
                core.pending = Some(Pending::Trap { pc });
                core.wake = u;
                return;
            }
        }
    }
}

/// Runs a compiled `-O0` application cycle-accurately: cores and network
/// advance in lockstep at the overlay clock. Cores execute through the
/// softcore's block cache and advance in windows between NoC barriers;
/// cores blocked on a stream and idle network stretches are skipped in
/// host time, never in simulated time.
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
    CosimSys::new(app, inputs, expected_output_words, max_cycles)?.run_windowed(COSIM_WINDOW)
}

/// [`cosim_o0`]'s oracle: every core steps through the decode-per-step
/// interpreter ([`Cpu::step`]) and the network steps once per cycle, with
/// nothing skipped. Outputs, cycles and instructions are identical to
/// [`cosim_o0`]; only host time differs.
///
/// # Errors
///
/// See [`CosimError`].
pub fn cosim_o0_reference(
    app: &CompiledApp,
    inputs: &[Vec<u32>],
    expected_output_words: &[usize],
    max_cycles: u64,
) -> Result<CosimOutput, CosimError> {
    CosimSys::new(app, inputs, expected_output_words, max_cycles)?.run_decode_per_step()
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

/// The instantiated system state shared by the engine and the oracle.
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

impl<'a> CosimSys<'a> {
    /// Instantiates every page core from its packed image and links the
    /// network with the generated driver.
    fn new(
        app: &CompiledApp,
        inputs: &[Vec<u32>],
        expected: &'a [usize],
        max_cycles: u64,
    ) -> Result<CosimSys<'a>, CosimError> {
        if app.level != OptLevel::O0 {
            return Err(CosimError::WrongLevel);
        }
        let mut cores = Vec::with_capacity(app.operators.len());
        for op in &app.operators {
            let binary = op.soft.as_ref().ok_or(CosimError::WrongLevel)?;
            let page = op.page.ok_or(CosimError::WrongLevel)?;
            cores.push(CoreState {
                name: op.name.clone(),
                leaf: page.0 as usize,
                cpu: binary.instantiate(),
                halted: false,
                blocked: None,
                blocked_at: 0,
                wake: 0,
                stalled: None,
                pending: None,
            });
        }

        let n_pages = app.floorplan.pages.len();
        let mut net = BftNoc::new(n_pages + 2, 8, 64);
        for link in &app.driver.links {
            net.set_dest(link.src_leaf as usize, link.stream as usize, link.dest);
        }
        Ok(CosimSys {
            cores,
            net,
            dma_queues: inputs.iter().map(|v| v.iter().copied().collect()).collect(),
            outputs: expected.iter().map(|_| Vec::new()).collect(),
            expected,
            dma_in: app.dma_in_leaf() as usize,
            dma_out: app.dma_out_leaf() as usize,
            max_cycles,
        })
    }

    /// The decode-per-step driver loop — the oracle the windowed engine is
    /// checked against, cycle for cycle: a full per-cycle core scan, an
    /// unconditional network step and DMA drain every cycle, and no
    /// skipping of any kind, so that it stays too simple to share a bug
    /// with the engine.
    fn run_decode_per_step(mut self) -> Result<CosimOutput, CosimError> {
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
            for core in self.cores.iter_mut().filter(|c| !c.halted) {
                let mut io = LeafIo {
                    net: &mut self.net,
                    leaf: core.leaf,
                };
                match core.cpu.step(&mut io) {
                    StepResult::Ok | StepResult::Stall => {}
                    StepResult::Halt => core.halted = true,
                    StepResult::Trap { pc } => {
                        return Err(CosimError::Trap {
                            op: core.name.clone(),
                            pc,
                        })
                    }
                }
            }

            self.net.step();
            cycles += 1;
            dma_drain(&mut self.net, self.dma_out, &mut self.outputs);
        }
        Ok(finished(self.outputs, cycles, &self.cores))
    }

    /// The windowed block-cached driver loop behind [`cosim_o0`]. Each
    /// iteration:
    ///
    /// 1. completion and budget checks, DMA input injection, and the
    ///    blocked-core wake scan (leaf event counters, stall settlement);
    /// 2. if any core is due, each due core advances through a bounded
    ///    window of cycles against its own leaf ([`advance_window`]),
    ///    reading only words already buffered and writing birth-stamped
    ///    flits, which are committed to the network in leaf order;
    /// 3. stalls, halts and traps are applied in core-index order at their
    ///    exact cycles, then the network steps once, the output leaf is
    ///    drained when its delivery counter moved, and the loop jumps over
    ///    cycles in which no core can act.
    ///
    /// Cycle accounting is identical to [`Self::run_decode_per_step`] for
    /// every `window` width.
    fn run_windowed(self, window: u64) -> Result<CosimOutput, CosimError> {
        let CosimSys {
            mut cores,
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
        // Each core runs ahead through its private prologue: one retired
        // instruction corresponds to one loop cycle, so a core that
        // retires `ran` instructions sleeps until loop cycle `ran`, where
        // its first stream access (or halt/trap) is due. This is the same
        // block-cached engine `softcore::execute` runs.
        for core in &mut cores {
            core.wake = core.cpu.run_ahead(max_cycles, u64::MAX);
        }
        let mut halted = 0usize;
        let mut is_drained = drained(&outputs, expected);
        let mut dma_left: usize = dma_queues.iter().map(VecDeque::len).sum();
        let mut dma_rx_seen = net.rx_events(dma_out);
        let mut cycles = 0u64;
        // Blocked-core watch list for the quiet fast-forward, reused
        // across iterations: (leaf, is_read, counter at last poll).
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

            // Wake blocked cores whose leaf saw traffic (settling their
            // skipped stall cycles in one jump) and find whether any core
            // is due this cycle.
            let mut any_due = false;
            for core in cores.iter_mut() {
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
                        // A stalled step only adds STALL to the cycle
                        // counter; settle every skipped stall — the cycles
                        // after the one that blocked, up to (not
                        // including) this one — in one arithmetic jump.
                        core.cpu.cycles +=
                            (cycles - core.blocked_at - 1) * softcore::firmware::cycles::STALL;
                        core.blocked = None;
                    }
                }
                if core.blocked.is_none() && core.pending.is_none() && cycles >= core.wake {
                    any_due = true;
                }
            }

            // Every due core advances through the window against its
            // leaf, and its in-window injections are folded into the
            // network's bookkeeping in leaf (= core-index) order. A due
            // core always executes at least its opening access, so
            // `any_due` doubles as "some core stepped this cycle".
            let mut any_stepped = any_due;
            if any_due {
                let limit = cycles.saturating_add(window).min(max_cycles);
                for core in cores.iter_mut() {
                    let leaf = core.leaf;
                    advance_window(core, net.leaf_mut(leaf), cycles, limit, max_cycles);
                    net.commit_injections(leaf);
                }
            }

            // Apply window outcomes in core-index order — the order the
            // cycle-by-cycle scan steps cores, so same-cycle traps resolve
            // to the same core — and collect the wake bookkeeping for the
            // fast paths.
            let mut next_due = u64::MAX;
            let mut any_runnable = false;
            watch.clear();
            for core in cores.iter_mut() {
                if core.halted {
                    continue;
                }
                if let Some(s) = core.stalled.take() {
                    // Snapshot the leaf's event counter now, before this
                    // cycle's `net.step()`: any delivery or uplink pop
                    // after this point moves it and forces a real poll.
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
                if core.pending.is_some() && cycles >= core.wake {
                    // The deferred halt/trap's cycle has arrived: the
                    // cycle-by-cycle scan would have stepped into it now.
                    any_stepped = true;
                    match core.pending.take().expect("checked above") {
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
                        next_due = next_due.min(core.wake);
                    }
                    Some(Blocked::Read { seen, .. }) => {
                        watch.push((core.leaf, true, seen));
                    }
                    Some(Blocked::Write { seen }) => {
                        watch.push((core.leaf, false, seen));
                    }
                }
            }

            // Idle window: no core stepped, nothing queued for DMA, and
            // the network carries no flit — each cycle until the next
            // sleeper wakes is an exact no-op iteration.
            if !any_stepped && dma_left == 0 && !net.in_flight() {
                if !any_runnable {
                    // Dead state: every live core is parked on a stream
                    // that can never move. The system can only burn its
                    // budget; jump straight to that outcome — the
                    // reported cycle count is exactly what the
                    // cycle-by-cycle loop would produce.
                    return Err(CosimError::CycleBudget { cycles: max_cycles });
                }
                debug_assert!(next_due > cycles, "a due core must have stepped");
                // Keep the (empty) network's clock in lockstep with the
                // jumped loop clock: in-window flits are birth-stamped in
                // loop time, and the uplink holds them until the *network*
                // clock reaches that cycle.
                let to = next_due.min(max_cycles);
                net.skip_idle_cycles(to - cycles);
                cycles = to;
                continue;
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

            // Quiet fast-forward: while no core can possibly act — every
            // sleeper is short of its wake cycle and no blocked core's
            // leaf has seen a NoC event — a full loop iteration reduces to
            // DMA injection plus a network step. Run exactly that until
            // something becomes due.
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
                // Batch skip: with nothing left to inject and an empty
                // switch tree, every step until the earliest queued flit
                // ripens is a no-op — jump straight to that cycle instead
                // of stepping through.
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
                // Lone-flit batch: hop the only in-flight flit all the way
                // to its event (delivery, a queued flit ripening, or the
                // next due cycle) in one call. Event counters can only move
                // on the final hop, so the per-step watch re-check is
                // deferred to the loop condition after the batch.
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
        Ok(finished(outputs, cycles, &cores))
    }
}

/// The result of a run that drained: instructions summed over every core.
fn finished(outputs: Vec<Vec<u32>>, cycles: u64, cores: &[CoreState]) -> CosimOutput {
    CosimOutput {
        outputs,
        cycles,
        instructions: cores.iter().map(|c| c.cpu.instructions).sum(),
        seconds: crate::vtime::overlay_seconds(cycles),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::{compile, CompileOptions};
    use dfg::generate::{generate_family, GenConfig, FAMILIES};
    use dfg::{GraphBuilder, Target};
    use kir::{Expr, KernelBuilder, Scalar, Stmt};
    use proptest::prelude::*;

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

    /// A one-stage `-O0` app that reads `n` words.
    fn single_stage_app(n: i64) -> CompiledApp {
        let mut b = GraphBuilder::new("sys");
        let a = b.add("a", stage("a", 1, n), Target::hw_auto());
        b.ext_input("Input_1", a, "in");
        b.ext_output("Output_1", a, "out");
        let g = b.build().unwrap();
        compile(&g, &CompileOptions::new(OptLevel::O0)).unwrap()
    }

    /// Window widths for the engine: degenerate (1 forces a barrier per
    /// visible access), odd, small, the production width, and one far
    /// wider than any burst in the test apps.
    const WINDOWS: [u64; 5] = [1, 3, 64, COSIM_WINDOW, u64::MAX / 2];

    fn run_windowed(
        app: &CompiledApp,
        inputs: &[Vec<u32>],
        want: &[usize],
        max_cycles: u64,
        window: u64,
    ) -> Result<CosimOutput, CosimError> {
        CosimSys::new(app, inputs, want, max_cycles)?.run_windowed(window)
    }

    fn assert_same(got: &CosimOutput, oracle: &CosimOutput, tag: &str) {
        assert_eq!(got.outputs, oracle.outputs, "{tag}");
        assert_eq!(got.cycles, oracle.cycles, "{tag}");
        assert_eq!(got.instructions, oracle.instructions, "{tag}");
        assert_eq!(got.seconds, oracle.seconds, "{tag}");
    }

    fn budget_cycles(result: Result<CosimOutput, CosimError>, tag: &str) -> u64 {
        match result {
            Err(CosimError::CycleBudget { cycles }) => cycles,
            other => panic!("{tag}: expected a budget error, got {other:?}"),
        }
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

    /// Pins today's transport model: a leaf's receive queues are unbounded
    /// (`noc::LeafInterface` never back-pressures a receive port), so a
    /// consumer that reads its ports in the reverse of its producer's write
    /// order drains under both cosim engines, as it does in batch. With
    /// bounded receive FIFOs, `p` would stall on `a` before writing any of
    /// `b` while `c` waits on `b`: a deadlock. Bounding them changes this
    /// test's expectation on purpose.
    #[test]
    fn pin_unbounded_receive_ports_drain_a_reverse_order_reader() {
        const N: i64 = 1024;
        let p = KernelBuilder::new("p")
            .input("in", Scalar::uint(32))
            .output("a", Scalar::uint(32))
            .output("b", Scalar::uint(32))
            .local("x", Scalar::uint(32))
            .body([
                Stmt::for_loop(
                    "i",
                    0..N,
                    [Stmt::read("x", "in"), Stmt::write("a", Expr::var("x"))],
                ),
                Stmt::for_loop(
                    "i",
                    0..N,
                    [Stmt::write("b", Expr::var("i").add(Expr::cint(7)))],
                ),
            ])
            .build()
            .unwrap();
        let c = KernelBuilder::new("c")
            .input("a", Scalar::uint(32))
            .input("b", Scalar::uint(32))
            .output("out", Scalar::uint(32))
            .local("x", Scalar::uint(32))
            .body([
                Stmt::for_loop(
                    "i",
                    0..N,
                    [Stmt::read("x", "b"), Stmt::write("out", Expr::var("x"))],
                ),
                Stmt::for_loop(
                    "i",
                    0..N,
                    [Stmt::read("x", "a"), Stmt::write("out", Expr::var("x"))],
                ),
            ])
            .build()
            .unwrap();
        let mut b = GraphBuilder::new("reverse");
        let pi = b.add("p", p, Target::hw_auto());
        let ci = b.add("c", c, Target::hw_auto());
        b.ext_input("Input_1", pi, "in");
        b.connect("a", pi, "a", ci, "a");
        b.connect("b", pi, "b", ci, "b");
        b.ext_output("Output_1", ci, "out");
        let g = b.build().unwrap();

        let input: Vec<u32> = (0..N as u32)
            .map(|w| w.wrapping_mul(2_654_435_761))
            .collect();
        let vals: Vec<kir::types::Value> = input
            .iter()
            .map(|&w| kir::types::Value::Int(aplib::DynInt::from_raw(32, false, w as u128)))
            .collect();
        let (out, _) = dfg::run_graph(&g, &[("Input_1", vals)]).unwrap();
        let golden = kir::wire::stream_to_words(&out["Output_1"]);
        assert_eq!(golden.len(), 2 * N as usize);

        let app = compile(&g, &CompileOptions::new(OptLevel::O0)).unwrap();
        let inputs = [input];
        let want = [golden.len()];
        let fast = cosim_o0(&app, &inputs, &want, 200_000_000).unwrap();
        assert_eq!(fast.outputs[0], golden);
        let oracle = cosim_o0_reference(&app, &inputs, &want, 200_000_000).unwrap();
        assert_eq!(oracle.outputs[0], golden);
    }

    /// The engine equals the oracle — outputs, cycles, instructions and
    /// virtual seconds — at every window width, on two independent
    /// streams sharing the network.
    #[test]
    fn windowed_engine_is_bit_identical_at_every_window() {
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

        let oracle = cosim_o0_reference(&app, &inputs, &want, 50_000_000).unwrap();
        assert_same(
            &cosim_o0(&app, &inputs, &want, 50_000_000).unwrap(),
            &oracle,
            "cosim_o0",
        );
        for window in WINDOWS {
            let got = run_windowed(&app, &inputs, &want, 50_000_000, window).unwrap();
            assert_same(&got, &oracle, &format!("window {window}"));
        }
    }

    /// A starved system: the engine detects the dead state and jumps
    /// straight to the budget, but must report the identical error the
    /// oracle reaches the slow way, at every window width.
    #[test]
    fn dead_state_fast_forward_reports_the_same_budget_error() {
        let app = single_stage_app(8);
        let budget = 3_000_000u64;
        let inputs = [vec![1, 2]];
        let oracle = budget_cycles(cosim_o0_reference(&app, &inputs, &[8], budget), "oracle");
        assert_eq!(oracle, budget);
        for window in WINDOWS {
            let tag = format!("window {window}");
            let got = budget_cycles(run_windowed(&app, &inputs, &[8], budget, window), &tag);
            assert_eq!(got, oracle, "{tag}");
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

    /// `CompiledApp`'s fields are public, so an operator can arrive
    /// without a page: that is a typed error, not a panic.
    #[test]
    fn unpaged_operator_is_an_error_not_a_panic() {
        let mut app = single_stage_app(2);
        app.operators[0].page = None;
        for run in [cosim_o0, cosim_o0_reference] {
            assert!(matches!(
                run(&app, &[vec![1, 2]], &[2], 1_000_000),
                Err(CosimError::WrongLevel)
            ));
        }
    }

    #[test]
    fn starved_system_hits_cycle_budget() {
        let app = single_stage_app(8);
        // Only 2 of 8 inputs: the core blocks forever on its stream port.
        let err = cosim_o0(&app, &[vec![1, 2]], &[8], 20_000).unwrap_err();
        assert!(matches!(err, CosimError::CycleBudget { .. }));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// On generated apps of every family, the windowed engine equals
        /// the oracle in outputs, cycles and instructions at a random
        /// window width, and the oracle reproduces the functional golden.
        /// With half of every input withheld, both return the identical
        /// budget error.
        #[test]
        fn windowed_engine_matches_oracle_on_generated_apps(
            seed in any::<u64>(),
            tokens in 16u64..=64,
            fam in 0..FAMILIES.len(),
            w in 0..WINDOWS.len(),
        ) {
            let cfg = GenConfig { seed, tokens, max_stages: 4 };
            let gen = generate_family(&cfg, FAMILIES[fam]).unwrap();
            let app = compile(&gen.graph, &CompileOptions::new(OptLevel::O0)).unwrap();
            let (golden, _) = dfg::run_graph(&gen.graph, &gen.input_refs()).unwrap();
            let inputs: Vec<Vec<u32>> = gen
                .graph
                .ext_inputs
                .iter()
                .map(|p| {
                    let (_, values) = gen.inputs.iter().find(|(n, _)| *n == p.name).unwrap();
                    kir::wire::stream_to_words(values)
                })
                .collect();
            let want_words: Vec<Vec<u32>> = gen
                .graph
                .ext_outputs
                .iter()
                .map(|p| kir::wire::stream_to_words(&golden[&p.name]))
                .collect();
            let want: Vec<usize> = want_words.iter().map(Vec::len).collect();
            let tag = format!("{} seed {seed} tokens {tokens} window {}", gen.family, WINDOWS[w]);

            let oracle = cosim_o0_reference(&app, &inputs, &want, 200_000_000).unwrap();
            prop_assert_eq!(&oracle.outputs, &want_words, "{}", tag);
            let got = run_windowed(&app, &inputs, &want, 200_000_000, WINDOWS[w]).unwrap();
            assert_same(&got, &oracle, &tag);

            let half: Vec<Vec<u32>> = inputs.iter().map(|v| v[..v.len() / 2].to_vec()).collect();
            let budget = oracle.cycles;
            let oracle_err = budget_cycles(cosim_o0_reference(&app, &half, &want, budget), &tag);
            let got_err = budget_cycles(run_windowed(&app, &half, &want, budget, WINDOWS[w]), &tag);
            prop_assert_eq!(got_err, oracle_err, "{}", tag);
        }
    }
}
