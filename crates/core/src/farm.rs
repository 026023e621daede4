//! The build farm: parallel page compiles.
//!
//! The paper runs page compiles on a Slurm cluster on Google Cloud
//! (Sec. 7.1); "all the operators' compilations can be performed in
//! parallel, since they are implemented on different physical locations
//! with no overlapping area", so "the compilation time is determined by the
//! longest individual one instead of the total" (Sec. 6.2). This module is
//! the local analogue: a fixed number of lanes executing independent compile
//! jobs and reporting per-job and critical-path times. The thread that
//! submits a batch works one of the lanes itself, so a batch of `n` jobs on
//! `workers` lanes spawns `min(workers, n) - 1` threads: none at all for an
//! empty plan, a single job or `workers = 1`.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread;

/// Outcome of one farm job.
#[derive(Debug, Clone)]
pub struct JobOutcome<T> {
    /// Job index in submission order.
    pub index: usize,
    /// The job's product, or the panic message if the job panicked. A
    /// panicking job must not take the rest of the batch with it: the farm
    /// catches the unwind on the lane that ran it — the caller's included —
    /// and reports it as an error outcome.
    pub result: Result<T, String>,
    /// Wall-clock seconds the job took.
    pub wall_seconds: f64,
}

/// Renders a caught panic payload as a message (the common `&str`/`String`
/// payloads verbatim, anything else generically).
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "job panicked".to_string()
    }
}

/// Runs one job under `catch_unwind` and times it.
fn run_one<T>(index: usize, job: impl FnOnce() -> T) -> JobOutcome<T> {
    let t0 = std::time::Instant::now();
    let result = catch_unwind(AssertUnwindSafe(job)).map_err(panic_message);
    JobOutcome {
        index,
        result,
        wall_seconds: t0.elapsed().as_secs_f64(),
    }
}

/// Runs `queue` — `(submission index, job)` pairs in dispatch order — on
/// `min(workers, n)` lanes, one of which is the calling thread: it pops and
/// runs jobs like any other lane instead of blocking on the join, so only
/// `lanes - 1` threads are spawned. No job and one job, or one worker,
/// therefore spawn nothing and run on the caller in dispatch order.
/// Outcomes come back indexed by submission index.
fn dispatch<T, F>(queue: Vec<(usize, F)>, workers: usize) -> Vec<JobOutcome<T>>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    let n = queue.len();
    let lanes = workers.min(n);
    let queue = Mutex::new(queue.into_iter());
    // The lock is held only to pop: jobs run outside it (and are caught
    // anyway), so a panicking job cannot poison it.
    let lane = || {
        let mut done = Vec::new();
        loop {
            let next = queue.lock().expect("farm queue lock").next();
            match next {
                Some((index, job)) => done.push(run_one(index, job)),
                None => return done,
            }
        }
    };
    let done = thread::scope(|s| {
        let spawned: Vec<_> = (1..lanes).map(|_| s.spawn(lane)).collect();
        let mut done = lane();
        for h in spawned {
            done.extend(h.join().expect("farm lanes never panic (jobs are caught)"));
        }
        done
    });
    let mut outcomes: Vec<Option<JobOutcome<T>>> = (0..n).map(|_| None).collect();
    for outcome in done {
        let index = outcome.index;
        outcomes[index] = Some(outcome);
    }
    // A slot no lane filled is a farm accounting bug; report it the way a
    // panicked job is reported so callers surface a typed error.
    outcomes
        .into_iter()
        .enumerate()
        .map(|(index, outcome)| {
            outcome.unwrap_or_else(|| JobOutcome {
                index,
                result: Err("farm lost the job's outcome".to_string()),
                wall_seconds: 0.0,
            })
        })
        .collect()
}

/// Runs `jobs` closures on up to `workers` lanes; results come back in
/// submission order. The calling thread works a lane itself, so
/// `min(workers, n) - 1` threads are spawned: `workers <= 1`, a single job or
/// an empty list spawn none. A panicking job yields an `Err` outcome; the
/// other jobs' results are unaffected.
pub fn run_jobs<T, F>(jobs: Vec<F>, workers: usize) -> Vec<JobOutcome<T>>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    dispatch(jobs.into_iter().enumerate().collect(), workers)
}

/// Like [`run_jobs`], but with longest-processing-time-first (LPT) list
/// scheduling: each job carries a cost estimate, and jobs are handed to the
/// lanes in descending cost order so the critical-path job starts
/// immediately instead of queuing behind short ones. Outcomes still come
/// back in the caller's submission order (with `index` matching it).
pub fn run_jobs_lpt<T, F>(jobs: Vec<(f64, F)>, workers: usize) -> Vec<JobOutcome<T>>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    let mut queue: Vec<(usize, f64, F)> = jobs
        .into_iter()
        .enumerate()
        .map(|(i, (cost, job))| (i, cost, job))
        .collect();
    // Stable sort: equal costs keep submission order.
    queue.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
    let queue = queue.into_iter().map(|(i, _, job)| (i, job)).collect();
    dispatch(queue, workers)
}

/// Cooperative cancellation handle for one attempt of a seed race.
///
/// [`run_race`] hands each attempt one of these. The attempt polls
/// [`RaceCancel::cancelled`] at stage boundaries (the local analogue of the
/// farm killing a Slurm job) and calls [`RaceCancel::target_met`] when its
/// product meets the race's quality target, which cancels every
/// *higher-indexed* attempt. Lower-indexed attempts keep running: the
/// winner must not depend on which attempt happened to finish first on this
/// particular machine, so the set of attempts that always complete — index
/// 0 up to the lowest target-meeting index — is the same on one worker as
/// on a hundred.
pub struct RaceCancel {
    index: usize,
    cancel_above: Arc<AtomicUsize>,
}

impl RaceCancel {
    /// Whether a lower-indexed attempt has already met the target, making
    /// this attempt's outcome irrelevant to the deterministic winner rule.
    pub fn cancelled(&self) -> bool {
        self.index > self.cancel_above.load(Ordering::Relaxed)
    }

    /// Reports that this attempt's product meets the race target,
    /// cancelling all higher-indexed attempts.
    pub fn target_met(&self) {
        self.cancel_above.fetch_min(self.index, Ordering::Relaxed);
    }
}

/// One completed attempt's summary, as [`race_outcome`] judges it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RaceResult {
    /// Whether the attempt met the race's quality target.
    pub met_target: bool,
    /// Attempt cost; lower is better (errored attempts pass `INFINITY`).
    pub cost: f64,
}

/// Runs `attempts` as a seed race on up to `workers` threads. Each attempt
/// receives a [`RaceCancel`]; an attempt observed as cancelled before it
/// starts — or that bails at one of its own cancellation checks — yields
/// `Ok(None)`. Results come back in attempt order, panics isolated exactly
/// as in [`run_jobs`].
pub fn run_race<'a, T, F>(attempts: Vec<F>, workers: usize) -> Vec<JobOutcome<Option<T>>>
where
    T: Send,
    F: FnOnce(&RaceCancel) -> Option<T> + Send + 'a,
{
    let cancel_above = Arc::new(AtomicUsize::new(usize::MAX));
    let jobs: Vec<Box<dyn FnOnce() -> Option<T> + Send + 'a>> = attempts
        .into_iter()
        .enumerate()
        .map(|(index, attempt)| {
            let handle = RaceCancel {
                index,
                cancel_above: Arc::clone(&cancel_above),
            };
            Box::new(move || {
                if handle.cancelled() {
                    return None;
                }
                attempt(&handle)
            }) as Box<dyn FnOnce() -> Option<T> + Send + 'a>
        })
        .collect();
    run_jobs(jobs, workers)
}

/// Picks a race's winner and charged-attempt count deterministically.
///
/// The *horizon* is the lowest target-meeting index plus one (or the whole
/// field when no attempt met the target) — exactly the attempts that
/// complete regardless of worker count, and therefore the attempts a build
/// is charged for. The winner is the best-cost completed attempt within the
/// horizon, ties to the lowest index (= lowest seed). Returns
/// `(winner_index, charged_count)`, or `None` when no attempt within the
/// horizon completed.
pub fn race_outcome(results: &[Option<RaceResult>]) -> Option<(usize, usize)> {
    let mut horizon = results.len();
    for (i, r) in results.iter().enumerate() {
        if r.is_some_and(|r| r.met_target) {
            horizon = i + 1;
            break;
        }
    }
    let mut best: Option<(f64, usize)> = None;
    for (i, r) in results.iter().enumerate().take(horizon) {
        if let Some(r) = r {
            // total_cmp so a NaN cost loses to any real cost.
            if best.is_none_or(|(c, _)| r.cost.total_cmp(&c).is_lt()) {
                best = Some((r.cost, i));
            }
        }
    }
    best.map(|(_, i)| (i, horizon))
}

/// Cooperative cancellation handle for a background (speculative) job.
///
/// Background jobs poll [`BackgroundCancel::cancelled`] at stage
/// boundaries and bail early — returning whatever partial results they
/// already have — once a demand build arrives and wants the workers back.
#[derive(Clone)]
pub struct BackgroundCancel {
    flag: Arc<std::sync::atomic::AtomicBool>,
}

impl BackgroundCancel {
    /// Whether the batch has been cancelled.
    pub fn cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }
}

/// A batch of background jobs in flight on farm workers.
///
/// Unlike [`run_jobs`], submission returns immediately; the caller later
/// [`BackgroundJobs::cancel`]s (demand work arrived) or
/// [`BackgroundJobs::wait`]s, then collects whatever completed with
/// [`BackgroundJobs::drain`]. Panicking jobs are isolated exactly as in
/// [`run_jobs`]; their outcomes are simply dropped at drain time.
pub struct BackgroundJobs<T> {
    done_rx: mpsc::Receiver<JobOutcome<T>>,
    handles: Vec<thread::JoinHandle<()>>,
    cancel: BackgroundCancel,
    /// Jobs submitted to the batch (not all necessarily ran).
    pub submitted: usize,
}

impl<T> BackgroundJobs<T> {
    /// Raises the cancellation flag. Queued jobs that have not started are
    /// discarded; running jobs see it at their next check.
    pub fn cancel(&self) {
        self.cancel.flag.store(true, Ordering::Relaxed);
    }

    /// Collects the results of every job that completed so far without
    /// waiting for stragglers still running. Panicked jobs are dropped.
    pub fn drain(&mut self) -> Vec<T> {
        self.done_rx
            .try_iter()
            .filter_map(|o| o.result.ok())
            .collect()
    }

    /// Joins the workers and collects every completed job's result —
    /// typically after [`BackgroundJobs::cancel`], to pick up the partial
    /// work of jobs that bailed mid-flight.
    pub fn wait(mut self) -> Vec<T> {
        for h in self.handles.drain(..) {
            h.join()
                .expect("farm workers never panic (jobs are caught)");
        }
        self.done_rx
            .try_iter()
            .filter_map(|o| o.result.ok())
            .collect()
    }
}

/// Submits `jobs` to `workers` background threads and returns immediately.
/// Each job receives a [`BackgroundCancel`] it is expected to poll; a job
/// pulled from the queue after cancellation is dropped unrun.
pub fn run_jobs_background<T, F>(jobs: Vec<F>, workers: usize) -> BackgroundJobs<T>
where
    T: Send + 'static,
    F: FnOnce(&BackgroundCancel) -> T + Send + 'static,
{
    let workers = workers.max(1);
    let cancel = BackgroundCancel {
        flag: Arc::new(std::sync::atomic::AtomicBool::new(false)),
    };
    let (work_tx, work_rx) = mpsc::channel::<(usize, F)>();
    let work_rx = Arc::new(std::sync::Mutex::new(work_rx));
    let (done_tx, done_rx) = mpsc::channel::<JobOutcome<T>>();

    let n = jobs.len();
    for (i, job) in jobs.into_iter().enumerate() {
        work_tx.send((i, job)).expect("queue open");
    }
    drop(work_tx);

    let mut handles = Vec::new();
    for _ in 0..workers.min(n.max(1)) {
        let rx = Arc::clone(&work_rx);
        let tx = done_tx.clone();
        let cancel = cancel.clone();
        handles.push(thread::spawn(move || loop {
            let job = { rx.lock().expect("farm queue lock").recv() };
            match job {
                Ok((index, f)) => {
                    if cancel.cancelled() {
                        continue; // drain the queue without running
                    }
                    if tx.send(run_one(index, || f(&cancel))).is_err() {
                        return;
                    }
                }
                Err(_) => return,
            }
        }));
    }
    drop(done_tx);

    BackgroundJobs {
        done_rx,
        handles,
        cancel,
        submitted: n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn results_in_submission_order() {
        let jobs: Vec<Box<dyn FnOnce() -> usize + Send>> = (0..16usize)
            .map(|i| {
                Box::new(move || {
                    thread::sleep(Duration::from_millis(16 - i as u64));
                    i * 10
                }) as Box<dyn FnOnce() -> usize + Send>
            })
            .collect();
        let outcomes = run_jobs(jobs, 4);
        for (i, o) in outcomes.iter().enumerate() {
            assert_eq!(o.index, i);
            assert_eq!(o.result, Ok(i * 10));
            assert!(o.wall_seconds >= 0.0);
        }
    }

    #[test]
    fn panicking_job_does_not_lose_the_others() {
        let jobs: Vec<Box<dyn FnOnce() -> usize + Send>> = (0..12usize)
            .map(|i| {
                Box::new(move || {
                    if i == 5 {
                        panic!("job {i} exploded");
                    }
                    i * 3
                }) as Box<dyn FnOnce() -> usize + Send>
            })
            .collect();
        // Two workers: the panicking job shares a worker (and the queue
        // lock) with healthy jobs, so isolation is actually exercised.
        let outcomes = run_jobs(jobs, 2);
        assert_eq!(outcomes.len(), 12);
        for (i, o) in outcomes.iter().enumerate() {
            if i == 5 {
                let message = o.result.as_ref().unwrap_err();
                assert!(message.contains("exploded"), "got: {message}");
            } else {
                assert_eq!(o.result, Ok(i * 3));
            }
        }
    }

    #[test]
    fn parallel_is_faster_than_serial_for_sleepy_jobs() {
        let mk = || {
            (0..8)
                .map(|_| {
                    Box::new(move || {
                        thread::sleep(Duration::from_millis(20));
                        1usize
                    }) as Box<dyn FnOnce() -> usize + Send>
                })
                .collect::<Vec<_>>()
        };
        let t0 = std::time::Instant::now();
        run_jobs(mk(), 1);
        let serial = t0.elapsed();
        let t1 = std::time::Instant::now();
        run_jobs(mk(), 8);
        let parallel = t1.elapsed();
        assert!(
            parallel < serial,
            "parallel {parallel:?} vs serial {serial:?}"
        );
    }

    #[test]
    fn lpt_returns_results_in_submission_order() {
        // Costs deliberately shuffled relative to submission order.
        let jobs: Vec<(f64, Box<dyn FnOnce() -> usize + Send>)> = (0..9usize)
            .map(|i| {
                let cost = ((i * 5) % 9) as f64;
                (
                    cost,
                    Box::new(move || i * 7) as Box<dyn FnOnce() -> usize + Send>,
                )
            })
            .collect();
        let outcomes = run_jobs_lpt(jobs, 3);
        assert_eq!(outcomes.len(), 9);
        for (i, o) in outcomes.iter().enumerate() {
            assert_eq!(o.index, i);
            assert_eq!(o.result, Ok(i * 7));
        }
    }

    #[test]
    fn lpt_starts_the_longest_job_first() {
        // One worker: execution order IS the dispatch order, so the longest
        // job's value must land first.
        let log = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        let jobs: Vec<(f64, Box<dyn FnOnce() -> usize + Send>)> = [1.0f64, 30.0, 2.0]
            .iter()
            .enumerate()
            .map(|(i, &cost)| {
                let log = std::sync::Arc::clone(&log);
                (
                    cost,
                    Box::new(move || {
                        log.lock().unwrap().push(i);
                        i
                    }) as Box<dyn FnOnce() -> usize + Send>,
                )
            })
            .collect();
        run_jobs_lpt(jobs, 1);
        assert_eq!(*log.lock().unwrap(), vec![1, 2, 0]);
    }

    #[test]
    fn zero_workers_clamped_to_one() {
        let jobs = vec![Box::new(|| 7usize) as Box<dyn FnOnce() -> usize + Send>];
        let outcomes = run_jobs(jobs, 0);
        assert_eq!(outcomes[0].result, Ok(7));
    }

    #[test]
    fn empty_job_list_is_fine() {
        // No lanes at all: a width that could never be spawned returns at once.
        let outcomes = run_jobs(Vec::<Box<dyn FnOnce() -> usize + Send>>::new(), usize::MAX);
        assert!(outcomes.is_empty());
        assert!(run_jobs_lpt(Vec::<(f64, fn() -> usize)>::new(), 4).is_empty());
    }

    #[test]
    fn single_job_and_single_worker_run_on_the_caller() {
        let caller = thread::current().id();
        let one = run_jobs(vec![|| thread::current().id()], 8);
        assert_eq!(one[0].result, Ok(caller));
        assert!(one[0].wall_seconds >= 0.0);
        // One worker: every job on the caller, in submission order.
        let log = Mutex::new(Vec::new());
        let jobs: Vec<_> = (0..5usize)
            .map(|i| {
                let log = &log;
                move || {
                    log.lock().unwrap().push(i);
                    thread::current().id()
                }
            })
            .collect();
        for o in run_jobs(jobs, 1) {
            assert_eq!(o.result, Ok(caller));
        }
        assert_eq!(*log.lock().unwrap(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn panic_on_the_caller_lane_is_isolated() {
        // Two lanes, and the first two jobs rendezvous, so each lane holds
        // exactly one of them; whichever finds itself on the caller's thread
        // panics. The queue lock must survive for the four jobs behind them.
        let caller = thread::current().id();
        let both_running = std::sync::Barrier::new(2);
        let jobs: Vec<Box<dyn FnOnce() -> usize + Send + '_>> = (0..6usize)
            .map(|i| {
                let both_running = &both_running;
                Box::new(move || {
                    if i < 2 {
                        both_running.wait();
                        if thread::current().id() == caller {
                            panic!("caller lane job {i} exploded");
                        }
                    }
                    i * 3
                }) as Box<dyn FnOnce() -> usize + Send + '_>
            })
            .collect();
        let outcomes = run_jobs(jobs, 2);
        assert_eq!(outcomes.len(), 6);
        let panicked: Vec<usize> = (0..6).filter(|&i| outcomes[i].result.is_err()).collect();
        assert_eq!(
            panicked.len(),
            1,
            "exactly the caller-lane job: {panicked:?}"
        );
        assert!(panicked[0] < 2);
        let message = outcomes[panicked[0]].result.as_ref().unwrap_err();
        assert!(message.contains("exploded"), "got: {message}");
        for (i, o) in outcomes.iter().enumerate() {
            assert_eq!(o.index, i);
            if i != panicked[0] {
                assert_eq!(o.result, Ok(i * 3));
            }
        }
    }

    type RaceAttemptFn = Box<dyn FnOnce(&RaceCancel) -> Option<RaceResult> + Send>;

    /// A race where attempt `i` costs `costs[i]` and meets the target iff
    /// `met[i]`, with sleeps arranged so higher-indexed attempts finish
    /// first on a wide farm — the adversarial schedule for determinism.
    fn race_summaries(costs: &[f64], met: &[bool], workers: usize) -> Vec<Option<RaceResult>> {
        let attempts: Vec<RaceAttemptFn> = costs
            .iter()
            .zip(met)
            .enumerate()
            .map(|(i, (&cost, &met_target))| {
                Box::new(move |cancel: &RaceCancel| {
                    // Reverse finish order: attempt 0 sleeps longest.
                    thread::sleep(Duration::from_millis(5 * (8 - i as u64)));
                    if cancel.cancelled() {
                        return None;
                    }
                    if met_target {
                        cancel.target_met();
                    }
                    Some(RaceResult { met_target, cost })
                }) as RaceAttemptFn
            })
            .collect();
        run_race(attempts, workers)
            .into_iter()
            .map(|o| o.result.expect("no attempt panics"))
            .collect()
    }

    #[test]
    fn race_winner_is_independent_of_worker_count() {
        // Attempts 2 and 5 meet the target; 5 finishes first on a wide
        // farm, but the horizon attempt (2) must win on any worker count.
        let costs = [9.0, 8.0, 3.0, 1.0, 1.0, 2.0, 1.0, 1.0];
        let met = [false, false, true, false, false, true, false, false];
        for workers in [1, 2, 8] {
            let results = race_summaries(&costs, &met, workers);
            let (winner, charged) = race_outcome(&results).unwrap();
            assert_eq!((winner, charged), (2, 3), "workers={workers}");
            // Attempts inside the horizon always complete.
            assert!(results[..charged].iter().all(|r| r.is_some()));
        }
    }

    #[test]
    fn race_without_target_runs_everyone_and_picks_best_cost() {
        let costs = [4.0, 2.0, 7.0, 2.0];
        let met = [false; 4];
        for workers in [1, 4] {
            let results = race_summaries(&costs, &met, workers);
            assert!(results.iter().all(|r| r.is_some()));
            // Best cost 2.0 is shared; the tie goes to the lowest index.
            assert_eq!(race_outcome(&results), Some((1, 4)));
        }
    }

    type TestJob = Box<dyn FnOnce(&BackgroundCancel) -> usize + Send>;

    #[test]
    fn background_jobs_run_to_completion_when_not_cancelled() {
        let jobs: Vec<TestJob> = (0..6usize)
            .map(|i| Box::new(move |_: &BackgroundCancel| i * 2) as TestJob)
            .collect();
        let bg = run_jobs_background(jobs, 3);
        assert_eq!(bg.submitted, 6);
        let mut results = bg.wait();
        results.sort_unstable();
        assert_eq!(results, vec![0, 2, 4, 6, 8, 10]);
    }

    #[test]
    fn cancelled_background_jobs_drop_queued_work_and_keep_partials() {
        // One worker, a gate on the first job: cancel while job 0 is
        // mid-flight, then verify job 0's partial result arrives and the
        // queued jobs never ran.
        let gate = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let started = Arc::new(std::sync::Barrier::new(2));
        let ran = Arc::new(AtomicUsize::new(0));
        let mut jobs: Vec<TestJob> = Vec::new();
        {
            let gate = Arc::clone(&gate);
            let started = Arc::clone(&started);
            let ran = Arc::clone(&ran);
            jobs.push(Box::new(move |cancel: &BackgroundCancel| {
                ran.fetch_add(1, Ordering::Relaxed);
                started.wait();
                while !gate.load(Ordering::Relaxed) {
                    thread::sleep(Duration::from_millis(1));
                }
                // Stage boundary: bail with the partial value.
                if cancel.cancelled() {
                    return 1;
                }
                2
            }));
        }
        for _ in 0..4 {
            let ran = Arc::clone(&ran);
            jobs.push(Box::new(move |_: &BackgroundCancel| {
                ran.fetch_add(1, Ordering::Relaxed);
                99
            }));
        }
        let bg = run_jobs_background(jobs, 1);
        // A job pulled after the cancel is dropped unrun, job 0 included.
        started.wait();
        bg.cancel();
        gate.store(true, Ordering::Relaxed);
        let results = bg.wait();
        assert_eq!(results, vec![1], "only job 0's partial result");
        assert_eq!(ran.load(Ordering::Relaxed), 1, "queued jobs never ran");
    }

    #[test]
    fn race_outcome_skips_failed_attempts() {
        let results = [
            Some(RaceResult {
                met_target: false,
                cost: f64::INFINITY,
            }),
            None,
            Some(RaceResult {
                met_target: false,
                cost: 5.0,
            }),
        ];
        assert_eq!(race_outcome(&results), Some((2, 3)));
        assert_eq!(race_outcome(&[None, None]), None);
    }
}
