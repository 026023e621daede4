//! The farm: independent jobs on a fixed number of lanes.
//!
//! The paper runs page compiles on a Slurm cluster on Google Cloud
//! (Sec. 7.1); "all the operators' compilations can be performed in
//! parallel, since they are implemented on different physical locations
//! with no overlapping area", so "the compilation time is determined by the
//! longest individual one instead of the total" (Sec. 6.2). This module is
//! the local analogue: a fixed number of lanes executing independent jobs
//! and reporting per-job times. Its jobs are the build's per-operator
//! chains, one round per build — of one graph or of a batch — on
//! `CompileOptions::jobs` lanes (`build_batch`'s `workers`): each runs its
//! operator's missing stages, HLS or the softcore compile through P&R and
//! packing (under `-O3`, HLS alone), and its keys past the front of the
//! chain are the operator's own. `-O3` adds a second round, one stitch and
//! monolithic P&R per graph. The `-O0`/`-O1` perf models' per-operator
//! softcore runs are jobs too (on [`host_lanes`] lanes): the operators sit on
//! separate softcores, so each run depends only on its traced inputs. The
//! thread that submits a round works one of the lanes itself, so `n` jobs on
//! `workers` lanes spawn `min(workers, n) - 1` threads: none at all for an
//! empty plan, a single job or `workers = 1`.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;
use std::thread;

/// The host's hardware parallelism: the lane count for jobs that have no
/// configured width (1 where it cannot be read).
pub fn host_lanes() -> usize {
    thread::available_parallelism().map_or(1, |n| n.get())
}

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
}
