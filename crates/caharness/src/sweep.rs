//! Parallel deterministic sweep engine.
//!
//! The paper's evaluation is a large cross-product of data structures ×
//! reclamation schemes × thread counts × workloads. Every cell of that
//! cross-product is an *independent* experiment: it builds its own
//! [`mcsim::Machine`], derives every RNG stream from its own
//! [`crate::RunConfig::seed`], and shares no mutable state with any other
//! cell. This module exploits that independence: a small pool of **host**
//! threads sharing one task queue executes many configurations concurrently
//! while the simulated results stay bit-identical to a serial run.
//!
//! ## Determinism contract
//!
//! Results do not depend on the number of host workers or on completion
//! order, because
//!
//! 1. every task is a pure function of its config (one `Machine` per task;
//!    `mcsim` has no cross-machine shared state — see the Send/Sync audit in
//!    `mcsim::machine`),
//! 2. per-config RNG streams are derived from the config's own seed
//!    ([`crate::RunConfig::thread_seed`]), never from a shared generator,
//!    and
//! 3. results are put back in task-submission order, so tables are
//!    assembled in that order regardless of which worker finished first.
//!
//! `--jobs 1`, `--jobs 4` and `--jobs 8` therefore produce byte-identical
//! metrics tables (enforced by `tests/quantum_sweep.rs`).
//!
//! ## Scheduling
//!
//! One `Mutex` guards the tasks, in submission order, and the host-thread
//! budget in use. A worker takes the head task once its weight fits the
//! budget and otherwise sleeps on one `Condvar` until a running task gives
//! units back. The calling thread is worker 0, so `--jobs 1` spawns nothing
//! and runs the tasks in order on the caller. Dispatch takes well under a
//! microsecond, against milliseconds for even the cheapest cell.
//!
//! Progress (configs done / ETA) is reported on stderr: live `\r` updates
//! when stderr is a terminal, one summary line otherwise.

use std::io::{IsTerminal, Write as _};
use std::iter::Peekable;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Instant;

/// One unit of sweep work (an experiment configuration to run).
pub type Task<'env, T> = Box<dyn FnOnce() -> T + Send + 'env>;

/// Global worker-count knob. 0 = auto (one worker per host CPU).
static JOBS: AtomicUsize = AtomicUsize::new(0);

/// One task that panicked, as [`run_results_weighted`] returns it in the
/// task's slot.
#[derive(Clone, Debug)]
pub struct TaskFailure {
    /// The sweep's label (e.g. `lazylist 50i-50d`).
    pub label: String,
    /// Task submission index within that sweep.
    pub index: usize,
    /// The panic message (or a placeholder for non-string payloads).
    pub message: String,
}

/// The `f64` value an `ERR` table cell carries: a NaN with a recognizable
/// payload, so error cells survive every `f64` pipeline (NaN propagates)
/// yet stay distinguishable from legitimate not-applicable NaNs (which
/// some figures use for skipped cells, e.g. `ablation_smt`).
pub const ERR_CELL: f64 = f64::from_bits(0x7ff8_0000_dead_ce11);

/// Whether `v` is the [`ERR_CELL`] marker (bit-exact; ordinary NaNs and
/// finite values are not).
pub fn is_err_cell(v: f64) -> bool {
    v.to_bits() == ERR_CELL.to_bits()
}

fn panic_message(e: &(dyn std::any::Any + Send)) -> String {
    e.downcast_ref::<String>()
        .cloned()
        .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

/// Set the number of host worker threads for subsequent sweeps
/// (0 = auto: one per host CPU). Bins thread `--jobs N` through here; the
/// setting only affects host wall-clock, never simulated results.
pub fn set_jobs(n: usize) {
    JOBS.store(n, Ordering::Relaxed);
}

/// The effective worker count for a sweep started now.
pub fn jobs() -> usize {
    match JOBS.load(Ordering::Relaxed) {
        0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
        n => n,
    }
}

/// Shared progress meter: completion counter + ETA, reported on stderr.
struct Progress {
    label: String,
    total: usize,
    workers: usize,
    done: AtomicUsize,
    start: Instant,
    live: bool,
}

impl Progress {
    #[expect(
        clippy::disallowed_methods,
        reason = "progress-bar ETA only, never in results"
    )]
    fn new(label: &str, total: usize, workers: usize) -> Self {
        Self {
            label: label.to_string(),
            total,
            workers,
            done: AtomicUsize::new(0),
            start: Instant::now(),
            live: std::io::stderr().is_terminal() && total > 1,
        }
    }

    /// Record one finished task; repaint the live line if stderr is a tty.
    fn bump(&self) {
        let done = self.done.fetch_add(1, Ordering::Relaxed) + 1;
        if !self.live {
            return;
        }
        let elapsed = self.start.elapsed().as_secs_f64();
        let eta = elapsed / done as f64 * (self.total - done) as f64;
        let mut err = std::io::stderr().lock();
        let _ = write!(
            err,
            "\r[sweep {}] {done}/{} configs, {elapsed:.1}s elapsed, eta {eta:.1}s ",
            self.label, self.total
        );
        let _ = err.flush();
    }

    /// Print the closing summary (called once, from the submitting thread).
    fn finish(&self) {
        if self.total <= 1 {
            return;
        }
        let mut err = std::io::stderr().lock();
        if self.live {
            let _ = writeln!(err);
        } else {
            let _ = writeln!(
                err,
                "[sweep {}] {} configs in {:.1}s (jobs={})",
                self.label,
                self.total,
                self.start.elapsed().as_secs_f64(),
                self.workers
            );
        }
    }
}

/// What [`run_results_weighted`]'s one lock guards: the tasks not yet
/// taken (with their submission indices and weights), the budget units
/// running tasks hold, and the number of workers asleep on the condvar.
struct Queue<I: Iterator> {
    tasks: Peekable<I>,
    in_use: usize,
    waiting: usize,
}

/// Run every task and return per-task results **in submission order**,
/// executing up to [`jobs`] tasks concurrently on host threads.
///
/// A panicking task (e.g. a livelock ceiling or wedge watchdog firing
/// inside one configuration) becomes an `Err(TaskFailure)` for that slot —
/// the sweep keeps going and every other cell still produces its result.
///
/// Tasks may themselves be multi-threaded on the host, so each declares an
/// **occupancy weight** — the number of host threads it runs (1 for a
/// simulated cell; the workload thread count for a native cell, which
/// spawns that many real threads). A task starts only once its weight fits
/// a budget of [`jobs`] units (weights clamp into `1..=jobs`), so `--jobs N`
/// bounds *host threads*, not merely concurrent tasks, and a native
/// 8-thread cell is not time-sliced against 7 simulated cells.
///
/// Weights change host scheduling only; the determinism contract (results
/// in submission order, values independent of worker count) is unchanged.
pub fn run_results_weighted<'env, T: Send + 'env>(
    label: &str,
    tasks: Vec<(usize, Task<'env, T>)>,
) -> Vec<Result<T, TaskFailure>> {
    let total = tasks.len();
    let budget = jobs();
    let workers = budget.clamp(1, total.max(1));
    let progress = Progress::new(label, total, workers);
    let queue = Mutex::new(Queue {
        tasks: tasks.into_iter().enumerate().peekable(),
        in_use: 0,
        waiting: 0,
    });
    let freed = Condvar::new();
    let work = || {
        let mut done = Vec::new();
        let mut q = queue.lock().unwrap();
        while let Some(units) = q
            .tasks
            .peek()
            .map(|&(_, (weight, _))| weight.clamp(1, budget))
        {
            if q.in_use + units > budget {
                q.waiting += 1;
                q = freed.wait(q).unwrap();
                q.waiting -= 1;
                continue;
            }
            let (i, (_, task)) = q.tasks.next().expect("peeked");
            q.in_use += units;
            drop(q);
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(task)).map_err(|e| {
                TaskFailure {
                    label: label.to_string(),
                    index: i,
                    message: panic_message(&*e),
                }
            });
            progress.bump();
            done.push((i, r));
            q = queue.lock().unwrap();
            q.in_use -= units;
            // std's condvar makes a syscall per notify even with no one
            // asleep, which would dominate a trivial task at `--jobs 1`.
            if q.waiting > 0 {
                freed.notify_all();
            }
        }
        done
    };
    let mut done = std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..workers).map(|_| scope.spawn(work)).collect();
        let mut done = work();
        for h in helpers {
            done.extend(h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)));
        }
        done
    });
    progress.finish();
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, r)| r).collect()
}

/// Run every task, one host thread each, and return their results **in
/// submission order** — the all-or-nothing form of [`run_results_weighted`]
/// for callers whose result type has no natural `ERR` value (e.g.
/// [`crate::Metrics`] tables).
///
/// Any task failure still panics out of this call, but only *after* every
/// task has run.
pub fn run<'env, T: Send + 'env>(label: &str, tasks: Vec<Task<'env, T>>) -> Vec<T> {
    run_results_weighted(label, tasks.into_iter().map(|t| (1, t)).collect())
        .into_iter()
        .map(|r| match r {
            Ok(t) => t,
            Err(f) => panic!(
                "[sweep {} #{}] task failed: {}",
                f.label, f.index, f.message
            ),
        })
        .collect()
}

/// Sweep a rows × cols cross-product: one task per cell, results returned
/// as one `Vec` per row (row-major, same order as the inputs). Shares
/// [`run`]'s all-or-nothing failure behaviour.
pub fn grid<T, R, C, F>(label: &str, rows: &[R], cols: &[C], cell: F) -> Vec<Vec<T>>
where
    T: Send,
    R: Sync,
    C: Sync,
    F: Fn(&R, &C) -> T + Sync,
{
    let cell = &cell;
    let tasks: Vec<Task<T>> = rows
        .iter()
        .flat_map(|r| {
            cols.iter()
                .map(move |c| Box::new(move || cell(r, c)) as Task<T>)
        })
        .collect();
    let mut flat = run(label, tasks).into_iter();
    rows.iter()
        .map(|_| {
            cols.iter()
                .map(|_| flat.next().expect("grid shape"))
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::MutexGuard;

    /// `JOBS` is process-global and the test harness runs these tests on
    /// concurrent threads; serialize them so each actually executes at the
    /// worker count it sets (results never depend on it — that's the
    /// engine's contract — but the *coverage* of specific pool widths
    /// does). Restores auto on drop, even on panic.
    struct JobsLock(#[allow(dead_code)] MutexGuard<'static, ()>);

    impl JobsLock {
        fn take() -> Self {
            static LOCK: Mutex<()> = Mutex::new(());
            JobsLock(
                LOCK.lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner),
            )
        }
    }

    impl Drop for JobsLock {
        fn drop(&mut self) {
            set_jobs(0);
        }
    }

    #[test]
    fn results_in_submission_order() {
        let _jobs = JobsLock::take();
        // Tasks finish in scrambled order (cost inversely related to
        // index); outputs must still come back in submission order.
        for jobs in [1, 2, 4, 8] {
            set_jobs(jobs);
            let tasks: Vec<Task<usize>> = (0..20usize)
                .map(|i| {
                    Box::new(move || {
                        // Unequal spin so completion order ≠ submission order.
                        let mut x = 0u64;
                        for k in 0..((20 - i) as u64 * 5_000) {
                            x = x.wrapping_mul(31).wrapping_add(k);
                        }
                        std::hint::black_box(x);
                        i
                    }) as Task<usize>
                })
                .collect();
            let out = run("test", tasks);
            assert_eq!(out, (0..20).collect::<Vec<_>>(), "jobs={jobs}");
        }
    }

    #[test]
    fn every_task_runs_exactly_once() {
        let _jobs = JobsLock::take();
        set_jobs(3);
        let hits = AtomicU64::new(0);
        let tasks: Vec<Task<()>> = (0..17)
            .map(|_| {
                Box::new(|| {
                    hits.fetch_add(1, Ordering::Relaxed);
                }) as Task<()>
            })
            .collect();
        run("test", tasks);
        assert_eq!(hits.load(Ordering::Relaxed), 17);
    }

    #[test]
    fn grid_is_row_major() {
        let _jobs = JobsLock::take();
        set_jobs(4);
        let rows = [10u64, 20, 30];
        let cols = [1u64, 2];
        let g = grid("test", &rows, &cols, |r, c| r + c);
        assert_eq!(g, vec![vec![11, 12], vec![21, 22], vec![31, 32]]);
    }

    #[test]
    fn more_workers_than_tasks_is_fine() {
        let _jobs = JobsLock::take();
        set_jobs(64);
        let out = run("test", vec![Box::new(|| 7u32) as Task<u32>]);
        assert_eq!(out, vec![7]);
    }

    #[test]
    fn draining_workers_do_not_deadlock() {
        // Trivial tasks make every worker run dry at nearly the same
        // instant, over and over — where a lost wake-up or a lock order
        // cycle would hang the sweep. A deadlocked sweep cannot be joined,
        // so it runs on a detached thread and the test waits with a
        // timeout.
        let _jobs = JobsLock::take();
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            for jobs in [2, 4] {
                set_jobs(jobs);
                for _ in 0..50 {
                    let tasks = (0..1000u32)
                        .map(|i| Box::new(move || i) as Task<u32>)
                        .collect();
                    let out = run("test-drain", tasks);
                    assert!(out.into_iter().eq(0..1000), "jobs={jobs}");
                }
            }
            done_tx.send(()).expect("the test is still waiting");
        });
        done_rx
            .recv_timeout(std::time::Duration::from_secs(120))
            .expect("sweep did not finish: workers deadlocked (or the sweep panicked)");
    }

    #[test]
    fn weights_never_exceed_the_budget() {
        // Each task holds its clamped weight in `running` for ~1 ms; the
        // high-water mark must stay within `jobs` units.
        let _jobs = JobsLock::take();
        set_jobs(3);
        let (running, high) = (AtomicUsize::new(0), AtomicUsize::new(0));
        let tasks = [1, 3, 1, 2, 1, 3, 2, 1]
            .into_iter()
            .map(|w: usize| {
                let (running, high) = (&running, &high);
                let task = Box::new(move || {
                    let now = running.fetch_add(w, Ordering::SeqCst) + w;
                    high.fetch_max(now, Ordering::SeqCst);
                    std::thread::sleep(std::time::Duration::from_millis(1));
                    running.fetch_sub(w, Ordering::SeqCst);
                }) as Task<()>;
                (w, task)
            })
            .collect();
        let out = run_results_weighted("test-budget", tasks);
        assert!(out.iter().all(Result::is_ok));
        // A weight-3 task fills the budget alone, so the mark is exactly 3.
        assert_eq!(
            high.load(Ordering::SeqCst),
            3,
            "units in use at once with jobs = 3"
        );
    }

    #[test]
    fn one_job_runs_in_order_on_the_caller() {
        let _jobs = JobsLock::take();
        set_jobs(1);
        let seen = Mutex::new(Vec::new());
        let tasks = (0..10usize)
            .map(|i| {
                let seen = &seen;
                Box::new(move || seen.lock().unwrap().push((i, std::thread::current().id())))
                    as Task<()>
            })
            .collect();
        run("test-caller", tasks);
        let me = std::thread::current().id();
        let seen = seen.into_inner().unwrap();
        assert_eq!(seen, (0..10).map(|i| (i, me)).collect::<Vec<_>>());
    }

    fn panicky_tasks(bad: u32) -> Vec<Task<'static, u32>> {
        (0..4u32)
            .map(|i| {
                Box::new(move || {
                    if i == bad {
                        panic!("deliberate sweep panic");
                    }
                    i
                }) as Task<'static, u32>
            })
            .collect()
    }

    #[test]
    fn task_panic_propagates() {
        // `run` is all-or-nothing: a failed task panics out of the call
        // once the sweep has drained, on one worker or several.
        let _jobs = JobsLock::take();
        for jobs in [1, 2] {
            set_jobs(jobs);
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                run("test-propagate", panicky_tasks(2))
            }));
            assert!(
                r.is_err(),
                "a task panic must propagate out of run (jobs={jobs})"
            );
        }
    }

    #[test]
    fn collecting_mode_degrades_per_cell() {
        let _jobs = JobsLock::take();
        set_jobs(2);
        let tasks = panicky_tasks(2).into_iter().map(|t| (1, t)).collect();
        let out = run_results_weighted("test-collect", tasks);
        assert_eq!(out.len(), 4);
        assert_eq!(*out[0].as_ref().unwrap(), 0);
        assert_eq!(*out[1].as_ref().unwrap(), 1);
        let f = out[2].as_ref().unwrap_err();
        assert_eq!((f.label.as_str(), f.index), ("test-collect", 2));
        assert!(
            f.message.contains("deliberate sweep panic"),
            "{}",
            f.message
        );
        assert_eq!(*out[3].as_ref().unwrap(), 3, "later tasks still run");
    }

    #[test]
    fn jobs_zero_is_auto() {
        let _jobs = JobsLock::take();
        set_jobs(0);
        assert!(jobs() >= 1);
    }
}
