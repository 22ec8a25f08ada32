//! A std-only work-stealing pool for the decision-map search.
//!
//! The workspace builds `--offline` with no external crates, so this module
//! supplies the three ingredients the parallel solver needs without rayon or
//! crossbeam:
//!
//! - [`SharedBudget`] — one atomic node budget charged by every worker, so
//!   an `Exhausted` verdict accounts for exactly the nodes explored;
//! - [`FirstWins`] — a deterministic first-solution cell: of all subtrees
//!   that find a witness, the *lowest-indexed* one wins, and only
//!   higher-indexed subtrees are cancelled — which is what makes the
//!   reported witness independent of thread count (DESIGN.md §7);
//! - [`run_pool`] — scoped worker threads over per-worker deques with
//!   stealing, counted in `solve.steals`.
//!
//! Everything here is generic plumbing; the search-specific subtree
//! splitting lives in [`crate::solvability`].

use iis_memory::sync::Mutex;
use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

/// A node budget shared by all workers of one search.
///
/// Each successful [`try_charge`](SharedBudget::try_charge) permits exactly
/// one search node, so summing the successes across workers gives the exact
/// number of nodes explored — there is no over- or under-counting when a
/// worker is cancelled mid-subtree.
///
/// # Examples
///
/// ```
/// use iis_core::parallel::SharedBudget;
/// let budget = SharedBudget::new(2);
/// assert!(budget.try_charge());
/// assert!(budget.try_charge());
/// assert!(!budget.try_charge(), "third node exceeds the budget");
/// assert_eq!(budget.remaining(), 0);
/// ```
pub struct SharedBudget {
    remaining: AtomicU64,
}

impl SharedBudget {
    /// A budget permitting `max_nodes` charges.
    pub fn new(max_nodes: u64) -> Self {
        SharedBudget {
            remaining: AtomicU64::new(max_nodes),
        }
    }

    /// Attempts to charge one node. Returns `false` iff the budget is spent
    /// (and leaves it at zero — a failed charge consumes nothing).
    pub fn try_charge(&self) -> bool {
        self.remaining
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| v.checked_sub(1))
            .is_ok()
    }

    /// Charges still available.
    pub fn remaining(&self) -> u64 {
        self.remaining.load(Ordering::Relaxed)
    }
}

/// A deterministic first-solution cell over indexed subtrees.
///
/// Subtrees are numbered in the sequential search's depth-first order. A
/// worker that finds a solution [`offer`](FirstWins::offer)s it under its
/// subtree index; the cell keeps the lowest index seen. A subtree should
/// abandon its work only when a *lower*-indexed subtree has already won
/// ([`should_cancel`](FirstWins::should_cancel)), so every subtree that the
/// sequential search would have reached before the winner still runs to
/// completion — making the winning witness identical at any thread count.
///
/// # Examples
///
/// ```
/// use iis_core::parallel::FirstWins;
/// let cell = FirstWins::new();
/// cell.offer(3, "late");
/// assert!(cell.should_cancel(5), "5 can never beat 3");
/// assert!(!cell.should_cancel(1), "1 might still find an earlier witness");
/// cell.offer(1, "early");
/// assert_eq!(cell.take(), Some((1, "early")));
/// ```
pub struct FirstWins<T> {
    best: AtomicUsize,
    slot: Mutex<Option<(usize, T)>>,
}

impl<T> Default for FirstWins<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> FirstWins<T> {
    /// An empty cell.
    pub fn new() -> Self {
        FirstWins {
            best: AtomicUsize::new(usize::MAX),
            slot: Mutex::new(None),
        }
    }

    /// Records `value` as subtree `index`'s solution if no lower-indexed
    /// solution is already held.
    pub fn offer(&self, index: usize, value: T) {
        let mut slot = self.slot.lock();
        if slot.as_ref().is_none_or(|(held, _)| index < *held) {
            *slot = Some((index, value));
            self.best.fetch_min(index, Ordering::Release);
        }
    }

    /// `true` iff a subtree with an index *lower* than `index` has won, so
    /// this subtree's outcome can no longer matter.
    pub fn should_cancel(&self, index: usize) -> bool {
        self.best.load(Ordering::Acquire) < index
    }

    /// `true` iff any solution has been recorded.
    pub fn has_winner(&self) -> bool {
        self.best.load(Ordering::Acquire) != usize::MAX
    }

    /// Consumes the cell, returning the winning `(index, value)`.
    pub fn take(self) -> Option<(usize, T)> {
        self.slot.into_inner()
    }
}

/// Runs `jobs` over `threads` workers with work stealing and returns each
/// job's result in job order.
///
/// Jobs are dealt round-robin onto per-worker deques; an idle worker pops
/// from the front of its own deque and steals from the *back* of others'
/// (each steal counted in `solve.steals`). The calling thread is worker 0,
/// so only `threads − 1` threads are spawned, and the first subtree starts
/// without waiting for a thread to be scheduled. With `threads <= 1`, or a
/// single job, everything runs on the calling thread in order — the
/// zero-overhead path the sequential solver uses.
///
/// # Panics
///
/// A panic inside `run` is contained in its worker: the panicking worker
/// records the payload, its peers stop taking new jobs, and once the scope
/// has joined cleanly the panic is re-raised on the **caller** with the
/// offending job index prefixed to the message (`worker panicked on job
/// {idx}: ...`). The scope never hangs and no subtree result is silently
/// dropped — the pool either returns every result or re-raises.
///
/// # Examples
///
/// ```
/// use iis_core::parallel::run_pool;
/// let squares = run_pool(vec![1u64, 2, 3, 4], 2, |_idx, n| n * n);
/// assert_eq!(squares, vec![1, 4, 9, 16]);
/// ```
pub fn run_pool<J, R, F>(jobs: Vec<J>, threads: usize, run: F) -> Vec<R>
where
    J: Send,
    R: Send,
    F: Fn(usize, J) -> R + Sync,
{
    let n_jobs = jobs.len();
    if threads <= 1 || n_jobs <= 1 {
        return jobs
            .into_iter()
            .enumerate()
            .map(|(i, j)| run(i, j))
            .collect();
    }
    let workers = threads.min(n_jobs);
    iis_obs::progress::set_workers(workers as u64);
    let queues: Vec<Mutex<VecDeque<(usize, J)>>> =
        (0..workers).map(|_| Mutex::new(VecDeque::new())).collect();
    for (i, job) in jobs.into_iter().enumerate() {
        queues[i % workers].lock().push_back((i, job));
    }
    let results: Vec<Mutex<Option<R>>> = (0..n_jobs).map(|_| Mutex::new(None)).collect();
    let steals = iis_obs::metrics::Counter::handle("solve.steals");
    // first panic wins: (job index, payload); peers stop at the next job
    // boundary once `cancel` is raised
    let panicked: Mutex<Option<(usize, Box<dyn std::any::Any + Send>)>> = Mutex::new(None);
    let cancel = AtomicBool::new(false);
    let worker = |me: usize| {
        // stable worker id for span-profiling sample attribution
        iis_obs::profile::set_worker(me);
        loop {
            if cancel.load(Ordering::Acquire) {
                return;
            }
            // own work first, front-to-back (preserves index order)
            let mine = queues[me].lock().pop_front();
            let (idx, job) = match mine {
                Some(next) => next,
                None => {
                    // steal from the back of the busiest other queue
                    let mut stolen = None;
                    for d in 1..workers {
                        let victim = (me + d) % workers;
                        if let Some(next) = queues[victim].lock().pop_back() {
                            stolen = Some(next);
                            break;
                        }
                    }
                    match stolen {
                        Some(next) => {
                            steals.incr();
                            next
                        }
                        None => return,
                    }
                }
            };
            match panic::catch_unwind(AssertUnwindSafe(|| run(idx, job))) {
                Ok(r) => *results[idx].lock() = Some(r),
                Err(payload) => {
                    cancel.store(true, Ordering::Release);
                    let mut first = panicked.lock();
                    if first.is_none() {
                        *first = Some((idx, payload));
                    }
                    return;
                }
            }
        }
    };
    std::thread::scope(|scope| {
        for me in 1..workers {
            let worker = &worker;
            scope.spawn(move || worker(me));
        }
        worker(0);
    });
    if let Some((idx, payload)) = panicked.into_inner() {
        panic!("worker panicked on job {idx}: {}", panic_message(&*payload));
    }
    results
        .into_iter()
        .map(|slot| slot.into_inner().expect("every job ran exactly once"))
        .collect()
}

/// The message of a caught panic's payload: the `&str` or `String` that
/// `panic!` carries, or a placeholder for any other payload.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s
    } else {
        "<non-string panic payload>"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_is_exact_under_contention() {
        let budget = SharedBudget::new(1000);
        let hits: Vec<u64> = run_pool(vec![(); 8], 4, |_, ()| {
            let mut n = 0u64;
            while budget.try_charge() {
                n += 1;
            }
            n
        });
        assert_eq!(hits.iter().sum::<u64>(), 1000);
        assert_eq!(budget.remaining(), 0);
        assert!(!budget.try_charge());
    }

    #[test]
    fn first_wins_keeps_lowest_index() {
        let cell = FirstWins::new();
        for idx in [7usize, 2, 9, 4] {
            cell.offer(idx, idx * 10);
        }
        assert!(cell.has_winner());
        assert!(cell.should_cancel(3));
        assert!(!cell.should_cancel(2));
        assert_eq!(cell.take(), Some((2, 20)));
    }

    #[test]
    fn empty_cell_cancels_nothing() {
        let cell: FirstWins<()> = FirstWins::new();
        assert!(!cell.has_winner());
        assert!(!cell.should_cancel(0));
        assert!(!cell.should_cancel(usize::MAX - 1));
        assert_eq!(cell.take(), None);
    }

    #[test]
    fn pool_runs_every_job_once_in_order() {
        for threads in [1usize, 2, 3, 8] {
            let jobs: Vec<usize> = (0..37).collect();
            let out = run_pool(jobs, threads, |idx, j| {
                assert_eq!(idx, j);
                j * j
            });
            assert_eq!(out, (0..37).map(|j| j * j).collect::<Vec<_>>());
        }
    }

    #[test]
    fn pool_with_more_threads_than_jobs() {
        let out = run_pool(vec![5u32], 16, |_, j| j + 1);
        assert_eq!(out, vec![6]);
    }

    #[test]
    fn worker_panic_propagates_with_job_index() {
        // a panicking predicate must not hang the scope or silently drop
        // subtrees: the pool joins cleanly and re-raises on the caller,
        // naming the offending job
        let caught = panic::catch_unwind(|| {
            run_pool((0..16usize).collect::<Vec<_>>(), 4, |_idx, j| {
                if j == 5 {
                    panic!("predicate exploded on {j}");
                }
                j * 2
            })
        });
        let payload = caught.expect_err("panic must propagate to the caller");
        let msg = payload
            .downcast_ref::<String>()
            .expect("re-raised payload is a String");
        assert!(msg.contains("worker panicked on job 5"), "got: {msg}");
        assert!(msg.contains("predicate exploded on 5"), "got: {msg}");
    }

    #[test]
    fn worker_panic_cancels_peer_workers() {
        // peers observe the cancel flag at the next job boundary: with one
        // poisoned job and many cheap ones, the run terminates (no hang) and
        // panics exactly once on the caller
        use std::sync::atomic::AtomicUsize;
        let ran = AtomicUsize::new(0);
        let caught = panic::catch_unwind(AssertUnwindSafe(|| {
            run_pool((0..64usize).collect::<Vec<_>>(), 4, |_idx, j| {
                ran.fetch_add(1, Ordering::Relaxed);
                if j == 0 {
                    panic!("first job dies");
                }
                j
            })
        }));
        assert!(caught.is_err());
        assert!(
            ran.load(Ordering::Relaxed) <= 64,
            "every job runs at most once"
        );
    }
}
