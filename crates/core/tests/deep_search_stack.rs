//! A search as deep as its tower runs on a small thread stack: the MAC
//! descent keeps its open nodes in a heap-allocated frame stack, not in
//! call frames. `eps:2:3` at `b = 2` descends far enough that a recursive
//! descent needs more than 128 KiB of stack in a debug build, and a stack
//! overflow aborts the whole process — a solve service included.

use iis_core::solvability::{solve_up_to_opts, SolveOptions};
use iis_tasks::library::parse_spec;

/// A stack the recursive descent overflows on this question (it does at
/// twice this size); the loop runs in half of it.
const SMALL_STACK: usize = 64 * 1024;

#[test]
fn a_deep_search_answers_on_a_small_stack() {
    for jobs in [1, 2] {
        let solved = std::thread::Builder::new()
            .stack_size(SMALL_STACK)
            .spawn(move || {
                let task = parse_spec("eps:2:3").unwrap();
                solve_up_to_opts(&task, 2, &SolveOptions::new().jobs(jobs)).first_solvable()
            })
            .unwrap()
            .join()
            .unwrap();
        assert_eq!(solved, Some(2), "jobs = {jobs}");
    }
}
