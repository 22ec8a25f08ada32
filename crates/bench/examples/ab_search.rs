use iis_core::{solve_at_opts, SolveOptions};
use iis_tasks::library::k_set_consensus;
use std::time::Instant;
fn main() {
    let task = k_set_consensus(2, 2);
    let opts = SolveOptions::new().budget(30_000);
    for _ in 0..2 {
        let _ = solve_at_opts(&task, 2, &opts);
    } // warmup
    let mut best = f64::MAX;
    for _ in 0..7 {
        let t = Instant::now();
        std::hint::black_box(solve_at_opts(&task, 2, &opts));
        best = best.min(t.elapsed().as_secs_f64() * 1e3);
    }
    println!("best {best:.2} ms");
}
