//! E9 — §5: Theorem 5.1 witness search and the convergence protocols.
//!
//! Paper-shape claims: witnesses exist at `k = b` for `SDS^b` targets (map
//! search succeeds, cost grows with target size); the direct bisection
//! algorithm converges in `O(log L)` rounds on a path of length `L`.

use iis_bench::harness::Bench;
use iis_core::convergence::{theorem_5_1_witness, EdgeConvergence};
use iis_core::solvability::{DecisionProtocol, WitnessIndex};
use iis_sched::{IisRunner, IisSchedule};
use iis_topology::{sds, sds_iterated, Complex, VertexId};
use std::hint::black_box;
use std::sync::Arc;

fn witness_search(bench: &mut Bench) {
    let mut g = bench.group("e9_witness_search");
    g.sample_size(10);
    let targets = [
        ("sds_s1", sds(&Complex::standard_simplex(1))),
        ("sds2_s1", sds_iterated(&Complex::standard_simplex(1), 2)),
        ("sds_s2", sds(&Complex::standard_simplex(2))),
    ];
    for (name, target) in &targets {
        g.bench_function(name, || {
            black_box(theorem_5_1_witness(target, 3)).expect("witness");
        });
    }
}

fn agreement_protocol(bench: &mut Bench) {
    let mut g = bench.group("e9_agreement_run");
    let target = sds(&Complex::standard_simplex(2));
    let w = Arc::new(WitnessIndex::new(
        theorem_5_1_witness(&target, 1).expect("witness"),
    ));
    g.bench_function("csass_3proc_lockstep", || {
        let machines: Vec<_> = (0..3)
            .map(|p| DecisionProtocol::new(VertexId(p), Arc::clone(&w)))
            .collect();
        let mut runner = IisRunner::new(machines);
        runner.run(IisSchedule::lockstep(3, w.rounds().max(1)));
        black_box(runner.outputs().len());
    });
}

fn edge_bisection(bench: &mut Bench) {
    let mut g = bench.group("e9_edge_bisection");
    for length in [3usize, 9, 27, 81] {
        let l = length;
        g.bench_function(&format!("{length}"), || {
            let rounds = EdgeConvergence::new(0, l).rounds();
            let machines = vec![EdgeConvergence::new(0, l), EdgeConvergence::new(1, l)];
            let mut runner = IisRunner::new(machines);
            runner.run(IisSchedule::sequential(2, rounds));
            let e = *runner.output(0).unwrap();
            let o = *runner.output(1).unwrap();
            assert_eq!(e.abs_diff(o), 1);
            black_box((e, o));
        });
    }
}

fn report_rounds_scaling() {
    eprintln!("\n[E9 report] bisection rounds vs path length (O(log L)):");
    for l in [3usize, 9, 27, 81, 243] {
        eprintln!(
            "  L = {l:>4}: {} rounds",
            EdgeConvergence::new(0, l).rounds()
        );
    }
}

fn main() {
    report_rounds_scaling();
    let mut bench = Bench::from_env("e9_convergence");
    witness_search(&mut bench);
    agreement_protocol(&mut bench);
    edge_bisection(&mut bench);
    bench.finish();
}
