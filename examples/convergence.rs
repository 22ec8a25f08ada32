//! Simplex convergence (§5): Theorem 5.1 witnesses and the direct
//! path-bisection algorithm.
//!
//! ```sh
//! cargo run --example convergence
//! ```

use iis::core::convergence::{theorem_5_1_witness, validate_csass_outcome, EdgeConvergence};
use iis::core::solvability::{DecisionProtocol, WitnessIndex};
use iis::sched::{all_iis_schedules, IisRunner, IisSchedule};
use iis::topology::{sds, sds_iterated, Complex, VertexId};
use std::sync::Arc;

fn main() {
    println!("== Theorem 5.1: SDS^k maps onto any chromatic subdivision ==\n");
    for (name, target) in [
        ("SDS(s¹)", sds(&Complex::standard_simplex(1))),
        ("SDS²(s¹)", sds_iterated(&Complex::standard_simplex(1), 2)),
        ("SDS(s²)", sds(&Complex::standard_simplex(2))),
    ] {
        let w = theorem_5_1_witness(&target, 3).expect("theorem guarantees a witness");
        println!(
            "{name:>10}: color+carrier-preserving map SDS^{}(sⁿ) → A found \
             ({} vertices mapped)",
            w.rounds(),
            w.map().len()
        );
    }

    println!("\n== CSASS solved by the witness, under every 2-process schedule ==");
    let target = sds_iterated(&Complex::standard_simplex(1), 2);
    let w = Arc::new(WitnessIndex::new(
        theorem_5_1_witness(&target, 3).expect("witness"),
    ));
    let schedules = all_iis_schedules(&[0, 1], w.rounds());
    for schedule in &schedules {
        let machines = vec![
            DecisionProtocol::new(VertexId(0), Arc::clone(&w)),
            DecisionProtocol::new(VertexId(1), Arc::clone(&w)),
        ];
        let mut runner = IisRunner::new(machines);
        runner.run(schedule.clone());
        let outputs: Vec<_> = runner
            .outputs()
            .iter()
            .map(|o| o.as_ref().copied())
            .collect();
        validate_csass_outcome(&target, &outputs, &[true, true]).expect("CSASS satisfied");
    }
    println!(
        "all {} schedules of {} rounds produce valid convergence ✓",
        schedules.len(),
        w.rounds()
    );

    println!("\n== the direct bisection algorithm (no precomputed map) ==");
    for length in [3usize, 9, 27] {
        let rounds = EdgeConvergence::new(0, length).rounds();
        let mut agree_edge = 0usize;
        let schedules = all_iis_schedules(&[0, 1], rounds.min(5));
        // for long paths, exhaustive schedules get big — cap rounds shown
        let mut checked = 0;
        for schedule in schedules {
            let mut padded: Vec<_> = schedule.rounds().to_vec();
            while padded.len() < rounds {
                padded.push(iis::sched::OrderedPartition::simultaneous([0, 1]));
            }
            let machines = vec![
                EdgeConvergence::new(0, length),
                EdgeConvergence::new(1, length),
            ];
            let mut runner = IisRunner::new(machines);
            runner.run(IisSchedule::from_rounds(padded));
            let e = *runner.output(0).expect("decided");
            let o = *runner.output(1).expect("decided");
            assert!(e % 2 == 0 && o % 2 == 1 && e.abs_diff(o) == 1);
            agree_edge += 1;
            checked += 1;
        }
        println!(
            "path of length {length:>2}: {rounds} rounds; {agree_edge}/{checked} \
             schedules land on a proper edge ✓"
        );
    }
}
