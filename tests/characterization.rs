//! End-to-end test of the characterization (Proposition 3.1 + §4): a
//! decision map found by the solver, executed as an actual IIS protocol,
//! satisfies its task under **every** schedule and input combination.

use iis::core::solvability::{solve_at, solve_up_to, DecisionProtocol, WitnessIndex};
use iis::sched::{all_iis_schedules, IisRunner};
use iis::tasks::library::{
    approximate_agreement, k_set_consensus, one_shot_immediate_snapshot_task, renaming, trivial,
};
use iis::tasks::Task;
use iis::topology::{Color, Simplex, VertexId};
use std::sync::Arc;

/// Runs the decision protocol for every input facet of a 2-process task
/// under every `b`-round IIS schedule (including crash-truncated ones) and
/// validates decisions against `Δ`.
fn exhaustively_validate_two_process(task: &Task, b: usize) {
    let witness = Arc::new(WitnessIndex::new(
        solve_at(task, b).expect("task solvable at b"),
    ));
    for facet in task.input().facets().cloned().collect::<Vec<_>>() {
        let mut verts: Vec<VertexId> = facet.iter().collect();
        if verts.len() != 2 {
            continue;
        }
        // machine index must equal the process color (views use runner pids
        // as colors)
        verts.sort_by_key(|&v| task.input().color(v));
        let colors: Vec<Color> = verts.iter().map(|&v| task.input().color(v)).collect();
        assert_eq!(colors, vec![Color(0), Color(1)]);
        for schedule in all_iis_schedules(&[0, 1], b.max(1)) {
            for crash in [None, Some(0usize), Some(1usize)] {
                let machines: Vec<DecisionProtocol> = (0..2)
                    .map(|i| DecisionProtocol::new(verts[i], Arc::clone(&witness)))
                    .collect();
                let mut runner = IisRunner::new(machines);
                if let Some(p) = crash {
                    runner.crash(p);
                }
                runner.run(schedule.clone());
                // decided outputs must extend to a tuple in Δ(participating inputs)
                let decided = Simplex::new(runner.outputs().iter().flatten().copied());
                // participating set: crashed-before-start processes never
                // appear, so the relevant input simplex shrinks
                let participating = Simplex::new(
                    verts
                        .iter()
                        .enumerate()
                        .filter(|(i, _)| crash != Some(*i))
                        .map(|(_, &v)| v),
                );
                assert!(
                    task.allows(&participating, &decided),
                    "task {} violated: inputs {participating}, decided {decided}, schedule {schedule:?}",
                    task.name()
                );
            }
        }
    }
}

#[test]
fn trivial_protocol_correct_everywhere() {
    exhaustively_validate_two_process(&trivial(1), 0);
}

#[test]
fn approximate_agreement_protocol_correct_everywhere() {
    exhaustively_validate_two_process(&approximate_agreement(1, 3), 1);
}

#[test]
fn one_shot_is_protocol_correct_everywhere() {
    exhaustively_validate_two_process(&one_shot_immediate_snapshot_task(1), 1);
}

#[test]
fn renaming_protocol_correct_everywhere() {
    exhaustively_validate_two_process(&renaming(1, 3), 0);
}

#[test]
fn two_process_two_set_consensus_correct_everywhere() {
    exhaustively_validate_two_process(&k_set_consensus(1, 2), 0);
}

#[test]
fn three_process_protocol_random_schedules() {
    use iis::obs::Rng;
    use iis::sched::IisSchedule;
    let task = k_set_consensus(2, 3);
    let witness = Arc::new(WitnessIndex::new(
        solve_at(&task, 0).expect("trivially solvable"),
    ));
    let mut rng = Rng::seed_from_u64(31);
    let full: Vec<VertexId> = task.input().vertex_ids().collect();
    for _case in 0..100 {
        let machines: Vec<DecisionProtocol> = (0..3)
            .map(|i| DecisionProtocol::new(VertexId(i as u32), Arc::clone(&witness)))
            .collect();
        let mut runner = IisRunner::new(machines);
        runner.run(IisSchedule::random(3, 1, &mut rng));
        let decided = Simplex::new(runner.outputs().iter().flatten().copied());
        let participating = Simplex::new(full.iter().copied());
        assert!(task.allows(&participating, &decided));
    }
}

#[test]
fn solvability_is_monotone_in_rounds() {
    // solvable at b ⇒ solvable at b+1 (run an extra oblivious round):
    // verified by the solver itself on ε-agreement
    let t = approximate_agreement(1, 3);
    assert!(solve_at(&t, 1).is_some());
    assert!(solve_at(&t, 2).is_some());
}

#[test]
fn solve_up_to_reports_shape() {
    let t = approximate_agreement(1, 9);
    let r = solve_up_to(&t, 3);
    assert_eq!(r.results(), &[(0, false), (1, false), (2, true)]);
    assert_eq!(r.first_solvable(), Some(2));
}
