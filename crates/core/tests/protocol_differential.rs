//! The id-driven protocol against the label-driven one.
//!
//! [`DecisionProtocol`] writes and reads vertex ids of the arena tower and
//! finds its next state by name. The oracle here is the protocol as the
//! paper states it: each process carries its full-information view label,
//! and at the end looks that label up in the reference `sds_iterated(I, b)`
//! (`Complex::vertex_id`). Both run the same witness under the same
//! schedules and crash plans, and must decide the same output vertex in
//! every process — the executable form of DESIGN.md §14, "Why an
//! id-driven protocol decides what the label-driven one did".

use iis_core::solvability::{solve_at, DecisionMap, DecisionProtocol, WitnessIndex};
use iis_obs::Rng;
use iis_sched::{all_iis_schedules, IisMachine, IisRunner, IisSchedule, MachineStep};
use iis_tasks::library::{
    approximate_agreement, chromatic_simplex_agreement, consensus, k_set_consensus,
    one_shot_immediate_snapshot_task, parse_spec, renaming, trivial,
};
use iis_tasks::Task;
use iis_topology::{path_subdivision, sds, sds_iterated, Color, Complex, Label, VertexId};
use std::sync::Arc;

/// The label-driven decide: carry the nested view label, look it up in
/// the labelled tower after the last round.
struct LabelProtocol {
    color: Color,
    state: Label,
    reference: Arc<Complex>,
    witness: Arc<DecisionMap>,
}

impl LabelProtocol {
    fn decide(&self) -> VertexId {
        let v = self
            .reference
            .vertex_id(self.color, &self.state)
            .expect("full-information state is a vertex of SDS^b(I)");
        self.witness.map().image(v).expect("decision map is total")
    }
}

impl IisMachine for LabelProtocol {
    type Value = Label;
    type Output = VertexId;

    fn initial_value(&mut self) -> Label {
        self.state.clone()
    }

    fn on_view(&mut self, round: usize, view: &[(usize, Label)]) -> MachineStep<Label, VertexId> {
        if self.witness.rounds() == 0 {
            return MachineStep::Decide(self.decide());
        }
        self.state = Label::view(view.iter().map(|(p, l)| (Color(*p as u32), l)));
        if round + 1 >= self.witness.rounds() {
            MachineStep::Decide(self.decide())
        } else {
            MachineStep::Continue(self.state.clone())
        }
    }
}

/// A crash before `round`'s write, or (if `inside`) between its write and
/// its read.
#[derive(Clone, Copy, Debug)]
struct Crash {
    pid: usize,
    round: usize,
    inside: bool,
}

/// Runs `schedule` under `crash` and returns every process's decision.
fn run<M: IisMachine<Output = VertexId>>(
    machines: Vec<M>,
    schedule: &IisSchedule,
    crash: Option<Crash>,
) -> Vec<Option<VertexId>> {
    let mut runner = IisRunner::new(machines);
    for (round, partition) in schedule.rounds().iter().enumerate() {
        let mut inside = Vec::new();
        if let Some(c) = crash.filter(|c| c.round == round && !runner.is_crashed(c.pid)) {
            if c.inside {
                inside.push(c.pid);
            } else {
                runner.crash(c.pid);
            }
        }
        let live = partition.restrict(|p| runner.active().contains(&p));
        if live.participants().is_empty() {
            break;
        }
        runner.step_round_with_failures(&live, &inside);
    }
    runner.into_outputs()
}

/// The two protocols for `witness`, one machine per process of `inputs`
/// (input vertices in color order), under `schedule` and `crash`, decide
/// the same output vertices.
fn assert_same_decisions(
    task: &Task,
    index: &Arc<WitnessIndex>,
    reference: &Arc<Complex>,
    inputs: &[VertexId],
    schedule: &IisSchedule,
    crash: Option<Crash>,
) {
    let witness = Arc::new(index.witness().clone());
    let by_ids: Vec<DecisionProtocol> = inputs
        .iter()
        .map(|&v| DecisionProtocol::new(v, Arc::clone(index)))
        .collect();
    let by_labels: Vec<LabelProtocol> = inputs
        .iter()
        .map(|&v| LabelProtocol {
            color: task.input().color(v),
            state: task.input().label(v).clone(),
            reference: Arc::clone(reference),
            witness: Arc::clone(&witness),
        })
        .collect();
    let ids = run(by_ids, schedule, crash);
    let labels = run(by_labels, schedule, crash);
    assert_eq!(
        ids,
        labels,
        "{} b = {}: {schedule:?} {crash:?}",
        task.name(),
        index.rounds()
    );
    assert!(ids.iter().any(Option::is_some), "someone decides");
}

/// Every crash plan with at most one crash: each process, each round,
/// before or inside its write-read.
fn crash_plans(n: usize, rounds: usize) -> Vec<Option<Crash>> {
    let mut plans = vec![None];
    for pid in 0..n {
        for round in 0..rounds {
            for inside in [false, true] {
                plans.push(Some(Crash { pid, round, inside }));
            }
        }
    }
    plans
}

/// The input facets of `task` that cover every color, as vertices in
/// color order (runner pids are colors).
fn full_facets(task: &Task) -> Vec<Vec<VertexId>> {
    let input = task.input();
    let n = input
        .vertex_ids()
        .map(|v| input.color(v).index() + 1)
        .max()
        .unwrap_or(0);
    input
        .facets()
        .filter(|f| f.len() == n)
        .map(|f| {
            let mut vs: Vec<VertexId> = f.iter().collect();
            vs.sort_by_key(|&v| input.color(v));
            vs
        })
        .collect()
}

#[test]
fn two_process_families_decide_alike_under_every_schedule() {
    let families: Vec<Task> = vec![
        trivial(1),
        consensus(1, &[0, 1]),
        k_set_consensus(1, 2),
        renaming(1, 3),
        approximate_agreement(1, 3),
        approximate_agreement(1, 9),
        one_shot_immediate_snapshot_task(1),
        chromatic_simplex_agreement(&sds(&Complex::standard_simplex(1))),
        chromatic_simplex_agreement(&sds_iterated(&Complex::standard_simplex(1), 2)),
        chromatic_simplex_agreement(&path_subdivision(5)),
    ];
    let mut runs = 0usize;
    for task in &families {
        for b in 0..=2 {
            let Some(witness) = solve_at(task, b) else {
                continue;
            };
            let reference = Arc::new(sds_iterated(task.input(), b).complex().clone());
            let index = Arc::new(WitnessIndex::new(witness));
            let rounds = b.max(1);
            for inputs in full_facets(task) {
                for schedule in all_iis_schedules(&[0, 1], rounds) {
                    for crash in crash_plans(2, rounds) {
                        assert_same_decisions(task, &index, &reference, &inputs, &schedule, crash);
                        runs += 1;
                    }
                }
            }
        }
    }
    // the sweep is not vacuous: witnesses at b = 0, 1 and 2 all ran
    assert!(runs > 1000, "{runs} runs");
}

#[test]
fn three_process_eps_decides_alike_under_random_schedules() {
    let task = parse_spec("eps:2:3").expect("library spec");
    let witness = solve_at(&task, 2).expect("eps:2:3 is solvable at b = 2");
    let reference = Arc::new(sds_iterated(task.input(), 2).complex().clone());
    let index = Arc::new(WitnessIndex::new(witness));
    let facets = full_facets(&task);
    assert!(!facets.is_empty());
    let mut rng = Rng::seed_from_u64(0x1d5);
    for case in 0..300 {
        let inputs = &facets[case % facets.len()];
        let schedule = IisSchedule::random(3, 2, &mut rng);
        let plans = crash_plans(3, 2);
        let crash = plans[rng.random_range(0..plans.len())];
        assert_same_decisions(&task, &index, &reference, inputs, &schedule, crash);
    }
}
