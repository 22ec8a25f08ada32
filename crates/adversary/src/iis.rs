//! The IIS-layer executor: drives `iis_sched::IisRunner` under an
//! arbitrary schedule and fault plan, records a full trace, and checks it
//! against the oracle battery.
//!
//! Schedules are **repaired** against the live set before each round: the
//! runner itself drops crashed pids from a partition, and any active pid
//! the scheduled partition omits is appended as a final concurrency class.
//! This makes every `(schedule, plan)` pair executable, which the shrinker
//! relies on — deleting a crash event never invalidates later rounds.

use crate::oracle::OracleFailure;
use crate::plan::FaultPlan;
use iis_core::solvability::{DecisionProtocol, WitnessIndex};
use iis_memory::checks::validate_immediate_snapshot;
use iis_obs::{Json, ToJson};
use iis_sched::{IisMachine, IisRunner, IisSchedule, MachineStep, OrderedPartition};
use iis_tasks::Task;
use iis_topology::{Simplex, VertexId};
use std::collections::BTreeSet;
use std::sync::Arc;

/// One fuzz case on the IIS layer: `n` processes, a round schedule, and a
/// crash plan. Fully describes the execution — replay is `run_iis_case`.
#[derive(Clone, Debug)]
pub struct IisCase {
    /// Number of processes.
    pub n: usize,
    /// The scheduled partitions, one per round (repaired before use).
    pub schedule: IisSchedule,
    /// The crash plan.
    pub plan: FaultPlan,
    /// Which facet of the task's input complex supplies the inputs, when a
    /// task oracle is attached (taken modulo the facet count).
    pub input_facet: usize,
}

impl ToJson for IisCase {
    fn to_json(&self) -> Json {
        let rounds: Vec<Json> = self
            .schedule
            .rounds()
            .iter()
            .map(|p| {
                Json::Arr(
                    p.blocks()
                        .iter()
                        .map(|b| Json::Arr(b.iter().map(|&q| Json::Num(q as f64)).collect()))
                        .collect(),
                )
            })
            .collect();
        Json::obj([
            ("n", Json::Num(self.n as f64)),
            ("schedule", Json::Arr(rounds)),
            ("plan", self.plan.to_json()),
            ("input_facet", Json::Num(self.input_facet as f64)),
        ])
    }
}

/// One executed round of the trace: the IS instance it induced.
#[derive(Clone, Debug)]
pub struct IisRoundTrace {
    /// `inputs[p]` is `Some(p)` iff `p` wrote to this round's memory.
    pub inputs: Vec<Option<usize>>,
    /// `views[p]` is the view `p` received, or `None` (crashed / absent).
    pub views: Vec<Option<Vec<(usize, usize)>>>,
}

/// The full recorded execution of one case.
#[derive(Clone, Debug)]
pub struct IisTrace {
    /// Number of processes.
    pub n: usize,
    /// Per-round IS instances, in execution order.
    pub rounds: Vec<IisRoundTrace>,
    /// `crashed_at[p]` is the round `p` crashed at, if it did.
    pub crashed_at: Vec<Option<usize>>,
}

/// Per-process probe: writes its pid, records every view, never decides.
struct Probe {
    pid: usize,
    views: Vec<(usize, Vec<(usize, usize)>)>,
}

impl IisMachine for Probe {
    type Value = usize;
    type Output = ();
    fn initial_value(&mut self) -> usize {
        self.pid
    }
    fn on_view(&mut self, round: usize, view: &[(usize, usize)]) -> MachineStep<usize, ()> {
        self.views.push((round, view.to_vec()));
        MachineStep::Continue(self.pid)
    }
}

/// Appends any active pid the partition omits as a final concurrency
/// class; returns `None` when nothing is active (skip the round).
fn repair(partition: &OrderedPartition, active: &[usize]) -> Option<OrderedPartition> {
    if active.is_empty() {
        return None;
    }
    let present: BTreeSet<usize> = partition.participants().into_iter().collect();
    let missing: Vec<usize> = active
        .iter()
        .copied()
        .filter(|p| !present.contains(p))
        .collect();
    let mut blocks: Vec<Vec<usize>> = partition
        .restrict(|p| active.contains(&p))
        .blocks()
        .to_vec();
    if !missing.is_empty() {
        blocks.push(missing);
    }
    Some(OrderedPartition::new(blocks).expect("repaired blocks are disjoint and non-empty"))
}

/// Executes `case` with probe machines and records the trace.
pub fn execute_iis(case: &IisCase) -> IisTrace {
    let mut runner = IisRunner::new(
        (0..case.n)
            .map(|pid| Probe {
                pid,
                views: Vec::new(),
            })
            .collect::<Vec<_>>(),
    );
    let mut crashed_at: Vec<Option<usize>> = vec![None; case.n];
    let mut executed: Vec<Vec<Option<usize>>> = Vec::new();
    for (round, scheduled) in case.schedule.rounds().iter().enumerate() {
        for v in case.plan.clean_at(round) {
            if !runner.is_crashed(v) {
                runner.crash(v);
                crashed_at[v] = Some(round);
            }
        }
        let Some(partition) = repair(scheduled, &runner.active()) else {
            executed.push(vec![None; case.n]);
            continue;
        };
        let inside: Vec<usize> = case
            .plan
            .inside_at(round)
            .into_iter()
            .filter(|&v| !runner.is_crashed(v))
            .collect();
        // who writes this round's memory: every then-active process (a
        // crash inside the WriteRead still leaves the write visible)
        let mut inputs = vec![None; case.n];
        for p in partition.participants() {
            inputs[p] = Some(p);
        }
        runner.step_round_with_failures(&partition, &inside);
        for v in inside {
            crashed_at[v] = Some(round);
        }
        executed.push(inputs);
    }
    let rounds = executed
        .into_iter()
        .enumerate()
        .map(|(round, inputs)| {
            let views = (0..case.n)
                .map(|p| {
                    runner
                        .machine(p)
                        .views
                        .iter()
                        .find(|(rd, _)| *rd == round)
                        .map(|(_, v)| v.clone())
                })
                .collect();
            IisRoundTrace { inputs, views }
        })
        .collect();
    IisTrace {
        n: case.n,
        rounds,
        crashed_at,
    }
}

/// Checks the recorded trace against the IS-layer oracles: per-round §3.5
/// axioms, no ghost writers, and no starved survivor.
pub fn check_iis_trace(trace: &IisTrace) -> Vec<OracleFailure> {
    let mut failures = Vec::new();
    for (round, rt) in trace.rounds.iter().enumerate() {
        if let Err(error) = validate_immediate_snapshot(&rt.inputs, &rt.views) {
            failures.push(OracleFailure::IsAxiom { round, error });
        }
        for p in 0..trace.n {
            let alive = trace.crashed_at[p].is_none_or(|c| c > round);
            let participated = rt.inputs[p].is_some();
            if alive && participated && rt.views[p].is_none() {
                failures.push(OracleFailure::MissingView { round, pid: p });
            }
            if let Some(view) = &rt.views[p] {
                for &(q, _) in view {
                    if let Some(c) = trace.crashed_at[q] {
                        if c < round {
                            failures.push(OracleFailure::GhostWriter {
                                round,
                                pid: q,
                                crashed_at: c,
                                seen_by: p,
                            });
                        }
                    }
                }
            }
        }
    }
    failures
}

/// The task-validity context: a solvable task, its indexed decision-map
/// witness, and the per-process input vertices drawn from one input facet.
pub struct TaskContext {
    task: Task,
    witness: Arc<WitnessIndex>,
    inputs: Vec<VertexId>,
    facet: Simplex,
}

impl TaskContext {
    /// Builds the context for `case.input_facet`, or `None` if the chosen
    /// facet does not cover all `n` colors (partial-participation facets
    /// are exercised through crash plans instead).
    pub fn for_case(task: &Task, witness: &Arc<WitnessIndex>, case: &IisCase) -> Option<Self> {
        let input = task.input();
        let facets: Vec<&Simplex> = input.facets().collect();
        let facet = facets[case.input_facet % facets.len()].clone();
        let mut inputs: Vec<Option<VertexId>> = vec![None; case.n];
        for &v in facet.vertices() {
            let slot = inputs.get_mut(input.color(v).0 as usize)?;
            *slot = Some(v);
        }
        let inputs: Option<Vec<_>> = inputs.into_iter().collect();
        Some(TaskContext {
            task: task.clone(),
            witness: Arc::clone(witness),
            inputs: inputs?,
            facet,
        })
    }

    /// The round bound the witness promises: outputs within this many
    /// rounds (at least one round so round-0 maps still get a view).
    pub fn round_bound(&self) -> usize {
        self.witness.rounds().max(1)
    }
}

/// Replays `case` with `DecisionProtocol` machines for `ctx.round_bound()`
/// rounds and checks wait-freedom (every survivor outputs) and task
/// validity (outputs allowed by Δ of the participating set).
pub fn check_task_run(case: &IisCase, ctx: &TaskContext) -> Vec<OracleFailure> {
    let machines: Vec<DecisionProtocol> = ctx
        .inputs
        .iter()
        .map(|&v| DecisionProtocol::new(v, Arc::clone(&ctx.witness)))
        .collect();
    let mut runner = IisRunner::new(machines);
    let mut clean_round0: BTreeSet<usize> = BTreeSet::new();
    for round in 0..ctx.round_bound() {
        for v in case.plan.clean_at(round) {
            if !runner.is_crashed(v) && runner.output(v).is_none() {
                runner.crash(v);
                if round == 0 {
                    clean_round0.insert(v);
                }
            }
        }
        let scheduled = case
            .schedule
            .rounds()
            .get(round)
            .cloned()
            .unwrap_or_else(|| OrderedPartition::simultaneous(runner.active()));
        let Some(partition) = repair(&scheduled, &runner.active()) else {
            break;
        };
        let inside: Vec<usize> = case
            .plan
            .inside_at(round)
            .into_iter()
            .filter(|&v| !runner.is_crashed(v))
            .collect();
        runner.step_round_with_failures(&partition, &inside);
    }
    let mut failures = Vec::new();
    for p in 0..case.n {
        if !runner.is_crashed(p) && runner.output(p).is_none() {
            failures.push(OracleFailure::NotDecided { pid: p });
        }
    }
    // participants = everyone that wrote round 0 = all but clean round-0
    // victims; their input vertices span the carrier simplex for Δ
    let participants: Vec<usize> = (0..case.n).filter(|p| !clean_round0.contains(p)).collect();
    let outputs: BTreeSet<_> = runner.outputs().iter().flatten().copied().collect();
    if !outputs.is_empty() {
        let si_vertices: Vec<_> = ctx
            .facet
            .vertices()
            .iter()
            .copied()
            .filter(|&v| participants.contains(&(ctx.task.input().color(v).0 as usize)))
            .collect();
        let si = Simplex::new(si_vertices);
        let t = Simplex::new(outputs.iter().copied());
        if !ctx.task.allows(&si, &t) {
            failures.push(OracleFailure::InvalidDecision {
                participants,
                outputs: outputs.iter().map(|v| v.0 as usize).collect(),
            });
        }
    }
    failures
}

/// Executes `case` end to end: probe trace (optionally mutated — the
/// test-only fault hook), trace oracles, and the task oracles when `ctx`
/// is present. Deterministic: same case, same verdict, any thread count.
pub fn run_iis_case(
    case: &IisCase,
    ctx: Option<&TaskContext>,
    mutate: Option<&dyn Fn(&mut IisTrace)>,
) -> Vec<OracleFailure> {
    let mut trace = execute_iis(case);
    if let Some(m) = mutate {
        m(&mut trace);
    }
    let mut failures = check_iis_trace(&trace);
    if let Some(ctx) = ctx {
        failures.extend(check_task_run(case, ctx));
    }
    failures
}

/// One-step reductions of `case`, smallest-schedule first: drop a round
/// (shifting the plan), then drop a crash event.
pub fn iis_candidates(case: &IisCase) -> Vec<IisCase> {
    let mut out = Vec::new();
    let rounds = case.schedule.rounds();
    for r in (0..rounds.len()).rev() {
        let mut remaining: Vec<OrderedPartition> = rounds.to_vec();
        remaining.remove(r);
        out.push(IisCase {
            n: case.n,
            schedule: IisSchedule::from_rounds(remaining),
            plan: case.plan.without_round(r),
            input_facet: case.input_facet,
        });
    }
    for i in 0..case.plan.events.len() {
        out.push(IisCase {
            n: case.n,
            schedule: case.schedule.clone(),
            plan: case.plan.without_event(i),
            input_facet: case.input_facet,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{CrashEvent, CrashMode};

    fn lockstep_case(n: usize, rounds: usize) -> IisCase {
        IisCase {
            n,
            schedule: IisSchedule::lockstep(n, rounds),
            plan: FaultPlan::none(),
            input_facet: 0,
        }
    }

    #[test]
    fn clean_runs_pass_all_trace_oracles() {
        let case = lockstep_case(3, 2);
        assert!(run_iis_case(&case, None, None).is_empty());
    }

    #[test]
    fn crashes_are_recorded_and_pass() {
        let mut case = lockstep_case(3, 3);
        case.plan.events.push(CrashEvent {
            at: 0,
            pid: 1,
            mode: CrashMode::Inside,
        });
        case.plan.events.push(CrashEvent {
            at: 1,
            pid: 2,
            mode: CrashMode::Clean,
        });
        let trace = execute_iis(&case);
        assert_eq!(trace.crashed_at, vec![None, Some(0), Some(1)]);
        // the victim of the inside crash wrote round 0 but got no view
        assert!(trace.rounds[0].inputs[1].is_some());
        assert!(trace.rounds[0].views[1].is_none());
        // the clean victim never wrote round 1
        assert!(trace.rounds[1].inputs[2].is_none());
        assert!(check_iis_trace(&trace).is_empty());
    }

    #[test]
    fn dropped_self_inclusion_is_caught() {
        let case = lockstep_case(3, 2);
        let mutate = |t: &mut IisTrace| {
            if let Some(view) = &mut t.rounds[0].views[0] {
                view.retain(|(q, _)| *q != 0);
            }
        };
        let failures = run_iis_case(&case, None, Some(&mutate));
        assert!(
            failures.iter().any(|f| f.kind() == "is_axiom"),
            "{failures:?}"
        );
    }

    #[test]
    fn candidates_shrink_rounds_and_crashes() {
        let mut case = lockstep_case(2, 2);
        case.plan.events.push(CrashEvent {
            at: 1,
            pid: 0,
            mode: CrashMode::Clean,
        });
        let cands = iis_candidates(&case);
        // 2 round-drops + 1 crash-drop
        assert_eq!(cands.len(), 3);
        assert_eq!(cands[0].schedule.rounds().len(), 1);
        assert!(cands[2].plan.is_empty());
        // every candidate still executes (repair keeps them well-formed)
        for c in &cands {
            let _ = run_iis_case(c, None, None);
        }
    }
}
