//! Bounded wait-free solvability (Lemma 3.1).
//!
//! Lemma 3.1: a wait-free solvable task with finitely many inputs is
//! *bounded* wait-free solvable — there is a bound `b` such that every
//! process decides within `b` of its own steps. The proof is König's lemma
//! on the tree of executions in which decided processes take no further
//! steps: the tree is finitely branching, and an infinite path would be a
//! non-deciding execution.
//!
//! In the IIS model the bound is explicit: a decision map on `SDS^b(I)`
//! decides everyone in exactly `b` rounds. This module computes the
//! *minimal* such `b` and exhibits the König bound concretely by measuring,
//! over every execution, the deepest point at which some process decides.

use crate::solvability::{solve_at, DecisionMap};
use iis_tasks::Task;
use iis_topology::arena::ArenaSds;
use iis_topology::VertexId;

/// The minimal number of IIS rounds at which a decision map exists, searched
/// up to `max_rounds`. This is the Lemma 3.1 bound for the IIS model,
/// computed exactly.
pub fn minimal_rounds(task: &Task, max_rounds: usize) -> Option<(usize, DecisionMap)> {
    (0..=max_rounds).find_map(|b| solve_at(task, b).map(|m| (b, m)))
}

/// Measures the earliest round at which each process's decision is already
/// *committed* under the given decision map: the smallest depth `d` such
/// that every full `b`-round local state extending the process's `d`-round
/// state maps to the same output. Returns the maximum over all states — the
/// effective König bound of Lemma 3.1, which can be smaller than `b`.
///
/// The `d`-round state of a `b`-round vertex is its image under `b − d`
/// forget maps ([`ArenaSds::forget`]): the process's own vertex in its
/// view, one round at a time.
pub fn effective_bound(decision: &DecisionMap) -> usize {
    let b = decision.rounds();
    let top = decision.tower();
    // the levels below the witness's, for their forget maps and sizes
    let mut levels: Vec<ArenaSds> = Vec::with_capacity(b);
    for d in 0..b {
        let level = match d {
            0 => top.level_zero(),
            _ => levels[d - 1].next(),
        };
        levels.push(level);
    }
    let decisions: Vec<VertexId> = (0..top.complex().num_vertices() as u32)
        .map(|v| {
            decision
                .map()
                .image(VertexId(v))
                .expect("decision map is total")
        })
        .collect();
    // each b-round vertex's state at depth d, walked down from d = b
    let mut state: Vec<u32> = (0..decisions.len() as u32).collect();
    for d in (0..b).rev() {
        let finer = levels.get(d + 1).unwrap_or(top);
        // a depth-d state commits iff every b-round state extending it
        // decides the same output vertex
        let mut committed: Vec<Option<VertexId>> = vec![None; levels[d].complex().num_vertices()];
        for (s, &w) in state.iter_mut().zip(&decisions) {
            *s = finer.forget(*s);
            if *committed[*s as usize].get_or_insert(w) != w {
                return d + 1;
            }
        }
    }
    0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solvability::lift_decision_map;
    use iis_tasks::library::{approximate_agreement, one_shot_immediate_snapshot_task, trivial};
    use iis_topology::{sds_iterated, Color, Label};
    use std::collections::HashMap;

    /// The label-peeling oracle: the `d`-round prefix of a `b`-round view
    /// label is the process's own entry peeled out `b − d` times, on the
    /// reference tower (whose ids are the witness's).
    fn effective_bound_by_labels(task: &Task, decision: &DecisionMap) -> usize {
        let b = decision.rounds();
        let sub = sds_iterated(task.input(), b);
        let c = sub.complex();
        let peel = |color: Color, label: &Label, times: usize| {
            let mut cur = label.clone();
            for _ in 0..times {
                let entries = cur.as_view().expect("full-information labels are views");
                cur = entries.into_iter().find(|(cc, _)| *cc == color).unwrap().1;
            }
            cur
        };
        for d in (0..b).rev() {
            let mut groups: HashMap<(Color, Label), Vec<VertexId>> = HashMap::new();
            for v in c.vertex_ids() {
                let prefix = peel(c.color(v), c.label(v), b - d);
                groups.entry((c.color(v), prefix)).or_default().push(v);
            }
            let committed = groups.values().all(|vs| {
                let image = |v: &VertexId| decision.map().image(*v);
                vs.iter().all(|v| image(v) == image(&vs[0]))
            });
            if !committed {
                return d + 1;
            }
        }
        0
    }

    #[test]
    fn minimal_rounds_trivial_is_zero() {
        let t = trivial(1);
        let (b, m) = minimal_rounds(&t, 2).unwrap();
        assert_eq!(b, 0);
        assert_eq!(m.rounds(), 0);
        assert_eq!(effective_bound(&m), 0);
    }

    #[test]
    fn minimal_rounds_one_shot_is_one() {
        let t = one_shot_immediate_snapshot_task(1);
        let (b, m) = minimal_rounds(&t, 2).unwrap();
        assert_eq!(b, 1);
        assert_eq!(effective_bound(&m), 1);
    }

    #[test]
    fn minimal_rounds_grid9_is_two() {
        let t = approximate_agreement(1, 9);
        let (b, m) = minimal_rounds(&t, 3).unwrap();
        assert_eq!(b, 2);
        assert_eq!(effective_bound(&m), effective_bound_by_labels(&t, &m));
        assert_eq!(effective_bound(&m), 2);
    }

    /// Lifting only adds oblivious rounds, so the committed depth cannot
    /// move — and the forget-chain walk agrees with label peeling on every
    /// lifted map.
    #[test]
    fn lifting_keeps_the_effective_bound() {
        for t in [
            one_shot_immediate_snapshot_task(1),
            approximate_agreement(1, 3),
        ] {
            let (_, w) = minimal_rounds(&t, 2).unwrap();
            let twice = lift_decision_map(&t, &lift_decision_map(&t, &w));
            assert_eq!(twice.rounds(), w.rounds() + 2);
            assert_eq!(effective_bound(&twice), effective_bound(&w), "{}", t.name());
            assert_eq!(
                effective_bound(&twice),
                effective_bound_by_labels(&t, &twice)
            );
        }
    }

    #[test]
    fn minimal_rounds_none_for_unsolvable() {
        let t = iis_tasks::library::consensus(1, &[0, 1]);
        assert!(minimal_rounds(&t, 2).is_none());
    }
}
