//! The reference engine for the Proposition 3.1 search: a sequential test
//! oracle, never a solve path.
//!
//! Every solve path ([`crate::solvability`], the cache, `iis solve`,
//! `iis serve`, the gateway) searches on the compiled kernel
//! ([`crate::csp`]). This module answers the same fixed-`b` question a
//! second way, sharing no tower or search code with the kernel: it grows
//! the *labelled* tower `SDS^b(I)` by the ordered-partition walk
//! ([`sds_reference_iterated`], no arena and no template), compiles one
//! constraint per simplex with `Vec<VertexId>` domains, clones the domains
//! at every node, and finds a support by scanning a whole table. Only the `Δ` tables (the
//! restrictions of `Δ(carrier)` to a simplex's colors) are shared.
//!
//! Two searches, both sequential, with a node budget and nothing else —
//! no splitter, no timeout, no profiling:
//!
//! - [`solve_mac`] — backtracking with maintained arc consistency. The
//!   kernel reproduces its variable order, value order, propagation queue
//!   discipline and charging points, so the differential suites in
//!   `crates/core/tests/` hold the kernel to this search witness for
//!   witness (at every thread count) and node for node (sequentially).
//! - [`solve_plain`] — chronological backtracking with constraint checks
//!   only: a verdict oracle that shares no propagation logic with either
//!   MAC search.
//!
//! Both count into the kernel's per-search tally, published to
//! `solve.nodes`, `solve.backtracks`, `solve.prunes` and
//! `solve.propagations`, one node per search-tree node, so the E6 bench
//! rates them like the kernel.
//!
//! # Examples
//!
//! Both searches are complete, so they agree on every verdict:
//!
//! ```
//! use iis_core::reference::{solve_mac, solve_plain};
//! use iis_tasks::library::{approximate_agreement, consensus};
//!
//! // FLP, twice
//! let flp = consensus(1, &[0, 1]);
//! assert!(matches!(solve_mac(&flp, 1, u64::MAX), Ok(None)));
//! assert!(matches!(solve_plain(&flp, 1, u64::MAX), Ok(None)));
//! // one round trisects the edge
//! let eps = approximate_agreement(1, 3);
//! assert!(solve_mac(&eps, 1, u64::MAX).unwrap().is_some());
//! assert!(solve_plain(&eps, 1, u64::MAX).unwrap().is_some());
//! ```

use crate::csp::{CompiledTable, PlainTables, Tally};
use crate::solvability::validate_decision_map;
use iis_tasks::Task;
use iis_topology::{sds_reference_iterated, Color, SimplicialMap, Subdivision, VertexId};
use std::sync::Arc;

/// The node budget ran out before the search decided.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Exhausted;

/// Searches `SDS^b(I)` for a decision map with maintained arc consistency:
/// `Ok(Some(δ))` if one exists (the same `δ` the kernel finds), `Ok(None)`
/// if provably none does, `Err(Exhausted)` once `max_nodes` search nodes
/// are spent.
///
/// # Errors
///
/// [`Exhausted`] when the budget runs out before a verdict.
pub fn solve_mac(
    task: &Task,
    b: usize,
    max_nodes: u64,
) -> Result<Option<SimplicialMap>, Exhausted> {
    solve(task, b, max_nodes, true)
}

/// Searches `SDS^b(I)` for a decision map by chronological backtracking
/// without propagation. Verdicts match [`solve_mac`]'s; the witness may
/// differ, since the variable order does.
///
/// # Errors
///
/// [`Exhausted`] when the budget runs out before a verdict.
pub fn solve_plain(
    task: &Task,
    b: usize,
    max_nodes: u64,
) -> Result<Option<SimplicialMap>, Exhausted> {
    solve(task, b, max_nodes, false)
}

fn solve(
    task: &Task,
    b: usize,
    max_nodes: u64,
    mac: bool,
) -> Result<Option<SimplicialMap>, Exhausted> {
    let sub = sds_reference_iterated(task.input(), b);
    let Some((mut csp, mut domains)) =
        compile_csp(task, &sub, &mut PlainTables::new(task), max_nodes)
    else {
        return Ok(None);
    };
    let found = if mac {
        if !csp.propagate(&mut domains, None) {
            return Ok(None);
        }
        csp.backtrack(domains)?
    } else {
        csp.backtrack_plain(&domains)?
    };
    let map = found.map(|a| {
        SimplicialMap::from_pairs(
            a.into_iter()
                .enumerate()
                .map(|(i, w)| (VertexId(i as u32), w)),
        )
    });
    debug_assert!(map
        .as_ref()
        .is_none_or(|m| validate_decision_map(task, &sub, m).is_ok()));
    Ok(map)
}

/// One constraint: a simplex of the subdivision, compiled to its vertex
/// list and the shared [`CompiledTable`] whose `allowed` chunks are the
/// legal image tuples (the restrictions of `Δ(carrier)` to the simplex's
/// colors, aligned positionally with the vertex list).
struct Constraint {
    verts: Vec<VertexId>,
    table: Arc<CompiledTable>,
}

/// The CSP: variables = subdivision vertices, constraints = simplex
/// carriers with precompiled allowed tuples.
struct Csp {
    constraints: Vec<Constraint>,
    /// For each vertex, the indices of constraints containing it.
    containing: Vec<Vec<usize>>,
    /// Search nodes the budget still allows.
    left: u64,
    tally: Tally,
}

/// Compiles the CSP for `sub`: per-simplex constraints with allowed-tuple
/// tables (via `cache`) and initial domains from the unary constraints.
/// `None` means a constraint admits no tuple — provably unsolvable.
fn compile_csp(
    task: &Task,
    sub: &Subdivision,
    cache: &mut PlainTables,
    max_nodes: u64,
) -> Option<(Csp, Vec<Vec<VertexId>>)> {
    let c = sub.complex();
    let nv = c.num_vertices();
    // Compile constraints: for every simplex, the allowed image tuples.
    // A color-preserving image of a simplex with distinct colors is a
    // same-size tuple, and it extends to Δ(carrier) iff it equals the
    // restriction of some allowed output tuple to the simplex's colors.
    let mut constraints: Vec<Constraint> = Vec::new();
    let mut empty_table = false;
    c.for_each_simplex(|s| {
        if empty_table {
            return;
        }
        let verts: Vec<VertexId> = s.iter().collect();
        let colors: Vec<Color> = verts.iter().map(|&v| c.color(v)).collect();
        let carrier: Vec<u32> = sub.carrier_of_simplex(s).iter().map(|u| u.0).collect();
        let table = cache.table(task, &carrier, &colors);
        if table.is_empty() {
            empty_table = true;
            return;
        }
        constraints.push(Constraint { verts, table });
    });
    if empty_table {
        return None;
    }
    let mut containing: Vec<Vec<usize>> = vec![Vec::new(); nv];
    for (i, con) in constraints.iter().enumerate() {
        for &v in &con.verts {
            containing[v.index()].push(i);
        }
    }
    // initial domains from the unary (vertex) constraints
    let mut domains: Vec<Vec<VertexId>> = vec![Vec::new(); nv];
    for con in &constraints {
        if con.verts.len() == 1 {
            let v = con.verts[0];
            let mut dom: Vec<VertexId> = con.table.tuples().map(|t| t[0]).collect();
            dom.sort();
            dom.dedup();
            domains[v.index()] = dom;
        }
    }
    if domains.iter().any(Vec::is_empty) {
        return None;
    }
    let csp = Csp {
        constraints,
        containing,
        left: max_nodes,
        tally: Tally::default(),
    };
    Some((csp, domains))
}

impl Csp {
    /// Charges one node: the tally counts it iff the budget allows it.
    fn charge(&mut self) -> Result<(), Exhausted> {
        self.left = self.left.checked_sub(1).ok_or(Exhausted)?;
        self.tally.node();
        Ok(())
    }

    /// `true` iff some allowed tuple of constraint `ci` has `w` at `pos`
    /// and every other position inside its vertex's current domain.
    fn supported(&self, ci: usize, pos: usize, w: VertexId, domains: &[Vec<VertexId>]) -> bool {
        let con = &self.constraints[ci];
        con.table.tuples().any(|tuple| {
            tuple[pos] == w
                && tuple
                    .iter()
                    .enumerate()
                    .all(|(j, &x)| j == pos || domains[con.verts[j].index()].contains(&x))
        })
    }

    /// Generalized arc consistency to a fixpoint. Returns `false` on a
    /// domain wipeout. `seed` restricts the initial queue to the
    /// constraints containing one vertex (after an assignment).
    fn propagate(&mut self, domains: &mut [Vec<VertexId>], seed: Option<VertexId>) -> bool {
        let mut queue: Vec<usize> = match seed {
            Some(v) => self.containing[v.index()].clone(),
            None => (0..self.constraints.len()).collect(),
        };
        let mut in_queue = vec![false; self.constraints.len()];
        for &i in &queue {
            in_queue[i] = true;
        }
        while let Some(ci) = queue.pop() {
            in_queue[ci] = false;
            self.tally.propagations += 1;
            for (pos, &v) in self.constraints[ci].verts.iter().enumerate() {
                let before = domains[v.index()].len();
                let kept: Vec<VertexId> = domains[v.index()]
                    .iter()
                    .copied()
                    .filter(|&w| self.supported(ci, pos, w, domains))
                    .collect();
                if kept.is_empty() {
                    self.tally.prunes += before as u64;
                    return false;
                }
                if kept.len() < before {
                    self.tally.prunes += (before - kept.len()) as u64;
                    domains[v.index()] = kept;
                    for &cj in &self.containing[v.index()] {
                        if !in_queue[cj] {
                            in_queue[cj] = true;
                            queue.push(cj);
                        }
                    }
                }
            }
        }
        true
    }

    /// Complete backtracking with propagation (MAC): branch on the lowest
    /// index among the smallest domains > 1, values ascending. Returns a
    /// full assignment, `Ok(None)` if none exists, or `Err` when the node
    /// budget runs out.
    fn backtrack(
        &mut self,
        domains: Vec<Vec<VertexId>>,
    ) -> Result<Option<Vec<VertexId>>, Exhausted> {
        self.charge()?;
        let pick = domains
            .iter()
            .enumerate()
            .filter(|(_, d)| d.len() > 1)
            .min_by_key(|(_, d)| d.len());
        let Some((vi, _)) = pick else {
            // all singleton: done
            return Ok(Some(domains.into_iter().map(|d| d[0]).collect()));
        };
        let candidates = domains[vi].clone();
        for w in candidates {
            let mut next = domains.clone();
            next[vi] = vec![w];
            if self.propagate(&mut next, Some(VertexId(vi as u32))) {
                if let Some(sol) = self.backtrack(next)? {
                    return Ok(Some(sol));
                }
            }
        }
        self.tally.backtracks += 1;
        Ok(None)
    }

    /// Chronological backtracking without propagation. Checks each
    /// constraint as soon as all of its variables are assigned.
    fn backtrack_plain(
        &mut self,
        domains: &[Vec<VertexId>],
    ) -> Result<Option<Vec<VertexId>>, Exhausted> {
        let n = domains.len();
        // constraints indexed by their highest variable
        let mut closing: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (ci, con) in self.constraints.iter().enumerate() {
            let hi = con
                .verts
                .iter()
                .map(|v| v.index())
                .max()
                .expect("non-empty");
            closing[hi].push(ci);
        }
        let mut assignment: Vec<VertexId> = vec![VertexId(0); n];
        fn rec(
            csp: &mut Csp,
            domains: &[Vec<VertexId>],
            closing: &[Vec<usize>],
            assignment: &mut Vec<VertexId>,
            k: usize,
        ) -> Result<bool, Exhausted> {
            csp.charge()?;
            if k == domains.len() {
                return Ok(true);
            }
            'cand: for &w in &domains[k] {
                assignment[k] = w;
                for &ci in &closing[k] {
                    let con = &csp.constraints[ci];
                    let tuple: Vec<VertexId> =
                        con.verts.iter().map(|v| assignment[v.index()]).collect();
                    if !con.table.tuples().any(|t| t == &tuple[..]) {
                        continue 'cand;
                    }
                }
                if rec(csp, domains, closing, assignment, k + 1)? {
                    return Ok(true);
                }
            }
            csp.tally.backtracks += 1;
            Ok(false)
        }
        match rec(self, domains, &closing, &mut assignment, 0)? {
            true => Ok(Some(assignment)),
            false => Ok(None),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::KeyedTask;
    use crate::csp::Skeleton;
    use iis_tasks::library::{
        approximate_agreement, consensus, k_set_consensus, one_shot_immediate_snapshot_task,
        renaming, trivial,
    };

    /// The compiled kernel compiles from the arena tower, the reference
    /// engine from the labelled `Subdivision`: per round, the constraints
    /// must be the same vertex lists in the same order with the same
    /// allowed tuples — the kernel's sorted as packed keys from each
    /// carrier's `Δ` rows, the reference's as chunks per simplex.
    #[test]
    fn arena_compile_matches_reference_compile() {
        let cases = [
            (trivial(2), 1usize),
            (consensus(2, &[0, 1]), 1),
            (k_set_consensus(2, 2), 2),
            (renaming(1, 3), 2),
            (approximate_agreement(1, 9), 2),
            (approximate_agreement(2, 2), 1),
            (one_shot_immediate_snapshot_task(2), 1),
        ];
        for (task, max_b) in cases {
            let q = KeyedTask::new(task.clone());
            let mut reference_cache = PlainTables::new(&task);
            for b in 0..=max_b {
                let skel = Skeleton::new(iis_topology::arena::arena_sds_tower(task.input(), b));
                let sub = sds_reference_iterated(task.input(), b);
                let level = skel.resolve(&q, None).unwrap();
                let compiled = crate::csp::compile(&skel, &level);
                let reference = compile_csp(&task, &sub, &mut reference_cache, u64::MAX);
                let (Some((k, _)), Some((r, _))) = (compiled, reference) else {
                    panic!("{} b={b}: only one side compiled", task.name());
                };
                assert_eq!(
                    k.num_constraints(),
                    r.constraints.len(),
                    "{} b={b}",
                    task.name()
                );
                for (ci, con) in r.constraints.iter().enumerate() {
                    let verts: Vec<u32> = con.verts.iter().map(|v| v.0).collect();
                    assert_eq!(
                        k.verts(ci),
                        &verts[..],
                        "{} b={b} constraint {ci}",
                        task.name()
                    );
                    assert_eq!(level.classes()[skel.class(ci)].allowed, con.table.allowed);
                }
            }
        }
    }

    /// A budget too small to decide is reported as such by both searches,
    /// never as a verdict.
    #[test]
    fn a_small_budget_exhausts_both_searches() {
        let task = k_set_consensus(2, 2);
        assert!(matches!(solve_mac(&task, 1, 5), Err(Exhausted)));
        assert!(matches!(solve_plain(&task, 1, 5), Err(Exhausted)));
        assert!(matches!(solve_mac(&task, 1, u64::MAX), Ok(None)));
    }
}
