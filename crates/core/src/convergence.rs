//! Simplex convergence — §5 of the paper, Theorem 5.1 and the CSASS/NCSASS
//! tasks, made executable.
//!
//! Theorem 5.1: for every chromatic subdivision `A` of `sⁿ` and all large
//! enough `k` there is a color- and carrier-preserving simplicial map
//! `SDS^k(sⁿ) → A`. The paper proves it by exhibiting a wait-free algorithm
//! for chromatic simplex agreement (CSASS); conversely any wait-free
//! algorithm *is* such a map (Proposition 3.1). We exploit that equivalence
//! in both directions:
//!
//! - [`theorem_5_1_witness`] *finds* the map for a concrete `A` by running
//!   the complete decision-map search on the CSASS task — the effective
//!   form of the theorem (and of the "large implicit table" the paper's
//!   algorithm consults);
//! - [`DecisionProtocol`](crate::solvability::DecisionProtocol) turns the
//!   witness into an actual IIS protocol: process `p` starts at corner
//!   `VertexId(p)`, runs `k` full-information rounds, then decides through
//!   the map — solving CSASS under every schedule;
//! - [`EdgeConvergence`] and [`PathConvergence`] implement the *direct*
//!   distributed convergence algorithms for the one-dimensional base case
//!   (two processes bisecting toward each other along a path — the
//!   "predefined path that lives in the face carrying the two cores" of
//!   §5), with no precomputed map at all.

use crate::solvability::{solve_at, DecisionMap};
use iis_sched::{IisMachine, MachineStep};
use iis_tasks::library::chromatic_simplex_agreement;
use iis_topology::{Color, Complex, Simplex, Subdivision, VertexId};
use std::collections::VecDeque;
use std::sync::Arc;

/// Finds the Theorem 5.1 witness for a chromatic subdivision `A` of a
/// simplex: the smallest `k ≤ max_rounds` with a color-preserving
/// simplicial map `SDS^k(sⁿ) → A` sending every simplex into its carrier,
/// packaged as a CSASS decision map.
///
/// Returns `None` only if `max_rounds` was too small (the theorem
/// guarantees existence for large enough `k`).
pub fn theorem_5_1_witness(target: &Subdivision, max_rounds: usize) -> Option<DecisionMap> {
    let task = chromatic_simplex_agreement(target);
    (0..=max_rounds).find_map(|b| solve_at(&task, b))
}

/// Validates a CSASS outcome (§5's task statement): decided outputs must
/// have each process's own color, form a simplex of `A`, and be carried
/// within the participating corners.
///
/// `outputs[p]` is `None` for processes that crashed undecided;
/// `participated[p]` says whether `p` took at least one step.
///
/// # Errors
///
/// Returns a description of the violated clause.
pub fn validate_csass_outcome(
    target: &Subdivision,
    outputs: &[Option<VertexId>],
    participated: &[bool],
) -> Result<(), String> {
    let c = target.complex();
    let mut decided = Vec::new();
    for (p, out) in outputs.iter().enumerate() {
        if let Some(w) = out {
            if c.color(*w) != Color(p as u32) {
                return Err(format!("P{p} decided a vertex of color {}", c.color(*w)));
            }
            decided.push(*w);
        }
    }
    let w = Simplex::new(decided);
    if !c.contains_simplex(&w) {
        return Err(format!("decided set {w} is not a simplex of A"));
    }
    let carrier = target.carrier_of_simplex(&w);
    let allowed = Simplex::new(
        target
            .base()
            .vertex_ids()
            .filter(|u| participated[target.base().color(*u).index()]),
    );
    if !carrier.is_face_of(&allowed) {
        return Err(format!(
            "carrier {carrier} exceeds participating corners {allowed}"
        ));
    }
    Ok(())
}

/// Positions on a path, in halves (fixed-point with denominator `2^r`).
type Fixed = i64;
const FIXED_ONE: Fixed = 1 << 20;

/// The direct two-process convergence algorithm on an alternately-colored
/// path of odd length `L` — chromatic simplex agreement over a subdivided
/// edge, with **no precomputed map**: each process starts at its corner,
/// repeatedly posts its position, and moves to the midpoint whenever it
/// sees the other. After `R > log₂(2L)` rounds the positions differ by less
/// than ½, and snapping to the nearest vertex of one's own color (even
/// positions for color 0, odd for color 1) lands on an edge.
///
/// This is the paper's base case: "if two processors show up there is a
/// predefined path … and each pair converges along it".
#[derive(Clone, Debug)]
pub struct EdgeConvergence {
    pid: usize,
    length: usize,
    pos: Fixed,
    rounds: usize,
}

impl EdgeConvergence {
    /// A machine for `pid ∈ {0, 1}` on a path of odd length `length`.
    /// Rounds are chosen automatically as `⌈log₂(2L)⌉ + 1`.
    ///
    /// # Panics
    ///
    /// Panics if `pid > 1` or `length` is even.
    pub fn new(pid: usize, length: usize) -> Self {
        assert!(pid <= 1, "edge convergence is a 2-process protocol");
        assert!(
            length % 2 == 1,
            "a chromatic subdivided edge has odd length"
        );
        let rounds = (usize::BITS - (2 * length).leading_zeros()) as usize + 1;
        EdgeConvergence {
            pid,
            length,
            pos: if pid == 0 {
                0
            } else {
                length as Fixed * FIXED_ONE
            },
            rounds,
        }
    }

    /// The number of IIS rounds the protocol runs.
    pub fn rounds(&self) -> usize {
        self.rounds
    }

    /// Snaps the final position to the nearest vertex of own parity/color.
    fn snap(&self) -> usize {
        let l = self.length as i64;
        // nearest integer of parity == pid
        let base = self.pos as f64 / FIXED_ONE as f64;
        let mut best = self.pid as i64;
        let mut best_d = f64::INFINITY;
        let mut k = self.pid as i64;
        while k <= l {
            let d = (base - k as f64).abs();
            if d < best_d {
                best_d = d;
                best = k;
            }
            k += 2;
        }
        best as usize
    }
}

impl IisMachine for EdgeConvergence {
    type Value = Fixed;
    type Output = usize;

    fn initial_value(&mut self) -> Fixed {
        self.pos
    }

    fn on_view(&mut self, round: usize, view: &[(usize, Fixed)]) -> MachineStep<Fixed, usize> {
        if let Some((_, other)) = view.iter().find(|(p, _)| *p != self.pid) {
            self.pos = (self.pos + other) / 2;
        }
        if round + 1 >= self.rounds {
            MachineStep::Decide(self.snap())
        } else {
            MachineStep::Continue(self.pos)
        }
    }
}

/// The paper's "large implicit table" for the two-process case of NCSAC
/// (§5): a precomputed path between *every* pair of vertices of a complex
/// with no holes, such that any two processes starting anywhere can
/// converge along "the predefined path that lives in the face … carrying
/// the two starting vertices".
///
/// Higher-arity entries of the table (fill-ins of the triangles the three
/// pairwise paths bound, etc.) exist by Lemma 2.2 and are realized in this
/// reproduction through [`theorem_5_1_witness`] maps; the table itself
/// covers the base case the recursion bottoms out in.
#[derive(Clone, Debug)]
pub struct ConvergenceTable {
    complex: Complex,
    paths: std::collections::HashMap<(VertexId, VertexId), Arc<Vec<VertexId>>>,
}

impl ConvergenceTable {
    /// Precomputes BFS paths between all vertex pairs of a connected
    /// complex.
    ///
    /// # Panics
    ///
    /// Panics if some pair of vertices is not connected by the 1-skeleton
    /// (the task assumes a complex with no hole of dimension 0).
    pub fn new(complex: Complex) -> Self {
        let ids: Vec<VertexId> = complex.vertex_ids().collect();
        let mut paths = std::collections::HashMap::new();
        for (i, &u) in ids.iter().enumerate() {
            for &v in &ids[i..] {
                let p = shortest_path(&complex, u, v)
                    .expect("convergence table requires a connected complex");
                paths.insert((u, v), Arc::new(p));
            }
        }
        ConvergenceTable { complex, paths }
    }

    /// The underlying complex.
    pub fn complex(&self) -> &Complex {
        &self.complex
    }

    /// The table entry for the (unordered) pair `{u, v}`, oriented from the
    /// smaller vertex id.
    pub fn path(&self, u: VertexId, v: VertexId) -> &Arc<Vec<VertexId>> {
        let key = if u <= v { (u, v) } else { (v, u) };
        &self.paths[&key]
    }

    /// Spawns the two convergence machines for processes starting at `u`
    /// (process 0) and `v` (process 1): both converge to a vertex or an
    /// edge on the table's `{u, v}` path.
    pub fn machines(&self, u: VertexId, v: VertexId) -> (PathConvergence, PathConvergence) {
        let oriented: Vec<VertexId> = if u <= v {
            self.path(u, v).to_vec()
        } else {
            let mut p = self.path(u, v).to_vec();
            p.reverse();
            p
        };
        PathConvergence::pair(oriented)
    }
}

/// Breadth-first shortest path between two vertices in the 1-skeleton of a
/// complex. Returns the vertex sequence `u … v`, or `None` if disconnected.
pub fn shortest_path(c: &Complex, u: VertexId, v: VertexId) -> Option<Vec<VertexId>> {
    if u == v {
        return Some(vec![u]);
    }
    let n = c.num_vertices();
    let mut adj: Vec<Vec<VertexId>> = vec![Vec::new(); n];
    for e in c.simplices_of_dim(1) {
        let vs: Vec<VertexId> = e.iter().collect();
        adj[vs[0].index()].push(vs[1]);
        adj[vs[1].index()].push(vs[0]);
    }
    let mut prev: Vec<Option<VertexId>> = vec![None; n];
    let mut seen = vec![false; n];
    seen[u.index()] = true;
    let mut q = VecDeque::from([u]);
    while let Some(x) = q.pop_front() {
        for &y in &adj[x.index()] {
            if !seen[y.index()] {
                seen[y.index()] = true;
                prev[y.index()] = Some(x);
                if y == v {
                    let mut path = vec![v];
                    let mut cur = v;
                    while let Some(p) = prev[cur.index()] {
                        path.push(p);
                        cur = p;
                    }
                    path.reverse();
                    return Some(path);
                }
                q.push_back(y);
            }
        }
    }
    None
}

/// Two-process *non-chromatic* simplex agreement over any connected complex
/// (the NCSAC base case): both processes converge along the precomputed
/// shortest path between their starting vertices — the `(u, v)` entry of
/// the paper's "large implicit table". Outputs are vertices at distance
/// ≤ 1 on the path (a vertex or an edge of the complex); a solo process
/// stays at its start.
#[derive(Clone, Debug)]
pub struct PathConvergence {
    pid: usize,
    path: Arc<Vec<VertexId>>,
    /// index into `path`, fixed-point
    pos: Fixed,
    rounds: usize,
}

impl PathConvergence {
    /// Machines for the two processes starting at the ends of `path`
    /// (process 0 at `path[0]`, process 1 at `path.last()`).
    ///
    /// # Panics
    ///
    /// Panics if the path is empty.
    pub fn pair(path: Vec<VertexId>) -> (Self, Self) {
        assert!(!path.is_empty());
        let rounds = (usize::BITS - (2 * path.len()).leading_zeros()) as usize + 1;
        let path = Arc::new(path);
        let last = (path.len() - 1) as Fixed * FIXED_ONE;
        (
            PathConvergence {
                pid: 0,
                path: Arc::clone(&path),
                pos: 0,
                rounds,
            },
            PathConvergence {
                pid: 1,
                path,
                pos: last,
                rounds,
            },
        )
    }

    /// The number of IIS rounds the protocol runs.
    pub fn rounds(&self) -> usize {
        self.rounds
    }
}

impl IisMachine for PathConvergence {
    type Value = Fixed;
    type Output = VertexId;

    fn initial_value(&mut self) -> Fixed {
        self.pos
    }

    fn on_view(&mut self, round: usize, view: &[(usize, Fixed)]) -> MachineStep<Fixed, VertexId> {
        if let Some((_, other)) = view.iter().find(|(p, _)| *p != self.pid) {
            self.pos = (self.pos + other) / 2;
        }
        if round + 1 >= self.rounds {
            let idx = ((self.pos + FIXED_ONE / 2) / FIXED_ONE) as usize;
            let idx = idx.min(self.path.len() - 1);
            MachineStep::Decide(self.path[idx])
        } else {
            MachineStep::Continue(self.pos)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solvability::{DecisionProtocol, WitnessIndex};
    use iis_sched::{all_iis_schedules, IisRunner, IisSchedule};
    use iis_topology::{sds, sds_iterated, Label};

    #[test]
    fn witness_for_sds_is_one_round() {
        let target = sds(&Complex::standard_simplex(1));
        let w = theorem_5_1_witness(&target, 2).unwrap();
        assert_eq!(w.rounds(), 1);
    }

    #[test]
    fn witness_for_sds2_is_two_rounds() {
        let target = sds_iterated(&Complex::standard_simplex(1), 2);
        let w = theorem_5_1_witness(&target, 3).unwrap();
        assert_eq!(w.rounds(), 2);
    }

    #[test]
    fn witness_for_triangle_sds() {
        let target = sds(&Complex::standard_simplex(2));
        let w = theorem_5_1_witness(&target, 1).unwrap();
        assert_eq!(w.rounds(), 1);
        // the witness is color-preserving & simplicial into A
        w.map()
            .verify_simplicial(
                sds_iterated(target.base(), w.rounds()).complex(),
                target.complex(),
            )
            .unwrap();
    }

    #[test]
    fn witness_for_non_standard_path_targets() {
        // a length-5 chromatic path is NOT an iterated SDS; mapping onto it
        // needs 3^b ≥ 5, i.e. b = 2 (Theorem 5.1 beyond standard targets)
        let target = iis_topology::path_subdivision(5);
        assert!(theorem_5_1_witness(&target, 1).is_none(), "3 < 5");
        let w = theorem_5_1_witness(&target, 2).expect("9 >= 5");
        assert_eq!(w.rounds(), 2);
        // length 7 also fits in b = 2; length 11 needs b = 3
        assert!(theorem_5_1_witness(&iis_topology::path_subdivision(7), 2).is_some());
        assert!(theorem_5_1_witness(&iis_topology::path_subdivision(11), 2).is_none());
    }

    #[test]
    fn agreement_machine_on_non_standard_target() {
        let target = iis_topology::path_subdivision(5);
        let w = Arc::new(WitnessIndex::new(
            theorem_5_1_witness(&target, 2).expect("witness"),
        ));
        for schedule in all_iis_schedules(&[0, 1], w.rounds()) {
            let machines = vec![
                DecisionProtocol::new(VertexId(0), Arc::clone(&w)),
                DecisionProtocol::new(VertexId(1), Arc::clone(&w)),
            ];
            let mut runner = IisRunner::new(machines);
            runner.run(schedule);
            let outputs: Vec<Option<VertexId>> = runner
                .outputs()
                .iter()
                .map(|o| o.as_ref().copied())
                .collect();
            validate_csass_outcome(&target, &outputs, &[true, true]).unwrap();
        }
    }

    #[test]
    fn agreement_machine_solves_csass_under_all_schedules() {
        let target = sds(&Complex::standard_simplex(1));
        let w = Arc::new(WitnessIndex::new(theorem_5_1_witness(&target, 2).unwrap()));
        for schedule in all_iis_schedules(&[0, 1], w.rounds()) {
            let machines = vec![
                DecisionProtocol::new(VertexId(0), Arc::clone(&w)),
                DecisionProtocol::new(VertexId(1), Arc::clone(&w)),
            ];
            let mut runner = IisRunner::new(machines);
            runner.run(schedule);
            let outputs: Vec<Option<VertexId>> = runner
                .outputs()
                .iter()
                .map(|o| o.as_ref().copied())
                .collect();
            validate_csass_outcome(&target, &outputs, &[true, true]).unwrap();
        }
    }

    #[test]
    fn agreement_machine_three_processes_random_schedules() {
        use iis_obs::Rng;
        let target = sds(&Complex::standard_simplex(2));
        let w = Arc::new(WitnessIndex::new(theorem_5_1_witness(&target, 1).unwrap()));
        let mut rng = Rng::seed_from_u64(11);
        for _case in 0..50 {
            let machines: Vec<_> = (0..3)
                .map(|p| DecisionProtocol::new(VertexId(p), Arc::clone(&w)))
                .collect();
            let mut runner = IisRunner::new(machines);
            runner.run(IisSchedule::random(3, w.rounds().max(1), &mut rng));
            let outputs: Vec<Option<VertexId>> = runner
                .outputs()
                .iter()
                .map(|o| o.as_ref().copied())
                .collect();
            validate_csass_outcome(&target, &outputs, &[true, true, true]).unwrap();
        }
    }

    #[test]
    fn agreement_machine_with_crash() {
        let target = sds(&Complex::standard_simplex(2));
        let w = Arc::new(WitnessIndex::new(theorem_5_1_witness(&target, 1).unwrap()));
        // P2 crashes before round 0: P0, P1 converge in the {0,1} face
        let machines: Vec<_> = (0..3)
            .map(|p| DecisionProtocol::new(VertexId(p), Arc::clone(&w)))
            .collect();
        let mut runner = IisRunner::new(machines);
        runner.crash(2);
        runner.run(IisSchedule::lockstep(3, 2));
        let outputs: Vec<Option<VertexId>> = runner
            .outputs()
            .iter()
            .map(|o| o.as_ref().copied())
            .collect();
        assert!(outputs[2].is_none());
        validate_csass_outcome(&target, &outputs, &[true, true, false]).unwrap();
    }

    fn path_colors_ok(length: usize, e: usize, o: usize) {
        assert!(e.is_multiple_of(2), "P0 must land on its own color");
        assert!(o % 2 == 1, "P1 must land on its own color");
        assert!(e <= length && o <= length);
        assert!(e.abs_diff(o) == 1, "outputs must span an edge");
    }

    #[test]
    fn edge_convergence_all_schedules_l3() {
        let rounds = EdgeConvergence::new(0, 3).rounds();
        for schedule in all_iis_schedules(&[0, 1], rounds) {
            let machines = vec![EdgeConvergence::new(0, 3), EdgeConvergence::new(1, 3)];
            let mut runner = IisRunner::new(machines);
            runner.run(schedule);
            let e = *runner.output(0).unwrap();
            let o = *runner.output(1).unwrap();
            path_colors_ok(3, e, o);
        }
    }

    #[test]
    fn edge_convergence_random_schedules_l9() {
        use iis_obs::Rng;
        let mut rng = Rng::seed_from_u64(5);
        let rounds = EdgeConvergence::new(0, 9).rounds();
        for _case in 0..200 {
            let machines = vec![EdgeConvergence::new(0, 9), EdgeConvergence::new(1, 9)];
            let mut runner = IisRunner::new(machines);
            runner.run(IisSchedule::random(2, rounds, &mut rng));
            path_colors_ok(9, *runner.output(0).unwrap(), *runner.output(1).unwrap());
        }
    }

    #[test]
    fn edge_convergence_solo_stays_at_corner() {
        let machines = vec![EdgeConvergence::new(0, 9), EdgeConvergence::new(1, 9)];
        let mut runner = IisRunner::new(machines);
        runner.crash(1);
        runner.run(IisSchedule::lockstep(2, 16));
        assert_eq!(runner.output(0), Some(&0));
    }

    #[test]
    fn edge_convergence_crash_mid_run() {
        let rounds = EdgeConvergence::new(0, 3).rounds();
        for crash_at in 0..rounds {
            let machines = vec![EdgeConvergence::new(0, 3), EdgeConvergence::new(1, 3)];
            let mut runner = IisRunner::new(machines);
            for r in 0..rounds {
                if r == crash_at {
                    runner.crash(1);
                }
                if runner.is_quiescent() {
                    break;
                }
                runner.step_round(&iis_sched::OrderedPartition::simultaneous(runner.active()));
            }
            let e = *runner.output(0).unwrap();
            assert!(e % 2 == 0 && e <= 3);
        }
    }

    #[test]
    fn shortest_path_on_sds_boundary() {
        let sub = sds(&Complex::standard_simplex(2));
        let c = sub.complex();
        let corners: Vec<VertexId> = c
            .vertex_ids()
            .filter(|&v| sub.carrier_of_vertex(v).len() == 1)
            .collect();
        assert_eq!(corners.len(), 3);
        let p = shortest_path(c, corners[0], corners[1]).unwrap();
        assert!(p.len() >= 2);
        assert_eq!(p[0], corners[0]);
        assert_eq!(*p.last().unwrap(), corners[1]);
        // consecutive entries are edges
        for w in p.windows(2) {
            assert!(c.contains_simplex(&Simplex::new([w[0], w[1]])));
        }
    }

    #[test]
    fn shortest_path_identity_and_disconnected() {
        let c = Complex::standard_simplex(1);
        let ids: Vec<VertexId> = c.vertex_ids().collect();
        assert_eq!(shortest_path(&c, ids[0], ids[0]), Some(vec![ids[0]]));
        let mut d = Complex::new();
        let a = d.ensure_vertex(Color(0), Label::scalar(0));
        let b = d.ensure_vertex(Color(1), Label::scalar(1));
        d.add_facet([a]);
        d.add_facet([b]);
        assert_eq!(shortest_path(&d, a, b), None);
    }

    #[test]
    fn convergence_table_covers_all_pairs() {
        use iis_obs::Rng;
        let sub = sds(&Complex::standard_simplex(2));
        let table = ConvergenceTable::new(sub.complex().clone());
        let ids: Vec<VertexId> = table.complex().vertex_ids().collect();
        let mut rng = Rng::seed_from_u64(17);
        for _case in 0..60 {
            let u = ids[rng.random_range(0..ids.len())];
            let v = ids[rng.random_range(0..ids.len())];
            let (m0, m1) = table.machines(u, v);
            let rounds = m0.rounds();
            let mut runner = IisRunner::new(vec![m0, m1]);
            runner.run(IisSchedule::random(2, rounds, &mut rng));
            let a = *runner.output(0).unwrap();
            let b = *runner.output(1).unwrap();
            assert!(
                table.complex().contains_simplex(&Simplex::new([a, b])),
                "NCSAC: outputs {a} {b} must form a simplex"
            );
        }
        // path endpoints match starting vertices, oriented either way
        let (u, v) = (ids[0], ids[5]);
        let p = table.path(u, v);
        assert_eq!(p[0].min(*p.last().unwrap()), u.min(v));
    }

    #[test]
    fn convergence_table_solo_stays_put() {
        let sub = sds(&Complex::standard_simplex(1));
        let table = ConvergenceTable::new(sub.complex().clone());
        let ids: Vec<VertexId> = table.complex().vertex_ids().collect();
        let (m0, _m1) = table.machines(ids[1], ids[2]);
        let rounds = m0.rounds();
        let mut runner = IisRunner::new(vec![m0]);
        runner.run(IisSchedule::lockstep(1, rounds));
        assert_eq!(runner.output(0), Some(&ids[1]));
    }

    #[test]
    fn path_convergence_outputs_form_simplex() {
        let sub = sds_iterated(&Complex::standard_simplex(2), 1);
        let c = sub.complex();
        let corners: Vec<VertexId> = c
            .vertex_ids()
            .filter(|&v| sub.carrier_of_vertex(v).len() == 1)
            .collect();
        let path = shortest_path(c, corners[0], corners[1]).unwrap();
        let rounds = PathConvergence::pair(path.clone()).0.rounds();
        for schedule in all_iis_schedules(&[0, 1], rounds) {
            let (m0, m1) = PathConvergence::pair(path.clone());
            let mut runner = IisRunner::new(vec![m0, m1]);
            runner.run(schedule);
            let a = *runner.output(0).unwrap();
            let b = *runner.output(1).unwrap();
            assert!(
                c.contains_simplex(&Simplex::new([a, b])),
                "outputs must form a simplex"
            );
        }
    }
}
