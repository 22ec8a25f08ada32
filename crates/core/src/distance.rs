//! Distance refutations: the rounds a task cannot pass because two of its
//! corners are too far apart in `Δ`.
//!
//! A decision map `δ : SDS^b(I) → O` is chromatic, so it sends each edge of
//! `SDS^b(I)` to an edge of `O`, and a path of length `L` to a walk of
//! length `L`. Proposition 3.1 puts each step of that walk in `Δ(ρ)`, where
//! `ρ` is the carrier of the edge it comes from, and Lemma 3.3 makes
//! `SDS^b(τ)` the part of `SDS^b(I)` carried by an input face `τ`. Two
//! corner-to-corner paths then bound every round (DESIGN.md §18):
//!
//! - **Edge test (exact).** For an input edge `σ = {u, v}`, `SDS^b(σ)` is a
//!   path of exactly `3^b` edges, each carried by `σ`. So `δ` needs a walk
//!   of exactly `3^b` steps along edges of `Δ(σ)` from a vertex of `Δ(u)`
//!   to one of `Δ(v)`. The walk alternates the two colors, so its length
//!   is odd, and a walk of odd length `d` extends to every odd length past
//!   `d` by stepping back and forth: round `b` passes iff `3^b ≥ d`, where
//!   `d` is the breadth-first distance from `Δ(u)` to `Δ(v)`.
//! - **Triangle test.** For an input triangle `τ` and `u, v ∈ τ`, the
//!   corners of `SDS^b(τ)` at `u` and `v` are at most `2^b` apart: in
//!   `SDS(τ)` the solo vertices of `u` and `v` are both adjacent to the
//!   third process's vertex that sees all of `τ`, and every edge lies in a
//!   triangle, so a path at most doubles per level. Its steps lie in
//!   `H_τ`, the union of the 1-skeleta of `Δ(ρ)` over the faces `ρ ⊆ τ`
//!   (`Δ` need not be monotone). Round `b` is refuted if the distance from
//!   `Δ(u)` to `Δ(v)` in `H_τ` is more than `2^b`.
//!
//! An empty `Δ(u)`, or no path at all, refutes every round. Each test is
//! one breadth-first search over `Δ`, and only its comparison with `3^b`
//! or `2^b` depends on `b`, so one pass per task ([`Distances::of`], kept
//! by [`crate::cache::KeyedTask::distances`]) gives the smallest round
//! that can pass. The round sweep ([`crate::solvability::Solver`]) answers
//! every round below it `Unsolvable` without building a tower; the
//! single-round searches stay pure search, the oracle this pass is tested
//! against.

use iis_tasks::Task;
use iis_topology::{Complex, Simplex, VertexId};
use std::ops::Range;

/// Which corner-to-corner path a [`Refutation`] measures.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Walk {
    /// An input edge `σ`: a walk of exactly `3^b` steps inside `Δ(σ)`.
    Edge,
    /// An input triangle `τ`: a walk of at most `2^b` steps inside `H_τ`.
    Triangle,
}

/// One input face whose corners `u`, `v` are too far apart in `Δ` for the
/// rounds below [`Refutation::first_passing`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Refutation {
    face: Simplex,
    ends: (VertexId, VertexId),
    /// The breadth-first distance from `Δ(u)` to `Δ(v)`; `None` when no
    /// walk joins them (an empty `Δ(u)` or `Δ(v)` included).
    distance: Option<u64>,
    walk: Walk,
}

impl Refutation {
    /// The length of the corner-to-corner path at round `b`: exactly `3^b`
    /// on an edge, at most `2^b` on a triangle (saturating).
    fn path_length(&self, b: usize) -> u64 {
        let base: u64 = match self.walk {
            Walk::Edge => 3,
            Walk::Triangle => 2,
        };
        base.saturating_pow(u32::try_from(b).unwrap_or(u32::MAX))
    }

    /// Whether round `b` is refuted: no walk of the path's length joins
    /// `Δ(u)` to `Δ(v)`.
    pub fn refutes(&self, b: usize) -> bool {
        self.distance.is_none_or(|d| self.path_length(b) < d)
    }

    /// The first round this face does not refute; `None` when it refutes
    /// every round.
    pub fn first_passing(&self) -> Option<usize> {
        self.distance?;
        (0..).find(|&b| !self.refutes(b))
    }

    /// The line `iis solve` names the refutation with, in the task's
    /// terms: the rounds refuted, the face, the two vertices (`P1=0`:
    /// process 1 with input 0), their distance, and the path length it
    /// exceeds.
    pub fn describe(&self, task: &Task) -> String {
        let input = task.input();
        let vertex = |v: VertexId| format!("{}={}", input.color(v), input.label(v));
        let face = self.face.iter().map(vertex).collect::<Vec<_>>().join(", ");
        let (u, v) = (vertex(self.ends.0), vertex(self.ends.1));
        let (name, graph, base) = match self.walk {
            Walk::Edge => ("σ", "Δ(σ)", 3),
            Walk::Triangle => ("τ", "H_τ", 2),
        };
        let empty = [self.ends.0, self.ends.1]
            .into_iter()
            .find(|&w| task.delta(&Simplex::new([w])).is_empty());
        match (self.first_passing(), self.distance) {
            (Some(first), Some(d)) if first > 0 => {
                let last = first - 1;
                let rounds = match last {
                    0 => "b = 0".to_string(),
                    _ => format!("b ≤ {last}"),
                };
                format!(
                    "Distance refutation (no decision map at {rounds}): {name} = {{{face}}}, Δ({u}) and Δ({v}) are \
                     {d} apart in {graph}, more than {base}^b = {}",
                    self.path_length(last)
                )
            }
            _ => match empty {
                Some(w) => format!(
                    "Distance refutation (no decision map at any b): {name} = {{{face}}}, Δ({}) \
                     is empty",
                    vertex(w)
                ),
                None => format!(
                    "Distance refutation (no decision map at any b): {name} = {{{face}}}, Δ({u}) \
                     and Δ({v}) are not joined in {graph}"
                ),
            },
        }
    }
}

/// A task's distance pass: the face that refutes the most rounds, if any
/// face refutes round 0.
#[derive(Clone, Debug, Default)]
pub struct Distances {
    worst: Option<Refutation>,
}

impl Distances {
    /// Runs both tests over every input edge and triangle of `task`.
    ///
    /// # Examples
    ///
    /// ```
    /// use iis_core::distance::Distances;
    /// use iis_tasks::library::{approximate_agreement, consensus};
    ///
    /// // ε-agreement among two on a grid of 9 needs 3^b ≥ 9
    /// let d = Distances::of(&approximate_agreement(1, 9));
    /// assert_eq!(d.first_round(), Some(2));
    /// assert!(d.refuting(1).is_some() && d.refuting(2).is_none());
    /// // consensus never joins its two decisions
    /// assert_eq!(Distances::of(&consensus(2, &[0, 1])).first_round(), None);
    /// ```
    pub fn of(task: &Task) -> Distances {
        let mut pass = Pass::new(task);
        let (edges, triangles) = faces(task.input());
        for sigma in &edges {
            pass.edge(sigma);
        }
        for tau in &triangles {
            pass.triangle(tau);
        }
        Distances { worst: pass.worst }
    }

    /// The smallest round both tests pass on every face; `None` when some
    /// face refutes every round.
    pub fn first_round(&self) -> Option<usize> {
        self.worst
            .as_ref()
            .map_or(Some(0), Refutation::first_passing)
    }

    /// The face that refutes round `b`, if any does.
    pub fn refuting(&self, b: usize) -> Option<&Refutation> {
        self.worst.as_ref().filter(|r| r.refutes(b))
    }

    /// The face that refutes the most rounds (the first found of those),
    /// if any refutes round 0.
    pub fn worst(&self) -> Option<&Refutation> {
        self.worst.as_ref()
    }
}

/// A distance not reached (yet) by the search.
const UNREACHED: u32 = u32::MAX;

/// The input's edges and triangles, each sorted, in sorted order.
fn faces(input: &Complex) -> (Vec<[VertexId; 2]>, Vec<[VertexId; 3]>) {
    let (mut edges, mut triangles) = (Vec::new(), Vec::new());
    for f in input.facets() {
        let vs = f.vertices();
        for (i, &u) in vs.iter().enumerate() {
            for (j, &v) in vs.iter().enumerate().skip(i + 1) {
                edges.push([u, v]);
                triangles.extend(vs[j + 1..].iter().map(|&w| [u, v, w]));
            }
        }
    }
    edges.sort_unstable();
    edges.dedup();
    triangles.sort_unstable();
    triangles.dedup();
    (edges, triangles)
}

/// The scratch of one [`Distances::of`] pass.
struct Pass<'t> {
    /// `Δ`'s keys of two or three vertices, sorted, each with the range
    /// of `arcs` its 1-skeleton holds.
    keys: Vec<(&'t [VertexId], Range<usize>)>,
    /// Both directions of every edge of each `Δ(ρ)` in `keys`, gathered
    /// in one walk over `Δ`.
    arcs: Vec<(u32, u32)>,
    /// Input vertex `u` ↦ the output vertices of `Δ(u)`, sorted.
    solo: Vec<Vec<u32>>,
    /// The graph searched, by output vertex `x`: its neighbours are
    /// `next[start[x]..start[x] + degree[x]]` (with repeats). `degree` is
    /// 0 off the vertices in `touched`.
    degree: Vec<u32>,
    start: Vec<u32>,
    next: Vec<u32>,
    touched: Vec<u32>,
    /// Output vertex ↦ its distance from the last search's sources.
    dist: Vec<u32>,
    /// The last search's visit order (every vertex it reached).
    queue: Vec<u32>,
    worst: Option<Refutation>,
}

impl<'t> Pass<'t> {
    fn new(task: &'t Task) -> Pass<'t> {
        let n = task.output().num_vertices();
        let (mut keys, mut arcs) = (Vec::new(), Vec::new());
        let mut solo = vec![Vec::new(); task.input().num_vertices()];
        for (key, outs) in task.delta_entries() {
            match key.vertices() {
                &[u] => {
                    let ws: &mut Vec<u32> = &mut solo[u.index()];
                    ws.extend(outs.iter().flat_map(|so| so.iter().map(|w| w.0)));
                    ws.sort_unstable();
                    ws.dedup();
                }
                rho @ ([_, _] | [_, _, _]) => {
                    let from = arcs.len();
                    for so in outs {
                        let ws = so.vertices();
                        for (i, a) in ws.iter().enumerate() {
                            for b in &ws[i + 1..] {
                                arcs.push((a.0, b.0));
                                arcs.push((b.0, a.0));
                            }
                        }
                    }
                    keys.push((rho, from..arcs.len()));
                }
                _ => {}
            }
        }
        Pass {
            keys,
            arcs,
            solo,
            degree: vec![0; n],
            start: vec![0; n],
            next: Vec::new(),
            touched: Vec::new(),
            dist: vec![UNREACHED; n],
            queue: Vec::new(),
            worst: None,
        }
    }

    /// Whether the face kept refutes every round: no later one can
    /// refute more.
    fn settled(&self) -> bool {
        self.worst.as_ref().is_some_and(|r| r.distance.is_none())
    }

    /// The edge test on input edge `sigma`.
    fn edge(&mut self, sigma: &[VertexId; 2]) {
        if self.settled() {
            return;
        }
        self.load(&[&sigma[..]]);
        let [u, v] = *sigma;
        self.search(u);
        self.consider(sigma, (u, v), Walk::Edge);
    }

    /// The triangle test on input triangle `tau`, each pair of its
    /// vertices in `H_τ`: one search from `u` measures `v` and `w`, one
    /// from `v` measures `w`.
    fn triangle(&mut self, tau: &[VertexId; 3]) {
        if self.settled() {
            return;
        }
        let [u, v, w] = *tau;
        self.load(&[&[u, v], &[u, w], &[v, w], &tau[..]]);
        self.search(u);
        self.consider(tau, (u, v), Walk::Triangle);
        self.consider(tau, (u, w), Walk::Triangle);
        self.search(v);
        self.consider(tau, (v, w), Walk::Triangle);
    }

    /// Makes the graph searched the union of the 1-skeleta of `Δ(ρ)` over
    /// `faces`: their arcs counted out by tail, with no sort.
    fn load(&mut self, faces: &[&[VertexId]]) {
        let (keys, arcs) = (&self.keys, &self.arcs);
        // the arcs of each face's `Δ` (none when it is not a `Δ` key)
        let graph = || {
            faces.iter().flat_map(
                |rho| match keys.binary_search_by(|(key, _)| (*key).cmp(rho)) {
                    Ok(i) => &arcs[keys[i].1.clone()],
                    Err(_) => &[][..],
                },
            )
        };
        let (degree, touched) = (&mut self.degree, &mut self.touched);
        for &x in touched.iter() {
            degree[x as usize] = 0;
        }
        touched.clear();
        for &(a, _) in graph() {
            if degree[a as usize] == 0 {
                touched.push(a);
            }
            degree[a as usize] += 1;
        }
        let (start, next) = (&mut self.start, &mut self.next);
        let mut at = 0;
        for &x in touched.iter() {
            start[x as usize] = at;
            at += degree[x as usize];
        }
        next.resize(at as usize, 0);
        for &(a, b) in graph() {
            next[start[a as usize] as usize] = b;
            start[a as usize] += 1;
        }
        for &x in touched.iter() {
            start[x as usize] -= degree[x as usize];
        }
    }

    /// Breadth-first search of the graph loaded from `Δ(u)`.
    fn search(&mut self, u: VertexId) {
        let (dist, queue) = (&mut self.dist, &mut self.queue);
        for &x in queue.iter() {
            dist[x as usize] = UNREACHED;
        }
        queue.clear();
        for &s in &self.solo[u.index()] {
            dist[s as usize] = 0;
            queue.push(s);
        }
        let mut head = 0;
        while let Some(&x) = queue.get(head) {
            head += 1;
            let (d, arcs) = (dist[x as usize] + 1, self.degree[x as usize] as usize);
            // `start` is stale off the vertices the graph touches
            let from = if arcs == 0 {
                0
            } else {
                self.start[x as usize] as usize
            };
            for &y in &self.next[from..from + arcs] {
                if dist[y as usize] == UNREACHED {
                    dist[y as usize] = d;
                    queue.push(y);
                }
            }
        }
    }

    /// Keeps the refutation of `face` by the last search's distance to
    /// `Δ(v)` (`None` when it reached none), if it refutes more rounds than
    /// the one kept.
    fn consider(&mut self, face: &[VertexId], (u, v): (VertexId, VertexId), walk: Walk) {
        let distance = self.solo[v.index()]
            .iter()
            .map(|&t| self.dist[t as usize])
            .filter(|&d| d != UNREACHED)
            .min()
            .map(u64::from);
        let found = Refutation {
            face: Simplex::empty(),
            ends: (u, v),
            distance,
            walk,
        };
        // rounds refuted: `None` (every round) is the most
        let reach = |r: &Refutation| r.first_passing().unwrap_or(usize::MAX);
        if reach(&found) > self.worst.as_ref().map_or(0, reach) {
            self.worst = Some(Refutation {
                face: Simplex::new(face.iter().copied()),
                ..found
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iis_tasks::library::{approximate_agreement, parse_spec};

    #[test]
    fn eps_agreement_passes_at_3_to_the_b_for_two_and_2_to_the_b_for_more() {
        for (spec, first) in [
            ("eps:1:3", 1),
            ("eps:1:9", 2),
            ("eps:1:10", 3),
            ("eps:1:64", 4),
            ("eps:2:2", 1),
            ("eps:2:4", 2),
            ("eps:2:5", 3),
            ("eps:2:9", 4),
            ("eps:3:244", 8),
            ("eps:2:1953", 11),
            ("eps:4:2", 1),
        ] {
            let task = parse_spec(spec).unwrap();
            assert_eq!(Distances::of(&task).first_round(), Some(first), "{spec}");
        }
    }

    #[test]
    fn a_refutation_names_its_face_and_bound() {
        let task = approximate_agreement(1, 9);
        let d = Distances::of(&task);
        let r = d.refuting(1).unwrap();
        assert_eq!((r.walk, r.distance), (Walk::Edge, Some(9)));
        assert_eq!(
            r.describe(&task),
            "Distance refutation (no decision map at b ≤ 1): σ = {P0=0, P1=9}, Δ(P0=0) and \
             Δ(P1=9) are 9 apart in Δ(σ), more than 3^b = 3"
        );
        let task = parse_spec("eps:2:9").unwrap();
        let r = Distances::of(&task).worst().unwrap().clone();
        assert_eq!((r.walk, r.distance), (Walk::Triangle, Some(9)));
        assert!(r.refutes(3) && !r.refutes(4));
        let task = parse_spec("consensus:1").unwrap();
        let r = Distances::of(&task).worst().unwrap().clone();
        assert_eq!(r.first_passing(), None);
        assert!(
            r.describe(&task).ends_with("are not joined in Δ(σ)"),
            "{r:?}"
        );
    }
}
