//! Sperner certificates: one refutation that holds at every round count.
//!
//! A [`Certificate`] is an input simplex `σ` and a labelling `λ` of output
//! vertices by the vertices of `σ` with two properties:
//!
//! 1. for every face `τ ⊆ σ`, every vertex of every simplex of `Δ(τ)` gets
//!    a label in `τ`;
//! 2. no simplex of `Δ(σ)` is *rainbow* under `λ` (labelled by all of `σ`).
//!
//! Then no decision map exists at any `b` (DESIGN.md §17). Take any
//! candidate `δ : SDS^b(I) → O`. A vertex `v` of `SDS^b(σ)` with carrier
//! `τ ⊆ σ` has `δ(v)` in a simplex of `Δ(τ)`, so `λ(δ(v)) ∈ τ`: `λ∘δ` is a
//! Sperner labelling of the subdivided simplex `SDS^b(σ)`. Sperner's lemma
//! gives a rainbow facet `s`. Its carrier is `σ`, so `δ(s)` is a simplex of
//! `Δ(σ)`, and it is rainbow under `λ` — against (2). At `b = 0`,
//! `SDS^0(σ) = σ` and the rainbow facet is `σ` itself.
//!
//! [`find_certificate`] reads only `Δ` — no labels, no tower — so an
//! inline task is certified as a library one is. It tries `σ` in order of
//! increasing size, and for each runs a small MAC search over the output
//! vertices, with a label domain per vertex as a bitmask over `σ`'s
//! positions and undo by trail. All attempts of one call share one fixed
//! work bound ([`WORK_BOUND`]), so a task without a certificate costs a
//! bounded, small amount before its search runs as before.

use iis_tasks::Task;
use iis_topology::{Simplex, VertexId};
use std::fmt::Write as _;

/// The work units one [`find_certificate`] call may spend over all the
/// simplices `σ` it tries. A unit is about one vertex visit: a variable
/// scanned or a constraint position revised; a `Δ` vertex read costs 2,
/// a step to the next `Δ` key 4 and a face lookup 16. A call that runs
/// out takes at most about 0.2 ms on a 2-vCPU VM (`oneshot:4`,
/// `eps:3:244`); the largest certified library task, `kset:4:3`, needs
/// about half the bound.
pub const WORK_BOUND: u64 = 25_000;

/// The work units one `Δ(τ)` lookup costs: building `τ` and a map probe.
const FACE_COST: u64 = 16;

/// The work units one step to the next `Δ` key costs.
const KEY_COST: u64 = 4;

/// The widest `σ` whose positions fit a label mask.
const MAX_WIDTH: usize = 31;

/// An impossibility certificate for every round count: the input simplex
/// `σ` and the labelling `λ` (see the module docs).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Certificate {
    sigma: Simplex,
    /// `λ`, sorted by output vertex: each output vertex of some `Δ(τ)`,
    /// `τ ⊆ σ`, with its label, a vertex of `σ`.
    labels: Vec<(VertexId, VertexId)>,
}

impl Certificate {
    /// The input simplex `σ`.
    pub fn sigma(&self) -> &Simplex {
        &self.sigma
    }

    /// `λ(w)`, if `λ` labels `w`.
    pub fn label(&self, w: VertexId) -> Option<VertexId> {
        let i = self.labels.binary_search_by_key(&w, |&(x, _)| x).ok()?;
        Some(self.labels[i].1)
    }

    /// Checks both properties of the module docs against `task`, with `σ`
    /// a `Δ` key (so an input simplex).
    ///
    /// # Errors
    ///
    /// Names the first violation.
    pub fn check(&self, task: &Task) -> Result<(), String> {
        let sigma = self.sigma.vertices();
        if task.delta(&self.sigma).is_empty() {
            return Err(format!("σ = {} is not a Δ key", self.sigma));
        }
        if sigma.len() > MAX_WIDTH {
            return Err(format!("σ = {} is too wide", self.sigma));
        }
        if !self.labels.windows(2).all(|w| w[0].0 < w[1].0) {
            return Err("λ is not sorted by output vertex".to_string());
        }
        if let Some((w, v)) = self.labels.iter().find(|(_, v)| !self.sigma.contains(*v)) {
            return Err(format!("λ({w}) = {v} is not a vertex of σ"));
        }
        for mask in 1u32..1 << sigma.len() {
            let tau = face(sigma, mask);
            for so in task.delta(&tau) {
                for w in so.iter() {
                    match self.label(w) {
                        Some(v) if tau.contains(v) => {}
                        Some(v) => return Err(format!("λ({w}) = {v} is not in τ = {tau}")),
                        None => return Err(format!("λ({w}) is undefined, yet {w} is in Δ({tau})")),
                    }
                }
            }
        }
        for so in task.delta(&self.sigma) {
            let labels = Simplex::new(so.iter().filter_map(|w| self.label(w)));
            if labels == self.sigma {
                return Err(format!("{so} ∈ Δ(σ) is rainbow"));
            }
        }
        Ok(())
    }

    /// `σ` and `λ` in the task's terms: an input vertex reads `P1=0`
    /// (process 1 with input 0), an output vertex `P1→0` (process 1
    /// decides 0), so `λ` reads `P1→0 ↦ P0=0`.
    pub fn describe(&self, task: &Task) -> (String, String) {
        let (input, output) = (task.input(), task.output());
        let mut sigma = String::from("{");
        for (i, v) in self.sigma.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(sigma, "{sep}{}={}", input.color(v), input.label(v));
        }
        sigma.push('}');
        let mut lambda = String::from("{");
        for (i, &(w, v)) in self.labels.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                lambda,
                "{sep}{}→{} ↦ {}={}",
                output.color(w),
                output.label(w),
                input.color(v),
                input.label(v)
            );
        }
        lambda.push('}');
        (sigma, lambda)
    }
}

/// The face of `sigma` (sorted vertex ids) at the positions set in `mask`.
fn face(sigma: &[VertexId], mask: u32) -> Simplex {
    Simplex::new(
        (0..sigma.len())
            .filter(|i| mask >> i & 1 == 1)
            .map(|i| sigma[i]),
    )
}

/// Looks for a [`Certificate`] of `task`, trying `Δ` keys `σ` of size ≥ 2
/// by increasing size, each size in `Δ` order, within [`WORK_BOUND`]
/// units of work in all. A certificate found passes
/// [`Certificate::check`]; `None` says nothing about solvability.
///
/// # Examples
///
/// ```
/// use iis_core::certificate::find_certificate;
/// use iis_tasks::library::{approximate_agreement, consensus, k_set_consensus};
///
/// // consensus falls on an edge, (3,2)-set consensus on a triangle …
/// assert_eq!(find_certificate(&consensus(1, &[0, 1])).unwrap().sigma().len(), 2);
/// assert_eq!(find_certificate(&k_set_consensus(2, 2)).unwrap().sigma().len(), 3);
/// // … and a solvable task has none
/// assert!(find_certificate(&approximate_agreement(1, 9)).is_none());
/// ```
pub fn find_certificate(task: &Task) -> Option<Certificate> {
    let mut finder = Finder::new(task);
    for size in 2..=MAX_WIDTH {
        let mut wider = false;
        for (sigma, outs) in task.delta_entries() {
            finder.charge(KEY_COST).ok()?;
            wider |= sigma.len() > size;
            if sigma.len() != size {
                continue;
            }
            match finder.attempt(sigma, outs) {
                Ok(Some(cert)) => {
                    debug_assert_eq!(cert.check(task), Ok(()));
                    return Some(cert);
                }
                Ok(None) => {}
                Err(OutOfWork) => return None,
            }
        }
        if !wider {
            break;
        }
    }
    None
}

/// The work bound ran out.
struct OutOfWork;

/// One search for a labelling on `σ`: a variable per output vertex of the
/// `Δ(τ)`, `τ ⊆ σ`, whose domain is a mask over `σ`'s positions, and a
/// "not rainbow" constraint per simplex of `Δ(σ)`.
struct Finder<'t> {
    task: &'t Task,
    work: u64,
    /// Output vertex → its variable in this attempt (`u32::MAX`: none).
    slot: Vec<u32>,
    /// Variable → output vertex.
    vars: Vec<VertexId>,
    /// Variable → label mask.
    dom: Vec<u32>,
    /// Variable → the mask of `σ`'s position of its color.
    own: Vec<u32>,
    /// The constraints, `width` variables each.
    cons: Vec<u32>,
    width: usize,
    /// Variable → constraints containing it, in CSR form.
    adj_start: Vec<u32>,
    adj: Vec<u32>,
    /// `(variable, domain before)` per narrowing, for undo.
    trail: Vec<(u32, u32)>,
    /// Variables made singletons, whose constraints are still to revise.
    queue: Vec<u32>,
}

impl<'t> Finder<'t> {
    fn new(task: &'t Task) -> Self {
        Finder {
            task,
            work: 0,
            slot: vec![u32::MAX; task.output().num_vertices()],
            vars: Vec::new(),
            dom: Vec::new(),
            own: Vec::new(),
            cons: Vec::new(),
            width: 0,
            adj_start: Vec::new(),
            adj: Vec::new(),
            trail: Vec::new(),
            queue: Vec::new(),
        }
    }

    fn charge(&mut self, units: u64) -> Result<(), OutOfWork> {
        self.work += units;
        if self.work > WORK_BOUND {
            Err(OutOfWork)
        } else {
            Ok(())
        }
    }

    /// Labels the output vertices of `σ`'s faces so that `Δ(σ)` has no
    /// rainbow simplex, or shows there is no such labelling.
    fn attempt(
        &mut self,
        sigma: &Simplex,
        outs: &[Simplex],
    ) -> Result<Option<Certificate>, OutOfWork> {
        for &w in &self.vars {
            self.slot[w.index()] = u32::MAX;
        }
        self.vars.clear();
        self.dom.clear();
        self.own.clear();
        self.cons.clear();
        self.trail.clear();
        self.queue.clear();
        let verts = sigma.vertices();
        let m = verts.len();
        self.width = m;
        let full = (1u32 << m) - 1;
        let task = self.task;
        let (input, output) = (task.input(), task.output());
        let colors: Vec<_> = verts.iter().map(|&v| input.color(v)).collect();
        // property (1): a vertex of Δ(τ) is labelled inside τ
        for mask in 1..=full {
            self.charge(FACE_COST)?;
            let tau_outs = if mask == full {
                outs
            } else {
                task.delta(&face(verts, mask))
            };
            for so in tau_outs {
                self.charge(2 * so.len() as u64)?;
                for w in so.iter() {
                    let var = match self.slot[w.index()] {
                        u32::MAX => {
                            let var = self.vars.len() as u32;
                            self.slot[w.index()] = var;
                            self.vars.push(w);
                            self.dom.push(full);
                            let pos = colors.iter().position(|&c| c == output.color(w));
                            self.own.push(pos.map_or(0, |p| 1 << p));
                            var
                        }
                        var => var,
                    };
                    self.dom[var as usize] &= mask;
                }
            }
        }
        if self.dom.contains(&0) {
            return Ok(None);
        }
        // property (2): one "not rainbow" constraint per simplex of Δ(σ)
        self.charge((outs.len() * m) as u64)?;
        for so in outs.iter().filter(|so| so.len() == m) {
            self.cons.extend(so.iter().map(|w| self.slot[w.index()]));
        }
        self.adj_start.clear();
        self.adj_start.resize(self.vars.len() + 1, 0);
        for &var in &self.cons {
            self.adj_start[var as usize + 1] += 1;
        }
        for i in 0..self.vars.len() {
            self.adj_start[i + 1] += self.adj_start[i];
        }
        self.adj.clear();
        self.adj.resize(self.cons.len(), 0);
        let mut fill = self.adj_start.clone();
        for (i, &var) in self.cons.iter().enumerate() {
            self.adj[fill[var as usize] as usize] = (i / m) as u32;
            fill[var as usize] += 1;
        }
        for c in 0..self.cons.len() / m {
            if !self.revise(c, full)? {
                return Ok(None);
            }
        }
        if !self.propagate(full)? || !self.search(full)? {
            return Ok(None);
        }
        let mut labels: Vec<(VertexId, VertexId)> = self
            .vars
            .iter()
            .zip(&self.dom)
            .map(|(&w, &d)| (w, verts[d.trailing_zeros() as usize]))
            .collect();
        labels.sort_unstable();
        Ok(Some(Certificate {
            sigma: sigma.clone(),
            labels,
        }))
    }

    /// Narrows `var` to `dom`, on the trail; a new singleton is queued.
    fn narrow(&mut self, var: u32, dom: u32) {
        let old = self.dom[var as usize];
        self.trail.push((var, old));
        self.dom[var as usize] = dom;
        if dom.is_power_of_two() {
            self.queue.push(var);
        }
    }

    /// Revises constraint `c`: `false` iff its variables are singletons
    /// labelled by all of `σ`. With all but one singleton, pairwise
    /// distinct, the last one loses the one label they miss — the only
    /// value no completion supports, so this is arc consistency.
    fn revise(&mut self, c: usize, full: u32) -> Result<bool, OutOfWork> {
        let m = self.width;
        self.charge(m as u64)?;
        let (mut seen, mut free, mut unset) = (0u32, 0u32, 0usize);
        for &var in &self.cons[c * m..(c + 1) * m] {
            let d = self.dom[var as usize];
            if d.is_power_of_two() {
                if seen & d != 0 {
                    return Ok(true); // two share a label: never rainbow
                }
                seen |= d;
            } else {
                unset += 1;
                free = var;
            }
        }
        match unset {
            0 => Ok(false),
            1 => {
                let missing = full & !seen;
                let d = self.dom[free as usize];
                if d & missing != 0 {
                    self.narrow(free, d & !missing);
                }
                Ok(true)
            }
            _ => Ok(true),
        }
    }

    /// Revises every constraint of every queued singleton, to a fixpoint;
    /// `false` on a rainbow.
    fn propagate(&mut self, full: u32) -> Result<bool, OutOfWork> {
        while let Some(var) = self.queue.pop() {
            let (lo, hi) = (
                self.adj_start[var as usize] as usize,
                self.adj_start[var as usize + 1] as usize,
            );
            for i in lo..hi {
                if !self.revise(self.adj[i] as usize, full)? {
                    self.queue.clear();
                    return Ok(false);
                }
            }
        }
        Ok(true)
    }

    /// Restores every domain narrowed since the trail had `mark` entries.
    fn undo(&mut self, mark: usize) {
        while self.trail.len() > mark {
            let (var, old) = self.trail.pop().expect("above the mark");
            self.dom[var as usize] = old;
        }
    }

    /// The unset variable with the fewest labels left per constraint it is
    /// in, plus one (the first of a tie): Sperner-style refutations close
    /// fastest from the most constrained vertices.
    fn pick(&mut self) -> Result<Option<u32>, OutOfWork> {
        self.charge(self.vars.len() as u64 / 4 + 1)?;
        let mut best: Option<(u32, u32, u32)> = None;
        for (var, &d) in self.dom.iter().enumerate() {
            let n = d.count_ones();
            let deg = self.adj_start[var + 1] - self.adj_start[var] + 1;
            if n > 1 && best.is_none_or(|(_, bn, bd)| n * bd < bn * deg) {
                best = Some((var as u32, n, deg));
            }
        }
        Ok(best.map(|(var, _, _)| var))
    }

    /// Depth-first search over labels, each labelling propagated; a
    /// vertex tries the labels of other processes before its own, since
    /// labelling every vertex by its own process is rainbow everywhere.
    /// `true` iff every variable ends a singleton with no rainbow.
    fn search(&mut self, full: u32) -> Result<bool, OutOfWork> {
        struct Frame {
            var: u32,
            untried: u32,
            mark: usize,
        }
        let mut frames: Vec<Frame> = Vec::new();
        let mut descend = true;
        loop {
            if descend {
                match self.pick()? {
                    None => return Ok(true),
                    Some(var) => frames.push(Frame {
                        var,
                        untried: self.dom[var as usize],
                        mark: self.trail.len(),
                    }),
                }
            }
            let Some(frame) = frames.last_mut() else {
                return Ok(false);
            };
            let (var, mark) = (frame.var, frame.mark);
            self.undo(mark);
            if frame.untried == 0 {
                frames.pop();
                descend = false;
                continue;
            }
            let others = frame.untried & !self.own[var as usize];
            let pool = if others != 0 { others } else { frame.untried };
            let label = pool & pool.wrapping_neg();
            frame.untried &= !label;
            self.charge(1)?;
            self.narrow(var, label);
            descend = self.propagate(full)?;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iis_tasks::library::{
        approximate_agreement, consensus, k_set_consensus, one_shot_immediate_snapshot_task,
        trivial,
    };

    #[test]
    fn consensus_falls_on_an_edge_labelled_by_decided_value() {
        let t = consensus(1, &[0, 1]);
        let cert = find_certificate(&t).expect("consensus is certified");
        assert_eq!(cert.check(&t), Ok(()));
        let (sigma, lambda) = cert.describe(&t);
        assert_eq!(sigma, "{P0=0, P1=1}");
        assert_eq!(
            lambda,
            "{P0→0 ↦ P0=0, P1→0 ↦ P0=0, P0→1 ↦ P1=1, P1→1 ↦ P1=1}"
        );
    }

    #[test]
    fn set_consensus_falls_on_a_k_plus_one_face() {
        for (n, k) in [(1, 1), (2, 1), (2, 2), (3, 2), (3, 3), (4, 3)] {
            let t = k_set_consensus(n, k);
            let cert = find_certificate(&t).unwrap_or_else(|| panic!("kset:{n}:{k}"));
            assert_eq!(cert.sigma().len(), k + 1, "kset:{n}:{k}");
            assert_eq!(cert.check(&t), Ok(()));
        }
    }

    #[test]
    fn solvable_tasks_have_none() {
        for t in [
            trivial(2),
            k_set_consensus(2, 3),
            approximate_agreement(1, 64),
            approximate_agreement(2, 2),
            one_shot_immediate_snapshot_task(2),
            one_shot_immediate_snapshot_task(3),
        ] {
            assert_eq!(find_certificate(&t), None, "{}", t.name());
        }
    }

    #[test]
    fn the_checker_refuses_a_rainbow_and_a_label_outside_its_face() {
        let t = consensus(1, &[0, 1]);
        let cert = find_certificate(&t).unwrap();
        // λ by process: every simplex of Δ(σ) is rainbow
        let by_process = Certificate {
            labels: cert
                .labels
                .iter()
                .map(|&(w, _)| {
                    let c = t.output().color(w);
                    let v = cert.sigma.iter().find(|&v| t.input().color(v) == c);
                    (w, v.unwrap())
                })
                .collect(),
            ..cert.clone()
        };
        assert!(by_process.check(&t).unwrap_err().contains("rainbow"));
        // a solo decision labelled by the other process
        let mut swapped = cert.clone();
        let (w, v) = swapped.labels[0];
        let other = swapped.sigma.iter().find(|&u| u != v).unwrap();
        swapped.labels[0] = (w, other);
        assert!(swapped.check(&t).unwrap_err().contains("is not in τ"));
    }
}
