//! The standard task library: consensus, k-set consensus, renaming,
//! approximate agreement, simplex agreement — the instances the paper and
//! its surrounding literature reason about.

use crate::{Task, TaskBuilder, TaskError};
use iis_topology::{Color, Complex, Label, Simplex, Subdivision};
use std::collections::BTreeSet;

/// Assembles a task from a *spec function* mapping each input simplex to its
/// allowed full output tuples (as `(color, label)` lists). The output
/// complex is built from exactly the tuples the spec returns, per §3.2
/// (output vertices/simplices are those appearing in some output tuple).
///
/// # Errors
///
/// Propagates [`TaskError`] from validation.
pub fn task_from_spec<F>(
    name: impl Into<String>,
    input: Complex,
    spec: F,
) -> Result<Task, TaskError>
where
    F: Fn(&Complex, &Simplex) -> Vec<Vec<(Color, Label)>>,
{
    let mut output = Complex::new();
    type Tuples = Vec<Vec<(Color, Label)>>;
    let mut entries: Vec<(Simplex, Tuples)> = Vec::new();
    let mut tuple_simplices = Vec::new();
    for si in input.simplices() {
        let tuples = spec(&input, &si);
        for tuple in &tuples {
            let ids: Vec<_> = tuple
                .iter()
                .map(|(c, l)| output.ensure_vertex(*c, l.clone()))
                .collect();
            tuple_simplices.push(Simplex::new(ids));
        }
        entries.push((si, tuples));
    }
    output.add_facets(tuple_simplices);
    let mut b = TaskBuilder::new(name, input, output);
    for (si, tuples) in entries {
        for tuple in tuples {
            let ids: Vec<_> = tuple
                .iter()
                .map(|(c, l)| {
                    b.output()
                        .vertex_id(*c, l)
                        .expect("vertex created in first pass")
                })
                .collect();
            b.allow(si.clone(), Simplex::new(ids));
        }
    }
    b.build()
}

/// The trivial task: every process decides its own input. Wait-free solvable
/// with zero communication (`b = 0`).
pub fn trivial(n: usize) -> Task {
    task_from_spec("trivial", Complex::standard_simplex(n), |input, si| {
        vec![si
            .iter()
            .map(|v| (input.color(v), input.label(v).clone()))
            .collect()]
    })
    .expect("trivial task is well-formed")
}

/// Consensus over `n + 1` processes with the given input values: everyone
/// decides the same value, which must be some participant's input. The
/// celebrated FLP/wait-free impossibility: unsolvable for `n ≥ 1`.
pub fn consensus(n: usize, values: &[u64]) -> Task {
    assert!(!values.is_empty(), "consensus needs at least one value");
    let mut input = Complex::new();
    // all assignments of values to processes
    let mut assignment = vec![0usize; n + 1];
    loop {
        let ids: Vec<_> = (0..=n)
            .map(|i| {
                let c = Color(i as u32);
                (c, Label::scalar(values[assignment[i]]))
            })
            .collect();
        let vs: Vec<_> = ids
            .iter()
            .map(|(c, l)| input.ensure_vertex(*c, l.clone()))
            .collect();
        input.add_facet(vs);
        // next assignment
        let mut i = 0;
        loop {
            if i > n {
                break;
            }
            assignment[i] += 1;
            if assignment[i] < values.len() {
                break;
            }
            assignment[i] = 0;
            i += 1;
        }
        if i > n {
            break;
        }
    }
    task_from_spec("consensus", input, |input, si| {
        let vals: BTreeSet<u64> = si
            .iter()
            .map(|v| input.label(v).as_scalar().expect("scalar inputs"))
            .collect();
        vals.into_iter()
            .map(|d| {
                si.iter()
                    .map(|v| (input.color(v), Label::scalar(d)))
                    .collect()
            })
            .collect()
    })
    .expect("consensus task is well-formed")
}

/// `(n+1, k)`-set consensus (§3.2, \[4\]): inputs are process ids; each
/// participant decides a participant's id, with at most `k` distinct ids
/// decided. `k = n + 1` is trivial; `k ≤ n` is wait-free unsolvable (the
/// 1993 triple result).
pub fn k_set_consensus(n: usize, k: usize) -> Task {
    assert!(k >= 1);
    task_from_spec(
        format!("({},{k})-set-consensus", n + 1),
        Complex::standard_simplex(n),
        move |input, si| {
            let ids: Vec<u64> = si
                .iter()
                .map(|v| input.label(v).as_scalar().expect("scalar ids"))
                .collect();
            let colors: Vec<Color> = si.iter().map(|v| input.color(v)).collect();
            let m = colors.len();
            // all functions colors -> ids with ≤ k distinct values
            let mut out = Vec::new();
            let mut choice = vec![0usize; m];
            loop {
                let distinct: BTreeSet<usize> = choice.iter().copied().collect();
                if distinct.len() <= k {
                    out.push(
                        (0..m)
                            .map(|i| (colors[i], Label::scalar(ids[choice[i]])))
                            .collect(),
                    );
                }
                let mut i = 0;
                loop {
                    if i == m {
                        break;
                    }
                    choice[i] += 1;
                    if choice[i] < ids.len() {
                        break;
                    }
                    choice[i] = 0;
                    i += 1;
                }
                if i == m {
                    break;
                }
            }
            out
        },
    )
    .expect("set consensus task is well-formed")
}

/// `M`-renaming: inputs are ids; participants decide pairwise-distinct names
/// in `1..=M`.
///
/// Note: in this plain (non-comparison-based) formulation the task is
/// trivially solvable — `Pᵢ` decides name `i + 1` — because ids are usable.
/// The famous `2n`-renaming lower bound concerns *symmetric* protocols; the
/// paper cites its impossibility as the result needing homology. We include
/// the task as a solvable sanity instance for the decision procedure.
pub fn renaming(n: usize, m: usize) -> Task {
    assert!(m > n, "need at least n+1 names");
    task_from_spec(
        format!("{m}-renaming"),
        Complex::standard_simplex(n),
        move |input, si| {
            let colors: Vec<Color> = si.iter().map(|v| input.color(v)).collect();
            let cnt = colors.len();
            // all injective assignments colors -> 1..=m
            let mut out = Vec::new();
            let mut names: Vec<usize> = (0..cnt).collect(); // indices into 1..=m
                                                            // enumerate via odometer over injective tuples
            fn rec(
                colors: &[Color],
                m: usize,
                used: &mut Vec<bool>,
                acc: &mut Vec<(Color, Label)>,
                out: &mut Vec<Vec<(Color, Label)>>,
            ) {
                if acc.len() == colors.len() {
                    out.push(acc.clone());
                    return;
                }
                let i = acc.len();
                for name in 1..=m {
                    if !used[name] {
                        used[name] = true;
                        acc.push((colors[i], Label::scalar(name as u64)));
                        rec(colors, m, used, acc, out);
                        acc.pop();
                        used[name] = false;
                    }
                }
            }
            let mut used = vec![false; m + 1];
            rec(&colors, m, &mut used, &mut Vec::new(), &mut out);
            names.clear();
            out
        },
    )
    .expect("renaming task is well-formed")
}

/// Discretized ε-agreement on the unit interval for `n + 1` processes:
/// inputs are the endpoints `0` or `grid` (representing 0 and 1 on a grid of
/// `grid + 1` points); decisions are grid points within the input range,
/// pairwise at most one grid step apart (ε = 1/grid).
///
/// Wait-free solvable; the rounds needed grow with `grid` (each IIS round
/// refines an edge 3-fold), making this the canonical "solvable at large
/// `b`, not small `b`" instance for Proposition 3.1.
pub fn approximate_agreement(n: usize, grid: u64) -> Task {
    assert!(grid >= 1);
    let mut input = Complex::new();
    let mut stack = vec![0u8; n + 1];
    loop {
        let vs: Vec<_> = (0..=n)
            .map(|i| {
                let val = if stack[i] == 0 { 0 } else { grid };
                input.ensure_vertex(Color(i as u32), Label::scalar(val))
            })
            .collect();
        input.add_facet(vs);
        let mut i = 0;
        while i <= n && stack[i] == 1 {
            stack[i] = 0;
            i += 1;
        }
        if i > n {
            break;
        }
        stack[i] = 1;
    }
    task_from_spec("eps-agreement", input, move |input, si| {
        let vals: Vec<u64> = si
            .iter()
            .map(|v| input.label(v).as_scalar().expect("scalar inputs"))
            .collect();
        let colors: Vec<Color> = si.iter().map(|v| input.color(v)).collect();
        let lo = *vals.iter().min().expect("non-empty simplex");
        let hi = *vals.iter().max().expect("non-empty simplex");
        let m = colors.len();
        let mut out = BTreeSet::new();
        // all assignments with values in {t, t+1} ∩ [lo, hi]
        for t in lo..=hi {
            let choices: Vec<u64> = if t < hi { vec![t, t + 1] } else { vec![t] };
            let mut idx = vec![0usize; m];
            loop {
                let tuple: Vec<(Color, Label)> = (0..m)
                    .map(|i| (colors[i], Label::scalar(choices[idx[i]])))
                    .collect();
                out.insert(tuple);
                let mut i = 0;
                while i < m {
                    idx[i] += 1;
                    if idx[i] < choices.len() {
                        break;
                    }
                    idx[i] = 0;
                    i += 1;
                }
                if i == m {
                    break;
                }
            }
        }
        out.into_iter().collect()
    })
    .expect("approximate agreement task is well-formed")
}

/// Chromatic simplex agreement over a subdivision `A` of the standard
/// simplex (the CSASS task of §5): process `Pᵢ` starts at corner `i` and
/// must output a vertex of `A` of its own color such that the outputs form
/// a simplex of `A` whose carrier is within the participating corners.
///
/// Theorem 5.1 is exactly the statement that this task is wait-free
/// solvable for every chromatic subdivision `A`.
///
/// # Panics
///
/// Panics if the subdivision's base is not a single facet (a simplex).
pub fn chromatic_simplex_agreement(sub: &Subdivision) -> Task {
    assert_eq!(
        sub.base().num_facets(),
        1,
        "CSASS is defined over a subdivided simplex"
    );
    let input = sub.base().clone();
    let output = sub.complex().clone();
    let mut b = TaskBuilder::new("chromatic-simplex-agreement", input.clone(), output);
    for si in input.simplices() {
        let si_colors: BTreeSet<Color> = si.iter().map(|v| input.color(v)).collect();
        // all simplices W of A with X(W) = X(si) and carrier(W) ⊆ si
        for w in sub.complex().simplices() {
            let w_colors: BTreeSet<Color> = w.iter().map(|v| sub.complex().color(v)).collect();
            if w_colors != si_colors {
                continue;
            }
            let carrier = sub.carrier_of_simplex(&w);
            if carrier.is_face_of(&si) {
                b.allow(si.clone(), w);
            }
        }
    }
    b.build().expect("CSASS task is well-formed")
}

/// The one-shot immediate snapshot *as a task* (§3.5/§3.6): equivalent to
/// chromatic simplex agreement over `SDS(sⁿ)`; solvable in exactly one IIS
/// round by the identity decision map.
pub fn one_shot_immediate_snapshot_task(n: usize) -> Task {
    let sub = iis_topology::sds(&Complex::standard_simplex(n));
    chromatic_simplex_agreement(&sub)
}

/// The largest `N` of `oneshot:N` that [`parse_spec`] builds. The task
/// pairs every simplex of `sᴺ` with every simplex of `SDS(sᴺ)`, so its
/// build time explodes (on a 2-vCPU VM: 0.2 s at `N = 4`, 8 s at `N = 5`,
/// over two minutes at `N = 6`) — too long to run inside a request
/// handler.
const MAX_ONESHOT_DIM: usize = 4;

/// Parses a library task specifier — `trivial:N`, `consensus:N`,
/// `kset:N:K`, `renaming:N:M`, `eps:N:GRID`, `oneshot:N` (`N` is the
/// dimension, i.e. `N+1` processes) — into its [`Task`].
///
/// This is the one spec grammar shared by every front end (the `iis`
/// CLI, the solve service, the gateway's routing layer), so a spec hashes
/// to the same `cache_key` wherever it is parsed.
///
/// # Errors
///
/// Returns a message describing the malformed specifier, or naming the
/// bound when `oneshot:N` has `N > 4`.
pub fn parse_spec(spec: &str) -> Result<Task, String> {
    let parts: Vec<&str> = spec.split(':').collect();
    let num =
        |s: &str| -> Result<usize, String> { s.parse().map_err(|_| format!("bad number: {s}")) };
    match parts.as_slice() {
        ["trivial", n] => Ok(trivial(num(n)?)),
        ["consensus", n] => Ok(consensus(num(n)?, &[0, 1])),
        ["kset", n, k] => Ok(k_set_consensus(num(n)?, num(k)?)),
        ["renaming", n, m] => Ok(renaming(num(n)?, num(m)?)),
        ["eps", n, grid] => Ok(approximate_agreement(num(n)?, num(grid)? as u64)),
        ["oneshot", n] => match num(n)? {
            n if n > MAX_ONESHOT_DIM => Err(format!(
                "oneshot:N takes N ≤ {MAX_ONESHOT_DIM}, got {n}: larger tasks take seconds to minutes to build"
            )),
            n => Ok(one_shot_immediate_snapshot_task(n)),
        },
        _ => Err(format!("unknown task spec: {spec}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_family_round_trips_through_its_json() {
        use iis_obs::{FromJson as _, ToJson as _};
        for spec in [
            "trivial:2",
            "consensus:2",
            "kset:2:2",
            "renaming:2:5",
            "eps:1:64",
            "eps:2:3",
            "oneshot:2",
        ] {
            let task = parse_spec(spec).unwrap();
            let text = task.to_json().to_string();
            let back = Task::from_json(&iis_obs::Json::parse(&text).unwrap()).unwrap();
            assert_eq!(back.to_json().to_string(), text, "{spec}");
            assert_eq!(back.input().num_facets(), task.input().num_facets());
            assert_eq!(back.output().num_facets(), task.output().num_facets());
        }
    }

    #[test]
    fn oneshot_dimension_is_bounded() {
        assert!(parse_spec("oneshot:1").is_ok());
        for spec in ["oneshot:5", "oneshot:6", "oneshot:1000000"] {
            let Err(refusal) = parse_spec(spec) else {
                panic!("{spec} was built");
            };
            assert!(refusal.contains("N ≤ 4"), "{spec}: {refusal}");
        }
    }

    #[test]
    fn trivial_shapes() {
        let t = trivial(2);
        assert_eq!(t.input().num_facets(), 1);
        assert_eq!(t.output().num_vertices(), 3);
        assert!(t.is_delta_monotone());
        let full = Simplex::new(t.input().vertex_ids());
        assert_eq!(t.delta(&full).len(), 1);
    }

    #[test]
    fn binary_consensus_shapes() {
        let t = consensus(1, &[0, 1]);
        // inputs: 2 procs × 2 values → 4 facets
        assert_eq!(t.input().num_facets(), 4);
        // outputs: both decide 0 or both decide 1 → 2 facets + solo faces
        assert!(t.output().num_facets() >= 2);
        // mixed-input simplex allows both decisions
        let v00 = t.input().vertex_id(Color(0), &Label::scalar(0)).unwrap();
        let v11 = t.input().vertex_id(Color(1), &Label::scalar(1)).unwrap();
        let mixed = Simplex::new([v00, v11]);
        assert_eq!(t.delta(&mixed).len(), 2);
        // same-input simplex allows exactly one
        let v10 = t.input().vertex_id(Color(1), &Label::scalar(0)).unwrap();
        let same = Simplex::new([v00, v10]);
        assert_eq!(t.delta(&same).len(), 1);
        // not monotone: a mixed execution may decide 1, but P0-solo must
        // decide its own input 0 — the hallmark of consensus validity
        assert!(!t.is_delta_monotone());
    }

    #[test]
    fn consensus_three_values() {
        let t = consensus(1, &[7, 8, 9]);
        assert_eq!(t.input().num_facets(), 9);
    }

    #[test]
    fn set_consensus_shapes() {
        let t = k_set_consensus(2, 2);
        let full = Simplex::new(t.input().vertex_ids());
        // 27 functions minus 6 bijections (3 distinct) = 21
        assert_eq!(t.delta(&full).len(), 21);
        // solo participant: only its own id
        let v0 = t.input().vertex_id(Color(0), &Label::scalar(0)).unwrap();
        let solo = Simplex::new([v0]);
        assert_eq!(t.delta(&solo).len(), 1);
        // not monotone for the same reason as consensus (solo validity)
        assert!(!t.is_delta_monotone());
    }

    #[test]
    fn set_consensus_trivial_when_k_full() {
        let t = k_set_consensus(1, 2);
        let full = Simplex::new(t.input().vertex_ids());
        assert_eq!(t.delta(&full).len(), 4); // all functions allowed
    }

    #[test]
    fn renaming_shapes() {
        let t = renaming(1, 3);
        let full = Simplex::new(t.input().vertex_ids());
        assert_eq!(t.delta(&full).len(), 6); // P(3,2)
        assert!(t.is_delta_monotone());
    }

    #[test]
    fn approximate_agreement_shapes() {
        let t = approximate_agreement(1, 3);
        assert_eq!(t.input().num_facets(), 4);
        // same-endpoint inputs allow only that endpoint region
        let v0 = t.input().vertex_id(Color(0), &Label::scalar(0)).unwrap();
        let w0 = t.input().vertex_id(Color(1), &Label::scalar(0)).unwrap();
        let same = Simplex::new([v0, w0]);
        for so in t.delta(&same) {
            for v in so.iter() {
                assert_eq!(t.output().label(v).as_scalar(), Some(0));
            }
        }
        // mixed inputs allow adjacent pairs across the whole grid
        let w1 = t.input().vertex_id(Color(1), &Label::scalar(3)).unwrap();
        let mixed = Simplex::new([v0, w1]);
        assert!(t.delta(&mixed).len() >= 7);
        // not monotone: mixed inputs permit interior decisions that a solo
        // run (pinned to its endpoint) cannot make
        assert!(!t.is_delta_monotone());
    }

    #[test]
    fn csass_over_sds_shapes() {
        let t = one_shot_immediate_snapshot_task(1);
        // outputs are the 4 vertices of SDS(s¹)
        assert_eq!(t.output().num_vertices(), 4);
        let full = Simplex::new(t.input().vertex_ids());
        // allowed full tuples: the 3 edges of SDS(s¹)
        assert_eq!(t.delta(&full).len(), 3);
        // not monotone: interior vertices are out of reach of solo runs
        assert!(!t.is_delta_monotone());
    }

    #[test]
    fn csass_carrier_constraint() {
        // a solo participant must converge within its own corner
        let t = one_shot_immediate_snapshot_task(2);
        let v0 = t.input().vertex_id(Color(0), &Label::scalar(0)).unwrap();
        let solo = Simplex::new([v0]);
        assert_eq!(t.delta(&solo).len(), 1, "only the corner itself");
    }

    #[test]
    fn csass_over_iterated_sds() {
        let sub = iis_topology::sds_iterated(&Complex::standard_simplex(1), 2);
        let t = chromatic_simplex_agreement(&sub);
        let full = Simplex::new(t.input().vertex_ids());
        assert_eq!(t.delta(&full).len(), 9);
    }
}
