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

/// Refuses `spec` unless `ok`, naming its family's `bound`.
///
/// Every family is bounded by its build cost, since the solve service and
/// the gateway build a spec's task inside their request handlers. Each
/// bound admits only tasks that build in about 0.1 s (release build on a
/// 2-vCPU VM, `iis solve SPEC --max-rounds 0 --budget 1`); the largest
/// accepted and smallest refused specs measured there:
///
/// | family | accepted | refused |
/// |---|---|---|
/// | `trivial:N` | `trivial:14` 0.10 s | `trivial:15` 0.35 s |
/// | `consensus:N` | `consensus:7` 0.04 s | `consensus:8` 0.21 s |
/// | `kset:N:K` | `kset:6:1` 0.07 s, `kset:5:2` 0.02 s | `kset:6:2` 0.14 s, `kset:5:3` 0.16 s |
/// | `renaming:N:M` | `renaming:1:353` 0.09 s, `renaming:4:9` 0.08 s | `renaming:4:10` 0.22 s, `renaming:6:7` 0.24 s |
/// | `eps:N:GRID` | `eps:1:15625` 0.08 s, `eps:2:1953` 0.11 s, `eps:3:244` 0.10 s | `eps:1:20000` 0.11 s, `eps:2:4687` 0.30 s, `eps:6:2` 0.23 s |
/// | `oneshot:N` | `oneshot:4` 0.07 s | `oneshot:5` 8 s |
///
/// The bounds also keep every library task within the SDS template
/// width (16 processes) and refuse the parameters a constructor asserts
/// against (`K = 0`, `M ≤ N`, `GRID = 0`).
fn within(spec: &str, ok: bool, bound: &str) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(format!(
            "{spec} is out of bounds: {bound} (larger tasks take too long to build)"
        ))
    }
}

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
/// family's bound when the task would take too long to build.
pub fn parse_spec(spec: &str) -> Result<Task, String> {
    let parts: Vec<&str> = spec.split(':').collect();
    let num =
        |s: &str| -> Result<usize, String> { s.parse().map_err(|_| format!("bad number: {s}")) };
    match parts.as_slice() {
        ["trivial", n] => {
            let n = num(n)?;
            within(spec, n <= 14, "trivial:N takes N ≤ 14")?;
            Ok(trivial(n))
        }
        ["consensus", n] => {
            let n = num(n)?;
            within(spec, n <= 7, "consensus:N takes N ≤ 7")?;
            Ok(consensus(n, &[0, 1]))
        }
        ["kset", n, k] => {
            let (n, k) = (num(n)?, num(k)?);
            let ok = k >= 1 && n.saturating_add(k) <= 7;
            within(spec, ok, "kset:N:K takes K ≥ 1 and N + K ≤ 7")?;
            Ok(k_set_consensus(n, k))
        }
        ["renaming", n, m] => {
            let (n, m) = (num(n)?, num(m)?);
            // 2^(N+1) · M!/(M−N−1)!: the full facet's name assignments,
            // weighted by the faces each one spreads over
            let cost = (m > n).then(|| {
                (m - n..=m).try_fold(1u64, |acc, x| acc.checked_mul(2)?.checked_mul(x as u64))
            });
            let ok = cost.flatten().is_some_and(|c| c <= 500_000);
            within(
                spec,
                ok,
                "renaming:N:M takes N < M and 2^(N+1)·M!/(M−N−1)! ≤ 500000",
            )?;
            Ok(renaming(n, m))
        }
        ["eps", n, grid] => {
            let (n, grid) = (num(n)?, num(grid)? as u64);
            let cost = n
                .checked_add(1)
                .and_then(|e| u32::try_from(e).ok())
                .and_then(|e| 8u64.checked_pow(e))
                .and_then(|w| w.checked_mul(grid));
            let ok = grid >= 1 && cost.is_some_and(|c| c <= 1_000_000);
            within(
                spec,
                ok,
                "eps:N:GRID takes GRID ≥ 1 and GRID·8^(N+1) ≤ 1000000",
            )?;
            Ok(approximate_agreement(n, grid))
        }
        ["oneshot", n] => {
            let n = num(n)?;
            within(spec, n <= 4, "oneshot:N takes N ≤ 4")?;
            Ok(one_shot_immediate_snapshot_task(n))
        }
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
        // every family refuses past its build-cost bound, naming it, and
        // accepts its largest spec; the refusals build nothing
        for (largest, refused, bound) in [
            (
                "oneshot:4",
                &["oneshot:5", "oneshot:6", "oneshot:1000000"][..],
                "N ≤ 4",
            ),
            ("trivial:14", &["trivial:15", "trivial:16"], "N ≤ 14"),
            ("consensus:7", &["consensus:8", "consensus:12"], "N ≤ 7"),
            (
                "kset:5:2",
                &["kset:6:2", "kset:5:3", "kset:8:2", "kset:2:0"],
                "N + K ≤ 7",
            ),
            (
                "renaming:4:9",
                &[
                    "renaming:4:10",
                    "renaming:6:7",
                    "renaming:3:3",
                    "renaming:9:99999999999",
                ],
                "N < M",
            ),
            (
                "eps:1:15625",
                &[
                    "eps:1:15626",
                    "eps:6:2",
                    "eps:1:0",
                    "eps:18446744073709551615:2",
                ],
                "GRID·8^(N+1) ≤ 1000000",
            ),
        ] {
            assert!(parse_spec(largest).is_ok(), "{largest}");
            for spec in refused {
                let Err(refusal) = parse_spec(spec) else {
                    panic!("{spec} was built");
                };
                assert!(refusal.contains(bound), "{spec}: {refusal}");
                assert!(refusal.starts_with(spec), "{spec}: {refusal}");
            }
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
