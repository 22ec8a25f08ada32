//! Structural laws every library task must satisfy.

use iis_tasks::library::{
    approximate_agreement, chromatic_simplex_agreement, consensus, k_set_consensus,
    one_shot_immediate_snapshot_task, renaming, trivial,
};
use iis_tasks::Task;
use iis_topology::{sds, Color, Complex, Simplex};
use std::collections::BTreeSet;

fn all_library_tasks() -> Vec<Task> {
    vec![
        trivial(1),
        trivial(2),
        consensus(1, &[0, 1]),
        consensus(2, &[0, 1]),
        k_set_consensus(1, 1),
        k_set_consensus(2, 2),
        k_set_consensus(2, 3),
        renaming(1, 3),
        renaming(2, 4),
        approximate_agreement(1, 3),
        one_shot_immediate_snapshot_task(1),
        one_shot_immediate_snapshot_task(2),
        chromatic_simplex_agreement(&sds(&Complex::standard_simplex(1))),
    ]
}

#[test]
fn every_input_simplex_has_allowed_outputs() {
    for task in all_library_tasks() {
        for si in task.input().simplices() {
            assert!(
                !task.delta(&si).is_empty(),
                "{}: Δ({si}) empty — task unsolvable by fiat",
                task.name()
            );
        }
    }
}

#[test]
fn delta_respects_colors_everywhere() {
    for task in all_library_tasks() {
        for (si, outs) in task.delta_entries() {
            let in_colors: BTreeSet<Color> = si.iter().map(|v| task.input().color(v)).collect();
            for so in outs {
                let out_colors: BTreeSet<Color> =
                    so.iter().map(|w| task.output().color(w)).collect();
                assert_eq!(in_colors, out_colors, "{}: X(sᵢ) = X(sₒ)", task.name());
            }
        }
    }
}

#[test]
fn output_complex_is_exactly_the_delta_image() {
    // every output facet appears in some Δ entry (no junk outputs), and
    // every Δ value is an output simplex (checked by the builder, re-checked
    // here)
    for task in all_library_tasks() {
        let mut covered: BTreeSet<Simplex> = BTreeSet::new();
        for (_, outs) in task.delta_entries() {
            for so in outs {
                assert!(task.output().contains_simplex(so));
                covered.insert(so.clone());
            }
        }
        for facet in task.output().facets() {
            assert!(
                covered
                    .iter()
                    .any(|s| facet.is_face_of(s) || s.is_face_of(facet)),
                "{}: output facet {facet} unreachable through Δ",
                task.name()
            );
        }
    }
}

#[test]
fn solo_executions_always_have_a_decision() {
    // every single-vertex input simplex allows some single-vertex output
    for task in all_library_tasks() {
        for v in task.input().vertex_ids() {
            let solo = Simplex::new([v]);
            if !task.input().contains_simplex(&solo) {
                continue;
            }
            let outs = task.delta(&solo);
            assert!(!outs.is_empty(), "{}: solo {v} has no outputs", task.name());
            for so in outs {
                assert_eq!(so.len(), 1, "{}: solo output must be a vertex", task.name());
            }
        }
    }
}

#[test]
fn allows_is_monotone_in_the_decided_set() {
    // if a tuple is allowed, so is every face of it
    for task in all_library_tasks() {
        for (si, outs) in task.delta_entries() {
            for so in outs.iter().take(3) {
                for face in so.faces() {
                    assert!(
                        task.allows(si, &face),
                        "{}: face {face} of allowed {so} rejected",
                        task.name()
                    );
                }
                assert!(task.allows(si, &Simplex::empty()));
            }
        }
    }
}

#[test]
fn consensus_agreement_and_validity() {
    let t = consensus(2, &[0, 1]);
    for (si, outs) in t.delta_entries() {
        let input_vals: BTreeSet<u64> = si
            .iter()
            .map(|v| t.input().label(v).as_scalar().unwrap())
            .collect();
        for so in outs {
            let decisions: BTreeSet<u64> = so
                .iter()
                .map(|w| t.output().label(w).as_scalar().unwrap())
                .collect();
            assert_eq!(decisions.len(), 1, "agreement");
            assert!(
                decisions.is_subset(&input_vals),
                "validity: decide an input"
            );
        }
    }
}

#[test]
fn set_consensus_k_bound_holds() {
    for k in 1..=3usize {
        let t = k_set_consensus(2, k);
        for (_, outs) in t.delta_entries() {
            for so in outs {
                let decisions: BTreeSet<u64> = so
                    .iter()
                    .map(|w| t.output().label(w).as_scalar().unwrap())
                    .collect();
                assert!(decisions.len() <= k);
            }
        }
    }
}

#[test]
fn renaming_names_distinct_and_in_range() {
    let t = renaming(2, 4);
    for (_, outs) in t.delta_entries() {
        for so in outs {
            let names: Vec<u64> = so
                .iter()
                .map(|w| t.output().label(w).as_scalar().unwrap())
                .collect();
            let uniq: BTreeSet<u64> = names.iter().copied().collect();
            assert_eq!(uniq.len(), names.len(), "distinct names");
            assert!(names.iter().all(|&m| (1..=4).contains(&m)));
        }
    }
}

#[test]
fn approximate_agreement_outputs_within_input_hull() {
    let t = approximate_agreement(1, 3);
    for (si, outs) in t.delta_entries() {
        let vals: Vec<u64> = si
            .iter()
            .map(|v| t.input().label(v).as_scalar().unwrap())
            .collect();
        let (lo, hi) = (*vals.iter().min().unwrap(), *vals.iter().max().unwrap());
        for so in outs {
            for w in so.iter() {
                let d = t.output().label(w).as_scalar().unwrap();
                assert!(d >= lo && d <= hi, "validity: output within input hull");
            }
        }
    }
}

#[test]
fn csass_outputs_form_simplices_of_the_target() {
    let target = sds(&Complex::standard_simplex(2));
    let t = chromatic_simplex_agreement(&target);
    for (_, outs) in t.delta_entries() {
        for so in outs {
            // relocate into the target complex via labels
            let ids: Vec<_> = so
                .iter()
                .map(|w| {
                    target
                        .complex()
                        .vertex_id(t.output().color(w), t.output().label(w))
                        .expect("CSASS outputs are target vertices")
                })
                .collect();
            assert!(target.complex().contains_simplex(&Simplex::new(ids)));
        }
    }
}

/// `Task::canonical_json` writes its text directly; it must be the exact
/// bytes of rendering the `Json` tree, since it is the content-address
/// preimage every stored record and every routing decision hangs on.
#[test]
fn canonical_text_is_the_rendered_tree() {
    use iis_obs::{Json, ToJson};
    let mut tasks = all_library_tasks();
    tasks.push(approximate_agreement(1, 64));
    // a name that needs escaping
    let renamed = trivial(1)
        .to_json()
        .to_string()
        .replace(r#""trivial""#, r#""tab\tquote\"é""#);
    tasks.push(Json::parse_as(&renamed).unwrap());
    for task in tasks {
        let rendered = task.to_json().to_string();
        assert_eq!(task.canonical_json(), rendered, "{}", task.name());
        // an inline question decodes the task from its JSON on each hop
        let decoded: Task = Json::parse_as(&rendered).unwrap();
        assert_eq!(
            decoded.canonical_json(),
            rendered,
            "decoded {}",
            task.name()
        );
    }
}

/// `Task::write_canonical` is the unmemoized writer behind
/// `canonical_json`: for every library family it appends exactly the
/// rendered tree's bytes, after whatever the buffer already holds.
#[test]
fn write_canonical_appends_the_rendered_tree() {
    use iis_obs::ToJson;
    let mut tasks = all_library_tasks();
    tasks.push(approximate_agreement(1, 64));
    for task in tasks {
        let rendered = task.to_json().to_string();
        let mut out = String::from("prefix\0");
        task.write_canonical(&mut out);
        assert_eq!(
            out.strip_prefix("prefix\0"),
            Some(&rendered[..]),
            "{}",
            task.name()
        );
        assert_eq!(task.canonical_json(), rendered, "{}", task.name());
    }
}
