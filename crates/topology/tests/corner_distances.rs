//! The corner-to-corner path lengths the distance pass of `iis-core`
//! relies on, measured by breadth-first search on `SDS^b(sⁿ)`: two
//! corners of `SDS^b(s¹)` are exactly `3^b` apart (the subdivided edge is
//! a path), and two corners of `SDS^b(s²)` or `SDS^b(s³)` exactly `2^b`.
//! The pass needs only the upper bound on `s²`, which the doubling
//! argument gives: in `SDS(τ)` two solo vertices are joined through the
//! third process's vertex that sees all of `τ`.

use iis_topology::{sds_iterated, Complex, Subdivision, VertexId};
use std::collections::VecDeque;

/// The corners of `sub`: its vertices carried by one vertex of the base,
/// in base-vertex order.
fn corners(sub: &Subdivision) -> Vec<VertexId> {
    let mut found: Vec<(VertexId, VertexId)> = sub
        .complex()
        .vertex_ids()
        .filter_map(|v| match sub.carrier_of_vertex(v).vertices() {
            [u] => Some((*u, v)),
            _ => None,
        })
        .collect();
    found.sort();
    found.into_iter().map(|(_, v)| v).collect()
}

/// Breadth-first distances from `from` in the 1-skeleton of `c`.
fn distances(c: &Complex, from: VertexId) -> Vec<Option<u64>> {
    let mut adjacent = vec![Vec::new(); c.num_vertices()];
    for f in c.facets() {
        for (i, a) in f.iter().enumerate() {
            for b in f.iter().skip(i + 1) {
                adjacent[a.index()].push(b.index());
                adjacent[b.index()].push(a.index());
            }
        }
    }
    let mut dist = vec![None; c.num_vertices()];
    dist[from.index()] = Some(0);
    let mut queue = VecDeque::from([from.index()]);
    while let Some(x) = queue.pop_front() {
        let next = dist[x].map(|d| d + 1);
        for &y in &adjacent[x] {
            if dist[y].is_none() {
                dist[y] = next;
                queue.push_back(y);
            }
        }
    }
    dist
}

/// Asserts that every two corners of `SDS^b(sⁿ)` are `expected(b)` apart,
/// for each `b ≤ max_b`.
fn assert_corner_distances(n: usize, max_b: usize, expected: impl Fn(u32) -> u64) {
    for b in 0..=max_b {
        let sub = sds_iterated(&Complex::standard_simplex(n), b);
        let corners = corners(&sub);
        assert_eq!(corners.len(), n + 1, "SDS^{b}(s^{n})");
        for (i, &u) in corners.iter().enumerate() {
            let dist = distances(sub.complex(), u);
            for &v in &corners[i + 1..] {
                assert_eq!(
                    dist[v.index()],
                    Some(expected(b as u32)),
                    "SDS^{b}(s^{n}): corners {u} and {v}"
                );
            }
        }
    }
}

#[test]
fn corners_of_a_subdivided_edge_are_3_to_the_b_apart() {
    assert_corner_distances(1, 5, |b| 3u64.pow(b));
}

#[test]
fn corners_of_a_subdivided_triangle_are_2_to_the_b_apart() {
    assert_corner_distances(2, 4, |b| 2u64.pow(b));
}

#[test]
fn corners_of_a_subdivided_tetrahedron_are_2_to_the_b_apart() {
    assert_corner_distances(3, 2, |b| 2u64.pow(b));
}
