//! Abstract simplices: sorted sets of vertex ids.

use crate::VertexId;
use std::fmt;

/// An abstract simplex — a finite set of vertices of some complex, stored
/// sorted and deduplicated.
///
/// An *n*-dimensional simplex has *n + 1* vertices (§2 of the paper). The
/// empty simplex is permitted (dimension −1) and is a face of every simplex.
///
/// # Examples
///
/// ```
/// use iis_topology::{Simplex, VertexId};
/// let s = Simplex::new([VertexId(2), VertexId(0), VertexId(2)]);
/// assert_eq!(s.dim(), 1);
/// assert!(Simplex::new([VertexId(0)]).is_face_of(&s));
/// ```
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Simplex(Vec<VertexId>);

impl Simplex {
    /// Builds a simplex from any collection of vertex ids, sorting and
    /// removing duplicates.
    pub fn new<I: IntoIterator<Item = VertexId>>(vertices: I) -> Self {
        let mut v: Vec<VertexId> = vertices.into_iter().collect();
        v.sort_unstable();
        v.dedup();
        Simplex(v)
    }

    /// The empty simplex (dimension −1).
    pub fn empty() -> Self {
        Simplex(Vec::new())
    }

    /// Builds a simplex from ids already in strictly increasing order,
    /// skipping the sort — the hot-path constructor for subdivision
    /// instantiation and arena conversion, where sortedness is structural.
    pub(crate) fn from_sorted(vertices: Vec<VertexId>) -> Self {
        debug_assert!(
            vertices.windows(2).all(|w| w[0] < w[1]),
            "from_sorted requires strictly increasing vertex ids"
        );
        Simplex(vertices)
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// `true` iff this is the empty simplex.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Geometric dimension: `len() − 1`; the empty simplex has dimension −1.
    pub fn dim(&self) -> isize {
        self.0.len() as isize - 1
    }

    /// The vertices in increasing id order.
    pub fn vertices(&self) -> &[VertexId] {
        &self.0
    }

    /// Iterates over the vertices in increasing id order.
    pub fn iter(&self) -> std::iter::Copied<std::slice::Iter<'_, VertexId>> {
        self.0.iter().copied()
    }

    /// `true` iff `v` is a vertex of this simplex.
    pub fn contains(&self, v: VertexId) -> bool {
        self.0.binary_search(&v).is_ok()
    }

    /// `true` iff every vertex of `self` is a vertex of `other`.
    pub fn is_face_of(&self, other: &Simplex) -> bool {
        if self.0.len() > other.0.len() {
            return false;
        }
        let mut it = other.0.iter();
        'outer: for v in &self.0 {
            for w in it.by_ref() {
                if w == v {
                    continue 'outer;
                }
                if w > v {
                    return false;
                }
            }
            return false;
        }
        true
    }

    /// `true` iff `self` is a face of `other` with strictly fewer vertices.
    pub fn is_proper_face_of(&self, other: &Simplex) -> bool {
        self.0.len() < other.0.len() && self.is_face_of(other)
    }

    /// Set union of the two vertex sets.
    pub fn union(&self, other: &Simplex) -> Simplex {
        let mut v = Vec::with_capacity(self.0.len() + other.0.len());
        let (mut i, mut j) = (0, 0);
        while i < self.0.len() && j < other.0.len() {
            match self.0[i].cmp(&other.0[j]) {
                std::cmp::Ordering::Less => {
                    v.push(self.0[i]);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    v.push(other.0[j]);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    v.push(self.0[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        v.extend_from_slice(&self.0[i..]);
        v.extend_from_slice(&other.0[j..]);
        Simplex(v)
    }

    /// Set intersection of the two vertex sets.
    pub fn intersection(&self, other: &Simplex) -> Simplex {
        let mut v = Vec::new();
        let (mut i, mut j) = (0, 0);
        while i < self.0.len() && j < other.0.len() {
            match self.0[i].cmp(&other.0[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    v.push(self.0[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        Simplex(v)
    }

    /// The vertices of `self` that are not in `other`.
    pub fn difference(&self, other: &Simplex) -> Simplex {
        Simplex(
            self.0
                .iter()
                .copied()
                .filter(|v| !other.contains(*v))
                .collect(),
        )
    }

    /// The face obtained by removing vertex `v` (no-op if absent).
    pub fn without(&self, v: VertexId) -> Simplex {
        Simplex(self.0.iter().copied().filter(|w| *w != v).collect())
    }

    /// The simplex obtained by adding vertex `v`.
    pub fn with(&self, v: VertexId) -> Simplex {
        if self.contains(v) {
            self.clone()
        } else {
            let mut n = self.0.clone();
            let pos = n.partition_point(|w| *w < v);
            n.insert(pos, v);
            Simplex(n)
        }
    }

    /// All faces of codimension 1 (each obtained by deleting one vertex).
    ///
    /// The empty simplex has no facets.
    pub fn facets(&self) -> Vec<Simplex> {
        (0..self.0.len())
            .map(|k| {
                let mut v = self.0.clone();
                v.remove(k);
                Simplex(v)
            })
            .collect()
    }

    /// All non-empty faces, including `self`. There are `2^len − 1` of them.
    pub fn faces(&self) -> Vec<Simplex> {
        let n = self.0.len();
        assert!(n <= 24, "face enumeration of a simplex with >24 vertices");
        let mut out = Vec::with_capacity((1usize << n) - 1);
        for mask in 1u32..(1u32 << n) {
            let mut v = Vec::with_capacity(mask.count_ones() as usize);
            for (k, vid) in self.0.iter().enumerate() {
                if mask & (1 << k) != 0 {
                    v.push(*vid);
                }
            }
            out.push(Simplex(v));
        }
        out
    }

    /// All faces of exactly `k + 1` vertices (dimension `k`).
    pub fn faces_of_dim(&self, k: usize) -> Vec<Simplex> {
        let n = self.0.len();
        if k + 1 > n {
            return Vec::new();
        }
        let mut out = Vec::new();
        let mut idx: Vec<usize> = (0..=k).collect();
        loop {
            out.push(Simplex(idx.iter().map(|&i| self.0[i]).collect()));
            // next combination
            let mut i = k as isize;
            while i >= 0 && idx[i as usize] == n - 1 - (k - i as usize) {
                i -= 1;
            }
            if i < 0 {
                break;
            }
            let i = i as usize;
            idx[i] += 1;
            for j in i + 1..=k {
                idx[j] = idx[j - 1] + 1;
            }
        }
        out
    }
}

/// A simplex is its sorted vertex ids: the derived order, equality and
/// hash are those of the slice, so a map keyed by simplices is searched
/// by a borrowed `&[VertexId]` without building a key.
impl std::borrow::Borrow<[VertexId]> for Simplex {
    fn borrow(&self) -> &[VertexId] {
        &self.0
    }
}

impl FromIterator<VertexId> for Simplex {
    fn from_iter<I: IntoIterator<Item = VertexId>>(iter: I) -> Self {
        Simplex::new(iter)
    }
}

impl<'a> IntoIterator for &'a Simplex {
    type Item = VertexId;
    type IntoIter = std::iter::Copied<std::slice::Iter<'a, VertexId>>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl fmt::Debug for Simplex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "⟨")?;
        for (i, v) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{}", v.0)?;
        }
        write!(f, "⟩")
    }
}

impl fmt::Display for Simplex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[u32]) -> Simplex {
        Simplex::new(v.iter().map(|&i| VertexId(i)))
    }

    #[test]
    fn construction_sorts_and_dedups() {
        assert_eq!(s(&[3, 1, 3, 2]).vertices(), s(&[1, 2, 3]).vertices());
        assert_eq!(s(&[3, 1, 2]).dim(), 2);
        assert_eq!(Simplex::empty().dim(), -1);
    }

    #[test]
    fn face_relation() {
        let t = s(&[0, 2, 5]);
        assert!(s(&[0, 5]).is_face_of(&t));
        assert!(s(&[0, 2, 5]).is_face_of(&t));
        assert!(!s(&[0, 2, 5]).is_proper_face_of(&t));
        assert!(s(&[2]).is_proper_face_of(&t));
        assert!(!s(&[1]).is_face_of(&t));
        assert!(!s(&[0, 1, 2, 5]).is_face_of(&t));
        assert!(Simplex::empty().is_face_of(&t));
    }

    #[test]
    fn set_operations() {
        let a = s(&[0, 1, 3]);
        let b = s(&[1, 2, 3]);
        assert_eq!(a.union(&b), s(&[0, 1, 2, 3]));
        assert_eq!(a.intersection(&b), s(&[1, 3]));
        assert_eq!(a.difference(&b), s(&[0]));
        assert_eq!(a.without(VertexId(1)), s(&[0, 3]));
        assert_eq!(a.with(VertexId(2)), s(&[0, 1, 2, 3]));
        assert_eq!(a.with(VertexId(0)), a);
    }

    #[test]
    fn facet_enumeration() {
        let t = s(&[0, 1, 2]);
        let f = t.facets();
        assert_eq!(f.len(), 3);
        assert!(f.contains(&s(&[0, 1])));
        assert!(f.contains(&s(&[0, 2])));
        assert!(f.contains(&s(&[1, 2])));
        assert!(Simplex::empty().facets().is_empty());
    }

    #[test]
    fn face_enumeration() {
        let t = s(&[0, 1, 2]);
        let all = t.faces();
        assert_eq!(all.len(), 7);
        assert!(all.contains(&t));
        assert!(all.contains(&s(&[1])));
        assert_eq!(t.faces_of_dim(0).len(), 3);
        assert_eq!(t.faces_of_dim(1).len(), 3);
        assert_eq!(t.faces_of_dim(2).len(), 1);
        assert!(t.faces_of_dim(3).is_empty());
    }

    #[test]
    fn faces_of_dim_matches_faces() {
        let t = s(&[0, 1, 2, 3, 4]);
        for k in 0..5 {
            let mut a = t.faces_of_dim(k);
            let mut b: Vec<Simplex> = t
                .faces()
                .into_iter()
                .filter(|f| f.dim() == k as isize)
                .collect();
            a.sort();
            b.sort();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn contains_and_iter() {
        let t = s(&[0, 4, 9]);
        assert!(t.contains(VertexId(4)));
        assert!(!t.contains(VertexId(5)));
        let collected: Vec<u32> = t.iter().map(|v| v.0).collect();
        assert_eq!(collected, vec![0, 4, 9]);
    }

    #[test]
    fn debug_format() {
        assert_eq!(format!("{:?}", s(&[0, 2])), "⟨0 2⟩");
    }
}
