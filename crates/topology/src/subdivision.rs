//! Subdivisions of complexes with explicit carrier tracking.

use crate::{Complex, Simplex, VertexId};
use std::fmt;

/// Ways a [`Subdivision`] can fail structural validation.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum SubdivisionError {
    /// A subdivided vertex's carrier is not a simplex of the base.
    CarrierNotInBase(VertexId),
    /// The union of the carriers of a facet's vertices is not a simplex of
    /// the base, so the facet has no carrier.
    FacetHasNoCarrier(Simplex),
    /// The base is chromatic but a subdivided vertex's color does not occur
    /// among the colors of its carrier.
    ColorOutsideCarrier(VertexId),
    /// A base vertex does not reappear as a subdivided vertex whose carrier
    /// is that vertex itself (corners must be preserved).
    MissingCorner(VertexId),
    /// A base facet of dimension `d` is not covered by any subdivided
    /// simplex of dimension `d` carried by it.
    FacetNotCovered(Simplex),
}

impl fmt::Display for SubdivisionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::CarrierNotInBase(v) => write!(f, "carrier of vertex {v} is not in the base"),
            Self::FacetHasNoCarrier(s) => write!(f, "facet {s} has no carrier in the base"),
            Self::ColorOutsideCarrier(v) => {
                write!(f, "color of vertex {v} does not occur in its carrier")
            }
            Self::MissingCorner(v) => write!(f, "base vertex {v} has no corner in the subdivision"),
            Self::FacetNotCovered(s) => write!(f, "base facet {s} is not covered"),
        }
    }
}

impl std::error::Error for SubdivisionError {}

/// A subdivision `B(A)` of a base complex `A`, with the *carrier* of every
/// subdivided vertex recorded as a simplex of the base (§2).
///
/// The carrier of a subdivided simplex is the smallest base simplex
/// containing it — computed as the union of its vertices' carriers
/// ([`Subdivision::carrier_of_simplex`]).
///
/// Subdivisions compose ([`Subdivision::compose`]), which is how the
/// reference tower `SDS^b` is grown one level at a time
/// ([`crate::sds_reference_iterated`]).
///
/// # Examples
///
/// ```
/// use iis_topology::{Complex, sds};
/// let base = Complex::standard_simplex(2);
/// let sub = sds(&base);
/// assert!(sub.validate().is_ok());
/// assert_eq!(sub.complex().num_facets(), 13); // ordered Bell number a(3)
/// ```
#[derive(Clone)]
pub struct Subdivision {
    base: Complex,
    subdivided: Complex,
    vertex_carriers: Vec<Simplex>,
}

impl Subdivision {
    /// Assembles a subdivision from parts.
    ///
    /// `vertex_carriers[i]` must be the carrier (a simplex of `base`) of the
    /// subdivided vertex with id `i`. Use [`Subdivision::validate`] to check
    /// structural soundness.
    ///
    /// # Panics
    ///
    /// Panics if `vertex_carriers.len() != subdivided.num_vertices()`.
    pub fn from_parts(base: Complex, subdivided: Complex, vertex_carriers: Vec<Simplex>) -> Self {
        assert_eq!(
            vertex_carriers.len(),
            subdivided.num_vertices(),
            "one carrier per subdivided vertex"
        );
        Subdivision {
            base,
            subdivided,
            vertex_carriers,
        }
    }

    /// The identity subdivision of a complex: each vertex carried by itself.
    pub fn identity(base: Complex) -> Self {
        let subdivided = base.clone();
        let carriers = subdivided.vertex_ids().map(|v| Simplex::new([v])).collect();
        Subdivision {
            base,
            subdivided,
            vertex_carriers: carriers,
        }
    }

    /// The base complex `A`.
    pub fn base(&self) -> &Complex {
        &self.base
    }

    /// The subdivided complex `B(A)`.
    pub fn complex(&self) -> &Complex {
        &self.subdivided
    }

    /// The carrier of subdivided vertex `v`, a simplex of the base.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not a vertex of the subdivided complex.
    pub fn carrier_of_vertex(&self, v: VertexId) -> &Simplex {
        &self.vertex_carriers[v.index()]
    }

    /// The carrier of a subdivided simplex: the union of its vertices'
    /// carriers. For a valid subdivision this is a simplex of the base.
    pub fn carrier_of_simplex(&self, s: &Simplex) -> Simplex {
        let mut c = Simplex::empty();
        for v in s.iter() {
            c = c.union(&self.vertex_carriers[v.index()]);
        }
        c
    }

    /// Checks the structural invariants of a (chromatic) subdivision:
    ///
    /// 1. every vertex carrier is a simplex of the base;
    /// 2. every subdivided facet has a carrier (union of carriers is a base
    ///    simplex);
    /// 3. if the base is chromatic, every subdivided vertex's color occurs
    ///    among the colors of its carrier;
    /// 4. every base vertex reappears as a corner (a subdivided vertex
    ///    carried by exactly that base vertex);
    /// 5. every base facet of dimension `d` is the carrier of at least one
    ///    `d`-dimensional subdivided facet (coverage).
    ///
    /// These are the combinatorial shadows of the geometric conditions in
    /// §2; the geometric conditions themselves are checked numerically by
    /// [`crate::embedding`] for low dimensions.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant.
    pub fn validate(&self) -> Result<(), SubdivisionError> {
        self.validate_inner(true)
    }

    /// Like [`Subdivision::validate`] but without invariant 3 — for
    /// subdivisions that deliberately recolor, such as the barycentric
    /// subdivision (colored by dimension).
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant.
    pub fn validate_plain(&self) -> Result<(), SubdivisionError> {
        self.validate_inner(false)
    }

    fn validate_inner(&self, color_check: bool) -> Result<(), SubdivisionError> {
        let chromatic = color_check && self.base.is_chromatic();
        for v in self.subdivided.vertex_ids() {
            let carrier = &self.vertex_carriers[v.index()];
            if !self.base.contains_simplex(carrier) || carrier.is_empty() {
                return Err(SubdivisionError::CarrierNotInBase(v));
            }
            if chromatic {
                let color = self.subdivided.color(v);
                if !carrier.iter().any(|u| self.base.color(u) == color) {
                    return Err(SubdivisionError::ColorOutsideCarrier(v));
                }
            }
        }
        for f in self.subdivided.facets() {
            let carrier = self.carrier_of_simplex(f);
            if !self.base.contains_simplex(&carrier) {
                return Err(SubdivisionError::FacetHasNoCarrier(f.clone()));
            }
        }
        // corners
        'corner: for u in self.base.vertex_ids() {
            let target = Simplex::new([u]);
            for v in self.subdivided.vertex_ids() {
                if self.vertex_carriers[v.index()] == target {
                    continue 'corner;
                }
            }
            return Err(SubdivisionError::MissingCorner(u));
        }
        // coverage of base facets
        for bf in self.base.facets() {
            let d = bf.dim();
            let covered = self
                .subdivided
                .facets()
                .any(|f| f.dim() == d && &self.carrier_of_simplex(f) == bf);
            if !covered {
                return Err(SubdivisionError::FacetNotCovered(bf.clone()));
            }
        }
        Ok(())
    }

    /// The *face* `A(s^q)` of the subdivision (§2): the subcomplex of the
    /// simplices whose carrier is a face of `sq` (a simplex of the base).
    ///
    /// For the standard chromatic subdivision, `face(s^q)` is exactly the
    /// standard chromatic subdivision of `s^q`.
    ///
    /// # Panics
    ///
    /// Panics if `sq` is not a simplex of the base.
    pub fn face(&self, sq: &Simplex) -> Complex {
        assert!(
            self.base.contains_simplex(sq),
            "face requires a base simplex"
        );
        let gens: Vec<Simplex> = self
            .subdivided
            .facets()
            .filter_map(|f| {
                let kept = Simplex::new(
                    f.iter()
                        .filter(|&v| self.vertex_carriers[v.index()].is_face_of(sq)),
                );
                (!kept.is_empty()).then_some(kept)
            })
            .collect();
        self.subdivided.subcomplex_from(gens)
    }

    /// Composes with a further subdivision of this subdivision's complex:
    /// given `self : B(A)` and `outer : C(B(A))`, yields `C` viewed as a
    /// subdivision of `A`, with carriers composed.
    ///
    /// # Panics
    ///
    /// Panics if `outer`'s base is not (label-identical to) `self`'s
    /// subdivided complex.
    pub fn compose(&self, outer: &Subdivision) -> Subdivision {
        // When `outer` subdivides `self.subdivided` itself (the reference
        // tower's one-more-level step), `outer.base()` is a clone of
        // `self.subdivided`, so ids line up one-to-one and the per-vertex
        // hash translation below is a no-op — detect that with a linear
        // scan and skip both the translation and the `same_labeled` check
        // (id-equality implies it).
        let identity = outer.base().num_vertices() == self.subdivided.num_vertices()
            && outer.base().vertex_ids().all(|v| {
                outer.base().color(v) == self.subdivided.color(v)
                    && outer.base().label(v) == self.subdivided.label(v)
            });
        let carriers = if identity {
            outer
                .complex()
                .vertex_ids()
                .map(|w| self.carrier_of_simplex(outer.carrier_of_vertex(w)))
                .collect()
        } else {
            assert!(
                outer.base().same_labeled(&self.subdivided),
                "outer subdivision must subdivide self.complex()"
            );
            // outer.base vertex ids are a permutation of self.subdivided's.
            let translate: Vec<VertexId> = outer
                .base()
                .vertex_ids()
                .map(|v| {
                    self.subdivided
                        .vertex_id(outer.base().color(v), outer.base().label(v))
                        .expect("same_labeled guarantees presence")
                })
                .collect();
            outer
                .complex()
                .vertex_ids()
                .map(|w| {
                    let mid = outer.carrier_of_vertex(w);
                    let mid_in_self = Simplex::new(mid.iter().map(|u| translate[u.index()]));
                    self.carrier_of_simplex(&mid_in_self)
                })
                .collect()
        };
        Subdivision {
            base: self.base.clone(),
            subdivided: outer.complex().clone(),
            vertex_carriers: carriers,
        }
    }
}

impl fmt::Debug for Subdivision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Subdivision")
            .field("base_facets", &self.base.num_facets())
            .field("subdivided_facets", &self.subdivided.num_facets())
            .field("subdivided_vertices", &self.subdivided.num_vertices())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Color, Label};

    #[test]
    fn identity_is_valid() {
        let base = Complex::standard_simplex(2);
        let id = Subdivision::identity(base);
        assert!(id.validate().is_ok());
        for v in id.complex().vertex_ids() {
            assert_eq!(id.carrier_of_vertex(v), &Simplex::new([v]));
        }
    }

    #[test]
    fn carrier_of_simplex_unions() {
        let base = Complex::standard_simplex(2);
        let id = Subdivision::identity(base);
        let ids: Vec<VertexId> = id.complex().vertex_ids().collect();
        let e = Simplex::new([ids[0], ids[2]]);
        assert_eq!(id.carrier_of_simplex(&e), e);
    }

    #[test]
    fn compose_identities() {
        let base = Complex::standard_simplex(1);
        let id1 = Subdivision::identity(base.clone());
        let id2 = Subdivision::identity(id1.complex().clone());
        let comp = id1.compose(&id2);
        assert!(comp.validate().is_ok());
        assert!(comp.base().same_labeled(&base));
    }

    #[test]
    fn validate_catches_missing_corner() {
        // Subdivide an edge into a single "middle" vertex only — corners gone.
        let base = Complex::standard_simplex(1);
        let mut sub = Complex::new();
        let m = sub.ensure_vertex(Color(0), Label::text("mid"));
        sub.add_facet([m]);
        let carriers = vec![Simplex::new(base.vertex_ids())];
        let s = Subdivision::from_parts(base, sub, carriers);
        assert!(matches!(
            s.validate(),
            Err(SubdivisionError::MissingCorner(_))
        ));
    }

    #[test]
    fn validate_catches_color_outside_carrier() {
        let base = Complex::standard_simplex(1);
        let ids: Vec<VertexId> = base.vertex_ids().collect();
        let mut sub = Complex::new();
        let a = sub.ensure_vertex(Color(0), Label::scalar(0));
        let b = sub.ensure_vertex(Color(1), Label::scalar(1));
        // a vertex colored P1 carried by corner P0 only:
        let bad = sub.ensure_vertex(Color(1), Label::text("bad"));
        sub.add_facet([a, bad]);
        sub.add_facet([b]);
        let carriers = vec![
            Simplex::new([ids[0]]),
            Simplex::new([ids[1]]),
            Simplex::new([ids[0]]),
        ];
        let s = Subdivision::from_parts(base, sub, carriers);
        assert!(matches!(
            s.validate(),
            Err(SubdivisionError::ColorOutsideCarrier(_))
        ));
    }

    #[test]
    fn validate_catches_uncovered_facet() {
        // base = edge; subdivision only has the two corners, no covering edge
        let base = Complex::standard_simplex(1);
        let ids: Vec<VertexId> = base.vertex_ids().collect();
        let mut sub = Complex::new();
        let a = sub.ensure_vertex(Color(0), Label::scalar(0));
        let b = sub.ensure_vertex(Color(1), Label::scalar(1));
        sub.add_facet([a]);
        sub.add_facet([b]);
        let carriers = vec![Simplex::new([ids[0]]), Simplex::new([ids[1]])];
        let s = Subdivision::from_parts(base, sub, carriers);
        assert!(matches!(
            s.validate(),
            Err(SubdivisionError::FacetNotCovered(_))
        ));
    }

    #[test]
    fn error_display_nonempty() {
        let e = SubdivisionError::MissingCorner(VertexId(3));
        assert!(!e.to_string().is_empty());
    }
}
