//! Chromatic simplicial-complex engine for wait-free computability.
//!
//! This crate is the topological substrate for the reproduction of
//! Borowsky & Gafni, *“A Simple Algorithmically Reasoned Characterization of
//! Wait-free Computations”* (PODC 1997). It provides:
//!
//! - [`Complex`] — finite chromatic simplicial complexes with canonical
//!   vertex [`Label`]s,
//! - [`Simplex`], [`Subdivision`] — carriers and subdivision validation (§2),
//! - [`arena`] — the standard chromatic subdivision and its iterates
//!   (Lemmas 3.2/3.3) as flat CSR arrays, vertices named by ids,
//!   instantiated from a per-dimension [`template`],
//! - [`sds`], [`sds_iterated`] — the same towers with view labels: the
//!   arena tower plus a labelling pass, checked against the
//!   ordered-partition walk [`sds_reference_iterated`],
//! - [`bsd`] — barycentric subdivision (used by Lemma 5.3),
//! - [`SimplicialMap`] — simpliciality / color / carrier preservation checks,
//! - [`homology`] — Z₂ homology, the effective "no holes" test (Lemma 2.2),
//! - [`sperner`] — rainbow-simplex counting, the impossibility engine,
//! - [`embedding`] — numeric geometric realizations for low dimensions.
//!
//! # Quickstart
//!
//! ```
//! use iis_topology::{Complex, sds_iterated};
//!
//! // The twice-iterated standard chromatic subdivision of a triangle —
//! // exactly the 2-round iterated-immediate-snapshot protocol complex.
//! let sub = sds_iterated(&Complex::standard_simplex(2), 2);
//! assert_eq!(sub.complex().num_facets(), 13 * 13);
//! sub.validate().unwrap();
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod complex;
mod maps;
mod sds;
mod simplex;
mod subdivision;
mod vertex;

pub mod arena;
pub mod bsd;
pub mod embedding;
pub mod homology;
pub mod homology_z;
pub mod iso;
mod json_impls;
pub mod manifold;
pub mod sperner;
pub mod template;

pub use complex::{Complex, FacetIndex};
pub use maps::{MapError, SimplicialMap};
pub use sds::{
    for_each_ordered_partition, ordered_bell, ordered_partitions, path_subdivision, sds,
    sds_iterated, sds_reference, sds_reference_iterated,
};
pub use simplex::Simplex;
pub use subdivision::{Subdivision, SubdivisionError};
pub use vertex::{Color, Label, VertexId};
