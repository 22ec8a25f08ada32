//! JSON support for the topology types, via `iis_obs::json`.
//!
//! The shapes match what the former serde implementation produced, so task
//! files written before the workspace went registry-less still load:
//!
//! - `Color`, `VertexId` — plain numbers;
//! - `Label` — array of bytes of its canonical encoding;
//! - `Simplex` — array of vertex ids;
//! - `Complex` — `{"vertices": [[color, label], …], "facets": [[id, …], …]}`;
//! - `Subdivision` — `{"base", "subdivided", "vertex_carriers"}`.
//!
//! Deserialization re-validates: the `(color, label) → id` index is rebuilt,
//! facets re-pass through [`Complex::add_facets`] so the facet antichain
//! invariant survives hand-edited input, and a subdivision must carry
//! exactly one carrier per subdivided vertex.

use crate::{Color, Complex, Label, Simplex, SimplicialMap, Subdivision, VertexId};
use iis_obs::json::{FromJson, Json, JsonError, ToJson};

impl ToJson for Color {
    fn to_json(&self) -> Json {
        self.0.to_json()
    }
}

impl FromJson for Color {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(Color(u32::from_json(v)?))
    }
}

impl ToJson for VertexId {
    fn to_json(&self) -> Json {
        self.0.to_json()
    }
}

impl FromJson for VertexId {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(VertexId(u32::from_json(v)?))
    }
}

impl ToJson for Label {
    fn to_json(&self) -> Json {
        Json::Arr(self.bytes().iter().map(|&b| Json::Num(b as f64)).collect())
    }
}

impl FromJson for Label {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(Label::from_bytes(Vec::<u8>::from_json(v)?))
    }
}

impl ToJson for Simplex {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(|id| id.to_json()).collect())
    }
}

impl FromJson for Simplex {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(Simplex::new(Vec::<VertexId>::from_json(v)?))
    }
}

impl ToJson for Complex {
    fn to_json(&self) -> Json {
        let vertices: Vec<(Color, Label)> = self
            .vertex_ids()
            .map(|v| (self.color(v), self.label(v).clone()))
            .collect();
        let facets: Vec<Simplex> = self.facets().cloned().collect();
        Json::obj([
            ("vertices", vertices.to_json()),
            ("facets", facets.to_json()),
        ])
    }
}

impl FromJson for Complex {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let vertices = Vec::<(Color, Label)>::from_json(v.field("vertices")?)?;
        let facets = Vec::<Simplex>::from_json(v.field("facets")?)?;
        let mut c = Complex::new();
        for (color, label) in vertices {
            c.ensure_vertex(color, label);
        }
        let n = c.num_vertices() as u32;
        if facets.iter().any(|f| f.iter().any(|v| v.0 >= n)) {
            return Err(JsonError::new("facet references unknown vertex"));
        }
        c.add_facets(facets);
        Ok(c)
    }
}

/// JSON form: array of `[source, image]` vertex-id pairs in sorted source
/// order, so serializing the same map always yields the same bytes (the
/// persistent witness store relies on this canonical form).
impl ToJson for SimplicialMap {
    fn to_json(&self) -> Json {
        self.pairs().to_json()
    }
}

impl FromJson for SimplicialMap {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(SimplicialMap::from_pairs(
            Vec::<(VertexId, VertexId)>::from_json(v)?,
        ))
    }
}

impl ToJson for Subdivision {
    fn to_json(&self) -> Json {
        let carriers: Vec<Simplex> = self
            .complex()
            .vertex_ids()
            .map(|v| self.carrier_of_vertex(v).clone())
            .collect();
        Json::obj([
            ("base", self.base().to_json()),
            ("subdivided", self.complex().to_json()),
            ("vertex_carriers", carriers.to_json()),
        ])
    }
}

impl FromJson for Subdivision {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let base = Complex::from_json(v.field("base")?)?;
        let subdivided = Complex::from_json(v.field("subdivided")?)?;
        let carriers = Vec::<Simplex>::from_json(v.field("vertex_carriers")?)?;
        if carriers.len() != subdivided.num_vertices() {
            return Err(JsonError::new("one carrier per subdivided vertex"));
        }
        Ok(Subdivision::from_parts(base, subdivided, carriers))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{sds, sds_iterated};

    #[test]
    fn complex_roundtrip() {
        let c = sds(&Complex::standard_simplex(2)).complex().clone();
        let json = c.to_json().to_string();
        let back: Complex = Json::parse_as(&json).unwrap();
        assert!(c.same_labeled(&back));
        assert_eq!(c.num_facets(), back.num_facets());
    }

    #[test]
    fn subdivision_roundtrip_preserves_carriers() {
        let sub = sds_iterated(&Complex::standard_simplex(1), 2);
        let json = sub.to_json().to_string_pretty();
        let back: Subdivision = Json::parse_as(&json).unwrap();
        back.validate().unwrap();
        for v in sub.complex().vertex_ids() {
            let w = back
                .complex()
                .vertex_id(sub.complex().color(v), sub.complex().label(v))
                .unwrap();
            assert_eq!(sub.carrier_of_vertex(v), back.carrier_of_vertex(w));
        }
    }

    #[test]
    fn label_and_simplex_roundtrip() {
        let l = Label::view([(Color(0), &Label::scalar(7))]);
        let back: Label = Json::parse_as(&l.to_json().to_string()).unwrap();
        assert_eq!(l, back);
        let s = Simplex::new([VertexId(3), VertexId(1)]);
        let back: Simplex = Json::parse_as(&s.to_json().to_string()).unwrap();
        assert_eq!(s, back);
    }

    #[test]
    fn simplicial_map_roundtrip_is_canonical() {
        use crate::SimplicialMap;
        let c = sds(&Complex::standard_simplex(1)).complex().clone();
        let m = SimplicialMap::identity(&c);
        let json = m.to_json().to_string();
        // serialization is order-canonical: re-serializing a rebuilt map
        // (whose backing HashMap may iterate differently) is bit-identical
        let back: SimplicialMap = Json::parse_as(&json).unwrap();
        assert_eq!(back.to_json().to_string(), json);
        for v in c.vertex_ids() {
            assert_eq!(back.image(v), m.image(v));
        }
    }

    #[test]
    fn bad_facet_rejected() {
        let json = r#"{"vertices": [], "facets": [[0]]}"#;
        assert!(Json::parse_as::<Complex>(json).is_err());
    }

    #[test]
    fn carrier_count_mismatch_rejected() {
        let base = Complex::standard_simplex(1).to_json();
        let doc = Json::obj([
            ("base", base.clone()),
            ("subdivided", base),
            ("vertex_carriers", Json::Arr(vec![])),
        ]);
        assert!(Subdivision::from_json(&doc).is_err());
    }

    #[test]
    fn missing_field_names_the_field() {
        let err = Json::parse_as::<Complex>(r#"{"vertices": []}"#).unwrap_err();
        assert!(err.to_string().contains("facets"));
    }
}
