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
//!
//! A complex has one decoder, [`Complex::read_json`], which reads straight
//! from text through an [`iis_obs::json::Reader`]; `Complex::from_json` is
//! an adapter that renders the tree and reads that.

use crate::{Color, Complex, Label, Simplex, SimplicialMap, Subdivision, VertexId};
use iis_obs::json::{
    kept, member, read_all, write_array, write_int, FromJson, Json, JsonError, Reader, ToJson,
    Token,
};

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
        Ok(Label::from_bytes(&Vec::<u8>::from_json(v)?))
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

impl Label {
    /// Appends the compact JSON text of this label — the bytes
    /// `self.to_json().to_string()` gives, without building the tree.
    pub fn write_json(&self, out: &mut String) {
        write_array(out, self.bytes(), |out, &b| write_int(out, b as i64));
    }
}

impl Simplex {
    /// Appends the compact JSON text of this simplex — the bytes
    /// `self.to_json().to_string()` gives, without building the tree.
    pub fn write_json(&self, out: &mut String) {
        write_array(out, self.iter(), |out, v| write_int(out, v.0 as i64));
    }

    /// Reads a simplex from `r` as `Simplex::from_json` takes one (an
    /// array of vertex ids, in any order, repeats dropped). The flag is
    /// `true` iff the ids were listed strictly increasing, the order
    /// [`Simplex::write_json`] writes.
    ///
    /// # Errors
    ///
    /// The conversion errors of `Simplex::from_json`, or a syntax error.
    pub fn read_json(r: &mut Reader<'_>) -> Result<(Simplex, bool), JsonError> {
        let mut ids = Vec::new();
        r.uints(&mut ids)?;
        let sorted = ids.windows(2).all(|w| w[0] < w[1]);
        let simplex = if sorted {
            Simplex::from_sorted(ids)
        } else {
            Simplex::new(ids)
        };
        Ok((simplex, sorted))
    }

    /// Reads a list of simplices from `r` as `Vec::<Simplex>::from_json`
    /// takes it. The flag is `true` iff every simplex was listed in
    /// [`Simplex::read_json`]'s order and the list strictly increases —
    /// the order a set of simplices is written in.
    ///
    /// # Errors
    ///
    /// The first conversion error in the list, or a syntax error.
    pub fn read_json_list(r: &mut Reader<'_>) -> Result<(Vec<Simplex>, bool), JsonError> {
        let mut list: Vec<Simplex> = Vec::new();
        let mut sorted = true;
        r.array_or("expected array", |r| {
            let (s, ids_sorted) = Simplex::read_json(r)?;
            sorted &= ids_sorted && list.last().is_none_or(|last| *last < s);
            list.push(s);
            Ok(())
        })?;
        Ok((list, sorted))
    }
}

impl Complex {
    /// Appends the compact JSON text of this complex — the bytes
    /// `self.to_json().to_string()` gives, without building the tree.
    pub fn write_json(&self, out: &mut String) {
        out.push_str("{\"vertices\":");
        write_array(out, self.vertex_ids(), |out, v| {
            out.push('[');
            write_int(out, self.color(v).0 as i64);
            out.push(',');
            self.label(v).write_json(out);
            out.push(']');
        });
        out.push_str(",\"facets\":");
        write_array(out, self.facets(), |out, f| f.write_json(out));
        out.push('}');
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

impl Complex {
    /// Reads a complex from `r`: the one complex decoder. Vertices go into
    /// [`Complex::ensure_vertex`] in the order listed (a repeated
    /// `(color, label)` is one vertex, and facet ids index the vertices so
    /// kept) and facets into [`Complex::add_facets`]. Members may come in
    /// any order and whitespace; unknown ones are ignored and the first of
    /// a repeated one is read. Refusals are those of the parsed tree, in
    /// its order: `vertices` (missing, then malformed), `facets`, then a
    /// facet naming an unknown vertex.
    ///
    /// The flag is `true` iff the text read is byte for byte what
    /// [`Complex::write_json`] writes for the result.
    ///
    /// # Errors
    ///
    /// The first refusal above, or a syntax error anywhere in the value.
    pub fn read_json(r: &mut Reader<'_>) -> Result<(Complex, bool), JsonError> {
        let is_object = r.peek()? == Token::Object;
        let irregular = r.irregular();
        let (mut vertices, mut facets) = (None, None);
        let mut members = 0;
        let mut in_order = true;
        if is_object {
            r.object(|r, key| {
                in_order &= matches!((members, key.as_ref()), (0, "vertices") | (1, "facets"));
                members += 1;
                match key.as_ref() {
                    "vertices" if vertices.is_none() => vertices = Some(kept(read_vertices(r))?),
                    "facets" if facets.is_none() => {
                        facets = Some(kept(Simplex::read_json_list(r))?)
                    }
                    _ => r.skip()?,
                }
                Ok(())
            })?;
        } else {
            r.skip()?;
        }
        let (mut c, listed) = member(vertices, "vertices")?;
        let (facets, sorted) = member(facets, "facets")?;
        let n = c.num_vertices() as u32;
        if facets.iter().any(|f| f.iter().any(|v| v.0 >= n)) {
            return Err(JsonError::new("facet references unknown vertex"));
        }
        let listed_facets = facets.len();
        c.add_facets(facets);
        let canonical = in_order
            && members == 2
            && listed == c.num_vertices()
            && sorted
            && listed_facets == c.num_facets()
            && r.irregular() == irregular;
        Ok((c, canonical))
    }
}

/// The `vertices` member: each `[color, label]` pair into
/// [`Complex::ensure_vertex`]; also returns how many pairs were listed.
fn read_vertices(r: &mut Reader<'_>) -> Result<(Complex, usize), JsonError> {
    let mut c = Complex::new();
    let mut listed = 0;
    let mut bytes = Vec::new();
    r.array_or("expected array", |r| {
        bytes.clear();
        let color = r.uint_and_uints(&mut bytes).map(Color)?;
        c.ensure_vertex_bytes(color, &bytes);
        listed += 1;
        Ok(())
    })?;
    Ok((c, listed))
}

/// An adapter over [`Complex::read_json`]: the tree is rendered and read.
impl FromJson for Complex {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        read_all(&v.to_string(), Complex::read_json).map(|(c, _)| c)
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
    fn written_text_equals_rendered_tree() {
        let mut c = sds(&Complex::standard_simplex(2)).complex().clone();
        c.ensure_vertex(Color(7), Label::scalar(300)); // an isolated vertex
        let mut out = String::new();
        c.write_json(&mut out);
        assert_eq!(out, c.to_json().to_string());
        let mut empty = String::new();
        Complex::new().write_json(&mut empty);
        assert_eq!(empty, Complex::new().to_json().to_string());
    }

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
