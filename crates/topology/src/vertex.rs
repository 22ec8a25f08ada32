//! Vertex identities: colors (process names), vertex ids, and canonical labels.
//!
//! A vertex of a chromatic complex is a pair *(color, label)*. Colors play the
//! role of process identifiers (the paper identifies processor IDs with the
//! vertices of a simplex `sⁿ`, §3.1). Labels carry the semantic payload of a
//! vertex — an input value, or a *view* accumulated by the full-information
//! protocol. Labels use a canonical, self-contained byte encoding so that
//! vertices produced independently (e.g. by the combinatorial subdivision
//! construction and by exhaustive execution enumeration) compare equal exactly
//! when they denote the same mathematical object.

use std::fmt;
use std::sync::Arc;

/// A process identifier, doubling as a vertex color of a chromatic complex.
///
/// The paper's processes are `P₀ … Pₙ`; `Color(i)` names `Pᵢ`.
///
/// # Examples
///
/// ```
/// use iis_topology::Color;
/// let p0 = Color(0);
/// assert_eq!(p0.index(), 0);
/// assert_eq!(p0.to_string(), "P0");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct Color(pub u32);

impl Color {
    /// The color's index as a `usize`, convenient for array indexing.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Color {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

impl From<u32> for Color {
    fn from(v: u32) -> Self {
        Color(v)
    }
}

impl From<usize> for Color {
    fn from(v: usize) -> Self {
        Color(v as u32)
    }
}

/// Index of a vertex within one [`Complex`](crate::Complex).
///
/// Vertex ids are local to their complex: the same `(color, label)` pair may
/// receive different ids in different complexes.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct VertexId(pub u32);

impl VertexId {
    /// The id as a `usize`, convenient for array indexing.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for VertexId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// Tags for the canonical label encoding. Kept private; the encoding is an
/// implementation detail — only equality, ordering and hashing are promised.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Tag {
    Scalar = 1,
    Text = 2,
    View = 3,
    List = 4,
    Pair = 5,
}

/// A canonical vertex label.
///
/// Labels form a small algebra closed under nesting, sufficient to express
/// everything the paper manipulates:
///
/// - [`Label::scalar`] — an input value or process id,
/// - [`Label::text`] — a human-chosen symbolic value,
/// - [`Label::view`] — an immediate-snapshot view: a *set* of `(color, label)`
///   pairs (order-insensitive; the encoding sorts),
/// - [`Label::list`] — an ordered tuple of labels,
/// - [`Label::pair`] — a 2-tuple, convenience over `list`.
///
/// Two labels are equal iff they denote the same tree with the same
/// constructors — in particular views compare as sets.
///
/// The encoding is stored behind an [`Arc`], so cloning a label — which the
/// reference subdivision builder does for every vertex of every facet — is
/// a reference count bump, and a complex's vertex table and its `(color,
/// label)` lookup index share one buffer per label instead of duplicating
/// it. This is what keeps memory flat while [`crate::sds_iterated`] labels
/// `SDS^b` level by level.
///
/// # Examples
///
/// ```
/// use iis_topology::{Color, Label};
/// let a = Label::scalar(7);
/// let b = Label::scalar(7);
/// assert_eq!(a, b);
///
/// // Views are sets: insertion order does not matter.
/// let v1 = Label::view([(Color(0), &a), (Color(1), &b)]);
/// let v2 = Label::view([(Color(1), &b), (Color(0), &a)]);
/// assert_eq!(v1, v2);
/// ```
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Label(Arc<[u8]>);

impl Default for Label {
    fn default() -> Self {
        Label(Arc::from(Vec::new()))
    }
}

impl Label {
    /// A label wrapping a single unsigned integer.
    pub fn scalar(v: u64) -> Self {
        let mut buf = Vec::with_capacity(9);
        buf.push(Tag::Scalar as u8);
        buf.extend_from_slice(&v.to_be_bytes());
        Label(buf.into())
    }

    /// A label wrapping UTF-8 text.
    pub fn text(s: &str) -> Self {
        let mut buf = Vec::with_capacity(1 + 8 + s.len());
        buf.push(Tag::Text as u8);
        buf.extend_from_slice(&(s.len() as u64).to_be_bytes());
        buf.extend_from_slice(s.as_bytes());
        Label(buf.into())
    }

    /// A *view* label: the set of `(color, label)` pairs a process observed.
    ///
    /// The encoding is canonical: entries are sorted by `(color, label)` and
    /// deduplicated, so views constructed in any order compare equal.
    pub fn view<'a, I>(entries: I) -> Self
    where
        I: IntoIterator<Item = (Color, &'a Label)>,
    {
        Self::view_of(&mut entries.into_iter().collect(), &mut Vec::new())
    }

    /// [`Label::view`] of `items`, which it sorts in place, encoded through
    /// `buf`: for builders that reuse both buffers across many views.
    pub(crate) fn view_of(items: &mut Vec<(Color, &Label)>, buf: &mut Vec<u8>) -> Self {
        items.sort_by(|a, b| a.0.cmp(&b.0).then_with(|| a.1.cmp(b.1)));
        items.dedup_by(|a, b| a.0 == b.0 && a.1 == b.1);
        buf.clear();
        buf.reserve(9 + items.iter().map(|(_, l)| 12 + l.0.len()).sum::<usize>());
        buf.push(Tag::View as u8);
        buf.extend_from_slice(&(items.len() as u64).to_be_bytes());
        for (c, l) in items {
            buf.extend_from_slice(&c.0.to_be_bytes());
            buf.extend_from_slice(&(l.0.len() as u64).to_be_bytes());
            buf.extend_from_slice(&l.0);
        }
        Label(Arc::from(&buf[..]))
    }

    /// An ordered tuple of labels.
    pub fn list<'a, I>(entries: I) -> Self
    where
        I: IntoIterator<Item = &'a Label>,
    {
        let items: Vec<&Label> = entries.into_iter().collect();
        let mut buf = Vec::new();
        buf.push(Tag::List as u8);
        buf.extend_from_slice(&(items.len() as u64).to_be_bytes());
        for l in items {
            buf.extend_from_slice(&(l.0.len() as u64).to_be_bytes());
            buf.extend_from_slice(&l.0);
        }
        Label(buf.into())
    }

    /// A 2-tuple of labels.
    pub fn pair(a: &Label, b: &Label) -> Self {
        let mut buf = Vec::with_capacity(1 + 16 + a.0.len() + b.0.len());
        buf.push(Tag::Pair as u8);
        buf.extend_from_slice(&(a.0.len() as u64).to_be_bytes());
        buf.extend_from_slice(&a.0);
        buf.extend_from_slice(&(b.0.len() as u64).to_be_bytes());
        buf.extend_from_slice(&b.0);
        Label(buf.into())
    }

    /// If the label was built by [`Label::scalar`], its value.
    pub fn as_scalar(&self) -> Option<u64> {
        if self.0.first() == Some(&(Tag::Scalar as u8)) && self.0.len() == 9 {
            let mut b = [0u8; 8];
            b.copy_from_slice(&self.0[1..9]);
            Some(u64::from_be_bytes(b))
        } else {
            None
        }
    }

    /// If the label was built by [`Label::text`], its contents.
    pub fn as_text(&self) -> Option<&str> {
        if self.0.first() == Some(&(Tag::Text as u8)) && self.0.len() >= 9 {
            std::str::from_utf8(&self.0[9..]).ok()
        } else {
            None
        }
    }

    /// If the label is a view, decode it back into `(color, label)` pairs in
    /// canonical (sorted) order.
    pub fn as_view(&self) -> Option<Vec<(Color, Label)>> {
        if self.0.first() != Some(&(Tag::View as u8)) {
            return None;
        }
        let mut pos = 1usize;
        let n = read_u64(&self.0, &mut pos)? as usize;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            let mut cb = [0u8; 4];
            cb.copy_from_slice(self.0.get(pos..pos + 4)?);
            pos += 4;
            let color = Color(u32::from_be_bytes(cb));
            let len = read_u64(&self.0, &mut pos)? as usize;
            let bytes = self.0.get(pos..pos + len)?.to_vec();
            pos += len;
            out.push((color, Label(bytes.into())));
        }
        Some(out)
    }

    /// The canonical encoding, for serialization.
    pub(crate) fn bytes(&self) -> &[u8] {
        &self.0
    }

    /// Rebuilds a label from its canonical encoding (serialization only;
    /// the bytes are trusted to the same degree a hand-edited JSON file is).
    pub(crate) fn from_bytes(bytes: &[u8]) -> Self {
        Label(bytes.into())
    }
}

fn read_u64(buf: &[u8], pos: &mut usize) -> Option<u64> {
    let mut b = [0u8; 8];
    b.copy_from_slice(buf.get(*pos..*pos + 8)?);
    *pos += 8;
    Some(u64::from_be_bytes(b))
}

impl fmt::Debug for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(v) = self.as_scalar() {
            return write!(f, "Label({v})");
        }
        if let Some(s) = self.as_text() {
            return write!(f, "Label({s:?})");
        }
        if let Some(entries) = self.as_view() {
            let mut d = f.debug_set();
            for (c, l) in entries {
                d.entry(&(c, l));
            }
            return d.finish();
        }
        write!(f, "Label(<{} bytes>)", self.0.len())
    }
}

impl fmt::Display for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(v) = self.as_scalar() {
            write!(f, "{v}")
        } else if let Some(s) = self.as_text() {
            write!(f, "{s}")
        } else if let Some(entries) = self.as_view() {
            write!(f, "{{")?;
            for (i, (c, l)) in entries.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{c}:{l}")?;
            }
            write!(f, "}}")
        } else {
            write!(f, "<label>")
        }
    }
}

impl From<u64> for Label {
    fn from(v: u64) -> Self {
        Label::scalar(v)
    }
}

impl From<&str> for Label {
    fn from(s: &str) -> Self {
        Label::text(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_roundtrip() {
        for v in [0u64, 1, 42, u64::MAX] {
            assert_eq!(Label::scalar(v).as_scalar(), Some(v));
        }
    }

    #[test]
    fn text_roundtrip() {
        assert_eq!(Label::text("hello").as_text(), Some("hello"));
        assert_eq!(Label::text("").as_text(), Some(""));
    }

    #[test]
    fn scalar_is_not_text() {
        assert_eq!(Label::scalar(3).as_text(), None);
        assert_eq!(Label::text("3").as_scalar(), None);
    }

    #[test]
    fn view_is_order_insensitive() {
        let a = Label::scalar(1);
        let b = Label::scalar(2);
        let v1 = Label::view([(Color(0), &a), (Color(1), &b)]);
        let v2 = Label::view([(Color(1), &b), (Color(0), &a)]);
        assert_eq!(v1, v2);
    }

    #[test]
    fn view_dedups() {
        let a = Label::scalar(1);
        let v1 = Label::view([(Color(0), &a), (Color(0), &a)]);
        let v2 = Label::view([(Color(0), &a)]);
        assert_eq!(v1, v2);
    }

    #[test]
    fn view_roundtrip() {
        let a = Label::scalar(1);
        let b = Label::text("x");
        let v = Label::view([(Color(2), &b), (Color(0), &a)]);
        let decoded = v.as_view().unwrap();
        assert_eq!(decoded, vec![(Color(0), a), (Color(2), b)]);
    }

    #[test]
    fn nested_views_distinguish_depth() {
        let a = Label::scalar(1);
        let v = Label::view([(Color(0), &a)]);
        let vv = Label::view([(Color(0), &v)]);
        assert_ne!(v, vv);
    }

    #[test]
    fn distinct_constructors_distinct_labels() {
        let a = Label::scalar(1);
        let b = Label::scalar(2);
        assert_ne!(Label::pair(&a, &b), Label::list([&a, &b]));
        assert_ne!(Label::pair(&a, &b), Label::pair(&b, &a));
        assert_eq!(Label::list([&a, &b]), Label::list([&a, &b]));
    }

    #[test]
    fn empty_view_and_empty_list_differ() {
        let v = Label::view(std::iter::empty::<(Color, &Label)>());
        let l = Label::list(std::iter::empty::<&Label>());
        assert_ne!(v, l);
    }

    #[test]
    fn color_display_and_conversions() {
        assert_eq!(Color::from(3usize), Color(3));
        assert_eq!(Color::from(3u32), Color(3));
        assert_eq!(format!("{}", Color(5)), "P5");
        assert_eq!(format!("{}", VertexId(5)), "v5");
    }

    #[test]
    fn label_display_forms() {
        assert_eq!(Label::scalar(7).to_string(), "7");
        assert_eq!(Label::text("ab").to_string(), "ab");
        let a = Label::scalar(1);
        let v = Label::view([(Color(0), &a)]);
        assert_eq!(v.to_string(), "{P0:1}");
    }
}
