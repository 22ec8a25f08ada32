//! The task formalism of §3.2: input complex, output complex, and the
//! carrier map `Δ`.

use iis_obs::json::{kept, member, read_all, JsonError, Reader, Token};
use iis_topology::{Color, Complex, Label, Simplex};
use std::borrow::Borrow;
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Ways a [`Task`] can fail validation.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum TaskError {
    /// The input complex is not chromatic.
    InputNotChromatic,
    /// The output complex is not chromatic.
    OutputNotChromatic,
    /// A `Δ` key is not a simplex of the input complex.
    DeltaKeyNotInput(Simplex),
    /// A `Δ` value is not a simplex of the output complex.
    DeltaValueNotOutput(Simplex),
    /// `Δ` maps an input simplex to an output simplex of different colors
    /// (the map must satisfy `X(sᵢ) = X(sₒ)`, §3.2).
    ColorMismatch {
        /// The input simplex.
        input: Simplex,
        /// The offending output simplex.
        output: Simplex,
    },
    /// An input simplex has no allowed outputs — the task would be
    /// unsolvable by fiat.
    EmptyDelta(Simplex),
}

impl fmt::Display for TaskError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::InputNotChromatic => write!(f, "input complex is not chromatic"),
            Self::OutputNotChromatic => write!(f, "output complex is not chromatic"),
            Self::DeltaKeyNotInput(s) => write!(f, "Δ key {s} is not an input simplex"),
            Self::DeltaValueNotOutput(s) => write!(f, "Δ value {s} is not an output simplex"),
            Self::ColorMismatch { input, output } => {
                write!(f, "Δ({input}) contains {output} with different colors")
            }
            Self::EmptyDelta(s) => write!(f, "Δ({s}) is empty"),
        }
    }
}

impl std::error::Error for TaskError {}

/// A distributed task `T = (Iⁿ, Oⁿ, Δ)` (§3.2).
///
/// `Δ` maps each input simplex (a participating set with its inputs) to the
/// set of full output tuples those processes may produce; a *partial*
/// decision is acceptable if it extends to one of them
/// ([`Task::allows`]), matching the paper's definition of wait-free
/// solvability (§3.3: the produced tuple "can be extended to an output
/// simplex in `Δ(sᵢ)`").
///
/// Build tasks with [`TaskBuilder`]; ready-made constructions live in
/// [`crate::library`].
#[derive(Clone, Debug)]
pub struct Task {
    name: String,
    input: Complex,
    output: Complex,
    delta: BTreeMap<Simplex, Vec<Simplex>>,
    /// Memoized canonical JSON encoding — tasks are immutable once built,
    /// and content-addressed callers (`iis_core::cache::cache_key`) hash
    /// this string on every request, so serializing once pays off.
    canonical: std::sync::OnceLock<String>,
}

impl Task {
    /// The task's human-readable name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The input complex `Iⁿ`.
    pub fn input(&self) -> &Complex {
        &self.input
    }

    /// The output complex `Oⁿ`.
    pub fn output(&self) -> &Complex {
        &self.output
    }

    /// The full output tuples allowed for input simplex `si` (empty slice if
    /// `si` is not a `Δ` key). `si` may be a [`Simplex`] or its sorted
    /// vertex ids, `&[VertexId]`.
    pub fn delta<Q: Ord + ?Sized>(&self, si: &Q) -> &[Simplex]
    where
        Simplex: Borrow<Q>,
    {
        self.delta.get(si).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Iterates over all `(input simplex, allowed outputs)` entries.
    pub fn delta_entries(&self) -> impl Iterator<Item = (&Simplex, &[Simplex])> {
        self.delta.iter().map(|(k, v)| (k, v.as_slice()))
    }

    /// `true` iff the (possibly partial) output simplex `t` is acceptable
    /// for input simplex `si`: some `sₒ ∈ Δ(si)` has `t ⊆ sₒ`.
    pub fn allows(&self, si: &Simplex, t: &Simplex) -> bool {
        self.delta(si).iter().any(|so| t.is_face_of(so))
    }

    /// Looks up an output vertex by `(color, label)`.
    pub fn output_vertex(&self, color: Color, label: &Label) -> Option<iis_topology::VertexId> {
        self.output.vertex_id(color, label)
    }

    /// The canonical JSON encoding of the task, serialized once and
    /// memoized (tasks are immutable after [`TaskBuilder::build`]).
    ///
    /// Structurally equal tasks produce identical strings — `delta` is
    /// BTreeMap-ordered and the complexes serialize in construction order —
    /// so this is a valid content-address preimage. The text is written
    /// directly by [`Task::write_canonical`], with no `Json` tree in
    /// between, and is byte-identical to `self.to_json().to_string()`.
    pub fn canonical_json(&self) -> &str {
        self.canonical.get_or_init(|| {
            let mut out = String::new();
            self.write_canonical(&mut out);
            out
        })
    }

    /// Appends the canonical JSON encoding (see [`Task::canonical_json`])
    /// to `out` without memoizing it — for a caller that hashes the text
    /// once and drops it.
    ///
    /// # Examples
    ///
    /// ```
    /// use iis_obs::ToJson;
    /// let task = iis_tasks::library::approximate_agreement(1, 3);
    /// let mut text = String::new();
    /// task.write_canonical(&mut text);
    /// assert_eq!(text, task.to_json().to_string());
    /// ```
    pub fn write_canonical(&self, out: &mut String) {
        use iis_obs::json::{write_array, write_string};
        out.push_str("{\"name\":");
        write_string(out, &self.name);
        out.push_str(",\"input\":");
        self.input.write_json(out);
        out.push_str(",\"output\":");
        self.output.write_json(out);
        out.push_str(",\"delta\":");
        write_array(out, &self.delta, |out, (si, outs)| {
            out.push('[');
            si.write_json(out);
            out.push(',');
            write_array(out, outs, |out, so| so.write_json(out));
            out.push(']');
        });
        out.push('}');
    }

    /// `true` iff `Δ` is *monotone*: for every input face `sq ⊆ si`, every
    /// tuple allowed at `sq` extends tuples allowed at... precisely: each
    /// `sₒ ∈ Δ(sq)` is a face of the restriction to `X(sq)` of... The
    /// practically useful direction for solvability is: for faces `sq ⊆ si`,
    /// the restriction of any `sₒ ∈ Δ(si)` to the colors of `sq` is allowed
    /// at `sq`. This checks that direction.
    pub fn is_delta_monotone(&self) -> bool {
        for (si, outs) in &self.delta {
            for sq in si.faces() {
                if sq == *si {
                    continue;
                }
                let colors: BTreeSet<Color> = sq.iter().map(|v| self.input.color(v)).collect();
                for so in outs {
                    let restricted = Simplex::new(
                        so.iter()
                            .filter(|&w| colors.contains(&self.output.color(w))),
                    );
                    if !self.allows(&sq, &restricted) {
                        return false;
                    }
                }
            }
        }
        true
    }
}

impl fmt::Display for Task {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} (inputs: {} facets, outputs: {} facets, Δ entries: {})",
            self.name,
            self.input.num_facets(),
            self.output.num_facets(),
            self.delta.len()
        )
    }
}

/// Incremental constructor for [`Task`]s.
///
/// # Examples
///
/// ```
/// use iis_tasks::TaskBuilder;
/// use iis_topology::{Complex, Simplex};
///
/// let input = Complex::standard_simplex(1);
/// let output = Complex::standard_simplex(1);
/// let full_in = Simplex::new(input.vertex_ids());
/// let full_out = Simplex::new(output.vertex_ids());
/// let mut b = TaskBuilder::new("identity", input, output);
/// b.allow(full_in.clone(), full_out.clone());
/// for (fi, fo) in full_in.faces().into_iter().zip(full_out.faces()) {
///     b.allow(fi, fo);
/// }
/// let task = b.build()?;
/// assert!(task.allows(&full_in, &full_out));
/// # Ok::<(), iis_tasks::TaskError>(())
/// ```
#[derive(Clone, Debug)]
pub struct TaskBuilder {
    name: String,
    input: Complex,
    output: Complex,
    delta: BTreeMap<Simplex, Vec<Simplex>>,
}

impl TaskBuilder {
    /// Starts a task with the given complexes and an empty `Δ`.
    pub fn new(name: impl Into<String>, input: Complex, output: Complex) -> Self {
        TaskBuilder {
            name: name.into(),
            input,
            output,
            delta: BTreeMap::new(),
        }
    }

    /// The input complex (to look up vertex ids while building `Δ`).
    pub fn input(&self) -> &Complex {
        &self.input
    }

    /// The output complex (to look up vertex ids while building `Δ`).
    pub fn output(&self) -> &Complex {
        &self.output
    }

    /// Allows output tuple `so` for input simplex `si` (duplicates are
    /// dropped at `build`).
    pub fn allow(&mut self, si: Simplex, so: Simplex) -> &mut Self {
        self.delta.entry(si).or_default().push(so);
        self
    }

    /// Validates and finishes the task.
    ///
    /// # Errors
    ///
    /// Returns the first [`TaskError`] violated.
    pub fn build(mut self) -> Result<Task, TaskError> {
        if !self.input.is_chromatic() {
            return Err(TaskError::InputNotChromatic);
        }
        if !self.output.is_chromatic() {
            return Err(TaskError::OutputNotChromatic);
        }
        let inputs = self.input.facet_index();
        let outputs = self.output.facet_index();
        let mut in_colors = Vec::new();
        for (si, outs) in &mut self.delta {
            if !inputs.contains_simplex(si) || si.is_empty() {
                return Err(TaskError::DeltaKeyNotInput(si.clone()));
            }
            // as a task lists them, the outputs are sorted and distinct
            if !outs.windows(2).all(|w| w[0] < w[1]) {
                outs.sort();
                outs.dedup();
            }
            if outs.is_empty() {
                return Err(TaskError::EmptyDelta(si.clone()));
            }
            in_colors.clear();
            in_colors.extend(si.iter().map(|v| self.input.color(v)));
            for so in outs.iter() {
                if !outputs.contains_simplex(so) {
                    return Err(TaskError::DeltaValueNotOutput(so.clone()));
                }
                // both complexes are chromatic, so each simplex's colors
                // are distinct: the sets are equal iff the sizes are and
                // every output color is an input color
                let same = so.len() == si.len()
                    && so.iter().all(|w| in_colors.contains(&self.output.color(w)));
                if !same {
                    return Err(TaskError::ColorMismatch {
                        input: si.clone(),
                        output: so.clone(),
                    });
                }
            }
        }
        Ok(Task {
            name: self.name,
            input: self.input,
            output: self.output,
            delta: self.delta,
            canonical: std::sync::OnceLock::new(),
        })
    }
}

impl Task {
    /// Reads a task from `r`: the one task decoder. The input and output
    /// are read by [`Complex::read_json`], `Δ` goes into a
    /// [`TaskBuilder`], and the task is validated by
    /// [`TaskBuilder::build`], so hand-edited text cannot produce an
    /// ill-formed task. Members may come in any order and whitespace;
    /// unknown ones are ignored and the first of a repeated one is read.
    /// Refusals are those of the parsed tree, in its order: `name`,
    /// `input`, `output`, `delta` (each missing, then malformed), then the
    /// builder's [`TaskError`].
    ///
    /// The flag is `true` iff the text read is byte for byte what
    /// [`Task::write_canonical`] writes for the task, so that span can
    /// stand in for the canonical encoding without rendering it.
    ///
    /// # Errors
    ///
    /// The first refusal above, or a syntax error anywhere in the value.
    ///
    /// # Examples
    ///
    /// ```
    /// use iis_obs::json::Reader;
    /// use iis_tasks::Task;
    /// let task = iis_tasks::library::approximate_agreement(1, 3);
    /// let text = task.canonical_json();
    /// let (read, canonical) = Task::read_json(&mut Reader::new(text)).unwrap();
    /// assert!(canonical);
    /// assert_eq!(read.canonical_json(), text);
    /// let spaced = text.replacen(':', ": ", 1);
    /// assert!(!Task::read_json(&mut Reader::new(&spaced)).unwrap().1);
    /// ```
    pub fn read_json(r: &mut Reader<'_>) -> Result<(Task, bool), JsonError> {
        let is_object = r.peek()? == Token::Object;
        let irregular = r.irregular();
        let (mut name, mut input, mut output, mut delta) = (None, None, None, None);
        let mut members = 0;
        let mut in_order = true;
        if is_object {
            r.object(|r, key| {
                in_order &= matches!(
                    (members, key.as_ref()),
                    (0, "name") | (1, "input") | (2, "output") | (3, "delta")
                );
                members += 1;
                match key.as_ref() {
                    "name" if name.is_none() => name = Some(kept(read_name(r))?),
                    "input" if input.is_none() => input = Some(kept(Complex::read_json(r))?),
                    "output" if output.is_none() => output = Some(kept(Complex::read_json(r))?),
                    "delta" if delta.is_none() => delta = Some(kept(read_delta(r))?),
                    _ => r.skip()?,
                }
                Ok(())
            })?;
        } else {
            r.skip()?;
        }
        let name = member(name, "name")?;
        let (input, input_canonical) = member(input, "input")?;
        let (output, output_canonical) = member(output, "output")?;
        let (delta, delta_canonical) = member(delta, "delta")?;
        let mut b = TaskBuilder::new(name, input, output);
        for (si, outs) in delta {
            match b.delta.entry(si) {
                Entry::Vacant(slot) => drop(slot.insert(outs)),
                Entry::Occupied(mut slot) => slot.get_mut().extend(outs),
            }
        }
        let task = b.build().map_err(|e| JsonError::new(e.to_string()))?;
        let canonical = in_order
            && members == 4
            && input_canonical
            && output_canonical
            && delta_canonical
            && r.irregular() == irregular;
        Ok((task, canonical))
    }
}

/// The `name` member, as `String::from_json` takes it.
fn read_name(r: &mut Reader<'_>) -> Result<String, JsonError> {
    if r.peek()? == Token::String {
        return Ok(r.string()?.into_owned());
    }
    r.skip()?;
    Err(JsonError::new("expected string"))
}

/// `Δ` entries as a text lists them.
type DeltaEntries = Vec<(Simplex, Vec<Simplex>)>;

/// The `delta` member, `[[si, [so, …]], …]`, as listed. The flag is
/// `true` iff it is listed as a task writes it: keys strictly increasing,
/// each with a non-empty, strictly increasing list of outputs, every
/// simplex's ids strictly increasing.
fn read_delta(r: &mut Reader<'_>) -> Result<(DeltaEntries, bool), JsonError> {
    let mut entries: DeltaEntries = Vec::new();
    let mut sorted = true;
    r.array_or("expected array", |r| {
        let ((si, si_sorted), (outs, outs_sorted)) =
            r.pair(Simplex::read_json, Simplex::read_json_list)?;
        sorted &= si_sorted
            && outs_sorted
            && !outs.is_empty()
            && entries.last().is_none_or(|(last, _)| *last < si);
        entries.push((si, outs));
        Ok(())
    })?;
    Ok((entries, sorted))
}

/// JSON form: `{"name", "input", "output", "delta": [[si, [so, …]], …]}`.
/// Deserialization re-validates through [`TaskBuilder`], so hand-edited
/// task files cannot produce ill-formed tasks.
impl iis_obs::ToJson for Task {
    fn to_json(&self) -> iis_obs::Json {
        let delta: Vec<(Simplex, Vec<Simplex>)> = self
            .delta
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();
        iis_obs::Json::obj([
            ("name", self.name.to_json()),
            ("input", self.input.to_json()),
            ("output", self.output.to_json()),
            ("delta", delta.to_json()),
        ])
    }
}

/// An adapter over [`Task::read_json`]: the tree is rendered and read.
impl iis_obs::FromJson for Task {
    fn from_json(v: &iis_obs::Json) -> Result<Self, JsonError> {
        read_all(&v.to_string(), Task::read_json).map(|(task, _)| task)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iis_topology::Label;

    fn identity_task() -> Task {
        let input = Complex::standard_simplex(1);
        let output = Complex::standard_simplex(1);
        let mut b = TaskBuilder::new("identity", input.clone(), output);
        for si in Complex::standard_simplex(1).simplices() {
            b.allow(si.clone(), si.clone());
        }
        b.build().unwrap()
    }

    #[test]
    fn identity_task_builds_and_allows() {
        let t = identity_task();
        assert_eq!(t.name(), "identity");
        let full = Simplex::new(t.input().vertex_ids());
        assert!(t.allows(&full, &full));
        // partial decisions extend
        let v0 = Simplex::new([t.input().vertex_ids().next().unwrap()]);
        assert!(t.allows(&full, &v0));
        assert!(t.allows(&full, &Simplex::empty()));
        assert!(t.is_delta_monotone());
        assert!(!t.to_string().is_empty());
        assert_eq!(t.delta_entries().count(), 3);
    }

    #[test]
    fn unknown_key_has_no_outputs() {
        let t = identity_task();
        let bogus = Simplex::new([iis_topology::VertexId(99)]);
        assert!(t.delta(&bogus).is_empty());
        assert!(!t.allows(&bogus, &Simplex::empty()));
    }

    #[test]
    fn color_mismatch_rejected() {
        let input = Complex::standard_simplex(1);
        let output = Complex::standard_simplex(1);
        let in_full = Simplex::new(input.vertex_ids());
        let out_v0 = Simplex::new([output.vertex_ids().next().unwrap()]);
        let mut b = TaskBuilder::new("bad", input, output);
        b.allow(in_full, out_v0);
        assert!(matches!(b.build(), Err(TaskError::ColorMismatch { .. })));
    }

    #[test]
    fn non_chromatic_input_rejected() {
        let mut input = Complex::new();
        let a = input.ensure_vertex(Color(0), Label::scalar(0));
        let b2 = input.ensure_vertex(Color(0), Label::scalar(1));
        input.add_facet([a, b2]);
        let b = TaskBuilder::new("bad", input, Complex::standard_simplex(1));
        assert_eq!(b.build().unwrap_err(), TaskError::InputNotChromatic);
    }

    #[test]
    fn delta_key_not_in_input_rejected() {
        let input = Complex::standard_simplex(0);
        let output = Complex::standard_simplex(0);
        let mut b = TaskBuilder::new("bad", input, output);
        b.allow(
            Simplex::new([iis_topology::VertexId(5)]),
            Simplex::new([iis_topology::VertexId(0)]),
        );
        assert!(matches!(b.build(), Err(TaskError::DeltaKeyNotInput(_))));
    }

    #[test]
    fn delta_value_not_in_output_rejected() {
        let input = Complex::standard_simplex(0);
        let output = Complex::standard_simplex(0);
        let mut b = TaskBuilder::new("bad", input, output);
        b.allow(
            Simplex::new([iis_topology::VertexId(0)]),
            Simplex::new([iis_topology::VertexId(5)]),
        );
        assert!(matches!(b.build(), Err(TaskError::DeltaValueNotOutput(_))));
    }

    #[test]
    fn duplicates_deduped() {
        let input = Complex::standard_simplex(0);
        let output = Complex::standard_simplex(0);
        let s = Simplex::new([iis_topology::VertexId(0)]);
        let mut b = TaskBuilder::new("dup", input, output);
        b.allow(s.clone(), s.clone());
        b.allow(s.clone(), s.clone());
        let t = b.build().unwrap();
        assert_eq!(t.delta(&s).len(), 1);
    }

    #[test]
    fn output_vertex_lookup() {
        let t = identity_task();
        assert!(t.output_vertex(Color(0), &Label::scalar(0)).is_some());
        assert!(t.output_vertex(Color(0), &Label::scalar(9)).is_none());
    }

    #[test]
    fn task_json_roundtrip() {
        use iis_obs::{Json, ToJson};
        let t = crate::library::k_set_consensus(1, 1);
        let json = t.to_json().to_string();
        let back: Task = Json::parse_as(&json).unwrap();
        assert_eq!(t.name(), back.name());
        assert!(t.input().same_labeled(back.input()));
        assert!(t.output().same_labeled(back.output()));
        assert_eq!(t.delta_entries().count(), back.delta_entries().count());
        for (si, outs) in t.delta_entries() {
            assert_eq!(back.delta(si), outs);
        }
    }

    #[test]
    fn task_deserialize_revalidates() {
        use iis_obs::{FromJson, Json, ToJson};
        // corrupt a serialized task: Δ value not in the output complex
        let t = identity_task();
        let mut v = t.to_json();
        if let Json::Obj(members) = &mut v {
            let delta = members
                .iter_mut()
                .find(|(k, _)| k == "delta")
                .map(|(_, v)| v)
                .unwrap();
            if let Json::Arr(entries) = delta {
                if let Json::Arr(pair) = &mut entries[0] {
                    pair[1] = Json::Arr(vec![Json::Arr(vec![Json::Num(99.0)])]);
                }
            }
        }
        assert!(Task::from_json(&v).is_err());
    }

    #[test]
    fn error_display_nonempty() {
        let errs: Vec<TaskError> = vec![
            TaskError::InputNotChromatic,
            TaskError::OutputNotChromatic,
            TaskError::DeltaKeyNotInput(Simplex::empty()),
            TaskError::DeltaValueNotOutput(Simplex::empty()),
            TaskError::ColorMismatch {
                input: Simplex::empty(),
                output: Simplex::empty(),
            },
            TaskError::EmptyDelta(Simplex::empty()),
        ];
        for e in errs {
            assert!(!e.to_string().is_empty());
        }
    }
}
