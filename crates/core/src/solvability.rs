//! The wait-free solvability decision procedure — Proposition 3.1 made
//! effective for a fixed number of rounds.
//!
//! A bounded-input task `T = (I, O, Δ)` is wait-free solvable in the IIS
//! model iff for some `b` there is a color-preserving simplicial map
//! `δ : SDS^b(I) → O` with `δ(s) ∈ Δ(carrier(s))` for every simplex `s`
//! (Proposition 3.1); by the emulation theorem (§4) the same condition
//! characterizes the atomic snapshot model. Solvability over *all* `b` is
//! undecidable for three or more processes (\[9\]), so this module decides
//! the fixed-`b` question exactly and sweeps `b = 0..=max`.
//!
//! The search is a finite CSP: one variable per vertex of `SDS^b(I)`
//! (domain: output vertices of the same color allowed at the vertex's
//! carrier), one constraint per simplex (the image must extend to a tuple
//! in `Δ` of the simplex's carrier). We run generalized arc consistency to
//! a fixpoint, then backtrack with propagation — complete for both
//! solvable and unsolvable instances. The search runs on the compiled
//! kernel in [`crate::csp`]; [`crate::reference`] keeps a second,
//! sequential engine as its test oracle.

use crate::cache::{keep_skeleton, skeleton, KeyedTask};
use crate::certificate::find_certificate;
use crate::csp::{profile_now, CompiledTable, Halt, Skeleton};
use iis_obs::metrics::StaticCounter;
use iis_tasks::Task;
use iis_topology::arena::ArenaSds;
use iis_topology::{ordered_bell, Complex, Simplex, SimplicialMap, Subdivision, VertexId};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

/// A witness that a task is solvable in `b` IIS rounds: the decision map
/// `δ : SDS^b(I) → O` together with the label-free arena tower `SDS^b(I)`
/// it lives on — one instance per input shape and `b`, shared with the
/// memoized constraint skeleton the search ran on or the stored witness
/// was checked against. Vertex `v` of the tower is vertex `v` of the
/// labelled `sds_iterated(I, b)` (DESIGN.md §14).
#[derive(Clone, Debug)]
pub struct DecisionMap {
    tower: Arc<ArenaSds>,
    map: SimplicialMap,
}

impl DecisionMap {
    /// A witness on `tower`: a search result, a lift, or a record loaded
    /// from the persistent cache. On the load path the caller is
    /// responsible for semantic validation — see
    /// [`crate::cache::report_from_json`], which checks the map against
    /// the memoized skeleton of the task's own input, so a corrupted store
    /// can never smuggle in an ill-formed witness.
    pub(crate) fn new(tower: Arc<ArenaSds>, map: SimplicialMap) -> Self {
        DecisionMap { tower, map }
    }

    /// The number of IIS rounds.
    pub fn rounds(&self) -> usize {
        self.tower.rounds()
    }

    /// The subdivision `SDS^b(I)` the map is defined on, in arena form.
    pub fn tower(&self) -> &ArenaSds {
        &self.tower
    }

    /// The vertex map `δ`.
    pub fn map(&self) -> &SimplicialMap {
        &self.map
    }
}

/// The outcome of sweeping `b = 0..=max_rounds`.
#[derive(Debug)]
pub struct SolvabilityReport {
    task_name: String,
    results: Vec<(usize, bool)>,
    witness: Option<DecisionMap>,
    /// What decided each verdict of `results`, one for one.
    deciders: Vec<Decider>,
    /// What stopped the sweep undecided ([`SolvabilityReport::stopped`]).
    stopped: Option<BoundedOutcome>,
}

impl SolvabilityReport {
    /// Reassembles a report from its parts (the persistent-cache load path;
    /// see [`crate::cache`]).
    pub(crate) fn from_parts(
        task_name: String,
        results: Vec<(usize, bool)>,
        witness: Option<DecisionMap>,
    ) -> Self {
        SolvabilityReport {
            task_name,
            results,
            witness,
            deciders: Vec::new(),
            stopped: None,
        }
    }

    /// The task's name.
    pub fn task_name(&self) -> &str {
        &self.task_name
    }

    /// Per-`b` verdicts, in increasing `b`.
    pub fn results(&self) -> &[(usize, bool)] {
        &self.results
    }

    /// The smallest `b` at which a decision map exists, if any was found.
    pub fn first_solvable(&self) -> Option<usize> {
        self.results.iter().find(|(_, ok)| *ok).map(|(b, _)| *b)
    }

    /// The decision map at `first_solvable`, if any.
    pub fn witness(&self) -> Option<&DecisionMap> {
        self.witness.as_ref()
    }

    /// What decided each verdict of [`results`](SolvabilityReport::results),
    /// one for one; none for a report read back from a store.
    pub fn deciders(&self) -> &[Decider] {
        &self.deciders
    }

    /// The outcome that stopped the sweep undecided at round
    /// `results().len()` (`Exhausted`, `TimedOut` or `TooLarge`); `None`
    /// when it decided: a witness, or every round asked refuted exactly.
    pub fn stopped(&self) -> Option<&BoundedOutcome> {
        self.stopped.as_ref()
    }

    /// Why the sweep stopped undecided, in words naming the round; `None`
    /// when it decided.
    pub fn stop_reason(&self) -> Option<String> {
        Some(stopped_at(self.results.len(), self.stopped.as_ref()?))
    }
}

/// Why round `b` stopped undecided at `stop`, in words naming the round.
pub(crate) fn stopped_at(b: usize, stop: &BoundedOutcome) -> String {
    match stop {
        BoundedOutcome::TimedOut => format!("deadline exceeded: search stopped at b = {b}"),
        BoundedOutcome::TooLarge { facets } => format!(
            "SDS^{b}(I) would have {facets} facets, past the cap of {TOWER_FACET_CAP}; nothing was built"
        ),
        // `Exhausted`, the one other outcome a sweep stops at
        _ => format!("search exhausted at b = {b}"),
    }
}

impl fmt::Display for SolvabilityReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (name, max) = (&self.task_name, self.results.len().saturating_sub(1));
        match (self.first_solvable(), self.stop_reason()) {
            (Some(b), _) => write!(f, "{name}: solvable at b = {b}"),
            (None, Some(why)) => write!(f, "{name}: undecided — {why}"),
            (None, None) => write!(f, "{name}: no decision map up to b = {max}"),
        }
    }
}

/// Validates a decision map against Proposition 3.1's conditions:
/// simpliciality, color preservation, and `δ(s) ∈ Δ(carrier(s))` for every
/// simplex of the subdivision.
///
/// # Errors
///
/// Returns a description of the first violated condition.
pub fn validate_decision_map(
    task: &Task,
    sub: &Subdivision,
    map: &SimplicialMap,
) -> Result<(), String> {
    let c = sub.complex();
    map.verify_simplicial(c, task.output())
        .map_err(|e| format!("not simplicial: {e}"))?;
    for v in c.vertex_ids() {
        let w = map.image(v).ok_or_else(|| format!("vertex {v} unmapped"))?;
        if c.color(v) != task.output().color(w) {
            return Err(format!("vertex {v} changes color"));
        }
    }
    let mut violation = None;
    c.for_each_simplex(|s| {
        if violation.is_some() {
            return;
        }
        let carrier = sub.carrier_of_simplex(s);
        let image = map.image_simplex(s);
        if !task.allows(&carrier, &image) {
            violation = Some(format!(
                "simplex {s} (carrier {carrier}) decides {image} ∉ Δ(carrier)"
            ));
        }
    });
    match violation {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

/// [`validate_decision_map`] on a compiled constraint skeleton, for a map
/// in hand (the debug re-checks of search results and lifts). A stored
/// witness is read straight into the dense image table instead
/// ([`crate::cache::validate_record`]) and meets the same two checks,
/// [`check_image`] per vertex and [`check_simplices`].
///
/// # Errors
///
/// Returns a description of the first violated condition.
pub(crate) fn check_decision_map(
    q: &KeyedTask,
    skel: &Skeleton,
    map: &SimplicialMap,
) -> Result<(), String> {
    let c = skel.tower().complex();
    let mut image: Vec<VertexId> = Vec::with_capacity(c.num_vertices());
    for v in 0..c.num_vertices() as u32 {
        let vid = VertexId(v);
        let w = map
            .image(vid)
            .ok_or_else(|| format!("vertex {vid} unmapped"))?;
        check_image(skel, q.task().output(), vid, w)?;
        image.push(w);
    }
    let level = skel.resolve(q, None).expect("no deadline");
    check_simplices(skel, level.classes(), &image)
}

/// The per-vertex half of Proposition 3.1's check: vertex `v` of `skel`'s
/// tower has image `w` in `out`, of `v`'s color.
///
/// # Errors
///
/// Names the vertex or image that fails.
pub(crate) fn check_image(
    skel: &Skeleton,
    out: &Complex,
    v: VertexId,
    w: VertexId,
) -> Result<(), String> {
    if w.index() >= out.num_vertices() {
        return Err(format!("not simplicial: image vertex {w} not in target"));
    }
    if skel.tower().complex().color(v.0) != out.color(w) {
        return Err(format!("vertex {v} changes color"));
    }
    Ok(())
}

/// The per-simplex half of Proposition 3.1's check, on a total image
/// table `image` (vertex `v` of `skel`'s tower ↦ `image[v]`) whose entries
/// passed [`check_image`], against `class_tables`, the task's `Δ` table of
/// each of `skel`'s classes ([`Skeleton::resolve`]).
///
/// Accept/reject behavior is identical to the reference validator
/// (DESIGN.md, "Why checking the compiled constraints is Proposition 3.1's
/// check"): every simplex `s` of `skel` is one binary search of its image
/// tuple in its class's table. Simplices are chromatic, so `δ(s) ⊆ sₒ` for some
/// `sₒ ∈ Δ(carrier(s))` iff `sₒ`'s projection onto `s`'s colors *is*
/// `δ(s)` — exactly the tuples the table holds. Simpliciality needs no
/// separate pass: a task's `Δ` images are simplices of `O`.
///
/// # Errors
///
/// Names the first failing simplex and its carrier.
pub(crate) fn check_simplices(
    skel: &Skeleton,
    class_tables: &[CompiledTable],
    image: &[VertexId],
) -> Result<(), String> {
    let mut img: Vec<VertexId> = Vec::new();
    for ci in 0..skel.len() {
        let verts = skel.verts(ci);
        img.clear();
        img.extend(verts.iter().map(|&v| image[v as usize]));
        let class = skel.class(ci);
        if !class_tables[class].contains(&img) {
            let ids = |xs: &[u32]| Simplex::new(xs.iter().map(|&u| VertexId(u)));
            return Err(format!(
                "simplex {} (carrier {}) decides {} ∉ Δ(carrier)",
                ids(verts),
                Simplex::new(skel.carrier(class).iter().copied()),
                Simplex::new(img.iter().copied())
            ));
        }
    }
    Ok(())
}

/// Searches for a decision map on `SDS^b(I)`. Returns the witness if the
/// task is solvable in exactly `b` IIS rounds, `None` if provably no map
/// exists at this `b`.
///
/// Complete but potentially exponential on *unsolvable* instances whose
/// contradiction is global (e.g. Sperner-parity obstructions at large `b`);
/// use [`solve_at_bounded`] when a time budget matters. This is pure
/// search: the Sperner certificate ([`crate::certificate`]) that settles
/// set consensus at every `b` is consulted by [`Solver`] only.
///
/// # Examples
///
/// ```
/// use iis_core::solvability::solve_at;
/// use iis_tasks::library::{approximate_agreement, consensus};
///
/// // FLP: no decision map for consensus at b = 1 …
/// assert!(solve_at(&consensus(1, &[0, 1]), 1).is_none());
/// // … but ε-agreement (ε = 1/3) has one: a single round trisects the edge.
/// let witness = solve_at(&approximate_agreement(1, 3), 1).unwrap();
/// assert_eq!(witness.rounds(), 1);
/// ```
///
/// # Panics
///
/// Panics when `SDS^b(I)` has more than [`TOWER_FACET_CAP`] facets.
pub fn solve_at(task: &Task, b: usize) -> Option<DecisionMap> {
    match solve_at_bounded(task, b, u64::MAX) {
        BoundedOutcome::Solvable(m) => Some(*m),
        BoundedOutcome::Unsolvable => None,
        BoundedOutcome::Exhausted => unreachable!("unbounded budget"),
        BoundedOutcome::TimedOut => unreachable!("no timeout configured"),
        BoundedOutcome::TooLarge { facets } => {
            panic!("SDS^{b}(I) has {facets} facets, past the cap of {TOWER_FACET_CAP}")
        }
    }
}

/// The most facets a search builds `SDS^b(I)` with. Past it a round is
/// [`BoundedOutcome::TooLarge`], decided without building anything, so
/// one question can no longer ask a worker for gigabytes (`consensus:6`
/// at `b = 1` has 6 053 504 facets) and abort the process that serves it.
/// A facet of width `w` costs its tower and skeleton about `2^w`
/// constraints, so the largest towers admitted peak near 40 MB
/// (`consensus:3` at `b = 2`, 90 000 facets of width 4) and 220 MB
/// (`trivial:6` at `b = 1`, 47 293 facets of width 7).
pub const TOWER_FACET_CAP: u64 = 100_000;

/// The facet count of `SDS^b(input)`, saturating: the sum over the
/// input's facets of `F(w)^b`, where `F(w)` is the facet count of the
/// one-level template of width `w` — the ordered Bell number 1, 3, 13,
/// 75, 541, 4683, 47293, … Each facet of `SDS^{b-1}` of width `w` is
/// subdivided into `F(w)` facets of width `w` (Lemma 3.3), and the
/// subdivisions of distinct input facets share no facet, so the count is
/// exact, and costs nothing to compute before building.
///
/// # Examples
///
/// ```
/// use iis_core::solvability::tower_facets;
/// use iis_topology::Complex;
/// let s2 = Complex::standard_simplex(2);
/// assert_eq!(tower_facets(&s2, 0), 1);
/// assert_eq!(tower_facets(&s2, 2), 13 * 13);
/// let consensus6 = iis_tasks::library::consensus(6, &[0, 1]);
/// assert_eq!(tower_facets(consensus6.input(), 1), 128 * 47293);
/// ```
pub fn tower_facets(input: &Complex, b: usize) -> u64 {
    let exponent = u32::try_from(b).unwrap_or(u32::MAX);
    input.facets().fold(0u64, |sum, f| {
        sum.saturating_add(ordered_bell(f.len()).saturating_pow(exponent))
    })
}

/// Outcome of a budgeted decision-map search.
#[derive(Debug)]
pub enum BoundedOutcome {
    /// A decision map was found.
    Solvable(Box<DecisionMap>),
    /// The search space was exhausted: provably no map at this `b`.
    Unsolvable,
    /// The node budget ran out before the search completed.
    Exhausted,
    /// The wall-clock timeout ([`SolveOptions::timeout`]) elapsed before the
    /// search completed. Like [`Exhausted`](BoundedOutcome::Exhausted), this
    /// verdict is **inconclusive** — it says nothing about solvability at
    /// this `b`, and in particular is *not* an `Unsolvable` verdict.
    TimedOut,
    /// `SDS^b(I)` has more than [`TOWER_FACET_CAP`] facets, so it was not
    /// built: inconclusive, like [`Exhausted`](BoundedOutcome::Exhausted).
    TooLarge {
        /// The facet count of `SDS^b(I)` ([`tower_facets`]).
        facets: u64,
    },
}

/// Like [`solve_at`] but giving up after exploring `max_nodes` backtracking
/// nodes. `Unsolvable` and `Solvable` verdicts are exact; `Exhausted` means
/// the budget was too small to decide.
///
/// # Examples
///
/// ```
/// use iis_core::solvability::{solve_at_bounded, BoundedOutcome};
/// use iis_tasks::library::approximate_agreement;
///
/// let task = approximate_agreement(1, 3);
/// // A zero budget cannot even confirm a witness …
/// assert!(matches!(
///     solve_at_bounded(&task, 1, 0),
///     BoundedOutcome::Exhausted
/// ));
/// // … an ample budget decides the round exactly.
/// assert!(matches!(
///     solve_at_bounded(&task, 1, u64::MAX),
///     BoundedOutcome::Solvable(_)
/// ));
/// ```
pub fn solve_at_bounded(task: &Task, b: usize, max_nodes: u64) -> BoundedOutcome {
    solve_at_opts(task, b, &SolveOptions::new().budget(max_nodes))
}

/// Configuration of a decision-map search: node budget and wall-clock
/// timeout. Each round's search runs once, on the thread that asks
/// (DESIGN.md §7).
///
/// The default is an unbounded MAC search — exactly [`solve_at`]'s
/// behavior.
///
/// # Examples
///
/// ```
/// use iis_core::solvability::{solve_at_opts, BoundedOutcome, SolveOptions};
/// use iis_tasks::library::approximate_agreement;
///
/// let task = approximate_agreement(1, 3);
/// let tight = SolveOptions::new().budget(0);
/// assert!(matches!(solve_at_opts(&task, 1, &tight), BoundedOutcome::Exhausted));
/// let ample = SolveOptions::new().budget(1_000);
/// assert!(matches!(solve_at_opts(&task, 1, &ample), BoundedOutcome::Solvable(_)));
/// ```
#[derive(Clone, Copy, Debug)]
pub struct SolveOptions {
    pub(crate) max_nodes: u64,
    pub(crate) timeout: Option<std::time::Duration>,
}

impl Default for SolveOptions {
    fn default() -> Self {
        SolveOptions {
            max_nodes: u64::MAX,
            timeout: None,
        }
    }
}

impl SolveOptions {
    /// Unbounded, no timeout.
    pub fn new() -> Self {
        Self::default()
    }

    /// Gives up after exploring `max_nodes` backtracking nodes
    /// ([`BoundedOutcome::Exhausted`]).
    pub fn budget(mut self, max_nodes: u64) -> Self {
        self.max_nodes = max_nodes;
        self
    }

    /// Does nothing: a round's search runs on the thread that asks
    /// (DESIGN.md §7). Kept only because the benchmark programs still call
    /// it; the change that retires the benchmark's `e6_parallel` cases
    /// removes it.
    pub fn jobs(self, _: usize) -> Self {
        self
    }

    /// Gives up once `timeout` of wall-clock time has passed since the
    /// sweep started ([`BoundedOutcome::TimedOut`]): one deadline for the
    /// whole sweep (a [`Solver`]'s, counted from its creation), or for the
    /// one round of [`solve_at_opts`]. Unlike the node budget, the timeout
    /// is **not** per round. The clock is polled in the search's node
    /// loop (every 64 budget charges), in propagation (every 1024
    /// revisions), in a tower build (every 64 facets), in the skeleton's
    /// classification (every 4096 simplices) and in a compile (every 64
    /// constraint classes), so a sweep stops promptly wherever its time
    /// goes; a step too small to reach its first poll finishes as it would
    /// untimed. A timed-out round is inconclusive, not `Unsolvable`.
    pub fn timeout(mut self, timeout: std::time::Duration) -> Self {
        self.timeout = Some(timeout);
        self
    }

    /// The instant a sweep starting now gives up at; none past the
    /// clock's range (`Duration::MAX`).
    pub(crate) fn deadline(&self) -> Option<Instant> {
        self.timeout.and_then(|t| Instant::now().checked_add(t))
    }
}

/// [`solve_at_bounded`] with full [`SolveOptions`] control (budget and
/// timeout).
pub fn solve_at_opts(task: &Task, b: usize, opts: &SolveOptions) -> BoundedOutcome {
    let deadline = opts.deadline();
    let q = KeyedTask::new(task.clone());
    match skeleton(&q, b, None, deadline) {
        Ok(skel) => solve_on(&q, &skel, opts, deadline).0,
        Err(stop) => stop,
    }
}

/// What decided a round of a sweep: the deciders [`Solver::step`] asks,
/// in this order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Decider {
    /// The distance pass ([`crate::distance`], DESIGN.md §18).
    Distance,
    /// The Sperner certificate ([`find_certificate`], DESIGN.md §17).
    Certificate,
    /// The gate to the level (`cache::skeleton`), which only stops a round.
    Gate,
    /// The search on the level.
    Search,
}

impl Decider {
    /// The decider's name: `certificate`, `distance`, `gate` or `search`.
    pub fn name(self) -> &'static str {
        match self {
            Decider::Certificate => "certificate",
            Decider::Distance => "distance",
            Decider::Gate => "gate",
            Decider::Search => "search",
        }
    }
}

/// Traces round `b`'s `solve.round` record: the outcome, named for its
/// decider, and the nodes searched (the tower's facets past the cap).
fn trace_round(task: &Task, b: usize, decider: Decider, outcome: &BoundedOutcome, nodes: u64) {
    let name = match (decider, outcome) {
        (Decider::Certificate, _) => "certified",
        (Decider::Distance, _) => "distance",
        (_, BoundedOutcome::Solvable(_)) => "solvable",
        (_, BoundedOutcome::Unsolvable) => "unsolvable",
        (_, BoundedOutcome::Exhausted) => "exhausted",
        (_, BoundedOutcome::TimedOut) => "timed_out",
        (_, BoundedOutcome::TooLarge { .. }) => "too_large",
    };
    let count = match outcome {
        BoundedOutcome::TooLarge { facets } => ("facets", *facets),
        _ => ("nodes", nodes),
    };
    iis_obs::trace::event(
        "solve.round",
        task.name(),
        &[
            ("b", iis_obs::Json::Num(b as f64)),
            ("outcome", iis_obs::Json::Str(name.to_string())),
            (count.0, iis_obs::Json::Num(count.1 as f64)),
        ],
    );
}

/// Searches `skel` (`SDS^b(I)` of `q`'s input) under `opts`'s budget
/// until `deadline`: the outcome and the nodes searched. A level a
/// witness is found on is memoized for the checks and searches to come.
fn solve_on(
    q: &KeyedTask,
    skel: &Arc<Skeleton>,
    opts: &SolveOptions,
    deadline: Option<Instant>,
) -> (BoundedOutcome, u64) {
    let b = skel.tower().rounds();
    let timer = iis_obs::span::span("solve.search_ns");
    // the round span is the top of this round's causal profile tree; its
    // sample carries the whole round's node count and wall time
    let profile_t0 = profile_now();
    let round_span = match profile_t0 {
        Some(_) => {
            iis_obs::profile::register(iis_obs::profile::SpanId::ROOT, &format!("round:{b}"))
        }
        None => iis_obs::profile::SpanId::ROOT,
    };
    let (result, nodes) = crate::csp::search_map(q, skel, opts.max_nodes, deadline, round_span);
    if let Some(t0) = profile_t0 {
        iis_obs::profile::sample(round_span, 1, nodes, t0.elapsed().as_nanos() as u64);
    }
    iis_obs::metrics::gauge_set(
        "solve.budget_remaining",
        i64::try_from(opts.max_nodes - nodes).unwrap_or(i64::MAX),
    );
    drop(timer);
    let outcome = match result {
        Ok(Some(map)) => {
            debug_assert!(check_decision_map(q, skel, &map).is_ok());
            keep_skeleton(q, skel);
            BoundedOutcome::Solvable(Box::new(DecisionMap::new(Arc::clone(skel.tower()), map)))
        }
        Ok(None) => BoundedOutcome::Unsolvable,
        Err(Halt::Timeout) => BoundedOutcome::TimedOut,
        Err(Halt::Budget) => BoundedOutcome::Exhausted,
    };
    (outcome, nodes)
}

/// An incremental round-by-round solver: each [`step`](Solver::step)
/// decides one more round count, taking `SDS^{b+1}(I)` from the
/// process-wide skeleton memo or, on a miss, extending `SDS^b(I)` by a
/// *single* subdivision (Lemma 3.3 via
/// [`ArenaSds::next`](iis_topology::arena::ArenaSds::next)) and reusing
/// the keyed task's compiled constraint tables — instead of rebuilding
/// everything from scratch per round the way repeated [`solve_at`] calls
/// would.
///
/// The node budget in the options applies per round; the timeout bounds
/// the whole sweep, counted from the solver's creation.
///
/// A step asks the [`Decider`]s in their order; the first to answer
/// decides the round. From `b = 1` the Sperner certificate, looked for
/// once within a fixed work bound, refutes every round as an exact search
/// would (`solve.certified`); the distance pass, run once per
/// [`KeyedTask`], refutes each round too short to join two inputs'
/// decisions (`solve.distance_refuted`). Neither builds a tower. Whoever
/// decided it, a round is finished in one place: the solver advances
/// (unless the gate stopped it), names a verdict's decider, counts the
/// round in `/progress` and traces it as one `solve.round`.
///
/// # Examples
///
/// ```
/// use iis_core::cache::KeyedTask;
/// use iis_core::solvability::{BoundedOutcome, SolveOptions, Solver};
/// use iis_tasks::library::approximate_agreement;
///
/// let task = KeyedTask::new(approximate_agreement(1, 3));
/// let mut solver = Solver::new(&task, SolveOptions::new());
/// assert!(matches!(solver.step(), BoundedOutcome::Unsolvable)); // b = 0
/// assert!(matches!(solver.step(), BoundedOutcome::Solvable(_))); // b = 1
/// assert_eq!(solver.round(), 1);
/// ```
pub struct Solver<'t> {
    q: &'t KeyedTask,
    opts: SolveOptions,
    /// The sweep's one deadline (`opts`'s timeout from creation).
    deadline: Option<Instant>,
    /// The level of the round last searched, which the next is built on.
    skel: Option<Arc<Skeleton>>,
    /// The round the next step decides.
    next: usize,
    /// `Some` once the certificate was looked for: whether one was found.
    certificate: Option<bool>,
    /// What decided each verdict so far.
    deciders: Vec<Decider>,
}

impl<'t> Solver<'t> {
    /// A solver for the keyed task `q`, compiling against its `Δ` tables,
    /// positioned before round `b = 0`.
    pub fn new(q: &'t KeyedTask, opts: SolveOptions) -> Self {
        Solver::until(q, opts, opts.deadline())
    }

    /// A solver whose sweep gives up at `deadline`, set by the caller (a
    /// stored-witness check before it spent part of the same budget);
    /// `opts`'s timeout is not read.
    pub(crate) fn until(q: &'t KeyedTask, opts: SolveOptions, deadline: Option<Instant>) -> Self {
        Solver {
            q,
            opts,
            deadline,
            skel: None,
            next: 0,
            certificate: None,
            deciders: Vec::new(),
        }
    }

    /// The round count the most recent [`step`](Solver::step) decided
    /// (`0` before any step).
    pub fn round(&self) -> usize {
        self.next.saturating_sub(1)
    }

    /// Decides the next round count and returns its outcome. A gate stop
    /// ([`BoundedOutcome::TooLarge`], or [`BoundedOutcome::TimedOut`] in a
    /// tower build) leaves the solver where it was.
    pub fn step(&mut self) -> BoundedOutcome {
        let (task, b) = (self.q.task(), self.next);
        iis_obs::progress::solve_round_started(task.name(), b as u64, self.opts.max_nodes);
        let (decider, outcome, nodes) = if self.q.distances().refuting(b).is_some() {
            (Decider::Distance, BoundedOutcome::Unsolvable, 0)
        } else if b > 0 && self.certified() {
            (Decider::Certificate, BoundedOutcome::Unsolvable, 0)
        } else {
            match skeleton(self.q, b, self.skel.as_deref(), self.deadline) {
                Err(stop) => (Decider::Gate, stop, 0),
                Ok(skel) => {
                    let (outcome, nodes) = solve_on(self.q, &skel, &self.opts, self.deadline);
                    self.skel = Some(skel);
                    (Decider::Search, outcome, nodes)
                }
            }
        };
        if decider != Decider::Gate {
            self.next += 1;
        }
        if matches!(
            outcome,
            BoundedOutcome::Solvable(_) | BoundedOutcome::Unsolvable
        ) {
            self.deciders.push(decider);
        }
        if decider == Decider::Distance {
            DISTANCE_REFUTED.incr();
        }
        iis_obs::progress::solve_round_finished();
        trace_round(task, b, decider, &outcome, nodes);
        outcome
    }

    /// Whether a certificate refutes every round: looked for on the first
    /// call (counting `solve.certified` and tracing a `solve.certificate`
    /// record when found), remembered after.
    fn certified(&mut self) -> bool {
        let task = self.q.task();
        *self.certificate.get_or_insert_with(|| {
            let Some(cert) = find_certificate(task) else {
                return false;
            };
            CERTIFIED.incr();
            if iis_obs::trace::active() {
                let (sigma, lambda) = cert.describe(task);
                iis_obs::trace::event(
                    "solve.certificate",
                    task.name(),
                    &[
                        ("sigma", iis_obs::Json::Str(sigma)),
                        ("lambda", iis_obs::Json::Str(lambda)),
                    ],
                );
            }
            true
        })
    }

    /// Steps through `b = 0..=max_rounds`, stopping at the first solvable
    /// or undecided round: the sweep [`solve_up_to_opts`] reports.
    pub(crate) fn sweep(mut self, max_rounds: usize) -> SolvabilityReport {
        let mut results = Vec::new();
        let (mut witness, mut stopped) = (None, None);
        for b in 0..=max_rounds {
            match self.step() {
                BoundedOutcome::Solvable(w) => {
                    results.push((b, true));
                    witness = Some(*w);
                    break;
                }
                BoundedOutcome::Unsolvable => results.push((b, false)),
                undecided => {
                    stopped = Some(undecided);
                    break;
                }
            }
        }
        SolvabilityReport {
            task_name: self.q.task().name().to_string(),
            results,
            witness,
            deciders: self.deciders,
            stopped,
        }
    }
}

/// Solvers a Sperner certificate settled.
static CERTIFIED: StaticCounter = StaticCounter::new("solve.certified");

/// Rounds the distance pass refuted.
static DISTANCE_REFUTED: StaticCounter = StaticCounter::new("solve.distance_refuted");

/// Registers the `solve.*` search counters, `solve.certified` and
/// `solve.distance_refuted` at zero, so a metrics scrape lists them before
/// the first search publishes: `iis serve` calls it at startup, `iis
/// solve` before its sweep.
pub fn register_counters() {
    crate::csp::register_counters();
    CERTIFIED.register();
    DISTANCE_REFUTED.register();
}

/// Sweeps `b = 0..=max_rounds`, recording per-`b` solvability; stops the
/// sweep at the first solvable `b` (larger `b` remain solvable by running
/// the extra rounds obliviously).
///
/// The sweep is incremental: round `b+1` reuses round `b`'s subdivision
/// (see [`Solver`]).
pub fn solve_up_to(task: &Task, max_rounds: usize) -> SolvabilityReport {
    solve_up_to_opts(task, max_rounds, &SolveOptions::new())
}

/// [`solve_up_to`] with explicit [`SolveOptions`]. If a round exhausts its
/// node budget or wall-clock timeout, or its tower is past
/// [`TOWER_FACET_CAP`], the sweep stops without recording a verdict for
/// that round (an inconclusive round decides nothing about larger `b`
/// either); the report names that outcome
/// ([`SolvabilityReport::stopped`]).
pub fn solve_up_to_opts(task: &Task, max_rounds: usize, opts: &SolveOptions) -> SolvabilityReport {
    Solver::new(&KeyedTask::new(task.clone()), *opts).sweep(max_rounds)
}

/// Lifts a decision map one round up: `δ ∘ forget` on `SDS^{b+1}(I)`,
/// where the forget map sends each vertex to its process's state one round
/// earlier ([`ArenaSds::forget`]) — the constructive proof that
/// solvability at `b` implies solvability at `b+1` (processes run one
/// extra oblivious round).
///
/// The lifted map is re-checked in debug builds.
pub fn lift_decision_map(task: &Task, dm: &DecisionMap) -> DecisionMap {
    let finer = Arc::new(dm.tower().next());
    let lifted = SimplicialMap::from_pairs((0..finer.complex().num_vertices() as u32).map(|v| {
        let w = dm.map().image(VertexId(finer.forget(v)));
        (VertexId(v), w.expect("decision map is total"))
    }));
    debug_assert!(check_decision_map(
        &KeyedTask::new(task.clone()),
        &Skeleton::new(Arc::clone(&finer)),
        &lifted
    )
    .is_ok());
    DecisionMap::new(finer, lifted)
}

/// A decision map made runnable: for each round `k < b`, the index from a
/// process's full-information state after round `k+1` to its vertex of
/// `SDS^{k+1}(I)`. Built once per witness and shared by all of its
/// [`DecisionProtocol`]s.
///
/// By DESIGN.md §14 that state *is* the arena name `[color, sorted ids of
/// the level-k vertices it saw…]`, so the index is the name map the level
/// builder keeps while subdividing ([`ArenaSds::next_with`]): the levels
/// below the witness's are rebuilt from its base with the names kept. No
/// solve or serve path builds one.
pub struct WitnessIndex {
    witness: DecisionMap,
    /// `names[k]`: state name → vertex id of `SDS^{k+1}(I)`.
    names: Vec<HashMap<Box<[u32]>, u32>>,
}

impl WitnessIndex {
    /// Indexes every level of `witness`'s tower.
    pub fn new(witness: DecisionMap) -> Self {
        let mut names = Vec::with_capacity(witness.rounds());
        let mut level = witness.tower().level_zero();
        for _ in 0..witness.rounds() {
            let mut index = HashMap::new();
            level = level.next_with(|name, id| {
                index.insert(name.into(), id);
            });
            names.push(index);
        }
        debug_assert_eq!(
            level.complex().num_vertices(),
            witness.tower().complex().num_vertices()
        );
        WitnessIndex { witness, names }
    }

    /// The indexed decision map.
    pub fn witness(&self) -> &DecisionMap {
        &self.witness
    }

    /// The number of IIS rounds.
    pub fn rounds(&self) -> usize {
        self.witness.rounds()
    }
}

/// An executable protocol induced by a [`DecisionMap`]: run the map's
/// number of full-information IIS rounds, writing the current vertex of
/// `SDS^k(I)` and reading back the ids the round saw, then decide the
/// image of the final vertex — the constructive half of Proposition 3.1
/// for *any* task. Each round is one lookup in the [`WitnessIndex`].
///
/// Runner pids must be the processes' colors. The output is a vertex id of
/// the task's output complex.
///
/// # Examples
///
/// ```
/// use iis_core::solvability::{solve_at, DecisionProtocol, WitnessIndex};
/// use iis_sched::{IisRunner, IisSchedule};
/// use iis_tasks::library::approximate_agreement;
/// use iis_topology::VertexId;
/// use std::sync::Arc;
///
/// let task = approximate_agreement(1, 3);
/// let witness = Arc::new(WitnessIndex::new(solve_at(&task, 1).expect("solvable at one round")));
/// // one input facet: the two processes' input vertices
/// let facet = task.input().facets().next().unwrap().clone();
/// let machines: Vec<_> = facet
///     .iter()
///     .map(|v| DecisionProtocol::new(v, Arc::clone(&witness)))
///     .collect();
/// let mut runner = IisRunner::new(machines);
/// runner.run(IisSchedule::lockstep(2, 1));
/// assert!(runner.output(0).is_some() && runner.output(1).is_some());
/// ```
pub struct DecisionProtocol {
    color: u32,
    /// The process's current vertex of `SDS^k(I)`.
    state: VertexId,
    witness: Arc<WitnessIndex>,
}

impl DecisionProtocol {
    /// A machine for the process whose input is vertex `input` of the
    /// task's input complex.
    pub fn new(input: VertexId, witness: Arc<WitnessIndex>) -> Self {
        DecisionProtocol {
            color: witness.witness.tower().base().color(input.0).0,
            state: input,
            witness,
        }
    }

    fn decide(&self) -> VertexId {
        let map = self.witness.witness.map();
        map.image(self.state).expect("decision map is total")
    }
}

impl iis_sched::IisMachine for DecisionProtocol {
    type Value = VertexId;
    type Output = VertexId;

    fn initial_value(&mut self) -> VertexId {
        self.state
    }

    fn on_view(
        &mut self,
        round: usize,
        view: &[(usize, VertexId)],
    ) -> iis_sched::MachineStep<VertexId, VertexId> {
        let rounds = self.witness.rounds();
        if rounds == 0 {
            return iis_sched::MachineStep::Decide(self.decide());
        }
        let mut name: Vec<u32> = Vec::with_capacity(view.len() + 1);
        name.push(self.color);
        name.extend(view.iter().map(|(_, v)| v.0));
        name[1..].sort_unstable();
        let next = self.witness.names[round].get(name.as_slice());
        self.state = VertexId(*next.expect("full-information state is a vertex of SDS^k(I)"));
        if round + 1 >= rounds {
            iis_sched::MachineStep::Decide(self.decide())
        } else {
            iis_sched::MachineStep::Continue(self.state)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iis_tasks::library::{
        approximate_agreement, chromatic_simplex_agreement, consensus, k_set_consensus,
        one_shot_immediate_snapshot_task, renaming, trivial,
    };
    use iis_topology::sds_iterated;

    #[test]
    fn trivial_task_solvable_at_zero() {
        let t = trivial(2);
        let report = solve_up_to(&t, 2);
        assert_eq!(report.first_solvable(), Some(0));
        let w = report.witness().unwrap();
        validate_decision_map(&t, &sds_iterated(t.input(), w.rounds()), w.map()).unwrap();
        assert!(!report.to_string().is_empty());
        assert_eq!(report.task_name(), "trivial");
    }

    #[test]
    fn binary_consensus_unsolvable_flp() {
        let t = consensus(1, &[0, 1]);
        let report = solve_up_to(&t, 3);
        assert_eq!(report.first_solvable(), None, "FLP: consensus unsolvable");
        assert_eq!(report.results().len(), 4);
        assert!(report.witness().is_none());
    }

    #[test]
    fn a_timeout_past_the_clocks_range_is_no_deadline() {
        let t = approximate_agreement(1, 3);
        let opts = SolveOptions::new().timeout(std::time::Duration::MAX);
        assert!(matches!(
            solve_at_opts(&t, 1, &opts),
            BoundedOutcome::Solvable(_)
        ));
    }

    #[test]
    fn an_undecided_sweep_names_what_stopped_it() {
        let t = one_shot_immediate_snapshot_task(1);
        let report = solve_up_to_opts(&t, 2, &SolveOptions::new().budget(0));
        assert!(matches!(report.stopped(), Some(BoundedOutcome::Exhausted)));
        let b = report.results().len();
        let name = t.name();
        assert_eq!(
            report.to_string(),
            format!("{name}: undecided — search exhausted at b = {b}")
        );
        // eps:5:2 is refuted at b = 0; its tower at b = 1 is past the cap
        let t = iis_tasks::library::parse_spec("eps:5:2").unwrap();
        let report = solve_up_to(&t, 1);
        assert!(matches!(
            report.stopped(),
            Some(BoundedOutcome::TooLarge { facets: 299_712 })
        ));
        assert_eq!(
            report.to_string(),
            "eps-agreement: undecided — SDS^1(I) would have 299712 facets, past the cap \
             of 100000; nothing was built"
        );
        // a decided sweep stopped at nothing
        let report = solve_up_to(&consensus(1, &[0, 1]), 1);
        assert!(report.stopped().is_none() && report.stop_reason().is_none());
        assert_eq!(report.to_string(), "consensus: no decision map up to b = 1");
    }

    #[test]
    fn three_process_consensus_unsolvable() {
        let t = consensus(2, &[0, 1]);
        assert!(solve_at(&t, 0).is_none());
        assert!(solve_at(&t, 1).is_none());
    }

    #[test]
    fn two_set_consensus_three_procs_unsolvable() {
        let t = k_set_consensus(2, 2);
        assert!(solve_at(&t, 0).is_none());
        assert!(
            solve_at(&t, 1).is_none(),
            "(3,2)-set consensus impossible (Sperner)"
        );
    }

    #[test]
    fn full_set_consensus_trivially_solvable() {
        let t = k_set_consensus(2, 3);
        let report = solve_up_to(&t, 1);
        assert_eq!(report.first_solvable(), Some(0));
    }

    #[test]
    fn one_set_consensus_two_procs_is_consensus() {
        let t = k_set_consensus(1, 1);
        assert!(solve_at(&t, 0).is_none());
        assert!(solve_at(&t, 1).is_none());
        assert!(solve_at(&t, 2).is_none());
    }

    #[test]
    fn renaming_with_ids_solvable_immediately() {
        let t = renaming(1, 3);
        let report = solve_up_to(&t, 1);
        assert_eq!(report.first_solvable(), Some(0));
    }

    #[test]
    fn approximate_agreement_needs_rounds() {
        // grid = 3 (ε = 1/3): one IIS round trisects the edge — solvable at 1
        let t = approximate_agreement(1, 3);
        let report = solve_up_to(&t, 2);
        assert_eq!(report.first_solvable(), Some(1));
        let w = report.witness().unwrap();
        validate_decision_map(&t, &sds_iterated(t.input(), w.rounds()), w.map()).unwrap();
    }

    #[test]
    fn approximate_agreement_grid9_needs_two_rounds() {
        let t = approximate_agreement(1, 9);
        assert!(solve_at(&t, 1).is_none(), "3 intervals can't cover grid 9");
        assert!(solve_at(&t, 2).is_some(), "9 intervals cover grid 9");
    }

    #[test]
    fn one_shot_is_task_solvable_at_one_round() {
        let t = one_shot_immediate_snapshot_task(1);
        let report = solve_up_to(&t, 1);
        assert_eq!(report.first_solvable(), Some(1));
    }

    #[test]
    fn one_shot_is_task_three_procs() {
        let t = one_shot_immediate_snapshot_task(2);
        assert!(solve_at(&t, 0).is_none(), "needs communication");
        let w = solve_at(&t, 1).expect("identity map solves it");
        validate_decision_map(&t, &sds_iterated(t.input(), w.rounds()), w.map()).unwrap();
    }

    #[test]
    fn csass_over_sds_squared_needs_two_rounds() {
        let sub = iis_topology::sds_iterated(&iis_topology::Complex::standard_simplex(1), 2);
        let t = chromatic_simplex_agreement(&sub);
        assert!(solve_at(&t, 1).is_none());
        assert!(solve_at(&t, 2).is_some(), "Theorem 5.1 witness at b = 2");
    }

    #[test]
    fn lifted_maps_stay_valid() {
        // lift the ε-agreement witness twice and re-validate (release-mode
        // safe: validate explicitly, not just via debug_assert)
        let t = approximate_agreement(1, 3);
        let w1 = solve_at(&t, 1).unwrap();
        let w2 = lift_decision_map(&t, &w1);
        assert_eq!(w2.rounds(), 2);
        validate_decision_map(&t, &sds_iterated(t.input(), w2.rounds()), w2.map()).unwrap();
        let w3 = lift_decision_map(&t, &w2);
        assert_eq!(w3.rounds(), 3);
        validate_decision_map(&t, &sds_iterated(t.input(), w3.rounds()), w3.map()).unwrap();
    }

    #[test]
    fn lifted_trivial_map() {
        let t = trivial(1);
        let w0 = solve_at(&t, 0).unwrap();
        let w1 = lift_decision_map(&t, &w0);
        validate_decision_map(&t, &sds_iterated(t.input(), w1.rounds()), w1.map()).unwrap();
    }

    #[test]
    fn decision_map_accessor_roundtrip() {
        let t = trivial(1);
        let w = solve_at(&t, 0).unwrap();
        assert_eq!(w.rounds(), 0);
        assert!(w.tower().complex().num_vertices() > 0);
        assert!(!w.map().is_empty());
    }
}
