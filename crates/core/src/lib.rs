//! The core of the Borowsky–Gafni PODC'97 reproduction: everything the
//! paper itself contributes, built on the `iis-topology`, `iis-memory`,
//! `iis-sched` and `iis-tasks` substrates.
//!
//! - [`emulation`] — **the main theorem** (§4, Figure 2): run any atomic
//!   snapshot protocol in the iterated immediate snapshot model, on a
//!   deterministic schedule or on real threads;
//! - [`protocol_complex`] — Lemmas 3.2/3.3 as executable checks: the
//!   protocol complexes *are* the iterated standard chromatic subdivisions;
//! - [`solvability`] — Proposition 3.1 as a complete decision procedure for
//!   fixed round counts: find or refute decision maps `SDS^b(I) → O`, on
//!   the compiled search kernel [`csp`]; [`reference`](mod@reference) is the kernel's
//!   sequential test oracle;
//! - [`certificate`] — Sperner certificates: one labelling of `Δ` that
//!   refutes a task at every round count, the round sweep's first
//!   decider from round 1 (a sweep reaches it only past a refuted round 0);
//! - [`distance`] — distance refutations: the rounds a task cannot pass
//!   because two input corners are too far apart in `Δ` (Lemma 3.3 and
//!   Proposition 3.1), found once per task before any tower is built;
//! - [`bounded`] — Lemma 3.1: minimal and effective round bounds;
//! - [`convergence`] — §5: Theorem 5.1 witnesses, chromatic simplex
//!   agreement protocols, and the direct path-bisection convergence
//!   algorithms;
//! - [`bg`] — the BG simulation (safe agreement; `k+1` simulators running
//!   `n+1` processes), the extension this line of work seeded;
//! - [`cache`] — content-addressed caching of solvability results: because
//!   Proposition 3.1 makes the answer a pure function of `(task, b)`, a
//!   decided sweep can be persisted and replayed bit-identically (the
//!   substrate of `iis serve` and `iis solve --store`).
//!
//! # Quickstart
//!
//! Decide wait-free solvability (Proposition 3.1 + the emulation theorem):
//!
//! ```
//! use iis_core::solvability::solve_up_to;
//! use iis_tasks::library::{consensus, approximate_agreement};
//!
//! // FLP: consensus has no decision map at any round count we try.
//! let flp = solve_up_to(&consensus(1, &[0, 1]), 3);
//! assert_eq!(flp.first_solvable(), None);
//!
//! // ε-agreement is solvable once the subdivision is fine enough.
//! let eps = solve_up_to(&approximate_agreement(1, 3), 2);
//! assert_eq!(eps.first_solvable(), Some(1));
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod bg;
pub mod bounded;
pub mod cache;
pub mod certificate;
pub mod concurrent;
pub mod convergence;
pub mod csp;
pub mod distance;
pub mod emulation;
pub mod parallel;
pub mod protocol_complex;
pub mod protocols;
pub mod reference;
pub mod solvability;

pub use cache::{cache_key, solve_up_to_cached, CachedSolve, SolveCache};
pub use concurrent::run_atomic_concurrent;
pub use emulation::{run_emulation_concurrent, EmulationStats, EmulatorMachine, Tuple, TupleSet};
pub use solvability::{
    lift_decision_map, solve_at, solve_at_bounded, solve_at_opts, solve_up_to, solve_up_to_opts,
    BoundedOutcome, Decider, DecisionMap, DecisionProtocol, SolvabilityReport, SolveOptions,
    Solver, WitnessIndex,
};
