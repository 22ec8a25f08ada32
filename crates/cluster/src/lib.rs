//! # iis-cluster — a sharded solve cluster over the solvability oracle
//!
//! One `iis serve` process answers solve questions out of its own
//! content-addressed witness store. This crate scales that to a fleet:
//! a **gateway** that owns no store and does no solving, only routing —
//! rendezvous-hashing each question's cache key onto a replica set of
//! backends, fanning batches out shard-parallel, failing over on shard
//! loss, and aggregating cluster metrics into one scrape.
//!
//! The whole design leans on one theorem-shaped fact: bounded
//! solvability is a *pure function* of `(task, max_rounds)` (Prop 3.1 of
//! the paper). Purity means any replica may answer any question, retried
//! work is byte-identical, and a retry after an ambiguous failure cannot
//! produce a second, different answer. Routing is therefore purely a
//! cache-locality optimization — never a correctness concern.
//!
//! ## Layout
//!
//! - [`transport`] — the [`Transport`] trait (the gateway's only view of
//!   the network) and the production [`HttpTransport`].
//! - [`health`] — per-shard Ready/ReadOnly/Down lifecycle fed by a
//!   `/readyz` prober with tick-based exponential backoff.
//! - [`gateway`] — rendezvous routing, single-question relay with
//!   failover, batch scatter-gather, `/cluster` JSON and merged
//!   Prometheus `/metrics`.
//!
//! Everything is deterministic given a [`Transport`], which is what lets
//! `iis fuzz --layer gateway` replay routing decisions under injected
//! faults from a single seed.

pub mod gateway;
pub mod health;
pub mod transport;

pub use gateway::{
    batch_envelope, merge_prometheus, question_key, splice_envelope, Answer, Gateway, GatewayConfig,
};
pub use health::{HealthRegistry, ShardHealth, ShardStatus};
pub use transport::{HttpTransport, Transport, TransportError, TransportResponse};
