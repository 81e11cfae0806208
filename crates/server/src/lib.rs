//! # logit-server
//!
//! Simulation as a service: a long-running, multi-tenant job server over
//! the logit-dynamics engines.
//!
//! A *job* is a plain-text description — game family × topology ×
//! revision rule × selection schedule × (β or β-ladder) × observable ×
//! sample grid — submitted over a length-prefixed TCP protocol
//! ([`protocol`]). Admission validates the description into typed
//! [`AdmissionError`]s ([`job`], [`exec::prepare`]); accepted jobs are
//! queued for one executor that interleaves them a segment at a time on
//! the single shared [`WorkerPool`](logit_core::WorkerPool) ([`server`]),
//! streaming each sample point as it completes, with derived artifacts
//! (CSR interaction graphs and colourings, keyed by topology; β-ladders)
//! shared across tenants through a hash-keyed LRU cache ([`cache`]).
//!
//! The contract that makes the service more than a remote-procedure
//! wrapper: every streamed series is **bit-reproducible offline**. The
//! stream carries `f64`s as IEEE-754 bit patterns, each job runs under its
//! own seed on a forked simulator, and [`run_direct`] — a fresh
//! [`Simulator`](logit_core::Simulator) plus the same description —
//! reproduces the streamed frames byte for byte, however the executor
//! interleaved the job with concurrent tenants' jobs. The integration tests and the
//! `service` benchmark rows gate on exactly this equality.

pub mod cache;
pub mod error;
pub mod exec;
pub mod job;
pub mod protocol;
pub mod server;
pub mod stats;

pub use cache::{ArtifactCache, CacheStats, GameArtifacts, LruCache};
pub use error::AdmissionError;
pub use exec::{prepare, run_direct, run_prepared, PreparedJob};
pub use job::{
    fnv1a, GameFamily, JobSpec, LadderSpec, ModeKind, ObservableKind, RuleKind, ScheduleKind,
    StartKind, Topology,
};
pub use protocol::{SeriesPoint, StreamedResult};
pub use server::{
    request_stats, submit_job, submit_raw, ClientOutcome, ClientTiming, RunningServer,
    ServerConfig, ServerStats, StatsSnapshot,
};
pub use stats::render_stats;
