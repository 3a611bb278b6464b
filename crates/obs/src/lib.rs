//! # lardb-obs — observability primitives for lardb
//!
//! The paper's evaluation stands on two kinds of measurement: per-operation
//! runtime breakdowns (Figure 4 splits the Gram computation into join vs
//! aggregation time) and the cost model's byte-size estimates for every LA
//! intermediate (§4.1's 80 GB vs 80 MB plans). This crate provides the
//! instrumentation that keeps both honest, with zero external dependencies:
//!
//! * [`span`] — the five query-lifecycle [`Stage`]s
//!   (parse → bind → optimize → plan → execute); [`QueryProfile::time`]
//!   times one, feeding the profile and the statement's trace from one
//!   clock reading;
//! * [`metrics`] — a process-wide [`MetricsRegistry`] of counters, gauges
//!   and log-scale-bucket histograms, fed by the executor and the
//!   `lardb-net` transports and queryable through `SHOW METRICS`;
//! * [`profile`] — [`QueryProfile`], the estimate-vs-actual record joining
//!   optimizer cost-model estimates with executor actuals per operator
//!   (q-error), exported as hand-rolled JSON for the bench harness's
//!   `--profile-json` output;
//! * [`trace`] — end-to-end query traces: per-query [`TraceId`]s
//!   propagated through admission, lifecycle stages, pool workers,
//!   exchange wire frames and spill files, retained by a bounded
//!   [`FlightRecorder`] ring and exported as Chrome trace-event JSON.

pub mod json;
pub mod metrics;
pub mod profile;
pub mod span;
pub mod trace;

pub use metrics::{
    global, Counter, Gauge, Histogram, MetricKind, MetricSample, MetricsRegistry, TableSample,
};
pub use profile::{q_error, OperatorProfile, QueryProfile, StageTiming};
pub use span::Stage;
pub use trace::{
    recorder, ActiveTrace, CompletedTrace, FlightRecorder, SpanEvent, TraceId, TraceSpan,
};
