//! Estimate-vs-actual query profiles.
//!
//! A [`QueryProfile`] joins the optimizer's cost-model estimates (rows,
//! bytes per operator) with the executor's measured actuals and the
//! lifecycle stage timings, yielding a per-operator *q-error* — the
//! standard plan-quality metric `max(est/actual, actual/est)`, ≥ 1, where
//! 1 means the estimate was exact. Profiles serialize to JSON (via the
//! crate's hand-rolled [`crate::json`] writer) for the bench harness's
//! `--profile-json` export.

use std::sync::Arc;
use std::time::Instant;

use crate::json::{array, ObjectWriter};
use crate::span::Stage;
use crate::trace::ActiveTrace;

/// q-error of an estimate against an actual: `max(est/act, act/est)`.
///
/// Both sides are clamped to ≥ 1 before dividing so zero-row operators
/// (an empty filter result, say) produce a finite, comparable value
/// instead of a division by zero.
pub fn q_error(est: f64, actual: f64) -> f64 {
    let e = est.max(1.0);
    let a = actual.max(1.0);
    (e / a).max(a / e)
}

/// Wall-clock timing of one lifecycle stage.
#[derive(Debug, Clone, PartialEq)]
pub struct StageTiming {
    /// Stage name (`parse`, `bind`, `optimize`, `plan`, `execute`).
    pub stage: String,
    /// Duration in milliseconds.
    pub wall_ms: f64,
}

/// Estimate-vs-actual record for one physical operator.
#[derive(Debug, Clone, PartialEq)]
pub struct OperatorProfile {
    /// Physical plan node id (stable within one plan).
    pub id: usize,
    /// Operator label, e.g. `HashJoin(t.j = tt.i)`.
    pub label: String,
    /// Optimizer-estimated output rows.
    pub est_rows: f64,
    /// Measured output rows.
    pub actual_rows: f64,
    /// Optimizer-estimated output bytes.
    pub est_bytes: f64,
    /// Output bytes: an exchange's shuffle bytes as the exchange counted
    /// them, any other operator's measured rows × modeled row width.
    pub actual_bytes: f64,
    /// Measured operator wall time in milliseconds.
    pub wall_ms: f64,
}

impl OperatorProfile {
    /// q-error of the row estimate.
    pub fn q_error_rows(&self) -> f64 {
        q_error(self.est_rows, self.actual_rows)
    }

    /// q-error of the byte estimate.
    pub fn q_error_bytes(&self) -> f64 {
        q_error(self.est_bytes, self.actual_bytes)
    }

    fn to_json(&self) -> String {
        let mut o = ObjectWriter::new();
        o.integer("id", self.id as u64)
            .string("label", &self.label)
            .number("est_rows", self.est_rows)
            .number("actual_rows", self.actual_rows)
            .number("est_bytes", self.est_bytes)
            .number("actual_bytes", self.actual_bytes)
            .number("q_error_rows", self.q_error_rows())
            .number("q_error_bytes", self.q_error_bytes())
            .number("wall_ms", self.wall_ms);
        o.finish()
    }
}

/// The full observability record of one executed query (or, after
/// [`merge`](QueryProfile::merge), a batch of queries).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QueryProfile {
    /// The SQL text (or a descriptive label for merged profiles).
    pub query: String,
    /// Lifecycle stage timings, in pipeline order.
    pub stages: Vec<StageTiming>,
    /// Per-operator estimate-vs-actual records.
    pub operators: Vec<OperatorProfile>,
}

impl QueryProfile {
    /// An empty profile for `query`, pre-seeded with all five lifecycle
    /// stages at zero so exports always contain the complete pipeline.
    pub fn new(query: impl Into<String>) -> Self {
        QueryProfile {
            query: query.into(),
            stages: Stage::LIFECYCLE
                .iter()
                .map(|s| StageTiming {
                    stage: s.name().to_string(),
                    wall_ms: 0.0,
                })
                .collect(),
            operators: Vec::new(),
        }
    }

    /// Adds `wall_ms` to the named stage (creating it if absent — worker
    /// spans, say, are not part of the pre-seeded five).
    pub fn add_stage(&mut self, stage: &str, wall_ms: f64) {
        match self.stages.iter_mut().find(|s| s.stage == stage) {
            Some(s) => s.wall_ms += wall_ms,
            None => self.stages.push(StageTiming {
                stage: stage.to_string(),
                wall_ms,
            }),
        }
    }

    /// Runs `f` as lifecycle stage `stage`. One clock reading feeds both
    /// views of the stage: the wall time is added to [`Self::stages`] and
    /// recorded as the same-named span on `trace`, if there is one. `f`'s
    /// value is handed back as it is, so a stage that fails is timed like
    /// one that succeeds (`profile.time(stage, trace, || …)?`).
    pub fn time<T>(
        &mut self,
        stage: Stage,
        trace: Option<&Arc<ActiveTrace>>,
        f: impl FnOnce() -> T,
    ) -> T {
        let started = Instant::now();
        let out = f();
        let wall = started.elapsed();
        self.add_stage(stage.name(), wall.as_secs_f64() * 1e3);
        if let Some(trace) = trace {
            trace.record(stage.name(), "query", started, wall, Vec::new());
        }
        out
    }

    /// Wall time of the named stage, if present.
    pub fn stage_ms(&self, stage: &str) -> Option<f64> {
        self.stages.iter().find(|s| s.stage == stage).map(|s| s.wall_ms)
    }

    /// Largest per-operator row q-error, or `None` with no operators.
    pub fn max_q_error_rows(&self) -> Option<f64> {
        self.operators
            .iter()
            .map(|o| o.q_error_rows())
            .fold(None, |m, q| Some(m.map_or(q, |m: f64| m.max(q))))
    }

    /// Accumulates another profile into this one: stage timings add up,
    /// operator records append. Used by the bench harness to build one
    /// profile per benchmark out of its constituent queries.
    pub fn merge(&mut self, other: &QueryProfile) {
        for s in &other.stages {
            self.add_stage(&s.stage, s.wall_ms);
        }
        self.operators.extend(other.operators.iter().cloned());
    }

    /// Serializes the profile to a JSON object string.
    pub fn to_json(&self) -> String {
        let stages = array(self.stages.iter().map(|s| {
            let mut o = ObjectWriter::new();
            o.string("stage", &s.stage).number("wall_ms", s.wall_ms);
            o.finish()
        }));
        let operators = array(self.operators.iter().map(|o| o.to_json()));
        let mut o = ObjectWriter::new();
        o.string("query", &self.query)
            .raw("stages", &stages)
            .raw("operators", &operators);
        o.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn q_error_basics() {
        assert_eq!(q_error(10.0, 10.0), 1.0);
        assert_eq!(q_error(100.0, 10.0), 10.0);
        assert_eq!(q_error(10.0, 100.0), 10.0);
        // Zero actuals are clamped, not divided by.
        assert_eq!(q_error(8.0, 0.0), 8.0);
        assert!(q_error(0.0, 0.0).is_finite());
    }

    #[test]
    fn new_profile_contains_all_lifecycle_stages() {
        let p = QueryProfile::new("SELECT 1");
        let stages: Vec<&str> = p.stages.iter().map(|s| s.stage.as_str()).collect();
        assert_eq!(stages, ["parse", "bind", "optimize", "plan", "execute"]);
    }

    #[test]
    fn stage_accumulation_and_merge() {
        let mut a = QueryProfile::new("a");
        a.add_stage("execute", 2.0);
        a.add_stage("worker", 1.0);
        let mut b = QueryProfile::new("b");
        b.add_stage("execute", 3.0);
        b.operators.push(OperatorProfile {
            id: 0,
            label: "TableScan(t)".into(),
            est_rows: 10.0,
            actual_rows: 20.0,
            est_bytes: 80.0,
            actual_bytes: 160.0,
            wall_ms: 0.5,
        });
        a.merge(&b);
        assert_eq!(a.stage_ms("execute"), Some(5.0));
        assert_eq!(a.stage_ms("worker"), Some(1.0));
        assert_eq!(a.operators.len(), 1);
        assert_eq!(a.max_q_error_rows(), Some(2.0));
    }

    #[test]
    fn json_shape() {
        let mut p = QueryProfile::new("SELECT \"x\"");
        p.operators.push(OperatorProfile {
            id: 3,
            label: "HashJoin".into(),
            est_rows: 1.0,
            actual_rows: 1.0,
            est_bytes: 8.0,
            actual_bytes: 8.0,
            wall_ms: 0.25,
        });
        let json = p.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"query\": \"SELECT \\\"x\\\"\""));
        assert!(json.contains("\"stage\": \"parse\""));
        assert!(json.contains("\"stage\": \"execute\""));
        assert!(json.contains("\"q_error_rows\": 1.000000"));
        assert!(json.contains("\"operators\": [{\"id\": 3"));
    }
}
