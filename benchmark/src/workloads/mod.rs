//! The six workloads.
//!
//! Each batch workload is a set-up, a fixed sequence of timed statements
//! called a pass, and a correctness check on what the pass returned. The
//! served workload is in [`serve_mixed`] and has its own loop.

pub mod distance_vector;
pub mod gram_tuple;
pub mod linreg_block;
pub mod matmul_tiled_ooc;
pub mod pagerank_sparse;
pub mod serve_mixed;

use std::path::PathBuf;

use crate::engine::{Db, ExecCounts, Reply, Result};
use crate::metrics::LayerMetrics;
use crate::span::Tracer;

/// Workload names, in the order the set runs them.
pub const NAMES: [&str; 6] = [
    "linreg_block",
    "gram_tuple",
    "distance_vector",
    "matmul_tiled_ooc",
    "pagerank_sparse",
    "serve_mixed",
];

/// Relative error allowed between an engine answer and its reference.
pub const TOLERANCE: f64 = 1e-9;

/// What a workload needs to know about the run it is part of.
#[derive(Debug, Clone)]
pub struct RunContext {
    pub seed: u64,
    /// Toy sizes, for the smoke test; results are marked and not comparable.
    pub quick: bool,
    /// This run's private directory (spill files, probe files).
    pub dir: PathBuf,
}

/// How a pass sends its statements to the engine.
pub enum Runner<'a> {
    /// `Database::execute`: the path end-to-end metrics are measured on.
    Direct,
    /// Layer by layer with a span around each call: the traced run.
    Staged(&'a mut Tracer),
}

impl Runner<'_> {
    pub fn run(&mut self, db: &Db, sql: &str) -> Result<Reply> {
        match self {
            Runner::Direct => db.execute(sql),
            Runner::Staged(t) => db.staged(sql, t),
        }
    }
}

/// One pass: how long its timed statements took and whether its answer was
/// right.
#[derive(Debug, Default)]
pub struct Pass {
    pub seconds: f64,
    /// Timed statements issued.
    pub attempted: u64,
    /// Statements that errored, plus one if the pass's answer was wrong.
    pub failed: u64,
    /// Why, for the log.
    pub failures: Vec<String>,
    /// Summed over the statements whose statistics the engine returned.
    pub counts: ExecCounts,
}

impl Pass {
    /// Records one timed statement's outcome and hands back its reply.
    pub fn record(&mut self, reply: Result<Reply>) -> Option<Reply> {
        self.attempted += 1;
        match reply {
            Ok(r) => {
                if let Some(c) = &r.counts {
                    self.counts.add(c);
                }
                Some(r)
            }
            Err(e) => {
                self.fail(format!("statement failed: {e}"));
                None
            }
        }
    }

    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.failures.push(why);
    }

    /// Fails the pass unless `error` is within [`TOLERANCE`].
    pub fn check(&mut self, what: &str, error: Result<f64>) {
        match error {
            Ok(e) if e <= TOLERANCE => {}
            Ok(e) => self.fail(format!(
                "{what}: relative error {e:e} exceeds {TOLERANCE:e}"
            )),
            Err(e) => self.fail(format!("{what}: {e}")),
        }
    }
}

/// A batch workload after set-up.
pub trait Batch {
    fn db(&self) -> &Db;
    /// Hex digest of every generated input value.
    fn digest(&self) -> String;
    /// One line on the sizes in use.
    fn describe(&self) -> String;
    /// Passes run and discarded before timing starts.
    fn warm_passes(&self) -> usize;
    /// Hand-driven passes the traced run measures.
    fn traced_passes(&self) -> usize {
        2
    }
    /// Runs the timed statements once, checks the answer, and undoes
    /// whatever the statements created (outside the timed region).
    fn pass(&mut self, runner: &mut Runner<'_>) -> Pass;
    /// Checks that hold only once, after the last pass; returns failures.
    fn finish(&mut self) -> Vec<String> {
        Vec::new()
    }
    /// Times this workload's layers from outside, at its own shapes.
    /// `pass_s` is the untraced median pass time, for shares of it.
    fn probes(&mut self, ctx: &RunContext, pass_s: f64, out: &mut LayerMetrics) -> Result<()>;
}

/// Set-up of the batch workload called `name`.
pub fn set_up(name: &str, ctx: &RunContext) -> Result<Box<dyn Batch>> {
    Ok(match name {
        "linreg_block" => Box::new(linreg_block::LinregBlock::set_up(ctx)?),
        "gram_tuple" => Box::new(gram_tuple::GramTuple::set_up(ctx)?),
        "distance_vector" => Box::new(distance_vector::DistanceVector::set_up(ctx)?),
        "matmul_tiled_ooc" => Box::new(matmul_tiled_ooc::MatmulTiledOoc::set_up(ctx)?),
        "pagerank_sparse" => Box::new(pagerank_sparse::PagerankSparse::set_up(ctx)?),
        other => return Err(format!("no batch workload named {other}")),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_wrong_answer_or_a_failed_statement_fails_the_pass() {
        let mut pass = Pass::default();
        assert!(pass.record(Ok(Reply::default())).is_some());
        pass.check("exact", Ok(0.0));
        pass.check("within tolerance", Ok(TOLERANCE));
        assert_eq!((pass.attempted, pass.failed), (1, 0));
        pass.check("beyond tolerance", Ok(2.0 * TOLERANCE));
        pass.check("not a number", Ok(f64::NAN));
        pass.check("no reference", Err("boom".into()));
        assert_eq!(pass.failed, 3);
        assert!(pass.record(Err("engine error".into())).is_none());
        assert_eq!((pass.attempted, pass.failed), (2, 4));
        assert_eq!(pass.failures.len(), 4);
    }

    #[test]
    fn every_named_batch_workload_sets_up_and_unknown_names_do_not() {
        let ctx = RunContext {
            seed: 3,
            quick: true,
            dir: std::env::temp_dir(),
        };
        assert!(set_up("serve_mixed", &ctx).is_err());
        assert!(set_up("nope", &ctx).is_err());
    }
}
