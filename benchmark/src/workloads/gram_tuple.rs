//! Fig. 1 / Fig. 4, tuple-based: `G = XᵀX` over `(row, col, value)` triples
//! as a self-join and a grouped `SUM`. Serialized transport, so the
//! exchanges ship encoded frames.

use std::time::Instant;

use crate::engine::{self, Cell, ColType, Db, DbOptions, Placement, Result};
use crate::gen::{Digest, Rng};
use crate::metrics::LayerMetrics;
use crate::probes;
use crate::workloads::{Batch, Pass, RunContext, Runner};

const QUERY: &str = "SELECT x1.col_index, x2.col_index, SUM(x1.value * x2.value) AS v
    FROM x AS x1, x AS x2
    WHERE x1.row_index = x2.row_index
    GROUP BY x1.col_index, x2.col_index";

const COLUMNS: [(&str, ColType); 3] = [
    ("row_index", ColType::Int),
    ("col_index", ColType::Int),
    ("value", ColType::Dbl),
];

pub struct GramTuple {
    db: Db,
    n: usize,
    d: usize,
    /// `XᵀX`, row-major `d × d`.
    reference: Vec<f64>,
    digest: String,
}

impl GramTuple {
    pub fn set_up(ctx: &RunContext) -> Result<Self> {
        let (n, d) = if ctx.quick { (40, 6) } else { (125, 64) };
        let mut rng = Rng::fork(ctx.seed, "gram_tuple");
        let x: Vec<f64> = (0..n * d).map(|_| rng.symmetric()).collect();
        let mut digest = Digest::new();
        digest.f64s(&x);

        let db = Db::open(&DbOptions {
            serialized: true,
            ..DbOptions::default()
        });
        db.create_table("x", &COLUMNS, Placement::RoundRobin)?;
        db.insert(
            "x",
            x.iter()
                .enumerate()
                .map(|(k, &v)| {
                    vec![
                        Cell::Int((k / d) as i64),
                        Cell::Int((k % d) as i64),
                        Cell::Dbl(v),
                    ]
                })
                .collect(),
        )?;
        let reference = engine::gram_reference(&x, n, d)?;
        Ok(GramTuple {
            db,
            n,
            d,
            reference,
            digest: digest.hex(),
        })
    }
}

impl Batch for GramTuple {
    fn db(&self) -> &Db {
        &self.db
    }

    fn digest(&self) -> String {
        self.digest.clone()
    }

    fn describe(&self) -> String {
        format!(
            "n={} d={} rows={} joined={} groups={}",
            self.n,
            self.d,
            self.n * self.d,
            self.n * self.d * self.d,
            self.d * self.d
        )
    }

    fn warm_passes(&self) -> usize {
        2
    }

    fn pass(&mut self, runner: &mut Runner<'_>) -> Pass {
        let mut pass = Pass::default();
        let t0 = Instant::now();
        let reply = runner.run(&self.db, QUERY);
        pass.seconds = t0.elapsed().as_secs_f64();
        if let Some(reply) = pass.record(reply) {
            let d = self.d;
            let mut got = vec![f64::NAN; d * d];
            for r in 0..reply.num_rows() {
                if let (Some(i), Some(j), Some(v)) =
                    (reply.int(r, 0), reply.int(r, 1), reply.dbl(r, 2))
                {
                    if let Some(slot) = usize::try_from(i)
                        .ok()
                        .zip(usize::try_from(j).ok())
                        .filter(|&(i, j)| i < d && j < d)
                        .and_then(|(i, j)| got.get_mut(i * d + j))
                    {
                        *slot = v;
                    }
                }
            }
            if reply.num_rows() != d * d {
                pass.fail(format!(
                    "expected {} groups, got {}",
                    d * d,
                    reply.num_rows()
                ));
            } else {
                pass.check(
                    "Gram matrix",
                    Ok(engine::relative_error(&got, &self.reference)),
                );
            }
        }
        pass
    }

    fn probes(&mut self, _ctx: &RunContext, _pass_s: f64, out: &mut LayerMetrics) -> Result<()> {
        let sample = self.db.sample("x", 4096)?;
        probes::pivot(&sample, out);
        probes::codec(&sample, out);
        probes::insert(&sample, &COLUMNS, out);
        Ok(())
    }
}
