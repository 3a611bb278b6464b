//! Fig. 3, vector-based: for every point the distance `xᵢ·(A xⱼ)` to its
//! nearest other point, then the point whose nearest neighbour is
//! farthest. Two `CREATE TABLE AS` and one query per pass; the tables are
//! dropped outside the timed region. Serialized transport.

use std::time::Instant;

use crate::engine::{self, Cell, ColType, Db, DbOptions, Placement, Result};
use crate::gen::{Digest, Rng};
use crate::metrics::LayerMetrics;
use crate::probes;
use crate::workloads::{Batch, Pass, RunContext, Runner};

const TIMED: [&str; 3] = [
    "CREATE TABLE mx AS
     SELECT x.id AS id, matrix_vector_multiply(a.val, x.value) AS mx_data
     FROM x_vm AS x, matrixA AS a",
    "CREATE TABLE distancesm AS
     SELECT a.id AS id, MIN(inner_product(mxx.mx_data, a.value)) AS dist
     FROM x_vm AS a, mx AS mxx
     WHERE a.id <> mxx.id
     GROUP BY a.id",
    "SELECT d.id, d.dist FROM distancesm AS d,
            (SELECT MAX(dist) AS mx FROM distancesm) AS m
     WHERE d.dist = m.mx",
];

pub struct DistanceVector {
    db: Db,
    n: usize,
    d: usize,
    /// Arg-max point and its nearest-neighbour distance, by brute force.
    reference: (usize, f64),
    digest: String,
}

impl DistanceVector {
    pub fn set_up(ctx: &RunContext) -> Result<Self> {
        let (n, d) = if ctx.quick { (30, 5) } else { (600, 100) };
        let mut rng = Rng::fork(ctx.seed, "distance_vector");
        let x: Vec<f64> = (0..n * d).map(|_| rng.symmetric()).collect();
        // A = BᵀB/d + I: symmetric positive definite, as a metric must be.
        let b: Vec<f64> = (0..d * d).map(|_| rng.symmetric()).collect();
        let mut a = vec![0.0; d * d];
        for i in 0..d {
            for j in 0..d {
                let dot: f64 = (0..d).map(|k| b[k * d + i] * b[k * d + j]).sum();
                a[i * d + j] = dot / d as f64 + if i == j { 1.0 } else { 0.0 };
            }
        }
        let mut digest = Digest::new();
        digest.f64s(&x);
        digest.f64s(&a);

        let db = Db::open(&DbOptions {
            serialized: true,
            ..DbOptions::default()
        });
        db.create_table(
            "x_vm",
            &[("id", ColType::Int), ("value", ColType::Vector(d))],
            Placement::RoundRobin,
        )?;
        db.insert(
            "x_vm",
            x.chunks(d)
                .enumerate()
                .map(|(i, row)| vec![Cell::Int(i as i64), Cell::Vector(row.to_vec())])
                .collect(),
        )?;
        db.create_table(
            "matrixA",
            &[("val", ColType::Matrix(d, d))],
            Placement::Replicated,
        )?;
        db.insert(
            "matrixA",
            vec![vec![Cell::Matrix {
                rows: d,
                cols: d,
                data: a.clone(),
            }]],
        )?;
        let reference = engine::distance_reference(&x, n, d, &a)?;
        Ok(DistanceVector {
            db,
            n,
            d,
            reference,
            digest: digest.hex(),
        })
    }
}

impl Batch for DistanceVector {
    fn db(&self) -> &Db {
        &self.db
    }

    fn digest(&self) -> String {
        self.digest.clone()
    }

    fn describe(&self) -> String {
        format!("n={} d={} pairs={}", self.n, self.d, self.n * self.n)
    }

    fn warm_passes(&self) -> usize {
        2
    }

    fn pass(&mut self, runner: &mut Runner<'_>) -> Pass {
        let mut pass = Pass::default();
        let t0 = Instant::now();
        let replies: Vec<_> = TIMED.iter().map(|sql| runner.run(&self.db, sql)).collect();
        pass.seconds = t0.elapsed().as_secs_f64();
        let mut last = None;
        for reply in replies {
            last = pass.record(reply);
        }
        if let Some(reply) = last {
            let (want_id, want_dist) = self.reference;
            match (reply.num_rows(), reply.int(0, 0), reply.dbl(0, 1)) {
                (1, Some(id), Some(dist)) if id == want_id as i64 => pass.check(
                    "arg-max distance",
                    Ok(engine::relative_error(&[dist], &[want_dist])),
                ),
                (rows, id, _) => pass.fail(format!(
                    "expected point {want_id}, got {id:?} in {rows} row(s)"
                )),
            }
        }
        for table in ["mx", "distancesm"] {
            // A failed CREATE leaves nothing to drop; the failure is
            // already counted.
            let _ = self.db.execute(&format!("DROP TABLE {table}"));
        }
        pass
    }

    fn probes(&mut self, _ctx: &RunContext, _pass_s: f64, out: &mut LayerMetrics) -> Result<()> {
        let sample = self.db.sample("x_vm", 1024)?;
        probes::pivot(&sample, out);
        probes::codec(&sample, out);
        probes::insert(
            &sample,
            &[("id", ColType::Int), ("value", ColType::Vector(self.d))],
            out,
        );
        Ok(())
    }
}
