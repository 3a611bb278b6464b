//! Fig. 2, block-based: `β̂ = (XᵀX)⁻¹ Xᵀy` over 1000-row blocks that
//! `ROWMATRIX` views build inside the timed query (the paper counts
//! blocking time). Default transport, unbounded memory.

use std::time::Instant;

use crate::engine::{self, Cell, ColType, Db, DbOptions, Placement, Result};
use crate::gen::{Digest, Rng};
use crate::metrics::LayerMetrics;
use crate::probes;
use crate::workloads::{Batch, Pass, RunContext, Runner};

const QUERY: &str = "SELECT matrix_vector_multiply(
        matrix_inverse(SUM(matrix_multiply(trans_matrix(b.m), b.m))),
        SUM(matrix_vector_multiply(trans_matrix(b.m), t.yv))) AS beta
    FROM mlxi AS b, yb AS t
    WHERE b.mi = t.mi";

pub struct LinregBlock {
    db: Db,
    n: usize,
    d: usize,
    block: usize,
    x: Vec<f64>,
    y: Vec<f64>,
    digest: String,
}

impl LinregBlock {
    pub fn set_up(ctx: &RunContext) -> Result<Self> {
        let (n, d, block) = if ctx.quick {
            (96, 12, 32)
        } else {
            (2000, 400, 500)
        };
        let mut rng = Rng::fork(ctx.seed, "linreg_block");
        let x: Vec<f64> = (0..n * d).map(|_| rng.symmetric()).collect();
        let beta: Vec<f64> = (0..d).map(|_| rng.symmetric()).collect();
        let y: Vec<f64> = x
            .chunks(d)
            .map(|row| {
                row.iter().zip(&beta).map(|(a, b)| a * b).sum::<f64>() + 0.01 * rng.symmetric()
            })
            .collect();
        let mut digest = Digest::new();
        digest.f64s(&x);
        digest.f64s(&y);

        let db = Db::open(&DbOptions::default());
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
            "y",
            &[("i", ColType::Int), ("y_i", ColType::Dbl)],
            Placement::RoundRobin,
        )?;
        db.insert(
            "y",
            y.iter()
                .enumerate()
                .map(|(i, &v)| vec![Cell::Int(i as i64), Cell::Dbl(v)])
                .collect(),
        )?;
        db.create_table(
            "block_index",
            &[("mi", ColType::Int)],
            Placement::RoundRobin,
        )?;
        db.insert(
            "block_index",
            (0..n.div_ceil(block))
                .map(|b| vec![Cell::Int(b as i64)])
                .collect(),
        )?;
        db.execute(&format!(
            "CREATE VIEW mlxi AS
             SELECT ROWMATRIX(label_vector(x.value, x.id - ind.mi*{block})) AS m, ind.mi AS mi
             FROM x_vm AS x, block_index AS ind
             WHERE x.id/{block} = ind.mi
             GROUP BY ind.mi"
        ))?;
        db.execute(&format!(
            "CREATE VIEW yb AS
             SELECT VECTORIZE(label_scalar(y.y_i, y.i - ind.mi*{block})) AS yv, ind.mi AS mi
             FROM y, block_index AS ind
             WHERE y.i/{block} = ind.mi
             GROUP BY ind.mi"
        ))?;
        Ok(LinregBlock {
            db,
            n,
            d,
            block,
            x,
            y,
            digest: digest.hex(),
        })
    }
}

impl Batch for LinregBlock {
    fn db(&self) -> &Db {
        &self.db
    }

    fn digest(&self) -> String {
        self.digest.clone()
    }

    fn describe(&self) -> String {
        format!("n={} d={} block={}", self.n, self.d, self.block)
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
            match reply.vector(0, 0) {
                Some(beta) if reply.num_rows() == 1 => pass.check(
                    "beta against the normal equations",
                    engine::normal_equations_error(&self.x, self.n, self.d, &self.y, beta),
                ),
                _ => pass.fail("expected one row holding the vector beta".into()),
            }
        }
        pass
    }

    fn probes(&mut self, ctx: &RunContext, pass_s: f64, out: &mut LayerMetrics) -> Result<()> {
        let (d, block, blocks) = (self.d, self.block, self.n.div_ceil(self.block));
        let mut rng = Rng::fork(ctx.seed, "linreg_block.probes");
        // One pass makes, per block, one transpose and one `d × block` by
        // `block × d` product (`trans_matrix(m) × m` goes through GEMM, not
        // SYRK), then one inverse; the vector work is small beside them.
        let gemm_s = probes::median_seconds(1.5, engine::gemm_probe(d, block, d, &mut rng));
        let transpose_s = probes::median_seconds(0.2, engine::transpose_probe(block, d, &mut rng));
        let inverse_s = probes::median_seconds(1.0, engine::inverse_probe(d, &mut rng));
        let syrk_s = probes::median_seconds(1.0, engine::syrk_probe(block, d, &mut rng));
        let gemm_gflops = probes::rate(probes::gemm_flops(d, block, d), gemm_s) / 1e9;
        out.set("la.gemm_gflops", gemm_gflops);
        // SYRK computes half of the product's entries.
        out.set(
            "la.syrk_gflops",
            probes::rate(probes::gemm_flops(d, block, d) / 2.0, syrk_s) / 1e9,
        );
        out.set("la.inverse_s", inverse_s);
        out.set(
            "la.kernel_share",
            probes::rate(blocks as f64 * (gemm_s + transpose_s) + inverse_s, pass_s),
        );
        let sample = self.db.sample("x_vm", 1024)?;
        probes::pivot(&sample, out);
        probes::insert(
            &sample,
            &[("id", ColType::Int), ("value", ColType::Vector(d))],
            out,
        );
        Ok(())
    }
}
