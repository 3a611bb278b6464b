//! Paper §3.4, tiled multiply: `C(i,j) = Σₖ A(i,k)·B(k,j)` as a join on the
//! shared tile index and a grouped `SUM(matrix_multiply(..))`, under a
//! memory budget small enough that the join and the aggregate spill.
//! Serialized transport, private spill directory.

use std::path::PathBuf;
use std::time::Instant;

use crate::engine::{self, Cell, ColType, Db, DbOptions, Placement, Result};
use crate::gen::{Digest, Rng};
use crate::metrics::LayerMetrics;
use crate::probes;
use crate::workloads::{Batch, Pass, RunContext, Runner};

const QUERY: &str = "SELECT a.tr, b.tc, SUM(matrix_multiply(a.mat, b.mat)) AS m
    FROM ta AS a, tb AS b
    WHERE a.tc = b.tr
    GROUP BY a.tr, b.tc";

pub struct MatmulTiledOoc {
    db: Db,
    spill_dir: PathBuf,
    /// Tiles per side of the grid, and side of one tile.
    grid: usize,
    tile: usize,
    mem_mib: u64,
    /// Random vector `v` (one slice per tile column) and `A·(B·v)`, for the
    /// Freivalds check of the whole product.
    v: Vec<f64>,
    abv: Vec<f64>,
    /// One tile of the product computed densely: its grid position and
    /// values.
    exact: (usize, usize, Vec<f64>),
    digest: String,
}

fn columns(tile: usize) -> [(&'static str, ColType); 3] {
    [
        ("tr", ColType::Int),
        ("tc", ColType::Int),
        ("mat", ColType::Matrix(tile, tile)),
    ]
}

/// `M·v` for a grid of row-major tiles.
fn grid_matvec(tiles: &[Vec<f64>], grid: usize, tile: usize, v: &[f64]) -> Result<Vec<f64>> {
    let mut out = vec![0.0; grid * tile];
    for r in 0..grid {
        for c in 0..grid {
            let part = engine::matvec_reference(
                &tiles[r * grid + c],
                tile,
                tile,
                &v[c * tile..(c + 1) * tile],
            )?;
            for (o, p) in out[r * tile..(r + 1) * tile].iter_mut().zip(part) {
                *o += p;
            }
        }
    }
    Ok(out)
}

impl MatmulTiledOoc {
    pub fn set_up(ctx: &RunContext) -> Result<Self> {
        let (grid, tile, mem_mib) = if ctx.quick { (3, 8, 1) } else { (6, 128, 2) };
        let mut rng = Rng::fork(ctx.seed, "matmul_tiled_ooc");
        let mut digest = Digest::new();
        let mut make = |rng: &mut Rng| -> Vec<Vec<f64>> {
            (0..grid * grid)
                .map(|_| {
                    let t: Vec<f64> = (0..tile * tile).map(|_| rng.symmetric()).collect();
                    digest.f64s(&t);
                    t
                })
                .collect()
        };
        let a = make(&mut rng);
        let b = make(&mut rng);

        let spill_dir = ctx.dir.join("spill");
        std::fs::create_dir_all(&spill_dir).map_err(|e| e.to_string())?;
        let db = Db::open(&DbOptions {
            serialized: true,
            mem_mib: Some(mem_mib),
            spill_dir: Some(spill_dir.clone()),
        });
        for (name, tiles) in [("ta", &a), ("tb", &b)] {
            db.create_table(name, &columns(tile), Placement::Hash(0))?;
            db.insert(
                name,
                tiles
                    .iter()
                    .enumerate()
                    .map(|(k, t)| {
                        vec![
                            Cell::Int((k / grid) as i64),
                            Cell::Int((k % grid) as i64),
                            Cell::Matrix {
                                rows: tile,
                                cols: tile,
                                data: t.clone(),
                            },
                        ]
                    })
                    .collect(),
            )?;
        }

        let v: Vec<f64> = (0..grid * tile).map(|_| rng.symmetric()).collect();
        let bv = grid_matvec(&b, grid, tile, &v)?;
        let abv = grid_matvec(&a, grid, tile, &bv)?;
        let (er, ec) = (
            rng.below(grid as u64) as usize,
            rng.below(grid as u64) as usize,
        );
        let mut exact = vec![0.0; tile * tile];
        for k in 0..grid {
            let part =
                engine::multiply_reference(&a[er * grid + k], &b[k * grid + ec], tile, tile, tile)?;
            for (e, p) in exact.iter_mut().zip(part) {
                *e += p;
            }
        }
        Ok(MatmulTiledOoc {
            db,
            spill_dir,
            grid,
            tile,
            mem_mib,
            v,
            abv,
            exact: (er, ec, exact),
            digest: digest.hex(),
        })
    }

    fn leftover_spill_files(&self) -> usize {
        std::fs::read_dir(&self.spill_dir).map_or(0, Iterator::count)
    }
}

impl Batch for MatmulTiledOoc {
    fn db(&self) -> &Db {
        &self.db
    }

    fn digest(&self) -> String {
        self.digest.clone()
    }

    fn describe(&self) -> String {
        format!(
            "grid={0}x{0} tile={1}x{1} side={2} mem={3}MiB",
            self.grid,
            self.tile,
            self.grid * self.tile,
            self.mem_mib
        )
    }

    fn warm_passes(&self) -> usize {
        1
    }

    fn pass(&mut self, runner: &mut Runner<'_>) -> Pass {
        let mut pass = Pass::default();
        let t0 = Instant::now();
        let reply = runner.run(&self.db, QUERY);
        pass.seconds = t0.elapsed().as_secs_f64();
        if let Some(reply) = pass.record(reply) {
            let (grid, tile) = (self.grid, self.tile);
            if reply.num_rows() != grid * grid {
                pass.fail(format!(
                    "expected {} tiles, got {}",
                    grid * grid,
                    reply.num_rows()
                ));
            } else {
                // Freivalds: C·v must equal A·(B·v).
                let mut cv = vec![0.0; grid * tile];
                let mut exact_error = f64::INFINITY;
                let mut shape_ok = true;
                for r in 0..reply.num_rows() {
                    let (Some(tr), Some(tc), Some(m)) =
                        (reply.int(r, 0), reply.int(r, 1), reply.matrix(r, 2))
                    else {
                        shape_ok = false;
                        break;
                    };
                    let (tr, tc) = (tr as usize, tc as usize);
                    if tr >= grid || tc >= grid || m.rows != tile || m.cols != tile {
                        shape_ok = false;
                        break;
                    }
                    match engine::matvec_reference(
                        &m.data,
                        tile,
                        tile,
                        &self.v[tc * tile..(tc + 1) * tile],
                    ) {
                        Ok(part) => {
                            for (o, p) in cv[tr * tile..(tr + 1) * tile].iter_mut().zip(part) {
                                *o += p;
                            }
                        }
                        Err(_) => shape_ok = false,
                    }
                    if (tr, tc) == (self.exact.0, self.exact.1) {
                        exact_error = engine::relative_error(&m.data, &self.exact.2);
                    }
                }
                if shape_ok {
                    pass.check(
                        "product times a random vector",
                        Ok(engine::relative_error(&cv, &self.abv)),
                    );
                    pass.check("one tile against the dense product", Ok(exact_error));
                } else {
                    pass.fail("result tiles have the wrong shape or index".into());
                }
            }
        }
        let left = self.leftover_spill_files();
        if left != 0 {
            pass.fail(format!("{left} spill file(s) left behind"));
        }
        pass
    }

    fn probes(&mut self, ctx: &RunContext, _pass_s: f64, out: &mut LayerMetrics) -> Result<()> {
        let tile = self.tile;
        let mut rng = Rng::fork(ctx.seed, "matmul_tiled_ooc.probes");
        let gemm_s = probes::median_seconds(0.5, engine::gemm_probe(tile, tile, tile, &mut rng));
        out.set(
            "la.gemm_gflops",
            probes::rate(probes::gemm_flops(tile, tile, tile), gemm_s) / 1e9,
        );
        // One exchange batch of this workload: a handful of dense tiles.
        let sample = self.db.sample("ta", 16)?;
        probes::codec(&sample, out);
        let probe_dir = ctx.dir.join("probe-spill");
        let mut handle = None;
        let mut file_mb = 0.0;
        let write_s = probes::median_seconds(0.3, || {
            match engine::spill_write_once(&probe_dir, &sample) {
                Ok((s, bytes, h)) => {
                    file_mb = bytes as f64 / 1e6;
                    handle = Some(h);
                    s
                }
                Err(_) => f64::NAN,
            }
        });
        out.set("buf.spill_write_mb_s", probes::rate(file_mb, write_s));
        if let Some(h) = &handle {
            let read_s = probes::median_seconds(0.3, || h.read_once().unwrap_or(f64::NAN));
            out.set("buf.spill_read_mb_s", probes::rate(file_mb, read_s));
        }
        drop(handle);
        let _ = std::fs::remove_dir(&probe_dir);
        probes::insert(&sample, &columns(tile), out);
        out.set("buf.leftover_files", self.leftover_spill_files() as f64);
        Ok(())
    }

    fn finish(&mut self) -> Vec<String> {
        match self.leftover_spill_files() {
            0 => Vec::new(),
            n => vec![format!("{n} spill file(s) left behind at exit")],
        }
    }
}
