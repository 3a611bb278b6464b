//! Damped PageRank over a graph stored as sparse tiles. Set-up builds the
//! tiles from an edge table with `MATRIX_FROM_ENTRIES`; one pass is one
//! iteration, a short `CREATE TABLE AS` joining every tile to its slice of
//! the rank vector. Serialized transport.

use std::time::Instant;

use crate::engine::{self, Cell, ColType, Db, DbOptions, Placement, Result, SparseReference};
use crate::gen::{Digest, Rng};
use crate::metrics::LayerMetrics;
use crate::probes;
use crate::stats;
use crate::workloads::{Batch, Pass, RunContext, Runner};

const DAMPING: f64 = 0.85;

const EDGE_COLUMNS: [(&str, ColType); 3] = [
    ("src", ColType::Int),
    ("dst", ColType::Int),
    ("w", ColType::Dbl),
];

pub struct PagerankSparse {
    db: Db,
    /// Tiles per side, side of one tile, and nodes (`grid × tile`).
    grid: usize,
    tile: usize,
    nodes: usize,
    edges: usize,
    /// Seconds the tile build of this set-up took.
    build_s: f64,
    /// Entries of tile (0, 0) in tile-local coordinates, for the probes.
    first_tile: Vec<(i64, i64, f64)>,
    reference: SparseReference,
    /// Rank after `step` iterations, by the reference iteration.
    rank: Vec<f64>,
    step: usize,
    teleport: f64,
    teleport_sql: String,
    digest: String,
}

fn build_sql(table: &str, tile: usize) -> String {
    format!(
        "CREATE TABLE {table} AS
         SELECT dst/{tile} AS bi, src/{tile} AS bj,
                MATRIX_FROM_ENTRIES(dst - (dst/{tile})*{tile}, src - (src/{tile})*{tile}, w) AS m
         FROM edges
         GROUP BY dst/{tile}, src/{tile}"
    )
}

impl PagerankSparse {
    pub fn set_up(ctx: &RunContext) -> Result<Self> {
        let (grid, tile) = if ctx.quick { (3, 16) } else { (50, 2000) };
        let nodes = grid * tile;
        let mut rng = Rng::fork(ctx.seed, "pagerank_sparse");
        let mut digest = Digest::new();
        // M[dst][src] = 1/outdegree(src); every node has an out-edge, so
        // columns sum to 1 and rank mass is conserved.
        let mut entries: Vec<(i64, i64, f64)> = Vec::with_capacity(nodes * 4 + grid * grid);
        for src in 0..nodes {
            let degree = 1 + rng.below(6);
            let w = 1.0 / degree as f64;
            for _ in 0..degree {
                let dst = rng.below(nodes as u64);
                digest.u64(src as u64);
                digest.u64(dst);
                entries.push((dst as i64, src as i64, w));
            }
        }
        let edges = entries.len();
        // A zero-weight entry in the last cell of every tile pins the shape
        // `MATRIX_FROM_ENTRIES` infers, and makes sure every tile exists.
        for bi in 0..grid {
            for bj in 0..grid {
                entries.push((
                    ((bi + 1) * tile - 1) as i64,
                    ((bj + 1) * tile - 1) as i64,
                    0.0,
                ));
            }
        }
        let first_tile: Vec<(i64, i64, f64)> = entries
            .iter()
            .filter(|&&(r, c, _)| (r as usize) < tile && (c as usize) < tile)
            .copied()
            .collect();

        let db = Db::open(&DbOptions {
            serialized: true,
            ..DbOptions::default()
        });
        db.create_table("edges", &EDGE_COLUMNS, Placement::RoundRobin)?;
        db.insert(
            "edges",
            entries
                .iter()
                .map(|&(dst, src, w)| vec![Cell::Int(src), Cell::Int(dst), Cell::Dbl(w)])
                .collect(),
        )?;
        let t0 = Instant::now();
        let built = db.execute(&build_sql("g", tile))?;
        let build_s = t0.elapsed().as_secs_f64();
        if built.inserted() != Some((grid * grid) as u64) {
            return Err(format!(
                "tile build made {:?} tiles, expected {}",
                built.inserted(),
                grid * grid
            ));
        }
        db.create_table(
            "r_0",
            &[("bj", ColType::Int), ("x", ColType::Vector(tile))],
            Placement::RoundRobin,
        )?;
        let uniform = 1.0 / nodes as f64;
        db.insert(
            "r_0",
            (0..grid)
                .map(|b| vec![Cell::Int(b as i64), Cell::Vector(vec![uniform; tile])])
                .collect(),
        )?;

        // The engine reads the constant from SQL text, so the reference
        // uses the value that text parses to.
        let teleport_sql = format!("{:.25}", (1.0 - DAMPING) / nodes as f64);
        let teleport: f64 = teleport_sql.parse().map_err(|e| format!("teleport: {e}"))?;
        let reference = SparseReference::build(nodes, entries)?;
        Ok(PagerankSparse {
            db,
            grid,
            tile,
            nodes,
            edges,
            build_s,
            first_tile,
            reference,
            rank: vec![uniform; nodes],
            step: 0,
            teleport,
            teleport_sql,
            digest: digest.hex(),
        })
    }
}

impl Batch for PagerankSparse {
    fn db(&self) -> &Db {
        &self.db
    }

    fn digest(&self) -> String {
        self.digest.clone()
    }

    fn describe(&self) -> String {
        format!(
            "nodes={} edges={} tiles={}x{} of {} (stored entries {}) build_s={:.4}",
            self.nodes,
            self.edges,
            self.grid,
            self.grid,
            self.tile,
            self.reference.nnz(),
            self.build_s
        )
    }

    fn warm_passes(&self) -> usize {
        2
    }

    fn traced_passes(&self) -> usize {
        10
    }

    fn pass(&mut self, runner: &mut Runner<'_>) -> Pass {
        let mut pass = Pass::default();
        let (from, to) = (format!("r_{}", self.step), format!("r_{}", self.step + 1));
        let sql = format!(
            "CREATE TABLE {to} AS
             SELECT g.bi AS bj,
                    SUM(matrix_vector_multiply(g.m, r.x)) * {DAMPING} + {} AS x
             FROM g, {from} AS r
             WHERE g.bj = r.bj
             GROUP BY g.bi",
            self.teleport_sql
        );
        let t0 = Instant::now();
        let reply = runner.run(&self.db, &sql);
        pass.seconds = t0.elapsed().as_secs_f64();
        if pass.record(reply).is_some() {
            let want = self.reference.step(&self.rank, DAMPING, self.teleport);
            let got = self.db.execute(&format!("SELECT bj, x FROM {to}"));
            match (want, got) {
                (Ok(want), Ok(got)) => {
                    let mut rank = vec![f64::NAN; self.nodes];
                    for r in 0..got.num_rows() {
                        if let (Some(b), Some(x)) = (got.int(r, 0), got.vector(r, 1)) {
                            let at = b as usize * self.tile;
                            if x.len() == self.tile && at + self.tile <= rank.len() {
                                rank[at..at + self.tile].copy_from_slice(x);
                            }
                        }
                    }
                    let mass: f64 = rank.iter().sum();
                    pass.check("rank mass", Ok((mass - 1.0).abs()));
                    pass.check("rank vector", Ok(engine::relative_error(&rank, &want)));
                    self.rank = want;
                }
                (Err(e), _) | (_, Err(e)) => pass.fail(format!("reading the rank back: {e}")),
            }
            // The next pass reads the new table only once it exists.
            if self.db.execute(&format!("DROP TABLE {from}")).is_ok() {
                self.step += 1;
            }
        }
        pass
    }

    fn probes(&mut self, _ctx: &RunContext, _pass_s: f64, out: &mut LayerMetrics) -> Result<()> {
        let tile = self.tile;
        let (nnz, spmv) = engine::spmv_probe(tile, &self.first_tile)?;
        out.set(
            "la.spmv_mnnz_s",
            probes::rate(nnz as f64, probes::median_seconds(0.3, spmv)) / 1e6,
        );
        out.set(
            "la.from_entries_mnnz_s",
            probes::rate(
                self.first_tile.len() as f64,
                probes::median_seconds(
                    0.3,
                    engine::from_entries_probe(tile, self.first_tile.clone()),
                ),
            ) / 1e6,
        );
        // One exchange batch of this workload: a run of sparse tiles.
        let tiles = self.db.sample("g", 64)?;
        probes::codec(&tiles, out);
        probes::pool_scope(out);
        let edges = self.db.sample("edges", 4096)?;
        probes::pivot(&edges, out);
        probes::insert(&edges, &EDGE_COLUMNS, out);
        // The tile build, twice more, for a median of three.
        let mut builds = vec![self.build_s];
        for _ in 0..2 {
            let t0 = Instant::now();
            self.db.execute(&build_sql("g_again", tile))?;
            builds.push(t0.elapsed().as_secs_f64());
            self.db.execute("DROP TABLE g_again")?;
        }
        out.set("build_s", stats::median(&builds));
        Ok(())
    }
}
