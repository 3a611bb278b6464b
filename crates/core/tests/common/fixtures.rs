//! The tables the corpus runs over. Every double in them is a dyadic
//! rational small enough that each partial sum and product is exact, so
//! re-associating an aggregate (more workers split it into partials merged
//! by a Final) cannot move a bit and `==` is the contract, not a
//! tolerance. Batch size, engine and spilling re-associate nothing.
//! Table names are disjoint across fixtures: one database can hold them all.
//! The loaders that take rows ([`tile_table`], [`big_matrix`],
//! [`points_tables`]) also serve a suite's full-mantissa random twin of a
//! fixture, for comparisons that stay at one worker count.

use lardb::{
    CooBuilder, DataType, Database, Matrix, Partitioning, Row, Schema, SparseMatrix, Value,
    Vector,
};

use super::lattice::Cell;

/// The table set a corpus statement reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fixture {
    /// `skew`, `dim`, `stile`: [`skewed_db`].
    Skew,
    /// `fat`: [`fat_db`].
    Fat,
    /// `facts`, `dims`: [`seed_db`].
    Facts,
    /// `t`, `empty`, `edge`: [`mixed_db`].
    Mixed,
    /// `z`, `p`, `n`: [`nan_db`].
    Nan,
    /// `ta`, `tb`, `vt`: [`tile_db`] with 4 × 4 CSR tiles at 1 % density.
    Tiles,
    /// `wide`: [`wide_db`].
    Wide,
    /// `bigMatrix`, `anotherBigMat`: [`paper_db`].
    Paper,
    /// `x_vm`, `x`, `y`, `block_index`, view `MLX`: [`points_db`].
    Points,
}

impl Fixture {
    pub fn load(self, db: &Database) {
        match self {
            Fixture::Skew => skewed_db(db),
            Fixture::Fat => fat_db(db),
            Fixture::Facts => seed_db(db),
            Fixture::Mixed => mixed_db(db),
            Fixture::Nan => nan_db(db),
            Fixture::Tiles => tile_db(db, 4, true, 0.01),
            Fixture::Wide => wide_db(db),
            Fixture::Paper => paper_db(db),
            Fixture::Points => points_db(db),
        }
    }

    /// A database under `cell` holding this fixture.
    pub fn open(self, cell: &Cell) -> Database {
        let db = cell.open();
        self.load(&db);
        db
    }
}

/// Tiny deterministic xorshift, so contents are identical run to run and
/// across the databases of one comparison.
pub fn rngish(seed: u64) -> impl FnMut() -> u64 {
    let mut s = seed | 1;
    move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    }
}

fn table(
    db: &Database,
    name: &str,
    columns: &[(&str, DataType)],
    by: Partitioning,
    rows: Vec<Row>,
) {
    db.create_table(name, Schema::from_pairs(columns), by).unwrap();
    db.insert_rows(name, rows).unwrap();
}

fn int(i: i64) -> Value {
    Value::Integer(i)
}

/// `skew` hash-partitions 90 % of its rows into a single partition (the
/// 900 rows with `k = 0`); `dim` is a 7-row table to join against; `stile`
/// is a 3 × 3 grid of sparse 32 × 32 CSR tiles whose exchange frames take
/// the sparse (tag-8) wire encoding, so transport faults cover that codec
/// path too.
pub fn skewed_db(db: &Database) {
    let skew = (0..900i64)
        .map(|i| (0, i, 0.25))
        .chain((0..100).map(|i| (i + 1, i, 1.5)))
        .map(|(k, i, step)| Row::new(vec![int(k), int(i % 7), Value::Double(i as f64 * step)]));
    table(
        db,
        "skew",
        &[("k", DataType::Integer), ("g", DataType::Integer), ("v", DataType::Double)],
        Partitioning::Hash(0),
        skew.collect(),
    );
    table(
        db,
        "dim",
        &[("g", DataType::Integer), ("label", DataType::Integer)],
        Partitioning::Hash(0),
        (0..7).map(|g| Row::new(vec![int(g), int(g * 100)])).collect(),
    );
    let mut rng = rngish(0x7153);
    let mut stile = Vec::new();
    for (tr, tc) in (0..9).map(|t| (t / 3, t % 3)) {
        let mut b = CooBuilder::new();
        for _ in 0..50 {
            b.push((rng() % 32) as i64, (rng() % 32) as i64, (rng() % 100 + 1) as f64 / 16.0)
                .unwrap();
        }
        let tile = Value::sparse_matrix(b.build(32, 32).unwrap());
        stile.push(Row::new(vec![int(tr), int(tc), tile]));
    }
    table(db, "stile", &tile_columns(32), Partitioning::Hash(0), stile);
}

/// A table fat enough that one partition's hash-join build side and the
/// `GROUP BY payload` aggregate state both exceed a 1 MiB budget: 6000
/// rows with a ~140-byte VARCHAR payload (~1.2 MiB footprint), 90 % of
/// them hash-skewed into a single partition.
pub fn fat_db(db: &Database) {
    let rows = (0..6000i64).map(|i| {
        Row::new(vec![
            int(i),
            int(if i % 10 != 0 { 0 } else { i }),
            int(i % 7),
            Value::Double(i as f64 * 0.125),
            Value::varchar(format!("payload-{i:0>128}")),
        ])
    });
    let columns = [
        ("id", DataType::Integer),
        ("k", DataType::Integer),
        ("g", DataType::Integer),
        ("v", DataType::Double),
        ("payload", DataType::Varchar),
    ];
    table(db, "fat", &columns, Partitioning::Hash(1), rows.collect());
}

/// A fact table with integer keys and quarter-step doubles plus a
/// dimension to join against, created through SQL like a client would.
pub fn seed_db(db: &Database) {
    db.execute("CREATE TABLE facts (id INTEGER, g INTEGER, v DOUBLE)").unwrap();
    let values: Vec<String> =
        (0..200).map(|i| format!("({i}, {}, {})", i % 5, i as f64 * 0.25)).collect();
    db.execute(&format!("INSERT INTO facts VALUES {}", values.join(", "))).unwrap();
    db.execute("CREATE TABLE dims (g INTEGER, label INTEGER)").unwrap();
    db.execute("INSERT INTO dims VALUES (0, 100), (1, 101), (2, 102), (3, 103), (4, 104)")
        .unwrap();
}

/// Mixed-type `t`: half-step doubles, NULLs in `g` and `v`, and a VARCHAR
/// column for the type-error statements; `empty` has no rows; `edge` holds
/// `(1, 1)` on the first partition and `(2, i64::MAX)` on the second, where
/// workers allow.
pub fn mixed_db(db: &Database) {
    let rows = (0..400i64).map(|i| {
        Row::new(vec![
            int(i),
            if i % 11 == 0 { Value::Null } else { int(i % 7) },
            if i % 13 == 0 { Value::Null } else { Value::Double(i as f64 * 0.5 - 100.0) },
            Value::varchar(format!("s{}", i % 3)),
        ])
    });
    let columns = [
        ("id", DataType::Integer),
        ("g", DataType::Integer),
        ("v", DataType::Double),
        ("s", DataType::Varchar),
    ];
    table(db, "t", &columns, Partitioning::Hash(0), rows.collect());
    let columns = [("x", DataType::Integer), ("y", DataType::Double)];
    table(db, "empty", &columns, Partitioning::RoundRobin, Vec::new());
    let columns = [("a", DataType::Integer), ("b", DataType::Integer)];
    let rows = [(1, 1), (2, i64::MAX)].map(|(a, b)| Row::new(vec![int(a), int(b)]));
    table(db, "edge", &columns, Partitioning::RoundRobin, rows.to_vec());
}

/// Sources of NaN group keys: `z` (`v / v` is NaN on its zeros), `p`
/// (6 000 rows over 3 000 payloads), and `n`, which stores NaNs of
/// different sign and payload beside both zeros.
pub fn nan_db(db: &Database) {
    let doubles = [("v", DataType::Double)];
    let double_rows =
        |values: Vec<f64>| values.into_iter().map(|v| Row::new(vec![Value::Double(v)])).collect();
    let z = vec![0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.0, 0.0];
    table(db, "z", &doubles, Partitioning::RoundRobin, double_rows(z));
    let p = (0..6000i64).map(|i| Row::new(vec![int(i % 3000), Value::Double(i as f64)]));
    let columns = [("payload", DataType::Integer), ("v", DataType::Double)];
    table(db, "p", &columns, Partitioning::Hash(0), p.collect());
    let n = [0x7FF8_0000_0000_0000u64, 0xFFF8_0000_0000_0000, 0x7FF8_0000_0000_00AB];
    let n = n.map(f64::from_bits).into_iter().chain([0.0, -0.0, f64::NAN, 2.5]);
    table(db, "n", &doubles, Partitioning::RoundRobin, double_rows(n.collect()));
}

/// 6 000 rows over 3 000 distinct 264-byte payloads, round-robin: a
/// grouped aggregate over `payload` cannot hold its state in 1 MiB.
pub fn wide_db(db: &Database) {
    let rows = (0..6000i64).map(|i| {
        let payload = Value::varchar(format!("payload-{:0>256}", i % 3000));
        Row::new(vec![Value::Double(i as f64 * 0.125), payload])
    });
    let columns = [("v", DataType::Double), ("payload", DataType::Varchar)];
    table(db, "wide", &columns, Partitioning::RoundRobin, rows.collect());
}

fn tile_columns(tile: usize) -> [(&'static str, DataType); 3] {
    [
        ("tr", DataType::Integer),
        ("tc", DataType::Integer),
        ("mat", DataType::Matrix(Some(tile), Some(tile))),
    ]
}

/// The stored cells of a `rows × cols` tile at `density`: exactly
/// `ceil(rows · cols · density)` of them, chosen by a partial shuffle, as
/// `(cell index, value)`. Values are positive 64ths: no cancellation, so
/// stored nnz equals the dense nonzero count and `NNZ()` agrees between a
/// tile and its densified twin.
fn stored_cells(seed: u64, cells: usize, density: f64) -> Vec<(usize, f64)> {
    let mut rng = rngish(seed);
    let mut order: Vec<usize> = (0..cells).collect();
    let target = (cells as f64 * density).ceil() as usize;
    for i in 0..target {
        order.swap(i, i + rng() as usize % (cells - i));
    }
    order.truncate(target);
    order.into_iter().map(|cell| (cell, (rng() % 2000 + 1) as f64 / 64.0)).collect()
}

/// A CSR tile of [`stored_cells`].
pub fn sparse_tile(seed: u64, rows: usize, cols: usize, density: f64) -> SparseMatrix {
    let mut b = CooBuilder::new();
    for (cell, v) in stored_cells(seed, rows * cols, density) {
        b.push((cell / cols) as i64, (cell % cols) as i64, v).unwrap();
    }
    b.build(rows, cols).unwrap()
}

/// The densified twin of [`sparse_tile`], filled directly.
fn dense_tile(seed: u64, rows: usize, cols: usize, density: f64) -> Matrix {
    let mut m = Matrix::zeros(rows, cols);
    for (cell, v) in stored_cells(seed, rows * cols, density) {
        m.set(cell / cols, cell % cols, v).unwrap();
    }
    m
}

/// Side of a [`tile_db`] tile.
pub const TILE: usize = 64;

/// `name(tr, tc, mat)`: a grid of [`TILE`]-sided tiles, hashed on `tr`.
pub fn tile_table(db: &Database, name: &str, tiles: Vec<Row>) {
    table(db, name, &tile_columns(TILE), Partitioning::Hash(0), tiles);
}

/// Two `tiles × tiles` grids of 64 × 64 tiles, `ta` and `tb`, plus a
/// single-row vector table `vt`. `sparse` stores CSR tiles; otherwise the
/// densified twins of the *same* tiles, so only dense kernels ever run.
pub fn tile_db(db: &Database, tiles: usize, sparse: bool, density: f64) {
    for (name, base) in [("ta", 0x5eed_0001u64), ("tb", 0x5eed_0002)] {
        let rows = (0..tiles * tiles).map(|t| {
            let seed = base ^ (t / tiles * 31 + t % tiles) as u64 ^ density.to_bits();
            let cell = if sparse {
                Value::sparse_matrix(sparse_tile(seed, TILE, TILE, density))
            } else {
                Value::matrix(dense_tile(seed, TILE, TILE, density))
            };
            Row::new(vec![int((t / tiles) as i64), int((t % tiles) as i64), cell])
        });
        tile_table(db, name, rows.collect());
    }
    let x = Vector::from_vec((0..TILE).map(|i| (i as f64 + 1.0) / 8.0).collect());
    let columns = [("x", DataType::Vector(Some(TILE)))];
    table(db, "vt", &columns, Partitioning::Hash(0), vec![Row::new(vec![Value::vector(x)])]);
}

/// A dyadic rational `k / 16`, `|k| <= 64`.
fn sixteenth(rng: &mut impl FnMut() -> u64) -> f64 {
    ((rng() % 129) as i64 - 64) as f64 / 16.0
}

/// A table of `tiles` in the paper's §3.4 `bigMatrix` layout: `(tileRow,
/// tileCol, mat)`, the `MATRIX` column untyped.
pub fn big_matrix(db: &Database, name: &str, by: Partitioning, tiles: Vec<Row>) {
    let columns = [
        ("tileRow", DataType::Integer),
        ("tileCol", DataType::Integer),
        ("mat", DataType::Matrix(None, None)),
    ];
    table(db, name, &columns, by, tiles);
}

/// Two round-robin 3 × 3 grids of 6 × 6 tiles of sixteenths.
pub fn paper_db(db: &Database) {
    for (name, seed) in [("bigMatrix", 11), ("anotherBigMat", 22)] {
        let mut rng = rngish(seed);
        let tiles = (0..9).map(|t| {
            let m = Matrix::from_fn(6, 6, |_, _| sixteenth(&mut rng));
            Row::new(vec![int(t / 3), int(t % 3), Value::matrix(m)])
        });
        big_matrix(db, name, Partitioning::RoundRobin, tiles.collect());
    }
}

/// Points in the fixture of [`points_db`], and their dimension.
pub const POINTS: (usize, usize) = (40, 4);

/// The 40 × 4 data matrix of [`points_db`]: sixteenths.
pub fn points() -> Matrix {
    let mut rng = rngish(0x9a11);
    Matrix::from_fn(POINTS.0, POINTS.1, |_, _| sixteenth(&mut rng))
}

/// [`points_tables`] of [`points`], with targets that are sixteenths too.
pub fn points_db(db: &Database) {
    let mut rng = rngish(0x7a49);
    let y: Vec<f64> = (0..POINTS.0).map(|_| sixteenth(&mut rng)).collect();
    points_tables(db, &points(), &y);
}

/// One data set in each representation the paper compares: `x_vm(id,
/// value VECTOR)`, `x(row_index, col_index, value)`, the §5 blocking view
/// `MLX` over `block_index` (blocks of 8 points), targets `y`, and the
/// block regression's views: `MLXI`, `MLX` with its block id `mi`, and
/// `YB`, the targets blocked the same way.
pub fn points_tables(db: &Database, x: &Matrix, y: &[f64]) {
    let (n, dims) = POINTS;
    let vectors = (0..n).map(|i| {
        Row::new(vec![int(i as i64), Value::vector(Vector::from_slice(x.row(i)))])
    });
    let columns = [("id", DataType::Integer), ("value", DataType::Vector(Some(dims)))];
    table(db, "x_vm", &columns, Partitioning::RoundRobin, vectors.collect());
    let tuples = (0..n * dims).map(|t| {
        let (i, j) = (t / dims, t % dims);
        Row::new(vec![int(i as i64), int(j as i64), Value::Double(x.row(i)[j])])
    });
    let columns = [
        ("row_index", DataType::Integer),
        ("col_index", DataType::Integer),
        ("value", DataType::Double),
    ];
    table(db, "x", &columns, Partitioning::RoundRobin, tuples.collect());
    let targets = (0..n).map(|i| Row::new(vec![int(i as i64), Value::Double(y[i])]));
    let columns = [("i", DataType::Integer), ("y_i", DataType::Double)];
    table(db, "y", &columns, Partitioning::RoundRobin, targets.collect());
    let blocks = (0..5).map(|b| Row::new(vec![int(b)]));
    let columns = [("mi", DataType::Integer)];
    table(db, "block_index", &columns, Partitioning::RoundRobin, blocks.collect());
    db.execute(
        "CREATE VIEW MLX AS
         SELECT ROWMATRIX(label_vector(x.value, x.id - ind.mi*8)) AS m
         FROM x_vm AS x, block_index AS ind
         WHERE x.id/8 = ind.mi
         GROUP BY ind.mi",
    )
    .unwrap();
    db.execute(
        "CREATE VIEW MLXI AS
         SELECT ROWMATRIX(label_vector(x.value, x.id - ind.mi*8)) AS m, ind.mi AS mi
         FROM x_vm AS x, block_index AS ind
         WHERE x.id/8 = ind.mi
         GROUP BY ind.mi",
    )
    .unwrap();
    db.execute(
        "CREATE VIEW YB AS
         SELECT VECTORIZE(label_scalar(y.y_i, y.i - ind.mi*8)) AS yv, ind.mi AS mi
         FROM y, block_index AS ind
         WHERE y.i/8 = ind.mi
         GROUP BY ind.mi",
    )
    .unwrap();
}
