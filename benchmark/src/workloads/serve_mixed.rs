//! Two closed-loop clients against the in-process server on loopback: each
//! sends its next statement only after the previous reply (callers that
//! wait for an answer; one client per core of the reference host).
//!
//! A client's script is a sequence of blocks of ten statements, and one
//! block is this workload's pass: six point lookups, two 50-group
//! aggregates over `pts`, one single-row `INSERT INTO events`, and one
//! count-and-sum over the client's own rows of `events` — a read of what is
//! being written, so its cached plan is invalidated by the inserts of both
//! clients. The order inside a block and the looked-up ids come from the
//! seed. Three quarters of the lookups go to 64 hot ids, which fit the plan
//! cache; the rest are spread over the table and do not.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use crate::engine::{
    self, CacheCounts, Cell, ColType, Conn, Db, DbOptions, Placement, Reply, Result, Served,
    ServedError,
};
use crate::gen::{Digest, Rng};
use crate::span::Tracer;
use crate::workloads::RunContext;

pub const CLIENTS: usize = 2;
const GROUPS: usize = 50;
const HOT_IDS: u64 = 64;
/// Statements in one block, by class.
const BLOCK: [(Class, usize); 4] = [
    (Class::Point, 6),
    (Class::Agg, 2),
    (Class::Insert, 1),
    (Class::Count, 1),
];
pub const BLOCK_LEN: usize = 10;
/// Tenant of the in-process comparison loops, apart from the clients'.
const LOCAL_TENANT: usize = 99;

const AGG_SQL: &str = "SELECT grp, COUNT(*) AS n, SUM(v) AS s FROM pts GROUP BY grp";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    Point,
    Agg,
    Insert,
    Count,
}

impl Class {
    pub fn name(self) -> &'static str {
        match self {
            Class::Point => "point",
            Class::Agg => "agg",
            Class::Insert => "insert",
            Class::Count => "count",
        }
    }
}

/// One statement a client sent, timed from send to full reply.
#[derive(Debug, Clone, Copy)]
pub struct Op {
    pub class: Class,
    pub seconds: f64,
    pub ok: bool,
}

/// What the closed loop measured.
#[derive(Debug, Default)]
pub struct Driven {
    /// Statements started inside the measured window, all clients.
    pub ops: Vec<Op>,
    /// Wall time of every block that ran wholly inside the window.
    pub blocks: Vec<f64>,
    /// Correct replies per second of each of those blocks.
    pub block_rates: Vec<f64>,
    pub failures: Vec<String>,
    /// Statements admission control refused.
    pub rejected: u64,
    /// Plan-cache counters over the measured window.
    pub cache: CacheCounts,
    /// Client-side spans, one tracer per client (traced run only).
    pub tracers: Vec<Tracer>,
}

/// The rows a tenant has had acknowledged in `events`.
#[derive(Debug, Default, Clone, Copy)]
struct Written {
    rows: u64,
    sum: f64,
}

/// One client's seeded statement stream and the answers it expects.
struct Script<'a> {
    rng: Rng,
    tenant: usize,
    written: Written,
    seq: u64,
    pts: &'a [f64],
    groups: &'a [(i64, f64)],
}

/// A statement with what checking its reply needs.
struct Statement {
    class: Class,
    sql: String,
    /// Value an insert adds once acknowledged.
    adds: f64,
    /// Id a point lookup asked for.
    id: usize,
}

impl<'a> Script<'a> {
    fn new(seed: u64, tenant: usize, pts: &'a [f64], groups: &'a [(i64, f64)]) -> Self {
        Script {
            rng: Rng::fork(seed, &format!("serve_mixed.client{tenant}")),
            tenant,
            written: Written::default(),
            seq: 0,
            pts,
            groups,
        }
    }

    fn block(&mut self) -> Vec<Class> {
        let mut order: Vec<Class> = BLOCK
            .iter()
            .flat_map(|&(c, n)| std::iter::repeat_n(c, n))
            .collect();
        self.rng.shuffle(&mut order);
        order
    }

    fn statement(&mut self, class: Class) -> Statement {
        let mut st = Statement {
            class,
            sql: String::new(),
            adds: 0.0,
            id: 0,
        };
        match class {
            Class::Point => {
                let n = self.pts.len() as u64;
                let hot = HOT_IDS.min(n);
                // Hot ids are spread over the table, not its first rows.
                st.id = if self.rng.below(4) < 3 {
                    (self.rng.below(hot) * (n / hot)) as usize
                } else {
                    self.rng.below(n) as usize
                };
                st.sql = format!("SELECT v FROM pts WHERE id = {}", st.id);
            }
            Class::Agg => st.sql = AGG_SQL.to_string(),
            Class::Insert => {
                // Quarters add exactly in any order, so sums can be
                // compared for equality.
                st.adds = self.rng.below(4000) as f64 / 4.0;
                st.sql = format!(
                    "INSERT INTO events VALUES ({}, {}, {:?})",
                    self.tenant, self.seq, st.adds
                );
                self.seq += 1;
            }
            Class::Count => {
                st.sql = format!(
                    "SELECT COUNT(*) AS n, SUM(v) AS s FROM events WHERE tenant = {}",
                    self.tenant
                );
            }
        }
        st
    }

    /// Checks a reply and folds an acknowledged insert into the expected
    /// state. `Err` says what was wrong.
    fn check(&mut self, st: &Statement, reply: &Reply) -> std::result::Result<(), String> {
        match st.class {
            Class::Point => match (reply.num_rows(), reply.dbl(0, 0)) {
                (1, Some(v)) if v == self.pts[st.id] => Ok(()),
                (rows, v) => Err(format!(
                    "point {}: expected {}, got {v:?} in {rows} row(s)",
                    st.id, self.pts[st.id]
                )),
            },
            Class::Agg => {
                if reply.num_rows() != self.groups.len() {
                    return Err(format!("agg: {} groups", reply.num_rows()));
                }
                for r in 0..reply.num_rows() {
                    let got = (reply.int(r, 0), reply.int(r, 1), reply.dbl(r, 2));
                    let want = got.0.and_then(|g| self.groups.get(g as usize));
                    match (got, want) {
                        ((_, Some(n), Some(s)), Some(&(wn, ws))) if n == wn && s == ws => {}
                        _ => return Err(format!("agg: group row {got:?}, expected {want:?}")),
                    }
                }
                Ok(())
            }
            Class::Insert => match reply.inserted() {
                Some(1) => {
                    self.written.rows += 1;
                    self.written.sum += st.adds;
                    Ok(())
                }
                other => Err(format!("insert acknowledged {other:?} rows")),
            },
            Class::Count => {
                let n = reply.int(0, 0);
                // SUM over no rows is NULL.
                let s = reply.dbl(0, 1).unwrap_or(0.0);
                if n == Some(self.written.rows as i64) && s == self.written.sum {
                    Ok(())
                } else {
                    Err(format!(
                        "count: got ({n:?}, {s}), expected ({}, {})",
                        self.written.rows, self.written.sum
                    ))
                }
            }
        }
    }
}

pub struct ServeMixed {
    db: Db,
    served: Option<Served>,
    seed: u64,
    pts: Vec<f64>,
    /// Expected `(count, sum)` of every group of `pts`.
    groups: Vec<(i64, f64)>,
    /// Inserts acknowledged so far, over every loop run on this database.
    acknowledged: AtomicU64,
    digest: String,
}

impl ServeMixed {
    pub fn set_up(ctx: &RunContext) -> Result<Self> {
        let rows = if ctx.quick { 500 } else { 20_000 };
        let mut rng = Rng::fork(ctx.seed, "serve_mixed");
        let pts: Vec<f64> = (0..rows).map(|_| rng.below(4000) as f64 / 4.0).collect();
        let mut digest = Digest::new();
        digest.f64s(&pts);
        let mut groups = vec![(0i64, 0.0f64); GROUPS];
        for (id, &v) in pts.iter().enumerate() {
            groups[id % GROUPS].0 += 1;
            groups[id % GROUPS].1 += v;
        }

        let db = Db::open(&DbOptions::default());
        db.create_table(
            "pts",
            &[
                ("id", ColType::Int),
                ("grp", ColType::Int),
                ("v", ColType::Dbl),
            ],
            Placement::RoundRobin,
        )?;
        db.insert(
            "pts",
            pts.iter()
                .enumerate()
                .map(|(id, &v)| {
                    vec![
                        Cell::Int(id as i64),
                        Cell::Int((id % GROUPS) as i64),
                        Cell::Dbl(v),
                    ]
                })
                .collect(),
        )?;
        db.create_table(
            "events",
            &[
                ("tenant", ColType::Int),
                ("seq", ColType::Int),
                ("v", ColType::Dbl),
            ],
            Placement::RoundRobin,
        )?;
        let served = Served::start(&db)?;
        Ok(ServeMixed {
            db,
            served: Some(served),
            seed: ctx.seed,
            pts,
            groups,
            acknowledged: AtomicU64::new(0),
            digest: digest.hex(),
        })
    }

    pub fn digest(&self) -> String {
        self.digest.clone()
    }

    pub fn describe(&self) -> String {
        format!(
            "pts={} rows, {GROUPS} groups, {CLIENTS} closed-loop clients, block of {BLOCK_LEN}",
            self.pts.len()
        )
    }

    /// Runs the clients for `warm_s` unmeasured seconds and then `measure_s`
    /// measured ones (plus the rest of the block under way when they end). `round` keeps the tenants (and so the expected counts)
    /// of successive loops on one database apart.
    pub fn drive(&self, round: usize, warm_s: f64, measure_s: f64, traced: bool) -> Result<Driven> {
        let addr = self
            .served
            .as_ref()
            .ok_or("server already shut down")?
            .addr()
            .to_string();
        let started = Instant::now();
        let measure_from = started + Duration::from_secs_f64(warm_s);
        let deadline = measure_from + Duration::from_secs_f64(measure_s);
        let cache_at_start: OnceLock<CacheCounts> = OnceLock::new();
        let mut driven = Driven::default();

        struct ClientOut {
            ops: Vec<Op>,
            blocks: Vec<f64>,
            block_rates: Vec<f64>,
            failures: Vec<String>,
            rejected: u64,
            acknowledged: u64,
            tracer: Tracer,
        }

        let outs: Vec<Result<ClientOut>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..CLIENTS)
                .map(|c| {
                    let addr = addr.clone();
                    let cache_at_start = &cache_at_start;
                    scope.spawn(move || -> Result<ClientOut> {
                        let tenant = round * CLIENTS + c;
                        let mut script = Script::new(self.seed, tenant, &self.pts, &self.groups);
                        let mut out = ClientOut {
                            ops: Vec::new(),
                            blocks: Vec::new(),
                            block_rates: Vec::new(),
                            failures: Vec::new(),
                            rejected: 0,
                            acknowledged: 0,
                            tracer: Tracer::new(),
                        };
                        let mut conn = if traced {
                            out.tracer
                                .span("server.connect", |_| Conn::connect(&addr))?
                        } else {
                            Conn::connect(&addr)?
                        };
                        // No block starts after the deadline, but a block
                        // under way is finished, and every client measures
                        // at least one.
                        while Instant::now() < deadline || out.blocks.is_empty() {
                            let block_start = Instant::now();
                            let measured = block_start >= measure_from;
                            if measured {
                                // The first measured block marks where the
                                // window's cache counters start.
                                cache_at_start.get_or_init(|| self.db.plan_cache());
                            }
                            let mut correct = 0u32;
                            for class in script.block() {
                                let sent = Instant::now();
                                let st = script.statement(class);
                                let reply = if traced && measured {
                                    out.tracer
                                        .span("server.round_trip", |_| conn.query(&st.sql))
                                } else {
                                    conn.query(&st.sql)
                                };
                                let done = Instant::now();
                                let verdict = match &reply {
                                    Ok(r) => script.check(&st, r),
                                    Err(ServedError::Saturated(why)) => {
                                        out.rejected += 1;
                                        Err(format!("refused: {why}"))
                                    }
                                    Err(ServedError::Other(why)) => Err(why.clone()),
                                };
                                if class == Class::Insert && verdict.is_ok() {
                                    out.acknowledged += 1;
                                }
                                if measured {
                                    out.ops.push(Op {
                                        class,
                                        seconds: (done - sent).as_secs_f64(),
                                        ok: verdict.is_ok(),
                                    });
                                    if verdict.is_ok() {
                                        correct += 1;
                                    }
                                    if let Err(why) = verdict {
                                        out.failures
                                            .push(format!("client {c} {}: {why}", class.name()));
                                    }
                                }
                            }
                            if measured {
                                let seconds = block_start.elapsed().as_secs_f64();
                                out.blocks.push(seconds);
                                out.block_rates.push(f64::from(correct) / seconds);
                            }
                        }
                        if traced {
                            out.tracer.span("server.close", |_| conn.close())?;
                        } else {
                            conn.close()?;
                        }
                        Ok(out)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .unwrap_or_else(|_| Err("client thread panicked".into()))
                })
                .collect()
        });

        let end = self.db.plan_cache();
        driven
            .cache
            .add_since(cache_at_start.get().copied().unwrap_or(end), end);
        for out in outs {
            let out = out?;
            driven.ops.extend(out.ops);
            driven.blocks.extend(out.blocks);
            driven.block_rates.extend(out.block_rates);
            driven.failures.extend(out.failures);
            driven.rejected += out.rejected;
            self.acknowledged
                .fetch_add(out.acknowledged, Ordering::Relaxed);
            driven.tracers.push(out.tracer);
        }
        Ok(driven)
    }

    /// Every acknowledged insert must be in `events`, and nothing else.
    pub fn check_events(&self) -> std::result::Result<(), String> {
        let want = self.acknowledged.load(Ordering::Relaxed);
        let got = self
            .db
            .execute("SELECT COUNT(*) AS n FROM events")?
            .int(0, 0);
        if got == Some(want as i64) {
            Ok(())
        } else {
            Err(format!(
                "events holds {got:?} rows, {want} inserts were acknowledged"
            ))
        }
    }

    /// Point lookups through `Database::execute`, in this process, on the
    /// ids the clients use: `rounds` rounds of `reps` lookups with the
    /// engine's flight recorder as it is by default, each followed by `reps`
    /// with it disabled, so that a slow spell of the host falls on both.
    /// Returns the median seconds of a lookup with the recorder at its
    /// default, and with it off.
    pub fn local_point_seconds(&self, rounds: usize, reps: usize) -> Result<(f64, f64)> {
        let mut script = Script::new(self.seed, LOCAL_TENANT, &self.pts, &self.groups);
        let (mut default, mut off) = (Vec::new(), Vec::new());
        for _ in 0..rounds {
            for disabled in [false, true] {
                let was = disabled.then(|| engine::set_recorder_enabled(false));
                let lookups: Result<Vec<f64>> = (0..reps)
                    .map(|_| {
                        let st = script.statement(Class::Point);
                        let t0 = Instant::now();
                        let reply = self.db.execute(&st.sql)?;
                        let s = t0.elapsed().as_secs_f64();
                        script.check(&st, &reply)?;
                        Ok(s)
                    })
                    .collect();
                if let Some(was) = was {
                    engine::set_recorder_enabled(was);
                }
                if disabled { &mut off } else { &mut default }.extend(lookups?);
            }
        }
        Ok((crate::stats::median(&default), crate::stats::median(&off)))
    }

    /// `blocks` blocks of the script, in this process, driven layer by layer
    /// under spans; returns the mean seconds of a block.
    pub fn staged_blocks(
        &self,
        blocks: usize,
        tracer: &mut Tracer,
    ) -> Result<(f64, engine::ExecCounts)> {
        let mut script = Script::new(self.seed, LOCAL_TENANT + 1, &self.pts, &self.groups);
        let mut counts = engine::ExecCounts::default();
        let t0 = Instant::now();
        for b in 0..blocks {
            tracer.set_pass(b as i64);
            for class in script.block() {
                let st = script.statement(class);
                let reply = self.db.staged(&st.sql, tracer)?;
                if let Some(c) = &reply.counts {
                    counts.add(c);
                }
                script.check(&st, &reply)?;
                if class == Class::Insert {
                    self.acknowledged.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        Ok((t0.elapsed().as_secs_f64() / blocks.max(1) as f64, counts))
    }

    /// Stops the server and waits for its threads.
    pub fn shut_down(&mut self) {
        self.served = None;
    }
}
