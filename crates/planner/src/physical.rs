//! Physical plans: the executable operator tree.
//!
//! Physical planning turns an optimized [`LogicalPlan`] into operators the
//! executor interprets, inserting **exchange** operators where data must
//! move between the simulated cluster's workers. Exchange placement uses
//! the classic distribution-property framework: each operator reports how
//! its output is partitioned, and a join/aggregation only shuffles when the
//! requirement is not already met — which is exactly the paper's §2.1
//! observation that when `R` is already partitioned on the join key, only
//! `L` needs to be shuffled, "the sort of decision a modern query optimizer
//! makes with total transparency".

use lardb_storage::{Catalog, Column, DataType, Partitioning, Schema};

use crate::cost::{self, PlanEstimate};
use crate::error::{PlanError, Result};
use crate::expr::Expr;
use crate::functions::AggFunc;
use crate::logical::{AggExpr, JoinKind, LogicalPlan};
use crate::optimizer::StatsSource;
use crate::Optimizer;

/// How an exchange moves rows.
#[derive(Debug, Clone, PartialEq)]
pub enum ExchangeKind {
    /// Repartition by hash of the key expressions.
    Hash(Vec<Expr>),
    /// Replicate every row to every partition.
    Broadcast,
    /// Concentrate all rows in partition 0.
    Gather,
    /// Keep one replica (partition 0) of a replicated input and drop the
    /// copies; no data actually moves.
    GatherReplica,
}

/// Aggregation phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggMode {
    /// Per-partition pre-aggregation emitting mergeable state (the
    /// MapReduce "combiner" SimSQL relies on).
    Partial,
    /// Merges partial states into final values.
    Final,
    /// Single-phase aggregation (input already on one partition or already
    /// partitioned by the group key).
    Complete,
}

/// A physical operator. Every node has a stable `id` used by the executor
/// to attribute per-operator runtime statistics (Figure 4 is generated
/// from those).
#[derive(Debug, Clone, PartialEq)]
pub enum PhysicalPlan {
    /// Scan of a catalog table.
    TableScan {
        /// Operator id.
        id: usize,
        /// Table name.
        table: String,
        /// Output schema.
        schema: Schema,
    },
    /// Row filter.
    Filter {
        /// Operator id.
        id: usize,
        /// Input.
        input: Box<PhysicalPlan>,
        /// Predicate.
        predicate: Expr,
    },
    /// Expression projection.
    Project {
        /// Operator id.
        id: usize,
        /// Input.
        input: Box<PhysicalPlan>,
        /// Output expressions.
        exprs: Vec<Expr>,
        /// Output schema.
        schema: Schema,
    },
    /// Partitioned hash join: both sides co-partitioned on the keys, or one
    /// of them broadcast. With no keys it is the cross product, every row
    /// of a partition in one bucket.
    HashJoin {
        /// Operator id.
        id: usize,
        /// Left input.
        left: Box<PhysicalPlan>,
        /// Right input.
        right: Box<PhysicalPlan>,
        /// Key expressions over the left schema (empty: cross product).
        left_keys: Vec<Expr>,
        /// Key expressions over the right schema.
        right_keys: Vec<Expr>,
        /// Residual predicate over the concatenated schema.
        residual: Option<Expr>,
        /// Output schema.
        schema: Schema,
    },
    /// Hash aggregation.
    HashAggregate {
        /// Operator id.
        id: usize,
        /// Input.
        input: Box<PhysicalPlan>,
        /// Group-key expressions over the input schema (for `Final`,
        /// these are leading input columns).
        group_by: Vec<Expr>,
        /// The aggregates.
        aggs: Vec<AggExpr>,
        /// Phase.
        mode: AggMode,
        /// Output schema.
        schema: Schema,
    },
    /// Data movement between workers.
    Exchange {
        /// Operator id.
        id: usize,
        /// Input.
        input: Box<PhysicalPlan>,
        /// Movement kind.
        kind: ExchangeKind,
    },
    /// Total-order sort (single partition).
    Sort {
        /// Operator id.
        id: usize,
        /// Input.
        input: Box<PhysicalPlan>,
        /// Sort keys with ascending flags.
        keys: Vec<(Expr, bool)>,
    },
    /// Row limit.
    Limit {
        /// Operator id.
        id: usize,
        /// Input.
        input: Box<PhysicalPlan>,
        /// Maximum rows.
        n: usize,
    },
}

impl PhysicalPlan {
    /// The operator's id.
    pub fn id(&self) -> usize {
        match self {
            PhysicalPlan::TableScan { id, .. }
            | PhysicalPlan::Filter { id, .. }
            | PhysicalPlan::Project { id, .. }
            | PhysicalPlan::HashJoin { id, .. }
            | PhysicalPlan::HashAggregate { id, .. }
            | PhysicalPlan::Exchange { id, .. }
            | PhysicalPlan::Sort { id, .. }
            | PhysicalPlan::Limit { id, .. } => *id,
        }
    }

    /// Output schema.
    pub fn schema(&self) -> Schema {
        match self {
            PhysicalPlan::TableScan { schema, .. } => schema.clone(),
            PhysicalPlan::Filter { input, .. } => input.schema(),
            PhysicalPlan::Project { schema, .. } => schema.clone(),
            PhysicalPlan::HashJoin { schema, .. } => schema.clone(),
            PhysicalPlan::HashAggregate { schema, .. } => schema.clone(),
            PhysicalPlan::Exchange { input, .. } => input.schema(),
            PhysicalPlan::Sort { input, .. } => input.schema(),
            PhysicalPlan::Limit { input, .. } => input.schema(),
        }
    }

    /// Children.
    pub fn children(&self) -> Vec<&PhysicalPlan> {
        match self {
            PhysicalPlan::TableScan { .. } => vec![],
            PhysicalPlan::Filter { input, .. }
            | PhysicalPlan::Project { input, .. }
            | PhysicalPlan::HashAggregate { input, .. }
            | PhysicalPlan::Exchange { input, .. }
            | PhysicalPlan::Sort { input, .. }
            | PhysicalPlan::Limit { input, .. } => vec![input],
            PhysicalPlan::HashJoin { left, right, .. } => vec![left, right],
        }
    }

    /// Human-readable operator label (used in EXPLAIN and runtime stats).
    pub fn label(&self) -> String {
        match self {
            PhysicalPlan::TableScan { table, .. } => format!("TableScan({table})"),
            PhysicalPlan::Filter { .. } => "Filter".into(),
            PhysicalPlan::Project { .. } => "Project".into(),
            PhysicalPlan::HashJoin { .. } => "HashJoin".into(),
            PhysicalPlan::HashAggregate { mode, .. } => format!("HashAggregate({mode:?})"),
            PhysicalPlan::Exchange { kind, .. } => match kind {
                ExchangeKind::Hash(_) => "Exchange(Hash)".into(),
                ExchangeKind::Broadcast => "Exchange(Broadcast)".into(),
                ExchangeKind::Gather => "Exchange(Gather)".into(),
                ExchangeKind::GatherReplica => "Exchange(GatherReplica)".into(),
            },
            PhysicalPlan::Sort { .. } => "Sort".into(),
            PhysicalPlan::Limit { .. } => "Limit".into(),
        }
    }

    /// Pretty-prints the plan as an indented tree (EXPLAIN output).
    pub fn display_tree(&self) -> String {
        let mut out = String::new();
        self.fmt_tree(0, &mut out);
        out
    }

    fn fmt_tree(&self, indent: usize, out: &mut String) {
        let pad = "  ".repeat(indent);
        let detail = match self {
            PhysicalPlan::Filter { predicate, input, .. } => {
                let s = input.schema();
                format!(": {}", predicate.display(Some(&s)))
            }
            PhysicalPlan::Project { exprs, input, schema, .. } => {
                let s = input.schema();
                let items: Vec<String> = exprs
                    .iter()
                    .zip(schema.columns())
                    .map(|(e, c)| format!("{} AS {}", e.display(Some(&s)), c.name))
                    .collect();
                format!(": {}", items.join(", "))
            }
            PhysicalPlan::HashJoin { left_keys, right_keys, left, right, residual, schema, .. } => {
                let (ls, rs) = (left.schema(), right.schema());
                let keys: Vec<String> = left_keys
                    .iter()
                    .zip(right_keys)
                    .map(|(l, r)| {
                        format!("{} = {}", l.display(Some(&ls)), r.display(Some(&rs)))
                    })
                    .collect();
                let mut d =
                    if keys.is_empty() { " cross".into() } else { format!(" on {}", keys.join(", ")) };
                if let Some(r) = residual {
                    d.push_str(&format!(" filter {}", r.display(Some(schema))));
                }
                d
            }
            PhysicalPlan::HashAggregate { group_by, aggs, input, .. } => {
                let s = input.schema();
                let gb: Vec<String> = group_by.iter().map(|g| g.display(Some(&s))).collect();
                let ag: Vec<String> = aggs
                    .iter()
                    .map(|a| {
                        let arg = a
                            .arg
                            .as_ref()
                            .map(|e| e.display(Some(&s)))
                            .unwrap_or_else(|| "*".into());
                        format!("{}({})", a.func.name(), arg)
                    })
                    .collect();
                format!(" group=[{}] aggs=[{}]", gb.join(", "), ag.join(", "))
            }
            PhysicalPlan::Exchange { kind: ExchangeKind::Hash(keys), input, .. } => {
                let s = input.schema();
                let ks: Vec<String> = keys.iter().map(|k| k.display(Some(&s))).collect();
                format!(" by [{}]", ks.join(", "))
            }
            PhysicalPlan::Limit { n, .. } => format!(" {n}"),
            _ => String::new(),
        };
        out.push_str(&format!("{pad}{}{detail}\n", self.label()));
        for c in self.children() {
            c.fmt_tree(indent + 1, out);
        }
    }
}

/// How an operator's output is spread across workers.
#[derive(Debug, Clone, PartialEq)]
enum Distribution {
    /// No known structure.
    Arbitrary,
    /// Co-partitioned by hash of these expressions (over the node's output
    /// schema).
    Hash(Vec<Expr>),
    /// Entirely on partition 0.
    Single,
    /// Replicated on every worker.
    Replicated,
}

/// Per-aggregate partial-state column types; the executor's accumulators
/// encode/decode this layout.
pub fn partial_state_types(func: AggFunc, input: DataType) -> Vec<DataType> {
    match func {
        AggFunc::Sum | AggFunc::Min | AggFunc::Max => vec![input],
        AggFunc::Count => vec![DataType::Integer],
        AggFunc::Avg => vec![input, DataType::Integer],
        AggFunc::Vectorize => vec![DataType::Vector(None), DataType::Vector(None)],
        AggFunc::RowMatrix | AggFunc::ColMatrix => {
            vec![DataType::Matrix(None, None), DataType::Vector(None)]
        }
        // COO coordinate stream: (rows, cols, vals) as parallel vectors,
        // so partial states stay nnz-proportional.
        AggFunc::MatrixFromEntries => {
            vec![DataType::Vector(None), DataType::Vector(None), DataType::Vector(None)]
        }
    }
}

/// A planned subtree: its plan, how its output is spread, and its
/// estimated size.
type Planned = (PhysicalPlan, Distribution, PlanEstimate);

/// Translates optimized logical plans into physical plans, pricing each
/// operator once, as it plans it.
pub struct PhysicalPlanner<'a> {
    catalog: &'a Catalog,
    /// Prices every node under the default configuration, whatever knobs
    /// chose the plan: broadcast choices must not depend on an ablation.
    optimizer: Optimizer<'a>,
    /// Each operator's estimate, indexed by its id.
    estimates: Vec<PlanEstimate>,
}

impl<'a> PhysicalPlanner<'a> {
    /// Creates a planner. `stats` prices the operators (and so the
    /// broadcast-side decisions); it is usually the same catalog.
    pub fn new(catalog: &'a Catalog, stats: &'a dyn StatsSource) -> Self {
        PhysicalPlanner { catalog, optimizer: Optimizer::with_defaults(stats), estimates: vec![] }
    }

    /// Allocates the next operator id, recording the operator's estimate
    /// under it.
    fn id(&mut self, est: PlanEstimate) -> usize {
        self.estimates.push(est);
        self.estimates.len() - 1
    }

    /// The estimated output size of every operator planned so far, indexed
    /// by operator id. `EXPLAIN ANALYZE` joins it against the executor's
    /// measured `OperatorStats` to compute per-operator q-errors.
    pub fn estimates(&self) -> &[PlanEstimate] {
        &self.estimates
    }

    /// Plans a logical tree. The result's rows may live on any partition;
    /// callers wanting a single result stream should wrap with
    /// [`PhysicalPlanner::plan_gathered`].
    pub fn plan(&mut self, logical: &LogicalPlan) -> Result<PhysicalPlan> {
        Ok(self.plan_dist(logical)?.0)
    }

    /// Plans and gathers the final result onto one partition.
    pub fn plan_gathered(&mut self, logical: &LogicalPlan) -> Result<PhysicalPlan> {
        let (plan, dist, est) = self.plan_dist(logical)?;
        Ok(self.gather(plan, dist, est))
    }

    /// Concentrates a plan's output on partition 0, choosing the cheapest
    /// correct movement for its current distribution.
    fn gather(
        &mut self,
        plan: PhysicalPlan,
        dist: Distribution,
        est: PlanEstimate,
    ) -> PhysicalPlan {
        let kind = match dist {
            Distribution::Single => return plan,
            Distribution::Replicated => ExchangeKind::GatherReplica,
            _ => ExchangeKind::Gather,
        };
        PhysicalPlan::Exchange { id: self.id(est), input: Box::new(plan), kind }
    }

    fn plan_dist(&mut self, logical: &LogicalPlan) -> Result<Planned> {
        match logical {
            LogicalPlan::Scan { table, schema } => {
                let dist = match self.catalog.table(table) {
                    Ok(t) => match t.read().partitioning() {
                        Partitioning::Hash(col) => Distribution::Hash(vec![Expr::col(*col)]),
                        Partitioning::Replicated => Distribution::Replicated,
                        Partitioning::RoundRobin => Distribution::Arbitrary,
                    },
                    Err(_) => Distribution::Arbitrary,
                };
                let est = self.optimizer.price(logical, &[]);
                let plan = PhysicalPlan::TableScan {
                    id: self.id(est),
                    table: table.clone(),
                    schema: schema.clone(),
                };
                Ok((plan, dist, est))
            }
            LogicalPlan::Filter { input, predicate } => {
                let (child, dist, e) = self.plan_dist(input)?;
                let est = self.optimizer.price(logical, &[e]);
                let plan = PhysicalPlan::Filter {
                    id: self.id(est),
                    input: Box::new(child),
                    predicate: predicate.clone(),
                };
                Ok((plan, dist, est))
            }
            LogicalPlan::Project { input, exprs, schema } => {
                let (child, dist, e) = self.plan_dist(input)?;
                let dist = remap_distribution(dist, exprs);
                let est = self.optimizer.price(logical, &[e]);
                let plan = PhysicalPlan::Project {
                    id: self.id(est),
                    input: Box::new(child),
                    exprs: exprs.clone(),
                    schema: schema.clone(),
                };
                Ok((plan, dist, est))
            }
            LogicalPlan::Join { left, right, kind, equi, residual } => {
                self.plan_join(logical, left, right, *kind, equi, residual)
            }
            LogicalPlan::Aggregate { input, group_by, aggs, schema } => {
                self.plan_aggregate(logical, input, group_by, aggs, schema)
            }
            LogicalPlan::Sort { input, keys } => {
                let (child, dist, e) = self.plan_dist(input)?;
                let gathered = self.gather(child, dist, e);
                let est = self.optimizer.price(logical, &[e]);
                let plan = PhysicalPlan::Sort {
                    id: self.id(est),
                    input: Box::new(gathered),
                    keys: keys.clone(),
                };
                Ok((plan, Distribution::Single, est))
            }
            LogicalPlan::Limit { input, n } => {
                let (child, dist, e) = self.plan_dist(input)?;
                let gathered = self.gather(child, dist, e);
                let est = self.optimizer.price(logical, &[e]);
                let plan =
                    PhysicalPlan::Limit { id: self.id(est), input: Box::new(gathered), n: *n };
                Ok((plan, Distribution::Single, est))
            }
            LogicalPlan::MultiJoin { .. } => Err(PlanError::Internal(
                "MultiJoin must be optimized before physical planning".into(),
            )),
        }
    }

    fn plan_join(
        &mut self,
        logical: &LogicalPlan,
        left: &LogicalPlan,
        right: &LogicalPlan,
        kind: JoinKind,
        equi: &[(Expr, Expr)],
        residual: &Option<Expr>,
    ) -> Result<Planned> {
        let (lp, ld, le) = self.plan_dist(left)?;
        let (rp, rd, re) = self.plan_dist(right)?;
        let est = self.optimizer.price(logical, &[le, re]);
        let schema = logical.schema();

        if kind == JoinKind::Inner && !equi.is_empty() {
            let left_keys: Vec<Expr> = equi.iter().map(|(l, _)| l.clone()).collect();
            let right_keys: Vec<Expr> = equi.iter().map(|(_, r)| r.clone()).collect();

            // A replicated side satisfies any partitioning requirement as
            // long as the other side is properly partitioned (classic
            // broadcast join) — but not both, or outputs would duplicate.
            let l_ok = ld == Distribution::Hash(left_keys.clone());
            let r_ok = rd == Distribution::Hash(right_keys.clone());
            let l_rep = ld == Distribution::Replicated;
            let r_rep = rd == Distribution::Replicated;

            // Cost-based broadcast: when one side is tiny and the other is
            // neither pre-partitioned nor replicated, replicating the tiny
            // build side beats hashing both (one small broadcast instead
            // of two full shuffles) — the classic small-dimension-table
            // join, e.g. the distance workload's metric matrix.
            if !(l_ok || l_rep || r_ok || r_rep) {
                let l_bytes = le.total_bytes();
                let r_bytes = re.total_bytes();
                let threshold = BROADCAST_THRESHOLD_BYTES;
                if l_bytes.min(r_bytes) <= threshold
                    && l_bytes.max(r_bytes) > 4.0 * l_bytes.min(r_bytes)
                {
                    let broadcast_left = l_bytes <= r_bytes;
                    let (lp, rp, out_dist) = if broadcast_left {
                        let lb = PhysicalPlan::Exchange {
                            id: self.id(le),
                            input: Box::new(lp),
                            kind: ExchangeKind::Broadcast,
                        };
                        (lb, rp, Distribution::Arbitrary)
                    } else {
                        let rb = PhysicalPlan::Exchange {
                            id: self.id(re),
                            input: Box::new(rp),
                            kind: ExchangeKind::Broadcast,
                        };
                        (lp, rb, Distribution::Arbitrary)
                    };
                    let plan = PhysicalPlan::HashJoin {
                        id: self.id(est),
                        left: Box::new(lp),
                        right: Box::new(rp),
                        left_keys,
                        right_keys,
                        residual: residual.clone(),
                        schema,
                    };
                    return Ok((plan, out_dist, est));
                }
            }

            let (lp, rp) = match (l_ok || l_rep, r_ok || r_rep, l_rep && r_rep) {
                (true, true, false) => (lp, rp),
                (true, false, false) => {
                    (lp, self.hash_exchange(rp, right_keys.clone(), re))
                }
                (false, true, false) => (self.hash_exchange(lp, left_keys.clone(), le), rp),
                _ => {
                    // Includes the both-replicated case: drop the extra
                    // replicas first, or hashing would emit duplicates.
                    let lp =
                        if l_rep { self.gather(lp, Distribution::Replicated, le) } else { lp };
                    let rp =
                        if r_rep { self.gather(rp, Distribution::Replicated, re) } else { rp };
                    (
                        self.hash_exchange(lp, left_keys.clone(), le),
                        self.hash_exchange(rp, right_keys.clone(), re),
                    )
                }
            };

            let out_dist = if ld == Distribution::Replicated && rd != Distribution::Replicated
            {
                // Left never moved; output follows the probe side's keys.
                Distribution::Hash(
                    right_keys
                        .iter()
                        .map(|k| k.remap_columns(&|i| i + left_keys_base(&lp)))
                        .collect(),
                )
            } else {
                Distribution::Hash(left_keys.clone())
            };
            let plan = PhysicalPlan::HashJoin {
                id: self.id(est),
                left: Box::new(lp),
                right: Box::new(rp),
                left_keys,
                right_keys,
                residual: residual.clone(),
                schema,
            };
            return Ok((plan, out_dist, est));
        }

        // Cross join (or inner with residual only): a hash join on the
        // empty key. Broadcast the smaller side, keep the bigger side
        // partitioned.
        let broadcast_left = le.total_bytes() <= re.total_bytes();
        let (l, r) = ((lp, ld, le), (rp, rd, re));
        let ((small, sd, se), (kept, kd, ke)) = if broadcast_left { (l, r) } else { (r, l) };
        let small = if sd == Distribution::Replicated {
            small
        } else {
            PhysicalPlan::Exchange {
                id: self.id(se),
                input: Box::new(small),
                kind: ExchangeKind::Broadcast,
            }
        };
        // The kept side must not be replicated or output duplicates.
        let (kept, dist) = if kd == Distribution::Replicated {
            (self.gather(kept, Distribution::Replicated, ke), Distribution::Single)
        } else {
            (kept, Distribution::Arbitrary)
        };
        let (lp, rp) = if broadcast_left { (small, kept) } else { (kept, small) };
        let plan = PhysicalPlan::HashJoin {
            id: self.id(est),
            left: Box::new(lp),
            right: Box::new(rp),
            left_keys: vec![],
            right_keys: vec![],
            residual: residual.clone(),
            schema,
        };
        Ok((plan, dist, est))
    }

    fn plan_aggregate(
        &mut self,
        logical: &LogicalPlan,
        input: &LogicalPlan,
        group_by: &[Expr],
        aggs: &[AggExpr],
        schema: &Schema,
    ) -> Result<Planned> {
        let (child, dist, e) = self.plan_dist(input)?;
        let in_schema = input.schema();
        let est = self.optimizer.price(logical, &[e]);

        // Replicated input: aggregate one replica, single phase.
        let (child, dist) = if dist == Distribution::Replicated {
            (self.gather(child, Distribution::Replicated, e), Distribution::Single)
        } else {
            (child, dist)
        };

        // Already grouped correctly (or single partition): one phase.
        if dist == Distribution::Single
            || (!group_by.is_empty() && dist == Distribution::Hash(group_by.to_vec()))
        {
            let out_dist = if dist == Distribution::Single {
                Distribution::Single
            } else {
                Distribution::Hash((0..group_by.len()).map(Expr::col).collect())
            };
            let plan = PhysicalPlan::HashAggregate {
                id: self.id(est),
                input: Box::new(child),
                group_by: group_by.to_vec(),
                aggs: aggs.to_vec(),
                mode: AggMode::Complete,
                schema: schema.clone(),
            };
            return Ok((plan, out_dist, est));
        }

        // Two phases: partial → exchange → final. Per-partition
        // pre-aggregation is bounded by its input, not the group count.
        let partial_schema = self.partial_schema(&in_schema, group_by, aggs)?;
        let partial_width =
            cost::aggregate_width(PlanEstimate::row_bytes_of(&partial_schema), aggs, e.rows);
        let partial_est = PlanEstimate::new(e.rows, partial_width);
        let partial = PhysicalPlan::HashAggregate {
            id: self.id(partial_est),
            input: Box::new(child),
            group_by: group_by.to_vec(),
            aggs: aggs.to_vec(),
            mode: AggMode::Partial,
            schema: partial_schema,
        };

        let exchange = if group_by.is_empty() {
            PhysicalPlan::Exchange {
                id: self.id(partial_est),
                input: Box::new(partial),
                kind: ExchangeKind::Gather,
            }
        } else {
            // Partial output leads with the group-key columns.
            let keys: Vec<Expr> = (0..group_by.len()).map(Expr::col).collect();
            self.hash_exchange(partial, keys, partial_est)
        };

        let final_group: Vec<Expr> = (0..group_by.len()).map(Expr::col).collect();
        let out_dist = if group_by.is_empty() {
            Distribution::Single
        } else {
            Distribution::Hash(final_group.clone())
        };
        let plan = PhysicalPlan::HashAggregate {
            id: self.id(est),
            input: Box::new(exchange),
            group_by: final_group,
            aggs: aggs.to_vec(),
            mode: AggMode::Final,
            schema: schema.clone(),
        };
        Ok((plan, out_dist, est))
    }

    /// Schema of a partial aggregate's output: group keys, then each
    /// aggregate's state columns.
    fn partial_schema(
        &self,
        in_schema: &Schema,
        group_by: &[Expr],
        aggs: &[AggExpr],
    ) -> Result<Schema> {
        let mut cols = Vec::new();
        for (i, g) in group_by.iter().enumerate() {
            cols.push(Column::new(format!("__g{i}"), g.infer_type(in_schema)?));
        }
        for (i, a) in aggs.iter().enumerate() {
            let input_type = match &a.arg {
                Some(e) => e.infer_type(in_schema)?,
                None => DataType::Integer,
            };
            for (j, t) in partial_state_types(a.func, input_type).iter().enumerate() {
                cols.push(Column::new(format!("__s{i}_{j}"), *t));
            }
        }
        Ok(Schema::new(cols))
    }

    /// Repartitions by `keys`; the rows and their estimate `est` pass
    /// through.
    fn hash_exchange(
        &mut self,
        input: PhysicalPlan,
        keys: Vec<Expr>,
        est: PlanEstimate,
    ) -> PhysicalPlan {
        PhysicalPlan::Exchange {
            id: self.id(est),
            input: Box::new(input),
            kind: ExchangeKind::Hash(keys),
        }
    }
}

/// Build sides at or below this estimated size are broadcast instead of
/// hash-repartitioning both join inputs.
const BROADCAST_THRESHOLD_BYTES: f64 = 4.0 * 1024.0 * 1024.0;

/// Arity of a plan's output; helper for shifting right-side keys.
fn left_keys_base(left: &PhysicalPlan) -> usize {
    left.schema().arity()
}

/// Pushes a distribution property through a projection: keys survive when
/// each key expression appears verbatim as an output expression.
fn remap_distribution(dist: Distribution, exprs: &[Expr]) -> Distribution {
    match dist {
        Distribution::Hash(keys) => {
            let mut new_keys = Vec::with_capacity(keys.len());
            for k in &keys {
                match exprs.iter().position(|e| e == k) {
                    Some(j) => new_keys.push(Expr::col(j)),
                    None => return Distribution::Arbitrary,
                }
            }
            Distribution::Hash(new_keys)
        }
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::CmpOp;
    use crate::functions::Builtin;
    use lardb_storage::{Partitioning, Table};
    use std::collections::HashMap;

    fn catalog() -> Catalog {
        let c = Catalog::new();
        let mk = |name: &str, part: Partitioning| {
            Table::new(
                name,
                Schema::from_pairs(&[("id", DataType::Integer), ("v", DataType::Double)]),
                4,
                part,
            )
        };
        c.create_table(mk("rr", Partitioning::RoundRobin)).unwrap();
        c.create_table(mk("hashed", Partitioning::Hash(0))).unwrap();
        c.create_table(mk("rep", Partitioning::Replicated)).unwrap();
        c
    }

    fn scan(cat: &Catalog, name: &str) -> LogicalPlan {
        LogicalPlan::Scan {
            table: name.into(),
            schema: cat.table_schema(name).unwrap().with_qualifier(name),
        }
    }

    fn count_ops(p: &PhysicalPlan, pred: &dyn Fn(&PhysicalPlan) -> bool) -> usize {
        let mut n = usize::from(pred(p));
        for c in p.children() {
            n += count_ops(c, pred);
        }
        n
    }

    fn join_on_id(cat: &Catalog, l: &str, r: &str) -> LogicalPlan {
        LogicalPlan::Join {
            left: Box::new(scan(cat, l)),
            right: Box::new(scan(cat, r)),
            kind: JoinKind::Inner,
            equi: vec![(Expr::col(0), Expr::col(0))],
            residual: None,
        }
    }

    #[test]
    fn prepartitioned_side_skips_exchange() {
        let cat = catalog();
        let stats: HashMap<String, usize> = HashMap::new();
        let mut pp = PhysicalPlanner::new(&cat, &stats);
        // hashed ⋈ rr on id: only rr needs a shuffle (the §2.1 example).
        let plan = pp.plan(&join_on_id(&cat, "hashed", "rr")).unwrap();
        let exchanges = count_ops(&plan, &|p| matches!(p, PhysicalPlan::Exchange { .. }));
        assert_eq!(exchanges, 1, "{}", plan.display_tree());
    }

    #[test]
    fn unpartitioned_join_needs_two_exchanges() {
        let cat = catalog();
        let stats: HashMap<String, usize> = HashMap::new();
        let mut pp = PhysicalPlanner::new(&cat, &stats);
        let plan = pp.plan(&join_on_id(&cat, "rr", "rr")).unwrap();
        let exchanges = count_ops(&plan, &|p| matches!(p, PhysicalPlan::Exchange { .. }));
        assert_eq!(exchanges, 2);
    }

    #[test]
    fn replicated_side_is_broadcast_free() {
        let cat = catalog();
        let stats: HashMap<String, usize> = HashMap::new();
        let mut pp = PhysicalPlanner::new(&cat, &stats);
        let plan = pp.plan(&join_on_id(&cat, "rep", "hashed")).unwrap();
        let exchanges = count_ops(&plan, &|p| matches!(p, PhysicalPlan::Exchange { .. }));
        assert_eq!(exchanges, 0, "{}", plan.display_tree());
    }

    #[test]
    fn cross_join_broadcasts_one_side() {
        let cat = catalog();
        let mut stats = HashMap::new();
        stats.insert("rr".to_string(), 1000);
        let mut pp = PhysicalPlanner::new(&cat, &stats);
        let cross = LogicalPlan::Join {
            left: Box::new(scan(&cat, "rr")),
            right: Box::new(scan(&cat, "rr")),
            kind: JoinKind::Cross,
            equi: vec![],
            residual: None,
        };
        let plan = pp.plan(&cross).unwrap();
        let bc = count_ops(&plan, &|p| {
            matches!(
                p,
                PhysicalPlan::Exchange { kind: ExchangeKind::Broadcast, .. }
            )
        });
        assert_eq!(bc, 1);
        assert_eq!(
            count_ops(&plan, &|p| matches!(
                p,
                PhysicalPlan::HashJoin { left_keys, right_keys, .. }
                    if left_keys.is_empty() && right_keys.is_empty()
            )),
            1
        );
        assert!(plan.display_tree().contains("HashJoin cross\n"), "{}", plan.display_tree());
    }

    #[test]
    fn hash_join_shows_its_residual() {
        let cat = catalog();
        let stats: HashMap<String, usize> = HashMap::new();
        let mut pp = PhysicalPlanner::new(&cat, &stats);
        let join = LogicalPlan::Join {
            left: Box::new(scan(&cat, "rr")),
            right: Box::new(scan(&cat, "hashed")),
            kind: JoinKind::Inner,
            equi: vec![(Expr::col(0), Expr::col(0))],
            residual: Some(Expr::cmp(CmpOp::Lt, Expr::col(1), Expr::col(3))),
        };
        let tree = pp.plan(&join).unwrap().display_tree();
        assert!(tree.contains("HashJoin on rr.id = hashed.id filter "), "{tree}");
        assert!(tree.contains("rr.v < hashed.v"), "{tree}");
    }

    #[test]
    fn global_aggregate_uses_partial_gather_final() {
        let cat = catalog();
        let stats: HashMap<String, usize> = HashMap::new();
        let mut pp = PhysicalPlanner::new(&cat, &stats);
        let agg = LogicalPlan::aggregate(
            scan(&cat, "rr"),
            vec![],
            vec![AggExpr { func: AggFunc::Sum, arg: Some(Expr::col(1)), name: "s".into() }],
        )
        .unwrap();
        let plan = pp.plan(&agg).unwrap();
        let partials = count_ops(&plan, &|p| {
            matches!(p, PhysicalPlan::HashAggregate { mode: AggMode::Partial, .. })
        });
        let finals = count_ops(&plan, &|p| {
            matches!(p, PhysicalPlan::HashAggregate { mode: AggMode::Final, .. })
        });
        let gathers = count_ops(&plan, &|p| {
            matches!(p, PhysicalPlan::Exchange { kind: ExchangeKind::Gather, .. })
        });
        assert_eq!((partials, finals, gathers), (1, 1, 1), "{}", plan.display_tree());
    }

    #[test]
    fn grouped_aggregate_on_prepartitioned_input_is_single_phase() {
        let cat = catalog();
        let stats: HashMap<String, usize> = HashMap::new();
        let mut pp = PhysicalPlanner::new(&cat, &stats);
        let agg = LogicalPlan::aggregate(
            scan(&cat, "hashed"),
            vec![(Expr::col(0), "id".into())],
            vec![AggExpr { func: AggFunc::Count, arg: None, name: "c".into() }],
        )
        .unwrap();
        let plan = pp.plan(&agg).unwrap();
        let complete = count_ops(&plan, &|p| {
            matches!(p, PhysicalPlan::HashAggregate { mode: AggMode::Complete, .. })
        });
        assert_eq!(complete, 1, "{}", plan.display_tree());
        assert_eq!(
            count_ops(&plan, &|p| matches!(p, PhysicalPlan::Exchange { .. })),
            0
        );
    }

    #[test]
    fn tiny_side_is_broadcast_instead_of_double_shuffle() {
        let cat = catalog();
        let mut stats = HashMap::new();
        stats.insert("rr".to_string(), 1_000_000);
        stats.insert("tiny".to_string(), 10);
        cat.create_table(Table::new(
            "tiny",
            Schema::from_pairs(&[("id", DataType::Integer)]),
            4,
            Partitioning::RoundRobin,
        ))
        .unwrap();
        let mut pp = PhysicalPlanner::new(&cat, &stats);
        let join = LogicalPlan::Join {
            left: Box::new(scan(&cat, "tiny")),
            right: Box::new(scan(&cat, "rr")),
            kind: JoinKind::Inner,
            equi: vec![(Expr::col(0), Expr::col(0))],
            residual: None,
        };
        let plan = pp.plan(&join).unwrap();
        let broadcasts = count_ops(&plan, &|p| {
            matches!(p, PhysicalPlan::Exchange { kind: ExchangeKind::Broadcast, .. })
        });
        let hashes = count_ops(&plan, &|p| {
            matches!(p, PhysicalPlan::Exchange { kind: ExchangeKind::Hash(_), .. })
        });
        assert_eq!((broadcasts, hashes), (1, 0), "{}", plan.display_tree());
        // Still a hash join (build = broadcast side).
        assert_eq!(count_ops(&plan, &|p| matches!(p, PhysicalPlan::HashJoin { .. })), 1);
    }

    #[test]
    fn similar_sized_sides_still_double_shuffle() {
        let cat = catalog();
        let mut stats = HashMap::new();
        stats.insert("rr".to_string(), 1000);
        let mut pp = PhysicalPlanner::new(&cat, &stats);
        let plan = pp.plan(&join_on_id(&cat, "rr", "rr")).unwrap();
        let hashes = count_ops(&plan, &|p| {
            matches!(p, PhysicalPlan::Exchange { kind: ExchangeKind::Hash(_), .. })
        });
        assert_eq!(hashes, 2);
    }

    #[test]
    fn partial_state_layouts() {
        assert_eq!(partial_state_types(AggFunc::Sum, DataType::Double).len(), 1);
        assert_eq!(partial_state_types(AggFunc::Avg, DataType::Double).len(), 2);
        assert_eq!(
            partial_state_types(AggFunc::Vectorize, DataType::LabeledScalar).len(),
            2
        );
        assert_eq!(
            partial_state_types(AggFunc::RowMatrix, DataType::Vector(None))[0],
            DataType::Matrix(None, None)
        );
    }

    #[test]
    fn plan_gathered_appends_gather() {
        let cat = catalog();
        let stats: HashMap<String, usize> = HashMap::new();
        let mut pp = PhysicalPlanner::new(&cat, &stats);
        let plan = pp.plan_gathered(&scan(&cat, "rr")).unwrap();
        assert!(matches!(
            plan,
            PhysicalPlan::Exchange { kind: ExchangeKind::Gather, .. }
        ));
    }

    /// Walks a physical plan beside the logical plan it came from. Every
    /// node planned from a logical node carries the optimizer's estimate of
    /// that logical subtree (its label goes into `seen`); an exchange passes
    /// its input's estimate through, and a partial aggregate keeps its
    /// input's rows.
    fn priced_as_logical(
        p: &PhysicalPlan,
        l: &LogicalPlan,
        opt: &Optimizer<'_>,
        est: &[PlanEstimate],
        seen: &mut std::collections::BTreeSet<String>,
    ) {
        match p {
            PhysicalPlan::Exchange { input, .. } => {
                assert_eq!(est[p.id()], est[input.id()], "an exchange passes through");
                return priced_as_logical(input, l, opt, est, seen);
            }
            PhysicalPlan::HashAggregate { input, mode: AggMode::Partial, .. } => {
                assert_eq!(est[p.id()].rows, est[input.id()].rows, "partial rows");
                return priced_as_logical(input, l, opt, est, seen);
            }
            _ => {}
        }
        assert_eq!(est[p.id()], Optimizer::estimate(opt, l), "{}", p.label());
        seen.insert(p.label());
        assert_eq!(p.children().len(), l.children().len(), "{}", p.label());
        for (pc, lc) in p.children().into_iter().zip(l.children()) {
            priced_as_logical(pc, lc, opt, est, seen);
        }
    }

    #[test]
    fn estimates_cover_every_operator() {
        let cat = catalog();
        let mut stats = HashMap::new();
        stats.insert("rr".to_string(), 400);
        stats.insert("hashed".to_string(), 90);
        let sum_v =
            || vec![AggExpr { func: AggFunc::Sum, arg: Some(Expr::col(1)), name: "s".into() }];
        // Scan, filter, project, keyed join, sort and limit.
        let filtered = LogicalPlan::Filter {
            input: Box::new(join_on_id(&cat, "rr", "rr")),
            predicate: Expr::cmp(CmpOp::Lt, Expr::col(1), Expr::col(3)),
        };
        let outputs = vec![(Expr::col(0), "id".into()), (Expr::col(3), "v".into())];
        let projected = LogicalPlan::project(filtered, outputs).unwrap();
        let sorted =
            LogicalPlan::Sort { input: Box::new(projected), keys: vec![(Expr::col(1), true)] };
        let keyed = LogicalPlan::Limit { input: Box::new(sorted), n: 10 };
        // A cross join under a two-phase (partial, final) global aggregate.
        let cross = LogicalPlan::Join {
            left: Box::new(scan(&cat, "rr")),
            right: Box::new(scan(&cat, "hashed")),
            kind: JoinKind::Cross,
            equi: vec![],
            residual: None,
        };
        let cross = LogicalPlan::aggregate(cross, vec![], sum_v()).unwrap();
        // A complete aggregate (`hashed` is already partitioned on its key)
        // feeding a join its nnz-priced `MATRIX_FROM_ENTRIES` width, which
        // the join must add up, not re-derive from its schema.
        let coords = vec![Expr::col(0), Expr::col(0), Expr::col(1)];
        let entry = Expr::call(Builtin::SparseEntry, coords);
        let mfe = AggExpr { func: AggFunc::MatrixFromEntries, arg: Some(entry), name: "m".into() };
        let by_id = vec![(Expr::col(0), "id".into())];
        let tiles = LogicalPlan::aggregate(scan(&cat, "hashed"), by_id, vec![mfe]).unwrap();
        let complete = LogicalPlan::Join {
            left: Box::new(tiles),
            right: Box::new(scan(&cat, "hashed")),
            kind: JoinKind::Inner,
            equi: vec![(Expr::col(0), Expr::col(0))],
            residual: None,
        };

        let opt = Optimizer::with_defaults(&stats);
        let mut seen = std::collections::BTreeSet::new();
        for logical in [keyed, cross, complete] {
            let mut pp = PhysicalPlanner::new(&cat, &stats);
            let plan = pp.plan_gathered(&logical).unwrap();
            // Every operator priced once, under its own id.
            let est = pp.estimates();
            assert_eq!(est.len(), count_ops(&plan, &|_| true), "{}", plan.display_tree());
            priced_as_logical(&plan, &logical, &opt, est, &mut seen);
        }
        let want = [
            "Filter",
            "HashAggregate(Complete)",
            "HashAggregate(Final)",
            "HashJoin",
            "Limit",
            "Project",
            "Sort",
            "TableScan(hashed)",
            "TableScan(rr)",
        ];
        assert_eq!(seen.iter().map(String::as_str).collect::<Vec<_>>(), want);
    }
}
