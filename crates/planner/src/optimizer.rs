//! The LA-size-aware cost-based optimizer (§4).
//!
//! The optimizer's job, in the paper's words: with the templated signatures
//! of §4.2 binding exact sizes to every intermediate linear-algebra object,
//! a cost-based optimizer can discover plans like `(π(S × R)) ⋈ T` — where
//! an *early projection* evaluates `matrix_multiply(r_matrix, s_matrix)`
//! right after a cross product and shrinks 80 MB matrices to 8 KB results —
//! instead of the rule-based favourite `π((S ⋈ T) ⋈ R)` that drags 80 GB
//! through the plan (§4.1).
//!
//! Mechanics:
//!
//! 1. The binder emits an n-ary [`LogicalPlan::MultiJoin`]; this module
//!    classifies its predicates (single-input → pushed to the leaf;
//!    equality with separable sides → join edge; rest → residual), then
//!    runs a **DPsize enumeration over all subsets, cross products
//!    included** — cross products must be enumerable or the paper's best
//!    plan is unreachable.
//! 2. Every SELECT-list (or aggregate-argument) expression is a candidate
//!    for **early projection**: it is evaluated at the lowest subtree that
//!    covers its input columns, and the subtree's output width then counts
//!    the (usually much smaller) result instead of the inputs.
//! 3. Plan cost is the sum of intermediate result volumes
//!    (rows × row-bytes), with LA widths taken from dimension inference.
//!    [`OptimizerConfig::size_inference`] turns that knowledge off for the
//!    ablation benchmark, reproducing the blind optimizer of §4.1.

use std::collections::HashMap;

use lardb_storage::{Catalog, Schema};

use crate::cost::{self, equi_join_selectivity, predicate_selectivity, PlanEstimate};
use crate::error::{PlanError, Result};
use crate::expr::{CmpOp, Expr};
use crate::logical::{AggExpr, JoinKind, LogicalPlan};

/// Where the optimizer reads table cardinalities from. Implemented by the
/// real [`Catalog`]; tests and the §4.1 reproduction use a plain map so
/// they can describe hypothetical 80 MB-matrix tables without allocating
/// them.
pub trait StatsSource {
    /// Row count of a base table, if known.
    fn table_rows(&self, table: &str) -> Option<usize>;
}

impl StatsSource for Catalog {
    /// The row count alone: `table_stats` would also sum every row's bytes,
    /// and the planner asks once per scan it prices.
    fn table_rows(&self, table: &str) -> Option<usize> {
        self.table(table).ok().map(|t| t.read().num_rows())
    }
}

impl StatsSource for HashMap<String, usize> {
    fn table_rows(&self, table: &str) -> Option<usize> {
        self.get(&table.to_ascii_lowercase()).copied()
    }
}

/// Optimizer switches; each `false` is an ablation knob used by the
/// benchmark suite.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OptimizerConfig {
    /// Use inferred LA dimensions when pricing row widths (§4.2). When
    /// off, every column is priced at 8 bytes and the optimizer re-creates
    /// the paper's "bad plan" example.
    pub size_inference: bool,
    /// Evaluate size-reducing expressions at the lowest covering subtree
    /// (§4.1's early projection). When off, all computation happens at the
    /// plan root.
    pub early_projection: bool,
    /// Inputs above this count use a greedy join order instead of exact DP.
    pub max_dp_inputs: usize,
}

impl Default for OptimizerConfig {
    fn default() -> Self {
        OptimizerConfig { size_inference: true, early_projection: true, max_dp_inputs: 12 }
    }
}

/// The cost-based optimizer.
pub struct Optimizer<'a> {
    stats: &'a dyn StatsSource,
    config: OptimizerConfig,
}

/// Default row-count guess for tables with unknown statistics.
pub(crate) const DEFAULT_TABLE_ROWS: f64 = 1000.0;

impl<'a> Optimizer<'a> {
    /// Creates an optimizer over the given statistics source.
    pub fn new(stats: &'a dyn StatsSource, config: OptimizerConfig) -> Self {
        Optimizer { stats, config }
    }

    /// Optimizer with default configuration.
    pub fn with_defaults(stats: &'a dyn StatsSource) -> Self {
        Optimizer::new(stats, OptimizerConfig::default())
    }

    /// Rewrites a logical plan into its optimized form. All `MultiJoin`
    /// nodes are replaced by concrete join trees, then every expression of
    /// the tree gets the type-directed LA rewrites (`rewrite.rs`).
    pub fn optimize(&self, plan: LogicalPlan) -> Result<LogicalPlan> {
        Ok(crate::rewrite::rewrite_plan(self.order_joins(plan)?))
    }

    /// Join planning: replaces every `MultiJoin` by a concrete join tree.
    fn order_joins(&self, plan: LogicalPlan) -> Result<LogicalPlan> {
        match plan {
            LogicalPlan::Project { input, exprs, schema } => match *input {
                LogicalPlan::MultiJoin { inputs, predicates } => {
                    let (joined, remapped) =
                        self.plan_join_graph(inputs, predicates, exprs)?;
                    let names: Vec<(Expr, String)> = remapped
                        .into_iter()
                        .zip(schema.columns())
                        .map(|(e, c)| (e, c.name.clone()))
                        .collect();
                    LogicalPlan::project(joined, names)
                }
                other => {
                    let input = self.order_joins(other)?;
                    Ok(LogicalPlan::Project { input: Box::new(input), exprs, schema })
                }
            },
            LogicalPlan::Aggregate { input, group_by, aggs, schema } => match *input {
                LogicalPlan::MultiJoin { inputs, predicates } => {
                    // Outputs fed to join planning: group keys first, then
                    // aggregate arguments.
                    let mut outputs = group_by.clone();
                    for a in &aggs {
                        if let Some(arg) = &a.arg {
                            outputs.push(arg.clone());
                        }
                    }
                    let (joined, remapped) =
                        self.plan_join_graph(inputs, predicates, outputs)?;
                    let new_group: Vec<Expr> = remapped[..group_by.len()].to_vec();
                    let mut it = remapped[group_by.len()..].iter();
                    let new_aggs: Vec<AggExpr> = aggs
                        .into_iter()
                        .map(|a| AggExpr {
                            func: a.func,
                            arg: a.arg.as_ref().map(|_| {
                                it.next().expect("arity checked above").clone()
                            }),
                            name: a.name,
                        })
                        .collect();
                    Ok(LogicalPlan::Aggregate {
                        input: Box::new(joined),
                        group_by: new_group,
                        aggs: new_aggs,
                        schema,
                    })
                }
                other => {
                    let input = self.order_joins(other)?;
                    Ok(LogicalPlan::Aggregate {
                        input: Box::new(input),
                        group_by,
                        aggs,
                        schema,
                    })
                }
            },
            LogicalPlan::MultiJoin { inputs, predicates } => {
                // No projection context: preserve all columns in order.
                let full: Schema = {
                    let mut s = Schema::default();
                    for i in &inputs {
                        s = s.concat(&i.schema());
                    }
                    s
                };
                let outputs: Vec<Expr> = (0..full.arity()).map(Expr::col).collect();
                let (joined, remapped) = self.plan_join_graph(inputs, predicates, outputs)?;
                let names: Vec<(Expr, String)> = remapped
                    .into_iter()
                    .zip(full.columns())
                    .map(|(e, c)| (e, c.name.clone()))
                    .collect();
                LogicalPlan::project(joined, names)
            }
            LogicalPlan::Filter { input, predicate } => {
                let input = self.order_joins(*input)?;
                // Merge adjacent filters for cleanliness.
                if let LogicalPlan::Filter { input: inner, predicate: p2 } = input {
                    Ok(LogicalPlan::Filter {
                        input: inner,
                        predicate: Expr::And(Box::new(p2), Box::new(predicate)),
                    })
                } else {
                    Ok(LogicalPlan::Filter { input: Box::new(input), predicate })
                }
            }
            LogicalPlan::Join { left, right, kind, equi, residual } => {
                Ok(LogicalPlan::Join {
                    left: Box::new(self.order_joins(*left)?),
                    right: Box::new(self.order_joins(*right)?),
                    kind,
                    equi,
                    residual,
                })
            }
            LogicalPlan::Sort { input, keys } => Ok(LogicalPlan::Sort {
                input: Box::new(self.order_joins(*input)?),
                keys,
            }),
            LogicalPlan::Limit { input, n } => Ok(LogicalPlan::Limit {
                input: Box::new(self.order_joins(*input)?),
                n,
            }),
            leaf @ LogicalPlan::Scan { .. } => Ok(leaf),
        }
    }

    /// Estimates the output size of a plan: [`Optimizer::price`] folded
    /// bottom-up over the tree.
    pub fn estimate(&self, plan: &LogicalPlan) -> PlanEstimate {
        let inputs: Vec<PlanEstimate> =
            plan.children().into_iter().map(|c| self.estimate(c)).collect();
        self.price(plan, &inputs)
    }

    /// Prices one node from its inputs' estimates, in
    /// [`LogicalPlan::children`] order. This is the one cost model: the
    /// physical planner calls it on each node as it plans it, with the
    /// estimates it got back for the node's inputs.
    pub fn price(&self, plan: &LogicalPlan, inputs: &[PlanEstimate]) -> PlanEstimate {
        match plan {
            LogicalPlan::Scan { table, schema } => {
                let rows = self
                    .stats
                    .table_rows(table)
                    .map(|r| r as f64)
                    .unwrap_or(DEFAULT_TABLE_ROWS);
                PlanEstimate::new(rows.max(1.0), self.schema_width(schema))
            }
            LogicalPlan::Filter { predicate, .. } => {
                let e = inputs[0];
                PlanEstimate::new(cost::filter_rows(e.rows, predicate), e.row_bytes)
            }
            LogicalPlan::Project { schema, .. } => {
                PlanEstimate::new(inputs[0].rows, self.schema_width(schema))
            }
            LogicalPlan::MultiJoin { predicates, .. } => {
                let rows: f64 = inputs.iter().map(|e| e.rows).product();
                let width: f64 = inputs.iter().map(|e| e.row_bytes).sum();
                let sel: f64 = predicates.iter().map(|_| 0.01).product();
                PlanEstimate::new((rows * sel).max(1.0), width)
            }
            LogicalPlan::Join { kind, equi, .. } => {
                let (l, r) = (inputs[0], inputs[1]);
                let keys = match kind {
                    JoinKind::Cross => 0,
                    JoinKind::Inner => equi.len(),
                };
                PlanEstimate::new(
                    cost::equi_join_rows(l.rows, r.rows, keys),
                    l.row_bytes + r.row_bytes,
                )
            }
            LogicalPlan::Aggregate { group_by, aggs, schema, .. } => {
                let e = inputs[0];
                let mut width = self.schema_width(schema);
                if self.config.size_inference {
                    width = cost::aggregate_width(width, aggs, e.rows);
                }
                PlanEstimate::new(cost::group_rows(e.rows, !group_by.is_empty()), width)
            }
            LogicalPlan::Sort { .. } => inputs[0],
            LogicalPlan::Limit { n, .. } => {
                let e = inputs[0];
                PlanEstimate::new(cost::limit_rows(e.rows, *n), e.row_bytes)
            }
        }
    }

    /// Row width of a schema under the current config: full LA-aware widths
    /// (§4.2), or 8 bytes per column for the blind ablation.
    fn schema_width(&self, schema: &Schema) -> f64 {
        if self.config.size_inference {
            schema.estimated_row_bytes() as f64
        } else {
            (schema.arity() * 8) as f64
        }
    }

    /// Plans an n-way join. `outputs` are the expressions the parent needs,
    /// over the concatenated ("global") schema of `inputs`. Returns the
    /// join tree and each output expression rewritten against the tree's
    /// output schema.
    fn plan_join_graph(
        &self,
        inputs: Vec<LogicalPlan>,
        predicates: Vec<Expr>,
        outputs: Vec<Expr>,
    ) -> Result<(LogicalPlan, Vec<Expr>)> {
        let inputs: Vec<LogicalPlan> =
            inputs.into_iter().map(|i| self.order_joins(i)).collect::<Result<_>>()?;
        let n = inputs.len();
        if n == 0 {
            return Err(PlanError::Internal("MultiJoin with no inputs".into()));
        }
        if n > 63 {
            return Err(PlanError::Unsupported(format!("{n}-way join exceeds 63 inputs")));
        }

        let graph = JoinGraph::build(self, inputs, predicates, outputs)?;
        if graph.n == 1 {
            return graph.finish_single();
        }
        let full: u64 = (1u64 << graph.n) - 1;
        let splits = if graph.n <= self.config.max_dp_inputs {
            graph.dp_orders(full)
        } else {
            graph.greedy_orders()
        };
        graph.build_tree(full, &splits)
    }
}

/// One classified predicate of the join graph.
struct PredInfo {
    /// Global-space expression.
    expr: Expr,
    /// Bitmask of inputs referenced.
    cover: u64,
    /// Estimated selectivity.
    selectivity: f64,
    /// For equality predicates whose sides touch disjoint input sets:
    /// `(lhs, rhs, lhs_cover, rhs_cover)` — usable as hash-join keys.
    equi: Option<(Expr, Expr, u64, u64)>,
}

/// One parent-requested output expression.
struct OutInfo {
    /// Global-space expression.
    expr: Expr,
    /// Bitmask of inputs referenced.
    cover: u64,
    /// Estimated width of the computed value in bytes.
    width: f64,
    /// Whether early projection may evaluate it inside the tree. True only
    /// when the computation *shrinks* data: evaluating a size-exploding
    /// expression (an `outer_product` per row, say) early would carry its
    /// huge result through every join above instead of the small inputs.
    early: bool,
}

/// Slot identity while rebuilding the tree: either a global base column or
/// an early-computed output expression.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Slot {
    Base(usize),
    Out(usize),
}

type SlotMap = HashMap<Slot, usize>;

struct JoinGraph {
    n: usize,
    /// Leaf plans with single-input predicates already pushed into them.
    leaves: Vec<LogicalPlan>,
    /// Global column offset of each input.
    offsets: Vec<usize>,
    /// Concatenated schema of all inputs.
    global: Schema,
    /// Which input owns each global column.
    col_input: Vec<usize>,
    /// Priced width of each global column.
    col_width: Vec<f64>,
    /// Estimated rows of each leaf (after pushed filters).
    leaf_rows: Vec<f64>,
    /// Multi-input predicates.
    preds: Vec<PredInfo>,
    /// Parent outputs.
    outs: Vec<OutInfo>,
}

impl JoinGraph {
    fn build(
        opt: &Optimizer<'_>,
        inputs: Vec<LogicalPlan>,
        predicates: Vec<Expr>,
        outputs: Vec<Expr>,
    ) -> Result<Self> {
        let n = inputs.len();
        let mut offsets = Vec::with_capacity(n);
        let mut global = Schema::default();
        let mut col_input = Vec::new();
        for (i, input) in inputs.iter().enumerate() {
            offsets.push(global.arity());
            let s = input.schema();
            for _ in 0..s.arity() {
                col_input.push(i);
            }
            global = global.concat(&s);
        }
        let col_width: Vec<f64> = global
            .columns()
            .iter()
            .map(|c| {
                if opt.config.size_inference {
                    c.dtype.estimated_byte_width() as f64
                } else {
                    8.0
                }
            })
            .collect();

        let cover_of = |e: &Expr| -> u64 {
            let mut m = 0u64;
            for c in e.columns() {
                m |= 1u64 << col_input[c];
            }
            m
        };

        // Classify predicates; push single-input ones into their leaf.
        let mut pushed: Vec<Vec<Expr>> = vec![Vec::new(); n];
        let mut preds = Vec::new();
        let mut flat = Vec::new();
        for p in predicates {
            p.split_conjunction(&mut flat);
        }
        for p in flat {
            let cover = cover_of(&p);
            if cover.count_ones() <= 1 {
                let i = if cover == 0 { 0 } else { cover.trailing_zeros() as usize };
                pushed[i].push(p);
                continue;
            }
            let equi = match &p {
                Expr::Cmp { op: CmpOp::Eq, lhs, rhs } => {
                    let lc = cover_of(lhs);
                    let rc = cover_of(rhs);
                    if lc != 0 && rc != 0 && lc & rc == 0 {
                        Some((lhs.as_ref().clone(), rhs.as_ref().clone(), lc, rc))
                    } else {
                        None
                    }
                }
                _ => None,
            };
            preds.push(PredInfo { expr: p, cover, selectivity: 0.0, equi });
        }

        // Leaf plans + row estimates (pushed predicates applied).
        let mut leaves = Vec::with_capacity(n);
        let mut leaf_rows = Vec::with_capacity(n);
        for (i, input) in inputs.into_iter().enumerate() {
            let base_rows = opt.estimate(&input).rows;
            let off = offsets[i];
            let mut rows = base_rows;
            let plan = if pushed[i].is_empty() {
                input
            } else {
                for p in &pushed[i] {
                    rows *= predicate_selectivity(matches!(
                        p,
                        Expr::Cmp { op: CmpOp::Eq, .. }
                    ));
                }
                let local: Vec<Expr> = pushed[i]
                    .iter()
                    .map(|p| p.remap_columns(&|g| g - off))
                    .collect();
                LogicalPlan::Filter {
                    input: Box::new(input),
                    predicate: Expr::conjunction(local).expect("nonempty"),
                }
            };
            leaves.push(plan);
            leaf_rows.push(rows.max(1.0));
        }

        // Predicate selectivities need leaf rows.
        for p in &mut preds {
            let max_side = (0..n)
                .filter(|i| p.cover & (1u64 << i) != 0)
                .map(|i| leaf_rows[i])
                .fold(1.0f64, f64::max);
            p.selectivity = match &p.expr {
                Expr::Cmp { op: CmpOp::Eq, .. } => equi_join_selectivity(max_side, 1.0),
                Expr::Cmp { op: CmpOp::NotEq, .. } => 0.9,
                _ => 1.0 / 3.0,
            };
        }

        // Outputs: width via dimension inference over the global schema.
        let mut outs = Vec::with_capacity(outputs.len());
        for e in outputs {
            let cover = cover_of(&e);
            let width = {
                let dtype = e.infer_type(&global)?;
                if opt.config.size_inference {
                    dtype.estimated_byte_width() as f64
                } else {
                    8.0
                }
            };
            // Profitability: early evaluation must not inflate the rows it
            // travels in — compare the result's width with the base
            // columns it would replace.
            let consumed: f64 = e.columns().iter().map(|&c| col_width[c]).sum();
            let early = opt.config.early_projection
                && !e.is_column()
                && cover != 0
                && width <= consumed;
            outs.push(OutInfo { expr: e, cover, width, early });
        }

        Ok(JoinGraph {
            n,
            leaves,
            offsets,
            global,
            col_input,
            col_width,
            leaf_rows,
            preds,
            outs,
        })
    }

    /// Estimated rows of the join of subset `s`.
    fn rows(&self, s: u64) -> f64 {
        let mut rows: f64 = (0..self.n)
            .filter(|i| s & (1u64 << i) != 0)
            .map(|i| self.leaf_rows[i])
            .product();
        for p in &self.preds {
            if p.cover & s == p.cover {
                rows *= p.selectivity;
            }
        }
        rows.max(1.0)
    }

    /// Is base column `c` (global index) carried above subtree `s`?
    fn col_carried(&self, c: usize, s: u64) -> bool {
        // Needed by a predicate not yet fully applied inside `s`.
        for p in &self.preds {
            if p.cover & s != p.cover && p.expr.columns().contains(&c) {
                return true;
            }
        }
        // Needed by an output not (yet) computed inside `s`.
        for o in &self.outs {
            let computed = o.early && o.cover & s == o.cover;
            if !computed && o.expr.columns().contains(&c) {
                return true;
            }
        }
        false
    }

    /// Which outputs are computed somewhere within subtree `s`.
    fn outs_computed(&self, s: u64) -> Vec<usize> {
        self.outs
            .iter()
            .enumerate()
            .filter(|(_, o)| o.early && o.cover & s == o.cover)
            .map(|(k, _)| k)
            .collect()
    }

    /// Estimated per-row width of subtree `s`'s output.
    fn width(&self, s: u64) -> f64 {
        let mut w = 0.0;
        for c in 0..self.global.arity() {
            if s & (1u64 << self.col_input[c]) != 0 && self.col_carried(c, s) {
                w += self.col_width[c];
            }
        }
        for k in self.outs_computed(s) {
            w += self.outs[k].width;
        }
        w
    }

    fn vol(&self, s: u64) -> f64 {
        self.rows(s) * self.width(s).max(1.0)
    }

    /// Exact DPsize over all subsets (cross products included). Returns the
    /// chosen split for every non-singleton subset on the best plan.
    fn dp_orders(&self, full: u64) -> HashMap<u64, (u64, u64)> {
        let n = self.n;
        let mut cost: HashMap<u64, f64> = HashMap::new();
        let mut split: HashMap<u64, (u64, u64)> = HashMap::new();
        for i in 0..n {
            cost.insert(1u64 << i, 0.0);
        }
        // Enumerate subsets in increasing popcount.
        let mut subsets: Vec<u64> = (1..=full).filter(|s| s.count_ones() >= 2).collect();
        subsets.sort_by_key(|s| s.count_ones());
        for s in subsets {
            let mut best = f64::INFINITY;
            let mut best_split = (0u64, 0u64);
            // Enumerate proper submasks; canonical (lo half) only.
            let mut s1 = (s - 1) & s;
            while s1 != 0 {
                let s2 = s ^ s1;
                if s1 < s2 {
                    if let (Some(&c1), Some(&c2)) = (cost.get(&s1), cost.get(&s2)) {
                        let c = c1 + c2 + self.vol(s);
                        // Tiny bias against cross products breaks cost
                        // ties in favour of connected joins.
                        let c = if self.has_edge(s1, s2) { c } else { c * 1.000_001 };
                        if c < best {
                            best = c;
                            best_split = (s1, s2);
                        }
                    }
                }
                s1 = (s1 - 1) & s;
            }
            cost.insert(s, best);
            split.insert(s, best_split);
        }
        split
    }

    /// True when some equi predicate connects `s1` and `s2`.
    fn has_edge(&self, s1: u64, s2: u64) -> bool {
        self.preds.iter().any(|p| {
            if let Some((_, _, lc, rc)) = &p.equi {
                (lc & s1 == *lc && rc & s2 == *rc) || (lc & s2 == *lc && rc & s1 == *rc)
            } else {
                false
            }
        })
    }

    /// Greedy fallback for very wide joins: repeatedly merge the pair of
    /// components with the cheapest merged volume.
    fn greedy_orders(&self) -> HashMap<u64, (u64, u64)> {
        let mut split = HashMap::new();
        let mut components: Vec<u64> = (0..self.n).map(|i| 1u64 << i).collect();
        while components.len() > 1 {
            let mut best = f64::INFINITY;
            let mut pair = (0usize, 1usize);
            for a in 0..components.len() {
                for b in (a + 1)..components.len() {
                    let merged = components[a] | components[b];
                    let mut v = self.vol(merged);
                    if !self.has_edge(components[a], components[b]) {
                        v *= 1.000_001;
                    }
                    if v < best {
                        best = v;
                        pair = (a, b);
                    }
                }
            }
            let (a, b) = pair;
            let merged = components[a] | components[b];
            split.insert(merged, (components[a], components[b]));
            components.retain(|&c| c & merged == 0);
            components.push(merged);
        }
        split
    }

    /// Degenerate single-input "join".
    fn finish_single(mut self) -> Result<(LogicalPlan, Vec<Expr>)> {
        let plan = self.leaves.remove(0);
        let outs = self.outs.iter().map(|o| o.expr.clone()).collect();
        Ok((plan, outs))
    }

    /// Rebuilds the physical-ready logical tree for subset `full` using the
    /// chosen splits, then rewrites the parent's output expressions.
    fn build_tree(
        mut self,
        full: u64,
        splits: &HashMap<u64, (u64, u64)>,
    ) -> Result<(LogicalPlan, Vec<Expr>)> {
        // Take the leaves out so build_subtree can move them.
        let mut leaves: Vec<Option<LogicalPlan>> =
            self.leaves.drain(..).map(Some).collect();
        let (plan, map) = self.build_subtree(full, splits, &mut leaves)?;

        let final_schema = plan.schema();
        let mut final_exprs = Vec::with_capacity(self.outs.len());
        for (k, o) in self.outs.iter().enumerate() {
            if let Some(&pos) = map.get(&Slot::Out(k)) {
                final_exprs.push(Expr::Column(pos));
            } else {
                // Remap the expression's base columns through the map.
                let missing = std::cell::Cell::new(None);
                let e = o.expr.remap_columns(&|g| match map.get(&Slot::Base(g)) {
                    Some(&pos) => pos,
                    None => {
                        missing.set(Some(g));
                        0
                    }
                });
                if let Some(g) = missing.get() {
                    return Err(PlanError::Internal(format!(
                        "output column {g} was pruned from the join tree"
                    )));
                }
                // Sanity: expression must type-check against the new schema.
                e.infer_type(&final_schema)?;
                final_exprs.push(e);
            }
        }
        Ok((plan, final_exprs))
    }

    fn build_subtree(
        &self,
        s: u64,
        splits: &HashMap<u64, (u64, u64)>,
        leaves: &mut Vec<Option<LogicalPlan>>,
    ) -> Result<(LogicalPlan, SlotMap)> {
        if s.count_ones() == 1 {
            let i = s.trailing_zeros() as usize;
            let plan = leaves[i]
                .take()
                .ok_or_else(|| PlanError::Internal(format!("leaf {i} reused")))?;
            let arity = plan.schema().arity();
            let off = self.offsets[i];
            let mut map = SlotMap::new();
            for j in 0..arity {
                map.insert(Slot::Base(off + j), j);
            }
            return self.apply_projection(s, plan, map, /*children_computed=*/ &[]);
        }

        let &(s1, s2) = splits
            .get(&s)
            .ok_or_else(|| PlanError::Internal(format!("no split recorded for {s:b}")))?;
        let (left, lmap) = self.build_subtree(s1, splits, leaves)?;
        let (right, rmap) = self.build_subtree(s2, splits, leaves)?;
        let left_arity = left.schema().arity();

        // Combined child map: right positions shifted.
        let mut cmap = SlotMap::new();
        for (slot, pos) in &lmap {
            cmap.insert(*slot, *pos);
        }
        for (slot, pos) in &rmap {
            cmap.insert(*slot, *pos + left_arity);
        }

        // Predicates applied exactly here.
        let mut equi = Vec::new();
        let mut residual = Vec::new();
        for p in &self.preds {
            if p.cover & s != p.cover || p.cover & s1 == p.cover || p.cover & s2 == p.cover {
                continue;
            }
            if let Some((lhs, rhs, lc, rc)) = &p.equi {
                let (lhs, rhs) = if lc & s1 == *lc && rc & s2 == *rc {
                    (lhs, rhs)
                } else if lc & s2 == *lc && rc & s1 == *rc {
                    (rhs, lhs)
                } else {
                    // Sides straddle both children: fall back to residual.
                    residual.push(self.remap_global(&p.expr, &cmap)?);
                    continue;
                };
                let lk = self.remap_global(lhs, &lmap)?;
                let rk = self.remap_global(rhs, &rmap)?;
                equi.push((lk, rk));
            } else {
                residual.push(self.remap_global(&p.expr, &cmap)?);
            }
        }

        let kind = if equi.is_empty() { JoinKind::Cross } else { JoinKind::Inner };
        let join = LogicalPlan::Join {
            left: Box::new(left),
            right: Box::new(right),
            kind,
            equi,
            residual: Expr::conjunction(residual),
        };

        let children_computed: Vec<usize> = self
            .outs_computed(s1)
            .into_iter()
            .chain(self.outs_computed(s2))
            .collect();
        self.apply_projection(s, join, cmap, &children_computed)
    }

    /// Emits the early projection for subtree `s`: keeps carried base
    /// columns, passes through already-computed outputs, and evaluates
    /// outputs that became computable exactly at `s`.
    fn apply_projection(
        &self,
        s: u64,
        plan: LogicalPlan,
        map: SlotMap,
        children_computed: &[usize],
    ) -> Result<(LogicalPlan, SlotMap)> {
        let carried: Vec<usize> = (0..self.global.arity())
            .filter(|&c| {
                s & (1u64 << self.col_input[c]) != 0
                    && map.contains_key(&Slot::Base(c))
                    && self.col_carried(c, s)
            })
            .collect();
        let computed = self.outs_computed(s);

        // Nothing to compute and nothing to prune? Pass through unchanged.
        let base_slots_in_map =
            map.keys().filter(|k| matches!(k, Slot::Base(_))).count();
        if computed.len() == children_computed.len() && carried.len() == base_slots_in_map
        {
            return Ok((plan, map));
        }

        let mut exprs: Vec<(Expr, String)> = Vec::new();
        let mut new_map = SlotMap::new();
        for &c in &carried {
            let pos = map[&Slot::Base(c)];
            new_map.insert(Slot::Base(c), exprs.len());
            exprs.push((Expr::Column(pos), self.global.column(c).name.clone()));
        }
        for &k in &computed {
            new_map.insert(Slot::Out(k), exprs.len());
            let e = if children_computed.contains(&k) {
                Expr::Column(map[&Slot::Out(k)])
            } else {
                self.remap_global(&self.outs[k].expr, &map)?
            };
            exprs.push((e, format!("__out{k}")));
        }

        // A projection with no columns would be degenerate; keep the
        // input's first column (can happen for COUNT(*)-style roots).
        if exprs.is_empty() {
            if let Some((slot, pos)) = map.iter().min_by_key(|&(_, pos)| *pos) {
                new_map.insert(*slot, 0);
                exprs.push((Expr::Column(*pos), "__keep".into()));
            }
        }

        let projected = LogicalPlan::project(plan, exprs)?;
        Ok((projected, new_map))
    }

    /// Rewrites a global-space expression through a slot map.
    fn remap_global(&self, e: &Expr, map: &SlotMap) -> Result<Expr> {
        let missing = std::cell::Cell::new(None);
        let out = e.remap_columns(&|g| match map.get(&Slot::Base(g)) {
            Some(&pos) => pos,
            None => {
                missing.set(Some(g));
                0
            }
        });
        match missing.get() {
            Some(g) => Err(PlanError::Internal(format!(
                "column {g} not available while planning join"
            ))),
            None => Ok(out),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::functions::Builtin;
    use lardb_storage::DataType;

    fn scan(name: &str, cols: &[(&str, DataType)]) -> LogicalPlan {
        LogicalPlan::Scan {
            table: name.to_string(),
            schema: Schema::from_pairs(cols).with_qualifier(name),
        }
    }

    /// The §4.1 schema: R(r_rid, r_matrix[10][100000]), S(s_sid,
    /// s_matrix[100000][100]), T(t_rid, t_sid); |R|=|S|=100, |T|=1000.
    fn paper_catalog() -> (HashMap<String, usize>, LogicalPlan) {
        let mut stats = HashMap::new();
        stats.insert("r".to_string(), 100);
        stats.insert("s".to_string(), 100);
        stats.insert("t".to_string(), 1000);

        let r = scan(
            "R",
            &[
                ("r_rid", DataType::Integer),
                ("r_matrix", DataType::Matrix(Some(10), Some(100_000))),
            ],
        );
        let s = scan(
            "S",
            &[
                ("s_sid", DataType::Integer),
                ("s_matrix", DataType::Matrix(Some(100_000), Some(100))),
            ],
        );
        let t = scan("T", &[("t_rid", DataType::Integer), ("t_sid", DataType::Integer)]);

        // global columns: 0 r_rid, 1 r_matrix, 2 s_sid, 3 s_matrix,
        //                 4 t_rid, 5 t_sid
        let mj = LogicalPlan::MultiJoin {
            inputs: vec![r, s, t],
            predicates: vec![
                Expr::eq(Expr::col(0), Expr::col(4)),
                Expr::eq(Expr::col(2), Expr::col(5)),
            ],
        };
        let project = LogicalPlan::project(
            mj,
            vec![(
                Expr::call(Builtin::MatrixMultiply, vec![Expr::col(1), Expr::col(3)]),
                "prod".into(),
            )],
        )
        .unwrap();
        (stats, project)
    }

    /// Collects, in order, the tables of every Scan in the plan.
    fn scans(plan: &LogicalPlan, out: &mut Vec<String>) {
        if let LogicalPlan::Scan { table, .. } = plan {
            out.push(table.clone());
        }
        for c in plan.children() {
            scans(c, out);
        }
    }

    /// Finds whether some Join node directly joins {R,S} (in any order)
    /// below it, i.e. the paper's early cross product.
    fn has_rs_cross(plan: &LogicalPlan) -> bool {
        if let LogicalPlan::Join { left, right, .. } = plan {
            let mut l = Vec::new();
            let mut r = Vec::new();
            scans(left, &mut l);
            scans(right, &mut r);
            let mut both: Vec<String> = l.iter().chain(r.iter()).cloned().collect();
            both.sort();
            if both == vec!["R".to_string(), "S".to_string()] {
                return true;
            }
        }
        plan.children().iter().any(|c| has_rs_cross(c))
    }

    /// True when some Project below the top evaluates matrix_multiply.
    fn has_early_matmul(plan: &LogicalPlan, depth: usize) -> bool {
        if depth > 0 {
            if let LogicalPlan::Project { exprs, .. } = plan {
                if exprs.iter().any(contains_matmul) {
                    return true;
                }
            }
        }
        plan.children().iter().any(|c| has_early_matmul(c, depth + 1))
    }

    fn contains_matmul(e: &Expr) -> bool {
        match e {
            Expr::Call { func: Builtin::MatrixMultiply, .. } => true,
            Expr::Call { args, .. } => args.iter().any(contains_matmul),
            Expr::Arith { lhs, rhs, .. } | Expr::Cmp { lhs, rhs, .. } => {
                contains_matmul(lhs) || contains_matmul(rhs)
            }
            Expr::And(a, b) | Expr::Or(a, b) => contains_matmul(a) || contains_matmul(b),
            Expr::Not(x) | Expr::Negate(x) => contains_matmul(x),
            _ => false,
        }
    }

    #[test]
    fn paper_plan_chooses_early_cross_product() {
        let (stats, plan) = paper_catalog();
        let opt = Optimizer::with_defaults(&stats);
        let optimized = opt.optimize(plan).unwrap();
        assert!(
            has_rs_cross(&optimized),
            "expected (π(S × R)) ⋈ T shape, got:\n{}",
            optimized.display_tree()
        );
        assert!(
            has_early_matmul(&optimized, 0),
            "matrix_multiply should be projected early:\n{}",
            optimized.display_tree()
        );
    }

    #[test]
    fn blind_optimizer_avoids_cross_product() {
        let (stats, plan) = paper_catalog();
        let config = OptimizerConfig { size_inference: false, ..Default::default() };
        let opt = Optimizer::new(&stats, config);
        let optimized = opt.optimize(plan).unwrap();
        assert!(
            !has_rs_cross(&optimized),
            "blind optimizer should join through T:\n{}",
            optimized.display_tree()
        );
    }

    #[test]
    fn no_early_projection_keeps_matmul_at_root() {
        let (stats, plan) = paper_catalog();
        let config = OptimizerConfig { early_projection: false, ..Default::default() };
        let opt = Optimizer::new(&stats, config);
        let optimized = opt.optimize(plan).unwrap();
        assert!(!has_early_matmul(&optimized, 0));
        // Root project must still compute the multiply.
        if let LogicalPlan::Project { exprs, .. } = &optimized {
            assert!(exprs.iter().any(contains_matmul));
        } else {
            panic!("expected Project at root");
        }
    }

    #[test]
    fn two_way_equi_join_plans_as_inner() {
        let mut stats = HashMap::new();
        stats.insert("a".to_string(), 10);
        stats.insert("b".to_string(), 10);
        let a = scan("a", &[("x", DataType::Integer)]);
        let b = scan("b", &[("y", DataType::Integer)]);
        let mj = LogicalPlan::MultiJoin {
            inputs: vec![a, b],
            predicates: vec![Expr::eq(Expr::col(0), Expr::col(1))],
        };
        let plan = LogicalPlan::project(
            mj,
            vec![(Expr::col(0), "x".into()), (Expr::col(1), "y".into())],
        )
        .unwrap();
        let opt = Optimizer::with_defaults(&stats);
        let optimized = opt.optimize(plan).unwrap();
        fn find_join(p: &LogicalPlan) -> Option<(JoinKind, usize)> {
            if let LogicalPlan::Join { kind, equi, .. } = p {
                return Some((*kind, equi.len()));
            }
            p.children().iter().find_map(|c| find_join(c))
        }
        let (kind, nequi) = find_join(&optimized).expect("a join must exist");
        assert_eq!(kind, JoinKind::Inner);
        assert_eq!(nequi, 1);
    }

    #[test]
    fn single_table_pushdown() {
        let mut stats = HashMap::new();
        stats.insert("a".to_string(), 10);
        stats.insert("b".to_string(), 10);
        let a = scan("a", &[("x", DataType::Integer)]);
        let b = scan("b", &[("y", DataType::Integer)]);
        let mj = LogicalPlan::MultiJoin {
            inputs: vec![a, b],
            predicates: vec![
                Expr::eq(Expr::col(0), Expr::col(1)),
                Expr::cmp(CmpOp::Lt, Expr::col(0), Expr::lit(5i64)),
            ],
        };
        let plan =
            LogicalPlan::project(mj, vec![(Expr::col(1), "y".into())]).unwrap();
        let opt = Optimizer::with_defaults(&stats);
        let optimized = opt.optimize(plan).unwrap();
        // The x < 5 filter must sit directly above the scan of `a`.
        fn filter_over_scan(p: &LogicalPlan) -> bool {
            if let LogicalPlan::Filter { input, .. } = p {
                if matches!(**input, LogicalPlan::Scan { .. }) {
                    return true;
                }
            }
            p.children().iter().any(|c| filter_over_scan(c))
        }
        assert!(filter_over_scan(&optimized), "{}", optimized.display_tree());
    }

    #[test]
    fn outputs_remap_correctly_after_reorder() {
        // Ensure output exprs that are bare columns survive join reordering
        // with correct positions (checked by type).
        let mut stats = HashMap::new();
        stats.insert("big".to_string(), 100000);
        stats.insert("small".to_string(), 10);
        let big = scan(
            "big",
            &[("k", DataType::Integer), ("v", DataType::Vector(Some(7)))],
        );
        let small = scan("small", &[("k2", DataType::Integer)]);
        let mj = LogicalPlan::MultiJoin {
            inputs: vec![big, small],
            predicates: vec![Expr::eq(Expr::col(0), Expr::col(2))],
        };
        let plan = LogicalPlan::project(
            mj,
            vec![(Expr::col(1), "v".into()), (Expr::col(2), "k2".into())],
        )
        .unwrap();
        let opt = Optimizer::with_defaults(&stats);
        let optimized = opt.optimize(plan).unwrap();
        let schema = optimized.schema();
        assert_eq!(schema.column(0).dtype, DataType::Vector(Some(7)));
        assert_eq!(schema.column(1).dtype, DataType::Integer);
    }

    #[test]
    fn greedy_fallback_still_produces_correct_plans() {
        // Force the greedy path with max_dp_inputs = 2 on the §4.1 query;
        // plan must still be buildable and type-correct.
        let (stats, plan) = paper_catalog();
        let config = OptimizerConfig { max_dp_inputs: 2, ..Default::default() };
        let opt = Optimizer::new(&stats, config);
        let optimized = opt.optimize(plan).unwrap();
        let schema = optimized.schema();
        assert_eq!(schema.arity(), 1);
        assert_eq!(
            schema.column(0).dtype,
            lardb_storage::DataType::Matrix(Some(10), Some(100))
        );
        // Greedy also prefers the small RS product here.
        assert!(has_rs_cross(&optimized), "{}", optimized.display_tree());
    }

    #[test]
    fn standalone_multijoin_preserves_all_columns() {
        let mut stats = HashMap::new();
        stats.insert("a".to_string(), 5);
        stats.insert("b".to_string(), 5);
        let a = scan("a", &[("x", DataType::Integer), ("v", DataType::Double)]);
        let b = scan("b", &[("y", DataType::Integer)]);
        let mj = LogicalPlan::MultiJoin {
            inputs: vec![a, b],
            predicates: vec![Expr::eq(Expr::col(0), Expr::col(2))],
        };
        let opt = Optimizer::with_defaults(&stats);
        let optimized = opt.optimize(mj).unwrap();
        let schema = optimized.schema();
        assert_eq!(schema.arity(), 3);
        assert_eq!(schema.column(1).name, "v");
    }

    #[test]
    fn non_equi_predicate_becomes_residual() {
        let mut stats = HashMap::new();
        stats.insert("a".to_string(), 10);
        stats.insert("b".to_string(), 10);
        let a = scan("a", &[("x", DataType::Integer)]);
        let b = scan("b", &[("y", DataType::Integer)]);
        let mj = LogicalPlan::MultiJoin {
            inputs: vec![a, b],
            predicates: vec![Expr::cmp(CmpOp::NotEq, Expr::col(0), Expr::col(1))],
        };
        let plan = LogicalPlan::project(mj, vec![(Expr::col(0), "x".into())]).unwrap();
        let opt = Optimizer::with_defaults(&stats);
        let optimized = opt.optimize(plan).unwrap();
        fn find_residual(p: &LogicalPlan) -> bool {
            if let LogicalPlan::Join { kind, residual, .. } = p {
                return *kind == JoinKind::Cross && residual.is_some();
            }
            p.children().iter().any(|c| find_residual(c))
        }
        assert!(find_residual(&optimized), "{}", optimized.display_tree());
    }

    #[test]
    fn expression_equi_join_detected() {
        // The paper's blocking predicate x.id/1000 = ind.mi is an
        // expression equi-join, not column = column.
        let mut stats = HashMap::new();
        stats.insert("x".to_string(), 1000);
        stats.insert("ind".to_string(), 10);
        use lardb_storage::ops::ArithOp;
        let x = scan("x", &[("id", DataType::Integer)]);
        let ind = scan("ind", &[("mi", DataType::Integer)]);
        let mj = LogicalPlan::MultiJoin {
            inputs: vec![x, ind],
            predicates: vec![Expr::eq(
                Expr::arith(ArithOp::Div, Expr::col(0), Expr::lit(1000i64)),
                Expr::col(1),
            )],
        };
        let plan = LogicalPlan::project(mj, vec![(Expr::col(1), "mi".into())]).unwrap();
        let opt = Optimizer::with_defaults(&stats);
        let optimized = opt.optimize(plan).unwrap();
        fn find_inner_join(p: &LogicalPlan) -> bool {
            if let LogicalPlan::Join { kind: JoinKind::Inner, equi, .. } = p {
                return equi.len() == 1;
            }
            p.children().iter().any(|c| find_inner_join(c))
        }
        assert!(find_inner_join(&optimized), "{}", optimized.display_tree());
    }

    #[test]
    fn size_exploding_expressions_are_not_projected_early() {
        // SUM(outer_product(x, x)) over a join: the outer product blows an
        // 8·d-byte vector into an 8·d²-byte matrix, so it must be computed
        // at the aggregation, never inside the join tree (a leaf-level
        // early projection here once materialized 20 000 × 8 MB matrices).
        let mut stats = HashMap::new();
        stats.insert("x".to_string(), 1000);
        stats.insert("y".to_string(), 1000);
        let x = scan(
            "x",
            &[("id", DataType::Integer), ("v", DataType::Vector(Some(1000)))],
        );
        let y = scan("y", &[("i", DataType::Integer), ("t", DataType::Double)]);
        let mj = LogicalPlan::MultiJoin {
            inputs: vec![x, y],
            predicates: vec![Expr::eq(Expr::col(0), Expr::col(2))],
        };
        let agg = LogicalPlan::aggregate(
            mj,
            vec![],
            vec![crate::logical::AggExpr {
                func: crate::functions::AggFunc::Sum,
                arg: Some(Expr::call(
                    Builtin::OuterProduct,
                    vec![Expr::col(1), Expr::col(1)],
                )),
                name: "g".into(),
            }],
        )
        .unwrap();
        let opt = Optimizer::with_defaults(&stats);
        let optimized = opt.optimize(agg).unwrap();
        // No Project below the Aggregate may contain outer_product.
        fn below_agg_has_outer(p: &LogicalPlan, under_agg: bool) -> bool {
            if under_agg {
                if let LogicalPlan::Project { exprs, .. } = p {
                    if exprs.iter().any(|e| {
                        matches!(e, Expr::Call { func: Builtin::OuterProduct, .. })
                    }) {
                        return true;
                    }
                }
            }
            let next = under_agg || matches!(p, LogicalPlan::Aggregate { .. });
            p.children().iter().any(|c| below_agg_has_outer(c, next))
        }
        assert!(
            !below_agg_has_outer(&optimized, false),
            "{}",
            optimized.display_tree()
        );
        // The aggregate argument itself still computes the outer product.
        fn agg_has_outer(p: &LogicalPlan) -> bool {
            if let LogicalPlan::Aggregate { aggs, .. } = p {
                return aggs.iter().any(|a| {
                    matches!(
                        a.arg,
                        Some(Expr::Call { func: Builtin::OuterProduct, .. })
                    )
                });
            }
            p.children().iter().any(|c| agg_has_outer(c))
        }
        assert!(agg_has_outer(&optimized), "{}", optimized.display_tree());
    }

    #[test]
    fn estimate_scans_and_joins() {
        let mut stats = HashMap::new();
        stats.insert("t".to_string(), 500);
        let opt = Optimizer::with_defaults(&stats);
        let t = scan("t", &[("id", DataType::Integer)]);
        let e = opt.estimate(&t);
        assert_eq!(e.rows, 500.0);
        assert_eq!(e.row_bytes, 8.0);
        let unknown = scan("zzz", &[("id", DataType::Integer)]);
        assert_eq!(opt.estimate(&unknown).rows, DEFAULT_TABLE_ROWS);
    }
}
