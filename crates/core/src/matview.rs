//! Materialized-view maintenance: delta propagation with a recompute
//! fallback.
//!
//! A materialized view is an ordinary catalog table plus a
//! [`lardb_storage::MatViewDef`] recording the defining SELECT and its
//! lineage (the base tables the bound plan scans). Every INSERT into a
//! base table triggers maintenance of the views over it, choosing per
//! view the cheapest sound strategy:
//!
//! * **Append** — filter/project/join views: the defining query is run
//!   over just the inserted delta (the base table reference is rewritten
//!   to a temporary delta table, keeping its binding alias) and the
//!   results are appended. Sound because these operators distribute over
//!   union: `Q(T ∪ Δ) = Q(T) ∪ Q(Δ)` when `T` appears once.
//! * **Merge** — grouped/global aggregates of SUM/COUNT/MIN/MAX: those
//!   accumulators have single-value merge states equal to their finished
//!   values, so the stored view rows *are* merge states. The defining
//!   query runs over the delta and each delta group is merged into the
//!   stored group through the engine's own
//!   [`lardb_exec::agg::Accumulator::merge_state`] — the same code the
//!   parallel executor uses to combine partial aggregates, so the merge
//!   semantics are identical by construction.
//! * **Recompute** — everything else (self-joins on the inserted table,
//!   lineage through views, DISTINCT / ORDER BY / LIMIT / HAVING, AVG and
//!   the LA construction aggregates, subqueries): rerun the defining
//!   query and replace the stored rows. Always sound, never fast.
//!
//! `REFRESH MATERIALIZED VIEW` forces the recompute path — it is the
//! baseline the incremental paths are checked against in the equivalence
//! suite.
//!
//! Lineage through another materialized view is rejected at CREATE time:
//! maintenance writes to backing tables directly (not through the INSERT
//! dispatch that triggers maintenance), so a view-over-view would never
//! be maintained and would silently serve stale rows.

use std::sync::atomic::{AtomicU64, Ordering};

use lardb_exec::CancelToken;
use lardb_planner::{AggFunc, LogicalPlan};
use lardb_pool::QueryContext;
use lardb_sql::ast::{AstExpr, SelectItem, SelectStatement, Statement, TableRef};
use lardb_sql::parse_statement;
use lardb_storage::{Row, Schema};

use crate::database::{Database, QueryResult, StatementRun};
use crate::error::{EngineError, Result};

/// Unique suffix for temporary delta tables (process-wide; the tables
/// live only for the duration of one maintenance run).
static DELTA_SEQ: AtomicU64 = AtomicU64::new(0);

/// How one view reacts to an INSERT into one of its base tables.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Strategy {
    /// Run the defining query over the delta and append the results.
    Append,
    /// Run the defining query over the delta and merge aggregate states
    /// into the stored groups. Per output column: `None` = group key,
    /// `Some(f)` = aggregate merged with `f`.
    Merge(Vec<Option<AggFunc>>),
    /// Rerun the defining query from scratch.
    Recompute,
}

/// Lowercased, deduplicated, sorted names of the base tables a bound
/// plan scans (views are already expanded by the binder).
pub(crate) fn scan_tables(plan: &LogicalPlan) -> Vec<String> {
    fn walk(plan: &LogicalPlan, out: &mut Vec<String>) {
        match plan {
            LogicalPlan::Scan { table, .. } => out.push(table.to_ascii_lowercase()),
            LogicalPlan::Filter { input, .. }
            | LogicalPlan::Project { input, .. }
            | LogicalPlan::Aggregate { input, .. }
            | LogicalPlan::Sort { input, .. }
            | LogicalPlan::Limit { input, .. } => walk(input, out),
            LogicalPlan::MultiJoin { inputs, .. } => {
                for i in inputs {
                    walk(i, out);
                }
            }
            LogicalPlan::Join { left, right, .. } => {
                walk(left, out);
                walk(right, out);
            }
        }
    }
    let mut tables = Vec::new();
    walk(plan, &mut tables);
    tables.sort();
    tables.dedup();
    tables
}

/// True when the expression contains an aggregate call at any depth.
fn contains_aggregate(expr: &AstExpr) -> bool {
    match expr {
        AstExpr::Call { name, args, .. } => {
            AggFunc::from_name(name).is_some() || args.iter().any(contains_aggregate)
        }
        AstExpr::Binary { lhs, rhs, .. } => {
            contains_aggregate(lhs) || contains_aggregate(rhs)
        }
        AstExpr::Neg(e) | AstExpr::Not(e) => contains_aggregate(e),
        AstExpr::Column { .. } | AstExpr::Int(_) | AstExpr::Float(_) | AstExpr::Str(_) => {
            false
        }
    }
}

/// An aggregate whose finished value doubles as its 1-ary merge state
/// (see `lardb_exec::agg::state_arity`): the stored view column can be
/// merged with a delta value directly.
fn mergeable(func: AggFunc) -> bool {
    matches!(func, AggFunc::Sum | AggFunc::Count | AggFunc::Min | AggFunc::Max)
}

/// Chooses the maintenance strategy for `sel` when `base` receives new
/// rows. `has_view` reports whether a FROM name is a (virtual) view —
/// views expand at bind time, so a delta rewrite of the raw AST would
/// miss lineage through them.
fn classify(
    sel: &SelectStatement,
    base: &str,
    has_view: impl Fn(&str) -> bool,
) -> Strategy {
    // Structural features delta propagation cannot see through.
    if sel.distinct || sel.having.is_some() || !sel.order_by.is_empty()
        || sel.limit.is_some()
    {
        return Strategy::Recompute;
    }
    let mut base_refs = 0usize;
    for r in &sel.from {
        match r {
            TableRef::Subquery { .. } => return Strategy::Recompute,
            TableRef::Table { name, .. } => {
                if has_view(name) {
                    return Strategy::Recompute; // lineage through a view
                }
                if name.eq_ignore_ascii_case(base) {
                    base_refs += 1;
                }
            }
        }
    }
    if base_refs != 1 {
        // 0: the base is reached some other way; >1: a self-join, where
        // the delta cross-terms (Δ⋈T, T⋈Δ, Δ⋈Δ) are not one rewrite.
        return Strategy::Recompute;
    }
    let has_aggs = !sel.group_by.is_empty()
        || sel.items.iter().any(|i| match i {
            SelectItem::Expr { expr, .. } => contains_aggregate(expr),
            SelectItem::Wildcard => false,
        });
    if !has_aggs {
        return Strategy::Append;
    }
    // Aggregate view: mergeable only when every output column is either a
    // group-by expression (a key we can match stored rows on) or a bare
    // SUM/COUNT/MIN/MAX call, and every group-by expression is an output
    // column (otherwise distinct groups collapse onto one stored row and
    // keys cannot be matched).
    let mut roles = Vec::with_capacity(sel.items.len());
    for item in &sel.items {
        let SelectItem::Expr { expr, .. } = item else {
            return Strategy::Recompute;
        };
        if sel.group_by.contains(expr) {
            roles.push(None);
            continue;
        }
        match expr {
            AstExpr::Call { name, args, .. }
                if AggFunc::from_name(name).map(mergeable) == Some(true)
                    && !args.iter().any(contains_aggregate) =>
            {
                roles.push(AggFunc::from_name(name));
            }
            _ => return Strategy::Recompute,
        }
    }
    for g in &sel.group_by {
        let in_items = sel
            .items
            .iter()
            .any(|i| matches!(i, SelectItem::Expr { expr, .. } if expr == g));
        if !in_items {
            return Strategy::Recompute;
        }
    }
    Strategy::Merge(roles)
}

/// Canonical string for a group-key tuple: `Value` is not `Hash`, and
/// `Debug` of every variant (including float bit-payload distinctions
/// like `-0.0`) round-trips losslessly enough to act as a map key.
fn key_of(row: &Row, roles: &[Option<AggFunc>]) -> String {
    let mut key = String::new();
    for (i, role) in roles.iter().enumerate() {
        if role.is_none() {
            key.push_str(&format!("{:?}|", row.value(i)));
        }
    }
    key
}

impl Database {
    /// Binds and runs a SELECT under a statement record of its own, which
    /// is then dropped: the maintenance machinery's internal queries must
    /// not disturb [`Database::last_profile`] or the plan cache.
    ///
    /// It runs in a child of the statement's context, so its stages,
    /// pool tasks and pool waits land on the statement's trace, but with a
    /// token of its own: cancelled after the base table was written, it
    /// would leave the view behind its base.
    fn run_select_internal(&self, sel: &SelectStatement) -> Result<QueryResult> {
        let ctx = match QueryContext::current() {
            Some(statement) => statement.child(CancelToken::new(), self.pool.clone()),
            None => QueryContext::new(CancelToken::new(), None, self.pool.clone()),
        };
        let _entered = ctx.enter();
        let mut st = StatementRun::new("<matview maintenance>", None, ctx);
        let (optimized, _) = self.optimized_for(&mut st, None, sel)?;
        Ok(self.run_plan(&mut st, &optimized, /*gather=*/ false)?.0)
    }

    /// Parses a materialized view's stored definition.
    fn matview_select(&self, name: &str, sql: &str) -> Result<SelectStatement> {
        match parse_statement(sql)? {
            Statement::Select(sel) => Ok(sel),
            _ => Err(EngineError::Usage(format!(
                "materialized view {name} has a non-SELECT definition"
            ))),
        }
    }

    /// Replaces the rows of view `name`'s backing table (swapped in whole
    /// by [`Database::materialize`], so a concurrent SELECT never sees the
    /// table missing) and invalidates the cached plans over the view via
    /// its per-table stats version.
    fn replace_matview_table(&self, name: &str, schema: Schema, rows: Vec<Row>) -> Result<usize> {
        let n = self.materialize(name, schema, rows, true)?;
        self.plan_cache().bump_stats(name);
        Ok(n)
    }

    /// Full recompute of one materialized view from its stored
    /// definition; returns the new row count. `REFRESH MATERIALIZED VIEW`
    /// and the non-incrementalizable maintenance fallback both land here.
    pub(crate) fn recompute_matview(&self, name: &str) -> Result<usize> {
        let def = self.catalog().matview(name).ok_or_else(|| {
            EngineError::Usage(format!("no such materialized view: {name}"))
        })?;
        let sel = self.matview_select(name, &def.sql)?;
        let result = self.run_select_internal(&sel)?;
        let n = self.replace_matview_table(name, result.schema, result.rows)?;
        let registry = lardb_obs::global();
        registry.counter("mv.refresh.recompute").inc();
        registry.counter("mv.refresh_rows").add(n as u64);
        Ok(n)
    }

    /// Maintains every materialized view whose lineage includes `base`
    /// after `delta` rows were inserted into it. Called with the base
    /// rows already in place (both incremental paths only read the
    /// delta; the recompute fallback reads the updated table).
    pub(crate) fn maintain_matviews_on(&self, base: &str, delta: &[Row]) -> Result<()> {
        for view in self.catalog().matviews_on(base) {
            let Some(def) = self.catalog().matview(&view) else { continue };
            let sel = self.matview_select(&view, &def.sql)?;
            let strategy =
                classify(&sel, base, |name| self.catalog().has_view(name));
            match strategy {
                Strategy::Recompute => {
                    self.recompute_matview(&view)?;
                }
                Strategy::Append => {
                    let rows = self.run_query_over_delta(&sel, base, delta)?.rows;
                    let n = rows.len();
                    self.catalog().table(&view)?.write().insert_all(rows)?;
                    self.plan_cache().bump_stats(&view);
                    let registry = lardb_obs::global();
                    registry.counter("mv.refresh.incremental").inc();
                    registry.counter("mv.refresh_rows").add(n as u64);
                }
                Strategy::Merge(roles) => {
                    let delta_rows = self.run_query_over_delta(&sel, base, delta)?;
                    self.merge_into_matview(&view, &roles, delta_rows)?;
                }
            }
        }
        Ok(())
    }

    /// Runs the defining query with the single `base` reference rewritten
    /// to a temporary table holding only the delta rows. The original
    /// name becomes the alias so every qualified column reference in the
    /// query still binds.
    fn run_query_over_delta(
        &self,
        sel: &SelectStatement,
        base: &str,
        delta: &[Row],
    ) -> Result<QueryResult> {
        let delta_name =
            format!("__lardb_delta_{}", DELTA_SEQ.fetch_add(1, Ordering::Relaxed));
        let schema = self.catalog().table_schema(base)?;
        self.materialize(&delta_name, schema, delta.to_vec(), false)?;
        let mut rewritten = sel.clone();
        for r in &mut rewritten.from {
            if let TableRef::Table { name, alias } = r {
                if name.eq_ignore_ascii_case(base) {
                    *alias = alias.take().or_else(|| Some(name.clone()));
                    *name = delta_name.clone();
                }
            }
        }
        let result = self.run_select_internal(&rewritten);
        let _ = self.catalog().drop_table(&delta_name);
        result
    }

    /// Merges a delta aggregation result into the stored view rows:
    /// existing groups are combined state-by-state through the engine's
    /// [`lardb_exec::agg::Accumulator`], new groups are appended.
    fn merge_into_matview(
        &self,
        view: &str,
        roles: &[Option<AggFunc>],
        delta: QueryResult,
    ) -> Result<()> {
        use lardb_exec::agg::Accumulator;
        let handle = self.catalog().table(view)?;
        let (schema, mut rows) = {
            let guard = handle.read();
            (
                guard.schema().clone(),
                guard.iter_rows().cloned().collect::<Vec<Row>>(),
            )
        };
        let mut index = std::collections::HashMap::with_capacity(rows.len());
        for (i, row) in rows.iter().enumerate() {
            index.insert(key_of(row, roles), i);
        }
        let n = delta.rows.len();
        for delta_row in delta.rows {
            match index.get(&key_of(&delta_row, roles)).copied() {
                Some(i) => {
                    let mut merged = Vec::with_capacity(roles.len());
                    for (c, role) in roles.iter().enumerate() {
                        match role {
                            None => merged.push(rows[i].value(c).clone()),
                            Some(func) => {
                                let mut acc = Accumulator::new(*func);
                                acc.merge_state(std::slice::from_ref(rows[i].value(c)))?;
                                acc.merge_state(std::slice::from_ref(
                                    delta_row.value(c),
                                ))?;
                                merged.push(acc.finish());
                            }
                        }
                    }
                    rows[i] = Row::new(merged);
                }
                None => {
                    index.insert(key_of(&delta_row, roles), rows.len());
                    rows.push(delta_row);
                }
            }
        }
        self.replace_matview_table(view, schema, rows)?;
        let registry = lardb_obs::global();
        registry.counter("mv.refresh.incremental").inc();
        registry.counter("mv.refresh_rows").add(n as u64);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn select(sql: &str) -> SelectStatement {
        match parse_statement(sql).unwrap() {
            Statement::Select(sel) => sel,
            other => panic!("expected SELECT, got {other:?}"),
        }
    }

    fn classify_no_views(sql: &str, base: &str) -> Strategy {
        classify(&select(sql), base, |_| false)
    }

    #[test]
    fn filter_project_joins_append() {
        assert_eq!(
            classify_no_views("SELECT a, b + 1 AS c FROM t WHERE a > 0", "t"),
            Strategy::Append
        );
        assert_eq!(
            classify_no_views(
                "SELECT t.a, o.b FROM t, o WHERE t.k = o.k",
                "t"
            ),
            Strategy::Append
        );
        assert_eq!(classify_no_views("SELECT * FROM t", "t"), Strategy::Append);
    }

    #[test]
    fn mergeable_aggregates_merge() {
        let Strategy::Merge(roles) = classify_no_views(
            "SELECT g, SUM(v) AS s, COUNT(*) AS n, MIN(v) AS lo, MAX(v) AS hi \
             FROM t GROUP BY g",
            "t",
        ) else {
            panic!("expected Merge");
        };
        assert_eq!(
            roles,
            vec![
                None,
                Some(AggFunc::Sum),
                Some(AggFunc::Count),
                Some(AggFunc::Min),
                Some(AggFunc::Max)
            ]
        );
        // Global (no GROUP BY) aggregates merge too.
        assert!(matches!(
            classify_no_views("SELECT SUM(v) AS s FROM t", "t"),
            Strategy::Merge(_)
        ));
    }

    #[test]
    fn non_incrementalizable_shapes_recompute() {
        for sql in [
            "SELECT DISTINCT a FROM t",                       // DISTINCT
            "SELECT a FROM t ORDER BY a",                     // ORDER BY
            "SELECT a FROM t LIMIT 3",                        // LIMIT
            "SELECT g, SUM(v) AS s FROM t GROUP BY g HAVING SUM(v) > 0", // HAVING
            "SELECT x.a FROM t AS x, t AS y WHERE x.a = y.a", // self-join
            "SELECT a FROM (SELECT a FROM t) AS s",           // subquery
            "SELECT g, AVG(v) AS m FROM t GROUP BY g",        // AVG
            "SELECT g, SUM(v) + 1 AS s FROM t GROUP BY g",    // wrapped agg
            "SELECT SUM(v) AS s FROM t GROUP BY g",           // key not output
            "SELECT a FROM other",                            // indirect lineage
        ] {
            assert_eq!(classify_no_views(sql, "t"), Strategy::Recompute, "{sql}");
        }
        // Lineage through a view forces recompute even when the name
        // matches nothing else.
        assert_eq!(
            classify(&select("SELECT a FROM v"), "t", |name| name == "v"),
            Strategy::Recompute
        );
    }
}
