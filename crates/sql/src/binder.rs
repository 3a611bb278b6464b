//! Name resolution, view expansion, aggregate analysis and logical-plan
//! construction.
//!
//! Binding is where the paper's compile-time guarantees live: every
//! expression is type-checked as the plan is built, so a dimension mismatch
//! in `matrix_vector_multiply` (§3.1) or a `b` parameter bound to two
//! different sizes (§4.2) is reported before anything executes.

use lardb_planner::{AggExpr, AggFunc, Builtin, Expr, LogicalPlan};
use lardb_storage::ops::ArithOp;
use lardb_storage::{Catalog, Schema, Value};

use crate::ast::{AstExpr, BinOp, SelectItem, SelectStatement, TableRef};
use crate::parser::parse_statement;
use crate::{Result, SqlError};
use lardb_planner::CmpOp;

/// Maximum view-expansion depth (cycle guard).
const MAX_VIEW_DEPTH: usize = 32;

/// Binds parsed statements against a catalog.
pub struct Binder<'a> {
    catalog: &'a Catalog,
}

impl<'a> Binder<'a> {
    /// Creates a binder.
    pub fn new(catalog: &'a Catalog) -> Self {
        Binder { catalog }
    }

    /// Binds a SELECT statement to a logical plan.
    pub fn bind_select(&self, sel: &SelectStatement) -> Result<LogicalPlan> {
        self.bind_select_depth(sel, 0)
    }

    fn bind_select_depth(&self, sel: &SelectStatement, depth: usize) -> Result<LogicalPlan> {
        if depth > MAX_VIEW_DEPTH {
            return Err(SqlError::Bind("view expansion too deep (cycle?)".into()));
        }
        if sel.from.is_empty() {
            return Err(SqlError::Bind("queries need a FROM clause".into()));
        }

        // Bind FROM items.
        let mut inputs = Vec::with_capacity(sel.from.len());
        for tref in &sel.from {
            inputs.push(self.bind_table_ref(tref, depth)?);
        }
        let mut global = Schema::default();
        for i in &inputs {
            global = global.concat(&i.schema());
        }

        // WHERE.
        let where_expr = match &sel.where_clause {
            Some(w) => Some(self.bind_expr(w, &global)?),
            None => None,
        };

        // Aggregate analysis (HAVING implies aggregation).
        let has_aggs = !sel.group_by.is_empty()
            || sel.having.is_some()
            || sel.items.iter().any(|i| match i {
                SelectItem::Expr { expr, .. } => contains_aggregate(expr),
                SelectItem::Wildcard => false,
            });

        let plan = if has_aggs {
            self.bind_aggregate_query(sel, inputs, where_expr, &global)?
        } else {
            self.bind_plain_query(sel, inputs, where_expr, &global)?
        };

        // DISTINCT: deduplicate by grouping on every output column.
        let plan = if sel.distinct {
            let schema = plan.schema();
            let keys: Vec<(Expr, String)> = schema
                .columns()
                .iter()
                .enumerate()
                .map(|(i, c)| (Expr::col(i), c.name.clone()))
                .collect();
            LogicalPlan::aggregate(plan, keys, vec![])?
        } else {
            plan
        };

        // ORDER BY / LIMIT over the projected output.
        let plan = if sel.order_by.is_empty() {
            plan
        } else {
            let out_schema = plan.schema();
            let mut keys = Vec::new();
            for (e, asc) in &sel.order_by {
                let bound = match e {
                    // Positional: ORDER BY 1.
                    AstExpr::Int(n) if *n >= 1 && (*n as usize) <= out_schema.arity() => {
                        Expr::col(*n as usize - 1)
                    }
                    other => self.bind_expr(other, &out_schema)?,
                };
                keys.push((bound, *asc));
            }
            LogicalPlan::Sort { input: Box::new(plan), keys }
        };
        let plan = match sel.limit {
            Some(n) => LogicalPlan::Limit { input: Box::new(plan), n },
            None => plan,
        };
        Ok(plan)
    }

    /// Combines FROM inputs and the WHERE clause into one relational input.
    fn combine_inputs(
        &self,
        inputs: Vec<LogicalPlan>,
        where_expr: Option<Expr>,
    ) -> LogicalPlan {
        if inputs.len() == 1 {
            let input = inputs.into_iter().next().expect("one input");
            match where_expr {
                Some(p) => LogicalPlan::Filter { input: Box::new(input), predicate: p },
                None => input,
            }
        } else {
            let mut predicates = Vec::new();
            if let Some(w) = where_expr {
                w.split_conjunction(&mut predicates);
            }
            LogicalPlan::MultiJoin { inputs, predicates }
        }
    }

    fn bind_plain_query(
        &self,
        sel: &SelectStatement,
        inputs: Vec<LogicalPlan>,
        where_expr: Option<Expr>,
        global: &Schema,
    ) -> Result<LogicalPlan> {
        let input = self.combine_inputs(inputs, where_expr);
        let mut exprs: Vec<(Expr, String)> = Vec::new();
        for (i, item) in sel.items.iter().enumerate() {
            match item {
                SelectItem::Wildcard => {
                    for (j, c) in global.columns().iter().enumerate() {
                        exprs.push((Expr::col(j), c.name.clone()));
                    }
                }
                SelectItem::Expr { expr, alias } => {
                    let bound = self.bind_expr(expr, global)?;
                    let name = output_name(expr, alias.as_deref(), global, &bound, i);
                    exprs.push((bound, name));
                }
            }
        }
        Ok(LogicalPlan::project(input, exprs)?)
    }

    fn bind_aggregate_query(
        &self,
        sel: &SelectStatement,
        inputs: Vec<LogicalPlan>,
        where_expr: Option<Expr>,
        global: &Schema,
    ) -> Result<LogicalPlan> {
        let input = self.combine_inputs(inputs, where_expr);

        // Bind GROUP BY expressions in the global space.
        let mut group_exprs: Vec<Expr> = Vec::new();
        for g in &sel.group_by {
            group_exprs.push(self.bind_expr(g, global)?);
        }

        // Collect aggregates and rewrite each select item over the
        // aggregate's output: [group cols..., agg results...].
        let mut aggs: Vec<AggExpr> = Vec::new();
        let mut post_items: Vec<(Expr, String)> = Vec::new();
        for (i, item) in sel.items.iter().enumerate() {
            let SelectItem::Expr { expr, alias } = item else {
                return Err(SqlError::Bind(
                    "SELECT * cannot be combined with aggregation".into(),
                ));
            };
            let post =
                self.rewrite_agg_item(expr, global, &group_exprs, &mut aggs)?;
            let name = match alias {
                Some(a) => a.clone(),
                None => default_agg_name(expr, i),
            };
            post_items.push((post, name));
        }

        let group_named: Vec<(Expr, String)> = group_exprs
            .iter()
            .enumerate()
            .map(|(i, e)| {
                // Preserve the source column's name where possible so
                // qualified references in ORDER BY still resolve.
                let name = match e {
                    Expr::Column(c) => global.column(*c).name.clone(),
                    _ => format!("__g{i}"),
                };
                (e.clone(), name)
            })
            .collect();

        // HAVING: a predicate over group keys and aggregates; it may
        // introduce aggregates not in the SELECT list (standard SQL), which
        // simply extend the aggregate node.
        let having_pred = match &sel.having {
            Some(h) => Some(self.rewrite_agg_item(h, global, &group_exprs, &mut aggs)?),
            None => None,
        };

        let mut agg_plan = LogicalPlan::aggregate(input, group_named, aggs)?;
        if let Some(pred) = having_pred {
            agg_plan = LogicalPlan::Filter { input: Box::new(agg_plan), predicate: pred };
        }
        Ok(LogicalPlan::project(agg_plan, post_items)?)
    }

    /// Rewrites a select item of an aggregate query into an expression over
    /// the aggregate output. Group expressions map to their key columns;
    /// aggregate calls are registered and map to their result columns;
    /// anything else must be built from those plus literals.
    fn rewrite_agg_item(
        &self,
        ast: &AstExpr,
        global: &Schema,
        group_exprs: &[Expr],
        aggs: &mut Vec<AggExpr>,
    ) -> Result<Expr> {
        // A select item that is exactly a group expression.
        if let Ok(bound) = self.bind_expr(ast, global) {
            if let Some(i) = group_exprs.iter().position(|g| *g == bound) {
                return Ok(Expr::col(i));
            }
        }
        match ast {
            AstExpr::Call { name, args, star } => {
                if let Some(func) = AggFunc::from_name(name) {
                    let arg = if *star {
                        if func != AggFunc::Count {
                            return Err(SqlError::Bind(format!(
                                "{}(*) is not valid; only COUNT(*)",
                                func.name()
                            )));
                        }
                        None
                    } else if func == AggFunc::MatrixFromEntries {
                        // SQL surface is MATRIX_FROM_ENTRIES(row, col, val);
                        // the three arguments are packed into one
                        // sparse_entry carrier so the aggregate machinery
                        // stays single-argument. The carrier is plan-level:
                        // the compiled pipeline reads its three operands as
                        // typed lanes and never builds it per row.
                        if args.len() != 3 {
                            return Err(SqlError::Bind(format!(
                                "{} takes exactly three arguments (row, col, val)",
                                func.name()
                            )));
                        }
                        if args.iter().any(contains_aggregate) {
                            return Err(SqlError::Bind(
                                "nested aggregate calls are not allowed".into(),
                            ));
                        }
                        let packed = args
                            .iter()
                            .map(|a| self.bind_expr(a, global))
                            .collect::<Result<Vec<_>>>()?;
                        Some(Expr::Call { func: Builtin::SparseEntry, args: packed })
                    } else {
                        if args.len() != 1 {
                            return Err(SqlError::Bind(format!(
                                "{} takes exactly one argument",
                                func.name()
                            )));
                        }
                        if contains_aggregate(&args[0]) {
                            return Err(SqlError::Bind(
                                "nested aggregate calls are not allowed".into(),
                            ));
                        }
                        Some(self.bind_expr(&args[0], global)?)
                    };
                    // Re-use an identical aggregate if already registered.
                    if let Some(k) =
                        aggs.iter().position(|a| a.func == func && a.arg == arg)
                    {
                        return Ok(Expr::col(group_exprs.len() + k));
                    }
                    let k = aggs.len();
                    aggs.push(AggExpr {
                        func,
                        arg,
                        name: format!("__agg{k}"),
                    });
                    return Ok(Expr::col(group_exprs.len() + k));
                }
                // Scalar function over rewritten children.
                let func = Builtin::from_name(name).ok_or_else(|| {
                    SqlError::Bind(format!("unknown function '{name}'"))
                })?;
                let args = args
                    .iter()
                    .map(|a| self.rewrite_agg_item(a, global, group_exprs, aggs))
                    .collect::<Result<Vec<_>>>()?;
                Ok(Expr::Call { func, args })
            }
            AstExpr::Int(v) => Ok(Expr::lit(*v)),
            AstExpr::Float(v) => Ok(Expr::lit(*v)),
            AstExpr::Str(s) => Ok(Expr::Literal(Value::varchar(s.as_str()))),
            AstExpr::Neg(e) => Ok(Expr::Negate(Box::new(
                self.rewrite_agg_item(e, global, group_exprs, aggs)?,
            ))),
            AstExpr::Not(e) => Ok(Expr::Not(Box::new(
                self.rewrite_agg_item(e, global, group_exprs, aggs)?,
            ))),
            AstExpr::Binary { op, lhs, rhs } => {
                let l = self.rewrite_agg_item(lhs, global, group_exprs, aggs)?;
                let r = self.rewrite_agg_item(rhs, global, group_exprs, aggs)?;
                Ok(combine_binary(*op, l, r))
            }
            AstExpr::Column { qualifier, name } => Err(SqlError::Bind(format!(
                "column {}{} must appear in GROUP BY or inside an aggregate",
                qualifier.as_deref().map(|q| format!("{q}.")).unwrap_or_default(),
                name
            ))),
        }
    }

    fn bind_table_ref(&self, tref: &TableRef, depth: usize) -> Result<LogicalPlan> {
        match tref {
            TableRef::Table { name, alias } => {
                let binding = alias.as_deref().unwrap_or(name);
                if let Some(view) = self.catalog.view(name) {
                    let stmt = parse_statement(&view.sql)?;
                    let crate::ast::Statement::Select(inner) = stmt else {
                        return Err(SqlError::Bind(format!(
                            "view {name} does not contain a SELECT"
                        )));
                    };
                    let plan = self.bind_select_depth(&inner, depth + 1)?;
                    return requalify(plan, binding, view.column_names.as_deref());
                }
                let schema = self.catalog.table_schema(name)?;
                Ok(LogicalPlan::Scan {
                    table: name.clone(),
                    schema: schema.with_qualifier(binding),
                })
            }
            TableRef::Subquery { query, alias } => {
                let plan = self.bind_select_depth(query, depth + 1)?;
                requalify(plan, alias, None)
            }
        }
    }

    /// Binds a scalar expression against a schema. Aggregate calls are
    /// rejected here — they are only legal in the SELECT list and HAVING,
    /// which the aggregate-query rewriting handles separately.
    pub fn bind_expr(&self, ast: &AstExpr, schema: &Schema) -> Result<Expr> {
        match ast {
            AstExpr::Column { qualifier, name } => {
                let idx = schema.resolve(qualifier.as_deref(), name)?;
                Ok(Expr::col(idx))
            }
            AstExpr::Int(v) => Ok(Expr::lit(*v)),
            AstExpr::Float(v) => Ok(Expr::lit(*v)),
            AstExpr::Str(s) => Ok(Expr::Literal(Value::varchar(s.as_str()))),
            AstExpr::Neg(e) => Ok(Expr::Negate(Box::new(self.bind_expr(e, schema)?))),
            AstExpr::Not(e) => Ok(Expr::Not(Box::new(self.bind_expr(e, schema)?))),
            AstExpr::Binary { op, lhs, rhs } => {
                let l = self.bind_expr(lhs, schema)?;
                let r = self.bind_expr(rhs, schema)?;
                Ok(combine_binary(*op, l, r))
            }
            AstExpr::Call { name, args, star } => {
                if AggFunc::from_name(name).is_some() {
                    return Err(SqlError::Bind(format!(
                        "aggregate {name} is not allowed in this context"
                    )));
                }
                if *star {
                    return Err(SqlError::Bind(format!("{name}(*) is not valid")));
                }
                let func = Builtin::from_name(name).ok_or_else(|| {
                    SqlError::Bind(format!("unknown function '{name}'"))
                })?;
                let args = args
                    .iter()
                    .map(|a| self.bind_expr(a, schema))
                    .collect::<Result<Vec<_>>>()?;
                Ok(Expr::Call { func, args })
            }
        }
    }
}

/// Maps an AST binary operator onto the expression IR.
fn combine_binary(op: BinOp, l: Expr, r: Expr) -> Expr {
    match op {
        BinOp::Add => Expr::arith(ArithOp::Add, l, r),
        BinOp::Sub => Expr::arith(ArithOp::Sub, l, r),
        BinOp::Mul => Expr::arith(ArithOp::Mul, l, r),
        BinOp::Div => Expr::arith(ArithOp::Div, l, r),
        BinOp::Eq => Expr::cmp(CmpOp::Eq, l, r),
        BinOp::NotEq => Expr::cmp(CmpOp::NotEq, l, r),
        BinOp::Lt => Expr::cmp(CmpOp::Lt, l, r),
        BinOp::LtEq => Expr::cmp(CmpOp::LtEq, l, r),
        BinOp::Gt => Expr::cmp(CmpOp::Gt, l, r),
        BinOp::GtEq => Expr::cmp(CmpOp::GtEq, l, r),
        BinOp::And => Expr::And(Box::new(l), Box::new(r)),
        BinOp::Or => Expr::Or(Box::new(l), Box::new(r)),
    }
}

/// True when the AST contains an aggregate call.
fn contains_aggregate(e: &AstExpr) -> bool {
    match e {
        AstExpr::Call { name, args, .. } => {
            AggFunc::from_name(name).is_some() || args.iter().any(contains_aggregate)
        }
        AstExpr::Binary { lhs, rhs, .. } => {
            contains_aggregate(lhs) || contains_aggregate(rhs)
        }
        AstExpr::Neg(e) | AstExpr::Not(e) => contains_aggregate(e),
        _ => false,
    }
}

/// Output column name for a select item.
fn output_name(
    ast: &AstExpr,
    alias: Option<&str>,
    schema: &Schema,
    bound: &Expr,
    index: usize,
) -> String {
    if let Some(a) = alias {
        return a.to_string();
    }
    match (ast, bound) {
        (_, Expr::Column(i)) => schema.column(*i).name.clone(),
        (AstExpr::Call { name, .. }, _) => name.to_ascii_lowercase(),
        _ => format!("col{index}"),
    }
}

/// Default name for an aggregate-query select item.
fn default_agg_name(ast: &AstExpr, index: usize) -> String {
    match ast {
        AstExpr::Call { name, .. } => name.to_ascii_lowercase(),
        AstExpr::Column { name, .. } => name.clone(),
        _ => format!("col{index}"),
    }
}

/// Wraps a plan so its columns carry the alias `binding` (and optionally
/// new names) — how views and subqueries expose their output.
fn requalify(
    plan: LogicalPlan,
    binding: &str,
    new_names: Option<&[String]>,
) -> Result<LogicalPlan> {
    let schema = plan.schema();
    if let Some(names) = new_names {
        if names.len() != schema.arity() {
            return Err(SqlError::Bind(format!(
                "view column list has {} names but query produces {} columns",
                names.len(),
                schema.arity()
            )));
        }
    }
    let exprs: Vec<(Expr, String)> = schema
        .columns()
        .iter()
        .enumerate()
        .map(|(i, c)| {
            let name = match new_names {
                Some(names) => names[i].clone(),
                None => c.name.clone(),
            };
            (Expr::col(i), name)
        })
        .collect();
    let projected = LogicalPlan::project(plan, exprs)?;
    // Re-qualify every output column with the binding name.
    match projected {
        LogicalPlan::Project { input, exprs, schema } => Ok(LogicalPlan::Project {
            input,
            exprs,
            schema: strip_and_qualify(schema, binding),
        }),
        other => Ok(other),
    }
}

fn strip_and_qualify(schema: Schema, binding: &str) -> Schema {
    Schema::new(
        schema
            .columns()
            .iter()
            .map(|c| lardb_storage::Column::qualified(binding, c.name.clone(), c.dtype))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use lardb_storage::{DataType, Partitioning, Table};

    fn catalog() -> Catalog {
        let c = Catalog::new();
        c.create_table(Table::new(
            "data",
            Schema::from_pairs(&[
                ("pointID", DataType::Integer),
                ("val", DataType::Vector(Some(10))),
            ]),
            2,
            Partitioning::RoundRobin,
        ))
        .unwrap();
        c.create_table(Table::new(
            "matrixA",
            Schema::from_pairs(&[("val", DataType::Matrix(Some(10), Some(10)))]),
            2,
            Partitioning::RoundRobin,
        ))
        .unwrap();
        c.create_table(Table::new(
            "m",
            Schema::from_pairs(&[
                ("mat", DataType::Matrix(Some(10), Some(10))),
                ("vec", DataType::Vector(Some(100))),
            ]),
            2,
            Partitioning::RoundRobin,
        ))
        .unwrap();
        c
    }

    fn bind(c: &Catalog, sql: &str) -> Result<LogicalPlan> {
        let stmt = parse_statement(sql)?;
        let crate::ast::Statement::Select(sel) = stmt else { panic!("not a select") };
        Binder::new(c).bind_select(&sel)
    }

    #[test]
    fn bind_simple_projection() {
        let c = catalog();
        let plan = bind(&c, "SELECT pointID FROM data").unwrap();
        assert_eq!(plan.schema().arity(), 1);
        assert_eq!(plan.schema().column(0).dtype, DataType::Integer);
    }

    #[test]
    fn bind_wildcard() {
        let c = catalog();
        let plan = bind(&c, "SELECT * FROM data").unwrap();
        assert_eq!(plan.schema().arity(), 2);
    }

    #[test]
    fn paper_size_mismatch_is_compile_error() {
        // §3.1: matrix_vector_multiply(m.mat, m.vec) with MATRIX[10][10]
        // and VECTOR[100] "will not compile".
        let c = catalog();
        let err = bind(&c, "SELECT matrix_vector_multiply(m.mat, m.vec) AS res FROM m");
        assert!(matches!(err, Err(SqlError::Plan(_))), "{err:?}");
    }

    #[test]
    fn paper_riemannian_query_binds() {
        // §2.3's extended-SQL distance query.
        let c = catalog();
        let plan = bind(
            &c,
            "SELECT x2.pointID,
                    inner_product(
                        matrix_vector_multiply(a.val, x1.val - x2.val),
                        x1.val - x2.val) AS value
             FROM data AS x1, data AS x2, matrixA AS a
             WHERE x1.pointID = 1",
        )
        .unwrap();
        let schema = plan.schema();
        assert_eq!(schema.arity(), 2);
        assert_eq!(schema.column(1).dtype, DataType::Double);
    }

    #[test]
    fn bind_gram_aggregate() {
        let c = catalog();
        let plan = bind(
            &c,
            "SELECT SUM(outer_product(x.val, x.val)) AS g FROM data AS x",
        )
        .unwrap();
        assert_eq!(plan.schema().column(0).dtype, DataType::Matrix(Some(10), Some(10)));
    }

    #[test]
    fn group_by_with_key_in_select() {
        let c = catalog();
        let plan = bind(
            &c,
            "SELECT pointID, COUNT(*) AS n, MIN(inner_product(val, val)) AS d
             FROM data GROUP BY pointID",
        )
        .unwrap();
        let s = plan.schema();
        assert_eq!(s.arity(), 3);
        assert_eq!(s.column(0).dtype, DataType::Integer);
        assert_eq!(s.column(1).dtype, DataType::Integer);
        assert_eq!(s.column(2).dtype, DataType::Double);
    }

    #[test]
    fn non_grouped_column_rejected() {
        let c = catalog();
        let err = bind(&c, "SELECT pointID, COUNT(*) AS n FROM data");
        assert!(matches!(err, Err(SqlError::Bind(_))), "{err:?}");
    }

    #[test]
    fn aggregate_in_where_rejected() {
        let c = catalog();
        let err = bind(&c, "SELECT pointID FROM data WHERE SUM(pointID) > 1");
        assert!(matches!(err, Err(SqlError::Bind(_))));
    }

    #[test]
    fn unknown_names_rejected() {
        let c = catalog();
        assert!(bind(&c, "SELECT nope FROM data").is_err());
        assert!(bind(&c, "SELECT pointID FROM nope").is_err());
        assert!(bind(&c, "SELECT shazam(pointID) FROM data").is_err());
    }

    #[test]
    fn ambiguous_self_join_column_rejected() {
        let c = catalog();
        let err = bind(&c, "SELECT val FROM data AS x1, data AS x2");
        assert!(matches!(err, Err(SqlError::Storage(_))), "{err:?}");
        // Qualified succeeds.
        assert!(bind(&c, "SELECT x1.val FROM data AS x1, data AS x2").is_ok());
    }

    #[test]
    fn view_expansion() {
        let c = catalog();
        c.create_view("ids", "SELECT pointID FROM data", None).unwrap();
        let plan = bind(&c, "SELECT i.pointID FROM ids AS i").unwrap();
        assert_eq!(plan.schema().arity(), 1);
        // With renamed columns.
        c.create_view("renamed", "SELECT pointID FROM data", Some(vec!["pid".into()]))
            .unwrap();
        let plan = bind(&c, "SELECT renamed.pid FROM renamed").unwrap();
        assert_eq!(plan.schema().column(0).name, "pid");
    }

    #[test]
    fn subquery_in_from() {
        let c = catalog();
        let plan = bind(
            &c,
            "SELECT q.d FROM (SELECT inner_product(val, val) AS d FROM data) AS q",
        )
        .unwrap();
        assert_eq!(plan.schema().column(0).dtype, DataType::Double);
    }

    #[test]
    fn order_by_and_limit() {
        let c = catalog();
        let plan = bind(&c, "SELECT pointID FROM data ORDER BY pointID DESC LIMIT 2")
            .unwrap();
        assert!(matches!(plan, LogicalPlan::Limit { .. }));
    }

    #[test]
    fn duplicate_aggregates_share_computation() {
        let c = catalog();
        let plan = bind(
            &c,
            "SELECT SUM(pointID) + SUM(pointID) AS twice FROM data",
        )
        .unwrap();
        // Only one aggregate should be registered under the project.
        fn count_aggs(p: &LogicalPlan) -> usize {
            match p {
                LogicalPlan::Aggregate { aggs, .. } => aggs.len(),
                _ => p.children().iter().map(|c| count_aggs(c)).sum(),
            }
        }
        assert_eq!(count_aggs(&plan), 1);
    }

    #[test]
    fn vectorize_chain_binds() {
        // §3.3's vector-building query.
        let c = catalog();
        c.create_table(Table::new(
            "y",
            Schema::from_pairs(&[("i", DataType::Integer), ("y_i", DataType::Double)]),
            2,
            Partitioning::RoundRobin,
        ))
        .unwrap();
        let plan =
            bind(&c, "SELECT VECTORIZE(label_scalar(y_i, i)) AS v FROM y").unwrap();
        assert_eq!(plan.schema().column(0).dtype, DataType::Vector(None));
    }
}
