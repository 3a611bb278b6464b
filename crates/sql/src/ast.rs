//! Abstract syntax for the extended SQL dialect.

use lardb_storage::DataType;

/// A binary operator at the AST level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `=`
    Eq,
    /// `<>`
    NotEq,
    /// `<`
    Lt,
    /// `<=`
    LtEq,
    /// `>`
    Gt,
    /// `>=`
    GtEq,
    /// `AND`
    And,
    /// `OR`
    Or,
}

/// An expression as parsed.
#[derive(Debug, Clone, PartialEq)]
pub enum AstExpr {
    /// `name` or `qualifier.name`.
    Column {
        /// Table alias, when written.
        qualifier: Option<String>,
        /// Column name.
        name: String,
    },
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// String literal.
    Str(String),
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<AstExpr>,
        /// Right operand.
        rhs: Box<AstExpr>,
    },
    /// Unary minus.
    Neg(Box<AstExpr>),
    /// `NOT`.
    Not(Box<AstExpr>),
    /// Function or aggregate call; `star` marks `COUNT(*)`.
    Call {
        /// Function name as written.
        name: String,
        /// Arguments.
        args: Vec<AstExpr>,
        /// True for `f(*)`.
        star: bool,
    },
}

/// One SELECT-list item.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// `*`
    Wildcard,
    /// `expr [AS alias]`
    Expr {
        /// The expression.
        expr: AstExpr,
        /// Optional alias.
        alias: Option<String>,
    },
}

/// One FROM-clause relation.
#[derive(Debug, Clone, PartialEq)]
pub enum TableRef {
    /// `name [AS alias]` — a table or a view.
    Table {
        /// Catalog name.
        name: String,
        /// Optional alias (defaults to the name).
        alias: Option<String>,
    },
    /// `(SELECT …) AS alias`.
    Subquery {
        /// The nested query.
        query: Box<SelectStatement>,
        /// Mandatory alias.
        alias: String,
    },
}

impl TableRef {
    /// The name this relation is referred to by.
    pub fn binding_name(&self) -> &str {
        match self {
            TableRef::Table { name, alias } => alias.as_deref().unwrap_or(name),
            TableRef::Subquery { alias, .. } => alias,
        }
    }
}

/// A SELECT statement.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectStatement {
    /// DISTINCT flag.
    pub distinct: bool,
    /// SELECT list.
    pub items: Vec<SelectItem>,
    /// FROM list (comma-joined, as in all the paper's examples).
    pub from: Vec<TableRef>,
    /// WHERE predicate.
    pub where_clause: Option<AstExpr>,
    /// GROUP BY expressions.
    pub group_by: Vec<AstExpr>,
    /// HAVING predicate (over group keys and aggregates).
    pub having: Option<AstExpr>,
    /// ORDER BY keys with ascending flags.
    pub order_by: Vec<(AstExpr, bool)>,
    /// LIMIT.
    pub limit: Option<usize>,
}

/// A top-level statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    /// `CREATE TABLE name (col TYPE, …)`.
    CreateTable {
        /// Table name.
        name: String,
        /// Column declarations.
        columns: Vec<(String, DataType)>,
    },
    /// `CREATE TABLE name AS SELECT …` (used by multi-stage workloads).
    CreateTableAs {
        /// Table name.
        name: String,
        /// Source query.
        query: SelectStatement,
    },
    /// `CREATE VIEW name [(cols)] AS SELECT …`.
    CreateView {
        /// View name.
        name: String,
        /// Optional column renames.
        columns: Option<Vec<String>>,
        /// The view body.
        query: SelectStatement,
        /// Original SQL of the body (stored in the catalog).
        sql: String,
    },
    /// `CREATE MATERIALIZED VIEW name AS SELECT …` — the query result is
    /// stored as a table and maintained incrementally on base-table
    /// INSERTs (recompute fallback for non-incrementalizable plans).
    CreateMaterializedView {
        /// View name (also the backing table's name).
        name: String,
        /// The view body.
        query: SelectStatement,
        /// Original SQL of the body (stored in the catalog; refreshes
        /// re-plan from it).
        sql: String,
    },
    /// `DROP MATERIALIZED VIEW name`.
    DropMaterializedView {
        /// View name.
        name: String,
    },
    /// `REFRESH MATERIALIZED VIEW name` — forces a full recompute from
    /// the stored definition (the baseline incremental maintenance is
    /// checked against).
    RefreshMaterializedView {
        /// View name.
        name: String,
    },
    /// `DROP TABLE name`.
    DropTable {
        /// Table name.
        name: String,
    },
    /// `DROP VIEW name`.
    DropView {
        /// View name.
        name: String,
    },
    /// `INSERT INTO name VALUES (…), (…)`.
    Insert {
        /// Target table.
        table: String,
        /// Literal rows.
        rows: Vec<Vec<AstExpr>>,
    },
    /// A query.
    Select(SelectStatement),
    /// `EXPLAIN [ANALYZE|TRACE] SELECT …`. With `analyze` the query is
    /// also executed and per-operator runtime statistics are reported;
    /// with `trace` it is executed under a forced flight-recorder trace
    /// and the Chrome trace-event JSON is returned.
    Explain {
        /// The query to explain.
        query: SelectStatement,
        /// Whether to execute the plan and report observed statistics.
        analyze: bool,
        /// Whether to execute the plan and return its Chrome trace JSON.
        trace: bool,
    },
    /// `SHOW METRICS` — snapshot the metrics registry, the process's by
    /// design (totals over every database), as `(name, kind, value)`.
    ShowMetrics,
    /// `SHOW SESSIONS` — snapshot the open server sessions (and their
    /// running queries) as a relation.
    ShowSessions,
    /// `SHOW QUERIES` — snapshot the flight recorder's in-flight queries
    /// (query id, trace id, tenant, state, elapsed, queue wait, rows,
    /// reserved and spilled bytes) as a relation.
    ShowQueries,
    /// `KILL <query-id>` — flip the cancel token of a running query, as
    /// listed by `SHOW SESSIONS`.
    Kill {
        /// The target query id.
        query_id: u64,
    },
}
