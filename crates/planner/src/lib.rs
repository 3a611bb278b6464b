//! # lardb-planner — logical plans and the LA-aware cost-based optimizer
//!
//! This crate carries the paper's §4 contribution. It provides:
//!
//! * [`expr::Expr`] — the expression IR shared by planning and execution,
//!   with **dimension-inferring type checking**: every built-in linear
//!   algebra function carries a templated signature
//!   (`matrix_multiply(MATRIX[a][b], MATRIX[b][c]) -> MATRIX[a][c]`, §4.2)
//!   and the checker binds the parameters against catalog-declared sizes,
//!   rejecting mismatches at compile time and propagating exact output
//!   sizes to the optimizer.
//! * [`functions::Builtin`] / [`functions::AggFunc`] — the paper's built-in
//!   function suite (§3.1–§3.3) with both signature and runtime evaluation.
//! * [`logical::LogicalPlan`] — relational algebra with an n-ary
//!   [`logical::LogicalPlan::MultiJoin`] node the optimizer reorders.
//! * [`optimizer`] — predicate pushdown, DPsize join enumeration and the
//!   **early LA projection** rule that reproduces the paper's
//!   `(π(S × R)) ⋈ T` plan: a size-reducing function call is evaluated at
//!   the lowest join subtree covering its inputs, so 80 MB matrices never
//!   flow through the rest of the plan (§4.1) — followed by the
//!   type-directed LA rewrites (`XᵀX` as a Gram, `Aᵀv` without a
//!   transpose; `rewrite.rs`).
//! * [`physical::PhysicalPlan`] — the executable operator tree, with
//!   exchange placement driven by partitioning properties.

pub mod cost;
pub mod error;
pub mod expr;
pub mod functions;
pub mod logical;
pub mod optimizer;
pub mod physical;
mod rewrite;

pub use cost::PlanEstimate;
pub use error::{PlanError, Result};
pub use expr::{CmpOp, Expr};
pub use functions::{AggFunc, Builtin};
pub use logical::{AggExpr, JoinKind, LogicalPlan};
pub use optimizer::{Optimizer, OptimizerConfig};
pub use physical::{ExchangeKind, PhysicalPlan};
