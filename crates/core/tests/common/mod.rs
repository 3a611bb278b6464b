//! The equivalence harness every suite under `crates/core/tests` and
//! `tests/distributed_equivalence.rs` is written on (DESIGN.md
//! "Equivalence harness"): [`fixtures`] are the tables, [`corpus`] the one
//! list of statements over them, [`lattice`] the configurations a statement
//! runs under, and [`compare`] the one definition of "the same answer".
//!
//! Each test binary compiles its own copy and uses a part of it.
#![allow(dead_code)]

pub mod compare;
pub mod corpus;
pub mod fixtures;
pub mod lattice;
