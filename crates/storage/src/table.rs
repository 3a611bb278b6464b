//! Horizontally partitioned tables.

use crate::ops::hash_key;
use crate::row::Row;
use crate::schema::Schema;
use crate::value::Value;
use crate::{Result, StorageError};
use std::collections::hash_map::DefaultHasher;
use std::hash::Hasher;

/// How a table's rows are placed across the simulated cluster's workers.
///
/// Placement matters the same way it does in the paper's §2.1 discussion: a
/// join can avoid a shuffle when its input is already partitioned on the
/// join key, and the optimizer exploits that.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Partitioning {
    /// Rows dealt to workers in arrival order.
    RoundRobin,
    /// Rows placed by hash of the column at this position.
    Hash(usize),
    /// Every worker holds the full table (small dimension tables).
    Replicated,
}

/// A heap table, split into one row vector per worker.
#[derive(Debug, Clone)]
pub struct Table {
    name: String,
    schema: Schema,
    partitioning: Partitioning,
    partitions: Vec<Vec<Row>>,
}

impl Table {
    /// Creates an empty table with `num_partitions` empty partitions.
    pub fn new(
        name: impl Into<String>,
        schema: Schema,
        num_partitions: usize,
        partitioning: Partitioning,
    ) -> Self {
        assert!(num_partitions > 0, "a table needs at least one partition");
        Table {
            name: name.into(),
            schema,
            partitioning,
            partitions: vec![Vec::new(); num_partitions],
        }
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Table schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The partitioning scheme rows were placed with.
    pub fn partitioning(&self) -> &Partitioning {
        &self.partitioning
    }

    /// Number of partitions (== workers of the simulated cluster).
    pub fn num_partitions(&self) -> usize {
        self.partitions.len()
    }

    /// Rows of one partition.
    pub fn partition(&self, i: usize) -> &[Row] {
        &self.partitions[i]
    }

    /// Total row count across partitions.
    pub fn num_rows(&self) -> usize {
        match self.partitioning {
            Partitioning::Replicated => self.partitions.first().map_or(0, Vec::len),
            _ => self.partitions.iter().map(Vec::len).sum(),
        }
    }

    /// Total payload bytes (replicated tables count one copy).
    pub fn byte_size(&self) -> usize {
        match self.partitioning {
            Partitioning::Replicated => {
                self.partitions.first().map_or(0, |p| p.iter().map(Row::byte_size).sum())
            }
            _ => self
                .partitions
                .iter()
                .flat_map(|p| p.iter())
                .map(Row::byte_size)
                .sum(),
        }
    }

    /// Validates a row against the schema (arity + per-column type, with
    /// unknown LA dims accepting any size, per §3.1).
    pub fn validate_row(&self, row: &Row) -> Result<()> {
        if row.arity() != self.schema.arity() {
            return Err(StorageError::ArityMismatch {
                expected: self.schema.arity(),
                got: row.arity(),
            });
        }
        for (i, v) in row.values().iter().enumerate() {
            if v.is_null() {
                continue;
            }
            let declared = self.schema.column(i).dtype;
            if !declared.accepts(&v.data_type()) {
                return Err(StorageError::TypeMismatch {
                    context: format!(
                        "column {} declared {} got {} in table {}",
                        self.schema.column(i).full_name(),
                        declared,
                        v.data_type(),
                        self.name
                    ),
                });
            }
        }
        Ok(())
    }

    /// Coerces values to declared column types where SQL allows it
    /// (INTEGER → DOUBLE).
    fn coerce_row(&self, row: Row) -> Row {
        let needs_coercion = row.values().iter().enumerate().any(|(i, v)| {
            matches!(v, Value::Integer(_))
                && i < self.schema.arity()
                && self.schema.column(i).dtype == crate::types::DataType::Double
        });
        if !needs_coercion {
            return row;
        }
        let values = row
            .into_values()
            .into_iter()
            .enumerate()
            .map(|(i, v)| match (&v, self.schema.column(i).dtype) {
                (Value::Integer(x), crate::types::DataType::Double) => {
                    Value::Double(*x as f64)
                }
                _ => v,
            })
            .collect();
        Row::new(values)
    }

    /// Inserts one row according to the table's partitioning. Integer
    /// values destined for DOUBLE columns are coerced, as in standard SQL.
    pub fn insert(&mut self, row: Row) -> Result<()> {
        let row = self.coerce_row(row);
        self.validate_row(&row)?;
        match &self.partitioning {
            Partitioning::RoundRobin => {
                // Deal to the currently shortest partition: equivalent to
                // round-robin under bulk load, and robust to interleaving.
                let idx = self
                    .partitions
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, p)| p.len())
                    .map(|(i, _)| i)
                    .expect("at least one partition");
                self.partitions[idx].push(row);
            }
            Partitioning::Hash(col) => {
                let idx = hash_partition(row.value(*col), self.partitions.len());
                self.partitions[idx].push(row);
            }
            Partitioning::Replicated => {
                for p in &mut self.partitions {
                    p.push(row.clone());
                }
            }
        }
        Ok(())
    }

    /// Bulk insert.
    pub fn insert_all(&mut self, rows: impl IntoIterator<Item = Row>) -> Result<()> {
        for r in rows {
            self.insert(r)?;
        }
        Ok(())
    }

    /// Iterates all rows (one replica for replicated tables).
    pub fn iter_rows(&self) -> impl Iterator<Item = &Row> {
        let upto = match self.partitioning {
            Partitioning::Replicated => 1,
            _ => self.partitions.len(),
        };
        self.partitions[..upto].iter().flat_map(|p| p.iter())
    }
}

/// Stable partition assignment by key hash.
pub fn hash_partition(v: &Value, num_partitions: usize) -> usize {
    let mut h = DefaultHasher::new();
    hash_key(v, &mut h);
    (h.finish() % num_partitions as u64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::DataType;
    use lardb_la::Vector;

    fn schema() -> Schema {
        Schema::from_pairs(&[("id", DataType::Integer), ("v", DataType::Vector(None))])
    }

    fn row(id: i64, len: usize) -> Row {
        Row::new(vec![Value::Integer(id), Value::vector(Vector::zeros(len))])
    }

    #[test]
    fn round_robin_balances() {
        let mut t = Table::new("t", schema(), 4, Partitioning::RoundRobin);
        t.insert_all((0..8).map(|i| row(i, 3))).unwrap();
        for p in 0..4 {
            assert_eq!(t.partition(p).len(), 2);
        }
        assert_eq!(t.num_rows(), 8);
    }

    #[test]
    fn hash_partitioning_is_deterministic_and_colocates() {
        let mut t = Table::new("t", schema(), 4, Partitioning::Hash(0));
        t.insert(row(42, 3)).unwrap();
        t.insert(row(42, 5)).unwrap();
        let p = hash_partition(&Value::Integer(42), 4);
        assert_eq!(t.partition(p).len(), 2);
    }

    #[test]
    fn replicated_copies_everywhere() {
        let mut t = Table::new("t", schema(), 3, Partitioning::Replicated);
        t.insert(row(1, 2)).unwrap();
        for p in 0..3 {
            assert_eq!(t.partition(p).len(), 1);
        }
        // logical row count is 1
        assert_eq!(t.num_rows(), 1);
        assert_eq!(t.iter_rows().count(), 1);
    }

    #[test]
    fn unknown_vector_dim_accepts_any_length() {
        let mut t = Table::new("t", schema(), 1, Partitioning::RoundRobin);
        t.insert(row(1, 3)).unwrap();
        t.insert(row(2, 99)).unwrap(); // VECTOR[] admits both
        assert_eq!(t.num_rows(), 2);
    }

    #[test]
    fn sized_vector_dim_rejects_wrong_length() {
        let s = Schema::from_pairs(&[("v", DataType::Vector(Some(10)))]);
        let mut t = Table::new("t", s, 1, Partitioning::RoundRobin);
        assert!(t.insert(Row::new(vec![Value::vector(Vector::zeros(10))])).is_ok());
        let err = t.insert(Row::new(vec![Value::vector(Vector::zeros(11))]));
        assert!(matches!(err, Err(StorageError::TypeMismatch { .. })));
    }

    #[test]
    fn arity_mismatch_rejected() {
        let mut t = Table::new("t", schema(), 1, Partitioning::RoundRobin);
        let err = t.insert(Row::new(vec![Value::Integer(1)]));
        assert!(matches!(err, Err(StorageError::ArityMismatch { expected: 2, got: 1 })));
    }

    #[test]
    fn null_passes_validation() {
        let mut t = Table::new("t", schema(), 1, Partitioning::RoundRobin);
        t.insert(Row::new(vec![Value::Null, Value::Null])).unwrap();
        assert_eq!(t.num_rows(), 1);
    }
}
