//! The catalog: tables, views and statistics.
//!
//! §4.2: "The optimizer obtains the dimensions of the u_matrix and v_matrix
//! objects by looking in the catalog." Our catalog stores, per table, the
//! declared schema (with any known LA dimensions) and basic statistics
//! (row count, total bytes) that feed the cost model.

use std::collections::HashMap;
use std::sync::{Arc, RwLockReadGuard, RwLockWriteGuard};

use crate::schema::Schema;
use crate::table::Table;
use crate::{Result, StorageError};

/// The catalog's reader-writer lock: `std`'s, with guards returned
/// directly. A lock poisoned by a writer that panicked is recovered, not
/// propagated — every catalog update leaves its map or table valid at
/// each step, and one failed statement must not take the database down.
#[derive(Debug, Default)]
pub struct RwLock<T>(std::sync::RwLock<T>);

impl<T> RwLock<T> {
    /// Creates a new lock.
    pub fn new(value: T) -> Self {
        RwLock(std::sync::RwLock::new(value))
    }

    /// Acquires a shared read guard, blocking until available.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        self.0.read().unwrap_or_else(|e| e.into_inner())
    }

    /// Acquires an exclusive write guard, blocking until available.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        self.0.write().unwrap_or_else(|e| e.into_inner())
    }
}

/// Statistics the optimizer reads for costing (§4.1 works entirely off
/// cardinalities and per-row widths).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TableStats {
    /// Row count.
    pub num_rows: usize,
    /// Total payload bytes.
    pub total_bytes: usize,
}

impl TableStats {
    /// Average row width in bytes (0 when empty).
    pub fn avg_row_bytes(&self) -> usize {
        self.total_bytes.checked_div(self.num_rows).unwrap_or(0)
    }
}

/// A named view: its SQL text, re-expanded at reference time (the paper's
/// examples lean on `CREATE VIEW` heavily).
#[derive(Debug, Clone)]
pub struct ViewDef {
    /// The view body (a SELECT statement).
    pub sql: String,
    /// Column names to impose on the SELECT output, when the view was
    /// declared with an explicit column list.
    pub column_names: Option<Vec<String>>,
}

/// A materialized view: its defining SQL plus the lineage to the base
/// tables it reads, so INSERTs into those tables can trigger maintenance.
/// The materialized rows live in an ordinary catalog table of the same
/// name; this definition only records how to (re)build them.
#[derive(Debug, Clone)]
pub struct MatViewDef {
    /// The view body (a SELECT statement), re-planned on refresh.
    pub sql: String,
    /// Lowercased names of the base tables the bound plan scans (views
    /// already expanded), i.e. the tables whose INSERTs must maintain
    /// this view.
    pub base_tables: Vec<String>,
}

/// Registry of tables and views. Shared across the engine behind `Arc`;
/// table payloads use an `RwLock` so the executor can scan while DDL is
/// locked out.
#[derive(Debug, Default)]
pub struct Catalog {
    tables: RwLock<HashMap<String, Arc<RwLock<Table>>>>,
    views: RwLock<HashMap<String, ViewDef>>,
    matviews: RwLock<HashMap<String, MatViewDef>>,
}

impl Catalog {
    /// Empty catalog.
    pub fn new() -> Self {
        Catalog::default()
    }

    /// Registers a table; fails if any table *or view* already uses the
    /// name (views and tables share a namespace, as in SQL).
    pub fn create_table(&self, table: Table) -> Result<()> {
        let key = table.name().to_ascii_lowercase();
        if self.views.read().contains_key(&key) {
            return Err(StorageError::DuplicateTable(table.name().to_string()));
        }
        let mut tables = self.tables.write();
        if tables.contains_key(&key) {
            return Err(StorageError::DuplicateTable(table.name().to_string()));
        }
        tables.insert(key, Arc::new(RwLock::new(table)));
        Ok(())
    }

    /// Looks up a table.
    pub fn table(&self, name: &str) -> Result<Arc<RwLock<Table>>> {
        self.tables
            .read()
            .get(&name.to_ascii_lowercase())
            .cloned()
            .ok_or_else(|| StorageError::NoSuchTable(name.to_string()))
    }

    /// True when a table with this name exists.
    pub fn has_table(&self, name: &str) -> bool {
        self.tables.read().contains_key(&name.to_ascii_lowercase())
    }

    /// Drops a table (idempotent failure: error when missing).
    pub fn drop_table(&self, name: &str) -> Result<()> {
        self.tables
            .write()
            .remove(&name.to_ascii_lowercase())
            .map(|_| ())
            .ok_or_else(|| StorageError::NoSuchTable(name.to_string()))
    }

    /// Registers a view.
    pub fn create_view(
        &self,
        name: &str,
        sql: impl Into<String>,
        column_names: Option<Vec<String>>,
    ) -> Result<()> {
        let key = name.to_ascii_lowercase();
        if self.tables.read().contains_key(&key) {
            return Err(StorageError::DuplicateTable(name.to_string()));
        }
        let mut views = self.views.write();
        if views.contains_key(&key) {
            return Err(StorageError::DuplicateTable(name.to_string()));
        }
        views.insert(key, ViewDef { sql: sql.into(), column_names });
        Ok(())
    }

    /// Looks up a view definition.
    pub fn view(&self, name: &str) -> Option<ViewDef> {
        self.views.read().get(&name.to_ascii_lowercase()).cloned()
    }

    /// True when a view with this name exists.
    pub fn has_view(&self, name: &str) -> bool {
        self.views.read().contains_key(&name.to_ascii_lowercase())
    }

    /// Drops a view.
    pub fn drop_view(&self, name: &str) -> Result<()> {
        self.views
            .write()
            .remove(&name.to_ascii_lowercase())
            .map(|_| ())
            .ok_or_else(|| StorageError::NoSuchTable(name.to_string()))
    }

    /// Registers a materialized-view definition. The backing table (same
    /// name) is created separately via [`Catalog::create_table`], which
    /// enforces name uniqueness; this only stores how to maintain it.
    pub fn create_matview(&self, name: &str, def: MatViewDef) -> Result<()> {
        let key = name.to_ascii_lowercase();
        let mut mats = self.matviews.write();
        if mats.contains_key(&key) {
            return Err(StorageError::DuplicateTable(name.to_string()));
        }
        mats.insert(key, def);
        Ok(())
    }

    /// Looks up a materialized-view definition.
    pub fn matview(&self, name: &str) -> Option<MatViewDef> {
        self.matviews.read().get(&name.to_ascii_lowercase()).cloned()
    }

    /// True when a materialized view with this name exists.
    pub fn has_matview(&self, name: &str) -> bool {
        self.matviews.read().contains_key(&name.to_ascii_lowercase())
    }

    /// Drops a materialized-view definition (the backing table is dropped
    /// separately).
    pub fn drop_matview(&self, name: &str) -> Result<()> {
        self.matviews
            .write()
            .remove(&name.to_ascii_lowercase())
            .map(|_| ())
            .ok_or_else(|| StorageError::NoSuchTable(name.to_string()))
    }

    /// Names of the materialized views whose lineage includes `base`
    /// (sorted, so maintenance order is deterministic).
    pub fn matviews_on(&self, base: &str) -> Vec<String> {
        let key = base.to_ascii_lowercase();
        let mut names: Vec<String> = self
            .matviews
            .read()
            .iter()
            .filter(|(_, def)| def.base_tables.contains(&key))
            .map(|(name, _)| name.clone())
            .collect();
        names.sort();
        names
    }

    /// Schema of a table (views are resolved at bind time, not here).
    pub fn table_schema(&self, name: &str) -> Result<Schema> {
        Ok(self.table(name)?.read().schema().clone())
    }

    /// Current statistics of a table, computed from the stored rows.
    pub fn table_stats(&self, name: &str) -> Result<TableStats> {
        let t = self.table(name)?;
        let t = t.read();
        Ok(TableStats { num_rows: t.num_rows(), total_bytes: t.byte_size() })
    }

    /// Names of all tables, sorted (deterministic for EXPLAIN and tests).
    pub fn table_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.tables.read().keys().cloned().collect();
        names.sort();
        names
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::Partitioning;
    use crate::types::DataType;
    use crate::{Row, Value};

    #[test]
    fn poison_recovered() {
        let l = Arc::new(RwLock::new(0));
        let l2 = l.clone();
        let _ = std::thread::spawn(move || {
            let _g = l2.write();
            panic!("poison it");
        })
        .join();
        assert_eq!(*l.read(), 0); // no panic on re-acquire
        *l.write() += 1;
        assert_eq!(*l.read(), 1);
    }

    fn t(name: &str) -> Table {
        Table::new(
            name,
            Schema::from_pairs(&[("id", DataType::Integer)]),
            2,
            Partitioning::RoundRobin,
        )
    }

    #[test]
    fn create_lookup_drop() {
        let c = Catalog::new();
        c.create_table(t("Foo")).unwrap();
        assert!(c.has_table("foo"));
        assert!(c.has_table("FOO")); // case-insensitive
        assert!(c.table("foo").is_ok());
        c.drop_table("Foo").unwrap();
        assert!(!c.has_table("foo"));
        assert!(matches!(c.table("foo"), Err(StorageError::NoSuchTable(_))));
    }

    #[test]
    fn duplicate_rejected_across_tables_and_views() {
        let c = Catalog::new();
        c.create_table(t("x")).unwrap();
        assert!(matches!(c.create_table(t("X")), Err(StorageError::DuplicateTable(_))));
        assert!(c.create_view("x", "SELECT 1", None).is_err());
        c.create_view("v", "SELECT 1", None).unwrap();
        assert!(c.create_table(t("v")).is_err());
        assert!(c.create_view("V", "SELECT 2", None).is_err());
    }

    #[test]
    fn stats_reflect_contents() {
        let c = Catalog::new();
        c.create_table(t("s")).unwrap();
        let handle = c.table("s").unwrap();
        handle.write().insert(Row::new(vec![Value::Integer(1)])).unwrap();
        handle.write().insert(Row::new(vec![Value::Integer(2)])).unwrap();
        let stats = c.table_stats("s").unwrap();
        assert_eq!(stats.num_rows, 2);
        assert_eq!(stats.total_bytes, 16);
        assert_eq!(stats.avg_row_bytes(), 8);
    }

    #[test]
    fn view_roundtrip() {
        let c = Catalog::new();
        c.create_view("vw", "SELECT id FROM s", Some(vec!["a".into()])).unwrap();
        let v = c.view("VW").unwrap();
        assert_eq!(v.sql, "SELECT id FROM s");
        assert_eq!(v.column_names.as_deref(), Some(&["a".to_string()][..]));
        c.drop_view("vw").unwrap();
        assert!(c.view("vw").is_none());
    }

    #[test]
    fn empty_stats() {
        assert_eq!(TableStats::default().avg_row_bytes(), 0);
    }

    #[test]
    fn matview_registry_roundtrip_and_lineage() {
        let c = Catalog::new();
        let def = MatViewDef {
            sql: "SELECT g, SUM(v) AS s FROM base GROUP BY g".into(),
            base_tables: vec!["base".into()],
        };
        c.create_matview("Totals", def.clone()).unwrap();
        assert!(c.has_matview("totals"));
        assert!(c.has_matview("TOTALS")); // case-insensitive
        assert_eq!(c.matview("totals").unwrap().sql, def.sql);
        assert!(c.create_matview("totals", def).is_err()); // duplicate
        // Lineage query: views on `base` include it; others don't.
        c.create_matview(
            "other",
            MatViewDef { sql: "SELECT a FROM t2".into(), base_tables: vec!["t2".into()] },
        )
        .unwrap();
        assert_eq!(c.matviews_on("BASE"), vec!["totals".to_string()]);
        assert_eq!(c.matviews_on("t2"), vec!["other".to_string()]);
        assert!(c.matviews_on("nope").is_empty());
        c.drop_matview("totals").unwrap();
        assert!(!c.has_matview("totals"));
        assert!(c.drop_matview("totals").is_err());
    }
}
