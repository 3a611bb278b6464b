//! Normalized plan cache: repeat statements skip parse/bind/optimize.
//!
//! At production traffic most statements are repeats, so the front half
//! of the lifecycle (parse → bind → optimize) is pure overhead after the
//! first execution. The cache keys on the statement's **shape** — its
//! token stream with literals replaced by `?` and identifiers lowercased
//! — plus the *exact literal values*, a monotonic catalog version, and a
//! fingerprint of the plan-relevant configuration knobs. Keying on the
//! exact literal vector (Oracle-style cursor sharing, narrowed to exact
//! matches) makes reuse sound by construction: a cached optimized
//! [`LogicalPlan`] is only ever replayed for a statement whose literals
//! are identical, so constant folding, `LIMIT` counts and `ORDER BY`
//! ordinals baked into the plan are all still correct.
//!
//! Invalidation is **typed**, never a silent truncation. Schema and
//! config changes call [`PlanCache::bump`] with an
//! [`InvalidationReason`], which advances the global version (making
//! every older key unreachable); stale entries are then recycled by the
//! bounded LRU like any cold entry. Stats changes (INSERT / bulk load)
//! call [`PlanCache::bump_stats`] for just the written table: every
//! entry records, per base table its plan scans, the table's stats
//! version at insert time, and a lookup re-validates those versions — so
//! a write to one table never touches cached plans over others. Every
//! reason counts under `cache.invalidations.<reason>`.
//!
//! Soundness against concurrent DDL: callers capture the version **once,
//! before binding** ([`PlanCache::version`]), and [`PlanCache::insert`]
//! refuses to cache when the version has moved on — a plan is only ever
//! cached under the catalog version it was bound at, never under a
//! post-DDL version it has not seen.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use lardb_planner::LogicalPlan;
use lardb_sql::lexer::{tokenize, Token};

/// Default cache capacity in entries
/// ([`crate::DatabaseConfig::plan_cache_entries`]).
pub const DEFAULT_PLAN_CACHE_ENTRIES: usize = 256;

/// A literal value captured during normalization. Floats are stored as
/// raw bits so the key is `Eq + Hash` and `-0.0`/`NaN` variants never
/// alias each other.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Literal {
    /// Integer literal.
    Int(i64),
    /// Float literal, by bit pattern.
    Float(u64),
    /// String literal.
    Str(String),
}

/// Which statement wrapper preceded the SELECT body, so `EXPLAIN ANALYZE
/// SELECT …` shares a shape with the bare `SELECT …` without the hit
/// fast-path short-circuiting non-SELECT responses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StatementKind {
    /// A bare SELECT: eligible for the full skip-parse/bind/optimize path.
    Select,
    /// `EXPLAIN [ANALYZE|TRACE] SELECT …`: shares the SELECT's shape (for
    /// the cache-hit annotation and optimize reuse) but must still run
    /// the explain machinery.
    Explain,
}

/// A statement shape: the normalized token string plus the captured
/// literal vector, computed **without parsing**.
#[derive(Debug, Clone, PartialEq)]
pub struct NormalizedStatement {
    /// Token shape with literals parameterized as `?`.
    pub shape: String,
    /// The literal values, in token order.
    pub literals: Vec<Literal>,
    /// Bare SELECT or EXPLAIN-wrapped.
    pub kind: StatementKind,
}

/// Normalizes a statement into its cache shape. Returns `None` for
/// statements that are not SELECT-shaped (DDL, INSERT, SHOW, KILL, …) or
/// that fail to tokenize — those always take the full path.
pub fn normalize(sql: &str) -> Option<NormalizedStatement> {
    let tokens = tokenize(sql).ok()?;
    let mut shape = String::with_capacity(sql.len());
    let mut literals = Vec::new();
    let mut it = tokens.iter().map(|s| &s.token).peekable();
    // Strip an EXPLAIN [ANALYZE|TRACE] prefix so the wrapped SELECT
    // shares its shape with the bare statement.
    let mut kind = StatementKind::Select;
    if matches!(it.peek(), Some(Token::Ident(s)) if s.eq_ignore_ascii_case("EXPLAIN")) {
        it.next();
        kind = StatementKind::Explain;
        if matches!(it.peek(), Some(Token::Ident(s))
            if s.eq_ignore_ascii_case("ANALYZE") || s.eq_ignore_ascii_case("TRACE"))
        {
            it.next();
        }
    }
    match it.peek() {
        Some(Token::Ident(s)) if s.eq_ignore_ascii_case("SELECT") => {}
        _ => return None,
    }
    for token in it {
        match token {
            Token::Int(v) => {
                literals.push(Literal::Int(*v));
                shape.push_str("? ");
            }
            Token::Float(v) => {
                literals.push(Literal::Float(v.to_bits()));
                shape.push_str("? ");
            }
            Token::Str(s) => {
                literals.push(Literal::Str(s.clone()));
                shape.push_str("? ");
            }
            Token::Ident(s) => {
                shape.push_str(&s.to_ascii_lowercase());
                shape.push(' ');
            }
            Token::Semicolon => {} // optional trailing `;` is not shape
            other => {
                shape.push_str(symbol(other));
                shape.push(' ');
            }
        }
    }
    Some(NormalizedStatement { shape, literals, kind })
}

fn symbol(t: &Token) -> &'static str {
    match t {
        Token::LParen => "(",
        Token::RParen => ")",
        Token::LBracket => "[",
        Token::RBracket => "]",
        Token::Comma => ",",
        Token::Dot => ".",
        Token::Star => "*",
        Token::Plus => "+",
        Token::Minus => "-",
        Token::Slash => "/",
        Token::Eq => "=",
        Token::NotEq => "<>",
        Token::Lt => "<",
        Token::LtEq => "<=",
        Token::Gt => ">",
        Token::GtEq => ">=",
        // Literals, idents and `;` are handled by the caller.
        Token::Ident(_) | Token::Int(_) | Token::Float(_) | Token::Str(_)
        | Token::Semicolon => "",
    }
}

/// Why the cache version was bumped. Each reason has its own counter so
/// `SHOW METRICS` distinguishes schema changes from stats drift from
/// configuration changes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InvalidationReason {
    /// Schema change: CREATE/DROP of tables, views or materialized views.
    Ddl,
    /// Statistics change: INSERT / bulk load (cardinalities moved, so a
    /// cached join order may no longer be the optimizer's choice).
    Stats,
    /// Configuration change affecting planning (e.g. optimizer knobs).
    Config,
}

impl InvalidationReason {
    fn metric(self) -> &'static str {
        match self {
            InvalidationReason::Ddl => "cache.invalidations.ddl",
            InvalidationReason::Stats => "cache.invalidations.stats",
            InvalidationReason::Config => "cache.invalidations.config",
        }
    }
}

/// Full cache key: shape + exact literals + catalog version + config
/// fingerprint.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct CacheKey {
    shape: String,
    literals: Vec<Literal>,
    version: u64,
    fingerprint: u64,
}

struct Entry {
    plan: Arc<LogicalPlan>,
    /// Base tables the plan scans, with each table's stats version at
    /// insert time; a lookup re-validates these so a write to one table
    /// only invalidates the plans that actually read it.
    stats: Vec<(String, u64)>,
    last_used: u64,
}

/// Mutex-protected cache state: the entries plus the per-table stats
/// versions they are validated against. One lock for both, so a
/// `bump_stats` is never interleaved half-way through a lookup.
#[derive(Default)]
struct Inner {
    entries: HashMap<CacheKey, Entry>,
    stats_versions: HashMap<String, u64>,
}

/// Point-in-time counters for tests and introspection (per cache, unlike
/// the process-global metrics registry).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that returned a plan.
    pub hits: u64,
    /// Lookups that found nothing (including version/fingerprint misses).
    pub misses: u64,
    /// Entries evicted by the LRU bound.
    pub evictions: u64,
    /// Version bumps, all reasons.
    pub invalidations: u64,
    /// Inserts dropped because a DDL moved the catalog version between
    /// bind and insert (the plan was bound against a stale catalog).
    pub stale_inserts: u64,
    /// Current live entries (including unreachable stale versions not yet
    /// recycled).
    pub entries: usize,
}

/// A bounded LRU cache of optimized logical plans, shared by every clone
/// of a [`crate::Database`]. Thread-safe; lookups and inserts take one
/// short mutex hold.
pub struct PlanCache {
    capacity: usize,
    version: AtomicU64,
    tick: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    invalidations: AtomicU64,
    stale_inserts: AtomicU64,
    inner: Mutex<Inner>,
}

impl PlanCache {
    /// A cache bounded at `capacity` entries; 0 disables caching (every
    /// lookup misses, inserts are dropped).
    pub fn new(capacity: usize) -> Self {
        PlanCache {
            capacity,
            version: AtomicU64::new(0),
            tick: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
            stale_inserts: AtomicU64::new(0),
            inner: Mutex::new(Inner::default()),
        }
    }

    /// Whether caching is enabled at all.
    pub fn enabled(&self) -> bool {
        self.capacity > 0
    }

    /// The current catalog version. Callers capture this **once, before
    /// binding**, and pass the captured value to [`PlanCache::lookup`]
    /// and [`PlanCache::insert`] — that is what guarantees a plan is
    /// only ever cached under the version it was bound at.
    pub fn version(&self) -> u64 {
        self.version.load(Ordering::Acquire)
    }

    /// Typed invalidation for schema/config changes: advances the global
    /// version (making every older key unreachable) and counts the
    /// reason. Stats changes use [`PlanCache::bump_stats`] instead.
    pub fn bump(&self, reason: InvalidationReason) {
        self.version.fetch_add(1, Ordering::AcqRel);
        self.invalidations.fetch_add(1, Ordering::Relaxed);
        let registry = lardb_obs::global();
        registry.counter(reason.metric()).inc();
        registry.counter("cache.invalidations").inc();
    }

    /// Typed invalidation for a statistics change (INSERT / bulk load /
    /// matview refresh) scoped to one table: only cached plans whose
    /// scan set includes `table` become stale; plans over other tables
    /// keep hitting.
    pub fn bump_stats(&self, table: &str) {
        let key = table.to_ascii_lowercase();
        {
            let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
            *inner.stats_versions.entry(key).or_insert(0) += 1;
        }
        self.invalidations.fetch_add(1, Ordering::Relaxed);
        let registry = lardb_obs::global();
        registry.counter(InvalidationReason::Stats.metric()).inc();
        registry.counter("cache.invalidations").inc();
    }

    fn key(&self, norm: &NormalizedStatement, fingerprint: u64, version: u64) -> CacheKey {
        CacheKey {
            shape: norm.shape.clone(),
            literals: norm.literals.clone(),
            version,
            fingerprint,
        }
    }

    /// Looks up the optimized plan for a normalized statement under the
    /// caller's captured catalog `version`, re-validating the per-table
    /// stats versions the entry was inserted with. A stats mismatch
    /// removes the entry and counts a miss. Counts a hit or miss.
    pub fn lookup(
        &self,
        norm: &NormalizedStatement,
        fingerprint: u64,
        version: u64,
    ) -> Option<Arc<LogicalPlan>> {
        if !self.enabled() {
            return None;
        }
        let key = self.key(norm, fingerprint, version);
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let Inner { entries, stats_versions } = &mut *inner;
        let fresh = match entries.get_mut(&key) {
            Some(entry) => {
                let fresh = entry.stats.iter().all(|(table, v)| {
                    stats_versions.get(table).copied().unwrap_or(0) == *v
                });
                if fresh {
                    entry.last_used = self.tick.fetch_add(1, Ordering::Relaxed);
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    lardb_obs::global().counter("cache.hits").inc();
                    return Some(Arc::clone(&entry.plan));
                }
                false
            }
            None => true, // plain miss; nothing to remove
        };
        if !fresh {
            entries.remove(&key);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        lardb_obs::global().counter("cache.misses").inc();
        None
    }

    /// Inserts an optimized plan under the catalog `version` captured
    /// before the plan was bound, evicting the least-recently-used entry
    /// when full. `tables` are the base tables the plan scans; their
    /// current stats versions are recorded for lookup re-validation. If
    /// a concurrent DDL moved the version since capture, the insert is
    /// **dropped** (counted under `cache.stale_inserts`) — the plan was
    /// bound against a catalog that no longer exists.
    pub fn insert(
        &self,
        norm: &NormalizedStatement,
        fingerprint: u64,
        version: u64,
        tables: &[String],
        plan: Arc<LogicalPlan>,
    ) {
        if !self.enabled() {
            return;
        }
        let key = self.key(norm, fingerprint, version);
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        // Re-check under the lock: a bump after this wins (its version
        // differs from `version`), so the entry could never be served.
        if self.version() != version {
            self.stale_inserts.fetch_add(1, Ordering::Relaxed);
            lardb_obs::global().counter("cache.stale_inserts").inc();
            return;
        }
        let stats = tables
            .iter()
            .map(|t| {
                let t = t.to_ascii_lowercase();
                let v = inner.stats_versions.get(&t).copied().unwrap_or(0);
                (t, v)
            })
            .collect();
        if !inner.entries.contains_key(&key) && inner.entries.len() >= self.capacity {
            // Evict the LRU entry. Capacities are small (hundreds), so a
            // linear scan on the rare full-insert beats maintaining an
            // order list on every lookup.
            if let Some(victim) = inner
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            {
                inner.entries.remove(&victim);
                self.evictions.fetch_add(1, Ordering::Relaxed);
                lardb_obs::global().counter("cache.evictions").inc();
            }
        }
        inner.entries.insert(
            key,
            Entry { plan, stats, last_used: self.tick.fetch_add(1, Ordering::Relaxed) },
        );
    }

    /// Counts a statement that could not be cached (non-SELECT shape,
    /// virtual-table reference, bind failure).
    pub fn note_uncacheable(&self) {
        lardb_obs::global().counter("cache.uncacheable").inc();
    }

    /// Point-in-time stats snapshot.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
            stale_inserts: self.stale_inserts.load(Ordering::Relaxed),
            entries: self
                .inner
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .entries
                .len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lardb_storage::Schema;

    fn plan() -> Arc<LogicalPlan> {
        Arc::new(LogicalPlan::Scan { table: "t".into(), schema: Schema::default() })
    }

    #[test]
    fn shapes_share_across_whitespace_case_and_explain() {
        let a = normalize("SELECT id FROM t WHERE id = 1").unwrap();
        let b = normalize("select  ID\nfrom T where ID=1 ;").unwrap();
        assert_eq!(a.shape, b.shape);
        assert_eq!(a.literals, b.literals);
        assert_eq!(a.kind, StatementKind::Select);
        let e = normalize("EXPLAIN ANALYZE SELECT id FROM t WHERE id = 1").unwrap();
        assert_eq!(e.shape, a.shape);
        assert_eq!(e.kind, StatementKind::Explain);
    }

    #[test]
    fn literals_discriminate_variants() {
        let a = normalize("SELECT id FROM t WHERE id = 1").unwrap();
        let b = normalize("SELECT id FROM t WHERE id = 2").unwrap();
        assert_eq!(a.shape, b.shape);
        assert_ne!(a.literals, b.literals);
        // Float bit-patterns: 0.0 and -0.0 are distinct variants.
        let p = normalize("SELECT v FROM t WHERE v > 0.0").unwrap();
        let n = normalize("SELECT v FROM t WHERE v > -0.0").unwrap();
        // `-` is a separate token, so the shapes differ too — either way
        // these must never alias.
        assert!(p.shape != n.shape || p.literals != n.literals);
    }

    #[test]
    fn non_selects_do_not_normalize() {
        assert!(normalize("INSERT INTO t VALUES (1)").is_none());
        assert!(normalize("CREATE TABLE t (id INTEGER)").is_none());
        assert!(normalize("SHOW METRICS").is_none());
        assert!(normalize("KILL 3").is_none());
        assert!(normalize("not even ' sql").is_none());
    }

    #[test]
    fn lookup_insert_and_version_bump() {
        let cache = PlanCache::new(4);
        let norm = normalize("SELECT id FROM t").unwrap();
        assert!(cache.lookup(&norm, 7, cache.version()).is_none());
        cache.insert(&norm, 7, cache.version(), &["t".into()], plan());
        assert!(cache.lookup(&norm, 7, cache.version()).is_some());
        // A different config fingerprint is a different key.
        assert!(cache.lookup(&norm, 8, cache.version()).is_none());
        // A version bump makes the entry unreachable.
        cache.bump(InvalidationReason::Ddl);
        assert!(cache.lookup(&norm, 7, cache.version()).is_none());
        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 3);
        assert_eq!(stats.invalidations, 1);
    }

    #[test]
    fn stale_insert_after_concurrent_ddl_is_dropped() {
        let cache = PlanCache::new(4);
        let norm = normalize("SELECT id FROM t").unwrap();
        // Capture the version as the bind would, then a "concurrent" DDL
        // lands before the insert: the plan was bound against a catalog
        // that no longer exists and must not be cached.
        let bind_version = cache.version();
        cache.bump(InvalidationReason::Ddl);
        cache.insert(&norm, 0, bind_version, &["t".into()], plan());
        assert_eq!(cache.stats().entries, 0, "stale insert must be dropped");
        assert_eq!(cache.stats().stale_inserts, 1);
        assert!(cache.lookup(&norm, 0, cache.version()).is_none());
    }

    #[test]
    fn stats_bump_invalidates_only_plans_over_that_table() {
        let cache = PlanCache::new(4);
        let over_t = normalize("SELECT a FROM t").unwrap();
        let over_o = normalize("SELECT a FROM o").unwrap();
        cache.insert(&over_t, 0, cache.version(), &["t".into()], plan());
        cache.insert(&over_o, 0, cache.version(), &["o".into()], plan());
        cache.bump_stats("T"); // case-insensitive, like the catalog
        assert!(
            cache.lookup(&over_t, 0, cache.version()).is_none(),
            "plan over t saw a stats change"
        );
        assert!(
            cache.lookup(&over_o, 0, cache.version()).is_some(),
            "plan over o must survive a write to t"
        );
        // The stale entry was removed on the failed lookup.
        assert_eq!(cache.stats().entries, 1);
        // Re-inserting under the new stats version hits again.
        cache.insert(&over_t, 0, cache.version(), &["t".into()], plan());
        assert!(cache.lookup(&over_t, 0, cache.version()).is_some());
    }

    #[test]
    fn lru_eviction_is_bounded() {
        let cache = PlanCache::new(2);
        let a = normalize("SELECT a FROM t").unwrap();
        let b = normalize("SELECT b FROM t").unwrap();
        let c = normalize("SELECT c FROM t").unwrap();
        let v = cache.version();
        cache.insert(&a, 0, v, &["t".into()], plan());
        cache.insert(&b, 0, v, &["t".into()], plan());
        assert!(cache.lookup(&a, 0, v).is_some()); // touch a → b is LRU
        cache.insert(&c, 0, v, &["t".into()], plan());
        assert_eq!(cache.stats().entries, 2);
        assert_eq!(cache.stats().evictions, 1);
        assert!(cache.lookup(&b, 0, v).is_none(), "LRU victim was b");
        assert!(cache.lookup(&a, 0, v).is_some());
        assert!(cache.lookup(&c, 0, v).is_some());
    }

    #[test]
    fn zero_capacity_disables() {
        let cache = PlanCache::new(0);
        let norm = normalize("SELECT a FROM t").unwrap();
        cache.insert(&norm, 0, cache.version(), &[], plan());
        assert!(!cache.enabled());
        assert!(cache.lookup(&norm, 0, cache.version()).is_none());
        assert_eq!(cache.stats().entries, 0);
    }
}
