//! A process-wide metrics registry: counters, gauges, and histograms.
//!
//! The registry is deliberately tiny — a name → metric map behind a mutex,
//! with the hot-path updates (counter increments, histogram observations)
//! done on `AtomicU64`s so instrumented code never blocks on the registry
//! lock. Histograms use fixed power-of-two (log-scale) buckets, which is
//! enough resolution to tell a 10 µs enqueue stall from a 10 ms one
//! without any configuration.
//!
//! Use [`global()`] for the process-wide registry that `SHOW METRICS`
//! snapshots; separate [`MetricsRegistry`] instances are handy in tests.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Number of log-scale histogram buckets: bucket `i` counts observations in
/// `[2^(i-1), 2^i)` (bucket 0 is `[0, 1)`), with the last bucket open-ended.
pub const HISTOGRAM_BUCKETS: usize = 32;

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Adds `n` to the counter.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Increments the counter by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that can move both ways (e.g. open channels).
#[derive(Debug, Default)]
pub struct Gauge {
    // Stored as the f64 bit pattern so updates stay lock-free.
    bits: AtomicU64,
}

impl Gauge {
    /// Sets the gauge to `v`.
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Adds `delta` (negative to subtract), so several writers sum.
    /// Returns the sum this add produced.
    pub fn add(&self, delta: f64) -> f64 {
        let add = |bits| Some((f64::from_bits(bits) + delta).to_bits());
        let prev = self.bits.fetch_update(Ordering::Relaxed, Ordering::Relaxed, add);
        f64::from_bits(prev.unwrap_or_else(|never| never)) + delta
    }

    /// Raises the gauge to `v` if it reads less, so it keeps a high-water
    /// mark over several writers.
    pub fn set_max(&self, v: f64) {
        let raise = |bits| (f64::from_bits(bits) < v).then_some(v.to_bits());
        let _already_higher = self.bits.fetch_update(Ordering::Relaxed, Ordering::Relaxed, raise);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// A histogram with [`HISTOGRAM_BUCKETS`] fixed power-of-two buckets.
///
/// Observations are unitless `u64`s; callers pick the unit (the executor
/// records enqueue-block *microseconds*, the database query *milliseconds*)
/// and encode it in the metric name.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Records one observation.
    pub fn observe(&self, v: u64) {
        let idx = bucket_index(v);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Upper bound (exclusive) of the smallest bucket holding the requested
    /// quantile, or 0 when the histogram is empty. `q` is in `[0, 1]`.
    pub fn quantile(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let rank = ((q * total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                return bucket_upper(i);
            }
        }
        bucket_upper(HISTOGRAM_BUCKETS - 1)
    }
}

/// Maps an observation to its log-scale bucket index.
fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        // 1 lands in bucket 1 ([1,2)), 2..4 in bucket 2, etc.
        ((64 - v.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
    }
}

/// Exclusive upper bound of bucket `i` (saturating for the last bucket).
fn bucket_upper(i: usize) -> u64 {
    if i >= HISTOGRAM_BUCKETS - 1 {
        u64::MAX
    } else {
        1u64 << i
    }
}

/// The kind of a metric, carried on every [`MetricSample`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonic counter.
    Counter,
    /// Point-in-time gauge.
    Gauge,
    /// Log-scale-bucket histogram (snapshotted as derived samples).
    Histogram,
}

impl MetricKind {
    /// Lowercase label used in `SHOW METRICS` output.
    pub fn label(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// One row of a registry snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSample {
    /// Metric name; histograms emit derived names like `x.count`, `x.p99`.
    pub name: String,
    /// Kind of the metric the sample came from.
    pub kind: MetricKind,
    /// Sample value.
    pub value: f64,
}

enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

/// A named collection of metrics.
///
/// Accessors are get-or-create: the first caller for a name decides the
/// kind; a later request for the same name with a different kind panics,
/// which surfaces instrumentation typos immediately.
#[derive(Default)]
pub struct MetricsRegistry {
    metrics: Mutex<BTreeMap<String, Metric>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Returns (creating if needed) the counter named `name`.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut m = self.metrics.lock().unwrap_or_else(|e| e.into_inner());
        match m
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(Arc::new(Counter::default())))
        {
            Metric::Counter(c) => Arc::clone(c),
            _ => panic!("metric {name} is not a counter"),
        }
    }

    /// Returns (creating if needed) the gauge named `name`.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut m = self.metrics.lock().unwrap_or_else(|e| e.into_inner());
        match m
            .entry(name.to_string())
            .or_insert_with(|| Metric::Gauge(Arc::new(Gauge::default())))
        {
            Metric::Gauge(g) => Arc::clone(g),
            _ => panic!("metric {name} is not a gauge"),
        }
    }

    /// Returns (creating if needed) the histogram named `name`.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut m = self.metrics.lock().unwrap_or_else(|e| e.into_inner());
        match m
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(Arc::new(Histogram::default())))
        {
            Metric::Histogram(h) => Arc::clone(h),
            _ => panic!("metric {name} is not a histogram"),
        }
    }

    /// Snapshots every metric as a flat, name-sorted sample list.
    ///
    /// Histograms expand into `<name>.count`, `<name>.sum`, `<name>.p50`,
    /// and `<name>.p99` derived samples.
    pub fn snapshot(&self) -> Vec<MetricSample> {
        let m = self.metrics.lock().unwrap_or_else(|e| e.into_inner());
        let mut out = Vec::with_capacity(m.len());
        for (name, metric) in m.iter() {
            match metric {
                Metric::Counter(c) => out.push(MetricSample {
                    name: name.clone(),
                    kind: MetricKind::Counter,
                    value: c.get() as f64,
                }),
                Metric::Gauge(g) => out.push(MetricSample {
                    name: name.clone(),
                    kind: MetricKind::Gauge,
                    value: g.get(),
                }),
                Metric::Histogram(h) => {
                    // Suffixes listed alphabetically so the whole snapshot
                    // stays name-sorted.
                    let derived = [
                        ("count", h.count() as f64),
                        ("p50", h.quantile(0.50) as f64),
                        ("p90", h.quantile(0.90) as f64),
                        ("p99", h.quantile(0.99) as f64),
                        ("sum", h.sum() as f64),
                    ];
                    for (suffix, value) in derived {
                        out.push(MetricSample {
                            name: format!("{name}.{suffix}"),
                            kind: MetricKind::Histogram,
                            value,
                        });
                    }
                }
            }
        }
        out
    }

    /// Snapshots every metric as one columnar row per metric, name-sorted.
    ///
    /// Unlike [`snapshot`](Self::snapshot) (which flattens histograms into
    /// derived `name.suffix` samples for flat JSON exports), this keeps one
    /// row per histogram with its count / sum / percentiles as separate
    /// columns — the shape the `metrics` virtual table and `SHOW METRICS`
    /// expose.
    pub fn table_snapshot(&self) -> Vec<TableSample> {
        let m = self.metrics.lock().unwrap_or_else(|e| e.into_inner());
        let mut out = Vec::with_capacity(m.len());
        for (name, metric) in m.iter() {
            out.push(match metric {
                Metric::Counter(c) => TableSample::scalar(name, MetricKind::Counter, c.get() as f64),
                Metric::Gauge(g) => TableSample::scalar(name, MetricKind::Gauge, g.get()),
                Metric::Histogram(h) => TableSample {
                    name: name.clone(),
                    kind: MetricKind::Histogram,
                    value: None,
                    count: Some(h.count() as f64),
                    sum: Some(h.sum() as f64),
                    p50: Some(h.quantile(0.50) as f64),
                    p90: Some(h.quantile(0.90) as f64),
                    p99: Some(h.quantile(0.99) as f64),
                },
            });
        }
        out
    }
}

/// One columnar row of a [`MetricsRegistry::table_snapshot`].
///
/// Counters and gauges fill `value`; histograms fill the count / sum /
/// percentile columns instead (their `value` is `None`).
#[derive(Debug, Clone, PartialEq)]
pub struct TableSample {
    /// Metric name (no derived suffixes — one row per metric).
    pub name: String,
    /// The metric's kind.
    pub kind: MetricKind,
    /// Counter or gauge value; `None` for histograms.
    pub value: Option<f64>,
    /// Histogram observation count.
    pub count: Option<f64>,
    /// Histogram observation sum.
    pub sum: Option<f64>,
    /// Histogram 50th-percentile bucket upper bound.
    pub p50: Option<f64>,
    /// Histogram 90th-percentile bucket upper bound.
    pub p90: Option<f64>,
    /// Histogram 99th-percentile bucket upper bound.
    pub p99: Option<f64>,
}

impl TableSample {
    fn scalar(name: &str, kind: MetricKind, value: f64) -> TableSample {
        TableSample {
            name: name.to_string(),
            kind,
            value: Some(value),
            count: None,
            sum: None,
            p50: None,
            p90: None,
            p99: None,
        }
    }
}

/// The process-wide registry, created on first use.
pub fn global() -> &'static MetricsRegistry {
    static GLOBAL: OnceLock<MetricsRegistry> = OnceLock::new();
    GLOBAL.get_or_init(MetricsRegistry::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges() {
        let r = MetricsRegistry::new();
        r.counter("q").add(3);
        r.counter("q").inc();
        r.gauge("g").set(2.5);
        assert_eq!(r.counter("q").get(), 4);
        assert_eq!(r.gauge("g").get(), 2.5);
        assert_eq!(r.gauge("g").add(1.5), 4.0);
        r.gauge("g").set_max(3.0);
        assert_eq!(r.gauge("g").get(), 4.0);
        r.gauge("g").set_max(6.0);
        assert_eq!(r.gauge("g").get(), 6.0);
    }

    #[test]
    fn histogram_buckets_are_log_scale() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
    }

    #[test]
    fn histogram_quantiles() {
        let r = MetricsRegistry::new();
        let h = r.histogram("lat");
        for v in [1u64, 1, 1, 1, 1000] {
            h.observe(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 1004);
        assert_eq!(h.quantile(0.5), 2); // bucket [1,2)
        assert!(h.quantile(0.99) >= 1000);
        assert_eq!(r.histogram("empty").quantile(0.5), 0);
    }

    #[test]
    fn snapshot_expands_histograms() {
        let r = MetricsRegistry::new();
        r.counter("a").inc();
        r.histogram("h").observe(7);
        let snap = r.snapshot();
        let names: Vec<&str> = snap.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["a", "h.count", "h.p50", "h.p90", "h.p99", "h.sum"]);
        assert_eq!(snap[0].kind, MetricKind::Counter);
        assert_eq!(snap[0].value, 1.0);
    }

    #[test]
    fn table_snapshot_keeps_one_row_per_metric() {
        let r = MetricsRegistry::new();
        r.counter("a").inc();
        r.gauge("g").set(1.5);
        for v in [1u64, 1, 1, 1000] {
            r.histogram("h").observe(v);
        }
        let rows = r.table_snapshot();
        let names: Vec<&str> = rows.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["a", "g", "h"], "one name-sorted row per metric");
        assert_eq!(rows[0].value, Some(1.0));
        assert_eq!(rows[0].p50, None, "counters have no percentiles");
        assert_eq!(rows[1].value, Some(1.5));
        let h = &rows[2];
        assert_eq!(h.kind, MetricKind::Histogram);
        assert_eq!(h.value, None, "histograms have no scalar value");
        assert_eq!(h.count, Some(4.0));
        assert_eq!(h.sum, Some(1003.0));
        assert_eq!(h.p50, Some(2.0));
        assert!(h.p90.unwrap() >= h.p50.unwrap());
        assert!(h.p99.unwrap() >= 1000.0);
    }

    #[test]
    #[should_panic(expected = "not a counter")]
    fn kind_mismatch_panics() {
        let r = MetricsRegistry::new();
        r.gauge("x");
        r.counter("x");
    }

    #[test]
    fn global_registry_is_shared() {
        global().counter("obs.test.global").inc();
        assert!(global().counter("obs.test.global").get() >= 1);
    }
}
