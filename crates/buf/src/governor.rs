//! Byte-accounted memory reservations with RAII release.
//!
//! Operators call [`MemoryGovernor::try_reserve`] before materialising large
//! state. A `None` answer is the backpressure signal: the operator must take
//! its out-of-core path (spill) instead of growing the heap. Reservations
//! release their bytes on drop, so an abort mid-query cannot leak budget.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A byte-budget accountant. `budget = None` means unbounded: every
/// reservation succeeds and the governor only tracks usage for metrics.
///
/// Governors form a tree: a *child* governor (see [`MemoryGovernor::child`])
/// charges every byte against its own budget **and** its parent's, so a
/// tenant's sub-budget can never grant memory the database's governor
/// does not have. Releases cascade the same way, keeping both ledgers
/// consistent no matter which side aborts.
#[derive(Debug)]
pub struct MemoryGovernor {
    budget: Option<u64>,
    reserved: AtomicU64,
    peak: AtomicU64,
    /// Every reservation here is mirrored in the parent (sub-budget
    /// semantics); `None` for root governors.
    parent: Option<Arc<MemoryGovernor>>,
    /// Metric prefix this governor publishes gauges under. Root governors
    /// add their changes into `mem.reserved_bytes`, the sum over live root
    /// governors, and raise `mem.peak_bytes` to that sum's high-water
    /// mark; labeled children (tenant sub-budgets) set
    /// `{label}.reserved_bytes` / `{label}.peak_bytes` instead so they
    /// never fight the root's gauges.
    label: Option<String>,
}

impl MemoryGovernor {
    pub fn new(budget: Option<u64>) -> Self {
        MemoryGovernor {
            budget,
            reserved: AtomicU64::new(0),
            peak: AtomicU64::new(0),
            parent: None,
            label: None,
        }
    }

    /// A sub-budget of `self`: reservations are granted only when both this
    /// child's `budget` and every ancestor's budget admit them. `label` is
    /// the metric prefix the child publishes its gauges under (e.g.
    /// `server.tenant.acme` → `server.tenant.acme.reserved_bytes`).
    pub fn child(
        self: &Arc<Self>,
        budget: Option<u64>,
        label: impl Into<String>,
    ) -> Arc<MemoryGovernor> {
        Arc::new(MemoryGovernor {
            budget,
            reserved: AtomicU64::new(0),
            peak: AtomicU64::new(0),
            parent: Some(Arc::clone(self)),
            label: Some(label.into()),
        })
    }

    /// The parent this governor mirrors reservations into, if any.
    pub fn parent(&self) -> Option<&Arc<MemoryGovernor>> {
        self.parent.as_ref()
    }

    /// The configured budget in bytes, if any.
    pub fn budget(&self) -> Option<u64> {
        self.budget
    }

    /// Bytes currently reserved.
    pub fn reserved(&self) -> u64 {
        self.reserved.load(Ordering::Relaxed)
    }

    /// High-water mark of reserved bytes.
    pub fn peak(&self) -> u64 {
        self.peak.load(Ordering::Relaxed)
    }

    /// Try to reserve `bytes`. Returns `None` (and counts a denial) if the
    /// reservation would exceed the budget. Zero-byte reservations always
    /// succeed and are useful as growable anchors.
    pub fn try_reserve(self: &Arc<Self>, bytes: u64) -> Option<MemoryReservation> {
        if self.try_add(bytes) {
            Some(MemoryReservation::attributed(Arc::clone(self), bytes))
        } else {
            lardb_obs::global().counter("mem.denials").inc();
            None
        }
    }

    /// Reserve `bytes` unconditionally, even past the budget. Used at the
    /// recursion floor of the grace join (a bucket that will not shrink no
    /// matter how often we re-partition it) and for a cross product's
    /// build, which hashing cannot split at all: better to overcommit and
    /// finish than to loop forever. Counts `mem.overcommits` when it
    /// actually exceeds the budget.
    pub fn force_reserve(self: &Arc<Self>, bytes: u64) -> MemoryReservation {
        self.add_forced(bytes);
        MemoryReservation::attributed(Arc::clone(self), bytes)
    }

    /// Unconditional add, cascading to ancestors.
    fn add_forced(&self, bytes: u64) {
        let prev = self.reserved.fetch_add(bytes, Ordering::Relaxed);
        if let Some(b) = self.budget {
            if prev + bytes > b {
                lardb_obs::global().counter("mem.overcommits").inc();
            }
        }
        self.after_change(prev + bytes, bytes as f64);
        if let Some(p) = &self.parent {
            p.add_forced(bytes);
        }
    }

    /// CAS loop: add `bytes` iff the result stays within budget — here
    /// *and* in every ancestor. A grant denied upstream is rolled back
    /// locally, so a failed reservation leaves all ledgers untouched.
    fn try_add(&self, bytes: u64) -> bool {
        let mut cur = self.reserved.load(Ordering::Relaxed);
        loop {
            let next = match cur.checked_add(bytes) {
                Some(n) => n,
                None => return false,
            };
            if let Some(b) = self.budget {
                if next > b {
                    return false;
                }
            }
            match self
                .reserved
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => {
                    if let Some(p) = &self.parent {
                        if !p.try_add(bytes) {
                            // Never published, so taken back silently.
                            self.reserved.fetch_sub(bytes, Ordering::Relaxed);
                            return false;
                        }
                    }
                    self.after_change(self.reserved.load(Ordering::Relaxed), bytes as f64);
                    return true;
                }
                Err(actual) => cur = actual,
            }
        }
    }

    fn release(&self, bytes: u64) {
        let prev = self.reserved.fetch_sub(bytes, Ordering::Relaxed);
        self.after_change(prev.saturating_sub(bytes), -(bytes as f64));
        if let Some(p) = &self.parent {
            p.release(bytes);
        }
    }

    /// `now` is this governor's reserved bytes after a change of `delta`.
    fn after_change(&self, now: u64, delta: f64) {
        self.peak.fetch_max(now, Ordering::Relaxed);
        let m = lardb_obs::global();
        match &self.label {
            None => {
                let sum = m.gauge("mem.reserved_bytes").add(delta);
                m.gauge("mem.peak_bytes").set_max(sum);
            }
            Some(l) => {
                m.gauge(&format!("{l}.reserved_bytes")).set(now as f64);
                m.gauge(&format!("{l}.peak_bytes"))
                    .set(self.peak.load(Ordering::Relaxed) as f64);
            }
        }
    }
}

/// An RAII byte reservation; releases its bytes back to the governor on drop.
///
/// If the reserving thread was running under an end-to-end query trace,
/// the reservation remembers it and keeps the trace's live
/// reserved-bytes attribution in sync through resizes and the final
/// release (which may happen on a different thread).
#[derive(Debug)]
pub struct MemoryReservation {
    gov: Arc<MemoryGovernor>,
    bytes: u64,
    trace: Option<Arc<lardb_obs::ActiveTrace>>,
}

impl MemoryReservation {
    fn attributed(gov: Arc<MemoryGovernor>, bytes: u64) -> MemoryReservation {
        let trace = lardb_pool::QueryContext::current().and_then(|c| c.trace().cloned());
        if let Some(t) = &trace {
            t.add_reserved(bytes as i64);
        }
        MemoryReservation { gov, bytes, trace }
    }

    /// Bytes currently held by this reservation.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Try to grow (or shrink) the reservation to `new_bytes`. On a denied
    /// grow the reservation keeps its current size and `false` is returned —
    /// the caller should spill. Shrinks always succeed.
    pub fn try_resize(&mut self, new_bytes: u64) -> bool {
        if new_bytes >= self.bytes {
            let delta = new_bytes - self.bytes;
            if delta > 0 && !self.gov.try_add(delta) {
                lardb_obs::global().counter("mem.denials").inc();
                return false;
            }
        } else {
            self.gov.release(self.bytes - new_bytes);
        }
        if let Some(t) = &self.trace {
            t.add_reserved(new_bytes as i64 - self.bytes as i64);
        }
        self.bytes = new_bytes;
        true
    }
}

impl Drop for MemoryReservation {
    fn drop(&mut self) {
        self.gov.release(self.bytes);
        if let Some(t) = &self.trace {
            t.add_reserved(-(self.bytes as i64));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unbounded_always_grants() {
        let g = Arc::new(MemoryGovernor::new(None));
        let r = g.try_reserve(u64::MAX / 4).expect("unbounded grant");
        assert_eq!(r.bytes(), u64::MAX / 4);
        assert_eq!(g.reserved(), u64::MAX / 4);
        drop(r);
        assert_eq!(g.reserved(), 0);
    }

    #[test]
    fn budget_denies_past_limit_and_releases_on_drop() {
        let g = Arc::new(MemoryGovernor::new(Some(1000)));
        let a = g.try_reserve(600).expect("first fits");
        assert!(g.try_reserve(600).is_none(), "would exceed budget");
        let b = g.try_reserve(400).expect("exactly fills");
        assert_eq!(g.reserved(), 1000);
        drop(a);
        assert_eq!(g.reserved(), 400);
        let c = g.try_reserve(600).expect("freed bytes reusable");
        drop(b);
        drop(c);
        assert_eq!(g.reserved(), 0);
        assert_eq!(g.peak(), 1000);
    }

    #[test]
    fn resize_grows_shrinks_and_denies() {
        let g = Arc::new(MemoryGovernor::new(Some(1000)));
        let mut r = g.try_reserve(100).expect("grant");
        assert!(r.try_resize(900));
        assert_eq!(g.reserved(), 900);
        assert!(!r.try_resize(1001), "grow past budget denied");
        assert_eq!(r.bytes(), 900, "denied grow keeps old size");
        assert_eq!(g.reserved(), 900);
        assert!(r.try_resize(200), "shrink always succeeds");
        assert_eq!(g.reserved(), 200);
        drop(r);
        assert_eq!(g.reserved(), 0);
    }

    #[test]
    fn force_reserve_overcommits() {
        let g = Arc::new(MemoryGovernor::new(Some(100)));
        let a = g.try_reserve(80).expect("fits");
        let b = g.force_reserve(80);
        assert_eq!(g.reserved(), 160, "forced past budget");
        drop(a);
        drop(b);
        assert_eq!(g.reserved(), 0);
    }

    #[test]
    fn child_charges_both_ledgers() {
        let root = Arc::new(MemoryGovernor::new(Some(1000)));
        let child = root.child(Some(400), "server.tenant.a");
        let r = child.try_reserve(300).expect("fits both budgets");
        assert_eq!(child.reserved(), 300);
        assert_eq!(root.reserved(), 300, "parent mirrors the child's bytes");
        drop(r);
        assert_eq!(child.reserved(), 0);
        assert_eq!(root.reserved(), 0, "release cascades");
    }

    #[test]
    fn child_denied_by_own_budget() {
        let root = Arc::new(MemoryGovernor::new(None));
        let child = root.child(Some(100), "server.tenant.b");
        assert!(child.try_reserve(101).is_none(), "child budget enforced");
        assert_eq!(root.reserved(), 0, "denied grant leaves parent untouched");
    }

    #[test]
    fn child_denied_by_parent_rolls_back() {
        let root = Arc::new(MemoryGovernor::new(Some(100)));
        let hog = root.try_reserve(90).expect("fits");
        let child = root.child(Some(1000), "server.tenant.c");
        assert!(child.try_reserve(50).is_none(), "parent budget enforced");
        assert_eq!(child.reserved(), 0, "local grant rolled back");
        assert_eq!(root.reserved(), 90);
        drop(hog);
        let r = child.try_reserve(50).expect("parent freed");
        assert_eq!(root.reserved(), 50);
        drop(r);
    }

    #[test]
    fn sibling_children_compete_for_parent() {
        let root = Arc::new(MemoryGovernor::new(Some(100)));
        let a = root.child(Some(80), "server.tenant.a");
        let b = root.child(Some(80), "server.tenant.b");
        let ra = a.try_reserve(80).expect("first tenant fits");
        assert!(b.try_reserve(80).is_none(), "parent pool exhausted");
        let rb = b.try_reserve(20).expect("remainder fits");
        drop(ra);
        drop(rb);
        assert_eq!(root.reserved(), 0);
        assert_eq!(a.reserved(), 0);
        assert_eq!(b.reserved(), 0);
    }

    #[test]
    fn child_force_reserve_cascades() {
        let root = Arc::new(MemoryGovernor::new(Some(100)));
        let child = root.child(Some(50), "server.tenant.d");
        let r = child.force_reserve(200);
        assert_eq!(child.reserved(), 200);
        assert_eq!(root.reserved(), 200);
        drop(r);
        assert_eq!(child.reserved(), 0);
        assert_eq!(root.reserved(), 0);
    }

    #[test]
    fn child_resize_keeps_ledgers_consistent() {
        let root = Arc::new(MemoryGovernor::new(Some(1000)));
        let child = root.child(Some(500), "server.tenant.e");
        let mut r = child.try_reserve(100).expect("grant");
        assert!(r.try_resize(400));
        assert_eq!(root.reserved(), 400);
        assert!(!r.try_resize(600), "grow past child budget denied");
        assert_eq!(root.reserved(), 400, "denied grow leaves parent unchanged");
        assert!(r.try_resize(50));
        assert_eq!(root.reserved(), 50);
        drop(r);
        assert_eq!(root.reserved(), 0);
    }

    #[test]
    fn concurrent_reservations_never_exceed_budget() {
        let g = Arc::new(MemoryGovernor::new(Some(10_000)));
        std::thread::scope(|s| {
            for _ in 0..8 {
                let g = Arc::clone(&g);
                s.spawn(move || {
                    for _ in 0..1000 {
                        if let Some(r) = g.try_reserve(7) {
                            assert!(g.reserved() <= 10_000);
                            drop(r);
                        }
                    }
                });
            }
        });
        assert_eq!(g.reserved(), 0);
        assert!(g.peak() <= 10_000);
    }
}
