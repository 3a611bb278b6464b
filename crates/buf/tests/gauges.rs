//! The unlabeled governor gauges sum over every live root governor. This
//! binary holds one test because the metrics registry is process-wide:
//! no other governor may reserve beside it.

use std::sync::Arc;

use lardb_buf::MemoryGovernor;

#[test]
fn reserved_and_peak_sum_over_live_governors() {
    let registry = lardb_obs::global();
    let (reserved, peak) = (registry.gauge("mem.reserved_bytes"), registry.gauge("mem.peak_bytes"));
    let reserved0 = reserved.get();

    let a = Arc::new(MemoryGovernor::new(Some(1000)));
    let b = Arc::new(MemoryGovernor::new(None));
    let held_a = a.try_reserve(600).unwrap();
    let held_b = b.try_reserve(300).unwrap();
    assert_eq!(reserved.get(), reserved0 + 900.0);
    let mut grown = b.force_reserve(50);
    assert_eq!(reserved.get(), reserved0 + 950.0);
    assert!(grown.try_resize(20));
    assert_eq!(reserved.get(), reserved0 + 920.0);
    // A denial changes nothing.
    assert!(a.try_reserve(500).is_none());
    assert_eq!(reserved.get(), reserved0 + 920.0);
    assert!(peak.get() >= reserved0 + 950.0);

    // A tenant's sub-budget counts once, in its root, not again itself.
    let tenant = a.child(Some(200), "test.tenant");
    let held_t = tenant.try_reserve(150).unwrap();
    assert_eq!(reserved.get(), reserved0 + 1070.0);
    assert_eq!(registry.gauge("test.tenant.reserved_bytes").get(), 150.0);

    drop((held_a, held_b, grown, held_t));
    assert_eq!(reserved.get(), reserved0);
    assert!(peak.get() >= reserved0 + 1070.0);
}
