//! The query-lifecycle stages.
//!
//! A query moves through five stages — parse, bind, optimize, plan,
//! execute. [`QueryProfile::time`](crate::QueryProfile::time) times one:
//! the wall time lands in the profile's stage timings and, from the same
//! clock reading, as a span on the statement's trace.

/// The five query-lifecycle stages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// SQL text → AST.
    Parse,
    /// AST → bound logical plan.
    Bind,
    /// Logical rewrites + cost-based join ordering.
    Optimize,
    /// Logical → physical plan (partitioning, exchanges).
    Plan,
    /// Physical plan execution across the worker pool.
    Execute,
}

impl Stage {
    /// Stable lowercase name used in profiles, traces and JSON exports.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Parse => "parse",
            Stage::Bind => "bind",
            Stage::Optimize => "optimize",
            Stage::Plan => "plan",
            Stage::Execute => "execute",
        }
    }

    /// The lifecycle stages, in pipeline order.
    pub const LIFECYCLE: [Stage; 5] = [
        Stage::Parse,
        Stage::Bind,
        Stage::Optimize,
        Stage::Plan,
        Stage::Execute,
    ];
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::QueryProfile;
    use crate::trace::recorder;

    #[test]
    fn guard_records_on_drop() {
        let trace = recorder().start_forced("SELECT 1", "test");
        let mut profile = QueryProfile::new("SELECT 1");
        {
            let out = profile.time(Stage::Parse, Some(&trace), || {
                std::thread::sleep(std::time::Duration::from_millis(1));
                7
            });
            assert_eq!(out, 7);
        }
        // One clock reading feeds both views.
        let events = trace.events();
        assert_eq!(events.len(), 1);
        assert_eq!((events[0].name, events[0].cat), ("parse", "query"));
        let wall_ms = profile.stage_ms("parse").unwrap();
        assert!(wall_ms >= 1.0);
        assert!((events[0].dur_us as f64 - wall_ms * 1e3).abs() <= 1.0);
        recorder().finish(&trace, None);
        // Without a trace only the profile is fed, and a stage timed
        // twice adds up.
        profile.time(Stage::Parse, None, || ());
        assert!(profile.stage_ms("parse").unwrap() >= wall_ms);
        assert_eq!(trace.events().len(), 1);
    }

    #[test]
    fn guard_records_on_early_return() {
        fn inner(profile: &mut QueryProfile, fail: bool) -> Result<u8, ()> {
            let bound = profile.time(Stage::Bind, None, || if fail { Err(()) } else { Ok(1) })?;
            Ok(bound + 1)
        }
        let mut profile = QueryProfile::new("q");
        assert_eq!(inner(&mut profile, true), Err(()));
        assert!(profile.stage_ms("bind").unwrap() > 0.0, "a failing stage is still timed");
        assert_eq!(inner(&mut profile, false), Ok(2));
    }

    #[test]
    fn lifecycle_order_and_names() {
        let names: Vec<&str> = Stage::LIFECYCLE.iter().map(|s| s.name()).collect();
        assert_eq!(names, ["parse", "bind", "optimize", "plan", "execute"]);
    }
}
