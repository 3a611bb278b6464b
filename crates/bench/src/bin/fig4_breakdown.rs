//! Figure 4 — per-operation breakdown of the Gram computation, tuple-based
//! vs vector-based.
//!
//! The paper's Figure 4 shows that in the tuple-based computation the
//! *aggregation* (not the join) dominates: 5×10⁵ thousand-dimensional
//! points explode into 5×10¹¹ joined tuples that all flow into the
//! GROUP BY. This harness re-runs both formulations and prints wall time
//! attributed to scans, joins, aggregation and exchanges from the
//! executor's per-operator statistics.
//!
//! ```text
//! cargo run --release -p lardb-bench --bin fig4_breakdown [-- --n 20k --dims 100]
//! ```
//!
//! With `--profile-json PATH` the harness also writes a machine-readable
//! JSON document containing, per platform, the merged query-lifecycle
//! profile (parse/bind/optimize/plan/execute stage timings plus
//! per-operator estimate-vs-actual records).

use std::time::Duration;

use lardb_bench::{format_duration, platforms, Args, Platform, Workload};

fn bucket(label: &str) -> &'static str {
    if label.starts_with("TableScan") {
        "scan"
    } else if label.contains("Join") {
        "join"
    } else if label.starts_with("HashAggregate") {
        "aggregation"
    } else if label.starts_with("Exchange") {
        "exchange"
    } else {
        "other"
    }
}

fn main() {
    let args = Args::from_env();
    // Figure 4 used 1000-dimensional data on a five-machine cluster; the
    // default here uses the sweep's largest dims value.
    let dims = args.dims.iter().copied().max().unwrap_or(100);
    println!(
        "Figure 4: Gram computation per-operation breakdown (n = {}, dims = {dims}, workers = {})",
        args.n, args.workers
    );

    // (platform label, QueryProfile JSON) pairs for --profile-json.
    let mut profiles: Vec<(String, String)> = Vec::new();
    for platform in [Platform::TupleSimSql, Platform::VectorSimSql] {
        let out = platforms::run_with_opts(
            platform,
            Workload::Gram,
            args.n,
            dims,
            args.block,
            args.workers,
            args.seed,
            args.engine_opts(),
        );
        let Some(total) = out.duration else {
            println!("\n{}: Fail ({:?})", platform.label(), out.note);
            continue;
        };
        if let Some(profile) = &out.profile {
            profiles.push((platform.label().to_string(), profile.to_json()));
        }
        println!(
            "\n{} — total {}{}",
            platform.label(),
            format_duration(total),
            out.note.as_deref().map(|n| format!("  [{n}]")).unwrap_or_default()
        );
        let Some(stats) = out.stats else { continue };
        let mut buckets: std::collections::BTreeMap<&str, Duration> = Default::default();
        for (label, wall) in stats.time_by_label() {
            *buckets.entry(bucket(&label)).or_default() += wall;
        }
        let sum: Duration = buckets.values().sum();
        for (b, wall) in &buckets {
            let pct = if sum.as_nanos() > 0 {
                wall.as_secs_f64() / sum.as_secs_f64() * 100.0
            } else {
                0.0
            };
            println!("  {b:<12} {:>14}  {pct:5.1}%", format!("{:.1} ms", wall.as_secs_f64() * 1e3));
        }
        println!(
            "  rows shuffled: {}   bytes shuffled: {:.2} MB",
            stats.total_rows_shuffled(),
            stats.total_bytes_shuffled() as f64 / 1e6
        );
    }

    println!(
        "\nPaper's observation to check: in the tuple-based run the dominant cost is the \
         aggregation, not the join (§5, Figure 4)."
    );

    if let Some(path) = &args.profile_json {
        let runs: Vec<String> = profiles
            .iter()
            .map(|(label, json)| format!("{{\"platform\":\"{label}\",\"profile\":{json}}}"))
            .collect();
        let doc = format!("{{\"bench\":\"fig4_breakdown\",\"runs\":[{}]}}", runs.join(","));
        match std::fs::write(path, doc) {
            Ok(()) => println!("wrote query profiles to {path}"),
            Err(e) => {
                eprintln!("failed to write {path}: {e}");
                std::process::exit(1);
            }
        }
    }
}
