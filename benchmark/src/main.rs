//! The benchmark for lardb. See `benchmark/README.md`.
//!
//! ```text
//! lardb-benchmark --workload NAME --seed N --seconds S --trace 0|1 [--quick] [--out FILE]
//! lardb-benchmark set --out FILE [--seed N] [--seconds S] [--repeats R] [--quick]
//! lardb-benchmark compare FIRST.json SECOND.json
//! lardb-benchmark manifest
//! ```

mod compare;
mod engine;
mod gen;
mod host;
mod json;
mod metrics;
mod probes;
mod run;
mod span;
mod stats;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use json::Json;
use run::RunArgs;

/// Seed of a run when none is given: the date the paper was presented.
const DEFAULT_SEED: u64 = 20_170_419;

fn usage() -> String {
    "usage:\n  \
     lardb-benchmark --workload NAME --seed N --seconds S --trace 0|1 [--quick] [--out FILE]\n  \
     lardb-benchmark set --out FILE [--seed N] [--seconds S] [--repeats R] [--quick]\n  \
     lardb-benchmark compare FIRST.json SECOND.json\n  \
     lardb-benchmark manifest"
        .to_string()
}

/// `--flag value` pairs and bare words of a command line.
struct Flags {
    pairs: Vec<(String, String)>,
    switches: Vec<String>,
    words: Vec<String>,
}

impl Flags {
    fn parse(args: &[String], switches: &[&str]) -> Result<Flags, String> {
        let mut f = Flags {
            pairs: Vec::new(),
            switches: Vec::new(),
            words: Vec::new(),
        };
        let mut it = args.iter();
        while let Some(a) = it.next() {
            if switches.contains(&a.as_str()) {
                f.switches.push(a.clone());
            } else if let Some(name) = a.strip_prefix("--") {
                let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
                f.pairs.push((name.to_string(), value.clone()));
            } else {
                f.words.push(a.clone());
            }
        }
        Ok(f)
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.pairs
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    fn parsed<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{name}: cannot read `{v}`")),
        }
    }

    fn has(&self, switch: &str) -> bool {
        self.switches.iter().any(|s| s == switch)
    }

    fn only(&self, known: &[&str]) -> Result<(), String> {
        match self
            .pairs
            .iter()
            .find(|(n, _)| !known.contains(&n.as_str()))
        {
            Some((n, _)) => Err(format!("unknown option --{n}")),
            None => Ok(()),
        }
    }
}

fn run_args(flags: &Flags) -> Result<RunArgs, String> {
    flags.only(&["workload", "seed", "seconds", "trace", "out"])?;
    let seconds: f64 = flags.parsed("seconds", metrics::RUN_SECONDS as f64)?;
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err("--seconds must be above 0 and at most 60".into());
    }
    let trace = match flags.get("trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
    };
    Ok(RunArgs {
        workload: flags
            .get("workload")
            .ok_or("--workload is required")?
            .to_string(),
        seed: flags.parsed("seed", DEFAULT_SEED)?,
        seconds,
        trace,
        quick: flags.has("--quick"),
        out: flags.get("out").map(PathBuf::from),
    })
}

fn cmd_run(args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags::parse(args, &["--quick"])?;
    if !flags.words.is_empty() {
        return Err(format!(
            "unexpected argument `{}`\n{}",
            flags.words[0],
            usage()
        ));
    }
    let args = run_args(&flags)?;
    let report = run::run(&args)?;
    if let Some(path) = &args.out {
        std::fs::write(path, report.full.pretty())
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    // The driver reads the last line of standard output.
    println!("{}", report.last_line.compact());
    Ok(if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// First line a command prints, or `unknown`.
fn first_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

/// Runs one workload in a child process and reads its report back.
fn child_run(exe: &Path, dir: &Path, a: &RunArgs) -> Result<Json, String> {
    let out = dir.join(format!(
        "{}-{}-{}.json",
        a.workload,
        a.seed,
        u8::from(a.trace)
    ));
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", &a.workload, "--seed", &a.seed.to_string()])
        .args([
            "--seconds",
            &a.seconds.to_string(),
            "--trace",
            if a.trace { "1" } else { "0" },
        ])
        .arg("--out")
        .arg(&out);
    if a.quick {
        cmd.arg("--quick");
    }
    // `status` waits for the child to end.
    let status = cmd
        .status()
        .map_err(|e| format!("{}: {e}", exe.display()))?;
    if !status.success() {
        return Err(format!(
            "{} seed {} trace {}: {status}",
            a.workload, a.seed, a.trace
        ));
    }
    let text = std::fs::read_to_string(&out).map_err(|e| format!("{}: {e}", out.display()))?;
    let _ = std::fs::remove_file(&out);
    Json::parse(&text)
}

/// Every workload `repeats` times untraced, each time with another seed,
/// then once traced; one process per run.
fn cmd_set(args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags::parse(args, &["--quick"])?;
    flags.only(&["out", "seed", "seconds", "repeats", "workloads"])?;
    let out = PathBuf::from(flags.get("out").ok_or("set: --out is required")?);
    let seed: u64 = flags.parsed("seed", DEFAULT_SEED)?;
    let seconds: f64 = flags.parsed("seconds", metrics::RUN_SECONDS as f64)?;
    let repeats: u64 = flags.parsed("repeats", 10)?;
    let quick = flags.has("--quick");
    let chosen: Vec<&str> = match flags.get("workloads") {
        Some(list) => list.split(',').collect(),
        None => workloads::NAMES.to_vec(),
    };
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let dir = run::out_root().join(format!("set-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;

    let mut runs = Vec::new();
    let mut host = None;
    let result = (|| -> Result<(), String> {
        for workload in &chosen {
            for i in 0..=repeats {
                // The last run of a workload is the traced one.
                let trace = i == repeats;
                let a = RunArgs {
                    workload: (*workload).to_string(),
                    seed: if trace { seed } else { seed + i },
                    seconds,
                    trace,
                    quick,
                    out: None,
                };
                let report = child_run(&exe, &dir, &a)?;
                host.get_or_insert_with(|| report.get("host").cloned().unwrap_or(Json::Null));
                runs.push(report);
            }
        }
        Ok(())
    })();
    let _ = std::fs::remove_dir_all(&dir);
    result?;

    let mut host_fields = match host {
        Some(Json::Obj(fields)) => fields,
        _ => Vec::new(),
    };
    host_fields.push((
        "rustc".into(),
        Json::Str(first_line("rustc", &["--version"])),
    ));
    host_fields.push((
        "git_commit".into(),
        Json::Str(first_line(
            "git",
            &["-C", env!("CARGO_MANIFEST_DIR"), "rev-parse", "HEAD"],
        )),
    ));
    let set = Json::obj([
        ("schema", Json::str(compare::SET_SCHEMA)),
        ("seed", Json::Int(seed as i64)),
        ("seconds", Json::Num(seconds)),
        ("repeats", Json::Int(repeats as i64)),
        ("quick", Json::Bool(quick)),
        ("host", Json::Obj(host_fields)),
        ("runs", Json::Arr(runs)),
    ]);
    std::fs::write(&out, set.pretty()).map_err(|e| format!("{}: {e}", out.display()))?;
    println!("wrote {}", out.display());
    Ok(ExitCode::SUCCESS)
}

fn cmd_compare(args: &[String]) -> Result<ExitCode, String> {
    let [first, second] = args else {
        return Err(format!("compare takes two result files\n{}", usage()));
    };
    let load = |path: &String| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (a, b) = (load(first)?, load(second)?);
    if let Some(why) = compare::refusal(&a, &b) {
        eprintln!("refusing to compare: {why}");
        return Ok(ExitCode::from(2));
    }
    let (text, bad) = compare::compare(&a, &b);
    print!("{text}");
    println!("{bad} row(s) regressed, unresolved or missing");
    Ok(if bad == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("set") => cmd_set(&args[1..]),
        Some("compare") => cmd_compare(&args[1..]),
        Some("manifest") => {
            print!("{}", metrics::manifest().pretty());
            Ok(ExitCode::SUCCESS)
        }
        Some("--help" | "-h" | "help") | None => {
            println!("{}", usage());
            Ok(ExitCode::from(2))
        }
        Some(_) => cmd_run(&args),
    };
    result.unwrap_or_else(|why| {
        eprintln!("error: {why}");
        ExitCode::from(2)
    })
}
