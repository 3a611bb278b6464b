//! Tiny argument parser for the harness binaries (no external deps).

use lardb::TransportMode;

/// Common harness options.
#[derive(Debug, Clone)]
pub struct Args {
    /// Data points per run for Gram/regression (paper: 1e5 per machine).
    pub n: usize,
    /// Data points per run for the distance workload (paper: 1e4/machine).
    pub n_dist: usize,
    /// Dimensionalities to sweep (paper: 10, 100, 1000).
    pub dims: Vec<usize>,
    /// Simulated workers (paper: 10 machines × 8 cores).
    pub workers: usize,
    /// Rows per block for block-based SQL (paper: 1000).
    pub block: usize,
    /// RNG seed.
    pub seed: u64,
    /// Quick mode: tiny sizes, for smoke-testing the harness.
    pub quick: bool,
    /// Exchange transport: `pointer` (zero-copy hand-off) or
    /// `serialized` (wire-encoded over channels); both count the same
    /// shuffle bytes.
    pub transport: TransportMode,
    /// When set, write a machine-readable `QueryProfile` JSON (lifecycle
    /// stage timings + per-operator estimate-vs-actual records) to this
    /// path at the end of the run.
    pub profile_json: Option<String>,
    /// Rows per column batch for the compiled engine; `None` inherits
    /// the default.
    pub batch_rows: Option<usize>,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            n: 20_000,
            n_dist: 1_500,
            dims: vec![10, 100, 1000],
            workers: 8,
            block: 1000,
            seed: 20170419, // ICDE 2017
            quick: false,
            transport: TransportMode::Pointer,
            profile_json: None,
            batch_rows: None,
        }
    }
}

impl Args {
    /// Parses `--key value` style arguments; unknown keys abort with usage.
    pub fn parse(argv: impl Iterator<Item = String>) -> Args {
        let mut args = Args::default();
        let mut it = argv.peekable();
        while let Some(flag) = it.next() {
            let mut value = |what: &str| -> String {
                it.next().unwrap_or_else(|| {
                    eprintln!("missing value for {what}");
                    std::process::exit(2);
                })
            };
            match flag.as_str() {
                "--n" => args.n = parse_num(&value("--n")),
                "--n-dist" => args.n_dist = parse_num(&value("--n-dist")),
                "--dims" => {
                    args.dims = value("--dims")
                        .split(',')
                        .map(|s| parse_num(s.trim()))
                        .collect();
                }
                "--workers" => args.workers = parse_num(&value("--workers")),
                "--block" => args.block = parse_num(&value("--block")),
                "--seed" => args.seed = parse_num(&value("--seed")) as u64,
                "--quick" => args.quick = true,
                "--transport" => {
                    args.transport = parse_transport(&value("--transport")).unwrap_or_else(|e| {
                        eprintln!("{e}");
                        std::process::exit(2);
                    });
                }
                "--profile-json" => args.profile_json = Some(value("--profile-json")),
                "--batch-rows" => {
                    args.batch_rows = Some(parse_num(&value("--batch-rows")).max(1));
                }
                "--help" | "-h" => {
                    eprintln!(
                        "options: --n N --n-dist N --dims 10,100,1000 --workers W \
                         --block B --seed S --transport pointer|serialized \
                         --profile-json PATH --batch-rows N --quick"
                    );
                    std::process::exit(0);
                }
                other => {
                    eprintln!("unknown flag {other}; try --help");
                    std::process::exit(2);
                }
            }
        }
        if args.quick {
            args.n = args.n.min(2_000);
            args.n_dist = args.n_dist.min(300);
            args.dims = args.dims.iter().map(|&d| d.min(100)).collect();
            args.block = args.block.min(100);
        }
        args
    }

    /// Parses from the process environment.
    pub fn from_env() -> Args {
        Args::parse(std::env::args().skip(1))
    }

    /// The engine knobs these args select, ready for
    /// [`crate::platforms::run_with_opts`].
    pub fn engine_opts(&self) -> crate::platforms::EngineOpts {
        crate::platforms::EngineOpts {
            transport: self.transport,
            batch_rows: self.batch_rows,
        }
    }
}

/// A `--transport` value, or the message that refuses it.
fn parse_transport(v: &str) -> Result<TransportMode, String> {
    TransportMode::parse(v).ok_or_else(|| format!("bad --transport '{v}' (pointer|serialized)"))
}

fn parse_num(s: &str) -> usize {
    // Allow 10_000 / 10k / 1m shorthands.
    let s = s.replace('_', "");
    let (mult, digits) = if let Some(d) = s.strip_suffix(['k', 'K']) {
        (1_000usize, d.to_string())
    } else if let Some(d) = s.strip_suffix(['m', 'M']) {
        (1_000_000usize, d.to_string())
    } else {
        (1, s)
    };
    digits.parse::<usize>().map(|v| v * mult).unwrap_or_else(|_| {
        eprintln!("bad numeric argument '{digits}'");
        std::process::exit(2);
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(v: &[&str]) -> Args {
        Args::parse(v.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults() {
        let a = parse(&[]);
        assert_eq!(a.dims, vec![10, 100, 1000]);
        assert_eq!(a.workers, 8);
    }

    #[test]
    fn overrides_and_shorthand() {
        let a = parse(&["--n", "5k", "--dims", "10,50", "--workers", "4", "--seed", "7"]);
        assert_eq!(a.n, 5000);
        assert_eq!(a.dims, vec![10, 50]);
        assert_eq!(a.workers, 4);
        assert_eq!(a.seed, 7);
    }

    #[test]
    fn transport_flag() {
        assert_eq!(parse(&[]).transport, TransportMode::Pointer);
        assert_eq!(
            parse(&["--transport", "serialized"]).transport,
            TransportMode::Serialized
        );
        assert_eq!(
            parse_transport("TCP").unwrap_err(),
            "bad --transport 'TCP' (pointer|serialized)"
        );
    }

    #[test]
    fn profile_json_flag() {
        assert_eq!(parse(&[]).profile_json, None);
        assert_eq!(
            parse(&["--profile-json", "out.json"]).profile_json,
            Some("out.json".to_string())
        );
    }

    #[test]
    fn engine_flags() {
        let a = parse(&[]);
        assert_eq!(a.batch_rows, None);
        let a = parse(&["--batch-rows", "512"]);
        assert_eq!(a.batch_rows, Some(512));
        assert_eq!(a.engine_opts().batch_rows, Some(512));
    }

    #[test]
    fn quick_caps_sizes() {
        let a = parse(&["--n", "1m", "--quick"]);
        assert!(a.n <= 2_000);
        assert!(a.dims.iter().all(|&d| d <= 100));
    }
}
