//! Shared command-line plumbing for the workspace binaries
//! (`phast_cli`, `loadgen`, `experiments`).
//!
//! The parser is a declarative flag table: each flag is `(name,
//! takes_value)`, and anything outside the table is an error — a typo
//! fails loudly instead of being silently ignored. All helpers return
//! `Err(String)` with enough context (the flag name, the file path) that
//! `error: {e}` on stderr is actionable on its own; none of them panic on
//! bad input.

use phast_ch::Hierarchy;
use phast_core::Phast;
use phast_graph::dimacs;
use phast_graph::Graph;
use phast_serve::ServeConfig;
use std::fs::File;
use std::io::BufReader;
use std::path::Path;
use std::time::Duration;

/// Parsed command-line flags, validated against a declarative spec.
#[derive(Debug)]
pub struct Flags<'a> {
    found: Vec<(&'static str, Option<&'a str>)>,
    positionals: Vec<&'a str>,
}

impl<'a> Flags<'a> {
    /// Parses `args` against `spec` (`(name, takes_value)` pairs),
    /// rejecting unknown flags and flags with a missing value.
    pub fn parse(args: &'a [String], spec: &[(&'static str, bool)]) -> Result<Self, String> {
        let mut found = Vec::new();
        let mut positionals = Vec::new();
        let mut iter = args.iter();
        while let Some(a) = iter.next() {
            // Flags start with `-` followed by a non-digit, so a negative
            // number still reads as a value / positional.
            let is_flag = a.len() > 1
                && a.starts_with('-')
                && !a[1..].starts_with(|c: char| c.is_ascii_digit());
            if !is_flag {
                positionals.push(a.as_str());
                continue;
            }
            match spec.iter().find(|(name, _)| *name == a.as_str()) {
                None => {
                    let known: Vec<&str> = spec.iter().map(|(n, _)| *n).collect();
                    return Err(format!(
                        "unknown flag `{a}` (expected one of: {})",
                        known.join(", ")
                    ));
                }
                Some(&(name, false)) => found.push((name, None)),
                Some(&(name, true)) => {
                    let v = iter
                        .next()
                        .ok_or_else(|| format!("missing value after {name}"))?;
                    found.push((name, Some(v.as_str())));
                }
            }
        }
        Ok(Self { found, positionals })
    }

    /// The value of `name`, if the flag was given with one.
    pub fn get(&self, name: &str) -> Option<&'a str> {
        self.found
            .iter()
            .find(|(n, _)| *n == name)
            .and_then(|(_, v)| *v)
    }

    /// Whether `name` was given at all.
    pub fn has(&self, name: &str) -> bool {
        self.found.iter().any(|(n, _)| *n == name)
    }

    /// The value of `name`, or an error naming the missing flag.
    pub fn require(&self, name: &str) -> Result<&'a str, String> {
        self.get(name)
            .ok_or_else(|| format!("missing {name} <value>"))
    }

    /// The first positional argument, or an error naming what it should
    /// have been (e.g. `"graph file"`).
    pub fn positional(&self, what: &str) -> Result<&'a str, String> {
        self.positionals
            .first()
            .copied()
            .ok_or_else(|| format!("missing {what}"))
    }
}

/// Parses a numeric flag value, naming the flag in the error.
pub fn parse_num<T: std::str::FromStr>(value: &str, what: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    value
        .parse()
        .map_err(|e| format!("invalid {what} `{value}`: {e}"))
}

/// Parses the common `--threads` knob: absent means `0`, which lets the
/// library fall back to `PHAST_THREADS` / the ambient rayon pool (see
/// `phast_ch::resolve_threads`).
pub fn parse_threads(f: &Flags) -> Result<usize, String> {
    match f.get("--threads") {
        Some(v) => parse_num(v, "--threads"),
        None => Ok(0),
    }
}

/// Opens a file for reading, naming the path in the error.
pub fn open_file(path: &str) -> Result<File, String> {
    File::open(path).map_err(|e| format!("cannot open `{path}`: {e}"))
}

/// Creates (truncating) a file for writing, naming the path in the error.
pub fn create_file(path: &str) -> Result<File, String> {
    File::create(path).map_err(|e| format!("cannot create `{path}`: {e}"))
}

/// Reads a DIMACS `.gr` graph, naming the path in parse errors.
pub fn load_graph(path: &str) -> Result<Graph, String> {
    dimacs::read_gr(BufReader::new(open_file(path)?))
        .map_err(|e| format!("cannot parse DIMACS graph `{path}`: {e}"))
}

/// Loads a preprocessed `.phast` artifact (and the hierarchy, if it
/// bundles one) through [`phast_store::load_instance_mmap`]: validated
/// once with full integrity checking, then *borrowed* from the page cache
/// where the file can be mapped. A damaged file, or one that is no
/// artifact at all, is a clean error, not a panic.
pub fn load_instance(path: &str) -> Result<(Phast, Option<Hierarchy>), String> {
    let loaded = phast_store::load_instance_mmap(Path::new(path))
        .map_err(|e| format!("cannot load artifact `{path}`: {e}"))?;
    if loaded.zero_copy {
        eprintln!("loaded `{path}` zero-copy (mmap)");
    }
    Ok((loaded.phast, loaded.hierarchy))
}

/// The scheduler / hardening flags every serve-shaped binary shares
/// (`phast_cli serve`, `loadgen`). Extend a command's flag table with
/// these, then build the config with [`serve_config_from_flags`].
pub const SERVE_FLAGS: [(&str, bool); 10] = [
    ("--k", true),
    ("--window-ms", true),
    ("--workers", true),
    ("--queue", true),
    ("--max-conns", true),
    ("--io-timeout-ms", true),
    ("--max-line-bytes", true),
    ("--shed-queue-depth", true),
    ("--shed-wait-ms", true),
    ("--epoch-history", true),
];

/// Builds a [`ServeConfig`] from the shared [`SERVE_FLAGS`], with
/// hardened parse errors (the offending flag and value are always named)
/// and range validation on every knob. Flags that were not given keep the
/// `ServeConfig::default()` value — except `--shed-queue-depth`, whose
/// default scales to 3/4 of the configured queue capacity.
pub fn serve_config_from_flags(f: &Flags) -> Result<ServeConfig, String> {
    let d = ServeConfig::default();
    let queue_capacity: usize = match f.get("--queue") {
        Some(v) => parse_num(v, "--queue")?,
        None => d.queue_capacity,
    };
    let cfg = ServeConfig {
        max_k: match f.get("--k") {
            Some(v) => parse_num(v, "--k")?,
            None => d.max_k,
        },
        window: Duration::from_millis(match f.get("--window-ms") {
            Some(v) => parse_num(v, "--window-ms")?,
            None => d.window.as_millis() as u64,
        }),
        queue_capacity,
        workers: match f.get("--workers") {
            Some(v) => parse_num(v, "--workers")?,
            None => d.workers,
        },
        shed_queue_depth: match f.get("--shed-queue-depth") {
            Some(v) => parse_num(v, "--shed-queue-depth")?,
            None => (queue_capacity / 4 * 3).max(1),
        },
        shed_wait: match f.get("--shed-wait-ms") {
            Some(v) => Some(Duration::from_millis(parse_num(v, "--shed-wait-ms")?)),
            None => d.shed_wait,
        },
        max_conns: match f.get("--max-conns") {
            Some(v) => parse_num(v, "--max-conns")?,
            None => d.max_conns,
        },
        io_timeout: Duration::from_millis(match f.get("--io-timeout-ms") {
            Some(v) => parse_num(v, "--io-timeout-ms")?,
            None => d.io_timeout.as_millis() as u64,
        }),
        max_line_bytes: match f.get("--max-line-bytes") {
            Some(v) => parse_num(v, "--max-line-bytes")?,
            None => d.max_line_bytes,
        },
        panic_on_source: None,
        // 0 is a legal value: it disables the rollback ring (and with it
        // the guard window's ability to auto-roll-back).
        epoch_history: match f.get("--epoch-history") {
            Some(v) => parse_num(v, "--epoch-history")?,
            None => d.epoch_history,
        },
    };
    if cfg.max_k == 0 || cfg.max_k > phast_core::simd::MAX_K {
        return Err(format!("--k must be in 1..={}", phast_core::simd::MAX_K));
    }
    if cfg.workers == 0 {
        return Err("--workers must be positive".into());
    }
    if cfg.queue_capacity == 0 {
        return Err("--queue must be positive".into());
    }
    if cfg.shed_queue_depth == 0 {
        return Err("--shed-queue-depth must be positive (set >= --queue to disable shedding)".into());
    }
    if cfg.max_conns == 0 {
        return Err("--max-conns must be positive".into());
    }
    if cfg.max_line_bytes < 64 {
        return Err("--max-line-bytes must be at least 64 (a minimal request line)".into());
    }
    Ok(cfg)
}

/// Checks a vertex id against the graph size, naming the flag on failure.
pub fn check_vertex(v: u32, n: usize, what: &str) -> Result<(), String> {
    if (v as usize) < n {
        Ok(())
    } else {
        Err(format!("{what} {v} out of range (graph has {n} vertices)"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn unknown_flag_is_an_error() {
        let a = args(&["--sorce", "3"]);
        let err = Flags::parse(&a, &[("--source", true)]).unwrap_err();
        assert!(err.contains("--sorce"), "{err}");
        assert!(err.contains("--source"), "{err}");
    }

    #[test]
    fn missing_value_is_an_error() {
        let a = args(&["--source"]);
        let err = Flags::parse(&a, &[("--source", true)]).unwrap_err();
        assert!(err.contains("--source"), "{err}");
    }

    #[test]
    fn negative_numbers_are_values_not_flags() {
        let a = args(&["--shift", "-3", "input.gr"]);
        let f = Flags::parse(&a, &[("--shift", true)]).unwrap();
        assert_eq!(f.get("--shift"), Some("-3"));
        assert_eq!(f.positional("graph file").unwrap(), "input.gr");
    }

    #[test]
    fn parse_num_names_the_flag() {
        let err = parse_num::<u32>("abc", "--source").unwrap_err();
        assert!(err.contains("--source") && err.contains("abc"), "{err}");
    }

    #[test]
    fn serve_config_defaults_and_overrides() {
        let a = args(&[]);
        let f = Flags::parse(&a, &SERVE_FLAGS).unwrap();
        let cfg = serve_config_from_flags(&f).unwrap();
        let d = ServeConfig::default();
        assert_eq!(cfg.max_k, d.max_k);
        assert_eq!(cfg.max_conns, d.max_conns);
        assert_eq!(cfg.shed_queue_depth, d.queue_capacity / 4 * 3);

        let a = args(&[
            "--k", "8", "--queue", "64", "--max-conns", "32", "--io-timeout-ms", "500",
            "--max-line-bytes", "4096", "--shed-queue-depth", "16", "--shed-wait-ms", "50",
            "--epoch-history", "2",
        ]);
        let f = Flags::parse(&a, &SERVE_FLAGS).unwrap();
        let cfg = serve_config_from_flags(&f).unwrap();
        assert_eq!(cfg.max_k, 8);
        assert_eq!(cfg.queue_capacity, 64);
        assert_eq!(cfg.max_conns, 32);
        assert_eq!(cfg.io_timeout, Duration::from_millis(500));
        assert_eq!(cfg.max_line_bytes, 4096);
        assert_eq!(cfg.shed_queue_depth, 16);
        assert_eq!(cfg.shed_wait, Some(Duration::from_millis(50)));
        assert_eq!(cfg.epoch_history, 2);

        // 0 legally disables the rollback ring; garbage is still named.
        let a = args(&["--epoch-history", "0"]);
        let f = Flags::parse(&a, &SERVE_FLAGS).unwrap();
        assert_eq!(serve_config_from_flags(&f).unwrap().epoch_history, 0);
        let a = args(&["--epoch-history", "many"]);
        let f = Flags::parse(&a, &SERVE_FLAGS).unwrap();
        let err = serve_config_from_flags(&f).unwrap_err();
        assert!(err.contains("--epoch-history"), "{err}");
    }

    #[test]
    fn serve_config_rejects_hostile_values_with_the_flag_named() {
        for (flags, needle) in [
            (vec!["--k", "0"], "--k"),
            (vec!["--k", "banana"], "banana"),
            (vec!["--workers", "0"], "--workers"),
            (vec!["--queue", "0"], "--queue"),
            (vec!["--max-conns", "0"], "--max-conns"),
            (vec!["--max-line-bytes", "8"], "--max-line-bytes"),
            (vec!["--shed-queue-depth", "0"], "--shed-queue-depth"),
            (vec!["--io-timeout-ms", "-7"], "--io-timeout-ms"),
            (vec!["--max-conns", "999999999999999999999999"], "--max-conns"),
        ] {
            let a = args(&flags);
            let f = Flags::parse(&a, &SERVE_FLAGS).unwrap();
            let err = serve_config_from_flags(&f).unwrap_err();
            assert!(err.contains(needle), "{flags:?}: {err}");
        }
    }

    #[test]
    fn check_vertex_names_flag_and_bound() {
        assert!(check_vertex(3, 4, "--from").is_ok());
        let err = check_vertex(4, 4, "--from").unwrap_err();
        assert!(err.contains("--from") && err.contains('4'), "{err}");
    }
}
