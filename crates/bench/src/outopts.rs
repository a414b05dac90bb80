//! Shared command-line handling for the bench binaries: the output flags
//! every binary accepts, and typed argument helpers that reject a value
//! which does not parse instead of falling back to the default.
//!
//! Every binary in `src/bin/` accepts the same output flags:
//!
//! * `--metrics-out PATH` — write a telemetry [`Snapshot`] (counters,
//!   gauges, histogram percentiles, event journal).
//! * `--metrics-format json|prom` — the serialization for
//!   `--metrics-out`: single-line JSON (default) or Prometheus text
//!   exposition. Audit-only series are redacted in both.
//! * `--trace-out PATH` — write the causal span journal as Chrome
//!   trace-event JSON, loadable in <https://ui.perfetto.dev> or
//!   `chrome://tracing`.
//! * `--threads N` — worker threads for the deterministic parallel
//!   pipeline (default 1 = serial). Thread count never changes results,
//!   only wall-clock time.
//!
//! [`OutputOpts::extract`] strips both flag pairs from an argument vector
//! (so positional parsing stays untouched), [`OutputOpts::registry`] builds
//! the registry the run should report into (tracing pre-enabled iff a trace
//! was requested), and [`OutputOpts::write`] emits whatever was asked for.

use std::path::PathBuf;
use std::str::FromStr;

use fedora_telemetry::{Registry, Snapshot};

/// Serialization format for `--metrics-out`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum MetricsFormat {
    /// Single-line JSON (`fedora-telemetry/v1`), the default.
    #[default]
    Json,
    /// Prometheus text exposition (`fedora_*` series).
    Prom,
}

impl MetricsFormat {
    /// Parses a `--metrics-format` value.
    ///
    /// # Errors
    ///
    /// Returns a message naming the accepted values.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "json" => Ok(MetricsFormat::Json),
            "prom" | "prometheus" => Ok(MetricsFormat::Prom),
            other => Err(format!("unknown metrics format '{other}' (json|prom)")),
        }
    }

    /// Writes `snapshot` to `path` in this format.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn write(self, snapshot: &Snapshot, path: &std::path::Path) -> std::io::Result<()> {
        match self {
            MetricsFormat::Json => snapshot.write_json(path),
            MetricsFormat::Prom => snapshot.write_prometheus(path),
        }
    }
}

/// Parsed output flags shared by every bench binary.
#[derive(Clone, Debug, Default)]
pub struct OutputOpts {
    /// Where to write the metrics snapshot, if requested.
    pub metrics_out: Option<PathBuf>,
    /// Serialization for `metrics_out` (JSON unless `--metrics-format`).
    pub metrics_format: MetricsFormat,
    /// Where to write the Chrome trace-event JSON, if requested.
    pub trace_out: Option<PathBuf>,
    /// Worker threads (`--threads N`); `None` means the binary's default
    /// (serial). Thread count never changes results — only wall-clock time.
    pub threads: Option<usize>,
}

impl OutputOpts {
    /// Strips `--metrics-out PATH`, `--metrics-format FMT`, and
    /// `--trace-out PATH` pairs out of `args`, leaving any positional
    /// arguments in place.
    ///
    /// # Errors
    ///
    /// Returns a message when a flag is present without a value, or the
    /// format value is unknown.
    pub fn extract(args: &mut Vec<String>) -> Result<Self, String> {
        let metrics_out = take_flag(args, "--metrics-out")?;
        let format: Option<String> = take_flag(args, "--metrics-format")?;
        let trace_out = take_flag(args, "--trace-out")?;
        let threads: Option<usize> = take_flag(args, "--threads")?;
        if threads == Some(0) {
            return Err("--threads needs a positive integer, got '0'".to_owned());
        }
        let metrics_format = match format {
            Some(fmt) => MetricsFormat::parse(&fmt)?,
            None => MetricsFormat::default(),
        };
        Ok(OutputOpts {
            metrics_out,
            metrics_format,
            trace_out,
            threads,
        })
    }

    /// The worker-thread count to use: the `--threads` value, or 1.
    pub fn threads_or_serial(&self) -> usize {
        self.threads.unwrap_or(1)
    }

    /// Extracts the flags from the process arguments (after the binary
    /// name), exiting with a usage error on a dangling flag. Returns the
    /// options plus the remaining positional arguments.
    pub fn from_env() -> (Self, Vec<String>) {
        let mut args: Vec<String> = std::env::args().skip(1).collect();
        match Self::extract(&mut args) {
            Ok(opts) => (opts, args),
            Err(msg) => {
                eprintln!("error: {msg}");
                std::process::exit(2);
            }
        }
    }

    /// An enabled registry for the run, with causal tracing pre-enabled
    /// when `--trace-out` asked for a trace.
    pub fn registry(&self) -> Registry {
        let registry = Registry::new();
        if self.trace_out.is_some() {
            registry.set_tracing(true);
        }
        registry
    }

    /// True when either output was requested.
    pub fn any(&self) -> bool {
        self.metrics_out.is_some() || self.trace_out.is_some()
    }

    /// Writes the requested outputs from `snapshot`, printing one line per
    /// file written.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures with the offending path in the message.
    pub fn write(&self, snapshot: &Snapshot) -> Result<(), String> {
        if let Some(path) = &self.metrics_out {
            self.metrics_format
                .write(snapshot, path)
                .map_err(|e| format!("--metrics-out {}: {e}", path.display()))?;
            println!("metrics written to {}", path.display());
        }
        if let Some(path) = &self.trace_out {
            snapshot
                .write_chrome_trace(path)
                .map_err(|e| format!("--trace-out {}: {e}", path.display()))?;
            println!(
                "trace written to {} (load in https://ui.perfetto.dev)",
                path.display()
            );
        }
        Ok(())
    }

    /// Convenience wrapper: write and exit(1) on failure, for binaries
    /// without their own error plumbing.
    pub fn write_or_die(&self, snapshot: &Snapshot) {
        if let Err(msg) = self.write(snapshot) {
            eprintln!("error: {msg}");
            std::process::exit(1);
        }
    }
}

/// Removes `flag VALUE` from `args` and returns `VALUE` parsed as `T`, or
/// `None` when `flag` is absent.
///
/// # Errors
///
/// Returns a message naming `flag` when the value is missing or does not
/// parse.
pub fn take_flag<T: FromStr>(args: &mut Vec<String>, flag: &str) -> Result<Option<T>, String> {
    let Some(pos) = args.iter().position(|a| a == flag) else {
        return Ok(None);
    };
    if pos + 1 >= args.len() {
        return Err(format!("{flag} needs a value"));
    }
    let value = args.remove(pos + 1);
    args.remove(pos);
    parse_arg(&value, flag).map(Some)
}

/// Positional argument `index` (called `name` in errors) parsed as `T`,
/// or `None` when there are fewer arguments.
///
/// # Errors
///
/// Returns a message naming the argument when it does not parse.
pub fn positional<T: FromStr>(
    args: &[String],
    index: usize,
    name: &str,
) -> Result<Option<T>, String> {
    args.get(index)
        .map(|value| parse_arg(value, name))
        .transpose()
}

fn parse_arg<T: FromStr>(value: &str, name: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("invalid value '{value}' for {name}"))
}

/// Prints `error: msg` and the binary's usage text, then exits with
/// status 2.
pub fn usage_exit(msg: &str, usage: &str) -> ! {
    eprintln!("error: {msg}\n\n{usage}");
    std::process::exit(2);
}

/// Lower-cases a free-form label into a dotted-metric-safe segment
/// (alphanumerics kept, everything else collapsed to single `_`).
pub fn metric_label(label: &str) -> String {
    let mut out = String::with_capacity(label.len());
    let mut pending_sep = false;
    for c in label.chars() {
        if c.is_ascii_alphanumeric() {
            if pending_sep && !out.is_empty() {
                out.push('_');
            }
            pending_sep = false;
            out.push(c.to_ascii_lowercase());
        } else {
            pending_sep = true;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extract_strips_both_flag_pairs() {
        let mut args: Vec<String> = [
            "40",
            "--metrics-out",
            "m.json",
            "7",
            "--trace-out",
            "t.json",
        ]
        .iter()
        .map(|s| (*s).to_owned())
        .collect();
        let opts = OutputOpts::extract(&mut args).unwrap();
        assert_eq!(args, vec!["40".to_owned(), "7".to_owned()]);
        assert_eq!(opts.metrics_out, Some(PathBuf::from("m.json")));
        assert_eq!(opts.trace_out, Some(PathBuf::from("t.json")));
        assert!(opts.any());
    }

    #[test]
    fn extract_rejects_dangling_flag() {
        let mut args = vec!["--trace-out".to_owned()];
        assert!(OutputOpts::extract(&mut args).is_err());
    }

    #[test]
    fn extract_parses_threads() {
        let mut args: Vec<String> = ["8", "--threads", "4"]
            .iter()
            .map(|s| (*s).to_owned())
            .collect();
        let opts = OutputOpts::extract(&mut args).unwrap();
        assert_eq!(args, vec!["8".to_owned()]);
        assert_eq!(opts.threads, Some(4));
        assert_eq!(opts.threads_or_serial(), 4);
        assert_eq!(OutputOpts::default().threads_or_serial(), 1);
        for bad in ["0", "x"] {
            let mut args: Vec<String> = vec!["--threads".to_owned(), bad.to_owned()];
            assert!(OutputOpts::extract(&mut args).is_err(), "{bad}");
        }
    }

    #[test]
    fn extract_parses_metrics_format() {
        let mut args: Vec<String> = ["--metrics-format", "prom", "--metrics-out", "m.prom"]
            .iter()
            .map(|s| (*s).to_owned())
            .collect();
        let opts = OutputOpts::extract(&mut args).unwrap();
        assert!(args.is_empty());
        assert_eq!(opts.metrics_format, MetricsFormat::Prom);
        assert_eq!(
            OutputOpts::extract(&mut vec![]).unwrap().metrics_format,
            MetricsFormat::Json
        );
        for format in ["xml", "csv"] {
            let mut bad: Vec<String> = vec!["--metrics-format".to_owned(), format.to_owned()];
            assert!(OutputOpts::extract(&mut bad).is_err(), "{format}");
        }
    }

    #[test]
    fn format_writers_match_exporters() {
        let r = Registry::new();
        r.counter("storage.pages_read").add(3);
        let snap = r.snapshot_lite();
        let dir = std::env::temp_dir();
        for (fmt, name, needle) in [
            (MetricsFormat::Json, "m.json", "\"storage.pages_read\":3"),
            (MetricsFormat::Prom, "m.prom", "fedora_storage_pages_read 3"),
        ] {
            let path = dir.join(format!("fedora-outopts-{}-{name}", std::process::id()));
            fmt.write(&snap, &path).unwrap();
            let text = std::fs::read_to_string(&path).unwrap();
            assert!(text.contains(needle), "{fmt:?}: {text}");
            let _ = std::fs::remove_file(&path);
        }
    }

    #[test]
    fn registry_enables_tracing_only_for_trace_out() {
        let plain = OutputOpts::default();
        assert!(!plain.registry().tracing_enabled());
        let traced = OutputOpts {
            trace_out: Some(PathBuf::from("t.json")),
            ..Default::default()
        };
        assert!(traced.registry().tracing_enabled());
    }

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn take_flag_parses_or_names_the_bad_value() {
        let mut args = strings(&["a", "--rounds", "12", "--seed", "x"]);
        assert_eq!(take_flag::<usize>(&mut args, "--rounds"), Ok(Some(12)));
        assert_eq!(args, strings(&["a", "--seed", "x"]));
        assert_eq!(take_flag::<usize>(&mut args, "--rounds"), Ok(None));
        let err = take_flag::<u64>(&mut args, "--seed").unwrap_err();
        assert!(err.contains("--seed") && err.contains("'x'"), "{err}");
        let mut eps = strings(&["--epsilon", "0.5"]);
        assert_eq!(take_flag::<f64>(&mut eps, "--epsilon"), Ok(Some(0.5)));
        let mut dangling = strings(&["--out"]);
        assert!(take_flag::<String>(&mut dangling, "--out").is_err());
    }

    #[test]
    fn positional_parses_or_names_the_bad_value() {
        let args = strings(&["2", "seven"]);
        assert_eq!(positional::<u64>(&args, 0, "cycles"), Ok(Some(2)));
        assert_eq!(positional::<u64>(&args, 2, "rate"), Ok(None));
        let err = positional::<u64>(&args, 1, "seed").unwrap_err();
        assert!(err.contains("seed") && err.contains("'seven'"), "{err}");
    }

    #[test]
    fn metric_label_collapses_punctuation() {
        assert_eq!(metric_label("Zipf(1.2) / hot"), "zipf_1_2_hot");
        assert_eq!(metric_label("uniform"), "uniform");
    }
}
