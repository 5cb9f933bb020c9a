//! Shared harness support for the experiment binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the paper
//! (see DESIGN.md §3 for the index). They all follow the same shape:
//! sweep a parameter grid, print an aligned table to stdout, and write a
//! CSV into `results/` for plotting.
//!
//! # Observability
//!
//! The harness is wired into `dcn-obs`: every [`Table::finish`] writes a
//! `results/<name>.manifest.json` sidecar capturing the RNG seed (when the
//! binary reported one via [`set_run_seed`]), the CLI arguments, the wall
//! time since process start, and a full dump of the metrics registry. With
//! `DCN_OBS=summary` (or `trace`) [`run_guarded`] also prints the registry
//! summary to stderr, once per run; with the default `DCN_OBS=off`, stdout
//! stays byte-identical to the plain tables.
//!
//! With `DCN_TRACE_FILE=<path>` (or `DCN_OBS=trace`) the harness also
//! starts the `dcn_obs::trace` per-event recorder at startup and flushes
//! a Chrome `trace_event` JSON file at manifest time — see DESIGN.md §12.

use std::fmt::Display;
use std::fs;
use std::path::PathBuf;
#[expect(clippy::disallowed_types, reason = "set once, then only read")]
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Error from locating or creating the results directory.
#[derive(Debug)]
pub struct ResultsDirError {
    /// The directory that could not be created.
    pub path: PathBuf,
    /// The underlying IO error.
    pub source: std::io::Error,
}

impl Display for ResultsDirError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "cannot create results dir {}: {}",
            self.path.display(),
            self.source
        )
    }
}

impl std::error::Error for ResultsDirError {}

/// Locates (and creates) the results directory.
///
/// Defaults to `results/` at the workspace root; the `DCN_RESULTS_DIR`
/// environment variable overrides the location (useful for CI and for
/// keeping scratch runs out of the tree).
pub fn results_dir() -> Result<PathBuf, ResultsDirError> {
    let dir = match dcn_obs::env::RESULTS_DIR.get_os() {
        Some(d) => PathBuf::from(d),
        None => {
            // CARGO_MANIFEST_DIR = crates/bench; the workspace root is two up.
            PathBuf::from(env!("CARGO_MANIFEST_DIR"))
                .parent()
                .and_then(|p| p.parent())
                .expect("workspace root")
                .join("results")
        }
    };
    fs::create_dir_all(&dir).map_err(|source| ResultsDirError {
        path: dir.clone(),
        source,
    })?;
    Ok(dir)
}

#[expect(
    clippy::disallowed_methods,
    reason = "wall-clock anchor for human-facing progress lines only; never feeds solver results"
)]
fn process_start() -> Instant {
    static START: OnceLock<Instant> = OnceLock::new();
    *START.get_or_init(Instant::now)
}

static PANIC_FLUSH_NAME: OnceLock<std::sync::Mutex<String>> = OnceLock::new();

/// Installs (once per process) a panic hook that flushes the partial run
/// manifest and any buffered trace events before the process dies, and
/// records `name` as the run the hook reports under. Without this, a
/// panicking experiment binary drops its trace on the floor; with it, the
/// post-mortem lands in `results/<name>.panic.manifest.json` (and
/// `<name>.panic.trace.json` when tracing is active). The previous hook
/// (the default backtrace printer) still runs first.
pub fn install_panic_flush(name: &str) {
    let cell = PANIC_FLUSH_NAME.get_or_init(|| std::sync::Mutex::new(String::new()));
    *cell.lock().unwrap_or_else(|poisoned| poisoned.into_inner()) = name.to_string();
    static INSTALL: std::sync::Once = std::sync::Once::new();
    INSTALL.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            prev(info);
            let name = PANIC_FLUSH_NAME
                .get()
                .map(|cell| cell.lock().unwrap_or_else(|p| p.into_inner()).clone())
                .unwrap_or_default();
            if !name.is_empty() {
                write_run_files(&name, ".panic");
            }
        }));
    });
}

#[expect(clippy::disallowed_types, reason = "set once, then only read")]
static RUN_SEED: AtomicU64 = AtomicU64::new(u64::MAX);

/// Records the RNG seed this run is based on, for the manifest sidecar.
/// Call once near the top of `main`.
pub fn set_run_seed(seed: u64) {
    RUN_SEED.store(seed, Ordering::Relaxed);
}

/// The seed recorded by [`set_run_seed`], if any.
pub fn run_seed() -> Option<u64> {
    match RUN_SEED.load(Ordering::Relaxed) {
        u64::MAX => None,
        s => Some(s),
    }
}

/// Captures the run manifest and writes it to
/// `results/<name><suffix>.manifest.json`; when tracing is active, also
/// flushes the trace, to `DCN_TRACE_FILE` on a normal exit or else to
/// `results/<name><suffix>.trace.json`. A normal exit passes an empty
/// suffix and logs only under `DCN_OBS`; the panic hook passes `.panic`
/// and reports on stderr. Never panics — it runs inside the panic hook —
/// so every failure degrades to a stderr line. Flushing rewrites the
/// trace with all events so far, so in a binary with several tables the
/// last flush wins with the full trace.
fn write_run_files(name: &str, suffix: &str) {
    let panicking = !suffix.is_empty();
    // Fold cache hit/miss counters into the `cache.hit_rate` gauge so the
    // manifest's metrics dump records the run's hit rate.
    dcn_cache::publish_hit_rate();
    let wall = process_start().elapsed().as_secs_f64();
    let manifest = dcn_obs::manifest::RunManifest::capture(
        name,
        run_seed(),
        wall,
        dcn_exec::Pool::from_env().threads(),
    );
    let dir = match results_dir() {
        Ok(dir) => Some(dir),
        Err(e) => {
            eprintln!("{e}");
            None
        }
    };
    if let Some(dir) = &dir {
        let mpath = dir.join(format!("{name}{suffix}.manifest.json"));
        match manifest.write_to(&mpath) {
            Ok(()) if panicking => {
                eprintln!(
                    "{name}: panic: partial manifest flushed to {}",
                    mpath.display()
                );
            }
            Ok(()) => dcn_obs::obs_log!("wrote {}", mpath.display()),
            Err(e) => eprintln!("{name}: manifest write failed: {e}"),
        }
    }
    if !dcn_obs::trace::active() {
        return;
    }
    let tpath = match (dcn_obs::env::TRACE_FILE.get_os(), dir) {
        (Some(path), _) if !panicking => PathBuf::from(path),
        (_, Some(dir)) => dir.join(format!("{name}{suffix}.trace.json")),
        (_, None) => return,
    };
    match dcn_obs::trace::flush_to_file(&tpath) {
        Ok(n) if panicking => {
            eprintln!(
                "{name}: panic: flushed {n} trace events to {}",
                tpath.display()
            );
        }
        Ok(n) => dcn_obs::obs_log!("wrote {} ({n} events)", tpath.display()),
        Err(e) => eprintln!("{name}: trace flush failed: {e}"),
    }
}

/// A simple result table that renders aligned text and CSV.
pub struct Table {
    name: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a named table with the given column headers.
    pub fn new(name: &str, header: &[&str]) -> Self {
        // Pin the wall-clock origin as early as table creation in case the
        // binary never called into the harness before, install the
        // per-event trace recorder when the environment asks for one, and
        // arm the panic hook so a mid-sweep abort still flushes.
        process_start();
        dcn_obs::trace::init_from_env();
        install_panic_flush(name);
        Table {
            name: name.to_string(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row (must match the header arity).
    pub fn row(&mut self, cells: &[&dyn Display]) {
        assert_eq!(cells.len(), self.header.len(), "row arity mismatch");
        self.rows
            .push(cells.iter().map(|c| format!("{c}")).collect());
    }

    /// Prints an aligned table to stdout.
    pub fn print(&self) {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row.iter()) {
                *w = (*w).max(cell.len());
            }
        }
        let line = |cells: &[String]| {
            let joined: Vec<String> = cells
                .iter()
                .zip(widths.iter())
                .map(|(c, w)| format!("{c:>w$}"))
                .collect();
            println!("  {}", joined.join("  "));
        };
        println!("== {} ==", self.name);
        line(&self.header);
        for row in &self.rows {
            line(row);
        }
        println!();
    }

    /// Writes the table as `results/<name>.csv`.
    pub fn write_csv(&self) -> Result<(), Box<dyn std::error::Error>> {
        let path = results_dir()?.join(format!("{}.csv", self.name));
        let mut csv = self.header.join(",") + "\n";
        for row in &self.rows {
            csv += &row.join(",");
            csv.push('\n');
        }
        fs::write(&path, csv).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        dcn_obs::obs_log!("wrote {}", path.display());
        Ok(())
    }

    /// Print + CSV + manifest sidecar in one call. The manifest (and an
    /// explicit `DCN_TRACE_FILE`) is written even when the CSV cannot be;
    /// the CSV's error is returned, so the binary exits non-zero.
    pub fn finish(&self) -> Result<(), Box<dyn std::error::Error>> {
        self.print();
        let csv = self.write_csv();
        write_run_files(&self.name, "");
        csv
    }
}

/// The process-wide solver cache shared by every call site in an
/// experiment binary, built once from the environment
/// (`DCN_CACHE_BYTES` / `DCN_CACHE_DIR`). Returning clones of one
/// handle — rather than calling [`dcn_cache::CacheHandle::from_env`]
/// per call site — is what lets a binary's repeated sub-sweeps share
/// the in-memory tier.
pub fn cache() -> dcn_cache::CacheHandle {
    static CACHE: OnceLock<dcn_cache::CacheHandle> = OnceLock::new();
    CACHE.get_or_init(dcn_cache::CacheHandle::from_env).clone()
}

/// Times a closure under an obs span, returning `(result, seconds)`.
/// Timing is measured regardless of mode; the span is recorded only when
/// observability is on.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    dcn_obs::time_scope(dcn_obs::names::BENCH_TIMED, f)
}

/// True when `--quick` was passed (smaller sweeps for CI-style runs).
pub fn quick_mode() -> bool {
    std::env::args().any(|a| a == "--quick")
}

/// True when `--large` was passed (extended sweeps).
pub fn large_mode() -> bool {
    std::env::args().any(|a| a == "--large")
}

/// Formats a float with 3 decimals for table cells.
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

/// Runs an experiment body that may fail, turning errors into a short
/// stderr diagnostic and a non-zero [`std::process::ExitCode`] instead of
/// a panic backtrace. Experiment binaries wrap their `main` logic in this
/// so that an infeasible configuration (or an exhausted budget) exits
/// cleanly and scripted sweeps can tell "experiment failed" from
/// "experiment crashed". Under `DCN_OBS=summary` (or `trace`) it prints
/// the registry summary once the body returns, with success or an error.
pub fn run_guarded(
    name: &str,
    body: impl FnOnce() -> Result<(), Box<dyn std::error::Error>>,
) -> std::process::ExitCode {
    // Anchor the wall clock, install the trace recorder, and arm the
    // panic-flush hook before any experiment work runs, so traces cover
    // the whole body and survive a panicking one.
    process_start();
    dcn_obs::trace::init_from_env();
    install_panic_flush(name);
    let result = body();
    if dcn_obs::enabled() {
        eprint!("{}", dcn_obs::summary());
    }
    match result {
        Ok(()) => std::process::ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{name}: error: {e}");
            let mut src = e.source();
            while let Some(s) = src {
                eprintln!("{name}:   caused by: {s}");
                src = s.source();
            }
            std::process::ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_round_trip() {
        let mut t = Table::new("unit_test_table", &["a", "b"]);
        t.row(&[&1, &f3(0.5)]);
        t.row(&[&22, &"x"]);
        t.print();
        t.write_csv().unwrap();
        let path = results_dir().unwrap().join("unit_test_table.csv");
        let content = std::fs::read_to_string(&path).unwrap();
        assert_eq!(content, "a,b\n1,0.500\n22,x\n");
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn timing_positive() {
        let (v, s) = timed(|| 42);
        assert_eq!(v, 42);
        assert!(s >= 0.0);
    }

    #[test]
    fn finish_writes_manifest_sidecar() {
        let mut t = Table::new("unit_test_manifest", &["x"]);
        t.row(&[&1]);
        t.finish().unwrap();
        let dir = results_dir().unwrap();
        let mpath = dir.join("unit_test_manifest.manifest.json");
        let text = std::fs::read_to_string(&mpath).unwrap();
        let m = dcn_obs::manifest::RunManifest::from_json(&text).unwrap();
        assert_eq!(m.name, "unit_test_manifest");
        assert!(m.wall_seconds >= 0.0);
        std::fs::remove_file(mpath).unwrap();
        let _ = std::fs::remove_file(dir.join("unit_test_manifest.csv"));
    }

    #[test]
    fn run_seed_round_trips() {
        assert_eq!(run_seed(), None);
        set_run_seed(42);
        assert_eq!(run_seed(), Some(42));
    }
}
