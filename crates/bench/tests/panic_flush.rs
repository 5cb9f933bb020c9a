//! An experiment must flush its buffered trace events whether it ends
//! normally or dies mid-cell. A panicking body must also flush its partial
//! manifest: the post-mortem a human (or a sweep script) reads after a run
//! dies. A run that cannot write its CSV must fail, and only
//! `DCN_OBS=trace` prints `obs_log!` lines.
//!
//! Each run happens in a child process (this test binary re-invoked with
//! an env gate), because the tracer, the obs mode and the panic hook are
//! process-global state, and the panicking child's job is to die.

#![expect(
    clippy::disallowed_methods,
    reason = "the test re-invokes its own binary as a child process, gated by an env var"
)]

use dcn_obs::json::Json;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Output};

const WORKER_ENV: &str = "DCN_BENCH_TEST_PANIC_DIR";
const TABLE_ENV: &str = "DCN_BENCH_TEST_TABLE_DIR";

/// Child-process entrypoint (gated on [`WORKER_ENV`]); a no-op in the
/// normal suite. Panics mid-"sweep" under `run_guarded`.
#[test]
fn panicking_body_entry() {
    if std::env::var(WORKER_ENV).is_err() {
        return;
    }
    let _ = dcn_bench::run_guarded("panic_probe", || {
        dcn_obs::counter!(dcn_obs::names::CACHE_MISS).inc();
        panic!("deliberate mid-sweep abort");
    });
    unreachable!("run_guarded body must have panicked");
}

#[test]
fn panic_flushes_manifest_and_trace() {
    let dir = std::env::temp_dir().join(format!("dcn-bench-panic-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create results dir");

    let out = Command::new(std::env::current_exe().expect("current_exe"))
        .args(["panicking_body_entry", "--exact", "--nocapture"])
        .env(WORKER_ENV, "1")
        .env("DCN_RESULTS_DIR", &dir)
        .env("DCN_TRACE_FILE", dir.join("panic_probe.trace.json"))
        .output()
        .expect("spawn panicking child");
    assert!(
        !out.status.success(),
        "the child is supposed to die panicking"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("deliberate mid-sweep abort"),
        "default panic reporting must still run first: {stderr}"
    );

    // The hook flushed a partial manifest …
    let mpath: PathBuf = dir.join("panic_probe.panic.manifest.json");
    let manifest = std::fs::read_to_string(&mpath).expect("panic manifest written");
    let json = dcn_obs::json::Json::parse(&manifest).expect("panic manifest parses");
    assert_eq!(
        json.get("name").and_then(dcn_obs::json::Json::as_str),
        Some("panic_probe")
    );
    // … including metrics counted before the abort.
    assert!(
        manifest.contains("cache.miss"),
        "pre-panic metrics missing from flushed manifest: {manifest}"
    );

    // Tracing was active (DCN_TRACE_FILE), so the buffered events were
    // flushed too.
    let tpath = dir.join("panic_probe.panic.trace.json");
    let trace = std::fs::read_to_string(&tpath).expect("panic trace written");
    dcn_obs::json::Json::parse(&trace).expect("panic trace parses");
    assert!(stderr.contains("panic: partial manifest flushed"), "{stderr}");

    let _ = std::fs::remove_dir_all(&dir);
}

/// Child-process entrypoint (gated on [`TABLE_ENV`]); a no-op in the
/// normal suite. Finishes a one-row table under `run_guarded`, with one
/// span inside the run, and exits 1 when the run fails.
#[test]
fn finished_table_entry() {
    if std::env::var(TABLE_ENV).is_err() {
        return;
    }
    let code = dcn_bench::run_guarded("trace_probe", || {
        let mut t = dcn_bench::Table::new("trace_probe", &["cell", "value"]);
        let (value, _) = dcn_bench::timed(|| 6 * 7);
        t.row(&[&"answer", &value]);
        t.finish()
    });
    if code != ExitCode::SUCCESS {
        std::process::exit(1);
    }
}

/// Runs [`finished_table_entry`] in a child with `DCN_RESULTS_DIR=results`
/// and `DCN_OBS=obs`, traced to `trace` when given.
fn table_child(results: &Path, trace: Option<&Path>, obs: &str) -> Output {
    let mut cmd = Command::new(std::env::current_exe().expect("current_exe"));
    cmd.args(["finished_table_entry", "--exact", "--nocapture"])
        .env(TABLE_ENV, "1")
        .env("DCN_RESULTS_DIR", results)
        .env("DCN_OBS", obs)
        .env_remove("DCN_TRACE_FILE");
    if let Some(trace) = trace {
        cmd.env("DCN_TRACE_FILE", trace);
    }
    cmd.output().expect("spawn table child")
}

/// [`table_child`] with its results in a fresh `dir`; the run must
/// succeed. Returns the table block of its stdout (the test harness's own
/// lines carry timings), its CSV and its stderr.
fn finish_table_in_child(dir: &Path, trace: Option<&Path>, obs: &str) -> (String, String, String) {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).expect("create results dir");
    let out = table_child(dir, trace, obs);
    assert!(out.status.success(), "table child failed: {out:?}");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    let start = stdout.find("== trace_probe ==").expect("table printed");
    let len = stdout[start..].find("\n\n").expect("table block ends") + 2;
    let csv = std::fs::read_to_string(dir.join("trace_probe.csv")).expect("csv written");
    let stderr = String::from_utf8(out.stderr).expect("utf-8 stderr");
    (stdout[start..start + len].to_string(), csv, stderr)
}

/// `obs_log!` lines belong to `DCN_OBS=trace`: a `summary` run prints the
/// registry summary and no `wrote` line, and a `trace` run names the CSV
/// it wrote.
#[test]
fn wrote_lines_are_trace_only() {
    let root = std::env::temp_dir().join(format!("dcn-bench-obs-{}", std::process::id()));
    let (_, _, summary) = finish_table_in_child(&root.join("summary"), None, "summary");
    assert!(
        summary.contains("-- dcn-obs summary (mode=summary) --"),
        "{summary}"
    );
    assert!(!summary.contains("wrote "), "{summary}");

    let dir = root.join("trace");
    let (_, _, trace) = finish_table_in_child(&dir, None, "trace");
    let csv = dir.join("trace_probe.csv");
    assert!(
        trace.contains(&format!("wrote {}", csv.display())),
        "{trace}"
    );
    let _ = std::fs::remove_dir_all(&root);
}

/// A results dir that cannot be created fails the run with a message
/// instead of a panic, so a sweep script sees the failure.
#[test]
fn unwritable_results_dir_fails_the_run() {
    let root = std::env::temp_dir().join(format!("dcn-bench-nodir-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).expect("create scratch dir");
    let file = root.join("file");
    std::fs::write(&file, "").expect("create a regular file");

    let out = table_child(&file.join("results"), None, "off");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "the run must fail: {stderr}");
    assert!(stderr.contains("cannot create results dir"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn normal_exit_exports_trace_without_changing_output() {
    let root = std::env::temp_dir().join(format!("dcn-bench-trace-{}", std::process::id()));
    let trace = root.join("trace_probe.trace.json");
    let traced = finish_table_in_child(&root.join("traced"), Some(&trace), "off");
    let plain = finish_table_in_child(&root.join("plain"), None, "off");
    assert_eq!(traced, plain, "tracing changed stdout, the CSV or stderr");
    assert_eq!(plain.1, "cell,value\nanswer,42\n");

    let text = std::fs::read_to_string(&trace).expect("trace written on a normal exit");
    let json = Json::parse(&text).expect("trace parses");
    let Some(Json::Arr(events)) = json.get("traceEvents") else {
        panic!("no traceEvents array: {text}");
    };
    // Every `E` closes the innermost open `B` of its thread, and nothing
    // stays open.
    let mut open: Vec<(u64, String)> = Vec::new();
    let mut spans = Vec::new();
    for e in events {
        let field = |k: &str| {
            e.get(k)
                .and_then(Json::as_str)
                .unwrap_or_default()
                .to_string()
        };
        let tid = e.get("tid").and_then(Json::as_f64).expect("tid") as u64;
        match field("ph").as_str() {
            "B" => open.push((tid, field("name"))),
            "E" => {
                let at = open
                    .iter()
                    .rposition(|(t, _)| *t == tid)
                    .expect("E without B");
                let (_, name) = open.remove(at);
                assert_eq!(name, field("name"), "E closes another span");
                spans.push(name);
            }
            _ => {}
        }
    }
    assert!(open.is_empty(), "unclosed spans: {open:?}");
    assert!(
        spans.iter().any(|s| s == dcn_obs::names::BENCH_TIMED),
        "the table's span is missing: {spans:?}"
    );
    let _ = std::fs::remove_dir_all(&root);
}
