//! A panicking experiment body must still flush its partial manifest and
//! buffered trace events — the post-mortem a human (or a sweep script)
//! reads after a run dies mid-cell.
//!
//! The panic happens in a child process (this test binary re-invoked
//! with an env gate), because a panic hook is process-global state and
//! the child's job is to die.

use std::path::PathBuf;
use std::process::Command;

const WORKER_ENV: &str = "DCN_BENCH_TEST_PANIC_DIR";

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
