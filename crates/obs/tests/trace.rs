//! Integration tests: a flushed trace file is well-formed Chrome
//! `trace_event` JSON that round-trips through `dcn_obs::json`, with B/E
//! pairing per thread and thread-scoped instants.

#![expect(
    clippy::disallowed_methods,
    reason = "the test records events from a second thread"
)]

use dcn_obs::json::Json;
use std::collections::HashMap;

#[test]
fn flushed_trace_round_trips_and_pairs() {
    let dir = std::env::temp_dir().join(format!("dcn_trace_test_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let path = dir.join("out.trace.json");
    // The only test in this binary, so setting the variable cannot race
    // another test's read of it.
    std::env::set_var("DCN_TRACE_FILE", &path);
    assert!(dcn_obs::trace::init_from_env());
    assert!(dcn_obs::trace::active());

    {
        let _outer = dcn_obs::span!("test.outer");
        {
            let _inner = dcn_obs::span!("test.inner");
            dcn_obs::trace_instant("test.instant");
        }
        let _again = dcn_obs::span!("test.inner");
    }
    // A short-lived thread: its buffer drains to the global store on exit,
    // so its events must survive the join and appear under their own tid.
    std::thread::spawn(|| {
        let _s = dcn_obs::span!("test.worker");
    })
    .join()
    .expect("worker thread");

    let n = dcn_obs::trace::flush_to_file(&path).expect("flush");
    // 3 span pairs + 1 instant on the main thread, 1 pair on the worker.
    assert!(n >= 9, "expected at least 9 events, got {n}");

    let text = std::fs::read_to_string(&path).expect("read trace");
    let doc = Json::parse(&text).expect("trace output must parse via dcn_obs::json");
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_array)
        .expect("traceEvents array");
    assert_eq!(events.len(), n);

    let mut stacks: HashMap<u64, Vec<String>> = HashMap::new();
    let mut tids = std::collections::HashSet::new();
    let mut saw_instant = false;
    let mut last_ts = f64::NEG_INFINITY;
    for ev in events {
        let ph = ev.get("ph").and_then(Json::as_str).expect("ph");
        let tid = ev.get("tid").and_then(Json::as_u64).expect("tid");
        let ts = ev.get("ts").and_then(Json::as_f64).expect("ts");
        assert!(ts >= last_ts, "events must be sorted by timestamp");
        last_ts = ts;
        tids.insert(tid);
        let name = ev
            .get("name")
            .and_then(Json::as_str)
            .expect("name")
            .to_string();
        match ph {
            "B" => {
                // Begin events carry the full hierarchical path in args.
                let p = ev
                    .get("args")
                    .and_then(|a| a.get("path"))
                    .and_then(Json::as_str)
                    .expect("args.path on B");
                assert!(p.ends_with(&name), "path {p:?} must end with name {name:?}");
                stacks.entry(tid).or_default().push(name);
            }
            "E" => {
                let open = stacks
                    .get_mut(&tid)
                    .and_then(Vec::pop)
                    .expect("E without matching B on this tid");
                assert_eq!(open, name, "E must close the innermost open span");
            }
            "i" => {
                saw_instant = true;
                assert_eq!(ev.get("s").and_then(Json::as_str), Some("t"));
            }
            other => panic!("unexpected phase {other:?}"),
        }
    }
    for (tid, stack) in &stacks {
        assert!(stack.is_empty(), "tid {tid} has unclosed spans {stack:?}");
    }
    assert!(saw_instant, "instant event missing");
    assert!(tids.len() >= 2, "worker thread events missing");

    // A second flush is a superset rewrite, never a truncation.
    let _extra = dcn_obs::span!("test.later");
    drop(_extra);
    let n2 = dcn_obs::trace::flush_to_file(&path).expect("re-flush");
    assert!(n2 >= n + 2, "second flush must include earlier events");

    std::fs::remove_dir_all(&dir).ok();
}
