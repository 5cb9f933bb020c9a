//! Per-event trace export: every span enter/exit as a Chrome
//! `trace_event`.
//!
//! Span statistics aggregate into per-path totals — enough to see *where*
//! wall-clock goes, but not *when*: a frontier sweep that serializes
//! behind one slow cell and one that saturates every worker produce the
//! same totals. The recorder here keeps every individual span enter/exit
//! (plus instant events such as cache hits) in lock-free per-thread
//! buffers and flushes them to a Chrome `trace_event`-format JSON file
//! viewable in `chrome://tracing` or [Perfetto](https://ui.perfetto.dev).
//!
//! # Activation
//!
//! Tracing is off unless [`init_from_env`] finds `DCN_TRACE_FILE` set or
//! `DCN_OBS=trace`. The bench harness calls it on startup and flushes at
//! manifest-write time to `DCN_TRACE_FILE` (or
//! `results/<name>.trace.json` when only `DCN_OBS=trace` is set).
//! Tracing never changes stdout, CSVs, or solver results — attribution is
//! observability-only and excluded from the determinism contract.
//!
//! # Event model
//!
//! * Span enter → `ph: "B"`, span exit → `ph: "E"`, paired per thread
//!   (spans nest per-thread, so B/E pairing is structural).
//! * [`crate::trace_instant`] → `ph: "i"` (thread-scoped instant), used
//!   by `dcn-cache` for hit/miss/disk-hit events.
//! * Timestamps are monotonic nanoseconds from one process-wide origin
//!   (exported as fractional microseconds, the format's native unit);
//!   thread ids are small integers assigned in first-event order.
//!
//! # Memory behaviour
//!
//! Each thread appends to its own buffer (no locks on the hot path); a
//! buffer is drained into the global store under a mutex when it reaches
//! 8,192 events or when its thread exits. `dcn-exec` joins its workers
//! before `par_map` returns, so by flush time every worker-thread event
//! has been drained; only threads still live and un-drained at flush
//! (none in this workspace's single-threaded harnesses) could be missed.
//! Total volume is capped at 2,000,000 events (≈ 150 MB of JSON); events
//! past the cap bump the `trace.events.dropped` counter instead of
//! allocating.

use crate::json::Json;
use std::cell::RefCell;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Local buffers hand off to the global store at this size, bounding both
/// per-thread memory and the tail of events a live thread privately holds.
const DRAIN_THRESHOLD: usize = 8192;

/// Events recorded past this many are dropped and counted instead.
const MAX_EVENTS: u64 = 2_000_000;

/// Phase of one trace event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Phase {
    /// A span was entered (Chrome `ph: "B"`).
    Begin,
    /// A span was exited (Chrome `ph: "E"`).
    End,
    /// A point event with no duration, e.g. a cache hit (Chrome `ph: "i"`).
    Instant,
}

#[derive(Debug, Clone)]
struct Event {
    phase: Phase,
    path: String,
    tid: u64,
    ts_ns: u64,
}

/// The process-wide recorder: the timestamp origin, the drained events
/// of every thread, and the running event count the cap is checked on.
struct Tracer {
    origin: Instant,
    drained: Mutex<Vec<Event>>,
    total: AtomicU64,
}

static TRACER: OnceLock<Tracer> = OnceLock::new();
static NEXT_TID: AtomicU64 = AtomicU64::new(1);

struct LocalBuf {
    tid: u64,
    events: Vec<Event>,
}

impl Drop for LocalBuf {
    fn drop(&mut self) {
        // Thread exit: hand the remaining events to the global store so
        // joined worker threads never lose their tail.
        if let Some(t) = TRACER.get() {
            t.absorb(&mut self.events);
        }
    }
}

thread_local! {
    static LOCAL: RefCell<LocalBuf> = RefCell::new(LocalBuf {
        tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
        events: Vec::new(),
    });
}

impl Tracer {
    #[expect(
        clippy::disallowed_methods,
        reason = "trace events are timestamped against this process-wide monotonic origin"
    )]
    fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            drained: Mutex::new(Vec::new()),
            total: AtomicU64::new(0),
        }
    }

    fn absorb(&self, events: &mut Vec<Event>) {
        if events.is_empty() {
            return;
        }
        self.drained
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .append(events);
    }

    fn record(&self, phase: Phase, path: &str) {
        // Cap check first: past the cap we never allocate again.
        if self.total.fetch_add(1, Ordering::Relaxed) >= MAX_EVENTS {
            crate::counter!(crate::names::TRACE_EVENTS_DROPPED).inc();
            return;
        }
        crate::counter!(crate::names::TRACE_EVENTS_RECORDED).inc();
        let ts_ns = self.origin.elapsed().as_nanos() as u64;
        let path = path.to_string();
        LOCAL.with(|l| {
            let mut buf = l.borrow_mut();
            let tid = buf.tid;
            buf.events.push(Event {
                phase,
                path,
                tid,
                ts_ns,
            });
            if buf.events.len() >= DRAIN_THRESHOLD {
                let mut full = std::mem::take(&mut buf.events);
                self.absorb(&mut full);
            }
        });
    }
}

/// Records one event when tracing is active; a single `OnceLock` load
/// otherwise. `path` is the full hierarchical span path for
/// [`Phase::Begin`]/[`Phase::End`], or a `crate::names` event name for
/// [`Phase::Instant`].
#[inline]
pub(crate) fn record(phase: Phase, path: &str) {
    if let Some(t) = TRACER.get() {
        t.record(phase, path);
    }
}

/// Starts recording when the environment asks for per-event export:
/// `DCN_TRACE_FILE` set (explicit output path) or `DCN_OBS=trace`.
/// Idempotent, and permanent once started — spans must not flicker
/// between traced and untraced. Returns `true` when tracing is active
/// after the call.
pub fn init_from_env() -> bool {
    if crate::env::TRACE_FILE.get_os().is_some() || crate::mode() == crate::Mode::Trace {
        TRACER.get_or_init(Tracer::new);
    }
    active()
}

/// True when the recorder is running (spans are recorded even under
/// `DCN_OBS=off`, so traces can be captured without changing any
/// printed output).
#[inline]
pub fn active() -> bool {
    TRACER.get().is_some()
}

/// Serializes every event recorded so far to `path` as Chrome
/// `trace_event` JSON (object form: `{"traceEvents": […]}`). The buffers
/// are *not* cleared — a later flush rewrites the file with a superset,
/// so the final flush of a process always wins with the complete trace.
/// Returns the number of events written. An error is returned if
/// tracing is not active.
pub fn flush_to_file(path: &Path) -> std::io::Result<usize> {
    let Some(tracer) = TRACER.get() else {
        return Err(std::io::Error::other("dcn-obs: tracing is not active"));
    };
    // Drain this thread's buffer so the flushing thread's events (the
    // main thread, in the bench harness) are always included.
    LOCAL.with(|l| {
        let mut buf = l.borrow_mut();
        let mut events = std::mem::take(&mut buf.events);
        tracer.absorb(&mut events);
    });
    // Serialize under the guard, write with it released: holding the
    // drain mutex across file I/O would stall every thread that fills its
    // local buffer during the write (and is exactly what the lint's
    // blocking-under-lock rule rejects).
    let (n, body) = {
        let guard = tracer.drained.lock().unwrap_or_else(|e| e.into_inner());
        let mut order: Vec<usize> = (0..guard.len()).collect();
        // Stable by timestamp: same-thread events keep their buffer order,
        // so B/E pairs at equal ns timestamps never invert.
        order.sort_by_key(|&i| guard[i].ts_ns);
        let events: Vec<Json> = order.iter().map(|&i| event_json(&guard[i])).collect();
        let n = events.len();
        let doc = Json::obj([
            ("traceEvents", Json::Arr(events)),
            ("displayTimeUnit", Json::from("ms")),
        ]);
        (n, doc.to_string_compact())
    };
    std::fs::write(path, body)?;
    Ok(n)
}

/// One event in Chrome `trace_event` JSON form. Durations come from B/E
/// pairing per `tid`; the full hierarchical span path rides in
/// `args.path` on begin events (exit events repeat only the name).
fn event_json(e: &Event) -> Json {
    let name = e.path.rsplit('/').next().unwrap_or(e.path.as_str());
    let mut fields: Vec<(String, Json)> = vec![
        ("name".into(), Json::from(name)),
        (
            "cat".into(),
            Json::from(match e.phase {
                Phase::Instant => "instant",
                _ => "span",
            }),
        ),
        (
            "ph".into(),
            Json::from(match e.phase {
                Phase::Begin => "B",
                Phase::End => "E",
                Phase::Instant => "i",
            }),
        ),
        ("pid".into(), Json::from(1u64)),
        ("tid".into(), Json::from(e.tid)),
        ("ts".into(), Json::Num(e.ts_ns as f64 / 1000.0)),
    ];
    match e.phase {
        Phase::Begin => {
            fields.push((
                "args".into(),
                Json::obj([("path", Json::from(e.path.as_str()))]),
            ));
        }
        Phase::Instant => {
            fields.push(("s".into(), Json::from("t")));
        }
        Phase::End => {}
    }
    Json::Obj(fields)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_json_shapes() {
        let b = event_json(&Event {
            phase: Phase::Begin,
            path: "core.tub/core.tub.apsp".into(),
            tid: 3,
            ts_ns: 1_500,
        });
        assert_eq!(b.get("name").and_then(Json::as_str), Some("core.tub.apsp"));
        assert_eq!(b.get("ph").and_then(Json::as_str), Some("B"));
        assert_eq!(b.get("ts").and_then(Json::as_f64), Some(1.5));
        assert_eq!(
            b.get("args")
                .and_then(|a| a.get("path"))
                .and_then(Json::as_str),
            Some("core.tub/core.tub.apsp")
        );
        let i = event_json(&Event {
            phase: Phase::Instant,
            path: "cache.hit".into(),
            tid: 1,
            ts_ns: 0,
        });
        assert_eq!(i.get("ph").and_then(Json::as_str), Some("i"));
        assert_eq!(i.get("s").and_then(Json::as_str), Some("t"));
        let e = event_json(&Event {
            phase: Phase::End,
            path: "core.tub".into(),
            tid: 1,
            ts_ns: 2_000,
        });
        assert_eq!(e.get("ph").and_then(Json::as_str), Some("E"));
        assert!(e.get("args").is_none());
    }
}
