//! `dcn-trace`: per-event trace export on top of `dcn-obs`.
//!
//! `dcn-obs` aggregates spans into per-path totals — enough to see *where*
//! wall-clock goes, but not *when*: a frontier sweep that serializes
//! behind one slow cell and one that saturates every worker produce the
//! same totals. This crate records every individual span enter/exit (plus
//! instant events such as cache hits) into lock-free per-thread buffers
//! and flushes them to a Chrome `trace_event`-format JSON file viewable in
//! `chrome://tracing` or [Perfetto](https://ui.perfetto.dev).
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
//! * [`dcn_obs::trace_instant`] → `ph: "i"` (thread-scoped instant), used
//!   by `dcn-cache` for hit/miss/disk-hit events.
//! * Timestamps are monotonic nanoseconds from one process-wide origin
//!   (exported as fractional microseconds, the format's native unit);
//!   thread ids are small integers assigned in first-event order.
//!
//! # Memory behaviour
//!
//! Each thread appends to its own buffer (no locks on the hot path); a
//! buffer is drained into the global store under a mutex when it exceeds
//! [`DRAIN_THRESHOLD`] events or when its thread exits. `dcn-exec` joins
//! its workers before `par_map` returns, so by flush time every
//! worker-thread event has been drained; only threads still live and
//! un-drained at flush (none in this workspace's single-threaded
//! harnesses) could be missed. Total volume is capped by
//! `DCN_TRACE_MAX_EVENTS` (default 2,000,000 ≈ 150 MB of JSON); events
//! past the cap bump the `trace.events.dropped` counter instead of
//! allocating.

#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![warn(clippy::unreachable, clippy::todo, clippy::unimplemented)]

use dcn_obs::json::Json;
use dcn_obs::{TracePhase, TraceSink};
use std::cell::RefCell;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Local buffers hand off to the global store at this size, bounding both
/// per-thread memory and the tail of events a live thread privately holds.
pub const DRAIN_THRESHOLD: usize = 8192;

/// Default event cap when `DCN_TRACE_MAX_EVENTS` is unset or unparsable.
pub const DEFAULT_MAX_EVENTS: u64 = 2_000_000;

#[derive(Debug, Clone)]
struct Event {
    phase: TracePhase,
    path: String,
    tid: u64,
    ts_ns: u64,
}

/// The process-wide tracer: a [`TraceSink`] implementation that buffers
/// Chrome `trace_event` entries. Install via [`install`] or
/// [`init_from_env`]; serialize via [`flush_to_file`].
pub struct ChromeTracer {
    origin: Instant,
    drained: Mutex<Vec<Event>>,
    max_events: u64,
    total: AtomicU64,
}

static TRACER: OnceLock<ChromeTracer> = OnceLock::new();
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

impl ChromeTracer {
    #[expect(
        clippy::disallowed_methods,
        reason = "trace events are timestamped against this process-wide monotonic origin"
    )]
    fn new() -> ChromeTracer {
        let max_events = dcn_obs::env::TRACE_MAX_EVENTS
            .parsed::<u64>()
            .filter(|&n| n > 0)
            .unwrap_or(DEFAULT_MAX_EVENTS);
        ChromeTracer {
            origin: Instant::now(),
            drained: Mutex::new(Vec::new()),
            max_events,
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
}

impl TraceSink for ChromeTracer {
    fn record(&self, phase: TracePhase, path: &str) {
        // Cap check first: past the cap we never allocate again.
        if self.total.fetch_add(1, Ordering::Relaxed) >= self.max_events {
            dcn_obs::counter!(dcn_obs::names::TRACE_EVENTS_DROPPED).inc();
            return;
        }
        dcn_obs::counter!(dcn_obs::names::TRACE_EVENTS_RECORDED).inc();
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

/// Installs the tracer unconditionally (test and harness support).
/// Returns `true` when this call performed the installation, `false` when
/// a tracer (or any other sink) was already in place. Installation is
/// process-wide and permanent; there is no way to uninstall a sink, by
/// design — spans must not flicker between traced and untraced.
pub fn install() -> bool {
    let tracer = TRACER.get_or_init(ChromeTracer::new);
    dcn_obs::install_trace_sink(tracer)
}

/// Installs the tracer when the environment asks for per-event export:
/// `DCN_TRACE_FILE` set (explicit output path) or `DCN_OBS=trace`.
/// Idempotent; returns `true` when tracing is active after the call.
pub fn init_from_env() -> bool {
    let wanted =
        dcn_obs::env::TRACE_FILE.get_os().is_some() || dcn_obs::mode() == dcn_obs::Mode::Trace;
    if wanted {
        install();
    }
    active()
}

/// True when this crate's tracer is installed as the obs trace sink.
pub fn active() -> bool {
    TRACER.get().is_some() && dcn_obs::trace_active()
}

/// The explicit trace output path from `DCN_TRACE_FILE`, if set.
pub fn trace_file_from_env() -> Option<PathBuf> {
    dcn_obs::env::TRACE_FILE.get_os().map(PathBuf::from)
}

/// Serializes every event recorded so far to `path` as Chrome
/// `trace_event` JSON (object form: `{"traceEvents": […]}`). The buffers
/// are *not* cleared — a later flush rewrites the file with a superset,
/// so the final flush of a process always wins with the complete trace.
/// Returns the number of events written. An error is returned if no
/// tracer is installed.
pub fn flush_to_file(path: &std::path::Path) -> std::io::Result<usize> {
    let Some(tracer) = TRACER.get() else {
        return Err(std::io::Error::other("dcn-trace: no tracer installed"));
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
                TracePhase::Instant => "instant",
                _ => "span",
            }),
        ),
        (
            "ph".into(),
            Json::from(match e.phase {
                TracePhase::Begin => "B",
                TracePhase::End => "E",
                TracePhase::Instant => "i",
            }),
        ),
        ("pid".into(), Json::from(1u64)),
        ("tid".into(), Json::from(e.tid)),
        ("ts".into(), Json::Num(e.ts_ns as f64 / 1000.0)),
    ];
    match e.phase {
        TracePhase::Begin => {
            fields.push((
                "args".into(),
                Json::obj([("path", Json::from(e.path.as_str()))]),
            ));
        }
        TracePhase::Instant => {
            fields.push(("s".into(), Json::from("t")));
        }
        TracePhase::End => {}
    }
    Json::Obj(fields)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_json_shapes() {
        let b = event_json(&Event {
            phase: TracePhase::Begin,
            path: "core.tub/core.tub.apsp".into(),
            tid: 3,
            ts_ns: 1_500,
        });
        assert_eq!(b.get("name").and_then(Json::as_str), Some("core.tub.apsp"));
        assert_eq!(b.get("ph").and_then(Json::as_str), Some("B"));
        assert_eq!(b.get("ts").and_then(Json::as_f64), Some(1.5));
        assert_eq!(
            b.get("args").and_then(|a| a.get("path")).and_then(Json::as_str),
            Some("core.tub/core.tub.apsp")
        );
        let i = event_json(&Event {
            phase: TracePhase::Instant,
            path: "cache.hit".into(),
            tid: 1,
            ts_ns: 0,
        });
        assert_eq!(i.get("ph").and_then(Json::as_str), Some("i"));
        assert_eq!(i.get("s").and_then(Json::as_str), Some("t"));
        let e = event_json(&Event {
            phase: TracePhase::End,
            path: "core.tub".into(),
            tid: 1,
            ts_ns: 2_000,
        });
        assert_eq!(e.get("ph").and_then(Json::as_str), Some("E"));
        assert!(e.get("args").is_none());
    }
}
