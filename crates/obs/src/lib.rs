//! `dcn-obs`: zero-dependency observability for the dcn workspace.
//!
//! The iterative solvers at the heart of the TUB pipeline — the
//! Garg–Könemann FPTAS, the dense simplex, Yen's KSP, the multilevel
//! partitioner — are performance-critical and were previously black boxes.
//! This crate gives them a shared, thread-safe metrics registry plus
//! hierarchical span timers, cheap enough to leave compiled in:
//!
//! * [`Counter`] — monotonically increasing `u64`; one relaxed atomic add
//!   per event, never gated, never locked.
//! * [`Gauge`] — last-write-wins `f64` (stored as bits in an atomic).
//! * [`Histogram`] — log-bucketed (8 sub-buckets per octave, ~9% relative
//!   resolution) with quantile readout; one atomic add per record.
//! * [`span!`] — scoped wall-time timers with parent/child attribution,
//!   active when `DCN_OBS` is `summary` or `trace`, or when per-event
//!   tracing is on (Chrome `trace_event` export, see [`trace`]).
//!
//! # Modes
//!
//! The `DCN_OBS` environment variable selects a mode, read once:
//!
//! * `off` (default) — spans and obs-gated logging are no-ops; scalar
//!   metrics still count (a few relaxed atomics) but nothing is printed.
//! * `summary` — spans are recorded; harnesses print a registry summary.
//! * `trace` — like `summary`, plus [`obs_log!`] lines are emitted as
//!   they happen.
//!
//! # Naming convention
//!
//! Metrics are named `<crate>.<module>.<event>`, e.g.
//! `mcf.fptas.augmentations` or `lp.simplex.pivots`. Spans use the same
//! convention and compose hierarchically at runtime
//! (`core.tub/core.tub.matching`).
//!
//! # Hot-path cost
//!
//! The metric macros cache the registry lookup in a per-call-site static
//! (`OnceLock`), so steady-state cost is one atomic load plus one atomic
//! add — no locks, no allocation, regardless of mode. Span enter with
//! `DCN_OBS=off` and tracing inactive is two cached `OnceLock` loads and
//! an untouched guard.

#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![warn(clippy::unreachable, clippy::todo, clippy::unimplemented)]

pub mod env;
pub mod json;
pub mod lock;
pub mod manifest;
pub mod names;
pub mod trace;

use lock::{Rank, Ranked};
use std::cell::RefCell;
use std::collections::BTreeMap;
#[expect(clippy::disallowed_types, reason = "lock-free relaxed metric cells")]
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

// ---------------------------------------------------------------------------
// Mode

/// Observability mode, from the `DCN_OBS` environment variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Mode {
    /// Spans and logging disabled; scalar metrics still count.
    Off,
    /// Spans recorded; summaries printed by harnesses.
    Summary,
    /// `summary` plus live [`obs_log!`] output.
    Trace,
}

impl Mode {
    /// Lower-case name (`off` / `summary` / `trace`).
    pub fn name(self) -> &'static str {
        match self {
            Mode::Off => "off",
            Mode::Summary => "summary",
            Mode::Trace => "trace",
        }
    }
}

static MODE: OnceLock<Mode> = OnceLock::new();

/// The process-wide mode. Reads `DCN_OBS` on first call; unknown values
/// fall back to `off` so a typo can never change benchmark output.
#[inline]
pub fn mode() -> Mode {
    *MODE.get_or_init(|| match env::OBS.get().as_deref() {
        Some("summary") => Mode::Summary,
        Some("trace") => Mode::Trace,
        _ => Mode::Off,
    })
}

/// True when spans/summaries are active (`summary` or `trace`).
#[inline]
pub fn enabled() -> bool {
    mode() != Mode::Off
}

// ---------------------------------------------------------------------------
// Metrics

/// A monotonically increasing counter.
#[derive(Debug)]
#[expect(clippy::disallowed_types, reason = "lock-free relaxed metric cells")]
pub struct Counter {
    val: AtomicU64,
}

impl Counter {
    #[expect(clippy::disallowed_types, reason = "lock-free relaxed metric cells")]
    const fn new() -> Self {
        Counter {
            val: AtomicU64::new(0),
        }
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.val.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.val.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.val.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.val.store(0, Ordering::Relaxed);
    }
}

/// A last-write-wins `f64` gauge.
#[derive(Debug)]
#[expect(clippy::disallowed_types, reason = "lock-free relaxed metric cells")]
pub struct Gauge {
    bits: AtomicU64,
}

impl Gauge {
    #[expect(clippy::disallowed_types, reason = "lock-free relaxed metric cells")]
    const fn new() -> Self {
        Gauge {
            bits: AtomicU64::new(0),
        }
    }

    /// Sets the gauge.
    #[inline]
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }

    fn reset(&self) {
        self.bits.store(0, Ordering::Relaxed);
    }
}

/// Sub-buckets per octave: values within a bucket differ by < 2^(1/8) ≈ 9%.
const SUBBUCKETS: usize = 8;
/// Octaves covered: 2^-32 .. 2^64 (seconds-to-counts range with slack).
const MIN_EXP: i32 = -32;
const MAX_EXP: i32 = 64;
const N_BUCKETS: usize = ((MAX_EXP - MIN_EXP) as usize) * SUBBUCKETS + 2;

/// A log-bucketed histogram of non-negative `f64` samples.
///
/// Recording is one relaxed atomic add into a bucket chosen from the
/// sample's exponent and top mantissa bits, plus a relaxed CAS into the
/// running sum — no locks, no allocation.
/// Quantiles are estimated as the geometric midpoint of the bucket holding
/// the requested rank, giving ~9% relative accuracy.
#[expect(clippy::disallowed_types, reason = "lock-free relaxed metric cells")]
pub struct Histogram {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    /// Sum stored as `f64` bits: lock-free, and it cannot wrap the way an
    /// integer nano-unit sum of nanosecond samples would (after ~18 s).
    sum_bits: AtomicU64,
}

impl Histogram {
    #[expect(clippy::disallowed_types, reason = "lock-free relaxed metric cells")]
    fn new() -> Self {
        let mut buckets = Vec::with_capacity(N_BUCKETS);
        buckets.resize_with(N_BUCKETS, || AtomicU64::new(0));
        Histogram {
            buckets,
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0),
        }
    }

    #[inline]
    fn bucket_index(v: f64) -> usize {
        if !v.is_finite() || v <= 0.0 {
            return 0; // zero / negative / NaN bucket
        }
        let bits = v.to_bits();
        let exp = ((bits >> 52) & 0x7ff) as i32 - 1023;
        if exp < MIN_EXP {
            return 0;
        }
        if exp >= MAX_EXP {
            return N_BUCKETS - 1;
        }
        let sub = ((bits >> (52 - 3)) & 0x7) as usize; // top 3 mantissa bits
        1 + ((exp - MIN_EXP) as usize) * SUBBUCKETS + sub
    }

    /// Lower edge of a bucket (inverse of [`Self::bucket_index`]).
    fn bucket_lower(idx: usize) -> f64 {
        if idx == 0 {
            return 0.0;
        }
        let i = idx - 1;
        let exp = MIN_EXP + (i / SUBBUCKETS) as i32;
        let sub = (i % SUBBUCKETS) as f64;
        (1.0 + sub / SUBBUCKETS as f64) * (exp as f64).exp2()
    }

    /// Records one sample.
    #[inline]
    pub fn record(&self, v: f64) {
        self.buckets[Self::bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        if v.is_finite() && v > 0.0 {
            // The closure always returns `Some`, so the update cannot fail.
            let _ = self
                .sum_bits
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |bits| {
                    Some((f64::from_bits(bits) + v).to_bits())
                });
        }
    }

    /// Records an integer sample (convenience for size/count metrics).
    #[inline]
    pub fn record_u64(&self, v: u64) {
        self.record(v as f64);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded samples.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.sum_bits.load(Ordering::Relaxed))
    }

    /// Mean of recorded samples (0 when empty).
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum() / n as f64
        }
    }

    /// Estimated quantile `q` in [0, 1]: the geometric midpoint of the
    /// bucket containing the rank-`ceil(q*n)` sample. Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        let n = self.count();
        if n == 0 {
            return 0.0;
        }
        let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (idx, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                if idx == 0 {
                    return 0.0;
                }
                let lo = Self::bucket_lower(idx);
                let hi = if idx + 1 < N_BUCKETS {
                    Self::bucket_lower(idx + 1)
                } else {
                    lo * 2.0
                };
                return (lo * hi).sqrt();
            }
        }
        Self::bucket_lower(N_BUCKETS - 1)
    }

    /// Largest recorded bucket's upper midpoint (cheap max estimate).
    pub fn max_estimate(&self) -> f64 {
        self.quantile(1.0)
    }

    fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum_bits.store(0.0f64.to_bits(), Ordering::Relaxed);
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count())
            .field("mean", &self.mean())
            .finish()
    }
}

// ---------------------------------------------------------------------------
// Registry

enum Metric {
    Counter(&'static Counter),
    Gauge(&'static Gauge),
    Histogram(&'static Histogram),
}

struct Registry {
    metrics: Vec<(&'static str, Metric)>,
}

static REGISTRY: Ranked<Mutex<Registry>> = Ranked::new(
    Rank::Registry,
    Mutex::new(Registry {
        metrics: Vec::new(),
    }),
);

fn register(name: &'static str, m: Metric) {
    REGISTRY.lock().metrics.push((name, m));
}

/// Registers (or creates) a counter. Use the [`counter!`] macro at call
/// sites — it caches this lookup in a per-site static and checks the
/// name against [`names::ALL`].
pub fn register_counter(name: &'static str) -> &'static Counter {
    let c: &'static Counter = Box::leak(Box::new(Counter::new()));
    register(name, Metric::Counter(c));
    c
}

/// Registers a gauge. Use the [`gauge!`] macro at call sites.
pub fn register_gauge(name: &'static str) -> &'static Gauge {
    let g: &'static Gauge = Box::leak(Box::new(Gauge::new()));
    register(name, Metric::Gauge(g));
    g
}

/// Registers a histogram. Use the [`histogram!`] macro at call sites.
pub fn register_histogram(name: &'static str) -> &'static Histogram {
    let h: &'static Histogram = Box::leak(Box::new(Histogram::new()));
    register(name, Metric::Histogram(h));
    h
}

/// Yields `$name` after checking at compile time that it is one of
/// [`names::ALL`]; the shared front half of the metric macros. A name
/// that is not a registered constant, or not a constant at all, fails
/// the build.
#[doc(hidden)]
#[macro_export]
macro_rules! registered_name {
    ($name:expr) => {{
        const DCN_METRIC_NAME: &str = $name;
        const _: () = assert!(
            $crate::names::registered(DCN_METRIC_NAME),
            "metric names must be dcn_obs::names constants listed in names::ALL"
        );
        DCN_METRIC_NAME
    }};
}

/// Returns a registered counter, creating a call-site static via macro.
/// `$name` must be a [`names`] constant (checked at compile time).
#[macro_export]
macro_rules! counter {
    ($name:expr) => {{
        static SITE: ::std::sync::OnceLock<&'static $crate::Counter> = ::std::sync::OnceLock::new();
        *SITE.get_or_init(|| $crate::register_counter($crate::registered_name!($name)))
    }};
}

/// Returns a registered gauge (per-call-site cached).
#[macro_export]
macro_rules! gauge {
    ($name:expr) => {{
        static SITE: ::std::sync::OnceLock<&'static $crate::Gauge> = ::std::sync::OnceLock::new();
        *SITE.get_or_init(|| $crate::register_gauge($crate::registered_name!($name)))
    }};
}

/// Returns a registered histogram (per-call-site cached).
#[macro_export]
macro_rules! histogram {
    ($name:expr) => {{
        static SITE: ::std::sync::OnceLock<&'static $crate::Histogram> =
            ::std::sync::OnceLock::new();
        *SITE.get_or_init(|| $crate::register_histogram($crate::registered_name!($name)))
    }};
}

/// Records an instant event (e.g. a cache hit) in the per-event trace;
/// a single `OnceLock` load when tracing is inactive. `$name` must be a
/// [`names`] constant (checked at compile time).
#[macro_export]
macro_rules! trace_instant {
    ($name:expr) => {
        $crate::trace::instant($crate::registered_name!($name))
    };
}

/// Emits a diagnostic line to stderr in `trace` mode only; `off` and
/// `summary` runs print nothing.
#[macro_export]
macro_rules! obs_log {
    ($($arg:tt)*) => {
        if $crate::mode() == $crate::Mode::Trace {
            eprintln!($($arg)*);
        }
    };
}

// ---------------------------------------------------------------------------
// Spans

/// Aggregated statistics for one span path.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SpanStat {
    /// Number of completed spans at this path.
    pub count: u64,
    /// Total wall seconds (including children).
    pub total_secs: f64,
    /// Wall seconds excluding child spans.
    pub self_secs: f64,
}

static SPANS: Ranked<Mutex<BTreeMap<String, SpanStat>>> =
    Ranked::new(Rank::Spans, Mutex::new(BTreeMap::new()));

struct SpanFrame {
    path: String,
    child_secs: f64,
}

thread_local! {
    static SPAN_STACK: RefCell<Vec<SpanFrame>> = const { RefCell::new(Vec::new()) };
    /// Path prefix applied to root spans on this thread. Set by
    /// `dcn_exec` workers so a task's spans report under the submitting
    /// thread's span path — cross-thread attribution without any shared
    /// mutable state (see [`set_thread_span_parent`]).
    static SPAN_PARENT: RefCell<Option<String>> = const { RefCell::new(None) };
}

/// Sets this thread's span parent: while `Some`, spans entered with an
/// empty stack nest under the given path instead of becoming roots.
/// Returns the previous value so callers can restore it. Used by
/// `dcn_exec::Pool` workers to carry the submitting thread's span path
/// across the thread boundary; attribution is observability-only and
/// never affects solver output.
pub fn set_thread_span_parent(parent: Option<String>) -> Option<String> {
    SPAN_PARENT.with(|p| std::mem::replace(&mut *p.borrow_mut(), parent))
}

/// The full path of the innermost open span on this thread, falling back
/// to the thread span parent (if set) when no span is open. `None` when
/// neither exists or spans are inactive.
pub fn current_span_path() -> Option<String> {
    SPAN_STACK
        .with(|s| s.borrow().last().map(|f| f.path.clone()))
        .or_else(|| SPAN_PARENT.with(|p| p.borrow().clone()))
}

/// RAII guard produced by [`span!`]; records on drop.
pub struct SpanGuard {
    start: Option<Instant>,
}

impl SpanGuard {
    /// Starts a span named `name`, nested under any enclosing span on this
    /// thread (or under the thread span parent when the stack is empty).
    /// A no-op unless the mode is `summary`/`trace` or tracing is active
    /// ([`trace::active`]).
    #[expect(
        clippy::disallowed_methods,
        reason = "span timing is what dcn-obs exists for; the start time feeds only span totals"
    )]
    pub fn enter(name: &'static str) -> SpanGuard {
        if !enabled() && !trace::active() {
            return SpanGuard { start: None };
        }
        SPAN_STACK.with(|s| {
            let mut stack = s.borrow_mut();
            let path = match stack.last() {
                Some(parent) => format!("{}/{}", parent.path, name),
                None => match SPAN_PARENT.with(|p| p.borrow().clone()) {
                    Some(parent) => format!("{parent}/{name}"),
                    None => name.to_string(),
                },
            };
            trace::record(trace::Phase::Begin, &path);
            stack.push(SpanFrame {
                path,
                child_secs: 0.0,
            });
        });
        SpanGuard {
            start: Some(Instant::now()),
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        let elapsed = start.elapsed().as_secs_f64();
        SPAN_STACK.with(|s| {
            let mut stack = s.borrow_mut();
            let frame = match stack.pop() {
                Some(f) => f,
                None => return, // reset() raced a live span; drop silently
            };
            trace::record(trace::Phase::End, &frame.path);
            if let Some(parent) = stack.last_mut() {
                parent.child_secs += elapsed;
            }
            // `lock` recovers a poisoned table rather than panicking
            // inside Drop: span totals are plain accumulators, valid
            // regardless of where another thread unwound.
            let mut spans = SPANS.lock();
            let stat = spans.entry(frame.path).or_default();
            stat.count += 1;
            stat.total_secs += elapsed;
            stat.self_secs += (elapsed - frame.child_secs).max(0.0);
        });
    }
}

/// Opens a scoped span timer:
/// `let _g = span!(dcn_obs::names::MCF_FPTAS_SOLVE);`. Hierarchy is
/// tracked per thread; nested spans report under `parent/child` paths.
/// `$name` must be a [`names`] constant (checked at compile time).
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::SpanGuard::enter($crate::registered_name!($name))
    };
}

/// Times `f` under a span, also returning the elapsed seconds (measured
/// even when obs is off, so callers can keep reporting timings).
pub fn time_scope<T>(name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
    #[expect(
        clippy::disallowed_methods,
        reason = "the elapsed seconds are reported as timings, never fed to a solver"
    )]
    let start = Instant::now();
    let guard = SpanGuard::enter(name);
    let out = f();
    drop(guard);
    (out, start.elapsed().as_secs_f64())
}

/// Snapshot of all span statistics, sorted by path.
pub fn span_snapshot() -> Vec<(String, SpanStat)> {
    SPANS
        .lock()
        .iter()
        .map(|(k, v)| (k.clone(), v.clone()))
        .collect()
}

// ---------------------------------------------------------------------------
// Readout

/// One metric's exported state (for summaries and manifests).
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSnapshot {
    /// Metric name (`<crate>.<module>.<event>`; spans use `span:<path>`).
    pub name: String,
    /// `counter` / `gauge` / `histogram` / `span`.
    pub kind: &'static str,
    /// Exported fields (e.g. `value`, or `count`/`p50`/`p99`).
    pub fields: Vec<(&'static str, f64)>,
}

/// Snapshot of every registered metric plus span stats.
pub fn snapshot() -> Vec<MetricSnapshot> {
    let mut out = Vec::new();
    {
        let reg = REGISTRY.lock();
        for (name, m) in &reg.metrics {
            let snap = match m {
                Metric::Counter(c) => MetricSnapshot {
                    name: name.to_string(),
                    kind: "counter",
                    fields: vec![("value", c.get() as f64)],
                },
                Metric::Gauge(g) => MetricSnapshot {
                    name: name.to_string(),
                    kind: "gauge",
                    fields: vec![("value", g.get())],
                },
                Metric::Histogram(h) => MetricSnapshot {
                    name: name.to_string(),
                    kind: "histogram",
                    fields: vec![
                        ("count", h.count() as f64),
                        ("mean", h.mean()),
                        ("p50", h.quantile(0.5)),
                        ("p90", h.quantile(0.9)),
                        ("p99", h.quantile(0.99)),
                        ("max", h.max_estimate()),
                    ],
                },
            };
            out.push(snap);
        }
    }
    for (path, stat) in span_snapshot() {
        out.push(MetricSnapshot {
            name: format!("span:{path}"),
            kind: "span",
            fields: vec![
                ("count", stat.count as f64),
                ("total_secs", stat.total_secs),
                ("self_secs", stat.self_secs),
            ],
        });
    }
    out
}

/// Human-readable summary of the registry, one metric per line, sorted by
/// name. Counters with value zero are elided to keep summaries focused on
/// what actually ran.
pub fn summary() -> String {
    use std::fmt::Write;
    let mut snaps = snapshot();
    snaps.sort_by(|a, b| a.name.cmp(&b.name));
    let mut out = String::new();
    let _ = writeln!(out, "-- dcn-obs summary (mode={}) --", mode().name());
    for s in &snaps {
        match s.kind {
            "counter" | "gauge" => {
                let v = s.fields[0].1;
                // Counters are integral; elide never-bumped ones.
                if s.kind == "counter" && v < 0.5 {
                    continue;
                }
                let _ = writeln!(out, "  {:<44} {:>14}", s.name, trim_num(v));
            }
            "histogram" => {
                // fields[0] is the integral sample count; elide empty ones.
                if s.fields[0].1 < 0.5 {
                    continue;
                }
                let _ = writeln!(
                    out,
                    "  {:<44} n={} mean={} p50={} p99={} max={}",
                    s.name,
                    trim_num(s.fields[0].1),
                    trim_num(s.fields[1].1),
                    trim_num(s.fields[2].1),
                    trim_num(s.fields[4].1),
                    trim_num(s.fields[5].1),
                );
            }
            _ => {
                let _ = writeln!(
                    out,
                    "  {:<44} n={} total={:.6}s self={:.6}s",
                    s.name,
                    trim_num(s.fields[0].1),
                    s.fields[1].1,
                    s.fields[2].1,
                );
            }
        }
    }
    out
}

fn trim_num(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v:.6}")
    }
}

/// Zeroes every metric and clears span statistics (test support; metric
/// statics stay registered).
pub fn reset() {
    let reg = REGISTRY.lock();
    for (_, m) in &reg.metrics {
        match m {
            Metric::Counter(c) => c.reset(),
            Metric::Gauge(g) => g.reset(),
            Metric::Histogram(h) => h.reset(),
        }
    }
    SPANS.lock().clear();
}

/// Current value of a registered counter by name (0 if absent; sums
/// duplicates). Test/diagnostic support.
pub fn counter_value(name: &str) -> u64 {
    let reg = REGISTRY.lock();
    reg.metrics
        .iter()
        .filter(|(n, _)| *n == name)
        .map(|(_, m)| match m {
            Metric::Counter(c) => c.get(),
            _ => 0,
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_macro_caches_per_site_and_counts() {
        let site = || counter!(names::TRACE_EVENTS_DROPPED);
        let c = site();
        let before = c.get();
        for _ in 0..100 {
            site().inc();
        }
        assert!(std::ptr::eq(c, site()), "one registration per call site");
        assert_eq!(c.get(), before + 100);
        assert!(counter_value(names::TRACE_EVENTS_DROPPED) >= 100);
    }

    #[test]
    fn gauge_stores_f64() {
        let g = register_gauge("obs.test.gauge");
        g.set(0.125);
        assert_eq!(g.get(), 0.125);
        g.set(-3.5);
        assert_eq!(g.get(), -3.5);
    }

    #[test]
    fn histogram_bucket_round_trip() {
        for v in [1e-9, 0.001, 0.5, 1.0, 3.7, 1024.0, 1e12] {
            let idx = Histogram::bucket_index(v);
            let lo = Histogram::bucket_lower(idx);
            let hi = Histogram::bucket_lower(idx + 1);
            assert!(lo <= v && v < hi, "v={v} not in [{lo}, {hi}) (idx {idx})");
        }
        assert_eq!(Histogram::bucket_index(0.0), 0);
        assert_eq!(Histogram::bucket_index(-1.0), 0);
        assert_eq!(Histogram::bucket_index(f64::NAN), 0);
    }

    #[test]
    fn mode_defaults_off() {
        // The test harness does not set DCN_OBS; default must be Off so
        // metric paths stay cheap.
        assert_eq!(mode(), Mode::Off);
        assert!(!enabled());
    }
}
