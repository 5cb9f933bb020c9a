//! Spans recorded by the traced replay, around the benchmark's own calls
//! into each layer, and their export as a Perfetto-loadable trace.

use crate::metrics::LAYERS;
use dcn_obs::json::Json;
use std::path::Path;
use std::time::Instant;

/// One recorded span. Layer spans have the op span as parent.
#[derive(Debug, Clone)]
struct Span {
    /// Op index within the pass.
    op: usize,
    /// `"op"` or a layer from [`LAYERS`].
    name: &'static str,
    /// Start, microseconds since the recorder was created.
    start_us: f64,
    /// End, microseconds since the recorder was created.
    end_us: f64,
    /// Name of the enclosing span, `None` for op spans.
    parent: Option<&'static str>,
}

/// Time spent in each layer by one replayed op, indexed like [`LAYERS`].
#[derive(Debug, Clone, Default)]
pub struct OpLayers {
    /// Milliseconds per layer.
    pub ms: Vec<f64>,
    /// Milliseconds for the whole replayed op.
    pub op_ms: f64,
    /// Frontier size probes made by the op.
    pub probes: u64,
}

/// Collects spans in memory while ops are replayed.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    op: usize,
    current: OpLayers,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Recorder {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            op: 0,
            current: OpLayers::default(),
        }
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Runs `f` as op `op` and returns its result with the time it spent
    /// in each layer.
    pub fn op<T>(&mut self, op: usize, f: impl FnOnce(&mut Recorder) -> T) -> (T, OpLayers) {
        self.op = op;
        self.current = OpLayers {
            ms: vec![0.0; LAYERS.len()],
            ..OpLayers::default()
        };
        let start_us = self.now_us();
        let out = f(self);
        let end_us = self.now_us();
        self.spans.push(Span {
            op,
            name: "op",
            start_us,
            end_us,
            parent: None,
        });
        let mut layers = std::mem::take(&mut self.current);
        layers.op_ms = (end_us - start_us) / 1e3;
        (out, layers)
    }

    /// Times one call into `layer`, which must be one of [`LAYERS`].
    pub fn time<T>(&mut self, layer: &'static str, f: impl FnOnce() -> T) -> T {
        let idx = LAYERS
            .iter()
            .position(|&l| l == layer)
            .unwrap_or_else(|| panic!("layer {layer} is not declared"));
        let start_us = self.now_us();
        let out = f();
        let end_us = self.now_us();
        self.current.ms[idx] += (end_us - start_us) / 1e3;
        self.spans.push(Span {
            op: self.op,
            name: layer,
            start_us,
            end_us,
            parent: Some("op"),
        });
        out
    }

    /// Counts one frontier size probe of the current op.
    pub fn probe(&mut self) {
        self.current.probes += 1;
    }

    /// Writes the spans as Chrome trace-event JSON, which Perfetto
    /// (ui.perfetto.dev) and `chrome://tracing` load. Layer spans nest under
    /// their op span by time on the single track.
    pub fn write_perfetto(&self, path: &Path, workload: &str) -> std::io::Result<()> {
        let events = self
            .spans
            .iter()
            .map(|s| {
                Json::obj([
                    ("name", Json::from(s.name)),
                    ("cat", Json::from(workload)),
                    ("ph", Json::from("X")),
                    ("ts", Json::Num(s.start_us)),
                    ("dur", Json::Num(s.end_us - s.start_us)),
                    ("pid", Json::from(1u64)),
                    ("tid", Json::from(1u64)),
                    (
                        "args",
                        Json::obj([
                            ("op", Json::from(s.op)),
                            ("parent", s.parent.map_or(Json::Null, Json::from)),
                        ]),
                    ),
                ])
            })
            .collect();
        let doc = Json::obj([
            ("traceEvents", Json::Arr(events)),
            ("displayTimeUnit", Json::from("ms")),
        ]);
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, doc.to_string_compact())
    }
}
