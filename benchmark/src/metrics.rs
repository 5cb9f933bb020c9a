//! The benchmark's metric vocabulary. `BENCHMARK.json` at the repository
//! root declares the same names; a test keeps the two in sync.

use dcn_obs::json::Json;
use dcn_obs::names;

/// End-to-end metrics, printed by every run: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("ops_per_s", "ops/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Program work counters, reported as their increase over the timed loop
/// divided by the ops run (unit `1/op`). Every pass repeats the same work,
/// so these repeat exactly between runs of one seed.
pub const COUNTERS: &[&str] = &[
    names::GRAPH_DIST_BFS_RUNS,
    names::GRAPH_KSP_SLACK_DFS_EXPANSIONS,
    names::LP_SIMPLEX_PIVOTS,
    names::LP_SIMPLEX_REFACTORIZATIONS,
    names::MCF_FPTAS_PHASES,
    names::MCF_FPTAS_AUGMENTATIONS,
    names::PARTITION_FM_MOVES,
    names::PARTITION_COARSEN_ROUNDS,
    names::CACHE_HIT,
    names::CACHE_MISS,
    names::EXEC_POOL_TASKS,
    names::DELTA_MATCHING_PATCHED,
    names::DELTA_DIST_ROWS_REBUILT,
    names::DELTA_FALLBACK,
    names::CORE_TUB_FALLBACKS,
    names::MCF_FALLBACK_EXACT_TO_FPTAS,
    names::CORE_RESILIENCE_DISCONNECTED_SAMPLES,
];

/// `cache.hit / (cache.hit + cache.miss)` over the timed loop.
pub const CACHE_HIT_RATE: &str = names::CACHE_HIT_RATE;
/// Process CPU time over the timed loop divided by `threads × wall`.
pub const EXEC_UTILIZATION: &str = "exec.utilization";

/// The layers a traced run times, each around one public call into the
/// named crate. The metric `<layer>_ms` is the median, over the ops that
/// call the layer, of the time an op spends in it; `<layer>.share` is the
/// layer's total time as a share of the replayed ops' total time.
pub const LAYERS: &[&str] = &[
    "topo.build",
    "topo.fail",
    "graph.apsp",
    "graph.ksp",
    "match.hungarian",
    "mcf.fptas",
    "lp.exact",
    "core.tub",
    "partition.bisect",
];

/// Share of replayed op time the layer calls above do not cover.
pub const OTHER_SHARE: &str = "core.other_share";
/// Frontier size probes per op.
pub const PROBES_PER_OP: &str = "core.probes_per_op";

/// Every per-layer metric, `(name, unit)`, in print order.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> =
        COUNTERS.iter().map(|c| (c.to_string(), "1/op")).collect();
    out.push((CACHE_HIT_RATE.to_string(), "share"));
    out.push((EXEC_UTILIZATION.to_string(), "share"));
    for layer in LAYERS {
        out.push((format!("{layer}_ms"), "ms"));
        out.push((format!("{layer}.share"), "share"));
    }
    out.push((OTHER_SHARE.to_string(), "share"));
    out.push((PROBES_PER_OP.to_string(), "1/op"));
    out
}

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Declared metric name.
    pub name: String,
    /// The value as measured.
    pub value: f64,
    /// Declared unit.
    pub unit: &'static str,
}

impl Metric {
    /// A metric with a declared name; the unit is looked up from the
    /// declarations, so an undeclared name is a bug caught here.
    pub fn new(name: &str, value: f64) -> Metric {
        let unit = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .chain(per_layer())
            .find(|(n, _)| n == name)
            .map(|(_, u)| u)
            .unwrap_or_else(|| panic!("metric {name} is not declared"));
        Metric {
            name: name.to_string(),
            value,
            unit,
        }
    }

    /// The human-readable line: `name value unit`.
    pub fn line(&self) -> String {
        format!("{:<38} {:>20} {}", self.name, self.value, self.unit)
    }
}

/// The closing JSON summary line.
pub fn summary_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let metrics = Json::Obj(
        metrics
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    Json::obj([("value", Json::Num(m.value)), ("unit", Json::from(m.unit))]),
                )
            })
            .collect(),
    );
    Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::from(attempted)),
        ("failed", Json::from(failed)),
        ("metrics", metrics),
    ])
    .to_string_compact()
}
