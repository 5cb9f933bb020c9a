//! The four workloads. Each builds its inputs from the seed, runs one op
//! per index through the program's public API, replays the op as its layer
//! calls, and checks the op's output.

mod failure_sweep;
mod frontier;
mod mcf_worst;
mod tub_exact;

pub use failure_sweep::FailureSweep;
pub use frontier::Frontier;
pub use mcf_worst::McfWorst;
pub use tub_exact::TubExact;

use crate::golden::Fields;
use crate::trace::Recorder;
use dcn_graph::{DistMatrix, NodeId};
use dcn_guard::Budget;
use dcn_match::hungarian_max;
use dcn_model::Topology;
use dcn_obs::names;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: &[&str] = &["tub_exact", "mcf_worst", "failure_sweep", "frontier"];

/// Program counters read around each op, outside its timing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpCounters {
    /// `core.tub.fallbacks`: Hungarian budget fallbacks (must stay 0).
    pub tub_fallbacks: u64,
    /// `mcf.fallback.exact_to_fptas`: exact-MCF budget fallbacks (must stay 0).
    pub mcf_fallbacks: u64,
    /// `core.resilience.disconnected_samples`: failure samples skipped.
    pub disconnected: u64,
}

impl OpCounters {
    /// Current counter values.
    pub fn read() -> OpCounters {
        OpCounters {
            tub_fallbacks: dcn_obs::counter_value(names::CORE_TUB_FALLBACKS),
            mcf_fallbacks: dcn_obs::counter_value(names::MCF_FALLBACK_EXACT_TO_FPTAS),
            disconnected: dcn_obs::counter_value(names::CORE_RESILIENCE_DISCONNECTED_SAMPLES),
        }
    }

    /// The increase from `before` to `self`.
    pub fn since(self, before: OpCounters) -> OpCounters {
        OpCounters {
            tub_fallbacks: self.tub_fallbacks - before.tub_fallbacks,
            mcf_fallbacks: self.mcf_fallbacks - before.mcf_fallbacks,
            disconnected: self.disconnected - before.disconnected,
        }
    }
}

/// One benchmark workload.
pub trait Workload: Sized {
    /// An op's output.
    type Out: Clone + PartialEq + std::fmt::Debug;

    /// Builds every input from `seed`; this is what `setup_s` times.
    fn setup(seed: u64) -> Result<Self, String>;

    /// Ops per pass. Every pass runs ops `0..ops()` and repeats the same
    /// work, so counters per op repeat exactly.
    fn ops(&self) -> usize;

    /// Called before each timed pass (workloads with a cache start a fresh one).
    fn begin_pass(&mut self) {}

    /// Op `i`: one call into the program's public API.
    fn run(&self, i: usize) -> Result<Self::Out, String>;

    /// Called before replaying a pass.
    fn begin_replay(&mut self) {}

    /// Op `i` again, as the sequence of layer calls the op makes, each
    /// timed by `rec`. Must return exactly what [`Workload::run`] returns.
    fn replay(&mut self, i: usize, rec: &mut Recorder) -> Result<Self::Out, String>;

    /// Checks the invariants op `i`'s output must satisfy on every seed.
    fn check(&self, i: usize, out: &Self::Out, counters: &OpCounters) -> Result<(), String>;

    /// The output fields compared against the golden file.
    fn fields(&self, i: usize, out: &Self::Out) -> Fields;
}

/// The parts of a TUB result the replays reproduce.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct TubParts {
    pub bound: f64,
    pub weighted_path_len: f64,
    pub pairs: Vec<(NodeId, NodeId)>,
}

/// `dcn_core::tub` with the exact backend and no cache, decomposed into its
/// two layer calls: BFS from every server switch, then the Hungarian
/// matching on the same weights and with the same arithmetic.
pub(crate) fn tub_by_layers(topo: &Topology, rec: &mut Recorder) -> Result<TubParts, String> {
    let k = topo.switches_with_servers();
    let dist = rec
        .time("graph.apsp", || DistMatrix::from_sources(topo.graph(), &k))
        .map_err(|e| format!("apsp: {e}"))?;
    let weight = |i: usize, j: usize| -> i64 {
        if i == j {
            return 0;
        }
        let (u, v) = (k[i], k[j]);
        let h = topo.servers_at(u).min(topo.servers_at(v)) as i64;
        dist.dist(u, v) as i64 * h
    };
    let matching = rec
        .time("match.hungarian", || {
            hungarian_max(k.len(), weight, Budget::unlimited_ref())
        })
        .map_err(|e| format!("hungarian: {e}"))?;
    let mut pairs = Vec::with_capacity(k.len());
    let mut weighted_path_len = 0.0;
    for (i, &j) in matching.assignment.iter().enumerate() {
        if i == j {
            continue;
        }
        pairs.push((k[i], k[j]));
        weighted_path_len += weight(i, j) as f64;
    }
    let capacity = 2.0 * topo.graph().total_capacity();
    Ok(TubParts {
        bound: capacity / weighted_path_len,
        weighted_path_len,
        pairs,
    })
}

/// Hop distances from `src` by the benchmark's own BFS, independent of
/// `dcn_graph`'s distance code.
pub(crate) fn bfs(topo: &Topology, src: NodeId) -> Vec<u32> {
    let g = topo.graph();
    let mut dist = vec![u32::MAX; g.n()];
    let mut queue = std::collections::VecDeque::from([src]);
    dist[src as usize] = 0;
    while let Some(u) = queue.pop_front() {
        for (v, _) in g.neighbors(u) {
            if dist[v as usize] == u32::MAX {
                dist[v as usize] = dist[u as usize] + 1;
                queue.push_back(v);
            }
        }
    }
    dist
}
