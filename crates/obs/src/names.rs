//! Central registry of every metric and span name in the workspace.
//!
//! Metric names are load-bearing: run manifests written by `dcn-bench`
//! key on them, EXPERIMENTS.md's triage notes reference them, and the
//! fallback-provenance counters (`mcf.fallback.exact_to_fptas`,
//! `core.tub.fallbacks`) are how a reviewer tells a clean solve from a
//! degraded one. A typo at a call site used to silently fork a metric;
//! now `dcn-lint`'s `metric-registry` rule requires every
//! `counter!`/`gauge!`/`histogram!`/`span!` call site to pass one of the
//! constants below (never a raw string), and requires every constant to be
//! used somewhere — so typos fail CI and dead metrics get deleted instead
//! of lingering in manifests.
//!
//! Naming convention: `<crate>.<module>.<event>`, lower-case, dot-
//! separated (enforced by a test below and by the lint rule). Constants
//! are grouped by owning crate.

// --- dcn-graph -------------------------------------------------------------

/// Yen/KSP spur searches attempted (counter).
pub const GRAPH_KSP_SPUR_SEARCHES: &str = "graph.ksp.spur_searches";
/// Yen/KSP candidate paths generated (counter).
pub const GRAPH_KSP_CANDIDATES: &str = "graph.ksp.candidates";
/// Slack-DFS node expansions during path enumeration (counter).
pub const GRAPH_KSP_SLACK_DFS_EXPANSIONS: &str = "graph.ksp.slack_dfs_expansions";
/// Multi-source distance computation (span).
pub const GRAPH_DIST_FROM_SOURCES: &str = "graph.dist.from_sources";
/// BFS runs issued by the distance oracle (counter).
pub const GRAPH_DIST_BFS_RUNS: &str = "graph.dist.bfs_runs";
/// Peak BFS frontier size per run (histogram).
pub const GRAPH_DIST_BFS_FRONTIER_PEAK: &str = "graph.dist.bfs_frontier_peak";
/// Dinic BFS phases per budgeted max-flow solve (counter).
pub const GRAPH_MAXFLOW_PHASES: &str = "graph.maxflow.phases";

// --- dcn-lp ----------------------------------------------------------------

/// Simplex pivots across both phases (counter).
pub const LP_SIMPLEX_PIVOTS: &str = "lp.simplex.pivots";
/// Degenerate (zero-progress) pivots (counter).
pub const LP_SIMPLEX_DEGENERATE_PIVOTS: &str = "lp.simplex.degenerate_pivots";
/// Switches into Bland's anti-cycling rule (counter).
pub const LP_SIMPLEX_BLAND_ACTIVATIONS: &str = "lp.simplex.bland_activations";
/// Basis refactorizations (counter).
pub const LP_SIMPLEX_REFACTORIZATIONS: &str = "lp.simplex.refactorizations";
/// Refactorization-and-resume recoveries after a singular basis (counter).
pub const LP_SIMPLEX_REFACTOR_RESUMES: &str = "lp.simplex.refactor_resumes";
/// Phase-1 iterations of the two-phase simplex (counter).
pub const LP_SIMPLEX_PHASE1_ITERS: &str = "lp.simplex.phase1_iters";
/// Phase-2 iterations of the two-phase simplex (counter).
pub const LP_SIMPLEX_PHASE2_ITERS: &str = "lp.simplex.phase2_iters";
/// One `LpProblem::solve` call (span).
pub const LP_SIMPLEX_SOLVE: &str = "lp.simplex.solve";

// --- dcn-mcf ---------------------------------------------------------------

/// One FPTAS solve (span).
pub const MCF_FPTAS_SOLVE: &str = "mcf.fptas.solve";
/// Garg–Könemann phases completed (counter).
pub const MCF_FPTAS_PHASES: &str = "mcf.fptas.phases";
/// Flow augmentations performed (counter).
pub const MCF_FPTAS_AUGMENTATIONS: &str = "mcf.fptas.augmentations";
/// FPTAS runs truncated by budget exhaustion (counter).
pub const MCF_FPTAS_TRUNCATED_RUNS: &str = "mcf.fptas.truncated_runs";
/// Relative bracket width actually achieved (gauge).
pub const MCF_FPTAS_ACHIEVED_EPS: &str = "mcf.fptas.achieved_eps";
/// Exact-engine solves that fell back to the FPTAS (counter).
pub const MCF_FALLBACK_EXACT_TO_FPTAS: &str = "mcf.fallback.exact_to_fptas";
/// One exact (LP) MCF solve (span).
pub const MCF_EXACT_SOLVE: &str = "mcf.exact.solve";
/// LP columns in the exact formulation (histogram).
pub const MCF_EXACT_COLUMNS: &str = "mcf.exact.columns";
/// LP rows in the exact formulation (histogram).
pub const MCF_EXACT_ROWS: &str = "mcf.exact.rows";

// --- dcn-match / dcn-partition --------------------------------------------

/// Exact Hungarian shortest-path steps, one per budget tick, added once per
/// completed solve (counter). dcn-match has no metrics dependency; dcn-core
/// records it from `HungarianState::steps` on the TUB and delta paths.
pub const MATCH_HUNGARIAN_STEPS: &str = "match.hungarian.steps";
/// Kernighan–Lin/FM refinement passes (counter).
pub const PARTITION_FM_PASSES: &str = "partition.fm.passes";
/// FM vertex moves accepted (counter).
pub const PARTITION_FM_MOVES: &str = "partition.fm.moves";
/// Coarsening rounds in the multilevel partitioner (counter).
pub const PARTITION_COARSEN_ROUNDS: &str = "partition.coarsen.rounds";
/// One bisection call (span).
pub const PARTITION_BISECT_BISECTION: &str = "partition.bisect.bisection";
/// Cut values observed per bisection try (histogram).
pub const PARTITION_BISECT_TRY_CUT: &str = "partition.bisect.try_cut";
/// Bisection tries truncated by budget exhaustion (counter).
pub const PARTITION_BISECT_TRUNCATED_TRIES: &str = "partition.bisect.truncated_tries";
/// Best cut found so far (gauge).
pub const PARTITION_BISECT_BEST_CUT: &str = "partition.bisect.best_cut";
/// Coarsening hierarchy depth per bisection (histogram).
pub const PARTITION_BISECT_COARSEN_LEVELS: &str = "partition.bisect.coarsen_levels";

// --- dcn-core --------------------------------------------------------------

/// One TUB computation (span).
pub const CORE_TUB: &str = "core.tub";
/// All-pairs shortest paths inside TUB (span).
pub const CORE_TUB_APSP: &str = "core.tub.apsp";
/// Maximal-permutation matching inside TUB (span).
pub const CORE_TUB_MATCHING: &str = "core.tub.matching";
/// Last computed TUB value (gauge).
pub const CORE_TUB_BOUND: &str = "core.tub.bound";
/// TUB solves that fell back from Hungarian to the greedy matcher (counter).
pub const CORE_TUB_FALLBACKS: &str = "core.tub.fallbacks";
/// Failure samples excluded from RMS because the fabric disconnected
/// (counter).
pub const CORE_RESILIENCE_DISCONNECTED_SAMPLES: &str = "core.resilience.disconnected_samples";
/// One routed lower-bound computation (span).
pub const CORE_LOWER: &str = "core.lower";
/// One frontier-sweep cell evaluated as a pool task (span).
pub const CORE_FRONTIER_CELL: &str = "core.frontier.cell";
/// One resilience failure sample evaluated as a pool task (span).
pub const CORE_RESILIENCE_SAMPLE: &str = "core.resilience.sample";

// --- dcn-exec --------------------------------------------------------------

/// Fan-out calls issued to a `dcn_exec::Pool` (counter).
pub const EXEC_POOL_RUNS: &str = "exec.pool.runs";
/// Tasks executed across all pool runs (counter).
pub const EXEC_POOL_TASKS: &str = "exec.pool.tasks";
/// Pool runs cut short by a task error, deadline, or cancellation (counter).
pub const EXEC_POOL_SHORT_CIRCUITS: &str = "exec.pool.short_circuits";
/// Per-worker busy time per pool run, in nanoseconds (histogram).
pub const EXEC_POOL_WORKER_BUSY_NS: &str = "exec.pool.worker_busy_ns";
/// Worker count of the most recent pool run (gauge).
pub const EXEC_POOL_THREADS: &str = "exec.pool.threads";
/// One claimed task executed inside a pool fan-out (span). Nested under
/// the submitting thread's span path via cross-thread attribution.
pub const EXEC_POOL_TASK: &str = "exec.pool.task";

// --- dcn-guard -------------------------------------------------------------

/// Post-solve certificate validation failures (counter).
pub const GUARD_VALIDATE_FAILURES: &str = "guard.validate.failures";
/// Budget iteration caps hit (counter).
pub const GUARD_BUDGET_ITERATIONS_EXCEEDED: &str = "guard.budget.iterations_exceeded";
/// Budget wall-clock deadlines hit (counter).
pub const GUARD_BUDGET_DEADLINE_EXCEEDED: &str = "guard.budget.deadline_exceeded";
/// Budgets observed cancelled (counter).
pub const GUARD_BUDGET_CANCELLED: &str = "guard.budget.cancelled";

// --- dcn-bench -------------------------------------------------------------

/// Exact MCF throughput of the last fig3 instance (gauge).
pub const BENCH_FIG3_EXACT_THETA: &str = "bench.fig3.exact_theta";
/// Bisection-bandwidth proxy of the last fig3 instance (gauge).
pub const BENCH_FIG3_BBW_PROXY: &str = "bench.fig3.bbw_proxy";
/// Wall time of a [`crate::time_scope`]-wrapped experiment body (span).
pub const BENCH_TIMED: &str = "bench.timed";

// --- dcn-cache -------------------------------------------------------------

/// Solver-result cache lookups served from memory (counter).
pub const CACHE_HIT: &str = "cache.hit";
/// Solver-result cache lookups that had to recompute (counter).
pub const CACHE_MISS: &str = "cache.miss";
/// Entries evicted to stay under the cache byte budget (counter).
pub const CACHE_EVICT: &str = "cache.evict";
/// Lookups served by deserializing an on-disk record (counter).
pub const CACHE_DISK_HIT: &str = "cache.disk.hit";
/// On-disk records quarantined as corrupt or invalid (counter).
pub const CACHE_QUARANTINED: &str = "cache.quarantined";
/// hits / (hits + misses) at manifest-capture time (gauge).
pub const CACHE_HIT_RATE: &str = "cache.hit_rate";

// --- dcn_obs::trace --------------------------------------------------------

/// Trace events appended to the per-thread buffers (counter).
pub const TRACE_EVENTS_RECORDED: &str = "trace.events.recorded";
/// Trace events dropped at the 2,000,000-event cap (counter).
pub const TRACE_EVENTS_DROPPED: &str = "trace.events.dropped";

// --- delta (incremental solving, spans lp/mcf/core) ------------------------

/// Failure samples solved cold because their parent matching could not
/// be solved (counter).
pub const DELTA_FALLBACK: &str = "delta.fallback";
/// Hungarian matchings patched incrementally instead of recomputed
/// (counter).
pub const DELTA_MATCHING_PATCHED: &str = "delta.matching.patched";
/// BFS distance rows a delta-TUB solve computes for its failure sample
/// (counter).
pub const DELTA_DIST_ROWS_REBUILT: &str = "delta.dist.rows_rebuilt";

// --- dcnd ------------------------------------------------------------------

/// Queries answered `ok` (counter).
pub const DCND_QUERIES_OK: &str = "dcnd.queries.ok";
/// Queries answered with a typed `rejected` response (counter).
pub const DCND_QUERIES_REJECTED: &str = "dcnd.queries.rejected";
/// Queries answered with a typed `error` response (counter).
pub const DCND_QUERIES_ERROR: &str = "dcnd.queries.error";
/// Queries collapsed onto an identical in-batch canonical key (counter).
pub const DCND_QUERIES_DEDUPED: &str = "dcnd.queries.deduped";
/// One admitted query batch scheduled on the pool (span).
pub const DCND_BATCH: &str = "dcnd.batch";
/// One cold query solve inside a batch (span).
pub const DCND_SOLVE: &str = "dcnd.solve";

/// Every registered name, for exhaustiveness tests and tooling.
pub const ALL: &[&str] = &[
    GRAPH_KSP_SPUR_SEARCHES,
    GRAPH_KSP_CANDIDATES,
    GRAPH_KSP_SLACK_DFS_EXPANSIONS,
    GRAPH_DIST_FROM_SOURCES,
    GRAPH_DIST_BFS_RUNS,
    GRAPH_DIST_BFS_FRONTIER_PEAK,
    GRAPH_MAXFLOW_PHASES,
    LP_SIMPLEX_PIVOTS,
    LP_SIMPLEX_DEGENERATE_PIVOTS,
    LP_SIMPLEX_BLAND_ACTIVATIONS,
    LP_SIMPLEX_REFACTORIZATIONS,
    LP_SIMPLEX_REFACTOR_RESUMES,
    LP_SIMPLEX_PHASE1_ITERS,
    LP_SIMPLEX_PHASE2_ITERS,
    LP_SIMPLEX_SOLVE,
    MCF_FPTAS_SOLVE,
    MCF_FPTAS_PHASES,
    MCF_FPTAS_AUGMENTATIONS,
    MCF_FPTAS_TRUNCATED_RUNS,
    MCF_FPTAS_ACHIEVED_EPS,
    MCF_FALLBACK_EXACT_TO_FPTAS,
    MCF_EXACT_SOLVE,
    MCF_EXACT_COLUMNS,
    MCF_EXACT_ROWS,
    MATCH_HUNGARIAN_STEPS,
    PARTITION_FM_PASSES,
    PARTITION_FM_MOVES,
    PARTITION_COARSEN_ROUNDS,
    PARTITION_BISECT_BISECTION,
    PARTITION_BISECT_TRY_CUT,
    PARTITION_BISECT_TRUNCATED_TRIES,
    PARTITION_BISECT_BEST_CUT,
    PARTITION_BISECT_COARSEN_LEVELS,
    CORE_TUB,
    CORE_TUB_APSP,
    CORE_TUB_MATCHING,
    CORE_TUB_BOUND,
    CORE_TUB_FALLBACKS,
    CORE_RESILIENCE_DISCONNECTED_SAMPLES,
    CORE_LOWER,
    CORE_FRONTIER_CELL,
    CORE_RESILIENCE_SAMPLE,
    EXEC_POOL_RUNS,
    EXEC_POOL_TASKS,
    EXEC_POOL_SHORT_CIRCUITS,
    EXEC_POOL_WORKER_BUSY_NS,
    EXEC_POOL_THREADS,
    EXEC_POOL_TASK,
    GUARD_VALIDATE_FAILURES,
    GUARD_BUDGET_ITERATIONS_EXCEEDED,
    GUARD_BUDGET_DEADLINE_EXCEEDED,
    GUARD_BUDGET_CANCELLED,
    BENCH_FIG3_EXACT_THETA,
    BENCH_FIG3_BBW_PROXY,
    BENCH_TIMED,
    CACHE_HIT,
    CACHE_MISS,
    CACHE_EVICT,
    CACHE_DISK_HIT,
    CACHE_QUARANTINED,
    CACHE_HIT_RATE,
    TRACE_EVENTS_RECORDED,
    TRACE_EVENTS_DROPPED,
    DELTA_FALLBACK,
    DELTA_MATCHING_PATCHED,
    DELTA_DIST_ROWS_REBUILT,
    DCND_QUERIES_OK,
    DCND_QUERIES_REJECTED,
    DCND_QUERIES_ERROR,
    DCND_QUERIES_DEDUPED,
    DCND_BATCH,
    DCND_SOLVE,
];

#[cfg(test)]
mod tests {
    use super::ALL;

    #[test]
    fn names_are_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for &n in ALL {
            assert!(seen.insert(n), "duplicate metric name {n}");
        }
    }

    #[test]
    fn names_follow_convention() {
        for &n in ALL {
            assert!(
                n.split('.').count() >= 2,
                "{n} is not <crate>.<module>.<event>-shaped"
            );
            assert!(
                n.chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '.' || c == '_'),
                "{n} contains characters outside [a-z0-9._]"
            );
            assert!(
                !n.starts_with('.') && !n.ends_with('.') && !n.contains(".."),
                "{n} has empty segments"
            );
        }
    }
}
