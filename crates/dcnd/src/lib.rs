//! `dcnd`: the long-running throughput-query daemon (ROADMAP item 2).
//!
//! The paper's thesis is that throughput — TUB cross-checked by KSP-MCF
//! — is *the* metric a topology should be judged by, which makes
//! "evaluate this (topology, traffic-matrix, estimator) triple" the unit
//! of service this workspace exports. `dcnd` turns the one-shot solvers
//! into exactly that service: it reads line-delimited JSON queries over
//! stdin (or a unix socket via `DCN_DCND_SOCKET`), answers warm queries
//! straight from the shared `DCN_CACHE_DIR` tier, schedules cold solves
//! on `dcn_exec::Pool` under a process-global deadline budget, and
//! collapses isomorphic-by-construction queries via cheap canonical keys
//! for the parameter-determined families (fat-tree, Clos). Seeded random
//! families (Jellyfish, Xpander, FatClique) are deliberately *not*
//! canonicalized: their specs are hashed verbatim, so textually distinct
//! specs stay distinct even when parameter-identical.
//!
//! Admission control has four outcomes per query, each a typed response:
//!
//! * **warm** — the canonical key is already in a cache tier; answered
//!   immediately (even after the global budget is exhausted) with
//!   provenance `"cache":"hit"`.
//! * **cold** — scheduled on the pool under the global budget; answered
//!   with `"cache":"miss"` (or `"dedup"` for in-batch duplicates of the
//!   same canonical key, `"off"` when caching is disabled).
//! * **rejected** — `{"status":"rejected","reason":"global-budget-exhausted"}`
//!   when the global budget is already exhausted.
//! * **error** — `{"status":"error",...}` for malformed queries and
//!   failed solves.
//!
//! Determinism contract: responses carry no timings, so responses to a
//! replayed batch are byte-identical run over run, and
//! each `value` is bit-identical to the one-shot answer for the same
//! triple (`dcnd --oneshot` — CI's `dcnd-smoke` job gates on both).
//!
//! Every solver entry point reached from here takes the unified
//! [`SolveCtx`] introduced alongside this crate; the daemon threads one
//! per-process context (shared cache + global budget) through the whole
//! stack. See DESIGN.md §15.

use dcn_cache::{CacheEntry, CacheHandle, CacheKey, KeyBuilder, SolveCtx};
use dcn_core::frontier::Family;
use dcn_core::{CoreError, MatchingBackend};
use dcn_estimators::{
    BbwProxy, EstimatorError, HoeflerMethod, JainMethod, SinglaBound, SparsestCut,
    ThroughputEstimator, TubEstimator,
};
use dcn_guard::{Budget, BudgetError};
use dcn_mcf::McfError;
use dcn_model::{Topology, TrafficMatrix};
use dcn_obs::env;
use dcn_obs::json::Json;
use dcn_topo::{fat_tree, folded_clos, ClosParams};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::{BufRead, Write};
use std::time::Duration;

/// Query lines per scheduling batch: [`Daemon::serve`] answers a batch
/// once it holds this many lines (or the input ends).
const BATCH_LINES: usize = 256;

/// Daemon configuration, read once at startup from the registered
/// `DCN_DCND_*` knobs (see `dcn_obs::env`).
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Unix socket path to listen on; `None` serves stdin/stdout.
    pub socket: Option<std::path::PathBuf>,
    /// Global wall-clock budget for all cold solves, anchored at
    /// [`Daemon::new`]; `None` is unlimited.
    pub global_deadline: Option<Duration>,
}

impl DaemonConfig {
    /// Reads every knob from the environment registry.
    pub fn from_env() -> DaemonConfig {
        DaemonConfig {
            socket: env::DCND_SOCKET.get_os().map(std::path::PathBuf::from),
            global_deadline: env::DCND_GLOBAL_DEADLINE_MS
                .parsed::<u64>()
                .map(Duration::from_millis),
        }
    }
}

/// A cached daemon answer: the scalar value of one (topology, TM,
/// estimator) triple under the canonical key. Persisted to the disk
/// tier so a restarted daemon stays warm.
#[derive(Clone)]
pub struct Answer(pub f64);

impl CacheEntry for Answer {
    const KIND: &'static str = "dcnd-answer";

    fn approx_bytes(&self) -> usize {
        8
    }

    fn to_json(&self) -> Json {
        Json::Num(self.0)
    }

    fn from_json(json: &Json) -> Result<Self, String> {
        json.as_f64()
            .map(Answer)
            .ok_or_else(|| "dcnd answer: expected a number".into())
    }

    fn validate(&self) -> Result<(), String> {
        if self.0.is_finite() {
            Ok(())
        } else {
            Err(format!("dcnd answer not finite: {}", self.0))
        }
    }
}

/// One parsed, admissible query: specs kept verbatim for solving, plus
/// the precomputed canonical identity used for cache lookups and
/// in-batch dedup.
#[derive(Debug, Clone)]
pub struct Query {
    /// Echoed back in the response (`null` when absent).
    pub id: Json,
    /// The `topology` spec object, verbatim.
    pub topology: Json,
    /// The `tm` spec object, verbatim (`null` ⇒ all-to-all).
    pub tm: Json,
    /// Estimator name (`tub`, `bbw`, `sc`, `singla`, `hm(k)`, `jm(k)`).
    pub estimator: String,
    /// Canonical identity of the (topology, tm, estimator) triple.
    pub key: CacheKey,
    /// Whether the topology family was canonicalized (fat-tree/Clos) —
    /// diagnostic only; the key is authoritative either way.
    pub canonical: bool,
}

/// Parses one query line. Errors are returned as user-facing strings
/// that become typed `error` responses.
pub fn parse_query(line: &str) -> Result<Query, String> {
    let q = Json::parse(line).map_err(|e| format!("bad json: {e}"))?;
    let topology = q
        .get("topology")
        .cloned()
        .ok_or("query needs a `topology` spec")?;
    let tm = q.get("tm").cloned().unwrap_or(Json::Null);
    let estimator = q
        .get("estimator")
        .and_then(Json::as_str)
        .ok_or("query needs an `estimator` name")?
        .to_string();
    make_estimator(&estimator)?;
    let (topo_ident, canonical) = canonical_topo_ident(&topology)?;
    let tm_ident = canonical_tm_ident(&tm)?;
    let key = KeyBuilder::new(Answer::KIND)
        .str(&topo_ident)
        .str(&tm_ident)
        .str(&estimator)
        .finish();
    Ok(Query {
        id: q.get("id").cloned().unwrap_or(Json::Null),
        topology,
        tm,
        estimator,
        key,
        canonical,
    })
}

/// The canonical identity string of a topology spec, computed *without*
/// building the topology (admission must stay cheap).
///
/// Fat-tree and Clos instances are fully determined by their
/// parameters, so their identity is the normalized parameter list —
/// textually different spellings (field order, omitted defaults,
/// whitespace) of the same instance collapse to one identity. Seeded
/// random families are hashed on their compact spec text instead:
/// equality of parameters does not make two *spellings* the same query,
/// and the daemon must never pretend two random builds are
/// interchangeable. Returns `(identity, canonicalized?)`.
pub fn canonical_topo_ident(spec: &Json) -> Result<(String, bool), String> {
    let family = spec
        .get("family")
        .and_then(Json::as_str)
        .ok_or("topology spec needs a `family`")?;
    let num = |key: &str| spec.get(key).and_then(Json::as_f64);
    match family {
        "fat_tree" => {
            let k = num("k").ok_or("fat_tree needs `k`")? as u64;
            Ok((format!("fat_tree(k={k})"), true))
        }
        "clos" => {
            let radix = num("radix").ok_or("clos needs `radix`")? as u64;
            let layers = num("layers").unwrap_or(3.0) as u64;
            let top_pods = num("top_pods").unwrap_or(radix as f64) as u64;
            let spine = num("spine_uplink_fraction").unwrap_or(1.0);
            let leaf = num("leaf_servers").unwrap_or(0.0) as u64;
            Ok((
                format!(
                    "clos(radix={radix},layers={layers},top_pods={top_pods},\
                     spine={spine},leaf={leaf})"
                ),
                true,
            ))
        }
        "jellyfish" | "xpander" | "fatclique" => Ok((spec.to_string_compact(), false)),
        other => Err(format!("unknown topology family `{other}`")),
    }
}

/// The canonical identity string of a TM spec (`null` ⇒ all-to-all).
/// TM generators are parameter-determined given their seed, so the
/// normalized parameter list is always safe to canonicalize.
pub fn canonical_tm_ident(spec: &Json) -> Result<String, String> {
    if matches!(spec, Json::Null) {
        return Ok("all_to_all".into());
    }
    let kind = spec
        .get("kind")
        .and_then(Json::as_str)
        .ok_or("tm spec needs a `kind`")?;
    let seed = spec.get("seed").and_then(Json::as_u64).unwrap_or(1);
    match kind {
        "all_to_all" => Ok("all_to_all".into()),
        "random_permutation" => Ok(format!("random_permutation(seed={seed})")),
        "random_hose" => {
            let cycles = spec.get("cycles").and_then(Json::as_u64).unwrap_or(4);
            Ok(format!("random_hose(cycles={cycles},seed={seed})"))
        }
        other => Err(format!("unknown tm kind `{other}`")),
    }
}

/// Builds the topology a spec describes. Only called on the cold path —
/// warm queries are answered from the canonical key alone.
pub fn build_topology(spec: &Json) -> Result<Topology, String> {
    let family = spec
        .get("family")
        .and_then(Json::as_str)
        .ok_or("topology spec needs a `family`")?;
    let num = |key: &str| spec.get(key).and_then(Json::as_f64);
    match family {
        "fat_tree" => {
            let k = num("k").ok_or("fat_tree needs `k`")? as usize;
            fat_tree(k).map_err(|e| e.to_string())
        }
        "clos" => {
            let radix = num("radix").ok_or("clos needs `radix`")? as usize;
            folded_clos(ClosParams {
                radix,
                layers: num("layers").unwrap_or(3.0) as usize,
                top_pods: num("top_pods").unwrap_or(radix as f64) as usize,
                spine_uplink_fraction: num("spine_uplink_fraction").unwrap_or(1.0),
                leaf_servers: num("leaf_servers").unwrap_or(0.0) as usize,
            })
            .map_err(|e| e.to_string())
        }
        "jellyfish" | "xpander" | "fatclique" => {
            let fam = Family::from_name(family).ok_or("unreachable: family matched above")?;
            let switches = num("switches").ok_or(format!("{family} needs `switches`"))? as usize;
            let radix = num("radix").ok_or(format!("{family} needs `radix`"))? as u32;
            let h = num("h").unwrap_or(4.0) as u32;
            let seed = spec.get("seed").and_then(Json::as_u64).unwrap_or(1);
            fam.build(switches, radix, h, seed).map_err(|e| e.to_string())
        }
        other => Err(format!("unknown topology family `{other}`")),
    }
}

/// Builds the traffic matrix a spec describes for `topo`.
pub fn build_tm(spec: &Json, topo: &Topology) -> Result<TrafficMatrix, String> {
    if matches!(spec, Json::Null) {
        return TrafficMatrix::all_to_all(topo).map_err(|e| e.to_string());
    }
    let kind = spec
        .get("kind")
        .and_then(Json::as_str)
        .ok_or("tm spec needs a `kind`")?;
    let seed = spec.get("seed").and_then(Json::as_u64).unwrap_or(1);
    let mut rng = StdRng::seed_from_u64(seed);
    match kind {
        "all_to_all" => TrafficMatrix::all_to_all(topo).map_err(|e| e.to_string()),
        "random_permutation" => {
            TrafficMatrix::random_permutation(topo, &mut rng).map_err(|e| e.to_string())
        }
        "random_hose" => {
            let cycles = spec.get("cycles").and_then(Json::as_u64).unwrap_or(4) as usize;
            TrafficMatrix::random_hose(topo, cycles, &mut rng).map_err(|e| e.to_string())
        }
        other => Err(format!("unknown tm kind `{other}`")),
    }
}

/// Instantiates the estimator a name describes, with the daemon's fixed
/// deterministic parameters (the same ones `dcnd --oneshot` uses, so
/// daemon and one-shot answers agree bit for bit).
pub fn make_estimator(name: &str) -> Result<Box<dyn ThroughputEstimator>, String> {
    if let Some(k) = name
        .strip_prefix("hm(")
        .and_then(|s| s.strip_suffix(')'))
        .and_then(|s| s.parse::<usize>().ok())
    {
        return Ok(Box::new(HoeflerMethod { k }));
    }
    if let Some(k) = name
        .strip_prefix("jm(")
        .and_then(|s| s.strip_suffix(')'))
        .and_then(|s| s.parse::<usize>().ok())
    {
        return Ok(Box::new(JainMethod { k }));
    }
    match name {
        "tub" => Ok(Box::new(TubEstimator {
            backend: MatchingBackend::Auto { exact_below: 600 },
        })),
        "bbw" => Ok(Box::new(BbwProxy { tries: 3, seed: 7 })),
        "sc" => Ok(Box::new(SparsestCut { power_iters: 100 })),
        "singla" => Ok(Box::new(SinglaBound)),
        other => Err(format!("unknown estimator `{other}`")),
    }
}

/// True when an estimator failure is budget exhaustion (⇒ a typed
/// `rejected` response) rather than a genuine solve error.
fn is_budget_exhaustion(e: &EstimatorError) -> bool {
    fn core(e: &CoreError) -> bool {
        matches!(e, CoreError::Budget(_)) || matches!(e, CoreError::Mcf(McfError::Budget(_)))
    }
    match e {
        EstimatorError::Mcf(McfError::Budget(_)) => true,
        EstimatorError::Mcf(_) | EstimatorError::Graph(_) => false,
        EstimatorError::Core(c) => core(c),
    }
}

/// How a query was answered, for the provenance field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CacheProvenance {
    /// Served from a cache tier without solving.
    Hit,
    /// Cold solve (stored under the canonical key afterwards).
    Miss,
    /// Collapsed onto an identical in-batch canonical key.
    Dedup,
    /// Caching disabled; every query recomputes.
    Off,
}

impl CacheProvenance {
    fn name(self) -> &'static str {
        match self {
            CacheProvenance::Hit => "hit",
            CacheProvenance::Miss => "miss",
            CacheProvenance::Dedup => "dedup",
            CacheProvenance::Off => "off",
        }
    }
}

/// The outcome of solving one canonical key.
enum SolveOutcome {
    Ok { value: f64, fallback: bool },
    BudgetExhausted,
    Failed(String),
}

/// The daemon: shared cache handle, global budget (anchored at
/// construction), and scheduling pool.
pub struct Daemon {
    cache: CacheHandle,
    budget: Budget,
    pool: dcn_exec::Pool,
}

impl Daemon {
    /// Builds a daemon over the process cache tier
    /// ([`CacheHandle::from_env`]); the global deadline starts counting
    /// here.
    pub fn new(config: DaemonConfig) -> Daemon {
        let budget = match config.global_deadline {
            Some(d) => Budget::unlimited().with_wall(d),
            None => Budget::unlimited(),
        };
        Daemon {
            cache: CacheHandle::from_env(),
            budget,
            pool: dcn_exec::Pool::from_env(),
        }
    }

    /// As [`Daemon::new`] but over an explicit cache handle (tests).
    pub fn with_cache(config: DaemonConfig, cache: CacheHandle) -> Daemon {
        let mut d = Daemon::new(config);
        d.cache = cache;
        d
    }

    /// The daemon's cache handle (tests assert on its counters).
    pub fn cache(&self) -> &CacheHandle {
        &self.cache
    }

    /// Answers one batch of query lines, responses in input order.
    ///
    /// Pipeline: parse → canonical key → in-batch dedup → warm probe
    /// ([`CacheHandle::peek`]) → admission (global budget) → cold solves
    /// fanned out on the pool in chunks of its width → responses.
    pub fn process_batch(&self, lines: &[String]) -> Vec<String> {
        let _batch = dcn_obs::span!(dcn_obs::names::DCND_BATCH);
        let parsed: Vec<Result<Query, String>> =
            lines.iter().map(|l| parse_query(l)).collect();

        // First occurrence of each cold canonical key solves; later ones
        // collapse onto it. Warm keys answer straight from the tier.
        let mut outcomes: Vec<Option<CacheProvenance>> = vec![None; parsed.len()];
        let mut warm: Vec<(usize, f64)> = Vec::new();
        let mut cold: Vec<usize> = Vec::new(); // solver index per unique key
        let mut seen: std::collections::HashMap<CacheKey, usize> =
            std::collections::HashMap::new();
        for (i, q) in parsed.iter().enumerate() {
            let Ok(q) = q else { continue };
            if !self.cache.is_enabled() {
                // No cache to share results through: every occurrence
                // recomputes (identical solves land on one `solved` key,
                // which is fine — the solvers are deterministic).
                outcomes[i] = Some(CacheProvenance::Off);
                cold.push(i);
                continue;
            }
            if let Some(Answer(v)) = self.cache.peek::<Answer>(q.key) {
                outcomes[i] = Some(CacheProvenance::Hit);
                warm.push((i, v));
                continue;
            }
            match seen.get(&q.key) {
                Some(_) => {
                    outcomes[i] = Some(CacheProvenance::Dedup);
                    dcn_obs::counter!(dcn_obs::names::DCND_QUERIES_DEDUPED).inc();
                }
                None => {
                    seen.insert(q.key, i);
                    outcomes[i] = Some(CacheProvenance::Miss);
                    cold.push(i);
                }
            }
        }

        // Admission: an exhausted global budget rejects every cold solve
        // (warm answers above already went through).
        let exhausted = self.budget.meter().checkpoint().is_err();
        let mut solved: std::collections::HashMap<CacheKey, SolveOutcome> =
            std::collections::HashMap::new();
        if !exhausted {
            for chunk in cold.chunks(self.pool.threads().max(1)) {
                let results: Result<Vec<(CacheKey, SolveOutcome)>, BudgetError> =
                    self.pool.par_map(&self.budget, chunk, |_, &qi| {
                        let q = parsed[qi].as_ref().expect("cold index is parsed");
                        Ok((q.key, self.solve(q)))
                    });
                match results {
                    Ok(rs) => solved.extend(rs),
                    // The pool short-circuited on budget exhaustion
                    // mid-batch: everything not yet solved is rejected.
                    Err(_) => break,
                }
            }
        }

        // Fold the hit/miss counters into the `cache.hit_rate` gauge so
        // `DCN_OBS=summary` reports warm-tier effectiveness per run.
        dcn_cache::publish_hit_rate();

        parsed
            .iter()
            .enumerate()
            .map(|(i, q)| match q {
                Err(e) => {
                    dcn_obs::counter!(dcn_obs::names::DCND_QUERIES_ERROR).inc();
                    respond_error(&Json::Null, e)
                }
                Ok(q) => match outcomes[i] {
                    Some(CacheProvenance::Hit) => {
                        let v = warm
                            .iter()
                            .find(|&&(wi, _)| wi == i)
                            .map(|&(_, v)| v)
                            .expect("warm index recorded");
                        dcn_obs::counter!(dcn_obs::names::DCND_QUERIES_OK).inc();
                        respond_ok(q, v, CacheProvenance::Hit, false)
                    }
                    Some(prov) => match solved.get(&q.key) {
                        Some(SolveOutcome::Ok { value, fallback }) => {
                            dcn_obs::counter!(dcn_obs::names::DCND_QUERIES_OK).inc();
                            respond_ok(q, *value, prov, *fallback)
                        }
                        Some(SolveOutcome::BudgetExhausted) | None => {
                            dcn_obs::counter!(dcn_obs::names::DCND_QUERIES_REJECTED).inc();
                            respond_rejected(&q.id, "global-budget-exhausted")
                        }
                        Some(SolveOutcome::Failed(e)) => {
                            dcn_obs::counter!(dcn_obs::names::DCND_QUERIES_ERROR).inc();
                            respond_error(&q.id, e)
                        }
                    },
                    None => unreachable!("parsed queries always get an outcome"),
                },
            })
            .collect()
    }

    /// Solves one cold query under the daemon's global context; the
    /// result lands in the cache under the canonical key.
    fn solve(&self, q: &Query) -> SolveOutcome {
        let ctx = SolveCtx::new(&self.cache, &self.budget);
        let fallbacks_before = dcn_obs::counter_value(dcn_obs::names::CORE_TUB_FALLBACKS)
            + dcn_obs::counter_value(dcn_obs::names::MCF_FALLBACK_EXACT_TO_FPTAS);
        let span = dcn_obs::span!(dcn_obs::names::DCND_SOLVE);
        let result = self.cache.get_or_compute::<Answer, EstimatorError>(
            || q.key,
            || {
                let topo = build_topology(&q.topology)
                    .map_err(|e| EstimatorError::Core(CoreError::OutOfRegime(e)))?;
                let tm = build_tm(&q.tm, &topo)
                    .map_err(|e| EstimatorError::Core(CoreError::OutOfRegime(e)))?;
                let est = make_estimator(&q.estimator)
                    .map_err(|e| EstimatorError::Core(CoreError::OutOfRegime(e)))?;
                est.estimate(&topo, &tm, &ctx).map(Answer)
            },
        );
        drop(span);
        let fallbacks_after = dcn_obs::counter_value(dcn_obs::names::CORE_TUB_FALLBACKS)
            + dcn_obs::counter_value(dcn_obs::names::MCF_FALLBACK_EXACT_TO_FPTAS);
        match result {
            Ok(Answer(value)) => SolveOutcome::Ok {
                value,
                // Best-effort: counter delta around this solve. Exact in
                // a serial batch; under parallel fan-out a concurrent
                // solve's fallback can attribute here — provenance, not
                // correctness.
                fallback: fallbacks_after > fallbacks_before,
            },
            Err(e) if is_budget_exhaustion(&e) => SolveOutcome::BudgetExhausted,
            Err(e) => SolveOutcome::Failed(e.to_string()),
        }
    }

    /// Serves line-delimited queries from `input`, writing one response
    /// line per query to `out` in input order. Lines batch up to 256 per
    /// scheduling round.
    pub fn serve(
        &self,
        input: impl BufRead,
        mut out: impl Write,
    ) -> std::io::Result<()> {
        let mut batch: Vec<String> = Vec::new();
        for line in input.lines() {
            let line = line?;
            if line.trim().is_empty() {
                continue;
            }
            batch.push(line);
            if batch.len() >= BATCH_LINES {
                self.flush_batch(&mut batch, &mut out)?;
            }
        }
        self.flush_batch(&mut batch, &mut out)?;
        Ok(())
    }

    fn flush_batch(
        &self,
        batch: &mut Vec<String>,
        out: &mut impl Write,
    ) -> std::io::Result<()> {
        if batch.is_empty() {
            return Ok(());
        }
        for response in self.process_batch(batch) {
            writeln!(out, "{response}")?;
        }
        out.flush()?;
        batch.clear();
        Ok(())
    }

    /// Serves connections on a unix socket sequentially (the workspace's
    /// concurrency discipline keeps threads inside `dcn-exec`; the pool
    /// still parallelizes each batch's solves).
    pub fn serve_socket(&self, path: &std::path::Path) -> std::io::Result<()> {
        let _ = std::fs::remove_file(path);
        let listener = std::os::unix::net::UnixListener::bind(path)?;
        for conn in listener.incoming() {
            let conn = conn?;
            let reader = std::io::BufReader::new(conn.try_clone()?);
            self.serve(reader, conn)?;
        }
        Ok(())
    }
}

fn respond_ok(q: &Query, value: f64, prov: CacheProvenance, fallback: bool) -> String {
    let provenance = Json::obj([
        ("cache", Json::Str(prov.name().into())),
        ("fallback", Json::Bool(fallback)),
    ]);
    Json::obj([
        ("id", q.id.clone()),
        ("status", Json::Str("ok".into())),
        ("estimator", Json::Str(q.estimator.clone())),
        ("value", Json::Num(value)),
        ("provenance", provenance),
    ])
    .to_string_compact()
}

fn respond_rejected(id: &Json, reason: &str) -> String {
    Json::obj([
        ("id", id.clone()),
        ("status", Json::Str("rejected".into())),
        ("reason", Json::Str(reason.into())),
    ])
    .to_string_compact()
}

fn respond_error(id: &Json, error: &str) -> String {
    Json::obj([
        ("id", id.clone()),
        ("status", Json::Str("error".into())),
        ("error", Json::Str(error.into())),
    ])
    .to_string_compact()
}
