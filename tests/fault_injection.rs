//! Workspace-level fault-injection harness.
//!
//! Materializes every attack class in `dcn_guard::adversarial::CaseSpec`
//! into concrete topologies, traffic matrices, LPs, and budgets, and
//! drives them through the public solver entry points. The contract under
//! test is uniform: hostile input yields a **typed error** (or a sound
//! degraded result) — never a panic, never a hang, never a silent NaN.

#![expect(
    clippy::disallowed_methods,
    reason = "times cancellation, spawns threads and writers"
)]

use dcn::core::{tub, MatchingBackend};
use dcn::graph::ksp::yen;
use dcn::graph::{Graph, GraphError};
use dcn::guard::adversarial::{all_cases, hostile_floats, CaseSpec, Xorshift};
use dcn::guard::{Budget, BudgetError, CancelFlag};
use dcn::lp::{Cmp, LinearProgram, LpError, LpStatus};
use dcn::matching::hungarian_max;
use dcn::mcf::{ksp_mcf_throughput, throughput_with_fallback, Engine, McfError, PathSet};
use dcn::model::{Demand, ModelError, Topology, TrafficMatrix};
use dcn::partition::bisection;
use dcn_cache::prelude::*;
use std::time::{Duration, Instant};

/// A 6-cycle with one server per switch: small enough that every solver
/// finishes instantly under a sane budget, structured enough (two paths
/// per antipodal pair) that path enumeration and the LP are non-trivial.
fn ring6() -> Topology {
    let g = Graph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)])
        .expect("ring6 edges are valid");
    Topology::new(g, vec![1; 6], "ring6").expect("ring6 builds")
}

fn antipodal_tm(topo: &Topology) -> TrafficMatrix {
    TrafficMatrix::permutation(topo, &[(0, 3), (3, 0), (1, 4), (4, 1), (2, 5), (5, 2)])
        .expect("antipodal permutation is valid")
}

/// An LP whose phase-2 simplex needs several pivots: maximize x0 + x1
/// subject to a small polytope. Used wherever a case needs "an LP that
/// does real work".
fn working_lp() -> LinearProgram {
    let mut lp = LinearProgram::new(2);
    lp.set_objective(&[(0, 1.0), (1, 1.0)]);
    lp.add_constraint(&[(0, 1.0), (1, 2.0)], Cmp::Le, 4.0);
    lp.add_constraint(&[(0, 2.0), (1, 1.0)], Cmp::Le, 4.0);
    lp
}

fn materialize_and_assert(case: CaseSpec) {
    let topo = ring6();
    match case {
        CaseSpec::NanDemand => {
            let err = TrafficMatrix::new(
                &topo,
                vec![Demand {
                    src: 0,
                    dst: 3,
                    amount: f64::NAN,
                }],
            )
            .unwrap_err();
            assert!(matches!(err, ModelError::InvalidDemand { .. }), "{err:?}");
        }
        CaseSpec::NegativeDemand => {
            let err = TrafficMatrix::new(
                &topo,
                vec![Demand {
                    src: 0,
                    dst: 3,
                    amount: -1.0,
                }],
            )
            .unwrap_err();
            assert!(matches!(err, ModelError::InvalidDemand { .. }), "{err:?}");
        }
        CaseSpec::ZeroDemand => {
            let err = TrafficMatrix::new(
                &topo,
                vec![Demand {
                    src: 0,
                    dst: 3,
                    amount: 0.0,
                }],
            )
            .unwrap_err();
            assert!(matches!(err, ModelError::InvalidDemand { .. }), "{err:?}");
        }
        CaseSpec::SelfLoopDemand => {
            let err = TrafficMatrix::new(
                &topo,
                vec![Demand {
                    src: 2,
                    dst: 2,
                    amount: 1.0,
                }],
            )
            .unwrap_err();
            assert!(matches!(err, ModelError::InvalidDemand { .. }), "{err:?}");
        }
        CaseSpec::ZeroCapacityEdge => {
            // A path graph 0-1-2 whose second hop has zero capacity: the
            // only route for the demand is dead, so θ must come out 0 (or
            // a typed error) — not NaN, not a hang.
            let g = Graph::from_weighted_edges(3, &[(0, 1, 1.0), (1, 2, 0.0)])
                .expect("zero capacity is representable");
            let t = Topology::new(g, vec![1; 3], "deadlink").expect("builds");
            let tm = TrafficMatrix::permutation(&t, &[(0, 2)]).expect("valid tm");
            match ksp_mcf_throughput(&t, &tm, 4, Engine::Exact, &unlimited_ctx()) {
                Ok(r) => {
                    assert!(r.theta_lb.is_finite() && r.theta_lb.abs() < 1e-9, "{r:?}");
                }
                Err(e) => {
                    assert!(
                        matches!(e, McfError::Certificate(_) | McfError::SolverFailure(_)),
                        "{e:?}"
                    );
                }
            }
        }
        CaseSpec::SelfLoopEdge => {
            let err = Graph::from_edges(3, &[(0, 1), (1, 1)]).unwrap_err();
            assert_eq!(err, GraphError::SelfLoop { node: 1 });
        }
        CaseSpec::DisconnectedGraph => {
            let g = Graph::from_edges(4, &[(0, 1), (2, 3)]).expect("two components");
            let t = Topology::new(g, vec![1; 4], "split").expect("builds");
            let tm = TrafficMatrix::permutation(&t, &[(0, 2)]).expect("valid tm");
            let err = ksp_mcf_throughput(&t, &tm, 4, Engine::Exact, &unlimited_ctx()).unwrap_err();
            assert_eq!(err, McfError::NoPath { src: 0, dst: 2 });
        }
        CaseSpec::EmptyTraffic => {
            let tm = TrafficMatrix::new(&topo, Vec::new()).expect("empty tm is legal");
            let err =
                ksp_mcf_throughput(&topo, &tm, 4, Engine::Exact, &unlimited_ctx()).unwrap_err();
            assert_eq!(err, McfError::EmptyTraffic);
        }
        CaseSpec::DegenerateLp => {
            // Many redundant copies of the same binding constraint — the
            // classic cycling trap. Must reach Optimal under a finite
            // iteration cap, proving the solver does not cycle forever.
            let mut lp = LinearProgram::new(2);
            lp.set_objective(&[(0, 1.0), (1, 1.0)]);
            for _ in 0..24 {
                lp.add_constraint(&[(0, 1.0), (1, 1.0)], Cmp::Le, 1.0);
            }
            let sol = lp
                .solve(&Budget::unlimited().with_iter_cap(10_000))
                .expect("degenerate LP must terminate");
            assert_eq!(sol.status, LpStatus::Optimal);
            assert!((sol.objective - 1.0).abs() < 1e-9);
        }
        CaseSpec::InfeasibleLp => {
            let mut lp = LinearProgram::new(1);
            lp.set_objective(&[(0, 1.0)]);
            lp.add_constraint(&[(0, 1.0)], Cmp::Ge, 2.0);
            lp.add_constraint(&[(0, 1.0)], Cmp::Le, 1.0);
            let sol = lp
                .solve(&Budget::unlimited())
                .expect("infeasibility is a status, not an error");
            assert_eq!(sol.status, LpStatus::Infeasible);
        }
        CaseSpec::UnboundedLp => {
            let mut lp = LinearProgram::new(2);
            lp.set_objective(&[(0, 1.0)]);
            lp.add_constraint(&[(1, 1.0)], Cmp::Le, 1.0);
            let sol = lp
                .solve(&Budget::unlimited())
                .expect("unboundedness is a status, not an error");
            assert_eq!(sol.status, LpStatus::Unbounded);
        }
        CaseSpec::NearExpiredBudget => {
            let tm = antipodal_tm(&topo);
            let budget = Budget::unlimited().with_wall(Duration::from_nanos(1));
            let started = Instant::now();
            let err = ksp_mcf_throughput(&topo, &tm, 8, Engine::Exact, &nocache_ctx(&budget))
                .unwrap_err();
            assert!(
                matches!(err, McfError::Budget(BudgetError::DeadlineExceeded { .. })),
                "{err:?}"
            );
            // Termination tolerance: deadline plus at most one iteration,
            // generously bounded here.
            assert!(started.elapsed() < Duration::from_secs(5));
        }
        CaseSpec::TinyIterationCap => {
            let zero_ticks = Budget::unlimited().with_iter_cap(0);
            // Simplex: the first pivot already exceeds the cap.
            assert!(matches!(
                working_lp().solve(&zero_ticks),
                Err(LpError::Budget(BudgetError::IterationsExceeded { .. }))
            ));
            // Yen: the spur loop ticks before any extra path is found.
            assert!(matches!(
                yen(topo.graph(), 0, 3, 8, &zero_ticks),
                Err(BudgetError::IterationsExceeded { .. })
            ));
            // Hungarian: ticks per augmenting-path step.
            assert!(matches!(
                hungarian_max(4, |i, j| (i + j) as i64, &zero_ticks),
                Err(BudgetError::IterationsExceeded { .. })
            ));
            // FM bisection: exhaustion before the first completed try.
            assert!(matches!(
                bisection(&topo, 2, 11, &zero_ticks),
                Err(BudgetError::IterationsExceeded { .. })
            ));
        }
        CaseSpec::PreCancelled => {
            let flag = CancelFlag::new();
            flag.cancel();
            let budget = Budget::unlimited().with_cancel(flag);
            let tm = antipodal_tm(&topo);
            let err = ksp_mcf_throughput(&topo, &tm, 8, Engine::Exact, &nocache_ctx(&budget))
                .unwrap_err();
            assert!(
                matches!(err, McfError::Budget(BudgetError::Cancelled { .. })),
                "{err:?}"
            );
        }
    }
}

#[test]
fn every_attack_class_yields_typed_errors() {
    for &case in all_cases() {
        materialize_and_assert(case);
    }
}

#[test]
fn hostile_floats_never_panic_model_constructors() {
    let topo = ring6();
    for &v in &hostile_floats() {
        // Demands: only positive finite values may survive.
        match TrafficMatrix::new(
            &topo,
            vec![Demand {
                src: 0,
                dst: 3,
                amount: v,
            }],
        ) {
            Ok(_) => assert!(v.is_finite() && v > 0.0, "accepted hostile demand {v}"),
            Err(ModelError::InvalidDemand { .. }) => {}
            Err(e) => panic!("unexpected error kind for demand {v}: {e:?}"),
        }
        // Traffic scaling must not manufacture NaN demands that later
        // solvers choke on without a typed error.
        let tm = antipodal_tm(&topo).scaled(v);
        match ksp_mcf_throughput(&topo, &tm, 4, Engine::Exact, &unlimited_ctx()) {
            Ok(r) => assert!(r.theta_lb.is_finite(), "theta from scale {v}: {r:?}"),
            Err(e) => assert!(
                matches!(e, McfError::Certificate(_) | McfError::SolverFailure(_)),
                "scale {v}: {e:?}"
            ),
        }
    }
}

#[test]
fn hostile_floats_screened_out_of_lps() {
    for &v in &hostile_floats() {
        if v.is_finite() {
            continue;
        }
        // Poisoned objective.
        let mut lp = working_lp();
        lp.set_objective(&[(0, v)]);
        assert!(
            matches!(lp.solve(&Budget::unlimited()), Err(LpError::BadInput(_))),
            "objective {v} must be screened"
        );
        // Poisoned rhs.
        let mut lp = working_lp();
        lp.add_constraint(&[(0, 1.0)], Cmp::Le, v);
        assert!(
            matches!(lp.solve(&Budget::unlimited()), Err(LpError::BadInput(_))),
            "rhs {v} must be screened"
        );
        // Poisoned coefficient.
        let mut lp = working_lp();
        lp.add_constraint(&[(0, v)], Cmp::Le, 1.0);
        assert!(
            matches!(lp.solve(&Budget::unlimited()), Err(LpError::BadInput(_))),
            "coefficient {v} must be screened"
        );
    }
}

#[test]
fn fallback_chains_absorb_exhaustion_end_to_end() {
    let topo = ring6();
    let tm = antipodal_tm(&topo);
    // Simplex starved, FPTAS viable: the chain degrades instead of failing.
    let ps = PathSet::k_shortest(&topo, &tm, 8, &Budget::unlimited()).expect("paths");
    let r = throughput_with_fallback(&ps, 0.05, &Budget::unlimited().with_iter_cap(8))
        .expect("fallback absorbs the exhaustion");
    assert!(r.provenance.is_degraded());
    assert!(r.theta_lb.is_finite() && r.theta_ub.is_finite());
    // Hungarian starved: tub degrades to the greedy witness, still sound.
    let t = tub(
        &topo,
        MatchingBackend::Exact,
        &nocache_ctx(&Budget::unlimited().with_iter_cap(0)),
    )
    .expect("greedy fallback absorbs the exhaustion");
    assert!(t.fallback);
    assert!(t.bound.is_finite() && t.bound > 0.0);
}

#[test]
fn cancellation_mid_run_stops_promptly() {
    // Cancel from another thread while a (budgeted but roomy) solve runs
    // on an instance large enough to take a moment.
    let g = {
        let mut rng = Xorshift::new(5);
        // Random 6-regular-ish multigraph on 64 nodes, deduplicated.
        let mut edges = Vec::new();
        let mut seen = std::collections::HashSet::new();
        while edges.len() < 192 {
            let u = rng.next_below(64) as u32;
            let v = rng.next_below(64) as u32;
            if u != v && seen.insert((u.min(v), u.max(v))) {
                edges.push((u, v));
            }
        }
        Graph::from_edges(64, &edges).expect("random graph builds")
    };
    let topo = Topology::new(g, vec![2; 64], "rand64").expect("builds");
    let flag = CancelFlag::new();
    let budget = Budget::unlimited().with_cancel(flag.clone());
    let canceller = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(2));
        flag.cancel();
    });
    let started = Instant::now();
    // Either it finishes before the flag trips (tiny instance, fast box)
    // or it reports Cancelled — never a wedge.
    match tub(&topo, MatchingBackend::Exact, &nocache_ctx(&budget)) {
        Ok(t) => assert!(t.bound.is_finite()),
        Err(e) => assert!(format!("{e}").contains("cancelled"), "{e:?}"),
    }
    assert!(started.elapsed() < Duration::from_secs(30));
    canceller.join().expect("canceller thread");
}

// ---------------------------------------------------------------------------
// Shared cache directory: corruption and kill injection
//
// Every process pointed at one `DCN_CACHE_DIR` reads and writes the same
// record directory, so a record can be truncated, stale, relocated, or
// left half-published by a writer that died. The uniform contract: a
// damaged record is quarantined (or ignored) and recomputed, the answer
// is byte-identical to an uncached solve, and the record is rewritten
// intact. Writer processes are this test binary re-invoked against a
// gated entry test; their output is captured so it stays out of the
// suite's report.
//
// A solve under a zero-iteration budget tells a served record from a
// recompute: the exact matcher cannot take a single step, so a recompute
// degrades to the greedy fallback, while a cache hit returns the exact
// result untouched.

use dcn::core::frontier::{frontier_sweep, Criterion, Family, FrontierConfig};
use dcn::core::CoreError;
use dcn::core::TubResult;
use dcn::obs::json::Json;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
#[expect(clippy::disallowed_types, reason = "counts the tasks the pool starts")]
use std::sync::atomic::{AtomicUsize, Ordering};

const CACHE_WRITER_DIR_ENV: &str = "DCN_FAULT_TEST_CACHE_WRITER_DIR";
const CACHE_WRITER_MODE_ENV: &str = "DCN_FAULT_TEST_CACHE_WRITER_MODE";
/// Cells a panicking writer publishes before it dies.
const PANIC_AFTER: usize = 3;

fn cache_scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dcn-fault-cache-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The directory's file names ending in `suffix`, sorted.
fn names_with_suffix(dir: &Path, suffix: &str) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .map(|rd| {
            rd.filter_map(|e| e.ok())
                .map(|e| e.file_name().to_string_lossy().into_owned())
                .filter(|n| n.ends_with(suffix))
                .collect()
        })
        .unwrap_or_default();
    names.sort();
    names
}

/// A result's canonical bytes: the disk tier's own serialization, so
/// equal bytes mean byte-identical records.
fn tub_bytes(t: &TubResult) -> String {
    t.to_json().to_string_compact()
}

fn exact_tub(topo: &Topology, ctx: &SolveCtx<'_>) -> TubResult {
    tub(topo, MatchingBackend::Exact, ctx).expect("tub")
}

fn zero_ticks() -> Budget {
    Budget::unlimited().with_iter_cap(0)
}

fn ring(n: u32) -> Topology {
    let edges: Vec<(u32, u32)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
    let g = Graph::from_edges(n as usize, &edges).expect("ring edges are valid");
    Topology::new(g, vec![1; n as usize], "ring").expect("ring builds")
}

/// Solves `topo` through a fresh disk cache at `dir`. Returns the
/// uncached reference bytes, the record's path and its bytes.
fn seed_tub_record(dir: &Path, topo: &Topology) -> (String, PathBuf, Vec<u8>) {
    let reference = tub_bytes(&exact_tub(topo, &unlimited_ctx()));
    let cache = CacheHandle::with_disk(1 << 20, dir);
    let budget = Budget::unlimited();
    assert_eq!(
        tub_bytes(&exact_tub(topo, &ctx(&cache, &budget))),
        reference
    );
    let records = names_with_suffix(dir, ".json");
    assert_eq!(
        records.len(),
        1,
        "one solve publishes one record: {records:?}"
    );
    let path = dir.join(&records[0]);
    let bytes = std::fs::read(&path).expect("read fresh record");
    (reference, path, bytes)
}

/// Damages the single tub record in a fresh directory with `corrupt`,
/// then checks the contract: a cold handle answers byte-identically to
/// an uncached solve, the record is rewritten with its original bytes,
/// a later run is served from it, and the damaged bytes were moved
/// aside as one `.quarantined` file (or, when `quarantined` is false,
/// overwritten without one).
fn corrupt_and_recover(name: &str, corrupt: impl FnOnce(&Path, &[u8]), quarantined: bool) {
    let dir = cache_scratch(name);
    let topo = ring(6);
    let (reference, record, original) = seed_tub_record(&dir, &topo);
    corrupt(&record, &original);

    let cold = CacheHandle::with_disk(1 << 20, &dir);
    let budget = Budget::unlimited();
    assert_eq!(
        tub_bytes(&exact_tub(&topo, &ctx(&cold, &budget))),
        reference
    );
    assert_eq!(
        std::fs::read(&record).expect("rewritten record"),
        original,
        "the recompute must republish the record intact"
    );
    let aside = names_with_suffix(&dir, ".quarantined");
    assert_eq!(aside.len(), usize::from(quarantined), "{aside:?}");
    assert!(names_with_suffix(&dir, ".tmp").is_empty());

    // The rewritten record serves the next run without a recompute.
    let later = CacheHandle::with_disk(1 << 20, &dir);
    let tight = zero_ticks();
    let served = exact_tub(&topo, &ctx(&later, &tight));
    assert!(!served.fallback, "a served record is the exact result");
    assert_eq!(tub_bytes(&served), reference);
    assert_eq!(
        names_with_suffix(&dir, ".quarantined"),
        aside,
        "nothing re-trips"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Rewrites one top-level field of the record's JSON object.
fn with_field(original: &[u8], field: &str, value: Json) -> String {
    let text = std::str::from_utf8(original).expect("records are UTF-8");
    let Json::Obj(mut pairs) = Json::parse(text).expect("records parse") else {
        panic!("a record is a JSON object");
    };
    let slot = pairs
        .iter_mut()
        .find(|(k, _)| k == field)
        .unwrap_or_else(|| panic!("record has no {field}"));
    slot.1 = value;
    Json::Obj(pairs).to_string_pretty()
}

#[test]
fn truncated_cache_record_is_quarantined_and_rewritten() {
    corrupt_and_recover(
        "truncated",
        |p, b| std::fs::write(p, &b[..b.len() / 2]).expect("truncate"),
        true,
    );
}

#[test]
fn empty_cache_record_is_quarantined_and_rewritten() {
    corrupt_and_recover("empty", |p, _| std::fs::write(p, b"").expect("empty"), true);
}

#[test]
fn non_utf8_cache_record_is_a_plain_miss_and_overwritten() {
    // Unreadable as text, so the loader cannot even inspect it: a miss,
    // and the recompute's rename replaces it.
    corrupt_and_recover(
        "non-utf8",
        |p, _| std::fs::write(p, [0xff, 0xfe, 0x00, 0x80, 0xc3]).expect("garbage"),
        false,
    );
}

#[test]
fn cache_record_from_another_format_version_is_quarantined() {
    corrupt_and_recover(
        "version",
        |p, b| {
            let next = Json::Num((dcn::cache::FORMAT_VERSION + 1) as f64);
            std::fs::write(p, with_field(b, "version", next)).expect("restamp")
        },
        true,
    );
}

#[test]
fn cache_record_of_another_kind_is_quarantined() {
    corrupt_and_recover(
        "kind",
        |p, b| {
            let kind = Json::Str("bbw".to_string());
            std::fs::write(p, with_field(b, "kind", kind)).expect("rekind")
        },
        true,
    );
}

#[test]
fn cache_record_relocated_under_another_key_is_quarantined() {
    // A complete, well-formed record of a different topology moved onto
    // this key's file name must not be served as this topology's answer.
    let other = cache_scratch("relocated-donor");
    let (_, donor, _) = seed_tub_record(&other, &ring(8));
    corrupt_and_recover(
        "relocated",
        |p, _| {
            std::fs::copy(&donor, p).expect("relocate donor record");
        },
        true,
    );
    let _ = std::fs::remove_dir_all(&other);
}

#[test]
fn cache_record_with_undecodable_value_is_quarantined() {
    corrupt_and_recover(
        "backend",
        |p, b| {
            let text = String::from_utf8(b.to_vec()).expect("records are UTF-8");
            let poisoned = text.replace("\"hungarian\"", "\"simulated-annealing\"");
            assert_ne!(poisoned, text, "the exact record names its backend");
            std::fs::write(p, poisoned).expect("rewrite backend")
        },
        true,
    );
}

#[test]
fn cache_record_with_out_of_range_switch_is_quarantined() {
    corrupt_and_recover(
        "pairs",
        |p, b| {
            let text = std::str::from_utf8(b).expect("records are UTF-8");
            let value = Json::parse(text)
                .expect("records parse")
                .get("value")
                .cloned()
                .expect("record has a value");
            let Json::Obj(mut fields) = value else {
                panic!("a tub value is an object");
            };
            for (k, v) in fields.iter_mut() {
                if k == "pairs" {
                    *v = Json::Arr(vec![Json::Arr(vec![
                        Json::Num(0.0),
                        Json::Num(u64::from(u32::MAX) as f64 * 4.0),
                    ])]);
                }
            }
            std::fs::write(p, with_field(b, "value", Json::Obj(fields))).expect("rewrite pairs")
        },
        true,
    );
}

#[test]
fn stale_temp_file_of_a_dead_writer_is_ignored() {
    // A writer killed between writing its temp file and the rename leaves
    // `<record>.<pid>.tmp` behind and no record. Readers never look at
    // temp files, and the dead writer's residue is not this process's to
    // remove.
    let dir = cache_scratch("dead-temp");
    let topo = ring(6);
    let (reference, record, original) = seed_tub_record(&dir, &topo);
    std::fs::remove_file(&record).expect("unpublish record");
    let dead = format!("{}.4294967295.tmp", record.with_extension("").display());
    std::fs::write(&dead, &original[..original.len() / 3]).expect("stale temp");

    let cold = CacheHandle::with_disk(1 << 20, &dir);
    let budget = Budget::unlimited();
    assert_eq!(
        tub_bytes(&exact_tub(&topo, &ctx(&cold, &budget))),
        reference
    );
    assert_eq!(std::fs::read(&record).expect("republished"), original);
    assert!(names_with_suffix(&dir, ".quarantined").is_empty());
    assert_eq!(
        std::fs::read(&dead).expect("dead writer's temp left alone"),
        &original[..original.len() / 3]
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn temp_file_left_under_a_reused_pid_is_overwritten_not_appended() {
    // A crashed process whose pid is later reused leaves a temp file under
    // the very name this process writes to. It is longer than the record,
    // so an append or a partial overwrite would publish a torn record.
    let dir = cache_scratch("reused-pid");
    let topo = ring(6);
    let (reference, record, original) = seed_tub_record(&dir, &topo);
    std::fs::remove_file(&record).expect("unpublish record");
    let ours = format!(
        "{}.{}.tmp",
        record.with_extension("").display(),
        std::process::id()
    );
    std::fs::write(&ours, vec![b'#'; original.len() * 3]).expect("leftover temp");

    let cold = CacheHandle::with_disk(1 << 20, &dir);
    let budget = Budget::unlimited();
    assert_eq!(
        tub_bytes(&exact_tub(&topo, &ctx(&cold, &budget))),
        reference
    );
    assert_eq!(std::fs::read(&record).expect("republished"), original);
    assert!(
        names_with_suffix(&dir, ".tmp").is_empty(),
        "the rename consumes the temp file"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn directory_squatting_on_a_record_path_costs_only_a_recompute() {
    // Neither readable nor replaceable by a rename: every lookup misses,
    // every store is dropped, and nothing panics or leaks a temp file.
    let dir = cache_scratch("squat");
    let topo = ring(6);
    let (reference, record, _) = seed_tub_record(&dir, &topo);
    std::fs::remove_file(&record).expect("unpublish record");
    std::fs::create_dir_all(record.join("squatter")).expect("squat on record path");

    for _ in 0..2 {
        let cold = CacheHandle::with_disk(1 << 20, &dir);
        let budget = Budget::unlimited();
        assert_eq!(
            tub_bytes(&exact_tub(&topo, &ctx(&cold, &budget))),
            reference
        );
    }
    assert!(record.is_dir());
    assert!(names_with_suffix(&dir, ".tmp").is_empty());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unusable_cache_dir_falls_back_to_memory_only() {
    // The configured directory is a regular file: the disk tier cannot
    // open, and the handle still memoizes in memory.
    let base = cache_scratch("not-a-dir");
    std::fs::create_dir_all(&base).expect("scratch");
    let file = base.join("cache-dir-is-a-file");
    std::fs::write(&file, b"not a directory").expect("blocker file");
    let topo = ring(6);
    let reference = tub_bytes(&exact_tub(&topo, &unlimited_ctx()));

    let cache = CacheHandle::with_disk(1 << 20, &file);
    assert!(cache.is_enabled());
    let budget = Budget::unlimited();
    assert_eq!(
        tub_bytes(&exact_tub(&topo, &ctx(&cache, &budget))),
        reference
    );
    let tight = zero_ticks();
    let served = exact_tub(&topo, &ctx(&cache, &tight));
    assert!(!served.fallback, "the memory tier serves the second lookup");
    assert_eq!(tub_bytes(&served), reference);
    assert_eq!(
        std::fs::read(&file).expect("blocker intact"),
        b"not a directory"
    );
    let _ = std::fs::remove_dir_all(&base);
}

/// The cells a writer process solves, in order.
fn writer_topologies() -> Vec<Topology> {
    (0..16)
        .map(|i| {
            Family::Jellyfish
                .build(16 + 2 * i, 8, 2, i as u64)
                .expect("jellyfish cell builds")
        })
        .collect()
}

fn writer_references() -> Vec<String> {
    writer_topologies()
        .iter()
        .map(|t| tub_bytes(&exact_tub(t, &unlimited_ctx())))
        .collect()
}

/// Frontier cells small enough for a debug build: both criteria on
/// Jellyfish and Xpander, radix 8, H 2, capped at 32 switches.
fn small_frontier() -> Vec<FrontierConfig> {
    let mut configs = Vec::new();
    for family in [Family::Jellyfish, Family::Xpander] {
        for criterion in [
            Criterion::FullThroughput {
                backend: MatchingBackend::Exact,
            },
            Criterion::FullBisection { tries: 2 },
        ] {
            configs.push(FrontierConfig {
                family,
                radix: 8,
                h: 2,
                criterion,
                max_switches: 32,
                seed: 5,
            });
        }
    }
    configs
}

/// Gated writer entrypoint; a no-op in the normal suite. Modes:
/// `sweep` solves every writer cell and prints one `cell` line each,
/// `slow` pauses after each cell so a kill lands mid-sweep, `panic`
/// dies after [`PANIC_AFTER`] cells, and `frontier` runs
/// [`small_frontier`].
#[test]
fn cache_writer_entry() {
    let Ok(dir) = std::env::var(CACHE_WRITER_DIR_ENV) else {
        return;
    };
    let mode = std::env::var(CACHE_WRITER_MODE_ENV).expect("writer mode");
    let cache = CacheHandle::with_disk(1 << 20, &dir);
    let budget = Budget::unlimited();
    let ctx = ctx(&cache, &budget);
    if mode == "frontier" {
        frontier_sweep(&small_frontier(), &ctx).expect("writer frontier sweep");
        return;
    }
    for (i, topo) in writer_topologies().iter().enumerate() {
        if mode == "panic" && i == PANIC_AFTER {
            panic!("writer dies before cell {i}");
        }
        println!("cell {i} {}", tub_bytes(&exact_tub(topo, &ctx)));
        if mode == "slow" {
            std::thread::sleep(Duration::from_millis(80));
        }
    }
}

fn cache_writer(dir: &Path, mode: &str) -> Command {
    let mut c = Command::new(std::env::current_exe().expect("current_exe"));
    c.args(["cache_writer_entry", "--exact", "--nocapture"])
        .env(CACHE_WRITER_DIR_ENV, dir)
        .env(CACHE_WRITER_MODE_ENV, mode);
    c
}

/// Runs a writer to completion, asserting success; returns its `cell`
/// lines with the prefix stripped.
fn run_writer(child: Child) -> Vec<String> {
    let out = child.wait_with_output().expect("wait writer");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "writer failed: {}\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
        .lines()
        .filter_map(|l| l.strip_prefix("cell "))
        .map(|l| l.split_once(' ').expect("cell line").1.to_string())
        .collect()
}

/// Starts a slow writer on a fresh directory and SIGKILLs it once at
/// least two records are published, well before it finishes. Returns
/// the directory and the killed writer's pid.
fn kill_writer_mid_sweep(name: &str) -> (PathBuf, u32) {
    let dir = cache_scratch(name);
    std::fs::create_dir_all(&dir).expect("create cache dir");
    let mut writer = cache_writer(&dir, "slow")
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn slow writer");
    let pid = writer.id();
    let deadline = Instant::now() + Duration::from_secs(60);
    while names_with_suffix(&dir, ".json").len() < 2 {
        assert!(Instant::now() < deadline, "writer made no progress");
        if let Some(status) = writer.try_wait().expect("try_wait") {
            panic!("writer exited before the kill: {status}");
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    writer.kill().expect("SIGKILL writer");
    let status = writer.wait().expect("reap writer");
    assert!(!status.success(), "the kill must land mid-sweep: {status}");
    (dir, pid)
}

#[test]
fn writer_sigkilled_mid_sweep_leaves_only_loadable_records() {
    let (dir, pid) = kill_writer_mid_sweep("sigkill");
    let published = names_with_suffix(&dir, ".json");
    assert!(published.len() < writer_topologies().len(), "{published:?}");
    // A kill between write and rename can strand a temp file, but only
    // under the dead writer's pid, and never as a record.
    for tmp in names_with_suffix(&dir, ".tmp") {
        assert!(tmp.ends_with(&format!(".{pid}.tmp")), "{tmp}");
    }
    // A successor over the same directory answers every cell exactly.
    let cache = CacheHandle::with_disk(1 << 20, &dir);
    let budget = Budget::unlimited();
    let resumed: Vec<String> = writer_topologies()
        .iter()
        .map(|t| tub_bytes(&exact_tub(t, &ctx(&cache, &budget))))
        .collect();
    assert_eq!(resumed, writer_references());
    assert!(
        names_with_suffix(&dir, ".quarantined").is_empty(),
        "a SIGKILL must never publish a torn record"
    );
    assert_eq!(
        names_with_suffix(&dir, ".json").len(),
        writer_topologies().len()
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resumed_sweep_reuses_records_of_a_killed_writer() {
    let (dir, _) = kill_writer_mid_sweep("reuse");
    let published = names_with_suffix(&dir, ".json").len();
    let references = writer_references();
    let cache = CacheHandle::with_disk(1 << 20, &dir);
    let tight = zero_ticks();
    let mut served = 0;
    for (topo, reference) in writer_topologies().iter().zip(&references) {
        let t = exact_tub(topo, &ctx(&cache, &tight));
        if !t.fallback {
            assert_eq!(&tub_bytes(&t), reference);
            served += 1;
        }
    }
    assert!(published >= 2);
    assert_eq!(
        served, published,
        "every published cell is reused, none is redone"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn writer_panicking_mid_sweep_leaves_complete_records() {
    let dir = cache_scratch("panic");
    std::fs::create_dir_all(&dir).expect("create cache dir");
    let out = cache_writer(&dir, "panic")
        .output()
        .expect("run panicking writer");
    assert!(!out.status.success(), "the writer must die");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains(&format!("before cell {PANIC_AFTER}")),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let mut entries = names_with_suffix(&dir, "");
    entries.retain(|n| !n.ends_with(".json"));
    assert!(entries.is_empty(), "only records remain: {entries:?}");
    assert_eq!(names_with_suffix(&dir, ".json").len(), PANIC_AFTER);

    let references = writer_references();
    let cache = CacheHandle::with_disk(1 << 20, &dir);
    let tight = zero_ticks();
    for (i, topo) in writer_topologies().iter().enumerate().take(PANIC_AFTER) {
        let t = exact_tub(topo, &ctx(&cache, &tight));
        assert!(!t.fallback, "cell {i} was published before the panic");
        assert_eq!(tub_bytes(&t), references[i]);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn concurrent_writers_on_one_cache_dir_agree_byte_for_byte() {
    let dir = cache_scratch("concurrent");
    std::fs::create_dir_all(&dir).expect("create cache dir");
    let spawn = || {
        cache_writer(&dir, "sweep")
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn writer")
    };
    let (a, b) = (spawn(), spawn());
    let references = writer_references();
    assert_eq!(run_writer(a), references);
    assert_eq!(run_writer(b), references);
    let mut entries = names_with_suffix(&dir, "");
    entries.retain(|n| !n.ends_with(".json"));
    assert!(
        entries.is_empty(),
        "no temp or quarantined residue: {entries:?}"
    );
    assert_eq!(names_with_suffix(&dir, ".json").len(), references.len());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn frontier_sweep_reuses_records_written_by_another_process() {
    // Every probe of the sweep was published by the writer, so the whole
    // sweep replays from disk under a budget that could not compute one.
    let dir = cache_scratch("frontier-shared");
    std::fs::create_dir_all(&dir).expect("create cache dir");
    let writer = cache_writer(&dir, "frontier")
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn frontier writer");
    run_writer(writer);
    let configs = small_frontier();
    let reference = frontier_sweep(&configs, &unlimited_ctx()).expect("uncached sweep");
    assert!(reference.iter().any(Option::is_some), "{reference:?}");
    let cache = CacheHandle::with_disk(1 << 20, &dir);
    let tight = zero_ticks();
    assert_eq!(
        frontier_sweep(&configs, &ctx(&cache, &tight)).expect("replayed sweep"),
        reference
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn frontier_sweep_over_corrupted_cache_matches_uncached() {
    let dir = cache_scratch("frontier-corrupt");
    let configs = small_frontier();
    let reference = frontier_sweep(&configs, &unlimited_ctx()).expect("uncached sweep");
    let budget = Budget::unlimited();
    let warm = CacheHandle::with_disk(1 << 20, &dir);
    assert_eq!(
        frontier_sweep(&configs, &ctx(&warm, &budget)).expect("warm"),
        reference
    );
    let records = names_with_suffix(&dir, ".json");
    assert!(records.len() >= 4, "{records:?}");
    let originals: Vec<Vec<u8>> = records
        .iter()
        .map(|n| std::fs::read(dir.join(n)).expect("read record"))
        .collect();
    for (name, bytes) in records.iter().zip(&originals) {
        std::fs::write(dir.join(name), &bytes[..bytes.len() - 2]).expect("truncate record");
    }

    let cold = CacheHandle::with_disk(1 << 20, &dir);
    assert_eq!(
        frontier_sweep(&configs, &ctx(&cold, &budget)).expect("cold"),
        reference
    );
    for (name, bytes) in records.iter().zip(&originals) {
        assert_eq!(
            &std::fs::read(dir.join(name)).expect("rewritten"),
            bytes,
            "{name}"
        );
    }
    let aside: Vec<String> = records.iter().map(|n| format!("{n}.quarantined")).collect();
    assert_eq!(names_with_suffix(&dir, ".quarantined"), aside);
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Sweep fan-out faults
//
// `dcn-exec` runs every sweep in one process, so its failure contract is
// the one a sweep relies on: budget faults come back as typed errors from
// the lowest failing cell, and a panicking task is re-raised on the
// caller without wedging the pool.

#[test]
fn frontier_sweep_precancelled_returns_typed_error() {
    let flag = CancelFlag::new();
    flag.cancel();
    let budget = Budget::unlimited().with_cancel(flag);
    let started = Instant::now();
    let err = frontier_sweep(&small_frontier(), &nocache_ctx(&budget)).unwrap_err();
    assert!(
        matches!(err, CoreError::Budget(BudgetError::Cancelled { .. })),
        "{err:?}"
    );
    assert!(started.elapsed() < Duration::from_secs(5));
}

#[test]
fn frontier_sweep_bisection_exhaustion_is_typed_not_degraded() {
    // The throughput cells can degrade to the greedy matching, but the
    // partitioner has no fallback: the first bisection cell's exhaustion
    // is the sweep's error.
    let tight = zero_ticks();
    let err = frontier_sweep(&small_frontier(), &nocache_ctx(&tight)).unwrap_err();
    assert!(
        matches!(
            err,
            CoreError::Budget(BudgetError::IterationsExceeded { cap: 0 })
        ),
        "{err:?}"
    );
    let throughput_only: Vec<FrontierConfig> = small_frontier()
        .into_iter()
        .filter(|c| matches!(c.criterion, Criterion::FullThroughput { .. }))
        .collect();
    let degraded = frontier_sweep(&throughput_only, &nocache_ctx(&tight))
        .expect("tub's greedy fallback absorbs the exhaustion");
    assert_eq!(degraded.len(), throughput_only.len());
}

#[test]
fn panicking_pool_task_reraises_on_caller_and_pool_stays_usable() {
    let pool = dcn_exec::Pool::new(4);
    let items: Vec<u64> = (0..32).collect();
    let caught = std::panic::catch_unwind(|| {
        pool.par_map(&Budget::unlimited(), &items, |_, &x| {
            if x == 11 {
                panic!("poison cell {x}");
            }
            Ok::<_, BudgetError>(x)
        })
    });
    let payload = caught.expect_err("the task's panic reaches the caller");
    let message = payload
        .downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| payload.downcast_ref::<&str>().copied())
        .unwrap_or_default();
    assert_eq!(message, "poison cell 11");
    let squares = pool
        .par_map(&Budget::unlimited(), &items, |_, &x| {
            Ok::<_, BudgetError>(x * x)
        })
        .expect("the pool runs the next fan-out");
    assert_eq!(squares, items.iter().map(|x| x * x).collect::<Vec<_>>());
}

#[test]
fn pool_deadline_stops_fan_out_within_one_task_per_worker() {
    // Tasks start at 0, 20 and 40 ms on each of two workers; the claim
    // after the 50 ms deadline fails, so at most three tasks per worker
    // ever start (oversleeping only lowers that).
    let pool = dcn_exec::Pool::new(2);
    let items: Vec<u64> = (0..64).collect();
    let budget = Budget::unlimited().with_wall(Duration::from_millis(50));
    #[expect(clippy::disallowed_types, reason = "counts the tasks the pool starts")]
    let started_tasks = AtomicUsize::new(0);
    let started = Instant::now();
    let err = pool
        .par_map(&budget, &items, |_, &x| {
            started_tasks.fetch_add(1, Ordering::Relaxed);
            std::thread::sleep(Duration::from_millis(20));
            Ok::<_, BudgetError>(x)
        })
        .unwrap_err();
    assert!(
        matches!(err, BudgetError::DeadlineExceeded { .. }),
        "{err:?}"
    );
    assert!(started_tasks.load(Ordering::Relaxed) <= 6);
    assert!(started.elapsed() < Duration::from_secs(5));
}

#[test]
fn random_hostile_lps_terminate_under_budget() {
    // Fuzz-ish sweep: random small LPs with mixed constraint senses and
    // sign-varied coefficients. Every one must reach a status or a typed
    // error within the iteration cap — no panic, no spin.
    let mut rng = Xorshift::new(0xfau64);
    for case in 0..60 {
        let n = 1 + rng.next_below(4) as usize;
        let mut lp = LinearProgram::new(n);
        let obj: Vec<(usize, f64)> = (0..n).map(|j| (j, rng.next_f64() * 4.0 - 2.0)).collect();
        lp.set_objective(&obj);
        let rows = 1 + rng.next_below(5);
        for _ in 0..rows {
            let coeffs: Vec<(usize, f64)> =
                (0..n).map(|j| (j, rng.next_f64() * 4.0 - 2.0)).collect();
            let cmp = match rng.next_below(3) {
                0 => Cmp::Le,
                1 => Cmp::Ge,
                _ => Cmp::Eq,
            };
            let rhs = rng.next_f64() * 6.0 - 3.0;
            lp.add_constraint(&coeffs, cmp, rhs);
        }
        match lp.solve(&Budget::unlimited().with_iter_cap(50_000)) {
            Ok(sol) => {
                if sol.status == LpStatus::Optimal {
                    assert!(sol.objective.is_finite(), "case {case}: {sol:?}");
                }
            }
            Err(LpError::Budget(_)) | Err(LpError::Certificate(_)) => {}
            Err(e) => panic!("case {case}: unexpected error {e:?}"),
        }
    }
}
