//! `frontier`: Figure 8, the paper's headline design question. One
//! `frontier_max_servers` cell per op, all cells of a pass sharing one
//! in-memory cache. Full-throughput cells are dominated by TUB, full-bisection
//! cells by the FM partitioner. Most cells search up to 256 switches, where
//! `Auto` matches exactly; a few search up to 1024, and their probes above
//! 600 switches use the greedy matching, as the paper's Fig. 8 runs do.

use super::{OpCounters, Workload};
use crate::golden::{Field, Fields};
use crate::trace::Recorder;
use dcn_cache::{CacheHandle, SolveCtx, DEFAULT_CACHE_BYTES};
use dcn_core::frontier::{frontier_max_servers, satisfies, Criterion, Family};
use dcn_core::MatchingBackend;
use dcn_exec::task_seed;

/// `(family, radix, servers per switch)` whose smallest instance meets both
/// criteria on nearly every seed, so each cell searches for an interior
/// frontier; a cell failing at its smallest size returns at once and
/// measures nothing.
const SHAPES: [(Family, u32, u32); 14] = [
    (Family::Jellyfish, 10, 2),
    (Family::Jellyfish, 12, 2),
    (Family::Jellyfish, 14, 3),
    (Family::Jellyfish, 16, 3),
    (Family::Jellyfish, 18, 4),
    (Family::Jellyfish, 20, 5),
    (Family::Xpander, 12, 2),
    (Family::Xpander, 14, 3),
    (Family::Xpander, 16, 3),
    (Family::Xpander, 18, 3),
    (Family::Xpander, 20, 4),
    (Family::Xpander, 22, 5),
    (Family::FatClique, 12, 2),
    (Family::FatClique, 18, 4),
];
const MAX_SWITCHES: usize = 256;
/// Shapes whose full-throughput frontier lies above `Auto`'s 600-switch
/// threshold (about 680 and 1024 switches), searched up to
/// [`LARGE_MAX_SWITCHES`].
const LARGE_SHAPES: [(Family, u32, u32); 2] =
    [(Family::Xpander, 22, 5), (Family::Jellyfish, 12, 2)];
const LARGE_MAX_SWITCHES: usize = 1024;
const THROUGHPUT: Criterion = Criterion::FullThroughput {
    backend: MatchingBackend::Auto { exact_below: 600 },
};
const BISECTION: Criterion = Criterion::FullBisection { tries: 3 };
/// Instance seeds per shape and criterion: 112 cells per pass, plus
/// [`LARGE_SEEDS`] per large shape. Bisection cells are several times
/// cheaper than throughput cells; three times as many keep the median op
/// inside the bisection class and the p90 op inside the throughput class,
/// off the boundary between the two. The six large cells are the slowest
/// ops, so the p90 op (the 12th slowest) falls among the eight throughput
/// cells of 70–90 ms rather than at their lower edge.
const THROUGHPUT_SEEDS: u64 = 2;
const BISECTION_SEEDS: u64 = 6;
const LARGE_SEEDS: u64 = 3;

struct Cell {
    family: Family,
    radix: u32,
    h: u32,
    criterion: Criterion,
    max_switches: usize,
    seed: u64,
}

impl Cell {
    /// The first size `frontier_max_servers` probes.
    fn min_switches(&self) -> usize {
        ((self.radix - self.h) as usize + 2).max(4)
    }
}

/// Inputs of the `frontier` workload.
pub struct Frontier {
    cells: Vec<Cell>,
    cache: CacheHandle,
    replay_cache: CacheHandle,
}

impl Workload for Frontier {
    type Out = Option<u64>;

    fn setup(seed: u64) -> Result<Self, String> {
        let mut cells = Vec::new();
        let mut add = |(family, radix, h), criterion, max_switches, seeds| {
            for s in seeds {
                cells.push(Cell {
                    family,
                    radix,
                    h,
                    criterion,
                    max_switches,
                    seed: task_seed(seed, s),
                });
            }
        };
        for shape in SHAPES {
            add(shape, THROUGHPUT, MAX_SWITCHES, 0..THROUGHPUT_SEEDS);
            add(shape, BISECTION, MAX_SWITCHES, 0..BISECTION_SEEDS);
        }
        // Seeds of their own, so no probe is a cache hit left by a small cell.
        for shape in LARGE_SHAPES {
            let seeds = THROUGHPUT_SEEDS..THROUGHPUT_SEEDS + LARGE_SEEDS;
            add(shape, THROUGHPUT, LARGE_MAX_SWITCHES, seeds);
        }
        // Every shape must build at its smallest size: a cell that cannot
        // returns at once from every op and measures nothing.
        for c in &cells {
            c.family
                .build(c.min_switches(), c.radix, c.h, c.seed)
                .map_err(|e| format!("{} r{} h{}: {e}", c.family.name(), c.radix, c.h))?;
        }
        Ok(Frontier {
            cells,
            cache: CacheHandle::in_memory(DEFAULT_CACHE_BYTES),
            replay_cache: CacheHandle::in_memory(DEFAULT_CACHE_BYTES),
        })
    }

    fn ops(&self) -> usize {
        self.cells.len()
    }

    fn begin_pass(&mut self) {
        self.cache = CacheHandle::in_memory(DEFAULT_CACHE_BYTES);
    }

    fn run(&self, i: usize) -> Result<Option<u64>, String> {
        let c = &self.cells[i];
        let ctx = SolveCtx::unlimited(&self.cache);
        frontier_max_servers(
            c.family,
            c.radix,
            c.h,
            c.criterion,
            c.max_switches,
            c.seed,
            &ctx,
        )
        .map_err(|e| e.to_string())
    }

    fn begin_replay(&mut self) {
        self.replay_cache = CacheHandle::in_memory(DEFAULT_CACHE_BYTES);
    }

    /// The doubling scan and binary search of `frontier_max_servers`, with
    /// each probe's build and criterion timed.
    fn replay(&mut self, i: usize, rec: &mut Recorder) -> Result<Option<u64>, String> {
        let c = &self.cells[i];
        let ctx = SolveCtx::unlimited(&self.replay_cache);
        let layer = match c.criterion {
            Criterion::FullThroughput { .. } => "core.tub",
            Criterion::FullBisection { .. } => "partition.bisect",
        };
        let mut check = |n: usize| -> Result<Option<u64>, String> {
            rec.probe();
            let Ok(topo) = rec.time("topo.build", || c.family.build(n, c.radix, c.h, c.seed))
            else {
                return Ok(None);
            };
            let ok = rec.time(layer, || satisfies(&topo, c.criterion, c.seed, &ctx));
            Ok(ok.map_err(|e| e.to_string())?.then(|| topo.n_servers()))
        };
        let max = c.max_switches;
        let mut lo = c.min_switches();
        let Some(mut best) = check(lo)? else {
            return Ok(None);
        };
        let mut hi = lo;
        while hi < max {
            let next = (hi * 2).min(max);
            match check(next)? {
                Some(n) => {
                    best = best.max(n);
                    lo = next;
                    if next == max {
                        return Ok(Some(best));
                    }
                }
                None => {
                    let (mut lo_b, mut hi_b) = (lo, next);
                    while hi_b - lo_b > (lo_b / 16).max(1) {
                        let mid = lo_b + (hi_b - lo_b) / 2;
                        match check(mid)? {
                            Some(n) => {
                                best = best.max(n);
                                lo_b = mid;
                            }
                            None => hi_b = mid,
                        }
                    }
                    return Ok(Some(best));
                }
            }
            hi = hi.max(lo);
        }
        Ok(Some(best))
    }

    fn check(&self, i: usize, out: &Option<u64>, _: &OpCounters) -> Result<(), String> {
        let c = &self.cells[i];
        match *out {
            Some(n) if n == 0 || n % u64::from(c.h) != 0 => Err(format!(
                "{n} servers is not a positive multiple of H = {}",
                c.h
            )),
            _ => Ok(()),
        }
    }

    fn fields(&self, i: usize, out: &Option<u64>) -> Fields {
        let c = &self.cells[i];
        let criterion = match c.criterion {
            Criterion::FullThroughput { .. } => "throughput",
            Criterion::FullBisection { .. } => "bisection",
        };
        vec![
            (
                "case",
                Field::Exact(format!(
                    "{}-r{}h{}-{criterion}-max{}",
                    c.family.name(),
                    c.radix,
                    c.h,
                    c.max_switches
                )),
            ),
            (
                "servers",
                Field::Exact(out.map_or("none".into(), |n| n.to_string())),
            ),
        ]
    }
}
