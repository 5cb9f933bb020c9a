//! K-shortest loopless paths.
//!
//! Two interchangeable engines are provided:
//!
//! * [`yen`] — the classic Yen's algorithm (Yen 1971), as used by the paper
//!   via networkx. Exact, simple, and the reference for tests.
//! * [`k_shortest_by_slack`] — a much faster enumerator that produces the
//!   same path sets by generating, for increasing slack `m = 0, 1, 2, ...`,
//!   all loopless paths of length exactly `sp + m`, pruned by
//!   distance-to-destination. This is the engine the MCF crate uses.
//!
//! Both operate on hop counts (unit edge weights), which is the metric the
//! paper uses throughout, and both return paths as node sequences. Parallel
//! edges do not produce duplicate paths; callers that care about parallel
//! capacity should run on [`Graph::coalesced`] graphs.

use crate::csr::{Graph, NodeId};
use dcn_guard::{Budget, BudgetError, BudgetMeter};
use std::collections::{BinaryHeap, HashSet};

/// How many DFS node expansions share one deadline/cancellation check in
/// the slack enumerator. Expansions are a few array reads each, so a clock
/// read per tick would dominate; the iteration cap stays exact regardless.
const DFS_METER_STRIDE: u32 = 1024;

/// A loopless path, stored as the sequence of visited nodes
/// (`path[0] = src`, `path.last() = dst`).
pub type Path = Vec<NodeId>;

/// Hop length of a path (number of edges).
#[inline]
pub fn path_len(p: &Path) -> usize {
    p.len().saturating_sub(1)
}

/// BFS shortest path from `src` to `dst` avoiding banned nodes and banned
/// (unordered) node-pair edges. Returns `None` if no path exists.
fn restricted_shortest_path(
    g: &Graph,
    src: NodeId,
    dst: NodeId,
    banned_nodes: &[bool],
    banned_links: &HashSet<(NodeId, NodeId)>,
) -> Option<Path> {
    if banned_nodes[src as usize] || banned_nodes[dst as usize] {
        return None;
    }
    let n = g.n();
    let mut parent = vec![u32::MAX; n];
    let mut seen = vec![false; n];
    let mut queue = std::collections::VecDeque::new();
    seen[src as usize] = true;
    queue.push_back(src);
    while let Some(u) = queue.pop_front() {
        if u == dst {
            break;
        }
        for (v, _) in g.neighbors(u) {
            if seen[v as usize] || banned_nodes[v as usize] {
                continue;
            }
            let key = if u < v { (u, v) } else { (v, u) };
            if banned_links.contains(&key) {
                continue;
            }
            seen[v as usize] = true;
            parent[v as usize] = u;
            queue.push_back(v);
        }
    }
    if !seen[dst as usize] {
        return None;
    }
    let mut path = vec![dst];
    let mut cur = dst;
    while cur != src {
        cur = parent[cur as usize];
        path.push(cur);
    }
    path.reverse();
    Some(path)
}

/// Candidate entry for Yen's heap, ordered by (length, path) for determinism.
#[derive(PartialEq, Eq)]
struct Candidate(Path);

impl Ord for Candidate {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reverse ordering: BinaryHeap is a max-heap, we want the shortest
        // (then lexicographically smallest) path on top.
        other
            .0
            .len()
            .cmp(&self.0.len())
            .then_with(|| other.0.cmp(&self.0))
    }
}

impl PartialOrd for Candidate {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Yen's algorithm: up to `k` shortest loopless paths from `src` to `dst`,
/// in non-decreasing length order. Returns fewer than `k` paths when the
/// graph does not contain that many simple paths.
///
/// Meters one tick per spur search (a restricted BFS), so a deadline or
/// iteration cap aborts the quadratic candidate generation with a typed
/// error instead of stalling on dense graphs with large `k`. Callers
/// without a deadline pass `&Budget::unlimited()` (or
/// `dcn_guard::prelude::unlimited()`).
pub fn yen(
    g: &Graph,
    src: NodeId,
    dst: NodeId,
    k: usize,
    budget: &Budget,
) -> Result<Vec<Path>, BudgetError> {
    let mut meter = budget.meter();
    if k == 0 || src == dst {
        return Ok(Vec::new());
    }
    let mut banned_nodes = vec![false; g.n()];
    let banned_links = HashSet::new();
    let first = match restricted_shortest_path(g, src, dst, &banned_nodes, &banned_links) {
        Some(p) => p,
        None => return Ok(Vec::new()),
    };
    let mut paths: Vec<Path> = vec![first];
    let mut candidates: BinaryHeap<Candidate> = BinaryHeap::new();
    let mut seen_candidates: HashSet<Path> = HashSet::new();
    let spur_ctr = dcn_obs::counter!(dcn_obs::names::GRAPH_KSP_SPUR_SEARCHES);
    let cand_ctr = dcn_obs::counter!(dcn_obs::names::GRAPH_KSP_CANDIDATES);

    while paths.len() < k {
        let Some(prev) = paths.last().cloned() else {
            break;
        };
        // Each node of the previous path except the last is a spur node.
        for i in 0..prev.len() - 1 {
            meter.tick()?;
            spur_ctr.inc();
            let spur = prev[i];
            let root = &prev[..=i];
            let mut banned_links = HashSet::new();
            // Ban edges used by earlier accepted paths sharing this root.
            for p in &paths {
                if p.len() > i + 1 && p[..=i] == *root {
                    let (a, b) = (p[i], p[i + 1]);
                    banned_links.insert(if a < b { (a, b) } else { (b, a) });
                }
            }
            // Ban root nodes (except the spur) to keep paths loopless.
            for &u in &root[..i] {
                banned_nodes[u as usize] = true;
            }
            if let Some(spur_path) =
                restricted_shortest_path(g, spur, dst, &banned_nodes, &banned_links)
            {
                let mut total = root[..i].to_vec();
                total.extend_from_slice(&spur_path);
                if seen_candidates.insert(total.clone()) {
                    cand_ctr.inc();
                    candidates.push(Candidate(total));
                }
            }
            for &u in &root[..i] {
                banned_nodes[u as usize] = false;
            }
        }
        match candidates.pop() {
            Some(Candidate(p)) => paths.push(p),
            None => break,
        }
    }
    Ok(paths)
}

/// All loopless paths from `src` to `dst` whose length is at most
/// `shortest + slack`, capped at `cap` paths. Paths are produced grouped by
/// length (all length-`sp` paths first, then `sp+1`, ...). The DFS prunes a
/// partial path as soon as its length plus the remaining BFS distance
/// exceeds the current budget, which keeps enumeration output-sensitive.
///
/// Meters one tick per DFS node expansion (deadline/cancellation checked
/// every 1,024 ticks).
pub fn paths_within_slack(
    g: &Graph,
    src: NodeId,
    dst: NodeId,
    slack: u16,
    cap: usize,
    budget: &Budget,
) -> Result<Vec<Path>, BudgetError> {
    k_shortest_impl(g, src, dst, cap, slack, false, budget)
}

/// Up to `k` shortest loopless paths, produced by increasing slack levels.
/// Produces the same multiset of path lengths as [`yen`] (tie order may
/// differ). `max_slack` bounds how far beyond the shortest length the
/// search is willing to go; `u16::MAX` means unbounded (the search still
/// terminates because simple paths have length `< n`).
///
/// Meters one tick per DFS node expansion (deadline/cancellation checked
/// every 1,024 ticks).
pub fn k_shortest_by_slack(
    g: &Graph,
    src: NodeId,
    dst: NodeId,
    k: usize,
    max_slack: u16,
    budget: &Budget,
) -> Result<Vec<Path>, BudgetError> {
    k_shortest_impl(g, src, dst, k, max_slack, true, budget)
}

fn k_shortest_impl(
    g: &Graph,
    src: NodeId,
    dst: NodeId,
    cap: usize,
    max_slack: u16,
    stop_at_cap_per_level: bool,
    exec_budget: &Budget,
) -> Result<Vec<Path>, BudgetError> {
    let mut meter = exec_budget.meter_every(DFS_METER_STRIDE);
    if cap == 0 || src == dst {
        return Ok(Vec::new());
    }
    let dist_to_dst = g.bfs_distances(dst);
    let sp = dist_to_dst[src as usize];
    if sp == u16::MAX {
        return Ok(Vec::new());
    }
    let mut out: Vec<Path> = Vec::new();
    let max_possible = (g.n() as u32 - 1).min(sp as u32 + max_slack as u32) as u16;
    let mut budget = sp;
    while budget <= max_possible && out.len() < cap {
        // Enumerate paths of length exactly `budget`.
        dfs_exact(
            g,
            src,
            dst,
            budget,
            &dist_to_dst,
            cap,
            &mut out,
            stop_at_cap_per_level,
            &mut meter,
        )?;
        if budget == u16::MAX {
            break;
        }
        budget += 1;
    }
    out.truncate(cap);
    Ok(out)
}

/// Iterative DFS collecting all simple paths of length exactly `budget`.
#[expect(
    clippy::too_many_arguments,
    reason = "private DFS helper; a struct for its inputs would only rename them"
)]
fn dfs_exact(
    g: &Graph,
    src: NodeId,
    dst: NodeId,
    budget: u16,
    dist_to_dst: &[u16],
    cap: usize,
    out: &mut Vec<Path>,
    stop_at_cap: bool,
    meter: &mut BudgetMeter<'_>,
) -> Result<(), BudgetError> {
    let mut on_path = vec![false; g.n()];
    let mut path: Vec<NodeId> = vec![src];
    on_path[src as usize] = true;
    // Stack of neighbor cursors per depth.
    let mut iters: Vec<Box<dyn Iterator<Item = NodeId>>> = Vec::new();
    let collect_nbrs = |u: NodeId| -> Box<dyn Iterator<Item = NodeId>> {
        let mut v: Vec<NodeId> = g.neighbors(u).map(|(w, _)| w).collect();
        v.sort_unstable();
        v.dedup();
        Box::new(v.into_iter())
    };
    iters.push(collect_nbrs(src));
    let expand_ctr = dcn_obs::counter!(dcn_obs::names::GRAPH_KSP_SLACK_DFS_EXPANSIONS);
    while let Some(it) = iters.last_mut() {
        meter.tick()?;
        expand_ctr.inc();
        if stop_at_cap && out.len() >= cap {
            return Ok(());
        }
        let depth = path.len() as u16 - 1; // edges so far
        match it.next() {
            Some(w) => {
                if on_path[w as usize] {
                    continue;
                }
                let new_len = depth + 1;
                if w == dst {
                    if new_len == budget {
                        let mut p = path.clone();
                        p.push(dst);
                        out.push(p);
                    }
                    continue;
                }
                // Prune: must still be able to reach dst in exactly
                // budget - new_len more hops; BFS distance is a lower bound.
                if new_len >= budget || dist_to_dst[w as usize] > budget - new_len {
                    continue;
                }
                on_path[w as usize] = true;
                path.push(w);
                iters.push(collect_nbrs(w));
            }
            None => {
                iters.pop();
                if let Some(u) = path.pop() {
                    on_path[u as usize] = false;
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unl() -> Budget {
        Budget::unlimited()
    }

    /// Diamond: 0-1-3 and 0-2-3, plus long way 0-4-5-3.
    fn diamond() -> Graph {
        Graph::from_edges(6, &[(0, 1), (1, 3), (0, 2), (2, 3), (0, 4), (4, 5), (5, 3)]).unwrap()
    }

    #[test]
    fn yen_finds_all_paths_in_order() {
        let g = diamond();
        let paths = yen(&g, 0, 3, 10, &unl()).unwrap();
        assert_eq!(paths.len(), 3);
        assert_eq!(path_len(&paths[0]), 2);
        assert_eq!(path_len(&paths[1]), 2);
        assert_eq!(path_len(&paths[2]), 3);
    }

    #[test]
    fn yen_respects_k() {
        let g = diamond();
        assert_eq!(yen(&g, 0, 3, 1, &unl()).unwrap().len(), 1);
        assert_eq!(yen(&g, 0, 3, 2, &unl()).unwrap().len(), 2);
    }

    #[test]
    fn yen_no_path() {
        let g = Graph::from_edges(3, &[(0, 1)]).unwrap();
        assert!(yen(&g, 0, 2, 5, &unl()).unwrap().is_empty());
    }

    #[test]
    fn slack_matches_yen_lengths() {
        let g = diamond();
        let a = yen(&g, 0, 3, 10, &unl()).unwrap();
        let b = k_shortest_by_slack(&g, 0, 3, 10, u16::MAX, &unl()).unwrap();
        let la: Vec<usize> = a.iter().map(path_len).collect();
        let lb: Vec<usize> = b.iter().map(path_len).collect();
        assert_eq!(la, lb);
    }

    #[test]
    fn slack_zero_gives_only_shortest() {
        let g = diamond();
        let p = paths_within_slack(&g, 0, 3, 0, 100, &unl()).unwrap();
        assert_eq!(p.len(), 2);
        assert!(p.iter().all(|p| path_len(p) == 2));
    }

    #[test]
    fn slack_one_includes_longer() {
        let g = diamond();
        let p = paths_within_slack(&g, 0, 3, 1, 100, &unl()).unwrap();
        assert_eq!(p.len(), 3);
    }

    #[test]
    fn paths_are_loopless_and_valid() {
        let g = diamond();
        for p in k_shortest_by_slack(&g, 0, 3, 10, u16::MAX, &unl()).unwrap() {
            assert_eq!(p[0], 0);
            assert_eq!(*p.last().unwrap(), 3);
            let mut uniq = p.clone();
            uniq.sort();
            uniq.dedup();
            assert_eq!(uniq.len(), p.len(), "path revisits a node: {p:?}");
            for w in p.windows(2) {
                assert!(
                    g.neighbors(w[0]).any(|(v, _)| v == w[1]),
                    "non-adjacent hop {w:?}"
                );
            }
        }
    }

    #[test]
    fn cap_respected() {
        let g = diamond();
        assert_eq!(paths_within_slack(&g, 0, 3, 5, 2, &unl()).unwrap().len(), 2);
        assert_eq!(
            k_shortest_by_slack(&g, 0, 3, 2, u16::MAX, &unl()).unwrap().len(),
            2
        );
    }

    #[test]
    fn parallel_edges_do_not_duplicate_paths() {
        let g = Graph::from_edges(3, &[(0, 1), (0, 1), (1, 2)]).unwrap();
        let p = k_shortest_by_slack(&g, 0, 2, 10, u16::MAX, &unl()).unwrap();
        assert_eq!(p.len(), 1);
    }

    #[test]
    fn budget_caps_yen_and_slack_search() {
        let g = diamond();
        let tiny = Budget::unlimited().with_iter_cap(1);
        // Yen needs several spur searches for k=10 → the cap fires.
        assert!(matches!(
            yen(&g, 0, 3, 10, &tiny),
            Err(BudgetError::IterationsExceeded { cap: 1 })
        ));
        assert!(matches!(
            k_shortest_by_slack(&g, 0, 3, 10, u16::MAX, &tiny),
            Err(BudgetError::IterationsExceeded { cap: 1 })
        ));
        assert!(matches!(
            paths_within_slack(&g, 0, 3, 5, 100, &tiny),
            Err(BudgetError::IterationsExceeded { cap: 1 })
        ));
        // A roomy budget returns the same paths as an unlimited one.
        let roomy = Budget::unlimited().with_iter_cap(1_000_000);
        assert_eq!(
            yen(&g, 0, 3, 10, &roomy).unwrap(),
            yen(&g, 0, 3, 10, &unl()).unwrap()
        );
        assert_eq!(
            k_shortest_by_slack(&g, 0, 3, 10, u16::MAX, &roomy).unwrap(),
            k_shortest_by_slack(&g, 0, 3, 10, u16::MAX, &unl()).unwrap()
        );
    }

    #[test]
    fn expired_deadline_aborts_dfs_despite_stride() {
        // A zero deadline fires at the first strided checkpoint; the DFS
        // stride is 1024 so give it a graph needing more expansions.
        let g = diamond();
        let expired = Budget::unlimited().with_wall(std::time::Duration::ZERO);
        // Yen meters every tick, so it errs immediately.
        assert!(matches!(
            yen(&g, 0, 3, 10, &expired),
            Err(BudgetError::DeadlineExceeded { .. })
        ));
        // The slack DFS on this small graph finishes under one stride —
        // both outcomes (done or deadline) are acceptable; no hang either way.
        let r = k_shortest_by_slack(&g, 0, 3, 10, u16::MAX, &expired);
        match r {
            Ok(paths) => assert_eq!(paths.len(), 3),
            Err(e) => assert!(matches!(e, BudgetError::DeadlineExceeded { .. })),
        }
    }

    #[test]
    fn yen_on_larger_random_like_graph_agrees_with_slack() {
        // Petersen graph: 3-regular, girth 5 — a good stress case.
        let edges = [
            (0, 1),
            (1, 2),
            (2, 3),
            (3, 4),
            (4, 0),
            (0, 5),
            (1, 6),
            (2, 7),
            (3, 8),
            (4, 9),
            (5, 7),
            (7, 9),
            (9, 6),
            (6, 8),
            (8, 5),
        ];
        let g = Graph::from_edges(10, &edges).unwrap();
        for dst in 1..10u32 {
            let a = yen(&g, 0, dst, 25, &unl()).unwrap();
            let b = k_shortest_by_slack(&g, 0, dst, 25, u16::MAX, &unl()).unwrap();
            let la: Vec<usize> = a.iter().map(path_len).collect();
            let lb: Vec<usize> = b.iter().map(path_len).collect();
            assert_eq!(la, lb, "length multiset mismatch for dst={dst}");
        }
    }
}
