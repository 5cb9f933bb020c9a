//! FatClique: a three-level clique-of-cliques topology (Zhang et al.,
//! NSDI'19).
//!
//! Structure, bottom-up:
//!
//! * **Sub-clique**: `s` switches wired as a complete graph.
//! * **Block**: `c` sub-cliques; every switch has exactly one link to each
//!   *other* sub-clique in its block (a perfect matching per sub-clique
//!   pair).
//! * **Fabric**: `b` blocks in a (near-)uniform full mesh; every switch
//!   contributes `~g` inter-block links, assigned round-robin within its
//!   block.
//!
//! Remaining ports host servers: `H_u = radix - degree(u)`. Because the
//! inter-block port budget does not always divide evenly, `H_u` may differ
//! by one across switches — the deviation from strict uni-regularity the
//! paper handles with Equation 18.

use dcn_graph::Graph;
use dcn_model::{ModelError, Topology};
use std::collections::HashSet;

/// Parameters of a FatClique instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FatCliqueParams {
    /// Switches per sub-clique.
    pub s: usize,
    /// Sub-cliques per block.
    pub c: usize,
    /// Blocks.
    pub b: usize,
    /// Inter-block links per switch (approximate; round-robin assigned).
    pub g: usize,
    /// Switch radix (network links + servers).
    pub radix: usize,
}

impl FatCliqueParams {
    /// Total switches.
    pub fn switches(&self) -> usize {
        self.s * self.c * self.b
    }

    /// Searches for parameters approximating `target_servers` total servers
    /// with `h` servers per switch and the given `radix`. Returns the
    /// feasible parameter set whose server count is closest to the target.
    pub fn search(target_servers: u64, h: u32, radix: usize) -> Option<FatCliqueParams> {
        let mut best: Option<(u64, FatCliqueParams)> = None;
        let max_dim = radix.min(64);
        for s in 2..=max_dim {
            for c in 2..=max_dim {
                let intra = (s - 1) + (c - 1);
                if intra + 1 + h as usize > radix {
                    continue;
                }
                let g = radix - intra - h as usize;
                // b = 1 means no inter-block links are possible; require
                // b >= 2 when g > 0, and allow b chosen to hit the target.
                if g == 0 {
                    continue;
                }
                let per_block = s * c;
                let target_switches = (target_servers / h as u64).max(1) as usize;
                for b in 2..=((target_switches / per_block).max(2) + 1) {
                    let p = FatCliqueParams { s, c, b, g, radix };
                    if p.switches() > 4 * target_switches {
                        break;
                    }
                    // Blocks must form a full mesh: each block needs at
                    // least one link to every other block, otherwise the
                    // instance degenerates into a sparse block ring with
                    // pathological inter-block throughput.
                    if per_block * g < b - 1 {
                        break;
                    }
                    // Every switch must be able to reach g links spread
                    // over b-1 other blocks without exceeding ports.
                    let n = p.switches() as u64 * h as u64;
                    let diff = n.abs_diff(target_servers);
                    if best.is_none_or(|(d, _)| diff < d) {
                        best = Some((diff, p));
                    }
                }
            }
        }
        best.map(|(_, p)| p)
    }
}

/// Builds a FatClique topology from explicit parameters. Deterministic:
/// matchings between sub-cliques use rotations, and inter-block links are
/// placed round-robin.
pub fn fatclique(p: FatCliqueParams) -> Result<Topology, ModelError> {
    let FatCliqueParams { s, c, b, g, radix } = p;
    if s < 2 || c < 1 || b < 1 {
        return Err(ModelError::InfeasibleParams(format!(
            "fatclique needs s >= 2, c >= 1, b >= 1 (got s={s}, c={c}, b={b})"
        )));
    }
    if b > 1 && g == 0 {
        return Err(ModelError::InfeasibleParams(
            "multi-block fatclique needs g >= 1 inter-block links per switch".into(),
        ));
    }
    let n = s * c * b;
    let sw = |block: usize, sub: usize, i: usize| -> u32 { (block * c * s + sub * s + i) as u32 };
    let mut edges: Vec<(u32, u32)> = Vec::new();
    let mut linkset: HashSet<(u32, u32)> = HashSet::new();
    let add =
        |edges: &mut Vec<(u32, u32)>, linkset: &mut HashSet<(u32, u32)>, u: u32, v: u32| -> bool {
            let key = if u < v { (u, v) } else { (v, u) };
            if u == v || !linkset.insert(key) {
                return false;
            }
            edges.push((u, v));
            true
        };

    // Level 1: complete graph inside each sub-clique.
    for block in 0..b {
        for sub in 0..c {
            for i in 0..s {
                for j in (i + 1)..s {
                    add(
                        &mut edges,
                        &mut linkset,
                        sw(block, sub, i),
                        sw(block, sub, j),
                    );
                }
            }
        }
    }
    // Level 2: one link per switch to each other sub-clique in its block,
    // using rotated perfect matchings so the wiring is not a single bundle.
    for block in 0..b {
        for sub_a in 0..c {
            for sub_b in (sub_a + 1)..c {
                let rot = (sub_a + sub_b) % s;
                for i in 0..s {
                    let j = (i + rot) % s;
                    add(
                        &mut edges,
                        &mut linkset,
                        sw(block, sub_a, i),
                        sw(block, sub_b, j),
                    );
                }
            }
        }
    }
    // Level 3: near-uniform full mesh between blocks. Each block has
    // s*c*g inter-block ports; base links per block pair plus circulant
    // extras for the remainder.
    if b > 1 {
        let ports_per_block = s * c * g;
        let base = ports_per_block / (b - 1);
        let rem = ports_per_block % (b - 1);
        // links[x][y]: number of links between blocks x and y.
        let mut links = vec![vec![0usize; b]; b];
        #[expect(
            clippy::needless_range_loop,
            reason = "x indexes the row and bounds the upper-triangle column range"
        )]
        for x in 0..b {
            for y in (x + 1)..b {
                links[x][y] = base;
            }
        }
        // Distribute the remainder with circulant offsets: each offset o
        // adds one link to pairs {x, x+o}, giving every block ~2 extra
        // ports per offset (exactly rem extras total when rem is even).
        let mut extras_left = rem * b / 2; // total extra links to place
        let mut offset = 1usize;
        while extras_left > 0 && offset <= b / 2 {
            for x in 0..b {
                let y = (x + offset) % b;
                let (lo, hi) = if x < y { (x, y) } else { (y, x) };
                if x < y || offset * 2 == b {
                    if extras_left == 0 {
                        break;
                    }
                    links[lo][hi] += 1;
                    extras_left -= 1;
                }
            }
            offset += 1;
        }
        // Endpoint selection: always attach to the least-loaded switch of
        // each block (ties broken by index). This keeps per-switch
        // inter-block degree within 1 across the whole fabric, so server
        // counts H_u = radix - degree differ by at most 1 (the FatClique
        // contract the paper's Equation 18 relies on).
        let per_block = s * c;
        let mut inter_deg = vec![0usize; n];
        #[expect(
            clippy::needless_range_loop,
            reason = "x indexes the row and bounds the upper-triangle column range"
        )]
        for x in 0..b {
            for y in (x + 1)..b {
                if links[x][y] > per_block * per_block {
                    return Err(ModelError::InfeasibleParams(format!(
                        "{} inter-block links exceed the {} possible pairs between blocks of {per_block} switches",
                        links[x][y],
                        per_block * per_block
                    )));
                }
                for _ in 0..links[x][y] {
                    // Least-loaded switch in block x.
                    let u = (0..per_block)
                        .map(|i| (x * per_block + i) as u32)
                        .min_by_key(|&u| (inter_deg[u as usize], u))
                        .expect("non-empty block");
                    // Least-loaded switch in block y not already linked to u.
                    let mut cands: Vec<u32> =
                        (0..per_block).map(|i| (y * per_block + i) as u32).collect();
                    cands.sort_by_key(|&v| (inter_deg[v as usize], v));
                    let mut placed = false;
                    for v in cands {
                        if add(&mut edges, &mut linkset, u, v) {
                            inter_deg[u as usize] += 1;
                            inter_deg[v as usize] += 1;
                            placed = true;
                            break;
                        }
                    }
                    if !placed {
                        return Err(ModelError::InfeasibleParams(format!(
                            "cannot place {0} inter-block links between blocks of {per_block} switches",
                            links[x][y]
                        )));
                    }
                }
            }
        }
    }

    let graph = Graph::from_edges(n, &edges)?;
    // Remaining ports host servers.
    let mut servers = vec![0u32; n];
    for u in 0..n as u32 {
        let deg = graph.degree(u);
        if deg >= radix {
            return Err(ModelError::InfeasibleParams(format!(
                "switch {u} has degree {deg} >= radix {radix}; no room for servers"
            )));
        }
        servers[u as usize] = (radix - deg) as u32;
    }
    let name = format!("fatclique-s{s}-c{c}-b{b}-g{g}-r{radix}");
    let topo = Topology::new(graph, servers, name)?;
    if !topo.graph().is_connected() {
        return Err(ModelError::InfeasibleParams(
            "fatclique instance is disconnected".into(),
        ));
    }
    Ok(topo)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcn_model::TopoClass;

    #[test]
    fn small_instance_structure() {
        let p = FatCliqueParams {
            s: 4,
            c: 3,
            b: 3,
            g: 2,
            radix: 16,
        };
        let t = fatclique(p).unwrap();
        assert_eq!(t.n_switches(), 36);
        assert!(t.graph().is_connected());
        // Degree: (s-1) + (c-1) + ~g = 3 + 2 + ~2 = ~7; H = 16 - degree ≈ 9.
        let h_min = t.servers().iter().min().unwrap();
        let h_max = t.servers().iter().max().unwrap();
        assert!(h_max - h_min <= 1, "H spread {h_min}..{h_max}");
        assert!(matches!(
            t.class(),
            TopoClass::UniRegular { .. } | TopoClass::NearUniRegular { .. }
        ));
    }

    #[test]
    fn single_block_is_clique_of_cliques() {
        let p = FatCliqueParams {
            s: 3,
            c: 4,
            b: 1,
            g: 0,
            radix: 10,
        };
        let t = fatclique(p).unwrap();
        assert_eq!(t.n_switches(), 12);
        // degree = (3-1) + (4-1) = 5, H = 5 everywhere.
        assert_eq!(t.class(), TopoClass::UniRegular { h: 5 });
        assert_eq!(t.graph().diameter(), Ok(2));
    }

    #[test]
    fn sub_clique_is_complete() {
        let p = FatCliqueParams {
            s: 5,
            c: 2,
            b: 2,
            g: 1,
            radix: 12,
        };
        let t = fatclique(p).unwrap();
        // Switches 0..5 form the first sub-clique.
        for i in 0..5u32 {
            for j in (i + 1)..5 {
                assert!(
                    t.graph().neighbors(i).any(|(v, _)| v == j),
                    "missing intra-sub-clique link {i}-{j}"
                );
            }
        }
    }

    #[test]
    fn one_link_per_other_subclique_in_block() {
        let p = FatCliqueParams {
            s: 4,
            c: 3,
            b: 1,
            g: 0,
            radix: 12,
        };
        let t = fatclique(p).unwrap();
        for u in 0..12u32 {
            let my_sub = u / 4;
            let mut per_sub = std::collections::HashMap::new();
            for (v, _) in t.graph().neighbors(u) {
                let sub = v / 4;
                if sub != my_sub {
                    *per_sub.entry(sub).or_insert(0) += 1;
                }
            }
            assert_eq!(per_sub.len(), 2);
            assert!(per_sub.values().all(|&c| c == 1));
        }
    }

    #[test]
    fn search_finds_reasonable_params() {
        let p = FatCliqueParams::search(2000, 8, 24).unwrap();
        let t = fatclique(p).unwrap();
        let n = t.n_servers();
        assert!(
            (n as i64 - 2000).abs() < 600,
            "server count {n} too far from 2000 (params {p:?})"
        );
    }

    #[test]
    fn infeasible_params_rejected() {
        assert!(fatclique(FatCliqueParams {
            s: 1,
            c: 2,
            b: 2,
            g: 1,
            radix: 8
        })
        .is_err());
        assert!(fatclique(FatCliqueParams {
            s: 4,
            c: 2,
            b: 3,
            g: 0,
            radix: 8
        })
        .is_err());
        // Degree exceeds radix.
        assert!(fatclique(FatCliqueParams {
            s: 8,
            c: 4,
            b: 2,
            g: 2,
            radix: 10
        })
        .is_err());
    }
}
