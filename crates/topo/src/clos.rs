//! Clos-family bi-regular topologies: the classic 3-tier k-ary fat-tree and
//! a generalized L-layer folded Clos with partial top-level deployment.
//!
//! The folded Clos is built recursively: a level-1 pod is a single leaf
//! switch with `r/2` servers and `r/2` uplinks; a level-`l` pod aggregates
//! `r/2` level-`(l-1)` pods through `(r/2)^(l-1)` spine switches using
//! port-striped wiring (sub-pod uplink `q` attaches to pod spine `q`).
//! The fabric joins `P <= r` top-level pods through a core layer in which
//! every core switch uses at most `r` ports. Setting `P = r` gives the
//! canonical fully-deployed fat-tree (`2 (r/2)^L` servers); smaller `P`
//! gives the "1/Pth Clos" instances used by the paper's cost experiments.
//! A `spine_uplink_fraction < 1` trims uplinks at the layer below the core,
//! producing an oversubscribed Clos (Table 5).

use dcn_graph::Graph;
use dcn_model::{ModelError, Topology};

/// Parameters for [`folded_clos`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClosParams {
    /// Switch radix (must be even, >= 4).
    pub radix: usize,
    /// Total layers including the core layer (>= 2).
    pub layers: usize,
    /// Top-level pods deployed (2..=radix). `radix` = fully deployed.
    pub top_pods: usize,
    /// Fraction of uplinks used at the layer below the core; 1.0 for a
    /// rearrangeably non-blocking Clos, 0.5 to halve spine capacity.
    pub spine_uplink_fraction: f64,
    /// Servers per leaf switch; 0 means the non-blocking default `radix/2`.
    /// Values above `radix/2` oversubscribe at the leaf stage (the common
    /// deployed form: e.g. `2 radix/3` gives a 1:2 oversubscribed Clos,
    /// Table 5 of the paper).
    pub leaf_servers: usize,
}

impl ClosParams {
    /// Fully-deployed non-blocking Clos.
    pub fn full(radix: usize, layers: usize) -> Self {
        ClosParams {
            radix,
            layers,
            top_pods: radix,
            spine_uplink_fraction: 1.0,
            leaf_servers: 0,
        }
    }

    /// Effective servers per leaf (applying the `radix/2` default).
    pub fn leaf_servers_eff(&self) -> usize {
        if self.leaf_servers == 0 {
            self.radix / 2
        } else {
            self.leaf_servers
        }
    }

    /// Leaf uplinks: `radix - leaf_servers`.
    pub fn leaf_uplinks(&self) -> usize {
        self.radix - self.leaf_servers_eff()
    }

    /// Servers hosted: `P * leaf_servers * (r/2)^(L-2)`
    /// (`P * (r/2)^(L-1)` for the non-blocking default).
    pub fn n_servers(&self) -> u64 {
        let half = (self.radix / 2) as u64;
        self.top_pods as u64
            * self.leaf_servers_eff() as u64
            * half.pow(self.layers as u32 - 2)
    }

    /// Switches in one level-`l` pod: `sw(1) = 1`,
    /// `sw(l) = (r/2) sw(l-1) + s_l` with `s_l = U1 (r/2)^(l-2)` pod
    /// spines (`U1` = leaf uplinks).
    pub fn pod_switches_of(&self, level: usize) -> u64 {
        let half = (self.radix / 2) as u64;
        let u1 = self.leaf_uplinks() as u64;
        let mut sw = 1u64;
        for l in 2..=level {
            sw = half * sw + u1 * half.pow(l as u32 - 2);
        }
        sw
    }

    /// Core switches, matching the builder's per-spine uplink rounding.
    pub fn n_cores(&self) -> u64 {
        let half = (self.radix / 2) as u64;
        let u_full = self.leaf_uplinks() as u64 * half.pow(self.layers as u32 - 2);
        let keep_denom = if self.layers == 2 {
            // 2-layer: the "spines below the core" are the leaves
            // themselves; trimming applies to leaf uplinks.
            self.leaf_uplinks() as u64
        } else {
            half
        };
        let keep = ((keep_denom as f64 * self.spine_uplink_fraction).round() as u64)
            .clamp(1, keep_denom);
        let u_used = u_full / keep_denom * keep;
        (u_used * self.top_pods as u64).div_ceil(self.radix as u64)
    }

    /// Total switches, including the core layer.
    pub fn n_switches(&self) -> u64 {
        let pods = self.top_pods as u64 * self.pod_switches_of(self.layers - 1);
        pods + self.n_cores()
    }
}

/// Builds an L-layer folded Clos. See [`ClosParams`].
pub fn folded_clos(p: ClosParams) -> Result<Topology, ModelError> {
    let ClosParams {
        radix,
        layers,
        top_pods,
        spine_uplink_fraction,
        leaf_servers: _,
    } = p;
    let leaf_srv = p.leaf_servers_eff();
    if radix < 4 || radix % 2 != 0 {
        return Err(ModelError::InfeasibleParams(format!(
            "clos radix must be even and >= 4 (got {radix})"
        )));
    }
    if layers < 2 {
        return Err(ModelError::InfeasibleParams(format!(
            "clos needs >= 2 layers (got {layers})"
        )));
    }
    if top_pods < 2 || top_pods > radix {
        return Err(ModelError::InfeasibleParams(format!(
            "top_pods must be in 2..=radix (got {top_pods}, radix {radix})"
        )));
    }
    if !(0.0..=1.0).contains(&spine_uplink_fraction) || spine_uplink_fraction <= 0.0 {
        return Err(ModelError::InfeasibleParams(format!(
            "spine_uplink_fraction must be in (0, 1] (got {spine_uplink_fraction})"
        )));
    }
    if leaf_srv == 0 || leaf_srv >= radix {
        return Err(ModelError::InfeasibleParams(format!(
            "leaf_servers must be in 1..radix (got {leaf_srv}, radix {radix})"
        )));
    }
    let half = radix / 2;
    let leaf_up = radix - leaf_srv;

    struct Pod {
        /// Uplink ports in striped order: the switch owning each port.
        uplinks: Vec<u32>,
    }
    let mut edges: Vec<(u32, u32)> = Vec::new();
    let mut servers: Vec<u32> = Vec::new();
    let mut next_id = 0u32;
    let mut alloc = |servers: &mut Vec<u32>, s: u32| -> u32 {
        let id = next_id;
        next_id += 1;
        servers.push(s);
        id
    };

    // Recursive pod construction, iterative over levels: build all top_pods
    // level-(layers-1) pods.
    fn build_pod(
        level: usize,
        half: usize,
        leaf_srv: usize,
        leaf_up: usize,
        alloc: &mut dyn FnMut(&mut Vec<u32>, u32) -> u32,
        servers: &mut Vec<u32>,
        edges: &mut Vec<(u32, u32)>,
    ) -> Pod {
        if level == 1 {
            let id = alloc(servers, leaf_srv as u32);
            return Pod {
                uplinks: vec![id; leaf_up],
            };
        }
        let subs: Vec<Pod> = (0..half)
            .map(|_| build_pod(level - 1, half, leaf_srv, leaf_up, alloc, servers, edges))
            .collect();
        let u_prev = subs[0].uplinks.len();
        // Spines of this pod: one per sub-pod uplink index.
        let spines: Vec<u32> = (0..u_prev).map(|_| alloc(servers, 0)).collect();
        for sub in &subs {
            for (q, &sw) in sub.uplinks.iter().enumerate() {
                edges.push((sw, spines[q]));
            }
        }
        // Striped uplinks for the next level: spine q exposes `half`
        // up-ports, in order.
        let mut uplinks = Vec::with_capacity(u_prev * half);
        for &sp in &spines {
            for _ in 0..half {
                uplinks.push(sp);
            }
        }
        Pod { uplinks }
    }

    let pods: Vec<Pod> = (0..top_pods)
        .map(|_| {
            build_pod(
                layers - 1,
                half,
                leaf_srv,
                leaf_up,
                &mut alloc,
                &mut servers,
                &mut edges,
            )
        })
        .collect();

    // Core layer. Trim uplinks per the oversubscription fraction, keeping
    // the striped order (each spine below the core loses the same number of
    // up-ports).
    let u_full = pods[0].uplinks.len();
    // Up-ports per switch at the layer below the core: leaf uplinks for a
    // 2-layer network, r/2 for deeper ones.
    let below_core_up = if layers == 2 { leaf_up } else { half };
    let keep_per_spine = ((below_core_up as f64 * spine_uplink_fraction).round() as usize)
        .clamp(1, below_core_up);
    let u_used = u_full / below_core_up * keep_per_spine;
    let cores_needed = (u_used * top_pods).div_ceil(radix);
    let cores: Vec<u32> = (0..cores_needed).map(|_| alloc(&mut servers, 0)).collect();
    // The round-robin core counter is global across pods: restarting it per
    // pod would pile `ceil` shares onto the low-index cores whenever
    // `u_used % cores_needed != 0` and overflow their radix.
    let mut q_global = 0usize;
    for pod in &pods {
        let mut q_used = 0usize;
        for (q, &sw) in pod.uplinks.iter().enumerate() {
            if q % below_core_up >= keep_per_spine {
                continue; // trimmed port
            }
            let core = cores[q_global % cores.len()];
            edges.push((sw, core));
            q_used += 1;
            q_global += 1;
        }
        debug_assert_eq!(q_used, u_used);
    }

    let n = next_id as usize;
    let graph = Graph::from_edges(n, &edges)?;
    let name = format!(
        "clos-r{radix}-l{layers}-p{top_pods}{}",
        if spine_uplink_fraction < 1.0 {
            format!("-f{spine_uplink_fraction}")
        } else {
            String::new()
        }
    );
    let topo = Topology::new(graph, servers, name)?;
    if !topo.graph().is_connected() {
        return Err(ModelError::InfeasibleParams(
            "clos instance is disconnected".into(),
        ));
    }
    Ok(topo)
}

/// The classic 3-tier k-ary fat-tree (Al-Fares et al., SIGCOMM'08):
/// `k` pods of `k/2` edge and `k/2` aggregation switches, `(k/2)^2` cores,
/// `k^3/4` servers. Equivalent to `folded_clos(ClosParams::full(k, 3))`
/// up to wiring details; provided with the canonical explicit wiring
/// (aggregation switch `a` connects to core group `a`).
pub fn fat_tree(k: usize) -> Result<Topology, ModelError> {
    if k < 4 || !k.is_multiple_of(2) {
        return Err(ModelError::InfeasibleParams(format!(
            "fat-tree needs even k >= 4 (got {k})"
        )));
    }
    let half = k / 2;
    let n_edge = k * half;
    let n_agg = k * half;
    let n_core = half * half;
    let n = n_edge + n_agg + n_core;
    let edge_id = |pod: usize, i: usize| (pod * half + i) as u32;
    let agg_id = |pod: usize, a: usize| (n_edge + pod * half + a) as u32;
    let core_id = |c: usize| (n_edge + n_agg + c) as u32;
    let mut edges = Vec::with_capacity(n_edge * half + n_agg * half);
    for pod in 0..k {
        for i in 0..half {
            for a in 0..half {
                edges.push((edge_id(pod, i), agg_id(pod, a)));
            }
        }
        for a in 0..half {
            for c in 0..half {
                edges.push((agg_id(pod, a), core_id(a * half + c)));
            }
        }
    }
    let mut servers = vec![0u32; n];
    for s in servers.iter_mut().take(n_edge) {
        *s = half as u32;
    }
    let graph = Graph::from_edges(n, &edges)?;
    Topology::new(graph, servers, format!("fattree-k{k}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcn_model::TopoClass;

    #[test]
    fn fat_tree_k4_structure() {
        let t = fat_tree(4).unwrap();
        assert_eq!(t.n_switches(), 20);
        assert_eq!(t.n_servers(), 16);
        assert_eq!(t.class(), TopoClass::BiRegular { h: 2 });
        assert!(t.graph().is_connected());
        // Every switch uses exactly k=4 ports (radix-consistent).
        for u in 0..20u32 {
            assert_eq!(t.used_ports(u), 4.0, "switch {u}");
        }
        // Leaf-to-leaf worst case distance: 4 hops (edge-agg-core-agg-edge).
        assert_eq!(t.graph().diameter(), 4);
    }

    #[test]
    fn folded_clos_matches_fat_tree_counts() {
        // 3-layer radix-8 full Clos == fat-tree(8) in servers and switches.
        let p = ClosParams::full(8, 3);
        let t = folded_clos(p).unwrap();
        let ft = fat_tree(8).unwrap();
        assert_eq!(t.n_servers(), ft.n_servers());
        assert_eq!(t.n_switches(), ft.n_switches());
        assert_eq!(t.n_servers(), p.n_servers());
        assert_eq!(t.n_switches() as u64, p.n_switches());
    }

    #[test]
    fn paper_table_a1_counts() {
        // Table A.1 of the paper (radix 32):
        // 8192 servers, 3 layers, 1280 switches.
        let p3 = ClosParams::full(32, 3);
        assert_eq!(p3.n_servers(), 8192);
        assert_eq!(p3.n_switches(), 1280);
        // 131072 servers, 4 layers, 28672 switches.
        let p4 = ClosParams::full(32, 4);
        assert_eq!(p4.n_servers(), 131072);
        assert_eq!(p4.n_switches(), 28672);
        // 32768 servers: 1/4-deployed 4-layer (8 pods), 7168 switches.
        let p4q = ClosParams {
            radix: 32,
            layers: 4,
            top_pods: 8,
            spine_uplink_fraction: 1.0,
            leaf_servers: 0,
        };
        assert_eq!(p4q.n_servers(), 32768);
        assert_eq!(p4q.n_switches(), 7168);
    }

    #[test]
    fn partial_clos_builds_and_is_biregular() {
        let p = ClosParams {
            radix: 8,
            layers: 3,
            top_pods: 4,
            spine_uplink_fraction: 1.0,
            leaf_servers: 0,
        };
        let t = folded_clos(p).unwrap();
        assert_eq!(t.n_servers(), p.n_servers());
        assert_eq!(t.n_switches() as u64, p.n_switches());
        assert!(matches!(t.class(), TopoClass::BiRegular { h: 4 }));
        // Core switches must not exceed the radix.
        for u in 0..t.n_switches() as u32 {
            assert!(t.used_ports(u) <= 8.0, "switch {u} over radix");
        }
    }

    #[test]
    fn two_layer_leaf_spine() {
        let p = ClosParams::full(4, 2);
        let t = folded_clos(p).unwrap();
        // 4 leaves, each 2 servers + 2 uplinks; cores = 2*4/4 = 2.
        assert_eq!(t.n_servers(), 8);
        assert_eq!(t.n_switches(), 6);
        assert_eq!(t.graph().diameter(), 2);
    }

    #[test]
    fn oversubscribed_clos_halves_core_capacity() {
        let full = folded_clos(ClosParams::full(8, 3)).unwrap();
        let over = folded_clos(ClosParams {
            radix: 8,
            layers: 3,
            top_pods: 8,
            spine_uplink_fraction: 0.5,
            leaf_servers: 0,
        })
        .unwrap();
        assert_eq!(over.n_servers(), full.n_servers());
        assert!(over.n_switches() < full.n_switches());
        // Core-facing capacity halves. Cores are the last `n_cores()` ids.
        let core_links_full = count_core_links(&full, ClosParams::full(8, 3).n_cores());
        let core_links_over = count_core_links(
            &over,
            ClosParams {
                radix: 8,
                layers: 3,
                top_pods: 8,
                spine_uplink_fraction: 0.5,
                leaf_servers: 0,
            }
            .n_cores(),
        );
        assert!((core_links_over as f64 - core_links_full as f64 / 2.0).abs() < 1e-9);
    }

    /// Links incident to the core layer (the trailing `n_cores` switch ids,
    /// by construction order).
    fn count_core_links(t: &Topology, n_cores: u64) -> usize {
        let core_start = t.n_switches() - n_cores as usize;
        t.graph()
            .edges()
            .iter()
            .filter(|&&(u, v)| u as usize >= core_start || v as usize >= core_start)
            .count()
    }

    #[test]
    fn rejects_bad_params() {
        assert!(fat_tree(3).is_err());
        assert!(fat_tree(5).is_err());
        assert!(folded_clos(ClosParams::full(7, 3)).is_err());
        assert!(folded_clos(ClosParams {
            radix: 8,
            layers: 1,
            top_pods: 8,
            spine_uplink_fraction: 1.0,
            leaf_servers: 0,
        })
        .is_err());
        assert!(folded_clos(ClosParams {
            radix: 8,
            layers: 3,
            top_pods: 9,
            spine_uplink_fraction: 1.0,
            leaf_servers: 0,
        })
        .is_err());
        assert!(folded_clos(ClosParams {
            radix: 8,
            layers: 3,
            top_pods: 8,
            spine_uplink_fraction: 0.0,
            leaf_servers: 0,
        })
        .is_err());
    }
}
