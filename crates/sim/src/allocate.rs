//! Exact max-min fair rate allocation by progressive filling.
//!
//! All flows' rates rise together; when a directed link saturates, the
//! flows crossing it freeze at their current rate and the rest continue.
//! This is the classical fluid model that TCP-like congestion control
//! approximates, and it terminates in at most `#links` rounds.
//!
//! Flows have demands: a flow never exceeds its demand (it freezes there
//! instead), so partially-scaled traffic matrices behave correctly.

use crate::flows::RoutedFlow;
use dcn_model::Topology;

/// Result of a max-min allocation.
#[derive(Debug, Clone)]
pub struct Allocation {
    /// Rate of each flow, aligned with the input order.
    pub rates: Vec<f64>,
    /// Utilization (load / capacity) per directed link index.
    pub link_utilization: Vec<f64>,
}

impl Allocation {
    /// The worst-served flow's rate/demand ratio: the flow-level analogue
    /// of the paper's `θ(T)` under this (fixed) routing.
    pub fn worst_service(&self, flows: &[RoutedFlow]) -> f64 {
        self.rates
            .iter()
            .zip(flows.iter())
            .map(|(&r, f)| r / f.flow.demand)
            .fold(f64::INFINITY, f64::min)
    }

    /// Jain's fairness index: `(Σ r)^2 / (n Σ r^2)`; 1.0 = perfectly fair.
    pub fn jain_index(&self) -> f64 {
        let n = self.rates.len() as f64;
        let s: f64 = self.rates.iter().sum();
        let s2: f64 = self.rates.iter().map(|r| r * r).sum();
        if s2 <= 0.0 {
            return 1.0;
        }
        s * s / (n * s2)
    }

    /// Peak link utilization.
    pub fn max_utilization(&self) -> f64 {
        self.link_utilization.iter().cloned().fold(0.0, f64::max)
    }
}

/// Computes the exact max-min fair allocation for `flows` over the
/// coalesced directed link capacities of `topo`.
pub fn max_min_rates(topo: &Topology, flows: &[RoutedFlow]) -> Allocation {
    let graph = topo.graph().coalesced();
    let n_dir = 2 * graph.m();
    let cap: Vec<f64> = (0..n_dir).map(|i| graph.capacity((i / 2) as u32)).collect();
    let mut load = vec![0.0f64; n_dir];
    let mut rates = vec![0.0f64; flows.len()];
    let mut frozen = vec![false; flows.len()];
    // Unfrozen flow count per link.
    let mut active_on = vec![0u32; n_dir];
    for f in flows {
        for &l in &f.links {
            active_on[l] += 1;
        }
    }
    let mut remaining = flows.iter().filter(|f| !f.links.is_empty()).count();
    // Zero-hop flows (same-switch, shouldn't occur) freeze at demand.
    for (i, f) in flows.iter().enumerate() {
        if f.links.is_empty() {
            rates[i] = f.flow.demand;
            frozen[i] = true;
        }
    }

    const EPS: f64 = 1e-12;
    while remaining > 0 {
        // The common increment is limited by link headroom shared among the
        // active flows on the link, and by each flow's remaining demand.
        let mut delta = f64::INFINITY;
        for l in 0..n_dir {
            if active_on[l] > 0 {
                delta = delta.min((cap[l] - load[l]) / active_on[l] as f64);
            }
        }
        for (i, f) in flows.iter().enumerate() {
            if !frozen[i] {
                delta = delta.min(f.flow.demand - rates[i]);
            }
        }
        if !delta.is_finite() || delta < 0.0 {
            break;
        }
        // Apply the increment.
        for (i, f) in flows.iter().enumerate() {
            if !frozen[i] {
                rates[i] += delta;
                for &l in &f.links {
                    load[l] += delta;
                }
            }
        }
        // Freeze flows on saturated links or at demand.
        let mut newly = Vec::new();
        for (i, f) in flows.iter().enumerate() {
            if frozen[i] {
                continue;
            }
            let bottlenecked = f
                .links
                .iter()
                .any(|&l| cap[l] - load[l] <= EPS.max(1e-9 * cap[l]));
            let satisfied = f.flow.demand - rates[i] <= EPS;
            if bottlenecked || satisfied {
                newly.push(i);
            }
        }
        if newly.is_empty() {
            // Numerical stall guard: freeze the most constrained flow.
            if let Some(i) = (0..flows.len()).find(|&i| !frozen[i]) {
                newly.push(i);
            } else {
                break;
            }
        }
        for i in newly {
            frozen[i] = true;
            remaining -= 1;
            for &l in &flows[i].links {
                active_on[l] -= 1;
            }
        }
    }
    let link_utilization = load
        .iter()
        .zip(cap.iter())
        .map(|(&l, &c)| if c > 0.0 { l / c } else { 0.0 })
        .collect();
    Allocation {
        rates,
        link_utilization,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flows::Flow;
    use dcn_graph::Graph;
    use dcn_model::Topology;

    /// Path graph 0-1-2 with H=4 (so demands don't clip the tests).
    fn line3() -> Topology {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
        Topology::new(g, vec![4; 3], "line").unwrap()
    }

    fn routed(t: &Topology, specs: &[(u32, u32, f64)]) -> Vec<RoutedFlow> {
        let flows: Vec<Flow> = specs
            .iter()
            .map(|&(src, dst, demand)| Flow { src, dst, demand })
            .collect();
        crate::PathPolicy::EcmpHash.route_all(t, &flows, 1).unwrap()
    }

    #[test]
    fn two_flows_share_a_link() {
        let t = line3();
        let flows = routed(&t, &[(0, 1, 1.0), (0, 1, 1.0)]);
        let a = max_min_rates(&t, &flows);
        assert!((a.rates[0] - 0.5).abs() < 1e-9);
        assert!((a.rates[1] - 0.5).abs() < 1e-9);
        assert!((a.jain_index() - 1.0).abs() < 1e-9);
        assert!((a.max_utilization() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn parking_lot_is_fair() {
        // A(0->2), B(0->1), C(1->2): classic parking lot, all get 1/2.
        let t = line3();
        let flows = routed(&t, &[(0, 2, 1.0), (0, 1, 1.0), (1, 2, 1.0)]);
        let a = max_min_rates(&t, &flows);
        for r in &a.rates {
            assert!((r - 0.5).abs() < 1e-9, "rates {:?}", a.rates);
        }
    }

    #[test]
    fn demand_caps_respected() {
        // A small-demand flow frees capacity for the other.
        let t = line3();
        let flows = routed(&t, &[(0, 1, 0.25), (0, 1, 5.0)]);
        let a = max_min_rates(&t, &flows);
        assert!((a.rates[0] - 0.25).abs() < 1e-9);
        assert!((a.rates[1] - 0.75).abs() < 1e-9);
        let ws = a.worst_service(&flows);
        assert!((ws - 0.15).abs() < 1e-9); // 0.75 / 5.0
    }

    #[test]
    fn no_link_exceeds_capacity() {
        let t = line3();
        let flows = routed(
            &t,
            &[(0, 2, 1.0), (0, 2, 1.0), (2, 0, 1.0), (0, 1, 1.0), (1, 2, 1.0)],
        );
        let a = max_min_rates(&t, &flows);
        assert!(a.max_utilization() <= 1.0 + 1e-9);
        assert!(a.rates.iter().all(|&r| r >= 0.0));
    }

    #[test]
    fn max_min_property_holds() {
        // Every flow must have a bottleneck link that is saturated and on
        // which it has the maximal rate (the defining max-min property).
        let t = line3();
        let flows = routed(&t, &[(0, 2, 2.0), (0, 1, 2.0), (1, 2, 2.0), (1, 2, 2.0)]);
        let a = max_min_rates(&t, &flows);
        let graph = t.graph().coalesced();
        let n_dir = 2 * graph.m();
        let mut load = vec![0.0; n_dir];
        for (f, &r) in flows.iter().zip(a.rates.iter()) {
            for &l in &f.links {
                load[l] += r;
            }
        }
        for (i, f) in flows.iter().enumerate() {
            if a.rates[i] >= f.flow.demand - 1e-9 {
                continue; // demand-limited, no bottleneck needed
            }
            let has_bottleneck = f.links.iter().any(|&l| {
                let cap = graph.capacity((l / 2) as u32);
                let saturated = load[l] >= cap - 1e-6;
                let is_max = flows
                    .iter()
                    .enumerate()
                    .filter(|(_, g)| g.links.contains(&l))
                    .all(|(j, _)| a.rates[j] <= a.rates[i] + 1e-9);
                saturated && is_max
            });
            assert!(has_bottleneck, "flow {i} lacks a max-min bottleneck");
        }
    }

    #[test]
    fn empty_flow_list() {
        let t = line3();
        let a = max_min_rates(&t, &[]);
        assert!(a.rates.is_empty());
        assert_eq!(a.jain_index(), 1.0);
    }
}
