//! Flow generation from switch-level traffic matrices.

use dcn_model::TrafficMatrix;

/// A unit-demand server-level flow between two switches.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Flow {
    /// Source switch.
    pub src: u32,
    /// Destination switch.
    pub dst: u32,
    /// Demand of this flow (a fraction of a server's line rate when the
    /// matrix entry is not integral).
    pub demand: f64,
}

/// Expands a switch-level traffic matrix into flows: a demand of `a`
/// becomes `floor(a)` unit flows plus (if fractional) one flow with the
/// remainder. A saturated hose permutation on an H-servers-per-switch
/// topology therefore yields exactly H flows per matched pair — one per
/// server, the granularity ECMP hashing actually sees.
pub fn flows_from_tm(tm: &TrafficMatrix) -> Vec<Flow> {
    let mut flows = Vec::new();
    for d in tm.demands() {
        let whole = d.amount.floor() as u64;
        for _ in 0..whole {
            flows.push(Flow {
                src: d.src,
                dst: d.dst,
                demand: 1.0,
            });
        }
        let frac = d.amount - whole as f64;
        if frac > 1e-12 {
            flows.push(Flow {
                src: d.src,
                dst: d.dst,
                demand: frac,
            });
        }
    }
    flows
}

/// A flow plus its concrete route, as directed-link indices
/// (`2 * edge_id + direction`) over the coalesced graph.
#[derive(Debug, Clone)]
pub struct RoutedFlow {
    /// The flow being routed.
    pub flow: Flow,
    /// Its path as directed-link indices.
    pub links: Vec<usize>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcn_graph::Graph;
    use dcn_model::Topology;

    fn pair_topo(h: u32) -> Topology {
        let g = Graph::from_edges(2, &[(0, 1)]).unwrap();
        Topology::new(g, vec![h; 2], "pair").unwrap()
    }

    #[test]
    fn integral_demand_splits_into_unit_flows() {
        let t = pair_topo(3);
        let tm = TrafficMatrix::permutation(&t, &[(0, 1)]).unwrap();
        let flows = flows_from_tm(&tm);
        assert_eq!(flows.len(), 3);
        assert!(flows
            .iter()
            .all(|f| (f.demand - 1.0).abs() < 1e-12 && f.src == 0 && f.dst == 1));
    }

    #[test]
    fn fractional_remainder_kept() {
        let t = pair_topo(3);
        let tm = TrafficMatrix::permutation(&t, &[(0, 1)])
            .unwrap()
            .scaled(0.5);
        let flows = flows_from_tm(&tm);
        // 1.5 units -> one unit flow + one 0.5 flow.
        assert_eq!(flows.len(), 2);
        assert_eq!(flows[0].demand, 1.0);
        assert!((flows[1].demand - 0.5).abs() < 1e-12);
    }

    #[test]
    fn total_demand_preserved() {
        let t = pair_topo(4);
        let tm = TrafficMatrix::permutation(&t, &[(0, 1), (1, 0)])
            .unwrap()
            .scaled(0.7);
        let flows = flows_from_tm(&tm);
        let total: f64 = flows.iter().map(|f| f.demand).sum();
        assert!((total - tm.total()).abs() < 1e-9);
    }
}
