//! Flow-completion-time (FCT) simulation.
//!
//! A fluid event-driven loop over finite-size flows: rates follow the
//! exact max-min fair allocation, recomputed whenever a flow finishes.
//! This is the standard flow-level approximation of a congestion-controlled
//! fabric, and the metric downstream users actually feel — the paper's
//! throughput story expressed as completion-time slowdowns.
//!
//! Units: link capacity 1.0 = one server line rate; a flow of `size` S at
//! rate 1.0 completes in S time units. *Slowdown* is FCT divided by the
//! ideal (uncontended) FCT `S / min(1, demand ceiling)`.

use crate::allocate::max_min_rates;
use crate::flows::RoutedFlow;
use dcn_model::Topology;

/// A finite-size flow to transfer.
#[derive(Debug, Clone)]
pub struct SizedFlow {
    /// The flow and its path.
    pub routed: RoutedFlow,
    /// Bytes, in line-rate-seconds (size 1.0 = one unit of time at rate 1).
    pub size: f64,
}

/// Per-flow outcome.
#[derive(Debug, Clone, Copy)]
pub struct FlowOutcome {
    /// Completion time.
    pub fct: f64,
    /// FCT divided by the uncontended FCT.
    pub slowdown: f64,
}

/// Result of an FCT run.
#[derive(Debug, Clone)]
pub struct FctReport {
    /// Per-flow completion outcomes, in input order.
    pub outcomes: Vec<FlowOutcome>,
    /// Time the last flow finished.
    pub makespan: f64,
}

impl FctReport {
    /// Mean slowdown over all flows.
    pub fn mean_slowdown(&self) -> f64 {
        if self.outcomes.is_empty() {
            return 0.0;
        }
        self.outcomes.iter().map(|o| o.slowdown).sum::<f64>() / self.outcomes.len() as f64
    }

    /// p-th percentile slowdown (`p` in 0..=100).
    pub fn percentile_slowdown(&self, p: f64) -> f64 {
        if self.outcomes.is_empty() {
            return 0.0;
        }
        let mut s: Vec<f64> = self.outcomes.iter().map(|o| o.slowdown).collect();
        s.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let idx = ((p / 100.0) * (s.len() - 1) as f64).round() as usize;
        s[idx.min(s.len() - 1)]
    }
}

/// Runs all flows to completion (all start at time 0).
///
/// Each round computes the max-min allocation for the remaining flows,
/// advances time to the earliest completion, and removes finished flows.
/// At most `n` rounds of an `O(n * links)` allocation each.
pub fn run_to_completion(topo: &Topology, flows: &[SizedFlow]) -> FctReport {
    let n = flows.len();
    let mut remaining: Vec<f64> = flows.iter().map(|f| f.size.max(0.0)).collect();
    let mut active: Vec<usize> = (0..n).filter(|&i| remaining[i] > 0.0).collect();
    let mut fct = vec![0.0f64; n];
    let mut now = 0.0f64;
    // Zero-size flows complete instantly.
    while !active.is_empty() {
        let routed: Vec<RoutedFlow> = active.iter().map(|&i| flows[i].routed.clone()).collect();
        let alloc = max_min_rates(topo, &routed);
        // Earliest completion among active flows.
        let mut dt = f64::INFINITY;
        for (k, &i) in active.iter().enumerate() {
            let r = alloc.rates[k];
            if r > 1e-15 {
                dt = dt.min(remaining[i] / r);
            }
        }
        if !dt.is_finite() {
            // Starved flows (shouldn't happen on connected fabrics with
            // positive demands): mark them complete at +inf equivalent.
            for &i in &active {
                fct[i] = f64::INFINITY;
            }
            break;
        }
        now += dt;
        let mut still = Vec::with_capacity(active.len());
        for (k, &i) in active.iter().enumerate() {
            remaining[i] -= alloc.rates[k] * dt;
            if remaining[i] <= 1e-9 {
                fct[i] = now;
            } else {
                still.push(i);
            }
        }
        active = still;
    }
    let outcomes = flows
        .iter()
        .zip(fct.iter())
        .map(|(f, &t)| {
            let ideal = f.size / f.routed.flow.demand.clamp(1e-12, 1.0);
            FlowOutcome {
                fct: t,
                slowdown: if ideal > 0.0 { t / ideal } else { 1.0 },
            }
        })
        .collect();
    FctReport {
        outcomes,
        makespan: now,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flows::Flow;
    use crate::PathPolicy;
    use dcn_graph::Graph;
    use dcn_model::Topology;

    fn line3() -> Topology {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
        Topology::new(g, vec![4; 3], "line").unwrap()
    }

    fn sized(t: &Topology, specs: &[(u32, u32, f64)]) -> Vec<SizedFlow> {
        let flows: Vec<Flow> = specs
            .iter()
            .map(|&(src, dst, _)| Flow {
                src,
                dst,
                demand: 1.0,
            })
            .collect();
        let routed = PathPolicy::EcmpHash.route_all(t, &flows, 1).unwrap();
        routed
            .into_iter()
            .zip(specs.iter())
            .map(|(routed, &(_, _, size))| SizedFlow { routed, size })
            .collect()
    }

    #[test]
    fn single_flow_runs_at_line_rate() {
        let t = line3();
        let fs = sized(&t, &[(0, 2, 3.0)]);
        let r = run_to_completion(&t, &fs);
        assert!((r.makespan - 3.0).abs() < 1e-9);
        assert!((r.outcomes[0].slowdown - 1.0).abs() < 1e-9);
    }

    #[test]
    fn two_equal_flows_double_fct() {
        let t = line3();
        let fs = sized(&t, &[(0, 1, 1.0), (0, 1, 1.0)]);
        let r = run_to_completion(&t, &fs);
        // Both at rate 0.5 → finish at t = 2.
        assert!((r.makespan - 2.0).abs() < 1e-9);
        assert!((r.mean_slowdown() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn short_flow_finishes_then_long_speeds_up() {
        let t = line3();
        let fs = sized(&t, &[(0, 1, 1.0), (0, 1, 3.0)]);
        let r = run_to_completion(&t, &fs);
        // Phase 1: both at 0.5 until the short one finishes at t = 2.
        // Phase 2: the long one has 2.0 left at rate 1 → finishes at t = 4.
        assert!((r.outcomes[0].fct - 2.0).abs() < 1e-9);
        assert!((r.outcomes[1].fct - 4.0).abs() < 1e-9);
        assert!((r.percentile_slowdown(100.0) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn parking_lot_fcts() {
        let t = line3();
        // A long flow across both links plus one short on each link.
        let fs = sized(&t, &[(0, 2, 2.0), (0, 1, 1.0), (1, 2, 1.0)]);
        let r = run_to_completion(&t, &fs);
        // Phase 1 (all at 0.5): shorts done at t = 2. Phase 2: long flow
        // alone at rate 1, 1.0 remaining → t = 3.
        assert!((r.outcomes[1].fct - 2.0).abs() < 1e-9);
        assert!((r.outcomes[2].fct - 2.0).abs() < 1e-9);
        assert!((r.outcomes[0].fct - 3.0).abs() < 1e-9);
        assert!((r.makespan - 3.0).abs() < 1e-9);
    }

    #[test]
    fn zero_size_flow_completes_immediately() {
        let t = line3();
        let fs = sized(&t, &[(0, 1, 0.0), (0, 1, 1.0)]);
        let r = run_to_completion(&t, &fs);
        assert_eq!(r.outcomes[0].fct, 0.0);
        assert!((r.outcomes[1].fct - 1.0).abs() < 1e-9);
    }

    #[test]
    fn empty_run() {
        let t = line3();
        let r = run_to_completion(&t, &[]);
        assert_eq!(r.makespan, 0.0);
        assert_eq!(r.mean_slowdown(), 0.0);
        assert_eq!(r.percentile_slowdown(99.0), 0.0);
    }
}

/// A flow with an arrival time (open-loop workloads).
#[derive(Debug, Clone)]
pub struct ArrivingFlow {
    /// Arrival time.
    pub at: f64,
    /// The flow, its path, and its size.
    pub flow: SizedFlow,
}

/// Runs an open-loop workload: flows arrive at their specified times and
/// share the fabric max-min fairly with whatever else is in flight.
///
/// The fluid event loop alternates between the next arrival and the next
/// completion; rates are re-solved at every event. FCTs are reported
/// relative to each flow's *arrival* (so slowdown remains comparable to
/// the batch runner).
pub fn run_open_loop(topo: &Topology, arrivals: &[ArrivingFlow]) -> FctReport {
    let n = arrivals.len();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| arrivals[a].at.partial_cmp(&arrivals[b].at).unwrap());
    let mut remaining: Vec<f64> = arrivals.iter().map(|a| a.flow.size.max(0.0)).collect();
    let mut fct_abs = vec![f64::NAN; n];
    let mut active: Vec<usize> = Vec::new();
    let mut next_arrival = 0usize;
    let mut now = arrivals.iter().map(|a| a.at).fold(f64::INFINITY, f64::min);
    if !now.is_finite() {
        now = 0.0;
    }
    loop {
        // Admit everything that has arrived by `now`.
        while next_arrival < n && arrivals[order[next_arrival]].at <= now + 1e-12 {
            let i = order[next_arrival];
            if remaining[i] <= 1e-12 {
                fct_abs[i] = arrivals[i].at; // zero-size completes instantly
            } else {
                active.push(i);
            }
            next_arrival += 1;
        }
        if active.is_empty() {
            match order.get(next_arrival) {
                Some(&i) => {
                    now = arrivals[i].at;
                    continue;
                }
                None => break,
            }
        }
        // Rates for the in-flight set.
        let routed: Vec<RoutedFlow> = active
            .iter()
            .map(|&i| arrivals[i].flow.routed.clone())
            .collect();
        let alloc = max_min_rates(topo, &routed);
        // Time to next completion...
        let mut dt = f64::INFINITY;
        for (k, &i) in active.iter().enumerate() {
            if alloc.rates[k] > 1e-15 {
                dt = dt.min(remaining[i] / alloc.rates[k]);
            }
        }
        // ...or next arrival, whichever first.
        if let Some(&i) = order.get(next_arrival) {
            dt = dt.min(arrivals[i].at - now);
        }
        if !dt.is_finite() {
            for &i in &active {
                fct_abs[i] = f64::INFINITY;
            }
            break;
        }
        now += dt;
        let mut still = Vec::with_capacity(active.len());
        for (k, &i) in active.iter().enumerate() {
            remaining[i] -= alloc.rates[k] * dt;
            if remaining[i] <= 1e-9 {
                fct_abs[i] = now;
            } else {
                still.push(i);
            }
        }
        active = still;
    }
    let outcomes = arrivals
        .iter()
        .zip(fct_abs.iter())
        .map(|(a, &t_done)| {
            let fct = t_done - a.at;
            let ideal = a.flow.size / a.flow.routed.flow.demand.clamp(1e-12, 1.0);
            FlowOutcome {
                fct,
                slowdown: if ideal > 0.0 { fct / ideal } else { 1.0 },
            }
        })
        .collect();
    FctReport {
        outcomes,
        makespan: now,
    }
}

#[cfg(test)]
mod open_loop_tests {
    use super::*;
    use crate::flows::Flow;
    use crate::PathPolicy;
    use dcn_graph::Graph;
    use dcn_model::Topology;

    fn line3() -> Topology {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
        Topology::new(g, vec![4; 3], "line").unwrap()
    }

    fn arriving(t: &Topology, specs: &[(u32, u32, f64, f64)]) -> Vec<ArrivingFlow> {
        let flows: Vec<Flow> = specs
            .iter()
            .map(|&(src, dst, _, _)| Flow {
                src,
                dst,
                demand: 1.0,
            })
            .collect();
        let routed = PathPolicy::EcmpHash.route_all(t, &flows, 1).unwrap();
        routed
            .into_iter()
            .zip(specs.iter())
            .map(|(routed, &(_, _, size, at))| ArrivingFlow {
                at,
                flow: SizedFlow { routed, size },
            })
            .collect()
    }

    #[test]
    fn disjoint_in_time_flows_run_alone() {
        let t = line3();
        // Second flow arrives after the first finishes: both at line rate.
        let fs = arriving(&t, &[(0, 1, 1.0, 0.0), (0, 1, 1.0, 5.0)]);
        let r = run_open_loop(&t, &fs);
        assert!((r.outcomes[0].fct - 1.0).abs() < 1e-9);
        assert!((r.outcomes[1].fct - 1.0).abs() < 1e-9);
        assert!((r.makespan - 6.0).abs() < 1e-9);
    }

    #[test]
    fn overlapping_flows_share() {
        let t = line3();
        // Both arrive at 0 on the same link: batch behaviour.
        let fs = arriving(&t, &[(0, 1, 1.0, 0.0), (0, 1, 1.0, 0.0)]);
        let r = run_open_loop(&t, &fs);
        assert!((r.outcomes[0].fct - 2.0).abs() < 1e-9);
        assert!((r.outcomes[1].fct - 2.0).abs() < 1e-9);
    }

    #[test]
    fn late_arrival_slows_early_flow() {
        let t = line3();
        // Flow A (size 2) starts alone; flow B (size 1) arrives at t=1.
        // A runs at 1 until t=1 (1 left), then both at 0.5: A finishes at
        // t=3, B has 0.5... wait B finishes: B needs 1 at 0.5 → t=3 too.
        let fs = arriving(&t, &[(0, 1, 2.0, 0.0), (0, 1, 1.0, 1.0)]);
        let r = run_open_loop(&t, &fs);
        assert!(
            (r.outcomes[0].fct - 3.0).abs() < 1e-9,
            "A fct {}",
            r.outcomes[0].fct
        );
        assert!(
            (r.outcomes[1].fct - 2.0).abs() < 1e-9,
            "B fct {}",
            r.outcomes[1].fct
        );
    }

    #[test]
    fn idle_gaps_skipped() {
        let t = line3();
        let fs = arriving(&t, &[(0, 1, 1.0, 10.0)]);
        let r = run_open_loop(&t, &fs);
        assert!((r.outcomes[0].fct - 1.0).abs() < 1e-9);
        assert!((r.makespan - 11.0).abs() < 1e-9);
    }

    #[test]
    fn empty_open_loop() {
        let t = line3();
        let r = run_open_loop(&t, &[]);
        assert!(r.outcomes.is_empty());
    }
}
