//! Topology serialization: a stable JSON interchange format and Graphviz
//! DOT export.
//!
//! The JSON format is deliberately plain — name, per-switch server counts,
//! and a weighted edge list — so topologies generated here can be consumed
//! by external plotting/analysis scripts, and topologies from other tools
//! (e.g. TopoBench-style edge lists) can be imported.
//!
//! Round-tripping is lossless and canonical: edges serialize in the
//! graph's insertion order and deserialize back to a structurally equal
//! [`Topology`], so an exported-then-imported fabric produces the same
//! solver results — and the same `dcn-cache` content keys — as the
//! original. Import re-validates through [`Topology::new`]; malformed
//! input surfaces as [`ModelError`], never a panic.

use crate::{ModelError, Topology};
use dcn_graph::Graph;
use dcn_obs::json::Json;

/// The serializable form of a [`Topology`].
#[derive(Debug, Clone, PartialEq)]
pub struct TopologySpec {
    /// Human-readable name.
    pub name: String,
    /// Servers attached to each switch (length = number of switches).
    pub servers: Vec<u32>,
    /// Undirected switch-to-switch links `(u, v, capacity)`.
    pub links: Vec<(u32, u32, f64)>,
}

impl TopologySpec {
    /// Captures a topology.
    pub fn from_topology(topo: &Topology) -> Self {
        let g = topo.graph();
        let links = g
            .edges()
            .iter()
            .enumerate()
            .map(|(e, &(u, v))| (u, v, g.capacity(e as u32)))
            .collect();
        TopologySpec {
            name: topo.name().to_string(),
            servers: topo.servers().to_vec(),
            links,
        }
    }

    /// Reconstructs the topology (validating the graph and server vector).
    pub fn into_topology(self) -> Result<Topology, ModelError> {
        let n = self.servers.len();
        let g = Graph::from_weighted_edges(n, &self.links)?;
        Topology::new(g, self.servers, self.name)
    }

    /// Renders the spec as pretty JSON.
    pub fn to_json(&self) -> String {
        Json::obj([
            ("name", Json::from(self.name.as_str())),
            (
                "servers",
                Json::Arr(self.servers.iter().map(|&h| Json::from(h)).collect()),
            ),
            (
                "links",
                Json::Arr(
                    self.links
                        .iter()
                        .map(|&(u, v, c)| {
                            Json::Arr(vec![Json::from(u), Json::from(v), Json::Num(c)])
                        })
                        .collect(),
                ),
            ),
        ])
        .to_string_pretty()
    }

    /// Parses a spec from the JSON interchange format.
    pub fn parse_json(json: &str) -> Result<TopologySpec, ModelError> {
        let bad = |msg: &str| ModelError::InfeasibleParams(format!("invalid topology json: {msg}"));
        let v = Json::parse(json).map_err(|e| bad(&e.to_string()))?;
        let name = v
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| bad("missing string field 'name'"))?
            .to_string();
        let servers = v
            .get("servers")
            .and_then(Json::as_array)
            .ok_or_else(|| bad("missing array field 'servers'"))?
            .iter()
            .map(|h| {
                h.as_u64()
                    .and_then(|h| u32::try_from(h).ok())
                    .ok_or_else(|| bad("server count not a u32"))
            })
            .collect::<Result<Vec<u32>, _>>()?;
        let mut links = Vec::new();
        for link in v
            .get("links")
            .and_then(Json::as_array)
            .ok_or_else(|| bad("missing array field 'links'"))?
        {
            let parts = link
                .as_array()
                .filter(|p| p.len() == 3)
                .ok_or_else(|| bad("link is not a [u, v, capacity] triple"))?;
            let end = |j: &Json| {
                j.as_u64()
                    .and_then(|x| u32::try_from(x).ok())
                    .ok_or_else(|| bad("link endpoint not a u32"))
            };
            let cap = parts[2]
                .as_f64()
                .ok_or_else(|| bad("link capacity not a number"))?;
            links.push((end(&parts[0])?, end(&parts[1])?, cap));
        }
        Ok(TopologySpec {
            name,
            servers,
            links,
        })
    }
}

impl Topology {
    /// Serializes to pretty JSON.
    pub fn to_json(&self) -> String {
        TopologySpec::from_topology(self).to_json()
    }

    /// Parses a topology from the JSON interchange format.
    pub fn from_json(json: &str) -> Result<Topology, ModelError> {
        TopologySpec::parse_json(json)?.into_topology()
    }

    /// Graphviz DOT rendering: switches as nodes (labeled with server
    /// counts), trunked links with weight labels.
    pub fn to_dot(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        writeln!(out, "graph \"{}\" {{", self.name()).unwrap();
        writeln!(out, "  node [shape=box];").unwrap();
        for u in 0..self.n_switches() as u32 {
            let h = self.servers_at(u);
            if h > 0 {
                writeln!(out, "  s{u} [label=\"s{u}\\nH={h}\"];").unwrap();
            } else {
                writeln!(out, "  s{u} [label=\"s{u}\", style=dashed];").unwrap();
            }
        }
        let g = self.graph();
        for (e, &(u, v)) in g.edges().iter().enumerate() {
            let c = g.capacity(e as u32);
            if (c - 1.0).abs() < 1e-12 {
                writeln!(out, "  s{u} -- s{v};").unwrap();
            } else {
                writeln!(out, "  s{u} -- s{v} [label=\"{c}\"];").unwrap();
            }
        }
        writeln!(out, "}}").unwrap();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcn_graph::Graph;

    fn sample() -> Topology {
        let g = Graph::from_weighted_edges(3, &[(0, 1, 1.0), (1, 2, 2.0), (2, 0, 1.0)]).unwrap();
        Topology::new(g, vec![2, 0, 4], "sample").unwrap()
    }

    #[test]
    fn json_round_trip() {
        let t = sample();
        let json = t.to_json();
        let back = Topology::from_json(&json).unwrap();
        assert_eq!(back.name(), "sample");
        assert_eq!(back.servers(), t.servers());
        assert_eq!(back.graph().edges(), t.graph().edges());
        assert_eq!(back.graph().capacity(1), 2.0);
    }

    #[test]
    fn spec_round_trip() {
        let t = sample();
        let spec = TopologySpec::from_topology(&t);
        assert_eq!(spec.servers, vec![2, 0, 4]);
        assert_eq!(spec.links.len(), 3);
        let back = spec.clone().into_topology().unwrap();
        assert_eq!(TopologySpec::from_topology(&back), spec);
    }

    #[test]
    fn invalid_json_rejected() {
        assert!(Topology::from_json("{not json").is_err());
        // Valid JSON, invalid topology (edge out of range).
        let bad = r#"{"name":"x","servers":[1,1],"links":[[0,9,1.0]]}"#;
        assert!(Topology::from_json(bad).is_err());
    }

    #[test]
    fn dot_contains_all_elements() {
        let dot = sample().to_dot();
        assert!(dot.contains("graph \"sample\""));
        assert!(dot.contains("s0 [label=\"s0\\nH=2\"]"));
        assert!(dot.contains("style=dashed"), "serverless switch styled");
        assert!(dot.contains("s1 -- s2 [label=\"2\"]"));
        assert!(dot.contains("s0 -- s1;"));
    }
}
