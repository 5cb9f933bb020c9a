//! `dcn` — command-line front end for the library.
//!
//! ```text
//! dcn gen  <family> --switches N --radix R --h H [--seed S] [--out FILE] [--dot]
//! dcn eval <topology.json> [--k K] [--eps E]        # tub, BBW, MCF, ECMP, λ2
//! dcn frontier <family> --radix R --h H [--criterion tub|bbw] [--max-switches N]
//! dcn limits --radix R --h H                         # Theorem 4.1 / Eq. 3
//! ```
//!
//! Families: `jellyfish`, `xpander`, `fatclique`, `fattree`, `clos`.
//! Topologies are exchanged as the JSON format of `dcn::model::TopologySpec`.

use dcn::cache::{CacheHandle, SolveCtx};
use dcn::core::frontier::{frontier_max_servers, Criterion, Family};
use dcn::core::universal::{max_full_throughput_servers, universal_tub, UniRegularParams};
use dcn::core::{tub, MatchingBackend};
use dcn::graph::adjacency_lambda2;
use dcn::mcf::{ecmp_throughput, ksp_mcf_throughput, Engine};
use dcn::model::Topology;
use dcn::partition::bisection_bandwidth;
use dcn::topo::{fat_tree, folded_clos, ClosParams};
use std::process::ExitCode;

struct Args {
    positional: Vec<String>,
    flags: std::collections::HashMap<String, String>,
    switches: std::collections::HashSet<String>,
}

fn parse_args(raw: &[String]) -> Args {
    let mut positional = Vec::new();
    let mut flags = std::collections::HashMap::new();
    let mut switches = std::collections::HashSet::new();
    let mut i = 0;
    while i < raw.len() {
        let a = &raw[i];
        if let Some(name) = a.strip_prefix("--") {
            if i + 1 < raw.len() && !raw[i + 1].starts_with("--") {
                flags.insert(name.to_string(), raw[i + 1].clone());
                i += 2;
            } else {
                switches.insert(name.to_string());
                i += 1;
            }
        } else {
            positional.push(a.clone());
            i += 1;
        }
    }
    Args {
        positional,
        flags,
        switches,
    }
}

impl Args {
    fn get<T: std::str::FromStr>(&self, name: &str, default: T) -> T {
        self.flags
            .get(name)
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  dcn gen <jellyfish|xpander|fatclique|fattree|clos> [--switches N] [--radix R] [--h H] [--layers L] [--pods P] [--seed S] [--out FILE] [--dot]\n  dcn eval <topology.json> [--k K] [--eps E] [--no-mcf]\n  dcn frontier <jellyfish|xpander|fatclique> [--radix R] [--h H] [--criterion tub|bbw] [--max-switches N] [--seed S]\n  dcn limits [--radix R] [--h H]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.is_empty() {
        return usage();
    }
    let cmd = raw[0].clone();
    let args = parse_args(&raw[1..]);
    let result = match cmd.as_str() {
        "gen" => cmd_gen(&args),
        "eval" => cmd_eval(&args),
        "frontier" => cmd_frontier(&args),
        "limits" => cmd_limits(&args),
        _ => return usage(),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_gen(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    let kind = args
        .positional
        .first()
        .ok_or("gen needs a family name")?
        .as_str();
    let radix: u32 = args.get("radix", 12);
    let h: u32 = args.get("h", 4);
    let switches: usize = args.get("switches", 64);
    let seed: u64 = args.get("seed", 1);
    let topo: Topology = match kind {
        "fattree" => fat_tree(radix as usize)?,
        "clos" => folded_clos(ClosParams {
            radix: radix as usize,
            layers: args.get("layers", 3),
            top_pods: args.get("pods", radix as usize),
            spine_uplink_fraction: args.get("spine-fraction", 1.0),
            leaf_servers: args.get("leaf-servers", 0),
        })?,
        other => Family::from_name(other)
            .ok_or_else(|| format!("unknown family '{other}'"))?
            .build(switches, radix, h, seed)?,
    };
    eprintln!(
        "generated {}: {} switches, {} servers, {} links",
        topo.name(),
        topo.n_switches(),
        topo.n_servers(),
        topo.graph().m()
    );
    let body = if args.switches.contains("dot") {
        topo.to_dot()
    } else {
        topo.to_json()
    };
    match args.flags.get("out") {
        Some(path) => std::fs::write(path, body)?,
        None => println!("{body}"),
    }
    Ok(())
}

fn cmd_eval(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    let path = args.positional.first().ok_or("eval needs a topology.json")?;
    let json = std::fs::read_to_string(path)?;
    let topo = Topology::from_json(&json)?;
    println!(
        "topology {}: {} switches, {} servers, {} links, class {:?}",
        topo.name(),
        topo.n_switches(),
        topo.n_servers(),
        topo.graph().m(),
        topo.class()
    );
    let cache = CacheHandle::from_env();
    let sctx = SolveCtx::unlimited(&cache);
    let bound = tub(&topo, MatchingBackend::default(), &sctx)?;
    println!("tub                 = {:.4}  ({})", bound.bound, bound.backend);
    let bbw = bisection_bandwidth(&topo, 4, 7, &sctx)?;
    println!(
        "bisection bandwidth = {bbw:.1}  ({:.3} of N/2)",
        bbw / (topo.n_servers() as f64 / 2.0)
    );
    if let Some(l2) = adjacency_lambda2(topo.graph(), 300) {
        let r = topo.graph().degree(0) as f64;
        println!(
            "spectral λ2         = {l2:.3}  (Ramanujan bound {:.3})",
            2.0 * (r - 1.0).sqrt()
        );
    }
    if !args.switches.contains("no-mcf") {
        let k: usize = args.get("k", 16);
        let eps: f64 = args.get("eps", 0.05);
        let tm = bound.traffic_matrix(&topo)?;
        let mcf = ksp_mcf_throughput(&topo, &tm, k, Engine::Fptas { eps }, &sctx)?;
        println!(
            "ksp-mcf θ(worst)    = [{:.4}, {:.4}]  (K = {k}, eps = {eps})",
            mcf.theta_lb, mcf.theta_ub
        );
        let ecmp = ecmp_throughput(&topo, &tm)?;
        println!("ecmp θ(worst)       = {ecmp:.4}");
    }
    Ok(())
}

fn cmd_frontier(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    let kind = args
        .positional
        .first()
        .ok_or("frontier needs a family name")?;
    let family = Family::from_name(kind).ok_or_else(|| format!("unknown family '{kind}'"))?;
    let radix: u32 = args.get("radix", 14);
    let h: u32 = args.get("h", 4);
    let max_switches: usize = args.get("max-switches", 1024);
    let seed: u64 = args.get("seed", 5);
    let criterion = match args
        .flags
        .get("criterion")
        .map(String::as_str)
        .unwrap_or("tub")
    {
        "bbw" => Criterion::FullBisection { tries: 3 },
        _ => Criterion::FullThroughput {
            backend: MatchingBackend::Auto { exact_below: 600 },
        },
    };
    let cache = CacheHandle::from_env();
    let sctx = SolveCtx::unlimited(&cache);
    match frontier_max_servers(
        family,
        radix,
        h,
        criterion,
        max_switches,
        seed,
        &sctx,
    )? {
        Some(n) => println!(
            "{} radix={radix} H={h}: largest size satisfying the criterion ≈ {n} servers"
        , family.name()),
        None => println!(
            "{} radix={radix} H={h}: even the smallest instance fails the criterion",
            family.name()
        ),
    }
    Ok(())
}

fn cmd_limits(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    let radix: u32 = args.get("radix", 32);
    let h: u32 = args.get("h", 8);
    println!("Theorem 4.1 limits for radix {radix}, H = {h}:");
    for n in [10_000u64, 50_000, 100_000, 500_000, 1_000_000] {
        if let Some(b) = universal_tub(UniRegularParams {
            n_servers: n,
            radix,
            h,
        }) {
            println!("  N = {n:>9}: θ* <= {b:.3}");
        }
    }
    match max_full_throughput_servers(radix, h, 1 << 24) {
        Some(n) => println!(
            "Equation 3: no uni-regular topology beyond {n} servers can have full throughput."
        ),
        None => println!("Equation 3: no full-throughput size exists for these parameters."),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args_of(raw: &[&str]) -> Args {
        let v: Vec<String> = raw.iter().map(|s| s.to_string()).collect();
        parse_args(&v)
    }

    #[test]
    fn positional_and_flags() {
        let a = args_of(&["jellyfish", "--radix", "16", "--dot"]);
        assert_eq!(a.positional, vec!["jellyfish"]);
        assert_eq!(a.get("radix", 0u32), 16);
        assert!(a.switches.contains("dot"));
    }

    #[test]
    fn defaults_apply() {
        let a = args_of(&["eval"]);
        assert_eq!(a.get("k", 16usize), 16);
        assert_eq!(a.get("eps", 0.05f64), 0.05);
    }

    #[test]
    fn flag_value_parsing_falls_back_on_garbage() {
        let a = args_of(&["--radix", "not-a-number"]);
        assert_eq!(a.get("radix", 12u32), 12);
    }

    #[test]
    fn trailing_flag_is_a_switch() {
        let a = args_of(&["gen", "--quick"]);
        assert!(a.switches.contains("quick"));
        assert!(a.flags.is_empty());
    }

    #[test]
    fn family_lookup() {
        assert!(Family::from_name("jellyfish").is_some());
        assert!(Family::from_name("xpander").is_some());
        assert!(Family::from_name("fatclique").is_some());
        assert!(Family::from_name("fattree").is_none()); // handled separately in gen
        assert!(Family::from_name("nonsense").is_none());
    }
}
