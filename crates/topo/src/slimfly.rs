//! SlimFly: diameter-2 topologies from McKay–Miller–Širáň (MMS) graphs
//! (Besta & Hoefler, SC'14).
//!
//! For a prime `q ≡ 1 (mod 4)` with primitive element `ξ` of `GF(q)`:
//!
//! * Routers are `(s, x, y)` with side `s ∈ {0, 1}` and `x, y ∈ GF(q)` —
//!   `2q²` in total.
//! * Generator sets: `X = {ξ^0, ξ^2, …}` (the quadratic residues) and
//!   `X' = {ξ^1, ξ^3, …}` (the non-residues); both are symmetric because
//!   `-1` is a residue when `q ≡ 1 (mod 4)`.
//! * Intra-group links: `(0, x, y) ~ (0, x, y')` iff `y - y' ∈ X`;
//!   `(1, m, c) ~ (1, m, c')` iff `c - c' ∈ X'`.
//! * Cross links: `(0, x, y) ~ (1, m, c)` iff `y = m·x + c`.
//!
//! The result is `(3q-1)/2`-regular with diameter 2 and sits essentially
//! on the Moore bound — SlimFly's selling point. The paper (§7) notes tub
//! applies to SlimFly as a uni-regular design, while excluding it from
//! the evaluation because it cannot reach datacenter scale on commodity
//! radixes.

use dcn_graph::Graph;
use dcn_model::{ModelError, Topology};

/// Is `n` a prime? (Trial division; the `q` here are tiny.)
fn is_prime(n: u32) -> bool {
    if n < 2 {
        return false;
    }
    let mut d = 2u32;
    while d * d <= n {
        if n.is_multiple_of(d) {
            return false;
        }
        d += 1;
    }
    true
}

/// Smallest primitive root modulo prime `q`.
fn primitive_root(q: u32) -> u32 {
    let phi = q - 1;
    // Prime factors of phi.
    let mut factors = Vec::new();
    let mut m = phi;
    let mut d = 2u32;
    while d * d <= m {
        if m.is_multiple_of(d) {
            factors.push(d);
            while m.is_multiple_of(d) {
                m /= d;
            }
        }
        d += 1;
    }
    if m > 1 {
        factors.push(m);
    }
    'outer: for g in 2..q {
        for &f in &factors {
            if pow_mod(g as u64, phi / f, q) == 1 {
                continue 'outer;
            }
        }
        return g;
    }
    unreachable!("every prime has a primitive root");
}

fn pow_mod(mut b: u64, mut e: u32, q: u32) -> u32 {
    let m = q as u64;
    b %= m;
    let mut acc = 1u64;
    while e > 0 {
        if e & 1 == 1 {
            acc = acc * b % m;
        }
        b = b * b % m;
        e >>= 1;
    }
    acc as u32
}

/// Builds a SlimFly from prime `q ≡ 1 (mod 4)`, with `h` servers per
/// router. Routers: `2q²`; network degree: `(3q - 1) / 2`.
pub fn slimfly(q: u32, h: u32) -> Result<Topology, ModelError> {
    if !is_prime(q) || q % 4 != 1 {
        return Err(ModelError::InfeasibleParams(format!(
            "slimfly needs a prime q ≡ 1 (mod 4); got {q} \
             (try 5, 13, 17, 29, ...)"
        )));
    }
    let xi = primitive_root(q) as u64;
    let qq = q as u64;
    // Even and odd powers of ξ.
    let mut x_even = Vec::new();
    let mut x_odd = Vec::new();
    let mut p = 1u64;
    for i in 0..(q - 1) {
        if i % 2 == 0 {
            x_even.push(p as u32);
        } else {
            x_odd.push(p as u32);
        }
        p = p * xi % qq;
    }
    let in_even = {
        let mut v = vec![false; q as usize];
        for &e in &x_even {
            v[e as usize] = true;
        }
        v
    };
    let in_odd = {
        let mut v = vec![false; q as usize];
        for &e in &x_odd {
            v[e as usize] = true;
        }
        v
    };
    let n = 2 * (q * q) as usize;
    let id = |s: u32, x: u32, y: u32| -> u32 { s * q * q + x * q + y };
    let mut edges = Vec::new();
    // Intra-group links.
    for s in 0..2u32 {
        let gen = if s == 0 { &in_even } else { &in_odd };
        for x in 0..q {
            for y in 0..q {
                for y2 in (y + 1)..q {
                    let diff = ((y2 + q) - y) % q;
                    if gen[diff as usize] {
                        edges.push((id(s, x, y), id(s, x, y2)));
                    }
                }
            }
        }
    }
    // Cross links: (0, x, y) ~ (1, m, c) iff y = m x + c (mod q).
    for x in 0..q {
        for m in 0..q {
            for c in 0..q {
                let y = ((m as u64 * x as u64 + c as u64) % qq) as u32;
                edges.push((id(0, x, y), id(1, m, c)));
            }
        }
    }
    let graph = Graph::from_edges(n, &edges)?;
    let topo = Topology::new(graph, vec![h; n], format!("slimfly-q{q}-h{h}"))?;
    if !topo.graph().is_connected() {
        return Err(ModelError::InfeasibleParams(
            "slimfly instance disconnected (internal error)".into(),
        ));
    }
    Ok(topo)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn q5_structure() {
        let t = slimfly(5, 2).unwrap();
        assert_eq!(t.n_switches(), 50);
        assert_eq!(t.n_servers(), 100);
        // Degree (3q-1)/2 = 7 for every router.
        for u in 0..50u32 {
            assert_eq!(t.graph().degree(u), 7, "router {u}");
        }
        // The MMS(5) graph — the Hoffman–Singleton graph — meets the Moore
        // bound for degree 7: diameter 2 on 50 = 1 + 7 + 42 nodes.
        assert_eq!(t.graph().diameter(), Ok(2));
    }

    #[test]
    fn q13_structure() {
        let t = slimfly(13, 4).unwrap();
        assert_eq!(t.n_switches(), 338);
        let deg = (3 * 13 - 1) / 2;
        for u in 0..338u32 {
            assert_eq!(t.graph().degree(u), deg as usize);
        }
        assert_eq!(t.graph().diameter(), Ok(2));
    }

    #[test]
    fn invalid_q_rejected() {
        assert!(slimfly(4, 2).is_err()); // not prime
        assert!(slimfly(7, 2).is_err()); // 7 % 4 == 3
        assert!(slimfly(9, 2).is_err()); // prime power, not prime
        assert!(slimfly(2, 2).is_err());
    }

    #[test]
    fn primitive_roots_correct() {
        assert_eq!(primitive_root(5), 2);
        assert_eq!(primitive_root(13), 2);
        assert_eq!(primitive_root(17), 3);
        // Full order check for q = 13.
        let mut seen = std::collections::HashSet::new();
        let mut p = 1u64;
        for _ in 0..12 {
            seen.insert(p);
            p = p * 2 % 13;
        }
        assert_eq!(seen.len(), 12);
    }

    #[test]
    fn generator_sets_are_symmetric() {
        // -1 must be a quadratic residue for q ≡ 1 mod 4 (q = 13: -1 = 12
        // = 2^6 — an even power).
        let t = slimfly(13, 1).unwrap();
        // Symmetry is implied by the graph being well-formed (each
        // intra-link emitted once, from the smaller endpoint). Degree
        // splits as (q-1)/2 intra + q cross = 6 + 13 = 19 = (3q-1)/2;
        // the total edge count must match the handshake sum.
        let m = t.graph().m();
        assert_eq!(m, 338 * 19 / 2);
    }
}
