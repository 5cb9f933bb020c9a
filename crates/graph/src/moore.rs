//! The Moore bound and the distance-tail bounds built on it.
//!
//! Theorem 4.1 of the paper bounds the throughput of *any* uni-regular
//! topology using the minimum diameter `d` that a graph of given degree
//! needs in order to hold `N/H` switches (the degree/diameter Moore bound),
//! plus Lemma 8.1's lower bound `W_m` on the number of switches at distance
//! at least `m` from any given switch.

/// Maximum number of nodes a graph with (network) degree `r` and diameter
/// `k` can contain: `1 + r * sum_{i=0}^{k-1} (r-1)^i`.
///
/// Returned as `f64` because the value overflows integers quickly; the
/// consumers only compare it against node counts.
pub fn moore_nodes(r: u32, k: u32) -> f64 {
    if k == 0 {
        return 1.0;
    }
    match r {
        0 => 1.0,
        1 => 2.0,
        2 => 1.0 + 2.0 * k as f64,
        _ => {
            let r = r as f64;
            // 1 + r * ((r-1)^k - 1) / (r - 2)
            1.0 + r * ((r - 1.0).powi(k as i32) - 1.0) / (r - 2.0)
        }
    }
}

/// Minimum diameter needed for `n` nodes of degree `r` (Moore bound):
/// the smallest `k` with `moore_nodes(r, k) >= n`. Returns `None` when no
/// diameter suffices (e.g. `r <= 1` and `n` too large).
// dcn-lint: allow(budget-coverage) — the scan grows moore_nodes geometrically, terminating in O(log n) steps
pub fn min_diameter(r: u32, n: u64) -> Option<u32> {
    if n <= 1 {
        return Some(0);
    }
    if r == 0 {
        return None;
    }
    if r == 1 {
        return if n <= 2 { Some(1) } else { None };
    }
    let mut k = 1u32;
    // Diameter grows logarithmically (r >= 3) or linearly (r == 2); the
    // loop terminates well before k reaches n.
    while moore_nodes(r, k) < n as f64 {
        k += 1;
        if k as u64 > n {
            return None;
        }
    }
    Some(k)
}

/// Lemma 8.1: a lower bound on the number of switches at distance at least
/// `m` (`1 <= m <= d`) from any switch, in a topology with `n_switches`
/// switches of network degree `r`.
pub fn w_m(n_switches: f64, r: u32, m: u32) -> f64 {
    debug_assert!(m >= 1);
    let reachable_within = match r {
        0 => 0.0,
        1 => {
            if m >= 2 {
                1.0
            } else {
                0.0
            }
        }
        2 => 2.0 * (m as f64 - 1.0),
        _ => {
            let rf = r as f64;
            rf * ((rf - 1.0).powi(m as i32 - 1) - 1.0) / (rf - 2.0)
        }
    };
    n_switches - 1.0 - reachable_within
}

/// The denominator quantity `D = sum_{m=1}^{d} W_m` from Theorem 4.1,
/// where `d = min_diameter(r, n_switches)`. Returns `None` when the Moore
/// bound gives no finite diameter.
pub fn d_total(n_switches: f64, r: u32) -> Option<f64> {
    let d = min_diameter(r, n_switches.ceil() as u64)?;
    let mut total = 0.0;
    for m in 1..=d {
        total += w_m(n_switches, r, m);
    }
    Some(total)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn moore_small_cases() {
        // Degree 3, diameter 2: at most 1 + 3 + 6 = 10 (Petersen graph meets it).
        assert_eq!(moore_nodes(3, 2), 10.0);
        assert_eq!(moore_nodes(3, 1), 4.0);
        assert_eq!(moore_nodes(2, 3), 7.0); // cycle of 7
        assert_eq!(moore_nodes(5, 0), 1.0);
    }

    #[test]
    fn min_diameter_inverts_moore() {
        assert_eq!(min_diameter(3, 10), Some(2));
        assert_eq!(min_diameter(3, 11), Some(3));
        assert_eq!(min_diameter(3, 4), Some(1));
        assert_eq!(min_diameter(3, 1), Some(0));
        assert_eq!(min_diameter(2, 7), Some(3));
        assert_eq!(min_diameter(1, 2), Some(1));
        assert_eq!(min_diameter(1, 3), None);
        assert_eq!(min_diameter(0, 5), None);
    }

    #[test]
    fn w_m_first_level_counts_everyone_else() {
        // Every other switch is at distance >= 1.
        assert_eq!(w_m(100.0, 8, 1), 99.0);
        // At distance >= 2: everyone except the r direct neighbors.
        assert_eq!(w_m(100.0, 8, 2), 100.0 - 1.0 - 8.0);
    }

    #[test]
    fn w_positive_up_to_moore_diameter() {
        let n = 1000.0;
        let r = 8;
        let d = min_diameter(r, 1000).unwrap();
        for m in 1..=d {
            assert!(w_m(n, r, m) > 0.0, "W_{m} should be positive below d");
        }
    }

    #[test]
    fn d_total_grows_with_n() {
        let a = d_total(100.0, 8).unwrap();
        let b = d_total(1000.0, 8).unwrap();
        assert!(b > a);
    }
}
