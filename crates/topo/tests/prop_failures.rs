//! Property tests for random link-failure injection: whatever the inputs,
//! it either returns a usable degraded topology or a typed `ModelError` —
//! never a panic, never a silently broken topology.

use dcn_model::ModelError;
use dcn_topo::{fail_random_links, jellyfish};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn small_jellyfish(seed: u64) -> dcn_model::Topology {
    let mut rng = StdRng::seed_from_u64(seed);
    jellyfish(20, 6, 3, &mut rng).expect("jellyfish(20, 6, 3) always builds")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any fraction in [0, 1] and any RNG seed: the call returns (Ok or a
    /// typed error) without panicking, Ok results stay connected, keep
    /// every server, and lose exactly the requested number of links.
    #[test]
    fn link_failures_never_panic_in_unit_range(f in 0.0f64..1.0, seed in any::<u64>()) {
        let topo = small_jellyfish(17);
        let mut rng = StdRng::seed_from_u64(seed);
        match fail_random_links(&topo, f, &mut rng) {
            Ok(d) => {
                prop_assert!(d.graph().is_connected());
                prop_assert_eq!(d.n_servers(), topo.n_servers());
                let expect_removed = (topo.graph().m() as f64 * f).round() as usize;
                prop_assert_eq!(d.graph().m(), topo.graph().m() - expect_removed);
            }
            Err(ModelError::InfeasibleParams(_)) => {}
            Err(e) => prop_assert!(false, "unexpected error kind: {e}"),
        }
    }

    /// Fractions outside [0, 1) are rejected with a typed error, including
    /// non-finite values — no panic, no NaN-driven cast shenanigans.
    #[test]
    fn out_of_range_fractions_rejected(pick in 0usize..6, seed in any::<u64>()) {
        let hostile = [1.0, 1.5, -0.01, f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
        let topo = small_jellyfish(18);
        let mut rng = StdRng::seed_from_u64(seed);
        prop_assert!(matches!(
            fail_random_links(&topo, hostile[pick], &mut rng),
            Err(ModelError::InfeasibleParams(_))
        ));
    }
}
