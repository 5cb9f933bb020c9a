use dcn_benchmark::stats::{median, tail_quantile, MIN_TAIL};

#[test]
fn median_of_odd_and_even_samples() {
    assert_eq!(median(&[]), None);
    assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
}

#[test]
fn p90_is_the_nearest_rank_value() {
    let xs: Vec<f64> = (1..=100).rev().map(f64::from).collect();
    assert_eq!(tail_quantile(&xs, 0.9), Ok(90.0));
    let xs: Vec<f64> = (1..=250).map(f64::from).collect();
    assert_eq!(tail_quantile(&xs, 0.9), Ok(225.0));
    assert_eq!(tail_quantile(&xs, 0.5), Ok(125.0));
}

#[test]
fn p90_is_refused_below_one_hundred_samples() {
    // p90 of n samples leaves n - ceil(0.9 n) beyond it: 10 at n = 100,
    // 9 at n = 99.
    assert_eq!(MIN_TAIL, 10);
    let xs: Vec<f64> = (1..=99).map(f64::from).collect();
    assert!(tail_quantile(&xs, 0.9).is_err());
    assert!(tail_quantile(&[], 0.9).is_err());
    // A lower percentile has ten samples beyond it much sooner.
    assert!(tail_quantile(&xs[..20], 0.5).is_ok());
    assert!(tail_quantile(&xs[..19], 0.5).is_err());
}

#[test]
fn quantile_outside_the_open_unit_interval_is_refused() {
    let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
    assert!(tail_quantile(&xs, 0.0).is_err());
    assert!(tail_quantile(&xs, 1.0).is_err());
}
