//! Order statistics for op latencies.

/// A tail percentile is reported only when at least this many samples lie
/// beyond it; with fewer, the value is set by a handful of ops and does not
/// repeat between runs.
pub const MIN_TAIL: usize = 10;

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (the mean of the two middle values for an even count).
/// Returns `None` for an empty sample.
pub fn median(xs: &[f64]) -> Option<f64> {
    let v = sorted(xs);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some(0.5 * (v[n / 2 - 1] + v[n / 2])),
    }
}

/// The nearest-rank `q` quantile (`0 < q < 1`): the value at rank
/// `ceil(q * n)`. Refuses when fewer than [`MIN_TAIL`] samples lie above that
/// rank, so a p90 needs at least 100 samples.
pub fn tail_quantile(xs: &[f64], q: f64) -> Result<f64, String> {
    if !(q > 0.0 && q < 1.0) {
        return Err(format!("quantile {q} outside (0, 1)"));
    }
    let v = sorted(xs);
    let n = v.len();
    let rank = ((q * n as f64).ceil() as usize).max(1);
    if rank > n || n - rank < MIN_TAIL {
        return Err(format!(
            "p{} needs at least {MIN_TAIL} samples beyond it; have {n} samples",
            q * 100.0
        ));
    }
    Ok(v[rank - 1])
}
