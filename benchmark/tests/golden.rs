//! A doctored golden value must count the op as failed; honest outputs
//! must pass.

use dcn_benchmark::golden::{self, compare, render, Field, Golden};
use dcn_benchmark::runner::check_op;
use dcn_benchmark::workloads::{McfWorst, OpCounters, TubExact, Workload};

/// Replaces the value of `key` in a golden line.
fn doctor(line: &str, key: &str, value: &str) -> String {
    line.split(' ')
        .map(|t| match t.split_once('=') {
            Some((k, _)) if k == key => format!("{k}={value}"),
            _ => t.to_string(),
        })
        .collect::<Vec<_>>()
        .join(" ")
}

fn committed<W: Workload>(name: &str, seed: u64) -> (W, Golden) {
    let golden = golden::load(name, seed)
        .expect("golden file readable")
        .expect("seeds 1 and 2 have golden files");
    (W::setup(seed).expect("setup"), golden)
}

#[test]
fn committed_golden_passes_and_a_doctored_bound_fails() {
    let (w, golden) = committed::<TubExact>("tub_exact", 1);
    assert_eq!(golden.len(), w.ops());
    let counters = OpCounters::default();
    for i in [0, 1, 2] {
        let out = w.run(i).expect("op runs");
        let line = golden.line(i).expect("golden line");
        assert_eq!(check_op(&w, i, &out, &counters, Some(line)), Ok(()));

        // TUB bounds compare exactly: one ulp off is a failure.
        let bound: f64 = line
            .split(' ')
            .find_map(|t| t.strip_prefix("bound="))
            .and_then(|v| v.parse().ok())
            .expect("bound field");
        let off = f64::from_bits(bound.to_bits() + 1);
        let doctored = doctor(line, "bound", &format!("{off:?}"));
        assert!(check_op(&w, i, &out, &counters, Some(&doctored)).is_err());
    }
}

#[test]
fn theta_compares_within_a_relative_1e9() {
    let (w, golden) = committed::<McfWorst>("mcf_worst", 2);
    let counters = OpCounters::default();
    let out = w.run(0).expect("op runs");
    let line = golden.line(0).expect("golden line");
    assert_eq!(check_op(&w, 0, &out, &counters, Some(line)), Ok(()));
    let theta: f64 = line
        .split(' ')
        .find_map(|t| t.strip_prefix("theta_lb="))
        .and_then(|v| v.parse().ok())
        .expect("theta_lb field");
    let close = doctor(line, "theta_lb", &format!("{:?}", theta * (1.0 + 1e-12)));
    assert_eq!(check_op(&w, 0, &out, &counters, Some(&close)), Ok(()));
    let far = doctor(line, "theta_lb", &format!("{:?}", theta * (1.0 + 1e-6)));
    assert!(check_op(&w, 0, &out, &counters, Some(&far)).is_err());
}

#[test]
fn a_fired_fallback_fails_the_op() {
    let (w, golden) = committed::<TubExact>("tub_exact", 1);
    let out = w.run(0).expect("op runs");
    let fired = OpCounters {
        tub_fallbacks: 1,
        ..OpCounters::default()
    };
    assert!(check_op(&w, 0, &out, &fired, golden.line(0)).is_err());
}

#[test]
fn golden_lines_round_trip() {
    let fields = vec![
        ("case", Field::Exact("jellyfish-r14h4-n160".into())),
        ("bound", Field::bits(0.1 + 0.2)),
        ("theta", Field::Approx(1.0 / 3.0)),
    ];
    let line = render(7, &fields);
    assert_eq!(compare(&fields, &line), Ok(()));
    let parsed = Golden::parse(&format!("# comment\n{line}\n")).expect("parses");
    assert_eq!(parsed.line(7), Some(line.as_str()));
    assert!(Golden::parse(&format!("{line}\n{line}\n")).is_err());
    assert!(compare(&fields[..2].to_vec(), &line).is_err());
}
