//! The traced replay of an op, made of the op's layer calls, must return
//! the op's output bit for bit.

use dcn_benchmark::trace::Recorder;
use dcn_benchmark::workloads::{FailureSweep, Frontier, McfWorst, TubExact, Workload};

/// Runs and replays every `stride`-th op of a pass on seed 1.
fn replay_matches<W: Workload>(stride: usize) {
    let mut w = W::setup(1).expect("setup");
    w.begin_pass();
    w.begin_replay();
    let mut rec = Recorder::new();
    let mut replayed = 0;
    for i in (0..w.ops()).step_by(stride) {
        let op = w.run(i).expect("op runs");
        let (replay, layers) = rec.op(i, |rec| w.replay(i, rec));
        assert_eq!(replay.expect("replay runs"), op, "op {i}");
        assert!(layers.ms.iter().sum::<f64>() > 0.0, "op {i} timed no layer");
        replayed += 1;
    }
    assert!(replayed >= 8, "only {replayed} ops replayed");
}

#[test]
fn tub_exact_replay_is_bit_identical() {
    replay_matches::<TubExact>(5);
}

#[test]
fn mcf_worst_replay_is_bit_identical() {
    // The stride is coprime with the pool's layout, so both engines and
    // every family are covered.
    replay_matches::<McfWorst>(13);
}

#[test]
fn failure_sweep_replay_is_bit_identical() {
    replay_matches::<FailureSweep>(7);
}

#[test]
fn frontier_replay_is_bit_identical() {
    replay_matches::<Frontier>(3);
}
