//! Two traced runs with the same seed give identical deterministic
//! counts, so later changes can cite them exactly.

use asched_schedbench::{workloads, Outcome, RunOpts};
use std::time::Instant;

/// The counts that must repeat exactly on every workload that has them.
const DETERMINISTIC: &[&str] = &[
    "rank.ranked_nodes",
    "core.carried_max",
    "core.merge_probes",
    "core.window_violations",
    "engine.cache_hits",
    "exact.expanded",
    "exact.closed_share",
];

fn traced(workload: &str, seed: u64) -> Outcome {
    let opts = RunOpts {
        seed,
        seconds: 0.0,
        trace: true,
        process_start: Instant::now(),
    };
    let out = workloads::run(workload, &opts).expect("known workload");
    assert_eq!(
        out.failures.failed, 0,
        "{workload}: {:?}",
        out.failures.reasons
    );
    out
}

fn counts(out: &Outcome) -> Vec<(&'static str, f64)> {
    let mut v: Vec<(&'static str, f64)> = DETERMINISTIC
        .iter()
        .map(|&n| (n, out.layers.get(n)))
        .collect();
    v.push(("sim_cycles", out.sim_cycles as f64));
    v
}

fn assert_repeats(workload: &str) {
    let a = counts(&traced(workload, 7));
    let b = counts(&traced(workload, 7));
    assert_eq!(a, b, "{workload}: counts differ between identical runs");
    assert!(
        a.iter().any(|&(n, v)| n == "rank.ranked_nodes" && v > 0.0),
        "{workload}: {a:?}"
    );
}

#[test]
fn long_trace_counts_repeat() {
    assert_repeats("long_trace");
}

#[test]
fn batch_mix_counts_repeat() {
    assert_repeats("batch_mix");
}

#[test]
fn certify_counts_repeat() {
    assert_repeats("certify");
}
