//! End-to-end and per-layer benchmark of the anticipatory scheduling
//! stack. See `README.md` in this directory for the workloads, the
//! metrics and why they were chosen.

pub mod checks;
pub mod load;
pub mod rec;
pub mod stats;
pub mod workloads;

use std::collections::BTreeMap;
use std::time::Instant;

/// How many times each workload sets up per run; `setup_s` is the
/// median of these set-up times.
pub const SETUPS: usize = 9;

/// Every end-to-end metric, with its unit, in output order.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("nodes_per_s", "1/s"),
    ("verdicts_per_s", "1/s"),
    ("sim_cycles", "cycles"),
    ("req_p50_us", "us"),
    ("req_p90_us", "us"),
    ("ok_share", "ratio"),
];

/// Every per-layer metric, with its unit, in output order. A layer a
/// workload does not run reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("workloads.gen_s", "s"),
    ("graph.analysis_hits", "count"),
    ("graph.analysis_misses", "count"),
    ("graph.block_analysis_us", "us"),
    ("rank.runs", "count"),
    ("rank.ranked_nodes", "count"),
    ("rank.block_schedule_us", "us"),
    ("rank.idle_moves_applied", "count"),
    ("core.schedule_trace_s", "s"),
    ("core.carried_mean", "nodes"),
    ("core.carried_max", "nodes"),
    ("core.merge_probes", "count"),
    ("core.chop_emitted", "count"),
    ("core.window_violations", "count"),
    ("core.loglog_slope", "ratio"),
    ("sim.simulate_s", "s"),
    ("sim.stall_cycles", "cycles"),
    ("engine.hit_rate", "ratio"),
    ("engine.cache_hits", "count"),
    ("engine.cache_misses", "count"),
    ("engine.cache_evictions", "count"),
    ("engine.degraded", "count"),
    ("engine.failed", "count"),
    ("engine.fingerprint_us", "us"),
    ("serve.server_p50_us", "us"),
    ("serve.server_p99_us", "us"),
    ("serve.queue_wait_p50_us", "us"),
    ("serve.shed", "count"),
    ("serve.shared_hit_rate", "ratio"),
    ("serve.req_p99_us", "us"),
    ("load.samples", "count"),
    ("load.late_max_ms", "ms"),
    ("exact.expanded", "count"),
    ("exact.certify_s", "s"),
    ("exact.width_sum", "cycles"),
    ("exact.closed_share", "ratio"),
    ("trace.overhead", "ratio"),
];

/// One run's settings, from the command line.
#[derive(Clone, Copy, Debug)]
pub struct RunOpts {
    /// Workload seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Also make the traced pass that yields the per-layer metrics.
    pub trace: bool,
    /// When the process started; the first set-up is timed from here.
    pub process_start: Instant,
}

/// Operations attempted and failed, with the first few failure reasons.
#[derive(Default, Debug)]
pub struct Failures {
    pub attempted: u64,
    pub failed: u64,
    pub reasons: Vec<String>,
}

impl Failures {
    pub fn ok(&mut self) {
        self.attempted += 1;
    }

    pub fn fail(&mut self, reason: String) {
        self.attempted += 1;
        self.failed += 1;
        if self.reasons.len() < 8 {
            self.reasons.push(reason);
        }
    }

    pub fn absorb(&mut self, other: Failures) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for r in other.reasons {
            if self.reasons.len() < 8 {
                self.reasons.push(r);
            }
        }
    }
}

/// Per-layer metric values, keyed by the names in [`PER_LAYER`].
#[derive(Debug)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Default for Layers {
    fn default() -> Self {
        Layers(PER_LAYER.iter().map(|&(n, _)| (n, 0.0)).collect())
    }
}

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        let slot = self
            .0
            .get_mut(name)
            .unwrap_or_else(|| panic!("{name} is not a per-layer metric"));
        *slot = value;
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0[name]
    }
}

/// What one workload run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    pub setup_s: f64,
    pub nodes_per_s: f64,
    pub verdicts_per_s: f64,
    pub sim_cycles: u64,
    pub req_p50_us: f64,
    pub req_p90_us: f64,
    /// The per-operation latency samples the percentiles come from, in
    /// microseconds.
    pub latency_us: Vec<f64>,
    pub failures: Failures,
    pub layers: Layers,
    /// Extra human-readable lines (what an operation is, sample counts).
    pub notes: Vec<String>,
}

/// Run `make` [`SETUPS`] times, timing each; the first is timed from
/// process start. Returns the last state and the median set-up time.
/// Earlier states are dropped (servers shut down) before the next
/// set-up starts, outside the timed interval.
pub fn repeated_setup<S>(process_start: Instant, mut make: impl FnMut() -> S) -> (S, f64) {
    let mut times = Vec::with_capacity(SETUPS);
    let mut state = None;
    for i in 0..SETUPS {
        drop(state.take());
        let start = if i == 0 {
            process_start
        } else {
            Instant::now()
        };
        let s = make();
        times.push(start.elapsed().as_secs_f64());
        state = Some(s);
    }
    (state.expect("SETUPS is nonzero"), stats::median(&times))
}

/// Repeat a fixed set of operations in whole rounds until `seconds`
/// have passed (at least one round), and return each operation's best
/// time over the rounds, with the number of rounds.
///
/// On a shared host the same work can run about 40% slower for seconds
/// at a time. A round visits every operation once, so each operation's
/// samples spread over the run, and its fastest sample is its cost
/// outside the slow phases. `round` pushes one time per operation, in
/// a fixed order.
pub fn best_of_rounds(seconds: f64, mut round: impl FnMut(&mut Vec<f64>)) -> (Vec<f64>, usize) {
    let clock = Instant::now();
    let mut best: Vec<f64> = Vec::new();
    let mut rounds = 0;
    let mut times = Vec::new();
    while rounds == 0 || clock.elapsed().as_secs_f64() < seconds {
        times.clear();
        round(&mut times);
        if rounds == 0 {
            best = times.clone();
        }
        assert_eq!(
            times.len(),
            best.len(),
            "every round runs the same operations"
        );
        for (b, &t) in best.iter_mut().zip(&times) {
            *b = b.min(t);
        }
        rounds += 1;
    }
    (best, rounds)
}

/// Peak resident set size of this process, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
