//! The four workloads, and the per-layer probes they share.

pub mod batch_mix;
pub mod certify;
pub mod long_trace;
pub mod serve_open;

use crate::rec::{Spans, Tally};
use crate::{Layers, Outcome, RunOpts};
use asched_core::LookaheadConfig;
use asched_engine::fingerprint_task;
use asched_graph::{descendants, topo_order, DepGraph, MachineModel, SchedCtx};
use asched_rank::rank_schedule_default;
use std::sync::atomic::Ordering::Relaxed;

/// Workload names, as given to `--workload`.
pub const NAMES: &[&str] = &["long_trace", "batch_mix", "serve_open", "certify"];

/// Run the named workload.
pub fn run(name: &str, opts: &RunOpts) -> Option<Outcome> {
    Some(match name {
        "long_trace" => long_trace::run(opts),
        "batch_mix" => batch_mix::run(opts),
        "serve_open" => serve_open::run(opts),
        "certify" => certify::run(opts),
        _ => return None,
    })
}

/// Seed of the `k`-th generated input of a run seeded with `seed`.
pub fn input_seed(seed: u64, k: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(k)
}

/// Copy the scheduler's event counts into the per-layer metrics.
pub fn tally_layers(tally: &Tally, layers: &mut Layers) {
    let get = |a: &std::sync::atomic::AtomicU64| a.load(Relaxed) as f64;
    layers.set("rank.runs", get(&tally.rank_runs));
    layers.set("rank.ranked_nodes", get(&tally.ranked_nodes));
    layers.set("rank.idle_moves_applied", get(&tally.idle_moves_applied));
    let blocks = get(&tally.blocks);
    if blocks > 0.0 {
        layers.set("core.carried_mean", get(&tally.carried_sum) / blocks);
    }
    layers.set("core.carried_max", get(&tally.carried_max));
    layers.set("core.merge_probes", get(&tally.merge_probes));
    layers.set("core.chop_emitted", get(&tally.chop_emitted));
}

/// Copy the harness spans' totals into the per-layer metrics.
pub fn span_layers(spans: &Spans, layers: &mut Layers) {
    let totals = spans.totals();
    let secs = |name: &str| totals.get(name).map_or(0.0, |t| t.total_ns as f64 / 1e9);
    let mean_us = |name: &str| {
        totals
            .get(name)
            .map_or(0.0, |t| t.total_ns as f64 / 1e3 / t.count as f64)
    };
    layers.set("workloads.gen_s", mean_us("workloads.gen") / 1e6);
    layers.set("core.schedule_trace_s", secs("core.schedule_trace"));
    layers.set("sim.simulate_s", secs("sim.simulate"));
    layers.set("exact.certify_s", secs("exact.certified_gap"));
    layers.set("graph.block_analysis_us", mean_us("graph.block_analysis"));
    layers.set("rank.block_schedule_us", mean_us("rank.block_schedule"));
    layers.set("engine.fingerprint_us", mean_us("engine.fingerprint_task"));
}

/// Human-readable span table: count, inclusive and self time per name.
pub fn span_notes(spans: &Spans) -> Vec<String> {
    spans
        .totals()
        .iter()
        .map(|(name, t)| {
            format!(
                "span {name}: n={} total={:.6}s self={:.6}s",
                t.count,
                t.total_ns as f64 / 1e9,
                t.self_ns as f64 / 1e9
            )
        })
        .collect()
}

/// Time the graph layer's per-block analyses (`topo_order` plus
/// `descendants` on one block's mask), the rank layer's per-block
/// `rank_schedule` and the engine's `fingerprint_task` on the
/// workload's own inputs, each inside its own span.
pub fn probe_layers(spans: &Spans, inputs: &[(&DepGraph, &MachineModel)]) {
    let mut ctx = SchedCtx::new();
    let cfg = LookaheadConfig::default();
    for &(g, machine) in inputs {
        spans.span("engine.fingerprint_task", || {
            std::hint::black_box(fingerprint_task(g, machine, &cfg));
        });
        for blk in g.blocks() {
            let mask = g.block_nodes(blk);
            spans.span("graph.block_analysis", || {
                let order = topo_order(g, &mask).expect("generated traces are acyclic");
                let desc = descendants(g, &mask).expect("generated traces are acyclic");
                std::hint::black_box((order, desc));
            });
            spans.span("rank.block_schedule", || {
                let s = rank_schedule_default(&mut ctx, g, &mask, machine)
                    .expect("unbounded deadlines are always met");
                std::hint::black_box(s);
            });
        }
    }
}
