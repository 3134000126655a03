//! `long_trace`: Algorithm `Lookahead` on long traces, single thread.
//!
//! ROADMAP item 1's measured shape: 8-node blocks, edge_prob 0.25,
//! cross_prob 0.1, latencies up to 2, one unit with a 4-entry window.
//! Here the carried suffix in `core` merge/chop and the repeated `rank`
//! runs do most of the work; the engine, its cache and the server are
//! bypassed.

use super::{input_seed, probe_layers, span_layers, span_notes, tally_layers};
use crate::checks::{check_trace, Resim};
use crate::rec::{Spans, Tally};
use crate::stats::{loglog_slope, median, percentile};
use crate::{best_of_rounds, repeated_setup, Failures, Outcome, RunOpts};
use asched_core::{schedule_trace, LookaheadConfig};
use asched_graph::{DepGraph, MachineModel, SchedCtx, SchedOpts};
use asched_workloads::{random_trace_dag, DagParams};
use std::time::Instant;

/// Nodes per trace of the timed set. From 1024 nodes on, a few seeds
/// carry suffixes of hundreds of nodes and take several times the
/// mean, so the total of a set changed by up to 1.6x from seed to seed
/// (32 traces: 4.9 to 8.0 s). Short traces also give each trace more
/// rounds, and so more chances to be timed outside a slow phase of the
/// host. The carried suffix still dominates here: it averages about a
/// third of the trace, and Rank runs over some 40 times as many nodes
/// as the traces hold. Longer traces are timed in the traced run's
/// scaling probe.
pub const NODES: usize = 256;
/// Traces in the timed set.
pub const TRACES: usize = 128;
/// Trace lengths, and traces per length, of the traced run's scaling
/// probe that gives `core.loglog_slope`.
pub const SCALING: [usize; 3] = [1024, 2048, 4096];
const SCALING_TRACES: usize = 1;

fn trace(nodes: usize, seed: u64) -> DepGraph {
    random_trace_dag(&DagParams {
        nodes,
        blocks: nodes / 8,
        edge_prob: 0.25,
        cross_prob: 0.1,
        max_latency: 2,
        max_exec: 1,
        class_fraction: 0.0,
        seed,
    })
}

struct Inputs {
    graphs: Vec<DepGraph>,
    machine: MachineModel,
}

fn setup(seed: u64, spans: &Spans) -> Inputs {
    let graphs = spans.span("workloads.gen", || {
        (0..TRACES as u64)
            .map(|k| trace(NODES, input_seed(seed, k)))
            .collect::<Vec<_>>()
    });
    let machine = MachineModel::single_unit(4);
    // Warm-up: one short trace through the same code path.
    let warm = trace(256, input_seed(seed, u64::MAX));
    let r = schedule_trace(
        &mut SchedCtx::new(),
        &warm,
        &machine,
        &LookaheadConfig::default(),
        &SchedOpts::default(),
    )
    .expect("warm-up trace schedules");
    std::hint::black_box(r);
    Inputs { graphs, machine }
}

/// One scheduled trace: its time, its re-simulation (`None` when a
/// check failed) and the analysis-cache hits and misses of its context.
struct Op {
    secs: f64,
    resim: Option<Resim>,
    analysis: (u64, u64),
}

/// Schedule `g` with a fresh context, then check the result outside
/// the timed interval.
fn one(
    g: &DepGraph,
    machine: &MachineModel,
    rec: &Tally,
    spans: &Spans,
    failures: &mut Failures,
) -> Op {
    let mut ctx = SchedCtx::new();
    let opts = SchedOpts::default().with_recorder(rec);
    let start = Instant::now();
    let res = spans.span("core.schedule_trace", || {
        schedule_trace(&mut ctx, g, machine, &LookaheadConfig::default(), &opts)
    });
    let secs = start.elapsed().as_secs_f64();
    let analysis = (ctx.cache.hits(), ctx.cache.misses());
    let resim = match res {
        Ok(r) => spans.span("check", || check_trace(&mut ctx, g, machine, &r, spans)),
        Err(e) => Err(format!("scheduler error: {e}")),
    };
    let resim = match resim {
        Ok(s) => {
            failures.ok();
            Some(s)
        }
        Err(e) => {
            failures.fail(format!("long_trace {} nodes: {e}", g.len()));
            None
        }
    };
    Op {
        secs,
        resim,
        analysis,
    }
}

pub fn run(opts: &RunOpts) -> Outcome {
    let spans = Spans::new(opts.trace);
    let (inputs, setup_s) = repeated_setup(opts.process_start, || setup(opts.seed, &spans));
    let (g_all, machine) = (&inputs.graphs, &inputs.machine);
    let off = Tally::new(false);
    let mut out = Outcome {
        setup_s,
        ..Outcome::default()
    };
    let mut failures = Failures::default();
    let mut first: Vec<Option<Resim>> = vec![None; TRACES];
    let (best, rounds) = best_of_rounds(opts.seconds, |times| {
        for (i, g) in g_all.iter().enumerate() {
            let op = one(g, machine, &off, &Spans::new(false), &mut failures);
            times.push(op.secs);
            match (first[i], op.resim) {
                (None, r) => first[i] = r,
                (Some(a), Some(b)) if a != b => {
                    failures.fail(format!("trace {i}: result differs between rounds"))
                }
                _ => {}
            }
        }
    });
    let total: f64 = best.iter().sum();
    out.nodes_per_s = (NODES * TRACES) as f64 / total;
    out.verdicts_per_s = TRACES as f64 / total;
    out.sim_cycles = first.iter().flatten().map(|r| r.cycles).sum();
    out.latency_us = best.iter().map(|s| s * 1e6).collect();
    out.req_p50_us = median(&out.latency_us);
    out.req_p90_us = percentile(&out.latency_us, 90.0);
    out.notes.push(format!(
        "operation: one schedule_trace call on a {NODES}-node trace; {TRACES} traces, \
         best of {rounds} rounds each; set total {total:.3} s"
    ));

    if opts.trace {
        let tally = Tally::new(true);
        let mut traced = Failures::default();
        let mut traced_s = 0.0;
        let (mut stalls, mut violations, mut hits, mut misses) = (0, 0, 0, 0);
        for g in g_all {
            let op = one(g, machine, &tally, &spans, &mut traced);
            traced_s += op.secs;
            stalls += op.resim.map_or(0, |r| r.stall_cycles);
            violations += op.resim.map_or(0, |r| r.predicted_window_violations);
            hits += op.analysis.0;
            misses += op.analysis.1;
        }
        tally_layers(&tally, &mut out.layers);
        // Scaling probe: untraced, outside the counts above.
        let mut points = Vec::new();
        for (k, &n) in SCALING.iter().enumerate() {
            let secs: Vec<f64> = (0..SCALING_TRACES as u64)
                .map(|j| {
                    let g = trace(n, input_seed(opts.seed, 1000 * (k as u64 + 1) + j));
                    one(&g, machine, &off, &Spans::new(false), &mut traced).secs
                })
                .collect();
            points.push((n as f64, median(&secs)));
        }
        failures.absorb(traced);
        let probe: Vec<_> = g_all.iter().map(|g| (g, machine)).collect();
        probe_layers(&spans, &probe);
        span_layers(&spans, &mut out.layers);
        let l = &mut out.layers;
        l.set("core.loglog_slope", loglog_slope(&points));
        l.set("graph.analysis_hits", hits as f64);
        l.set("graph.analysis_misses", misses as f64);
        l.set("sim.stall_cycles", stalls as f64);
        l.set("core.window_violations", violations as f64);
        l.set("trace.overhead", traced_s / total);
        out.notes
            .push(format!("scaling probe (nodes, median s): {points:?}"));
        out.notes.extend(span_notes(&spans));
    }
    out.failures = failures;
    out
}
