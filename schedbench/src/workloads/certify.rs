//! `certify`: schedule, re-simulate and certify E8-shaped instances.
//!
//! 32-node, 4-block class-tagged traces with latencies up to 3 and
//! execution times up to 2 or 3, on one universal unit, two universal
//! units and the RS/6000-like machine, all with a 4-entry window. Each
//! instance runs `schedule_trace`, then `simulate` on the emitted code,
//! then `certified_gap` under a fixed node budget. This is the only
//! workload that runs `exact`, and the only one that runs `core`,
//! `rank` and `sim` on multi-unit machines with non-unit times.

use super::{input_seed, probe_layers, span_layers, span_notes, tally_layers};
use crate::checks::{check_trace, resimulate, Resim};
use crate::rec::{Spans, Tally};
use crate::stats::{median, percentile};
use crate::{best_of_rounds, repeated_setup, Failures, Outcome, RunOpts};
use asched_core::{schedule_trace, LookaheadConfig};
use asched_exact::{certified_gap, ExactConfig, GapBound};
use asched_graph::{DepGraph, MachineModel, SchedCtx, SchedOpts};
use asched_workloads::{random_trace_dag, DagParams};
use std::time::Instant;

/// Instances per machine and execution-time bound: 600 in all. The
/// search cost of an instance is heavy-tailed, so a corpus this large
/// keeps the seed from moving the corpus total much.
pub const SEEDS: u64 = 100;
/// Search-state expansions allowed per instance. About 9 in 10
/// instances close at every budget from 300 to E15's 50 000; a larger
/// budget only adds time on the few that never close, and how many of
/// those a seed draws would then decide the corpus time.
pub const NODE_BUDGET: u64 = 300;

struct Instance {
    g: DepGraph,
    machine: MachineModel,
}

fn setup(seed: u64, spans: &Spans) -> Vec<Instance> {
    let machines = [
        MachineModel::single_unit(4),
        MachineModel::uniform(2, 4),
        MachineModel::rs6000_like(4),
    ];
    let instances: Vec<Instance> = spans.span("workloads.gen", || {
        let mut v = Vec::new();
        for machine in &machines {
            for max_exec in [2u32, 3] {
                for k in 0..SEEDS {
                    let g = random_trace_dag(&DagParams {
                        nodes: 32,
                        blocks: 4,
                        edge_prob: 0.3,
                        cross_prob: 0.15,
                        max_latency: 3,
                        max_exec,
                        class_fraction: 1.0,
                        seed: input_seed(seed, u64::from(max_exec) * 1000 + k),
                    });
                    v.push(Instance {
                        g,
                        machine: machine.clone(),
                    });
                }
            }
        }
        v
    });
    // Warm-up: one instance per machine through the whole pipeline.
    let mut ctx = SchedCtx::new();
    for inst in instances.iter().step_by((2 * SEEDS) as usize) {
        let v = certify_one(&mut ctx, inst, &Tally::new(false), &Spans::new(false));
        std::hint::black_box(v.is_ok());
    }
    instances
}

/// One instance's output: the schedule, its measured makespan and the
/// certified gap.
struct Verdict {
    result: asched_core::TraceResult,
    measured: u64,
    gap: GapBound,
}

fn certify_one(
    ctx: &mut SchedCtx,
    inst: &Instance,
    rec: &Tally,
    spans: &Spans,
) -> Result<Verdict, String> {
    let opts = SchedOpts::default().with_recorder(rec);
    let (g, m) = (&inst.g, &inst.machine);
    let result = spans
        .span("core.schedule_trace", || {
            schedule_trace(ctx, g, m, &LookaheadConfig::default(), &opts)
        })
        .map_err(|e| format!("scheduler error: {e}"))?;
    let measured = spans
        .span("sim.simulate", || {
            resimulate(ctx, g, m, &result.block_orders)
        })
        .cycles;
    let cfg = ExactConfig::with_node_budget(NODE_BUDGET);
    let gap = spans
        .span("exact.certified_gap", || {
            certified_gap(ctx, g, &g.all_nodes(), m, measured, &cfg, &opts)
        })
        .map_err(|e| format!("exact error: {e}"))?;
    Ok(Verdict {
        result,
        measured,
        gap,
    })
}

/// Check one verdict outside the timed interval.
fn check(ctx: &mut SchedCtx, inst: &Instance, v: &Verdict) -> Result<Resim, String> {
    let resim = check_trace(ctx, &inst.g, &inst.machine, &v.result, &Spans::new(false))?;
    if v.measured != v.result.makespan {
        return Err(format!(
            "measured {} != makespan {}",
            v.measured, v.result.makespan
        ));
    }
    let cert = v.gap.certificate;
    if cert.lower_bound > v.measured {
        return Err(format!(
            "lower bound {} above measured {}",
            cert.lower_bound, v.measured
        ));
    }
    Ok(resim)
}

/// Deterministic totals of one pass over the corpus.
#[derive(Default, Clone, Copy, PartialEq, Eq, Debug)]
struct Totals {
    cycles: u64,
    closed: u64,
    expanded: u64,
    width: u64,
    stalls: u64,
    violations: u64,
    analysis_hits: u64,
    analysis_misses: u64,
}

/// One pass over the corpus: pushes each instance's time and returns
/// the pass's totals.
fn round(
    instances: &[Instance],
    rec: &Tally,
    spans: &Spans,
    failures: &mut Failures,
    times: &mut Vec<f64>,
) -> Totals {
    let mut ctx = SchedCtx::new();
    let mut check_ctx = SchedCtx::new();
    let mut t = Totals::default();
    for (i, inst) in instances.iter().enumerate() {
        let start = Instant::now();
        let v = certify_one(&mut ctx, inst, rec, spans);
        times.push(start.elapsed().as_secs_f64());
        match v.and_then(|v| check(&mut check_ctx, inst, &v).map(|r| (v, r))) {
            Ok((v, resim)) => {
                failures.ok();
                t.cycles += v.measured;
                t.closed += u64::from(v.gap.is_exact());
                t.expanded += v.gap.certificate.expanded;
                t.width += v.gap.certificate.width();
                t.stalls += resim.stall_cycles;
                t.violations += resim.predicted_window_violations;
            }
            Err(e) => failures.fail(format!("certify instance {i}: {e}")),
        }
    }
    t.analysis_hits = ctx.cache.hits();
    t.analysis_misses = ctx.cache.misses();
    t
}

pub fn run(opts: &RunOpts) -> Outcome {
    let spans = Spans::new(opts.trace);
    let (instances, setup_s) = repeated_setup(opts.process_start, || setup(opts.seed, &spans));
    let mut out = Outcome {
        setup_s,
        ..Outcome::default()
    };
    let mut failures = Failures::default();
    let off = Tally::new(false);
    let mut first: Option<Totals> = None;
    let (best, rounds) = best_of_rounds(opts.seconds, |times| {
        let t = round(&instances, &off, &Spans::new(false), &mut failures, times);
        match first {
            None => first = Some(t),
            Some(f) if f != t => failures.fail("certify: totals differ between rounds".into()),
            Some(_) => {}
        }
    });
    let totals = first.unwrap_or_default();
    let n = instances.len() as f64;
    let total: f64 = best.iter().sum();
    let nodes: usize = instances.iter().map(|i| i.g.len()).sum();
    out.nodes_per_s = nodes as f64 / total;
    out.verdicts_per_s = n / total;
    out.sim_cycles = totals.cycles;
    out.latency_us = best.iter().map(|s| s * 1e6).collect();
    out.req_p50_us = median(&out.latency_us);
    out.req_p90_us = percentile(&out.latency_us, 90.0);
    out.layers
        .set("exact.closed_share", totals.closed as f64 / n);
    out.notes.push(format!(
        "operation: schedule_trace + simulate + certified_gap on one instance; {} instances, \
         best of {rounds} rounds each; closed_share {:.4}",
        instances.len(),
        totals.closed as f64 / n
    ));

    if opts.trace {
        let tally = Tally::new(true);
        let mut times = Vec::new();
        let t = round(&instances, &tally, &spans, &mut failures, &mut times);
        let traced_s: f64 = times.iter().sum();
        if t != totals {
            failures.fail("certify: traced totals differ from untraced".into());
        }
        tally_layers(&tally, &mut out.layers);
        let probe: Vec<_> = instances.iter().map(|i| (&i.g, &i.machine)).collect();
        probe_layers(&spans, &probe);
        span_layers(&spans, &mut out.layers);
        let l = &mut out.layers;
        l.set("exact.expanded", t.expanded as f64);
        l.set("exact.width_sum", t.width as f64);
        l.set("sim.stall_cycles", t.stalls as f64);
        l.set("core.window_violations", t.violations as f64);
        l.set("graph.analysis_hits", t.analysis_hits as f64);
        l.set("graph.analysis_misses", t.analysis_misses as f64);
        l.set("trace.overhead", traced_s / total);
        out.notes.extend(span_notes(&spans));
    }
    out.failures = failures;
    out
}
