//! `batch_mix`: the batch engine over the synthetic mixed corpus.
//!
//! `Engine::run_batch_ctx` at jobs=1 with a `SharedScheduleCache` that
//! persists across batches, like a long-lived service worker. The
//! corpus has short 27–35-node traces; its fingerprints repeat, and the
//! cache holds fewer entries than there are distinct fingerprints, so
//! every steady-state pass has hits, inserts and evictions. Engine
//! planning, fingerprinting and the cache do the work here; no trace is
//! long enough for the carried suffix to matter.

use super::{input_seed, probe_layers, span_layers, span_notes, tally_layers};
use crate::checks::{check_trace, resimulate};
use crate::rec::{Spans, Tally};
use crate::stats::{median, percentile};
use crate::{best_of_rounds, repeated_setup, Failures, Outcome, RunOpts};
use asched_core::schedule_trace;
use asched_engine::{
    synth_corpus, BatchReport, Engine, EngineConfig, SharedScheduleCache, TaskOutcome, TraceTask,
};
use asched_graph::{SchedCtx, SchedOpts};
use std::sync::Arc;
use std::time::Instant;

/// Tasks in the corpus. `synth_corpus` gives 9/16 of them distinct
/// fingerprints (576 here).
pub const TASKS: usize = 1024;
/// The corpus is submitted as this many batches of equal size, in
/// order; each batch is one operation.
pub const BATCHES: usize = 8;
/// Cache entries: below the 576 distinct fingerprints, so the FIFO
/// keeps evicting, and above the 448-task distance at which repeats
/// recur from one pass over the corpus to the next, so those hit.
pub const CACHE_CAPACITY: usize = 512;
/// Passes over the corpus before timing, so the cache is in its
/// steady state.
const WARM_ROUNDS: usize = 2;

struct State {
    tasks: Vec<TraceTask>,
    /// Library makespan of each task, computed without the engine.
    expected: Vec<u64>,
    nodes: usize,
    engine: Engine,
    ctx: SchedCtx,
}

fn engine() -> Engine {
    let cfg = EngineConfig {
        jobs: 1,
        ..EngineConfig::default()
    };
    Engine::with_shared_cache(cfg, Arc::new(SharedScheduleCache::new(CACHE_CAPACITY, 1)))
}

fn setup(seed: u64, spans: &Spans) -> State {
    let tasks = spans.span("workloads.gen", || synth_corpus(TASKS, input_seed(seed, 0)));
    let mut ctx = SchedCtx::new();
    let expected = tasks
        .iter()
        .map(|t| {
            schedule_trace(
                &mut ctx,
                &t.graph,
                &t.machine,
                &t.config,
                &SchedOpts::default(),
            )
            .expect("corpus tasks schedule")
            .makespan
        })
        .collect();
    let nodes = tasks.iter().map(|t| t.graph.len()).sum();
    let engine = engine();
    let mut ctx = SchedCtx::new();
    for _ in 0..WARM_ROUNDS {
        for batch in tasks.chunks(TASKS / BATCHES) {
            std::hint::black_box(engine.run_batch_ctx(&mut ctx, batch, &asched_obs::NULL));
        }
    }
    State {
        tasks,
        expected,
        nodes,
        engine,
        ctx,
    }
}

/// Check a batch against the library makespans; `full` also checks
/// every emitted schedule. Returns the Window Constraint violations of
/// the predicted permutations (counted only when `full`).
fn check(
    st: &State,
    batch: usize,
    report: &BatchReport,
    full: bool,
    failures: &mut Failures,
) -> u64 {
    let mut ctx = SchedCtx::new();
    let off = Spans::new(false);
    let mut violations = 0;
    let first = batch * (TASKS / BATCHES);
    let tasks = st.tasks[first..].iter().zip(&st.expected[first..]);
    for ((task, want), t) in tasks.zip(&report.tasks) {
        let want = *want;
        let verdict = match (&t.result, t.outcome) {
            (_, TaskOutcome::Degraded | TaskOutcome::Failed) => {
                Err(format!("outcome {}", t.outcome.name()))
            }
            (None, _) => Err("no result".into()),
            (Some(r), _) if r.makespan != want => {
                Err(format!("makespan {} != library {want}", r.makespan))
            }
            (Some(r), _) if full => check_trace(&mut ctx, &task.graph, &task.machine, r, &off)
                .map(|resim| violations += resim.predicted_window_violations),
            _ => Ok(()),
        };
        match verdict {
            Ok(()) => failures.ok(),
            Err(e) => failures.fail(format!("batch_mix task {}: {e}", t.label)),
        }
    }
    violations
}

pub fn run(opts: &RunOpts) -> Outcome {
    let spans = Spans::new(opts.trace);
    let (mut st, setup_s) = repeated_setup(opts.process_start, || setup(opts.seed, &spans));
    let mut out = Outcome {
        setup_s,
        ..Outcome::default()
    };
    let mut failures = Failures::default();
    let mut full = true;
    let mut violations = 0;
    let (best, rounds) = best_of_rounds(opts.seconds, |times| {
        for (b, batch) in st.tasks.chunks(TASKS / BATCHES).enumerate() {
            let start = Instant::now();
            let report = st
                .engine
                .run_batch_ctx(&mut st.ctx, batch, &asched_obs::NULL);
            times.push(start.elapsed().as_secs_f64());
            violations += check(&st, b, &report, full, &mut failures);
        }
        full = false;
    });
    let total: f64 = best.iter().sum();
    out.nodes_per_s = st.nodes as f64 / total;
    out.verdicts_per_s = st.tasks.len() as f64 / total;
    out.sim_cycles = st.expected.iter().sum();
    out.latency_us = best.iter().map(|s| s * 1e6).collect();
    out.req_p50_us = median(&out.latency_us);
    out.req_p90_us = percentile(&out.latency_us, 90.0);
    out.layers.set("core.window_violations", violations as f64);
    out.notes.push(format!(
        "operation: one run_batch of {} tasks; {BATCHES} batches ({} tasks, {} nodes), \
         best of {rounds} rounds each",
        TASKS / BATCHES,
        st.tasks.len(),
        st.nodes
    ));

    if opts.trace {
        // A fresh engine and context, warmed by one untraced batch, make
        // the traced batch's counts independent of the timed phase.
        let engine = engine();
        let mut ctx = SchedCtx::new();
        for batch in st.tasks.chunks(TASKS / BATCHES) {
            engine.run_batch_ctx(&mut ctx, batch, &asched_obs::NULL);
        }
        let (h0, m0) = (ctx.cache.hits(), ctx.cache.misses());
        let tally = Tally::new(true);
        let mut traced_s = 0.0;
        let mut stalls = 0;
        let mut sim_ctx = SchedCtx::new();
        let mut sum = BatchReport::default();
        for (b, batch) in st.tasks.chunks(TASKS / BATCHES).enumerate() {
            let start = Instant::now();
            let report = spans.span("engine.run_batch", || {
                engine.run_batch_ctx(&mut ctx, batch, &tally)
            });
            traced_s += start.elapsed().as_secs_f64();
            check(&st, b, &report, false, &mut failures);
            for (task, t) in batch.iter().zip(&report.tasks) {
                if let Some(r) = &t.result {
                    let resim = spans.span("sim.simulate", || {
                        resimulate(&mut sim_ctx, &task.graph, &task.machine, &r.block_orders)
                    });
                    stalls += resim.stall_cycles;
                }
            }
            sum.cache_hits += report.cache_hits;
            sum.cache_misses += report.cache_misses;
            sum.cache_evictions += report.cache_evictions;
            sum.degraded += report.degraded;
            sum.failed += report.failed;
        }
        let report = sum;
        tally_layers(&tally, &mut out.layers);
        let probe: Vec<_> = st.tasks.iter().map(|t| (&t.graph, &t.machine)).collect();
        probe_layers(&spans, &probe);
        span_layers(&spans, &mut out.layers);
        let l = &mut out.layers;
        l.set("graph.analysis_hits", (ctx.cache.hits() - h0) as f64);
        l.set("graph.analysis_misses", (ctx.cache.misses() - m0) as f64);
        l.set("sim.stall_cycles", stalls as f64);
        l.set("engine.hit_rate", report.hit_rate());
        l.set("engine.cache_hits", report.cache_hits as f64);
        l.set("engine.cache_misses", report.cache_misses as f64);
        l.set("engine.cache_evictions", report.cache_evictions as f64);
        l.set("engine.degraded", report.degraded as f64);
        l.set("engine.failed", report.failed as f64);
        l.set("trace.overhead", traced_s / total);
        out.notes.extend(span_notes(&spans));
    }
    out.failures = failures;
    out
}
