//! Satellite: engine output is byte-identical for `jobs = 1` vs
//! `jobs = 8` over a seeded `random_prog` corpus — results, JSONL
//! events (modulo `pass_end` timestamps) and deterministic BENCH
//! metrics. The contract holds at any shard count of the engine's
//! [`SharedScheduleCache`], and results (though not hit/miss labels)
//! are identical with or without a cache.

use std::sync::Arc;

use asched_engine::{BatchReport, Engine, EngineConfig, SharedScheduleCache, TraceTask};
use asched_graph::MachineModel;
use asched_ir::{build_trace_graph, LatencyModel};
use asched_obs::{JsonlRecorder, SpanAlloc, SpanScope};
use asched_workloads::{random_program, ProgParams};

/// A seeded random_prog corpus with deliberate duplicates (seeds wrap
/// modulo 7) so the cache path is exercised too.
fn prog_corpus() -> Vec<TraceTask> {
    let mut tasks = Vec::new();
    for i in 0..40u64 {
        let seed = 9000 + i % 7;
        let w = [2, 4, 8][(i % 3) as usize];
        let prog = random_program(&ProgParams {
            blocks: 3,
            insts_per_block: 8,
            with_branches: false,
            seed,
            ..ProgParams::default()
        });
        let g = build_trace_graph(&prog, &LatencyModel::fig3());
        tasks.push(TraceTask::new(
            format!("prog:{seed}:w{w}"),
            g,
            MachineModel::single_unit(w),
        ));
    }
    tasks
}

/// Zero out every `"nanos":N` payload — the only nondeterministic field
/// in the event stream (wall-clock span durations on `pass_end`).
fn normalize_nanos(log: &str) -> String {
    let mut out = String::with_capacity(log.len());
    let mut rest = log;
    const KEY: &str = "\"nanos\":";
    while let Some(at) = rest.find(KEY) {
        let (head, tail) = rest.split_at(at + KEY.len());
        out.push_str(head);
        out.push('0');
        rest = tail.trim_start_matches(|c: char| c.is_ascii_digit());
    }
    out.push_str(rest);
    out
}

/// An engine with a fresh 256-entry schedule cache of `shards` shards.
fn cached(jobs: usize, shards: usize) -> Engine {
    Engine::with_shared_cache(
        EngineConfig {
            jobs,
            ..EngineConfig::default()
        },
        Arc::new(SharedScheduleCache::new(256, shards)),
    )
}

fn run(jobs: usize, shards: usize, tasks: &[TraceTask]) -> (BatchReport, String) {
    let engine = cached(jobs, shards);
    let rec = JsonlRecorder::new(Vec::new());
    let report = engine.run_batch(tasks, &rec);
    let log = String::from_utf8(rec.into_inner()).unwrap();
    (report, log)
}

#[test]
fn jobs_1_and_jobs_8_are_byte_identical() {
    let tasks = prog_corpus();
    let (seq, seq_log) = run(1, 1, &tasks);
    let (par, par_log) = run(8, 1, &tasks);

    // Results: outcome, makespan, fingerprint and emitted code agree
    // task by task, in input order.
    assert_eq!(seq.tasks.len(), par.tasks.len());
    for (a, b) in seq.tasks.iter().zip(&par.tasks) {
        assert_eq!(a.index, b.index);
        assert_eq!(a.label, b.label);
        assert_eq!(a.outcome, b.outcome);
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.fingerprint, b.fingerprint);
        let (ra, rb) = (a.result.as_ref().unwrap(), b.result.as_ref().unwrap());
        assert_eq!(ra.block_orders, rb.block_orders);
        assert_eq!(ra.permutation, rb.permutation);
    }

    // The corpus has duplicates, so the cache must actually fire for
    // this test to mean anything.
    assert!(seq.cache_hits > 0, "corpus must exercise the cache");
    assert!(seq.scheduled > 0);

    // Deterministic BENCH metrics are identical...
    assert_eq!(seq.metrics(), par.metrics());
    // ...and the full JSONL event stream is byte-identical once the
    // wall-clock payloads are zeroed.
    assert_eq!(normalize_nanos(&seq_log), normalize_nanos(&par_log));

    // Both logs validate against the documented schema.
    asched_obs::schema::validate_document(&seq_log)
        .unwrap_or_else(|(line, err)| panic!("line {line}: {err}"));
}

/// The determinism contract survives sharding: with a fresh 8-shard
/// cache per run, results, deterministic metrics and the event stream
/// (with its `shard` attribution) are byte-identical at any job count —
/// every cache decision still happens in the sequential plan phase.
#[test]
fn shared_cache_is_byte_identical_across_jobs() {
    let tasks = prog_corpus();
    let (seq, seq_log) = run(1, 8, &tasks);
    let (par, par_log) = run(8, 8, &tasks);

    assert_eq!(seq.tasks.len(), par.tasks.len());
    for (a, b) in seq.tasks.iter().zip(&par.tasks) {
        assert_eq!(a.outcome, b.outcome, "{}", a.label);
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.fingerprint, b.fingerprint);
    }
    assert!(seq.cache_hits > 0, "corpus must exercise the shared cache");
    assert_eq!(seq.metrics(), par.metrics());
    assert_eq!(normalize_nanos(&seq_log), normalize_nanos(&par_log));

    // Sharded cache events (with their shard field) still validate.
    assert!(seq_log.contains("\"shard\":"), "shard attribution missing");
    asched_obs::schema::validate_document(&seq_log)
        .unwrap_or_else(|(line, err)| panic!("line {line}: {err}"));
}

/// Task results are a pure function of the corpus with any cache shard
/// count or no cache at all, and while nothing is evicted the shard
/// count changes no counter either.
#[test]
fn results_agree_across_cache_backends() {
    let tasks = prog_corpus();
    let (one, _) = run(1, 1, &tasks);
    let (sharded, _) = run(1, 8, &tasks);
    let uncached = Engine::new(EngineConfig {
        jobs: 1,
        ..EngineConfig::default()
    })
    .run_batch(&tasks, &asched_obs::NULL);

    for ((a, b), c) in one.tasks.iter().zip(&sharded.tasks).zip(&uncached.tasks) {
        assert_eq!(a.makespan, b.makespan, "{}", a.label);
        assert_eq!(a.makespan, c.makespan, "{}", a.label);
        assert_eq!(a.fingerprint, b.fingerprint);
        // Outcome labels differ by design (cached engines report
        // Cached for duplicates; the uncached engine recomputes), and
        // the uncached engine never fingerprints — but the schedule
        // itself must be the same bytes everywhere.
        let (ra, rb) = (a.result.as_ref().unwrap(), b.result.as_ref().unwrap());
        let rc = c.result.as_ref().unwrap();
        assert_eq!(ra.permutation, rb.permutation);
        assert_eq!(ra.permutation, rc.permutation);
        assert_eq!(ra.block_orders, rb.block_orders);
        assert_eq!(ra.block_orders, rc.block_orders);
    }

    assert_eq!(one.cache_evictions, 0);
    assert_eq!(sharded.cache_evictions, 0);
    assert_eq!(one.cache_hits, sharded.cache_hits);
    assert_eq!(one.cache_misses, sharded.cache_misses);
    assert_eq!(one.cache_resident, sharded.cache_resident);
}

fn run_traced(jobs: usize, tasks: &[TraceTask]) -> (BatchReport, String) {
    let engine = cached(jobs, 1);
    let rec = JsonlRecorder::new(Vec::new());
    let spans = SpanAlloc::new();
    let report = engine.run_batch_traced(None, tasks, &rec, Some(SpanScope::root(&spans)));
    let log = String::from_utf8(rec.into_inner()).unwrap();
    (report, log)
}

/// The traced batch path allocates span ids only in the engine's
/// sequential plan/emit phases, so the *span forest* — ids, parents,
/// names, attribution — must also be byte-identical across job counts.
#[test]
fn traced_spans_are_byte_identical_across_jobs() {
    let tasks = prog_corpus();
    let (seq, seq_log) = run_traced(1, &tasks);
    let (par, par_log) = run_traced(8, &tasks);

    assert_eq!(seq.metrics(), par.metrics());
    assert_eq!(normalize_nanos(&seq_log), normalize_nanos(&par_log));

    // One "engine" root with one "task" span per task, all closed, no
    // orphans — checked by the schema's cross-line span checker.
    let report = asched_obs::schema::check_spans(&seq_log)
        .unwrap_or_else(|(line, err)| panic!("line {line}: {err}"));
    assert_eq!(report.started, 1 + tasks.len());
    assert_eq!(report.ended, report.started);
    assert!(report.unclosed.is_empty());
    asched_obs::schema::validate_document(&seq_log)
        .unwrap_or_else(|(line, err)| panic!("line {line}: {err}"));

    // Every cache query and task_done is attributed to a task span.
    for line in seq_log.lines() {
        if line.contains("\"ev\":\"cache_query\"") || line.contains("\"ev\":\"task_done\"") {
            assert!(line.contains("\"span\":"), "unattributed event: {line}");
        }
    }
}
