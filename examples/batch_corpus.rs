//! Batch-schedule a corpus of trace tasks through the engine: build a
//! few hundred tasks with `asched-workloads`, run them once
//! sequentially and once on a worker pool with the schedule cache, and
//! print the cache hit rate and the wall-clock ratio.
//!
//! ```text
//! cargo run --release --example batch_corpus
//! ```
//!
//! The engine's results are a pure function of the corpus — the two
//! runs must agree task for task, whatever the job count.

use std::sync::Arc;

use asched::engine::{Engine, EngineConfig, SharedScheduleCache, TraceTask};
use asched::graph::MachineModel;
use asched::obs::NULL;
use asched::workloads::{random_trace_dag, DagParams};

fn corpus() -> Vec<TraceTask> {
    // 300 tasks cycling through 60 distinct (graph, window) pairs, so
    // the content-addressed cache has real duplicates to serve.
    let mut tasks = Vec::new();
    for i in 0..300u64 {
        let seed = 100 + i % 60;
        let w = [2, 4, 8][(i % 3) as usize];
        let g = random_trace_dag(&DagParams {
            nodes: 48,
            blocks: 6,
            seed,
            ..DagParams::default()
        });
        tasks.push(TraceTask::new(
            format!("dag:{seed}:w{w}"),
            g,
            MachineModel::single_unit(w),
        ));
    }
    tasks
}

fn main() {
    let tasks = corpus();
    println!("corpus: {} tasks (60 distinct)\n", tasks.len());

    let seq = Engine::new(EngineConfig {
        jobs: 1,
        ..EngineConfig::default()
    })
    .run_batch(&tasks, &NULL);
    println!(
        "jobs=1, no cache : {:>7.1} ms  ({} scheduled)",
        seq.elapsed_nanos as f64 / 1e6,
        seq.scheduled
    );

    let par = Engine::with_shared_cache(
        EngineConfig {
            jobs: 4,
            ..EngineConfig::default()
        },
        Arc::new(SharedScheduleCache::new(1024, 1)),
    )
    .run_batch(&tasks, &NULL);
    println!(
        "jobs=4, cached   : {:>7.1} ms  ({} scheduled, {} served from cache)",
        par.elapsed_nanos as f64 / 1e6,
        par.scheduled,
        par.cached
    );
    println!(
        "cache            : {} hits / {} queries (hit rate {:.1}%)",
        par.cache_hits,
        par.cache_hits + par.cache_misses,
        par.hit_rate() * 100.0
    );
    if par.elapsed_nanos > 0 {
        println!(
            "wall-clock ratio : {:.2}x vs jobs=1",
            seq.elapsed_nanos as f64 / par.elapsed_nanos as f64
        );
    }

    // Determinism: the runs agree task for task.
    for (a, b) in seq.tasks.iter().zip(&par.tasks) {
        assert_eq!(a.makespan, b.makespan, "task {} diverged", a.index);
    }
    println!("\nboth runs produced identical schedules, task for task.");
}
