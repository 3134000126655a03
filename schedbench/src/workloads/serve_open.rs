//! `serve_open`: the HTTP scheduling service under an open loop.
//!
//! An in-process `Server` with two workers and one shared schedule
//! cache takes requests at a fixed offered rate over loopback, one
//! connection per request, from two client threads. The bodies come
//! from `synth_request_bodies`, so some requests are served from the
//! shared cache and the rest are scheduled and inserted. The engine and
//! cache run here under arrival-driven latency, and the HTTP, queue and
//! metrics path is exercised.

use super::{input_seed, probe_layers, span_layers, span_notes, tally_layers};
use crate::load::{open_loop, Expected, LoadResult};
use crate::rec::{Spans, Tally};
use crate::stats::{median, percentile};
use crate::{repeated_setup, Outcome, RunOpts};
use asched_core::schedule_trace;
use asched_engine::{parse_manifest, TraceTask};
use asched_graph::{SchedCtx, SchedOpts};
use asched_serve::{
    http_request, synth_request_bodies, CacheMode, Server, ServerConfig, ServerHandle,
};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

/// Offered load, requests per second. Fixed, so that every commit is
/// measured at the same load; about a tenth of what the two workers
/// sustain on a 2-core host.
pub const RATE: f64 = 200.0;
/// Client threads, and so at most this many connections in flight.
pub const CLIENTS: usize = 2;
/// Server worker threads.
pub const WORKERS: usize = 2;
/// Distinct request bodies; requests cycle through them.
pub const BODIES: usize = 512;
/// Shared-cache entries per worker (pooled across the workers).
pub const CACHE_PER_WORKER: usize = 96;
/// The open loop's requests are split into this many windows of
/// consecutive requests (400 each in a 20 s run) for the latency
/// percentiles.
pub const WINDOWS: usize = 10;
/// `GET /healthz` requests sent before timing.
const WARM_REQUESTS: usize = 20;

struct State {
    bodies: Vec<String>,
    expected: Vec<Expected>,
    tasks: Vec<TraceTask>,
    server: ServerHandle,
}

fn start_server(rec: Arc<Tally>) -> ServerHandle {
    let cfg = ServerConfig {
        workers: WORKERS,
        cache_mode: CacheMode::Shared,
        cache_capacity: CACHE_PER_WORKER,
        ..ServerConfig::default()
    };
    let server = Server::start(cfg, rec).expect("bind a loopback port");
    for _ in 0..WARM_REQUESTS {
        let r = http_request(
            server.addr(),
            "GET",
            "/healthz",
            &[],
            b"",
            Duration::from_secs(10),
        )
        .expect("health check answers");
        assert_eq!(r.status, 200, "health check");
    }
    server
}

fn setup(seed: u64, spans: &Spans) -> State {
    let bodies = spans.span("workloads.gen", || {
        synth_request_bodies(BODIES, input_seed(seed, 0))
    });
    // The library result for each distinct body, computed once.
    let mut ctx = SchedCtx::new();
    let mut tasks = Vec::new();
    let mut by_body: HashMap<&str, Expected> = HashMap::new();
    let expected = bodies
        .iter()
        .map(|b| {
            by_body
                .entry(b)
                .or_insert_with(|| {
                    let parsed = parse_manifest(b).expect("synthetic bodies parse");
                    let makespans = parsed
                        .iter()
                        .map(|t| {
                            schedule_trace(
                                &mut ctx,
                                &t.graph,
                                &t.machine,
                                &t.config,
                                &SchedOpts::default(),
                            )
                            .expect("synthetic bodies schedule")
                            .makespan
                        })
                        .collect();
                    let nodes = parsed.iter().map(|t| t.graph.len() as u64).sum();
                    tasks.extend(parsed);
                    Expected { makespans, nodes }
                })
                .clone()
        })
        .collect();
    let server = start_server(Arc::new(Tally::new(false)));
    State {
        bodies,
        expected,
        tasks,
        server,
    }
}

fn requests(seconds: f64) -> usize {
    (RATE * seconds).ceil().max(1.0) as usize
}

pub fn run(opts: &RunOpts) -> Outcome {
    let spans = Spans::new(opts.trace);
    let (st, setup_s) = repeated_setup(opts.process_start, || setup(opts.seed, &spans));
    let n = requests(opts.seconds);
    let load: LoadResult = open_loop(st.server.addr(), &st.bodies, &st.expected, RATE, n, CLIENTS);
    let metrics = st.server.metrics();
    let mut out = Outcome {
        setup_s,
        nodes_per_s: load.nodes as f64 / load.wall_s,
        verdicts_per_s: (load.failures.attempted - load.failures.failed) as f64 / load.wall_s,
        sim_cycles: load.cycles,
        ..Outcome::default()
    };
    out.notes.push(format!(
        "operation: one POST /v1/schedule at {RATE} req/s offered; {} samples in {WINDOWS} \
         windows, percentiles are medians over windows; late_max {:.3} ms; shed {}",
        load.latency_us.len(),
        load.late_max_us / 1e3,
        metrics.shed()
    ));
    // Percentiles per window of consecutive requests, then the median
    // over windows: a burst of host slowness lasting a few seconds moves
    // only the windows it covers.
    let windows: Vec<&[f64]> = load
        .latency_us
        .chunks(load.latency_us.len().div_ceil(WINDOWS))
        .collect();
    let per_window = |p: f64| median(&windows.iter().map(|w| percentile(w, p)).collect::<Vec<_>>());
    out.req_p50_us = per_window(50.0);
    out.req_p90_us = per_window(90.0);
    let l = &mut out.layers;
    l.set("serve.shed", metrics.shed() as f64);
    if let Some(c) = metrics.shared_cache_stats() {
        l.set("serve.shared_hit_rate", c.hit_rate());
        out.notes.push(format!(
            "shared cache: hits {} misses {} evictions {}",
            c.hits, c.misses, c.evictions
        ));
    }
    l.set("serve.req_p99_us", percentile(&load.latency_us, 99.0));
    l.set("load.samples", load.latency_us.len() as f64);
    l.set("load.late_max_ms", load.late_max_us / 1e3);
    drop(st.server);

    if opts.trace {
        // A fresh server reporting into the recorder, same load.
        let tally = Arc::new(Tally::new(true));
        let server = start_server(Arc::clone(&tally));
        let traced = spans.span("serve.open_loop", || {
            open_loop(server.addr(), &st.bodies, &st.expected, RATE, n, CLIENTS)
        });
        drop(server);
        let (request_ns, queue_ns) = tally.server_spans();
        let us = |v: &[u64]| v.iter().map(|&x| x as f64 / 1e3).collect::<Vec<f64>>();
        tally_layers(&tally, &mut out.layers);
        let probe: Vec<_> = st.tasks.iter().map(|t| (&t.graph, &t.machine)).collect();
        probe_layers(&spans, &probe);
        span_layers(&spans, &mut out.layers);
        let l = &mut out.layers;
        l.set("serve.server_p50_us", median(&us(&request_ns)));
        l.set("serve.server_p99_us", percentile(&us(&request_ns), 99.0));
        l.set("serve.queue_wait_p50_us", median(&us(&queue_ns)));
        l.set(
            "trace.overhead",
            median(&traced.latency_us) / median(&load.latency_us),
        );
        out.notes.extend(span_notes(&spans));
        out.failures.absorb(traced.failures);
    }
    out.failures.absorb(load.failures);
    out.latency_us = load.latency_us;
    out
}
