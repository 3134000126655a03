//! `asched-schedbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload, or each in turn with `all`. For each it prints
//! every metric by name with its unit, then one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`; for a single
//! workload that object is the last line. Exits nonzero when an output
//! check fails.

use asched_schedbench::{peak_rss_mb, stats, workloads, RunOpts, END_TO_END, PER_LAYER};
use std::process::ExitCode;
use std::time::Instant;

const USAGE: &str =
    "usage: asched-schedbench --workload <long_trace|batch_mix|serve_open|certify|all> \
--seed <u64> --seconds <s> --trace <0|1>";

struct Args {
    workload: String,
    opts: RunOpts,
}

fn parse(process_start: Instant) -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(0.0..=3600.0).contains(&s) {
                    return Err("--seconds must be between 0 and 3600".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !workloads::NAMES.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    Ok(Args {
        workload,
        opts: RunOpts {
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.unwrap_or(false),
            process_start,
        },
    })
}

fn metric_json(name: &str, value: f64, unit: &str) -> String {
    format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args = match parse(process_start) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let names: Vec<&str> = match args.workload.as_str() {
        "all" => workloads::NAMES.to_vec(),
        one => vec![one],
    };
    let mut all_correct = true;
    for (i, name) in names.into_iter().enumerate() {
        let mut opts = args.opts;
        if i > 0 {
            opts.process_start = Instant::now();
        }
        all_correct &= report(name, &opts);
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Run one workload and print its metrics; true when every check passed.
fn report(name: &str, opts: &RunOpts) -> bool {
    let out = workloads::run(name, opts).expect("workload name was checked");
    let f = &out.failures;
    let ok_share = if f.attempted == 0 {
        0.0
    } else {
        (f.attempted - f.failed) as f64 / f.attempted as f64
    };
    let e2e = [
        out.setup_s,
        peak_rss_mb(),
        out.nodes_per_s,
        out.verdicts_per_s,
        out.sim_cycles as f64,
        out.req_p50_us,
        out.req_p90_us,
        ok_share,
    ];

    println!("workload {name} seed {}", opts.seed);
    for note in &out.notes {
        println!("  {note}");
    }
    let deciles: Vec<String> = [10.0, 25.0, 50.0, 75.0, 90.0, 99.0]
        .iter()
        .map(|&p| format!("p{p}={:.1}", stats::percentile(&out.latency_us, p)))
        .collect();
    println!("  operation latency us: {}", deciles.join(" "));
    for (&(name, unit), v) in END_TO_END.iter().zip(e2e) {
        println!("{name} {v} {unit}");
    }
    println!(
        "fail_share {} ratio ({} of {} operations; latency samples {})",
        f.failed as f64 / f.attempted.max(1) as f64,
        f.failed,
        f.attempted,
        out.latency_us.len()
    );
    let fields: Vec<String> = if opts.trace {
        for &(name, unit) in PER_LAYER {
            println!("{name} {} {unit}", out.layers.get(name));
        }
        PER_LAYER
            .iter()
            .map(|&(name, unit)| metric_json(name, out.layers.get(name), unit))
            .collect()
    } else {
        END_TO_END
            .iter()
            .zip(e2e)
            .map(|(&(name, unit), v)| metric_json(name, v, unit))
            .collect()
    };
    for r in &f.reasons {
        eprintln!("check failed: {r}");
    }
    let correct = f.failed == 0 && f.attempted > 0;
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        f.attempted.max(1),
        f.failed,
        fields.join(",")
    );
    correct
}
