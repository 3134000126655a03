//! The benchmark's own open-loop load generator.
//!
//! Request `i` is due at `start + i / rate`, whatever happened to the
//! requests before it, and its latency runs from that due time to the
//! end of its response. A stall therefore shows up in the latency of
//! every request it delays, not only in the one that hit it (no
//! coordinated omission), and how far the generator itself fell behind
//! is reported as the largest lateness.

use crate::Failures;
use asched_serve::http_request;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::time::{Duration, Instant};

/// Socket timeout for one request (connect, and each read and write).
const TIMEOUT: Duration = Duration::from_secs(10);

/// What a correct response to one body carries.
#[derive(Clone, Debug)]
pub struct Expected {
    /// Library makespan of each task in the body, in order.
    pub makespans: Vec<u64>,
    /// Trace nodes in the body.
    pub nodes: u64,
}

/// Outcome of one open-loop run.
#[derive(Default, Debug)]
pub struct LoadResult {
    /// Raw latencies from due time to response end, in microseconds,
    /// in request order.
    pub latency_us: Vec<f64>,
    /// Largest delay between a request's due time and its send.
    pub late_max_us: f64,
    pub failures: Failures,
    /// Trace nodes and emitted-code cycles over correct responses.
    pub nodes: u64,
    pub cycles: u64,
    /// From the first due time to the last response.
    pub wall_s: f64,
}

/// Send `requests` requests at `rate` per second from `clients`
/// threads, one connection per request. Request `i` carries
/// `bodies[i % bodies.len()]`.
pub fn open_loop(
    addr: SocketAddr,
    bodies: &[String],
    expected: &[Expected],
    rate: f64,
    requests: usize,
    clients: usize,
) -> LoadResult {
    let next = AtomicUsize::new(0);
    // A short lead lets every client thread start before the first due time.
    let start = Instant::now() + Duration::from_millis(5);
    let parts: Vec<(LoadResult, Vec<usize>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients.max(1))
            .map(|_| {
                scope.spawn(|| {
                    let mut part = LoadResult::default();
                    let mut index = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Relaxed);
                        if i >= requests {
                            break;
                        }
                        let due = start + Duration::from_secs_f64(i as f64 / rate);
                        if let Some(wait) = due.checked_duration_since(Instant::now()) {
                            std::thread::sleep(wait);
                        }
                        let late = Instant::now().saturating_duration_since(due);
                        part.late_max_us = part.late_max_us.max(late.as_secs_f64() * 1e6);
                        let body = &bodies[i % bodies.len()];
                        let resp = http_request(
                            addr,
                            "POST",
                            "/v1/schedule",
                            &[],
                            body.as_bytes(),
                            TIMEOUT,
                        );
                        part.latency_us.push(due.elapsed().as_secs_f64() * 1e6);
                        index.push(i);
                        let want = &expected[i % expected.len()];
                        let verdict = resp
                            .map_err(|e| format!("connection: {e}"))
                            .and_then(|r| check_response(r.status, &r.text(), want));
                        match verdict {
                            Ok(cycles) => {
                                part.failures.ok();
                                part.nodes += want.nodes;
                                part.cycles += cycles;
                            }
                            Err(e) => part.failures.fail(format!("request {i}: {e}")),
                        }
                    }
                    (part, index)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load client panicked"))
            .collect()
    });
    let mut total = LoadResult {
        wall_s: start.elapsed().as_secs_f64(),
        ..LoadResult::default()
    };
    let mut ordered = Vec::with_capacity(requests);
    for (p, index) in parts {
        ordered.extend(index.into_iter().zip(p.latency_us));
        total.late_max_us = total.late_max_us.max(p.late_max_us);
        total.failures.absorb(p.failures);
        total.nodes += p.nodes;
        total.cycles += p.cycles;
    }
    ordered.sort_unstable_by_key(|&(i, _)| i);
    total.latency_us = ordered.into_iter().map(|(_, l)| l).collect();
    total
}

/// Check one `POST /v1/schedule` response: status 200, nothing
/// degraded or failed, every task's makespan equal to the library's.
/// Returns the summed makespans.
pub fn check_response(status: u16, body: &str, want: &Expected) -> Result<u64, String> {
    if status != 200 {
        return Err(format!("status {status}"));
    }
    for key in ["degraded", "failed"] {
        if json_u64s(body, key).first() != Some(&0) {
            return Err(format!("response reports {key} tasks"));
        }
    }
    let got = json_u64s(body, "makespan");
    if got != want.makespans {
        return Err(format!("makespans {got:?} != library {:?}", want.makespans));
    }
    Ok(got.iter().sum())
}

/// Every unsigned integer value of `"key":` in `body`, in order.
fn json_u64s(body: &str, key: &str) -> Vec<u64> {
    let pat = format!("\"{key}\":");
    body.match_indices(&pat)
        .filter_map(|(at, _)| {
            let rest = &body[at + pat.len()..];
            let end = rest
                .find(|c: char| !c.is_ascii_digit())
                .unwrap_or(rest.len());
            rest[..end].parse().ok()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const BODY: &str = r#"{"schema":"asched-serve-v1","count":2,"scheduled":1,"cached":1,"degraded":0,"failed":0,"tasks":[{"label":"a","outcome":"scheduled","makespan":17},{"label":"b","outcome":"cached","makespan":9}]}"#;

    #[test]
    fn accepts_matching_makespans() {
        let want = Expected {
            makespans: vec![17, 9],
            nodes: 60,
        };
        assert_eq!(check_response(200, BODY, &want), Ok(26));
    }

    #[test]
    fn rejects_wrong_status_makespan_or_degraded() {
        let want = Expected {
            makespans: vec![17, 9],
            nodes: 60,
        };
        assert!(check_response(503, BODY, &want).is_err());
        let other = Expected {
            makespans: vec![17, 8],
            nodes: 60,
        };
        assert!(check_response(200, BODY, &other).is_err());
        let degraded = BODY.replace("\"degraded\":0", "\"degraded\":1");
        assert!(check_response(200, &degraded, &want).is_err());
    }
}
