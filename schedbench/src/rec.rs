//! The benchmark's own instrumentation: a [`Recorder`] that tallies the
//! scheduler's events, and in-memory spans around the harness's calls
//! into each layer.
//!
//! Both are off in the untraced run, so the end-to-end numbers are
//! measured with the recorder reporting `enabled() == false`, exactly
//! as a caller without tracing sees the library.

use asched_obs::{Event, Recorder};
use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Mutex;
use std::time::Instant;

/// Event counts summed over everything the recorder saw. Statistics
/// only, so every atomic is `Relaxed`: no other data is published
/// through them.
#[derive(Default)]
pub struct Tally {
    on: bool,
    pub rank_runs: AtomicU64,
    pub ranked_nodes: AtomicU64,
    pub idle_moves_applied: AtomicU64,
    pub blocks: AtomicU64,
    pub carried_sum: AtomicU64,
    pub carried_max: AtomicU64,
    pub merge_probes: AtomicU64,
    pub chop_emitted: AtomicU64,
    server_spans: Mutex<ServerSpans>,
}

/// Raw durations of the serving tier's `request` and `queue` spans.
#[derive(Default)]
struct ServerSpans {
    open: HashMap<u64, bool>, // span id -> is a `request` root
    request_ns: Vec<u64>,
    queue_ns: Vec<u64>,
}

impl Tally {
    /// A tally that asks for events (`on`) or reports itself disabled.
    pub fn new(on: bool) -> Self {
        Tally {
            on,
            ..Tally::default()
        }
    }

    /// Raw `request` and `queue` span durations, in nanoseconds.
    pub fn server_spans(&self) -> (Vec<u64>, Vec<u64>) {
        let s = self.server_spans.lock().expect("span map lock poisoned");
        (s.request_ns.clone(), s.queue_ns.clone())
    }
}

impl Recorder for Tally {
    fn enabled(&self) -> bool {
        self.on
    }

    fn record(&self, event: &Event<'_>) {
        match *event {
            Event::RankRun { nodes, .. } => {
                self.rank_runs.fetch_add(1, Relaxed);
                self.ranked_nodes.fetch_add(nodes.into(), Relaxed);
            }
            Event::IdleMove { moved: true, .. } => {
                self.idle_moves_applied.fetch_add(1, Relaxed);
            }
            Event::BlockBegin { carried, .. } => {
                self.blocks.fetch_add(1, Relaxed);
                self.carried_sum.fetch_add(carried.into(), Relaxed);
                self.carried_max.fetch_max(carried.into(), Relaxed);
            }
            Event::MergeProbe { .. } => {
                self.merge_probes.fetch_add(1, Relaxed);
            }
            Event::Chop { emitted, .. } => {
                self.chop_emitted.fetch_add(emitted.into(), Relaxed);
            }
            Event::SpanStart { span, name, .. } if name == "request" || name == "queue" => {
                let mut s = self.server_spans.lock().expect("span map lock poisoned");
                s.open.insert(span, name == "request");
            }
            Event::SpanEnd { span, nanos } => {
                let mut s = self.server_spans.lock().expect("span map lock poisoned");
                match s.open.remove(&span) {
                    Some(true) => s.request_ns.push(nanos),
                    Some(false) => s.queue_ns.push(nanos),
                    None => {}
                }
            }
            _ => {}
        }
    }
}

/// One harness span: a call from the benchmark into a layer.
struct Span {
    name: &'static str,
    parent: Option<usize>,
    nanos: u64,
}

/// Spans recorded on the harness thread, kept in memory until the run
/// ends. Disabled spans cost one branch.
pub struct Spans {
    on: bool,
    list: RefCell<Vec<Span>>,
    stack: RefCell<Vec<usize>>,
}

/// Per-name totals of the recorded spans.
#[derive(Clone, Copy, Default, Debug)]
pub struct SpanTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Spans {
    pub fn new(on: bool) -> Self {
        Spans {
            on,
            list: RefCell::new(Vec::new()),
            stack: RefCell::new(Vec::new()),
        }
    }

    /// Run `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let id = {
            let mut list = self.list.borrow_mut();
            list.push(Span {
                name,
                parent: self.stack.borrow().last().copied(),
                nanos: 0,
            });
            list.len() - 1
        };
        self.stack.borrow_mut().push(id);
        let start = Instant::now();
        let out = f();
        let nanos = start.elapsed().as_nanos() as u64;
        self.stack.borrow_mut().pop();
        self.list.borrow_mut()[id].nanos = nanos;
        out
    }

    /// Count, inclusive time and self time (inclusive minus the time
    /// covered by child spans) per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        let list = self.list.borrow();
        let mut child_ns = vec![0u64; list.len()];
        for s in list.iter() {
            if let Some(p) = s.parent {
                child_ns[p] += s.nanos;
            }
        }
        let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (i, s) in list.iter().enumerate() {
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += s.nanos;
            t.self_ns += s.nanos.saturating_sub(child_ns[i]);
        }
        out
    }
}
