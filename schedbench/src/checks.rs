//! Output checks, run outside the timed phase.

use crate::rec::Spans;
use asched_core::{legal::window_violations, TraceResult};
use asched_graph::{DepGraph, MachineModel, NodeId, SchedCtx, SchedOpts};
use asched_sim::{simulate, InstStream, IssuePolicy};

/// What re-simulating one emitted schedule gave.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Resim {
    /// Completion cycle of the emitted code under the W-entry window.
    pub cycles: u64,
    /// Cycles in which work was pending but nothing issued.
    pub stall_cycles: u64,
    /// Window Constraint violations in the predicted permutation.
    pub predicted_window_violations: u64,
}

/// Check one `schedule_trace` result against its input:
///
/// * each emitted block order is a permutation of its block and keeps
///   every intra-block dependence in order;
/// * re-simulating the emitted block orders (inside a `sim.simulate`
///   span) reproduces the reported makespan;
/// * the simulated hardware kept to its W-entry window: no instruction
///   issued while one W or more positions earlier in the emitted code
///   was still unissued.
///
/// `core::legal::window_violations` on `TraceResult::permutation` is
/// counted, not checked: that permutation is the scheduler's
/// prediction, which the library documents as legal only in the
/// restricted case, and the emitted code is what runs.
pub fn check_trace(
    ctx: &mut SchedCtx,
    g: &DepGraph,
    machine: &MachineModel,
    res: &TraceResult,
    spans: &Spans,
) -> Result<Resim, String> {
    let blocks = g.blocks();
    if res.block_orders.len() != blocks.len() {
        return Err(format!(
            "{} block orders for {} blocks",
            res.block_orders.len(),
            blocks.len()
        ));
    }
    let mut pos = vec![usize::MAX; g.len()];
    for (order, &blk) in res.block_orders.iter().zip(&blocks) {
        let members = g.block_nodes(blk);
        if order.len() != members.len() {
            return Err(format!(
                "block {} emitted {} of {} nodes",
                blk.0,
                order.len(),
                members.len()
            ));
        }
        for (i, &id) in order.iter().enumerate() {
            if !members.contains(id) || pos[id.index()] != usize::MAX {
                return Err(format!("block {} order is not a permutation", blk.0));
            }
            pos[id.index()] = i;
        }
    }
    for id in g.node_ids() {
        for e in g.out_edges_li(id) {
            let same_block = g.node(e.src).block == g.node(e.dst).block;
            if same_block && pos[e.src.index()] > pos[e.dst.index()] {
                return Err(format!(
                    "dependence {} -> {} inverted in block {}",
                    e.src.index(),
                    e.dst.index(),
                    g.node(e.src).block.0
                ));
            }
        }
    }
    let stream = InstStream::from_blocks(&res.block_orders);
    let sim = spans.span("sim.simulate", || {
        simulate(
            ctx,
            g,
            machine,
            &stream,
            IssuePolicy::Strict,
            &SchedOpts::default(),
        )
    });
    if sim.completion != res.makespan {
        return Err(format!(
            "re-simulated {} cycles, result reports {}",
            sim.completion, res.makespan
        ));
    }
    issue_window_check(machine.window, &sim.issue)?;
    Ok(Resim {
        cycles: sim.completion,
        stall_cycles: sim.stall_cycles,
        predicted_window_violations: window_violations(g, &res.permutation, machine.window).len()
            as u64,
    })
}

/// Given the issue cycle of each position of an instruction stream,
/// check that every instruction issued in a later cycle than all
/// instructions `window` or more positions before it.
fn issue_window_check(window: usize, issue: &[u64]) -> Result<(), String> {
    let mut latest_old: Option<u64> = None;
    for p in window..issue.len() {
        let old = issue[p - window];
        latest_old = Some(latest_old.map_or(old, |l| l.max(old)));
        if latest_old >= Some(issue[p]) {
            return Err(format!(
                "position {p} issued at cycle {} while position {} or earlier was unissued",
                issue[p],
                p - window
            ));
        }
    }
    Ok(())
}

/// Simulate emitted block orders on the machine's W-entry window.
pub fn resimulate(
    ctx: &mut SchedCtx,
    g: &DepGraph,
    machine: &MachineModel,
    block_orders: &[Vec<NodeId>],
) -> Resim {
    let r = simulate(
        ctx,
        g,
        machine,
        &InstStream::from_blocks(block_orders),
        IssuePolicy::Strict,
        &SchedOpts::default(),
    );
    Resim {
        cycles: r.completion,
        stall_cycles: r.stall_cycles,
        predicted_window_violations: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asched_core::{schedule_trace, LookaheadConfig};
    use asched_workloads::{random_trace_dag, DagParams};

    fn instance() -> (DepGraph, MachineModel, TraceResult) {
        let g = random_trace_dag(&DagParams {
            nodes: 48,
            blocks: 6,
            max_latency: 2,
            ..DagParams::default()
        });
        let m = MachineModel::single_unit(4);
        let mut ctx = SchedCtx::new();
        let r = schedule_trace(
            &mut ctx,
            &g,
            &m,
            &LookaheadConfig::default(),
            &SchedOpts::default(),
        )
        .unwrap();
        (g, m, r)
    }

    #[test]
    fn a_library_result_passes() {
        let (g, m, r) = instance();
        let got = check_trace(&mut SchedCtx::new(), &g, &m, &r, &Spans::new(false)).unwrap();
        assert_eq!(got.cycles, r.makespan);
    }

    #[test]
    fn tampered_results_fail() {
        let (g, m, r) = instance();
        let mut ctx = SchedCtx::new();
        let off = Spans::new(false);
        let mut wrong = r.clone();
        wrong.makespan += 1;
        assert!(check_trace(&mut ctx, &g, &m, &wrong, &off).is_err());
        let mut dup = r.clone();
        dup.block_orders[0][0] = dup.block_orders[0][1];
        assert!(check_trace(&mut ctx, &g, &m, &dup, &off).is_err());
    }

    #[test]
    fn issuing_past_the_window_fails() {
        // One instruction per cycle, in order: always inside the window.
        let in_order: Vec<u64> = (0..12).collect();
        assert!(issue_window_check(4, &in_order).is_ok());
        // Position 4 overtakes position 0 of a 4-entry window.
        let mut early = in_order.clone();
        early[4] = 0;
        assert!(issue_window_check(4, &early).is_err());
        // Within the window, overtaking is what the hardware does.
        let mut inside = in_order;
        inside.swap(0, 3);
        assert!(issue_window_check(4, &inside).is_ok());
    }
}
