//! Task trees and the two executors that run them.
//!
//! A task tree is a set of seed tasks plus a `step` function that turns
//! one task body into an output and zero or more child bodies — the
//! paper's "repeatedly decoupled and sent to other processes until all
//! processes have sufficient work". A task's children are determined by
//! the task alone, so its *path* (the seed's path followed by the child
//! index taken at every split) is schedule-independent. Both executors
//! return outputs keyed and ordered by path; they differ only in who
//! runs which task when:
//!
//! * [`run_inline`] — one thread, depth-first in path order;
//! * [`run_task_tree`] — one rank per transport endpoint under the
//!   dynamic load balancer, results gathered to rank 0 and path-sorted.
//!
//! Anything assembled from the returned list is therefore identical no
//! matter which executor ran, on how many ranks, under which fault
//! schedule.

use crate::comm::{run_with, Comm, Src};
use crate::loadbalance::{run_rank_dynamic_traced, BalancerConfig, WorkItem, WorkQueue};
use crate::transport::Transport;
use adm_trace::Tracer;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Message tag of the gather that ships every rank's outputs to rank 0.
const GATHER_TAG: u64 = 0xFE;

/// A task body plus its position in the task tree. Seed paths are chosen
/// by the caller (equal-length, in ascending order); a child's path is
/// its parent's plus one byte, the child's index in the split.
#[derive(Clone)]
pub struct Task<B> {
    /// Position in the tree; sorting outputs by it restores tree order.
    pub path: Vec<u8>,
    /// The work itself.
    pub body: B,
}

impl<B> Task<B> {
    fn child(parent: &[u8], k: usize, body: B) -> Self {
        let mut path = Vec::with_capacity(parent.len() + 1);
        path.extend_from_slice(parent);
        path.push(u8::try_from(k).expect("more than 255 children in one split"));
        Task { path, body }
    }
}

impl<B: WorkItem> WorkItem for Task<B> {
    fn cost(&self) -> u64 {
        self.body.cost()
    }
}

/// Runs the tree on the calling thread, depth-first. Pre-order over
/// in-order children *is* lexicographic path order, so the outputs come
/// out already sorted — no transport, no balancer, no sort.
pub fn run_inline<B, R>(
    seeds: Vec<Task<B>>,
    mut step: impl FnMut(B) -> (R, Vec<B>),
) -> Vec<(Vec<u8>, R)> {
    let mut outs = Vec::new();
    let mut stack = seeds;
    stack.reverse();
    while let Some(Task { path, body }) = stack.pop() {
        let (out, children) = step(body);
        stack.extend(
            children
                .into_iter()
                .enumerate()
                .rev()
                .map(|(k, body)| Task::child(&path, k, body)),
        );
        outs.push((path, out));
    }
    outs
}

/// Runs the tree on `transport.size()` ranks under the dynamic load
/// balancer: rank 0 starts with every seed, a split pushes its children
/// back into the local queue (from where the balancer may ship them to
/// other ranks), and every rank's outputs are gathered to rank 0 and
/// sorted by path. `step` also receives the executing rank, for trace
/// lanes only — its result must not depend on it.
pub fn run_task_tree<B, R, F>(
    transport: Arc<dyn Transport>,
    balancer: BalancerConfig,
    seeds: Vec<Task<B>>,
    tracer: Option<&Tracer>,
    step: F,
) -> Vec<(Vec<u8>, R)>
where
    B: WorkItem,
    R: Send + 'static,
    F: Fn(usize, B) -> (R, Vec<B>) + Sync,
{
    let window = transport.window(transport.size() + 2);
    let seeds = Mutex::new(Some(seeds));
    let mut gathered = run_with(transport, |comm: Comm| {
        let initial = if comm.rank() == 0 {
            seeds
                .lock()
                .expect("no rank panics while holding the seed list")
                .take()
                .expect("rank 0 runs once")
        } else {
            Vec::new()
        };
        let queue = Arc::new(WorkQueue::with_counter(
            initial,
            window.clone(),
            comm.size() + 1,
        ));
        let (outs, _stats) = run_rank_dynamic_traced(
            &comm,
            queue,
            window.clone(),
            balancer,
            tracer.cloned(),
            |task: Task<B>, q| {
                // Charge the task's cost estimate as virtual compute so
                // simulated schedules exhibit realistic load imbalance
                // (free in production — the work took real time).
                comm.advance(Duration::from_micros(10 + task.cost().min(50_000)));
                let Task { path, body } = task;
                let (out, children) = step(comm.rank(), body);
                for (k, body) in children.into_iter().enumerate() {
                    q.push(Task::child(&path, k, body));
                }
                (path, out)
            },
        );
        if comm.rank() == 0 {
            let mut all = outs;
            for _ in 1..comm.size() {
                let (_src, mut v) = comm.recv::<Vec<(Vec<u8>, R)>>(Src::Any, GATHER_TAG);
                all.append(&mut v);
            }
            Some(all)
        } else {
            comm.send(0, GATHER_TAG, outs);
            None
        }
    });
    let mut all = gathered
        .swap_remove(0)
        .expect("rank 0 returns the gathered outputs");
    // Results arrive in whatever order ranks finished.
    all.sort_by(|a, b| a.0.cmp(&b.0));
    all
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::ThreadedTransport;

    /// A synthetic body: splits into `fanout` children until `depth` runs
    /// out. The label records the route taken, independently of `path`.
    #[derive(Clone)]
    struct Node {
        depth: u32,
        label: String,
    }

    impl WorkItem for Node {
        fn cost(&self) -> u64 {
            1 + self.depth as u64
        }
    }

    fn split(n: Node) -> (String, Vec<Node>) {
        let fanout = if n.depth == 0 { 0 } else { 2 + n.depth };
        let children = (0..fanout)
            .map(|k| Node {
                depth: n.depth - 1,
                label: format!("{}.{k}", n.label),
            })
            .collect();
        (n.label, children)
    }

    fn seeds() -> Vec<Task<Node>> {
        (0..3u8)
            .map(|i| Task {
                path: vec![i],
                body: Node {
                    depth: 2,
                    label: i.to_string(),
                },
            })
            .collect()
    }

    #[test]
    fn inline_executor_emits_outputs_in_path_order() {
        let outs = run_inline(seeds(), split);
        // Three levels: 3 seeds, 4 children each, 3 grandchildren each.
        assert_eq!(outs.len(), 3 + 3 * 4 + 3 * 4 * 3);
        assert!(outs.windows(2).all(|w| w[0].0 < w[1].0), "not path-sorted");
        for (path, label) in &outs {
            let route: Vec<String> = path.iter().map(|b| b.to_string()).collect();
            assert_eq!(&route.join("."), label, "path does not name the route");
        }
    }

    #[test]
    fn rank_executor_returns_the_inline_list_at_every_rank_count() {
        let want = run_inline(seeds(), split);
        for ranks in [1usize, 2, 4] {
            let got = run_task_tree(
                Arc::new(ThreadedTransport::new(ranks)),
                BalancerConfig::default(),
                seeds(),
                None,
                |_rank, n| split(n),
            );
            assert_eq!(got, want, "ranks = {ranks}");
        }
    }
}
