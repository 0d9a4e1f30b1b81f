//! Task trees and the two executors that run them.
//!
//! A task tree is a set of seed tasks plus a `step` function that turns
//! one task body into an output and zero or more child bodies — the
//! paper's "repeatedly decoupled and sent to other processes until all
//! processes have sufficient work". A task's children are determined by
//! the task alone, so its *path* (the seed's path followed by the child
//! index taken at every split) is schedule-independent. Both
//! [`Executor`]s return outputs keyed and ordered by path; they differ
//! only in who runs which task when:
//!
//! * [`Executor::Inline`] — one thread, depth-first in path order;
//! * [`Executor::Ranks`] — one rank per transport endpoint under the
//!   dynamic load balancer, results gathered to rank 0 and path-sorted.
//!
//! Anything assembled from the returned list is therefore identical no
//! matter which executor ran, on how many ranks, under which fault
//! schedule.

use crate::comm::{run_with, Comm, Src};
use crate::loadbalance::{run_balanced, BalancerConfig, WorkItem, WorkQueue};
use crate::transport::{ThreadedTransport, Transport, TransportClock};
use adm_trace::{Tracer, Track};
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

/// Who runs a task tree. Outputs come back in task-path order from both,
/// so the choice never shows in anything assembled from them.
pub enum Executor {
    /// The calling thread, depth-first.
    Inline,
    /// One rank per endpoint of the transport (threads in production,
    /// [`crate::SimTransport`] under fault injection), under the paper's
    /// dynamic load balancer.
    Ranks(Arc<dyn Transport>, BalancerConfig),
}

impl Executor {
    /// `ranks` threads on the production transport, default balancer.
    pub fn ranks(ranks: usize) -> Self {
        let transport = Arc::new(ThreadedTransport::new(ranks));
        Executor::Ranks(transport, BalancerConfig::default())
    }

    /// A tracer on the executor's clock: wall time inline and on threads,
    /// virtual time on the simulator — which makes the whole trace (and
    /// its fingerprint) replay-stable under a seeded schedule.
    pub fn tracer(&self) -> Tracer {
        match self {
            Executor::Inline => Tracer::wall(),
            Executor::Ranks(transport, _) => {
                Tracer::new(Arc::new(TransportClock::new(transport.clone())))
            }
        }
    }

    /// Runs the tree. `step` is told which lane its spans go to — the
    /// caller's, or the executing rank's mesher lane; its result must not
    /// depend on it.
    pub fn run<B: WorkItem, R: Send + 'static>(
        self,
        seeds: Vec<Task<B>>,
        tracer: &Tracer,
        step: impl Fn(B, Track) -> (R, Vec<B>) + Sync,
    ) -> Vec<(Vec<u8>, R)> {
        match self {
            Executor::Inline => run_inline(seeds, step),
            Executor::Ranks(transport, balancer) => {
                run_task_tree(transport, balancer, seeds, tracer, step)
            }
        }
    }
}

/// Runs the tree on the calling thread, depth-first. Pre-order over
/// in-order children *is* lexicographic path order, so the outputs come
/// out already sorted — no transport, no balancer, no sort.
fn run_inline<B, R>(
    seeds: Vec<Task<B>>,
    step: impl Fn(B, Track) -> (R, Vec<B>),
) -> Vec<(Vec<u8>, R)> {
    let mut outs = Vec::new();
    let mut stack = seeds;
    stack.reverse();
    while let Some(Task { path, body }) = stack.pop() {
        let (out, children) = step(body, Track::ROOT);
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
/// sorted by path.
fn run_task_tree<B: WorkItem, R: Send + 'static>(
    transport: Arc<dyn Transport>,
    balancer: BalancerConfig,
    seeds: Vec<Task<B>>,
    tracer: &Tracer,
    step: impl Fn(B, Track) -> (R, Vec<B>) + Sync,
) -> Vec<(Vec<u8>, R)> {
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
        let (outs, _stats) = run_balanced(
            &comm,
            queue,
            window.clone(),
            balancer,
            Some(tracer.clone()),
            |task: Task<B>, q| {
                // Charge the task's cost estimate as virtual compute so
                // simulated schedules exhibit realistic load imbalance
                // (free in production — the work took real time).
                comm.advance(Duration::from_micros(10 + task.cost().min(50_000)));
                let Task { path, body } = task;
                let (out, children) = step(body, Track::rank(comm.rank()));
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

    fn split(n: Node, _lane: Track) -> (String, Vec<Node>) {
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
        let outs = Executor::Inline.run(seeds(), &Tracer::wall(), split);
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
        let want = Executor::Inline.run(seeds(), &Tracer::wall(), split);
        for ranks in [1usize, 2, 4] {
            let got = Executor::ranks(ranks).run(seeds(), &Tracer::wall(), split);
            assert_eq!(got, want, "ranks = {ranks}");
        }
    }

    #[test]
    fn an_empty_tree_returns_at_once_under_both_executors() {
        let sim = crate::SimTransport::new(4, crate::FaultPlan::chaos(7));
        let sim = Executor::Ranks(Arc::new(sim), BalancerConfig::default());
        for executor in [Executor::Inline, Executor::ranks(4), sim] {
            let tracer = executor.tracer();
            assert!(executor.run(vec![], &tracer, split).is_empty());
        }
    }
}
