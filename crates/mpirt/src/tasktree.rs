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
//! * [`Executor::Pool`] — fork–join on the caller's [`Pool`]: siblings run
//!   concurrently; at width 0, one thread, depth-first in path order;
//! * [`Executor::Ranks`] — one rank per transport endpoint under the
//!   dynamic load balancer, results gathered to rank 0 and path-sorted.
//!
//! Anything assembled from the returned list is therefore identical no
//! matter which executor ran, on how many ranks, under which fault
//! schedule.

use crate::comm::{run_with, Comm, Src};
use crate::loadbalance::{run_balanced, BalancerConfig, WorkItem, WorkQueue};
use crate::pool::Pool;
use crate::transport::{ThreadedTransport, Transport, TransportClock};
use adm_trace::{Tracer, Track};
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
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
    /// The calling thread plus the workers of `run`'s pool, fork–join.
    Pool,
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

    /// A tracer on the executor's clock: wall time on a pool and on threads,
    /// virtual time on the simulator — which makes the whole trace (and
    /// its fingerprint) replay-stable under a seeded schedule.
    pub fn tracer(&self) -> Tracer {
        match self {
            Executor::Pool => Tracer::wall(),
            Executor::Ranks(transport, _) => {
                Tracer::new(Arc::new(TransportClock::new(transport.clone())))
            }
        }
    }

    /// Runs the tree; only [`Executor::Pool`] forks on `pool`. `step` is
    /// told which lane its spans go to — the running thread's: the caller's,
    /// a pool worker's, or the executing rank's mesher lane; its result must
    /// not depend on it. A task's panic leaves `run` after its siblings end.
    pub fn run<B: WorkItem, R: Send + 'static>(
        self,
        seeds: Vec<Task<B>>,
        pool: &Pool,
        tracer: &Tracer,
        step: impl Fn(B, Track) -> (R, Vec<B>) + Sync,
    ) -> Vec<(Vec<u8>, R)> {
        match self {
            Executor::Pool => {
                let mut outs = Vec::new();
                run_on_pool(seeds, pool, std::thread::current().id(), &step, &mut outs);
                outs
            }
            Executor::Ranks(transport, balancer) => {
                run_task_tree(transport, balancer, seeds, tracer, step)
            }
        }
    }
}

/// Runs the sibling list `tasks` and all below it, appending to `outs`:
/// one task is stepped on the running thread and its children walked,
/// several are halved and the halves `join`ed. Pre-order over in-order
/// halves *is* lexicographic path order, so the outputs come out already
/// sorted — no sort — and an inline pool walks depth-first on the caller.
fn run_on_pool<B: Send, R: Send>(
    mut tasks: Vec<Task<B>>,
    pool: &Pool,
    driver: ThreadId,
    step: &(impl Fn(B, Track) -> (R, Vec<B>) + Sync),
    outs: &mut Vec<(Vec<u8>, R)>,
) {
    if tasks.len() > 1 {
        let right = tasks.split_off(tasks.len() / 2);
        let mut right_outs = Vec::new();
        pool.join(
            || run_on_pool(tasks, pool, driver, step, outs),
            || run_on_pool(right, pool, driver, step, &mut right_outs),
        );
        outs.append(&mut right_outs);
    } else if let Some(Task { path, body }) = tasks.pop() {
        // The running thread's lane (`run`'s caller alone has the driver
        // lane); no task span is open across a `join`, so lanes nest.
        let track = if std::thread::current().id() == driver {
            Track::ROOT
        } else {
            Track::pool_worker(pool.current_lane())
        };
        let (out, children) = step(body, track);
        let child = |(k, body)| Task::child(&path, k, body);
        let children = children.into_iter().enumerate().map(child).collect();
        outs.push((path, out));
        run_on_pool(children, pool, driver, step, outs);
    }
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

    fn seed(i: u8, depth: u32) -> Task<Node> {
        let label = i.to_string();
        Task {
            path: vec![i],
            body: Node { depth, label },
        }
    }

    fn seeds() -> Vec<Task<Node>> {
        (0..3).map(|i| seed(i, 2)).collect()
    }

    fn on_pool(width: usize, seeds: Vec<Task<Node>>) -> Vec<(Vec<u8>, String)> {
        Executor::Pool.run(seeds, &Pool::new(width), &Tracer::wall(), split)
    }

    #[test]
    fn width_0_pool_executor_emits_outputs_in_path_order() {
        let outs = on_pool(0, seeds());
        // Three levels: 3 seeds, 4 children each, 3 grandchildren each.
        assert_eq!(outs.len(), 3 + 3 * 4 + 3 * 4 * 3);
        assert!(outs.windows(2).all(|w| w[0].0 < w[1].0), "not path-sorted");
        for (path, label) in &outs {
            let route: Vec<String> = path.iter().map(|b| b.to_string()).collect();
            assert_eq!(&route.join("."), label, "path does not name the route");
        }
    }

    #[test]
    fn pool_executor_returns_the_width_0_list_at_every_width() {
        // Lopsided: one seed four levels deep, five leaves beside it.
        let lopsided = (0..6).map(|i| seed(i, if i == 0 { 3 } else { 0 }));
        for tree in [seeds(), vec![], lopsided.collect()] {
            let want = on_pool(0, tree.clone());
            for width in [1usize, 2, 4] {
                assert_eq!(on_pool(width, tree.clone()), want, "width = {width}");
            }
        }
    }

    #[test]
    fn a_panicking_task_surfaces_from_run_and_the_pool_stays_usable() {
        let pool = Pool::new(2);
        let run = |fail: &str| {
            let step = |n: Node, lane| {
                assert_ne!(n.label, fail, "task failed");
                split(n, lane)
            };
            let tree = || Executor::Pool.run(seeds(), &pool, &Tracer::wall(), step);
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(tree))
        };
        assert!(run("1.2.0").is_err());
        assert_eq!(run("no such task").unwrap(), on_pool(0, seeds()));
    }

    #[test]
    fn rank_executor_returns_the_pool_list_at_every_rank_count() {
        let want = on_pool(0, seeds());
        for ranks in [1usize, 2, 4] {
            let got = Executor::ranks(ranks).run(seeds(), &Pool::new(0), &Tracer::wall(), split);
            assert_eq!(got, want, "ranks = {ranks}");
        }
    }

    #[test]
    fn an_empty_tree_returns_at_once_under_both_executors() {
        let sim = crate::SimTransport::new(4, crate::FaultPlan::chaos(7));
        let sim = Executor::Ranks(Arc::new(sim), BalancerConfig::default());
        for executor in [Executor::Pool, Executor::ranks(4), sim] {
            let tracer = executor.tracer();
            let outs = executor.run(vec![], &Pool::new(0), &tracer, split);
            assert!(outs.is_empty());
        }
    }
}
