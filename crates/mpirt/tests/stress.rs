//! Stress tests for the runtime: randomized workloads, many ranks,
//! dynamic work creation, exactly-once processing.

use adm_mpirt::{
    run, run_balanced, BalancerConfig, Executor, Pool, Src, Task, Window, WorkItem, WorkQueue,
};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

#[derive(Debug, Clone)]
struct Job {
    id: usize,
    cost: u64,
    spawn: usize,
}
impl WorkItem for Job {
    fn cost(&self) -> u64 {
        self.cost
    }
}

/// Concurrency of the pool executor, without a clock: each of two seed
/// tasks waits for the other to arrive, so one thread running them in
/// turn gives up waiting inside the first.
#[test]
fn pool_executor_runs_sibling_tasks_concurrently() {
    let arrived = AtomicUsize::new(0);
    let meet = |_: Job, _lane| {
        arrived.fetch_add(1, Ordering::SeqCst);
        let t0 = std::time::Instant::now();
        while arrived.load(Ordering::SeqCst) < 2 && t0.elapsed() < Duration::from_secs(30) {
            std::thread::yield_now();
        }
        (arrived.load(Ordering::SeqCst), Vec::new())
    };
    let body = Job {
        id: 0,
        cost: 1,
        spawn: 0,
    };
    let seeds = [0u8, 1].map(|i| Task {
        path: vec![i],
        body: body.clone(),
    });
    let tracer = adm_trace::Tracer::wall();
    let outs = Executor::Pool.run(seeds.into(), &Pool::new(1), &tracer, meet);
    assert_eq!(outs, [(vec![0], 2), (vec![1], 2)]);
}

#[test]
fn randomized_dynamic_workload_processes_exactly_once() {
    use rand::{Rng, SeedableRng};
    const RANKS: usize = 6;
    let mut rng = rand::rngs::StdRng::seed_from_u64(123);
    // Seeds spawn a known number of children so the total is fixed.
    let seeds: Vec<Job> = (0..20)
        .map(|id| Job {
            id,
            cost: rng.gen_range(1..50),
            spawn: id % 3,
        })
        .collect();
    let total_children: usize = seeds.iter().map(|j| j.spawn).sum();
    let total = seeds.len() + total_children;
    let next_id = Arc::new(AtomicUsize::new(seeds.len()));
    let window = Window::new(RANKS + 2);
    let seeds = Mutex::new(Some(seeds));

    let results = run(RANKS, |comm| {
        let initial = if comm.rank() == 0 {
            seeds.lock().unwrap().take().unwrap()
        } else {
            Vec::new()
        };
        let queue = Arc::new(WorkQueue::with_counter(initial, window.clone(), RANKS + 1));
        let next_id = next_id.clone();
        let (ids, stats) = run_balanced(
            &comm,
            queue,
            window.clone(),
            BalancerConfig {
                threshold: 30,
                poll: Duration::from_micros(100),
            },
            None,
            move |job, q| {
                std::thread::sleep(Duration::from_micros(20 * job.cost));
                for _ in 0..job.spawn {
                    let id = next_id.fetch_add(1, Ordering::Relaxed);
                    q.push(Job {
                        id,
                        cost: 5,
                        spawn: 0,
                    });
                }
                job.id
            },
        );
        (ids, stats)
    });
    let mut all: Vec<usize> = results.iter().flat_map(|(ids, _)| ids.clone()).collect();
    all.sort_unstable();
    all.dedup();
    assert_eq!(all.len(), total, "lost or duplicated work");
    // Conservation of transfers.
    let donated: usize = results.iter().map(|(_, s)| s.items_donated).sum();
    let received: usize = results.iter().map(|(_, s)| s.items_received).sum();
    assert_eq!(donated, received);
}

#[test]
fn heavily_skewed_costs_still_terminate() {
    const RANKS: usize = 4;
    let window = Window::new(RANKS + 2);
    let jobs = Mutex::new(Some(
        (0..30)
            .map(|id| Job {
                id,
                cost: if id == 0 { 10_000 } else { 1 },
                spawn: 0,
            })
            .collect::<Vec<_>>(),
    ));
    let results = run(RANKS, |comm| {
        let initial = if comm.rank() == 0 {
            jobs.lock().unwrap().take().unwrap()
        } else {
            Vec::new()
        };
        let queue = Arc::new(WorkQueue::with_counter(initial, window.clone(), RANKS + 1));
        run_balanced(
            &comm,
            queue,
            window.clone(),
            BalancerConfig::default(),
            None,
            |job, _| {
                // The huge job sleeps a bounded amount in tests.
                std::thread::sleep(Duration::from_micros(job.cost.min(2000)));
                job.id
            },
        )
        .0
    });
    let processed: usize = results.iter().map(|v| v.len()).sum();
    assert_eq!(processed, 30);
}

#[test]
fn many_ranks_with_no_work_terminate() {
    const RANKS: usize = 8;
    let window = Window::new(RANKS + 2);
    let results = run(RANKS, |comm| {
        // Zero total items: every rank must exit promptly.
        let queue: Arc<WorkQueue<Job>> = Arc::new(WorkQueue::with_counter(
            Vec::new(),
            window.clone(),
            RANKS + 1,
        ));
        run_balanced(
            &comm,
            queue,
            window.clone(),
            BalancerConfig::default(),
            None,
            |job: Job, _| job.id,
        )
        .0
        .len()
    });
    assert!(results.iter().all(|&n| n == 0));
}

#[test]
fn messages_interleave_with_balancing() {
    // The LB tag must not interfere with user messages on other tags.
    const RANKS: usize = 3;
    let window = Window::new(RANKS + 2);
    let results = run(RANKS, |comm| {
        let initial: Vec<Job> = if comm.rank() == 0 {
            (0..12)
                .map(|id| Job {
                    id,
                    cost: 3,
                    spawn: 0,
                })
                .collect()
        } else {
            Vec::new()
        };
        let queue = Arc::new(WorkQueue::with_counter(initial, window.clone(), RANKS + 1));
        let (ids, _) = run_balanced(
            &comm,
            queue,
            window.clone(),
            BalancerConfig::default(),
            None,
            |job, _| {
                std::thread::sleep(Duration::from_micros(100));
                job.id
            },
        );
        // Post-balancing user traffic on a distinct tag.
        comm.send((comm.rank() + 1) % comm.size(), 777, ids.len() as u64);
        let (_, n) = comm.recv::<u64>(Src::Any, 777);
        (ids.len(), n)
    });
    let total: usize = results.iter().map(|(n, _)| n).sum();
    assert_eq!(total, 12);
    let relayed: u64 = results.iter().map(|(_, n)| *n).sum();
    assert_eq!(relayed as usize, total);
}

mod dynamic_mode {
    use adm_mpirt::{run, run_balanced, BalancerConfig, Window, WorkItem, WorkQueue};
    use std::sync::{Arc, Mutex};
    use std::time::Duration;

    /// A binary-splitting task: value n spawns n/2 twice until n == 1.
    #[derive(Debug, Clone)]
    struct Split(u64);
    impl WorkItem for Split {
        fn cost(&self) -> u64 {
            self.0
        }
    }

    #[test]
    fn recursive_splitting_terminates_and_covers_all_leaves() {
        const RANKS: usize = 4;
        const ROOT: u64 = 64; // 64 leaves of value 1; 127 tasks total
        let window = Window::new(RANKS + 2);
        let seed = Mutex::new(Some(vec![Split(ROOT)]));
        let results = run(RANKS, |comm| {
            let initial = if comm.rank() == 0 {
                seed.lock().unwrap().take().unwrap()
            } else {
                Vec::new()
            };
            let queue = Arc::new(WorkQueue::with_counter(
                initial,
                window.clone(),
                comm.size() + 1,
            ));
            let (leaves, stats) = run_balanced(
                &comm,
                queue,
                window.clone(),
                BalancerConfig {
                    threshold: 8,
                    poll: Duration::from_micros(100),
                },
                None,
                |task: Split, q| {
                    std::thread::sleep(Duration::from_micros(50));
                    if task.0 > 1 {
                        q.push(Split(task.0 / 2));
                        q.push(Split(task.0 / 2));
                        0u64
                    } else {
                        1u64
                    }
                },
            );
            (leaves.iter().sum::<u64>(), stats)
        });
        let leaves: u64 = results.iter().map(|(n, _)| n).sum();
        assert_eq!(leaves, ROOT, "leaf count mismatch");
        let processed: usize = results.iter().map(|(_, s)| s.processed).sum();
        assert_eq!(processed as u64, 2 * ROOT - 1, "task count mismatch");
        // The tree actually spread across ranks.
        let busy_ranks = results.iter().filter(|(_, s)| s.processed > 0).count();
        assert!(busy_ranks >= 2, "no distribution happened");
    }

    #[test]
    fn dynamic_mode_with_empty_seed_on_all_but_root() {
        const RANKS: usize = 3;
        let window = Window::new(RANKS + 2);
        let seed = Mutex::new(Some(vec![Split(1), Split(1), Split(1)]));
        let results = run(RANKS, |comm| {
            let initial = if comm.rank() == 0 {
                seed.lock().unwrap().take().unwrap()
            } else {
                Vec::new()
            };
            let queue = Arc::new(WorkQueue::with_counter(
                initial,
                window.clone(),
                comm.size() + 1,
            ));
            run_balanced(
                &comm,
                queue,
                window.clone(),
                BalancerConfig::default(),
                None,
                |t: Split, _| t.0,
            )
            .0
            .len()
        });
        assert_eq!(results.iter().sum::<usize>(), 3);
    }
}
