//! The discrete-event engine.
//!
//! Ranks process tasks from a local queue (largest estimated cost first,
//! per §IV's priority-queue policy); an idle rank's communicator requests
//! work from the currently most-loaded rank, paying request latency and
//! the task's transfer time — exactly the protocol of §II.F/§III with the
//! interconnect from [`crate::link`].

use crate::events::EventQueue;
use crate::link::LinkModel;

/// One unit of meshing work with its **measured** cost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Task {
    /// Measured processing time in seconds.
    pub cost_s: f64,
    /// Serialized size in bytes (for transfer costs).
    pub bytes: u64,
}

/// Local queue policy (ablation A4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Schedule {
    /// Largest estimated cost first (the paper's policy).
    LargestFirst,
    /// Arrival order.
    Fifo,
}

/// How tasks reach the ranks initially.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum InitialDist {
    /// Recursive-tree distribution (the decomposition itself): level `l`
    /// splits run on `2^l` ranks concurrently; each handoff pays a
    /// transfer of half the remaining payload. `split_cost_s_per_byte`
    /// models the measured splitting work per payload byte.
    Tree {
        /// Splitting cost per payload byte at each level.
        split_cost_s_per_byte: f64,
    },
    /// Round-robin static assignment (no distribution cost).
    RoundRobin,
    /// Everything starts on rank 0 (stress test for the balancer).
    AllOnRoot,
}

/// Simulation parameters.
#[derive(Debug, Clone, Copy)]
pub struct SimConfig {
    /// Interconnect model.
    pub link: LinkModel,
    /// A rank requests work when its remaining queued cost falls below
    /// this many seconds (the communicator pre-fetches work before the
    /// mesher runs dry).
    pub lb_threshold_s: f64,
    /// Communicator poll interval (delay before re-requesting after a
    /// deny).
    pub poll_s: f64,
    /// Enable the dynamic load balancer.
    pub steal: bool,
    /// Queue policy.
    pub schedule: Schedule,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            link: LinkModel::fdr_infiniband(),
            lb_threshold_s: 0.05,
            poll_s: 100e-6,
            steal: true,
            schedule: Schedule::LargestFirst,
        }
    }
}

/// One executed task occurrence: which rank ran it, and when. The
/// schedule benches export these as trace spans (one lane per simulated
/// rank in `about:tracing`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TaskInterval {
    /// Executing rank.
    pub rank: usize,
    /// Start time in seconds.
    pub start_s: f64,
    /// End time in seconds.
    pub end_s: f64,
}

/// Simulation output.
#[derive(Debug, Clone, PartialEq)]
pub struct SimResult {
    /// Wall-clock makespan in seconds.
    pub makespan_s: f64,
    /// Number of successful work transfers.
    pub steals: usize,
    /// Number of denied requests.
    pub denies: usize,
    /// Total idle time across ranks.
    pub idle_s: f64,
    /// Total communication time (transfers + RMA polling charged).
    pub comm_s: f64,
    /// Per-rank busy time.
    pub busy_s: Vec<f64>,
    /// Time when the initial distribution completed.
    pub setup_s: f64,
    /// Every executed task, in start order.
    pub intervals: Vec<TaskInterval>,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Event {
    /// Rank finishes its current task.
    Finish { rank: usize },
    /// A work request from `from` arrives at `victim`.
    Request { from: usize, victim: usize },
    /// A reply (work or deny) arrives back at `rank`.
    Reply { rank: usize, task: Option<Task> },
    /// A denied rank retries after its poll interval.
    Retry { rank: usize },
}

struct RankState {
    queue: Vec<Task>,
    /// Remaining queued cost.
    load_s: f64,
    busy_until: Option<f64>,
    waiting_reply: bool,
    busy_s: f64,
    idle_since: Option<f64>,
}

impl RankState {
    fn pop(&mut self, schedule: Schedule) -> Option<Task> {
        if self.queue.is_empty() {
            return None;
        }
        let idx = match schedule {
            Schedule::Fifo => 0,
            Schedule::LargestFirst => {
                let mut best = 0;
                for (i, t) in self.queue.iter().enumerate() {
                    if t.cost_s > self.queue[best].cost_s {
                        best = i;
                    }
                }
                best
            }
        };
        let t = self.queue.remove(idx);
        self.load_s -= t.cost_s;
        Some(t)
    }

    /// Donation policy: give away the largest queued item, keeping one in
    /// reserve only when the mesher is idle (a busy mesher's in-flight
    /// task is the reserve — the communicator "requests additional work
    /// before the mesher thread runs out", so symmetric donors may hand
    /// over their last queued item while still working).
    fn donate(&mut self) -> Option<Task> {
        let reserve = if self.busy_until.is_some() { 1 } else { 2 };
        if self.queue.len() < reserve {
            return None;
        }
        let mut best = 0;
        for (i, t) in self.queue.iter().enumerate() {
            if t.cost_s > self.queue[best].cost_s {
                best = i;
            }
        }
        let t = self.queue.remove(best);
        self.load_s -= t.cost_s;
        Some(t)
    }
}

/// Runs the simulation for `p` ranks over `tasks`.
pub fn simulate(p: usize, tasks: &[Task], dist: InitialDist, cfg: &SimConfig) -> SimResult {
    assert!(p >= 1);
    let mut ranks: Vec<RankState> = (0..p)
        .map(|_| RankState {
            queue: Vec::new(),
            load_s: 0.0,
            busy_until: None,
            waiting_reply: false,
            busy_s: 0.0,
            idle_since: None,
        })
        .collect();

    // Initial distribution.
    let total_bytes: u64 = tasks.iter().map(|t| t.bytes).sum();
    let setup_s = match dist {
        InitialDist::RoundRobin => {
            for (i, t) in tasks.iter().enumerate() {
                let r = i % p;
                ranks[r].queue.push(*t);
                ranks[r].load_s += t.cost_s;
            }
            0.0
        }
        InitialDist::AllOnRoot => {
            for t in tasks {
                ranks[0].queue.push(*t);
                ranks[0].load_s += t.cost_s;
            }
            0.0
        }
        InitialDist::Tree {
            split_cost_s_per_byte,
        } => {
            // Balanced recursive halving over log2(p) levels: at level l,
            // the active ranks each split their payload and ship half to a
            // partner. Per-level time = split of the local payload plus
            // the transfer of half of it; payload halves every level.
            for (i, t) in tasks.iter().enumerate() {
                let r = i % p;
                ranks[r].queue.push(*t);
                ranks[r].load_s += t.cost_s;
            }
            let levels = (p as f64).log2().ceil() as u32;
            let mut time = 0.0;
            let mut payload = total_bytes as f64;
            for _ in 0..levels {
                time += payload * split_cost_s_per_byte;
                time += cfg.link.transfer_s((payload / 2.0) as u64);
                payload /= 2.0;
            }
            time
        }
    };

    let mut events: EventQueue<f64, Event> = EventQueue::new();

    let mut steals = 0usize;
    let mut denies = 0usize;
    let mut idle_s = 0.0;
    let mut comm_s = 0.0;
    let mut remaining = tasks.len();
    let mut intervals: Vec<TaskInterval> = Vec::with_capacity(tasks.len());
    let mut now;

    // Start every rank at setup completion.
    for r in 0..p {
        if let Some(task) = ranks[r].pop(cfg.schedule) {
            ranks[r].busy_until = Some(setup_s + task.cost_s);
            ranks[r].busy_s += task.cost_s;
            intervals.push(TaskInterval {
                rank: r,
                start_s: setup_s,
                end_s: setup_s + task.cost_s,
            });
            events.push(setup_s + task.cost_s, Event::Finish { rank: r });
        } else {
            ranks[r].idle_since = Some(setup_s);
        }
        // Idle ranks with stealing enabled request immediately.
        if cfg.steal && ranks[r].busy_until.is_none() {
            request_work(r, setup_s, p, &mut ranks, &mut events, cfg, &mut comm_s);
        }
    }

    let mut makespan = setup_s;
    while let Some((at, ev)) = events.pop() {
        now = at;
        makespan = makespan.max(now);
        match ev {
            Event::Finish { rank } => {
                remaining -= 1;
                ranks[rank].busy_until = None;
                // Pre-fetch: if the remaining load is under the threshold,
                // fire a request while still working (the communicator
                // thread overlaps with the mesher).
                if cfg.steal
                    && remaining > 0
                    && ranks[rank].load_s < cfg.lb_threshold_s
                    && !ranks[rank].waiting_reply
                {
                    request_work(rank, now, p, &mut ranks, &mut events, cfg, &mut comm_s);
                }
                if let Some(task) = ranks[rank].pop(cfg.schedule) {
                    ranks[rank].busy_until = Some(now + task.cost_s);
                    ranks[rank].busy_s += task.cost_s;
                    intervals.push(TaskInterval {
                        rank,
                        start_s: now,
                        end_s: now + task.cost_s,
                    });
                    events.push(now + task.cost_s, Event::Finish { rank });
                } else {
                    ranks[rank].idle_since = Some(now);
                }
            }
            Event::Request { from, victim } => {
                let reply_task = ranks[victim].donate();
                let delay = match &reply_task {
                    Some(t) => cfg.link.transfer_s(t.bytes),
                    None => cfg.link.transfer_s(16),
                };
                comm_s += delay;
                if reply_task.is_some() {
                    steals += 1;
                } else {
                    denies += 1;
                }
                events.push(
                    now + delay,
                    Event::Reply {
                        rank: from,
                        task: reply_task,
                    },
                );
            }
            Event::Reply { rank, task } => {
                ranks[rank].waiting_reply = false;
                match task {
                    Some(t) => {
                        ranks[rank].queue.push(t);
                        ranks[rank].load_s += t.cost_s;
                        if ranks[rank].busy_until.is_none() {
                            if let Some(since) = ranks[rank].idle_since.take() {
                                idle_s += now - since;
                            }
                            let task = ranks[rank].pop(cfg.schedule).expect("just pushed");
                            ranks[rank].busy_until = Some(now + task.cost_s);
                            ranks[rank].busy_s += task.cost_s;
                            intervals.push(TaskInterval {
                                rank,
                                start_s: now,
                                end_s: now + task.cost_s,
                            });
                            events.push(now + task.cost_s, Event::Finish { rank });
                        }
                    }
                    None => {
                        if remaining > 0 {
                            events.push(now + cfg.poll_s, Event::Retry { rank });
                        }
                    }
                }
            }
            Event::Retry { rank } => {
                if remaining > 0
                    && ranks[rank].load_s < cfg.lb_threshold_s
                    && !ranks[rank].waiting_reply
                {
                    request_work(rank, now, p, &mut ranks, &mut events, cfg, &mut comm_s);
                }
            }
        }
    }
    assert_eq!(remaining, 0, "simulation ended with unprocessed tasks");
    // Close out idle intervals.
    for r in &mut ranks {
        if let Some(since) = r.idle_since.take() {
            idle_s += makespan - since;
        }
    }
    SimResult {
        makespan_s: makespan,
        steals,
        denies,
        idle_s,
        comm_s,
        busy_s: ranks.iter().map(|r| r.busy_s).collect(),
        setup_s,
        intervals,
    }
}

fn request_work(
    rank: usize,
    now: f64,
    p: usize,
    ranks: &mut [RankState],
    events: &mut EventQueue<f64, Event>,
    cfg: &SimConfig,
    comm_s: &mut f64,
) {
    // Victim: the most loaded other rank (the RMA window read).
    let mut best: Option<(usize, f64)> = None;
    for (i, r) in ranks.iter().enumerate().take(p) {
        if i == rank {
            continue;
        }
        if r.load_s > 0.0 && best.is_none_or(|(_, b)| r.load_s > b) {
            best = Some((i, r.load_s));
        }
    }
    let Some((victim, _)) = best else { return };
    ranks[rank].waiting_reply = true;
    let delay = cfg.link.rma_op_s + cfg.link.transfer_s(16); // window read + request msg
    *comm_s += delay;
    events.push(now + delay, Event::Request { from: rank, victim });
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An infinitely fast network: only task costs and scheduling remain.
    fn ideal_link() -> LinkModel {
        LinkModel {
            latency_s: 0.0,
            bandwidth_bps: f64::INFINITY,
            rma_op_s: 0.0,
        }
    }

    fn uniform_tasks(n: usize, cost: f64, bytes: u64) -> Vec<Task> {
        (0..n)
            .map(|_| Task {
                cost_s: cost,
                bytes,
            })
            .collect()
    }

    #[test]
    fn single_rank_is_serial_sum() {
        let tasks = uniform_tasks(10, 0.5, 1000);
        let r = simulate(1, &tasks, InitialDist::RoundRobin, &SimConfig::default());
        assert!((r.makespan_s - 5.0).abs() < 1e-12);
        assert_eq!(r.steals, 0);
    }

    #[test]
    fn ideal_link_perfect_split() {
        let tasks = uniform_tasks(64, 0.25, 1000);
        let cfg = SimConfig {
            link: ideal_link(),
            ..Default::default()
        };
        let r = simulate(8, &tasks, InitialDist::RoundRobin, &cfg);
        // 64 equal tasks over 8 ranks: exactly 8 tasks each.
        assert!(
            (r.makespan_s - 2.0).abs() < 1e-9,
            "makespan {}",
            r.makespan_s
        );
    }

    #[test]
    fn stealing_rescues_all_on_root() {
        let tasks = uniform_tasks(64, 0.1, 10_000);
        let cfg = SimConfig::default();
        let with = simulate(8, &tasks, InitialDist::AllOnRoot, &cfg);
        let without = simulate(
            8,
            &tasks,
            InitialDist::AllOnRoot,
            &SimConfig {
                steal: false,
                ..cfg
            },
        );
        assert!(with.steals > 0);
        // Without stealing rank 0 does everything.
        assert!((without.makespan_s - 6.4).abs() < 1e-9);
        // With stealing the work spreads: at least 3x faster.
        assert!(
            with.makespan_s < without.makespan_s / 3.0,
            "steal makespan {}",
            with.makespan_s
        );
    }

    #[test]
    fn efficiency_declines_with_rank_count() {
        // Fixed work, finite tasks: strong scaling saturates (Fig 11/12
        // shape).
        let tasks: Vec<Task> = (0..512)
            .map(|i| Task {
                cost_s: 0.01 + 0.0001 * (i % 7) as f64,
                bytes: 50_000,
            })
            .collect();
        let total: f64 = tasks.iter().map(|t| t.cost_s).sum();
        let cfg = SimConfig::default();
        let mut prev_eff = f64::INFINITY;
        for p in [1usize, 4, 16, 64, 256] {
            let r = simulate(
                p,
                &tasks,
                InitialDist::Tree {
                    split_cost_s_per_byte: 2e-9,
                },
                &cfg,
            );
            let speedup = total / r.makespan_s;
            let eff = speedup / p as f64;
            assert!(speedup <= p as f64 + 1e-9);
            assert!(
                eff <= prev_eff + 1e-9,
                "efficiency rose from {prev_eff} to {eff} at p={p}"
            );
            prev_eff = eff;
        }
        // Sanity: parallelism still pays off in absolute terms.
        let r256 = simulate(
            256,
            &tasks,
            InitialDist::Tree {
                split_cost_s_per_byte: 2e-9,
            },
            &cfg,
        );
        assert!(total / r256.makespan_s > 20.0);
    }

    #[test]
    fn largest_first_beats_fifo_on_heterogeneous_tails() {
        // A few huge tasks among many small ones: FIFO risks starting a
        // huge task last (long tail); largest-first starts them first.
        let mut tasks = Vec::new();
        for _ in 0..4 {
            tasks.push(Task {
                cost_s: 1.0,
                bytes: 1000,
            });
        }
        for _ in 0..60 {
            tasks.push(Task {
                cost_s: 0.05,
                bytes: 1000,
            });
        }
        // FIFO arrival order puts the big ones first in the list; reverse
        // so FIFO hits them last.
        tasks.reverse();
        let cfg = SimConfig {
            link: ideal_link(),
            ..Default::default()
        };
        let lf = simulate(4, &tasks, InitialDist::AllOnRoot, &cfg);
        let ff = simulate(
            4,
            &tasks,
            InitialDist::AllOnRoot,
            &SimConfig {
                schedule: Schedule::Fifo,
                ..cfg
            },
        );
        assert!(
            lf.makespan_s <= ff.makespan_s + 1e-9,
            "largest-first {} vs fifo {}",
            lf.makespan_s,
            ff.makespan_s
        );
    }

    #[test]
    fn busy_time_conserved() {
        let tasks = uniform_tasks(100, 0.02, 5000);
        let r = simulate(16, &tasks, InitialDist::RoundRobin, &SimConfig::default());
        let busy: f64 = r.busy_s.iter().sum();
        assert!((busy - 2.0).abs() < 1e-9, "busy {busy}");
    }

    #[test]
    fn intervals_cover_every_task() {
        let tasks = uniform_tasks(100, 0.02, 5000);
        let r = simulate(16, &tasks, InitialDist::AllOnRoot, &SimConfig::default());
        assert_eq!(r.intervals.len(), tasks.len());
        let mut per_rank = [0.0f64; 16];
        for iv in &r.intervals {
            assert!(iv.end_s > iv.start_s);
            assert!(iv.end_s <= r.makespan_s + 1e-12);
            per_rank[iv.rank] += iv.end_s - iv.start_s;
        }
        for (measured, busy) in per_rank.iter().zip(&r.busy_s) {
            assert!((measured - busy).abs() < 1e-9);
        }
    }

    #[test]
    fn setup_cost_grows_with_levels() {
        let tasks = uniform_tasks(64, 0.01, 100_000);
        let dist = InitialDist::Tree {
            split_cost_s_per_byte: 1e-8,
        };
        let cfg = SimConfig::default();
        let r4 = simulate(4, &tasks, dist, &cfg);
        let r64 = simulate(64, &tasks, dist, &cfg);
        assert!(r64.setup_s > r4.setup_s);
    }
}
