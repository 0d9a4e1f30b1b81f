//! Property-based tests for the discrete-event simulator.

use adm_simnet::{simulate, InitialDist, LinkModel, Schedule, SimConfig, Task};
use proptest::prelude::*;

/// An infinitely fast network: only task costs and scheduling remain.
fn ideal_link() -> LinkModel {
    LinkModel {
        latency_s: 0.0,
        bandwidth_bps: f64::INFINITY,
        rma_op_s: 0.0,
    }
}

fn tasks(n: std::ops::Range<usize>) -> impl Strategy<Value = Vec<Task>> {
    prop::collection::vec(
        (1e-5f64..1e-2, 100u64..100_000).prop_map(|(c, b)| Task {
            cost_s: c,
            bytes: b,
        }),
        n,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Fundamental bounds: total/p <= makespan <= total + overheads, and
    /// busy time is conserved exactly.
    #[test]
    fn makespan_bounds(ts in tasks(1..120), p in 1usize..64) {
        let total: f64 = ts.iter().map(|t| t.cost_s).sum();
        let max_task = ts.iter().map(|t| t.cost_s).fold(0.0, f64::max);
        let cfg = SimConfig::default();
        let sim = simulate(p, &ts, InitialDist::RoundRobin, &cfg);
        prop_assert!(sim.makespan_s >= total / p as f64 - 1e-12);
        prop_assert!(sim.makespan_s >= max_task - 1e-12);
        // Never slower than fully serial plus all communication charged.
        prop_assert!(sim.makespan_s <= total + sim.comm_s + 1e-9);
        let busy: f64 = sim.busy_s.iter().sum();
        prop_assert!((busy - total).abs() < 1e-9 * total.max(1.0));
    }

    /// Strict monotonicity in rank count is NOT a property of the
    /// request-based protocol (the "never donate your only item" rule can
    /// strand a large task behind another at unlucky rank counts), but
    /// two weaker guarantees hold: no rank count is slower than serial,
    /// and for *uniform* tasks adding ranks never hurts beyond retry
    /// noise.
    #[test]
    fn parallel_never_slower_than_serial(ts in tasks(4..100)) {
        let cfg = SimConfig {
            link: ideal_link(),
            ..Default::default()
        };
        let serial = simulate(1, &ts, InitialDist::RoundRobin, &cfg).makespan_s;
        let slack = 16.0 * cfg.poll_s;
        for p in [2usize, 4, 8, 16] {
            let sim = simulate(p, &ts, InitialDist::RoundRobin, &cfg);
            prop_assert!(sim.makespan_s <= serial + slack, "p={p} slower than serial");
        }
    }

    #[test]
    fn monotone_in_ranks_uniform_tasks(n in 4usize..100, cost in 1e-4f64..1e-2) {
        let ts: Vec<Task> = (0..n).map(|_| Task { cost_s: cost, bytes: 100 }).collect();
        let cfg = SimConfig {
            link: ideal_link(),
            ..Default::default()
        };
        let slack = 16.0 * cfg.poll_s;
        let mut prev = f64::INFINITY;
        for p in [1usize, 2, 4, 8, 16] {
            let sim = simulate(p, &ts, InitialDist::RoundRobin, &cfg);
            prop_assert!(sim.makespan_s <= prev + slack, "p={p} worsened");
            prev = prev.min(sim.makespan_s);
        }
    }

    /// Stealing never loses or duplicates work: steals == successful
    /// transfers, and every task completes (asserted internally) with
    /// conserved busy time.
    #[test]
    fn steals_conserve_work(ts in tasks(2..80), p in 2usize..16) {
        let sim = simulate(p, &ts, InitialDist::AllOnRoot, &SimConfig::default());
        let busy: f64 = sim.busy_s.iter().sum();
        let total: f64 = ts.iter().map(|t| t.cost_s).sum();
        prop_assert!((busy - total).abs() < 1e-9 * total.max(1.0));
        prop_assert!(sim.steals <= ts.len() * 4, "implausible steal count");
    }

    /// Disabling the balancer on an all-on-root distribution serializes
    /// everything on rank 0.
    #[test]
    fn no_steal_serializes(ts in tasks(1..50), p in 2usize..8) {
        let cfg = SimConfig { steal: false, ..Default::default() };
        let sim = simulate(p, &ts, InitialDist::AllOnRoot, &cfg);
        let total: f64 = ts.iter().map(|t| t.cost_s).sum();
        prop_assert!((sim.makespan_s - total).abs() < 1e-9 * total.max(1.0));
        prop_assert_eq!(sim.steals, 0);
    }

    /// Schedule policy never changes the amount of work done, only its
    /// order (makespans may differ; busy totals may not).
    #[test]
    fn schedule_conserves_busy(ts in tasks(3..60), p in 1usize..8) {
        let total: f64 = ts.iter().map(|t| t.cost_s).sum();
        for schedule in [Schedule::LargestFirst, Schedule::Fifo] {
            let cfg = SimConfig { schedule, ..Default::default() };
            let sim = simulate(p, &ts, InitialDist::RoundRobin, &cfg);
            let busy: f64 = sim.busy_s.iter().sum();
            prop_assert!((busy - total).abs() < 1e-9 * total.max(1.0));
        }
    }
}
