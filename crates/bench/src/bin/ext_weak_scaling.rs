//! Extension experiment: weak scaling.
//!
//! The paper's conclusion notes that "evaluation of our approach on larger
//! clusters is still a work in progress." This extension asks the natural
//! follow-up question with the simulator: if the mesh grows proportionally
//! with the rank count (fixed work per rank), how does efficiency hold?
//! The task pool measured from one real pipeline run is replicated per
//! rank, keeping the paper's cost *distribution*.

use adm_bench::{maybe_write_trace, write_json, Series};
use adm_core::{generate, MeshConfig, TaskKind};
use adm_simnet::{simulate, InitialDist, SimConfig, Task};
use adm_trace::json::obj;

fn main() {
    let mut config = MeshConfig::naca0012(100);
    config.sizing_max_area = 0.2;
    config.bl_subdomains = 64;
    config.inviscid_subdomains = 64;
    config.merge_threads = 0; // task costs must be measured uncontended
    eprintln!("[weak] measuring the per-rank workload ...");
    let result = generate(&config);
    let base: Vec<Task> = result
        .log
        .parallel_tasks()
        .iter()
        .map(|r| Task {
            cost_s: r.cost_s.max(1e-7),
            bytes: r.bytes.max(64),
        })
        .collect();
    let base_work: f64 = base.iter().map(|t| t.cost_s).sum();
    let serial_s = result.log.total_s(TaskKind::Serial);
    eprintln!(
        "[weak] per-rank workload: {} tasks, {base_work:.3}s",
        base.len()
    );

    let cfg = SimConfig::default();
    let dist = InitialDist::Tree {
        split_cost_s_per_byte: 1e-9,
    };
    // Baseline: one rank, one unit of work.
    let t1 = serial_s + simulate(1, &base, dist, &cfg).makespan_s;

    let mut eff = Series::new("weak_efficiency");
    println!("ranks  work(s)   wall(s)   weak efficiency");
    for p in [1usize, 2, 4, 8, 16, 32, 64, 128, 256] {
        // p times the work on p ranks.
        let mut tasks = Vec::with_capacity(base.len() * p);
        for _ in 0..p {
            tasks.extend_from_slice(&base);
        }
        let sim = simulate(p, &tasks, dist, &cfg);
        let wall = serial_s + sim.makespan_s;
        let e = t1 / wall;
        println!(
            "{p:>5}  {:>7.3}  {wall:>8.4}  {:>8.1}%",
            base_work * p as f64,
            100.0 * e
        );
        eff.push(p as f64, e);
    }
    let report = obj! {
        "base_tasks": base.len(),
        "base_work_s": base_work,
        "efficiency": &eff,
        "paper_reference": "extension of the paper's future-work item: larger-cluster behaviour",
    };
    let path = write_json("ext_weak_scaling", &report).expect("write report");
    eprintln!("[weak] wrote {}", path.display());
    maybe_write_trace(&result.trace).expect("write trace");
}
