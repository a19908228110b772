//! Fig 12: scheduling time vs cluster size for 1000–8000 jobs.
//!
//! The paper emulates large clusters and reports that Optimus schedules
//! 4000 jobs (~100 k tasks) on 16 000 nodes within 5 seconds on one
//! core. We time exactly the scheduling decision (marginal-gain
//! allocation + Theorem-1 placement) on the synthetic Fig-12 population
//! ([`synthetic_views`]).
//!
//! Stdout carries only what the decision determines (jobs, nodes,
//! tasks placed), so it is byte-stable across hosts and `just ci`
//! diffs it against `results/fig12_scalability.txt`. The wall times
//! and tasks/s depend on the host and go to stderr.

use optimus_bench::{available_threads, run_indexed, synthetic_views};
use optimus_cluster::{Cluster, ResourceVec};
use optimus_core::prelude::*;
use std::time::Instant;

fn main() {
    println!("Fig 12: scheduling time (alloc + placement) vs # nodes\n");
    println!("{:>8} {:>8} {:>12}", "jobs", "nodes", "tasks");
    eprintln!(
        "{:>8} {:>8} {:>12} {:>10}",
        "jobs", "nodes", "time (s)", "tasks/s"
    );
    let node_cap = ResourceVec::new(32.0, 4.0, 128.0, 10.0);
    let scheduler = OptimusScheduler::build();
    // Job populations are built in parallel (model fitting dominates
    // construction); the decision itself is timed serially below so the
    // measurement matches the paper's one-core claim.
    let sizes = [1_000usize, 2_000, 4_000];
    let job_sets = run_indexed(&sizes, available_threads(), |_, &n| {
        synthetic_views(n, false)
    });
    for (jobs_n, jobs) in sizes.into_iter().zip(job_sets.iter()) {
        for &nodes in &[1_000usize, 4_000, 16_000] {
            let cluster = Cluster::homogeneous(nodes, node_cap);
            let start = Instant::now();
            let schedule = scheduler.schedule(jobs, &cluster);
            let elapsed = start.elapsed().as_secs_f64();
            let tasks = schedule.total_tasks();
            println!("{jobs_n:>8} {nodes:>8} {tasks:>12}");
            eprintln!(
                "{jobs_n:>8} {nodes:>8} {elapsed:>12.3} {:>10.0}",
                tasks as f64 / elapsed
            );
        }
    }
    println!("\npaper: 4000 jobs (~100k tasks) on 16000 nodes within 5 s on one core");
}
