//! A Montage-style astronomy mosaic on a science campus.
//!
//! ```sh
//! cargo run --release --example science_workflow
//! ```
//!
//! Instruments on a campus produce raw images; a classic workflow
//! (project, fit, model, correct, co-add, shrink) turns them into a
//! mosaic. The example compares batch placement policies on makespan,
//! energy, and dollars, then sweeps an annealing placer's objective
//! weights to trace the time/energy/cost trade-off.

use continuum_core::prelude::*;
use continuum_placement::pareto_front;

fn main() {
    let world = Continuum::build(&Scenario::science_campus());
    let dag = montage_like(world.sensors()[0], 12, 8 << 20);
    println!(
        "science campus: {} HPC nodes, workflow '{}' with {} tasks / {:.1} Gflop",
        world.hpcs().len(),
        dag.name,
        dag.len(),
        dag.total_work() / 1e9,
    );

    println!("\nbatch policies:");
    println!(
        "  {:<14} {:>10} {:>12} {:>10}",
        "policy", "makespan", "energy (J)", "cost ($)"
    );
    let policies: Vec<Box<dyn Placer>> = vec![
        Box::new(RandomPlacer::new(7)),
        Box::new(TierPlacer::cloud_only()),
        Box::new(GreedyEftPlacer::default()),
        Box::new(CpopPlacer),
        Box::new(HeftPlacer::default()),
    ];
    for p in &policies {
        let r = world.run(&dag, p.as_ref());
        println!(
            "  {:<14} {:>10.4} {:>12.1} {:>10.4}",
            p.name(),
            r.simulated.makespan_s,
            r.simulated.energy_j,
            r.simulated.cost_usd
        );
    }

    // Sweep annealing weights to trace a Pareto front.
    println!("\nannealed trade-off sweep (makespan vs energy):");
    let mut points = Vec::new();
    for (wt, we) in [(1.0, 0.0), (1.0, 0.05), (1.0, 0.2), (0.3, 1.0), (0.05, 1.0)] {
        let annealer = AnnealingPlacer {
            objective: WeightedObjective {
                w_time: wt,
                w_energy: we,
                w_cost: 0.0,
            },
            iters: 300,
            restarts: 4,
            seed: 99,
            ..Default::default()
        };
        let r = world.run(&dag, &annealer);
        println!(
            "  w_time={wt:<4} w_energy={we:<4} -> makespan {:>8.4} s, energy {:>10.1} J",
            r.simulated.makespan_s, r.simulated.energy_j
        );
        points.push(r.simulated);
    }
    let front = pareto_front(&points);
    println!(
        "  non-dominated points: {} of {}",
        front.len(),
        points.len()
    );
}
