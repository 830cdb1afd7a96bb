//! F3 — scheduler shoot-out on random layered DAGs (Q1 at scale).
//!
//! Random layered workflows of growing size are placed by every policy in
//! the line-up and executed in the contended simulator. Makespans are
//! normalized to HEFT. Expected ordering: the EFT family (greedy,
//! min-min, max-min, cpop, peft, heft, data-aware) clusters within a few
//! percent of each other, and the network-blind baselines (round-robin,
//! random) sit two orders of magnitude behind.

use crate::report::{f, Table};
use continuum_core::prelude::*;
use serde::Serialize;

/// One measured point.
#[derive(Debug, Clone, Serialize)]
pub struct Row {
    /// Number of tasks in the DAG.
    pub tasks: usize,
    /// Policy name.
    pub policy: String,
    /// Mean simulated makespan over the repetitions, seconds.
    pub makespan_s: f64,
    /// Makespan normalized to HEFT's on the same DAGs.
    pub norm_to_heft: f64,
}

/// DAG sizes swept.
pub fn sizes() -> Vec<usize> {
    vec![50, 100, 200, 400]
}

/// Repetitions (distinct seeds) averaged per point.
pub const REPS: u64 = 3;

/// Run the shoot-out.
pub fn run() -> (Table, Vec<Row>) {
    let world = Continuum::build(&Scenario::default_continuum());
    let policies: Vec<Box<dyn Placer>> = vec![
        Box::new(RandomPlacer::new(0xF3)),
        Box::new(RoundRobinPlacer),
        Box::new(DataAwarePlacer),
        Box::new(GreedyEftPlacer::default()),
        Box::new(MinMinPlacer),
        Box::new(MaxMinPlacer),
        Box::new(CpopPlacer),
        Box::new(PeftPlacer),
        Box::new(HeftPlacer::default()),
    ];
    let mut rows = Vec::new();
    let mut table = Table::new(
        "F3 — makespan normalized to HEFT on random layered DAGs",
        &[
            "tasks",
            "random",
            "round-robin",
            "data-aware",
            "greedy-eft",
            "min-min",
            "max-min",
            "cpop",
            "peft",
            "heft (s)",
        ],
    );
    for &n in &sizes() {
        // Mean makespan per policy over REPS seeds.
        let mut means = vec![0.0f64; policies.len()];
        for rep in 0..REPS {
            let mut rng = Rng::new(0xF3_000 + rep);
            let dag = layered_random(
                &mut rng,
                &LayeredSpec {
                    tasks: n,
                    width: 8,
                    ..Default::default()
                },
            );
            for (i, p) in policies.iter().enumerate() {
                means[i] += world.run(&dag, p.as_ref()).simulated.makespan_s;
            }
        }
        for m in &mut means {
            *m /= REPS as f64;
        }
        let heft = means[policies.len() - 1];
        let mut cells = vec![n.to_string()];
        for (i, p) in policies.iter().enumerate() {
            let norm = means[i] / heft;
            rows.push(Row {
                tasks: n,
                policy: p.name().to_string(),
                makespan_s: means[i],
                norm_to_heft: norm,
            });
            if i < policies.len() - 1 {
                cells.push(format!("{norm:.2}x"));
            }
        }
        cells.push(f(heft));
        table.row(cells);
    }
    (table, rows)
}

#[cfg(test)]
mod tests {
    #[test]
    fn heft_is_the_reference_winner() {
        let (_, rows) = super::run();
        for r in &rows {
            if r.policy == "heft" {
                assert!((r.norm_to_heft - 1.0).abs() < 1e-9);
            }
            // Nothing beats HEFT by more than noise on average.
            assert!(
                r.norm_to_heft > 0.95,
                "{} at n={} is {}",
                r.policy,
                r.tasks,
                r.norm_to_heft
            );
        }
        // Random is clearly worst at the largest size.
        let at = |policy: &str, n: usize| {
            rows.iter()
                .find(|r| r.policy == policy && r.tasks == n)
                .map(|r| r.norm_to_heft)
                .expect("row")
        };
        let n = *super::sizes().last().expect("sizes");
        assert!(at("random", n) > at("greedy-eft", n));
        assert!(at("round-robin", n) > at("greedy-eft", n));
    }
}
