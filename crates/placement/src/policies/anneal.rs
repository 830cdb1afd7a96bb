//! Simulated-annealing refinement for multi-objective placement.
//!
//! Starts from the HEFT assignment and explores single-task reassignments
//! under a Metropolis acceptance rule on a [`WeightedObjective`] score.
//! Restarts run in parallel with rayon (each with an independent seeded
//! RNG), and the best result is selected deterministically. This is the
//! engine behind the Pareto-front experiment (F6): sweeping the weights
//! traces the makespan/energy/cost trade-off surface.
//!
//! Moves are scored through a [`DeltaEvaluator`]: a reassignment
//! re-schedules only the tasks it can reach — the moved task, the later
//! tasks on the two touched devices whose slot search a changed interval
//! overlaps, and the successors of every task whose slot changed —
//! instead of replaying the whole DAG. Rejected moves are undone from a snapshot
//! (plain copies, no re-propagation). The delta path is exact — scores,
//! and therefore the Metropolis
//! decisions and the final placement, are bit-identical to the
//! clone-and-replay oracle retained behind
//! [`AnnealingPlacer::full_recompute`].

use super::{HeftPlacer, Placer};
use crate::delta::DeltaEvaluator;
use crate::env::Env;
use crate::estimate::Placement;
use crate::objective::{evaluate, Metrics, WeightedObjective};
use continuum_model::DeviceId;
use continuum_sim::Rng;
use continuum_workflow::{Dag, TaskId};
use rayon::prelude::*;

/// Simulated-annealing placement refiner.
#[derive(Debug, Clone)]
pub struct AnnealingPlacer {
    /// Scalarization of (time, energy, cost).
    pub objective: WeightedObjective,
    /// Moves per restart.
    pub iters: u32,
    /// Independent restarts (parallelized).
    pub restarts: u32,
    /// Base seed; restart `i` uses `seed + i`.
    pub seed: u64,
    /// Score every move by re-simulating the whole placement instead of
    /// delta re-scoring. Slow; kept as the equivalence oracle (the two
    /// modes produce identical placements).
    pub full_recompute: bool,
}

impl Default for AnnealingPlacer {
    fn default() -> Self {
        AnnealingPlacer {
            objective: WeightedObjective::makespan(),
            iters: 400,
            restarts: 4,
            seed: 0xA11EA1,
            full_recompute: false,
        }
    }
}

impl AnnealingPlacer {
    /// Anneal from `init`, returning the best placement and score found.
    /// `movable` lists every unpinned task with its feasible devices.
    fn run_one(
        &self,
        env: &Env,
        dag: &Dag,
        init: &Placement,
        movable: &[(u32, Vec<DeviceId>)],
        seed: u64,
    ) -> (Placement, f64) {
        let mut rng = Rng::new(seed);
        let mut cur = init.clone();
        let mut delta = (!self.full_recompute).then(|| DeltaEvaluator::new(env, dag, init));
        let m0 = match &mut delta {
            Some(d) => d.metrics(),
            None => evaluate(env, dag, &cur).1,
        };
        let mut cur_score = self.objective.score(&m0);
        let mut best = cur.clone();
        let mut best_score = cur_score;

        // Geometric cooling from 10% of the initial score to ~0.01%.
        let t0 = (cur_score * 0.10).max(f64::MIN_POSITIVE);
        let t_end = (cur_score * 1e-4).max(f64::MIN_POSITIVE);
        let alpha = (t_end / t0).powf(1.0 / self.iters.max(1) as f64);
        let mut temp = t0;

        if movable.is_empty() {
            return (cur, cur_score);
        }

        for _ in 0..self.iters {
            let &(ti, ref feas) = &movable[rng.index(movable.len())];
            let new_dev = *rng.choose(feas);
            let old_dev = cur.assignment[ti as usize];
            if new_dev == old_dev {
                temp *= alpha;
                continue;
            }
            cur.assignment[ti as usize] = new_dev;
            let score = match &mut delta {
                Some(d) => {
                    d.move_task(TaskId(ti), new_dev);
                    self.objective.score(&d.metrics())
                }
                None => self.objective.score(&evaluate(env, dag, &cur).1),
            };
            let accept = score <= cur_score || rng.f64() < ((cur_score - score) / temp).exp();
            if accept {
                cur_score = score;
                if score < best_score {
                    best_score = score;
                    best = cur.clone();
                }
            } else {
                cur.assignment[ti as usize] = old_dev;
                if let Some(d) = &mut delta {
                    d.undo_last_move();
                }
            }
            temp *= alpha;
        }
        (best, best_score)
    }

    /// Place and also return the metrics of the chosen placement.
    pub fn place_with_metrics(&self, env: &Env, dag: &Dag) -> (Placement, Metrics) {
        let placement = self.place(env, dag);
        let (_, m) = evaluate(env, dag, &placement);
        (placement, m)
    }
}

impl Placer for AnnealingPlacer {
    fn name(&self) -> &'static str {
        "anneal"
    }

    fn place(&self, env: &Env, dag: &Dag) -> Placement {
        let init = HeftPlacer::default().place(env, dag);
        // Movable tasks (anything not pinned) and their feasible devices,
        // computed once rather than per move.
        let movable: Vec<(u32, Vec<DeviceId>)> = dag
            .tasks()
            .iter()
            .filter(|t| t.constraints.pinned_node.is_none())
            .map(|t| (t.id.0, env.feasible_devices(t)))
            .collect();
        let results: Vec<(u32, Placement, f64)> = (0..self.restarts)
            .into_par_iter()
            .map(|i| {
                let seed = self.seed.wrapping_add(i as u64);
                let (p, s) = self.run_one(env, dag, &init, &movable, seed);
                (i, p, s)
            })
            .collect();
        // Deterministic winner: best score, lowest restart index on ties.
        results
            .into_iter()
            .min_by(|a, b| {
                a.2.partial_cmp(&b.2)
                    .expect("NaN score")
                    .then(a.0.cmp(&b.0))
            })
            .map(|(_, p, _)| p)
            .expect("at least one restart")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use continuum_model::standard_fleet;
    use continuum_net::{continuum, ContinuumSpec};
    use continuum_workflow::{layered_random, LayeredSpec};

    fn setup() -> (Env, Dag) {
        let built = continuum(&ContinuumSpec::default());
        let env = Env::new(built.topology.clone(), standard_fleet(&built));
        let mut rng = Rng::new(31);
        let dag = layered_random(
            &mut rng,
            &LayeredSpec {
                tasks: 40,
                ..Default::default()
            },
        );
        (env, dag)
    }

    #[test]
    fn anneal_never_worse_than_heft_on_its_objective() {
        let (env, dag) = setup();
        let annealer = AnnealingPlacer {
            iters: 150,
            restarts: 2,
            ..Default::default()
        };
        let (_, m_anneal) = annealer.place_with_metrics(&env, &dag);
        let (_, m_heft) = evaluate(&env, &dag, &HeftPlacer::default().place(&env, &dag));
        let obj = WeightedObjective::makespan();
        assert!(
            obj.score(&m_anneal) <= obj.score(&m_heft) + 1e-9,
            "anneal {} vs heft {}",
            obj.score(&m_anneal),
            obj.score(&m_heft)
        );
    }

    #[test]
    fn energy_weight_changes_choice() {
        let (env, dag) = setup();
        let time_only = AnnealingPlacer {
            iters: 200,
            restarts: 2,
            objective: WeightedObjective {
                w_time: 1.0,
                w_energy: 0.0,
                w_cost: 0.0,
            },
            ..Default::default()
        };
        let energy_heavy = AnnealingPlacer {
            iters: 200,
            restarts: 2,
            objective: WeightedObjective {
                w_time: 0.001,
                w_energy: 100.0,
                w_cost: 0.0,
            },
            ..Default::default()
        };
        let (_, m_t) = time_only.place_with_metrics(&env, &dag);
        let (_, m_e) = energy_heavy.place_with_metrics(&env, &dag);
        // The energy-weighted run must not spend more energy than the
        // time-weighted run spends (it optimizes for it directly).
        assert!(
            m_e.energy_j <= m_t.energy_j * 1.001,
            "{} vs {}",
            m_e.energy_j,
            m_t.energy_j
        );
    }

    #[test]
    fn delta_matches_full_recompute_oracle() {
        // The delta path must make bit-identical Metropolis decisions, so
        // the placements (not just the scores) agree exactly — including
        // under a multi-term objective where every metric matters.
        let (env, dag) = setup();
        let fast = AnnealingPlacer {
            iters: 80,
            restarts: 2,
            objective: WeightedObjective {
                w_time: 1.0,
                w_energy: 5.0,
                w_cost: 50.0,
            },
            ..Default::default()
        };
        let slow = AnnealingPlacer {
            full_recompute: true,
            ..fast.clone()
        };
        assert_eq!(fast.place(&env, &dag), slow.place(&env, &dag));
    }

    #[test]
    fn anneal_deterministic() {
        let (env, dag) = setup();
        let a = AnnealingPlacer {
            iters: 60,
            restarts: 3,
            ..Default::default()
        };
        assert_eq!(a.place(&env, &dag), a.place(&env, &dag));
    }

    #[test]
    fn pinned_tasks_never_move() {
        let built = continuum(&ContinuumSpec::default());
        let env = Env::new(built.topology.clone(), standard_fleet(&built));
        let dag = continuum_workflow::analytics_pipeline(&continuum_workflow::PipelineSpec {
            source: built.sensors[0],
            ..Default::default()
        });
        let a = AnnealingPlacer {
            iters: 100,
            restarts: 2,
            ..Default::default()
        };
        let p = a.place(&env, &dag);
        let dev = p.device(continuum_workflow::TaskId(0));
        assert_eq!(env.node_of(dev), built.sensors[0]);
    }
}
