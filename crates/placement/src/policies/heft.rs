//! HEFT: Heterogeneous Earliest Finish Time (Topcuoglu et al., 2002),
//! adapted to the continuum.
//!
//! Tasks are prioritized by *upward rank* (critical-path distance to exit,
//! under mean compute speed and mean bandwidth) and assigned, in rank
//! order, to the feasible device that minimizes earliest finish time with
//! insertion-based slot search. This is the reference continuum-aware
//! policy of the reproduction.

use super::baselines::best_eft_device;
use super::Placer;
use crate::env::Env;
use crate::estimate::{Estimator, Placement};
use continuum_workflow::{Dag, TaskId};

/// The HEFT placement policy.
#[derive(Debug, Clone)]
pub struct HeftPlacer {
    /// Insertion-based slot search (the ablation flag; `true` is standard).
    pub insertion: bool,
}

impl Default for HeftPlacer {
    fn default() -> Self {
        HeftPlacer { insertion: true }
    }
}

impl HeftPlacer {
    /// Rank-ordered task list: upward rank descending, id ascending on ties.
    pub fn rank_order(env: &Env, dag: &Dag) -> Vec<TaskId> {
        let ranks = dag.upward_ranks(env.mean_core_flops(), env.mean_bandwidth());
        let mut order: Vec<TaskId> = (0..dag.len() as u32).map(TaskId).collect();
        order.sort_by(|a, b| {
            ranks[b.0 as usize]
                .partial_cmp(&ranks[a.0 as usize])
                .expect("NaN rank")
                .then(a.0.cmp(&b.0))
        });
        order
    }
}

impl HeftPlacer {
    /// The full internal schedule HEFT committed to (assignment plus the
    /// start/finish times its slot search produced). Exposed so ablations
    /// can compare slot-search variants on the schedule each actually
    /// built, not on a re-replayed one.
    pub fn schedule(&self, env: &Env, dag: &Dag) -> crate::estimate::EstimatedSchedule {
        let mut est = Estimator::new(env, dag);
        for t in Self::rank_order(env, dag) {
            let best = best_eft_device(&est, env, dag, t, None, self.insertion);
            est.commit(t, best, self.insertion);
        }
        est.into_schedule()
    }
}

impl Placer for HeftPlacer {
    fn name(&self) -> &'static str {
        if self.insertion {
            "heft"
        } else {
            "heft-append"
        }
    }

    fn place(&self, env: &Env, dag: &Dag) -> Placement {
        self.schedule(env, dag).placement
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::evaluate;
    use crate::policies::{RandomPlacer, RoundRobinPlacer};
    use continuum_model::standard_fleet;
    use continuum_net::{continuum, ContinuumSpec};
    use continuum_sim::Rng;
    use continuum_workflow::{layered_random, LayeredSpec};

    fn env() -> Env {
        let built = continuum(&ContinuumSpec::default());
        let fleet = standard_fleet(&built);
        Env::new(built.topology, fleet)
    }

    fn dag(seed: u64, n: usize) -> Dag {
        let mut rng = Rng::new(seed);
        layered_random(
            &mut rng,
            &LayeredSpec {
                tasks: n,
                ..Default::default()
            },
        )
    }

    #[test]
    fn rank_order_is_topological() {
        let env = env();
        let g = dag(5, 120);
        let order = HeftPlacer::rank_order(&env, &g);
        let mut pos = vec![0usize; g.len()];
        for (i, t) in order.iter().enumerate() {
            pos[t.0 as usize] = i;
        }
        for t in g.tasks() {
            for p in g.preds(t.id) {
                assert!(
                    pos[p.0 as usize] < pos[t.id.0 as usize],
                    "pred {} not before {}",
                    p,
                    t.id
                );
            }
        }
    }

    #[test]
    fn heft_valid_and_competitive() {
        let env = env();
        let g = dag(7, 150);
        let heft = HeftPlacer::default();
        let (sched, m_heft) = evaluate(&env, &g, &heft.place(&env, &g));
        assert!(sched.respects_dependencies(&g));
        let (_, m_rand) = evaluate(&env, &g, &RandomPlacer::new(3).place(&env, &g));
        let (_, m_rr) = evaluate(&env, &g, &RoundRobinPlacer.place(&env, &g));
        assert!(m_heft.makespan_s <= m_rand.makespan_s);
        assert!(m_heft.makespan_s <= m_rr.makespan_s);
    }

    #[test]
    fn insertion_no_worse_than_append() {
        let env = env();
        for seed in [1u64, 2, 3] {
            let g = dag(seed, 100);
            let (_, with_ins) = evaluate(&env, &g, &HeftPlacer { insertion: true }.place(&env, &g));
            let (_, without) = evaluate(&env, &g, &HeftPlacer { insertion: false }.place(&env, &g));
            // Insertion only adds candidate slots; allow a sliver of noise
            // from evaluation replaying with insertion in both cases.
            assert!(
                with_ins.makespan_s <= without.makespan_s * 1.05,
                "seed {seed}: insertion {} vs append {}",
                with_ins.makespan_s,
                without.makespan_s
            );
        }
    }

    #[test]
    fn heft_deterministic() {
        let env = env();
        let g = dag(11, 80);
        let a = HeftPlacer::default().place(&env, &g);
        let b = HeftPlacer::default().place(&env, &g);
        assert_eq!(a, b);
    }
}
