//! Baseline policies: random, round-robin, tier-restricted, and greedy EFT.
//!
//! These answer "where should I compute?" the ways the keynote argues
//! against: ignore the network (random/round-robin), or hard-code a tier
//! ("everything at the edge", "everything in the cloud"). Greedy EFT is the
//! strongest myopic baseline: locally optimal, no look-ahead.

use super::Placer;
use crate::env::Env;
use crate::estimate::{Estimator, Placement};
use continuum_model::DeviceId;
use continuum_net::Tier;
use continuum_sim::Rng;
use continuum_workflow::Dag;

/// Uniformly random feasible device per task.
#[derive(Debug, Clone)]
pub struct RandomPlacer {
    seed: u64,
}

impl RandomPlacer {
    /// Random placer with a fixed seed (deterministic).
    pub fn new(seed: u64) -> Self {
        RandomPlacer { seed }
    }
}

impl Placer for RandomPlacer {
    fn name(&self) -> &'static str {
        "random"
    }

    fn place(&self, env: &Env, dag: &Dag) -> Placement {
        let mut rng = Rng::new(self.seed);
        let assignment = dag
            .tasks()
            .iter()
            .map(|t| {
                let feas = env.feasible_devices(t);
                *rng.choose(&feas)
            })
            .collect();
        Placement { assignment }
    }
}

/// Cycle through feasible devices in id order.
#[derive(Debug, Clone, Default)]
pub struct RoundRobinPlacer;

impl Placer for RoundRobinPlacer {
    fn name(&self) -> &'static str {
        "round-robin"
    }

    fn place(&self, env: &Env, dag: &Dag) -> Placement {
        let mut next = 0usize;
        let assignment = dag
            .tasks()
            .iter()
            .map(|t| {
                let feas = env.feasible_devices(t);
                let d = feas[next % feas.len()];
                next += 1;
                d
            })
            .collect();
        Placement { assignment }
    }
}

/// Greedy earliest-finish-time list scheduling in topological order.
#[derive(Debug, Clone)]
pub struct GreedyEftPlacer {
    /// Consider gaps between reservations (insertion-based slots).
    pub insertion: bool,
}

impl Default for GreedyEftPlacer {
    fn default() -> Self {
        GreedyEftPlacer { insertion: true }
    }
}

impl Placer for GreedyEftPlacer {
    fn name(&self) -> &'static str {
        if self.insertion {
            "greedy-eft"
        } else {
            "greedy-eft-append"
        }
    }

    fn place(&self, env: &Env, dag: &Dag) -> Placement {
        let mut est = Estimator::new(env, dag);
        for t in dag.topo_order() {
            let best = best_eft_device(&est, env, dag, t, None, self.insertion);
            est.commit(t, best, self.insertion);
        }
        est.into_schedule().placement
    }
}

/// Keep all unpinned work within a tier range, greedy EFT inside it.
///
/// Pinned tasks always run at their pinned node regardless of tier (a
/// capture task cannot move to the cloud — only its successors can).
#[derive(Debug, Clone)]
pub struct TierPlacer {
    lo: Tier,
    hi: Tier,
    label: &'static str,
}

impl TierPlacer {
    /// "Everything at the edge": sensors and edge gateways only.
    pub fn edge_only() -> Self {
        TierPlacer {
            lo: Tier::Sensor,
            hi: Tier::Edge,
            label: "edge-only",
        }
    }

    /// "Everything in the cloud": cloud VMs only.
    pub fn cloud_only() -> Self {
        TierPlacer {
            lo: Tier::Cloud,
            hi: Tier::Cloud,
            label: "cloud-only",
        }
    }

    /// Custom range with a label.
    pub fn range(lo: Tier, hi: Tier, label: &'static str) -> Self {
        TierPlacer { lo, hi, label }
    }
}

impl Placer for TierPlacer {
    fn name(&self) -> &'static str {
        self.label
    }

    fn place(&self, env: &Env, dag: &Dag) -> Placement {
        let mut est = Estimator::new(env, dag);
        for t in dag.topo_order() {
            let task = dag.task(t);
            let restrict = if task.constraints.pinned_node.is_some() {
                None // pinned tasks ignore the tier restriction
            } else {
                Some((self.lo, self.hi))
            };
            let best = best_eft_device(&est, env, dag, t, restrict, true);
            est.commit(t, best, true);
        }
        est.into_schedule().placement
    }
}

/// Minimum-EFT feasible device for `t`, optionally restricted to a tier
/// range (falling back to the unrestricted feasible set if the restriction
/// empties it). Ties break toward the lower device id.
///
/// The scan is serial: one EFT probe costs tens of nanoseconds, far too
/// little to split across threads.
pub(crate) fn best_eft_device(
    est: &Estimator<'_>,
    env: &Env,
    dag: &Dag,
    t: continuum_workflow::TaskId,
    tier_range: Option<(Tier, Tier)>,
    insertion: bool,
) -> DeviceId {
    let task = dag.task(t);
    let feas = env.feasible_devices(task);
    // Both arms borrow: the restriction (when active and non-empty) is the
    // only allocation; the seed cloned the whole feasible set on the
    // unrestricted arm of every scan.
    let restricted: Option<Vec<DeviceId>> = tier_range.and_then(|(lo, hi)| {
        let r: Vec<DeviceId> = feas
            .iter()
            .copied()
            .filter(|&d| {
                let tier = env.fleet.device(d).spec.tier;
                tier >= lo && tier <= hi
            })
            .collect();
        (!r.is_empty()).then_some(r)
    });
    let cands: &[DeviceId] = restricted.as_deref().unwrap_or(&feas);
    cands
        .iter()
        .map(|&d| (est.eft(t, d, insertion).1, d))
        .min()
        .expect("feasible set is non-empty")
        .1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::evaluate;
    use continuum_model::standard_fleet;
    use continuum_net::{continuum, ContinuumSpec};
    use continuum_workflow::{analytics_pipeline, PipelineSpec};

    fn env_and_dag() -> (Env, Dag) {
        let built = continuum(&ContinuumSpec::default());
        let fleet = standard_fleet(&built);
        let spec = PipelineSpec {
            source: built.sensors[0],
            ..Default::default()
        };
        let dag = analytics_pipeline(&spec);
        (Env::new(built.topology, fleet), dag)
    }

    #[test]
    fn all_baselines_produce_valid_schedules() {
        let (env, dag) = env_and_dag();
        let placers: Vec<Box<dyn Placer>> = vec![
            Box::new(RandomPlacer::new(1)),
            Box::new(RoundRobinPlacer),
            Box::new(GreedyEftPlacer::default()),
            Box::new(TierPlacer::edge_only()),
            Box::new(TierPlacer::cloud_only()),
        ];
        for p in placers {
            let placement = p.place(&env, &dag);
            assert_eq!(placement.assignment.len(), dag.len(), "{}", p.name());
            let (sched, m) = evaluate(&env, &dag, &placement);
            assert!(sched.respects_dependencies(&dag), "{}", p.name());
            assert!(m.makespan_s > 0.0, "{}", p.name());
        }
    }

    #[test]
    fn pinned_capture_stays_pinned_everywhere() {
        let (env, dag) = env_and_dag();
        let pinned_node = dag
            .task(continuum_workflow::TaskId(0))
            .constraints
            .pinned_node
            .unwrap();
        for p in [
            &TierPlacer::cloud_only() as &dyn Placer,
            &TierPlacer::edge_only(),
            &GreedyEftPlacer::default(),
        ] {
            let placement = p.place(&env, &dag);
            let dev = placement.device(continuum_workflow::TaskId(0));
            assert_eq!(env.node_of(dev), pinned_node, "{}", p.name());
        }
    }

    #[test]
    fn tier_placers_respect_their_tier() {
        let (env, dag) = env_and_dag();
        let placement = TierPlacer::cloud_only().place(&env, &dag);
        for (i, &dev) in placement.assignment.iter().enumerate() {
            let task = dag.task(continuum_workflow::TaskId(i as u32));
            if task.constraints.pinned_node.is_none() {
                assert_eq!(env.fleet.device(dev).spec.tier, Tier::Cloud);
            }
        }
    }

    #[test]
    fn greedy_beats_random_on_pipeline() {
        let (env, dag) = env_and_dag();
        let (_, greedy) = evaluate(&env, &dag, &GreedyEftPlacer::default().place(&env, &dag));
        let (_, random) = evaluate(&env, &dag, &RandomPlacer::new(17).place(&env, &dag));
        assert!(
            greedy.makespan_s <= random.makespan_s,
            "greedy {} vs random {}",
            greedy.makespan_s,
            random.makespan_s
        );
    }

    #[test]
    fn random_is_seed_deterministic() {
        let (env, dag) = env_and_dag();
        let a = RandomPlacer::new(9).place(&env, &dag);
        let b = RandomPlacer::new(9).place(&env, &dag);
        assert_eq!(a, b);
    }
}
