//! Min-Min and Max-Min batch heuristics (Ibarra & Kim lineage), adapted
//! to dependent tasks via a ready set.
//!
//! Both maintain the set of *ready* tasks (all predecessors committed).
//! Each round, every ready task's best (device, EFT) is computed; Min-Min
//! commits the task with the globally smallest EFT (clears small work
//! fast, risks starving the critical path), while Max-Min commits the
//! largest (prioritizes long tasks, often better makespan on heavy-tailed
//! workloads). Both are quadratic in the ready-set size — the price of
//! look-at-everything greediness HEFT's ranking avoids.

use super::baselines::best_eft_device;
use super::Placer;
use crate::env::Env;
use crate::estimate::{Estimator, Placement};
use continuum_workflow::{Dag, TaskId};

/// Whether a round commits the smallest or largest best-EFT task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Flavor {
    MinMin,
    MaxMin,
}

/// The Min-Min heuristic.
#[derive(Debug, Clone, Default)]
pub struct MinMinPlacer;

/// The Max-Min heuristic.
#[derive(Debug, Clone, Default)]
pub struct MaxMinPlacer;

fn place(env: &Env, dag: &Dag, flavor: Flavor) -> Placement {
    let mut est = Estimator::new(env, dag);
    let n = dag.len();
    let mut indeg: Vec<u32> = (0..n)
        .map(|i| dag.preds(TaskId(i as u32)).len() as u32)
        .collect();
    let mut ready: Vec<TaskId> = (0..n)
        .filter(|&i| indeg[i] == 0)
        .map(|i| TaskId(i as u32))
        .collect();
    let mut committed = 0usize;
    while committed < n {
        assert!(!ready.is_empty(), "cycle in validated DAG?");
        // Best (EFT, device) per ready task.
        let mut best: Option<(continuum_sim::SimTime, TaskId, continuum_model::DeviceId)> = None;
        for &t in &ready {
            let dev = best_eft_device(&est, env, dag, t, None, true);
            let (_, fin) = est.eft(t, dev, true);
            let better = match (&best, flavor) {
                (None, _) => true,
                (Some((bf, bt, _)), Flavor::MinMin) => (fin, t) < (*bf, *bt),
                (Some((bf, bt, _)), Flavor::MaxMin) => fin > *bf || (fin == *bf && t < *bt),
            };
            if better {
                best = Some((fin, t, dev));
            }
        }
        let (_, t, dev) = best.expect("ready set non-empty");
        est.commit(t, dev, true);
        committed += 1;
        ready.retain(|&x| x != t);
        for &s in dag.succs(t) {
            indeg[s.0 as usize] -= 1;
            if indeg[s.0 as usize] == 0 {
                ready.push(s);
            }
        }
    }
    est.into_schedule().placement
}

impl Placer for MinMinPlacer {
    fn name(&self) -> &'static str {
        "min-min"
    }

    fn place(&self, env: &Env, dag: &Dag) -> Placement {
        place(env, dag, Flavor::MinMin)
    }
}

impl Placer for MaxMinPlacer {
    fn name(&self) -> &'static str {
        "max-min"
    }

    fn place(&self, env: &Env, dag: &Dag) -> Placement {
        place(env, dag, Flavor::MaxMin)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::evaluate;
    use crate::policies::RandomPlacer;
    use continuum_model::standard_fleet;
    use continuum_net::{continuum, ContinuumSpec};
    use continuum_sim::Rng;
    use continuum_workflow::{layered_random, LayeredSpec};

    fn env() -> Env {
        let built = continuum(&ContinuumSpec::default());
        Env::new(built.topology.clone(), standard_fleet(&built))
    }

    #[test]
    fn both_flavors_valid_and_beat_random() {
        let env = env();
        let mut rng = Rng::new(51);
        let dag = layered_random(
            &mut rng,
            &LayeredSpec {
                tasks: 80,
                ..Default::default()
            },
        );
        for placer in [&MinMinPlacer as &dyn Placer, &MaxMinPlacer] {
            let placement = placer.place(&env, &dag);
            assert_eq!(placement.assignment.len(), dag.len(), "{}", placer.name());
            let (sched, m) = evaluate(&env, &dag, &placement);
            assert!(sched.respects_dependencies(&dag), "{}", placer.name());
            let (_, m_rand) = evaluate(&env, &dag, &RandomPlacer::new(1).place(&env, &dag));
            assert!(m.makespan_s < m_rand.makespan_s, "{}", placer.name());
        }
    }

    #[test]
    fn flavors_differ_on_textbook_case() {
        // Two single-core devices, one fast and one slow; one big task and
        // two small ones, all independent. Min-Min packs everything onto
        // the fast device; Max-Min commits the big task there first, which
        // pushes a small task to the slow device.
        use continuum_model::{catalog, DeviceClass};
        let mut topo = continuum_net::Topology::new();
        let fast_n = topo.add_node("fast", continuum_net::Tier::Cloud);
        let slow_n = topo.add_node("slow", continuum_net::Tier::Edge);
        topo.add_link(
            fast_n,
            slow_n,
            continuum_sim::SimDuration::from_micros(10),
            1e9,
        );
        let mut fleet = continuum_model::Fleet::new();
        let mut fast = catalog::spec(DeviceClass::CloudVm);
        fast.cores = 1;
        fast.flops = 3.75e10;
        let mut slow = catalog::spec(DeviceClass::EdgeGateway);
        slow.cores = 1;
        slow.flops = 3e9;
        fleet.add(fast_n, fast);
        fleet.add(slow_n, slow);
        let env = Env::new(topo, fleet);

        let mut dag = Dag::new("textbook");
        let src = fast_n;
        for (i, work) in [6e10, 3e9, 3e9].into_iter().enumerate() {
            let input = dag.add_input(format!("in{i}"), 1, src);
            let out = dag.add_item(format!("out{i}"), 1);
            dag.add_task(format!("t{i}"), work, vec![input], vec![out]);
        }
        let a = MinMinPlacer.place(&env, &dag);
        let b = MaxMinPlacer.place(&env, &dag);
        assert_ne!(a, b, "min-min and max-min coincide on the textbook case");
        // Min-Min keeps everything on the fast device.
        assert!(a.assignment.iter().all(|d| d.0 == 0), "{a:?}");
        // Max-Min offloads at least one small task to the slow device.
        assert!(b.assignment.iter().any(|d| d.0 == 1), "{b:?}");
    }

    #[test]
    fn deterministic() {
        let env = env();
        let mut rng = Rng::new(57);
        let dag = layered_random(
            &mut rng,
            &LayeredSpec {
                tasks: 40,
                ..Default::default()
            },
        );
        assert_eq!(
            MinMinPlacer.place(&env, &dag),
            MinMinPlacer.place(&env, &dag)
        );
        assert_eq!(
            MaxMinPlacer.place(&env, &dag),
            MaxMinPlacer.place(&env, &dag)
        );
    }
}
