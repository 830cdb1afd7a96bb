//! CPOP: Critical-Path-on-a-Processor (Topcuoglu et al., 2002).
//!
//! Tasks are prioritized by upward + downward rank; the tasks on the
//! critical path are all bound to the single feasible device that executes
//! the whole path fastest, and everything else is scheduled by earliest
//! finish time from a priority-ordered ready queue.

use super::Placer;
use crate::env::Env;
use crate::estimate::{Estimator, Placement};
use continuum_model::DeviceId;
use continuum_workflow::{Dag, TaskId};
use std::collections::BinaryHeap;

/// The CPOP placement policy.
#[derive(Debug, Clone, Default)]
pub struct CpopPlacer;

impl CpopPlacer {
    /// Downward ranks: longest mean-cost path from an entry task to `t`
    /// (excluding `t`'s own work).
    fn downward_ranks(env: &Env, dag: &Dag) -> Vec<f64> {
        let mean_flops = env.mean_core_flops();
        let mean_bps = env.mean_bandwidth();
        let order = dag.topo_order();
        let mut rank = vec![0.0f64; dag.len()];
        for &t in &order {
            for &p in dag.preds(t) {
                let bytes: u64 = dag
                    .task(t)
                    .inputs
                    .iter()
                    .filter(|&&d| dag.producer(d) == Some(p))
                    .map(|&d| dag.data(d).bytes)
                    .sum();
                let c = bytes as f64 / mean_bps;
                let w_p = dag.task(p).work_flops / mean_flops;
                let via = rank[p.0 as usize] + w_p + c;
                if via > rank[t.0 as usize] {
                    rank[t.0 as usize] = via;
                }
            }
        }
        rank
    }
}

impl Placer for CpopPlacer {
    fn name(&self) -> &'static str {
        "cpop"
    }

    fn place(&self, env: &Env, dag: &Dag) -> Placement {
        let up = dag.upward_ranks(env.mean_core_flops(), env.mean_bandwidth());
        let down = Self::downward_ranks(env, dag);
        let prio: Vec<f64> = up.iter().zip(&down).map(|(u, d)| u + d).collect();
        let cp_len = prio.iter().cloned().fold(0.0f64, f64::max);
        let eps = 1e-9 * cp_len.max(1.0);

        // Walk the critical path from an entry task.
        let mut cp: Vec<TaskId> = Vec::new();
        let mut cur = dag
            .sources()
            .into_iter()
            .find(|t| (prio[t.0 as usize] - cp_len).abs() <= eps);
        while let Some(t) = cur {
            cp.push(t);
            cur = dag
                .succs(t)
                .iter()
                .copied()
                .find(|s| (prio[s.0 as usize] - cp_len).abs() <= eps);
        }

        // The CP device: feasible for every CP task, fastest per core.
        let cp_device: Option<DeviceId> = {
            let mut common: Option<Vec<DeviceId>> = None;
            for &t in &cp {
                let feas = env.feasible_devices(dag.task(t));
                common = Some(match common {
                    None => feas,
                    Some(prev) => prev.into_iter().filter(|d| feas.contains(d)).collect(),
                });
            }
            common.and_then(|c| {
                c.into_iter().max_by(|a, b| {
                    env.fleet
                        .device(*a)
                        .spec
                        .flops_per_core()
                        .partial_cmp(&env.fleet.device(*b).spec.flops_per_core())
                        .expect("NaN flops")
                        .then(b.0.cmp(&a.0))
                })
            })
        };
        let on_cp = {
            let mut v = vec![false; dag.len()];
            for &t in &cp {
                v[t.0 as usize] = true;
            }
            v
        };

        // Priority-ordered ready queue (max-heap on priority, id tiebreak).
        let mut est = Estimator::new(env, dag);
        let mut indeg: Vec<u32> = (0..dag.len())
            .map(|i| dag.preds(TaskId(i as u32)).len() as u32)
            .collect();

        // Wrapper for f64 ordering in the heap.
        #[derive(PartialEq, PartialOrd)]
        struct P(f64);
        impl Eq for P {}
        #[allow(clippy::derive_ord_xor_partial_ord)]
        impl Ord for P {
            fn cmp(&self, other: &Self) -> std::cmp::Ordering {
                self.partial_cmp(other).expect("NaN priority")
            }
        }
        // (priority, reverse id) so higher priority first, lower id on tie.
        let mut ready: BinaryHeap<(P, std::cmp::Reverse<u32>)> = BinaryHeap::new();
        for (i, &d) in indeg.iter().enumerate() {
            if d == 0 {
                ready.push((P(prio[i]), std::cmp::Reverse(i as u32)));
            }
        }
        while let Some((_, std::cmp::Reverse(ti))) = ready.pop() {
            let t = TaskId(ti);
            let device = match cp_device.filter(|_| on_cp[ti as usize]) {
                Some(d) => d,
                None => super::baselines::best_eft_device(&est, env, dag, t, None, true),
            };
            est.commit(t, device, true);
            for &s in dag.succs(t) {
                indeg[s.0 as usize] -= 1;
                if indeg[s.0 as usize] == 0 {
                    ready.push((P(prio[s.0 as usize]), std::cmp::Reverse(s.0)));
                }
            }
        }
        est.into_schedule().placement
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
    fn cpop_valid_and_beats_random() {
        let env = env();
        let mut rng = Rng::new(13);
        let g = layered_random(
            &mut rng,
            &LayeredSpec {
                tasks: 120,
                ..Default::default()
            },
        );
        let placement = CpopPlacer.place(&env, &g);
        assert_eq!(placement.assignment.len(), g.len());
        let (sched, m) = evaluate(&env, &g, &placement);
        assert!(sched.respects_dependencies(&g));
        let (_, m_rand) = evaluate(&env, &g, &RandomPlacer::new(3).place(&env, &g));
        assert!(m.makespan_s <= m_rand.makespan_s);
    }

    #[test]
    fn cp_tasks_share_a_device_on_a_chain() {
        // A pure chain IS the critical path; CPOP should co-locate it.
        let env = env();
        let mut g = Dag::new("chain");
        let src = env.fleet.devices()[0].node;
        let mut prev = g.add_input("in", 1 << 20, src);
        for i in 0..6 {
            let out = g.add_item(format!("d{i}"), 1 << 20);
            g.add_task(format!("t{i}"), 1e10, vec![prev], vec![out]);
            prev = out;
        }
        let placement = CpopPlacer.place(&env, &g);
        let first = placement.assignment[0];
        assert!(placement.assignment.iter().all(|&d| d == first));
    }

    #[test]
    fn cpop_deterministic() {
        let env = env();
        let mut rng = Rng::new(21);
        let g = layered_random(
            &mut rng,
            &LayeredSpec {
                tasks: 60,
                ..Default::default()
            },
        );
        assert_eq!(CpopPlacer.place(&env, &g), CpopPlacer.place(&env, &g));
    }
}
