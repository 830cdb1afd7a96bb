//! PEFT: Predict Earliest Finish Time (Arabnejad & Barbosa, 2014).
//!
//! PEFT improves on HEFT with an *optimistic cost table* (OCT):
//! `oct[t][d]` is the best-case remaining path cost from task `t` to the
//! exit, assuming `t` runs on device `d` and every descendant takes its
//! own best choice. Tasks are prioritized by mean OCT, and each task is
//! committed to the device minimizing `EFT + OCT` — one step of lookahead
//! that HEFT lacks, at O(n·d) extra table cost.
//!
//! On continuum fleets with dozens of devices the full `n × d` table is
//! affordable and the lookahead pays when a locally-fast device strands a
//! task's descendants far from their next good home.

use super::Placer;
use crate::env::Env;
use crate::estimate::{Estimator, Placement};
use continuum_model::DeviceId;
use continuum_workflow::{Dag, TaskId};

/// The PEFT placement policy.
#[derive(Debug, Clone, Default)]
pub struct PeftPlacer;

impl PeftPlacer {
    /// Compute the optimistic cost table: `oct[task][device]`, in seconds.
    ///
    /// Communication between tasks is charged at the mean bandwidth when
    /// the descendant runs on a *different* device (the standard PEFT
    /// approximation).
    pub fn oct(env: &Env, dag: &Dag) -> Vec<Vec<f64>> {
        let devices = env.fleet.devices();
        let n_dev = devices.len();
        let mean_bps = env.mean_bandwidth();
        let mut oct = vec![vec![0.0f64; n_dev]; dag.len()];
        // Reverse topological order: exits first.
        let order = dag.topo_order();
        for &t in order.iter().rev() {
            if dag.succs(t).is_empty() {
                continue; // exit tasks: all zeros
            }
            for d in 0..n_dev {
                let mut worst_succ = 0.0f64;
                for &s in dag.succs(t) {
                    // Bytes s consumes from t.
                    let bytes: u64 = dag
                        .task(s)
                        .inputs
                        .iter()
                        .filter(|&&x| dag.producer(x) == Some(t))
                        .map(|&x| dag.data(x).bytes)
                        .sum();
                    let mut best = f64::INFINITY;
                    for (w, dev_w) in devices.iter().enumerate() {
                        let task_s = dag.task(s);
                        let exec = dev_w
                            .spec
                            .compute_time_parallel(task_s.work_flops, task_s.parallelism)
                            .as_secs_f64();
                        let comm = if w == d { 0.0 } else { bytes as f64 / mean_bps };
                        let v = oct[s.0 as usize][w] + exec + comm;
                        if v < best {
                            best = v;
                        }
                    }
                    worst_succ = worst_succ.max(best);
                }
                oct[t.0 as usize][d] = worst_succ;
            }
        }
        oct
    }

    /// PEFT rank: mean OCT across devices, descending.
    fn rank_order(oct: &[Vec<f64>], dag: &Dag) -> Vec<TaskId> {
        let rank: Vec<f64> = oct
            .iter()
            .map(|row| row.iter().sum::<f64>() / row.len() as f64)
            .collect();
        let mut order: Vec<TaskId> = (0..dag.len() as u32).map(TaskId).collect();
        order.sort_by(|a, b| {
            rank[b.0 as usize]
                .partial_cmp(&rank[a.0 as usize])
                .expect("NaN rank")
                .then(a.0.cmp(&b.0))
        });
        order
    }
}

impl Placer for PeftPlacer {
    fn name(&self) -> &'static str {
        "peft"
    }

    fn place(&self, env: &Env, dag: &Dag) -> Placement {
        let oct = Self::oct(env, dag);
        let mut est = Estimator::new(env, dag);
        // PEFT's mean-OCT rank is not guaranteed topological; process a
        // ready queue ordered by rank instead.
        let order = Self::rank_order(&oct, dag);
        let mut pos = vec![0usize; dag.len()];
        for (i, t) in order.iter().enumerate() {
            pos[t.0 as usize] = i;
        }
        let mut indeg: Vec<u32> = (0..dag.len())
            .map(|i| dag.preds(TaskId(i as u32)).len() as u32)
            .collect();
        let mut ready: Vec<TaskId> = (0..dag.len())
            .filter(|&i| indeg[i] == 0)
            .map(|i| TaskId(i as u32))
            .collect();
        while !ready.is_empty() {
            // Highest-rank ready task.
            let (k, _) = ready
                .iter()
                .enumerate()
                .min_by_key(|(_, t)| pos[t.0 as usize])
                .expect("ready non-empty");
            let t = ready.swap_remove(k);
            let feas = env.feasible_devices(dag.task(t));
            let score = |d: DeviceId| {
                let (_, fin) = est.eft(t, d, true);
                // Lookahead: add the optimistic remaining cost.
                (fin.as_secs_f64() + oct[t.0 as usize][d.0 as usize], d)
            };
            let best: DeviceId = feas
                .into_iter()
                .map(score)
                .min_by(|a, b| {
                    a.0.partial_cmp(&b.0)
                        .expect("NaN score")
                        .then(a.1.cmp(&b.1))
                })
                .expect("feasible set non-empty")
                .1;
            est.commit(t, best, true);
            for &s in dag.succs(t) {
                indeg[s.0 as usize] -= 1;
                if indeg[s.0 as usize] == 0 {
                    ready.push(s);
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
    use crate::policies::{HeftPlacer, RandomPlacer};
    use continuum_model::standard_fleet;
    use continuum_net::{continuum, ContinuumSpec};
    use continuum_sim::Rng;
    use continuum_workflow::{layered_random, LayeredSpec};

    fn env() -> Env {
        let built = continuum(&ContinuumSpec::default());
        Env::new(built.topology.clone(), standard_fleet(&built))
    }

    #[test]
    fn oct_zero_at_exits_monotone_upstream() {
        let env = env();
        let mut g = Dag::new("chain");
        let src = env.fleet.devices()[0].node;
        let mut prev = g.add_input("in", 1 << 20, src);
        for i in 0..4 {
            let out = g.add_item(format!("d{i}"), 1 << 20);
            g.add_task(format!("t{i}"), 1e10, vec![prev], vec![out]);
            prev = out;
        }
        let oct = PeftPlacer::oct(&env, &g);
        // Exit row is all zeros.
        assert!(oct[3].iter().all(|&v| v == 0.0));
        // Upstream rows grow (more remaining work).
        let mean = |row: &Vec<f64>| row.iter().sum::<f64>() / row.len() as f64;
        assert!(mean(&oct[0]) > mean(&oct[1]));
        assert!(mean(&oct[1]) > mean(&oct[2]));
        assert!(mean(&oct[2]) > mean(&oct[3]));
    }

    #[test]
    fn peft_valid_and_competitive_with_heft() {
        let env = env();
        for seed in [3u64, 9, 27] {
            let mut rng = Rng::new(seed);
            let dag = layered_random(
                &mut rng,
                &LayeredSpec {
                    tasks: 100,
                    ..Default::default()
                },
            );
            let placement = PeftPlacer.place(&env, &dag);
            let (sched, m_peft) = evaluate(&env, &dag, &placement);
            assert!(sched.respects_dependencies(&dag));
            let (_, m_heft) = evaluate(&env, &dag, &HeftPlacer::default().place(&env, &dag));
            let (_, m_rand) = evaluate(&env, &dag, &RandomPlacer::new(seed).place(&env, &dag));
            assert!(m_peft.makespan_s < m_rand.makespan_s);
            // PEFT and HEFT should be in the same league (within 2x).
            assert!(
                m_peft.makespan_s < m_heft.makespan_s * 2.0,
                "seed {seed}: peft {} vs heft {}",
                m_peft.makespan_s,
                m_heft.makespan_s
            );
        }
    }

    #[test]
    fn peft_deterministic() {
        let env = env();
        let mut rng = Rng::new(81);
        let dag = layered_random(
            &mut rng,
            &LayeredSpec {
                tasks: 60,
                ..Default::default()
            },
        );
        assert_eq!(PeftPlacer.place(&env, &dag), PeftPlacer.place(&env, &dag));
    }
}
