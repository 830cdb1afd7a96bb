//! Objectives: scoring a placement on time, energy, dollars, and data
//! movement.
//!
//! [`evaluate`] replays a fixed placement through the shared estimator
//! (topological order, insertion slots) and derives the four metrics every
//! experiment reports. [`WeightedObjective`] scalarizes them for the
//! annealing policy and the Pareto experiment (F6).

use crate::env::Env;
use crate::estimate::{EstimatedSchedule, Estimator, Placement};
use continuum_model::{CostMeter, DeviceId, EnergyMeter, Fleet};
use continuum_sim::{SimDuration, SimTime};
use continuum_workflow::Dag;
use serde::{Deserialize, Serialize};

/// The metrics a schedule is judged on.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Metrics {
    /// End-to-end completion time, seconds.
    pub makespan_s: f64,
    /// Total energy (busy + idle of used devices), joules.
    pub energy_j: f64,
    /// Total dollars (occupancy + egress).
    pub cost_usd: f64,
    /// Bytes moved across non-local links.
    pub bytes_moved: u64,
}

/// Replay `placement` in topological order and compute its metrics.
///
/// # Panics
/// If the placement violates a constraint (wrong pinned node, etc.) the
/// schedule is still produced — constraint checking is the placer's job —
/// but a missing route or unplaced producer panics.
pub fn evaluate(env: &Env, dag: &Dag, placement: &Placement) -> (EstimatedSchedule, Metrics) {
    assert_eq!(
        placement.assignment.len(),
        dag.len(),
        "placement size mismatch"
    );
    let mut est = Estimator::new(env, dag);
    for t in dag.topo_order() {
        est.commit(t, placement.device(t), true);
    }
    let schedule = est.into_schedule();
    let metrics = metrics_of(env, dag, &schedule);
    (schedule, metrics)
}

/// Derive metrics from a committed schedule.
pub fn metrics_of(env: &Env, dag: &Dag, schedule: &EstimatedSchedule) -> Metrics {
    metrics_from_parts(
        env,
        dag,
        &schedule.placement.assignment,
        &schedule.start,
        &schedule.finish,
    )
}

/// [`metrics_of`] over raw schedule arrays. The delta-cost annealer keeps
/// its schedule as bare arrays and scores through the same
/// [`MetricsScratch::metrics`], so its scores are bit-identical to a full
/// [`evaluate`] whenever the arrays agree.
pub fn metrics_from_parts(
    env: &Env,
    dag: &Dag,
    assignment: &[DeviceId],
    start: &[SimTime],
    finish: &[SimTime],
) -> Metrics {
    MetricsScratch::new(&env.fleet).metrics(env, dag, assignment, start, finish)
}

/// Energy and cost meters reused across scorings over one fleet. A
/// scoring writes only the devices the schedule runs on or bills egress
/// to, so only those are summed (in ascending id order, which keeps the
/// sums bit-identical to fleet-wide ones) and cleared afterwards.
pub(crate) struct MetricsScratch {
    energy: EnergyMeter,
    cost: CostMeter,
    /// Devices written by the current scoring.
    touched: Vec<DeviceId>,
    /// `seen[d]`: `d` is in `touched`.
    seen: Vec<bool>,
}

impl MetricsScratch {
    pub(crate) fn new(fleet: &Fleet) -> Self {
        MetricsScratch {
            energy: EnergyMeter::new(fleet),
            cost: CostMeter::new(fleet),
            touched: Vec::new(),
            seen: vec![false; fleet.len()],
        }
    }

    fn touch(&mut self, d: DeviceId) {
        if !self.seen[d.0 as usize] {
            self.seen[d.0 as usize] = true;
            self.touched.push(d);
        }
    }

    /// Score a schedule given as raw arrays.
    pub(crate) fn metrics(
        &mut self,
        env: &Env,
        dag: &Dag,
        assignment: &[DeviceId],
        start: &[SimTime],
        finish: &[SimTime],
    ) -> Metrics {
        let fleet = &env.fleet;
        let mut bytes_moved: u64 = 0;

        for task in dag.tasks() {
            let ti = task.id.0 as usize;
            let dev = assignment[ti];
            let spec = &fleet.device(dev).spec;
            let dur = finish[ti].since(start[ti]);
            let cores = task.occupancy(spec.cores);
            self.energy.record_busy(fleet, dev, cores, dur);
            self.cost.record_occupancy(fleet, dev, cores, dur);
            self.touch(dev);

            // Charge transfers for each input that crosses nodes.
            let dst = env.node_of(dev);
            for &d in &task.inputs {
                let item = dag.data(d);
                let src = match dag.producer(d) {
                    Some(p) => env.node_of(assignment[p.0 as usize]),
                    None => item.home.expect("external item has home"),
                };
                if src != dst {
                    bytes_moved += item.bytes;
                    // Egress billed to the first billing device at the
                    // source node (if any).
                    if let Some(&src_dev) = fleet.at_node(src).first() {
                        self.cost.record_egress(fleet, src_dev, item.bytes);
                        self.touch(src_dev);
                    }
                }
            }
        }

        let makespan = finish
            .iter()
            .copied()
            .max()
            .unwrap_or(SimTime::ZERO)
            .since(SimTime::ZERO);
        self.touched.sort_unstable();
        let metrics = Metrics {
            makespan_s: makespan.as_secs_f64(),
            energy_j: self
                .energy
                .used_devices_joules_of(fleet, makespan, &self.touched),
            cost_usd: self.cost.total_usd_of(&self.touched),
            bytes_moved,
        };
        self.energy.clear_devices(&self.touched);
        self.cost.clear_devices(&self.touched);
        for d in self.touched.drain(..) {
            self.seen[d.0 as usize] = false;
        }
        metrics
    }
}

/// Linear scalarization of [`Metrics`] for search-based policies.
///
/// Weights are in "per unit" terms: seconds, kilojoules, dollars. The
/// defaults optimize makespan only.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct WeightedObjective {
    /// Weight on makespan (per second).
    pub w_time: f64,
    /// Weight on energy (per kilojoule).
    pub w_energy: f64,
    /// Weight on dollars (per USD).
    pub w_cost: f64,
}

impl Default for WeightedObjective {
    fn default() -> Self {
        WeightedObjective {
            w_time: 1.0,
            w_energy: 0.0,
            w_cost: 0.0,
        }
    }
}

impl WeightedObjective {
    /// Makespan-only objective.
    pub fn makespan() -> Self {
        Self::default()
    }

    /// Scalar score (lower is better).
    pub fn score(&self, m: &Metrics) -> f64 {
        self.w_time * m.makespan_s + self.w_energy * m.energy_j / 1e3 + self.w_cost * m.cost_usd
    }
}

/// True if `a` Pareto-dominates `b` on (makespan, energy, cost).
pub fn dominates(a: &Metrics, b: &Metrics) -> bool {
    let le = a.makespan_s <= b.makespan_s && a.energy_j <= b.energy_j && a.cost_usd <= b.cost_usd;
    let lt = a.makespan_s < b.makespan_s || a.energy_j < b.energy_j || a.cost_usd < b.cost_usd;
    le && lt
}

/// Filter a set of metrics down to its Pareto front (stable order).
pub fn pareto_front(points: &[Metrics]) -> Vec<Metrics> {
    points
        .iter()
        .filter(|p| !points.iter().any(|q| dominates(q, p)))
        .copied()
        .collect()
}

/// A makespan expressed as a [`SimDuration`], for callers that want virtual
/// time rather than seconds.
pub fn makespan_duration(m: &Metrics) -> SimDuration {
    SimDuration::from_secs_f64(m.makespan_s)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(t: f64, e: f64, c: f64) -> Metrics {
        Metrics {
            makespan_s: t,
            energy_j: e,
            cost_usd: c,
            bytes_moved: 0,
        }
    }

    #[test]
    fn domination_rules() {
        assert!(dominates(&m(1.0, 1.0, 1.0), &m(2.0, 2.0, 2.0)));
        assert!(dominates(&m(1.0, 2.0, 2.0), &m(2.0, 2.0, 2.0)));
        assert!(!dominates(&m(1.0, 3.0, 1.0), &m(2.0, 2.0, 2.0)));
        // Equal points do not dominate each other.
        assert!(!dominates(&m(1.0, 1.0, 1.0), &m(1.0, 1.0, 1.0)));
    }

    #[test]
    fn pareto_front_filters_dominated() {
        let pts = vec![
            m(1.0, 5.0, 5.0),
            m(5.0, 1.0, 5.0),
            m(5.0, 5.0, 1.0),
            m(6.0, 6.0, 6.0),
        ];
        let front = pareto_front(&pts);
        assert_eq!(front.len(), 3);
        assert!(!front.iter().any(|p| p.makespan_s == 6.0));
    }

    #[test]
    fn weighted_score_linear() {
        let obj = WeightedObjective {
            w_time: 2.0,
            w_energy: 1.0,
            w_cost: 10.0,
        };
        let s = obj.score(&m(3.0, 2000.0, 0.5));
        assert!((s - (6.0 + 2.0 + 5.0)).abs() < 1e-12);
    }
}
