//! Placement policies: baselines and continuum-aware schedulers.

mod anneal;
mod baselines;
mod cpop;
mod data_aware;
mod heft;
mod minmax;
mod peft;

pub use anneal::AnnealingPlacer;
pub use baselines::{GreedyEftPlacer, RandomPlacer, RoundRobinPlacer, TierPlacer};
pub use cpop::CpopPlacer;
pub use data_aware::DataAwarePlacer;
pub use heft::HeftPlacer;
pub use minmax::{MaxMinPlacer, MinMinPlacer};
pub use peft::PeftPlacer;

use crate::env::Env;
use crate::estimate::Placement;
use continuum_workflow::Dag;

/// A placement policy: maps (environment, workflow) to an assignment.
///
/// Implementations must be deterministic for a fixed configuration — the
/// stochastic ones take explicit seeds.
///
/// ```
/// use continuum_model::standard_fleet;
/// use continuum_net::{continuum, ContinuumSpec};
/// use continuum_placement::{evaluate, Env, HeftPlacer, Placer};
/// use continuum_workflow::{analytics_pipeline, PipelineSpec};
///
/// let built = continuum(&ContinuumSpec::default());
/// let env = Env::new(built.topology.clone(), standard_fleet(&built));
/// let dag = analytics_pipeline(&PipelineSpec {
///     source: built.sensors[0],
///     ..Default::default()
/// });
/// let placement = HeftPlacer::default().place(&env, &dag);
/// let (schedule, metrics) = evaluate(&env, &dag, &placement);
/// assert!(schedule.respects_dependencies(&dag));
/// assert!(metrics.makespan_s > 0.0);
/// ```
pub trait Placer: Sync {
    /// Stable identifier used in experiment output rows.
    fn name(&self) -> &'static str;

    /// Produce a placement for every task of `dag`.
    fn place(&self, env: &Env, dag: &Dag) -> Placement;
}

/// The standard policy line-up compared throughout the experiments.
pub fn standard_lineup() -> Vec<Box<dyn Placer>> {
    vec![
        Box::new(RandomPlacer::new(0xC0FFEE)),
        Box::new(RoundRobinPlacer),
        Box::new(TierPlacer::edge_only()),
        Box::new(TierPlacer::cloud_only()),
        Box::new(GreedyEftPlacer::default()),
        Box::new(DataAwarePlacer),
        Box::new(MinMinPlacer),
        Box::new(MaxMinPlacer),
        Box::new(CpopPlacer),
        Box::new(PeftPlacer),
        Box::new(HeftPlacer::default()),
    ]
}
