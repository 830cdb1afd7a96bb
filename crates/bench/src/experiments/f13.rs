//! F13 — serverless elasticity: provisioning cost vs latency.
//!
//! A bursty diurnal-ish workload (dense bursts separated by long idle
//! stretches) hits cloud endpoints under three provisioning regimes:
//! *static-max* (every declared slot always on), *static-min* (one slot
//! per endpoint), and *elastic* (slots grow with queued work and shrink
//! when queues drain), each with a 1 s cold start and a 30 s keep-warm.
//!
//! Expected shape: static-max buys the best latency at maximal
//! slot-seconds; static-min inverts that; elastic sits near static-max
//! latency at near static-min cost — the pay-for-what-you-use argument
//! the serverless continuum makes.

use crate::report::{f, Table};
use continuum_core::prelude::*;
use continuum_fabric::{
    endpoints_on, run_fabric, Autoscale, ColdStart, Endpoint, FederationCfg, FunctionRegistry,
    Invocation, RoutingPolicy,
};
use serde::Serialize;

/// One measured regime.
#[derive(Debug, Clone, Serialize)]
pub struct Row {
    /// Provisioning regime.
    pub regime: String,
    /// Median latency, seconds.
    pub p50_s: f64,
    /// 99th-percentile latency, seconds.
    pub p99_s: f64,
    /// Slot-seconds consumed (provisioning cost).
    pub slot_seconds: f64,
}

/// Bursts in the workload.
pub const BURSTS: usize = 4;
/// Invocations per burst.
pub const PER_BURST: usize = 120;
/// Idle gap between bursts, seconds.
pub const GAP_S: f64 = 180.0;

fn workload(world: &Continuum) -> Vec<Invocation> {
    let mut rng = Rng::new(0xF13);
    let mut invs = Vec::with_capacity(BURSTS * PER_BURST);
    for b in 0..BURSTS {
        for i in 0..PER_BURST {
            invs.push(Invocation {
                arrival: SimTime::from_secs_f64(b as f64 * GAP_S + rng.range_f64(0.0, 3.0)),
                origin: world.sensors()[i % world.sensors().len()],
                function: continuum_fabric::FunctionId(0),
            });
        }
    }
    invs.sort_by_key(|i| i.arrival);
    invs
}

/// Run the three regimes.
pub fn run() -> (Table, Vec<Row>) {
    let world = Continuum::build(&Scenario::default_continuum());
    let mut registry = FunctionRegistry::new();
    registry.register("infer", 2e10, 100 << 10, 1 << 10);
    let endpoints = endpoints_on(world.env(), &world.env().fleet.in_tier(Tier::Cloud));
    let invocations = workload(&world);
    let cold = Some(ColdStart {
        cold_time: SimDuration::from_secs(1),
        keep_warm: SimDuration::from_secs(30),
    });

    let run_one = |eps: &[Endpoint], autoscale: Option<Autoscale>, regime: &str| -> Row {
        let mut cfg = FederationCfg::new(RoutingPolicy::LeastOutstanding);
        cfg.cold = cold;
        cfg.autoscale = autoscale;
        let rep = run_fabric(world.env(), &registry, eps, &invocations, &cfg);
        assert_eq!(rep.completed, invocations.len() as u64);
        let (p50, _, p99) = rep.latency_percentiles();
        Row {
            regime: regime.into(),
            p50_s: p50,
            p99_s: p99,
            slot_seconds: rep.slot_seconds,
        }
    };

    let static_min: Vec<Endpoint> = endpoints
        .iter()
        .map(|e| Endpoint {
            slots: 1,
            ..e.clone()
        })
        .collect();
    let rows = vec![
        run_one(&endpoints, None, "static-max"),
        run_one(&static_min, None, "static-min"),
        run_one(&endpoints, Some(Autoscale { min_slots: 1 }), "elastic"),
    ];

    let mut table = Table::new(
        "F13 — provisioning regimes on a bursty workload (1 s cold starts)",
        &["regime", "p50 (s)", "p99 (s)", "slot-seconds"],
    );
    for r in &rows {
        table.row(vec![
            r.regime.clone(),
            f(r.p50_s),
            f(r.p99_s),
            f(r.slot_seconds),
        ]);
    }
    (table, rows)
}

#[cfg(test)]
mod tests {
    #[test]
    fn elastic_near_max_latency_at_fraction_of_cost() {
        let (_, rows) = super::run();
        let by = |r: &str| rows.iter().find(|x| x.regime == r).expect("regime row");
        let maxr = by("static-max");
        let minr = by("static-min");
        let elastic = by("elastic");
        // Static-min pays in latency on bursts.
        assert!(
            minr.p99_s > maxr.p99_s,
            "min {} !> max {}",
            minr.p99_s,
            maxr.p99_s
        );
        // Elastic: large provisioning saving vs static-max...
        assert!(
            elastic.slot_seconds < maxr.slot_seconds * 0.5,
            "elastic {} vs max {}",
            elastic.slot_seconds,
            maxr.slot_seconds
        );
        // ...at far better tail latency than static-min.
        assert!(
            elastic.p99_s < minr.p99_s,
            "elastic p99 {} !< static-min {}",
            elastic.p99_s,
            minr.p99_s
        );
    }
}
