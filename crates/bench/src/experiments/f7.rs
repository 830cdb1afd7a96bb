//! F7 — function-fabric throughput and balance (the funcX-analogue
//! evaluation).
//!
//! A 5-Gflop inference function is served by endpoints on the fog and
//! cloud tiers. The offered load and the endpoint count are swept for
//! each routing policy; we report sustained throughput, tail latency, and
//! Jain fairness of per-endpoint completions.

use crate::report::{f, Table};
use continuum_core::prelude::*;
use continuum_fabric::{
    endpoints_on, run_fabric, FederationCfg, FunctionRegistry, Invocation, RoutingPolicy,
};
use serde::Serialize;

/// One measured point.
#[derive(Debug, Clone, Serialize)]
pub struct Row {
    /// Routing policy label.
    pub policy: String,
    /// Offered rate, invocations/second.
    pub rate_hz: f64,
    /// Endpoints serving.
    pub endpoints: usize,
    /// Sustained completions/second.
    pub throughput_hz: f64,
    /// Median latency, seconds.
    pub p50_s: f64,
    /// 99th-percentile latency, seconds.
    pub p99_s: f64,
    /// Jain fairness of per-endpoint completion counts.
    pub jain: f64,
}

/// Offered rates swept, invocations/second.
pub fn rates() -> Vec<f64> {
    vec![50.0, 200.0, 800.0]
}

/// Invocations per run.
pub const INVOCATIONS: usize = 4_000;

/// Run the sweep.
pub fn run() -> (Table, Vec<Row>) {
    let world = Continuum::build(&Scenario::default_continuum());
    let mut registry = FunctionRegistry::new();
    let infer = registry.register("infer", 5e9, 200 << 10, 1 << 10);
    let mut devices = world.env().fleet.in_tier(Tier::Fog);
    devices.extend(world.env().fleet.in_tier(Tier::Cloud));
    let endpoints = endpoints_on(world.env(), &devices);

    let mut rows = Vec::new();
    let mut table = Table::new(
        "F7 — fabric throughput / latency / balance vs offered load",
        &[
            "policy",
            "rate (/s)",
            "eps",
            "thpt (/s)",
            "p50 (s)",
            "p99 (s)",
            "jain",
        ],
    );
    for &rate in &rates() {
        let mut rng = Rng::new(0xF7);
        let mut t = 0.0;
        let invocations: Vec<Invocation> = (0..INVOCATIONS)
            .map(|i| {
                t += rng.exp(rate);
                Invocation {
                    arrival: SimTime::from_secs_f64(t),
                    origin: world.sensors()[i % world.sensors().len()],
                    function: infer,
                }
            })
            .collect();
        for policy in [
            RoutingPolicy::RoundRobin,
            RoutingPolicy::LeastOutstanding,
            RoutingPolicy::Locality,
        ] {
            let rep = run_fabric(
                world.env(),
                &registry,
                &endpoints,
                &invocations,
                &FederationCfg::new(policy),
            );
            let (p50, _, p99) = rep.latency_percentiles();
            table.row(vec![
                policy.label().to_string(),
                f(rate),
                endpoints.len().to_string(),
                f(rep.throughput_hz),
                f(p50),
                f(p99),
                format!("{:.3}", rep.jain),
            ]);
            rows.push(Row {
                policy: policy.label().to_string(),
                rate_hz: rate,
                endpoints: endpoints.len(),
                throughput_hz: rep.throughput_hz,
                p50_s: p50,
                p99_s: p99,
                jain: rep.jain,
            });
        }
    }
    (table, rows)
}

#[cfg(test)]
mod tests {
    #[test]
    fn fabric_sustains_offered_load_and_locality_cuts_latency() {
        let (_, rows) = super::run();
        for r in &rows {
            // At sub-saturation rates the fabric keeps up (within 10%).
            if r.rate_hz <= 200.0 {
                assert!(
                    r.throughput_hz > r.rate_hz * 0.9,
                    "{} @ {}: thpt {}",
                    r.policy,
                    r.rate_hz,
                    r.throughput_hz
                );
            }
            assert!(r.p50_s <= r.p99_s);
        }
        // Locality beats round-robin on median latency at low load.
        let p50 = |policy: &str, rate: f64| {
            rows.iter()
                .find(|r| r.policy == policy && r.rate_hz == rate)
                .map(|r| r.p50_s)
                .expect("row")
        };
        assert!(p50("locality", 50.0) <= p50("round-robin", 50.0));
        // Round-robin stays near-perfectly balanced everywhere.
        for r in rows.iter().filter(|r| r.policy == "round-robin") {
            assert!(r.jain > 0.95);
        }
    }
}
