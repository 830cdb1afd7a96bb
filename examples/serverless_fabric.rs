//! Federated function-as-a-service across the continuum.
//!
//! ```sh
//! cargo run --release --example serverless_fabric
//! ```
//!
//! An inference function is registered once; endpoints run on every fog
//! and cloud device; sensors fire invocations at 100 req/s. Three routing
//! policies are compared on throughput, latency, and endpoint balance.

use continuum_core::prelude::*;
use continuum_fabric::{
    endpoints_on, run_fabric, FederationCfg, FunctionRegistry, Invocation, RoutingPolicy,
};

fn main() {
    let world = Continuum::build(&Scenario::default_continuum());
    let mut registry = FunctionRegistry::new();
    let infer = registry.register("infer", 5e9, 200 << 10, 1 << 10);

    // Endpoints on every fog and cloud device.
    let mut devices = world.env().fleet.in_tier(Tier::Fog);
    devices.extend(world.env().fleet.in_tier(Tier::Cloud));
    let endpoints = endpoints_on(world.env(), &devices);
    println!(
        "fabric: {} endpoints ({} slots total), function 'infer' = 5 Gflop / 200 KB in",
        endpoints.len(),
        endpoints.iter().map(|e| e.slots).sum::<u32>(),
    );

    let mut rng = Rng::new(99);
    let mut t = 0.0;
    let invocations: Vec<Invocation> = (0..3_000)
        .map(|i| {
            t += rng.exp(100.0);
            Invocation {
                arrival: SimTime::from_secs_f64(t),
                origin: world.sensors()[i % world.sensors().len()],
                function: infer,
            }
        })
        .collect();

    println!("\n3000 invocations at ~100 req/s:");
    println!(
        "  {:<18} {:>10} {:>9} {:>9} {:>9} {:>7}",
        "routing", "thpt (/s)", "p50 (s)", "p95 (s)", "p99 (s)", "jain"
    );
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
        let (p50, p95, p99) = rep.latency_percentiles();
        println!(
            "  {:<18} {:>10.1} {:>9.4} {:>9.4} {:>9.4} {:>7.3}",
            policy.label(),
            rep.throughput_hz,
            p50,
            p95,
            p99,
            rep.jain,
        );
    }
    println!("\nreading: locality routing trades a little balance for much lower latency\nby keeping invocations near their origins until queues force spill-over.");
}
