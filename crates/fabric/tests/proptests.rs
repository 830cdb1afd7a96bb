//! Property-based tests for the function fabric, and the identity tests
//! that hold a one-site, batch-1 federation to the single-broker
//! reference in `reference/`.

mod reference;

use continuum_fabric::{
    endpoints_on, run_fabric, run_federation, single_site, sites_from_partition, Admission,
    Autoscale, Backoff, ColdStart, Endpoint, EndpointFaults, FederationCfg, FunctionId,
    FunctionRegistry, Invocation, RoutingPolicy, SiteFaultEvent, SiteFaults,
};
use continuum_model::standard_fleet;
use continuum_net::{continuum, continuum_regions, ContinuumSpec, RegionPartition, Tier};
use continuum_placement::Env;
use continuum_sim::{FaultProcess, FaultScheduleSpec, Rng, SimDuration, SimTime};
use proptest::prelude::*;

/// PR builds run the small default; CI nightlies push the same
/// properties much harder via `CONTINUUM_FABRIC_CASES`.
fn fabric_cases() -> u32 {
    std::env::var("CONTINUUM_FABRIC_CASES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(24)
}

fn world() -> (Env, Vec<continuum_net::NodeId>) {
    let built = continuum(&ContinuumSpec::default());
    let sensors = built.sensors.clone();
    (
        Env::new(built.topology.clone(), standard_fleet(&built)),
        sensors,
    )
}

fn partitioned_world() -> (Env, RegionPartition, Vec<continuum_net::NodeId>) {
    let spec = ContinuumSpec::default();
    let built = continuum(&spec);
    let sensors = built.sensors.clone();
    let env = Env::new(built.topology.clone(), standard_fleet(&built));
    let partition = RegionPartition::new(&env.topology, continuum_regions(&spec), 0);
    (env, partition, sensors)
}

/// No cold start, or a boot tax and keep-warm window drawn from ranges.
fn cold_start() -> impl Strategy<Value = Option<ColdStart>> {
    (any::<bool>(), 1u64..2_000, 0u64..5_000).prop_map(|(on, cold_ms, warm_ms)| {
        on.then(|| ColdStart {
            cold_time: SimDuration::from_millis(cold_ms),
            keep_warm: SimDuration::from_millis(warm_ms),
        })
    })
}

/// Static provisioning, or autoscaling with a floor of 1..=4 slots.
fn autoscale() -> impl Strategy<Value = Option<Autoscale>> {
    (any::<bool>(), 1u32..5).prop_map(|(on, min_slots)| on.then_some(Autoscale { min_slots }))
}

/// No admission gate, or an in-system cap in 1..64.
fn admission() -> impl Strategy<Value = Option<Admission>> {
    (any::<bool>(), 1usize..64)
        .prop_map(|(on, max_outstanding)| on.then_some(Admission { max_outstanding }))
}

proptest! {
    #![proptest_config(ProptestConfig { cases: fabric_cases(), ..ProptestConfig::default() })]

    /// Conservation and sanity: every invocation completes exactly once,
    /// latencies are positive, per-endpoint counts sum to the total, and
    /// Jain stays within its bounds — for every policy, any load.
    #[test]
    fn fabric_conservation(
        seed in any::<u64>(),
        n in 1usize..200,
        rate in 1.0f64..500.0,
        policy_idx in 0usize..3,
        work_exp in 8.0f64..10.5,
    ) {
        let (env, sensors) = world();
        let mut registry = FunctionRegistry::new();
        let f = registry.register("f", 10f64.powf(work_exp), 10 << 10, 1 << 10);
        let endpoints = endpoints_on(&env, &env.fleet.in_tier(Tier::Cloud));
        let mut rng = Rng::new(seed);
        let mut t = 0.0;
        let invocations: Vec<Invocation> = (0..n)
            .map(|i| {
                t += rng.exp(rate);
                Invocation {
                    arrival: SimTime::from_secs_f64(t),
                    origin: sensors[i % sensors.len()],
                    function: f,
                }
            })
            .collect();
        let policy = [
            RoutingPolicy::RoundRobin,
            RoutingPolicy::LeastOutstanding,
            RoutingPolicy::Locality,
        ][policy_idx];
        let rep = run_fabric(&env, &registry, &endpoints, &invocations, &FederationCfg::new(policy));
        prop_assert_eq!(rep.completed, n as u64);
        prop_assert_eq!(rep.latencies_s.len(), n);
        prop_assert_eq!(rep.per_endpoint.iter().sum::<u64>(), n as u64);
        for &l in &rep.latencies_s {
            prop_assert!(l > 0.0, "non-positive latency {l}");
        }
        let lo = 1.0 / endpoints.len() as f64;
        prop_assert!(rep.jain >= lo - 1e-9 && rep.jain <= 1.0 + 1e-9, "jain {}", rep.jain);
        prop_assert!(rep.end_time >= invocations.last().expect("n >= 1").arrival);
    }

    /// Latency lower bound: no invocation beats the bare transfer+exec
    /// time of the fastest endpoint.
    #[test]
    fn latency_lower_bounded(seed in any::<u64>(), n in 1usize..60) {
        let (env, sensors) = world();
        let mut registry = FunctionRegistry::new();
        let f = registry.register("f", 5e9, 200 << 10, 1 << 10);
        let endpoints = endpoints_on(&env, &env.fleet.in_tier(Tier::Cloud));
        // Fastest possible execution anywhere.
        let min_exec = endpoints
            .iter()
            .map(|e| {
                env.fleet
                    .device(e.device)
                    .spec
                    .compute_time_parallel(5e9, 1)
                    .as_secs_f64()
            })
            .fold(f64::INFINITY, f64::min);
        let mut rng = Rng::new(seed);
        let invocations: Vec<Invocation> = (0..n)
            .map(|i| Invocation {
                arrival: SimTime::from_secs_f64(rng.range_f64(0.0, 10.0)),
                origin: sensors[i % sensors.len()],
                function: f,
            })
            .collect();
        let rep = run_fabric(&env, &registry, &endpoints, &invocations, &FederationCfg::new(RoutingPolicy::Locality));
        for &l in &rep.latencies_s {
            prop_assert!(l >= min_exec, "latency {l} below bare exec {min_exec}");
        }
    }

    /// Fault chaos: under any generated endpoint crash/recover schedule,
    /// the broker terminates and conserves invocations — every one either
    /// completes or is explicitly dropped, never both, never lost.
    #[test]
    fn fabric_fault_conservation(
        seed in any::<u64>(),
        n in 1usize..120,
        rate in 5.0f64..200.0,
        policy_idx in 0usize..3,
        mttf_s in 5.0f64..60.0,
        mttr_s in 0.5f64..20.0,
    ) {
        let (env, sensors) = world();
        let mut registry = FunctionRegistry::new();
        let f = registry.register("f", 1e10, 10 << 10, 1 << 10);
        let endpoints = endpoints_on(&env, &env.fleet.in_tier(Tier::Cloud));
        let mut rng = Rng::new(seed);
        let mut t = 0.0;
        let invocations: Vec<Invocation> = (0..n)
            .map(|i| {
                t += rng.exp(rate);
                Invocation {
                    arrival: SimTime::from_secs_f64(t),
                    origin: sensors[i % sensors.len()],
                    function: f,
                }
            })
            .collect();
        let spec = FaultScheduleSpec {
            horizon: SimDuration::from_secs_f64(t + 30.0),
            endpoints: FaultProcess {
                population: endpoints.len() as u32,
                mttf_s,
                mttr_s,
            },
            ..FaultScheduleSpec::default()
        };
        let faults = EndpointFaults {
            schedule: continuum_sim::FaultSchedule::generate(&spec, seed ^ 0xFA17),
            heartbeat: SimDuration::from_millis(500),
            backoff: Backoff::default(),
            seed: seed ^ 0xBAC0,
        };
        let policy = [
            RoutingPolicy::RoundRobin,
            RoutingPolicy::LeastOutstanding,
            RoutingPolicy::Locality,
        ][policy_idx];
        let rep = run_fabric(&env, &registry, &endpoints, &invocations, &FederationCfg { faults: Some(faults), ..FederationCfg::new(policy) });
        prop_assert_eq!(rep.completed + rep.dropped, n as u64, "invocation lost or duplicated");
        prop_assert_eq!(rep.latencies_s.len() as u64, rep.completed);
        prop_assert!(rep.retries >= rep.reroutes);
        prop_assert!(rep.lost_work_s >= 0.0);
        // The generated schedule always recovers every crash, so with
        // default (generous) retry budgets nothing should be dropped
        // unless retries genuinely ran out during a long outage chain.
        for &l in &rep.latencies_s {
            prop_assert!(l > 0.0);
        }
    }

    /// `Backoff::delay` honours its contract for any configuration: the
    /// nominal delay doubles from `base` until it pins at `cap` (never
    /// zero), jitter perturbs it by at most the configured fraction, and
    /// the whole sequence is a pure function of the `Rng` seed.
    #[test]
    fn backoff_delay_bounded_and_deterministic(
        base_ms in 1u64..500,
        cap_ms in 1u64..20_000,
        jitter_amp in 0.01f64..0.5,
        jitter_on in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let jitter = if jitter_on { jitter_amp } else { 0.0 };
        let cfg = Backoff {
            base: SimDuration::from_millis(base_ms),
            cap: SimDuration::from_millis(cap_ms),
            jitter,
            max_retries: 16,
        };
        let mut rng_a = Rng::new(seed);
        let mut rng_b = Rng::new(seed);
        let mut prev_nominal = 0u64;
        for attempt in 0..24u32 {
            let nominal_ns = cfg
                .base
                .as_nanos()
                .saturating_mul(1u64 << attempt.min(40))
                .min(cfg.cap.as_nanos())
                .max(1);
            let d = cfg.delay(attempt, &mut rng_a);
            // Same seed, same position => same delay.
            prop_assert_eq!(d, cfg.delay(attempt, &mut rng_b));
            if jitter == 0.0 {
                prop_assert_eq!(d.as_nanos(), nominal_ns, "attempt {}", attempt);
            }
            // Jitter never exceeds half the configured amplitude each way.
            let got = d.as_secs_f64();
            let nominal_s = nominal_ns as f64 * 1e-9;
            let lo = nominal_s * (1.0 - jitter / 2.0) - 1e-9;
            let hi = nominal_s * (1.0 + jitter / 2.0) + 1e-9;
            prop_assert!(
                got >= lo && got <= hi,
                "attempt {}: {} outside [{}, {}]", attempt, got, lo, hi
            );
            // Base growth is monotone until it parks at the cap.
            prop_assert!(nominal_ns >= prev_nominal);
            prev_nominal = nominal_ns;
        }
    }

    /// The single-broker identity, under chaos: a 1-site federation at
    /// batch 1 — and `run_fabric`, which is one — reproduces the reference
    /// broker bit-for-bit (same latencies in the same order, same
    /// retry/reroute/drop/reject counters, same slot-seconds) for any
    /// load, policy, endpoint-level fault schedule, cold start, autoscale
    /// floor, and admission cap.
    #[test]
    fn federation_single_site_identical_under_faults(
        seed in any::<u64>(),
        n in 1usize..120,
        rate in 5.0f64..200.0,
        policy_idx in 0usize..3,
        mttf_s in 5.0f64..60.0,
        mttr_s in 0.5f64..20.0,
        cold in cold_start(),
        autoscale in autoscale(),
        admission in admission(),
    ) {
        let (env, partition, sensors) = partitioned_world();
        let mut registry = FunctionRegistry::new();
        let f = registry.register("f", 1e10, 10 << 10, 1 << 10);
        let endpoints = endpoints_on(&env, &env.fleet.in_tier(Tier::Cloud));
        let mut rng = Rng::new(seed);
        let mut t = 0.0;
        let invocations: Vec<Invocation> = (0..n)
            .map(|i| {
                t += rng.exp(rate);
                Invocation {
                    arrival: SimTime::from_secs_f64(t),
                    origin: sensors[i % sensors.len()],
                    function: f,
                }
            })
            .collect();
        let spec = FaultScheduleSpec {
            horizon: SimDuration::from_secs_f64(t + 30.0),
            endpoints: FaultProcess {
                population: endpoints.len() as u32,
                mttf_s,
                mttr_s,
            },
            ..FaultScheduleSpec::default()
        };
        let policy = [
            RoutingPolicy::RoundRobin,
            RoutingPolicy::LeastOutstanding,
            RoutingPolicy::Locality,
        ][policy_idx];
        let mut cfg = FederationCfg::new(policy);
        cfg.cold = cold;
        cfg.autoscale = autoscale;
        cfg.admission = admission;
        cfg.faults = Some(EndpointFaults {
            schedule: continuum_sim::FaultSchedule::generate(&spec, seed ^ 0xFA17),
            heartbeat: SimDuration::from_millis(500),
            backoff: Backoff::default(),
            seed: seed ^ 0xBAC0,
        });
        let expected = reference::single_broker(&env, &registry, &endpoints, &invocations, &cfg);
        let sites = sites_from_partition(&env, &partition, &endpoints, 1);
        let fed = run_federation(&env, &registry, &endpoints, &sites, &invocations, &cfg);
        prop_assert_eq!(&fed.fabric, &expected);
        let single = run_fabric(&env, &registry, &endpoints, &invocations, &cfg);
        prop_assert_eq!(&single, &expected);
    }

    /// Federated-vs-centralized conservation under *site* failures: for
    /// 1, 2, and 4 sites over the same world, load, and site outage,
    /// every invocation completes, drops, or is rejected — exactly once,
    /// never lost — and takeover accounting stays consistent.
    #[test]
    fn federation_site_failure_conservation(
        seed in any::<u64>(),
        n in 1usize..150,
        rate in 5.0f64..300.0,
        policy_idx in 0usize..3,
        batch in 1usize..33,
        crash_frac in 0.1f64..0.9,
        outage_s in 1.0f64..30.0,
    ) {
        let (env, partition, sensors) = partitioned_world();
        let mut registry = FunctionRegistry::new();
        let f = registry.register("f", 5e9, 10 << 10, 1 << 10);
        let mut devices = env.fleet.in_tier(Tier::Fog);
        devices.extend(env.fleet.in_tier(Tier::Cloud));
        let endpoints = endpoints_on(&env, &devices);
        let mut rng = Rng::new(seed);
        let mut t = 0.0;
        let invocations: Vec<Invocation> = (0..n)
            .map(|i| {
                t += rng.exp(rate);
                Invocation {
                    arrival: SimTime::from_secs_f64(t),
                    origin: sensors[i % sensors.len()],
                    function: f,
                }
            })
            .collect();
        let policy = [
            RoutingPolicy::RoundRobin,
            RoutingPolicy::LeastOutstanding,
            RoutingPolicy::Locality,
        ][policy_idx];
        let crash_at = SimTime::from_secs_f64(t * crash_frac);
        for max_sites in [1usize, 2, 4] {
            let sites = sites_from_partition(&env, &partition, &endpoints, max_sites);
            let victim = (seed % sites.len() as u64) as u32;
            let mut cfg = FederationCfg::new(policy);
            cfg.batch = batch;
            cfg.site_faults = Some(SiteFaults {
                events: vec![
                    SiteFaultEvent { at: crash_at, site: victim, crash: true },
                    SiteFaultEvent {
                        at: crash_at + SimDuration::from_secs_f64(outage_s),
                        site: victim,
                        crash: false,
                    },
                ],
                heartbeat: SimDuration::from_millis(500),
                backoff: Backoff::default(),
                seed: seed ^ 0x51FE,
            });
            let fed = run_federation(&env, &registry, &endpoints, &sites, &invocations, &cfg);
            let rep = &fed.fabric;
            prop_assert_eq!(
                rep.completed + rep.dropped + rep.rejected,
                n as u64,
                "{} sites: invocation lost or duplicated", sites.len()
            );
            prop_assert_eq!(rep.latencies_s.len() as u64, rep.completed);
            prop_assert!(rep.lost_work_s >= 0.0);
            prop_assert!(fed.site_crashes <= 1 && fed.site_recoveries <= 1);
            prop_assert!(fed.takeovers <= fed.site_detections);
            if sites.len() == 1 {
                prop_assert_eq!(fed.takeovers, 0, "no peer can adopt a lone site");
            }
            for &l in &rep.latencies_s {
                prop_assert!(l > 0.0);
            }
        }
    }
}

/// Fog and cloud endpoints with a Poisson stream of one inference
/// function from the sensors.
fn fog_cloud_workload(
    env: &Env,
    sensors: &[continuum_net::NodeId],
    n: usize,
    rate: f64,
    seed: u64,
) -> (FunctionRegistry, Vec<Endpoint>, Vec<Invocation>) {
    let mut registry = FunctionRegistry::new();
    let f = registry.register("infer", 5e9, 200 << 10, 1 << 10);
    let mut devices = env.fleet.in_tier(Tier::Fog);
    devices.extend(env.fleet.in_tier(Tier::Cloud));
    let endpoints = endpoints_on(env, &devices);
    let mut rng = Rng::new(seed);
    let mut t = 0.0;
    let invocations = (0..n)
        .map(|i| {
            t += rng.exp(rate);
            Invocation {
                arrival: SimTime::from_secs_f64(t),
                origin: sensors[i % sensors.len()],
                function: f,
            }
        })
        .collect();
    (registry, endpoints, invocations)
}

#[test]
fn one_site_batch_one_is_bit_identical_to_single_broker() {
    let (env, partition, sensors) = partitioned_world();
    let (registry, endpoints, mut invocations) = fog_cloud_workload(&env, &sensors, 300, 120.0, 42);
    // One invocation of a function the registry does not know: both
    // loops drop it on arrival.
    invocations[150].function = FunctionId(registry.len() as u32 + 3);
    for policy in [
        RoutingPolicy::RoundRobin,
        RoutingPolicy::LeastOutstanding,
        RoutingPolicy::Locality,
    ] {
        let cfg = FederationCfg::new(policy);
        let expected = reference::single_broker(&env, &registry, &endpoints, &invocations, &cfg);
        for sites in [
            single_site(&env, &endpoints),
            sites_from_partition(&env, &partition, &endpoints, 1),
        ] {
            let fed = run_federation(&env, &registry, &endpoints, &sites, &invocations, &cfg);
            assert_eq!(fed.fabric, expected, "{}", policy.label());
        }
        assert_eq!(expected.dropped, 1, "{}", policy.label());
    }
}

#[test]
fn one_site_batch_one_identity_with_admission_cold_autoscale() {
    let (env, _, sensors) = partitioned_world();
    let (registry, endpoints, invocations) = fog_cloud_workload(&env, &sensors, 400, 400.0, 7);
    let mut cfg = FederationCfg::new(RoutingPolicy::LeastOutstanding);
    cfg.cold = Some(ColdStart {
        cold_time: SimDuration::from_millis(500),
        keep_warm: SimDuration::from_secs(2),
    });
    cfg.autoscale = Some(Autoscale { min_slots: 1 });
    cfg.admission = Some(Admission {
        max_outstanding: 24,
    });
    let expected = reference::single_broker(&env, &registry, &endpoints, &invocations, &cfg);
    let fed = run_fabric(&env, &registry, &endpoints, &invocations, &cfg);
    assert_eq!(fed, expected);
    assert!(fed.rejected > 0, "gate exercised");
}
