//! Golden fingerprints of the federated fabric.
//!
//! Each case runs one seeded federation and hashes the `Debug` rendering
//! of its whole [`FederationReport`] — fabric aggregate, per-site
//! counters, federation counters and health timeline — with FNV-1a, the
//! idiom of `tests/golden_runtime.rs`. The last case hashes the Perfetto
//! JSON and the metrics snapshot a traced run exports. The literals were captured from
//! `run_federation` as it stood before its body was split into a
//! per-event core; a change that moves one of them changes what the
//! fabric computes (or traces) and must be re-blessed in CHANGES.md.

use continuum_core::prelude::*;
use continuum_fabric::{
    endpoints_on, run_federation, single_site, sites_from_partition, Admission, Autoscale, Backoff,
    ColdStart, Endpoint, EndpointFaults, FederationCfg, FunctionId, FunctionRegistry, Invocation,
    RoutingPolicy, Site, SiteFaultEvent, SiteFaults, WarmPool,
};
use continuum_net::{continuum_regions, RegionPartition};
use continuum_obs::{with_ambient, HealthSpec, Telemetry};
use std::rc::Rc;

/// FNV-1a over the bytes of `v`'s `Debug` string.
fn digest(v: &impl std::fmt::Debug) -> u64 {
    fnv(format!("{v:?}").as_bytes())
}

fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn check(name: &str, got: u64, want: u64) {
    assert_eq!(got, want, "{name}: digest {got:#018x}, golden {want:#018x}");
}

struct World {
    world: Continuum,
    partition: RegionPartition,
    endpoints: Vec<Endpoint>,
}

fn world() -> World {
    let world = Continuum::build(&Scenario::default_continuum());
    let regions = continuum_regions(&Scenario::default_continuum().spec);
    let partition = RegionPartition::new(world.topology(), regions, 0);
    let env = world.env();
    let mut devices = env.fleet.in_tier(Tier::Fog);
    devices.extend(env.fleet.in_tier(Tier::Cloud));
    let endpoints = endpoints_on(env, &devices);
    World {
        world,
        partition,
        endpoints,
    }
}

/// Four functions of different weight, and `n` Poisson arrivals at
/// `rate` Hz from the sensors cycling through them.
fn load(w: &World, n: usize, rate: f64, seed: u64) -> (FunctionRegistry, Vec<Invocation>) {
    let mut registry = FunctionRegistry::new();
    let funcs: Vec<FunctionId> = [
        ("infer", 5e9, 200 << 10),
        ("detect", 2e9, 50 << 10),
        ("encode", 8e9, 1 << 20),
        ("filter", 5e8, 4 << 10),
    ]
    .iter()
    .map(|&(name, flops, bytes)| registry.register(name, flops, bytes, 1 << 10))
    .collect();
    let sensors = w.world.sensors();
    let mut rng = Rng::new(seed);
    let mut t = 0.0;
    let invocations = (0..n)
        .map(|i| {
            t += rng.exp(rate);
            Invocation {
                arrival: SimTime::from_secs_f64(t),
                origin: sensors[i % sensors.len()],
                function: funcs[(i * 7 + i / 3) % funcs.len()],
            }
        })
        .collect();
    (registry, invocations)
}

fn endpoint_faults(w: &World, horizon_s: f64, seed: u64) -> EndpointFaults {
    let spec = FaultScheduleSpec {
        horizon: SimDuration::from_secs_f64(horizon_s),
        endpoints: FaultProcess {
            population: w.endpoints.len() as u32,
            mttf_s: 2.0,
            mttr_s: 1.0,
        },
        ..FaultScheduleSpec::default()
    };
    EndpointFaults {
        schedule: FaultSchedule::generate(&spec, seed),
        heartbeat: SimDuration::from_millis(300),
        backoff: Backoff::default(),
        seed: seed ^ 0xBAC0,
    }
}

fn site_faults(events: &[(SimTime, u32, bool)], max_retries: u32) -> SiteFaults {
    SiteFaults {
        events: events
            .iter()
            .map(|&(at, site, crash)| SiteFaultEvent { at, site, crash })
            .collect(),
        heartbeat: SimDuration::from_millis(400),
        backoff: Backoff {
            max_retries,
            ..Backoff::default()
        },
        seed: 0x51E,
    }
}

fn run(
    w: &World,
    registry: &FunctionRegistry,
    sites: &[Site],
    invocations: &[Invocation],
    cfg: &FederationCfg,
) -> continuum_fabric::FederationReport {
    let fed = run_federation(
        w.world.env(),
        registry,
        &w.endpoints,
        sites,
        invocations,
        cfg,
    );
    let f = &fed.fabric;
    assert_eq!(
        f.completed + f.dropped + f.rejected,
        invocations.len() as u64,
        "conservation"
    );
    fed
}

#[test]
fn one_site_batch_one_digests() {
    let w = world();
    let (registry, invocations) = load(&w, 400, 400.0, 0x0E51);
    let sites = single_site(w.world.env(), &w.endpoints);
    let horizon = invocations.last().expect("non-empty").arrival.as_secs_f64();
    let cases = [
        (RoutingPolicy::RoundRobin, 0xc2af_57ea_22aa_6c3fu64),
        (RoutingPolicy::LeastOutstanding, 0x0148_06b9_7810_40de),
        (RoutingPolicy::Locality, 0x3da2_1cf7_1185_0cd7),
    ];
    for (policy, want) in cases {
        let mut cfg = FederationCfg::new(policy);
        cfg.faults = Some(endpoint_faults(&w, horizon, 0xFA17));
        cfg.cold = Some(ColdStart {
            cold_time: SimDuration::from_millis(400),
            keep_warm: SimDuration::from_millis(800),
        });
        cfg.autoscale = Some(Autoscale { min_slots: 1 });
        cfg.admission = Some(Admission {
            max_outstanding: 24,
        });
        let fed = run(&w, &registry, &sites, &invocations, &cfg);
        let f = &fed.fabric;
        assert!(f.rejected > 0, "{policy:?}: the admission cap must bind");
        assert!(
            f.retries > 0 && f.lost_work_s > 0.0,
            "{policy:?}: faults bite"
        );
        check(&format!("{policy:?}"), digest(&fed), want);
    }
}

#[test]
fn three_sites_batched_takeover_digest() {
    let w = world();
    let (registry, invocations) = load(&w, 900, 300.0, 0x3517);
    let sites = sites_from_partition(w.world.env(), &w.partition, &w.endpoints, 3);
    assert_eq!(sites.len(), 3);
    let mid = invocations[invocations.len() / 2].arrival;
    let mut cfg = FederationCfg::new(RoutingPolicy::LeastOutstanding);
    cfg.batch = 32;
    cfg.drain_every = SimDuration::from_millis(20);
    cfg.warm_pool = Some(WarmPool {
        capacity: 2,
        cold_time: SimDuration::from_millis(250),
    });
    cfg.site_faults = Some(site_faults(
        &[(mid, 1, true), (mid + SimDuration::from_secs(2), 1, false)],
        16,
    ));
    cfg.health = Some(HealthSpec {
        objective_ns: 500_000_000,
        sample_every_ns: 100_000_000,
        ..HealthSpec::default()
    });
    let fed = run(&w, &registry, &sites, &invocations, &cfg);
    assert_eq!(fed.takeovers, 1, "a peer adopts the dead site's work");
    assert!(fed.max_batch > 1);
    assert!(fed
        .sites
        .iter()
        .any(|s| s.warm_hits > 0 && s.cold_boots > 0));
    let h = fed.health.as_ref().expect("health requested");
    assert!(!h.frames.is_empty() && h.anomalies.iter().any(|a| a.kind == "takeover"));
    check("three sites", digest(&fed), 0x9191_3b9d_cf63_8727);
}

#[test]
fn all_sites_down_backs_off_and_drops_digest() {
    let w = world();
    let (registry, invocations) = load(&w, 300, 200.0, 0xD0D0);
    let sites = sites_from_partition(w.world.env(), &w.partition, &w.endpoints, 2);
    assert_eq!(sites.len(), 2);
    let mid = invocations[invocations.len() / 3].arrival;
    let mut cfg = FederationCfg::new(RoutingPolicy::RoundRobin);
    cfg.batch = 4;
    cfg.site_faults = Some(site_faults(
        &[
            (mid, 0, true),
            (mid, 1, true),
            (mid + SimDuration::from_secs(3), 1, false),
        ],
        3,
    ));
    let fed = run(&w, &registry, &sites, &invocations, &cfg);
    let f = &fed.fabric;
    assert_eq!(fed.takeovers, 0, "no survivor to adopt");
    assert!(f.dropped > 0 && f.retries > 0, "displaced work backed off");
    assert!(f.completed > 0, "the recovered site drains the rest");
    check("all sites down", digest(&fed), 0x7372_ee55_503b_7dd5);
}

#[test]
fn traced_two_site_perfetto_digest() {
    let w = world();
    let (registry, invocations) = load(&w, 200, 200.0, 0x7ACE);
    let sites = sites_from_partition(w.world.env(), &w.partition, &w.endpoints, 2);
    let horizon = invocations.last().expect("non-empty").arrival.as_secs_f64();
    let mid = invocations[invocations.len() / 2].arrival;
    let mut cfg = FederationCfg::new(RoutingPolicy::Locality);
    cfg.batch = 4;
    cfg.drain_every = SimDuration::from_millis(5);
    cfg.faults = Some(endpoint_faults(&w, horizon, 0x7F));
    cfg.site_faults = Some(site_faults(
        &[(mid, 0, true), (mid + SimDuration::from_secs(1), 0, false)],
        16,
    ));
    let tele = Rc::new(Telemetry::new(true));
    let fed = with_ambient(&tele, || run(&w, &registry, &sites, &invocations, &cfg));
    assert_eq!(fed.site_crashes, 1);
    let exported = tele.tracer.export_string();
    for mark in [
        "crash",
        "detected down",
        "recover",
        "takes over",
        "dispatch inv",
    ] {
        assert!(exported.contains(mark), "trace lacks {mark:?}");
    }
    check("perfetto", fnv(exported.as_bytes()), 0x2586_97b2_e452_a094);
    check("traced report", digest(&fed), 0x3f70_99ea_d9eb_7c4d);
    check(
        "metrics",
        digest(&tele.metrics.snapshot()),
        0xc5c2_ecc5_2fb7_d7ac,
    );
}
