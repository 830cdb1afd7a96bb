//! Golden fingerprints of the runtime plane's four executors.
//!
//! Each case runs one seeded fixture and hashes the `Debug` rendering of
//! its outcome or report with FNV-1a. `f64`'s `Debug` prints the shortest
//! string that round-trips, so a one-ulp change to any latency, dollar
//! or joule changes the digest. The literals were captured from the
//! executors as they stood before the single queue was folded into the
//! shard driver; a change that moves one of them changes what the
//! runtime computes and must be re-blessed in CHANGES.md.

use continuum_core::prelude::*;
use continuum_net::{continuum_regions, RegionPartition};
use continuum_obs::HealthSpec;
use continuum_runtime::{
    simulate_open_loop, simulate_open_loop_sharded, simulate_stream_sharded, FaultSpec,
    OpenLoopOpts, ShardOpts,
};

/// FNV-1a over the bytes of `v`'s `Debug` string.
fn digest(v: &impl std::fmt::Debug) -> u64 {
    format!("{v:?}")
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

fn check(name: &str, v: &impl std::fmt::Debug, want: u64) {
    let got = digest(v);
    assert_eq!(got, want, "{name}: digest {got:#018x}, golden {want:#018x}");
}

fn world() -> Continuum {
    Continuum::build(&Scenario::default_continuum())
}

fn retries() -> FaultSpec {
    FaultSpec {
        fail_prob: 0.15,
        retry_delay: SimDuration::from_millis(20),
        max_attempts: 20,
        seed: 0x601D,
    }
}

fn churn(world: &Continuum) -> FaultPlane {
    let env = world.env();
    let schedule = FaultSchedule::generate(
        &FaultScheduleSpec {
            horizon: SimDuration::from_secs(30),
            devices: FaultProcess {
                population: env.fleet.len() as u32,
                mttf_s: 8.0,
                mttr_s: 2.0,
            },
            links: FaultProcess {
                population: env.topology.links().len() as u32,
                mttf_s: 10.0,
                mttr_s: 2.0,
            },
            ..Default::default()
        },
        0xC4A05,
    );
    FaultPlane {
        schedule,
        detection: SimDuration::from_millis(200),
    }
}

/// `count` HEFT-placed layered requests from the sensors, `gap_ms` apart.
fn placed_stream(world: &Continuum, count: usize, gap_ms: u64) -> Vec<StreamRequest> {
    (0..count)
        .map(|i| {
            let mut rng = Rng::new(0x5EED + i as u64);
            let dag = layered_random(
                &mut rng,
                &LayeredSpec {
                    tasks: 10,
                    source: world.sensors()[i % world.sensors().len()],
                    work_mu: (3e9f64).ln(),
                    ..LayeredSpec::default()
                },
            );
            let placement = world.place(&dag, &HeftPlacer::default());
            StreamRequest {
                arrival: SimTime::from_millis(gap_ms * i as u64),
                dag,
                placement,
            }
        })
        .collect()
}

/// Requests alternating fog and backbone devices, so pinned shards trade
/// envelopes.
fn spanning(world: &Continuum, regions: &[Vec<NodeId>], count: usize) -> Vec<StreamRequest> {
    let env = world.env();
    let devs_of = |nodes: &[NodeId]| -> Vec<DeviceId> {
        nodes
            .iter()
            .flat_map(|&n| env.fleet.at_node(n).iter().copied())
            .collect()
    };
    let backbone = devs_of(&regions[0]);
    (0..count)
        .map(|i| {
            let f = 1 + (i % (regions.len() - 1));
            let fog = devs_of(&regions[f]);
            let mut rng = Rng::new(0x6A1D + i as u64);
            let dag = layered_random(
                &mut rng,
                &LayeredSpec {
                    tasks: 8,
                    source: *regions[f].last().expect("non-empty region"),
                    work_mu: (1e10f64).ln(),
                    ..LayeredSpec::default()
                },
            );
            let assignment = (0..dag.len())
                .map(|k| {
                    if k % 2 == 0 {
                        fog[(k / 2) % fog.len()]
                    } else {
                        backbone[(k / 2) % backbone.len()]
                    }
                })
                .collect();
            StreamRequest {
                dag,
                placement: Placement { assignment },
                arrival: SimTime::from_millis(3 * i as u64),
            }
        })
        .collect()
}

fn partition(world: &Continuum) -> (RegionPartition, Vec<Vec<NodeId>>) {
    let regions = continuum_regions(&Scenario::default_continuum().spec);
    (
        RegionPartition::new(world.topology(), regions.clone(), 0),
        regions,
    )
}

#[test]
fn stream_chaos_digest() {
    let world = world();
    let reqs = placed_stream(&world, 24, 150);
    let out = simulate_stream_chaos(world.env(), &reqs, Some(&retries()), Some(&churn(&world)));
    assert!(out.trace.failed_attempts > 0 && out.trace.device_crashes > 0);
    check("stream_chaos", &out, 0x0899_ef5a_4c52_83c2);
}

#[test]
fn stream_sharded_digests() {
    let world = world();
    let (partition, regions) = partition(&world);
    let reqs = spanning(&world, &regions, 12);
    for (n, want) in [(1, 0xb8a5_ebb7_cfb1_ee06), (3, 0xb8a5_ebb7_cfb1_ee06)] {
        let out = simulate_stream_sharded(
            world.env(),
            &reqs,
            Some(&retries()),
            &partition,
            &ShardOpts::pinned(n),
        );
        check(&format!("stream_sharded n={n}"), &out, want);
    }
}

#[test]
fn open_loop_digest() {
    let world = world();
    let reqs = placed_stream(&world, 160, 20);
    let plane = churn(&world);
    let health = HealthSpec {
        objective_ns: 200_000_000,
        sample_every_ns: 250_000_000,
        ..HealthSpec::default()
    };
    let opts = OpenLoopOpts {
        max_live: 6,
        faults: Some(&retries()),
        plane: Some(&plane),
        health: Some(&health),
    };
    let report = simulate_open_loop(world.env(), reqs, &opts);
    assert!(report.rejected > 0, "the cap must saturate");
    assert!(report.device_crashes > 0);
    let h = report.health.as_ref().expect("health requested");
    assert!(h.observed > 0 && !h.frames.is_empty());
    check("open_loop", &report, 0xc0d4_8ac3_3782_4aed);
    // The digest sees a one-nanosecond shift of one latency and a
    // one-ulp shift of one f64.
    let mut lat = report.clone();
    lat.latency.sum_ns += 1;
    assert_ne!(digest(&lat), digest(&report));
    let mut ulp = report.clone();
    ulp.cost_usd = f64::from_bits(ulp.cost_usd.to_bits() + 1);
    assert_ne!(digest(&ulp), digest(&report));
}

#[test]
fn open_loop_sharded_digests() {
    let world = world();
    let (partition, regions) = partition(&world);
    let reqs = spanning(&world, &regions, 90);
    let health = HealthSpec {
        objective_ns: 50_000_000,
        sample_every_ns: 20_000_000,
        ..HealthSpec::default()
    };
    let opts = OpenLoopOpts {
        max_live: 5,
        faults: Some(&retries()),
        plane: None,
        health: Some(&health),
    };
    for (n, want) in [(1, 0x1ba2_514b_cf88_e4e0), (3, 0x33a6_fbc9_5f89_8a04)] {
        let report = simulate_open_loop_sharded(
            world.env(),
            reqs.iter().cloned(),
            &partition,
            &opts,
            &ShardOpts::pinned(n),
        );
        assert!(report.rejected > 0 && report.failed_attempts > 0);
        check(&format!("open_loop_sharded n={n}"), &report, want);
    }
}
