//! Open-loop arrival-process property tests.
//!
//! The traffic plane's contract is threefold: generators are pure
//! functions of their seed (same seed, same stream, bit for bit), the
//! homogeneous Poisson process actually delivers its nominal rate, and
//! workloads drawn from the open-loop generators execute identically on
//! the pinned sharded kernel at N shards and at one shard — arrivals are
//! just another workload, so the sharded kernel's bit-identity contract
//! must survive them.
//!
//! The case count defaults low so PR builds stay fast; scheduled CI sets
//! `CONTINUUM_ARRIVAL_CASES` to push the same properties much harder.

use continuum_core::prelude::*;
use continuum_net::{continuum_regions, RegionPartition};
use continuum_runtime::{simulate_stream_sharded, ShardOpts};
use continuum_workflow::{open_loop_arrivals, ArrivalProcess, OpenLoopSpec};
use proptest::prelude::*;

fn arrival_cases() -> u32 {
    std::env::var("CONTINUUM_ARRIVAL_CASES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(12)
}

/// Pick one of the three arrival processes from raw proptest draws.
fn process(which: u8, rate: f64) -> ArrivalProcess {
    match which % 3 {
        0 => ArrivalProcess::Poisson { rate_hz: rate },
        1 => ArrivalProcess::Diurnal {
            trough_hz: rate * 0.2,
            peak_hz: rate,
            period_s: 10.0,
        },
        _ => ArrivalProcess::FlashCrowd {
            base_hz: rate * 0.25,
            spike_hz: rate * 4.0,
            at_s: 1.0,
            len_s: 2.0,
        },
    }
}

/// A stable fingerprint of a generated stream: arrival nanos plus the
/// full serialized DAG, so any drift in times, sizes, shapes, or task
/// metadata shows up.
fn fingerprint(seed: u64, spec: &OpenLoopSpec) -> Vec<(u64, String)> {
    open_loop_arrivals(seed, spec)
        .map(|(t, dag)| {
            (
                t.since(SimTime::ZERO).0,
                serde_json::to_string(&dag).expect("dag serializes"),
            )
        })
        .collect()
}

fn world() -> (Continuum, ContinuumSpec) {
    let spec = ContinuumSpec {
        fogs: 3,
        edges_per_fog: 2,
        sensors_per_edge: 2,
        clouds: 1,
        hpcs: 0,
        ..ContinuumSpec::default()
    };
    let scenario = Scenario {
        name: "arrival-world",
        spec: spec.clone(),
    };
    (Continuum::build(&scenario), spec)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: arrival_cases(), ..ProptestConfig::default() })]

    /// Same seed, same spec: the generated stream is identical bit for
    /// bit — times, sizes, and DAG structure — across every arrival
    /// process and size distribution.
    #[test]
    fn generators_are_deterministic_per_seed(
        seed in any::<u64>(),
        which in any::<u8>(),
        rate in 1.0f64..200.0,
        heavy_tail in any::<bool>(),
    ) {
        let spec = OpenLoopSpec {
            requests: 64,
            process: process(which, rate),
            size_alpha: if heavy_tail { Some(1.5) } else { None },
            ..OpenLoopSpec::default()
        };
        prop_assert_eq!(fingerprint(seed, &spec), fingerprint(seed, &spec));
    }

    /// The homogeneous Poisson process delivers its nominal rate: over
    /// n = 4000 draws the empirical rate lands within 10% (the i.i.d.
    /// exponential sum has relative sd 1/sqrt(n) ~ 1.6%, so this bound
    /// has a wide margin without being vacuous).
    #[test]
    fn poisson_empirical_rate_matches_nominal(
        seed in any::<u64>(),
        rate in 1.0f64..500.0,
    ) {
        let n = 4000usize;
        let spec = OpenLoopSpec {
            requests: n,
            process: ArrivalProcess::Poisson { rate_hz: rate },
            ..OpenLoopSpec::default()
        };
        let last = open_loop_arrivals(seed, &spec)
            .last()
            .expect("non-empty stream")
            .0;
        let span_s = last.since(SimTime::ZERO).as_secs_f64();
        prop_assert!(span_s > 0.0);
        let empirical = n as f64 / span_s;
        prop_assert!(
            (empirical - rate).abs() <= 0.10 * rate,
            "empirical {} vs nominal {}", empirical, rate
        );
    }

    /// Open-loop workloads are ordinary workloads to the sharded kernel: a
    /// stream drawn from the generators, placed online, runs
    /// bit-identically on N pinned shards and on one.
    #[test]
    fn open_loop_workload_shards_identically(
        seed in any::<u64>(),
        which in any::<u8>(),
        max_shards in 2usize..6,
        threads in 1usize..4,
    ) {
        let (world, spec) = world();
        let gen = OpenLoopSpec {
            sensors: world.sensors().to_vec(),
            requests: 40,
            process: process(which, 50.0),
            size_alpha: Some(1.5),
            ..OpenLoopSpec::default()
        };
        let mut placer = OnlinePlacer::continuum(world.env());
        let requests: Vec<StreamRequest> = open_loop_arrivals(seed, &gen)
            .map(|(arrival, dag)| {
                let (placement, _) = placer.place_request(world.env(), &dag, arrival);
                StreamRequest { dag, placement, arrival }
            })
            .collect();
        let partition =
            RegionPartition::new(world.topology(), continuum_regions(&spec), 0);
        let one = simulate_stream_sharded(
            world.env(), &requests, None, &partition, &ShardOpts::pinned(1),
        );
        let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
        let sharded = pool.install(|| simulate_stream_sharded(
            world.env(), &requests, None, &partition, &ShardOpts::pinned(max_shards),
        ));
        prop_assert_eq!(&sharded, &one);
    }
}
