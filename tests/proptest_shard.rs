//! Sharded-kernel property tests: the pinned region-sharded executor at
//! N shards against itself at one shard.
//!
//! The sharded kernel's contract is *bit identity*: for any workload and
//! any counter-based task-retry spec, the N-shard run's `SimOutcome` —
//! task records, request finishes, retry counters, and every f64 metric
//! — equals the one-shard run's exactly, for every shard count and every
//! rayon pool size.
//!
//! The case count defaults low so PR builds stay fast; scheduled CI sets
//! `CONTINUUM_SHARD_CASES` to push the same properties much harder.

use continuum_core::prelude::*;
use continuum_net::{continuum_regions, RegionPartition};
use continuum_runtime::{simulate_stream_sharded, FaultSpec, ShardOpts};
use proptest::prelude::*;

/// Run `f` on a `threads`-wide rayon pool.
fn with_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("rayon pool")
        .install(f)
}

fn shard_cases() -> u32 {
    std::env::var("CONTINUUM_SHARD_CASES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(12)
}

fn world() -> (Continuum, ContinuumSpec) {
    let spec = ContinuumSpec {
        fogs: 4,
        edges_per_fog: 2,
        sensors_per_edge: 2,
        clouds: 2,
        hpcs: 1,
        ..ContinuumSpec::default()
    };
    let scenario = Scenario {
        name: "shard-world",
        spec: spec.clone(),
    };
    (Continuum::build(&scenario), spec)
}

/// A request placed on the nodes of the given regions: external inputs
/// born at `source`, tasks round-robined over the regions' devices.
fn region_request(
    world: &Continuum,
    regions: &[Vec<NodeId>],
    which: &[usize],
    source: NodeId,
    seed: u64,
    tasks: usize,
    arrival: SimTime,
) -> StreamRequest {
    let mut rng = Rng::new(seed);
    let dag = layered_random(
        &mut rng,
        &LayeredSpec {
            tasks,
            source,
            // Heavy enough that generated crashes land mid-execution.
            work_mu: (1e11f64).ln(),
            ..LayeredSpec::default()
        },
    );
    let env = world.env();
    let devs: Vec<DeviceId> = which
        .iter()
        .flat_map(|&r| &regions[r])
        .flat_map(|&n| env.fleet.at_node(n).iter().copied())
        .collect();
    let assignment = (0..dag.len()).map(|i| devs[i % devs.len()]).collect();
    StreamRequest {
        dag,
        placement: Placement { assignment },
        arrival,
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: shard_cases(), ..ProptestConfig::default() })]

    /// Pinned-mode identity: for random spanning-heavy workloads — every
    /// request crosses the fog↔backbone boundary — task pinning with
    /// envelope-carried boundary transfers yields an
    /// outcome bit-identical across 1, 2, 4, and 8 shards on any pool
    /// size, with and without counter-based task retries.
    #[test]
    fn pinned_matches_one_shard_for_every_shard_count(
        seed in any::<u64>(),
        fail_prob in 0.0f64..0.3,
        n_requests in 3usize..8,
        threads in 1usize..4,
    ) {
        let (world, spec) = world();
        let regions = continuum_regions(&spec);
        let mut rng = Rng::new(seed ^ 0x9e37_79b9);
        let mut requests = Vec::new();
        // Every request straddles two fogs plus the backbone.
        for _ in 0..n_requests {
            let a = 1 + (rng.next_u64() as usize) % (regions.len() - 1);
            let mut b = 1 + (rng.next_u64() as usize) % (regions.len() - 1);
            if b == a {
                b = 1 + a % (regions.len() - 1);
            }
            let source = *regions[a].last().expect("fog region has a sensor");
            let tasks = 6 + (rng.next_u64() % 8) as usize;
            requests.push(region_request(
                &world,
                &regions,
                &[a, b, 0],
                source,
                rng.next_u64(),
                tasks,
                SimTime::from_millis(rng.next_u64() % 300),
            ));
        }
        let fs = FaultSpec {
            fail_prob,
            max_attempts: 20,
            retry_delay: SimDuration::from_millis(100),
            seed: seed ^ 0xbeef,
        };
        let faults = (fail_prob > 0.0).then_some(&fs);
        let partition = RegionPartition::new(world.topology(), regions.clone(), 0);
        let reference = simulate_stream_sharded(
            world.env(), &requests, faults, &partition, &ShardOpts::pinned(1),
        );
        for n in [2usize, 4, 8] {
            let got = with_threads(threads, || simulate_stream_sharded(
                world.env(), &requests, faults, &partition, &ShardOpts::pinned(n),
            ));
            prop_assert_eq!(&got, &reference, "n={} threads={}", n, threads);
        }
    }
}
