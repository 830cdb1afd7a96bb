//! Sharded-kernel property tests: the region-sharded executor against
//! the single-queue executor.
//!
//! The sharded kernel's contract is *bit identity*: for any workload and
//! any device-fault schedule whose outages recover before detection (so
//! orphans restart in place and the online placer stays out of play), the
//! sharded run's `SimOutcome` — task records, request finishes, fault
//! counters, and every f64 metric — equals the single-queue run's
//! exactly, for every shard count and every rayon pool size.
//! Under full chaos (including link failures and re-placements) the
//! sharded run must still terminate, conserve tasks, and be
//! deterministic.
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

/// A request confined to the nodes of the given regions: external inputs
/// born at `source`, tasks round-robined over the regions' devices.
fn confined_request(
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

/// A mixed workload over the fog subtrees: one request per fog, each
/// confined to its region, plus `spanning` requests that straddle two
/// fogs and the backbone.
fn workload(
    world: &Continuum,
    spec: &ContinuumSpec,
    seed: u64,
    spanning: usize,
) -> Vec<StreamRequest> {
    let regions = continuum_regions(spec);
    let mut rng = Rng::new(seed ^ 0x5eed);
    let mut reqs = Vec::new();
    for f in 1..regions.len() {
        let source = *regions[f].last().expect("fog region has a sensor");
        let tasks = 6 + (rng.next_u64() % 10) as usize;
        reqs.push(confined_request(
            world,
            &regions,
            &[f],
            source,
            rng.next_u64(),
            tasks,
            SimTime::from_millis(rng.next_u64() % 500),
        ));
    }
    for _ in 0..spanning {
        let a = 1 + (rng.next_u64() as usize) % (regions.len() - 1);
        let mut b = 1 + (rng.next_u64() as usize) % (regions.len() - 1);
        if b == a {
            b = 1 + a % (regions.len() - 1);
        }
        let source = *regions[a].last().expect("fog region has a sensor");
        let tasks = 6 + (rng.next_u64() % 10) as usize;
        reqs.push(confined_request(
            world,
            &regions,
            &[a, b, 0],
            source,
            rng.next_u64(),
            tasks,
            SimTime::from_millis(rng.next_u64() % 500),
        ));
    }
    reqs
}

/// Device-crash schedule whose outages all end before the detection
/// sweep, so orphans restart in place and no re-placement happens — the
/// regime where sharded execution is exact even though faults are flying.
fn restart_in_place_plane(world: &Continuum, seed: u64, crashes: usize) -> FaultPlane {
    let n_dev = world.env().fleet.len() as u64;
    let mut rng = Rng::new(seed ^ 0xfau64);
    let mut schedule = FaultSchedule::new();
    for _ in 0..crashes {
        let dev = (rng.next_u64() % n_dev) as u32;
        let at = SimTime::from_millis(rng.next_u64() % 60_000);
        let downtime = SimDuration::from_millis(1_000 + rng.next_u64() % 19_000);
        schedule.crash_and_recover(FaultKind::DeviceCrash, dev, at, downtime);
    }
    FaultPlane {
        schedule,
        // Longer than every outage above: sweeps always arrive stale.
        detection: SimDuration::from_secs(30),
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: shard_cases(), ..ProptestConfig::default() })]

    /// The tentpole identity: for random workloads (confined + spanning
    /// requests), random restart-in-place crash schedules, and every
    /// sharding configuration, the sharded outcome is bit-identical to
    /// the single-queue executor — records, counters, and f64 metrics.
    #[test]
    fn sharded_matches_single_queue(
        seed in any::<u64>(),
        spanning in 0usize..3,
        crashes in 0usize..4,
        max_shards in 1usize..6,
        threads in 1usize..4,
    ) {
        let (world, spec) = world();
        let requests = workload(&world, &spec, seed, spanning);
        let plane = restart_in_place_plane(&world, seed, crashes);
        let partition =
            RegionPartition::new(world.topology(), continuum_regions(&spec), 0);
        let single =
            simulate_stream_chaos(world.env(), &requests, None, Some(&plane));
        let opts = ShardOpts { max_shards, ..ShardOpts::default() };
        let sharded = with_threads(threads, || simulate_stream_sharded(
            world.env(), &requests, None, Some(&plane), &partition, &opts,
        ));
        prop_assert_eq!(&sharded, &single);
        // Spell out the f64 fields so a future loosening of SimOutcome's
        // PartialEq cannot silently weaken this property.
        prop_assert!(sharded.metrics.makespan_s.to_bits() == single.metrics.makespan_s.to_bits());
        prop_assert!(sharded.metrics.energy_j.to_bits() == single.metrics.energy_j.to_bits());
        prop_assert!(sharded.metrics.cost_usd.to_bits() == single.metrics.cost_usd.to_bits());
        prop_assert!(
            sharded.trace.lost_work_s.to_bits() == single.trace.lost_work_s.to_bits()
        );
    }

    /// Task-retry faults (`FaultSpec`) layered on top: draws are
    /// counter-based, so verdicts — and the whole outcome — stay
    /// identical under sharding.
    #[test]
    fn sharded_matches_single_queue_with_retries(
        seed in any::<u64>(),
        fail_prob in 0.0f64..0.4,
        max_shards in 1usize..6,
    ) {
        let (world, spec) = world();
        let requests = workload(&world, &spec, seed, 1);
        let fs = FaultSpec {
            fail_prob,
            max_attempts: 20,
            retry_delay: SimDuration::from_millis(250),
            seed: seed ^ 0xdead,
        };
        let partition =
            RegionPartition::new(world.topology(), continuum_regions(&spec), 0);
        let single = simulate_stream_chaos(world.env(), &requests, Some(&fs), None);
        let sharded = simulate_stream_sharded(
            world.env(), &requests, Some(&fs), None, &partition,
            &ShardOpts { max_shards, ..ShardOpts::default() },
        );
        prop_assert_eq!(&sharded, &single);
    }

    /// Pinned-mode identity: for random spanning-heavy workloads — the
    /// regime where request confinement collapses to one shard — task
    /// pinning with envelope-carried boundary transfers yields an
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
            requests.push(confined_request(
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
            world.env(), &requests, faults, None, &partition, &ShardOpts::pinned(1),
        );
        for n in [2usize, 4, 8] {
            let got = with_threads(threads, || simulate_stream_sharded(
                world.env(), &requests, faults, None, &partition, &ShardOpts::pinned(n),
            ));
            prop_assert_eq!(&got, &reference, "n={} threads={}", n, threads);
        }
    }

    /// Under full chaos — device *and* link churn with short detection,
    /// so re-placements and detours do happen — the sharded run must
    /// still terminate and conserve work: every task succeeds exactly
    /// once, one extra record per killed attempt, dependencies respected.
    #[test]
    fn sharded_chaos_conserves_tasks(
        seed in any::<u64>(),
        mttf_s in 5.0f64..30.0,
        max_shards in 1usize..6,
    ) {
        let (world, spec) = world();
        let requests = workload(&world, &spec, seed, 2);
        let n_dev = world.env().fleet.len() as u32;
        let n_links = world.topology().links().len() as u32;
        let schedule = FaultSchedule::generate(
            &FaultScheduleSpec {
                horizon: SimDuration::from_secs(120),
                devices: FaultProcess { population: n_dev, mttf_s, mttr_s: 2.0 },
                links: FaultProcess { population: n_links, mttf_s: mttf_s * 2.0, mttr_s: 2.0 },
                endpoints: FaultProcess::OFF,
            },
            seed,
        );
        let plane = FaultPlane { schedule, detection: SimDuration::from_millis(500) };
        let partition =
            RegionPartition::new(world.topology(), continuum_regions(&spec), 0);
        let opts = ShardOpts { max_shards, ..ShardOpts::default() };
        let out = simulate_stream_sharded(
            world.env(), &requests, None, Some(&plane), &partition, &opts,
        );
        let total_tasks: usize = requests.iter().map(|r| r.dag.len()).sum();
        prop_assert_eq!(
            out.trace.records.len() as u64,
            total_tasks as u64 + out.trace.killed_attempts
        );
        let dags: Vec<&Dag> = {
            // Records carry global request ids; index dags the same way.
            requests.iter().map(|r| &r.dag).collect()
        };
        prop_assert!(out.trace.respects_dependencies(&dags));
        // Determinism: an identical second run reproduces the outcome.
        let again = simulate_stream_sharded(
            world.env(), &requests, None, Some(&plane), &partition, &opts,
        );
        prop_assert_eq!(&again, &out);
    }
}
