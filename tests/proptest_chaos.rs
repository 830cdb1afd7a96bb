//! Chaos property tests: the fault plane under randomly generated
//! crash/recover schedules.
//!
//! These are the correctness anchor for the fault plane: any schedule in
//! which every crash eventually recovers must leave the executor with a
//! terminating, conserving run — every task finishes exactly once, every
//! killed attempt is accounted for, runs are deterministic, and the empty
//! schedule is bit-identical to the fault-free executor.
//!
//! The case count defaults low so PR builds stay fast; scheduled CI sets
//! `CONTINUUM_CHAOS_CASES` to push the same properties much harder.

use continuum_core::prelude::*;
use continuum_net::continuum_regions;
use continuum_runtime::StreamRequest;
use proptest::prelude::*;

fn chaos_cases() -> u32 {
    std::env::var("CONTINUUM_CHAOS_CASES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(12)
}

fn world() -> Continuum {
    Continuum::build(&Scenario::default_continuum())
}

fn requests(world: &Continuum, seed: u64, tasks: usize) -> (Dag, Vec<StreamRequest>) {
    let mut rng = Rng::new(seed);
    let dag = layered_random(
        &mut rng,
        &LayeredSpec {
            tasks,
            // Heavy enough that generated crashes land mid-execution.
            work_mu: (1e11f64).ln(),
            ..Default::default()
        },
    );
    let placement = world.place(&dag, &HeftPlacer::default());
    let reqs = vec![StreamRequest {
        arrival: SimTime::ZERO,
        dag: dag.clone(),
        placement,
    }];
    (dag, reqs)
}

/// A continuum with four fog subtrees, and its spec (for its regions).
fn fog_world() -> (Continuum, ContinuumSpec) {
    let spec = ContinuumSpec {
        fogs: 4,
        edges_per_fog: 2,
        sensors_per_edge: 2,
        clouds: 2,
        hpcs: 1,
        ..ContinuumSpec::default()
    };
    let scenario = Scenario {
        name: "fog-world",
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

/// A mixed multi-request workload over the fog subtrees: one request per
/// fog, each kept to its region, plus `spanning` requests that straddle
/// two fogs and the backbone. Arrivals are staggered so requests overlap.
fn fog_workload(
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
        reqs.push(region_request(
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
        reqs.push(region_request(
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

proptest! {
    #![proptest_config(ProptestConfig { cases: chaos_cases(), ..ProptestConfig::default() })]

    /// Termination and conservation under arbitrary always-recovering
    /// device/link churn: the run completes (the executor itself asserts
    /// no task is left unfinished), each task succeeds exactly once, and
    /// the trace carries one extra record per killed attempt — nothing
    /// lost, nothing double-counted.
    #[test]
    fn chaos_conserves_tasks(
        seed in any::<u64>(),
        tasks in 10usize..50,
        mttf_s in 2.0f64..30.0,
        mttr_s in 0.5f64..5.0,
        detection_ms in 20u64..2000,
    ) {
        let world = world();
        let (dag, reqs) = requests(&world, seed, tasks);
        let n_dev = world.env().fleet.len() as u32;
        let n_links = world.env().topology.links().len() as u32;
        let schedule = FaultSchedule::generate(
            &FaultScheduleSpec {
                horizon: SimDuration::from_secs(40),
                devices: FaultProcess { population: n_dev, mttf_s, mttr_s },
                links: FaultProcess { population: n_links, mttf_s: mttf_s * 2.0, mttr_s },
                ..Default::default()
            },
            seed ^ 0xC4A05,
        );
        let plane = FaultPlane {
            schedule,
            detection: SimDuration::from_millis(detection_ms),
        };
        let out = simulate_stream_chaos(world.env(), &reqs, None, Some(&plane));

        // One record per successful task plus one per killed attempt.
        prop_assert_eq!(
            out.trace.records.len() as u64,
            dag.len() as u64 + out.trace.killed_attempts,
            "records vs tasks+killed mismatch"
        );
        // Every task has exactly one *final* (successful) record, and the
        // final schedule still respects the DAG's dependencies.
        prop_assert!(out.trace.respects_dependencies(&[&dag]));
        prop_assert_eq!(out.trace.request_finish.len(), 1);
        prop_assert!(out.metrics.makespan_s > 0.0);
        prop_assert!(out.trace.lost_work_s >= 0.0);
        // Killed attempts and re-placements only exist under real faults.
        if out.trace.device_crashes == 0 {
            prop_assert_eq!(out.trace.killed_attempts, 0);
            prop_assert_eq!(out.trace.lost_work_s, 0.0);
        }
    }

    /// Many overlapping requests under device *and* link churn with short
    /// detection, so re-placements and detours do happen: the run must
    /// terminate and conserve work — every task succeeds exactly once,
    /// one extra record per killed attempt, dependencies respected — and
    /// an identical second run must reproduce the outcome bit for bit.
    #[test]
    fn multi_request_chaos_conserves_tasks(
        seed in any::<u64>(),
        mttf_s in 5.0f64..30.0,
    ) {
        let (world, spec) = fog_world();
        let requests = fog_workload(&world, &spec, seed, 2);
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
        let out = simulate_stream_chaos(world.env(), &requests, None, Some(&plane));
        let total_tasks: usize = requests.iter().map(|r| r.dag.len()).sum();
        prop_assert_eq!(
            out.trace.records.len() as u64,
            total_tasks as u64 + out.trace.killed_attempts
        );
        // Records carry request indices; index dags the same way.
        let dags: Vec<&Dag> = requests.iter().map(|r| &r.dag).collect();
        prop_assert!(out.trace.respects_dependencies(&dags));
        let again = simulate_stream_chaos(world.env(), &requests, None, Some(&plane));
        prop_assert_eq!(&again, &out);
    }

    /// The empty fault schedule is not "approximately" the fault-free
    /// executor — it IS the fault-free executor, decision for decision.
    #[test]
    fn empty_schedule_is_bit_identical(seed in any::<u64>(), tasks in 5usize..40) {
        let world = world();
        let (_, reqs) = requests(&world, seed, tasks);
        let clean = simulate_stream(world.env(), &reqs);
        let plane = FaultPlane {
            schedule: FaultSchedule::new(),
            detection: SimDuration::from_millis(100),
        };
        let chaos = simulate_stream_chaos(world.env(), &reqs, None, Some(&plane));
        prop_assert_eq!(clean.metrics.makespan_s, chaos.metrics.makespan_s);
        prop_assert_eq!(clean.metrics.energy_j, chaos.metrics.energy_j);
        prop_assert_eq!(clean.metrics.cost_usd, chaos.metrics.cost_usd);
        prop_assert_eq!(clean.trace.bytes_moved, chaos.trace.bytes_moved);
        prop_assert_eq!(clean.trace.transfers, chaos.trace.transfers);
        prop_assert_eq!(clean.trace.request_finish, chaos.trace.request_finish);
    }

    /// Chaos runs are deterministic: the same schedule and workload give
    /// the same outcome, bit for bit.
    #[test]
    fn chaos_is_deterministic(seed in any::<u64>()) {
        let world = world();
        let (_, reqs) = requests(&world, seed, 25);
        let n_dev = world.env().fleet.len() as u32;
        let schedule = FaultSchedule::generate(
            &FaultScheduleSpec {
                horizon: SimDuration::from_secs(20),
                devices: FaultProcess { population: n_dev, mttf_s: 5.0, mttr_s: 2.0 },
                ..Default::default()
            },
            seed,
        );
        let plane = FaultPlane {
            schedule,
            detection: SimDuration::from_millis(200),
        };
        let a = simulate_stream_chaos(world.env(), &reqs, None, Some(&plane));
        let b = simulate_stream_chaos(world.env(), &reqs, None, Some(&plane));
        prop_assert_eq!(a.metrics.makespan_s, b.metrics.makespan_s);
        prop_assert_eq!(a.trace.records.len(), b.trace.records.len());
        prop_assert_eq!(a.trace.replacements, b.trace.replacements);
        prop_assert_eq!(a.trace.lost_work_s, b.trace.lost_work_s);
    }
}
