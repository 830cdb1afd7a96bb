//! Property-based tests for the placement engine's core structures.

use continuum_model::standard_fleet;
use continuum_net::{continuum, ContinuumSpec};
use continuum_placement::{
    evaluate, AnnealingPlacer, CpopPlacer, DeltaEvaluator, DeviceTimeline, Env, GreedyEftPlacer,
    HeftPlacer, PeftPlacer, Placement, Placer, RandomPlacer, WeightedObjective,
};
use continuum_sim::{Rng, SimDuration, SimTime};
use continuum_workflow::{layered_random, Dag, LayeredSpec, TaskId};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// A DeviceTimeline never oversubscribes: any sequence of
    /// earliest_slot + reserve keeps the peak at or below the core count,
    /// in both insertion and append modes.
    #[test]
    fn timeline_never_oversubscribes(
        cores in 1u32..16,
        jobs in proptest::collection::vec((0u64..1000, 1u64..500, 1u32..8, any::<bool>()), 1..60),
    ) {
        let mut tl = DeviceTimeline::new(cores);
        for &(ready, dur_ms, need, insertion) in &jobs {
            let ready = SimTime::from_millis(ready);
            let dur = SimDuration::from_millis(dur_ms);
            let start = tl.earliest_slot(ready, dur, need, insertion);
            prop_assert!(start >= ready);
            // reserve() debug-asserts the capacity invariant internally.
            tl.reserve(start, dur, need);
        }
        // Accounting is exact.
        let expected: f64 = jobs
            .iter()
            .map(|&(_, d, n, _)| d as f64 / 1000.0 * n.min(cores) as f64)
            .sum();
        prop_assert!((tl.busy_core_seconds() - expected).abs() < 1e-6);
    }

    /// Insertion never starts later than append for the same query on the
    /// same timeline state.
    #[test]
    fn insertion_dominates_append(
        cores in 1u32..8,
        setup in proptest::collection::vec((0u64..500, 1u64..200, 1u32..4), 0..25),
        query in (0u64..500, 1u64..200, 1u32..4),
    ) {
        let mut tl = DeviceTimeline::new(cores);
        for &(ready, dur, need) in &setup {
            let s = tl.earliest_slot(SimTime::from_millis(ready), SimDuration::from_millis(dur), need, true);
            tl.reserve(s, SimDuration::from_millis(dur), need);
        }
        let (ready, dur, need) = query;
        let ins = tl.earliest_slot(SimTime::from_millis(ready), SimDuration::from_millis(dur), need, true);
        let app = tl.earliest_slot(SimTime::from_millis(ready), SimDuration::from_millis(dur), need, false);
        prop_assert!(ins <= app, "insertion {ins:?} later than append {app:?}");
    }

    /// Every placement a policy emits is feasible (each task's device
    /// satisfies its constraints) and evaluates to a dependency-respecting
    /// schedule whose makespan is at least the biggest single task's
    /// execution time.
    #[test]
    fn policies_emit_feasible_schedules(seed in any::<u64>(), greedy in any::<bool>()) {
        let built = continuum(&ContinuumSpec::default());
        let env = Env::new(built.topology.clone(), standard_fleet(&built));
        let mut rng = Rng::new(seed);
        let dag = layered_random(&mut rng, &LayeredSpec { tasks: 40, ..Default::default() });
        let placement: Placement = if greedy {
            GreedyEftPlacer::default().place(&env, &dag)
        } else {
            HeftPlacer::default().place(&env, &dag)
        };
        for task in dag.tasks() {
            let dev = placement.device(task.id);
            let feas = env.feasible_devices(task);
            prop_assert!(feas.contains(&dev), "infeasible device for {}", task.name);
        }
        let (sched, metrics) = evaluate(&env, &dag, &placement);
        prop_assert!(sched.respects_dependencies(&dag));
        // Lower bound: the slowest committed task alone.
        let mut longest = 0.0f64;
        for task in dag.tasks() {
            let dev = placement.device(task.id);
            let spec = &env.fleet.device(dev).spec;
            longest = longest.max(
                spec.compute_time_parallel(task.work_flops, task.parallelism).as_secs_f64(),
            );
        }
        prop_assert!(metrics.makespan_s >= longest * 0.999);
    }

    /// The sweep-line `earliest_slot` agrees with the seed's candidate
    /// scan on arbitrary timeline states, in both insertion and append
    /// modes — including queries against a timeline it did not build, and
    /// after a random subset of its reservations is unreserved. Setup
    /// times are on a 10 ms grid so reservations often share endpoints,
    /// and unreserving one side of a net-zero endpoint revives the other.
    #[test]
    fn sweep_slot_equals_scan_oracle(
        cores in 1u32..8,
        setup in proptest::collection::vec((0u64..50, 1u64..20, 1u32..4), 0..30),
        retract in proptest::collection::vec(any::<bool>(), 30..31),
        queries in proptest::collection::vec((0u64..700, 1u64..200, 1u32..4, any::<bool>()), 1..20),
    ) {
        let mut tl = DeviceTimeline::new(cores);
        let mut held = Vec::new();
        for &(ready, dur, need) in &setup {
            let dur = SimDuration::from_millis(dur * 10);
            let s = tl.earliest_slot(SimTime::from_millis(ready * 10), dur, need, true);
            tl.reserve(s, dur, need);
            held.push((s, dur, need));
        }
        for (&(s, dur, need), _) in held.iter().zip(&retract).filter(|(_, &r)| r) {
            tl.unreserve(s, dur, need);
        }
        for &(ready, dur, need, insertion) in &queries {
            let ready = SimTime::from_millis(ready);
            let dur = SimDuration::from_millis(dur);
            prop_assert_eq!(
                tl.earliest_slot(ready, dur, need, insertion),
                tl.earliest_slot_scan(ready, dur, need, insertion),
                "ready={:?} dur={:?} need={} ins={}", ready, dur, need, insertion
            );
        }
    }
}

// Fewer cases for the properties that build a full continuum per case.
proptest! {
    #![proptest_config(ProptestConfig { cases: 10, ..ProptestConfig::default() })]

    /// Placements do not depend on the rayon pool's thread count: HEFT,
    /// PEFT, CPOP, and the annealer (whose restarts fan out across the
    /// pool) return identical placements under 1-thread and 3-thread
    /// pools.
    #[test]
    fn placements_ignore_thread_count(seed in any::<u64>()) {
        let built = continuum(&ContinuumSpec::default());
        let env = Env::new(built.topology.clone(), standard_fleet(&built));
        let mut rng = Rng::new(seed);
        let dag = layered_random(&mut rng, &LayeredSpec { tasks: 40, ..Default::default() });
        let anneal = AnnealingPlacer { iters: 60, restarts: 3, seed, ..Default::default() };
        let place_all = |threads: usize| {
            let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
            pool.install(|| {
                [
                    HeftPlacer::default().place(&env, &dag),
                    PeftPlacer.place(&env, &dag),
                    CpopPlacer.place(&env, &dag),
                    anneal.place(&env, &dag),
                ]
            })
        };
        prop_assert_eq!(place_all(1), place_all(3));
    }

    /// The delta-cost annealer and the clone-and-replay oracle walk the
    /// exact same Metropolis trajectory: identical final placements, for
    /// arbitrary objective weights and DAGs.
    #[test]
    fn anneal_delta_equals_full_recompute(
        seed in any::<u64>(),
        w_energy in 0u8..10,
        w_cost in 0u8..100,
    ) {
        let built = continuum(&ContinuumSpec::default());
        let env = Env::new(built.topology.clone(), standard_fleet(&built));
        let mut rng = Rng::new(seed);
        let dag = layered_random(&mut rng, &LayeredSpec { tasks: 25, ..Default::default() });
        let delta = AnnealingPlacer {
            iters: 40,
            restarts: 2,
            seed,
            objective: WeightedObjective {
                w_time: 1.0,
                w_energy: w_energy as f64,
                w_cost: w_cost as f64,
            },
            ..Default::default()
        };
        let oracle = AnnealingPlacer { full_recompute: true, ..delta.clone() };
        prop_assert_eq!(delta.place(&env, &dag), oracle.place(&env, &dag));
    }

    /// The cached transfer matrix answers exactly what materializing the
    /// canonical route and asking it would — for every node pair.
    #[test]
    fn cached_transfer_times_match_paths(bytes in 0u64..(1 << 40)) {
        let built = continuum(&ContinuumSpec {
            fogs: 2,
            edges_per_fog: 2,
            sensors_per_edge: 2,
            ..Default::default()
        });
        let env = Env::new(built.topology.clone(), standard_fleet(&built));
        let n = env.topology.node_count();
        for s in 0..n as u32 {
            for d in 0..n as u32 {
                let (src, dst) = (continuum_net::NodeId(s), continuum_net::NodeId(d));
                let via_path = env.path(src, dst).map(|p| p.transfer_time(bytes));
                prop_assert_eq!(env.transfer_time(src, dst, bytes), via_path);
            }
        }
    }
}

/// Assert `de`'s schedule and metrics equal a full replay of its assignment.
fn assert_matches_replay(env: &Env, dag: &Dag, de: &mut DeltaEvaluator, step: usize, what: &str) {
    let sched = de.schedule();
    let (oracle_sched, oracle_m) = evaluate(env, dag, &sched.placement);
    assert_eq!(sched.start, oracle_sched.start, "start after {what} {step}");
    assert_eq!(
        sched.finish, oracle_sched.finish,
        "finish after {what} {step}"
    );
    assert_eq!(de.metrics(), oracle_m, "metrics after {what} {step}");
}

// Cheap per case (a small continuum, a 60-task DAG), so many cases: the
// delta evaluator's pruning is exact only if it handles timeline
// coincidences that few move sequences produce.
proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// After every single-task move and every snapshot undo, the delta
    /// evaluator's schedule and metrics are bit-identical to a from-scratch
    /// replay of the same assignment. Starts come from HEFT, from
    /// `RandomPlacer`, and from a random placement onto the first `pool`
    /// feasible devices (congested timelines full of gaps); moves draw
    /// their target from the same pool. Widths run from chain-like to
    /// wide, and item sizes from 100 B (latency-bound transfers: tasks
    /// start at their ready time and share endpoints with their
    /// neighbours) to 100 MB.
    #[test]
    fn delta_evaluator_matches_full_replay(
        seed in any::<u64>(),
        shape in (3usize..41, 0u8..3, 1usize..6, proptest::sample::select(&[1e2, 1e5, 1e8])),
        moves in proptest::collection::vec((any::<u32>(), any::<u32>(), any::<bool>()), 1..64),
    ) {
        let (width, start, pool, bytes) = shape;
        let built = continuum(&ContinuumSpec::default());
        let env = Env::new(built.topology.clone(), standard_fleet(&built));
        let mut rng = Rng::new(seed);
        let dag = layered_random(
            &mut rng,
            &LayeredSpec { tasks: 60, width, bytes_mu: f64::ln(bytes), ..Default::default() },
        );
        let pick = |t: TaskId, b: usize| {
            let feas = env.feasible_devices(dag.task(t));
            feas[b % feas.len().min(pool)]
        };
        let init = match start {
            0 => HeftPlacer::default().place(&env, &dag),
            1 => RandomPlacer::new(seed).place(&env, &dag),
            _ => Placement {
                assignment: dag.tasks().iter().map(|t| pick(t.id, rng.index(pool))).collect(),
            },
        };
        let mut de = DeltaEvaluator::new(&env, &dag, &init);
        for (step, &(a, b, undo)) in moves.iter().enumerate() {
            let t = TaskId(a % dag.len() as u32);
            if dag.task(t).constraints.pinned_node.is_some() {
                continue;
            }
            let dev = pick(t, b as usize);
            let was = de.assignment()[t.0 as usize];
            de.move_task(t, dev);
            assert_matches_replay(&env, &dag, &mut de, step, "move");
            if undo && dev != was {
                de.undo_last_move();
                assert_matches_replay(&env, &dag, &mut de, step, "undo");
            }
        }
    }
}
