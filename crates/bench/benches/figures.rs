//! One criterion bench per experiment figure/table: times the
//! representative kernel of each (placement construction, contended
//! simulation, staging, fabric run) at a reduced but faithful scale, so
//! `cargo bench` tracks the cost of regenerating every result.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use continuum_bench::experiments as exp;
use continuum_core::prelude::*;
use continuum_data::{DataKey, ReplicaCatalog, StagingConfig, StagingService};
use continuum_fabric::{
    endpoints_on, run_fabric, FederationCfg, FunctionRegistry, Invocation, RoutingPolicy,
};
use continuum_net::RouteTable;

fn f1_crossover(c: &mut Criterion) {
    let world = Continuum::build(&Scenario::default_continuum());
    let dag = analytics_pipeline(&PipelineSpec {
        source: world.sensors()[0],
        input_bytes: 4 << 20,
        ..Default::default()
    });
    c.bench_function("f1_pipeline_heft_place_and_simulate", |b| {
        b.iter(|| black_box(world.run(&dag, &HeftPlacer::default()).simulated.makespan_s))
    });
}

fn f2_gilder(c: &mut Criterion) {
    c.bench_function("f2_gilder_one_sweep_point", |b| {
        b.iter(|| {
            let mut built = Scenario::default_continuum().build();
            std::sync::Arc::make_mut(&mut built.topology).scale_bandwidth(10.0);
            let fleet = continuum_model::standard_fleet(&built);
            let world = Continuum::from_parts(built, fleet);
            let dag = analytics_pipeline(&PipelineSpec {
                source: world.sensors()[0],
                input_bytes: 8 << 20,
                ..Default::default()
            });
            black_box(world.run(&dag, &HeftPlacer::default()).simulated.makespan_s)
        })
    });
}

fn f3_schedulers(c: &mut Criterion) {
    let world = Continuum::build(&Scenario::default_continuum());
    let mut rng = Rng::new(0xBE);
    let dag = layered_random(
        &mut rng,
        &LayeredSpec {
            tasks: 200,
            ..Default::default()
        },
    );
    let mut g = c.benchmark_group("f3_place_200_tasks");
    g.bench_function("heft", |b| {
        b.iter(|| black_box(world.place(&dag, &HeftPlacer::default())))
    });
    g.bench_function("heft_append_ablation", |b| {
        b.iter(|| black_box(world.place(&dag, &HeftPlacer { insertion: false })))
    });
    g.bench_function("cpop", |b| {
        b.iter(|| black_box(world.place(&dag, &CpopPlacer)))
    });
    g.bench_function("greedy_eft", |b| {
        b.iter(|| black_box(world.place(&dag, &GreedyEftPlacer::default())))
    });
    g.bench_function("data_aware_ranks_ablation", |b| {
        b.iter(|| black_box(world.place(&dag, &DataAwarePlacer)))
    });
    g.finish();
}

fn f4_streaming(c: &mut Criterion) {
    let world = Continuum::build(&exp::f4::scenario());
    let mut rng = Rng::new(0xF4);
    let stream = inference_stream(
        &mut rng,
        &StreamSpec {
            sensors: world.sensors().to_vec(),
            requests: 100,
            rate_hz: 50.0,
            ..Default::default()
        },
    );
    c.bench_function("f4_online_place_and_simulate_100_requests", |b| {
        b.iter(|| {
            let mut placer = OnlinePlacer::continuum(world.env());
            let placed: Vec<_> = stream
                .requests
                .iter()
                .map(|(arrival, dag)| {
                    let (p, _) = placer.place_request(world.env(), dag, *arrival);
                    (*arrival, dag.clone(), p)
                })
                .collect();
            black_box(world.run_stream(placed).makespan())
        })
    });
}

fn f5_scaling(c: &mut Criterion) {
    let world = Continuum::build(&Scenario::default_continuum());
    let mut rng = Rng::new(0xF5);
    let dag = layered_random(
        &mut rng,
        &LayeredSpec {
            tasks: 800,
            width: 16,
            ..Default::default()
        },
    );
    c.bench_function("f5_heft_800_tasks", |b| {
        b.iter(|| black_box(world.place(&dag, &HeftPlacer::default())))
    });
}

fn f6_pareto(c: &mut Criterion) {
    let world = Continuum::build(&Scenario::default_continuum());
    let mut rng = Rng::new(0xF6);
    let dag = layered_random(
        &mut rng,
        &LayeredSpec {
            tasks: 40,
            ..Default::default()
        },
    );
    let annealer = AnnealingPlacer {
        iters: 100,
        restarts: 2,
        ..Default::default()
    };
    c.bench_function("f6_anneal_100_iters_x2_restarts", |b| {
        b.iter(|| black_box(annealer.place(world.env(), &dag)))
    });
}

fn t2_datafabric(c: &mut Criterion) {
    let world = Continuum::build(&Scenario::default_continuum());
    let routes = RouteTable::build(world.topology());
    c.bench_function("t2_stage_500_zipf_accesses", |b| {
        b.iter(|| {
            let mut catalog = ReplicaCatalog::new();
            for k in 0..100u64 {
                catalog.register(DataKey(k), world.clouds()[0], 1 << 20);
            }
            let mut svc = StagingService::new(catalog, StagingConfig::default(), 1);
            let mut rng = Rng::new(2);
            for i in 0..500 {
                let key = DataKey(rng.zipf(100, 1.1) as u64);
                let dst = world.edges()[i % world.edges().len()];
                svc.stage(world.topology(), &routes, SimTime::ZERO, key, dst)
                    .expect("stage");
            }
            black_box(svc.bytes_on_wire())
        })
    });
}

fn f7_fabric(c: &mut Criterion) {
    let world = Continuum::build(&Scenario::default_continuum());
    let mut registry = FunctionRegistry::new();
    let infer = registry.register("infer", 5e9, 200 << 10, 1 << 10);
    let mut devices = world.env().fleet.in_tier(Tier::Fog);
    devices.extend(world.env().fleet.in_tier(Tier::Cloud));
    let endpoints = endpoints_on(world.env(), &devices);
    let mut rng = Rng::new(0xF7);
    let mut t = 0.0;
    let invocations: Vec<Invocation> = (0..1000)
        .map(|i| {
            t += rng.exp(100.0);
            Invocation {
                arrival: SimTime::from_secs_f64(t),
                origin: world.sensors()[i % world.sensors().len()],
                function: infer,
            }
        })
        .collect();
    c.bench_function("f7_fabric_1000_invocations_locality", |b| {
        b.iter(|| {
            black_box(
                run_fabric(
                    world.env(),
                    &registry,
                    &endpoints,
                    &invocations,
                    &FederationCfg::new(RoutingPolicy::Locality),
                )
                .completed,
            )
        })
    });
}

fn t3_validation(c: &mut Criterion) {
    // The real executor sleeps wall-clock time; bench the estimator side
    // (the simulator half of the validation pair).
    let world = Continuum::build(&Scenario::default_continuum());
    let dag = fork_join(world.sensors()[0], 8, 1 << 20, 5e9, 1 << 16);
    let placement = world.place(&dag, &HeftPlacer::default());
    c.bench_function("t3_simulate_forkjoin", |b| {
        b.iter(|| black_box(simulate(world.env(), &dag, &placement).metrics.makespan_s))
    });
}

fn f8_facility(c: &mut Criterion) {
    c.bench_function("f8_one_facility_point", |b| {
        b.iter(|| {
            let world = Continuum::build(&Scenario::smart_city());
            let dag = fork_join(world.sensors()[0], 16, 2 << 20, 1e10, 64 << 10);
            black_box(world.run(&dag, &HeftPlacer::default()).simulated.makespan_s)
        })
    });
}

fn f9_faults(c: &mut Criterion) {
    use continuum_runtime::{simulate_stream_with_faults, FaultSpec, StreamRequest};
    let world = Continuum::build(&Scenario::default_continuum());
    let mut rng = Rng::new(0xF9);
    let dag = layered_random(
        &mut rng,
        &LayeredSpec {
            tasks: 80,
            ..Default::default()
        },
    );
    let placement = world.place(&dag, &HeftPlacer::default());
    let reqs = [StreamRequest {
        arrival: SimTime::ZERO,
        dag: dag.clone(),
        placement,
    }];
    let faults = FaultSpec {
        fail_prob: 0.1,
        ..Default::default()
    };
    c.bench_function("f9_simulate_with_faults", |b| {
        b.iter(|| {
            black_box(
                simulate_stream_with_faults(world.env(), &reqs, Some(&faults))
                    .metrics
                    .makespan_s,
            )
        })
    });
}

fn f10_dvfs(c: &mut Criterion) {
    use continuum_model::{fleet_at_frequency, standard_fleet};
    let built = Scenario::default_continuum().build();
    let base = standard_fleet(&built);
    let mut rng = Rng::new(0xF10);
    let dag = layered_random(
        &mut rng,
        &LayeredSpec {
            tasks: 100,
            ..Default::default()
        },
    );
    c.bench_function("f10_dvfs_one_frequency_point", |b| {
        b.iter(|| {
            let fleet = fleet_at_frequency(&base, 0.7);
            let world = Continuum::from_parts(built.clone(), fleet);
            black_box(world.run(&dag, &HeftPlacer::default()).simulated.energy_j)
        })
    });
}

fn f11_failures(c: &mut Criterion) {
    let built = Scenario::default_continuum().build();
    let wan = built.topology.links_between(Tier::Fog, Tier::Cloud);
    c.bench_function("f11_degrade_route_place", |b| {
        b.iter(|| {
            let degraded = built.topology.without_links(&wan[..2]);
            let mut world_built = built.clone();
            world_built.topology = std::sync::Arc::new(degraded);
            let fleet = continuum_model::standard_fleet(&world_built);
            let world = Continuum::from_parts(world_built, fleet);
            let dag = analytics_pipeline(&PipelineSpec {
                source: world.sensors()[0],
                input_bytes: 8 << 20,
                ..Default::default()
            });
            black_box(world.run(&dag, &HeftPlacer::default()).simulated.makespan_s)
        })
    });
}

fn ablation_minmax(c: &mut Criterion) {
    let world = Continuum::build(&Scenario::default_continuum());
    let mut rng = Rng::new(0xAB);
    let dag = layered_random(
        &mut rng,
        &LayeredSpec {
            tasks: 200,
            ..Default::default()
        },
    );
    let mut g = c.benchmark_group("minmax_vs_heft_200_tasks");
    g.bench_function("min_min", |b| {
        b.iter(|| black_box(world.place(&dag, &MinMinPlacer)))
    });
    g.bench_function("max_min", |b| {
        b.iter(|| black_box(world.place(&dag, &MaxMinPlacer)))
    });
    g.finish();
}

criterion_group! {
    name = figures;
    config = Criterion::default().sample_size(10);
    targets = f1_crossover, f2_gilder, f3_schedulers, f4_streaming, f5_scaling,
              f6_pareto, t2_datafabric, f7_fabric, t3_validation, f8_facility,
              f9_faults, f10_dvfs, f11_failures, ablation_minmax
}
criterion_main!(figures);
