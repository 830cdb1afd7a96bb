//! `continuum` — run a workload on a scenario under a policy, from the
//! command line.
//!
//! ```sh
//! continuum run --scenario smart-city --workload pipeline --policy heft
//! continuum run --workload montage --policy cpop --gantt
//! continuum compare --workload layered --seed 7
//! continuum saturate --scenario smart-city --rate 400 --max-live 64
//! continuum list
//! ```

use continuum_core::prelude::*;
use continuum_obs::{HealthSpec, Telemetry};
use continuum_placement::standard_lineup;
use continuum_runtime::{simulate_open_loop, OpenLoopOpts};
use continuum_workflow::{open_loop_arrivals, ArrivalProcess, OpenLoopSpec};
use std::rc::Rc;

fn scenario_by_name(name: &str) -> Option<Scenario> {
    match name {
        "default" => Some(Scenario::default_continuum()),
        "smart-city" => Some(Scenario::smart_city()),
        "science-campus" => Some(Scenario::science_campus()),
        _ => None,
    }
}

fn policy_by_name(name: &str) -> Option<Box<dyn Placer>> {
    Some(match name {
        "random" => Box::new(RandomPlacer::new(0xC11)),
        "round-robin" => Box::new(RoundRobinPlacer),
        "edge-only" => Box::new(TierPlacer::edge_only()),
        "cloud-only" => Box::new(TierPlacer::cloud_only()),
        "greedy-eft" => Box::new(GreedyEftPlacer::default()),
        "data-aware" => Box::new(DataAwarePlacer),
        "min-min" => Box::new(MinMinPlacer),
        "max-min" => Box::new(MaxMinPlacer),
        "cpop" => Box::new(CpopPlacer),
        "peft" => Box::new(PeftPlacer),
        "heft" => Box::new(HeftPlacer::default()),
        "anneal" => Box::new(AnnealingPlacer::default()),
        _ => return None,
    })
}

fn workload_by_name(world: &Continuum, name: &str, input_mb: u64, seed: u64) -> Option<Dag> {
    let src = world.sensors()[0];
    Some(match name {
        "pipeline" => analytics_pipeline(&PipelineSpec {
            source: src,
            input_bytes: input_mb << 20,
            ..Default::default()
        }),
        "montage" => montage_like(src, 12, (input_mb.max(1) << 20) / 12),
        "map-reduce" => map_reduce(src, 8, 4, (input_mb.max(1) << 20) / 8, 50.0),
        "fork-join" => fork_join(src, 16, input_mb << 20, 1e10, 1 << 16),
        "broadcast-reduce" => broadcast_reduce(src, 16, 4, input_mb << 20, 5e9, 1 << 16),
        "stencil" => stencil(src, 8, 6, (input_mb << 20) / 8, 1 << 14, 5e9),
        "layered" => {
            let mut rng = Rng::new(seed);
            layered_random(
                &mut rng,
                &LayeredSpec {
                    tasks: 120,
                    source: world.edges()[0],
                    ..Default::default()
                },
            )
        }
        _ => return None,
    })
}

const SCENARIOS: [&str; 3] = ["default", "smart-city", "science-campus"];
const WORKLOADS: [&str; 7] = [
    "pipeline",
    "montage",
    "map-reduce",
    "fork-join",
    "broadcast-reduce",
    "stencil",
    "layered",
];
const POLICIES: [&str; 12] = [
    "random",
    "round-robin",
    "edge-only",
    "cloud-only",
    "greedy-eft",
    "data-aware",
    "min-min",
    "max-min",
    "cpop",
    "peft",
    "heft",
    "anneal",
];

fn usage() -> ! {
    eprintln!(
        "usage:\n  continuum run [--scenario S] [--workload W] [--policy P] \
         [--input-mb N] [--seed N] [--gantt] [--metrics] [--trace FILE]\n  \
         continuum compare [--scenario S] \
         [--workload W] [--input-mb N] [--seed N]\n  \
         continuum saturate [--scenario S] [--rate HZ] [--requests N] \
         [--max-live N] [--seed N] [--deadline-ms N] [--health] \
         [--flight-recorder FILE]\n  continuum list\n\n\
         scenarios: {SCENARIOS:?}\n workloads: {WORKLOADS:?}\n policies:  {POLICIES:?}\n\n\
         --metrics      print the run's telemetry snapshot as JSON\n\
         --trace FILE   write a Chrome/Perfetto trace_events file\n\
         saturate: drive the scenario open-loop at --rate (Poisson \
         arrivals) with at most --max-live requests in flight; excess \
         arrivals are rejected at the door. --deadline-ms switches the \
         online placer to deadline-aware escalation.\n\
         --health               attach the SLO burn-rate health plane \
         (objective = --deadline-ms, else 400 ms)\n\
         --flight-recorder FILE write the health timeline (frames, \
         anomalies, incident) as JSON; implies --health"
    );
    std::process::exit(2);
}

/// Write `contents` to `path`; on failure report it and exit 1.
fn write_or_exit(path: &str, contents: String) {
    if let Err(e) = std::fs::write(path, contents) {
        eprintln!("error: writing {path}: {e}");
        std::process::exit(1);
    }
}

struct Opts {
    scenario: String,
    workload: String,
    policy: String,
    input_mb: u64,
    seed: u64,
    gantt: bool,
    metrics: bool,
    trace: Option<String>,
    rate_hz: f64,
    requests: usize,
    max_live: usize,
    deadline_ms: Option<u64>,
    health: bool,
    flight_recorder: Option<String>,
}

fn parse(args: &[String]) -> Opts {
    let mut o = Opts {
        scenario: "default".into(),
        workload: "pipeline".into(),
        policy: "heft".into(),
        input_mb: 16,
        seed: 42,
        gantt: false,
        metrics: false,
        trace: None,
        rate_hz: 200.0,
        requests: 2000,
        max_live: 64,
        deadline_ms: None,
        health: false,
        flight_recorder: None,
    };
    let mut i = 0;
    while i < args.len() {
        let take = |i: &mut usize| -> String {
            *i += 1;
            args.get(*i).cloned().unwrap_or_else(|| usage())
        };
        match args[i].as_str() {
            "--scenario" => o.scenario = take(&mut i),
            "--workload" => o.workload = take(&mut i),
            "--policy" => o.policy = take(&mut i),
            "--input-mb" => o.input_mb = take(&mut i).parse().unwrap_or_else(|_| usage()),
            "--seed" => o.seed = take(&mut i).parse().unwrap_or_else(|_| usage()),
            "--gantt" => o.gantt = true,
            "--metrics" => o.metrics = true,
            "--trace" => o.trace = Some(take(&mut i)),
            "--rate" => o.rate_hz = take(&mut i).parse().unwrap_or_else(|_| usage()),
            "--requests" => o.requests = take(&mut i).parse().unwrap_or_else(|_| usage()),
            "--max-live" => o.max_live = take(&mut i).parse().unwrap_or_else(|_| usage()),
            "--deadline-ms" => {
                o.deadline_ms = Some(take(&mut i).parse().unwrap_or_else(|_| usage()));
            }
            "--health" => o.health = true,
            "--flight-recorder" => o.flight_recorder = Some(take(&mut i)),
            _ => usage(),
        }
        i += 1;
    }
    o
}

fn print_report(policy: &str, report: &RunReport) {
    let m = &report.simulated;
    println!(
        "{policy:<12} makespan {:>10.4}s   energy {:>10.1}J   cost ${:>8.4}   moved {:>8.2}MB   contention {:>5.2}x",
        m.makespan_s,
        m.energy_j,
        m.cost_usd,
        m.bytes_moved as f64 / 1e6,
        report.contention_factor(),
    );
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = argv.split_first() else {
        usage()
    };
    match cmd.as_str() {
        "list" => {
            println!("scenarios: {SCENARIOS:?}");
            println!("workloads: {WORKLOADS:?}");
            println!("policies:  {POLICIES:?}");
        }
        "run" => {
            let o = parse(rest);
            let scenario = scenario_by_name(&o.scenario).unwrap_or_else(|| usage());
            let world = Continuum::build(&scenario);
            let dag = workload_by_name(&world, &o.workload, o.input_mb, o.seed)
                .unwrap_or_else(|| usage());
            let policy = policy_by_name(&o.policy).unwrap_or_else(|| usage());
            println!(
                "scenario '{}': {} nodes / {} devices; workload '{}': {} tasks, {:.1} Gflop",
                scenario.name,
                world.topology().node_count(),
                world.env().fleet.len(),
                dag.name,
                dag.len(),
                dag.total_work() / 1e9,
            );
            let report = if o.metrics || o.trace.is_some() {
                let tele = Rc::new(Telemetry::new(o.trace.is_some()));
                let report =
                    continuum_obs::with_ambient(&tele, || world.run(&dag, policy.as_ref()));
                if let Some(path) = &o.trace {
                    write_or_exit(path, tele.tracer.export_string());
                    eprintln!("trace: {path} ({} events)", tele.tracer.len());
                }
                if o.metrics {
                    println!(
                        "{}",
                        serde_json::to_string_pretty(&tele.metrics.snapshot())
                            .expect("metrics serialize")
                    );
                }
                report
            } else {
                world.run(&dag, policy.as_ref())
            };
            print_report(policy.name(), &report);
            if o.gantt {
                let names: Vec<String> = world
                    .env()
                    .fleet
                    .devices()
                    .iter()
                    .map(|d| format!("{}@{}", d.spec.class.label(), d.node))
                    .collect();
                println!("\n{}", report.trace.gantt(&names, 72));
            }
        }
        "compare" => {
            let o = parse(rest);
            let scenario = scenario_by_name(&o.scenario).unwrap_or_else(|| usage());
            let world = Continuum::build(&scenario);
            let dag = workload_by_name(&world, &o.workload, o.input_mb, o.seed)
                .unwrap_or_else(|| usage());
            println!(
                "workload '{}' on '{}' — every policy in the standard line-up:",
                dag.name, scenario.name
            );
            for p in standard_lineup() {
                let report = world.run(&dag, p.as_ref());
                print_report(p.name(), &report);
            }
        }
        "saturate" => {
            let o = parse(rest);
            let scenario = scenario_by_name(&o.scenario).unwrap_or_else(|| usage());
            let world = Continuum::build(&scenario);
            if o.rate_hz <= 0.0 || o.requests == 0 || o.max_live == 0 {
                usage();
            }
            let spec = OpenLoopSpec {
                sensors: world.sensors().to_vec(),
                requests: o.requests,
                process: ArrivalProcess::Poisson { rate_hz: o.rate_hz },
                ..OpenLoopSpec::default()
            };
            let mut placer = OnlinePlacer::continuum(world.env());
            let deadline = o.deadline_ms.map(SimDuration::from_millis);
            let arrivals = open_loop_arrivals(o.seed, &spec).map(|(arrival, dag)| {
                let placement = match deadline {
                    Some(d) => {
                        placer
                            .place_request_deadline(world.env(), &dag, arrival, d)
                            .0
                    }
                    None => placer.place_request(world.env(), &dag, arrival).0,
                };
                StreamRequest {
                    dag,
                    placement,
                    arrival,
                }
            });
            let health_spec = (o.health || o.flight_recorder.is_some()).then(|| {
                HealthSpec::for_objective_ns(o.deadline_ms.map_or(400_000_000, |ms| ms * 1_000_000))
            });
            let opts = OpenLoopOpts {
                max_live: o.max_live,
                health: health_spec.as_ref(),
                ..OpenLoopOpts::default()
            };
            let rep = simulate_open_loop(world.env(), arrivals, &opts);
            println!(
                "scenario '{}': {} nodes / {} devices; open-loop {} req @ {} req/s ({} placer, cap {})",
                scenario.name,
                world.topology().node_count(),
                world.env().fleet.len(),
                o.requests,
                o.rate_hz,
                if deadline.is_some() { "deadline" } else { "greedy" },
                o.max_live,
            );
            println!(
                "offered {}   completed {}   rejected {} ({:.1}%)   goodput {:.1}/s",
                rep.offered,
                rep.completed,
                rep.rejected,
                rep.rejection_rate() * 100.0,
                rep.goodput_hz(),
            );
            println!(
                "latency p50 {:.1}ms   p99 {:.1}ms   p999 {:.1}ms   peak live {}   peak record buf {}",
                rep.latency_quantile_s(0.50) * 1e3,
                rep.latency_quantile_s(0.99) * 1e3,
                rep.latency_quantile_s(0.999) * 1e3,
                rep.peak_live,
                rep.peak_record_buffer,
            );
            if let Some(h) = &rep.health {
                println!(
                    "health: objective {:.0}ms   violations {}/{}   burn short {:.2} (peak {:.2})   long {:.2}   anomalies {}",
                    h.objective_ns as f64 / 1e6,
                    h.violations,
                    h.observed,
                    h.burn_short,
                    h.burn_short_peak,
                    h.burn_long,
                    h.anomalies.len(),
                );
                if let Some(path) = &o.flight_recorder {
                    use serde::Serialize as _;
                    let text = serde_json::to_string_pretty(&h.to_value())
                        .expect("health report serialize");
                    write_or_exit(path, text);
                    eprintln!(
                        "flight recorder: {path} ({} frames, {} anomalies)",
                        h.frames.len(),
                        h.anomalies.len()
                    );
                }
            }
        }
        _ => usage(),
    }
}
