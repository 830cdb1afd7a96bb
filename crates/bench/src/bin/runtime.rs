//! runtime — before/after benchmarks for the stream-executor overhaul.
//!
//! Runs the dense-state executor (interned item slots, CSR input plans,
//! epoch-tagged route cache, compacting calendar) against the seed-era
//! executor vendored in [`continuum_bench::seed_exec`] (hashed composite
//! keys, per-event input clone+sort+dedup, a fresh route computation per
//! transfer) on identical workloads, in two arms:
//!
//! - **steady**: a multi-request streaming workload on a whole fabric —
//!   no faults, so the route cache only absorbs repeat (src, dst, salt)
//!   lookups and the win comes from the dense request state.
//! - **chaos churn**: the same world under a generated device/link
//!   crash-recover storm. Degraded-fabric routing is where the seed
//!   pays a full Dijkstra per transfer; the cache collapses that to one
//!   per (src, dst) pair per epoch, and the calendar's compaction bounds
//!   the tombstone pile-up from re-armed flow completions.
//!
//! Both arms assert the two executors' [`SimOutcome`]s **bit-identical**
//! (every f64 metric, every trace record) before timing anything — the
//! speedup is not bought with a different execution.
//!
//! Both executors drive the same `FlowNetwork`, so a slower flow engine
//! moves both sides of `speedup`. Each arm therefore also records the
//! engine's exact work under `work` — flows re-rated and rate changes,
//! read from the checked (untimed) dense pass run under a telemetry sink.
//! The counts are deterministic; `scripts/bench_regress.py` fails when one
//! rises above its committed smoke value.
//!
//! Writes `BENCH_runtime.json` in the current directory; run from the
//! workspace root:
//!
//! ```text
//! cargo run --release -p continuum-bench --bin runtime
//! ```
//!
//! `--smoke` shrinks the workload so CI can assert equivalence and JSON
//! emission without paying the full measurement cost; it writes
//! `BENCH_runtime.smoke.json` instead.

use continuum_bench::seed_exec::simulate_stream_chaos_seed;
use continuum_core::prelude::*;
use continuum_fabric::{
    endpoints_on, run_fabric, Backoff, EndpointFaults, FederationCfg, FunctionRegistry, Invocation,
    RoutingPolicy,
};
use continuum_model::standard_fleet;
use continuum_obs::{HealthSpec, Telemetry};
use continuum_runtime::{simulate_open_loop, simulate_stream_chaos, OpenLoopOpts, SimOutcome};
use serde_json::json;
use std::rc::Rc;
use std::time::Instant;

fn ms(from: Instant) -> f64 {
    from.elapsed().as_secs_f64() * 1e3
}

/// Best-of-`n` wall time of `f`, in milliseconds.
fn best_of<T>(n: usize, mut f: impl FnMut() -> T) -> f64 {
    (0..n)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(f());
            ms(t0)
        })
        .fold(f64::INFINITY, f64::min)
}

/// The shared world: the planner bench's ~526-node continuum (hundreds of
/// nodes make each uncached Dijkstra detour expensive, which is the hot
/// path the route cache attacks) carrying a staggered stream of identical
/// requests.
///
/// The placement is deliberately round-robin, not HEFT: this bench
/// stresses the *executor*, so every DAG edge should be a real transfer
/// (HEFT collocates data-heavy neighbors and the event loop goes quiet).
/// All requests share one placement, so the same (src, dst) node pairs
/// recur across the stream — the access pattern the degraded-fabric
/// route cache keys on.
fn build_world(smoke: bool) -> (Env, Vec<StreamRequest>) {
    let spec = ContinuumSpec {
        fogs: 8,
        edges_per_fog: 8,
        sensors_per_edge: 7, // 526 nodes
        ..ContinuumSpec::default()
    };
    let built = continuum_net::continuum(&spec);
    let env = Env::new(built.topology.clone(), standard_fleet(&built));
    let n_reqs = if smoke { 3 } else { 16 };
    let tasks = if smoke { 30 } else { 120 };
    let mut rng = Rng::new(0x57EA);
    let dag = layered_random(
        &mut rng,
        &LayeredSpec {
            tasks,
            width: 10,
            source: built.edges[0],
            min_mem_bytes: 0,
            // ~10 MB median items: flows live long enough for the churn
            // arm's link flaps to abort and re-route them mid-flight.
            bytes_mu: (1e7f64).ln(),
            ..Default::default()
        },
    );
    let placement = RoundRobinPlacer.place(&env, &dag);
    let reqs: Vec<StreamRequest> = (0..n_reqs)
        .map(|i| StreamRequest {
            arrival: SimTime::from_millis(100 * i as u64),
            dag: dag.clone(),
            placement: placement.clone(),
        })
        .collect();
    (env, reqs)
}

/// A device/link churn storm scaled to the steady-state makespan: every
/// crash recovers, link flaps keep the fabric degraded for most of the
/// run (many route-cache epochs, each amortizing its Dijkstras), and
/// device crashes exercise orphan re-placement.
fn churn_plane(env: &Env, base_makespan_s: f64) -> FaultPlane {
    let n_dev = env.fleet.len() as u32;
    let n_links = env.topology.links().len() as u32;
    let schedule = FaultSchedule::generate(
        &FaultScheduleSpec {
            horizon: SimDuration::from_secs_f64(base_makespan_s * 1.5),
            devices: FaultProcess {
                population: n_dev,
                mttf_s: base_makespan_s * 4.0,
                mttr_s: base_makespan_s * 0.3,
            },
            // A modest set of flapping links rather than the whole
            // fabric: with ~duty-cycle-33% outages on dozens of links the
            // fabric is degraded nearly the entire run (every route is a
            // Dijkstra detour in the seed), while the epoch count — each
            // flap invalidates the cache — stays small next to the
            // transfer count, which is what any cache needs to pay off.
            links: FaultProcess {
                population: (n_links / 8).max(8),
                mttf_s: base_makespan_s * 0.4,
                mttr_s: base_makespan_s * 0.2,
            },
            ..Default::default()
        },
        0xC4AF,
    );
    FaultPlane {
        schedule,
        detection: SimDuration::from_millis(250),
    }
}

/// Run one arm: assert the dense executor and the vendored seed executor
/// produce bit-identical outcomes, then time both. The checked dense pass
/// runs under a metrics sink (outside the timed passes) for the arm's
/// flow-engine work counts.
fn bench_arm(
    env: &Env,
    reqs: &[StreamRequest],
    plane: Option<&FaultPlane>,
    reps: usize,
) -> (SimOutcome, serde_json::Value) {
    let tele = Rc::new(Telemetry::new(false));
    let dense =
        continuum_obs::with_ambient(&tele, || simulate_stream_chaos(env, reqs, None, plane));
    let snap = dense.telemetry.as_deref().expect("a sink was ambient");
    let work = json!({
        "recomputed_flows": snap.counter("flow_engine.recomputed_flows"),
        "rate_changes": snap.counter("flow_engine.rate_changes"),
    });
    let seed = simulate_stream_chaos_seed(env, reqs, None, plane);
    assert_eq!(
        dense, seed,
        "dense executor diverged from the seed oracle — the speedup would be meaningless"
    );
    let dense_ms = best_of(reps, || simulate_stream_chaos(env, reqs, None, plane));
    let seed_ms = best_of(reps, || simulate_stream_chaos_seed(env, reqs, None, plane));
    let events = dense.trace.records.len() as u64
        + dense.trace.transfers
        + plane.map_or(0, |p| p.schedule.len() as u64);
    let stats = json!({
        "requests": reqs.len(),
        "tasks": reqs.iter().map(|r| r.dag.len()).sum::<usize>(),
        "transfers": dense.trace.transfers,
        "makespan_s": dense.metrics.makespan_s,
        "device_crashes": dense.trace.device_crashes,
        "link_failures": dense.trace.link_failures,
        "replacements": dense.trace.replacements,
        "approx_events": events,
        "seed_ms": seed_ms,
        "dense_ms": dense_ms,
        "speedup": seed_ms / dense_ms,
        "work": work,
        "bit_identical": true,
    });
    (dense, stats)
}

/// An endpoint-fault fabric leg for the instrumented telemetry run: a
/// burst of invocations on the cloud-tier endpoints under a generated
/// crash/recover storm, so the exported snapshot carries broker
/// failovers, detections, retries, and orphan restarts alongside the
/// executor's counters.
fn fabric_leg(env: &Env, smoke: bool) {
    let mut registry = FunctionRegistry::new();
    let f = registry.register("f", 1e10, 10 << 10, 1 << 10);
    let endpoints = endpoints_on(env, &env.fleet.in_tier(Tier::Cloud));
    let origins: Vec<NodeId> = env
        .topology
        .nodes()
        .iter()
        .filter(|n| n.tier == Tier::Sensor)
        .map(|n| n.id)
        .collect();
    let n = if smoke { 60 } else { 400 };
    let mut rng = Rng::new(0xFAB0);
    let mut t = 0.0;
    let invocations: Vec<Invocation> = (0..n)
        .map(|i| {
            t += rng.exp(40.0);
            Invocation {
                arrival: SimTime::from_secs_f64(t),
                origin: origins[i % origins.len()],
                function: f,
            }
        })
        .collect();
    let mut cfg = FederationCfg::new(RoutingPolicy::LeastOutstanding);
    cfg.faults = Some(EndpointFaults {
        schedule: FaultSchedule::generate(
            &FaultScheduleSpec {
                horizon: SimDuration::from_secs_f64(t + 30.0),
                endpoints: FaultProcess {
                    population: endpoints.len() as u32,
                    mttf_s: 8.0,
                    mttr_s: 3.0,
                },
                ..Default::default()
            },
            0xFA17,
        ),
        heartbeat: SimDuration::from_millis(500),
        backoff: Backoff::default(),
        seed: 0xBAC0,
    });
    let rep = run_fabric(env, &registry, &endpoints, &invocations, &cfg);
    assert_eq!(rep.completed + rep.dropped, n as u64);
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let smoke = argv.iter().any(|a| a == "--smoke");
    let want_metrics = argv.iter().any(|a| a == "--metrics");
    let trace_path = argv.iter().position(|a| a == "--trace").map(|i| {
        argv.get(i + 1).cloned().unwrap_or_else(|| {
            eprintln!("--trace needs a file path");
            std::process::exit(2);
        })
    });
    let reps = if smoke { 1 } else { 5 };
    let (env, reqs) = build_world(smoke);

    eprintln!("runtime: steady arm (no faults) ...");
    let (steady_out, steady) = bench_arm(&env, &reqs, None, reps);

    eprintln!("runtime: chaos churn arm ...");
    let plane = churn_plane(&env, steady_out.metrics.makespan_s);
    let (_, churn) = bench_arm(&env, &reqs, Some(&plane), reps);

    // Health-plane overhead arm: the same workload through the open-loop
    // executor with the SLO burn-rate health plane off vs on. Observation
    // must not perturb the simulation — once the health summary itself is
    // set aside, the two reports agree on every number — and the wall
    // cost of observing stays within noise of the untracked run.
    eprintln!("runtime: open-loop health on/off arm ...");
    let hspec = HealthSpec::default();
    let off_opts = OpenLoopOpts::default();
    let on_opts = OpenLoopOpts {
        health: Some(&hspec),
        ..OpenLoopOpts::default()
    };
    let off_rep = simulate_open_loop(&env, reqs.iter().cloned(), &off_opts);
    let mut on_rep = simulate_open_loop(&env, reqs.iter().cloned(), &on_opts);
    assert!(off_rep.health.is_none() && on_rep.health.is_some());
    let health_summary = on_rep.health.take().expect("health report");
    assert_eq!(
        off_rep, on_rep,
        "the health plane perturbed the open-loop run"
    );
    let health_off_ms = best_of(reps, || {
        simulate_open_loop(&env, reqs.iter().cloned(), &off_opts)
    });
    let health_on_ms = best_of(reps, || {
        simulate_open_loop(&env, reqs.iter().cloned(), &on_opts)
    });
    let health = json!({
        "completed": on_rep.completed,
        "observed": health_summary.observed,
        "violations": health_summary.violations,
        "burn_short_peak": health_summary.burn_short_peak,
        "frames": health_summary.frames.len(),
        "health_off_ms": health_off_ms,
        "health_on_ms": health_on_ms,
        "overhead": health_on_ms / health_off_ms,
        "bit_identical": true,
    });

    // Instrumented section: a telemetry-on chaos replay plus a fabric
    // fault leg, strictly OUTSIDE the timed arms above — the benchmark
    // numbers never include telemetry overhead, and the trace/metrics
    // artifacts come from the same world the chaos arm measured. This
    // leg always runs so the `telemetry` key is always populated;
    // `--metrics` is kept as a no-op for compatibility, `--trace PATH`
    // additionally records and exports a Perfetto trace.
    let _ = want_metrics;
    eprintln!("runtime: instrumented chaos + fabric leg ...");
    let tele = Rc::new(Telemetry::new(trace_path.is_some()));
    continuum_obs::with_ambient(&tele, || {
        std::hint::black_box(simulate_stream_chaos(&env, &reqs, None, Some(&plane)));
        fabric_leg(&env, smoke);
    });
    if let Some(path) = &trace_path {
        std::fs::write(path, tele.tracer.export_string())
            .unwrap_or_else(|e| panic!("writing {path}: {e}"));
        eprintln!("trace: {path} ({} events)", tele.tracer.len());
    }
    let telemetry = serde::Serialize::to_value(&tele.metrics.snapshot());

    let out = json!({
        "bench": "runtime",
        "command": "cargo run --release -p continuum-bench --bin runtime",
        "smoke": smoke,
        "nodes": env.topology.node_count(),
        "devices": env.fleet.len(),
        "steady": steady,
        "chaos_churn": churn,
        "open_loop_health": health,
        "telemetry": telemetry,
        "notes": [
            "Both arms assert SimOutcome bit-identity (every trace record and f64 \
             metric) between the dense-state executor and the vendored seed-era \
             executor before timing either.",
            "The seed oracle keeps the seed's data structures and per-transfer route \
             computations; its only deviations are NodeId-sorted publish order (the \
             seed's HashMap key scan was nondeterministic) and sender-device egress \
             attribution (the seed billed an arbitrary device at multi-device nodes).",
            "chaos_churn is the headline arm: degraded-fabric routing cost a full \
             Dijkstra per transfer in the seed; the epoch-tagged route cache pays one \
             per (src, dst) pair per fault epoch.",
            "telemetry is always populated: it is the metrics snapshot of an \
             untimed instrumented replay of the chaos arm plus a fabric fault leg.",
            "work holds each arm's exact flow-engine counts (flows re-rated, rate \
             changes) from the checked dense pass; bench_regress.py fails when one \
             rises above the committed smoke value, so a slower engine that moves \
             both sides of `speedup` still fails the guard.",
            "open_loop_health times the open-loop executor with the SLO burn-rate \
             health plane off vs on; the two runs are asserted equal on every \
             simulated number before timing, so `overhead` is pure observation cost.",
        ],
    });
    continuum_bench::write_bench_report("runtime", smoke, &out);
}
