//! scale — scaling benchmark for the stream executors at fleet scale.
//!
//! Two sections, one JSON report (`BENCH_scale.json`):
//!
//! **fat_tree** — a ~100k-device `fat_tree(10, 8)` fabric carrying
//! pod-local streaming workloads, timed on the single-queue executor
//! ([`simulate_stream_chaos`]): how fast one event calendar and one
//! component-local max-min flow engine run a 100k-device fleet.
//!
//! **continuum** — a sensor→fog→cloud continuum where ~90% of requests
//! span fog and cloud, sharded by [`simulate_stream_sharded`]: tasks run
//! where they were placed and boundary transfers ride between shards as
//! conservative envelopes. Every pinned arm is asserted bit-identical to
//! the pinned one-shard reference; speedups are quoted against the
//! single-queue global-flow executor, whose all-flows-in-one-network
//! per-event cost is what pinning removes.
//!
//! Run from the workspace root:
//!
//! ```text
//! cargo run --release -p continuum-bench --bin scale
//! ```
//!
//! Every pinned arm is timed twice: on the ambient rayon pool (`ms`, with
//! the pool size in `threads`) and on a 1-thread pool (`ms_1_thread`).
//!
//! `--smoke` shrinks both worlds so CI can assert the identities and
//! JSON emission without paying the full measurement cost, and writes
//! `BENCH_scale.smoke.json` instead; `--continuum` / `--fat-tree`
//! restrict the run to one section.

use continuum_core::prelude::*;
use continuum_model::standard_fleet;
use continuum_net::{continuum, continuum_regions, fat_tree, RegionPartition};
use continuum_runtime::{simulate_stream_chaos, simulate_stream_sharded, ShardOpts, SimOutcome};
use serde_json::json;
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

/// Run `f` on a 1-thread rayon pool: every shard advances serially.
fn one_thread<T>(f: impl FnOnce() -> T) -> T {
    rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("rayon pool")
        .install(f)
}

/// Arrivals + a start/completion pair per transfer + a finish per task
/// record: the event volume of one run, for events/sec normalization.
fn event_volume(reqs: usize, out: &SimOutcome) -> u64 {
    reqs as u64 + 2 * out.trace.transfers + out.trace.records.len() as u64
}

struct World {
    env: Env,
    reqs: Vec<StreamRequest>,
    hosts: usize,
}

/// The fleet-scale world: a fat-tree fabric whose pods each carry an
/// independent stream of staggered requests. Placements round-robin
/// consecutive tasks across the pod's hosts so every DAG edge is a real
/// transfer, and requests overlap in time so each pod keeps many flows
/// in flight.
fn build_world(smoke: bool) -> World {
    let (k, hpe, dev_per_host, reqs_per_pod, tasks) = if smoke {
        (4, 2, 1, 2, 12)
    } else {
        (10, 8, 250, 10, 80)
    };
    let link = LinkSpec::new(SimDuration::from_micros(50), 1e9);
    let (topo, hosts) = fat_tree(k, hpe, link);
    let mut fleet = Fleet::new();
    for &h in &hosts {
        for _ in 0..dev_per_host {
            fleet.add_class(h, DeviceClass::EdgeGateway);
        }
    }
    let env = Env::new(topo, fleet);

    let hosts_per_pod = (k / 2) * hpe;
    let mut rng = Rng::new(0x5CA1E);
    let mut reqs = Vec::new();
    for pod in 0..k {
        let pod_hosts = &hosts[pod * hosts_per_pod..(pod + 1) * hosts_per_pod];
        let devs: Vec<DeviceId> = pod_hosts
            .iter()
            .flat_map(|&h| env.fleet.at_node(h).iter().copied())
            .collect();
        for i in 0..reqs_per_pod {
            let dag = layered_random(
                &mut rng,
                &LayeredSpec {
                    tasks,
                    width: 8,
                    source: pod_hosts[i % pod_hosts.len()],
                    // ~20 MB median items over 1 Gb/s links: flows are
                    // long-lived and pile up, so flow-engine work is the
                    // dominant per-event cost.
                    bytes_mu: (2e7f64).ln(),
                    // ~1 Gflop median on 3 Gflop/s-per-core gateways:
                    // compute keeps devices busy without letting the
                    // network go quiet.
                    work_mu: (1e9f64).ln(),
                    min_mem_bytes: 0,
                    ..LayeredSpec::default()
                },
            );
            // Consecutive tasks on different hosts, cycling through each
            // host's devices across laps.
            let nh = pod_hosts.len();
            let assignment = (0..dag.len())
                .map(|t| devs[(t % nh) * dev_per_host + (t / nh) % dev_per_host])
                .collect();
            reqs.push(StreamRequest {
                dag,
                placement: Placement { assignment },
                arrival: SimTime::from_millis(150 * i as u64),
            });
        }
    }
    World {
        env,
        reqs,
        hosts: hosts.len(),
    }
}

fn bench_fat_tree(smoke: bool, reps: usize) -> serde_json::Value {
    let w = build_world(smoke);
    let run = || simulate_stream_chaos(&w.env, &w.reqs, None, None);
    let events = event_volume(w.reqs.len(), &run());
    eprintln!("scale[fat_tree]: timing the single-queue executor ...");
    let single_ms = best_of(reps, run);
    json!({
        "nodes": w.env.topology.node_count(),
        "hosts": w.hosts,
        "devices": w.env.fleet.len(),
        "requests": w.reqs.len(),
        "events": events,
        "single_queue_ms": single_ms,
        "events_per_sec": events as f64 / (single_ms / 1e3),
        "notes": [
            "events counts arrivals + per-transfer start/completion pairs + \
             task finishes.",
            "The single-queue executor is serial: one event calendar and one \
             max-min flow engine that re-rates only the component a mutation \
             touches, so pod-local requests never pay for each other's flows.",
        ],
    })
}

struct ContWorld {
    env: Env,
    reqs: Vec<StreamRequest>,
    partition: RegionPartition,
    spanning: usize,
}

/// The pinned-mode scaling world: a sensor→fog→cloud continuum where 9
/// of every 10 requests place consecutive tasks alternately on fog and
/// backbone (cloud/HPC) devices, so nearly every DAG edge crosses the
/// fog↔cloud boundary.
fn build_continuum_world(smoke: bool) -> ContWorld {
    let spec = if smoke {
        ContinuumSpec {
            fogs: 2,
            edges_per_fog: 2,
            sensors_per_edge: 2,
            clouds: 2,
            hpcs: 1,
            ..ContinuumSpec::default()
        }
    } else {
        ContinuumSpec {
            fogs: 8,
            edges_per_fog: 4,
            sensors_per_edge: 4,
            clouds: 4,
            hpcs: 2,
            ..ContinuumSpec::default()
        }
    };
    let built = continuum(&spec);
    let fleet = standard_fleet(&built);
    let env = Env::new(built.topology.clone(), fleet);
    let regions = continuum_regions(&spec);
    let partition = RegionPartition::new(&env.topology, regions.clone(), 0);
    let (reqs_per_fog, tasks) = if smoke { (2, 10) } else { (24, 40) };
    let mut rng = Rng::new(0xC0117);
    let mut reqs = Vec::new();
    let mut spanning = 0usize;
    for f in 1..regions.len() {
        for i in 0..reqs_per_fog {
            // 90% fog↔cloud spanning; the remainder stays fog-local so
            // the workload is heavy-spanning rather than all-spanning.
            let span = i % 10 != 9;
            let mut nodes = regions[f].clone();
            if span {
                nodes.extend(&regions[0]);
                spanning += 1;
            }
            let source = *regions[f].last().expect("fog region has a sensor");
            let dag = layered_random(
                &mut rng,
                &LayeredSpec {
                    tasks,
                    width: 10,
                    source,
                    // ~20 MB median items: long-lived flows pile up, so
                    // per-event flow recomputation — over ALL flows in
                    // the single queue, per region under pinning — is
                    // the dominant cost.
                    bytes_mu: (2e7f64).ln(),
                    work_mu: (1e9f64).ln(),
                    min_mem_bytes: 0,
                    ..LayeredSpec::default()
                },
            );
            let devs: Vec<DeviceId> = nodes
                .iter()
                .flat_map(|&n| env.fleet.at_node(n).iter().copied())
                .collect();
            // Round-robin over fog-then-backbone devices: consecutive
            // tasks land on opposite sides of the boundary.
            let assignment = (0..dag.len()).map(|t| devs[t % devs.len()]).collect();
            reqs.push(StreamRequest {
                dag,
                placement: Placement { assignment },
                arrival: SimTime::from_millis(50 * i as u64),
            });
        }
    }
    ContWorld {
        env,
        reqs,
        partition,
        spanning,
    }
}

fn bench_continuum(smoke: bool, reps: usize) -> serde_json::Value {
    let w = build_continuum_world(smoke);
    let shard_counts: &[usize] = if smoke { &[1, 2] } else { &[1, 2, 4, 8] };
    let frac = w.spanning as f64 / w.reqs.len() as f64;
    assert!(
        frac >= 0.8,
        "continuum workload must be spanning-heavy (got {frac:.2})"
    );

    let pinned = |n: usize| {
        simulate_stream_sharded(&w.env, &w.reqs, None, &w.partition, &ShardOpts::pinned(n))
    };

    // Identity first: every pinned arm, on a 1-thread pool and on the
    // ambient pool, must reproduce the pinned one-shard outcome
    // bit-for-bit.
    eprintln!("scale[continuum]: asserting identity across pinned arms ...");
    let reference = pinned(1);
    for &n in &shard_counts[1..] {
        assert_eq!(
            pinned(n),
            reference,
            "pinned {n}-shard outcome diverged from the pinned 1-shard reference"
        );
        assert_eq!(
            one_thread(|| pinned(n)),
            reference,
            "1-thread pinned {n}-shard outcome diverged"
        );
    }
    let events = event_volume(w.reqs.len(), &reference);

    // The speedup baseline is the single-queue global-flow executor —
    // the only pre-existing way to run this workload. Its outcome is
    // *not* bit-identical to pinned execution (one global max-min flow
    // network vs. per-region domains joined by store-and-forward
    // boundary handoffs), so it gets its own event volume and the
    // comparison is events/sec, not wall time on identical outcomes.
    eprintln!("scale[continuum]: timing single-queue global-flow baseline ...");
    let chaos = simulate_stream_chaos(&w.env, &w.reqs, None, None);
    let chaos_events = event_volume(w.reqs.len(), &chaos);
    let chaos_ms = best_of(reps, || simulate_stream_chaos(&w.env, &w.reqs, None, None));
    let chaos_eps = chaos_events as f64 / (chaos_ms / 1e3);

    let mut arms = Vec::new();
    for &n in shard_counts {
        eprintln!("scale[continuum]: timing pinned {n}-shard ...");
        let t = best_of(reps, || pinned(n));
        let t1 = one_thread(|| best_of(reps, || pinned(n)));
        let eps = events as f64 / (t / 1e3);
        arms.push(json!({
            "shards": n,
            "ms": t,
            "ms_1_thread": t1,
            "events_per_sec": eps,
            "events_per_sec_vs_single_queue": eps / chaos_eps,
        }));
    }

    json!({
        "nodes": w.env.topology.node_count(),
        "devices": w.env.fleet.len(),
        "requests": w.reqs.len(),
        "spanning_fraction": frac,
        "events": events,
        "single_queue_ms": chaos_ms,
        "single_queue_events": chaos_events,
        "single_queue_events_per_sec": chaos_eps,
        "arms": arms,
        "notes": [
            "~90% of requests alternate tasks across the fog↔cloud \
             boundary (spanning_fraction), so grouping whole requests into \
             region-disjoint shards would leave one shard; pinning tasks \
             to their regions is what makes it shard at all.",
            "Every pinned arm (each shard count, on a 1-thread pool and on \
             the ambient pool) is asserted bit-identical to the pinned 1-shard reference — every \
             trace record and f64 metric — before anything is timed.",
            "The single-queue baseline runs a different transfer model (one \
             global max-min flow network; pinned execution uses per-region \
             flow domains joined by store-and-forward handoffs at boundary \
             links), so the quoted ratio is events/sec against that \
             baseline's own event volume, not wall time on an identical \
             outcome. The model split bounds every max-min component by a \
             region: a transfer is rate-coupled only to flows in the same \
             region segment, never across the backbone.",
            "The win over the single-queue baseline comes from the per-region \
             flow domains, which the 1-shard arm already has. Each multi-shard \
             arm adds one barrier window per ~20 ms of virtual time (the \
             fog↔cloud boundary latency). On one thread (ms_1_thread) the \
             windows cost little. On more threads (ms) every window forks \
             across the pool, and the rayon stand-in spawns fresh OS threads \
             per fork, so on a multi-core host the multi-shard arms run \
             several times slower than on one thread.",
        ],
    })
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let continuum_only = args.iter().any(|a| a == "--continuum");
    let fat_tree_only = args.iter().any(|a| a == "--fat-tree");
    let reps = if smoke { 1 } else { 3 };

    let fat_tree = (!continuum_only).then(|| bench_fat_tree(smoke, reps));
    let cont = (!fat_tree_only).then(|| bench_continuum(smoke, reps));

    let mut fields = vec![
        ("bench".to_string(), json!("scale")),
        (
            "command".to_string(),
            json!("cargo run --release -p continuum-bench --bin scale"),
        ),
        ("smoke".to_string(), json!(smoke)),
        ("threads".to_string(), json!(rayon::current_num_threads())),
    ];
    if let Some(v) = fat_tree {
        fields.push(("fat_tree".to_string(), v));
    }
    if let Some(v) = cont {
        fields.push(("continuum".to_string(), v));
    }
    continuum_bench::write_bench_report("scale", smoke, &serde_json::Value::Object(fields));
}
