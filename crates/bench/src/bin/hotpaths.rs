//! hotpaths — microbenchmarks for the three optimized hot paths.
//!
//! Measures (1) all-pairs route-table construction on a 1-thread pool vs
//! the ambient pool, on a ~1000-node fat-tree; (2) 10k-flow start/remove
//! churn through `FlowNetwork` on a ~500-node fat-tree, incremental
//! engine vs the pre-overhaul engine vendored below as [`seed_flow`];
//! and (3) a HEFT placement sweep over a ~500-node continuum, which
//! exercises the sweep-line device timelines.
//!
//! Writes `BENCH_hotpaths.json` in the current directory so the repo's
//! perf trajectory is recorded; run from the workspace root:
//!
//! ```text
//! cargo run --release -p continuum-bench --bin hotpaths
//! ```

use continuum_core::prelude::*;
use continuum_model::standard_fleet;
use continuum_net::{fat_tree, ContinuumSpec, FlowEngineStats, FlowNetwork, LinkSpec, RouteTable};
use continuum_sim::{Rng, SimDuration, SimTime};
use serde_json::json;
use std::time::Instant;

/// The flow engine as it stood before the incremental overhaul, vendored
/// verbatim (minus unused methods) so the churn benchmark measures the
/// real before/after rather than a proxy: `HashMap` flow storage, a
/// `Vec<LinkId>` path clone per start, and a from-scratch progressive
/// filling over *all* links on every mutation.
mod seed_flow {
    use continuum_net::{LinkId, Path, Topology};
    use continuum_sim::SimTime;
    use std::collections::HashMap;

    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
    pub struct FlowId(pub u64);

    #[derive(Debug, Clone)]
    struct Flow {
        links: Vec<LinkId>,
        remaining: f64,
        rate: f64,
    }

    #[derive(Debug)]
    pub struct FlowNetwork {
        capacity: Vec<f64>,
        flows: HashMap<FlowId, Flow>,
        next_id: u64,
        clock: SimTime,
    }

    impl FlowNetwork {
        pub fn new(topo: &Topology) -> FlowNetwork {
            FlowNetwork {
                capacity: topo.links().iter().map(|l| l.bandwidth_bps).collect(),
                flows: HashMap::new(),
                next_id: 0,
                clock: SimTime::ZERO,
            }
        }

        pub fn start(&mut self, now: SimTime, path: &Path, bytes: u64) -> Option<FlowId> {
            if path.links.is_empty() {
                return None;
            }
            self.advance(now);
            let id = FlowId(self.next_id);
            self.next_id += 1;
            self.flows.insert(
                id,
                Flow {
                    links: path.links.to_vec(),
                    remaining: bytes.max(1) as f64,
                    rate: 0.0,
                },
            );
            self.recompute_rates();
            Some(id)
        }

        pub fn remove(&mut self, now: SimTime, id: FlowId) {
            self.advance(now);
            self.flows.remove(&id);
            self.recompute_rates();
        }

        pub fn advance(&mut self, now: SimTime) {
            debug_assert!(now >= self.clock, "flow network time went backwards");
            if now <= self.clock {
                return;
            }
            let dt = now.since(self.clock).as_secs_f64();
            for f in self.flows.values_mut() {
                f.remaining = (f.remaining - f.rate * dt).max(0.0);
            }
            self.clock = now;
        }

        pub fn rate(&self, id: FlowId) -> Option<f64> {
            self.flows.get(&id).map(|f| f.rate)
        }

        fn recompute_rates(&mut self) {
            let mut residual = self.capacity.clone();
            let mut count = vec![0u32; self.capacity.len()];
            for f in self.flows.values() {
                for &l in &f.links {
                    count[l.0 as usize] += 1;
                }
            }
            let mut frozen: HashMap<FlowId, f64> = HashMap::with_capacity(self.flows.len());
            let mut unfrozen: Vec<FlowId> = self.flows.keys().copied().collect();
            unfrozen.sort_unstable(); // determinism
            while !unfrozen.is_empty() {
                let mut best: Option<(f64, usize)> = None;
                for (li, (&res, &cnt)) in residual.iter().zip(count.iter()).enumerate() {
                    if cnt > 0 {
                        let share = res / cnt as f64;
                        if best.map(|(s, _)| share < s).unwrap_or(true) {
                            best = Some((share, li));
                        }
                    }
                }
                let Some((share, bottleneck)) = best else {
                    break;
                };
                let mut still = Vec::with_capacity(unfrozen.len());
                for id in unfrozen.drain(..) {
                    let f = &self.flows[&id];
                    if f.links.iter().any(|l| l.0 as usize == bottleneck) {
                        frozen.insert(id, share);
                        for &l in &f.links {
                            residual[l.0 as usize] -= share;
                            count[l.0 as usize] -= 1;
                        }
                    } else {
                        still.push(id);
                    }
                }
                unfrozen = still;
                for r in &mut residual {
                    if *r < 0.0 {
                        *r = 0.0;
                    }
                }
            }
            for (id, f) in self.flows.iter_mut() {
                f.rate = frozen.get(id).copied().unwrap_or(0.0);
            }
        }
    }
}

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

/// All-pairs Dijkstra over a ~1000-node fat-tree, on a 1-thread pool vs
/// the ambient pool.
fn bench_route_table() -> serde_json::Value {
    let link = LinkSpec::new(SimDuration::from_micros(50), 1.25e9);
    let (topo, _) = fat_tree(14, 8, link); // 49 + 98 + 98 + 784 = 1029 nodes
    let one = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("rayon pool");
    let serial_ms = best_of(3, || one.install(|| RouteTable::build(&topo)));
    let parallel_ms = best_of(3, || RouteTable::build(&topo));
    json!({
        "nodes": topo.node_count(),
        "links": topo.link_count(),
        "serial_ms": serial_ms,
        "parallel_ms": parallel_ms,
        "speedup": serial_ms / parallel_ms,
        "threads": rayon::current_num_threads(),
    })
}

/// Start/remove 10k flows over a ~500-node fat-tree, holding at most
/// `CAP` concurrent, through the incremental engine and through the
/// vendored pre-overhaul engine ([`seed_flow`]), end to end.
fn bench_flow_churn() -> serde_json::Value {
    const FLOWS: usize = 10_000;
    const CAP: usize = 512;
    let link = LinkSpec::new(SimDuration::from_micros(50), 1.25e9);
    let (topo, hosts) = fat_tree(10, 8, link); // 25 + 50 + 50 + 400 = 525 nodes
    let rt = RouteTable::build(&topo);
    let mut rng = Rng::new(0xB0_7CA75);
    let mut picks = Vec::with_capacity(FLOWS);
    for _ in 0..FLOWS {
        let a = hosts[rng.index(hosts.len())];
        let mut b = hosts[rng.index(hosts.len())];
        while b == a {
            b = hosts[rng.index(hosts.len())];
        }
        let path = rt.path(&topo, a, b).expect("fat-tree is connected");
        picks.push((path, rng.range_u64(1 << 10, 1 << 24)));
    }

    // Identical start/remove sequence through both engines. The rate
    // probe at the end of each pass both defeats dead-code elimination
    // and cross-checks that the engines agree.
    let run_incremental = || -> (f64, f64, FlowEngineStats) {
        let mut net = FlowNetwork::new(&topo);
        let mut live = std::collections::VecDeque::with_capacity(CAP + 1);
        let mut probe = 0.0;
        let t0 = Instant::now();
        for (path, bytes) in &picks {
            if let Some(id) = net.start(SimTime::ZERO, path, *bytes) {
                live.push_back(id);
            }
            if live.len() > CAP {
                let id = live.pop_front().expect("nonempty");
                probe += net.rate(id).expect("live flow");
                net.remove(SimTime::ZERO, id);
            }
        }
        while let Some(id) = live.pop_front() {
            probe += net.rate(id).expect("live flow");
            net.remove(SimTime::ZERO, id);
        }
        (ms(t0), probe, net.engine_stats())
    };
    let run_seed = || -> (f64, f64) {
        let mut net = seed_flow::FlowNetwork::new(&topo);
        let mut live = std::collections::VecDeque::with_capacity(CAP + 1);
        let mut probe = 0.0;
        let t0 = Instant::now();
        for (path, bytes) in &picks {
            if let Some(id) = net.start(SimTime::ZERO, path, *bytes) {
                live.push_back(id);
            }
            if live.len() > CAP {
                let id = live.pop_front().expect("nonempty");
                probe += net.rate(id).expect("live flow");
                net.remove(SimTime::ZERO, id);
            }
        }
        while let Some(id) = live.pop_front() {
            probe += net.rate(id).expect("live flow");
            net.remove(SimTime::ZERO, id);
        }
        (ms(t0), probe)
    };

    let (incremental_ms, got, stats) = run_incremental();
    let (seed_ms, want) = run_seed();
    assert!(
        (got - want).abs() <= 1e-6 * want.abs(),
        "engines disagree: incremental rate sum {got} vs seed {want}"
    );
    json!({
        "nodes": topo.node_count(),
        "links": topo.link_count(),
        "flows": FLOWS,
        "max_concurrent": CAP,
        "seed_ms": seed_ms,
        "incremental_ms": incremental_ms,
        "speedup": seed_ms / incremental_ms,
        "recomputes": stats.recomputes,
        "recomputed_flows_per_pass": stats.recomputed_flows as f64 / stats.recomputes as f64,
        "rate_changes": stats.rate_changes,
    })
}

/// HEFT placement + simulation over a ~500-node continuum: exercises the
/// sweep-line `DeviceTimeline` peak-usage queries on a large fleet.
fn bench_heft_sweep() -> serde_json::Value {
    let spec = ContinuumSpec {
        fogs: 8,
        edges_per_fog: 8,
        sensors_per_edge: 7, // 448 + 64 + 8 + 4 + 2 = 526 nodes
        ..ContinuumSpec::default()
    };
    let built = continuum_net::continuum(&spec);
    let fleet = standard_fleet(&built);
    let world = Continuum::from_parts(built.clone(), fleet);
    let mut rng = Rng::new(0x4EF7);
    let dags: Vec<Dag> = built
        .edges
        .iter()
        .take(16)
        .map(|&e| {
            layered_random(
                &mut rng,
                &LayeredSpec {
                    tasks: 40,
                    width: 8,
                    source: e,
                    min_mem_bytes: 0,
                    ..Default::default()
                },
            )
        })
        .collect();
    let tasks: usize = dags.iter().map(|d| d.tasks().len()).sum();
    let total_ms = best_of(2, || {
        for dag in &dags {
            std::hint::black_box(world.run(dag, &HeftPlacer::default()));
        }
    });
    json!({
        "nodes": built.topology.node_count(),
        "dags": dags.len(),
        "tasks": tasks,
        "total_ms": total_ms,
        "ms_per_task": total_ms / tasks as f64,
    })
}

fn main() {
    eprintln!("hotpaths: route-table build ...");
    let route_table = bench_route_table();
    eprintln!("hotpaths: 10k-flow churn ...");
    let churn = bench_flow_churn();
    eprintln!("hotpaths: HEFT sweep ...");
    let heft = bench_heft_sweep();
    let out = json!({
        "bench": "hotpaths",
        "command": "cargo run --release -p continuum-bench --bin hotpaths",
        "threads": rayon::current_num_threads(),
        "route_table_build_1000": route_table,
        "flow_churn_10k": churn,
        "heft_sweep_500": heft,
        "notes": [
            "seed_ms runs the pre-overhaul engine (vendored in this binary) end-to-end over \
             the identical start/remove sequence; both engines' rate sums are cross-checked.",
            "route-table serial/parallel parity is expected when threads == 1; the rayon \
             split is across source nodes and scales with cores.",
        ],
    });
    let rendered = serde_json::to_string_pretty(&out).expect("render json");
    std::fs::write("BENCH_hotpaths.json", &rendered).expect("write BENCH_hotpaths.json");
    println!("{rendered}");
}
