//! Property-based tests for the network substrate.

use continuum_net::{
    continuum, shortest_path_avoiding, ContinuumSpec, FlowNetwork, LinkSpec, NodeId, RouteCache,
    RouteTable, Tier, Topology,
};
use continuum_sim::{Rng, SimDuration, SimTime};
use proptest::prelude::*;

/// Build a random connected topology: a spanning chain plus extra edges.
fn random_topology(seed: u64, n: usize, extra: usize) -> Topology {
    let mut rng = Rng::new(seed);
    let mut t = Topology::new();
    for i in 0..n {
        t.add_node(format!("n{i}"), Tier::Fog);
    }
    for i in 1..n {
        t.add_link(
            NodeId(i as u32),
            NodeId(rng.below(i as u64) as u32),
            SimDuration::from_micros(rng.range_u64(100, 10_000)),
            rng.range_f64(1e6, 1e9),
        );
    }
    for _ in 0..extra {
        let a = rng.below(n as u64) as u32;
        let b = rng.below(n as u64) as u32;
        if a != b {
            t.add_link(
                NodeId(a),
                NodeId(b),
                SimDuration::from_micros(rng.range_u64(100, 10_000)),
                rng.range_f64(1e6, 1e9),
            );
        }
    }
    t
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// Dijkstra's distances satisfy the triangle inequality over any
    /// random connected topology, and every materialized path's latency
    /// equals its reported distance.
    #[test]
    fn routing_invariants(seed in any::<u64>(), n in 3usize..30, extra in 0usize..20) {
        let t = random_topology(seed, n, extra);
        prop_assert!(t.is_connected());
        let rt = RouteTable::build(&t);
        let mut rng = Rng::new(seed ^ 1);
        for _ in 0..10 {
            let a = NodeId(rng.below(n as u64) as u32);
            let b = NodeId(rng.below(n as u64) as u32);
            let c = NodeId(rng.below(n as u64) as u32);
            let dab = rt.distance(a, b).expect("connected");
            let dbc = rt.distance(b, c).expect("connected");
            let dac = rt.distance(a, c).expect("connected");
            prop_assert!(dac <= dab + dbc, "triangle violated");
            let p = rt.path(&t, a, b).expect("connected");
            prop_assert_eq!(p.latency, dab);
            // Path is contiguous a -> b.
            let mut cur = a;
            for &l in p.links.iter() {
                let link = t.link(l);
                prop_assert!(link.a == cur || link.b == cur);
                cur = if link.a == cur { link.b } else { link.a };
            }
            prop_assert_eq!(cur, b);
        }
    }

    /// ECMP paths are always shortest paths (same latency as canonical),
    /// regardless of the salt.
    #[test]
    fn ecmp_paths_are_shortest(seed in any::<u64>(), salt in any::<u64>()) {
        let t = random_topology(seed, 15, 10);
        let rt = RouteTable::build(&t);
        let mut rng = Rng::new(seed ^ 2);
        for _ in 0..10 {
            let a = NodeId(rng.below(15) as u32);
            let b = NodeId(rng.below(15) as u32);
            let canon = rt.path(&t, a, b).expect("connected");
            let ecmp = rt.path_ecmp(&t, a, b, salt).expect("connected");
            prop_assert_eq!(ecmp.latency, canon.latency);
        }
    }

    /// Max-min fairness conserves capacity (no link oversubscribed) and
    /// wastes none when a single bottleneck is shared (rates sum to its
    /// capacity when all flows cross it).
    #[test]
    fn flow_conservation(seed in any::<u64>(), n_flows in 1usize..20, bytes in 1u64..1_000_000) {
        let built = continuum(&ContinuumSpec::default());
        let rt = RouteTable::build(&built.topology);
        let mut fnw = FlowNetwork::new(&built.topology);
        let mut rng = Rng::new(seed);
        for _ in 0..n_flows {
            let s = built.sensors[rng.index(built.sensors.len())];
            let c = built.clouds[rng.index(built.clouds.len())];
            let p = rt.path(&built.topology, s, c).expect("connected");
            fnw.start(SimTime::ZERO, &p, bytes);
        }
        for (load, cap) in fnw.link_loads().iter().zip(fnw.capacities()) {
            prop_assert!(load <= &(cap * (1.0 + 1e-6)), "oversubscribed: {load} > {cap}");
        }
        // Every active flow makes progress.
        prop_assert!(fnw.next_completion().is_some());
        let (t, _) = fnw.next_completion().expect("flows active");
        prop_assert!(t > SimTime::ZERO);
    }

    /// Cached routes equal fresh computations across random
    /// `fail_link`/`restore_link` sequences — the epoch-invalidation
    /// contract the chaos executor relies on. The cache sees the exact
    /// call pattern `simulate_stream` uses: `path_ecmp` under the flow
    /// salt while the fabric is whole, `shortest_path_avoiding` under a
    /// shared salt class while degraded, including pairs the failures
    /// disconnect (the executor's `stalled` path: both sides `None`).
    #[test]
    fn route_cache_matches_fresh_routes(
        seed in any::<u64>(),
        n in 4usize..20,
        flips in proptest::collection::vec((any::<u64>(), any::<u64>()), 1..30),
    ) {
        let t = random_topology(seed, n, n / 2);
        let rt = RouteTable::build(&t);
        let n_links = t.links().len();
        let mut dead = vec![false; n_links];
        let mut n_dead = 0usize;
        let mut cache = RouteCache::new();
        let mut rng = Rng::new(seed ^ 0xCAC4E);
        for (flip, _salt_seed) in flips {
            // Flip one link (fail if up, restore if down) and bump the
            // epoch — exactly what the executor does on fault events.
            let l = (flip % n_links as u64) as usize;
            dead[l] = !dead[l];
            n_dead = if dead[l] { n_dead + 1 } else { n_dead - 1 };
            cache.bump_epoch();
            // Between fault events, a burst of transfers resolves routes.
            for _ in 0..8 {
                let a = NodeId(rng.below(n as u64) as u32);
                let b = NodeId(rng.below(n as u64) as u32);
                let salt = rng.next_u64() | (1 << 63); // flow salts are nonzero
                let (cached, fresh) = if n_dead == 0 {
                    (
                        cache.route_with(a, b, salt, || rt.path_ecmp(&t, a, b, salt)),
                        rt.path_ecmp(&t, a, b, salt),
                    )
                } else {
                    (
                        cache.route_with(a, b, 0, || shortest_path_avoiding(&t, a, b, &dead)),
                        shortest_path_avoiding(&t, a, b, &dead),
                    )
                };
                match (cached, fresh) {
                    (Some(c), Some(f)) => {
                        prop_assert_eq!(c.links, f.links, "{a}->{b} dead={n_dead}");
                        prop_assert_eq!(c.latency, f.latency);
                        prop_assert_eq!(c.bottleneck_bps, f.bottleneck_bps);
                    }
                    // Disconnected pairs must agree too: serving a stale
                    // Some(path) here would teleport bytes over a dead
                    // link instead of stalling the transfer.
                    (None, None) => {}
                    (c, f) => prop_assert!(
                        false,
                        "cache/fresh disagree on reachability: {:?} vs {:?}",
                        c.is_some(),
                        f.is_some()
                    ),
                }
            }
        }
    }

    /// The dumbbell trunk is never oversubscribed and is fully used when
    /// enough flows cross it.
    #[test]
    fn dumbbell_trunk_saturates(pairs in 1usize..8) {
        let access = LinkSpec::new(SimDuration::from_millis(1), 1e9);
        let trunk = LinkSpec::new(SimDuration::from_millis(5), 1e6);
        let (t, left, right) = continuum_net::dumbbell(pairs, pairs, access, trunk);
        let rt = RouteTable::build(&t);
        let mut fnw = FlowNetwork::new(&t);
        for i in 0..pairs {
            let p = rt.path(&t, left[i], right[i]).expect("connected");
            fnw.start(SimTime::ZERO, &p, 1 << 20);
        }
        let loads = fnw.link_loads();
        // Trunk is link 0 by construction.
        prop_assert!((loads[0] - 1e6).abs() < 1.0, "trunk load {}", loads[0]);
    }
}

/// Cases for the flow-engine equivalence property;
/// `CONTINUUM_FLOW_CASES` pushes it harder.
fn flow_cases() -> u32 {
    std::env::var("CONTINUUM_FLOW_CASES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1000)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: flow_cases(), ..ProptestConfig::default() })]

    /// The incremental rate engine agrees with the from-scratch oracle
    /// (the seed's progressive-filling algorithm, kept as
    /// `FlowNetwork::oracle_rates`) after every mutation of a random
    /// start/remove/advance/link-flap sequence on a random topology, to
    /// 1e-9 relative error.
    #[test]
    fn incremental_rates_match_oracle(seed in any::<u64>(), n in 4usize..24, ops in 5usize..40) {
        let t = random_topology(seed, n, n / 2);
        let rt = RouteTable::build(&t);
        let n_links = t.links().len();
        let mut fnw = FlowNetwork::new(&t);
        let mut rng = Rng::new(seed ^ 0xF10);
        let mut live: Vec<continuum_net::FlowId> = Vec::new();
        let mut now = SimTime::ZERO;
        for _ in 0..ops {
            match rng.below(6) {
                // Start a new flow on a random shortest path (bias: a
                // third of the ops, so nets stay populated).
                0 | 1 => {
                    let a = NodeId(rng.below(n as u64) as u32);
                    let b = NodeId(rng.below(n as u64) as u32);
                    if a == b {
                        continue;
                    }
                    let p = rt.path(&t, a, b).expect("connected");
                    if !fnw.path_is_up(&p) {
                        continue; // a live caller would route around
                    }
                    if let Some(id) = fnw.start(now, &p, rng.range_u64(1_000, 10_000_000)) {
                        live.push(id);
                    }
                }
                // Cancel a random live flow.
                2 => {
                    if live.is_empty() {
                        continue;
                    }
                    let id = live.swap_remove(rng.index(live.len()));
                    fnw.remove(now, id);
                }
                // Fail a random link, aborting flows that cross it.
                3 => {
                    let l = continuum_net::LinkId(rng.below(n_links as u64) as u32);
                    for aborted in fnw.fail_link(now, l) {
                        prop_assert!(aborted.remaining >= 0.0 && aborted.transferred >= 0.0);
                        live.retain(|&x| x != aborted.id);
                    }
                }
                // Restore a random link (no-op if it is up).
                4 => {
                    let l = continuum_net::LinkId(rng.below(n_links as u64) as u32);
                    fnw.restore_link(now, l);
                }
                // Run the net to its next completion (flows stalled on a
                // dead link are excluded by next_completion).
                _ => {
                    if let Some((tc, id)) = fnw.next_completion() {
                        now = tc;
                        fnw.remove(now, id);
                        live.retain(|&l| l != id);
                    }
                }
            }
            // After every mutation the incremental rates must match a
            // from-scratch recomputation.
            let oracle = fnw.oracle_rates();
            prop_assert_eq!(oracle.len(), live.len());
            for (id, want) in oracle {
                let got = fnw.rate(id).expect("oracle flow is live");
                prop_assert!(
                    (got - want).abs() <= 1e-9 * want.abs().max(1.0),
                    "flow {:?}: incremental {} vs oracle {}",
                    id,
                    got,
                    want
                );
            }
        }
    }
}
