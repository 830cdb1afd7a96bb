//! The one executor driver: N >= 1 executor cores under the
//! [`ConservativeDriver`].
//!
//! Every runtime executor runs here. The closed loop ([`run_closed`])
//! drives a core set to completion; the open loop (`crate::open_loop`)
//! advances it up to each arrival. The single queue
//! ([`crate::simulate_stream_chaos`], [`crate::simulate_open_loop`]) is one
//! unpartitioned core that nothing can enter (lookahead `None`), so the
//! driver runs it to its cap in one window and it pumps exactly as a bare
//! core would.
//!
//! [`simulate_stream_sharded`] splits a workload across several
//! [`crate::simrun`] executor cores — one per shard — and advances them
//! across the rayon pool. Regions of a [`RegionPartition`] (fog subtrees of
//! a continuum, pods of a fat-tree) are dealt round-robin to shards, and
//! every task runs exactly where it was placed (no re-placement, hence no
//! infrastructure fault plane). A transfer whose route crosses a region
//! boundary is cut into per-region segments. Each segment streams in its
//! own region's max-min flow domain; the handoff between segments defers
//! the boundary link's propagation latency, so a stage entering another
//! shard's region is always stamped at least that latency in the future —
//! the conservative lookahead that lets the driver exchange stages as
//! [`Envelope`]s between windows without ever delivering into a shard's
//! past. A shard that no boundary link enters can never receive an
//! envelope, so its horizon is unbounded. Event keys derived from content
//! (not insertion order) make the result bit-identical across 1, 2, or N
//! shards and every pool size; see `crate::simrun`'s partition machinery.
//!
//! This is the sharding the continuum's sensor→fog→cloud pipelines need:
//! every request spans fog and cloud, so grouping whole requests into
//! region-disjoint shards would collapse to one shard. Pinned execution
//! runs a different transfer model from the single queue (per-region flow
//! domains joined by store-and-forward handoffs instead of one global
//! max-min network), so its reference is the one-shard run, not the single
//! queue.

use crate::simrun::{
    assemble, ExecCore, FaultPlane, FaultSpec, ShardLayout, SimOutcome, StreamRequest, TransferMsg,
};
use continuum_net::RegionPartition;
use continuum_obs::{MetricsRegistry, Telemetry};
use continuum_placement::Env;
use continuum_sim::{ConservativeDriver, Envelope, ShardModel, SimDuration, SimTime, WindowStats};

/// Knobs for [`simulate_stream_sharded`]. How many shards run at once is
/// the rayon pool's business; a 1-thread pool runs them serially.
#[derive(Debug, Clone, Copy)]
pub struct ShardOpts {
    /// Upper bound on the number of shards; `usize::MAX` keeps one shard
    /// per region.
    pub max_shards: usize,
}

impl ShardOpts {
    /// Pinned execution with at most `n` shards.
    pub fn pinned(n: usize) -> Self {
        ShardOpts {
            max_shards: n.max(1),
        }
    }
}

/// A pinned deal: the partition whose regions are dealt round-robin, and
/// the bound on the shard count. `None` in its place runs the single queue.
pub(crate) type Pinned<'a> = Option<(&'a RegionPartition, usize)>;

/// The regions a request touches: those of its placement's devices plus
/// those of its external data items' home nodes. Sorted and deduplicated.
fn regions_of_request(env: &Env, r: &StreamRequest, partition: &RegionPartition) -> Vec<usize> {
    let mut regs: Vec<usize> = r
        .placement
        .assignment
        .iter()
        .map(|&d| partition.region_of(env.node_of(d)))
        .collect();
    for item in r.dag.data_items() {
        if let Some(home) = item.home {
            regs.push(partition.region_of(home));
        }
    }
    regs.sort_unstable();
    regs.dedup();
    regs
}

/// One executor core as a [`ShardModel`]: delivers inbound transfer stages
/// into the core's keyed calendar, pumps the window, and wraps the core's
/// outbox — stages bound for regions other shards own — into envelopes
/// addressed by region ownership. An unpartitioned core's outbox is always
/// empty.
pub(crate) struct CoreShard<'a> {
    pub(crate) core: ExecCore<'a>,
    /// Region index -> owning shard index (empty when unpartitioned).
    shard_of_region: Vec<u32>,
    me: u32,
    /// Sender-local envelope sequence (a formality here: the receiver
    /// re-keys every stage by content, so delivery order is immaterial).
    seq: u64,
}

impl ShardModel for CoreShard<'_> {
    type Msg = TransferMsg;

    fn next_event_time(&mut self) -> Option<SimTime> {
        self.core.next_event_time()
    }

    fn advance(
        &mut self,
        horizon: Option<SimTime>,
        inbox: Vec<Envelope<TransferMsg>>,
    ) -> Vec<Envelope<TransferMsg>> {
        for e in inbox {
            self.core.receive_part(e.at, e.msg);
        }
        self.core.pump(horizon);
        self.core
            .take_outbox()
            .into_iter()
            .map(|(at, region, msg)| {
                self.seq += 1;
                Envelope {
                    at,
                    from: self.me,
                    seq: self.seq,
                    to: self.shard_of_region[region as usize],
                    msg,
                }
            })
            .collect()
    }
}

/// The core set of one run, each shard's incoming lookahead, and the
/// per-shard request groups of a pinned deal (for telemetry).
///
/// Unpinned, this is the single queue: one unpartitioned core over every
/// request (and the infrastructure fault plane, if any) that nothing can
/// enter. Pinned, `partition`'s regions are dealt round-robin
/// (`region % n`) over at most `max_shards` partitioned cores, and each
/// request is registered on every shard owning a region it touches (its
/// *participants*). The open loop builds its streaming cores from an empty
/// request list.
#[allow(clippy::type_complexity)]
pub(crate) fn build_cores<'a>(
    env: &'a Env,
    requests: &'a [StreamRequest],
    faults: Option<&'a FaultSpec>,
    plane: Option<&'a FaultPlane>,
    pinned: Pinned<'a>,
    collect: bool,
    trace_on: bool,
) -> (
    Vec<CoreShard<'a>>,
    Vec<Option<SimDuration>>,
    Vec<Vec<usize>>,
) {
    let Some((partition, max_shards)) = pinned else {
        let refs = requests.iter().collect();
        let gids = (0..requests.len()).collect();
        let core = ExecCore::new(env, refs, gids, faults, plane, collect, trace_on);
        let shard = CoreShard {
            core,
            shard_of_region: Vec::new(),
            me: 0,
            seq: 0,
        };
        return (vec![shard], vec![None], Vec::new());
    };
    let nr = partition.len();
    let n = max_shards.clamp(1, nr);
    let shard_of_region: Vec<u32> = (0..nr).map(|r| (r % n) as u32).collect();
    let mut groups: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (gid, r) in requests.iter().enumerate() {
        for p in pinned_participants(env, r, partition, n) {
            groups[p].push(gid);
        }
    }
    let shards = (0..n)
        .map(|i| {
            let refs: Vec<&StreamRequest> = groups[i].iter().map(|&gid| &requests[gid]).collect();
            let mut core = ExecCore::new(
                env,
                refs,
                groups[i].clone(),
                faults,
                plane,
                collect,
                trace_on,
            );
            let owned: Vec<bool> = (0..nr).map(|r| shard_of_region[r] == i as u32).collect();
            core.enable_partition(partition, owned);
            CoreShard {
                core,
                shard_of_region: shard_of_region.clone(),
                me: i as u32,
                seq: 0,
            }
        })
        .collect();
    // Shard `s` may run `min latency over boundary links into its owned
    // regions` past the global horizon, or without bound (`None`) when no
    // boundary link enters it — a lone shard owns every region.
    let la = (0..n)
        .map(|i| {
            let owned: Vec<bool> = (0..nr).map(|r| r % n == i).collect();
            partition.incoming_lookahead(&env.topology, &owned)
        })
        .collect();
    (shards, la, groups)
}

/// The shards participating in `r` under a round-robin deal of
/// `partition`'s regions over `n` shards: owners of the regions the
/// request touches (core region's owner for an empty region set).
/// Sorted, deduplicated.
pub(crate) fn pinned_participants(
    env: &Env,
    r: &StreamRequest,
    partition: &RegionPartition,
    n: usize,
) -> Vec<usize> {
    let regs = regions_of_request(env, r, partition);
    let mut parts: Vec<usize> = if regs.is_empty() {
        vec![partition.core_region() % n]
    } else {
        regs.iter().map(|&rg| rg % n).collect()
    };
    parts.sort_unstable();
    parts.dedup();
    parts
}

/// Satellite telemetry of a pinned run, closed or open loop alike, at
/// every shard count: `events[s]` is core `s`'s
/// [`ExecCore::scheduled_events`], read as per-shard load (`shard.events`,
/// `shard.largest_fraction` and the `shard.util.*` view of the same
/// counts), and `wstats` gives window and envelope traffic.
/// `shard.plan_largest_fraction` is not published here: it needs the
/// closed loop's request groups, so only [`run_closed`] publishes it.
pub(crate) fn publish_shard_metrics(tele: &Telemetry, events: &[u64], wstats: &WindowStats) {
    let reg = MetricsRegistry::new();
    reg.inc("shard.runs", 1);
    reg.record("shard.count", events.len() as u64);
    let total_events: u64 = events.iter().sum();
    for (i, &e) in events.iter().enumerate() {
        reg.inc_labeled("shard.events", i as u32, e);
    }
    if total_events > 0 {
        let largest = events.iter().copied().max().unwrap_or(0);
        reg.set_gauge(
            "shard.largest_fraction",
            largest as f64 / total_events as f64,
        );
        // Utilization view of the same counts: mean events per shard and
        // imbalance = max/mean (1.0 = perfectly level). The health plane
        // and CI smoke key off `shard.util.*`.
        let mean = total_events as f64 / events.len() as f64;
        reg.set_gauge("shard.util.mean_events", mean);
        reg.set_gauge("shard.util.imbalance", largest as f64 / mean);
    }
    reg.record("shard.windows", wstats.windows);
    reg.record("shard.messages", wstats.messages);
    for (i, &m) in wstats.per_shard_messages.iter().enumerate() {
        reg.inc_labeled("shard.messages_to", i as u32, m);
    }
    tele.metrics.absorb(&reg.snapshot());
}

/// The closed loop of every executor: build the core set, drive it to
/// completion, and merge the cores into one outcome. A pinned run also
/// publishes `shard.*` telemetry and lays its Perfetto trace out one
/// process per shard; the single queue does neither.
pub(crate) fn run_closed(
    env: &Env,
    requests: &[StreamRequest],
    faults: Option<&FaultSpec>,
    plane: Option<&FaultPlane>,
    pinned: Pinned<'_>,
) -> SimOutcome {
    // Resolve the ambient telemetry sink ONCE per run; the event loops
    // never touch thread-local state. With no sink installed the only
    // telemetry cost left in a core is plain counter adds.
    let tele = continuum_obs::ambient();
    let collect = tele.is_some();
    let trace_on = tele.as_deref().is_some_and(Telemetry::trace_enabled);
    let (shards, la, groups) = build_cores(env, requests, faults, plane, pinned, collect, trace_on);
    let mut driver = ConservativeDriver::new(shards, la);
    driver.run();
    let (shards, wstats) = driver.into_parts();
    let mut layout = None;
    if let Some((partition, _)) = pinned {
        if let Some(t) = &tele {
            let events: Vec<u64> = shards.iter().map(|s| s.core.scheduled_events()).collect();
            publish_shard_metrics(t, &events, &wstats);
            // The plan's shape: the largest request group's share.
            let assigned: usize = groups.iter().map(Vec::len).sum();
            if assigned > 0 {
                let largest = groups.iter().map(Vec::len).max().unwrap_or(0);
                t.metrics.set_gauge(
                    "shard.plan_largest_fraction",
                    largest as f64 / assigned as f64,
                );
            }
        }
        layout =
            trace_on.then(|| ShardLayout::new(env, partition, shards[0].shard_of_region.clone()));
    }
    assemble(
        env,
        requests,
        plane,
        layout.as_ref(),
        shards.into_iter().map(|s| s.core.finish()).collect(),
    )
}

/// Pinned sharded execution: up to `opts.max_shards` executor cores,
/// one per round-robin deal of `partition`'s regions, advanced across the
/// current rayon pool with boundary transfers carried between cores as
/// conservative envelopes. The outcome — every trace record and f64
/// metric — is bit-identical for every shard count and pool size.
///
/// Per-attempt [`FaultSpec`] retries work (a retry reruns on the same
/// device); the infrastructure fault plane does not, because orphan
/// re-placement would migrate tasks across shards — run such workloads
/// through [`crate::simulate_stream_chaos`].
///
/// # Panics
/// If `partition` does not cover `env`'s topology (see
/// [`RegionPartition::new`]), or on any condition the single-queue
/// executor panics on (invalid `FaultSpec`, deadlocked DAG, ...).
pub fn simulate_stream_sharded(
    env: &Env,
    requests: &[StreamRequest],
    faults: Option<&FaultSpec>,
    partition: &RegionPartition,
    opts: &ShardOpts,
) -> SimOutcome {
    run_closed(
        env,
        requests,
        faults,
        None,
        Some((partition, opts.max_shards)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use continuum_model::{standard_fleet, DeviceClass, DeviceId, Fleet};
    use continuum_net::{continuum, continuum_regions, ContinuumSpec, NodeId, Tier, Topology};
    use continuum_placement::Placement;
    use continuum_sim::{Rng, SimTime};
    use continuum_workflow::{layered_random, LayeredSpec};

    /// Run `f` on a `threads`-wide rayon pool.
    fn with_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
        rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("rayon pool")
            .install(f)
    }

    fn pinned(
        env: &Env,
        requests: &[StreamRequest],
        faults: Option<&FaultSpec>,
        partition: &RegionPartition,
        n: usize,
    ) -> SimOutcome {
        simulate_stream_sharded(env, requests, faults, partition, &ShardOpts::pinned(n))
    }

    fn build_world() -> (Env, ContinuumSpec, Vec<Vec<NodeId>>) {
        let spec = ContinuumSpec {
            fogs: 3,
            edges_per_fog: 2,
            sensors_per_edge: 2,
            clouds: 2,
            hpcs: 1,
            ..ContinuumSpec::default()
        };
        let built = continuum(&spec);
        let fleet = standard_fleet(&built);
        let env = Env::new(built.topology.clone(), fleet);
        let regions = continuum_regions(&spec);
        (env, spec, regions)
    }

    /// A request whose external inputs, tasks, and devices all live on
    /// `nodes` (round-robin over their devices).
    fn region_request(
        env: &Env,
        nodes: &[NodeId],
        source: NodeId,
        seed: u64,
        arrival: SimTime,
    ) -> StreamRequest {
        let mut rng = Rng::new(seed);
        let dag = layered_random(
            &mut rng,
            &LayeredSpec {
                tasks: 12,
                source,
                ..LayeredSpec::default()
            },
        );
        let devs: Vec<DeviceId> = nodes
            .iter()
            .flat_map(|&n| env.fleet.at_node(n).iter().copied())
            .collect();
        assert!(!devs.is_empty());
        let assignment = (0..dag.len()).map(|i| devs[i % devs.len()]).collect();
        StreamRequest {
            dag,
            placement: Placement { assignment },
            arrival,
        }
    }

    /// One request per fog subtree, each kept to its region, plus one
    /// spanning request over fogs 0 and 1 and the backbone.
    fn workload(env: &Env, regions: &[Vec<NodeId>]) -> Vec<StreamRequest> {
        let mut reqs = Vec::new();
        for (f, nodes) in regions[1..].iter().enumerate() {
            // Last node of a fog region is one of its sensors.
            let source = *nodes.last().expect("non-empty region");
            reqs.push(region_request(
                env,
                nodes,
                source,
                41 * (f as u64 + 1),
                SimTime::from_millis(13 * f as u64),
            ));
        }
        let mut nodes = regions[1].clone();
        nodes.extend(&regions[2]);
        nodes.extend(&regions[0]);
        let source = *regions[1].last().expect("non-empty region");
        reqs.push(region_request(
            env,
            &nodes,
            source,
            777,
            SimTime::from_millis(5),
        ));
        reqs
    }

    /// One request per fog, each spanning its fog region *and* the
    /// backbone — the continuum shape where every request crosses a shard
    /// boundary.
    fn spanning_workload(env: &Env, regions: &[Vec<NodeId>]) -> Vec<StreamRequest> {
        regions[1..]
            .iter()
            .enumerate()
            .map(|(f, fog)| {
                let mut nodes = fog.clone();
                nodes.extend(&regions[0]);
                let source = *fog.last().expect("non-empty region");
                region_request(
                    env,
                    &nodes,
                    source,
                    97 * (f as u64 + 1),
                    SimTime::from_millis(7 * f as u64),
                )
            })
            .collect()
    }

    #[test]
    fn pinned_matches_one_shard_bit_for_bit() {
        let (env, _, regions) = build_world();
        let partition = RegionPartition::new(&env.topology, regions.clone(), 0);
        let requests = spanning_workload(&env, &regions);
        let reference = pinned(&env, &requests, None, &partition, 1);
        for (i, &fin) in reference.trace.request_finish.iter().enumerate() {
            assert!(fin > requests[i].arrival, "request {i} never finished");
        }
        for n in [2, 3, 4] {
            for threads in [1, 3] {
                let got = with_threads(threads, || pinned(&env, &requests, None, &partition, n));
                assert_eq!(got, reference, "pinned n={n} threads={threads} diverged");
            }
        }
    }

    #[test]
    fn pinned_matches_one_shard_with_retries() {
        let (env, _, regions) = build_world();
        let partition = RegionPartition::new(&env.topology, regions.clone(), 0);
        let requests = spanning_workload(&env, &regions);
        let fs = FaultSpec {
            fail_prob: 0.2,
            max_attempts: 10,
            retry_delay: continuum_sim::SimDuration::from_millis(50),
            seed: 7,
        };
        let reference = pinned(&env, &requests, Some(&fs), &partition, 1);
        assert!(reference.trace.failed_attempts > 0, "want retries in play");
        for n in [2, 4] {
            let got = pinned(&env, &requests, Some(&fs), &partition, n);
            assert_eq!(got, reference, "pinned n={n} with retries diverged");
        }
    }

    #[test]
    fn pinned_mixed_workload_matches_one_shard() {
        // Region-local *and* spanning requests together: pinned mode must
        // handle participants that own every region of a request as well
        // as proper cross-shard splits.
        let (env, _, regions) = build_world();
        let partition = RegionPartition::new(&env.topology, regions.clone(), 0);
        let mut requests = workload(&env, &regions);
        requests.extend(spanning_workload(&env, &regions));
        let reference = pinned(&env, &requests, None, &partition, 1);
        for n in [2, 4] {
            let got = pinned(&env, &requests, None, &partition, n);
            assert_eq!(got, reference, "pinned n={n} mixed workload diverged");
        }
    }

    #[test]
    fn pinned_empty_request_list_runs() {
        let (env, _, regions) = build_world();
        let partition = RegionPartition::new(&env.topology, regions, 0);
        let a = pinned(&env, &[], None, &partition, 1);
        let b = pinned(&env, &[], None, &partition, 4);
        assert_eq!(a, b);
        assert_eq!(a.trace.request_finish.len(), 0);
    }

    #[test]
    fn pinned_shards_a_disconnected_fabric() {
        // Two nodes and no links: no boundary link enters either shard,
        // so neither has a finite lookahead and each runs unbounded.
        let mut topo = Topology::new();
        let a = topo.add_node("a", Tier::Edge);
        let b = topo.add_node("b", Tier::Edge);
        let mut fleet = Fleet::new();
        fleet.add_class(a, DeviceClass::EdgeGateway);
        fleet.add_class(b, DeviceClass::EdgeGateway);
        let env = Env::new(topo, fleet);
        let partition = RegionPartition::new(&env.topology, vec![vec![a], vec![b]], 0);
        let local = vec![
            region_request(&env, &[a], a, 3, SimTime::ZERO),
            region_request(&env, &[b], b, 5, SimTime::from_millis(2)),
        ];
        for requests in [Vec::new(), local] {
            let reference = pinned(&env, &requests, None, &partition, 1);
            for &fin in &reference.trace.request_finish {
                assert!(fin > SimTime::ZERO, "request never finished");
            }
            let got = pinned(&env, &requests, None, &partition, 2);
            assert_eq!(got, reference, "{} requests diverged", requests.len());
        }
    }
}
