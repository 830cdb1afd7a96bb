//! Region-sharded stream execution.
//!
//! [`simulate_stream_sharded`] splits a workload across several
//! [`crate::simrun`] executor cores — one per shard — and runs them
//! across the rayon pool. The result is **bit
//! identical** to [`crate::simulate_stream_chaos`] on the same inputs,
//! because sharding here is *request-confined*: requests are grouped so
//! that no two shards ever touch the same device or link, which makes the
//! per-shard max-min bandwidth decomposition exact rather than
//! approximate.
//!
//! The grouping ([`plan_shards`]) works on a [`RegionPartition`] of the
//! topology (pods of a fat-tree, fog subtrees of a continuum):
//!
//! 1. every request gets the set of regions its placement and external
//!    data homes touch;
//! 2. regions that co-occur in any request are merged (union-find), and a
//!    request spanning ≥ 2 regions also pulls in the partition's core
//!    region, since its transfers route through the backbone;
//! 3. each resulting component becomes a shard (components beyond
//!    `max_shards` are folded round-robin into the existing bins).
//!
//! Components share no regions, regions share no links, and cross-region
//! routes only traverse the two endpoints' regions plus the core — so
//! two requests in different components can never contend for bandwidth
//! or cores, and per-shard simulation loses nothing.
//!
//! Under a fault plane, orphan re-placement is masked to the shard's own
//! devices so repairs cannot leak across the partition (see
//! [`ShardOpts`]).
//!
//! # Pinned mode: when the workload refuses to decompose
//!
//! Request confinement collapses to one shard on exactly the workloads
//! the continuum keynote cares about — sensor-to-cloud pipelines where
//! *every* request spans fog and cloud, so every region co-occurs with
//! the backbone and the union-find produces a single component.
//! [`ShardMode::Pinned`] shards those workloads anyway: regions are
//! dealt round-robin to shards, every task runs exactly where it was
//! placed (no re-placement, hence no fault plane), and a transfer whose
//! route crosses a region boundary is cut into per-region segments. Each
//! segment streams in its own region's max-min flow domain; the handoff
//! between segments defers the boundary link's propagation latency, so a
//! stage entering another shard's region is always stamped at least that
//! latency in the future — the conservative lookahead that lets
//! [`ConservativeDriver`] exchange stages as [`Envelope`]s between
//! windows without ever delivering into a shard's past. Event keys
//! derived from content (not insertion order) make the result
//! bit-identical across 1, 2, or N shards and every pool size; see
//! `crate::simrun`'s partition machinery.

use crate::simrun::{
    assemble, ExecCore, FaultPlane, FaultSpec, ShardLayout, SimOutcome, StreamRequest, TransferMsg,
};
use continuum_net::RegionPartition;
use continuum_obs::{MetricsRegistry, Telemetry};
use continuum_placement::Env;
use continuum_sim::{
    ConservativeDriver, Envelope, Lookahead, ShardModel, SimDuration, SimTime, WindowStats,
};
use rayon::prelude::*;

/// How requests are split across shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShardMode {
    /// Group whole requests so shards share no regions (the union-find
    /// plan): exact, supports the full fault stack, but collapses to one
    /// shard when requests span regions.
    #[default]
    Confined,
    /// Pin every task to the shard owning its placed device and carry
    /// boundary-crossing transfers between shards as conservative
    /// envelopes. Shards continuum workloads where every request spans
    /// fog and cloud. Rejects the infrastructure fault plane
    /// (re-placement would migrate tasks across shards); per-attempt
    /// [`FaultSpec`] retries work — a retry reruns on the same device.
    Pinned,
}

/// Knobs for [`simulate_stream_sharded`]. How many shards run at once is
/// the rayon pool's business; a 1-thread pool runs them serially.
#[derive(Debug, Clone, Copy)]
pub struct ShardOpts {
    /// Upper bound on the number of shards. Components beyond this are
    /// folded together round-robin; `usize::MAX` keeps one shard per
    /// component (confined) or one shard per region (pinned).
    pub max_shards: usize,
    /// Request confinement (default) or task pinning.
    pub mode: ShardMode,
}

impl Default for ShardOpts {
    fn default() -> Self {
        ShardOpts {
            max_shards: usize::MAX,
            mode: ShardMode::Confined,
        }
    }
}

impl ShardOpts {
    /// Request-confined execution with at most `n` shards.
    pub fn with_max_shards(n: usize) -> Self {
        ShardOpts {
            max_shards: n.max(1),
            ..ShardOpts::default()
        }
    }

    /// Pinned-mode execution with at most `n` shards.
    pub fn pinned(n: usize) -> Self {
        ShardOpts {
            max_shards: n.max(1),
            mode: ShardMode::Pinned,
        }
    }
}

/// Output of [`plan_shards`]: which requests and regions each shard owns.
#[derive(Debug, Clone)]
pub struct ShardPlan {
    /// Per shard, the global indices of the requests it simulates, in
    /// ascending order. Every request appears in exactly one shard.
    pub groups: Vec<Vec<usize>>,
    /// Per shard, the region indices it owns, in ascending order.
    /// Disjoint across shards.
    pub region_sets: Vec<Vec<usize>>,
}

/// Minimal union-find over region indices.
struct Uf(Vec<usize>);

impl Uf {
    fn new(n: usize) -> Self {
        Uf((0..n).collect())
    }
    fn find(&mut self, x: usize) -> usize {
        let mut r = x;
        while self.0[r] != r {
            r = self.0[r];
        }
        let mut c = x;
        while self.0[c] != c {
            let next = self.0[c];
            self.0[c] = r;
            c = next;
        }
        r
    }
    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        // Root at the smaller index so components are named
        // deterministically.
        let (lo, hi) = (ra.min(rb), ra.max(rb));
        self.0[hi] = lo;
    }
}

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

/// Group requests into shards that share no regions (see module docs for
/// the algorithm). Deterministic: component order follows the first
/// request (by global index) that touches each component, and the
/// round-robin fold beyond `max_shards` depends only on that order.
pub fn plan_shards(
    env: &Env,
    requests: &[StreamRequest],
    partition: &RegionPartition,
    max_shards: usize,
) -> ShardPlan {
    let max_shards = max_shards.max(1);
    let nr = partition.len();
    let core = partition.core_region();
    let mut uf = Uf::new(nr);
    let per_req: Vec<Vec<usize>> = requests
        .iter()
        .map(|r| regions_of_request(env, r, partition))
        .collect();
    for regs in &per_req {
        for w in regs.windows(2) {
            uf.union(w[0], w[1]);
        }
        // A spanning request's transfers route through the backbone.
        if regs.len() >= 2 {
            uf.union(regs[0], core);
        }
    }
    // Components in order of the first request that touches them; a
    // request with no placement (empty DAG) rides with the core region.
    let mut bin_of_root: Vec<Option<usize>> = vec![None; nr];
    let mut groups: Vec<Vec<usize>> = Vec::new();
    let mut roots: Vec<Vec<usize>> = Vec::new(); // component roots per bin
    let mut n_comps = 0usize;
    for (gid, regs) in per_req.iter().enumerate() {
        let root = uf.find(regs.first().copied().unwrap_or(core));
        let bin = *bin_of_root[root].get_or_insert_with(|| {
            let b = n_comps % max_shards;
            n_comps += 1;
            if b == groups.len() {
                groups.push(Vec::new());
                roots.push(Vec::new());
            }
            roots[b].push(root);
            b
        });
        groups[bin].push(gid);
    }
    // A shard owns every region of its components (touched or not —
    // untouched regions of a component belong to no other shard, so
    // claiming them is safe and keeps masks simple).
    let region_sets: Vec<Vec<usize>> = roots
        .iter()
        .map(|rs| (0..nr).filter(|&r| rs.contains(&uf.find(r))).collect())
        .collect();
    ShardPlan {
        groups,
        region_sets,
    }
}

/// [`ShardModel`] adapter for pinned execution: delivers inbound transfer
/// stages into the core's keyed calendar, pumps the window, and wraps the
/// core's outbox — stages bound for regions other shards own — into
/// envelopes addressed by region ownership.
pub(crate) struct PinShard<'a> {
    pub(crate) core: ExecCore<'a>,
    /// Region index -> owning shard index.
    shard_of_region: Vec<u32>,
    me: u32,
    /// Sender-local envelope sequence (a formality here: the receiver
    /// re-keys every stage by content, so delivery order is immaterial).
    seq: u64,
}

impl ShardModel for PinShard<'_> {
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

/// Build one pinned-mode executor core per shard: regions are dealt
/// round-robin (`region % n`), each request is registered on every shard
/// owning a region it touches (its *participants*), and each core is
/// switched to partitioned execution over its owned regions. Returns the
/// shards plus the per-shard participant groups (for telemetry). The
/// open-loop driver builds its streaming cores from an empty request list.
pub(crate) fn build_pinned_shards<'a>(
    env: &'a Env,
    requests: &'a [StreamRequest],
    faults: Option<&'a FaultSpec>,
    partition: &'a RegionPartition,
    max_shards: usize,
    collect: bool,
    trace_on: bool,
) -> (Vec<PinShard<'a>>, Vec<Vec<usize>>) {
    let nr = partition.len();
    let n = max_shards.clamp(1, nr);
    let shard_of_region: Vec<u32> = (0..nr).map(|r| (r % n) as u32).collect();
    let mut groups: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (gid, r) in requests.iter().enumerate() {
        let regs = regions_of_request(env, r, partition);
        let mut parts: Vec<u32> = if regs.is_empty() {
            vec![shard_of_region[partition.core_region()]]
        } else {
            regs.iter().map(|&rg| shard_of_region[rg]).collect()
        };
        parts.sort_unstable();
        parts.dedup();
        for p in parts {
            groups[p as usize].push(gid);
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
                None,
                None,
                collect,
                trace_on,
            );
            let owned: Vec<bool> = (0..nr).map(|r| shard_of_region[r] == i as u32).collect();
            core.enable_partition(partition, owned);
            PinShard {
                core,
                shard_of_region: shard_of_region.clone(),
                me: i as u32,
                seq: 0,
            }
        })
        .collect();
    (shards, groups)
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

/// Per-shard incoming lookaheads for a pinned round-robin deal: shard
/// `s` may run `min latency over boundary links adjacent to its owned
/// regions` past the global horizon.
pub(crate) fn pinned_lookaheads(
    env: &Env,
    partition: &RegionPartition,
    n: usize,
) -> Vec<SimDuration> {
    let nr = partition.len();
    (0..n)
        .map(|i| {
            let owned: Vec<bool> = (0..nr).map(|r| r % n == i).collect();
            partition
                .incoming_lookahead(&env.topology, &owned)
                .expect("a multi-shard partition has boundary links")
        })
        .collect()
}

/// Satellite telemetry for a sharded run: plan shape, per-shard event
/// counts, and (for more than one shard) window and message traffic.
fn publish_shard_metrics(
    tele: &Telemetry,
    groups: &[Vec<usize>],
    events: &[u64],
    wstats: Option<&WindowStats>,
) {
    let reg = MetricsRegistry::new();
    reg.inc("shard.runs", 1);
    reg.record("shard.count", groups.len() as u64);
    let assigned: usize = groups.iter().map(Vec::len).sum();
    if assigned > 0 {
        let largest = groups.iter().map(Vec::len).max().unwrap_or(0);
        reg.set_gauge(
            "shard.plan_largest_fraction",
            largest as f64 / assigned as f64,
        );
    }
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
    if let Some(w) = wstats {
        reg.record("shard.windows", w.windows);
        reg.inc("shard.messages", w.messages);
        for (i, &m) in w.per_shard_messages.iter().enumerate() {
            reg.inc_labeled("shard.messages_to", i as u32, m);
        }
    }
    tele.metrics.absorb(&reg.snapshot());
}

/// Sharded [`crate::simulate_stream_chaos`]: same contract, same result
/// — bit-identical trace and metrics — computed by up to
/// `opts.max_shards` executor cores over a region partition of the
/// topology, advanced across the current rayon pool.
///
/// # Panics
/// If `partition` does not cover `env`'s topology (see
/// [`RegionPartition::new`]), or on any condition the single-queue
/// executor panics on (invalid `FaultSpec`, deadlocked DAG, ...).
pub fn simulate_stream_sharded(
    env: &Env,
    requests: &[StreamRequest],
    faults: Option<&FaultSpec>,
    plane: Option<&FaultPlane>,
    partition: &RegionPartition,
    opts: &ShardOpts,
) -> SimOutcome {
    match opts.mode {
        ShardMode::Confined => {
            simulate_confined(env, requests, faults, plane, partition, opts.max_shards)
        }
        ShardMode::Pinned => {
            assert!(
                plane.is_none(),
                "pinned mode rejects the infrastructure fault plane: orphan \
                 re-placement would migrate tasks across shards"
            );
            simulate_pinned(env, requests, faults, partition, opts.max_shards)
        }
    }
}

/// Request-confined execution: the union-find plan, one core per
/// component.
fn simulate_confined(
    env: &Env,
    requests: &[StreamRequest],
    faults: Option<&FaultSpec>,
    plane: Option<&FaultPlane>,
    partition: &RegionPartition,
    max_shards: usize,
) -> SimOutcome {
    let tele = continuum_obs::ambient();
    let collect = tele.is_some();
    let trace_on = tele.as_deref().is_some_and(Telemetry::trace_enabled);
    let mut plan = plan_shards(env, requests, partition, max_shards);
    if plan.groups.is_empty() {
        // No requests: one empty core still runs the fault schedule so
        // the outcome's fault counters match the single-queue executor.
        plan.groups.push(Vec::new());
        plan.region_sets.push((0..partition.len()).collect());
    }
    let sharded = plan.groups.len() > 1;
    let mut cores: Vec<ExecCore> = plan
        .groups
        .iter()
        .zip(&plan.region_sets)
        .map(|(group, regions)| {
            let refs: Vec<&StreamRequest> = group.iter().map(|&gid| &requests[gid]).collect();
            // Mask orphan re-placement to the shard's own devices, but
            // only when there is more than one shard — a lone core may
            // use the whole fleet, exactly like the single-queue path.
            let mask = (sharded && plane.is_some()).then(|| {
                (0..env.fleet.len())
                    .map(|d| {
                        let node = env.node_of(continuum_model::DeviceId(d as u32));
                        regions.binary_search(&partition.region_of(node)).is_ok()
                    })
                    .collect::<Vec<bool>>()
            });
            ExecCore::new(
                env,
                refs,
                group.clone(),
                faults,
                plane,
                mask,
                collect,
                trace_on,
            )
        })
        .collect();
    // Request-confined shards exchange no messages, so each runs straight
    // to completion in one window.
    let wstats = sharded.then(|| WindowStats {
        windows: u64::from(cores.iter_mut().any(|c| c.next_event_time().is_some())),
        messages: 0,
        per_shard_messages: vec![0; cores.len()],
    });
    let cores: Vec<ExecCore> = cores
        .into_par_iter()
        .map(|mut c| {
            c.pump(None);
            c
        })
        .collect();
    if let Some(t) = &tele {
        let events: Vec<u64> = cores.iter().map(ExecCore::scheduled_events).collect();
        publish_shard_metrics(t, &plan.groups, &events, wstats.as_ref());
    }
    let layout = trace_on.then(|| {
        // Regions of untouched components default to shard 0; no device
        // slice ever references them.
        let mut shard_of_region: Vec<u32> = vec![0; partition.len()];
        for (s, regions) in plan.region_sets.iter().enumerate() {
            for &r in regions {
                shard_of_region[r] = s as u32;
            }
        }
        ShardLayout::new(env, partition, shard_of_region)
    });
    assemble(
        env,
        requests,
        plane,
        layout.as_ref(),
        cores.into_iter().map(ExecCore::finish).collect(),
    )
}

/// Pinned execution: one core per round-robin region deal, boundary
/// transfers carried between cores as conservative envelopes.
fn simulate_pinned(
    env: &Env,
    requests: &[StreamRequest],
    faults: Option<&FaultSpec>,
    partition: &RegionPartition,
    max_shards: usize,
) -> SimOutcome {
    let tele = continuum_obs::ambient();
    let collect = tele.is_some();
    let trace_on = tele.as_deref().is_some_and(Telemetry::trace_enabled);
    let (mut shards, groups) = build_pinned_shards(
        env, requests, faults, partition, max_shards, collect, trace_on,
    );
    let (shards, wstats) = if shards.len() == 1 {
        // The lone shard owns every region, so no transfer ever leaves
        // it: skip the window machinery (same fast path as confined).
        shards[0].core.pump(None);
        (shards, None)
    } else {
        let la = Lookahead::PerShard(pinned_lookaheads(env, partition, shards.len()));
        let mut driver = ConservativeDriver::new(shards, la);
        driver.run();
        let (shards, w) = driver.into_parts();
        (shards, Some(w))
    };
    if let Some(t) = &tele {
        let events: Vec<u64> = shards.iter().map(|s| s.core.scheduled_events()).collect();
        publish_shard_metrics(t, &groups, &events, wstats.as_ref());
    }
    let layout = trace_on.then(|| {
        let n = shards.len();
        let shard_of_region: Vec<u32> = (0..partition.len()).map(|r| (r % n) as u32).collect();
        ShardLayout::new(env, partition, shard_of_region)
    });
    assemble(
        env,
        requests,
        None,
        layout.as_ref(),
        shards.into_iter().map(|s| s.core.finish()).collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simrun::simulate_stream_chaos;
    use continuum_model::{standard_fleet, DeviceId};
    use continuum_net::{continuum, continuum_regions, ContinuumSpec, NodeId};
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
        simulate_stream_sharded(
            env,
            requests,
            faults,
            None,
            partition,
            &ShardOpts::pinned(n),
        )
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
    /// the nodes of one region (round-robin over the region's devices).
    fn confined_request(
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

    /// One request per fog subtree, each confined to its region, plus
    /// (optionally) one spanning request over fogs 0 and 1 and the
    /// backbone.
    fn workload(env: &Env, regions: &[Vec<NodeId>], spanning: bool) -> Vec<StreamRequest> {
        let mut reqs = Vec::new();
        for (f, nodes) in regions[1..].iter().enumerate() {
            // Last node of a fog region is one of its sensors.
            let source = *nodes.last().expect("non-empty region");
            reqs.push(confined_request(
                env,
                nodes,
                source,
                41 * (f as u64 + 1),
                SimTime::from_millis(13 * f as u64),
            ));
        }
        if spanning {
            let mut nodes = regions[1].clone();
            nodes.extend(&regions[2]);
            nodes.extend(&regions[0]);
            let source = *regions[1].last().expect("non-empty region");
            reqs.push(confined_request(
                env,
                &nodes,
                source,
                777,
                SimTime::from_millis(5),
            ));
        }
        reqs
    }

    /// One request per fog, each spanning its fog region *and* the
    /// backbone — the continuum shape where request confinement collapses
    /// to one shard.
    fn spanning_workload(env: &Env, regions: &[Vec<NodeId>]) -> Vec<StreamRequest> {
        regions[1..]
            .iter()
            .enumerate()
            .map(|(f, fog)| {
                let mut nodes = fog.clone();
                nodes.extend(&regions[0]);
                let source = *fog.last().expect("non-empty region");
                confined_request(
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
        // Confinement collapses on this workload: one component.
        let plan = plan_shards(&env, &requests, &partition, usize::MAX);
        assert_eq!(plan.groups.len(), 1, "workload should defeat confinement");
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
        // Confined *and* spanning requests together: pinned mode must
        // handle participants that own every region of a request as well
        // as proper cross-shard splits.
        let (env, _, regions) = build_world();
        let partition = RegionPartition::new(&env.topology, regions.clone(), 0);
        let mut requests = workload(&env, &regions, true);
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
    fn plan_is_a_partition_of_requests_and_regions() {
        let (env, _, regions) = build_world();
        let partition = RegionPartition::new(&env.topology, regions.clone(), 0);
        let requests = workload(&env, &regions, true);
        let plan = plan_shards(&env, &requests, &partition, usize::MAX);
        // Fogs 0+1+backbone merge via the spanning request; fog 2 stands
        // alone.
        assert_eq!(plan.groups.len(), 2);
        let mut seen = vec![false; requests.len()];
        for g in &plan.groups {
            for &gid in g {
                assert!(!seen[gid], "request {gid} in two shards");
                seen[gid] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
        // Region sets are disjoint.
        let mut owned = vec![false; partition.len()];
        for rs in &plan.region_sets {
            for &r in rs {
                assert!(!owned[r], "region {r} owned by two shards");
                owned[r] = true;
            }
        }
    }

    #[test]
    fn max_shards_folds_components() {
        let (env, _, regions) = build_world();
        let partition = RegionPartition::new(&env.topology, regions.clone(), 0);
        let requests = workload(&env, &regions, false);
        let unlimited = plan_shards(&env, &requests, &partition, usize::MAX);
        assert_eq!(unlimited.groups.len(), 3); // one per fog
        let capped = plan_shards(&env, &requests, &partition, 2);
        assert_eq!(capped.groups.len(), 2);
        let total: usize = capped.groups.iter().map(Vec::len).sum();
        assert_eq!(total, requests.len());
    }

    #[test]
    fn sharded_matches_single_queue_bit_for_bit() {
        let (env, _, regions) = build_world();
        let partition = RegionPartition::new(&env.topology, regions.clone(), 0);
        for spanning in [false, true] {
            let requests = workload(&env, &regions, spanning);
            let single = simulate_stream_chaos(&env, &requests, None, None);
            for opts in [
                ShardOpts::default(),
                ShardOpts::with_max_shards(2),
                ShardOpts::with_max_shards(1),
            ] {
                for threads in [1, 3] {
                    let sharded = with_threads(threads, || {
                        simulate_stream_sharded(&env, &requests, None, None, &partition, &opts)
                    });
                    assert_eq!(sharded, single, "opts {opts:?} threads={threads} diverged");
                }
            }
        }
    }

    #[test]
    fn sharded_matches_single_queue_with_retries() {
        let (env, _, regions) = build_world();
        let partition = RegionPartition::new(&env.topology, regions.clone(), 0);
        let requests = workload(&env, &regions, true);
        let fs = FaultSpec {
            fail_prob: 0.2,
            max_attempts: 10,
            retry_delay: continuum_sim::SimDuration::from_millis(50),
            seed: 99,
        };
        let single = simulate_stream_chaos(&env, &requests, Some(&fs), None);
        assert!(single.trace.failed_attempts > 0, "want retries in play");
        let sharded = simulate_stream_sharded(
            &env,
            &requests,
            Some(&fs),
            None,
            &partition,
            &ShardOpts::default(),
        );
        assert_eq!(sharded, single);
    }

    #[test]
    fn empty_request_list_matches_single_queue() {
        let (env, _, regions) = build_world();
        let partition = RegionPartition::new(&env.topology, regions, 0);
        let single = simulate_stream_chaos(&env, &[], None, None);
        let sharded =
            simulate_stream_sharded(&env, &[], None, None, &partition, &ShardOpts::default());
        assert_eq!(sharded, single);
    }
}
