//! The simulated continuum executor.
//!
//! Executes placed workflows over virtual time with the effects the
//! analytic estimator ignores: FIFO queueing for device cores and max-min
//! fair link sharing for concurrent transfers. This is the "ground truth"
//! that every experiment reports; placement policies only ever see the
//! contention-free estimates, exactly as a real scheduler would.
//!
//! Transfer model: an item moving `src -> dst` waits the path's propagation
//! latency, then streams its bytes as a flow in the shared
//! [`FlowNetwork`]; co-located consumers receive items instantly; repeated
//! deliveries of the same item to the same node are deduplicated.
//!
//! Hot-path layout (see DESIGN.md "Stream executor hot paths"): each
//! request's `(item, destination node)` pairs are interned into dense
//! *slot* indices on first sight, per-task input lists are deduped once
//! into a CSR [`ReqPlan`], events carry slot indices instead of
//! `(DataId, NodeId)` keys, and route lookups go through an epoch-tagged
//! [`RouteCache`] invalidated on link fail/restore.

use crate::trace::{ExecutionTrace, TaskRecord};
use continuum_model::{CostMeter, DeviceId, EnergyMeter};
use continuum_net::{
    shortest_path_avoiding, FlowEngineStats, FlowId, FlowNetwork, LinkId, NodeId, Path,
    RegionPartition, RouteCache, RouteSeg,
};
use continuum_obs::{Histogram, MetricsRegistry, MetricsSnapshot, Telemetry, Tracer};
use continuum_placement::{Env, Metrics, OnlinePlacer, Placement};
use continuum_sim::{EventId, EventQueue, FaultKind, FaultSchedule, SimDuration, SimTime};
use continuum_workflow::{Dag, DataId, TaskId};
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;

/// One timed, placed workflow instance.
#[derive(Debug, Clone)]
pub struct StreamRequest {
    /// When the request enters the system.
    pub arrival: SimTime,
    /// The workflow.
    pub dag: Dag,
    /// One device per task of `dag`.
    pub placement: Placement,
}

/// Result of a simulated execution.
#[derive(Debug, Clone)]
pub struct SimOutcome {
    /// Per-task and per-request timings.
    pub trace: ExecutionTrace,
    /// Aggregate metrics in the same shape the estimator reports, so
    /// estimated and simulated runs compare directly.
    pub metrics: Metrics,
    /// Telemetry snapshot of this run (route-cache hit rate, calendar
    /// compactions, flow-engine batches, re-placements, ...). `None`
    /// unless a [`continuum_obs::Telemetry`] sink was ambient.
    pub telemetry: Option<Box<MetricsSnapshot>>,
}

/// Equality deliberately ignores `telemetry`: the snapshot describes how
/// the executor ran (cache hits, compaction passes), not what it
/// computed, and the bench oracles assert outcome equality between
/// executors with different internals. The telemetry-on-vs-off proptest
/// relies on `trace` and `metrics` covering every simulated decision.
impl PartialEq for SimOutcome {
    fn eq(&self, other: &Self) -> bool {
        self.trace == other.trace && self.metrics == other.metrics
    }
}

/// Execute a single workflow arriving at time zero.
pub fn simulate(env: &Env, dag: &Dag, placement: &Placement) -> SimOutcome {
    simulate_stream(
        env,
        &[StreamRequest {
            arrival: SimTime::ZERO,
            dag: dag.clone(),
            placement: placement.clone(),
        }],
    )
}

/// Fault-injection configuration for the simulated executor.
///
/// Each task *attempt* fails independently with `fail_prob` at the moment
/// it would complete (the work it burned — cores, energy, dollars — is
/// still charged, as on real hardware). Failed attempts are retried on the
/// same device after `retry_delay`, up to `max_attempts` total tries.
#[derive(Debug, Clone)]
pub struct FaultSpec {
    /// Probability that one attempt fails.
    pub fail_prob: f64,
    /// Delay before a failed task re-enters its device queue.
    pub retry_delay: continuum_sim::SimDuration,
    /// Total attempts allowed per task (>= 1).
    pub max_attempts: u32,
    /// RNG seed for the fault process.
    pub seed: u64,
}

impl Default for FaultSpec {
    fn default() -> Self {
        FaultSpec {
            fail_prob: 0.0,
            retry_delay: continuum_sim::SimDuration::from_millis(100),
            max_attempts: 100,
            seed: 0xFA_17,
        }
    }
}

/// Infrastructure fault injection for the simulated executor.
///
/// Interprets the device and link events of a [`FaultSchedule`] (endpoint
/// events belong to the fabric broker and are ignored here):
///
/// - **Device crash**: running attempts are killed (their elapsed
///   execution is destroyed — energy and dollars were already charged, as
///   on real hardware), the device stops dispatching, and after a
///   `detection` sweep its queued and orphaned tasks are *re-placed* onto
///   surviving devices by an online placer — not retried in place. Tasks
///   with no feasible live device park until something recovers.
/// - **Device recover**: undetected orphans restart in place (their
///   inputs are already at the node); parked tasks get another placement
///   attempt.
/// - **Link fail**: in-flight transfers crossing the link abort with their
///   transferred bytes preserved; the remainder re-routes over the
///   surviving topology, or stalls until a restore reconnects it.
/// - **Link restore**: stalled transfers retry.
///
/// A schedule whose every crash eventually recovers always terminates; a
/// schedule that permanently kills every feasible device for some task
/// trips the executor's final conservation assert (deadlock) by design.
#[derive(Debug, Clone)]
pub struct FaultPlane {
    /// Timed device/link crash and recover events.
    pub schedule: FaultSchedule,
    /// Detection latency: how long after a device crash its orphaned work
    /// is noticed and re-placed.
    pub detection: SimDuration,
}

impl FaultPlane {
    /// Project this device-level chaos schedule onto *region outages*: the
    /// timed transitions `(at, region, down)` where a partition region's
    /// last live device dies (`down == true`) or its first device comes
    /// back (`down == false`).
    ///
    /// This is the bridge from the executor's chaos plane to the fabric's
    /// federation: feed the result to
    /// `continuum_fabric::SiteFaults::from_region_transitions` to crash
    /// and recover whole federation sites in sympathy with a device-level
    /// fault schedule. Regions with no devices never transition; link
    /// and endpoint events are ignored (they don't kill brokers).
    pub fn site_transitions(
        &self,
        env: &Env,
        partition: &RegionPartition,
    ) -> Vec<(SimTime, u32, bool)> {
        let n_regions = partition.regions().len();
        let mut alive = vec![0usize; n_regions];
        let mut region_of_dev = Vec::with_capacity(env.fleet.len());
        for dev in env.fleet.devices() {
            let r = partition.region_of(dev.node);
            alive[r] += 1;
            region_of_dev.push(r);
        }
        let mut up = vec![true; env.fleet.len()];
        let mut out = Vec::new();
        for ev in self.schedule.events() {
            let d = ev.target as usize;
            match ev.kind {
                FaultKind::DeviceCrash if d < up.len() && up[d] => {
                    up[d] = false;
                    let r = region_of_dev[d];
                    alive[r] -= 1;
                    if alive[r] == 0 {
                        out.push((ev.at, r as u32, true));
                    }
                }
                FaultKind::DeviceRecover if d < up.len() && !up[d] => {
                    up[d] = true;
                    let r = region_of_dev[d];
                    alive[r] += 1;
                    if alive[r] == 1 {
                        out.push((ev.at, r as u32, false));
                    }
                }
                _ => {}
            }
        }
        out
    }
}

#[derive(Debug)]
enum Ev {
    Arrival(usize),
    /// Propagation delay elapsed; begin streaming `bytes` (the full item,
    /// or the remainder of a transfer aborted by a link failure) toward
    /// the request's interned `slot` — the slot carries (item, node).
    StartFlow {
        req: usize,
        slot: u32,
        bytes: u64,
    },
    /// The flow the executor predicted to finish first has finished.
    FlowDone(FlowId),
    /// Execution finished. Stale (`epoch` mismatch) if the attempt was
    /// killed by a device crash.
    TaskFinished {
        req: usize,
        task: TaskId,
        epoch: u32,
    },
    /// A failed task's retry delay elapsed; requeue it.
    RetryTask {
        req: usize,
        task: TaskId,
    },
    /// Apply `FaultPlane.schedule.events()[idx]`.
    Fault(usize),
    /// Detection latency elapsed for crash generation `gen` of a device:
    /// re-place its orphaned and queued tasks.
    OrphanSweep {
        dev: usize,
        gen: u32,
    },
    /// Partition mode: a segment's propagation latency elapsed; start
    /// streaming its bytes in the segment region's flow domain.
    PartSeg(Box<TransferMsg>),
    /// Partition mode: final delivery of a transfer at its destination
    /// slot (`msg.next == msg.segs.len()`).
    PartDeliver(Box<TransferMsg>),
    /// Partition mode: the predicted earliest completion in one region's
    /// flow domain has finished.
    PartFlowDone {
        region: u32,
        fid: FlowId,
    },
}

/// One cross-region transfer in flight under partitioned (pinned-task)
/// execution. Self-contained: a shard that owns only a *transit* region
/// of the route needs no request state to forward it — the remaining
/// route segments, byte count, and destination all ride along.
#[derive(Debug, Clone)]
pub(crate) struct TransferMsg {
    /// Global request id (ECMP salts and delivery lookups key off it).
    pub(crate) gid: usize,
    pub(crate) item: DataId,
    /// Final destination node (where the consuming slot lives).
    pub(crate) dst: NodeId,
    pub(crate) bytes: u64,
    /// The route, segmented at region boundaries (never empty).
    pub(crate) segs: Arc<[RouteSeg]>,
    /// Next stage: index of the segment about to run, or `segs.len()`
    /// for the final delivery hop.
    pub(crate) next: u32,
}

/// splitmix64 finalizer: the content-key mixer for partition-mode events.
#[inline]
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

// Event-key classes for partition mode. Every partition-mode event gets a
// key derived purely from its content, so equal-time events pop in the
// same relative order no matter how regions are grouped onto cores — the
// invariant behind the pinned-sharded == pinned-single identity. Arrivals
// keep key zero: their relative order is global-id order in every
// grouping, and key zero sorts them ahead of all keyed events.
const K_FIN: u64 = 1;
const K_RETRY: u64 = 2;
const K_SEG: u64 = 3;
const K_DELIVER: u64 = 4;
const K_FLOW: u64 = 5;

#[inline]
fn part_key(class: u64, a: u64, b: u64, c: u64) -> u64 {
    mix64(mix64(mix64(mix64(class) ^ a) ^ b) ^ c).max(1)
}

#[inline]
fn seg_key(msg: &TransferMsg) -> u64 {
    part_key(
        K_SEG,
        msg.gid as u64,
        u64::from(msg.item.0),
        (u64::from(msg.dst.0) << 32) | u64::from(msg.next),
    )
}

#[inline]
fn deliver_key(msg: &TransferMsg) -> u64 {
    part_key(
        K_DELIVER,
        msg.gid as u64,
        u64::from(msg.item.0),
        u64::from(msg.dst.0),
    )
}

/// Per-flow ECMP salt: stable for a (request, item) pair, never zero so
/// concurrent transfers spread across parallel equal-cost links.
#[inline]
fn xfer_salt(req: usize, item: DataId) -> u64 {
    ((req as u64) << 32) | (item.0 as u64) | (1 << 63)
}

/// Immutable per-request input plan, built once at simulation start: each
/// task's inputs deduped and sorted, CSR-packed. Kills the seed's
/// per-event `t.inputs.clone()` + sort + dedup (arrival and every
/// re-placement re-paid it).
struct ReqPlan {
    /// CSR offsets into `inputs`, length `tasks + 1`.
    in_off: Vec<u32>,
    /// Distinct inputs per task, sorted, grouped by task.
    inputs: Vec<DataId>,
    /// Data-item count of the dag (slot lists are indexed by `DataId.0`).
    n_items: usize,
}

impl ReqPlan {
    fn build(dag: &Dag) -> ReqPlan {
        let mut in_off = Vec::with_capacity(dag.len() + 1);
        let mut inputs: Vec<DataId> = Vec::new();
        in_off.push(0u32);
        for t in dag.tasks() {
            let start = inputs.len();
            inputs.extend_from_slice(&t.inputs);
            inputs[start..].sort_unstable();
            // Dedup the freshly appended range in place.
            let mut w = start;
            for r in start..inputs.len() {
                if w == start || inputs[w - 1] != inputs[r] {
                    inputs[w] = inputs[r];
                    w += 1;
                }
            }
            inputs.truncate(w);
            in_off.push(inputs.len() as u32);
        }
        ReqPlan {
            in_off,
            inputs,
            n_items: dag.data_items().len(),
        }
    }

    /// Distinct, sorted inputs of `t`.
    fn inputs_of(&self, t: TaskId) -> &[DataId] {
        let lo = self.in_off[t.0 as usize] as usize;
        let hi = self.in_off[t.0 as usize + 1] as usize;
        &self.inputs[lo..hi]
    }
}

/// Delivery state of one interned `(item, node)` pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SlotState {
    /// Nothing moving yet; a producer's publish (or a re-placement's
    /// fetch) will start a delivery.
    Absent,
    /// A transfer toward the node is in progress (or queued behind its
    /// propagation delay / a dead link).
    InFlight,
    /// The item is at the node.
    Present,
}

/// One interned `(item, destination node)` pair of a request.
#[derive(Debug)]
struct ItemSlot {
    item: DataId,
    node: NodeId,
    state: SlotState,
    /// Tasks waiting for the item at this node. Drained when the item
    /// becomes present; a stale waiter (task re-placed elsewhere since)
    /// is skipped by the assignment check at drain time.
    waiters: Vec<TaskId>,
}

/// Dense per-request execution state. The seed kept two
/// `HashMap<(DataId, NodeId), _>`s (item presence and waiter lists) and
/// hashed a composite key on every touch; interning each pair into a slot
/// index at first sight turns all steady-state accesses into vector
/// indexing, and `item_slots` gives a producer's publish direct,
/// NodeId-ordered access to exactly the destinations that registered
/// interest (the seed scanned every waiter key of the whole request, in
/// nondeterministic hash order).
struct ReqState {
    /// Distinct input items still missing, per task.
    missing: Vec<u32>,
    /// Tasks not yet finished.
    unfinished: usize,
    started: Vec<bool>,
    /// Interning table: `(item, node)` -> slot index. Touched once per
    /// pair's first sight (arrival or re-placement), never on the
    /// publish/delivery hot path.
    slot_of: HashMap<(DataId, NodeId), u32>,
    slots: Vec<ItemSlot>,
    /// Slots per data item (indexed by `DataId.0`), kept NodeId-sorted so
    /// publishes deliver in deterministic node order.
    item_slots: Vec<Vec<u32>>,
    /// Partition mode only: every consumer node per produced item
    /// (indexed by `DataId.0`), NodeId-sorted and deduped — *including*
    /// nodes in regions other cores own, which `item_slots` never sees.
    /// Built at arrival from the static placement; empty otherwise.
    fanout: Vec<Vec<NodeId>>,
}

impl ReqState {
    /// Fresh state for `dag`: every input missing, no task started.
    fn new(dag: &Dag, plan: &ReqPlan) -> ReqState {
        ReqState {
            missing: dag
                .tasks()
                .iter()
                .map(|t| plan.inputs_of(t.id).len() as u32)
                .collect(),
            unfinished: dag.len(),
            started: vec![false; dag.len()],
            slot_of: HashMap::new(),
            slots: Vec::new(),
            item_slots: vec![Vec::new(); plan.n_items],
            fanout: Vec::new(),
        }
    }

    /// Intern `(item, node)`, creating an [`SlotState::Absent`] slot on
    /// first sight.
    fn intern(&mut self, item: DataId, node: NodeId) -> u32 {
        match self.slot_of.entry((item, node)) {
            Entry::Occupied(o) => *o.get(),
            Entry::Vacant(v) => {
                let idx = self.slots.len() as u32;
                self.slots.push(ItemSlot {
                    item,
                    node,
                    state: SlotState::Absent,
                    waiters: Vec::new(),
                });
                let slots = &self.slots;
                let by_item = &mut self.item_slots[item.0 as usize];
                let pos = by_item.partition_point(|&s| slots[s as usize].node < node);
                by_item.insert(pos, idx);
                v.insert(idx);
                idx
            }
        }
    }
}

/// Execute a set of placed requests over the shared network and fleet.
///
/// # Panics
/// On workload/placement mismatches (wrong assignment length, disconnected
/// topology, unplaced producers) — programming errors, not runtime states.
pub fn simulate_stream(env: &Env, requests: &[StreamRequest]) -> SimOutcome {
    simulate_stream_with_faults(env, requests, None)
}

/// [`simulate_stream`] with optional fault injection.
pub fn simulate_stream_with_faults(
    env: &Env,
    requests: &[StreamRequest],
    faults: Option<&FaultSpec>,
) -> SimOutcome {
    simulate_stream_chaos(env, requests, faults, None)
}

/// Pick a route honoring dead links: the usual ECMP path when the fabric
/// is whole, a detour around failed links otherwise (`None` if the
/// endpoints are disconnected right now).
///
/// The degraded regime is memoized through `rcache` (the caller bumps its
/// epoch whenever `dead_links` changes): the Dijkstra detour ignores
/// salts, so all transfers between a node pair share the salt-class-0
/// entry — under chaos churn this turns thousands of per-transfer
/// Dijkstras per epoch into one per pair. The whole-fabric path is *not*
/// cached: `path_ecmp` is already a cheap walk over the prebuilt route
/// table, and measuring showed the cache's hashing costs more than it
/// saves there.
fn route(
    env: &Env,
    rcache: &mut RouteCache,
    src: NodeId,
    dst: NodeId,
    salt: u64,
    dead_links: &[bool],
    n_dead: usize,
) -> Option<Path> {
    if n_dead == 0 {
        env.path_ecmp(src, dst, salt)
    } else {
        rcache.route_with(src, dst, 0, || {
            shortest_path_avoiding(&env.topology, src, dst, dead_links)
        })
    }
}

/// Executor-local observability accumulator.
///
/// The counters are plain integer adds on paths that already mutate
/// state, so they stay on unconditionally (same cost model as the
/// route-cache and calendar counters). `marks` — timestamped points the
/// Perfetto export turns into instants — is only fed when an ambient
/// telemetry sink has tracing enabled.
#[derive(Default)]
struct ExecObs {
    trace_on: bool,
    /// Transfers that found no surviving route and parked in `stalled`.
    stalls: u64,
    /// Output publishes run by finished tasks.
    publishes: u64,
    /// Total destination slots those publishes fanned out to.
    publish_fanout: u64,
    /// Tasks parked with no feasible live device.
    parked: u64,
    marks: Vec<(SimTime, ObsMark)>,
}

enum ObsMark {
    Stall {
        req: usize,
    },
    Replace {
        req: usize,
        task: TaskId,
        dev: DeviceId,
    },
    Park {
        req: usize,
        task: TaskId,
    },
    /// A partition-mode transfer stage left this core for another
    /// shard's region: the tail of a cross-shard flow arrow.
    FlowOut {
        gid: usize,
        item: DataId,
        hop: u32,
        from_region: u32,
        to_region: u32,
    },
    /// A handed-over transfer stage entered this core: the arrow head.
    /// `(gid, item, hop)` matches the sender's [`ObsMark::FlowOut`], so
    /// the synthesizer can stitch the two sides with one flow id.
    FlowIn {
        gid: usize,
        item: DataId,
        hop: u32,
        at_region: u32,
    },
}

impl ExecObs {
    fn stall(&mut self, now: SimTime, req: usize) {
        self.stalls += 1;
        if self.trace_on {
            self.marks.push((now, ObsMark::Stall { req }));
        }
    }

    fn publish(&mut self, fanout: usize) {
        self.publishes += 1;
        self.publish_fanout += fanout as u64;
    }

    fn replaced(&mut self, now: SimTime, req: usize, task: TaskId, dev: DeviceId) {
        if self.trace_on {
            self.marks.push((now, ObsMark::Replace { req, task, dev }));
        }
    }

    fn park(&mut self, now: SimTime, req: usize, task: TaskId) {
        self.parked += 1;
        if self.trace_on {
            self.marks.push((now, ObsMark::Park { req, task }));
        }
    }

    fn flow_out(
        &mut self,
        now: SimTime,
        gid: usize,
        item: DataId,
        hop: u32,
        from_region: u32,
        to_region: u32,
    ) {
        if self.trace_on {
            self.marks.push((
                now,
                ObsMark::FlowOut {
                    gid,
                    item,
                    hop,
                    from_region,
                    to_region,
                },
            ));
        }
    }

    fn flow_in(&mut self, at: SimTime, gid: usize, item: DataId, hop: u32, at_region: u32) {
        if self.trace_on {
            self.marks.push((
                at,
                ObsMark::FlowIn {
                    gid,
                    item,
                    hop,
                    at_region,
                },
            ));
        }
    }
}

/// Deterministic correlation id for one cross-shard transfer hop —
/// computable identically on the sending and receiving core from the
/// envelope contents alone (splitmix64 over the packed triple).
pub(crate) fn flow_hop_id(gid: usize, item: DataId, hop: u32) -> u64 {
    let mut z = (gid as u64)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(u64::from(item.0) << 32)
        .wrapping_add(u64::from(hop));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// [`simulate_stream_with_faults`] with an optional infrastructure
/// [`FaultPlane`]. With `plane: None` this is exactly the fault-free
/// executor — same event order, bit-identical results. Runs as one
/// unpartitioned core under the shard driver (see [`crate::shard`]).
pub fn simulate_stream_chaos(
    env: &Env,
    requests: &[StreamRequest],
    faults: Option<&FaultSpec>,
    plane: Option<&FaultPlane>,
) -> SimOutcome {
    crate::shard::run_closed(env, requests, faults, plane, None)
}

/// Counter-based fault draw: a pure function of `(seed, request, task,
/// attempt)`. The seed's sequential RNG made each verdict depend on the
/// global order in which attempts completed; deriving an independent
/// stream per attempt keeps verdicts identical no matter how completions
/// interleave — which is what lets a sharded run reproduce the
/// single-queue executor's fault decisions exactly.
fn fault_draw(fs: &FaultSpec, gid: usize, task: TaskId, attempt: u32) -> bool {
    let mut seed = continuum_sim::Rng::new(fs.seed);
    let mut per_req = seed.split(gid as u64);
    let mut per_task = per_req.split(u64::from(task.0));
    per_task.split(u64::from(attempt)).chance(fs.fail_prob)
}

/// Storage of one request slot. Closed-loop cores borrow every request
/// from the caller's slice for the whole run; open-loop cores own each
/// injected request and free the slot (`Free`) when it retires, so memory
/// tracks *active* requests, not total.
enum ReqEntry<'a> {
    Borrowed(&'a StreamRequest),
    Owned(Box<StreamRequest>),
    Free,
}

/// The request in slot `i`. Free function (not a method) so call sites can
/// hold the returned borrow of `reqs` while mutating sibling `ExecCore`
/// fields.
fn req_ref<'b>(reqs: &'b [ReqEntry<'_>], i: usize) -> &'b StreamRequest {
    match &reqs[i] {
        ReqEntry::Borrowed(r) => r,
        ReqEntry::Owned(r) => r,
        ReqEntry::Free => unreachable!("request slot {i} is retired"),
    }
}

/// Bounded per-run aggregation for open-loop (streaming) execution: task
/// records fold into log2 histograms instead of accumulating in
/// `ExecutionTrace`, so a million-request run holds O(1) trace memory plus
/// a record buffer bounded by the live-request set.
pub(crate) struct StreamSink {
    /// Duration of every folded task attempt.
    task_duration: Histogram,
    /// Folded task attempts per device id.
    tasks_by_device: Vec<u64>,
    /// Task records folded so far (== executed attempts once the run
    /// drains).
    records_folded: u64,
    /// High-water mark of the compacting record buffer.
    peak_record_buf: usize,
    /// `(gid, local finish)` of every request retired since the last
    /// [`ExecCore::drain_finished`]. The open-loop gate folds these
    /// into request latencies: the max finish across participating cores.
    finished: Vec<(usize, SimTime)>,
}

impl StreamSink {
    fn new(n_dev: usize) -> Self {
        StreamSink {
            task_duration: Histogram::default(),
            tasks_by_device: vec![0; n_dev],
            records_folded: 0,
            peak_record_buf: 0,
            finished: Vec::new(),
        }
    }
}

/// One executor core: the complete event-driven machinery — event queue,
/// flow engine, route cache, dense request state, fault plane — over a
/// subset of the requests. Every executor runs N >= 1 cores under one
/// conservative driver (`crate::shard`) and merges their [`CoreParts`]:
/// the single queue is one unpartitioned core, which the driver runs to
/// its cap in one window; pinned execution runs one partitioned core per
/// shard in bounded time windows.
///
/// Everything a core emits is keyed by *global* ids: task records carry
/// the global request index, ECMP salts and fault draws hash it, and
/// telemetry marks name it. A core's decisions therefore do not depend on
/// how requests were grouped into cores, which is the invariant the
/// pinned N-shard == one-shard property rests on.
pub(crate) struct ExecCore<'a> {
    env: &'a Env,
    requests: Vec<ReqEntry<'a>>,
    /// Global request index of each local request.
    gids: Vec<usize>,
    faults: Option<&'a FaultSpec>,
    plane: Option<&'a FaultPlane>,
    /// Harvest component counters at finish (an ambient sink exists).
    collect: bool,
    obs: ExecObs,
    /// attempts[(local req, task)] -> tries so far.
    attempts: HashMap<(usize, u32), u32>,
    queue: EventQueue<Ev>,
    network: FlowNetwork,
    rcache: RouteCache,
    free_cores: Vec<u32>,
    device_q: Vec<VecDeque<(usize, TaskId)>>,
    /// Flow -> (local request, destination slot).
    flow_dest: HashMap<FlowId, (usize, u32)>,
    pending_completion: Option<(EventId, FlowId)>,
    /// Mutable copy of each placement; orphan re-placement rewrites it.
    assign: Vec<Vec<DeviceId>>,
    dev_up: Vec<bool>,
    /// Down *and* past its detection sweep: ready work is re-placed
    /// rather than queued there.
    dev_known_down: Vec<bool>,
    /// Crash generation, to match sweeps to the right outage.
    dev_gen: Vec<u32>,
    /// Executing attempts per device: (local req, task, record index).
    running: Vec<Vec<(usize, TaskId, usize)>>,
    /// Tasks killed by a crash, awaiting detection or recovery.
    orphans: Vec<Vec<(usize, TaskId)>>,
    /// Attempt epoch per task; a crash bump invalidates in-flight
    /// finishes.
    attempt_no: Vec<Vec<u32>>,
    finished: Vec<Vec<bool>>,
    /// Tasks with no feasible live device, waiting for a recovery.
    parked: Vec<(usize, TaskId)>,
    /// Transfers with no surviving route, waiting for a link restore:
    /// (local req, destination slot, remaining bytes).
    stalled: Vec<(usize, u32, u64)>,
    dead_links: Vec<bool>,
    n_dead: usize,
    placer: Option<OnlinePlacer>,
    plans: Vec<ReqPlan>,
    states: Vec<ReqState>,
    /// Task records; their `request` fields are GLOBAL ids.
    records: Vec<TaskRecord>,
    /// Completion time per LOCAL request (mapped to gids at finish).
    request_finish: Vec<SimTime>,
    tally: Tally,
    /// In-flight deliveries (slots in `SlotState::InFlight`) per local
    /// request. A request retires only once this hits zero, so no flow or
    /// stalled transfer can touch a freed slot.
    inflight: Vec<u32>,
    /// Scheduled-but-unpopped `TaskFinished` events per local request.
    /// Gates retirement so a stale finish (epoch-bumped by a crash) can
    /// never land on a reused slot with a coincidentally matching epoch.
    pending_fin: Vec<u32>,
    /// Slot has been retired (all per-request state freed).
    retired: Vec<bool>,
    /// Requests whose retirement preconditions may have just been met;
    /// drained by `process_retirements` after each event.
    retire_scan: Vec<usize>,
    /// Retired slots available for reuse by `inject_request`.
    free_slots: Vec<usize>,
    /// Global ids of live requests; record compaction keeps only their
    /// task records.
    live_gids: HashSet<usize>,
    /// Compact the record buffer when it reaches this length
    /// (`usize::MAX` in accumulating mode — never).
    compact_at: usize,
    /// `Some` switches the core to open-loop streaming: completed state
    /// folds into bounded histograms and slots are reused. `None` (closed
    /// loop) preserves the accumulate-everything behavior bit for bit.
    sink: Option<StreamSink>,
    /// `Some` switches the core to partitioned ("pinned-task") execution:
    /// tasks run where they were placed, each owned region gets its own
    /// flow domain, and transfers crossing into foreign regions leave
    /// through the outbox. `None` keeps one global flow network, as the
    /// single-queue executors run.
    part: Option<PartCtx<'a>>,
}

/// Partitioned-execution state bolted onto an [`ExecCore`] by
/// [`ExecCore::enable_partition`]. The core then simulates exactly the
/// regions marked in `owned`: tasks placed there, flows whose current
/// route segment runs there, and deliveries landing there. Anything
/// else either never enters the core (foreign tasks are pre-marked
/// started) or leaves through `outbox` as a self-contained
/// [`TransferMsg`].
struct PartCtx<'a> {
    partition: &'a RegionPartition,
    /// Regions this core simulates, indexed by region id.
    owned: Vec<bool>,
    /// One independent max-min-fair flow domain per owned region (`None`
    /// elsewhere). Contention is resolved per region, never across the
    /// whole topology, so a region's flow trajectories are identical no
    /// matter how regions are grouped onto cores.
    nets: Vec<Option<FlowNetwork>>,
    /// The pending earliest-completion event per owned region.
    pend: Vec<Option<(EventId, FlowId)>>,
    /// In-flight transfer continuations per owned region, keyed by flow.
    cont: Vec<HashMap<FlowId, TransferMsg>>,
    /// Transfer stages bound for regions this core does not own:
    /// `(due time, target region, msg)`. Drained by the shard driver and
    /// delivered to the owning core as conservative envelopes.
    outbox: Vec<(SimTime, u32, TransferMsg)>,
    /// Global request id -> local slot, for delivery lookups.
    local_of_gid: HashMap<usize, usize>,
}

impl<'a> ExecCore<'a> {
    /// Build a core over `requests` (with their global ids `gids`),
    /// schedule every arrival and fault event, and leave it ready to
    /// [`Self::pump`].
    pub(crate) fn new(
        env: &'a Env,
        requests: Vec<&'a StreamRequest>,
        gids: Vec<usize>,
        faults: Option<&'a FaultSpec>,
        plane: Option<&'a FaultPlane>,
        collect: bool,
        trace_on: bool,
    ) -> Self {
        assert_eq!(requests.len(), gids.len());
        if let Some(f) = faults {
            assert!(
                (0.0..1.0).contains(&f.fail_prob),
                "fail_prob must be in [0,1)"
            );
            assert!(f.max_attempts >= 1);
        }
        for r in &requests {
            assert_eq!(
                r.placement.assignment.len(),
                r.dag.len(),
                "placement does not match dag '{}'",
                r.dag.name
            );
        }
        let n_dev = env.fleet.len();
        let n_links = env.topology.links().len();
        let mut queue: EventQueue<Ev> = EventQueue::new();
        for (i, r) in requests.iter().enumerate() {
            queue.schedule_at(r.arrival, Ev::Arrival(i));
        }
        if let Some(p) = plane {
            for (idx, fe) in p.schedule.events().iter().enumerate() {
                match fe.kind {
                    FaultKind::DeviceCrash | FaultKind::DeviceRecover => assert!(
                        (fe.target as usize) < n_dev,
                        "fault schedule targets device {} but only {n_dev} exist",
                        fe.target
                    ),
                    FaultKind::LinkFail | FaultKind::LinkRestore => assert!(
                        (fe.target as usize) < n_links,
                        "fault schedule targets link {} but only {n_links} exist",
                        fe.target
                    ),
                    // Endpoint faults belong to the fabric broker.
                    FaultKind::EndpointCrash | FaultKind::EndpointRecover => continue,
                }
                queue.schedule_at(fe.at, Ev::Fault(idx));
            }
        }
        let plans: Vec<ReqPlan> = requests.iter().map(|r| ReqPlan::build(&r.dag)).collect();
        let states: Vec<ReqState> = requests
            .iter()
            .zip(&plans)
            .map(|(r, plan)| ReqState::new(&r.dag, plan))
            .collect();
        ExecCore {
            env,
            faults,
            plane,
            collect,
            obs: ExecObs {
                trace_on,
                ..ExecObs::default()
            },
            attempts: HashMap::new(),
            network: FlowNetwork::new(&env.topology),
            rcache: RouteCache::new(),
            free_cores: env.fleet.devices().iter().map(|d| d.spec.cores).collect(),
            device_q: vec![VecDeque::new(); n_dev],
            flow_dest: HashMap::new(),
            pending_completion: None,
            assign: requests
                .iter()
                .map(|r| r.placement.assignment.clone())
                .collect(),
            dev_up: vec![true; n_dev],
            dev_known_down: vec![false; n_dev],
            dev_gen: vec![0u32; n_dev],
            running: vec![Vec::new(); n_dev],
            orphans: vec![Vec::new(); n_dev],
            attempt_no: requests.iter().map(|r| vec![0; r.dag.len()]).collect(),
            finished: requests.iter().map(|r| vec![false; r.dag.len()]).collect(),
            parked: Vec::new(),
            stalled: Vec::new(),
            dead_links: vec![false; n_links],
            n_dead: 0,
            placer: plane.map(|_| OnlinePlacer::continuum(env)),
            plans,
            states,
            records: Vec::new(),
            request_finish: vec![SimTime::ZERO; requests.len()],
            tally: Tally::new(env),
            inflight: vec![0; requests.len()],
            pending_fin: vec![0; requests.len()],
            retired: vec![false; requests.len()],
            retire_scan: Vec::new(),
            free_slots: Vec::new(),
            live_gids: HashSet::new(),
            compact_at: usize::MAX,
            sink: None,
            part: None,
            queue,
            requests: requests.into_iter().map(ReqEntry::Borrowed).collect(),
            gids,
        }
    }

    /// Earliest pending event, if any work remains.
    pub(crate) fn next_event_time(&mut self) -> Option<SimTime> {
        self.queue.peek_time()
    }

    /// Events ever scheduled on this core's calendar — the per-shard
    /// load measure behind the `shard.events` / `shard.largest_fraction`
    /// telemetry.
    pub(crate) fn scheduled_events(&self) -> u64 {
        self.queue.stats().scheduled
    }

    /// Process every event strictly before `horizon` (all events when
    /// `None`). Pumping in windows and pumping once to completion pop the
    /// same events in the same order — the horizon only decides where the
    /// pops pause, never how they sort.
    pub(crate) fn pump(&mut self, horizon: Option<SimTime>) {
        while let Some(t) = self.queue.peek_time() {
            if horizon.is_some_and(|h| t >= h) {
                break;
            }
            let (now, ev) = self.queue.pop().expect("peeked event exists");
            self.step(now, ev);
            if !self.retire_scan.is_empty() {
                self.process_retirements();
            }
        }
    }

    /// Handle one event. Each event appends to explicit work lists —
    /// slots that became present (`made_present`), devices whose queues
    /// should be rescanned (`dispatch_devices`), tasks needing
    /// re-placement (`to_replace`) — which are drained to a fixed point
    /// after the match, because presence can ready a task on a known-dead
    /// device and a re-placement can find its inputs already co-located.
    fn step(&mut self, now: SimTime, ev: Ev) {
        let env = self.env;
        // Work lists produced by this event.
        let mut made_present: Vec<(usize, u32)> = Vec::new();
        let mut dispatch_devices: Vec<usize> = Vec::new();
        let mut to_replace: Vec<(usize, TaskId)> = Vec::new();
        let mut network_changed = false;
        let mut regions_changed: Vec<u32> = Vec::new();

        match ev {
            Ev::Arrival(req) if self.part.is_some() => {
                self.arrive_part(now, req, &mut made_present, &mut dispatch_devices);
            }
            Ev::Arrival(req) => {
                let r = req_ref(&self.requests, req);
                // Request external item deliveries and register interest:
                // (slot, home node) pairs needing a fetch, in first-sight
                // order.
                let mut to_deliver: Vec<(u32, NodeId)> = Vec::new();
                {
                    let st = &mut self.states[req];
                    let plan = &self.plans[req];
                    let assign = &self.assign[req];
                    for t in r.dag.tasks() {
                        let dst = env.node_of(assign[t.id.0 as usize]);
                        for &d in plan.inputs_of(t.id) {
                            let slot = st.intern(d, dst);
                            if r.dag.producer(d).is_none()
                                && st.slots[slot as usize].state == SlotState::Absent
                            {
                                let home = r
                                    .dag
                                    .data(d)
                                    .home
                                    .expect("validated dag: external has home");
                                st.slots[slot as usize].state = SlotState::InFlight;
                                self.inflight[req] += 1;
                                to_deliver.push((slot, home));
                            }
                            // Produced items stay Absent; the producer's
                            // publish delivers to this slot.
                            st.slots[slot as usize].waiters.push(t.id);
                        }
                    }
                }
                for (slot, home) in to_deliver {
                    let home_dev = env.fleet.at_node(home).first().copied();
                    self.send(now, req, slot, home_dev, home, &mut made_present);
                }
                // Tasks with no inputs are immediately ready.
                for ti in 0..self.assign[req].len() {
                    if self.states[req].missing[ti] == 0 {
                        let t = TaskId(ti as u32);
                        self.ready(req, t, &mut to_replace, &mut dispatch_devices);
                    }
                }
            }
            Ev::StartFlow { req, slot, bytes } => {
                let r = req_ref(&self.requests, req);
                let gid = self.gids[req];
                let (item, dst) = {
                    let s = &self.states[req].slots[slot as usize];
                    (s.item, s.node)
                };
                // Source: home or producer's node — only needed for the
                // path; recompute from whichever is set.
                let src = match r.dag.producer(item) {
                    None => r.dag.data(item).home.expect("external item has home"),
                    Some(p) => env.node_of(self.assign[req][p.0 as usize]),
                };
                match route(
                    env,
                    &mut self.rcache,
                    src,
                    dst,
                    xfer_salt(gid, item),
                    &self.dead_links,
                    self.n_dead,
                ) {
                    Some(path) => match self.network.start(now, &path, bytes) {
                        Some(fid) => {
                            self.flow_dest.insert(fid, (req, slot));
                            network_changed = true;
                        }
                        None => made_present.push((req, slot)),
                    },
                    None => self.stall(now, req, slot, bytes),
                }
            }
            Ev::FlowDone(fid) => {
                // Only the currently pending completion is live; stale
                // events were cancelled.
                debug_assert_eq!(self.pending_completion.map(|(_, f)| f), Some(fid));
                self.pending_completion = None;
                self.network.remove(now, fid);
                let (req, slot) = self.flow_dest.remove(&fid).expect("unknown flow");
                made_present.push((req, slot));
                network_changed = true;
            }
            Ev::TaskFinished { req, task, epoch } => {
                // Every scheduled finish — live or stale — accounts here;
                // the request cannot retire while one is outstanding.
                self.pending_fin[req] -= 1;
                self.retire_scan.push(req);
                if epoch != self.attempt_no[req][task.0 as usize] {
                    return; // this attempt was killed by a device crash
                }
                let r = req_ref(&self.requests, req);
                let gid = self.gids[req];
                let dev = self.assign[req][task.0 as usize];
                let spec = &env.fleet.device(dev).spec;
                let need = r.dag.task(task).occupancy(spec.cores);
                self.free_cores[dev.0 as usize] += need;
                let pos = self.running[dev.0 as usize]
                    .iter()
                    .position(|&(rq, t, _)| rq == req && t == task)
                    .expect("finished task is running");
                self.running[dev.0 as usize].swap_remove(pos);

                // Fault injection: this attempt may fail at completion.
                if let Some(fs) = self.faults {
                    let tries = self.attempts.entry((req, task.0)).or_insert(1);
                    if fault_draw(fs, gid, task, *tries) {
                        assert!(
                            *tries < fs.max_attempts,
                            "task {} of request {gid} exhausted {} attempts",
                            task,
                            fs.max_attempts
                        );
                        *tries += 1;
                        self.tally.failed_attempts += 1;
                        self.states[req].started[task.0 as usize] = false;
                        let retry = Ev::RetryTask { req, task };
                        if self.part.is_some() {
                            let key = part_key(K_RETRY, gid as u64, u64::from(task.0), 0);
                            self.queue
                                .schedule_keyed_at(now + fs.retry_delay, key, retry);
                        } else {
                            self.queue.schedule_at(now + fs.retry_delay, retry);
                        }
                        // Cores were already freed above; dispatch waiting
                        // work on this device, then bail without
                        // publishing outputs.
                        self.dispatch_queue(dev.0 as usize, now);
                        return;
                    }
                }

                self.finished[req][task.0 as usize] = true;
                let st = &mut self.states[req];
                st.unfinished -= 1;
                let done = st.unfinished == 0;
                if done {
                    self.request_finish[req] = now;
                }
                // Publish outputs to their consumers: every node with a
                // registered slot still missing the item, in NodeId order.
                let my_node = env.node_of(dev);
                if self.part.is_some() {
                    self.publish_part(now, req, task, dev, my_node, &mut made_present);
                } else {
                    let st = &mut self.states[req];
                    let mut to_deliver: Vec<u32> = Vec::new();
                    for &out in &r.dag.task(task).outputs {
                        for i in 0..st.item_slots[out.0 as usize].len() {
                            let slot = st.item_slots[out.0 as usize][i];
                            if st.slots[slot as usize].state == SlotState::Absent {
                                st.slots[slot as usize].state = SlotState::InFlight;
                                self.inflight[req] += 1;
                                to_deliver.push(slot);
                            }
                        }
                    }
                    self.obs.publish(to_deliver.len());
                    // Egress is billed to the device that actually produced
                    // (and sends) the item, not an arbitrary device at its
                    // node.
                    for slot in to_deliver {
                        self.send(now, req, slot, Some(dev), my_node, &mut made_present);
                    }
                }
            }
            Ev::RetryTask { req, task } => {
                self.ready(req, task, &mut to_replace, &mut dispatch_devices);
            }
            Ev::Fault(idx) => {
                let fe = self
                    .plane
                    .expect("fault event implies plane")
                    .schedule
                    .events()[idx];
                match fe.kind {
                    FaultKind::DeviceCrash => {
                        let d = fe.target as usize;
                        if self.dev_up[d] {
                            self.dev_up[d] = false;
                            self.dev_gen[d] += 1;
                            self.tally.device_crashes += 1;
                            // Kill the running attempts: elapsed execution
                            // is destroyed (energy/cost stay charged — the
                            // hardware did burn them). The tasks become
                            // orphans awaiting detection or recovery.
                            for (rq, t, rec) in std::mem::take(&mut self.running[d]) {
                                let started_at = self.records[rec].start;
                                self.records[rec].finish = now; // truncate
                                self.tally.lost_dev[d] += now.since(started_at).as_secs_f64();
                                self.tally.killed_attempts += 1;
                                self.attempt_no[rq][t.0 as usize] += 1;
                                self.states[rq].started[t.0 as usize] = false;
                                self.orphans[d].push((rq, t));
                            }
                            self.free_cores[d] = 0;
                            let det = self.plane.expect("checked above").detection;
                            self.queue.schedule_at(
                                now + det,
                                Ev::OrphanSweep {
                                    dev: d,
                                    gen: self.dev_gen[d],
                                },
                            );
                        }
                    }
                    FaultKind::DeviceRecover => {
                        let d = fe.target as usize;
                        if !self.dev_up[d] {
                            self.dev_up[d] = true;
                            self.dev_known_down[d] = false;
                            self.free_cores[d] = env.fleet.devices()[d].spec.cores;
                            // Undetected orphans restart in place: their
                            // inputs already live at this node.
                            for (rq, t) in std::mem::take(&mut self.orphans[d]) {
                                self.device_q[d].push_back((rq, t));
                            }
                            dispatch_devices.push(d);
                            // Parked tasks get another placement attempt.
                            to_replace.append(&mut self.parked);
                        }
                    }
                    FaultKind::LinkFail => {
                        let l = fe.target as usize;
                        if !self.dead_links[l] {
                            self.dead_links[l] = true;
                            self.n_dead += 1;
                            self.rcache.bump_epoch();
                            self.tally.link_failures += 1;
                            for a in self.network.fail_link(now, LinkId(l as u32)) {
                                let (rq, slot) = self
                                    .flow_dest
                                    .remove(&a.id)
                                    .expect("aborted flow is tracked");
                                // Resume the remainder over the surviving
                                // topology (transferred bytes arrived;
                                // egress was billed at initiation).
                                let rest = (a.remaining.ceil() as u64).max(1);
                                self.queue.schedule_at(
                                    now,
                                    Ev::StartFlow {
                                        req: rq,
                                        slot,
                                        bytes: rest,
                                    },
                                );
                            }
                            network_changed = true;
                        }
                    }
                    FaultKind::LinkRestore => {
                        let l = fe.target as usize;
                        if self.dead_links[l] {
                            self.dead_links[l] = false;
                            self.n_dead -= 1;
                            self.rcache.bump_epoch();
                            self.network.restore_link(now, LinkId(l as u32));
                            network_changed = true;
                            // Stalled transfers may be routable again.
                            for (rq, slot, bytes) in std::mem::take(&mut self.stalled) {
                                self.queue.schedule_at(
                                    now,
                                    Ev::StartFlow {
                                        req: rq,
                                        slot,
                                        bytes,
                                    },
                                );
                            }
                        }
                    }
                    FaultKind::EndpointCrash | FaultKind::EndpointRecover => {
                        unreachable!("endpoint faults are not scheduled here")
                    }
                }
            }
            Ev::OrphanSweep { dev, gen } => {
                // Stale if the device recovered (or crashed again) before
                // this sweep fired.
                if !self.dev_up[dev] && self.dev_gen[dev] == gen {
                    self.dev_known_down[dev] = true;
                    to_replace.extend(std::mem::take(&mut self.orphans[dev]));
                    to_replace.extend(self.device_q[dev].drain(..));
                }
            }
            Ev::PartSeg(ref msg) => {
                let msg: TransferMsg = (**msg).clone();
                let part = self
                    .part
                    .as_mut()
                    .expect("partition event without partition");
                let seg = &msg.segs[msg.next as usize];
                let r = seg.region as usize;
                debug_assert!(part.owned[r], "segment region not owned by this core");
                let path = seg.as_path();
                let fid = part.nets[r]
                    .as_mut()
                    .expect("owned region has a flow domain")
                    .start(now, &path, msg.bytes)
                    .expect("route segments always contain links");
                part.cont[r].insert(fid, msg);
                regions_changed.push(r as u32);
            }
            Ev::PartDeliver(ref msg) => {
                let part = self
                    .part
                    .as_mut()
                    .expect("partition event without partition");
                let req = *part
                    .local_of_gid
                    .get(&msg.gid)
                    .expect("delivery targets a participating request");
                let st = &mut self.states[req];
                let slot = *st
                    .slot_of
                    .get(&(msg.item, msg.dst))
                    .expect("delivery slot interned at arrival");
                // Remote-produced items go Absent -> InFlight here (their
                // producer's core could not touch this slot); external
                // fetches were already marked InFlight at arrival.
                if st.slots[slot as usize].state == SlotState::Absent {
                    st.slots[slot as usize].state = SlotState::InFlight;
                    self.inflight[req] += 1;
                }
                made_present.push((req, slot));
            }
            Ev::PartFlowDone { region, fid } => {
                let part = self
                    .part
                    .as_mut()
                    .expect("partition event without partition");
                let r = region as usize;
                debug_assert_eq!(part.pend[r].map(|(_, f)| f), Some(fid));
                part.pend[r] = None;
                part.nets[r]
                    .as_mut()
                    .expect("owned region has a flow domain")
                    .remove(now, fid);
                let msg = part.cont[r].remove(&fid).expect("flow has a continuation");
                regions_changed.push(region);
                self.part_forward(now, msg);
            }
        }

        // Drain presence notifications and fault re-placements — each can
        // feed the other (a new item can ready a task whose device is
        // known-dead; a re-placement can find its inputs co-located).
        while !made_present.is_empty() || !to_replace.is_empty() {
            for (req, slot) in std::mem::take(&mut made_present) {
                let st = &mut self.states[req];
                debug_assert_eq!(st.slots[slot as usize].state, SlotState::InFlight);
                st.slots[slot as usize].state = SlotState::Present;
                self.inflight[req] -= 1;
                if self.inflight[req] == 0 {
                    // Last in-flight delivery: the request may now satisfy
                    // every retirement precondition (e.g. a straggler
                    // arriving after its final task finished).
                    self.retire_scan.push(req);
                }
                let node = st.slots[slot as usize].node;
                for t in std::mem::take(&mut st.slots[slot as usize].waiters) {
                    // A waiter only counts if this task actually runs here.
                    if env.node_of(self.assign[req][t.0 as usize]) != node {
                        continue;
                    }
                    let m = &mut self.states[req].missing[t.0 as usize];
                    debug_assert!(*m > 0);
                    *m -= 1;
                    if *m == 0 {
                        self.ready(req, t, &mut to_replace, &mut dispatch_devices);
                    }
                }
            }
            for (req, task) in std::mem::take(&mut to_replace) {
                self.replace_task(req, task, now, &mut dispatch_devices, &mut made_present);
            }
        }

        // Dispatch: first-fit scan of each touched device queue, plus any
        // device that just freed cores.
        if let Ev::TaskFinished { req, task, .. } = &ev {
            let dev = self.assign[*req][task.0 as usize];
            dispatch_devices.push(dev.0 as usize);
        }
        dispatch_devices.sort_unstable();
        dispatch_devices.dedup();
        for di in dispatch_devices {
            self.dispatch_queue(di, now);
        }

        // Re-arm the single pending flow-completion event.
        if network_changed {
            if let Some((eid, _)) = self.pending_completion.take() {
                self.queue.cancel(eid);
            }
            if let Some((t, fid)) = self.network.next_completion() {
                let eid = self.queue.schedule_at(t.max(now), Ev::FlowDone(fid));
                self.pending_completion = Some((eid, fid));
            }
        }

        // Partition mode: re-arm the pending completion of every region
        // domain this event touched.
        if !regions_changed.is_empty() {
            regions_changed.sort_unstable();
            regions_changed.dedup();
            for r in regions_changed {
                self.rearm_region(now, r);
            }
        }
    }

    /// A task whose inputs are all present: queue it on its device, or
    /// re-place it if that device is known to be down.
    fn ready(
        &mut self,
        req: usize,
        task: TaskId,
        to_replace: &mut Vec<(usize, TaskId)>,
        dispatch_devices: &mut Vec<usize>,
    ) {
        let dev = self.assign[req][task.0 as usize].0 as usize;
        if self.dev_known_down[dev] {
            to_replace.push((req, task));
        } else {
            self.device_q[dev].push_back((req, task));
            dispatch_devices.push(dev);
        }
    }

    /// Cancel and re-schedule the earliest-completion event of one owned
    /// region's flow domain. The event key is a pure function of the
    /// region id, so equal-time re-arms of different regions sort
    /// identically no matter how regions are grouped onto cores.
    fn rearm_region(&mut self, now: SimTime, region: u32) {
        let part = self.part.as_mut().expect("partition mode");
        let r = region as usize;
        if let Some((eid, _)) = part.pend[r].take() {
            self.queue.cancel(eid);
        }
        let next = part.nets[r]
            .as_mut()
            .expect("owned region has a flow domain")
            .next_completion();
        if let Some((t, fid)) = next {
            let key = part_key(K_FLOW, u64::from(region), 0, 0);
            let eid =
                self.queue
                    .schedule_keyed_at(t.max(now), key, Ev::PartFlowDone { region, fid });
            self.part.as_mut().expect("partition mode").pend[r] = Some((eid, fid));
        }
    }

    /// Partition-mode arrival: register interest only for tasks placed in
    /// regions this core owns, pre-mark everything else as started
    /// (foreign — another core runs it), and initiate exactly the
    /// external fetches whose *home* region this core owns. Every
    /// participating core scans the same request in the same task order,
    /// so the per-`(item, destination)` first-sight dedup agrees across
    /// cores without any coordination.
    fn arrive_part(
        &mut self,
        now: SimTime,
        req: usize,
        made_present: &mut Vec<(usize, u32)>,
        dispatch_devices: &mut Vec<usize>,
    ) {
        let env = self.env;
        let r = req_ref(&self.requests, req);
        let gid = self.gids[req];
        // (item, home, destination, bytes) fetches this core initiates,
        // in first-sight order.
        let mut sends: Vec<(DataId, NodeId, NodeId, u64)> = Vec::new();
        {
            let part = self.part.as_ref().expect("partition mode");
            let partition = part.partition;
            let st = &mut self.states[req];
            let plan = &self.plans[req];
            let assign = &self.assign[req];
            let mut fanout: Vec<Vec<NodeId>> = vec![Vec::new(); plan.n_items];
            let mut owned_tasks = 0usize;
            let mut seen: HashSet<(DataId, NodeId)> = HashSet::new();
            for t in r.dag.tasks() {
                let dst = env.node_of(assign[t.id.0 as usize]);
                let dst_owned = part.owned[partition.region_of(dst)];
                if dst_owned {
                    owned_tasks += 1;
                } else {
                    st.started[t.id.0 as usize] = true;
                }
                for &d in plan.inputs_of(t.id) {
                    let external = r.dag.producer(d).is_none();
                    if !external {
                        fanout[d.0 as usize].push(dst);
                    }
                    if dst_owned {
                        let slot = st.intern(d, dst);
                        if external && st.slots[slot as usize].state == SlotState::Absent {
                            let home = r
                                .dag
                                .data(d)
                                .home
                                .expect("validated dag: external has home");
                            st.slots[slot as usize].state = SlotState::InFlight;
                            self.inflight[req] += 1;
                            if home == dst {
                                made_present.push((req, slot));
                            }
                        }
                        st.slots[slot as usize].waiters.push(t.id);
                    }
                    if external {
                        let home = r
                            .dag
                            .data(d)
                            .home
                            .expect("validated dag: external has home");
                        if home != dst
                            && part.owned[partition.region_of(home)]
                            && seen.insert((d, dst))
                        {
                            sends.push((d, home, dst, r.dag.data(d).bytes));
                        }
                    }
                }
            }
            st.unfinished = owned_tasks;
            for v in &mut fanout {
                v.sort_unstable();
                v.dedup();
            }
            st.fanout = fanout;
        }
        // Egress billed by the initiating (home-owning) core only, so
        // merged totals count each transfer exactly once.
        for (d, home, dst, bytes) in sends {
            self.bill(env.fleet.at_node(home).first().copied(), bytes);
            self.part_send(now, gid, d, home, dst, bytes);
        }
        // Owned tasks with no inputs are immediately ready. Foreign tasks
        // were pre-marked started, so the scan skips them.
        let n_tasks = self.finished[req].len();
        for ti in 0..n_tasks {
            let st = &self.states[req];
            if !st.started[ti] && st.missing[ti] == 0 {
                let dev = self.assign[req][ti];
                self.device_q[dev.0 as usize].push_back((req, TaskId(ti as u32)));
                dispatch_devices.push(dev.0 as usize);
            }
        }
        // A core whose only stake was initiating fetches (zero owned
        // tasks) may already satisfy every retirement precondition.
        if self.states[req].unfinished == 0 {
            self.retire_scan.push(req);
        }
    }

    /// Partition-mode publish: deliver a finished task's outputs to every
    /// consumer node from the static fan-out — locally when the consumer
    /// is co-located, over segmented transfers otherwise (including
    /// consumers in regions owned by other cores).
    fn publish_part(
        &mut self,
        now: SimTime,
        req: usize,
        task: TaskId,
        dev: DeviceId,
        my_node: NodeId,
        made_present: &mut Vec<(usize, u32)>,
    ) {
        let r = req_ref(&self.requests, req);
        let gid = self.gids[req];
        let mut sends: Vec<(DataId, NodeId, u64)> = Vec::new();
        let mut n_publish = 0usize;
        {
            let st = &mut self.states[req];
            for &out in &r.dag.task(task).outputs {
                for i in 0..st.fanout[out.0 as usize].len() {
                    let dst = st.fanout[out.0 as usize][i];
                    n_publish += 1;
                    if dst == my_node {
                        let slot = *st
                            .slot_of
                            .get(&(out, dst))
                            .expect("co-located consumer interned at arrival");
                        debug_assert_eq!(st.slots[slot as usize].state, SlotState::Absent);
                        st.slots[slot as usize].state = SlotState::InFlight;
                        self.inflight[req] += 1;
                        made_present.push((req, slot));
                    } else {
                        sends.push((out, dst, r.dag.data(out).bytes));
                    }
                }
            }
        }
        self.obs.publish(n_publish);
        for (d, dst, bytes) in sends {
            // Egress billed to the producing device by its own core; the
            // consumer's core never bills this transfer.
            self.bill(Some(dev), bytes);
            self.part_send(now, gid, d, my_node, dst, bytes);
        }
    }

    /// Begin a partitioned transfer: segment the route at region
    /// boundaries and schedule the first stage after the first segment's
    /// propagation latency. The initiating core owns the source region,
    /// so the first segment always runs locally.
    fn part_send(
        &mut self,
        now: SimTime,
        gid: usize,
        item: DataId,
        src: NodeId,
        dst: NodeId,
        bytes: u64,
    ) {
        debug_assert_ne!(src, dst, "local presence is handled by the caller");
        let path = route(
            self.env,
            &mut self.rcache,
            src,
            dst,
            xfer_salt(gid, item),
            &self.dead_links,
            self.n_dead,
        )
        .expect("partition mode runs without link faults");
        let part = self.part.as_ref().expect("partition mode");
        let segs: Arc<[RouteSeg]> = part
            .partition
            .segment_route(&self.env.topology, &path)
            .into();
        debug_assert!(
            part.owned[segs[0].region as usize],
            "sender owns the source region"
        );
        let msg = TransferMsg {
            gid,
            item,
            dst,
            bytes,
            segs,
            next: 0,
        };
        self.schedule_stage(now + msg.segs[0].latency, msg);
    }

    /// Advance a transfer past its just-finished stage: pay the handoff
    /// gap (the boundary link's propagation latency), then either run the
    /// next stage locally or stage it in the outbox for the core owning
    /// the target region.
    fn part_forward(&mut self, now: SimTime, mut msg: TransferMsg) {
        let part = self.part.as_ref().expect("partition mode");
        let gap = msg.segs[msg.next as usize].gap;
        msg.next += 1;
        let (at, target) = if (msg.next as usize) < msg.segs.len() {
            let seg = &msg.segs[msg.next as usize];
            (now + gap + seg.latency, seg.region)
        } else {
            (now + gap, part.partition.region_of(msg.dst) as u32)
        };
        if part.owned[target as usize] {
            self.schedule_stage(at, msg);
        } else {
            let from_region = msg.segs[(msg.next - 1) as usize].region;
            self.obs
                .flow_out(now, msg.gid, msg.item, msg.next, from_region, target);
            self.part
                .as_mut()
                .expect("partition mode")
                .outbox
                .push((at, target, msg));
        }
    }

    /// Inject one transfer stage handed over from another core (its due
    /// time is past the sender's window horizon, so it sorts safely into
    /// this core's calendar).
    pub(crate) fn receive_part(&mut self, at: SimTime, msg: TransferMsg) {
        if self.obs.trace_on {
            let at_region = if (msg.next as usize) < msg.segs.len() {
                msg.segs[msg.next as usize].region
            } else {
                self.part
                    .as_ref()
                    .expect("partition mode")
                    .partition
                    .region_of(msg.dst) as u32
            };
            self.obs.flow_in(at, msg.gid, msg.item, msg.next, at_region);
        }
        self.schedule_stage(at, msg);
    }

    /// Schedule a transfer's next stage on this core's calendar under its
    /// content key: the next segment, or the final delivery once every
    /// segment has run.
    fn schedule_stage(&mut self, at: SimTime, msg: TransferMsg) {
        let (key, ev) = if (msg.next as usize) < msg.segs.len() {
            (seg_key(&msg), Ev::PartSeg(Box::new(msg)))
        } else {
            (deliver_key(&msg), Ev::PartDeliver(Box::new(msg)))
        };
        self.queue.schedule_keyed_at(at, key, ev);
    }

    /// Drain transfer stages bound for regions other cores own (none
    /// for an unpartitioned core).
    pub(crate) fn take_outbox(&mut self) -> Vec<(SimTime, u32, TransferMsg)> {
        self.part
            .as_mut()
            .map(|p| std::mem::take(&mut p.outbox))
            .unwrap_or_default()
    }

    /// Drain `(gid, local finish)` of requests retired since the last
    /// call (streaming mode only), keeping the log's allocation.
    pub(crate) fn drain_finished(&mut self) -> std::vec::Drain<'_, (usize, SimTime)> {
        self.sink
            .as_mut()
            .expect("streaming mode")
            .finished
            .drain(..)
    }

    /// Bill one non-local transfer of `bytes` to its sender: the producing
    /// device, or for an external item the first device at its home node
    /// (deterministic — `Fleet::at_node` is insertion-ordered), or no
    /// device at all if that node hosts none.
    fn bill(&mut self, src_dev: Option<DeviceId>, bytes: u64) {
        self.tally.bytes_moved += bytes;
        self.tally.transfers += 1;
        if let Some(dev) = src_dev {
            self.tally.cost.record_egress(&self.env.fleet, dev, bytes);
        }
    }

    /// Global-flow delivery of `slot`'s item from node `src` (sent by
    /// `src_dev`): present at once when co-located; otherwise billed, then
    /// streamed after the route's propagation latency, or stalled until a
    /// link restore when no route survives.
    fn send(
        &mut self,
        now: SimTime,
        req: usize,
        slot: u32,
        src_dev: Option<DeviceId>,
        src: NodeId,
        made_present: &mut Vec<(usize, u32)>,
    ) {
        let (item, dst) = {
            let s = &self.states[req].slots[slot as usize];
            (s.item, s.node)
        };
        if src == dst {
            made_present.push((req, slot));
            return;
        }
        let bytes = req_ref(&self.requests, req).dag.data(item).bytes;
        self.bill(src_dev, bytes);
        match route(
            self.env,
            &mut self.rcache,
            src,
            dst,
            xfer_salt(self.gids[req], item),
            &self.dead_links,
            self.n_dead,
        ) {
            Some(path) => {
                self.queue
                    .schedule_at(now + path.latency, Ev::StartFlow { req, slot, bytes });
            }
            None => self.stall(now, req, slot, bytes),
        }
    }

    /// Park a transfer that found no surviving route until a link restore.
    fn stall(&mut self, now: SimTime, req: usize, slot: u32, bytes: u64) {
        assert!(self.n_dead > 0, "disconnected topology");
        self.obs.stall(now, self.gids[req]);
        self.stalled.push((req, slot, bytes));
    }

    /// First-fit scan of one device's ready queue: start every queued
    /// task that fits in the currently free cores.
    fn dispatch_queue(&mut self, di: usize, now: SimTime) {
        let spec = &self.env.fleet.devices()[di].spec;
        let mut i = 0;
        while i < self.device_q[di].len() {
            let (req, t) = self.device_q[di][i];
            let task = req_ref(&self.requests, req).dag.task(t);
            let need = task.occupancy(spec.cores);
            if need <= self.free_cores[di] && !self.states[req].started[t.0 as usize] {
                self.device_q[di].remove(i);
                self.free_cores[di] -= need;
                self.states[req].started[t.0 as usize] = true;
                let dur = spec.compute_time_parallel(task.work_flops, task.parallelism);
                let dev_id = self.assign[req][t.0 as usize];
                debug_assert_eq!(dev_id.0 as usize, di);
                self.running[di].push((req, t, self.records.len()));
                self.records.push(TaskRecord {
                    request: self.gids[req],
                    task: t,
                    device: dev_id,
                    cores: need,
                    start: now,
                    finish: now + dur,
                });
                self.tally
                    .energy
                    .record_busy(&self.env.fleet, dev_id, need, dur);
                self.tally
                    .cost
                    .record_occupancy(&self.env.fleet, dev_id, need, dur);
                let epoch = self.attempt_no[req][t.0 as usize];
                self.pending_fin[req] += 1;
                let fin = Ev::TaskFinished {
                    req,
                    task: t,
                    epoch,
                };
                if self.part.is_some() {
                    let key = part_key(K_FIN, self.gids[req] as u64, u64::from(t.0), 0);
                    self.queue.schedule_keyed_at(now + dur, key, fin);
                } else {
                    self.queue.schedule_at(now + dur, fin);
                }
            } else {
                i += 1;
            }
        }
    }

    /// Re-place one orphaned task onto a surviving device, re-resolving
    /// its inputs at the new node: items already present there are
    /// reused, items in flight are awaited, missing items are re-fetched
    /// from their home or their (finished) producer's current node, and
    /// items whose producer has not finished yet will be delivered by the
    /// producer's publish (the waiter registration below is what its
    /// publish scan picks up).
    ///
    /// If no feasible device is alive right now the task parks until the
    /// next recovery event.
    fn replace_task(
        &mut self,
        req: usize,
        task: TaskId,
        now: SimTime,
        dispatch_devices: &mut Vec<usize>,
        made_present: &mut Vec<(usize, u32)>,
    ) {
        let env = self.env;
        let r = req_ref(&self.requests, req);
        let gid = self.gids[req];
        let t = r.dag.task(task);
        let ins = self.plans[req].inputs_of(task);
        // Where each input can be fetched from right now, for the placer's
        // finish estimate (external items from home; produced items from
        // the producer's current device).
        let assign_req = &self.assign[req];
        let input_view: Vec<(NodeId, SimTime, u64)> = ins
            .iter()
            .map(|&d| {
                let item = r.dag.data(d);
                let src = match r.dag.producer(d) {
                    None => item.home.expect("validated dag: external has home"),
                    Some(p) => env.node_of(assign_req[p.0 as usize]),
                };
                (src, now, item.bytes)
            })
            .collect();
        let placer = self
            .placer
            .as_mut()
            .expect("re-placement implies a fault plane");
        let Some((dev, _fin)) = placer.place_task(env, t, &input_view, now, &self.dev_up) else {
            self.obs.park(now, gid, task);
            self.parked.push((req, task));
            return;
        };
        self.assign[req][task.0 as usize] = dev;
        self.tally.replacements += 1;
        self.obs.replaced(now, gid, task, dev);
        let dst = env.node_of(dev);
        let mut fetches: Vec<(u32, Option<DeviceId>, NodeId)> = Vec::new();
        let st = &mut self.states[req];
        let mut miss = 0u32;
        for &d in self.plans[req].inputs_of(task) {
            let slot = st.intern(d, dst);
            match st.slots[slot as usize].state {
                SlotState::Present => continue,
                SlotState::InFlight => {
                    miss += 1;
                    let w = &mut st.slots[slot as usize].waiters;
                    if !w.contains(&task) {
                        w.push(task);
                    }
                    continue;
                }
                SlotState::Absent => {}
            }
            miss += 1;
            let w = &mut st.slots[slot as usize].waiters;
            if !w.contains(&task) {
                w.push(task);
            }
            // Can the item be fetched right now, from which device and
            // node?
            let fetch = match r.dag.producer(d) {
                None => {
                    let home = r
                        .dag
                        .data(d)
                        .home
                        .expect("validated dag: external has home");
                    Some((env.fleet.at_node(home).first().copied(), home))
                }
                Some(p) => self.finished[req][p.0 as usize].then(|| {
                    let pdev = self.assign[req][p.0 as usize];
                    (Some(pdev), env.node_of(pdev))
                }),
            };
            let Some((src_dev, src)) = fetch else {
                continue; // producer unfinished: its publish will deliver
            };
            st.slots[slot as usize].state = SlotState::InFlight;
            self.inflight[req] += 1;
            fetches.push((slot, src_dev, src));
        }
        st.missing[task.0 as usize] = miss;
        for (slot, src_dev, src) in fetches {
            self.send(now, req, slot, src_dev, src, made_present);
        }
        if miss == 0 {
            self.device_q[dev.0 as usize].push_back((req, task));
            dispatch_devices.push(dev.0 as usize);
        }
    }

    /// Switch the core to open-loop streaming *before* any request is
    /// injected: completed requests retire (slots freed and reused, their
    /// finishes logged for the gate) and task records compact into
    /// histograms. Closed-loop cores never call this, so their behavior is
    /// untouched.
    pub(crate) fn enable_streaming(&mut self) {
        assert!(
            self.requests.is_empty(),
            "enable streaming before injecting requests"
        );
        self.sink = Some(StreamSink::new(self.env.fleet.len()));
        self.compact_at = 4096;
    }

    /// Switch the core to partitioned ("pinned-task") execution *before*
    /// pumping any event: tasks run exactly where they were placed, each
    /// owned region gets its own flow domain, and transfer stages bound
    /// for regions other cores own leave through [`Self::take_outbox`].
    /// Incompatible with the infrastructure fault plane — re-placement
    /// would migrate tasks across region (hence shard) boundaries.
    pub(crate) fn enable_partition(&mut self, partition: &'a RegionPartition, owned: Vec<bool>) {
        assert!(
            self.plane.is_none(),
            "partitioned execution does not support the infrastructure fault plane"
        );
        assert_eq!(owned.len(), partition.len());
        let nets: Vec<Option<FlowNetwork>> = owned
            .iter()
            .map(|&o| o.then(|| FlowNetwork::new(&self.env.topology)))
            .collect();
        let nr = partition.len();
        let local_of_gid = self.gids.iter().enumerate().map(|(i, &g)| (g, i)).collect();
        self.part = Some(PartCtx {
            partition,
            owned,
            nets,
            pend: vec![None; nr],
            cont: vec![HashMap::new(); nr],
            outbox: Vec::new(),
            local_of_gid,
        });
    }

    /// Inject one placed request into a streaming core, reusing a retired
    /// slot when one is free. `gid` is the request's global id (monotonic
    /// per offered request — never reused), `r.arrival` must be `>=` every
    /// event already pumped.
    pub(crate) fn inject_request(&mut self, gid: usize, r: StreamRequest) {
        assert!(self.sink.is_some(), "inject_request requires streaming");
        assert!(
            !r.dag.is_empty(),
            "open-loop request needs at least one task"
        );
        assert_eq!(
            r.placement.assignment.len(),
            r.dag.len(),
            "placement does not match dag '{}'",
            r.dag.name
        );
        let arrival = r.arrival;
        let n = r.dag.len();
        let plan = ReqPlan::build(&r.dag);
        let state = ReqState::new(&r.dag, &plan);
        let assign = r.placement.assignment.clone();
        let entry = ReqEntry::Owned(Box::new(r));
        let slot = match self.free_slots.pop() {
            Some(s) => {
                debug_assert!(self.retired[s]);
                debug_assert_eq!(self.inflight[s], 0);
                debug_assert_eq!(self.pending_fin[s], 0);
                self.requests[s] = entry;
                self.gids[s] = gid;
                self.plans[s] = plan;
                self.states[s] = state;
                self.assign[s] = assign;
                self.attempt_no[s] = vec![0; n];
                self.finished[s] = vec![false; n];
                self.retired[s] = false;
                self.request_finish[s] = SimTime::ZERO;
                s
            }
            None => {
                let s = self.requests.len();
                self.requests.push(entry);
                self.gids.push(gid);
                self.plans.push(plan);
                self.states.push(state);
                self.assign.push(assign);
                self.attempt_no.push(vec![0; n]);
                self.finished.push(vec![false; n]);
                self.retired.push(false);
                self.inflight.push(0);
                self.pending_fin.push(0);
                self.request_finish.push(SimTime::ZERO);
                s
            }
        };
        self.live_gids.insert(gid);
        if let Some(part) = self.part.as_mut() {
            part.local_of_gid.insert(gid, slot);
        }
        self.queue.schedule_at(arrival, Ev::Arrival(slot));
    }

    /// Drain the retire-scan list, retiring every request whose
    /// preconditions all hold, then compact the record buffer if it grew
    /// past the watermark. Called by `pump` after each event so a stale
    /// `TaskFinished` can never observe a half-retired slot.
    fn process_retirements(&mut self) {
        while let Some(req) = self.retire_scan.pop() {
            self.try_retire(req);
        }
        if self.sink.is_some() {
            let len = self.records.len();
            let sink = self.sink.as_mut().expect("checked");
            sink.peak_record_buf = sink.peak_record_buf.max(len);
            if len >= self.compact_at {
                self.compact_records();
            }
        }
    }

    /// Retire `req` if every precondition holds: all tasks finished, no
    /// delivery in flight toward any of its slots, and no scheduled
    /// `TaskFinished` still unpopped. Frees the per-request state in both
    /// modes (it is dead weight either way); in streaming mode the slot
    /// additionally returns to the free list for reuse and the request's
    /// local finish is logged for the gate.
    fn try_retire(&mut self, req: usize) {
        if self.retired[req]
            || self.states[req].unfinished != 0
            || self.inflight[req] != 0
            || self.pending_fin[req] != 0
        {
            return;
        }
        self.retired[req] = true;
        let n_tasks = req_ref(&self.requests, req).dag.len() as u32;
        for t in 0..n_tasks {
            self.attempts.remove(&(req, t));
        }
        let st = &mut self.states[req];
        st.missing = Vec::new();
        st.started = Vec::new();
        st.slot_of = HashMap::new();
        st.slots = Vec::new();
        st.item_slots = Vec::new();
        st.fanout = Vec::new();
        self.plans[req] = ReqPlan {
            in_off: Vec::new(),
            inputs: Vec::new(),
            n_items: 0,
        };
        self.assign[req] = Vec::new();
        self.attempt_no[req] = Vec::new();
        self.finished[req] = Vec::new();
        let gid = self.gids[req];
        if let Some(part) = self.part.as_mut() {
            part.local_of_gid.remove(&gid);
        }
        if let Some(sink) = self.sink.as_mut() {
            sink.finished.push((gid, self.request_finish[req]));
            self.live_gids.remove(&gid);
            self.requests[req] = ReqEntry::Free;
            self.free_slots.push(req);
        }
    }

    /// Fold the task records of retired requests into the sink and keep
    /// only live ones, remapping the record indices held by `running`.
    /// The next compaction triggers at twice the surviving length, so the
    /// buffer stays proportional to the live-request working set.
    fn compact_records(&mut self) {
        let sink = self.sink.as_mut().expect("compaction is streaming-only");
        let old = std::mem::take(&mut self.records);
        sink.peak_record_buf = sink.peak_record_buf.max(old.len());
        let mut new_of_old: Vec<u32> = vec![u32::MAX; old.len()];
        let mut kept: Vec<TaskRecord> = Vec::new();
        for (i, rec) in old.into_iter().enumerate() {
            if self.live_gids.contains(&rec.request) {
                new_of_old[i] = kept.len() as u32;
                kept.push(rec);
            } else {
                sink.records_folded += 1;
                sink.task_duration.observe(rec.duration().0);
                sink.tasks_by_device[rec.device.0 as usize] += 1;
            }
        }
        self.records = kept;
        for dev in &mut self.running {
            for (_, _, rec) in dev.iter_mut() {
                let m = new_of_old[*rec];
                debug_assert!(m != u32::MAX, "running attempt's record was folded");
                *rec = m as usize;
            }
        }
        self.compact_at = (2 * self.records.len()).max(4096);
    }

    /// Tear a fully drained *streaming* core down into its bounded
    /// aggregates. The streaming analogue of [`Self::finish`]: asserts the
    /// conservation invariant (every injected request retired) and folds
    /// any remaining records.
    pub(crate) fn finish_open(mut self) -> OpenCoreParts {
        let snap = self.drained_snapshot();
        assert!(
            self.live_gids.is_empty(),
            "open-loop run left live requests behind"
        );
        self.compact_records();
        debug_assert!(self.records.is_empty());
        let sink = self.sink.take().expect("finish_open requires streaming");
        OpenCoreParts {
            task_duration: sink.task_duration,
            tasks_by_device: sink.tasks_by_device,
            tasks_executed: sink.records_folded,
            peak_record_buf: sink.peak_record_buf,
            tally: self.tally,
            snap,
        }
    }

    /// Lifetime counters of every flow engine this core drove: the global
    /// network plus, in partition mode, each owned region's domain.
    fn flow_stats(&self) -> FlowEngineStats {
        let mut stats = self.network.engine_stats();
        for net in self.part.iter().flat_map(|p| p.nets.iter().flatten()) {
            stats += net.engine_stats();
        }
        stats
    }

    /// Teardown check of both finishes: no task left unfinished and, in
    /// partition mode, no transfer still streaming, staged for handoff, or
    /// awaiting a completion event. Returns the core's component counters
    /// when an ambient sink asked for them.
    fn drained_snapshot(&self) -> Option<MetricsSnapshot> {
        for st in &self.states {
            assert_eq!(st.unfinished, 0, "deadlock: tasks never became ready");
        }
        if let Some(part) = &self.part {
            debug_assert!(part.outbox.is_empty(), "undelivered cross-core transfers");
            debug_assert!(
                part.cont.iter().all(|c| c.is_empty()),
                "in-flight transfers at teardown"
            );
            debug_assert!(part.pend.iter().all(|p| p.is_none()));
        }
        self.collect
            .then(|| harvest_core_metrics(&self.rcache, &self.queue, self.flow_stats(), &self.obs))
    }

    /// Tear the core down into mergeable parts. Asserts the conservation
    /// invariant (no task left unfinished).
    pub(crate) fn finish(self) -> CoreParts {
        debug_assert!(self.sink.is_none(), "streaming cores use finish_open");
        let snap = self.drained_snapshot();
        CoreParts {
            request_finish: self
                .gids
                .iter()
                .copied()
                .zip(self.request_finish.iter().copied())
                .collect(),
            records: self.records,
            tally: self.tally,
            marks: self.obs.marks,
            snap,
        }
    }
}

/// Static shard geometry for the Perfetto synthesizer: which shard owns
/// each device and region. Built by the sharded executors (trace-on runs
/// only) so the exported timeline can put each shard on its own process
/// track and stitch cross-shard hops with flow arrows; `None` keeps the
/// single-process layout of the unsharded executor.
pub(crate) struct ShardLayout {
    /// Device id -> owning shard.
    pub(crate) shard_of_device: Vec<u32>,
    /// Region index -> owning shard.
    pub(crate) shard_of_region: Vec<u32>,
}

impl ShardLayout {
    /// Derive the device ownership map from region ownership.
    pub(crate) fn new(
        env: &Env,
        partition: &RegionPartition,
        shard_of_region: Vec<u32>,
    ) -> ShardLayout {
        let shard_of_device = (0..env.fleet.len())
            .map(|d| {
                let node = env.node_of(DeviceId(d as u32));
                shard_of_region[partition.region_of(node)]
            })
            .collect();
        ShardLayout {
            shard_of_device,
            shard_of_region,
        }
    }
}

/// Everything one [`ExecCore`] produced, ready to be merged into a
/// [`SimOutcome`] by [`assemble`].
pub(crate) struct CoreParts {
    /// Task records with *global* request indices (not yet canonical).
    records: Vec<TaskRecord>,
    /// `(global request index, finish time)` per request the core ran.
    request_finish: Vec<(usize, SimTime)>,
    tally: Tally,
    marks: Vec<(SimTime, ObsMark)>,
    /// Component counters (route cache, event queue, flow engine,
    /// executor tallies) harvested at core finish; `None` without an
    /// ambient sink.
    snap: Option<MetricsSnapshot>,
}

/// Bounded aggregates of one streaming [`ExecCore`] run, produced by
/// [`ExecCore::finish_open`]. Unlike [`CoreParts`] there is no per-request
/// or per-task payload here — everything is a histogram, counter, or
/// per-device vector, so its size is independent of how many requests the
/// run processed.
pub(crate) struct OpenCoreParts {
    /// Duration of every executed task attempt.
    pub(crate) task_duration: Histogram,
    /// Executed attempts per device id.
    pub(crate) tasks_by_device: Vec<u64>,
    /// Total executed task attempts.
    pub(crate) tasks_executed: u64,
    /// High-water mark of the compacting record buffer.
    pub(crate) peak_record_buf: usize,
    pub(crate) tally: Tally,
    /// Component counters harvested at finish; `None` without an ambient
    /// sink.
    pub(crate) snap: Option<MetricsSnapshot>,
}

/// Mergeable totals of one core, shared by both loops. Merging cores is
/// exact because cores never share state: every attempt, transfer and
/// device touch is counted by exactly one core, so counters add and the
/// per-device f64 vectors add elementwise with at most one nonzero operand
/// per index. Every core processes the whole fault schedule, so its event
/// counts are taken once.
pub(crate) struct Tally {
    pub(crate) bytes_moved: u64,
    pub(crate) transfers: u64,
    pub(crate) failed_attempts: u64,
    pub(crate) replacements: u64,
    pub(crate) killed_attempts: u64,
    pub(crate) device_crashes: u64,
    pub(crate) link_failures: u64,
    /// Execution seconds destroyed by crashes, per device id.
    lost_dev: Vec<f64>,
    /// Run-level joules and dollars are computed once the *global*
    /// makespan is known (a sharded run ends at the max across cores,
    /// which no single core can see).
    pub(crate) energy: EnergyMeter,
    pub(crate) cost: CostMeter,
}

impl Tally {
    fn new(env: &Env) -> Tally {
        Tally {
            bytes_moved: 0,
            transfers: 0,
            failed_attempts: 0,
            replacements: 0,
            killed_attempts: 0,
            device_crashes: 0,
            link_failures: 0,
            lost_dev: vec![0.0; env.fleet.len()],
            energy: EnergyMeter::new(&env.fleet),
            cost: CostMeter::new(&env.fleet),
        }
    }

    /// Merge the cores' totals (at least one) into the first.
    pub(crate) fn merge_all(tallies: impl IntoIterator<Item = Tally>) -> Tally {
        let mut it = tallies.into_iter();
        let mut t = it.next().expect("at least one core");
        for o in it {
            assert_eq!(
                (o.device_crashes, o.link_failures),
                (t.device_crashes, t.link_failures),
                "cores disagree on the fault schedule"
            );
            t.bytes_moved += o.bytes_moved;
            t.transfers += o.transfers;
            t.failed_attempts += o.failed_attempts;
            t.replacements += o.replacements;
            t.killed_attempts += o.killed_attempts;
            for (a, b) in t.lost_dev.iter_mut().zip(&o.lost_dev) {
                *a += b;
            }
            t.energy.merge(&o.energy);
            t.cost.merge(&o.cost);
        }
        t
    }

    /// Execution seconds destroyed by crashes, summed in device-id order
    /// (not crash-event order) so the total does not depend on how events
    /// interleaved across cores.
    pub(crate) fn lost_work_s(&self) -> f64 {
        self.lost_dev.iter().sum()
    }
}

/// Merge core parts into the final [`SimOutcome`].
///
/// The single-queue executor is `assemble` over exactly one part; the
/// pinned sharded executor merges one part per shard: records concatenate
/// and canonicalize, request finishes max-merge, and the [`Tally`]s
/// merge.
pub(crate) fn assemble(
    env: &Env,
    requests: &[StreamRequest],
    plane: Option<&FaultPlane>,
    layout: Option<&ShardLayout>,
    parts: Vec<CoreParts>,
) -> SimOutcome {
    let tele = continuum_obs::ambient();
    let mut trace = ExecutionTrace {
        request_arrival: requests.iter().map(|r| r.arrival).collect(),
        request_finish: vec![SimTime::ZERO; requests.len()],
        ..Default::default()
    };
    let mut tallies: Vec<Tally> = Vec::new();
    let mut marks: Vec<(SimTime, ObsMark)> = Vec::new();
    let mut snaps: Vec<MetricsSnapshot> = Vec::new();
    for p in parts {
        trace.records.extend(p.records);
        for (gid, fin) in p.request_finish {
            // Max-merge: under partitioned execution several cores run
            // disjoint pieces of one request, and the request finishes
            // when its *last* piece does. A lone core reports each gid
            // exactly once, so the max is the plain assignment there.
            trace.request_finish[gid] = trace.request_finish[gid].max(fin);
        }
        tallies.push(p.tally);
        marks.extend(p.marks);
        snaps.extend(p.snap);
    }
    let tally = Tally::merge_all(tallies);
    trace.bytes_moved = tally.bytes_moved;
    trace.transfers = tally.transfers;
    trace.failed_attempts = tally.failed_attempts;
    trace.replacements = tally.replacements;
    trace.killed_attempts = tally.killed_attempts;
    trace.device_crashes = tally.device_crashes;
    trace.link_failures = tally.link_failures;
    trace.lost_work_s = tally.lost_work_s();
    trace.canonicalize();
    let makespan = trace.makespan();
    let metrics = Metrics {
        makespan_s: makespan.as_secs_f64(),
        energy_j: tally.energy.used_devices_joules(&env.fleet, makespan),
        cost_usd: tally.cost.total_usd(),
        bytes_moved: trace.bytes_moved,
    };
    // Harvest telemetry only now, outside the event loops: run-level
    // counters from the merged trace, plus each core's component
    // snapshot, folded into the ambient sink and attached to the outcome.
    let telemetry = tele.map(|t| {
        let mut snap = harvest_run_metrics(&trace, &metrics);
        for s in &snaps {
            snap.merge(s);
        }
        FlowEngineStats::publish_mean_batch(&mut snap, "flow_engine");
        t.metrics.absorb(&snap);
        if t.trace_enabled() {
            synthesize_trace(&t, env, plane, layout, &trace, &marks);
        }
        Box::new(snap)
    });
    SimOutcome {
        trace,
        metrics,
        telemetry,
    }
}

/// Fold one finished run's merged totals into a fresh
/// [`MetricsSnapshot`]: the run-level half of the per-run record embedded
/// in [`SimOutcome::telemetry`] (the per-core component half comes from
/// [`harvest_core_metrics`]).
fn harvest_run_metrics(trace: &ExecutionTrace, metrics: &Metrics) -> MetricsSnapshot {
    let reg = MetricsRegistry::new();
    reg.inc("executor.runs", 1);
    reg.record("executor.replacements", trace.replacements);
    reg.record("executor.device_crashes", trace.device_crashes);
    reg.record("executor.link_failures", trace.link_failures);
    reg.record("executor.killed_attempts", trace.killed_attempts);
    reg.record("executor.failed_attempts", trace.failed_attempts);
    reg.inc("executor.transfers", trace.transfers);
    reg.inc("executor.bytes_moved", trace.bytes_moved);
    reg.set_gauge("executor.makespan_s", metrics.makespan_s);
    reg.set_gauge("executor.lost_work_s", trace.lost_work_s);
    for rec in &trace.records {
        reg.observe_ns("executor.task_duration", rec.finish.since(rec.start).0);
        reg.inc_labeled("device.tasks", rec.device.0, 1);
    }
    for lat in trace.latencies_s() {
        reg.observe_ns(
            "executor.request_latency",
            SimDuration::from_secs_f64(lat).0,
        );
    }
    reg.snapshot()
}

/// Fold one core's component counters (route cache, event queue, flow
/// engines, executor tallies) into a fresh [`MetricsSnapshot`]. Counters
/// and histograms from different cores merge additively; the flow
/// engine's mean-batch ratio is derived once from the merged counters
/// (see [`FlowEngineStats::publish_mean_batch`]).
fn harvest_core_metrics(
    rcache: &RouteCache,
    queue: &EventQueue<Ev>,
    flow: FlowEngineStats,
    obs: &ExecObs,
) -> MetricsSnapshot {
    let reg = MetricsRegistry::new();
    rcache.publish_metrics(&reg, "route_cache");
    queue.publish_metrics(&reg, "event_queue");
    flow.publish_metrics(&reg, "flow_engine");
    reg.record("executor.stalls", obs.stalls);
    reg.inc("executor.publishes", obs.publishes);
    reg.inc("executor.publish_fanout", obs.publish_fanout);
    reg.record("executor.parked", obs.parked);
    reg.snapshot()
}

/// Synthesize the run's Perfetto timeline into the sink's tracer, from
/// data the run already produced — zero cost inside the event loop:
///
/// - one `B`/`E` span per request on its own thread track (pairs nest
///   trivially: exactly one span per track);
/// - one `X` slice per task attempt on its device's track — on the
///   owning *shard's* process track when a [`ShardLayout`] is given, so
///   a sharded run opens in Perfetto as one process per shard;
/// - `s`/`f` flow arrows stitching each cross-shard envelope hop from
///   the sending shard's transfer track to the receiving shard's, with
///   one deterministic id per `(request, item, hop)`;
/// - instants for fault-plane events (tid 0) and for the stall /
///   re-placement / park marks recorded in-loop (request tracks);
/// - `M` metadata naming every process and thread track.
fn synthesize_trace(
    tele: &Telemetry,
    env: &Env,
    plane: Option<&FaultPlane>,
    layout: Option<&ShardLayout>,
    trace: &ExecutionTrace,
    marks: &[(SimTime, ObsMark)],
) {
    let pid = tele.pid();
    let tr = &tele.tracer;
    const REQ_TID_BASE: u32 = 100;
    const DEV_TID_BASE: u32 = 10_000;
    const XFER_TID: u32 = 1;
    // Shard s renders as its own process so its device and transfer
    // tracks group together; the base pid keeps the run-level tracks
    // (requests, faults). Cell pids are small (one per experiment cell),
    // so the multiplication cannot collide across cells.
    let shard_pid = |s: u32| pid * 1_000 + 1 + s;
    let mut named_shards: Vec<bool> = Vec::new();
    let mut name_shard = |tr: &Tracer, s: u32| {
        let si = s as usize;
        if si >= named_shards.len() {
            named_shards.resize(si + 1, false);
        }
        if !named_shards[si] {
            named_shards[si] = true;
            tr.process_name(shard_pid(s), format!("shard {s}"));
            tr.thread_name(shard_pid(s), XFER_TID, "xfer");
        }
    };
    tr.process_name(pid, "continuum executor");
    tr.thread_name(pid, 0, "faults");
    for (i, (&arr, &fin)) in trace
        .request_arrival
        .iter()
        .zip(&trace.request_finish)
        .enumerate()
    {
        let tid = REQ_TID_BASE + i as u32;
        tr.thread_name(pid, tid, format!("request {i}"));
        tr.span_begin(format!("request {i}"), "request", arr.0, pid, tid);
        tr.span_end(format!("request {i}"), "request", fin.0, pid, tid);
    }
    let mut named_devs = vec![false; env.fleet.len()];
    for rec in &trace.records {
        let di = rec.device.0 as usize;
        let tid = DEV_TID_BASE + rec.device.0;
        let dev_pid = match layout {
            Some(l) => {
                let s = l.shard_of_device[di];
                name_shard(tr, s);
                shard_pid(s)
            }
            None => pid,
        };
        if !named_devs[di] {
            named_devs[di] = true;
            tr.thread_name(dev_pid, tid, format!("dev {di}"));
        }
        tr.complete(
            format!("r{}:t{}", rec.request, rec.task.0),
            "task",
            rec.start.0,
            rec.finish.since(rec.start).0,
            dev_pid,
            tid,
            vec![("cores", serde::Value::U64(u64::from(rec.cores)))],
        );
    }
    if let Some(p) = plane {
        for fe in p.schedule.events() {
            let name = match fe.kind {
                FaultKind::DeviceCrash => format!("crash dev {}", fe.target),
                FaultKind::DeviceRecover => format!("recover dev {}", fe.target),
                FaultKind::LinkFail => format!("fail link {}", fe.target),
                FaultKind::LinkRestore => format!("restore link {}", fe.target),
                FaultKind::EndpointCrash | FaultKind::EndpointRecover => continue,
            };
            tr.instant(name, "fault", fe.at.0, pid, 0);
        }
    }
    for (at, mark) in marks {
        let (name, req) = match mark {
            ObsMark::Stall { req } => (format!("stall r{req}"), *req),
            ObsMark::Replace { req, task, dev } => {
                (format!("replace r{req}:t{} -> dev {}", task.0, dev.0), *req)
            }
            ObsMark::Park { req, task } => (format!("park r{req}:t{}", task.0), *req),
            ObsMark::FlowOut {
                gid,
                item,
                hop,
                from_region,
                to_region,
            } => {
                let Some(l) = layout else { continue };
                let s = l.shard_of_region[*from_region as usize];
                name_shard(tr, s);
                name_shard(tr, l.shard_of_region[*to_region as usize]);
                tr.flow_start(
                    format!("r{gid}:d{} hop {hop}", item.0),
                    "xfer",
                    at.0,
                    shard_pid(s),
                    XFER_TID,
                    flow_hop_id(*gid, *item, *hop),
                );
                // Anchor instants give the arrow endpoints a slice to
                // attach to on the otherwise-empty transfer tracks.
                tr.instant(
                    format!("send r{gid}:d{}", item.0),
                    "xfer",
                    at.0,
                    shard_pid(s),
                    XFER_TID,
                );
                continue;
            }
            ObsMark::FlowIn {
                gid,
                item,
                hop,
                at_region,
            } => {
                let Some(l) = layout else { continue };
                let s = l.shard_of_region[*at_region as usize];
                name_shard(tr, s);
                tr.flow_end(
                    format!("r{gid}:d{} hop {hop}", item.0),
                    "xfer",
                    at.0,
                    shard_pid(s),
                    XFER_TID,
                    flow_hop_id(*gid, *item, *hop),
                );
                tr.instant(
                    format!("recv r{gid}:d{}", item.0),
                    "xfer",
                    at.0,
                    shard_pid(s),
                    XFER_TID,
                );
                continue;
            }
        };
        tr.instant(name, "chaos", at.0, pid, REQ_TID_BASE + req as u32);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use continuum_model::{standard_fleet, DeviceClass, Fleet};
    use continuum_net::{continuum, ContinuumSpec, Tier, Topology};
    use continuum_placement::{evaluate, HeftPlacer, Placer};
    use continuum_sim::SimDuration;

    /// Two-node world: edge (slow) and cloud (fast) joined by one link.
    fn two_node(bandwidth: f64) -> (Env, NodeId, NodeId) {
        let mut topo = Topology::new();
        let e = topo.add_node("edge", Tier::Edge);
        let c = topo.add_node("cloud", Tier::Cloud);
        topo.add_link(e, c, SimDuration::from_millis(10), bandwidth);
        let mut fleet = Fleet::new();
        fleet.add_class(e, DeviceClass::EdgeGateway);
        fleet.add_class(c, DeviceClass::CloudVm);
        (Env::new(topo, fleet), e, c)
    }

    fn local_task_dag(node: NodeId, work: f64) -> Dag {
        let mut g = Dag::new("one");
        let input = g.add_input("in", 1000, node);
        let out = g.add_item("out", 10);
        g.add_task("t", work, vec![input], vec![out]);
        g
    }

    #[test]
    fn single_local_task_time_matches_spec() {
        let (env, e, _) = two_node(1e9);
        let dag = local_task_dag(e, 1.2e10);
        let placement = Placement {
            assignment: vec![continuum_model::DeviceId(0)],
        };
        let out = simulate(&env, &dag, &placement);
        let spec = &env.fleet.device(continuum_model::DeviceId(0)).spec;
        let expected = spec.compute_time(1.2e10).as_secs_f64();
        assert!((out.metrics.makespan_s - expected).abs() < 1e-6);
        assert_eq!(out.trace.bytes_moved, 0);
    }

    #[test]
    fn remote_task_pays_latency_and_bandwidth() {
        let (env, e, _c) = two_node(1e6);
        let dag = local_task_dag(e, 6e11);
        // Run on the cloud device (index 1): the 1000-byte input must move.
        let placement = Placement {
            assignment: vec![continuum_model::DeviceId(1)],
        };
        let out = simulate(&env, &dag, &placement);
        let spec = &env.fleet.device(continuum_model::DeviceId(1)).spec;
        let expected = 0.010 + 1000.0 / 1e6 + spec.compute_time(6e11).as_secs_f64();
        assert!(
            (out.metrics.makespan_s - expected).abs() < 1e-3,
            "got {} want {}",
            out.metrics.makespan_s,
            expected
        );
        assert_eq!(out.trace.bytes_moved, 1000);
        assert_eq!(out.trace.transfers, 1);
    }

    #[test]
    fn queueing_serializes_beyond_core_count() {
        let (env, e, _) = two_node(1e9);
        // 9 independent 1-core tasks on the 4-core edge gateway.
        let mut g = Dag::new("fanout");
        let input = g.add_input("in", 10, e);
        for i in 0..9 {
            let out = g.add_item(format!("o{i}"), 1);
            g.add_task(format!("t{i}"), 3e9, vec![input], vec![out]);
        }
        let placement = Placement {
            assignment: vec![continuum_model::DeviceId(0); 9],
        };
        let out = simulate(&env, &g, &placement);
        let one = env
            .fleet
            .device(continuum_model::DeviceId(0))
            .spec
            .compute_time(3e9);
        // 9 tasks on 4 cores -> 3 waves.
        let expected = one.as_secs_f64() * 3.0;
        assert!(
            (out.metrics.makespan_s - expected).abs() < 1e-6,
            "got {} want {}",
            out.metrics.makespan_s,
            expected
        );
    }

    #[test]
    fn concurrent_transfers_share_the_link() {
        let (env, e, _c) = two_node(1e6);
        // Two tasks in the cloud, each pulling a distinct 1 MB input from
        // the edge: fair sharing doubles the serialization time.
        let mut g = Dag::new("contend");
        let i1 = g.add_input("i1", 1_000_000, e);
        let i2 = g.add_input("i2", 1_000_000, e);
        let o1 = g.add_item("o1", 1);
        let o2 = g.add_item("o2", 1);
        g.add_task("t1", 1e6, vec![i1], vec![o1]);
        g.add_task("t2", 1e6, vec![i2], vec![o2]);
        let placement = Placement {
            assignment: vec![continuum_model::DeviceId(1), continuum_model::DeviceId(1)],
        };
        let out = simulate(&env, &g, &placement);
        // Both transfers share 1e6 B/s: each effectively 0.5e6 B/s -> 2s,
        // plus 10ms latency, plus ~1.7ms compute.
        assert!(
            out.metrics.makespan_s > 2.0,
            "contention not modeled: {}",
            out.metrics.makespan_s
        );
        assert!(out.metrics.makespan_s < 2.1);
    }

    #[test]
    fn same_item_to_same_node_transfers_once() {
        let (env, e, _c) = two_node(1e6);
        let mut g = Dag::new("dedupe");
        let input = g.add_input("in", 1_000_000, e);
        let o1 = g.add_item("o1", 1);
        let o2 = g.add_item("o2", 1);
        g.add_task("t1", 1e6, vec![input], vec![o1]);
        g.add_task("t2", 1e6, vec![input], vec![o2]);
        let placement = Placement {
            assignment: vec![continuum_model::DeviceId(1), continuum_model::DeviceId(1)],
        };
        let out = simulate(&env, &g, &placement);
        assert_eq!(out.trace.transfers, 1);
        assert_eq!(out.trace.bytes_moved, 1_000_000);
    }

    #[test]
    fn duplicate_inputs_counted_once() {
        // A task listing the same input twice must need it only once (the
        // ReqPlan dedupes); regression for the CSR input-plan build.
        let (env, e, _c) = two_node(1e6);
        let mut g = Dag::new("dup");
        let input = g.add_input("in", 1_000, e);
        let out = g.add_item("out", 1);
        g.add_task("t", 1e6, vec![input, input, input], vec![out]);
        let placement = Placement {
            assignment: vec![continuum_model::DeviceId(1)],
        };
        let res = simulate(&env, &g, &placement);
        assert_eq!(res.trace.transfers, 1);
        assert_eq!(res.trace.records.len(), 1);
    }

    #[test]
    fn dependencies_respected_on_real_workflow() {
        let built = continuum(&ContinuumSpec::default());
        let env = Env::new(built.topology.clone(), standard_fleet(&built));
        let mut rng = continuum_sim::Rng::new(19);
        let dag = continuum_workflow::layered_random(
            &mut rng,
            &continuum_workflow::LayeredSpec {
                tasks: 80,
                ..Default::default()
            },
        );
        let placement = HeftPlacer::default().place(&env, &dag);
        let out = simulate(&env, &dag, &placement);
        assert!(out.trace.respects_dependencies(&[&dag]));
        assert_eq!(out.trace.records.len(), dag.len());
    }

    #[test]
    fn simulation_close_to_estimate_without_contention() {
        // A chain has no concurrent transfers or queueing, so the simulated
        // makespan must match the analytic estimate almost exactly.
        let (env, e, _) = two_node(1e8);
        let mut g = Dag::new("chain");
        let mut prev = g.add_input("in", 1 << 20, e);
        for i in 0..5 {
            let out = g.add_item(format!("d{i}"), 1 << 20);
            g.add_task(format!("t{i}"), 1e10, vec![prev], vec![out]);
            prev = out;
        }
        let placement = HeftPlacer::default().place(&env, &g);
        let (sched, est) = evaluate(&env, &g, &placement);
        let sim = simulate(&env, &g, &placement);
        assert!(sched.respects_dependencies(&g));
        let rel = (sim.metrics.makespan_s - est.makespan_s).abs() / est.makespan_s;
        assert!(
            rel < 0.01,
            "sim {} vs est {}",
            sim.metrics.makespan_s,
            est.makespan_s
        );
    }

    #[test]
    fn stream_requests_tracked_independently() {
        let (env, e, _) = two_node(1e9);
        let mk = |arr: u64| StreamRequest {
            arrival: SimTime::from_secs(arr),
            dag: local_task_dag(e, 1.2e10),
            placement: Placement {
                assignment: vec![continuum_model::DeviceId(0)],
            },
        };
        let out = simulate_stream(&env, &[mk(0), mk(10)]);
        let lats = out.trace.latencies_s();
        assert_eq!(lats.len(), 2);
        // Both requests see an idle device: equal latency.
        assert!((lats[0] - lats[1]).abs() < 1e-9);
        assert!(out.trace.request_finish[1] > SimTime::from_secs(10));
    }

    #[test]
    fn egress_billed_to_producing_device() {
        // Two devices at the edge node with different egress rates: the
        // producer's bytes must be billed to the device that ran the
        // producer, not to whichever device happens to be first at the
        // node (the seed's `at_node(src).first()` bug).
        let mut topo = Topology::new();
        let e = topo.add_node("edge", Tier::Edge);
        let c = topo.add_node("cloud", Tier::Cloud);
        topo.add_link(e, c, SimDuration::from_millis(1), 1e9);
        let mut fleet = Fleet::new();
        let free_spec = continuum_model::DeviceSpec {
            egress_usd_per_gb: 0.0,
            usd_per_hour: 0.0,
            ..fleet_spec(DeviceClass::EdgeGateway)
        };
        let paid_spec = continuum_model::DeviceSpec {
            egress_usd_per_gb: 5.0,
            usd_per_hour: 0.0,
            ..fleet_spec(DeviceClass::EdgeGateway)
        };
        let _free = fleet.add(e, free_spec); // device 0, first at the node
        let paid = fleet.add(e, paid_spec); // device 1: runs the producer
        let sink_spec = continuum_model::DeviceSpec {
            usd_per_hour: 0.0,
            egress_usd_per_gb: 0.0,
            ..fleet_spec(DeviceClass::CloudVm)
        };
        let sink = fleet.add(c, sink_spec);
        let env = Env::new(topo, fleet);

        let mut g = Dag::new("egress");
        // External input homed at the edge so the producer runs locally.
        let input = g.add_input("in", 1, e);
        let mid = g.add_item("mid", 2_000_000_000); // 2 GB crosses the link
        let out = g.add_item("out", 1);
        g.add_task("produce", 1e6, vec![input], vec![mid]);
        g.add_task("consume", 1e6, vec![mid], vec![out]);
        let placement = Placement {
            assignment: vec![paid, sink],
        };
        let res = simulate(&env, &g, &placement);
        // 2 GB at $5/GB from the *paid* device: $10. Under the seed's
        // first-device attribution this was $0.
        assert!(
            (res.metrics.cost_usd - 10.0).abs() < 1e-9,
            "egress misattributed: cost {}",
            res.metrics.cost_usd
        );
    }

    fn fleet_spec(class: DeviceClass) -> continuum_model::DeviceSpec {
        // A throwaway fleet to borrow the catalog spec for a class.
        let mut topo = Topology::new();
        let n = topo.add_node("x", Tier::Edge);
        let mut fleet = Fleet::new();
        let d = fleet.add_class(n, class);
        fleet.device(d).spec.clone()
    }
}

#[cfg(test)]
mod chaos_tests {
    use super::*;
    use continuum_model::{standard_fleet, DeviceClass, Fleet};
    use continuum_net::{Tier, Topology};
    use continuum_placement::{HeftPlacer, Placer};
    use continuum_sim::FaultSchedule;

    fn world() -> (Env, Dag, Placement) {
        let built = continuum_net::continuum(&continuum_net::ContinuumSpec::default());
        let env = Env::new(built.topology.clone(), standard_fleet(&built));
        let mut rng = continuum_sim::Rng::new(7);
        let dag = continuum_workflow::layered_random(
            &mut rng,
            &continuum_workflow::LayeredSpec {
                tasks: 60,
                ..Default::default()
            },
        );
        let placement = HeftPlacer::default().place(&env, &dag);
        (env, dag, placement)
    }

    fn as_reqs(dag: &Dag, placement: &Placement) -> Vec<StreamRequest> {
        vec![StreamRequest {
            arrival: SimTime::ZERO,
            dag: dag.clone(),
            placement: placement.clone(),
        }]
    }

    #[test]
    fn empty_fault_plane_is_bit_identical() {
        let (env, dag, placement) = world();
        let clean = simulate(&env, &dag, &placement);
        let plane = FaultPlane {
            schedule: FaultSchedule::new(),
            detection: SimDuration::from_millis(250),
        };
        let chaos = simulate_stream_chaos(&env, &as_reqs(&dag, &placement), None, Some(&plane));
        // Exact equality, not approximate: the zero-fault chaos path must
        // take the same decisions in the same order.
        assert_eq!(clean.metrics.makespan_s, chaos.metrics.makespan_s);
        assert_eq!(clean.metrics.energy_j, chaos.metrics.energy_j);
        assert_eq!(clean.metrics.cost_usd, chaos.metrics.cost_usd);
        assert_eq!(clean.trace.bytes_moved, chaos.trace.bytes_moved);
        assert_eq!(clean.trace.records.len(), chaos.trace.records.len());
        assert_eq!(clean.trace.request_finish, chaos.trace.request_finish);
        assert_eq!(chaos.trace.device_crashes, 0);
        assert_eq!(chaos.trace.replacements, 0);
        assert_eq!(chaos.trace.lost_work_s, 0.0);
    }

    #[test]
    fn device_crash_replaces_orphans_on_survivors() {
        let (env, dag, placement) = world();
        let clean = simulate(&env, &dag, &placement);
        // Crash the device running the longest task, mid-execution, and
        // keep it down past the clean makespan so nothing restarts there.
        let longest = clean
            .trace
            .records
            .iter()
            .max_by_key(|r| (r.duration(), r.task.0))
            .expect("non-empty trace");
        let crash_at = SimTime::from_secs_f64(
            (longest.start.as_secs_f64() + longest.finish.as_secs_f64()) / 2.0,
        );
        let mut schedule = FaultSchedule::new();
        schedule.crash_and_recover(
            FaultKind::DeviceCrash,
            longest.device.0,
            crash_at,
            SimDuration::from_secs_f64(clean.metrics.makespan_s * 10.0 + 60.0),
        );
        let plane = FaultPlane {
            schedule,
            detection: SimDuration::from_millis(250),
        };
        let chaos = simulate_stream_chaos(&env, &as_reqs(&dag, &placement), None, Some(&plane));
        // Everything still completes (the final conservation assert inside
        // the executor also guarantees this), work moved, work was lost.
        assert_eq!(chaos.trace.device_crashes, 1);
        assert!(
            chaos.trace.killed_attempts >= 1,
            "mid-task crash kills work"
        );
        assert!(chaos.trace.lost_work_s > 0.0);
        assert!(
            chaos.trace.replacements >= 1,
            "orphans must be re-placed, not retried in place"
        );
        assert!(
            chaos.metrics.makespan_s >= clean.metrics.makespan_s,
            "crash cannot speed the run up: {} < {}",
            chaos.metrics.makespan_s,
            clean.metrics.makespan_s
        );
        // The killed attempt was re-run somewhere that is not the dead
        // device: its final record must name a different device.
        let final_dev = chaos
            .trace
            .records
            .iter()
            .rfind(|r| r.task == longest.task)
            .expect("task re-ran")
            .device;
        assert_ne!(
            final_dev, longest.device,
            "task restarted on the dead device"
        );
    }

    #[test]
    fn link_failure_preserves_bytes_and_stalls_until_restore() {
        // Edge->cloud world with one link: failing it mid-transfer strands
        // the remainder until the restore.
        let mut topo = Topology::new();
        let e = topo.add_node("edge", Tier::Edge);
        let c = topo.add_node("cloud", Tier::Cloud);
        topo.add_link(e, c, SimDuration::from_millis(10), 1e6);
        let mut fleet = Fleet::new();
        fleet.add_class(e, DeviceClass::EdgeGateway);
        fleet.add_class(c, DeviceClass::CloudVm);
        let env = Env::new(topo, fleet);
        let mut dag = Dag::new("xfer");
        let input = dag.add_input("in", 1_000_000, e);
        let out = dag.add_item("out", 1);
        dag.add_task("t", 1e6, vec![input], vec![out]);
        let placement = Placement {
            assignment: vec![DeviceId(1)],
        };
        let reqs = as_reqs(&dag, &placement);
        // The 1 MB transfer runs 0.5..~1.5s virtual; kill the only link at
        // t=0.5s and bring it back at t=20s.
        let mut schedule = FaultSchedule::new();
        schedule.crash_and_recover(
            FaultKind::LinkFail,
            0,
            SimTime::from_millis(500),
            SimDuration::from_secs_f64(19.5),
        );
        let plane = FaultPlane {
            schedule,
            detection: SimDuration::from_millis(250),
        };
        let chaos = simulate_stream_chaos(&env, &reqs, None, Some(&plane));
        assert_eq!(chaos.trace.link_failures, 1);
        // The transfer resumed (partial bytes kept, not restarted), so the
        // egress accounting still shows exactly one 1 MB transfer.
        assert_eq!(chaos.trace.bytes_moved, 1_000_000);
        assert_eq!(chaos.trace.transfers, 1);
        // And the makespan rode out the outage.
        assert!(
            chaos.metrics.makespan_s > 20.0,
            "makespan {} should include the outage",
            chaos.metrics.makespan_s
        );
        let clean = simulate(&env, &dag, &placement);
        assert!(chaos.metrics.makespan_s > clean.metrics.makespan_s);
    }

    #[test]
    fn no_live_device_parks_until_recovery() {
        // One device total: a crash leaves the placer nothing; the task
        // parks and re-places onto the same device once it recovers.
        let mut topo = Topology::new();
        let n = topo.add_node("only", Tier::Edge);
        let mut fleet = Fleet::new();
        fleet.add_class(n, DeviceClass::EdgeGateway);
        let env = Env::new(topo, fleet);
        let mut dag = Dag::new("one");
        let input = dag.add_input("in", 1, n);
        let out = dag.add_item("out", 1);
        // ~2.5 s on an EdgeGateway core.
        dag.add_task("t", 2e10, vec![input], vec![out]);
        let placement = Placement {
            assignment: vec![DeviceId(0)],
        };
        let mut schedule = FaultSchedule::new();
        schedule.crash_and_recover(
            FaultKind::DeviceCrash,
            0,
            SimTime::from_millis(100),
            SimDuration::from_secs(30),
        );
        let plane = FaultPlane {
            schedule,
            detection: SimDuration::from_millis(50),
        };
        let chaos = simulate_stream_chaos(&env, &as_reqs(&dag, &placement), None, Some(&plane));
        assert_eq!(chaos.trace.killed_attempts, 1);
        assert!(
            chaos.metrics.makespan_s > 30.0,
            "makespan {} should wait out the outage",
            chaos.metrics.makespan_s
        );
    }

    #[test]
    fn chaos_is_deterministic() {
        let (env, dag, placement) = world();
        let clean = simulate(&env, &dag, &placement);
        let mut schedule = FaultSchedule::new();
        let dev = clean.trace.records[0].device.0;
        schedule.crash_and_recover(
            FaultKind::DeviceCrash,
            dev,
            SimTime::from_secs_f64(clean.metrics.makespan_s * 0.3),
            SimDuration::from_secs(5),
        );
        let plane = FaultPlane {
            schedule,
            detection: SimDuration::from_millis(250),
        };
        let a = simulate_stream_chaos(&env, &as_reqs(&dag, &placement), None, Some(&plane));
        let b = simulate_stream_chaos(&env, &as_reqs(&dag, &placement), None, Some(&plane));
        assert_eq!(a, b, "chaos execution must be fully deterministic");
    }
}

#[cfg(test)]
mod fault_tests {
    use super::*;
    use continuum_model::{standard_fleet, DeviceClass, Fleet};
    use continuum_net::{Tier, Topology};
    use continuum_placement::{HeftPlacer, Placer};
    use continuum_sim::SimDuration;

    fn world() -> (Env, Dag, Placement) {
        let built = continuum_net::continuum(&continuum_net::ContinuumSpec::default());
        let env = Env::new(built.topology.clone(), standard_fleet(&built));
        let mut rng = continuum_sim::Rng::new(99);
        let dag = continuum_workflow::layered_random(
            &mut rng,
            &continuum_workflow::LayeredSpec {
                tasks: 50,
                ..Default::default()
            },
        );
        let placement = HeftPlacer::default().place(&env, &dag);
        (env, dag, placement)
    }

    fn run_with(env: &Env, dag: &Dag, placement: &Placement, prob: f64) -> SimOutcome {
        let reqs = [StreamRequest {
            arrival: SimTime::ZERO,
            dag: dag.clone(),
            placement: placement.clone(),
        }];
        let faults = FaultSpec {
            fail_prob: prob,
            ..Default::default()
        };
        simulate_stream_with_faults(env, &reqs, Some(&faults))
    }

    #[test]
    fn zero_prob_matches_fault_free() {
        let (env, dag, placement) = world();
        let clean = simulate(&env, &dag, &placement);
        let zero = run_with(&env, &dag, &placement, 0.0);
        assert_eq!(zero.trace.failed_attempts, 0);
        assert_eq!(clean.metrics.makespan_s, zero.metrics.makespan_s);
    }

    #[test]
    fn failures_inflate_makespan_and_are_counted() {
        let (env, dag, placement) = world();
        let clean = simulate(&env, &dag, &placement);
        let faulty = run_with(&env, &dag, &placement, 0.25);
        assert!(faulty.trace.failed_attempts > 0);
        assert!(
            faulty.metrics.makespan_s > clean.metrics.makespan_s,
            "faulty {} !> clean {}",
            faulty.metrics.makespan_s,
            clean.metrics.makespan_s
        );
        // Retried work burns more energy.
        assert!(faulty.metrics.energy_j > clean.metrics.energy_j);
        // All tasks still complete exactly once (final records).
        assert!(faulty.trace.respects_dependencies(&[&dag]));
        assert_eq!(
            faulty.trace.records.len(),
            dag.len() + faulty.trace.failed_attempts as usize
        );
    }

    #[test]
    fn faults_deterministic_for_seed() {
        let (env, dag, placement) = world();
        let a = run_with(&env, &dag, &placement, 0.2);
        let b = run_with(&env, &dag, &placement, 0.2);
        assert_eq!(a.trace.failed_attempts, b.trace.failed_attempts);
        assert_eq!(a.metrics.makespan_s, b.metrics.makespan_s);
    }

    #[test]
    #[should_panic(expected = "exhausted")]
    fn attempt_limit_enforced() {
        // Single-task DAG on one device with certain-ish failure and a
        // limit of 2 attempts.
        let mut topo = Topology::new();
        let n = topo.add_node("x", Tier::Edge);
        let mut fleet = Fleet::new();
        fleet.add_class(n, DeviceClass::EdgeGateway);
        let env = Env::new(topo, fleet);
        let mut dag = Dag::new("one");
        let input = dag.add_input("in", 1, n);
        let out = dag.add_item("out", 1);
        dag.add_task("t", 1e9, vec![input], vec![out]);
        let placement = Placement {
            assignment: vec![continuum_model::DeviceId(0)],
        };
        let reqs = [StreamRequest {
            arrival: SimTime::ZERO,
            dag,
            placement,
        }];
        let faults = FaultSpec {
            fail_prob: 0.999999,
            retry_delay: SimDuration::from_millis(1),
            max_attempts: 2,
            seed: 1,
        };
        simulate_stream_with_faults(&env, &reqs, Some(&faults));
    }

    /// Edge + cloud nodes, one device each, joined by one link.
    fn two_region_world() -> (Env, NodeId, NodeId) {
        let mut topo = Topology::new();
        let e = topo.add_node("edge", Tier::Edge);
        let c = topo.add_node("cloud", Tier::Cloud);
        topo.add_link(e, c, SimDuration::from_millis(10), 1e9);
        let mut fleet = Fleet::new();
        fleet.add_class(e, DeviceClass::EdgeGateway);
        fleet.add_class(c, DeviceClass::CloudVm);
        (Env::new(topo, fleet), e, c)
    }

    #[test]
    fn site_transitions_tracks_region_last_device() {
        // Two single-device regions: any crash is a region outage.
        let (env, e, c) = two_region_world();
        let partition = RegionPartition::new(&env.topology, vec![vec![e], vec![c]], 0);
        let mut schedule = FaultSchedule::new();
        // Edge device (0) dies at 1s, back at 3s; duplicate crash at 2s is
        // idempotent; cloud device (1) never fully empties its region.
        schedule.push(SimTime::from_secs_f64(1.0), FaultKind::DeviceCrash, 0);
        schedule.push(SimTime::from_secs_f64(2.0), FaultKind::DeviceCrash, 0);
        schedule.push(SimTime::from_secs_f64(3.0), FaultKind::DeviceRecover, 0);
        // Link events must be ignored.
        schedule.push(SimTime::from_secs_f64(1.5), FaultKind::LinkFail, 0);
        let plane = FaultPlane {
            schedule,
            detection: SimDuration::from_millis(250),
        };
        let got = plane.site_transitions(&env, &partition);
        assert_eq!(
            got,
            vec![
                (SimTime::from_secs_f64(1.0), 0, true),
                (SimTime::from_secs_f64(3.0), 0, false),
            ]
        );
    }

    #[test]
    fn site_transitions_fires_only_when_region_empties() {
        // One region holding both devices: a single crash is not an
        // outage; the region goes down only when the second device dies,
        // and comes back on the first recovery.
        let (env, e, c) = two_region_world();
        let partition = RegionPartition::new(&env.topology, vec![vec![e, c]], 0);
        let mut schedule = FaultSchedule::new();
        schedule.push(SimTime::from_secs_f64(1.0), FaultKind::DeviceCrash, 0);
        schedule.push(SimTime::from_secs_f64(2.0), FaultKind::DeviceCrash, 1);
        schedule.push(SimTime::from_secs_f64(4.0), FaultKind::DeviceRecover, 1);
        schedule.push(SimTime::from_secs_f64(5.0), FaultKind::DeviceRecover, 0);
        let plane = FaultPlane {
            schedule,
            detection: SimDuration::from_millis(250),
        };
        let got = plane.site_transitions(&env, &partition);
        assert_eq!(
            got,
            vec![
                (SimTime::from_secs_f64(2.0), 0, true),
                (SimTime::from_secs_f64(4.0), 0, false),
            ]
        );
    }
}
