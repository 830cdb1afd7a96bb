//! Federated multi-broker fabric: per-site brokers, batched dispatch,
//! warm-container pools, and broker-peer takeover.
//!
//! [`run_federation`] is the fabric's one event loop. Each **site** is a
//! broker owning a pool of endpoints (sites are derived from
//! [`RegionPartition`] regions, or [`single_site`] puts every endpoint in
//! one), and a [`Forwarder`] routes every invocation to a site and times
//! its payload legs from the dense transfer matrix of the [`Env`]. A
//! single broker is the degenerate case — one site, batch 1 — and
//! [`crate::broker::run_fabric`] is exactly that call.
//!
//! # Structure
//!
//! A private `FedCore` holds the run: inputs, endpoint, invocation and
//! site state, forwarder, event calendar, health plane, one `FedTally` of
//! counters. [`run_federation`] merges the arrival cursor against its
//! calendar (`arrive` per arrival, `step` per event, one method per event
//! kind) and ends with `finish`, which builds the report and publishes
//! `fabric.*`. An unknown function id is dropped on arrival.
//!
//! The calendar is a plain `BinaryHeap` min-heap on (time, schedule
//! sequence), not `continuum_sim`'s cancellable event queue: the fabric
//! never cancels an event (stale ones carry an epoch or generation and
//! are ignored when they pop) and never orders by content key, so it
//! would pay for that queue's slots, generations, tombstone checks and
//! key field without using them. With every event at key 0 both pop in
//! the same order.
//!
//! # Batched dispatch
//!
//! Arrivals are buffered in a per-site ingress queue and *drained* in
//! batches: immediately once [`FederationCfg::batch`] invocations are
//! buffered, or after [`FederationCfg::drain_every`] of sim time,
//! whichever comes first. One drain pays the candidate refresh and batch
//! bookkeeping once for the whole batch; the admission gate is a
//! maintained O(1) counter instead of a per-arrival O(endpoints) sum; and
//! arrivals enter through a sorted cursor instead of per-invocation heap
//! events. Batching trades sim-time latency (buffered invocations wait
//! for the drain) for dispatch throughput — exactly the funcX forwarder
//! trade.
//!
//! # Warm-container pools
//!
//! [`WarmPool`] generalizes the per-endpoint [`ColdStart`] warm window to
//! a per-site LRU pool over *functions*: a function found in its site's
//! pool skips boot cost on any endpoint of the site; a miss pays
//! [`WarmPool::cold_time`] and evicts the least-recently-used entry. A
//! site crash flushes its pool (recovery comes back cold).
//!
//! # Broker-peer takeover
//!
//! [`SiteFaults`] crash and recover whole sites. A site crash kills the
//! running work on every member endpoint; after
//! [`SiteFaults::heartbeat`], the federation *detects* the outage and a
//! surviving peer site (fewest outstanding, ties by id) **adopts** the
//! dead site's displaced work — orphans, queued work, and buffered
//! ingress — through the forwarding layer, entering the peer's ingress
//! as one batch instead of per-invocation backoff. Only when no peer
//! survives does displaced work fall back to the endpoint-level
//! backoff-and-retry path.
//!
//! # Single-broker identity
//!
//! A federation with **one site and batch size 1** (no warm pool, no site
//! faults) behaves exactly as a per-invocation single broker: same
//! completions, same latencies in the same order, same
//! retry/reroute/drop counters, same slot-seconds. The loop keeps that
//! invariant by construction — same event ordering (arrivals before
//! same-time events, fault events before same-time runtime events), the
//! same policy scans, and transfer times read from the dense matrix,
//! which are bit-identical to timing the canonical path.
//! `tests/proptests.rs` pins it against a test-only single-broker loop
//! (`tests/reference/`) across random loads, fault schedules, cold
//! starts, autoscaling, admission caps, and policies.

use crate::broker::{
    Admission, Autoscale, Backoff, ColdStart, Endpoint, EndpointFaults, FabricReport, Invocation,
    RoutingPolicy,
};
use crate::forwarder::Forwarder;
use crate::registry::{FunctionId, FunctionRegistry, FunctionSpec};
use continuum_net::{NodeId, RegionPartition};
use continuum_obs::{HealthPlane, HealthReport, HealthSpec, Telemetry};
use continuum_placement::Env;
use continuum_sim::{jain_fairness, FaultKind, Rng, SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};
use std::fmt;
use std::rc::Rc;

/// Identifier of a federation site.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct SiteId(pub u32);

impl fmt::Display for SiteId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "site{}", self.0)
    }
}

/// One federation site: a broker plus the endpoint pool it owns.
#[derive(Debug, Clone)]
pub struct Site {
    /// This site's id (== its index in the site slice).
    pub id: SiteId,
    /// The broker's home node — forwarding-cost estimates target it.
    pub broker: NodeId,
    /// Partition regions this site covers (empty when built without a
    /// partition, e.g. [`single_site`]).
    pub regions: Vec<u32>,
    /// Indices into the run's endpoint slice, ascending.
    pub endpoints: Vec<usize>,
}

/// Derive sites from a [`RegionPartition`]: endpoints group by the region
/// of their device's node, and regions are dealt round-robin onto at most
/// `max_sites` sites (so a sweep can vary site count over one world).
/// Regions without endpoints vanish; site ids are re-indexed densely.
/// Each site's broker lives on its first endpoint's node.
///
/// With `max_sites == 1` this returns a single site owning every endpoint
/// in index order, like [`single_site`].
pub fn sites_from_partition(
    env: &Env,
    partition: &RegionPartition,
    endpoints: &[Endpoint],
    max_sites: usize,
) -> Vec<Site> {
    assert!(max_sites >= 1, "max_sites must be at least 1");
    assert!(!endpoints.is_empty(), "no endpoints");
    let mut buckets: Vec<Vec<usize>> = vec![Vec::new(); max_sites];
    let mut bucket_regions: Vec<Vec<u32>> = vec![Vec::new(); max_sites];
    for (i, ep) in endpoints.iter().enumerate() {
        let r = partition.region_of(env.node_of(ep.device));
        let b = r % max_sites;
        buckets[b].push(i);
        if !bucket_regions[b].contains(&(r as u32)) {
            bucket_regions[b].push(r as u32);
        }
    }
    let mut sites = Vec::new();
    for (eps_in, regions) in buckets.into_iter().zip(bucket_regions) {
        if eps_in.is_empty() {
            continue;
        }
        sites.push(Site {
            id: SiteId(sites.len() as u32),
            broker: env.node_of(endpoints[eps_in[0]].device),
            regions,
            endpoints: eps_in,
        });
    }
    sites
}

/// One site owning every endpoint — the centralized arm of a federated
/// sweep and the shape [`crate::broker::run_fabric`] runs in.
pub fn single_site(env: &Env, endpoints: &[Endpoint]) -> Vec<Site> {
    assert!(!endpoints.is_empty(), "no endpoints");
    vec![Site {
        id: SiteId(0),
        broker: env.node_of(endpoints[0].device),
        regions: Vec::new(),
        endpoints: (0..endpoints.len()).collect(),
    }]
}

/// Per-site warm-container pool: an LRU set of functions whose containers
/// are resident somewhere on the site.
///
/// Replaces the per-endpoint [`ColdStart`] warm window when set on
/// [`FederationCfg`]: an invocation whose function is pooled starts warm
/// on *any* endpoint of the site; a miss pays `cold_time` and inserts the
/// function, evicting the least-recently-used entry past `capacity`.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct WarmPool {
    /// Distinct functions kept warm per site (0 = everything runs cold).
    pub capacity: usize,
    /// Boot tax paid by a pool miss.
    pub cold_time: SimDuration,
}

/// One timed site-level fault transition.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct SiteFaultEvent {
    /// When the transition happens.
    pub at: SimTime,
    /// Site index.
    pub site: u32,
    /// `true` = crash, `false` = recover.
    pub crash: bool,
}

/// Site-level fault injection: whole-broker outages with peer takeover.
#[derive(Debug, Clone)]
pub struct SiteFaults {
    /// Timed crash/recover transitions, any order (the calendar sorts).
    pub events: Vec<SiteFaultEvent>,
    /// How long after a site crash the federation notices and a peer
    /// adopts the dead site's work.
    pub heartbeat: SimDuration,
    /// Re-route pacing when *no* peer survives to adopt.
    pub backoff: Backoff,
    /// Jitter seed (used only when endpoint faults are absent).
    pub seed: u64,
}

impl SiteFaults {
    /// Build site faults from region-level outage transitions — the shape
    /// `continuum_runtime::FaultPlane::site_transitions` produces from a
    /// device-level chaos schedule. Transitions for regions no site
    /// covers are dropped. With one-region sites (i.e. `max_sites` at
    /// least the region count) the mapping is exact; a multi-region site
    /// crashes when any of its regions fully dies, which over-approximates
    /// the outage.
    pub fn from_region_transitions(
        sites: &[Site],
        transitions: &[(SimTime, u32, bool)],
        heartbeat: SimDuration,
        backoff: Backoff,
        seed: u64,
    ) -> SiteFaults {
        let events = transitions
            .iter()
            .filter_map(|&(at, region, crash)| {
                sites
                    .iter()
                    .position(|site| site.regions.contains(&region))
                    .map(|s| SiteFaultEvent {
                        at,
                        site: s as u32,
                        crash,
                    })
            })
            .collect();
        SiteFaults {
            events,
            heartbeat,
            backoff,
            seed,
        }
    }
}

/// Configuration of one federation run.
#[derive(Debug, Clone)]
pub struct FederationCfg {
    /// Endpoint- and site-level routing policy.
    pub policy: RoutingPolicy,
    /// Invocations buffered per site before an immediate drain (1 =
    /// per-invocation dispatch).
    pub batch: usize,
    /// Longest a buffered invocation waits before a timer drain.
    pub drain_every: SimDuration,
    /// Per-endpoint cold-start window; ignored when `warm_pool` is set.
    pub cold: Option<ColdStart>,
    /// Per-site warm-container pool (overrides `cold`).
    pub warm_pool: Option<WarmPool>,
    /// Elastic slot provisioning of every endpoint.
    pub autoscale: Option<Autoscale>,
    /// Endpoint-level fault injection.
    pub faults: Option<EndpointFaults>,
    /// Site-level fault injection with peer takeover.
    pub site_faults: Option<SiteFaults>,
    /// Admission control; the in-system count additionally includes
    /// buffered ingress, so batching cannot grow memory past the cap.
    pub admission: Option<Admission>,
    /// Attach an SLO health plane: burn-rate windows over the
    /// completion stream, per-site queue-depth and warm-pool gauges
    /// sampled into a flight recorder, anomalies on takeover and
    /// admission saturation. `None` (the default) leaves the run
    /// bit-identical to one without health accounting.
    pub health: Option<HealthSpec>,
}

impl FederationCfg {
    /// Per-invocation dispatch (batch 1) with no cold start, autoscale,
    /// faults, admission, or health plane.
    pub fn new(policy: RoutingPolicy) -> FederationCfg {
        FederationCfg {
            policy,
            batch: 1,
            drain_every: SimDuration::from_millis(10),
            cold: None,
            warm_pool: None,
            autoscale: None,
            faults: None,
            site_faults: None,
            admission: None,
            health: None,
        }
    }
}

/// Per-site counters of one federation run.
#[derive(Debug, Clone, Copy, Default, Serialize)]
pub struct SiteStats {
    /// Invocations completed by this site's endpoints.
    pub completions: u64,
    /// Invocations the forwarder routed to this site on arrival.
    pub forwarded: u64,
    /// Displaced invocations adopted from crashed peers.
    pub adopted: u64,
    /// Ingress drains executed.
    pub drains: u64,
    /// Invocations dispatched through drains (sum of batch occupancy).
    pub batched: u64,
    /// Warm-pool hits (starts that skipped boot cost).
    pub warm_hits: u64,
    /// Warm-pool misses (starts that paid `WarmPool::cold_time`).
    pub cold_boots: u64,
}

/// Result of a federation run: the [`FabricReport`] every fabric run
/// returns plus federation-level counters.
#[derive(Debug, Clone)]
pub struct FederationReport {
    /// The fabric aggregate (completions, latencies in completion order,
    /// per-endpoint counts, retry/drop counters).
    pub fabric: FabricReport,
    /// Per-site counters, indexed by site id.
    pub sites: Vec<SiteStats>,
    /// Site outages whose displaced work a surviving peer adopted.
    pub takeovers: u64,
    /// Site crash events applied.
    pub site_crashes: u64,
    /// Site outages detected (heartbeat expired while still down).
    pub site_detections: u64,
    /// Site recover events applied.
    pub site_recoveries: u64,
    /// Ingress drains across all sites.
    pub drains: u64,
    /// Invocations dispatched through drains.
    pub batched: u64,
    /// Largest single drain.
    pub max_batch: u64,
    /// Forwarder transfer lookups of a (src, dst) node pair already
    /// looked up in this run. Equal to the hits of a memoizing route
    /// cache while the run touches at most 65,536 distinct pairs (past
    /// that, such a cache clears itself and misses again; this does not).
    pub route_hits: u64,
    /// Forwarder transfer lookups of a (src, dst) node pair not looked up
    /// before in this run (see `route_hits` for the 65,536-pair caveat).
    pub route_misses: u64,
    /// SLO burn-rate summary and flight-recorder timeline; present iff
    /// [`FederationCfg::health`] was set. Identity checks compare
    /// `fabric`, not this.
    pub health: Option<HealthReport>,
}

/// Per-endpoint state of one run.
#[derive(Default)]
struct EpState {
    scale: ScaleState,
    waiting: VecDeque<usize>,
    outstanding: u32,
    /// End of the warm window. `SimTime::ZERO` means "cold since the
    /// beginning": the first touch of every endpoint pays the cold-start
    /// tax.
    warm_until: SimTime,
    /// Slot-availability estimates for the Locality policy.
    lane_est: Vec<SimTime>,
    up: bool,
    /// Down *and* past its detection heartbeat: excluded from routing.
    known_down: bool,
    /// Crash generation, to match detect events to the right outage.
    gen: u32,
    /// Invocations currently executing here, with their start times.
    running: Vec<(usize, SimTime)>,
    /// Invocations killed by a crash, awaiting detection or recovery.
    orphans: Vec<usize>,
    completions: u64,
}

/// Slots an endpoint keeps active at rest: at the start and on recovery.
fn floor_slots(autoscale: Option<Autoscale>, ep: &Endpoint) -> u32 {
    match autoscale {
        Some(a) => a.min_slots.min(ep.slots).max(1),
        None => ep.slots,
    }
}

/// Initial per-endpoint state.
fn ep_states(endpoints: &[Endpoint], autoscale: Option<Autoscale>) -> Vec<EpState> {
    endpoints
        .iter()
        .map(|e| EpState {
            scale: ScaleState {
                active: floor_slots(autoscale, e),
                ..ScaleState::default()
            },
            lane_est: vec![SimTime::ZERO; e.slots as usize],
            up: true,
            ..EpState::default()
        })
        .collect()
}

/// Per-endpoint elastic slot accounting.
#[derive(Debug, Clone, Copy, Default)]
struct ScaleState {
    active: u32,
    busy: u32,
    slot_seconds: f64,
    last_change: SimTime,
}

impl ScaleState {
    fn settle(&mut self, now: SimTime) {
        self.slot_seconds += self.active as f64 * now.since(self.last_change).as_secs_f64();
        self.last_change = now;
    }

    fn grow(&mut self, now: SimTime) {
        self.settle(now);
        self.active += 1;
    }

    fn shrink_to(&mut self, target: u32, now: SimTime) {
        if target < self.active {
            self.settle(now);
            self.active = target;
        }
    }
}

/// Per-invocation federation state.
#[derive(Clone, Default)]
struct FedInv {
    /// Endpoint of the latest dispatch.
    assigned: u32,
    epoch: u32,
    attempts: u32,
    /// Work displaced by a crash or backing off, awaiting (re-)dispatch:
    /// counts as a reroute (and bumps the epoch) when it next assigns.
    displaced: bool,
}

/// Per-site federation state.
#[derive(Default)]
struct SiteState {
    up: bool,
    /// Down *and* past the site heartbeat: excluded from forwarding.
    known_down: bool,
    /// Crash generation, to match site-detect events to the outage.
    gen: u32,
    /// Buffered arrivals awaiting the next drain.
    ingress: VecDeque<usize>,
    /// A timer drain is scheduled and not yet fired.
    drain_pending: bool,
    /// Site-local round-robin cursor.
    rr_ep: usize,
    /// Member endpoints not known-down, ascending — rebuilt only on
    /// routability transitions, so drains skip a per-invocation
    /// candidate build.
    cand: Vec<usize>,
    /// Warm-pool LRU (front = least recently used).
    warm: Vec<FunctionId>,
    stats: SiteStats,
}

/// A fabric event. Endpoint, invocation and site indices are `u32`, so
/// a calendar entry stays at 32 bytes.
#[derive(Debug)]
enum FEv {
    /// Request payload landed at `ep` (stale on `epoch` mismatch).
    InputReady {
        ep: u32,
        inv: u32,
        epoch: u32,
    },
    /// Execution finished (stale if the attempt was killed).
    ExecDone {
        ep: u32,
        inv: u32,
        epoch: u32,
    },
    /// Response payload of an invocation reached its origin.
    ResponseBack(u32),
    EpCrash(u32),
    EpRecover(u32),
    EpDetect {
        ep: u32,
        gen: u32,
    },
    /// A displaced invocation's backoff expired; re-forward it.
    Reroute(u32),
    /// Timer drain of one site's ingress buffer.
    Drain(u32),
    SiteCrash(u32),
    SiteRecover(u32),
    /// Site heartbeat expired: adopt the dead site's work on a peer.
    SiteDetect {
        site: u32,
        gen: u32,
    },
}

/// One calendar entry, ordered by (time, schedule sequence) only and
/// reversed, so the `BinaryHeap` pops the earliest event first and
/// equal-time events in the order they were scheduled.
struct Timed {
    at: SimTime,
    seq: u64,
    ev: FEv,
}

impl PartialEq for Timed {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.seq) == (other.at, other.seq)
    }
}

impl Eq for Timed {}

impl PartialOrd for Timed {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Timed {
    fn cmp(&self, other: &Self) -> Ordering {
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// The run's counters that are neither per endpoint nor per site.
#[derive(Default)]
struct FedTally {
    reroutes: u64,
    retries: u64,
    dropped: u64,
    rejected: u64,
    lost_work_s: f64,
    failovers: u64,
    detections: u64,
    recoveries: u64,
    orphans_restarted: u64,
    takeovers: u64,
    site_crashes: u64,
    site_detections: u64,
    site_recoveries: u64,
    drains: u64,
    batched: u64,
    max_batch: u64,
}

/// Trace thread of site `s` is `SITE_TID_BASE + s`; tid 1 is the
/// forwarder/fabric control track.
const SITE_TID_BASE: u32 = 200;

/// The state of one federation run, advanced one event at a time by
/// [`FedCore::arrive`] and [`FedCore::step`].
struct FedCore<'a> {
    env: &'a Env,
    registry: &'a FunctionRegistry,
    endpoints: &'a [Endpoint],
    sites: &'a [Site],
    invocations: &'a [Invocation],
    cfg: &'a FederationCfg,
    /// Re-route pacing and its jitter stream: the endpoint faults' when
    /// present, else the site faults'.
    backoff: Option<Backoff>,
    jitter: Rng,
    ep_site: Vec<usize>,
    eps: Vec<EpState>,
    invs: Vec<FedInv>,
    st: Vec<SiteState>,
    /// Sites the forwarder may pick: up, not known down, and owning a
    /// routable endpoint.
    site_live: Vec<bool>,
    /// Assigned-but-unresponded invocations per site.
    site_out: Vec<u64>,
    /// Maintained in-system count (assigned + buffered): the O(1)
    /// admission gate. The 1-site/batch-1 value at arrival time equals a
    /// per-arrival sum over endpoint outstanding exactly.
    in_system: usize,
    fwd: Forwarder,
    /// Pending events; see the module docs on why the fabric keeps its
    /// own heap.
    queue: BinaryHeap<Timed>,
    /// Sequence number of the next scheduled event.
    next_seq: u64,
    /// Time of the latest response: events pop in time order, so this is
    /// the run's last completion.
    end_time: SimTime,
    health: Option<HealthPlane>,
    /// Inside an admission-saturation episode (one anomaly each).
    saturated: bool,
    tele: Option<Rc<Telemetry>>,
    latencies: Vec<f64>,
    tally: FedTally,
}

impl<'a> FedCore<'a> {
    fn new(
        env: &'a Env,
        registry: &'a FunctionRegistry,
        endpoints: &'a [Endpoint],
        sites: &'a [Site],
        invocations: &'a [Invocation],
        cfg: &'a FederationCfg,
    ) -> FedCore<'a> {
        assert!(!endpoints.is_empty(), "no endpoints");
        assert!(!sites.is_empty(), "no sites");
        assert!(
            invocations.len().max(endpoints.len()) <= u32::MAX as usize,
            "events index invocations and endpoints as u32"
        );
        let n_ep = endpoints.len();
        let mut ep_site = vec![usize::MAX; n_ep];
        for (s, site) in sites.iter().enumerate() {
            for &e in &site.endpoints {
                assert!(e < n_ep, "site {s} references endpoint {e} out of range");
                assert_eq!(ep_site[e], usize::MAX, "endpoint {e} owned by two sites");
                ep_site[e] = s;
            }
        }
        assert!(
            ep_site.iter().all(|&s| s != usize::MAX),
            "every endpoint must belong to a site"
        );
        let st: Vec<SiteState> = sites
            .iter()
            .map(|site| SiteState {
                up: true,
                cand: site.endpoints.clone(),
                ..SiteState::default()
            })
            .collect();
        let (backoff, seed) = match (&cfg.faults, &cfg.site_faults) {
            (Some(f), _) => (Some(f.backoff), f.seed),
            (None, Some(sf)) => (Some(sf.backoff), sf.seed),
            (None, None) => (None, 0),
        };
        let mut core = FedCore {
            env,
            registry,
            endpoints,
            sites,
            invocations,
            cfg,
            backoff,
            jitter: Rng::new(seed),
            ep_site,
            eps: ep_states(endpoints, cfg.autoscale),
            invs: vec![FedInv::default(); invocations.len()],
            site_live: st.iter().map(|s| !s.cand.is_empty()).collect(),
            st,
            site_out: vec![0; sites.len()],
            in_system: 0,
            fwd: Forwarder::new(cfg.policy, sites.iter().map(|s| s.broker).collect()),
            queue: BinaryHeap::new(),
            next_seq: 0,
            end_time: SimTime::ZERO,
            health: cfg.health.as_ref().map(HealthPlane::new),
            saturated: false,
            tele: continuum_obs::ambient(),
            latencies: Vec::with_capacity(invocations.len()),
            tally: FedTally::default(),
        };
        // Name the tracks up front (M metadata) so federated traces open
        // with readable track names.
        if let Some(t) = core.tracer() {
            t.tracer.thread_name(t.pid(), 1, "fabric");
            for s in 0..sites.len() {
                t.tracer
                    .thread_name(t.pid(), SITE_TID_BASE + s as u32, format!("site {s}"));
            }
        }
        if let Some(f) = &cfg.faults {
            for ev in f.schedule.events() {
                let kind = match ev.kind {
                    FaultKind::EndpointCrash => FEv::EpCrash(ev.target),
                    FaultKind::EndpointRecover => FEv::EpRecover(ev.target),
                    _ => continue, // device/link faults are not the broker's
                };
                assert!(
                    (ev.target as usize) < n_ep,
                    "fault schedule targets endpoint {} but only {n_ep} exist",
                    ev.target
                );
                core.schedule(ev.at, kind);
            }
        }
        if let Some(sf) = &cfg.site_faults {
            for ev in &sf.events {
                assert!(
                    (ev.site as usize) < sites.len(),
                    "site fault targets site {} but only {} exist",
                    ev.site,
                    sites.len()
                );
                let kind = if ev.crash {
                    FEv::SiteCrash(ev.site)
                } else {
                    FEv::SiteRecover(ev.site)
                };
                core.schedule(ev.at, kind);
            }
        }
        core
    }

    /// Put `ev` on the calendar at `at`.
    fn schedule(&mut self, at: SimTime, ev: FEv) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.queue.push(Timed { at, seq, ev });
    }

    /// The telemetry sink, when this run traces.
    fn tracer(&self) -> Option<&Telemetry> {
        self.tele.as_deref().filter(|t| t.trace_enabled())
    }

    /// An instant on the fabric control track; `name` is built only when
    /// the run traces.
    fn mark(&self, now: SimTime, name: impl FnOnce() -> String) {
        if let Some(t) = self.tracer() {
            t.tracer.instant(name(), "fabric", now.0, t.pid(), 1);
        }
    }

    fn spec(&self, i: usize) -> &'a FunctionSpec {
        self.registry.get(self.invocations[i].function)
    }

    /// One fresh arrival: the admission gate, then forward it to a site.
    fn arrive(&mut self, i: usize, now: SimTime) {
        self.health_tick(now);
        if let Some(a) = self.cfg.admission {
            if self.in_system >= a.max_outstanding {
                self.tally.rejected += 1;
                if let Some(h) = self.health.as_mut() {
                    // One anomaly per saturation episode.
                    if !self.saturated {
                        h.anomaly(now.0, "saturation");
                    }
                }
                self.saturated = true;
                return;
            }
        }
        self.saturated = false;
        // The one lookup that may fail: an id the registry does not know
        // is dropped here, so everything downstream can `get` its spec.
        if self
            .registry
            .try_get(self.invocations[i].function)
            .is_none()
        {
            self.tally.dropped += 1;
            return;
        }
        match self.choose_site(i) {
            Some(s) => {
                self.st[s].stats.forwarded += 1;
                self.enqueue(i, s, now);
            }
            None => self.backoff_or_drop(i, now),
        }
    }

    fn step(&mut self, now: SimTime, ev: FEv) {
        let ix = |x: u32| x as usize;
        match ev {
            FEv::InputReady { ep, inv, epoch } => self.input_ready(ix(ep), ix(inv), epoch, now),
            FEv::ExecDone { ep, inv, epoch } => self.exec_done(ix(ep), ix(inv), epoch, now),
            FEv::ResponseBack(inv) => self.response_back(ix(inv), now),
            FEv::EpCrash(ep) => self.ep_crash(ix(ep), now),
            FEv::EpDetect { ep, gen } => self.ep_detect(ix(ep), gen, now),
            FEv::EpRecover(ep) => self.ep_recover(ix(ep), now),
            FEv::Reroute(i) => self.reroute(ix(i), now),
            FEv::Drain(s) => {
                self.st[ix(s)].drain_pending = false;
                self.drain(ix(s), now);
            }
            FEv::SiteCrash(s) => self.site_crash(ix(s), now),
            FEv::SiteDetect { site, gen } => self.site_detect(ix(site), gen, now),
            FEv::SiteRecover(s) => self.site_recover(ix(s), now),
        }
    }

    /// The site the forwarder sends invocation `i` to; `None` iff no
    /// site is live.
    fn choose_site(&mut self, i: usize) -> Option<usize> {
        self.fwd.choose_site(
            self.env,
            &self.site_live,
            &self.site_out,
            self.invocations[i].origin,
            self.spec(i).in_bytes,
        )
    }

    /// Buffer invocation `i` at site `s`, draining by fill or timer.
    fn enqueue(&mut self, i: usize, s: usize, now: SimTime) {
        self.in_system += 1;
        let site = &mut self.st[s];
        site.ingress.push_back(i);
        // Batch 0 or 1 drains every arrival.
        if site.ingress.len() >= self.cfg.batch {
            self.drain(s, now);
        } else if !site.drain_pending {
            site.drain_pending = true;
            self.schedule(now + self.cfg.drain_every, FEv::Drain(s as u32));
        }
    }

    /// Drain site `s`'s ingress: the batched dispatch core. The batch
    /// bookkeeping is paid once per drain; per invocation only the
    /// policy pick and the assign remain.
    fn drain(&mut self, s: usize, now: SimTime) {
        let k = self.st[s].ingress.len() as u64;
        if k == 0 {
            return;
        }
        let tally = &mut self.tally;
        tally.drains += 1;
        tally.batched += k;
        tally.max_batch = tally.max_batch.max(k);
        self.st[s].stats.drains += 1;
        self.st[s].stats.batched += k;
        while let Some(i) = self.st[s].ingress.pop_front() {
            self.in_system -= 1;
            self.dispatch(i, s, now);
        }
    }

    /// Place invocation `i` on an endpoint of site `s`, or back it off
    /// when the site has none routable. Displaced work counts as a
    /// reroute and takes a fresh epoch.
    fn dispatch(&mut self, i: usize, s: usize, now: SimTime) {
        match self.pick_in_site(s, i, now) {
            Some(ep) => {
                let inv = &mut self.invs[i];
                if inv.displaced {
                    inv.displaced = false;
                    inv.epoch += 1;
                    self.tally.reroutes += 1;
                }
                self.assign(i, ep, now);
            }
            None => self.backoff_or_drop(i, now),
        }
    }

    /// Pick an endpoint of site `s` for invocation `i` among the site's
    /// routable candidates under the run's policy; `None` iff it has
    /// none.
    fn pick_in_site(&mut self, s: usize, i: usize, now: SimTime) -> Option<usize> {
        let (spec, origin) = (self.spec(i), self.invocations[i].origin);
        let (env, endpoints, eps, fwd) = (self.env, self.endpoints, &self.eps, &mut self.fwd);
        let site = &mut self.st[s];
        let cand = &site.cand;
        if cand.is_empty() {
            return None;
        }
        Some(match self.cfg.policy {
            RoutingPolicy::RoundRobin => {
                let ep = cand[site.rr_ep % cand.len()];
                site.rr_ep += 1;
                ep
            }
            RoutingPolicy::LeastOutstanding => cand
                .iter()
                .copied()
                .min_by_key(|&e| (eps[e].outstanding, e))
                .expect("candidates non-empty"),
            RoutingPolicy::Locality => {
                cand.iter()
                    .copied()
                    .map(|e| {
                        let dev = env.fleet.device(endpoints[e].device);
                        let tin = fwd
                            .transfer(env, origin, dev.node, spec.in_bytes)
                            .expect("disconnected topology");
                        let tout = fwd
                            .transfer(env, dev.node, origin, spec.out_bytes)
                            .expect("disconnected topology");
                        let exec = dev
                            .spec
                            .compute_time_parallel(spec.work_flops, spec.parallelism);
                        let free = *eps[e].lane_est.iter().min().expect("non-empty lanes");
                        ((now + tin).max(free) + exec + tout, e)
                    })
                    .min()
                    .expect("candidates non-empty")
                    .1
            }
        })
    }

    /// Assign invocation `i` to endpoint `ep` and launch its request
    /// payload.
    fn assign(&mut self, i: usize, ep: usize, now: SimTime) {
        let (spec, origin) = (self.spec(i), self.invocations[i].origin);
        self.invs[i].assigned = ep as u32;
        self.eps[ep].outstanding += 1;
        self.in_system += 1;
        self.site_out[self.ep_site[ep]] += 1;
        let dev = self.env.fleet.device(self.endpoints[ep].device);
        let exec = dev
            .spec
            .compute_time_parallel(spec.work_flops, spec.parallelism);
        let tin = self
            .fwd
            .transfer(self.env, origin, dev.node, spec.in_bytes)
            .expect("disconnected topology");
        let lanes = &mut self.eps[ep].lane_est;
        let (k, _) = lanes
            .iter()
            .enumerate()
            .min_by_key(|&(i, t)| (*t, i))
            .expect("non-empty lanes");
        lanes[k] = (now + tin).max(lanes[k]) + exec;
        let epoch = self.invs[i].epoch;
        self.schedule(
            now + tin,
            FEv::InputReady {
                ep: ep as u32,
                inv: i as u32,
                epoch,
            },
        );
        if let Some(t) = self.tracer() {
            // Arrow tail of the cross-site forwarder hop: picked up by the
            // matching FlowEnd at `InputReady`.
            let s = self.ep_site[ep];
            let id = fed_flow_id(i, epoch);
            t.tracer.flow_start(
                format!("inv {i} -> site {s}"),
                "xfer",
                now.0,
                t.pid(),
                1,
                id,
            );
            t.tracer
                .instant(format!("dispatch inv {i}"), "xfer", now.0, t.pid(), 1);
        }
    }

    /// One backoff round for a displaced invocation (or give it up).
    fn backoff_or_drop(&mut self, i: usize, now: SimTime) {
        let b = self.backoff.expect("displacement implies faults");
        let inv = &mut self.invs[i];
        if inv.attempts >= b.max_retries {
            self.tally.dropped += 1;
        } else {
            let delay = b.delay(inv.attempts, &mut self.jitter);
            inv.attempts += 1;
            inv.displaced = true;
            self.tally.retries += 1;
            self.schedule(now + delay, FEv::Reroute(i as u32));
        }
    }

    /// An invocation assigned to `ep` leaves the system: it responded,
    /// or it is displaced off a dead endpoint.
    fn release(&mut self, ep: usize) {
        self.eps[ep].outstanding -= 1;
        self.in_system -= 1;
        self.site_out[self.ep_site[ep]] -= 1;
    }

    /// Rebuild site `s`'s routable candidates and liveness after a
    /// known-down transition (rare; drains reuse the cached list).
    fn refresh_site(&mut self, s: usize) {
        let site = &mut self.st[s];
        site.cand.clear();
        for &e in &self.sites[s].endpoints {
            if !self.eps[e].known_down {
                site.cand.push(e);
            }
        }
        self.site_live[s] = site.up && !site.known_down && !site.cand.is_empty();
    }

    /// Start queued work on `ep` while slots are free.
    fn try_start(&mut self, ep: usize, now: SimTime) {
        if !self.eps[ep].up {
            return;
        }
        while self.eps[ep].scale.busy < self.eps[ep].scale.active {
            let Some(inv) = self.eps[ep].waiting.pop_front() else {
                break;
            };
            self.eps[ep].scale.busy += 1;
            let spec = self.spec(inv);
            let mut exec = self
                .env
                .fleet
                .device(self.endpoints[ep].device)
                .spec
                .compute_time_parallel(spec.work_flops, spec.parallelism);
            if let Some(wp) = self.cfg.warm_pool {
                // Site-level pool: warm anywhere on the site.
                let site = &mut self.st[self.ep_site[ep]];
                let func = self.invocations[inv].function;
                if let Some(pos) = site.warm.iter().position(|&f| f == func) {
                    site.warm.remove(pos);
                    site.warm.push(func);
                    site.stats.warm_hits += 1;
                } else {
                    exec += wp.cold_time;
                    site.stats.cold_boots += 1;
                    if wp.capacity > 0 {
                        site.warm.push(func);
                        if site.warm.len() > wp.capacity {
                            site.warm.remove(0); // evict LRU
                        }
                    }
                }
            } else if let Some(cs) = self.cfg.cold {
                // Endpoint-level warmth: one boot warms the pool.
                let e = &mut self.eps[ep];
                if now > e.warm_until {
                    exec += cs.cold_time;
                }
                e.warm_until = (now + exec) + cs.keep_warm;
            }
            self.eps[ep].running.push((inv, now));
            let epoch = self.invs[inv].epoch;
            self.schedule(
                now + exec,
                FEv::ExecDone {
                    ep: ep as u32,
                    inv: inv as u32,
                    epoch,
                },
            );
        }
    }

    fn input_ready(&mut self, ep: usize, inv: usize, epoch: u32, now: SimTime) {
        if epoch != self.invs[inv].epoch {
            return; // re-routed while the payload was in flight
        }
        if let Some(t) = self.tracer() {
            // Arrow head of the forwarder hop started at `assign` (same
            // id, same name).
            let s = self.ep_site[ep];
            let (tid, id) = (SITE_TID_BASE + s as u32, fed_flow_id(inv, epoch));
            t.tracer.flow_end(
                format!("inv {inv} -> site {s}"),
                "xfer",
                now.0,
                t.pid(),
                tid,
                id,
            );
            t.tracer
                .instant(format!("arrive inv {inv}"), "xfer", now.0, t.pid(), tid);
        }
        if self.eps[ep].known_down {
            // Payload landed on an endpoint already declared dead.
            self.release(ep);
            self.backoff_or_drop(inv, now);
            return;
        }
        let slots = self.endpoints[ep].slots;
        let e = &mut self.eps[ep];
        e.waiting.push_back(inv);
        if self.cfg.autoscale.is_some()
            && e.up
            && e.scale.busy >= e.scale.active
            && e.scale.active < slots
        {
            e.scale.grow(now);
        }
        self.try_start(ep, now);
    }

    fn exec_done(&mut self, ep: usize, inv: usize, epoch: u32, now: SimTime) {
        if epoch != self.invs[inv].epoch {
            return; // this attempt was killed by a crash
        }
        let e = &mut self.eps[ep];
        e.scale.busy -= 1;
        let pos = e
            .running
            .iter()
            .position(|&(r, _)| r == inv)
            .expect("finished invocation is running");
        e.running.swap_remove(pos);
        let spec = self.spec(inv);
        let ep_node = self.env.fleet.device(self.endpoints[ep].device).node;
        let tout = self
            .fwd
            .transfer(
                self.env,
                ep_node,
                self.invocations[inv].origin,
                spec.out_bytes,
            )
            .expect("disconnected topology");
        self.schedule(now + tout, FEv::ResponseBack(inv as u32));
        self.try_start(ep, now);
        if self.cfg.autoscale.is_some() && self.eps[ep].waiting.is_empty() {
            let floor = floor_slots(self.cfg.autoscale, &self.endpoints[ep]);
            let scale = &mut self.eps[ep].scale;
            scale.shrink_to(scale.busy.max(floor), now);
        }
    }

    fn response_back(&mut self, inv: usize, now: SimTime) {
        let ep = self.invs[inv].assigned as usize;
        self.release(ep);
        self.eps[ep].completions += 1;
        self.st[self.ep_site[ep]].stats.completions += 1;
        self.end_time = now;
        let latency = now.since(self.invocations[inv].arrival);
        self.latencies.push(latency.as_secs_f64());
        if let Some(h) = self.health.as_mut() {
            h.observe(now.0, latency.0);
        }
        self.health_tick(now);
    }

    fn ep_crash(&mut self, ep: usize, now: SimTime) {
        if !self.eps[ep].up {
            return;
        }
        self.tally.failovers += 1;
        self.mark(now, || format!("ep {ep} crash"));
        self.kill_ep(ep, now);
        let hb = self
            .cfg
            .faults
            .as_ref()
            .expect("crash event implies faults")
            .heartbeat;
        let gen = self.eps[ep].gen;
        self.schedule(now + hb, FEv::EpDetect { ep: ep as u32, gen });
    }

    /// Kill endpoint `ep`: its running attempts go stale and wait as
    /// orphans, its slots drop to zero, and it will come back cold.
    fn kill_ep(&mut self, ep: usize, now: SimTime) {
        let e = &mut self.eps[ep];
        e.up = false;
        e.gen += 1; // invalidates any pending endpoint detect
        for (inv, start) in std::mem::take(&mut e.running) {
            self.tally.lost_work_s += now.since(start).as_secs_f64();
            self.invs[inv].epoch += 1;
            e.orphans.push(inv);
        }
        e.scale.settle(now);
        e.scale.active = 0;
        e.scale.busy = 0;
        e.warm_until = SimTime::ZERO;
    }

    fn ep_detect(&mut self, ep: usize, gen: u32, now: SimTime) {
        if self.eps[ep].up || self.eps[ep].gen != gen {
            return; // recovered (or crashed again) meanwhile
        }
        self.tally.detections += 1;
        self.mark(now, || format!("ep {ep} detected down"));
        let mut displaced = Vec::new();
        self.displace(ep, &mut displaced);
        for inv in displaced {
            self.backoff_or_drop(inv, now);
        }
        self.refresh_site(self.ep_site[ep]);
    }

    /// Declare `ep` known down and move its orphans, then its queue, onto
    /// `out` as displaced work that has left the system.
    fn displace(&mut self, ep: usize, out: &mut Vec<usize>) {
        let e = &mut self.eps[ep];
        e.known_down = true;
        let from = out.len();
        out.append(&mut e.orphans);
        out.extend(e.waiting.drain(..));
        for &inv in &out[from..] {
            self.release(ep);
            self.invs[inv].displaced = true;
        }
    }

    fn ep_recover(&mut self, ep: usize, now: SimTime) {
        if self.eps[ep].up {
            return;
        }
        self.tally.recoveries += 1;
        self.mark(now, || format!("ep {ep} recover"));
        self.revive_ep(ep, now);
        self.refresh_site(self.ep_site[ep]);
    }

    /// Bring endpoint `ep` back up at its floor slots. Orphans not yet
    /// displaced restart in place: their payloads already live there.
    fn revive_ep(&mut self, ep: usize, now: SimTime) {
        let floor = floor_slots(self.cfg.autoscale, &self.endpoints[ep]);
        let e = &mut self.eps[ep];
        e.up = true;
        e.known_down = false;
        e.scale.settle(now);
        e.scale.active = floor;
        debug_assert_eq!(e.scale.busy, 0);
        for inv in std::mem::take(&mut e.orphans) {
            self.tally.orphans_restarted += 1;
            e.waiting.push_back(inv);
        }
        self.try_start(ep, now);
    }

    /// A displaced invocation's backoff expired: forward it afresh.
    fn reroute(&mut self, i: usize, now: SimTime) {
        match self.choose_site(i) {
            Some(s) => self.dispatch(i, s, now),
            None => self.backoff_or_drop(i, now),
        }
    }

    fn site_crash(&mut self, s: usize, now: SimTime) {
        if !self.st[s].up {
            return;
        }
        self.tally.site_crashes += 1;
        self.mark(now, || format!("site {s} crash"));
        let site = &mut self.st[s];
        site.up = false;
        site.gen += 1;
        site.warm.clear(); // the pool dies with the site
        let sites = self.sites;
        for &ep in &sites[s].endpoints {
            // An endpoint already down via its own fault stays as it is.
            if self.eps[ep].up {
                self.kill_ep(ep, now);
            }
        }
        self.refresh_site(s);
        let hb = self
            .cfg
            .site_faults
            .as_ref()
            .expect("site crash implies site faults")
            .heartbeat;
        let gen = self.st[s].gen;
        self.schedule(
            now + hb,
            FEv::SiteDetect {
                site: s as u32,
                gen,
            },
        );
    }

    fn site_detect(&mut self, s: usize, gen: u32, now: SimTime) {
        if self.st[s].up || self.st[s].gen != gen {
            return; // recovered (or crashed again) meanwhile
        }
        self.tally.site_detections += 1;
        self.mark(now, || format!("site {s} detected down"));
        self.st[s].known_down = true;
        // Collect everything the dead site holds: per-endpoint orphans
        // and queues, then the buffered ingress.
        let mut displaced: Vec<usize> = Vec::new();
        let sites = self.sites;
        for &ep in &sites[s].endpoints {
            self.displace(ep, &mut displaced);
        }
        while let Some(i) = self.st[s].ingress.pop_front() {
            self.in_system -= 1;
            self.invs[i].displaced = true;
            displaced.push(i);
        }
        self.st[s].drain_pending = false;
        self.refresh_site(s);
        // Broker-peer takeover: the least-loaded surviving site adopts
        // the displaced work through the forwarding layer, as one ingress
        // batch. Backoff is the last resort.
        let adopt = (0..self.st.len())
            .filter(|&x| self.site_live[x])
            .min_by_key(|&x| (self.site_out[x], x));
        match adopt {
            Some(a) if !displaced.is_empty() => {
                self.tally.takeovers += 1;
                self.st[a].stats.adopted += displaced.len() as u64;
                if let Some(h) = self.health.as_mut() {
                    h.anomaly(now.0, "takeover");
                }
                self.mark(now, || format!("site {a} takes over site {s}"));
                for i in displaced {
                    self.enqueue(i, a, now);
                }
            }
            _ => {
                for i in displaced {
                    self.backoff_or_drop(i, now);
                }
            }
        }
    }

    fn site_recover(&mut self, s: usize, now: SimTime) {
        if self.st[s].up {
            return;
        }
        self.tally.site_recoveries += 1;
        self.mark(now, || format!("site {s} recover"));
        self.st[s].up = true;
        self.st[s].known_down = false;
        let sites = self.sites;
        for &ep in &sites[s].endpoints {
            if self.eps[ep].up {
                // Came back individually while the site was down; clear
                // any suspicion left by site detection.
                self.eps[ep].known_down = false;
            } else {
                self.revive_ep(ep, now);
            }
        }
        self.refresh_site(s);
        // Work buffered before an undetected crash dispatches now.
        self.drain(s, now);
    }

    /// Take a flight-recorder sample when one is due: per-site ingress
    /// depth, outstanding count, and warm-pool hit rate.
    fn health_tick(&mut self, now: SimTime) {
        let Some(h) = self.health.as_mut() else {
            return;
        };
        if !h.due(now.0) {
            return;
        }
        let mut gauges: Vec<(String, f64)> = Vec::with_capacity(3 * self.st.len());
        for (s, site) in self.st.iter().enumerate() {
            gauges.push((format!("site{s}.ingress"), site.ingress.len() as f64));
            gauges.push((format!("site{s}.outstanding"), self.site_out[s] as f64));
            let starts = site.stats.warm_hits + site.stats.cold_boots;
            if starts > 0 {
                gauges.push((
                    format!("site{s}.warm_hit_rate"),
                    site.stats.warm_hits as f64 / starts as f64,
                ));
            }
        }
        h.sample(now.0, gauges);
    }

    /// Settle slot-seconds, build the report, and publish the run's
    /// metrics to the ambient sink.
    fn finish(mut self) -> FederationReport {
        let (tally, end_time) = (&self.tally, self.end_time);
        let completed = self.latencies.len() as u64;
        debug_assert_eq!(
            completed + tally.dropped + tally.rejected,
            self.invocations.len() as u64,
            "invocation conservation"
        );
        debug_assert_eq!(self.in_system, 0, "in-system count settles to zero");
        let span = end_time.as_secs_f64();
        let slot_seconds: f64 = self
            .eps
            .iter_mut()
            .map(|e| {
                e.scale.settle(end_time);
                e.scale.slot_seconds
            })
            .sum();
        let per_endpoint: Vec<u64> = self.eps.iter().map(|e| e.completions).collect();
        let fabric = FabricReport {
            completed,
            throughput_hz: if span > 0.0 {
                completed as f64 / span
            } else {
                0.0
            },
            jain: jain_fairness(&per_endpoint.iter().map(|&c| c as f64).collect::<Vec<_>>()),
            per_endpoint,
            latencies_s: self.latencies,
            end_time,
            slot_seconds,
            reroutes: tally.reroutes,
            retries: tally.retries,
            dropped: tally.dropped,
            rejected: tally.rejected,
            lost_work_s: tally.lost_work_s,
        };
        let (route_hits, route_misses) = self.fwd.cache_stats();
        let health = self.health.map(|h| h.finish(end_time.0));
        if let Some(t) = self.tele.as_deref() {
            let m = &t.metrics;
            m.inc("fabric.invocations", self.invocations.len() as u64);
            m.inc("fabric.completed", completed);
            m.record("fabric.reroutes", tally.reroutes);
            m.record("fabric.retries", tally.retries);
            m.record("fabric.dropped", tally.dropped);
            m.record("fabric.rejected", tally.rejected);
            m.record("fabric.failovers", tally.failovers);
            m.record("fabric.detections", tally.detections);
            m.record("fabric.recoveries", tally.recoveries);
            m.record("fabric.orphans_restarted", tally.orphans_restarted);
            m.set_gauge("fabric.lost_work_s", tally.lost_work_s);
            if span > 0.0 {
                m.set_gauge("fabric.throughput_hz", completed as f64 / span);
            }
            for (ep, &c) in fabric.per_endpoint.iter().enumerate() {
                m.inc_labeled("fabric.endpoint_completions", ep as u32, c);
            }
            let mut snap = continuum_obs::MetricsSnapshot::new();
            snap.merge_histogram("fabric.latency", &fabric.latency_histogram());
            m.absorb(&snap);
            // Federation-level counters.
            m.record("fabric.site.takeovers", tally.takeovers);
            m.record("fabric.site.crashes", tally.site_crashes);
            m.record("fabric.site.detections", tally.site_detections);
            m.record("fabric.site.recoveries", tally.site_recoveries);
            for (s, site) in self.st.iter().enumerate() {
                m.inc_labeled("fabric.site.completions", s as u32, site.stats.completions);
                m.inc_labeled("fabric.site.forwarded", s as u32, site.stats.forwarded);
                m.inc_labeled("fabric.site.adopted", s as u32, site.stats.adopted);
                m.inc_labeled("fabric.site.warm_hits", s as u32, site.stats.warm_hits);
                m.inc_labeled("fabric.site.cold_boots", s as u32, site.stats.cold_boots);
            }
            m.record("fabric.batch.drains", tally.drains);
            m.record("fabric.batch.dispatched", tally.batched);
            m.set_gauge("fabric.batch.max", tally.max_batch as f64);
            m.set_gauge(
                "fabric.batch.mean",
                if tally.drains > 0 {
                    tally.batched as f64 / tally.drains as f64
                } else {
                    0.0
                },
            );
            self.fwd.publish_metrics(m, "fabric.forwarder");
            if let Some(hr) = &health {
                hr.publish(m);
            }
        }
        FederationReport {
            fabric,
            sites: self.st.iter().map(|x| x.stats).collect(),
            takeovers: tally.takeovers,
            site_crashes: tally.site_crashes,
            site_detections: tally.site_detections,
            site_recoveries: tally.site_recoveries,
            drains: tally.drains,
            batched: tally.batched,
            max_batch: tally.max_batch,
            route_hits,
            route_misses,
            health,
        }
    }
}

/// Run a set of invocations through a federated fabric.
///
/// `sites` must partition `endpoints` (every endpoint in exactly one
/// site). See the module docs for semantics; `completed + dropped +
/// rejected == invocations.len()` always holds on the report. An
/// invocation of a function `registry` does not know is dropped on
/// arrival.
pub fn run_federation(
    env: &Env,
    registry: &FunctionRegistry,
    endpoints: &[Endpoint],
    sites: &[Site],
    invocations: &[Invocation],
    cfg: &FederationCfg,
) -> FederationReport {
    let mut core = FedCore::new(env, registry, endpoints, sites, invocations, cfg);
    // Arrival cursor: indices stably sorted by arrival time. Equal-time
    // arrivals keep index order and arrivals win ties against queue
    // events — exactly a heap's (time, seq) order, without two heap
    // operations per invocation.
    let mut order: Vec<usize> = (0..invocations.len()).collect();
    order.sort_by_key(|&i| invocations[i].arrival);
    let mut arrivals = order.into_iter().peekable();
    loop {
        let due = arrivals.peek().map(|&i| (i, invocations[i].arrival));
        match (due, core.queue.peek().map(|t| t.at)) {
            (Some((i, at)), q) if q.is_none_or(|q| at <= q) => {
                arrivals.next();
                core.arrive(i, at);
            }
            _ => match core.queue.pop() {
                Some(Timed { at, ev, .. }) => core.step(at, ev),
                None => break,
            },
        }
    }
    core.finish()
}

/// Deterministic flow-event id for one forwarder hop: a splitmix64-style
/// mix of the invocation index and its dispatch epoch, so the arrow tail
/// (at `assign`) and head (at `InputReady`) compute the same id
/// independently and re-dispatches get fresh arrows.
fn fed_flow_id(inv: usize, epoch: u32) -> u64 {
    let mut z = (inv as u64)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(u64::from(epoch));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::broker::endpoints_on;
    use continuum_model::standard_fleet;
    use continuum_net::{continuum, continuum_regions, ContinuumSpec, Tier};

    fn world() -> (Env, RegionPartition, Vec<NodeId>) {
        let spec = ContinuumSpec::default();
        let built = continuum(&spec);
        let sensors = built.sensors.clone();
        let env = Env::new(built.topology.clone(), standard_fleet(&built));
        let partition = RegionPartition::new(&env.topology, continuum_regions(&spec), 0);
        (env, partition, sensors)
    }

    fn workload(
        env: &Env,
        sensors: &[NodeId],
        n: usize,
        rate: f64,
        seed: u64,
    ) -> (FunctionRegistry, Vec<Endpoint>, Vec<Invocation>) {
        let mut registry = FunctionRegistry::new();
        let f = registry.register("infer", 5e9, 200 << 10, 1 << 10);
        let mut devices = env.fleet.in_tier(Tier::Fog);
        devices.extend(env.fleet.in_tier(Tier::Cloud));
        let endpoints = endpoints_on(env, &devices);
        let mut rng = Rng::new(seed);
        let mut t = 0.0;
        let invocations = (0..n)
            .map(|i| {
                t += rng.exp(rate);
                Invocation {
                    arrival: SimTime::from_secs_f64(t),
                    origin: sensors[i % sensors.len()],
                    function: f,
                }
            })
            .collect();
        (registry, endpoints, invocations)
    }

    #[test]
    fn sites_from_partition_covers_endpoints_disjointly() {
        let (env, partition, _) = world();
        let mut devices = env.fleet.in_tier(Tier::Fog);
        devices.extend(env.fleet.in_tier(Tier::Cloud));
        let endpoints = endpoints_on(&env, &devices);
        for max_sites in [1, 2, 4, 64] {
            let sites = sites_from_partition(&env, &partition, &endpoints, max_sites);
            assert!(!sites.is_empty() && sites.len() <= max_sites);
            let mut seen = vec![false; endpoints.len()];
            for (s, site) in sites.iter().enumerate() {
                assert_eq!(site.id, SiteId(s as u32));
                assert!(site.endpoints.windows(2).all(|w| w[0] < w[1]), "ascending");
                for &e in &site.endpoints {
                    assert!(!seen[e], "endpoint {e} in two sites");
                    seen[e] = true;
                }
            }
            assert!(seen.iter().all(|&b| b), "every endpoint owned");
        }
        let one = sites_from_partition(&env, &partition, &endpoints, 1);
        assert_eq!(one.len(), 1);
        assert_eq!(one[0].endpoints.len(), endpoints.len());
    }

    #[test]
    fn batching_conserves_and_defers_dispatch() {
        let (env, partition, sensors) = world();
        let (registry, endpoints, invocations) = workload(&env, &sensors, 500, 300.0, 9);
        let sites = sites_from_partition(&env, &partition, &endpoints, 2);
        let mut lat = Vec::new();
        for batch in [1usize, 8, 32] {
            let mut cfg = FederationCfg::new(RoutingPolicy::RoundRobin);
            cfg.batch = batch;
            cfg.drain_every = SimDuration::from_millis(50);
            let fed = run_federation(&env, &registry, &endpoints, &sites, &invocations, &cfg);
            assert_eq!(
                fed.fabric.completed,
                invocations.len() as u64,
                "batch {batch}"
            );
            if batch == 1 {
                assert_eq!(fed.max_batch, 1);
            } else {
                assert!(fed.max_batch > 1, "batch {batch} never coalesced");
                assert!(fed.drains < invocations.len() as u64);
            }
            let (p50, _, _) = fed.fabric.latency_percentiles();
            lat.push(p50);
        }
        // Buffering trades latency for amortization: median latency is
        // monotone non-decreasing in batch size on this steady load.
        assert!(
            lat[0] <= lat[1] + 1e-9 && lat[1] <= lat[2] + 1e-9,
            "{lat:?}"
        );
    }

    #[test]
    fn warm_pool_hits_repeat_functions_and_evicts_lru() {
        let (env, _, sensors) = world();
        let mut registry = FunctionRegistry::new();
        let fa = registry.register("a", 5e9, 10 << 10, 1 << 10);
        let fb = registry.register("b", 5e9, 10 << 10, 1 << 10);
        let cloud = env.fleet.in_tier(Tier::Cloud);
        let endpoints = endpoints_on(&env, &cloud[..1]);
        let sites = single_site(&env, &endpoints);
        // Sparse serial traffic alternating two functions.
        let invocations: Vec<Invocation> = (0..20)
            .map(|i| Invocation {
                arrival: SimTime::from_secs_f64(10.0 * i as f64),
                origin: sensors[0],
                function: if i % 2 == 0 { fa } else { fb },
            })
            .collect();
        let pool = |capacity| {
            let mut cfg = FederationCfg::new(RoutingPolicy::RoundRobin);
            cfg.warm_pool = Some(WarmPool {
                capacity,
                cold_time: SimDuration::from_secs(1),
            });
            run_federation(&env, &registry, &endpoints, &sites, &invocations, &cfg)
        };
        // Capacity 2 holds both functions: two boots, the rest warm.
        let big = pool(2);
        assert_eq!(big.sites[0].cold_boots, 2);
        assert_eq!(big.sites[0].warm_hits, 18);
        // Capacity 1 thrashes: alternating functions evict each other.
        let small = pool(1);
        assert_eq!(small.sites[0].warm_hits, 0);
        assert_eq!(small.sites[0].cold_boots, 20);
        // Capacity 0 runs everything cold too.
        let none = pool(0);
        assert_eq!(none.sites[0].cold_boots, 20);
        // Warmth shows up in latency.
        let (big_p50, _, _) = big.fabric.latency_percentiles();
        let (small_p50, _, _) = small.fabric.latency_percentiles();
        assert!(big_p50 < small_p50);
    }

    #[test]
    fn site_crash_triggers_peer_takeover_and_conserves() {
        let (env, partition, sensors) = world();
        let (registry, endpoints, invocations) = workload(&env, &sensors, 400, 200.0, 13);
        let sites = sites_from_partition(&env, &partition, &endpoints, 4);
        assert!(sites.len() >= 2, "need peers for takeover");
        let mid = invocations[invocations.len() / 2].arrival;
        let mut cfg = FederationCfg::new(RoutingPolicy::LeastOutstanding);
        cfg.site_faults = Some(SiteFaults {
            events: vec![
                SiteFaultEvent {
                    at: mid,
                    site: 0,
                    crash: true,
                },
                SiteFaultEvent {
                    at: mid + SimDuration::from_secs(30),
                    site: 0,
                    crash: false,
                },
            ],
            heartbeat: SimDuration::from_millis(500),
            backoff: Backoff::default(),
            seed: 0xBEEF,
        });
        let fed = run_federation(&env, &registry, &endpoints, &sites, &invocations, &cfg);
        let f = &fed.fabric;
        assert_eq!(
            f.completed + f.dropped + f.rejected,
            invocations.len() as u64,
            "conservation"
        );
        assert_eq!(fed.site_crashes, 1);
        assert_eq!(fed.site_detections, 1);
        assert_eq!(fed.site_recoveries, 1);
        assert_eq!(fed.takeovers, 1, "a peer adopted the dead site's work");
        let adopted: u64 = fed.sites.iter().map(|s| s.adopted).sum();
        assert!(adopted > 0, "takeover moved work");
        assert!(f.completed > 0);
    }

    #[test]
    fn health_plane_records_takeover_and_leaves_fabric_untouched() {
        let (env, partition, sensors) = world();
        let (registry, endpoints, invocations) = workload(&env, &sensors, 400, 200.0, 13);
        let sites = sites_from_partition(&env, &partition, &endpoints, 4);
        let mid = invocations[invocations.len() / 2].arrival;
        let mut cfg = FederationCfg::new(RoutingPolicy::LeastOutstanding);
        cfg.warm_pool = Some(WarmPool {
            capacity: 4,
            cold_time: SimDuration::from_millis(200),
        });
        cfg.site_faults = Some(SiteFaults {
            events: vec![
                SiteFaultEvent {
                    at: mid,
                    site: 0,
                    crash: true,
                },
                SiteFaultEvent {
                    at: mid + SimDuration::from_secs(30),
                    site: 0,
                    crash: false,
                },
            ],
            heartbeat: SimDuration::from_millis(500),
            backoff: Backoff::default(),
            seed: 0xBEEF,
        });
        let plain = run_federation(&env, &registry, &endpoints, &sites, &invocations, &cfg);
        assert!(plain.health.is_none());
        let mut hcfg = cfg.clone();
        hcfg.health = Some(HealthSpec {
            sample_every_ns: 50_000_000, // 50 ms: plenty of frames
            ..HealthSpec::default()
        });
        let fed = run_federation(&env, &registry, &endpoints, &sites, &invocations, &hcfg);
        // Observing the run must not change it.
        assert_eq!(fed.fabric, plain.fabric);
        assert_eq!(fed.takeovers, plain.takeovers);
        let h = fed.health.as_ref().expect("health requested");
        assert_eq!(h.observed, fed.fabric.completed);
        assert!(h.anomalies.iter().any(|a| a.kind == "takeover"));
        assert_eq!(h.incident.as_ref().unwrap().at_ns, mid.0 + 500_000_000);
        assert!(!h.frames.is_empty(), "flight recorder sampled frames");
        assert!(
            h.frames
                .iter()
                .any(|f| f.gauges.iter().any(|(k, _)| k.ends_with(".warm_hit_rate"))),
            "frames carry per-site warm-pool gauges"
        );
        // Deterministic: the same run yields the same timeline.
        let again = run_federation(&env, &registry, &endpoints, &sites, &invocations, &hcfg);
        assert_eq!(again.health, fed.health);
    }

    #[test]
    fn site_crash_with_no_peer_backs_off_like_single_broker() {
        let (env, _, sensors) = world();
        let (registry, endpoints, invocations) = workload(&env, &sensors, 50, 100.0, 21);
        let sites = single_site(&env, &endpoints);
        let start = invocations[0].arrival;
        let mut cfg = FederationCfg::new(RoutingPolicy::RoundRobin);
        cfg.site_faults = Some(SiteFaults {
            events: vec![
                SiteFaultEvent {
                    at: start,
                    site: 0,
                    crash: true,
                },
                SiteFaultEvent {
                    at: start + SimDuration::from_secs(5),
                    site: 0,
                    crash: false,
                },
            ],
            heartbeat: SimDuration::from_millis(200),
            backoff: Backoff::default(),
            seed: 3,
        });
        let fed = run_federation(&env, &registry, &endpoints, &sites, &invocations, &cfg);
        let f = &fed.fabric;
        assert_eq!(
            f.completed + f.dropped + f.rejected,
            invocations.len() as u64
        );
        assert_eq!(fed.takeovers, 0, "no surviving peer to adopt");
        assert!(f.retries > 0, "displaced work backed off");
        assert!(f.completed > 0, "recovery drained the backlog");
    }

    #[test]
    fn foreign_function_id_is_dropped_on_arrival() {
        let (env, partition, sensors) = world();
        let (registry, endpoints, mut invocations) = workload(&env, &sensors, 60, 100.0, 17);
        // An id no function of this registry carries, among valid ones.
        invocations[20].function = FunctionId(registry.len() as u32 + 6);
        let sites = sites_from_partition(&env, &partition, &endpoints, 2);
        let mut cfg = FederationCfg::new(RoutingPolicy::LeastOutstanding);
        cfg.batch = 4;
        let fed = run_federation(&env, &registry, &endpoints, &sites, &invocations, &cfg);
        let f = &fed.fabric;
        assert_eq!(f.dropped, 1);
        assert_eq!(f.completed, invocations.len() as u64 - 1);
        assert_eq!(
            f.completed + f.dropped + f.rejected,
            invocations.len() as u64
        );
    }

    #[test]
    fn forwarder_cache_hits_dominate_on_repeat_traffic() {
        let (env, partition, sensors) = world();
        let (registry, endpoints, invocations) = workload(&env, &sensors, 1000, 300.0, 5);
        let sites = sites_from_partition(&env, &partition, &endpoints, 4);
        let fed = run_federation(
            &env,
            &registry,
            &endpoints,
            &sites,
            &invocations,
            &FederationCfg::new(RoutingPolicy::RoundRobin),
        );
        assert!(
            fed.route_hits > fed.route_misses,
            "hits {} misses {}",
            fed.route_hits,
            fed.route_misses
        );
    }
}
