//! Max-min fair bandwidth sharing for concurrent transfers.
//!
//! The simulated executor charges transfers their *contended* time: all
//! active flows crossing a link share its capacity max-min fairly
//! (progressive filling). The [`FlowNetwork`] tracks active flows, their
//! fair rates, and remaining bytes; the caller (an event loop) asks for the
//! next completion time and advances the network to event timestamps.
//!
//! # Engine layout
//!
//! Flow state lives in a slab (`Vec` of slots plus a free list) rather
//! than a `HashMap`: a [`FlowId`] encodes `(generation << 32) | slot`, so
//! lookup is an index plus a generation check and start/remove never
//! rehash. Each link keeps an index of the active flows crossing it, and
//! paths share their link list (`Arc<[LinkId]>`) with the route table
//! instead of cloning it per flow.
//!
//! Rate recomputation is deferred and local. `start`, `remove`,
//! `fail_link` and `restore_link` only update the flow and link indices
//! and note what they touched: a started flow, or the dirty links (every
//! *binding* link of a removed flow, a restored link). The next
//! observation (`rate`, `next_completion`, `advance`, `link_loads`)
//! searches the flow–link graph from them and runs one progressive-filling
//! pass over the component it reaches, so a burst of mutations at one
//! event timestamp costs a single pass.
//!
//! The search leaves slack links out. A link is *binding* when it carries
//! flows whose rates sum to at least `capacity × (1 − δ)`, δ = 1e-9, and
//! *slack* otherwise; from a flow, the search crosses only into binding
//! links. That is exact, not an approximation: if a link ends the pass
//! with its flows' final rates summing below capacity, then at every wave
//! `k` its share is `(capacity − Σ frozen)/u > (Σ unfrozen final
//! rates)/u ≥ m_k`, the wave's minimum — so it never ties, never freezes
//! a flow, and never changes another link's subtractions. δ sits far
//! above float rounding, so computed shares keep that strict order.
//! Leaving such links out only splits components, and max-min rates
//! decompose exactly over components: each link sees the same
//! subtractions in the same order as in a pass over every flow, so the
//! result is bit-identical to a full recompute. A removal dirties only
//! binding links, since it only lowers a slack link's load.
//!
//! A pass may raise rates until a link it left out binds. So the fill
//! projects the load of each slack link that a rising flow crosses (a
//! per-link upper bound with a rigorous rounding-error bound, see
//! `LinkLoad`), and re-checks those links and every link of a started
//! flow; a link the bound cannot prove slack is summed afresh from its
//! flows. If any binds, it is marked binding, the pass is undone (rates,
//! bytes and anchors restored) and rerun with it in the search. A settled
//! pass re-classifies its own links from the loads it just summed. The
//! cost is `O(waves × component links + sum of component path lengths)`
//! plus `O(links of the flows whose rate rose)`, independent of the total
//! link and flow counts. The seed's from-scratch algorithm, which scanned
//! and reallocated every link on every mutation, is retained verbatim as
//! [`FlowNetwork::oracle_rates`] and cross-checked against the engine by
//! property tests.
//!
//! Byte draining is *lazy*: each flow carries an anchor `(time,
//! remaining, rate)` triple and is re-anchored only when a recompute
//! actually changes its rate bitwise. `advance` just moves the clock —
//! O(1) instead of the former O(active flows) per event — and observers
//! evaluate `remaining - rate × (now - anchor)` on demand. Besides the
//! speed, this makes a flow's byte trajectory a pure function of its
//! rate-change history: two engines that apply the same mutations to a
//! flow's links compute bit-identical remaining bytes and completion
//! times even if their clocks advance through different intermediate
//! event timestamps. The pinned region-sharded executor
//! (`continuum-runtime::simulate_stream_sharded`) leans on exactly that
//! property — a region's flow domain sees the same mutations whichever
//! shard owns it, while the timestamps its clock steps through depend on
//! how regions were dealt — and on the monotone per-flow `seq` used to
//! break completion-time ties identically in every engine instance.
//!
//! `next_completion` reads a min-heap of `(completion, seq, slot,
//! generation)` entries. A flow that re-anchors is queued once, and
//! `next_completion` pushes the new completion of every queued flow
//! before it reads the heap. Entries go stale lazily — the slot's
//! generation moved on, or the flow re-anchored to a different
//! completion — and are popped when they reach the top; once stale
//! entries outnumber live flows about two to one the heap is rebuilt
//! from the live flows, which bounds its memory.
//!
//! An ablation experiment compares this model against the naive
//! "bottleneck-only" estimate of [`crate::routing::Path::transfer_time`].

use crate::routing::Path;
use crate::topology::{LinkId, Topology};
use continuum_sim::{SimDuration, SimTime};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

/// Identifier of an active flow: `(generation << 32) | slot`.
///
/// Generations make stale ids detectable after their slot is reused, so
/// ids stay unique for the lifetime of the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FlowId(pub u64);

impl FlowId {
    fn new(slot: u32, generation: u32) -> FlowId {
        FlowId((u64::from(generation) << 32) | u64::from(slot))
    }

    fn slot(self) -> usize {
        (self.0 & 0xFFFF_FFFF) as usize
    }

    fn generation(self) -> u32 {
        (self.0 >> 32) as u32
    }
}

/// One slab slot. `links` is empty while the slot sits on the free list.
#[derive(Debug, Clone)]
struct FlowSlot {
    /// Bumped every time the slot is freed; part of the [`FlowId`].
    generation: u32,
    links: Arc<[LinkId]>,
    /// `link_pos[i]` = this flow's position in `link_flows[links[i]]`.
    link_pos: Vec<u32>,
    total: f64, // bytes requested at `start`
    /// Bytes remaining at `anchor` (NOT at the network clock); the flow
    /// drains at `rate` from there. Re-anchored only when a recompute
    /// changes the rate bitwise.
    remaining: f64,
    rate: f64, // bytes/s, max-min fair share
    /// When `remaining` was sampled.
    anchor: SimTime,
    /// Start order, monotone per engine. Completion ties break on `seq`
    /// rather than [`FlowId`] because slot reuse makes id order depend on
    /// removal history, while start order is reproducible across engine
    /// instances simulating subsets of the same workload.
    seq: u64,
    /// Listed in `FlowNetwork::reanchored`, awaiting a heap push.
    queued: bool,
}

impl FlowSlot {
    /// When the flow finishes under its current rate, projected from its
    /// anchor (the last instant its rate changed, where `remaining` is
    /// exact); `None` while it is stalled at rate zero. Clamped so the
    /// nanosecond conversion cannot overflow the clock; no real flow
    /// takes anywhere near 1e9 seconds.
    fn completion(&self) -> Option<SimTime> {
        (self.rate > 0.0).then(|| {
            self.anchor + SimDuration::from_secs_f64((self.remaining / self.rate).min(1e9))
        })
    }

    /// Bytes left at time `t` (must be ≥ `anchor`) under the current rate.
    fn remaining_at(&self, t: SimTime) -> f64 {
        let dt = t.since(self.anchor).as_secs_f64();
        if dt <= 0.0 {
            self.remaining
        } else {
            (self.remaining - self.rate * dt).max(0.0)
        }
    }
}

/// A flow forcibly terminated by [`FlowNetwork::fail_link`].
///
/// Bytes already transferred are preserved so the caller can resume the
/// remainder over a surviving path without re-sending them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AbortedFlow {
    /// The aborted flow's id (now stale).
    pub id: FlowId,
    /// Bytes delivered before the abort.
    pub transferred: f64,
    /// Bytes still owed when the link died.
    pub remaining: f64,
}

/// Per-link filling state, merged into one entry so the random-access
/// updates in the freeze loop touch a single cache line per link.
#[derive(Debug, Clone, Copy, Default)]
struct LinkFill {
    /// Remaining capacity during filling (bytes/s).
    residual: f64,
    /// For a link in the pass, the sum of the rates frozen on it so far;
    /// for a slack link re-checked after it, its load projected to the
    /// pass's rates.
    load: LinkLoad,
    /// Active flows crossing the link not yet frozen.
    unfrozen: u32,
    /// Epoch in which the component search reached the link.
    epoch: u32,
}

/// An upper bound on a link's load, the sum of its flows' rates, kept as
/// they change: a rise or a removal shifts `sum`, and a fall outside a
/// pass may be skipped. `slop` bounds the rounding error of those shifts:
/// each widens it by the most its two roundings can lose, so the real
/// sum never exceeds `sum + slop`, however long the link goes without
/// being summed afresh.
#[derive(Debug, Clone, Copy, Default)]
struct LinkLoad {
    sum: f64,
    slop: f64,
}

impl LinkLoad {
    /// `terms` non-negative rates summed afresh to `sum`.
    fn summed(sum: f64, terms: usize) -> LinkLoad {
        LinkLoad {
            sum,
            slop: f64::EPSILON * terms as f64 * sum,
        }
    }

    /// One flow's rate moves from `old` to `new` (both ≥ 0).
    fn shift(&mut self, old: f64, new: f64) {
        self.slop += f64::EPSILON * (self.sum.abs() + old + new);
        self.sum += new - old;
    }

    /// Whether the load is slack for certain: below `capacity × (1 −
    /// BINDING_MARGIN)` even at the top of its error bound.
    fn surely_slack(&self, capacity: f64) -> bool {
        self.sum + self.slop < capacity * (1.0 - BINDING_MARGIN)
    }

    /// Whether `sum`, summed afresh, makes the link binding.
    fn binds(sum: f64, capacity: f64) -> bool {
        sum >= capacity * (1.0 - BINDING_MARGIN)
    }
}

/// Reusable buffers for `recompute_rates`. Per-link state is (re)seeded
/// for the links the component search reaches each call; the link and
/// flow stamps are epoch-based, so they are cleared only when the epoch
/// counter would wrap.
#[derive(Debug, Clone, Default)]
struct Scratch {
    /// Advances by two per pass: a flow stamped `epoch - 1` was reached
    /// by this pass's search, one stamped `epoch` is already frozen. A
    /// link stamped `epoch` is in the pass, one stamped `epoch - 1` was
    /// re-checked after it.
    epoch: u32,
    /// Per link: filling state (valid only for links seeded this call).
    fill: Vec<LinkFill>,
    /// Per slot: epoch in which the flow was reached or frozen.
    flow_epoch: Vec<u32>,
    /// The pass's links in search order.
    links: Vec<u32>,
    /// The wave working set: the pass's links, compacted as they run out
    /// of unfrozen flows.
    work: Vec<u32>,
    /// Links tied at the current wave's minimum share (wave-local).
    tied: Vec<u32>,
    /// Flows whose rate the pass changed, with the `(rate, remaining,
    /// anchor)` they had before it, so a rerun can undo them.
    changed: Vec<(u32, f64, f64, SimTime)>,
    /// Slack links outside the pass whose load it projects (stamped
    /// `epoch - 1`).
    checked: Vec<u32>,
}

impl Scratch {
    /// Open a pass and return its epoch.
    fn next_epoch(&mut self) -> u32 {
        if self.epoch > u32::MAX - 2 {
            // The stamps would repeat: clear them and count afresh.
            self.epoch = 0;
            self.flow_epoch.fill(0);
            self.fill.iter_mut().for_each(|f| f.epoch = 0);
        }
        self.epoch += 2;
        self.epoch
    }
}

/// A link is *binding* when it carries flows and their rates sum to at
/// least `capacity × (1 − BINDING_MARGIN)`, and *slack* otherwise. The
/// margin sits far above float rounding (summing or filling `n` rates on
/// a link is off by at most about `n × 1.1e-16 × capacity`), so a link
/// classed slack is slack by a margin no rounding can close.
const BINDING_MARGIN: f64 = 1e-9;

/// Concurrent flows sharing link capacity max-min fairly.
///
/// ```
/// use continuum_net::{FlowNetwork, RouteTable, Tier, Topology};
/// use continuum_sim::{SimDuration, SimTime};
///
/// let mut topo = Topology::new();
/// let a = topo.add_node("a", Tier::Edge);
/// let b = topo.add_node("b", Tier::Cloud);
/// topo.add_link(a, b, SimDuration::from_millis(1), 1e6); // 1 MB/s
/// let routes = RouteTable::build(&topo);
/// let path = routes.path(&topo, a, b).unwrap();
///
/// let mut net = FlowNetwork::new(&topo);
/// let f1 = net.start(SimTime::ZERO, &path, 1_000_000).unwrap();
/// let f2 = net.start(SimTime::ZERO, &path, 1_000_000).unwrap();
/// // Two flows share the megabyte-per-second link fairly.
/// assert_eq!(net.rate(f1), Some(5e5));
/// assert_eq!(net.rate(f2), Some(5e5));
/// ```
///
/// Local (zero-hop) flows complete instantaneously and are never registered.
/// Usage protocol, driven by an external event loop:
///
/// 1. [`FlowNetwork::start`] a flow when its transfer begins (after the
///    path's propagation latency, if the caller models it).
/// 2. [`FlowNetwork::next_completion`] to learn which flow finishes next
///    and when; schedule an event for it.
/// 3. On any event that changes the flow set, first [`FlowNetwork::advance`]
///    to the event time, then apply the change; previously scheduled
///    completion events that no longer match should be discarded by the
///    caller (compare against `next_completion` again).
#[derive(Debug, Clone)]
pub struct FlowNetwork {
    /// Effective capacity: 0 while a link is failed.
    capacity: Vec<f64>,
    /// Capacity as built, restored by `restore_link`.
    base_capacity: Vec<f64>,
    link_up: Vec<bool>,
    slots: Vec<FlowSlot>,
    free_slots: Vec<u32>,
    /// Active slot indices, unordered; `slot_pos` tracks positions.
    active_slots: Vec<u32>,
    slot_pos: Vec<u32>,
    /// Per link: slot indices of the active flows crossing it.
    link_flows: Vec<Vec<u32>>,
    /// Per link: binding (`true`) or slack as of the last pass that
    /// covered it. A link marked slack carries no flows or is slack under
    /// the current rates; one marked binding may have gone slack since,
    /// which only widens the next search.
    binding: Vec<bool>,
    /// Links marked binding.
    binding_links: u32,
    /// Per link: its load under the settled rates, or an upper bound on
    /// it (see `promote_slack_links`).
    load: Vec<LinkLoad>,
    /// Links touched by mutations since rates were last settled; with
    /// `started` they seed the next observation's pass, so mutations at
    /// one event timestamp coalesce into a single filling pass.
    dirty_links: Vec<u32>,
    /// Slots of the flows started since rates were last settled.
    started: Vec<u32>,
    /// Min-heap of `(completion, seq, slot, generation)`, lazily
    /// invalidated (see the module docs).
    completions: BinaryHeap<Reverse<(SimTime, u64, u32, u32)>>,
    /// Slots re-anchored since `next_completion` last caught the heap up.
    reanchored: Vec<u32>,
    scratch: Scratch,
    /// Next start-order stamp (see [`FlowSlot::seq`]).
    next_seq: u64,
    clock: SimTime,
    /// Lifetime recompute passes (telemetry; plain counter, always on).
    recomputes: u64,
    /// Sum of the component sizes those passes re-rated (telemetry):
    /// `recomputed_flows / recomputes` is the mean batch a pass re-rates.
    recomputed_flows: u64,
    /// Re-ratings that changed a flow's rate bitwise (telemetry).
    rate_changes: u64,
}

/// Lifetime counters of one or more [`FlowNetwork`]s, harvested by the
/// telemetry plane (see [`FlowEngineStats::publish_metrics`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlowEngineStats {
    /// Progressive-filling passes actually run (observations that found
    /// dirty links or started flows).
    pub recomputes: u64,
    /// Sum over those passes of the flows in the component each re-rated
    /// — not the engine's active-flow count. A pass that reruns counts
    /// its flows once per run.
    pub recomputed_flows: u64,
    /// Re-ratings that changed a flow's rate bitwise: the yield of those
    /// passes.
    pub rate_changes: u64,
}

impl std::ops::AddAssign for FlowEngineStats {
    /// Merge another engine's counters (they add).
    fn add_assign(&mut self, other: FlowEngineStats) {
        self.recomputes += other.recomputes;
        self.recomputed_flows += other.recomputed_flows;
        self.rate_changes += other.rate_changes;
    }
}

impl FlowEngineStats {
    /// Publish the counters into a metrics registry under `prefix` (e.g.
    /// `"flow_engine"`), materialised even at zero. Counters from several
    /// engines merge additively; their ratio does not, so the mean-batch
    /// gauge is left to [`Self::publish_mean_batch`] once every engine's
    /// counters are merged.
    pub fn publish_metrics(&self, reg: &continuum_obs::MetricsRegistry, prefix: &str) {
        reg.record(&format!("{prefix}.recomputes"), self.recomputes);
        reg.record(&format!("{prefix}.recomputed_flows"), self.recomputed_flows);
        reg.record(&format!("{prefix}.rate_changes"), self.rate_changes);
    }

    /// Set `{prefix}.mean_batch` in a merged snapshot from the counters
    /// [`Self::publish_metrics`] left there: the mean number of flows a
    /// pass re-rated, over every engine merged in (0 with no passes).
    pub fn publish_mean_batch(snap: &mut continuum_obs::MetricsSnapshot, prefix: &str) {
        let passes = snap.counter(&format!("{prefix}.recomputes"));
        let flows = snap.counter(&format!("{prefix}.recomputed_flows"));
        let mean = if passes == 0 {
            0.0
        } else {
            flows as f64 / passes as f64
        };
        snap.set_gauge(&format!("{prefix}.mean_batch"), mean);
    }
}

impl FlowNetwork {
    /// Build over the links of `topo` (captures current capacities).
    pub fn new(topo: &Topology) -> FlowNetwork {
        let links = topo.links().len();
        let capacity: Vec<f64> = topo.links().iter().map(|l| l.bandwidth_bps).collect();
        FlowNetwork {
            base_capacity: capacity.clone(),
            capacity,
            link_up: vec![true; links],
            slots: Vec::new(),
            free_slots: Vec::new(),
            active_slots: Vec::new(),
            slot_pos: Vec::new(),
            link_flows: vec![Vec::new(); links],
            binding: vec![false; links],
            binding_links: 0,
            load: vec![LinkLoad::default(); links],
            dirty_links: Vec::new(),
            started: Vec::new(),
            completions: BinaryHeap::new(),
            reanchored: Vec::new(),
            scratch: Scratch {
                fill: vec![LinkFill::default(); links],
                ..Scratch::default()
            },
            next_seq: 0,
            clock: SimTime::ZERO,
            recomputes: 0,
            recomputed_flows: 0,
            rate_changes: 0,
        }
    }

    /// Lifetime recompute counters — the record the telemetry plane
    /// harvests at run end.
    pub fn engine_stats(&self) -> FlowEngineStats {
        FlowEngineStats {
            recomputes: self.recomputes,
            recomputed_flows: self.recomputed_flows,
            rate_changes: self.rate_changes,
        }
    }

    /// Current internal clock (last `advance` / `start` time).
    pub fn now(&self) -> SimTime {
        self.clock
    }

    /// Number of active flows.
    pub fn active(&self) -> usize {
        self.active_slots.len()
    }

    /// Start a flow of `bytes` along `path` at time `now`.
    ///
    /// Returns `None` if the path is local (zero hops) — such transfers are
    /// free under this model and complete immediately.
    ///
    /// # Panics
    /// If `now` is earlier than the network's clock.
    pub fn start(&mut self, now: SimTime, path: &Path, bytes: u64) -> Option<FlowId> {
        if path.links.is_empty() {
            return None;
        }
        self.advance(now);
        let slot = match self.free_slots.pop() {
            Some(s) => s,
            None => {
                let s = self.slots.len() as u32;
                self.slots.push(FlowSlot {
                    generation: 0,
                    links: Vec::new().into(),
                    link_pos: Vec::new(),
                    total: 0.0,
                    remaining: 0.0,
                    rate: 0.0,
                    anchor: SimTime::ZERO,
                    seq: 0,
                    queued: false,
                });
                self.slot_pos.push(0);
                self.scratch.flow_epoch.push(0);
                s
            }
        };
        let f = &mut self.slots[slot as usize];
        f.links = path.links.clone();
        f.total = bytes.max(1) as f64;
        f.remaining = f.total;
        f.rate = 0.0;
        f.anchor = self.clock;
        f.seq = self.next_seq;
        self.next_seq += 1;
        f.link_pos.clear();
        for i in 0..self.slots[slot as usize].links.len() {
            let l = self.slots[slot as usize].links[i].0 as usize;
            self.slots[slot as usize]
                .link_pos
                .push(self.link_flows[l].len() as u32);
            self.link_flows[l].push(slot);
        }
        self.slot_pos[slot as usize] = self.active_slots.len() as u32;
        self.active_slots.push(slot);
        // The new flow seeds the next pass itself, not through a link:
        // only its binding links join the search.
        self.started.push(slot);
        Some(FlowId::new(slot, self.slots[slot as usize].generation))
    }

    /// Remove a flow (completion or cancellation) at time `now`.
    ///
    /// Stale or unknown ids are ignored (matching the seed's tolerant
    /// `HashMap::remove` behaviour).
    pub fn remove(&mut self, now: SimTime, id: FlowId) {
        self.advance(now);
        let slot = id.slot();
        if slot >= self.slots.len() || self.slots[slot].generation != id.generation() {
            return;
        }
        // A freed slot has an empty link list but keeps its generation
        // until reuse; double-removes of zero-hop ids cannot occur since
        // zero-hop paths are never registered.
        if self.slots[slot].links.is_empty() {
            return;
        }
        // Unhook from every link's flow index.
        let links = std::mem::replace(&mut self.slots[slot].links, Vec::new().into());
        // Every binding link is dirty: removing the flow may split its
        // component and raise its neighbours' rates. A slack link is not:
        // the removal only lowers its load.
        for (i, &l) in links.iter().enumerate() {
            let pos = self.slots[slot].link_pos[i] as usize;
            let list = &mut self.link_flows[l.0 as usize];
            list.swap_remove(pos);
            if pos < list.len() {
                let moved = list[pos] as usize;
                let j = self.slots[moved]
                    .links
                    .iter()
                    .position(|&x| x == l)
                    .expect("moved flow crosses this link");
                self.slots[moved].link_pos[j] = pos as u32;
            }
            let li = l.0 as usize;
            if list.is_empty() {
                self.load[li] = LinkLoad::default();
            } else {
                self.load[li].shift(self.slots[slot].rate, 0.0);
            }
            if self.binding[li] {
                self.dirty_links.push(l.0);
            }
        }
        // Unhook from the active list.
        let pos = self.slot_pos[slot] as usize;
        self.active_slots.swap_remove(pos);
        if pos < self.active_slots.len() {
            self.slot_pos[self.active_slots[pos] as usize] = pos as u32;
        }
        self.slots[slot].generation = self.slots[slot].generation.wrapping_add(1);
        self.slots[slot].rate = 0.0;
        self.free_slots.push(slot as u32);
    }

    /// Fail a link at time `now`: its capacity drops to zero and every
    /// in-flight flow crossing it is aborted.
    ///
    /// Bytes drained before `now` are preserved in the returned
    /// [`AbortedFlow`]s (sorted by id for determinism) so callers can
    /// resume the remainder elsewhere. Failing an already-dead link is a
    /// no-op returning no aborts.
    ///
    /// Starting a new flow across a dead link is not forbidden — it simply
    /// runs at rate zero until the link is restored — but callers that can
    /// route around the failure should (see `shortest_path_avoiding`).
    pub fn fail_link(&mut self, now: SimTime, link: LinkId) -> Vec<AbortedFlow> {
        let li = link.0 as usize;
        if !self.link_up[li] {
            return Vec::new();
        }
        // Bring rates up to the failure instant; bytes drained before
        // `now` are computed lazily from each flow's anchor below.
        self.advance(now);
        self.link_up[li] = false;
        self.capacity[li] = 0.0;
        let mut by_seq: Vec<(u64, AbortedFlow)> = self.link_flows[li]
            .iter()
            .map(|&s| {
                let f = &self.slots[s as usize];
                let rem = f.remaining_at(now);
                (
                    f.seq,
                    AbortedFlow {
                        id: FlowId::new(s, f.generation),
                        transferred: (f.total - rem).max(0.0),
                        remaining: rem,
                    },
                )
            })
            .collect();
        // Start order, not id order: reproducible across engine instances
        // that saw the same flows start (ids depend on slot-reuse history).
        by_seq.sort_unstable_by_key(|&(seq, _)| seq);
        let aborted: Vec<AbortedFlow> = by_seq.into_iter().map(|(_, a)| a).collect();
        // Removing the aborted flows dirties their binding links; with no
        // flows left on it, the dead link reaches no rate until a new flow
        // crosses it, and the re-check of that flow's links marks it
        // binding (load 0 of capacity 0).
        for a in &aborted {
            self.remove(now, a.id);
        }
        aborted
    }

    /// Restore a failed link to its original capacity at time `now`.
    ///
    /// Restoring a live link is a no-op.
    pub fn restore_link(&mut self, now: SimTime, link: LinkId) {
        let li = link.0 as usize;
        if self.link_up[li] {
            return;
        }
        self.advance(now);
        self.link_up[li] = true;
        self.capacity[li] = self.base_capacity[li];
        self.dirty_links.push(link.0);
    }

    /// Whether a link currently carries traffic (not failed).
    pub fn link_is_up(&self, link: LinkId) -> bool {
        self.link_up[link.0 as usize]
    }

    /// Whether every link of `path` is up (vacuously true for local paths).
    pub fn path_is_up(&self, path: &Path) -> bool {
        path.links.iter().all(|&l| self.link_up[l.0 as usize])
    }

    /// The earliest (time, flow) completion under current rates, if any
    /// flows are making progress.
    ///
    /// Flows stalled at rate zero (e.g. crossing a failed link) never
    /// complete and are excluded; they reappear once capacity returns.
    ///
    /// Ties break on start order (`seq`), which is reproducible across
    /// engine instances; slot ids are not (LIFO reuse).
    pub fn next_completion(&mut self) -> Option<(SimTime, FlowId)> {
        self.ensure_rates();
        if self.completions.len() > 3 * self.active_slots.len() + 32 {
            // Stale entries outnumber live flows about two to one: rebuild
            // from every live flow.
            self.completions.clear();
            for &s in &self.active_slots {
                let f = &mut self.slots[s as usize];
                if !f.queued {
                    f.queued = true;
                    self.reanchored.push(s);
                }
            }
        }
        for s in self.reanchored.drain(..) {
            let f = &mut self.slots[s as usize];
            f.queued = false;
            if let Some(t) = f.completion() {
                self.completions.push(Reverse((t, f.seq, s, f.generation)));
            }
        }
        // Every live flow with a positive rate has now pushed its current
        // completion, so the least entry that still matches its flow is
        // the answer.
        while let Some(&Reverse((t, _, slot, generation))) = self.completions.peek() {
            let f = &self.slots[slot as usize];
            if f.generation == generation && f.completion() == Some(t) {
                return Some((t, FlowId::new(slot, generation)));
            }
            self.completions.pop();
        }
        None
    }

    /// Advance the clock to `now`.
    ///
    /// O(1) in the number of flows: bytes are not drained eagerly. Each
    /// flow's `remaining` is stated at its `anchor` and the drain since
    /// then is implied by its (settled) rate; `recompute_rates` re-anchors
    /// a flow only when its rate actually changes.
    ///
    /// # Panics
    /// Debug-asserts that time does not move backwards.
    pub fn advance(&mut self, now: SimTime) {
        debug_assert!(now >= self.clock, "flow network time went backwards");
        if now <= self.clock {
            return;
        }
        // Pending mutations happened at (or before) the current clock, so
        // rates must settle *before* the clock moves — re-anchoring in
        // `recompute_rates` uses the mutation-time clock.
        self.ensure_rates();
        self.clock = now;
    }

    /// The current max-min fair rate of a flow (bytes/s).
    pub fn rate(&mut self, id: FlowId) -> Option<f64> {
        self.ensure_rates();
        self.lookup(id).map(|f| f.rate)
    }

    /// Remaining bytes of a flow at the current clock.
    pub fn remaining(&self, id: FlowId) -> Option<f64> {
        let clock = self.clock;
        self.lookup(id).map(|f| f.remaining_at(clock))
    }

    fn lookup(&self, id: FlowId) -> Option<&FlowSlot> {
        let f = self.slots.get(id.slot())?;
        (f.generation == id.generation() && !f.links.is_empty()).then_some(f)
    }

    /// Run the deferred recomputation if any mutation happened since the
    /// rates were last brought up to date.
    fn ensure_rates(&mut self) {
        if !self.dirty_links.is_empty() || !self.started.is_empty() {
            self.recompute_rates();
        }
    }

    /// Re-rate the flows the pending mutations can affect: search from
    /// them across binding links, fill the component found, then re-check
    /// the slack links whose load a re-rated flow raised. If one of those
    /// now binds, undo the pass and rerun it with that link in the search.
    fn recompute_rates(&mut self) {
        self.recomputes += 1;
        let epoch = loop {
            let epoch = self.scratch.next_epoch();
            let flows = self.search(epoch);
            self.recomputed_flows += flows as u64;
            self.fill(epoch, flows);
            if !self.promote_slack_links(epoch) {
                break epoch;
            }
            // Undo the pass; the rerun keeps its links and adds the
            // promoted ones through the search.
            for &(s, rate, remaining, anchor) in &self.scratch.changed {
                let f = &mut self.slots[s as usize];
                (f.rate, f.remaining, f.anchor) = (rate, remaining, anchor);
            }
            self.dirty_links.extend_from_slice(&self.scratch.links);
        };
        // Settled. Every flow crossing a link of the pass froze on it, so
        // the fill summed each such link's load afresh: re-classify them.
        // The re-checked links keep their projected loads.
        let sc = &self.scratch;
        for &l in &sc.links {
            let l = l as usize;
            debug_assert_eq!(sc.fill[l].epoch, epoch);
            let (sum, terms) = (sc.fill[l].load.sum, self.link_flows[l].len());
            self.load[l] = LinkLoad::summed(sum, terms);
            let binding = terms > 0 && LinkLoad::binds(sum, self.capacity[l]);
            self.binding_links += u32::from(binding);
            self.binding_links -= u32::from(self.binding[l]);
            self.binding[l] = binding;
        }
        for &l in &sc.checked {
            self.load[l as usize] = sc.fill[l as usize].load;
        }
        self.rate_changes += sc.changed.len() as u64;
        self.dirty_links.clear();
        self.started.clear();
    }

    /// Breadth-first search of the flow–link graph from the dirty links
    /// and the started flows, crossing from a flow only into its binding
    /// links, into `scratch.links`. A started flow also enters through
    /// its slack link with the least headroom, the one its new rate is
    /// likeliest to make bind, so every flow the search reaches crosses a
    /// link of the pass. Returns the flows reached.
    fn search(&mut self, epoch: u32) -> usize {
        let reached = epoch - 1;
        let sc = &mut self.scratch;
        let (slots, link_flows, binding) = (&self.slots, &self.link_flows, &self.binding);
        let headroom = |l: u32| {
            let (load, capacity) = (self.load[l as usize], self.capacity[l as usize]);
            capacity - load.sum - load.slop
        };
        // Queue a link unless the pass already holds it; returns 1 if that
        // queued a binding link.
        let enter = |sc: &mut Scratch, l: u32| {
            let stamp = &mut sc.fill[l as usize].epoch;
            if *stamp == epoch {
                return 0;
            }
            *stamp = epoch;
            sc.links.push(l);
            u32::from(binding[l as usize])
        };
        sc.links.clear();
        let mut found = 0; // binding links queued
        for &l in &self.dirty_links {
            found += enter(sc, l);
        }
        let mut flows = 0;
        let mut visit = |sc: &mut Scratch, s: u32, seed: bool, found: &mut u32| {
            if sc.flow_epoch[s as usize] == reached {
                return;
            }
            sc.flow_epoch[s as usize] = reached;
            flows += 1;
            let links = &slots[s as usize].links;
            for &l in links.iter().filter(|l| binding[l.0 as usize]) {
                *found += enter(sc, l.0);
            }
            if seed {
                let tightest = links
                    .iter()
                    .filter(|l| !binding[l.0 as usize])
                    .min_by(|a, b| headroom(a.0).total_cmp(&headroom(b.0)));
                if let Some(l) = tightest {
                    enter(sc, l.0);
                }
            }
        };
        for &s in &self.started {
            // A flow removed before this pass left an empty link list.
            if !slots[s as usize].links.is_empty() {
                visit(sc, s, true, &mut found);
            }
        }
        // Every settled flow crosses a binding link: the link it froze on
        // is saturated when its pass settles, and stays marked binding
        // until a pass covers it again. So once the search has queued
        // every binding link, the pass covers every flow and can stop.
        let mut head = 0;
        while head < sc.links.len() && found < self.binding_links {
            let li = sc.links[head] as usize;
            head += 1;
            for &s in &link_flows[li] {
                visit(sc, s, false, &mut found);
            }
        }
        if found == self.binding_links {
            self.active_slots.len()
        } else {
            flows
        }
    }

    /// Progressive filling over the pass's links: repeatedly saturate the
    /// most constrained one and freeze the unfrozen flows crossing it at
    /// its fair share. `flows` is the number of flows those links carry.
    /// A flow whose rate rises also raises the projected load of each
    /// slack link it crosses outside the pass (see `promote_slack_links`).
    fn fill(&mut self, epoch: u32, mut flows: usize) {
        // Mutations are applied at the current clock (advance() settles
        // rates before moving it), so flows whose rate changes re-anchor
        // here, at the instant the change takes effect.
        let now = self.clock;
        let checked = epoch - 1;
        let sc = &mut self.scratch;
        sc.changed.clear();
        sc.checked.clear();
        // Seed the links: full capacity, every crossing flow unfrozen.
        sc.work.clear();
        sc.work.extend_from_slice(&sc.links);
        for &li in &sc.work {
            let li = li as usize;
            sc.fill[li].residual = self.capacity[li];
            sc.fill[li].load = LinkLoad::default();
            sc.fill[li].unfrozen = self.link_flows[li].len() as u32;
        }
        while flows > 0 {
            // Minimum fair share among links carrying unfrozen flows.
            // Links whose flows have all frozen are compacted out so
            // later waves scan a shrinking list.
            let mut min_share = f64::INFINITY;
            sc.tied.clear();
            let mut i = 0;
            while i < sc.work.len() {
                let li = sc.work[i];
                let f = &sc.fill[li as usize];
                if f.unfrozen == 0 {
                    sc.work.swap_remove(i);
                    continue;
                }
                let share = f.residual / f64::from(f.unfrozen);
                if share < min_share {
                    min_share = share;
                    sc.tied.clear();
                    sc.tied.push(li);
                } else if share == min_share {
                    sc.tied.push(li);
                }
                i += 1;
            }
            if sc.tied.is_empty() {
                break;
            }
            // Saturate every link tied at the minimum in one wave, in
            // ascending link id. Freezing flows on one tied link can only
            // *raise* another link's share (residual and count both
            // shrink, and share >= min_share is a max-min invariant), so
            // each link's share is re-checked and it saturates only if
            // still at the minimum — exactly the (link, share) saturation
            // sequence of the from-scratch oracle, which re-scans and
            // picks the lowest-id minimum link one wave at a time.
            sc.tied.sort_unstable();
            for ti in 0..sc.tied.len() {
                let bottleneck = sc.tied[ti] as usize;
                let cnt = sc.fill[bottleneck].unfrozen;
                if cnt == 0 || sc.fill[bottleneck].residual / f64::from(cnt) != min_share {
                    continue; // an earlier tied link raised this share
                }
                // Freeze every unfrozen flow crossing the bottleneck.
                for idx in 0..self.link_flows[bottleneck].len() {
                    let s = self.link_flows[bottleneck][idx] as usize;
                    if sc.flow_epoch[s] == epoch {
                        continue; // frozen in an earlier wave
                    }
                    sc.flow_epoch[s] = epoch;
                    let f = &mut self.slots[s];
                    let old = f.rate;
                    // Re-anchor only on a bitwise rate change: an unchanged
                    // rate keeps the old anchor, so repeated recomputes do
                    // not accumulate floating-point drain error.
                    if old != min_share {
                        sc.changed.push((s as u32, old, f.remaining, f.anchor));
                        let dt = now.since(f.anchor).as_secs_f64();
                        if dt > 0.0 {
                            f.remaining = (f.remaining - old * dt).max(0.0);
                        }
                        f.anchor = now;
                        f.rate = min_share;
                        if !f.queued {
                            f.queued = true;
                            self.reanchored.push(s as u32);
                        }
                    }
                    flows -= 1;
                    for &l in self.slots[s].links.iter() {
                        let li = l.0 as usize;
                        let f = &mut sc.fill[li];
                        if f.epoch == epoch {
                            f.load.sum += min_share;
                            f.residual -= min_share;
                            // Numerical hygiene: clamp tiny negative residuals.
                            if f.residual < 0.0 {
                                f.residual = 0.0;
                            }
                            f.unfrozen -= 1;
                        } else if min_share > old {
                            // A slack link outside the pass.
                            if f.epoch != checked {
                                f.epoch = checked;
                                f.load = self.load[li];
                                sc.checked.push(l.0);
                            }
                            f.load.shift(old, min_share);
                        }
                    }
                }
            }
        }
    }

    /// Re-check the slack links outside the pass whose projected load a
    /// rising flow raised, plus every link of a started flow (which may
    /// have joined an empty dead link at rate zero). A link that is not
    /// slack for certain is summed afresh over `link_flows` and marked
    /// binding if that sum binds. Returns whether any link was marked.
    ///
    /// A falling rate can only make a slack link slacker, so projections
    /// skip falls: a link's recorded load is an upper bound on its sum.
    fn promote_slack_links(&mut self, epoch: u32) -> bool {
        let checked = epoch - 1;
        let sc = &mut self.scratch;
        for &s in &self.started {
            for &l in self.slots[s as usize].links.iter() {
                let f = &mut sc.fill[l.0 as usize];
                if f.epoch != epoch && f.epoch != checked {
                    f.epoch = checked;
                    f.load = self.load[l.0 as usize];
                    sc.checked.push(l.0);
                }
            }
        }
        let mut promoted = false;
        for &l in &sc.checked {
            let li = l as usize;
            let f = &mut sc.fill[li];
            if f.load.surely_slack(self.capacity[li]) {
                continue;
            }
            let flows = &self.link_flows[li];
            let sum: f64 = flows.iter().map(|&x| self.slots[x as usize].rate).sum();
            f.load = LinkLoad::summed(sum, flows.len());
            if LinkLoad::binds(sum, self.capacity[li]) {
                self.binding[li] = true;
                self.binding_links += 1;
                promoted = true;
            }
        }
        promoted
    }

    /// Sum of rates crossing each link; used by conservation tests.
    pub fn link_loads(&mut self) -> Vec<f64> {
        self.ensure_rates();
        let mut loads = vec![0.0; self.capacity.len()];
        for &s in &self.active_slots {
            let f = &self.slots[s as usize];
            for &l in f.links.iter() {
                loads[l.0 as usize] += f.rate;
            }
        }
        loads
    }

    /// Link capacities this network was built with.
    pub fn capacities(&self) -> &[f64] {
        &self.capacity
    }

    /// Reference implementation: the seed's from-scratch progressive
    /// filling over *all* links, recomputing every rate for the current
    /// flow set. Kept as an oracle for equivalence tests against the
    /// engine's component-local recompute; not part of the public API.
    #[doc(hidden)]
    pub fn oracle_rates(&self) -> Vec<(FlowId, f64)> {
        let flows: Vec<(FlowId, &FlowSlot)> = {
            let mut v: Vec<(FlowId, &FlowSlot)> = self
                .active_slots
                .iter()
                .map(|&s| {
                    let f = &self.slots[s as usize];
                    (FlowId::new(s, f.generation), f)
                })
                .collect();
            v.sort_unstable_by_key(|&(id, _)| id);
            v
        };
        // Residual capacity per link and number of unfrozen flows on it.
        let mut residual = self.capacity.clone();
        let mut count = vec![0u32; self.capacity.len()];
        for (_, f) in &flows {
            for &l in f.links.iter() {
                count[l.0 as usize] += 1;
            }
        }
        let mut rates: Vec<(FlowId, f64)> = flows.iter().map(|&(id, _)| (id, 0.0)).collect();
        let mut unfrozen: Vec<usize> = (0..flows.len()).collect();
        while !unfrozen.is_empty() {
            let mut best: Option<(f64, usize)> = None;
            for (li, (&res, &cnt)) in residual.iter().zip(count.iter()).enumerate() {
                if cnt > 0 {
                    let share = res / f64::from(cnt);
                    if best.map(|(s, _)| share < s).unwrap_or(true) {
                        best = Some((share, li));
                    }
                }
            }
            let Some((share, bottleneck)) = best else {
                break;
            };
            let mut still = Vec::with_capacity(unfrozen.len());
            for fi in unfrozen.drain(..) {
                let f = flows[fi].1;
                if f.links.iter().any(|l| l.0 as usize == bottleneck) {
                    rates[fi].1 = share;
                    for &l in f.links.iter() {
                        residual[l.0 as usize] -= share;
                        count[l.0 as usize] -= 1;
                    }
                } else {
                    still.push(fi);
                }
            }
            unfrozen = still;
            for r in &mut residual {
                if *r < 0.0 {
                    *r = 0.0;
                }
            }
        }
        rates
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routing::RouteTable;
    use crate::topology::{NodeId, Tier, Topology};
    use continuum_sim::{Rng, SimDuration};

    /// Linear chain a - b - c with 1e6 B/s links, negligible latency.
    fn chain() -> (Topology, RouteTable) {
        let mut t = Topology::new();
        let a = t.add_node("a", Tier::Edge);
        let b = t.add_node("b", Tier::Fog);
        let c = t.add_node("c", Tier::Cloud);
        t.add_link(a, b, SimDuration::from_micros(1), 1e6);
        t.add_link(b, c, SimDuration::from_micros(1), 1e6);
        let rt = RouteTable::build(&t);
        (t, rt)
    }

    #[test]
    fn single_flow_full_rate() {
        let (t, rt) = chain();
        let mut fnw = FlowNetwork::new(&t);
        let p = rt.path(&t, NodeId(0), NodeId(2)).unwrap();
        let id = fnw.start(SimTime::ZERO, &p, 1_000_000).unwrap();
        assert_eq!(fnw.rate(id), Some(1e6));
        let (tc, fid) = fnw.next_completion().unwrap();
        assert_eq!(fid, id);
        assert!((tc.as_secs_f64() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn engine_stats_count_recompute_batches() {
        let (t, rt) = chain();
        let mut fnw = FlowNetwork::new(&t);
        assert_eq!(fnw.engine_stats(), FlowEngineStats::default());
        let p = rt.path(&t, NodeId(0), NodeId(2)).unwrap();
        let a = fnw.start(SimTime::ZERO, &p, 1_000_000).unwrap();
        let b = fnw.start(SimTime::ZERO, &p, 1_000_000).unwrap();
        // Both starts coalesce into a single deferred pass. Both links are
        // empty, so slack with equal headroom, and each new flow enters
        // through the first, a - b; filling a - b alone leaves b - c over
        // capacity, so b - c turns binding and the pass reruns: two runs
        // over 2 flows, 2 rates changed.
        fnw.rate(a);
        fnw.rate(b);
        assert_eq!(
            fnw.engine_stats(),
            FlowEngineStats {
                recomputes: 1,
                recomputed_flows: 4,
                rate_changes: 2,
            }
        );
        let reg = continuum_obs::MetricsRegistry::new();
        fnw.engine_stats().publish_metrics(&reg, "fe");
        let mut snap = reg.snapshot();
        FlowEngineStats::publish_mean_batch(&mut snap, "fe");
        assert_eq!(snap.counter("fe.recomputes"), 1);
        assert_eq!(snap.counter("fe.recomputed_flows"), 4);
        assert_eq!(snap.counter("fe.rate_changes"), 2);
        assert_eq!(snap.gauge("fe.mean_batch"), Some(4.0));

        // Two components: a-b and b-c carry disjoint flows. A pass counts
        // only the flows of the component its mutation touched.
        let mut fnw = FlowNetwork::new(&t);
        let ab = rt.path(&t, NodeId(0), NodeId(1)).unwrap();
        let bc = rt.path(&t, NodeId(1), NodeId(2)).unwrap();
        let x = fnw.start(SimTime::ZERO, &ab, 1_000_000).unwrap();
        fnw.start(SimTime::ZERO, &bc, 1_000_000).unwrap();
        fnw.start(SimTime::ZERO, &bc, 1_000_000).unwrap();
        fnw.rate(x);
        assert_eq!(fnw.engine_stats().recomputed_flows, 3);
        fnw.start(SimTime::ZERO, &ab, 1_000_000).unwrap();
        assert_eq!(fnw.rate(x), Some(5e5));
        assert_eq!(
            fnw.engine_stats(),
            FlowEngineStats {
                recomputes: 2,
                recomputed_flows: 5,
                rate_changes: 5,
            }
        );
        fnw.remove(SimTime::ZERO, x);
        assert_eq!(
            fnw.next_completion().map(|(t, _)| t),
            Some(SimTime::from_secs(1))
        );
        assert_eq!(
            fnw.engine_stats(),
            FlowEngineStats {
                recomputes: 3,
                recomputed_flows: 6,
                rate_changes: 6,
            }
        );
    }

    #[test]
    fn epoch_wrap_clears_stamps() {
        // a - b at 1e6 B/s, b - c at 2e5 B/s.
        let mut t = Topology::new();
        let a = t.add_node("a", Tier::Edge);
        let b = t.add_node("b", Tier::Fog);
        let c = t.add_node("c", Tier::Cloud);
        t.add_link(a, b, SimDuration::from_micros(1), 1e6);
        t.add_link(b, c, SimDuration::from_micros(1), 2e5);
        let rt = RouteTable::build(&t);
        let mut fnw = FlowNetwork::new(&t);
        let x = fnw.start(SimTime::ZERO, &rt.path(&t, a, b).unwrap(), 1_000_000);
        assert_eq!(fnw.rate(x.unwrap()), Some(1e6));
        // The next pass would wrap the epoch; b - c was never reached, so
        // a stale zero stamp would hide it from the search.
        fnw.scratch.epoch = u32::MAX - 1;
        let y = fnw.start(SimTime::ZERO, &rt.path(&t, a, c).unwrap(), 1_000_000);
        assert_eq!(fnw.rate(y.unwrap()), Some(2e5));
        assert_eq!(fnw.rate(x.unwrap()), Some(8e5));
    }

    #[test]
    fn removal_that_saturates_a_slack_link_reruns_the_pass() {
        // a - b at 10 B/s (link 0), b - c at 8 B/s (link 1). x crosses
        // both, y only a - b: they share a - b at 5 each, and b - c
        // (load 5 of 8) is slack.
        let mut t = Topology::new();
        let a = t.add_node("a", Tier::Edge);
        let b = t.add_node("b", Tier::Fog);
        let c = t.add_node("c", Tier::Cloud);
        t.add_link(a, b, SimDuration::from_micros(1), 10.0);
        t.add_link(b, c, SimDuration::from_micros(1), 8.0);
        let rt = RouteTable::build(&t);
        let mut fnw = FlowNetwork::new(&t);
        let x = fnw
            .start(SimTime::ZERO, &rt.path(&t, a, c).unwrap(), 100)
            .unwrap();
        let y = fnw
            .start(SimTime::ZERO, &rt.path(&t, a, b).unwrap(), 100)
            .unwrap();
        assert_eq!(fnw.rate(x), Some(5.0));
        assert_eq!(fnw.binding, vec![true, false]);
        assert_eq!(fnw.engine_stats().recomputed_flows, 2);
        // Removing y dirties only a - b. Filling it alone would give x all
        // 10 B/s; the re-check finds b - c over capacity, marks it
        // binding, undoes the pass and reruns it with b - c included.
        fnw.remove(SimTime::from_secs(4), y);
        let mut full = fnw.clone();
        full.dirty_links.extend(0..2);
        assert_eq!(fnw.rate(x), Some(8.0));
        assert_eq!(fnw.binding, vec![false, true]);
        assert_eq!(
            fnw.engine_stats(),
            FlowEngineStats {
                recomputes: 2,
                recomputed_flows: 4,
                rate_changes: 3,
            }
        );
        // The undone pass left no trace: x re-anchored once, at 4 s with
        // 80 bytes left, exactly as a full re-rate does.
        assert_eq!(fnw.remaining(x), Some(80.0));
        assert_eq!(fnw.next_completion(), Some((SimTime::from_secs(14), x)));
        assert_eq!(fnw.next_completion(), full.next_completion());
        assert_eq!(fnw.slots[x.slot()].anchor, full.slots[x.slot()].anchor);
    }

    #[test]
    fn zero_rate_flow_over_dead_links_marks_them_binding() {
        // Both links of a - b - c are dead and empty, so both are marked
        // slack. A new flow enters through a - b and freezes at rate 0,
        // which changes no rate; the re-check of the new flow's links
        // still finds b - c binding (load 0 of capacity 0).
        let (t, rt) = chain();
        let mut fnw = FlowNetwork::new(&t);
        fnw.fail_link(SimTime::ZERO, LinkId(0));
        fnw.fail_link(SimTime::ZERO, LinkId(1));
        let x = fnw.start(
            SimTime::ZERO,
            &rt.path(&t, NodeId(0), NodeId(2)).unwrap(),
            10,
        );
        assert_eq!(fnw.rate(x.unwrap()), Some(0.0));
        assert_eq!(fnw.binding, vec![true, true]);
        assert_eq!(fnw.engine_stats().rate_changes, 0);
        fnw.restore_link(SimTime::ZERO, LinkId(0));
        assert_eq!(fnw.rate(x.unwrap()), Some(0.0));
    }

    #[test]
    fn two_flows_share_fairly() {
        let (t, rt) = chain();
        let mut fnw = FlowNetwork::new(&t);
        let p = rt.path(&t, NodeId(0), NodeId(2)).unwrap();
        let f1 = fnw.start(SimTime::ZERO, &p, 1_000_000).unwrap();
        let f2 = fnw.start(SimTime::ZERO, &p, 1_000_000).unwrap();
        assert_eq!(fnw.rate(f1), Some(5e5));
        assert_eq!(fnw.rate(f2), Some(5e5));
    }

    #[test]
    fn completion_frees_bandwidth() {
        let (t, rt) = chain();
        let mut fnw = FlowNetwork::new(&t);
        let p = rt.path(&t, NodeId(0), NodeId(2)).unwrap();
        let f1 = fnw.start(SimTime::ZERO, &p, 500_000).unwrap();
        let f2 = fnw.start(SimTime::ZERO, &p, 1_500_000).unwrap();
        // Both run at 0.5e6 B/s; f1 finishes at t=1s.
        let (t1, done) = fnw.next_completion().unwrap();
        assert_eq!(done, f1);
        assert!((t1.as_secs_f64() - 1.0).abs() < 1e-6);
        fnw.remove(t1, f1);
        // f2 has 1e6 bytes left and now gets the full 1e6 B/s.
        assert_eq!(fnw.rate(f2), Some(1e6));
        let (t2, done2) = fnw.next_completion().unwrap();
        assert_eq!(done2, f2);
        assert!((t2.as_secs_f64() - 2.0).abs() < 1e-6);
    }

    #[test]
    fn max_min_not_proportional() {
        // Two links: a-b (cap 10), b-c (cap 4).
        // Flow 1 crosses a-b only; flow 2 crosses a-b-c.
        // Max-min: flow 2 limited to 4 by b-c; flow 1 takes remaining 6.
        let mut t = Topology::new();
        let a = t.add_node("a", Tier::Edge);
        let b = t.add_node("b", Tier::Fog);
        let c = t.add_node("c", Tier::Cloud);
        t.add_link(a, b, SimDuration::from_micros(1), 10.0);
        t.add_link(b, c, SimDuration::from_micros(1), 4.0);
        let rt = RouteTable::build(&t);
        let mut fnw = FlowNetwork::new(&t);
        let p_ab = rt.path(&t, a, b).unwrap();
        let p_ac = rt.path(&t, a, c).unwrap();
        let f2 = fnw.start(SimTime::ZERO, &p_ac, 100).unwrap();
        let f1 = fnw.start(SimTime::ZERO, &p_ab, 100).unwrap();
        assert!((fnw.rate(f2).unwrap() - 4.0).abs() < 1e-9);
        assert!((fnw.rate(f1).unwrap() - 6.0).abs() < 1e-9);
    }

    #[test]
    fn local_path_is_free() {
        let (t, rt) = chain();
        let mut fnw = FlowNetwork::new(&t);
        let p = rt.path(&t, NodeId(0), NodeId(0)).unwrap();
        assert!(fnw.start(SimTime::ZERO, &p, 1 << 40).is_none());
    }

    #[test]
    fn no_link_oversubscribed() {
        let (t, rt) = chain();
        let mut fnw = FlowNetwork::new(&t);
        let p02 = rt.path(&t, NodeId(0), NodeId(2)).unwrap();
        let p01 = rt.path(&t, NodeId(0), NodeId(1)).unwrap();
        let p12 = rt.path(&t, NodeId(1), NodeId(2)).unwrap();
        for _ in 0..3 {
            fnw.start(SimTime::ZERO, &p02, 1_000_000);
            fnw.start(SimTime::ZERO, &p01, 1_000_000);
            fnw.start(SimTime::ZERO, &p12, 1_000_000);
        }
        for (load, cap) in fnw.link_loads().iter().zip(fnw.capacities()) {
            assert!(load <= &(cap * (1.0 + 1e-9)), "load {load} > cap {cap}");
        }
    }

    #[test]
    fn advance_drains_bytes() {
        let (t, rt) = chain();
        let mut fnw = FlowNetwork::new(&t);
        let p = rt.path(&t, NodeId(0), NodeId(2)).unwrap();
        let id = fnw.start(SimTime::ZERO, &p, 1_000_000).unwrap();
        fnw.advance(SimTime::from_millis(500));
        let rem = fnw.remaining(id).unwrap();
        assert!((rem - 500_000.0).abs() < 1.0, "rem {rem}");
    }

    #[test]
    fn split_advance_is_bit_identical() {
        // Advancing in many small steps must match one big step exactly:
        // lazy drain means no per-step floating-point accumulation.
        let (t, rt) = chain();
        let p02 = rt.path(&t, NodeId(0), NodeId(2)).unwrap();
        let p01 = rt.path(&t, NodeId(0), NodeId(1)).unwrap();

        let mut one = FlowNetwork::new(&t);
        let a1 = one.start(SimTime::ZERO, &p02, 900_000).unwrap();
        let b1 = one.start(SimTime::ZERO, &p01, 700_000).unwrap();
        one.advance(SimTime::from_millis(333));

        let mut many = FlowNetwork::new(&t);
        let a2 = many.start(SimTime::ZERO, &p02, 900_000).unwrap();
        let b2 = many.start(SimTime::ZERO, &p01, 700_000).unwrap();
        for step in 1..=333 {
            many.advance(SimTime::from_millis(step));
        }

        assert_eq!(one.remaining(a1), many.remaining(a2));
        assert_eq!(one.remaining(b1), many.remaining(b2));
        assert_eq!(one.next_completion(), many.next_completion());
    }

    #[test]
    fn stale_ids_after_slot_reuse() {
        let (t, rt) = chain();
        let mut fnw = FlowNetwork::new(&t);
        let p = rt.path(&t, NodeId(0), NodeId(2)).unwrap();
        let f1 = fnw.start(SimTime::ZERO, &p, 1_000_000).unwrap();
        fnw.remove(SimTime::ZERO, f1);
        // The slot is reused with a new generation.
        let f2 = fnw.start(SimTime::ZERO, &p, 1_000_000).unwrap();
        assert_ne!(f1, f2);
        assert_eq!(fnw.rate(f1), None, "stale id must not resolve");
        assert_eq!(fnw.rate(f2), Some(1e6));
        // Removing the stale id again is a no-op for the live flow.
        fnw.remove(SimTime::ZERO, f1);
        assert_eq!(fnw.rate(f2), Some(1e6));
        assert_eq!(fnw.active(), 1);
    }

    #[test]
    fn fail_link_aborts_with_bytes_preserved() {
        let (t, rt) = chain();
        let mut fnw = FlowNetwork::new(&t);
        let p02 = rt.path(&t, NodeId(0), NodeId(2)).unwrap();
        let p01 = rt.path(&t, NodeId(0), NodeId(1)).unwrap();
        let long = fnw.start(SimTime::ZERO, &p02, 1_000_000).unwrap();
        let short = fnw.start(SimTime::ZERO, &p01, 1_000_000).unwrap();
        // Both run at 5e5 B/s on link 0; kill link 1 (b-c) at t=0.5.
        let aborted = fnw.fail_link(SimTime::from_millis(500), LinkId(1));
        assert_eq!(aborted.len(), 1);
        assert_eq!(aborted[0].id, long);
        assert!((aborted[0].transferred - 250_000.0).abs() < 1.0);
        assert!((aborted[0].remaining - 750_000.0).abs() < 1.0);
        assert!(
            (aborted[0].transferred + aborted[0].remaining - 1_000_000.0).abs() < 1e-6,
            "byte conservation"
        );
        // The survivor now owns link 0 outright.
        assert_eq!(fnw.rate(short), Some(1e6));
        assert_eq!(fnw.rate(long), None, "aborted id must be stale");
        assert!(!fnw.link_is_up(LinkId(1)));
        assert!(!fnw.path_is_up(&p02));
        assert!(fnw.path_is_up(&p01));
        // Idempotent: a second failure aborts nothing.
        assert!(fnw
            .fail_link(SimTime::from_millis(500), LinkId(1))
            .is_empty());
    }

    #[test]
    fn restore_link_recovers_capacity() {
        let (t, rt) = chain();
        let mut fnw = FlowNetwork::new(&t);
        let p02 = rt.path(&t, NodeId(0), NodeId(2)).unwrap();
        fnw.fail_link(SimTime::ZERO, LinkId(1));
        // A flow over the dead link stalls at rate zero...
        let stuck = fnw.start(SimTime::from_millis(1), &p02, 1_000).unwrap();
        assert_eq!(fnw.rate(stuck), Some(0.0));
        // ...and picks the full rate back up on restore.
        fnw.restore_link(SimTime::from_millis(2), LinkId(1));
        assert!(fnw.link_is_up(LinkId(1)));
        assert_eq!(fnw.rate(stuck), Some(1e6));
        // Restoring a live link is a no-op.
        fnw.restore_link(SimTime::from_millis(2), LinkId(1));
        assert_eq!(fnw.rate(stuck), Some(1e6));
    }

    #[test]
    fn oracle_matches_engine_under_flaps() {
        let (t, rt) = chain();
        let mut fnw = FlowNetwork::new(&t);
        let p02 = rt.path(&t, NodeId(0), NodeId(2)).unwrap();
        let p01 = rt.path(&t, NodeId(0), NodeId(1)).unwrap();
        let p12 = rt.path(&t, NodeId(1), NodeId(2)).unwrap();
        fnw.start(SimTime::ZERO, &p02, 5_000).unwrap();
        fnw.start(SimTime::ZERO, &p01, 5_000).unwrap();
        let c = fnw.start(SimTime::ZERO, &p12, 5_000).unwrap();
        fnw.fail_link(SimTime::from_millis(1), LinkId(0));
        for (id, want) in fnw.oracle_rates() {
            let got = fnw.rate(id).unwrap();
            assert!(
                (got - want).abs() <= 1e-9 * want.max(1.0),
                "{got} vs {want}"
            );
        }
        assert_eq!(fnw.active(), 1); // only the b-c flow survived
        assert_eq!(fnw.rate(c), Some(1e6));
        fnw.restore_link(SimTime::from_millis(2), LinkId(0));
        fnw.start(SimTime::from_millis(2), &p01, 5_000).unwrap();
        for (id, want) in fnw.oracle_rates() {
            let got = fnw.rate(id).unwrap();
            assert!(
                (got - want).abs() <= 1e-9 * want.max(1.0),
                "{got} vs {want}"
            );
        }
    }

    #[test]
    fn oracle_matches_engine_on_mixed_paths() {
        let (t, rt) = chain();
        let mut fnw = FlowNetwork::new(&t);
        let p02 = rt.path(&t, NodeId(0), NodeId(2)).unwrap();
        let p01 = rt.path(&t, NodeId(0), NodeId(1)).unwrap();
        let a = fnw.start(SimTime::ZERO, &p02, 1_000).unwrap();
        let b = fnw.start(SimTime::ZERO, &p01, 1_000).unwrap();
        let c = fnw.start(SimTime::ZERO, &p02, 1_000).unwrap();
        for (id, want) in fnw.oracle_rates() {
            let got = fnw.rate(id).unwrap();
            assert!(
                (got - want).abs() <= 1e-9 * want.max(1.0),
                "{got} vs {want}"
            );
        }
        fnw.remove(SimTime::ZERO, b);
        fnw.remove(SimTime::ZERO, a);
        let rates = fnw.oracle_rates();
        assert_eq!(rates.len(), 1);
        assert_eq!(rates[0].0, c);
    }

    /// Cases per flow-engine equivalence property; `CONTINUUM_FLOW_CASES`
    /// pushes them harder.
    fn flow_cases() -> u32 {
        std::env::var("CONTINUUM_FLOW_CASES")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(1000)
    }

    /// A random connected topology: a spanning chain plus extra edges.
    fn random_topology(seed: u64, n: usize, extra: usize) -> Topology {
        let mut rng = Rng::new(seed);
        let mut t = Topology::new();
        for i in 0..n {
            t.add_node(format!("n{i}"), Tier::Fog);
        }
        let link = |t: &mut Topology, a: u32, b: u32, rng: &mut Rng| {
            t.add_link(
                NodeId(a),
                NodeId(b),
                SimDuration::from_micros(rng.range_u64(100, 10_000)),
                rng.range_f64(1e6, 1e9),
            );
        };
        for i in 1..n {
            let parent = rng.below(i as u64) as u32;
            link(&mut t, i as u32, parent, &mut rng);
        }
        for _ in 0..extra {
            let (a, b) = (rng.below(n as u64) as u32, rng.below(n as u64) as u32);
            if a != b {
                link(&mut t, a, b, &mut rng);
            }
        }
        t
    }

    /// A hub with `spokes` spokes of three nodes each (`s - c0`, `s - c1`)
    /// and 1e6..1e8 B/s links. Flows mostly stay inside one spoke, so the
    /// flow–link graph splits into many components that an occasional
    /// cross-hub flow merges.
    fn star(seed: u64, spokes: usize) -> (Topology, Vec<Vec<NodeId>>) {
        let mut rng = Rng::new(seed);
        let mut t = Topology::new();
        let hub = t.add_node("hub", Tier::Cloud);
        let mut groups = Vec::new();
        for i in 0..spokes {
            let s = t.add_node(format!("s{i}"), Tier::Fog);
            let mut group = vec![s];
            t.add_link(
                hub,
                s,
                SimDuration::from_micros(100),
                rng.range_f64(1e6, 1e8),
            );
            for j in 0..2 {
                let c = t.add_node(format!("c{i}.{j}"), Tier::Edge);
                t.add_link(s, c, SimDuration::from_micros(100), rng.range_f64(1e6, 1e8));
                group.push(c);
            }
            groups.push(group);
        }
        (t, groups)
    }

    /// A sensor → edge → fog → cloud tree under two peered clouds:
    /// `fogs` fogs split between the clouds, each with two edges of two
    /// to four sensors. Access links draw 1e6..1e7 B/s, and each uplink
    /// draws 0.5..1.5 × the summed capacity of the links beneath it, so
    /// under churn the upper tiers flip between slack and binding.
    /// Returns the topology, the sensors and every other node.
    fn tiered(seed: u64, fogs: usize) -> (Topology, Vec<NodeId>, Vec<NodeId>) {
        let mut rng = Rng::new(seed);
        let mut t = Topology::new();
        let lat = SimDuration::from_micros(100);
        let clouds = [
            t.add_node("cloud0", Tier::Cloud),
            t.add_node("cloud1", Tier::Cloud),
        ];
        let (mut sensors, mut upper) = (Vec::new(), clouds.to_vec());
        let mut under_cloud = [0.0; 2];
        for f in 0..fogs {
            let fog = t.add_node(format!("fog{f}"), Tier::Fog);
            upper.push(fog);
            let mut under_fog = 0.0;
            for e in 0..2 {
                let edge = t.add_node(format!("edge{f}.{e}"), Tier::Edge);
                upper.push(edge);
                let mut under_edge = 0.0;
                for s in 0..rng.range_u64(2, 5) {
                    let sensor = t.add_node(format!("sensor{f}.{e}.{s}"), Tier::Sensor);
                    let cap = rng.range_f64(1e6, 1e7);
                    t.add_link(sensor, edge, lat, cap);
                    sensors.push(sensor);
                    under_edge += cap;
                }
                let cap = under_edge * rng.range_f64(0.5, 1.5);
                t.add_link(edge, fog, lat, cap);
                under_fog += cap;
            }
            let cap = under_fog * rng.range_f64(0.5, 1.5);
            t.add_link(fog, clouds[f % 2], lat, cap);
            under_cloud[f % 2] += cap;
        }
        let peering = under_cloud[0].max(under_cloud[1]) * rng.range_f64(0.5, 1.5);
        t.add_link(clouds[0], clouds[1], lat, peering);
        (t, sensors, upper)
    }

    /// The linear scan `next_completion` used before the completion
    /// heap: the reference the heap is checked against.
    fn next_completion_scan(net: &mut FlowNetwork) -> Option<(SimTime, FlowId)> {
        net.ensure_rates();
        net.active_slots
            .iter()
            .filter_map(|&s| {
                let f = &net.slots[s as usize];
                if f.rate <= 0.0 {
                    return None;
                }
                let dt = (f.remaining / f.rate).min(1e9);
                Some((
                    f.anchor + SimDuration::from_secs_f64(dt),
                    f.seq,
                    FlowId::new(s, f.generation),
                ))
            })
            .min_by(|a, b| (a.0, a.1).partial_cmp(&(b.0, b.1)).unwrap())
            .map(|(t, _, id)| (t, id))
    }

    /// Random start / remove / fail / restore / complete churn, with
    /// `path` drawing each new flow's route. After every op the engine
    /// must equal, bit for bit, a clone whose every link is marked dirty
    /// (a full re-rate), its completion heap must agree with the linear
    /// scan, and its link classes and load bounds must hold.
    fn churn_matches_full_rerate(
        t: &Topology,
        seed: u64,
        ops: usize,
        mut path: impl FnMut(&mut Rng) -> Option<Path>,
    ) {
        let n_links = t.links().len();
        let mut fnw = FlowNetwork::new(t);
        let mut rng = Rng::new(seed);
        let mut live: Vec<FlowId> = Vec::new();
        let mut now = SimTime::ZERO;
        for _ in 0..ops {
            if rng.chance(0.3) {
                now += SimDuration::from_micros(rng.below(2_000));
            }
            match rng.below(7) {
                0..=2 => {
                    // Starting over a dead link is allowed: the flow
                    // stalls at rate zero until the link returns.
                    if let Some(p) = path(&mut rng) {
                        if let Some(id) = fnw.start(now, &p, rng.range_u64(1_000, 10_000_000)) {
                            live.push(id);
                        }
                    }
                }
                3 => {
                    if !live.is_empty() {
                        let id = live.swap_remove(rng.index(live.len()));
                        fnw.remove(now, id);
                    }
                }
                4 => {
                    let l = LinkId(rng.below(n_links as u64) as u32);
                    for a in fnw.fail_link(now, l) {
                        live.retain(|&x| x != a.id);
                    }
                }
                5 => fnw.restore_link(now, LinkId(rng.below(n_links as u64) as u32)),
                _ => {
                    if let Some((tc, id)) = fnw.next_completion() {
                        now = now.max(tc);
                        fnw.remove(now, id);
                        live.retain(|&x| x != id);
                    }
                }
            }
            let mut full = fnw.clone();
            full.dirty_links.extend(0..n_links as u32);
            for &id in &live {
                let bits = |x: Option<f64>| x.map(f64::to_bits);
                assert_eq!(bits(fnw.rate(id)), bits(full.rate(id)), "rate of {id:?}");
                assert_eq!(
                    bits(fnw.remaining(id)),
                    bits(full.remaining(id)),
                    "remaining of {id:?}"
                );
            }
            let next = fnw.next_completion();
            assert_eq!(next, next_completion_scan(&mut fnw), "heap vs scan");
            assert_eq!(next, next_completion_scan(&mut full), "vs full re-rate");
            // A link marked slack is slack, and its recorded load bounds
            // its sum from above.
            for l in 0..n_links {
                let flows = &fnw.link_flows[l];
                let sum: f64 = flows.iter().map(|&s| fnw.slots[s as usize].rate).sum();
                let (cap, load) = (fnw.capacity[l], fnw.load[l]);
                let marked = fnw.binding[l];
                assert!(
                    marked || !LinkLoad::binds(sum, cap) || flows.is_empty(),
                    "link {l}"
                );
                let rounding = f64::EPSILON * flows.len() as f64 * sum;
                assert!(
                    sum <= load.sum + load.slop + rounding,
                    "load bound of link {l}"
                );
            }
            let marked = fnw.binding.iter().filter(|&&b| b).count();
            assert_eq!(marked, fnw.binding_links as usize);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig {
            cases: flow_cases(),
            ..proptest::ProptestConfig::default()
        })]

        /// Component-local re-rating and the completion heap are
        /// bit-identical to re-rating every flow and scanning for the
        /// earliest completion, on a random mesh (one large component)
        /// and on a star whose flows stay spoke-local (many components).
        #[test]
        fn component_rerate_matches_full_rerate_bitwise(
            seed in proptest::any::<u64>(),
            n in 4usize..24,
            ops in 5usize..60,
        ) {
            let t = random_topology(seed, n, n / 2);
            let rt = RouteTable::build(&t);
            churn_matches_full_rerate(&t, seed ^ 0xF10, ops, |rng| {
                let a = NodeId(rng.below(n as u64) as u32);
                let b = NodeId(rng.below(n as u64) as u32);
                rt.path(&t, a, b)
            });

            let (t, groups) = star(seed, 2 + n / 3);
            let rt = RouteTable::build(&t);
            churn_matches_full_rerate(&t, seed ^ 0x57A, ops, |rng| {
                let g = rng.index(groups.len());
                let a = *rng.choose(&groups[g]);
                // One flow in ten crosses the hub into another spoke.
                let h = if rng.chance(0.1) { rng.index(groups.len()) } else { g };
                rt.path(&t, a, *rng.choose(&groups[h]))
            });
        }

        /// The same bitwise identity on a tiered sensor → edge → fog →
        /// cloud tree whose uplinks sit near the sum of their access
        /// capacities, so start / remove / fail / restore churn keeps
        /// flipping links between slack and binding — the case where
        /// leaving slack links out of a pass must re-check and rerun.
        #[test]
        fn tiered_rerate_matches_full_rerate_bitwise(
            seed in proptest::any::<u64>(),
            fogs in 1usize..5,
            ops in 5usize..80,
        ) {
            let (t, sensors, upper) = tiered(seed, fogs);
            let rt = RouteTable::build(&t);
            churn_matches_full_rerate(&t, seed ^ 0x7E3, ops, |rng| {
                let a = *rng.choose(&sensors);
                // Mostly uplink traffic; one flow in five goes to another
                // sensor, and one in ten leaves from the upper tiers.
                let b = if rng.chance(0.2) {
                    *rng.choose(&sensors)
                } else {
                    *rng.choose(&upper)
                };
                if rng.chance(0.1) { rt.path(&t, b, a) } else { rt.path(&t, a, b) }
            });
        }
    }
}
