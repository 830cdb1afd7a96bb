//! Online placement for streams of small request workflows (experiment F4).
//!
//! Unlike the batch policies, the online placer keeps state between
//! requests: a per-core availability estimate for every device. Each
//! arriving request (a small DAG, e.g. `capture -> preprocess -> infer`) is
//! placed greedily to minimize its predicted completion given the current
//! backlog — the continuum answer to "where should I compute *this one,
//! right now*?". Tier-restricted variants provide the cloud-only and
//! edge-only baselines under identical queue modeling.
//!
//! Candidates are scanned by device class, not device by device. The
//! placer groups the fleet once into classes of devices that share every
//! spec field deciding feasibility and compute time (tier, cores, flop
//! rate, memory). A task's compute time is then one number per class,
//! and the classes are visited fastest first. No device can start before
//! the request arrives, so a class whose compute time alone already lands
//! strictly after the best finish found so far cannot win, and neither
//! can any slower class: the scan stops there. On the standard fleet
//! that skips the 448 sensor motes for nearly every unpinned task. The
//! winner is the same `(finish, device id)` minimum a scan over every
//! feasible device finds, bit for bit.

use crate::env::{admits, no_feasible_device, Env};
use crate::estimate::Placement;
use continuum_model::{DeviceId, DeviceSpec};
use continuum_net::{NodeId, Tier};
use continuum_sim::{SimDuration, SimTime};
use continuum_workflow::{Dag, Task, TaskId};
use std::collections::HashMap;

/// Devices whose specs agree on every field that decides feasibility and
/// compute time, so one duration and one lane occupancy serve them all.
#[derive(Debug, Clone)]
struct SpecClass {
    /// The spec of the class's first device (the others differ at most
    /// in fields the placer does not read: class label, power, price).
    spec: DeviceSpec,
    /// Member devices, ascending.
    devices: Vec<DeviceId>,
}

/// One group of candidates for a task: devices that share a compute time
/// and a lane occupancy.
struct Candidates<'a> {
    dur: SimDuration,
    need: u32,
    tier: Tier,
    devices: &'a [DeviceId],
}

/// A scored candidate: predicted finish, device, lanes it occupies.
type Pick = (SimTime, DeviceId, u32);

/// The class scan's stop rule. Every device of a class with compute time
/// `dur` starts no earlier than `floor` (the arrival, or `now` when
/// re-placing), so it finishes no earlier than `floor + dur`. Once that
/// is strictly later than `best_fin`, neither this class nor any slower
/// one can win. A class that could only *tie* `best_fin` is still
/// scanned: one of its devices may hold the lower id that wins the tie.
fn cannot_win(floor: SimTime, dur: SimDuration, best_fin: SimTime) -> bool {
    floor + dur > best_fin
}

/// Stateful online scheduler.
#[derive(Debug, Clone)]
pub struct OnlinePlacer {
    /// Per device, per core-lane: the time the lane frees up. Each
    /// device's lane vector is kept **sorted ascending**, so the k-th
    /// earliest lane is `lanes[d][k - 1]` — candidate probes are O(1)
    /// where the seed cloned and sorted the vector per candidate.
    lanes: Vec<Vec<SimTime>>,
    /// The fleet grouped by spec, in order of each class's first device.
    classes: Vec<SpecClass>,
    /// [`Env::mean_core_flops`], fixed with the fleet.
    mean_core_flops: f64,
    tier_range: Option<(Tier, Tier)>,
    label: &'static str,
}

impl OnlinePlacer {
    /// Continuum-wide online placement.
    pub fn continuum(env: &Env) -> Self {
        Self::with_tiers(env, None, "online-continuum")
    }

    /// Online placement restricted to cloud devices.
    pub fn cloud_only(env: &Env) -> Self {
        Self::with_tiers(env, Some((Tier::Cloud, Tier::Cloud)), "online-cloud")
    }

    /// Online placement restricted to the edge (sensor + edge tiers).
    pub fn edge_only(env: &Env) -> Self {
        Self::with_tiers(env, Some((Tier::Sensor, Tier::Edge)), "online-edge")
    }

    /// Custom tier restriction.
    pub fn with_tiers(env: &Env, tier_range: Option<(Tier, Tier)>, label: &'static str) -> Self {
        let mut classes: Vec<SpecClass> = Vec::new();
        let mut index: HashMap<(Tier, u32, u64, u64), usize> = HashMap::new();
        for d in env.fleet.devices() {
            let s = &d.spec;
            let key = (s.tier, s.cores, s.flops.to_bits(), s.mem_bytes);
            let k = *index.entry(key).or_insert_with(|| {
                classes.push(SpecClass {
                    spec: s.clone(),
                    devices: Vec::new(),
                });
                classes.len() - 1
            });
            classes[k].devices.push(d.id);
        }
        OnlinePlacer {
            lanes: env
                .fleet
                .devices()
                .iter()
                .map(|d| vec![SimTime::ZERO; d.spec.cores as usize])
                .collect(),
            classes,
            mean_core_flops: env.mean_core_flops(),
            tier_range,
            label,
        }
    }

    /// Policy label for experiment rows.
    pub fn name(&self) -> &'static str {
        self.label
    }

    /// When the `need` earliest lanes of `dev` are all free (the sorted
    /// invariant makes this a direct index).
    fn queue_free(&self, dev: DeviceId, need: u32) -> SimTime {
        self.lanes[dev.0 as usize][(need - 1) as usize]
    }

    /// Occupy the `need` earliest lanes of `dev` until `fin`, preserving
    /// the sorted invariant: drop the `need` smallest entries and splice
    /// `fin` copies back in at their sorted position.
    fn occupy(&mut self, dev: DeviceId, need: u32, fin: SimTime) {
        let lanes = &mut self.lanes[dev.0 as usize];
        lanes.drain(..need as usize);
        let at = lanes.partition_point(|&x| x <= fin);
        lanes.splice(at..at, std::iter::repeat_n(fin, need as usize));
    }

    /// The devices `task` may run on, grouped by compute time and sorted
    /// fastest first. A pinned task gets its node's feasible devices, one
    /// group each. An unpinned task gets its feasible classes; with
    /// `restrict`, a tier-restricted placer keeps only the classes in its
    /// range, unless none is feasible (then every feasible class stays).
    ///
    /// # Panics
    /// If no device satisfies the task's constraints.
    fn candidates<'a>(&'a self, env: &'a Env, task: &Task, restrict: bool) -> Vec<Candidates<'a>> {
        let c = &task.constraints;
        let group = |spec: &DeviceSpec, devices| Candidates {
            dur: spec.compute_time_parallel(task.work_flops, task.parallelism),
            need: task.occupancy(spec.cores),
            tier: spec.tier,
            devices,
        };
        let mut out: Vec<Candidates> = match c.pinned_node {
            Some(node) => env
                .fleet
                .at_node(node)
                .iter()
                .filter_map(|d| {
                    let spec = &env.fleet.device(*d).spec;
                    admits(c, spec).then(|| group(spec, std::slice::from_ref(d)))
                })
                .collect(),
            None => {
                let mut feasible: Vec<&SpecClass> =
                    self.classes.iter().filter(|k| admits(c, &k.spec)).collect();
                if let Some((lo, hi)) = self.tier_range.filter(|_| restrict) {
                    let in_range = |k: &&SpecClass| k.spec.tier >= lo && k.spec.tier <= hi;
                    if feasible.iter().any(in_range) {
                        feasible.retain(in_range);
                    }
                }
                feasible
                    .into_iter()
                    .map(|k| group(&k.spec, k.devices.as_slice()))
                    .collect()
            }
        };
        if out.is_empty() {
            no_feasible_device(task);
        }
        out.sort_by_key(|g| g.dur);
        out
    }

    /// The earliest-finishing candidate, ties to the lower device id.
    /// `ready(d)` is when `task`'s inputs are at `d` (never before
    /// `floor`), or `None` to skip `d`. Groups are visited fastest first
    /// and the scan stops at the first one that [`cannot_win`].
    fn earliest(
        &self,
        groups: &[Candidates],
        floor: SimTime,
        mut ready: impl FnMut(DeviceId) -> Option<SimTime>,
    ) -> Option<Pick> {
        let mut best: Option<Pick> = None;
        for g in groups {
            if best.is_some_and(|(bf, _, _)| cannot_win(floor, g.dur, bf)) {
                break;
            }
            for &d in g.devices {
                let Some(ready) = ready(d) else { continue };
                let fin = ready.max(self.queue_free(d, g.need)) + g.dur;
                if best.is_none_or(|(bf, bd, _)| (fin, d) < (bf, bd)) {
                    best = Some((fin, d, g.need));
                }
            }
        }
        best
    }

    /// Place one arriving request with a latency deadline, escalating up
    /// the continuum only as far as needed: for each task, the lowest tier
    /// predicted to finish the *whole request* within `deadline` wins
    /// (keeping fast upstream capacity free for requests that need it);
    /// if no tier meets the deadline, fall back to the global
    /// minimum-finish choice.
    ///
    /// Returns the placement, the predicted completion, and whether the
    /// prediction already misses the deadline.
    ///
    /// # Panics
    /// If a task has no feasible device (its pin, tier range and memory
    /// floor exclude the whole fleet).
    pub fn place_request_deadline(
        &mut self,
        env: &Env,
        dag: &Dag,
        arrival: SimTime,
        deadline: SimDuration,
    ) -> (Placement, SimTime, bool) {
        let deadline_abs = arrival + deadline;
        // Mean remaining work (flops) after each task in topo order, used
        // to budget per-task slack.
        let order = dag.topo_order();
        let mut remaining_after = vec![0.0f64; dag.len()];
        let mut acc = 0.0;
        for &t in order.iter().rev() {
            remaining_after[t.0 as usize] = acc;
            acc += dag.task(t).work_flops;
        }

        let mut flow = RequestFlow::new(dag, arrival);
        for &t in &order {
            let task = dag.task(t);
            // Slack check: finishing this task at `fin` must leave room
            // for the mean-speed remainder of the request.
            let tail =
                SimDuration::from_secs_f64(remaining_after[t.0 as usize] / self.mean_core_flops);
            // Per tier, the earliest deadline-feasible finish; overall,
            // the earliest finish (same model as place_request, every
            // candidate scored).
            let mut by_tier: [Option<Pick>; Tier::ALL.len()] = [None; Tier::ALL.len()];
            let mut fastest: Option<Pick> = None;
            for g in &self.candidates(env, task, false) {
                for &d in g.devices {
                    let ready = flow.ready(env, dag, task, env.node_of(d));
                    let fin = ready.max(self.queue_free(d, g.need)) + g.dur;
                    let pick = Some((fin, d, g.need));
                    let earlier =
                        |b: &Option<Pick>| b.is_none_or(|(bf, bd, _)| (fin, d) < (bf, bd));
                    if fin + tail <= deadline_abs && earlier(&by_tier[g.tier as usize]) {
                        by_tier[g.tier as usize] = pick;
                    }
                    if earlier(&fastest) {
                        fastest = pick;
                    }
                }
            }
            // Lowest tier with a deadline-feasible device; within it, the
            // earliest finish.
            let (fin, dev, need) = by_tier
                .into_iter()
                .flatten()
                .next()
                .or(fastest)
                .expect("candidate set non-empty");
            self.occupy(dev, need, fin);
            flow.place(env, t, dev, fin);
        }
        let miss = flow.last_finish > deadline_abs;
        (flow.placement, flow.last_finish, miss)
    }

    /// Re-place one orphaned task onto a surviving device.
    ///
    /// Used by the fault plane: when a device crashes, its queued and
    /// running tasks must move somewhere that is still up. `inputs` gives
    /// the *current* location, availability time, and size of each input
    /// (the caller knows where data actually lives mid-run, which the
    /// request-level placement predictions do not). `alive[d]` gates the
    /// candidate set; `None` means no feasible live device exists right
    /// now (e.g. the task is pinned to the dead device) and the caller
    /// should park the task until something recovers.
    ///
    /// Returns the chosen device and its predicted finish, and books the
    /// device's core lanes exactly like [`OnlinePlacer::place_request`].
    ///
    /// # Panics
    /// If the task has no feasible device at all, dead or alive (its pin,
    /// tier range and memory floor exclude the whole fleet).
    pub fn place_task(
        &mut self,
        env: &Env,
        task: &Task,
        inputs: &[(NodeId, SimTime, u64)],
        now: SimTime,
        alive: &[bool],
    ) -> Option<(DeviceId, SimTime)> {
        let groups = self.candidates(env, task, false);
        let best = self.earliest(&groups, now, |d| {
            alive.get(d.0 as usize).copied().unwrap_or(false).then(|| {
                let node = env.node_of(d);
                inputs.iter().fold(now, |ready, &(src, avail, bytes)| {
                    let arrives = env
                        .arrival(src, node, avail.max(now), bytes)
                        .expect("disconnected topology");
                    ready.max(arrives)
                })
            })
        });
        let (fin, dev, need) = best?;
        self.occupy(dev, need, fin);
        Some((dev, fin))
    }

    /// Place one arriving request; returns the placement and the predicted
    /// completion time of the request's last task.
    ///
    /// # Panics
    /// If a task has no feasible device (its pin, tier range and memory
    /// floor exclude the whole fleet).
    pub fn place_request(
        &mut self,
        env: &Env,
        dag: &Dag,
        arrival: SimTime,
    ) -> (Placement, SimTime) {
        let mut flow = RequestFlow::new(dag, arrival);
        for t in dag.topo_order() {
            let task = dag.task(t);
            let groups = self.candidates(env, task, true);
            let best = self.earliest(&groups, arrival, |d| {
                Some(flow.ready(env, dag, task, env.node_of(d)))
            });
            let (fin, dev, need) = best.expect("candidate set non-empty");
            self.occupy(dev, need, fin);
            flow.place(env, t, dev, fin);
        }
        (flow.placement, flow.last_finish)
    }
}

/// Where and when each task of one request has been placed so far.
struct RequestFlow {
    arrival: SimTime,
    placement: Placement,
    finish: Vec<SimTime>,
    location: Vec<NodeId>,
    last_finish: SimTime,
}

impl RequestFlow {
    fn new(dag: &Dag, arrival: SimTime) -> Self {
        let n = dag.len();
        RequestFlow {
            arrival,
            placement: Placement {
                assignment: vec![DeviceId(0); n],
            },
            finish: vec![SimTime::ZERO; n],
            location: vec![NodeId(0); n],
            last_finish: arrival,
        }
    }

    /// When all of `task`'s inputs are at `node`: external inputs leave
    /// their home at the arrival, produced ones their producer's node at
    /// its predicted finish. Never before the arrival.
    fn ready(&self, env: &Env, dag: &Dag, task: &Task, node: NodeId) -> SimTime {
        task.inputs.iter().fold(self.arrival, |ready, &inp| {
            let item = dag.data(inp);
            let (src, avail) = match dag.producer(inp) {
                None => (item.home.expect("validated dag"), self.arrival),
                Some(p) => (self.location[p.0 as usize], self.finish[p.0 as usize]),
            };
            let arrives = env
                .arrival(src, node, avail, item.bytes)
                .expect("disconnected topology");
            ready.max(arrives)
        })
    }

    fn place(&mut self, env: &Env, t: TaskId, dev: DeviceId, fin: SimTime) {
        let i = t.0 as usize;
        self.placement.assignment[i] = dev;
        self.finish[i] = fin;
        self.location[i] = env.node_of(dev);
        self.last_finish = self.last_finish.max(fin);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use continuum_model::standard_fleet;
    use continuum_net::{continuum, ContinuumSpec};
    use continuum_sim::{Rng, SimDuration};
    use continuum_workflow::{inference_stream, Constraints, StreamSpec};

    fn setup() -> (Env, Vec<(SimTime, Dag)>) {
        let built = continuum(&ContinuumSpec::default());
        let env = Env::new(built.topology.clone(), standard_fleet(&built));
        let mut rng = Rng::new(41);
        let spec = StreamSpec {
            sensors: built.sensors.clone(),
            requests: 40,
            rate_hz: 5.0,
            ..Default::default()
        };
        (env, inference_stream(&mut rng, &spec).requests)
    }

    #[test]
    fn requests_complete_after_arrival() {
        let (env, reqs) = setup();
        let mut placer = OnlinePlacer::continuum(&env);
        for (arrival, dag) in &reqs {
            let (placement, fin) = placer.place_request(&env, dag, *arrival);
            assert_eq!(placement.assignment.len(), dag.len());
            assert!(fin > *arrival);
        }
    }

    #[test]
    fn lanes_stay_sorted_and_sized() {
        let (env, reqs) = setup();
        let mut placer = OnlinePlacer::continuum(&env);
        for (arrival, dag) in &reqs {
            placer.place_request(&env, dag, *arrival);
        }
        for (lanes, d) in placer.lanes.iter().zip(env.fleet.devices()) {
            assert_eq!(lanes.len(), d.spec.cores as usize);
            assert!(lanes.windows(2).all(|w| w[0] <= w[1]));
        }
    }

    #[test]
    fn capture_stays_pinned_even_cloud_only() {
        let (env, reqs) = setup();
        let mut placer = OnlinePlacer::cloud_only(&env);
        for (arrival, dag) in reqs.iter().take(10) {
            let (placement, _) = placer.place_request(&env, dag, *arrival);
            let pinned = dag.task(TaskId(0)).constraints.pinned_node.unwrap();
            assert_eq!(env.node_of(placement.device(TaskId(0))), pinned);
            // The inference task must be in the cloud.
            let infer_dev = placement.device(TaskId(2));
            assert_eq!(env.fleet.device(infer_dev).spec.tier, Tier::Cloud);
        }
    }

    #[test]
    fn backlog_builds_under_load() {
        let (env, reqs) = setup();
        // Edge-only on a heavy stream should queue: later predicted
        // completions drift above the zero-queue service time.
        let mut placer = OnlinePlacer::edge_only(&env);
        let mut latencies = Vec::new();
        for (arrival, dag) in &reqs {
            let (_, fin) = placer.place_request(&env, dag, *arrival);
            latencies.push(fin.since(*arrival).as_secs_f64());
        }
        let first = latencies.first().copied().unwrap();
        let worst = latencies.iter().cloned().fold(0.0, f64::max);
        assert!(worst >= first, "no queueing effect at all?");
    }

    #[test]
    fn place_task_respects_alive_mask() {
        let (env, reqs) = setup();
        let mut placer = OnlinePlacer::continuum(&env);
        let (arrival, dag) = &reqs[0];
        // The preprocess task (id 1) is unpinned: placeable anywhere.
        let task = dag.task(TaskId(1));
        let inputs: Vec<_> = task
            .inputs
            .iter()
            .map(|&inp| {
                let item = dag.data(inp);
                (
                    item.home
                        .unwrap_or(env.node_of(continuum_model::DeviceId(0))),
                    *arrival,
                    item.bytes,
                )
            })
            .collect();
        let n_dev = env.fleet.devices().len();
        let all_alive = vec![true; n_dev];
        let (dev, fin) = placer
            .place_task(&env, task, &inputs, *arrival, &all_alive)
            .expect("live fleet places anything");
        assert!(fin > *arrival);
        // Killing the chosen device forces a different (live) choice.
        let mut mask = all_alive.clone();
        mask[dev.0 as usize] = false;
        let (dev2, _) = placer
            .place_task(&env, task, &inputs, *arrival, &mask)
            .expect("other devices survive");
        assert_ne!(dev2, dev);
        // Nothing alive: nothing placeable.
        assert!(placer
            .place_task(&env, task, &inputs, *arrival, &vec![false; n_dev])
            .is_none());
    }

    #[test]
    fn continuum_no_worse_than_edge_only_prediction() {
        let (env, reqs) = setup();
        let mut cont = OnlinePlacer::continuum(&env);
        let mut edge = OnlinePlacer::edge_only(&env);
        let mut sum_c = 0.0;
        let mut sum_e = 0.0;
        for (arrival, dag) in &reqs {
            let (_, fc) = cont.place_request(&env, dag, *arrival);
            let (_, fe) = edge.place_request(&env, dag, *arrival);
            sum_c += fc.since(*arrival).as_secs_f64();
            sum_e += fe.since(*arrival).as_secs_f64();
        }
        assert!(sum_c <= sum_e * 1.001, "continuum {sum_c} vs edge {sum_e}");
    }

    #[test]
    #[should_panic(expected = "has no feasible device")]
    fn unpinned_task_that_fits_no_class_panics() {
        let (env, _) = setup();
        let mut dag = Dag::new("too-big");
        dag.add_task_full(
            "t",
            1e9,
            1,
            vec![],
            vec![],
            Constraints {
                min_mem_bytes: u64::MAX,
                ..Default::default()
            },
        );
        OnlinePlacer::continuum(&env).place_request(&env, &dag, SimTime::ZERO);
    }

    #[test]
    fn stop_rule_counts_from_the_floor() {
        let at = SimTime::from_secs(10);
        let dur = SimDuration::from_secs(1);
        // A class that can only tie the best finish is still scanned.
        assert!(!cannot_win(at, dur, at + dur));
        assert!(cannot_win(at, dur, at + dur - SimDuration::from_nanos(1)));
        // The bound includes the floor: a 1 s class cannot beat a finish
        // 0.5 s after a 10 s arrival, although 1 s < 10.5 s.
        assert!(cannot_win(at, dur, at + SimDuration::from_millis(500)));
    }
}

#[cfg(test)]
mod deadline_tests {
    use super::*;
    use continuum_model::standard_fleet;
    use continuum_net::{continuum, ContinuumSpec};
    use continuum_sim::{Rng, SimDuration};
    use continuum_workflow::{inference_stream, StreamSpec};

    fn setup() -> (Env, Vec<(SimTime, Dag)>) {
        let built = continuum(&ContinuumSpec::default());
        let env = Env::new(built.topology.clone(), standard_fleet(&built));
        let mut rng = Rng::new(61);
        let spec = StreamSpec {
            sensors: built.sensors.clone(),
            requests: 30,
            rate_hz: 4.0,
            infer_flops: 1e8,
            ..Default::default()
        };
        (env, inference_stream(&mut rng, &spec).requests)
    }

    #[test]
    fn loose_deadline_keeps_work_low_in_the_continuum() {
        let (env, reqs) = setup();
        let mut eager = OnlinePlacer::continuum(&env);
        let mut lazy = OnlinePlacer::continuum(&env);
        let mut eager_high_tier = 0usize;
        let mut lazy_high_tier = 0usize;
        let mut total = 0usize;
        for (arrival, dag) in &reqs {
            let (p_eager, _) = eager.place_request(&env, dag, *arrival);
            let (p_lazy, _, miss) =
                lazy.place_request_deadline(&env, dag, *arrival, SimDuration::from_secs(30));
            assert!(!miss, "a 30s deadline must be met in prediction");
            for task in dag.tasks() {
                if task.constraints.pinned_node.is_some() {
                    continue;
                }
                total += 1;
                if env.fleet.device(p_eager.device(task.id)).spec.tier >= Tier::Fog {
                    eager_high_tier += 1;
                }
                if env.fleet.device(p_lazy.device(task.id)).spec.tier >= Tier::Fog {
                    lazy_high_tier += 1;
                }
            }
        }
        assert!(total > 0);
        // With slack to burn, the deadline-aware placer keeps more work at
        // the low tiers than the eager minimum-latency placer.
        assert!(
            lazy_high_tier <= eager_high_tier,
            "deadline-aware escalated more ({lazy_high_tier}) than eager ({eager_high_tier})"
        );
    }

    #[test]
    fn tight_deadline_behaves_like_eager() {
        let (env, reqs) = setup();
        let mut eager = OnlinePlacer::continuum(&env);
        let mut tight = OnlinePlacer::continuum(&env);
        for (arrival, dag) in &reqs {
            let (_, fin_eager) = eager.place_request(&env, dag, *arrival);
            let (_, fin_tight, _) =
                tight.place_request_deadline(&env, dag, *arrival, SimDuration::from_nanos(1));
            // Impossible deadline -> fall back to min-finish: same
            // prediction as the eager policy.
            assert_eq!(fin_eager, fin_tight);
        }
    }

    #[test]
    fn predicted_miss_flag_consistent() {
        let (env, reqs) = setup();
        let mut placer = OnlinePlacer::continuum(&env);
        let (arrival, dag) = &reqs[0];
        let (_, fin, miss) =
            placer.place_request_deadline(&env, dag, *arrival, SimDuration::from_nanos(1));
        assert_eq!(miss, fin > *arrival + SimDuration::from_nanos(1));
        assert!(miss, "nanosecond deadline cannot be met");
    }
}

/// The class scan against a brute-force scan of every feasible device
/// (the pre-class-table algorithm, kept here as the reference).
#[cfg(test)]
mod scan_equivalence {
    use super::*;
    use continuum_model::{catalog, DeviceClass, Fleet};
    use continuum_net::{continuum, ContinuumSpec};
    use continuum_sim::Rng;
    use continuum_workflow::{Constraints, DataId};
    use proptest::prelude::*;

    impl OnlinePlacer {
        /// Score one device for `task` the way every reference path does.
        fn score_by_scan(&self, env: &Env, task: &Task, d: DeviceId, ready: SimTime) -> Pick {
            let spec = &env.fleet.device(d).spec;
            let need = task.occupancy(spec.cores);
            let start = ready.max(self.queue_free(d, need));
            let fin = start + spec.compute_time_parallel(task.work_flops, task.parallelism);
            (fin, d, need)
        }

        fn place_request_by_scan(
            &mut self,
            env: &Env,
            dag: &Dag,
            arrival: SimTime,
        ) -> (Placement, SimTime) {
            let mut flow = RequestFlow::new(dag, arrival);
            for t in dag.topo_order() {
                let task = dag.task(t);
                let feas = env.feasible_devices(task);
                let candidates: Vec<DeviceId> = match self.tier_range {
                    Some((lo, hi)) if task.constraints.pinned_node.is_none() => {
                        let r: Vec<DeviceId> = feas
                            .iter()
                            .copied()
                            .filter(|&d| {
                                let tier = env.fleet.device(d).spec.tier;
                                tier >= lo && tier <= hi
                            })
                            .collect();
                        if r.is_empty() {
                            feas
                        } else {
                            r
                        }
                    }
                    _ => feas,
                };
                let (fin, dev, need) = candidates
                    .into_iter()
                    .map(|d| {
                        let ready = flow.ready(env, dag, task, env.node_of(d));
                        self.score_by_scan(env, task, d, ready)
                    })
                    .min_by_key(|&(fin, d, _)| (fin, d))
                    .expect("candidate set non-empty");
                self.occupy(dev, need, fin);
                flow.place(env, t, dev, fin);
            }
            (flow.placement, flow.last_finish)
        }

        fn place_task_by_scan(
            &mut self,
            env: &Env,
            task: &Task,
            inputs: &[(NodeId, SimTime, u64)],
            now: SimTime,
            alive: &[bool],
        ) -> Option<(DeviceId, SimTime)> {
            let (fin, dev, need) = env
                .feasible_devices(task)
                .into_iter()
                .filter(|d| alive[d.0 as usize])
                .map(|d| {
                    let node = env.node_of(d);
                    let mut ready = now;
                    for &(src, avail, bytes) in inputs {
                        ready = ready.max(env.arrival(src, node, avail.max(now), bytes).unwrap());
                    }
                    self.score_by_scan(env, task, d, ready)
                })
                .min_by_key(|&(fin, d, _)| (fin, d))?;
            self.occupy(dev, need, fin);
            Some((dev, fin))
        }

        fn place_request_deadline_by_scan(
            &mut self,
            env: &Env,
            dag: &Dag,
            arrival: SimTime,
            deadline: SimDuration,
        ) -> (Placement, SimTime, bool) {
            let deadline_abs = arrival + deadline;
            let order = dag.topo_order();
            let mut remaining_after = vec![0.0f64; dag.len()];
            let mut acc = 0.0;
            for &t in order.iter().rev() {
                remaining_after[t.0 as usize] = acc;
                acc += dag.task(t).work_flops;
            }
            let mean_flops = env.mean_core_flops();
            let mut flow = RequestFlow::new(dag, arrival);
            for &t in &order {
                let task = dag.task(t);
                let cands: Vec<(Pick, Tier)> = env
                    .feasible_devices(task)
                    .into_iter()
                    .map(|d| {
                        let ready = flow.ready(env, dag, task, env.node_of(d));
                        let pick = self.score_by_scan(env, task, d, ready);
                        (pick, env.fleet.device(d).spec.tier)
                    })
                    .collect();
                let tail = SimDuration::from_secs_f64(remaining_after[t.0 as usize] / mean_flops);
                let (fin, dev, need) = Tier::ALL
                    .iter()
                    .find_map(|&tier| {
                        cands
                            .iter()
                            .filter(|((fin, _, _), tr)| *tr == tier && *fin + tail <= deadline_abs)
                            .map(|&(pick, _)| pick)
                            .min_by_key(|&(fin, d, _)| (fin, d))
                    })
                    .unwrap_or_else(|| {
                        cands
                            .iter()
                            .map(|&(pick, _)| pick)
                            .min_by_key(|&(fin, d, _)| (fin, d))
                            .expect("candidate set non-empty")
                    });
                self.occupy(dev, need, fin);
                flow.place(env, t, dev, fin);
            }
            let miss = flow.last_finish > deadline_abs;
            (flow.placement, flow.last_finish, miss)
        }
    }

    /// `base` with the fields the class table keys on replaced.
    fn spec(base: DeviceClass, tier: Tier, cores: u32, flops: f64, mem_bytes: u64) -> DeviceSpec {
        DeviceSpec {
            tier,
            cores,
            flops,
            mem_bytes,
            ..catalog::spec(base)
        }
    }

    /// Specs chosen so classes tie: `edge4` and `fog4` differ only in
    /// tier (same compute time for every task), `fog2` matches their
    /// per-core speed (same time for single-core tasks), and `cloud_a`
    /// and `cloud_b` differ only in fields the table ignores (one class).
    fn palette() -> Vec<DeviceSpec> {
        const GB: u64 = 1 << 30;
        vec![
            spec(DeviceClass::SensorMote, Tier::Sensor, 1, 5e7, 256 << 10),
            spec(DeviceClass::EdgeGateway, Tier::Edge, 4, 4e9, GB),
            spec(DeviceClass::FogServer, Tier::Fog, 4, 4e9, GB),
            spec(DeviceClass::FogServer, Tier::Fog, 2, 2e9, 8 * GB),
            spec(DeviceClass::CloudVm, Tier::Cloud, 16, 3.2e10, 32 * GB),
            spec(DeviceClass::CloudVmLarge, Tier::Cloud, 16, 3.2e10, 32 * GB),
            spec(DeviceClass::HpcNode, Tier::Hpc, 64, 6.4e11, 256 * GB),
        ]
    }

    /// A small continuum topology carrying `n` devices drawn from the
    /// palette, each at a random node, in random order.
    fn world(rng: &mut Rng, n: usize) -> Env {
        let built = continuum(&ContinuumSpec {
            fogs: 2,
            edges_per_fog: 2,
            sensors_per_edge: 2,
            clouds: 2,
            hpcs: 1,
            ..ContinuumSpec::default()
        });
        let nodes = built.topology.node_count() as u64;
        let palette = palette();
        let mut fleet = Fleet::new();
        for _ in 0..n {
            let node = NodeId(rng.below(nodes) as u32);
            fleet.add(node, rng.choose(&palette).clone());
        }
        Env::new(built.topology, fleet)
    }

    /// Constraints some device of the fleet satisfies: a pin to its node,
    /// a tier range around its tier, a memory floor at or below its own.
    fn constraints(rng: &mut Rng, env: &Env) -> Constraints {
        let d = &env.fleet.devices()[rng.index(env.fleet.len())];
        let mut c = Constraints::none();
        if rng.chance(0.2) {
            c.pinned_node = Some(d.node);
        }
        if rng.chance(0.3) {
            let lo = Tier::ALL[rng.index(d.spec.tier as usize + 1)];
            let hi =
                Tier::ALL[d.spec.tier as usize + rng.index(Tier::ALL.len() - d.spec.tier as usize)];
            c.tier_range = Some((lo, hi));
        }
        if rng.chance(0.3) {
            c.min_mem_bytes = rng.range_u64(0, d.spec.mem_bytes + 1);
        }
        c
    }

    /// A random request of 1-4 tasks. Task work is drawn from a short
    /// list so durations tie; inputs are external items (0 bytes
    /// sometimes), earlier tasks' outputs, or nothing at all.
    fn request(rng: &mut Rng, env: &Env) -> Dag {
        let nodes = env.topology.node_count() as u64;
        let mut dag = Dag::new("req");
        let mut produced: Vec<DataId> = Vec::new();
        for i in 0..1 + rng.index(4) {
            let mut inputs = Vec::new();
            for _ in 0..rng.index(3) {
                if !produced.is_empty() && rng.chance(0.6) {
                    inputs.push(*rng.choose(&produced));
                } else {
                    let bytes = if rng.chance(0.3) {
                        0
                    } else {
                        rng.range_u64(1, 50_000_000)
                    };
                    let home = NodeId(rng.below(nodes) as u32);
                    inputs.push(dag.add_input(format!("in{i}"), bytes, home));
                }
            }
            inputs.sort_unstable();
            inputs.dedup();
            let out = dag.add_item(format!("out{i}"), rng.range_u64(0, 20_000_000));
            let work = *rng.choose(&[1e7, 1e8, 4e8, 1e9, 8e9]);
            let parallelism = 1 + rng.index(8) as u32;
            let c = constraints(rng, env);
            dag.add_task_full(format!("t{i}"), work, parallelism, inputs, vec![out], c);
            produced.push(out);
        }
        dag
    }

    fn placer(env: &Env, which: u8) -> OnlinePlacer {
        match which % 3 {
            0 => OnlinePlacer::continuum(env),
            1 => OnlinePlacer::cloud_only(env),
            _ => OnlinePlacer::edge_only(env),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        /// Every entry point picks the same device, predicts the same
        /// finish and leaves the same lanes as the device-by-device scan,
        /// call after call, on fleets whose classes tie.
        #[test]
        fn class_scan_matches_device_scan(seed in any::<u64>(), which in 0u8..3, devices in 1usize..40) {
            let mut rng = Rng::new(seed);
            let env = world(&mut rng, devices);
            let mut fast = placer(&env, which);
            let mut slow = fast.clone();
            let n_dev = env.fleet.len();
            let mut arrival = SimTime::ZERO;
            for _ in 0..24 {
                if rng.chance(0.7) {
                    arrival += SimDuration::from_millis(rng.range_u64(0, 3_000));
                }
                let dag = request(&mut rng, &env);
                match rng.index(3) {
                    0 => {
                        let got = fast.place_request(&env, &dag, arrival);
                        let want = slow.place_request_by_scan(&env, &dag, arrival);
                        prop_assert_eq!(got, want);
                    }
                    1 => {
                        let deadline = SimDuration::from_millis(rng.range_u64(1, 20_000));
                        let got = fast.place_request_deadline(&env, &dag, arrival, deadline);
                        let want = slow.place_request_deadline_by_scan(&env, &dag, arrival, deadline);
                        prop_assert_eq!(got, want);
                    }
                    _ => {
                        let p_alive = *rng.choose(&[0.0, 0.3, 0.8, 1.0]);
                        let alive: Vec<bool> = (0..n_dev).map(|_| rng.chance(p_alive)).collect();
                        let nodes = env.topology.node_count() as u64;
                        for task in dag.tasks() {
                            let inputs: Vec<(NodeId, SimTime, u64)> = task
                                .inputs
                                .iter()
                                .map(|_| {
                                    (
                                        NodeId(rng.below(nodes) as u32),
                                        arrival + SimDuration::from_millis(rng.range_u64(0, 2_000)),
                                        rng.range_u64(0, 10_000_000),
                                    )
                                })
                                .collect();
                            let got = fast.place_task(&env, task, &inputs, arrival, &alive);
                            let want = slow.place_task_by_scan(&env, task, &inputs, arrival, &alive);
                            prop_assert_eq!(got, want);
                            if !alive.contains(&true) {
                                prop_assert_eq!(got, None);
                            }
                            // The stop rule is the exact bound: a class is
                            // pruned iff even an idle member with its inputs
                            // at hand (start == now) would finish late.
                            if let Some((_, fin)) = got {
                                for g in &fast.candidates(&env, task, false) {
                                    prop_assert_eq!(
                                        cannot_win(arrival, g.dur, fin),
                                        arrival + g.dur > fin
                                    );
                                }
                            }
                        }
                    }
                }
                prop_assert_eq!(&fast.lanes, &slow.lanes);
            }
        }
    }
}
