//! Schedule estimation: the contention-free performance model shared by
//! every placement policy.
//!
//! The estimator maintains a capacity profile per device (busy intervals ×
//! cores) and the location/availability of every data item, and answers
//! earliest-finish-time queries. Policies use it to *choose* placements;
//! [`crate::objective::evaluate`] uses it to score a fixed placement; the
//! simulated executor in `continuum-runtime` then charges the *contended*
//! truth (link sharing, queueing) for the chosen placement.

use crate::env::Env;
use continuum_model::DeviceId;
use continuum_sim::{SimDuration, SimTime};
use continuum_workflow::{Dag, DataId, TaskId};
use serde::{Deserialize, Serialize};

/// A placement: one device per task, indexed by `TaskId`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Placement {
    /// `assignment[t]` is the device task `t` runs on.
    pub assignment: Vec<DeviceId>,
}

impl Placement {
    /// Device assigned to a task.
    pub fn device(&self, t: TaskId) -> DeviceId {
        self.assignment[t.0 as usize]
    }
}

/// One reserved busy interval on a device.
#[derive(Debug, Clone, Copy)]
struct Busy {
    start: SimTime,
    end: SimTime,
    cores: u32,
}

/// Capacity profile of one device.
///
/// Alongside the raw interval list, the timeline maintains a sweep-line
/// index: the sorted distinct endpoint times and the piecewise-constant
/// core usage after each endpoint. A reservation updates the index in
/// place — two binary searches, ±`need` over the endpoints it overlaps,
/// and at most one `Vec` shift per endpoint inserted or dropped — instead
/// of rebuilding it. Peak queries cost a binary search plus a walk of the
/// endpoints inside the window (`peak_usage`); the seed recomputed usage
/// from every interval at every candidate point, O(B²) per query and
/// O(B³) per `earliest_slot`.
#[derive(Debug)]
pub struct DeviceTimeline {
    cores: u32,
    busy: Vec<Busy>, // kept sorted by start
    /// Sorted distinct endpoint times of `busy`, none with a zero net
    /// delta (so every entry is a real usage change — the gap search
    /// below relies on that).
    times: Vec<SimTime>,
    /// Net core delta at `times[i]` (starts positive, ends negative).
    /// Ends and starts sharing a timestamp merge, which encodes the
    /// half-open `[start, end)` semantics: a task ending at T never
    /// overlaps one starting at T.
    delta: Vec<i64>,
    /// Cores in use during `[times[i], times[i+1])`.
    usage: Vec<u32>,
}

impl Clone for DeviceTimeline {
    fn clone(&self) -> Self {
        DeviceTimeline {
            cores: self.cores,
            busy: self.busy.clone(),
            times: self.times.clone(),
            delta: self.delta.clone(),
            usage: self.usage.clone(),
        }
    }

    /// Field-wise, so a reused timeline keeps its allocations.
    fn clone_from(&mut self, src: &Self) {
        self.cores = src.cores;
        self.busy.clone_from(&src.busy);
        self.times.clone_from(&src.times);
        self.delta.clone_from(&src.delta);
        self.usage.clone_from(&src.usage);
    }
}

impl DeviceTimeline {
    /// Empty timeline for a device with `cores` cores.
    pub fn new(cores: u32) -> Self {
        DeviceTimeline {
            cores,
            busy: Vec::new(),
            times: Vec::new(),
            delta: Vec::new(),
            usage: Vec::new(),
        }
    }

    /// Index of the first endpoint strictly after `t`; `usage[idx - 1]`
    /// (or 0) is the core usage at `t` itself.
    fn sweep_index(&self, t: SimTime) -> usize {
        self.times.partition_point(|&x| x <= t)
    }

    fn usage_at_index(&self, idx: usize) -> u32 {
        if idx == 0 {
            0
        } else {
            self.usage[idx - 1]
        }
    }

    /// Maximum concurrent core usage over the window `[t, t + dur)`.
    fn peak_usage(&self, t: SimTime, dur: SimDuration) -> u32 {
        let end = t + dur;
        let idx = self.sweep_index(t);
        let mut peak = self.usage_at_index(idx);
        for i in idx..self.times.len() {
            if self.times[i] >= end {
                break;
            }
            peak = peak.max(self.usage[i]);
        }
        peak
    }

    /// Maximum concurrent usage anywhere in `[t, ∞)`.
    fn peak_usage_from(&self, t: SimTime) -> u32 {
        let idx = self.sweep_index(t);
        let later = self.usage[idx..].iter().copied().max().unwrap_or(0);
        self.usage_at_index(idx).max(later)
    }

    /// Index of the endpoint at `t`, inserting a zero-delta entry (with the
    /// usage of the segment it splits) if there is none.
    fn endpoint(&mut self, t: SimTime) -> usize {
        match self.times.binary_search(&t) {
            Ok(i) => i,
            Err(i) => {
                let u = self.usage_at_index(i);
                self.times.insert(i, t);
                self.delta.insert(i, 0);
                self.usage.insert(i, u);
                i
            }
        }
    }

    /// Drop endpoint `i` if its net delta is zero: its usage then equals
    /// the previous segment's, so the two segments merge.
    fn drop_if_net_zero(&mut self, i: usize) {
        if self.delta[i] == 0 {
            self.times.remove(i);
            self.delta.remove(i);
            self.usage.remove(i);
        }
    }

    /// Add `d` cores over `[start, end)` to the sweep index in place.
    fn sweep_add(&mut self, start: SimTime, end: SimTime, d: i64) {
        if start >= end || d == 0 {
            return; // no segment changes
        }
        let i = self.endpoint(start);
        let j = self.endpoint(end);
        self.delta[i] += d;
        self.delta[j] -= d;
        for u in &mut self.usage[i..j] {
            *u = u32::try_from(i64::from(*u) + d).expect("sweep usage went negative");
        }
        // Higher index first, so `i` stays valid.
        self.drop_if_net_zero(j);
        self.drop_if_net_zero(i);
    }

    /// Earliest start `>= ready` at which `need` cores are free for `dur`.
    ///
    /// With `insertion`, gaps between reserved intervals are considered;
    /// without it, the task is appended after the last time the device is
    /// too busy (classic list scheduling, the ablation baseline).
    ///
    /// Implemented as a single sweep over the endpoint index: start at
    /// `ready`, and whenever a segment inside the trial window exceeds
    /// the spare capacity, jump the candidate to the next usage drop
    /// below the threshold. The candidate index only moves forward, so a
    /// query costs O(log B) for the initial binary search plus one walk
    /// of the endpoints it crosses — versus the seed's candidate ×
    /// peak-scan product, O(B²) ([`DeviceTimeline::earliest_slot_scan`],
    /// kept as the equivalence oracle). Append mode is one backward scan
    /// for the last segment above the spare capacity, O(B).
    pub fn earliest_slot(
        &self,
        ready: SimTime,
        dur: SimDuration,
        need: u32,
        insertion: bool,
    ) -> SimTime {
        let need = need.min(self.cores);
        let spare = self.cores - need; // max tolerable concurrent usage
        if insertion {
            let mut c = ready;
            let mut i = self.sweep_index(ready);
            if self.usage_at_index(i) > spare {
                // Busy at `ready` itself: the candidate must move to the
                // first later segment with room. A usage drop is always an
                // interval end, so this lands on a seed-candidate point.
                let j = self.next_fit(i, spare);
                c = self.times[j];
                i = j + 1;
            }
            loop {
                if i >= self.times.len() || self.times[i] >= c + dur {
                    return c; // window scanned clean
                }
                if self.usage[i] > spare {
                    let j = self.next_fit(i, spare);
                    c = self.times[j];
                    i = j + 1;
                } else {
                    i += 1;
                }
            }
        } else {
            // Append mode: the earliest start from which the device can
            // *permanently* spare `need` cores — no gap between existing
            // reservations is ever used. That is the endpoint closing the
            // last segment above `spare` (in range: usage after the last
            // endpoint is zero), or `ready` if it is later.
            self.usage
                .iter()
                .rposition(|&u| u > spare)
                .map_or(ready, |k| self.times[k + 1].max(ready))
        }
    }

    /// First endpoint index `>= i` whose segment usage fits under `spare`.
    /// Exists because usage after the last endpoint is zero.
    fn next_fit(&self, i: usize, spare: u32) -> usize {
        (i..self.times.len())
            .find(|&j| self.usage[j] <= spare)
            .expect("a slot always exists after the last busy interval")
    }

    /// Seed-era `earliest_slot`: collect candidate starts (ready + every
    /// busy end) and probe each with a peak query, O(B²) per call. Kept
    /// as the oracle the sweep implementation is proptested against.
    pub fn earliest_slot_scan(
        &self,
        ready: SimTime,
        dur: SimDuration,
        need: u32,
        insertion: bool,
    ) -> SimTime {
        let need = need.min(self.cores);
        let mut candidates: Vec<SimTime> = vec![ready];
        for b in &self.busy {
            if b.end > ready {
                candidates.push(b.end);
            }
        }
        candidates.sort_unstable();
        candidates.dedup();
        if insertion {
            for c in candidates {
                if self.peak_usage(c, dur) + need <= self.cores {
                    return c;
                }
            }
            unreachable!("a slot always exists after the last busy interval");
        } else {
            for c in candidates {
                if self.peak_usage_from(c) + need <= self.cores {
                    return c;
                }
            }
            unreachable!("the device is idle after its last reservation");
        }
    }

    /// Reserve `need` cores over `[start, start + dur)`.
    pub fn reserve(&mut self, start: SimTime, dur: SimDuration, need: u32) {
        let need = need.min(self.cores);
        debug_assert!(
            self.peak_usage(start, dur) + need <= self.cores,
            "over-reserving device"
        );
        let b = Busy {
            start,
            end: start + dur,
            cores: need,
        };
        let pos = self.busy.partition_point(|x| x.start <= start);
        self.busy.insert(pos, b);
        self.sweep_add(b.start, b.end, i64::from(need));
    }

    /// Release a reservation previously made with [`DeviceTimeline::reserve`]
    /// (same `start`/`dur`/`need`). The delta-cost annealer uses this to
    /// retract and re-place individual tasks; like `reserve`, it updates
    /// the sweep index in place. An endpoint whose two sides had canceled
    /// to net zero (and was dropped) is revived with the other side's
    /// delta.
    ///
    /// # Panics
    /// If no matching reservation exists.
    pub fn unreserve(&mut self, start: SimTime, dur: SimDuration, need: u32) {
        let need = need.min(self.cores);
        let end = start + dur;
        let lo = self.busy.partition_point(|x| x.start < start);
        let idx = self.busy[lo..]
            .iter()
            .position(|b| b.start == start && b.end == end && b.cores == need)
            .map(|i| lo + i)
            .expect("unreserve: no matching reservation");
        self.busy.remove(idx);
        self.sweep_add(start, end, -i64::from(need));
    }

    /// Total reserved core-seconds.
    pub fn busy_core_seconds(&self) -> f64 {
        self.busy
            .iter()
            .map(|b| b.end.since(b.start).as_secs_f64() * b.cores as f64)
            .sum()
    }

    /// End of the last reservation (time zero if none).
    pub fn horizon(&self) -> SimTime {
        self.busy
            .iter()
            .map(|b| b.end)
            .max()
            .unwrap_or(SimTime::ZERO)
    }
}

/// A fully committed estimated schedule.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EstimatedSchedule {
    /// The placement that was scheduled.
    pub placement: Placement,
    /// Start time per task.
    pub start: Vec<SimTime>,
    /// Finish time per task.
    pub finish: Vec<SimTime>,
}

impl EstimatedSchedule {
    /// Latest finish across tasks (zero for an empty DAG).
    pub fn makespan(&self) -> SimDuration {
        self.finish
            .iter()
            .copied()
            .max()
            .unwrap_or(SimTime::ZERO)
            .since(SimTime::ZERO)
    }

    /// Check that the schedule respects dependencies: every task starts at
    /// or after each predecessor's finish. Used by tests.
    pub fn respects_dependencies(&self, dag: &Dag) -> bool {
        dag.tasks().iter().all(|t| {
            dag.preds(t.id)
                .iter()
                .all(|p| self.finish[p.0 as usize] <= self.start[t.id.0 as usize])
        })
    }
}

/// Incremental schedule builder over an environment and DAG.
pub struct Estimator<'e> {
    pub(crate) env: &'e Env,
    pub(crate) dag: &'e Dag,
    pub(crate) timelines: Vec<DeviceTimeline>,
    pub(crate) assigned: Vec<Option<DeviceId>>,
    pub(crate) start: Vec<SimTime>,
    pub(crate) finish: Vec<Option<SimTime>>,
}

impl<'e> Estimator<'e> {
    /// Fresh estimator: all devices idle, no tasks placed.
    pub fn new(env: &'e Env, dag: &'e Dag) -> Self {
        Estimator {
            env,
            dag,
            timelines: env
                .fleet
                .devices()
                .iter()
                .map(|d| DeviceTimeline::new(d.spec.cores))
                .collect(),
            assigned: vec![None; dag.len()],
            start: vec![SimTime::ZERO; dag.len()],
            finish: vec![None; dag.len()],
        }
    }

    /// When data item `d` can be fully present at node `dst`, given current
    /// commitments. External items are available at their home at time 0.
    ///
    /// # Panics
    /// If the item's producer has not been committed yet, or no route
    /// exists.
    pub fn data_arrival(&self, d: DataId, dst: continuum_net::NodeId) -> SimTime {
        let item = self.dag.data(d);
        let (src, avail) = match self.dag.producer(d) {
            None => {
                let home = item
                    .home
                    .expect("validated DAG has homes for external items");
                (home, SimTime::ZERO)
            }
            Some(p) => {
                let dev = self.assigned[p.0 as usize].expect("producer not committed");
                let f = self.finish[p.0 as usize].expect("producer not committed");
                (self.env.node_of(dev), f)
            }
        };
        // O(1) cached lookup, bit-identical to materializing the
        // canonical path and asking it — which the seed did per probe.
        self.env
            .arrival(src, dst, avail, item.bytes)
            .expect("disconnected topology")
    }

    /// Earliest time all inputs of `t` can be present at `device`'s node.
    pub fn ready_time(&self, t: TaskId, device: DeviceId) -> SimTime {
        let node = self.env.node_of(device);
        self.dag
            .task(t)
            .inputs
            .iter()
            .map(|&d| self.data_arrival(d, node))
            .max()
            .unwrap_or(SimTime::ZERO)
    }

    /// Execution time of `t` on `device`.
    pub fn exec_time(&self, t: TaskId, device: DeviceId) -> SimDuration {
        let task = self.dag.task(t);
        let spec = &self.env.fleet.device(device).spec;
        spec.compute_time_parallel(task.work_flops, task.parallelism)
    }

    /// Hypothetical (start, finish) of `t` on `device` without committing.
    pub fn eft(&self, t: TaskId, device: DeviceId, insertion: bool) -> (SimTime, SimTime) {
        let ready = self.ready_time(t, device);
        let dur = self.exec_time(t, device);
        let task = self.dag.task(t);
        let need = task.occupancy(self.env.fleet.device(device).spec.cores);
        let start = self.timelines[device.0 as usize].earliest_slot(ready, dur, need, insertion);
        (start, start + dur)
    }

    /// Commit `t` to `device`; returns (start, finish).
    ///
    /// # Panics
    /// If any predecessor of `t` is uncommitted.
    pub fn commit(&mut self, t: TaskId, device: DeviceId, insertion: bool) -> (SimTime, SimTime) {
        let (start, fin) = self.eft(t, device, insertion);
        let dur = self.exec_time(t, device);
        let need = self
            .dag
            .task(t)
            .occupancy(self.env.fleet.device(device).spec.cores);
        self.timelines[device.0 as usize].reserve(start, dur, need);
        self.assigned[t.0 as usize] = Some(device);
        self.start[t.0 as usize] = start;
        self.finish[t.0 as usize] = Some(fin);
        (start, fin)
    }

    /// Finalize into a schedule.
    ///
    /// # Panics
    /// If any task is uncommitted.
    pub fn into_schedule(self) -> EstimatedSchedule {
        let assignment: Vec<DeviceId> = self
            .assigned
            .into_iter()
            .map(|a| a.expect("uncommitted task"))
            .collect();
        let finish: Vec<SimTime> = self
            .finish
            .into_iter()
            .map(|f| f.expect("uncommitted task"))
            .collect();
        EstimatedSchedule {
            placement: Placement { assignment },
            start: self.start,
            finish,
        }
    }

    /// Busy core-seconds accumulated so far per device.
    pub fn busy_core_seconds(&self) -> Vec<f64> {
        self.timelines
            .iter()
            .map(|t| t.busy_core_seconds())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use continuum_sim::SimDuration;

    #[test]
    fn timeline_single_core_serializes() {
        let mut tl = DeviceTimeline::new(1);
        let d = SimDuration::from_secs(10);
        let s1 = tl.earliest_slot(SimTime::ZERO, d, 1, true);
        assert_eq!(s1, SimTime::ZERO);
        tl.reserve(s1, d, 1);
        let s2 = tl.earliest_slot(SimTime::ZERO, d, 1, true);
        assert_eq!(s2, SimTime::from_secs(10));
    }

    #[test]
    fn timeline_multicore_overlaps() {
        let mut tl = DeviceTimeline::new(4);
        let d = SimDuration::from_secs(10);
        for _ in 0..4 {
            let s = tl.earliest_slot(SimTime::ZERO, d, 1, true);
            assert_eq!(s, SimTime::ZERO);
            tl.reserve(s, d, 1);
        }
        // Fifth task must wait.
        let s = tl.earliest_slot(SimTime::ZERO, d, 1, true);
        assert_eq!(s, SimTime::from_secs(10));
    }

    #[test]
    fn insertion_finds_gap_append_does_not() {
        let mut tl = DeviceTimeline::new(1);
        // Busy [0, 10) and [20, 30): a 10s gap at [10, 20).
        tl.reserve(SimTime::ZERO, SimDuration::from_secs(10), 1);
        tl.reserve(SimTime::from_secs(20), SimDuration::from_secs(10), 1);
        let gap = tl.earliest_slot(SimTime::ZERO, SimDuration::from_secs(5), 1, true);
        assert_eq!(gap, SimTime::from_secs(10));
        let append = tl.earliest_slot(SimTime::ZERO, SimDuration::from_secs(5), 1, false);
        assert_eq!(append, SimTime::from_secs(30));
    }

    #[test]
    fn insertion_skips_too_small_gap() {
        let mut tl = DeviceTimeline::new(1);
        tl.reserve(SimTime::ZERO, SimDuration::from_secs(10), 1);
        tl.reserve(SimTime::from_secs(12), SimDuration::from_secs(10), 1);
        // 2s gap cannot fit 5s task.
        let s = tl.earliest_slot(SimTime::ZERO, SimDuration::from_secs(5), 1, true);
        assert_eq!(s, SimTime::from_secs(22));
    }

    #[test]
    fn need_clamped_to_cores() {
        let mut tl = DeviceTimeline::new(2);
        let s = tl.earliest_slot(SimTime::ZERO, SimDuration::from_secs(1), 100, true);
        assert_eq!(s, SimTime::ZERO);
        tl.reserve(s, SimDuration::from_secs(1), 100);
        assert!((tl.busy_core_seconds() - 2.0).abs() < 1e-9);
    }

    /// From-scratch sweep index `(times, delta, usage)` of `tl.busy`: the
    /// oracle the in-place `reserve`/`unreserve` update is checked against.
    fn rebuild_sweep(tl: &DeviceTimeline) -> (Vec<SimTime>, Vec<i64>, Vec<u32>) {
        let mut events: Vec<(SimTime, i64)> = tl
            .busy
            .iter()
            .flat_map(|b| [(b.start, i64::from(b.cores)), (b.end, -i64::from(b.cores))])
            .collect();
        events.sort_unstable();
        let mut merged: Vec<(SimTime, i64)> = Vec::new();
        for (t, d) in events {
            match merged.last_mut() {
                Some((last, sum)) if *last == t => *sum += d,
                _ => merged.push((t, d)),
            }
        }
        merged.retain(|&(_, d)| d != 0);
        let mut run = 0i64;
        let usage = merged
            .iter()
            .map(|&(_, d)| {
                run += d;
                u32::try_from(run).expect("usage went negative")
            })
            .collect();
        (
            merged.iter().map(|&(t, _)| t).collect(),
            merged.iter().map(|&(_, d)| d).collect(),
            usage,
        )
    }

    /// Brute-force peak over `[t, end)` straight from the interval list,
    /// the semantics the sweep-line index must reproduce.
    fn brute_peak(tl: &DeviceTimeline, t: SimTime, end: SimTime) -> u32 {
        let mut points: Vec<SimTime> = vec![t];
        points.extend(
            tl.busy
                .iter()
                .map(|b| b.start)
                .filter(|&s| s > t && s < end),
        );
        points
            .iter()
            .map(|&p| {
                tl.busy
                    .iter()
                    .filter(|b| b.start <= p && b.end > p)
                    .map(|b| b.cores)
                    .sum()
            })
            .max()
            .unwrap_or(0)
    }

    #[test]
    fn sweep_line_matches_brute_force() {
        let mut tl = DeviceTimeline::new(64);
        // Deterministic pseudo-random reservations, including shared
        // endpoints and zero-length gaps.
        let mut x = 0x1234_5678u64;
        for _ in 0..60 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let start = SimTime::from_secs((x >> 33) % 50);
            let dur = SimDuration::from_secs((x >> 21) % 7 + 1);
            let cores = ((x >> 11) % 3 + 1) as u32;
            tl.reserve(start, dur, cores);
        }
        for t in 0..60u64 {
            for d in 1..8u64 {
                let (from, dur) = (SimTime::from_secs(t), SimDuration::from_secs(d));
                assert_eq!(
                    tl.peak_usage(from, dur),
                    brute_peak(&tl, from, from + dur),
                    "window [{t}, {}s)",
                    t + d
                );
            }
            let far = SimTime::from_secs(1_000_000);
            assert_eq!(
                tl.peak_usage_from(SimTime::from_secs(t)),
                brute_peak(&tl, SimTime::from_secs(t), far)
            );
        }
    }

    fn lcg(x: u64) -> u64 {
        x.wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407)
    }

    #[test]
    fn sweep_slot_matches_scan_oracle() {
        // Random probe/commit interleavings at several core widths; the
        // sweep `earliest_slot` must agree with the seed scan everywhere.
        let mut x = 0x9E37_79B9u64;
        for cores in [1u32, 2, 3, 8] {
            let mut tl = DeviceTimeline::new(cores);
            for _ in 0..60 {
                x = lcg(x);
                let ready = SimTime::from_secs((x >> 33) % 40);
                x = lcg(x);
                let dur = SimDuration::from_secs((x >> 21) % 6 + 1);
                x = lcg(x);
                let need = ((x >> 11) % u64::from(cores) + 1) as u32;
                x = lcg(x);
                let insertion = x & 1 == 0;
                let got = tl.earliest_slot(ready, dur, need, insertion);
                let want = tl.earliest_slot_scan(ready, dur, need, insertion);
                assert_eq!(
                    got, want,
                    "cores={cores} ready={ready:?} dur={dur:?} need={need} ins={insertion}"
                );
                if x & 2 == 0 {
                    tl.reserve(got, dur, need);
                }
            }
        }
    }

    #[test]
    fn unreserve_restores_timeline() {
        let mut tl = DeviceTimeline::new(4);
        tl.reserve(SimTime::ZERO, SimDuration::from_secs(10), 2);
        tl.reserve(SimTime::from_secs(10), SimDuration::from_secs(5), 4);
        tl.reserve(SimTime::from_secs(4), SimDuration::from_secs(2), 1);
        let times = tl.times.clone();
        let delta = tl.delta.clone();
        let usage = tl.usage.clone();
        // This reservation's end lands on the shared endpoint at t=10.
        tl.reserve(SimTime::from_secs(2), SimDuration::from_secs(8), 1);
        tl.unreserve(SimTime::from_secs(2), SimDuration::from_secs(8), 1);
        assert_eq!(tl.times, times);
        assert_eq!(tl.delta, delta);
        assert_eq!(tl.usage, usage);
        assert_eq!(tl.busy.len(), 3);
    }

    #[test]
    fn unreserve_revives_canceled_endpoint() {
        // An end (-1) and a start (+1) meeting at t=10 cancel to net zero
        // and drop the endpoint entry; retracting one side revives the
        // other's contribution.
        let mut tl = DeviceTimeline::new(2);
        tl.reserve(SimTime::ZERO, SimDuration::from_secs(10), 1);
        tl.reserve(SimTime::from_secs(10), SimDuration::from_secs(5), 1);
        assert!(!tl.times.contains(&SimTime::from_secs(10)));
        tl.unreserve(SimTime::ZERO, SimDuration::from_secs(10), 1);
        assert_eq!(
            tl.earliest_slot(SimTime::ZERO, SimDuration::from_secs(20), 2, true),
            SimTime::from_secs(15)
        );
        assert_eq!(
            tl.earliest_slot(SimTime::ZERO, SimDuration::from_secs(5), 1, true),
            SimTime::ZERO
        );
    }

    #[test]
    fn in_place_updates_equal_rebuild() {
        // Random reserve/unreserve interleavings on a coarse time grid, so
        // endpoints are shared often: net-zero cancels, revivals, and
        // zero-length reservations all occur.
        let mut x = 0x5EED_CAFEu64;
        for cores in [1u32, 3, 8] {
            let mut tl = DeviceTimeline::new(cores);
            let mut held: Vec<(SimTime, SimDuration, u32)> = Vec::new();
            for step in 0..400 {
                x = lcg(x);
                if !held.is_empty() && x.is_multiple_of(3) {
                    let (s, d, n) = held.swap_remove((x >> 8) as usize % held.len());
                    tl.unreserve(s, d, n);
                } else {
                    x = lcg(x);
                    let ready = SimTime::from_secs((x >> 33) % 30);
                    let dur = SimDuration::from_secs((x >> 21) % 5);
                    let need = ((x >> 11) % u64::from(cores) + 1) as u32;
                    let s = tl.earliest_slot(ready, dur, need, x & 1 == 0);
                    tl.reserve(s, dur, need);
                    held.push((s, dur, need));
                }
                let (times, delta, usage) = rebuild_sweep(&tl);
                assert_eq!(tl.times, times, "cores={cores} step={step}");
                assert_eq!(tl.delta, delta, "cores={cores} step={step}");
                assert_eq!(tl.usage, usage, "cores={cores} step={step}");
            }
        }
    }

    #[test]
    fn horizon_tracks_latest_end() {
        let mut tl = DeviceTimeline::new(2);
        assert_eq!(tl.horizon(), SimTime::ZERO);
        tl.reserve(SimTime::from_secs(5), SimDuration::from_secs(3), 1);
        assert_eq!(tl.horizon(), SimTime::from_secs(8));
    }
}
