//! Open-loop (arrival-driven) execution: sustained load, bounded memory.
//!
//! The closed-loop executors in [`crate::simrun`] register every request
//! up front and keep every task record until the end — fine for a finite
//! workload, O(total offered load) for a sustained one. This module
//! drives the same [`crate::simrun`] cores in *streaming* mode: requests
//! are injected as they arrive, an admission gate rejects new arrivals
//! once the live-request set reaches a cap (backpressure), and completed
//! requests *retire* — their slots are freed and reused, and their task
//! records fold into log2 histograms. Memory is O(active requests), not
//! O(requests ever offered), which is what makes million-request
//! saturation sweeps tractable.
//!
//! Both backends run one loop under one driver (see [`crate::shard`]):
//! the single queue is one unpartitioned core, the pinned backend one
//! partitioned core per shard. One gate owns admission, the live count,
//! request latency, the end of the run and the health plane for both;
//! cores only report which request finished when.
//!
//! The executor core is shared with the closed loop, so the physics are
//! identical: an open-loop run over the same placed requests (with an
//! unbounded admission cap) completes the same tasks, moves the same
//! bytes, bills the same dollars, and yields the same latency
//! distribution as [`crate::simulate_stream_chaos`].

use crate::shard::{
    build_cores, pinned_participants, publish_shard_metrics, CoreShard, Pinned, ShardOpts,
};
use crate::simrun::{FaultPlane, FaultSpec, StreamRequest, Tally};
use continuum_net::{FlowEngineStats, RegionPartition};
use continuum_obs::{
    HealthPlane, HealthReport, HealthSpec, Histogram, MetricsRegistry, MetricsSnapshot, Telemetry,
};
use continuum_placement::Env;
use continuum_sim::{ConservativeDriver, SimTime};
use std::collections::HashMap;

/// Knobs for one open-loop run.
#[derive(Debug, Clone, Copy)]
pub struct OpenLoopOpts<'a> {
    /// Admission cap: a new arrival is rejected (counted, not executed)
    /// while this many requests are live. `usize::MAX` disables
    /// backpressure — every arrival is admitted.
    pub max_live: usize,
    /// Per-attempt fault injection, as in
    /// [`crate::simulate_stream_chaos`].
    pub faults: Option<&'a FaultSpec>,
    /// Timed device/link fault plane, as in
    /// [`crate::simulate_stream_chaos`].
    pub plane: Option<&'a FaultPlane>,
    /// Attach an SLO health plane: burn-rate windows fed by the run's
    /// completion stream, sampled into a flight recorder on sim-time
    /// ticks. `None` (the default) keeps the run bit-identical to one
    /// that never heard of health accounting.
    pub health: Option<&'a HealthSpec>,
}

impl Default for OpenLoopOpts<'_> {
    fn default() -> Self {
        OpenLoopOpts {
            max_live: usize::MAX,
            faults: None,
            plane: None,
            health: None,
        }
    }
}

/// What one open-loop run produced: SLO aggregates (latency quantiles,
/// goodput, rejection rate), conservation counters, and the memory
/// high-water marks the bounded-memory guarantee is asserted against.
/// Everything here is O(1) in the number of requests processed.
#[derive(Debug, Clone, PartialEq)]
pub struct OpenLoopReport {
    /// Requests the arrival process offered.
    pub offered: u64,
    /// Offered and admitted past the backpressure gate.
    pub admitted: u64,
    /// Admitted and executed to completion.
    pub completed: u64,
    /// Offered but rejected by admission control.
    pub rejected: u64,
    /// High-water mark of simultaneously live (admitted, unretired)
    /// requests — the slot-reuse bound.
    pub peak_live: usize,
    /// High-water mark of the compacting task-record buffer.
    pub peak_record_buffer: usize,
    /// Finish time of the last completed request.
    pub end_time: SimTime,
    /// Request latency (finish - arrival) of every completed request.
    pub latency: Histogram,
    /// Duration of every executed task attempt.
    pub task_duration: Histogram,
    /// Executed task attempts (including failed and killed ones).
    pub tasks_executed: u64,
    /// Bytes that crossed at least one link.
    pub bytes_moved: u64,
    /// Non-local transfers initiated.
    pub transfers: u64,
    /// Attempts that drew a failure and retried.
    pub failed_attempts: u64,
    /// Tasks re-placed after a crash.
    pub replacements: u64,
    /// Attempts killed mid-flight by a device crash.
    pub killed_attempts: u64,
    /// Device crashes the fault plane delivered.
    pub device_crashes: u64,
    /// Link failures the fault plane delivered.
    pub link_failures: u64,
    /// Execution seconds destroyed by crashes.
    pub lost_work_s: f64,
    /// Executed task attempts per device id.
    pub tasks_by_device: Vec<u64>,
    /// Energy burned by used devices over the run.
    pub energy_j: f64,
    /// Occupancy + egress cost of the run.
    pub cost_usd: f64,
    /// SLO burn-rate summary and flight-recorder timeline; present iff
    /// [`OpenLoopOpts::health`] was set.
    pub health: Option<HealthReport>,
}

impl OpenLoopReport {
    /// Completed requests per simulated second (0 for an empty run).
    pub fn goodput_hz(&self) -> f64 {
        let secs = self.end_time.since(SimTime::ZERO).as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.completed as f64 / secs
        }
    }

    /// Fraction of offered requests rejected by admission control.
    pub fn rejection_rate(&self) -> f64 {
        if self.offered == 0 {
            0.0
        } else {
            self.rejected as f64 / self.offered as f64
        }
    }

    /// Estimated latency quantile in seconds (`q` in `[0, 1]`).
    pub fn latency_quantile_s(&self, q: f64) -> f64 {
        self.latency.quantile_ns(q) as f64 / 1e9
    }
}

/// Execute an arrival-ordered stream of placed requests open-loop.
///
/// `arrivals` yields requests in nondecreasing arrival order (asserted);
/// it may be lazy — requests are pulled one at a time and the simulation
/// is pumped up to each arrival before the admission decision, so the
/// live-request count the gate inspects is current as of that arrival.
/// Rejected requests are dropped on the floor and counted; they never
/// enter the executor.
///
/// Conservation: `completed + rejected == offered` on every run (an
/// admitted request always completes — attempt-level faults retry and
/// crash orphans re-place, exactly as in the closed loop).
///
/// # Panics
/// On out-of-order arrivals, placement/dag mismatches, or empty dags —
/// programming errors, not load conditions.
pub fn simulate_open_loop(
    env: &Env,
    arrivals: impl IntoIterator<Item = StreamRequest>,
    opts: &OpenLoopOpts<'_>,
) -> OpenLoopReport {
    run_open(env, arrivals, opts, None)
}

/// Sharded [`simulate_open_loop`]: the same arrival-driven contract —
/// admission gate, bounded memory, conservation — executed by pinned
/// region shards under the conservative driver. Each admitted request is
/// injected into every shard owning a region it touches; the driver
/// pumps barrier windows up to each arrival so the admission gate sees a
/// live count identical for every shard count, and boundary transfers
/// ride between shards as envelopes exactly as in
/// [`crate::simulate_stream_sharded`].
///
/// SLO aggregates (latency distribution, goodput, rejections),
/// conservation counters, and physics totals are bit-identical across
/// shard counts; only `peak_record_buffer` (reported as the largest
/// single shard's buffer) depends on the deal.
///
/// # Panics
/// If `opts.plane` is set (pinned execution rejects the infrastructure
/// fault plane), or on out-of-order arrivals.
pub fn simulate_open_loop_sharded(
    env: &Env,
    arrivals: impl IntoIterator<Item = StreamRequest>,
    partition: &RegionPartition,
    opts: &OpenLoopOpts<'_>,
    shard_opts: &ShardOpts,
) -> OpenLoopReport {
    assert!(
        opts.plane.is_none(),
        "pinned sharded open loop rejects the infrastructure fault plane"
    );
    run_open(
        env,
        arrivals,
        opts,
        Some((partition, shard_opts.max_shards)),
    )
}

/// Fold one open-loop run's SLO aggregates (plus each core's component
/// snapshot) into the ambient metrics sink.
fn publish_slo_metrics(t: &Telemetry, report: &OpenLoopReport, core_snaps: Vec<MetricsSnapshot>) {
    let reg = MetricsRegistry::new();
    reg.inc("slo.offered", report.offered);
    reg.inc("slo.admitted", report.admitted);
    reg.inc("slo.completed", report.completed);
    reg.inc("slo.rejected", report.rejected);
    reg.set_gauge("slo.goodput_hz", report.goodput_hz());
    reg.set_gauge("slo.rejection_rate", report.rejection_rate());
    reg.set_gauge("slo.p50_ms", report.latency_quantile_s(0.50) * 1e3);
    reg.set_gauge("slo.p99_ms", report.latency_quantile_s(0.99) * 1e3);
    reg.set_gauge("slo.p999_ms", report.latency_quantile_s(0.999) * 1e3);
    reg.set_gauge("executor.peak_live_requests", report.peak_live as f64);
    reg.set_gauge(
        "executor.peak_record_buffer",
        report.peak_record_buffer as f64,
    );
    if let Some(h) = &report.health {
        h.publish(&reg);
    }
    let mut snap = reg.snapshot();
    snap.merge_histogram("slo.request_latency", &report.latency);
    snap.merge_histogram("executor.task_duration", &report.task_duration);
    for s in &core_snaps {
        snap.merge(s);
    }
    FlowEngineStats::publish_mean_batch(&mut snap, "flow_engine");
    t.metrics.absorb(&snap);
}

/// Admission and completion bookkeeping of the open loop, for one core or
/// many. A request is *live* from admission until every participant core
/// has retired it; its latency is measured against the maximum finish any
/// participant reports — the same finish time the one-core run observes,
/// so the gate and the SLO aggregates are identical for every shard count.
#[derive(Default)]
struct Gate {
    /// gid -> (participants yet to retire, arrival, max finish so far).
    outstanding: HashMap<usize, (u32, SimTime, SimTime)>,
    offered: u64,
    admitted: u64,
    rejected: u64,
    /// Inside a saturation episode (the last arrival bounced).
    saturated: bool,
    live: usize,
    peak_live: usize,
    completed: u64,
    end_time: SimTime,
    latency: Histogram,
    /// Burn-rate plane fed at settle time. Shards retire in shard
    /// order, not time order, but [`continuum_obs::BurnWindow`] is
    /// order-independent, so the health report stays bit-identical
    /// across shard counts.
    health: Option<HealthPlane>,
}

impl Gate {
    /// Offer the arrival at `at`: sample the health plane if a frame is
    /// due, then return the arrival's global id if fewer than `max_live`
    /// requests are live, or count it rejected.
    fn offer(&mut self, at: SimTime, max_live: usize) -> Option<usize> {
        if let Some(h) = self.health.as_mut() {
            if h.due(at.0) {
                h.sample(
                    at.0,
                    vec![
                        ("live".to_string(), self.live as f64),
                        ("admitted".to_string(), self.admitted as f64),
                        ("rejected".to_string(), self.rejected as f64),
                    ],
                );
            }
        }
        let gid = self.offered as usize;
        self.offered += 1;
        if self.live >= max_live {
            self.rejected += 1;
            if let Some(h) = self.health.as_mut() {
                // Edge-detect: one anomaly per saturation episode, not
                // one per bounced arrival.
                if !self.saturated {
                    h.anomaly(at.0, "saturation");
                }
            }
            self.saturated = true;
            return None;
        }
        self.admitted += 1;
        self.saturated = false;
        Some(gid)
    }

    fn admit(&mut self, gid: usize, participants: u32, arrival: SimTime) {
        self.outstanding
            .insert(gid, (participants, arrival, SimTime::ZERO));
        self.live += 1;
        self.peak_live = self.peak_live.max(self.live);
    }

    /// Drain every core's finished log and settle requests whose last
    /// participant has retired.
    fn drain(&mut self, shards: &mut [CoreShard<'_>]) {
        for s in shards {
            for (gid, fin) in s.core.drain_finished() {
                let e = self
                    .outstanding
                    .get_mut(&gid)
                    .expect("core retired a request the gate never admitted");
                e.0 -= 1;
                e.2 = e.2.max(fin);
                if e.0 == 0 {
                    let (_, arrival, finish) = self.outstanding.remove(&gid).expect("present");
                    self.latency.observe(finish.since(arrival).0);
                    if let Some(h) = self.health.as_mut() {
                        h.observe(finish.0, finish.since(arrival).0);
                    }
                    self.end_time = self.end_time.max(finish);
                    self.completed += 1;
                    self.live -= 1;
                }
            }
        }
    }
}

/// The open loop of both backends: one streaming core (the single queue)
/// or a pinned shard set under the conservative driver, fed arrival by
/// arrival through the [`Gate`].
fn run_open(
    env: &Env,
    arrivals: impl IntoIterator<Item = StreamRequest>,
    opts: &OpenLoopOpts<'_>,
    pinned: Pinned<'_>,
) -> OpenLoopReport {
    let tele = continuum_obs::ambient();
    let collect = tele.is_some();
    // Tracing is a closed-loop affair (it needs the full record set);
    // open-loop runs keep the Perfetto synthesizer off.
    let (mut cores, la, _) = build_cores(env, &[], opts.faults, opts.plane, pinned, collect, false);
    for c in &mut cores {
        c.core.enable_streaming();
    }
    let n = cores.len();
    let mut driver = ConservativeDriver::new(cores, la);
    let mut gate = Gate {
        health: opts.health.map(HealthPlane::new),
        ..Gate::default()
    };
    let mut prev = SimTime::ZERO;
    for r in arrivals {
        assert!(
            r.arrival >= prev,
            "open-loop arrivals must be in nondecreasing time order"
        );
        prev = r.arrival;
        driver.advance_until(r.arrival);
        gate.drain(driver.shards_mut());
        let Some(gid) = gate.offer(r.arrival, opts.max_live) else {
            continue;
        };
        let participants = match pinned {
            Some((partition, _)) => pinned_participants(env, &r, partition, n),
            None => vec![0],
        };
        gate.admit(gid, participants.len() as u32, r.arrival);
        // Every participant but the last gets a copy; the last takes the
        // request itself.
        let (&last, rest) = participants
            .split_last()
            .expect("a request has participants");
        let shards = driver.shards_mut();
        for &s in rest {
            shards[s].core.inject_request(gid, r.clone());
        }
        shards[last].core.inject_request(gid, r);
    }
    driver.run();
    gate.drain(driver.shards_mut());
    assert!(
        gate.outstanding.is_empty(),
        "admitted requests still outstanding after the run drained"
    );
    let (cores, wstats) = driver.into_parts();
    let events: Vec<u64> = cores.iter().map(|s| s.core.scheduled_events()).collect();
    assert_eq!(
        gate.completed + gate.rejected,
        gate.offered,
        "open-loop conservation violated"
    );
    // Merge the per-core parts. Counters add exactly: every attempt,
    // transfer, and device touch is logged by exactly one core.
    let mut task_duration = Histogram::default();
    let mut tasks_by_device = vec![0u64; env.fleet.len()];
    let mut tasks_executed = 0u64;
    let mut peak_record_buffer = 0usize;
    let mut tallies = Vec::new();
    let mut snaps = Vec::new();
    for p in cores.into_iter().map(|s| s.core.finish_open()) {
        task_duration.merge(&p.task_duration);
        for (d, &v) in p.tasks_by_device.iter().enumerate() {
            tasks_by_device[d] += v;
        }
        tasks_executed += p.tasks_executed;
        peak_record_buffer = peak_record_buffer.max(p.peak_record_buf);
        tallies.push(p.tally);
        snaps.extend(p.snap);
    }
    let tally = Tally::merge_all(tallies);
    let makespan = gate.end_time.since(SimTime::ZERO);
    let health = gate.health.take().map(|h| h.finish(gate.end_time.0));
    let report = OpenLoopReport {
        offered: gate.offered,
        admitted: gate.admitted,
        completed: gate.completed,
        rejected: gate.rejected,
        peak_live: gate.peak_live,
        peak_record_buffer,
        end_time: gate.end_time,
        latency: gate.latency,
        task_duration,
        tasks_executed,
        bytes_moved: tally.bytes_moved,
        transfers: tally.transfers,
        failed_attempts: tally.failed_attempts,
        replacements: tally.replacements,
        killed_attempts: tally.killed_attempts,
        device_crashes: tally.device_crashes,
        link_failures: tally.link_failures,
        lost_work_s: tally.lost_work_s(),
        tasks_by_device,
        energy_j: tally.energy.used_devices_joules(&env.fleet, makespan),
        cost_usd: tally.cost.total_usd(),
        health,
    };
    if let Some(t) = tele {
        if pinned.is_some() {
            publish_shard_metrics(&t, &events, &wstats);
        }
        publish_slo_metrics(&t, &report, snaps);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simrun::simulate_stream_chaos;
    use continuum_model::{DeviceClass, DeviceId, Fleet};
    use continuum_net::NodeId;
    use continuum_net::{Tier, Topology};
    use continuum_placement::Placement;
    use continuum_sim::SimDuration;
    use continuum_workflow::{open_loop_stream, ArrivalProcess, Dag, OpenLoopSpec};

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

    /// The inference dags of `open_loop_stream` have three tasks
    /// (capture, preprocess, infer); run the first two at the edge and
    /// the inference at the cloud so every request crosses the link.
    fn placed(workload: continuum_workflow::StreamWorkload) -> Vec<StreamRequest> {
        workload
            .requests
            .into_iter()
            .map(|(arrival, dag)| StreamRequest {
                arrival,
                placement: Placement {
                    assignment: vec![DeviceId(0), DeviceId(0), DeviceId(1)],
                },
                dag,
            })
            .collect()
    }

    #[test]
    fn open_loop_matches_closed_loop_exactly() {
        let (env, e, _c) = two_node(1e9);
        let spec = OpenLoopSpec {
            sensors: vec![e],
            requests: 200,
            process: ArrivalProcess::Poisson { rate_hz: 40.0 },
            frame_bytes: 50_000,
            infer_flops: 5e8,
            size_alpha: None,
        };
        let reqs = placed(open_loop_stream(7, &spec));
        // Second input: attempt retries plus a cloud crash (re-placing
        // its work onto the edge) and a link flap.
        let fs = FaultSpec {
            fail_prob: 0.1,
            seed: 3,
            ..FaultSpec::default()
        };
        let mut schedule = continuum_sim::FaultSchedule::new();
        schedule.crash_and_recover(
            continuum_sim::FaultKind::DeviceCrash,
            1,
            SimTime::from_secs_f64(1.234_567),
            SimDuration::from_millis(600),
        );
        schedule.crash_and_recover(
            continuum_sim::FaultKind::LinkFail,
            0,
            SimTime::from_secs_f64(2.654_321),
            SimDuration::from_millis(300),
        );
        let plane = FaultPlane {
            schedule,
            detection: SimDuration::from_millis(50),
        };
        for (faults, plane) in [(None, None), (Some(&fs), Some(&plane))] {
            let closed = simulate_stream_chaos(&env, &reqs, faults, plane);
            let opts = OpenLoopOpts {
                faults,
                plane,
                ..OpenLoopOpts::default()
            };
            let report = simulate_open_loop(&env, reqs.iter().cloned(), &opts);

            assert_eq!(report.offered, 200);
            assert_eq!(report.rejected, 0);
            assert_eq!(report.completed, 200);
            assert_eq!(report.tasks_executed, closed.trace.records.len() as u64);
            assert_eq!(report.bytes_moved, closed.trace.bytes_moved);
            assert_eq!(report.transfers, closed.trace.transfers);
            assert_eq!(report.failed_attempts, closed.trace.failed_attempts);
            assert_eq!(report.replacements, closed.trace.replacements);
            assert_eq!(report.killed_attempts, closed.trace.killed_attempts);
            assert_eq!(
                report.cost_usd.to_bits(),
                closed.metrics.cost_usd.to_bits(),
                "egress and occupancy bill identically in both loops"
            );
            // The latency *distribution* must be bit-identical: same
            // counts, same sum, same min/max, same buckets.
            let mut want = Histogram::default();
            let mut last_fin = SimTime::ZERO;
            for (arr, fin) in closed
                .trace
                .request_arrival
                .iter()
                .zip(&closed.trace.request_finish)
            {
                want.observe(fin.since(*arr).0);
                last_fin = last_fin.max(*fin);
            }
            assert_eq!(report.latency, want);
            assert_eq!(report.end_time, last_fin);
            if plane.is_some() {
                assert!(report.failed_attempts > 0, "retries in play");
                assert!(report.replacements > 0, "the crash re-placed work");
                assert_eq!((report.device_crashes, report.link_failures), (1, 1));
            }
        }
    }

    #[test]
    fn memory_stays_bounded_over_100k_requests() {
        let (env, e, _c) = two_node(1e9);
        let n = 100_000usize;
        // One tiny local task per request, arriving every 100 µs — the
        // edge gateway keeps up easily, so the live set stays small even
        // though 100k requests flow through.
        let arrivals = (0..n).map(move |i| {
            let mut g = Dag::new(format!("r{i}"));
            let input = g.add_input("in", 100, e);
            let out = g.add_item("out", 1);
            g.add_task("t", 1e6, vec![input], vec![out]);
            StreamRequest {
                arrival: SimTime::from_secs_f64(i as f64 * 100e-6),
                dag: g,
                placement: Placement {
                    assignment: vec![DeviceId(0)],
                },
            }
        });
        let opts = OpenLoopOpts {
            max_live: 512,
            ..Default::default()
        };
        let report = simulate_open_loop(&env, arrivals, &opts);
        assert_eq!(report.offered, n as u64);
        assert_eq!(report.completed + report.rejected, report.offered);
        assert_eq!(report.rejected, 0, "the system keeps up at this rate");
        assert_eq!(report.tasks_executed, n as u64);
        // The point of the exercise: live slots and buffered records
        // track the *active* set, not the 100k offered requests.
        assert!(
            report.peak_live <= 512,
            "peak_live {} exceeds the admission cap",
            report.peak_live
        );
        assert!(
            report.peak_live < 64,
            "peak_live {} is not O(active) for a keeping-up system",
            report.peak_live
        );
        assert!(
            report.peak_record_buffer <= 10_000,
            "record buffer grew to {} entries",
            report.peak_record_buffer
        );
    }

    #[test]
    fn saturation_rejects_and_conserves() {
        let (env, e, _c) = two_node(1e9);
        // 300 heavy tasks arriving 1 ms apart onto a 4-core edge device
        // that needs far longer than 1 ms per task: the live set pins at
        // the cap and most arrivals bounce.
        let arrivals = (0..300usize).map(move |i| {
            let mut g = Dag::new(format!("r{i}"));
            let input = g.add_input("in", 100, e);
            let out = g.add_item("out", 1);
            g.add_task("t", 5e10, vec![input], vec![out]);
            StreamRequest {
                arrival: SimTime::from_secs_f64(i as f64 * 1e-3),
                dag: g,
                placement: Placement {
                    assignment: vec![DeviceId(0)],
                },
            }
        });
        let opts = OpenLoopOpts {
            max_live: 8,
            ..Default::default()
        };
        let report = simulate_open_loop(&env, arrivals, &opts);
        assert_eq!(report.offered, 300);
        assert_eq!(report.completed + report.rejected, 300);
        assert!(
            report.rejected > 200,
            "expected heavy rejection, got {}",
            report.rejected
        );
        assert!(report.rejection_rate() > 0.5);
        assert!(report.peak_live <= 8);
        assert!(report.goodput_hz() > 0.0);
        assert!(report.latency_quantile_s(0.99) >= report.latency_quantile_s(0.50));
    }

    fn continuum_world() -> (Env, Vec<Vec<NodeId>>) {
        let spec = continuum_net::ContinuumSpec {
            fogs: 3,
            edges_per_fog: 2,
            sensors_per_edge: 2,
            clouds: 2,
            hpcs: 1,
            ..continuum_net::ContinuumSpec::default()
        };
        let built = continuum_net::continuum(&spec);
        let fleet = continuum_model::standard_fleet(&built);
        let env = Env::new(built.topology.clone(), fleet);
        let regions = continuum_net::continuum_regions(&spec);
        (env, regions)
    }

    /// `count` spanning requests (fog + backbone devices, round-robin
    /// over fogs), arriving every `gap_us` microseconds.
    fn spanning_arrivals(
        env: &Env,
        regions: &[Vec<NodeId>],
        count: usize,
        gap_us: u64,
    ) -> Vec<StreamRequest> {
        use continuum_workflow::{layered_random, LayeredSpec};
        (0..count)
            .map(|i| {
                let f = 1 + (i % (regions.len() - 1));
                let mut nodes = regions[f].clone();
                nodes.extend(&regions[0]);
                let source = *regions[f].last().expect("non-empty region");
                let mut rng = continuum_sim::Rng::new(1000 + i as u64);
                let dag = layered_random(
                    &mut rng,
                    &LayeredSpec {
                        tasks: 8,
                        source,
                        ..LayeredSpec::default()
                    },
                );
                let devs: Vec<DeviceId> = nodes
                    .iter()
                    .flat_map(|&n| env.fleet.at_node(n).iter().copied())
                    .collect();
                let assignment = (0..dag.len()).map(|k| devs[k % devs.len()]).collect();
                StreamRequest {
                    dag,
                    placement: Placement { assignment },
                    arrival: SimTime::from_secs_f64(i as f64 * gap_us as f64 * 1e-6),
                }
            })
            .collect()
    }

    #[test]
    fn sharded_open_loop_identical_across_shard_counts() {
        let (env, regions) = continuum_world();
        let partition = RegionPartition::new(&env.topology, regions.clone(), 0);
        let arrivals = spanning_arrivals(&env, &regions, 60, 2_000);
        let opts = OpenLoopOpts {
            max_live: 8,
            ..Default::default()
        };
        let strip = |mut r: OpenLoopReport| {
            // The record-buffer high-water mark is per shard, so it
            // legitimately depends on the deal; everything else must not.
            r.peak_record_buffer = 0;
            r
        };
        let reference = strip(simulate_open_loop_sharded(
            &env,
            arrivals.iter().cloned(),
            &partition,
            &opts,
            &ShardOpts::pinned(1),
        ));
        assert_eq!(reference.completed + reference.rejected, reference.offered);
        for n in [2, 4] {
            for threads in [1, 3] {
                let pool = rayon::ThreadPoolBuilder::new()
                    .num_threads(threads)
                    .build()
                    .expect("rayon pool");
                let sharded = strip(pool.install(|| {
                    simulate_open_loop_sharded(
                        &env,
                        arrivals.iter().cloned(),
                        &partition,
                        &opts,
                        &ShardOpts::pinned(n),
                    )
                }));
                assert_eq!(sharded, reference, "n={n} threads={threads} diverged");
            }
        }
    }

    #[test]
    fn sharded_open_loop_saturation_rejects_and_conserves() {
        let (env, regions) = continuum_world();
        let partition = RegionPartition::new(&env.topology, regions.clone(), 0);
        // 150 requests arriving every 200 µs against a gate of 4: the
        // fleet cannot drain spanning DAGs that fast, so most bounce.
        let arrivals = spanning_arrivals(&env, &regions, 150, 200);
        let opts = OpenLoopOpts {
            max_live: 4,
            ..Default::default()
        };
        let a = simulate_open_loop_sharded(
            &env,
            arrivals.iter().cloned(),
            &partition,
            &opts,
            &ShardOpts::pinned(4),
        );
        let b = simulate_open_loop_sharded(
            &env,
            arrivals.iter().cloned(),
            &partition,
            &opts,
            &ShardOpts::pinned(4),
        );
        assert_eq!(a, b, "sharded open loop must be deterministic");
        assert_eq!(a.offered, 150);
        assert_eq!(a.completed + a.rejected, a.offered);
        assert!(a.rejected > 0, "expected backpressure at this rate");
        assert!(a.peak_live <= 4);
        assert!(a.goodput_hz() > 0.0);
    }

    #[test]
    fn health_plane_observes_completions_and_flags_saturation() {
        let (env, e, _c) = two_node(1e9);
        // ~50 ms per task on the 12 Gflop/s gateway: slow enough to pin
        // the gate, fast enough that completions land while arrivals
        // are still flowing (burn detection samples on arrival ticks).
        let arrivals = (0..300usize).map(move |i| {
            let mut g = Dag::new(format!("r{i}"));
            let input = g.add_input("in", 100, e);
            let out = g.add_item("out", 1);
            g.add_task("t", 6e8, vec![input], vec![out]);
            StreamRequest {
                arrival: SimTime::from_secs_f64(i as f64 * 1e-3),
                dag: g,
                placement: Placement {
                    assignment: vec![DeviceId(0)],
                },
            }
        });
        let spec = HealthSpec {
            objective_ns: 1_000_000, // 1 ms: these tasks run far longer
            sample_every_ns: 10_000_000,
            ..HealthSpec::default()
        };
        let opts = OpenLoopOpts {
            max_live: 8,
            health: Some(&spec),
            ..Default::default()
        };
        let report = simulate_open_loop(&env, arrivals, &opts);
        let h = report.health.as_ref().expect("health requested");
        assert_eq!(h.observed, report.completed);
        assert_eq!(h.violations, report.completed, "every task misses 1 ms");
        assert!(h.burn_short_peak > spec.burn_threshold);
        assert!(h.anomalies.iter().any(|a| a.kind == "saturation"));
        assert!(h.anomalies.iter().any(|a| a.kind == "slo-burn"));
        assert!(!h.frames.is_empty(), "flight recorder sampled frames");
        let inc = h.incident.as_ref().expect("anomaly snapshots the ring");
        assert!(inc.at_ns <= report.end_time.0);
    }

    #[test]
    fn sharded_health_identical_across_shard_counts() {
        let (env, regions) = continuum_world();
        let partition = RegionPartition::new(&env.topology, regions.clone(), 0);
        let arrivals = spanning_arrivals(&env, &regions, 80, 400);
        let spec = HealthSpec {
            objective_ns: 20_000_000, // 20 ms: spanning DAGs blow through it
            sample_every_ns: 5_000_000,
            ..HealthSpec::default()
        };
        let opts = OpenLoopOpts {
            max_live: 6,
            health: Some(&spec),
            ..Default::default()
        };
        let strip = |mut r: OpenLoopReport| {
            r.peak_record_buffer = 0;
            r
        };
        let reference = strip(simulate_open_loop_sharded(
            &env,
            arrivals.iter().cloned(),
            &partition,
            &opts,
            &ShardOpts::pinned(1),
        ));
        let h = reference.health.as_ref().expect("health requested");
        assert_eq!(h.observed, reference.completed);
        assert!(h.observed > 0);
        for n in [2, 4] {
            let sharded = strip(simulate_open_loop_sharded(
                &env,
                arrivals.iter().cloned(),
                &partition,
                &opts,
                &ShardOpts::pinned(n),
            ));
            // PartialEq on the report covers the full health report:
            // burn rates, frames, anomalies, incident.
            assert_eq!(sharded, reference, "health diverged at n={n}");
        }
    }

    #[test]
    fn open_loop_runs_are_deterministic() {
        let (env, e, _c) = two_node(1e8);
        let spec = OpenLoopSpec {
            sensors: vec![e],
            requests: 300,
            process: ArrivalProcess::FlashCrowd {
                base_hz: 20.0,
                spike_hz: 400.0,
                at_s: 2.0,
                len_s: 1.0,
            },
            frame_bytes: 100_000,
            infer_flops: 1e9,
            size_alpha: Some(1.5),
        };
        let opts = OpenLoopOpts {
            max_live: 16,
            ..Default::default()
        };
        let a = simulate_open_loop(&env, placed(open_loop_stream(11, &spec)), &opts);
        let b = simulate_open_loop(&env, placed(open_loop_stream(11, &spec)), &opts);
        assert_eq!(a, b);
        assert!(a.rejected > 0, "flash crowd should overrun a cap of 16");
        assert_eq!(a.completed + a.rejected, a.offered);
    }
}
